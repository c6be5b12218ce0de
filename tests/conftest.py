import json
import zlib

import numpy as np
import pytest

from moeprune.cli import keep_freed_memory
from moeprune.model import ModelConfig, MoEModel

# the tests that call the library directly run under the CLI's allocator policy
keep_freed_memory()

NOUNS = ["cat", "dog", "bird", "fish", "tree", "star", "ship", "king",
         "wolf", "bear", "rose", "lake", "moon", "sun", "rain", "wind"]
VERBS = ["sees", "likes", "finds", "takes", "keeps", "meets", "hears", "helps"]
ADJS = ["red", "blue", "old", "new", "big", "small", "dark", "bright"]
TEMPLATES = [
    "the {a} {n1} {v} the {n2}. ",
    "a {n1} {v} the {a} {n2}. ",
    "the {n1} and the {n2} {v} the {a} {n3}. ",
]


def synth_corpus(seed: int = 0, size: int = 1 << 20) -> bytes:
    """Deterministic low-entropy English-like text from fixed word pools."""
    rng = np.random.default_rng(seed)
    parts = []
    total = 0
    while total < size:
        t = TEMPLATES[rng.integers(len(TEMPLATES))]
        s = t.format(
            a=ADJS[rng.integers(len(ADJS))],
            v=VERBS[rng.integers(len(VERBS))],
            n1=NOUNS[rng.integers(len(NOUNS))],
            n2=NOUNS[rng.integers(len(NOUNS))],
            n3=NOUNS[rng.integers(len(NOUNS))],
        )
        parts.append(s)
        total += len(s)
    return "".join(parts).encode()[:size]


def input_records(stats) -> dict:
    """Each of collect's InputStats records, by the first weight that reads
    its input (w_gate or w_down)."""
    return {rec.weights[0]: rec for layer in stats.layers for expert in layer for rec in expert}


def seal(manifest: dict) -> dict:
    """The manifest with its manifest_crc32 reset to the CRC32 of its
    canonical JSON (sorted keys, no whitespace) without that field."""
    body = {k: v for k, v in manifest.items() if k != "manifest_crc32"}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return {**body, "manifest_crc32": zlib.crc32(text.encode()) & 0xFFFFFFFF}


def expert_names(model: MoEModel) -> list[str]:
    """The expert matrices' parameter names, in canonical order."""
    return [n for n in model.params if ".experts." in n]


def random_bytes_corpus(seed: int = 0, size: int = 1 << 14) -> bytes:
    rng = np.random.default_rng(seed)
    return bytes(rng.integers(0, 256, size).astype(np.uint8))


TINY = ModelConfig(d_model=16, n_heads=2, n_layers=2, n_experts=4, top_k=2,
                   d_ff=32, seq_len=32, vocab_size=256, seed=11)
# TINY with a top-1 router, whose masked softmax gives every routed token a
# gate of exactly 1.0: the case where moe-pruner's scores are Wanda's
TOP1 = ModelConfig(d_model=16, n_heads=2, n_layers=2, n_experts=4, top_k=1,
                   d_ff=32, seq_len=32, vocab_size=256, seed=12)


@pytest.fixture(scope="session")
def tiny_model() -> MoEModel:
    return MoEModel.init(TINY)


@pytest.fixture(scope="session")
def small_corpus() -> bytes:
    return synth_corpus(seed=1, size=1 << 16)
