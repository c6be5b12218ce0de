"""Calibration statistics: gate-scaled input norms and Hessians (X^T X),
streamed over a token sample; and the dispatch counts that load-balance
analysis scores.

Every statistic belongs to an expert input, so collect returns one
InputStats record per (layer, expert, input), naming the weights that read
it (EXPERT_INPUTS): w_gate and w_up read the MoE-layer input restricted to
the tokens routed to that expert; w_down reads the SwiGLU intermediate. A
record holds the gate-scaled norms, which weight each token's features by
that token's normalized gate before squaring, the (always unscaled) X^T X
and the token count. The plain norms ||X_j|| are sqrt(diag(X^T X)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .config import Section
from .errors import InputError, ShapeError
from .model import LayerTrace, MoEModel, ModelConfig, model_forward, window_batches
from .numerics import SeededRng

__all__ = [
    "CalibrationConfig",
    "CalibrationSet",
    "ScaledNormAccumulator",
    "HessianAccumulator",
    "InputStats",
    "CalibrationStats",
    "EXPERT_INPUTS",
    "build_calibration_set",
    "empty_layer",
    "accumulate_layer",
    "collect",
    "count_dispatch",
    "corpus_tokens",
    "nonoverlapping_windows",
]


@dataclass(frozen=True)
class CalibrationConfig(Section):
    """How many seq_len windows calibration draws, and from which seed."""

    SECTION = "calibration"

    nsamples: int = 128
    seed: int = 0


def corpus_tokens(corpus: bytes) -> np.ndarray:
    """Byte-level tokenization: UTF-8 text read as raw bytes, vocab 256."""
    return np.frombuffer(corpus, dtype=np.uint8).astype(np.intp)


def nonoverlapping_windows(corpus: bytes, seq_len: int) -> np.ndarray:
    """Consecutive seq_len windows, tail remainder dropped: an (N, seq_len)
    view of the tokens."""
    toks = corpus_tokens(corpus)
    n = toks.size // seq_len
    if n == 0:
        raise InputError(f"corpus has {toks.size} tokens, shorter than seq_len={seq_len}")
    return toks[: n * seq_len].reshape(n, seq_len)


@dataclass
class CalibrationSet:
    sequences: np.ndarray   # (nsamples, seq_len) intp windows


def build_calibration_set(corpus: bytes, nsamples: int, seq_len: int, seed: int) -> CalibrationSet:
    """nsamples windows of seq_len tokens at seeded-random offsets."""
    toks = corpus_tokens(corpus)
    if toks.size < seq_len:
        raise InputError(f"corpus has {toks.size} tokens, shorter than seq_len={seq_len}")
    if toks.size < nsamples * seq_len:
        raise InputError(
            f"corpus too short: {toks.size} tokens, under the {nsamples * seq_len} of "
            f"{nsamples} windows of {seq_len} (windows start at random offsets and may overlap)"
        )
    offsets = SeededRng(seed).integers(0, toks.size - seq_len + 1, size=nsamples)
    return CalibrationSet(sequences=toks[offsets[:, None] + np.arange(seq_len)])


@dataclass
class ScaledNormAccumulator:
    """Streaming sum over tokens of (x_j * g)^2 per input feature j."""

    sum_sq: np.ndarray

    def add(self, x: np.ndarray, gates: np.ndarray) -> None:
        """Add the routed inputs x, each row scaled by its gate."""
        scaled = x * gates[:, None]
        self.sum_sq += (scaled * scaled).sum(axis=0)

    def norms(self) -> np.ndarray:
        return np.sqrt(self.sum_sq)


@dataclass
class HessianAccumulator:
    """Streaming X^T X over routed (unscaled) calibration inputs."""

    h: np.ndarray

    def add(self, x: np.ndarray) -> None:
        self.h += x.T @ x


# The weights of an expert that read one input: w_gate and w_up share theirs
EXPERT_INPUTS = (("w_gate", "w_up"), ("w_down",))


@dataclass
class InputStats:
    """What calibration saw of one expert input: the weights that read it,
    its gate-scaled norms, its X^T X, and how many tokens."""

    weights: tuple[str, ...]
    scaled: ScaledNormAccumulator
    hessian: HessianAccumulator
    tokens_seen: int = 0

    @classmethod
    def empty(cls, weights: tuple[str, ...], d_in: int) -> "InputStats":
        return cls(weights, ScaledNormAccumulator(np.zeros(d_in)),
                   HessianAccumulator(np.zeros((d_in, d_in))))

    def add(self, x: np.ndarray, gates: np.ndarray) -> None:
        """Add the routed inputs x (tokens, d_in) with their gates."""
        if x.shape[1] != self.scaled.sum_sq.size:
            raise ShapeError(f"{self.weights[0]}: input width {x.shape[1]} != "
                             f"{self.scaled.sum_sq.size}")
        self.scaled.add(x, gates)
        self.hessian.add(x)
        self.tokens_seen += x.shape[0]


# One layer's statistics: per expert, one record per entry of EXPERT_INPUTS
LayerStats = list[tuple[InputStats, ...]]


@dataclass
class CalibrationStats:
    model_config: ModelConfig
    layers: list[LayerStats]
    sequences: np.ndarray   # the CalibrationSet's windows, not a copy


def empty_layer(cfg: ModelConfig, i: int) -> LayerStats:
    """Empty records for the expert inputs of layer i, in parameter order."""
    widths = (cfg.d_model, cfg.d_ff)  # of the inputs of EXPERT_INPUTS
    layer = []
    for e in range(cfg.n_experts):
        base = f"layers.{i}.experts.{e}"
        layer.append(tuple(InputStats.empty(tuple(f"{base}.{part}" for part in parts), d)
                           for parts, d in zip(EXPERT_INPUTS, widths)))
    return layer


def accumulate_layer(records: LayerStats, layer: LayerTrace) -> None:
    """Add one forward's routed inputs at a layer into that layer's records."""
    for e, idx in layer.expert_tokens.items():
        if idx.size == 0:
            continue
        g = layer.gates[idx, e]
        for rec, x in zip(records[e], (layer.moe_input[idx], layer.expert_hidden[e])):
            rec.add(x, g)


def collect(model: MoEModel, cal: CalibrationSet) -> CalibrationStats:
    """The statistics pruning reads, per expert input: gate-scaled input
    norms and X^T X. One streaming pass over the calibration set, in
    fixed sequence order and batches of windows; each forward stops after the
    last layer's expert intermediates, the last input any statistic reads.
    Dispatch counts are not gathered here (see count_dispatch)."""
    cfg = model.config
    records = [empty_layer(cfg, i) for i in range(cfg.n_layers)]
    for batch in window_batches(cal.sequences):
        layers = model_forward(model, batch, stop=(cfg.n_layers - 1, "hidden")).layers
        for layer_records, layer in zip(records, layers):
            accumulate_layer(layer_records, layer)
    return CalibrationStats(model_config=cfg, layers=records, sequences=cal.sequences)


def count_dispatch(model: MoEModel, cal: CalibrationSet, mode: str) -> tuple[np.ndarray, int]:
    """Per-layer dispatch counts over the calibration set, (n_layers,
    n_experts) int64, and the number of tokens routed. "argmax" counts each
    token once, at the argmax of its full router softmax; "topk" counts every
    expert it is routed to. Each forward stops at the last layer's router."""
    if mode not in ("argmax", "topk"):
        raise InputError(f"unknown frequency mode {mode!r}")
    cfg = model.config
    counts = np.zeros((cfg.n_layers, cfg.n_experts), dtype=np.int64)
    total = 0
    for batch in window_batches(cal.sequences):
        layers = model_forward(model, batch, stop=(cfg.n_layers - 1, "router")).layers
        for i, layer in enumerate(layers):
            if mode == "argmax":
                # argmax counts read the rounded probabilities, not the logits: logits
                # whose probabilities round equal tie, and the lowest index takes it
                logits = ag.Tape(record=False).var(layer.router_logits)
                probs = ag.row_softmax(logits, np.ones(logits.value.shape, dtype=bool)).value
                np.add.at(counts[i], np.argmax(probs, axis=1), 1)
            else:
                counts[i] += np.count_nonzero(layer.gates, axis=0)
        total += batch.size
    return counts, total
