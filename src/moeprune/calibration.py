"""Calibration statistics: gate-scaled input norms, plain input norms and
Hessians (X^T X), streamed over a token sample; and the dispatch counts that
load-balance analysis scores.

For each expert input there is one scaled and one unscaled norm accumulator
and one Hessian accumulator, keyed by the weights that read it: w_gate and
w_up share the MoE-layer input restricted to the tokens routed to that expert;
w_down reads the SwiGLU intermediate. Scaled accumulators weight each token's
features by that token's normalized gate before squaring; Hessians always use
unscaled inputs.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .config import Section
from .errors import InputError, ShapeError
from .model import LayerTrace, MoEModel, ModelConfig, model_forward, window_batches
from .numerics import SeededRng

__all__ = [
    "CalibrationConfig",
    "CalibrationSet",
    "ScaledNormAccumulator",
    "HessianAccumulator",
    "CalibrationStats",
    "build_calibration_set",
    "empty_accumulators",
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


def corpus_tokens(corpus: bytes | str) -> np.ndarray:
    """Byte-level tokenization: UTF-8 text read as raw bytes, vocab 256."""
    if isinstance(corpus, str):
        corpus = corpus.encode("utf-8")
    return np.frombuffer(corpus, dtype=np.uint8).astype(np.intp)


def nonoverlapping_windows(corpus: bytes | str, seq_len: int) -> list[np.ndarray]:
    """Consecutive seq_len windows, tail remainder dropped."""
    toks = corpus_tokens(corpus)
    n = toks.size // seq_len
    if n == 0:
        raise InputError(f"corpus has {toks.size} tokens, shorter than seq_len={seq_len}")
    return [toks[i * seq_len : (i + 1) * seq_len] for i in range(n)]


@dataclass
class CalibrationSet:
    sequences: list[np.ndarray]
    nsamples: int
    seed: int


def build_calibration_set(corpus: bytes | str, nsamples: int, seq_len: int, seed: int) -> CalibrationSet:
    """nsamples windows of seq_len tokens at seeded-random offsets."""
    toks = corpus_tokens(corpus)
    if toks.size < seq_len:
        raise InputError(f"corpus has {toks.size} tokens, shorter than seq_len={seq_len}")
    if toks.size < nsamples * seq_len:
        raise InputError(
            f"corpus too short: {toks.size} tokens, under the {nsamples * seq_len} of "
            f"{nsamples} windows of {seq_len} (windows start at random offsets and may overlap)"
        )
    rng = SeededRng(seed)
    offsets = rng.integers(0, toks.size - seq_len + 1, size=nsamples)
    seqs = [toks[o : o + seq_len].copy() for o in np.asarray(offsets)]
    return CalibrationSet(sequences=seqs, nsamples=nsamples, seed=seed)


@dataclass
class ScaledNormAccumulator:
    """Streaming sum over tokens of (x_j * g)^2 per feature j of the input `targets` read."""

    targets: tuple[str, ...]
    sum_sq: np.ndarray
    tokens_seen: int = 0

    @classmethod
    def empty(cls, targets: tuple[str, ...], d_in: int) -> "ScaledNormAccumulator":
        return cls(targets=targets, sum_sq=np.zeros(d_in))

    def add(self, x: np.ndarray, gates: np.ndarray | None = None) -> None:
        """Add the routed inputs x, each row scaled by its gate; without gates
        the plain x^2 (equal, bit for bit, to gates of ones)."""
        if x.shape[1] != self.sum_sq.size:
            raise ShapeError(f"{self.targets[0]}: input width {x.shape[1]} != {self.sum_sq.size}")
        scaled = x if gates is None else x * gates[:, None]
        self.sum_sq += (scaled * scaled).sum(axis=0)
        self.tokens_seen += x.shape[0]

    def norms(self) -> np.ndarray:
        return np.sqrt(self.sum_sq)


@dataclass
class HessianAccumulator:
    """Streaming X^T X over the routed (unscaled) calibration inputs `targets` read."""

    targets: tuple[str, ...]
    h: np.ndarray
    tokens_seen: int = 0

    @classmethod
    def empty(cls, targets: tuple[str, ...], d_in: int) -> "HessianAccumulator":
        return cls(targets=targets, h=np.zeros((d_in, d_in)))

    def add(self, x: np.ndarray) -> None:
        if x.shape[1] != self.h.shape[0]:
            raise ShapeError(f"{self.targets[0]}: input width {x.shape[1]} != {self.h.shape[0]}")
        self.h += x.T @ x
        self.tokens_seen += x.shape[0]


@dataclass
class CalibrationStats:
    model_config: ModelConfig
    scaled: dict[str, ScaledNormAccumulator]
    unscaled: dict[str, ScaledNormAccumulator]
    hessians: dict[str, HessianAccumulator]
    sequences: list[np.ndarray]

    def validate_for_model(self, model: MoEModel) -> None:
        mc, sc = model.config, self.model_config
        same = (
            mc.d_model == sc.d_model and mc.n_layers == sc.n_layers
            and mc.n_experts == sc.n_experts and mc.d_ff == sc.d_ff
            and mc.vocab_size == sc.vocab_size
        )
        if not same:
            raise ShapeError(
                f"stats collected for architecture {asdict(sc)} do not match "
                f"model architecture {asdict(mc)}"
            )


Accumulators = tuple[
    dict[str, ScaledNormAccumulator], dict[str, ScaledNormAccumulator], dict[str, HessianAccumulator]
]


def empty_accumulators(cfg: ModelConfig, layers: range) -> Accumulators:
    """Empty (scaled, unscaled, Hessian) accumulators for every expert matrix
    of `layers`, one per expert input: w_gate and w_up share theirs."""
    acc = ({}, {}, {})
    for i in layers:
        for e in range(cfg.n_experts):
            base = f"layers.{i}.experts.{e}"
            for names, d in (((f"{base}.w_gate", f"{base}.w_up"), cfg.d_model),
                             ((f"{base}.w_down",), cfg.d_ff)):
                for table, cls in zip(acc, (ScaledNormAccumulator, ScaledNormAccumulator,
                                            HessianAccumulator)):
                    table.update(dict.fromkeys(names, cls.empty(names, d)))
    return acc


def accumulate_layer(acc: Accumulators, i: int, layer: LayerTrace) -> None:
    """Add one forward's routed inputs at layer i into that layer's accumulators."""
    scaled, unscaled, hessians = acc
    for e, idx in layer.expert_tokens.items():
        if idx.size == 0:
            continue
        g = layer.gates.values[idx, e]
        base = f"layers.{i}.experts.{e}"
        # w_up shares w_gate's accumulators
        for tgt, x in ((f"{base}.w_gate", layer.moe_input[idx]),
                       (f"{base}.w_down", layer.expert_hidden[e])):
            scaled[tgt].add(x, g)
            unscaled[tgt].add(x)
            hessians[tgt].add(x)


def collect(model: MoEModel, cal: CalibrationSet) -> CalibrationStats:
    """The statistics pruning reads, per expert input: gate-scaled and plain
    input norms and X^T X. One streaming pass over the calibration set, in
    fixed sequence order and batches of windows; each forward stops after the
    last layer's expert intermediates, the last input any statistic reads.
    Dispatch counts are not gathered here (see count_dispatch)."""
    cfg = model.config
    acc = empty_accumulators(cfg, range(cfg.n_layers))
    for batch in window_batches(cal.sequences):
        layers = model_forward(model, batch, stop=(cfg.n_layers - 1, "hidden")).layers
        for i, layer in enumerate(layers):
            accumulate_layer(acc, i, layer)
    scaled, unscaled, hessians = acc
    return CalibrationStats(model_config=cfg, scaled=scaled, unscaled=unscaled,
                            hessians=hessians, sequences=list(cal.sequences))


def _full_softmax(x: np.ndarray) -> np.ndarray:
    # argmax counts read the rounded probabilities, not the logits: logits
    # whose probabilities round equal tie, and the lowest index takes it
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


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
            gm = layer.gates
            if mode == "argmax":
                np.add.at(counts[i], np.argmax(_full_softmax(gm.logits), axis=1), 1)
            else:
                counts[i] += np.count_nonzero(gm.values, axis=0)
        total += batch.size
    return counts, total
