"""One-shot weight pruning: four scoring metrics, per-output-neuron mask
selection under unstructured or N:M sparsity, the OBS compensation update, and
the layer-by-layer orchestration over a model.

Scoring/masking operate in (output neuron x input feature) orientation: each
row is one output neuron's comparison group and score columns line up with the
input-norm vectors. The model stores weights as (d_in, d_out), so the
orchestrator transposes in and out; persisted masks are aligned to the stored
weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .calibration import (
    CalibrationStats,
    HessianAccumulator,
    ScaledNormAccumulator,
    accumulate_layer,
    empty_accumulators,
)
from .errors import ConfigError, ContractError, NumericalError, ShapeError, UsageError
from .model import MoEModel, model_forward, window_batches
from .numerics import spd_inverse

__all__ = [
    "SparsityTarget",
    "PruneReport",
    "score_magnitude",
    "score_wanda",
    "score_moe_pruner",
    "damped_inverse",
    "score_sparsegpt",
    "select_mask",
    "obs_update",
    "reconstruction_error",
    "prune_model",
    "METHODS",
]

METHODS = ("magnitude", "wanda", "moe-pruner", "sparsegpt")
# Hessian dampening, as a fraction of its mean diagonal (common practice)
DAMP_FRAC = 0.01


@dataclass(frozen=True)
class SparsityTarget:
    """Unstructured fraction p in [0,1) or semi-structured n_keep:m_group."""

    p: float | None = None
    n_keep: int | None = None
    m_group: int | None = None

    def __post_init__(self):
        if (self.p is None) == (self.n_keep is None):
            raise ConfigError("specify exactly one of unstructured p or n:m pattern")
        if self.p is not None and not 0.0 <= self.p < 1.0:
            raise ConfigError(f"sparsity fraction must be in [0, 1), got {self.p}")
        if self.n_keep is not None:
            if self.m_group is None or not 0 < self.n_keep < self.m_group:
                raise ConfigError(
                    f"n:m pattern needs 0 < n_keep < m_group, got {self.n_keep}:{self.m_group}"
                )

    @classmethod
    def unstructured(cls, p: float) -> "SparsityTarget":
        return cls(p=float(p))

    @classmethod
    def semi_structured(cls, n_keep: int, m_group: int) -> "SparsityTarget":
        return cls(n_keep=int(n_keep), m_group=int(m_group))

    @classmethod
    def parse(cls, text: str) -> "SparsityTarget":
        """An N:M pattern; a fraction is not one (that is --sparsity)."""
        if ":" not in text:
            raise UsageError(f"pattern {text!r} is not N:M; give a fraction with --sparsity")
        try:
            n, m = text.split(":")
            return cls.semi_structured(int(n), int(m))
        except ValueError:
            raise UsageError(f"pattern {text!r} is not N:M (two integers)") from None

    def describe(self) -> str:
        return f"{self.n_keep}:{self.m_group}" if self.p is None else f"p={self.p}"


def score_magnitude(w: np.ndarray) -> np.ndarray:
    """S_ij = |W_ij|."""
    return np.abs(w)


def score_wanda(w: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """S_ij = |W_ij| * ||X_j|| with norms over unscaled calibration inputs."""
    norms = np.asarray(norms, dtype=np.float64).ravel()
    if norms.size != w.shape[1]:
        raise ShapeError(f"norms length {norms.size} != weight columns {w.shape[1]}")
    return np.abs(w) * norms[None, :]


def score_moe_pruner(
    w: np.ndarray, scaled_norms: ScaledNormAccumulator, target: str | None = None
) -> np.ndarray:
    """S_ij = |W_ij| * ||X_j * Gate_j||: weight magnitude times the norm of
    gate-weighted input activations. A `target` weight name must be one of
    the weights that read the accumulator's input."""
    if target is not None and target not in scaled_norms.targets:
        raise ContractError(
            f"accumulator of {scaled_norms.targets!r} is not the input of weight {target!r}"
        )
    if scaled_norms.sum_sq.size != w.shape[1]:
        raise ShapeError(
            f"accumulator width {scaled_norms.sum_sq.size} != weight columns {w.shape[1]}"
        )
    return np.abs(w) * scaled_norms.norms()[None, :]


def damped_inverse(h: np.ndarray, damp_frac: float = DAMP_FRAC) -> np.ndarray:
    """H'^-1 with H' = H + damp_frac * mean(diag H) * I: what SparseGPT scores
    and the OBS update read. Every weight that reads the same input shares it.
    damp_frac=0 is a test hook; prune_model uses DAMP_FRAC.
    """
    if damp_frac < 0:
        raise ConfigError(f"damp_frac must be >= 0, got {damp_frac}")
    h = np.asarray(h, dtype=np.float64)
    return spd_inverse(h + damp_frac * float(np.mean(np.diag(h))) * np.eye(h.shape[0]))


def score_sparsegpt(w: np.ndarray, h_inv: np.ndarray) -> np.ndarray:
    """S_ij = W_ij^2 / [H'^-1]_jj, with H'^-1 from `damped_inverse`."""
    if h_inv.shape != (w.shape[1], w.shape[1]):
        raise ShapeError(f"H'^-1 shape {h_inv.shape} != ({w.shape[1]}, {w.shape[1]})")
    return (w * w) / np.diag(h_inv)[None, :]


def select_mask(scores: np.ndarray, target: SparsityTarget) -> np.ndarray:
    """Keep-mask per comparison group: per row for unstructured, per aligned
    m-column group for n:m. Ties prune the lower column index first, as a
    stable sort would, but nothing is sorted."""
    rows, cols = scores.shape
    if target.p is not None:
        k = math.floor(target.p * cols)
        if k == 0:
            return np.ones((rows, cols), dtype=np.uint8)
        kth = np.partition(scores, k - 1, axis=1)[:, k - 1 : k]
        pruned = scores < kth
        tie = scores == kth
        # ties with the k-th score are pruned from the left until k are
        need = k - np.count_nonzero(pruned, axis=1)[:, None]
        pruned |= tie & (np.cumsum(tie, axis=1, dtype=np.int32) <= need)
        return (~pruned).astype(np.uint8)
    m = target.m_group
    if cols % m != 0:
        raise ShapeError(f"column count {cols} not divisible by group size {m}")
    # a column's rank in its group counts the lower-indexed scores <= it and
    # the higher-indexed scores < it; the m - n_keep lowest ranks are pruned
    grouped = np.moveaxis(scores.reshape(rows, cols // m, m), 2, 0).copy()
    keep = np.empty((rows, cols // m, m), dtype=np.uint8)
    for a in range(m):
        rank = ((grouped[:a] <= grouped[a]).sum(axis=0, dtype=np.int32)
                + (grouped[a + 1 :] < grouped[a]).sum(axis=0, dtype=np.int32))
        keep[:, :, a] = rank >= m - target.n_keep
    return keep.reshape(rows, cols)


def obs_update(w: np.ndarray, mask: np.ndarray, h_inv: np.ndarray) -> np.ndarray:
    """Zero each pruned weight and compensate the kept weights to its right,
    as the left-to-right OBS column sweep does. With U = triu(H^-1, 1) and
    d = diag(H^-1), row r's error at a pruned column j is (W[r, j] -
    err[r, :j] @ U[:j, j]) / d[j], 0 where kept: one mat-vec per column.
    The update is then W - err @ U, one matmul; pruned entries are exactly 0.0."""
    if mask.shape != w.shape:
        raise ShapeError(f"mask shape {mask.shape} != weight shape {w.shape}")
    if h_inv.shape != (w.shape[1], w.shape[1]):
        raise ShapeError(f"H^-1 shape {h_inv.shape} != ({w.shape[1]}, {w.shape[1]})")
    d = np.diag(h_inv)
    bad = np.flatnonzero(d <= 0)
    if bad.size:
        raise NumericalError(f"H^-1 diagonal entry {bad[0]} is {d[bad[0]]}; not positive")
    u = np.triu(h_inv, 1)
    pruned = mask == 0
    err = np.zeros((w.shape[1], w.shape[0]))  # (cols, rows): err[:j] is contiguous
    for j in np.flatnonzero(pruned.any(axis=0)):
        err[j] = np.where(pruned[:, j], (w[:, j] - u[:j, j] @ err[:j]) / d[j], 0.0)
    out = w - err.T @ u
    out[pruned] = 0.0
    return out


def reconstruction_error(w: np.ndarray, w_pruned: np.ndarray, x: np.ndarray) -> float:
    """Frobenius norm of (W - W_pruned) X^T over calibration inputs x (tokens, d_in).

    The reference form; `prune_model` computes the same value from H = X^T X.
    """
    if w.shape != w_pruned.shape:
        raise ShapeError(f"weight shapes differ: {w.shape} vs {w_pruned.shape}")
    if x.shape[1] != w.shape[1]:
        raise ShapeError(f"input width {x.shape[1]} != weight columns {w.shape[1]}")
    if x.shape[0] == 0:
        return 0.0
    return float(np.linalg.norm((w - w_pruned) @ x.T))


def _hessian_error(dw: np.ndarray, h: np.ndarray) -> float:
    """||dW X^T||_F from H = X^T X alone: sqrt(tr(dW H dW^T)), clamped at 0
    against rounding. H = 0 (no tokens seen) gives 0.0."""
    return math.sqrt(max(0.0, float(np.sum((dw @ h) * dw))))


# ---------------------------------------------------------------------------
# Layer-by-layer orchestration
# ---------------------------------------------------------------------------


@dataclass
class PruneReport:
    method: str
    sparsity: str
    propagate: str
    targets: list[dict] = field(default_factory=list)
    totals: dict = field(default_factory=dict)

    def finalize(self) -> "PruneReport":
        total = sum(t["weights"] for t in self.targets)
        zeros = sum(t["zeros"] for t in self.targets)
        self.totals = {
            "weights": total,
            "zeros": zeros,
            "sparsity_achieved": (zeros / total) if total else 0.0,
            "recon_error_before_update": sum(t["recon_error_before_update"] for t in self.targets),
            "recon_error_after_update": sum(t["recon_error_after_update"] for t in self.targets),
        }
        return self


def _score_target(
    method: str,
    wp: np.ndarray,
    name: str,
    scaled: dict[str, ScaledNormAccumulator],
    unscaled: dict[str, ScaledNormAccumulator],
    hess: dict[str, HessianAccumulator],
    inverses: dict[tuple[str, ...], np.ndarray],
) -> tuple[np.ndarray, np.ndarray | None, str]:
    """Scores in pruning orientation, plus H^-1 when the method updates weights.
    `inverses` holds H^-1 per input already inverted, keyed by its weights."""
    if method == "magnitude":
        return score_magnitude(wp), None, method
    if method == "wanda":
        return score_wanda(wp, unscaled[name].norms()), None, method
    if method == "moe-pruner":
        return score_moe_pruner(wp, scaled[name], target=name), None, method
    if method == "sparsegpt":
        acc = hess[name]
        if acc.tokens_seen == 0:
            # dead expert: the Hessian is all-zero and cannot be inverted even
            # with dampening; fall back to magnitude with no update
            return score_magnitude(wp), None, "sparsegpt(magnitude-fallback:no-tokens)"
        if acc.targets not in inverses:
            inverses[acc.targets] = damped_inverse(acc.h)
        return score_sparsegpt(wp, inverses[acc.targets]), inverses[acc.targets], method
    raise ConfigError(f"unknown pruning method {method!r}; choose from {METHODS}")


def prune_model(
    model: MoEModel,
    stats: CalibrationStats,
    method: str,
    target: SparsityTarget,
    propagate: str = "dense",
) -> tuple[MoEModel, dict[str, np.ndarray], PruneReport]:
    """Prune every expert matrix, layer by layer.

    propagate="dense" scores each layer from `stats` alone, the activations
    of the unpruned model, and runs no forward; "recompute" re-runs the
    calibration sequences through the partly pruned model, up to layer i's
    expert intermediates, before scoring each layer i > 0. Layer 0's inputs
    are the dense ones, so both take it from `stats`, which must therefore
    be collected from `model`. Reconstruction errors come from the same
    (undamped) X^T X that the layer was scored from. w_gate and w_up share their input's statistics,
    so sparsegpt inverts one Hessian for both.

    Attention and router matrices are untouched. Returns the pruned model, the
    keep-masks aligned to the stored weights, and a report.
    """
    if method not in METHODS:
        raise ConfigError(f"unknown pruning method {method!r}; choose from {METHODS}")
    if propagate not in ("dense", "recompute"):
        raise ConfigError(f"propagate must be 'dense' or 'recompute', got {propagate!r}")
    stats.validate_for_model(model)
    for name in model.expert_param_names():
        if name not in stats.scaled:
            raise ContractError(f"stats are missing accumulator for target {name!r}")

    cfg = model.config
    # every expert weight is replaced below; until then the pruned model
    # reads the original, so only the other parameters are copied
    pruned = MoEModel(cfg, {n: p if ".experts." in n else p.copy()
                            for n, p in model.params.items()})
    masks: dict[str, np.ndarray] = {}
    report = PruneReport(method=method, sparsity=target.describe(), propagate=propagate)

    scaled, unscaled, hess = stats.scaled, stats.unscaled, stats.hessians
    for i in range(cfg.n_layers):
        if propagate == "recompute" and i > 0:
            acc = empty_accumulators(cfg, range(i, i + 1))
            for batch in window_batches(stats.sequences):
                layer = model_forward(pruned, batch, stop=(i, "hidden")).layers[i]
                accumulate_layer(acc, i, layer)
            scaled, unscaled, hess = acc
        for e in range(cfg.n_experts):
            inverses: dict[tuple[str, ...], np.ndarray] = {}
            for part in ("w_gate", "w_up", "w_down"):
                name = f"layers.{i}.experts.{e}.{part}"
                wp = pruned.params[name].T.copy()  # (out, in) pruning orientation
                scores, h_inv, method_used = _score_target(
                    method, wp, name, scaled, unscaled, hess, inverses
                )
                keep = select_mask(scores, target)
                zeroed = wp * keep
                updated = obs_update(wp, keep, h_inv) if h_inv is not None else zeroed
                before = _hessian_error(wp - zeroed, hess[name].h)
                after = _hessian_error(wp - updated, hess[name].h) if h_inv is not None else before
                pruned.params[name] = np.ascontiguousarray(updated.T)
                masks[name] = np.ascontiguousarray(keep.T)
                report.targets.append({
                    "name": name,
                    "method": method_used,
                    "rows": int(wp.shape[0]),
                    "cols": int(wp.shape[1]),
                    "weights": int(wp.size),
                    "zeros": int(keep.size - int(keep.sum())),
                    "sparsity_achieved": 1.0 - float(keep.sum()) / keep.size,
                    "tokens_seen": int(scaled[name].tokens_seen),
                    "recon_error_before_update": before,
                    "recon_error_after_update": after,
                })
    return pruned, masks, report.finalize()
