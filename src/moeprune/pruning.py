"""One-shot weight pruning: four scoring metrics, per-output-neuron mask
selection under unstructured or N:M sparsity, the OBS compensation update, and
the layer-by-layer orchestration over a model.

Scoring/masking operate in (output neuron x input feature) orientation: each
row is one output neuron's comparison group and score columns line up with the
input-norm vectors. The model stores weights as (d_in, d_out); persisted
masks are aligned to the stored weight, and the OBS update works in that
orientation too. It sweeps the input features in SparseGPT's lazy batches of
OBS_BLOCK, over a stack of weights at once: w_gate and w_up, which share one
H^-1, and the live experts of a layer, in groups of at most STACK_BYTES.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .calibration import (
    Accumulators,
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
# Input features per lazy batch of the OBS sweep: larger blocks mean fewer,
# larger GEMMs but longer mat-vecs inside each block
OBS_BLOCK = 32
# Bytes of H^-1, weights and updated weights that one stacked OBS update may
# hold: the live experts of a layer are stacked up to this budget
STACK_BYTES = 16 << 20
# The weights of an expert that read one input: w_gate and w_up share theirs
EXPERT_INPUTS = (("w_gate", "w_up"), ("w_down",))


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
    h = np.array(h, dtype=np.float64)
    h.flat[:: h.shape[0] + 1] += damp_frac * float(np.mean(np.diag(h)))
    return spd_inverse(h)


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
        # ties with the k-th score are pruned from the left until k are; a
        # row whose ties are all needed (the common case) takes them all
        need = k - np.count_nonzero(pruned, axis=1)
        extra = np.flatnonzero(np.count_nonzero(tie, axis=1) > need)
        if extra.size:
            tie[extra] &= np.cumsum(tie[extra], axis=1, dtype=np.int32) <= need[extra, None]
        pruned |= tie
        return (~pruned).view(np.uint8)
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
    """Zero each pruned weight and compensate the kept weights of later input
    features, as the left-to-right OBS sweep over the inputs does.

    w and mask are (..., d_in, d_out), the stored orientation: row j holds
    input j's weight for every output neuron. h_inv is (..., d_in, d_in) and
    its leading axes broadcast against w's, so one call updates a stack of
    weights (w_gate and w_up, which share an H^-1, for several experts); each
    slice comes out equal to a call on that slice alone. Only the diagonal d
    and the upper triangle of H^-1 are read.

    The sweep runs in SparseGPT's lazy batches of OBS_BLOCK rows. Inside a
    block, row j's errors are err[j] = (W[j] - H^-1[block < j, j] @
    err[block < j]) / d[j] where a neuron prunes input j and 0 where it keeps
    it: one mat-vec over the block's earlier rows. One small triangular GEMM
    then applies the block's errors to its own kept weights, and one GEMM
    through H^-1[block, right] to every row after the block. Blocks with no
    pruned weight in any slice are skipped. Pruned entries are exactly +0.0.
    """
    if mask.shape != w.shape:
        raise ShapeError(f"mask shape {mask.shape} != weight shape {w.shape}")
    n, m = w.shape[-2:]
    lead, h_lead = w.shape[:-2], h_inv.shape[:-2]
    if (h_inv.shape[-2:] != (n, n) or len(h_lead) > len(lead)
            or any(a not in (1, b) for a, b in zip(h_lead[::-1], lead[::-1]))):
        raise ShapeError(f"H^-1 shape {h_inv.shape} does not fit weights {w.shape}")
    d = np.diagonal(h_inv, axis1=-2, axis2=-1)
    bad = (d <= 0).reshape(-1, n)
    if bad.any():
        j = int(np.flatnonzero(bad.any(axis=0))[0])
        raise NumericalError(
            f"H^-1 diagonal entry {j} is {d.reshape(-1, n)[bad[:, j]][0, j]}; not positive")
    d = d[..., None]
    live = (mask == 0).any(axis=-1).reshape(-1, n).any(axis=0)
    out = np.array(w, dtype=np.float64)
    # the GEMMs run slice by slice, each in cache: slice s of the flat stack
    # reads H^-1 slice reads[s]
    flat, keep = out.reshape(-1, n, m), mask.reshape(-1, n, m)
    h_flat = h_inv.reshape(-1, n, n)
    reads = np.broadcast_to(np.arange(len(h_flat)).reshape(h_lead), lead).ravel()
    for b in range(0, n, OBS_BLOCK):
        e = min(b + OBS_BLOCK, n)
        if not live[b:e].any():
            continue
        hb, cur = h_inv[..., b:e, b:e], out[..., b:e, :]
        inv_d = np.divide(mask[..., b:e, :] == 0, d[..., b:e, :])  # 1/d where pruned, else 0
        err = np.empty(cur.shape)
        for k in range(e - b):
            row = cur[..., k : k + 1, :]
            if k:
                row = row - hb[..., None, :k, k] @ err[..., :k, :]
            np.multiply(row, inv_d[..., k : k + 1, :], out=err[..., k : k + 1, :])
        for s, (j, es) in enumerate(zip(reads, err.reshape(-1, e - b, m))):
            block = flat[s, b:e]
            block -= np.triu(h_flat[j, b:e, b:e], 1).T @ es
            block *= keep[s, b:e]
            block += 0.0  # a negative weight times a 0 keep is -0.0
            if e < n:
                flat[s, e:] -= h_flat[j, b:e, e:].T @ es
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


def _hessian_error(dw: np.ndarray, acc: HessianAccumulator) -> float:
    """||dW X^T||_F from H = X^T X alone: sqrt(tr(dW H dW^T)), clamped at 0
    against rounding; dW is in pruning orientation. An accumulator that saw
    no tokens holds H = 0, which gives 0.0 with no product."""
    if acc.tokens_seen == 0:
        return 0.0
    return math.sqrt(max(0.0, float(np.sum((dw @ acc.h) * dw))))


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


def _report_row(name: str, method: str, keep: np.ndarray, tokens_seen: int,
                before: float, after: float) -> dict:
    kept = int(keep.sum())
    return {
        "name": name,
        "method": method,
        "rows": int(keep.shape[0]),
        "cols": int(keep.shape[1]),
        "weights": int(keep.size),
        "zeros": int(keep.size - kept),
        "sparsity_achieved": 1.0 - float(kept) / keep.size,
        "tokens_seen": int(tokens_seen),
        "recon_error_before_update": before,
        "recon_error_after_update": after,
    }


def _zero_target(pruned: MoEModel, name: str, method: str, target: SparsityTarget,
                 acc: Accumulators) -> tuple[np.ndarray, dict]:
    """Prune one weight with no update: magnitude, wanda, moe-pruner, and
    sparsegpt's fallback for an expert whose input saw no token."""
    scaled, unscaled, hess = acc
    wp = pruned.params[name].T.copy()  # (out, in) pruning orientation
    if method == "wanda":
        scores = score_wanda(wp, unscaled[name].norms())
    elif method == "moe-pruner":
        scores = score_moe_pruner(wp, scaled[name], target=name)
    else:
        scores = score_magnitude(wp)
    if method == "sparsegpt":
        # the all-zero Hessian cannot be inverted even with dampening
        method = "sparsegpt(magnitude-fallback:no-tokens)"
    keep = select_mask(scores, target)
    zeroed = wp * keep
    error = _hessian_error(wp - zeroed, hess[name])
    pruned.params[name] = np.ascontiguousarray(zeroed.T)
    return (np.ascontiguousarray(keep.T),
            _report_row(name, method, keep, scaled[name].tokens_seen, error, error))


def _sparsegpt_stack(pruned: MoEModel, group: list[list[str]], target: SparsityTarget,
                     acc: Accumulators) -> dict[str, tuple[np.ndarray, dict]]:
    """sparsegpt on the weights that read one input, for each expert of
    `group` (whose input saw tokens): one H'^-1 per expert, masks from its
    scores, then one OBS update over the stack of them all."""
    scaled, _, hess = acc
    d_in, d_out = pruned.params[group[0][0]].shape
    w = np.empty((len(group), len(group[0]), d_in, d_out))
    stored = np.empty(w.shape, dtype=np.uint8)
    h_inv = np.empty((len(group), 1, d_in, d_in))
    rows = {}
    for j, names in enumerate(group):
        h_inv[j, 0] = damped_inverse(hess[names[0]].h)
        for p, name in enumerate(names):
            w[j, p] = pruned.params[name]
            wp = w[j, p].T.copy()  # (out, in) pruning orientation
            keep = select_mask(score_sparsegpt(wp, h_inv[j, 0]), target)
            stored[j, p] = keep.T
            rows[name] = (keep, _hessian_error(wp - wp * keep, hess[name]))
    out = obs_update(w, stored, h_inv)
    done = {}
    for j, names in enumerate(group):
        for p, name in enumerate(names):
            keep, before = rows[name]
            after = _hessian_error((w[j, p] - out[j, p]).T, hess[name])
            pruned.params[name] = out[j, p]
            done[name] = (stored[j, p], _report_row(name, "sparsegpt", keep,
                                                    scaled[name].tokens_seen, before, after))
    return done


def _prune_layer(pruned: MoEModel, i: int, method: str, target: SparsityTarget,
                 acc: Accumulators) -> tuple[dict[str, np.ndarray], list[dict]]:
    """Prune layer i's expert weights of `pruned` in place, scored from the
    accumulators `acc` of that layer's inputs. Returns the keep-masks aligned
    to the stored weights and the report rows, both in parameter order."""
    cfg, hess = pruned.config, acc[2]
    done: dict[str, tuple[np.ndarray, dict]] = {}
    for parts in EXPERT_INPUTS:
        stack = []
        for e in range(cfg.n_experts):
            names = [f"layers.{i}.experts.{e}.{part}" for part in parts]
            if method == "sparsegpt" and hess[names[0]].tokens_seen:
                stack.append(names)
                continue
            for name in names:
                done[name] = _zero_target(pruned, name, method, target, acc)
        if stack:
            d_in, d_out = pruned.params[stack[0][0]].shape
            per = max(1, STACK_BYTES // (8 * d_in * (d_in + 2 * len(parts) * d_out)))
            for g in range(0, len(stack), per):
                done.update(_sparsegpt_stack(pruned, stack[g : g + per], target, acc))
    order = [f"layers.{i}.experts.{e}.{part}" for e in range(cfg.n_experts)
             for parts in EXPERT_INPUTS for part in parts]
    return {name: done[name][0] for name in order}, [done[name][1] for name in order]


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
    (undamped) X^T X that the layer was scored from. w_gate and w_up share
    their input's statistics, so sparsegpt inverts one Hessian for both, and
    updates both, for a group of experts at once, in one stacked OBS sweep.

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
    for i in range(cfg.n_layers):
        acc: Accumulators = (stats.scaled, stats.unscaled, stats.hessians)
        if propagate == "recompute" and i > 0:
            acc = empty_accumulators(cfg, range(i, i + 1))
            for batch in window_batches(stats.sequences):
                layer = model_forward(pruned, batch, stop=(i, "hidden")).layers[i]
                accumulate_layer(acc, i, layer)
        layer_masks, rows = _prune_layer(pruned, i, method, target, acc)
        masks.update(layer_masks)
        report.targets += rows
    return pruned, masks, report.finalize()
