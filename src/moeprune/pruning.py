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

prune_model walks calibration's per-input records (InputStats): each names
the weights that read its input, and every weight is scored, masked,
updated and reported from its input's record. One path prunes a group of
inputs of one kind for every method; only sparsegpt adds a step, the OBS update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .calibration import CalibrationStats, InputStats, LayerStats, accumulate_layer, empty_layer
from .errors import ConfigError, NumericalError, ShapeError, UsageError
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
    """S_ij = |W_ij| * ||X_j||: Wanda's score, with the norms of unscaled
    calibration inputs, sqrt(diag(X^T X)) of an InputStats record's Hessian;
    and MoE-Pruner's, with the norms of gate-weighted inputs ||X_j * Gate_j||
    (the record's scaled norms)."""
    norms = np.asarray(norms, dtype=np.float64).ravel()
    if norms.size != w.shape[1]:
        raise ShapeError(f"norms length {norms.size} != weight columns {w.shape[1]}")
    return np.abs(w) * norms[None, :]


# one score, two names: the tracer in bench/ wraps each name
score_moe_pruner = score_wanda


def damped_inverse(h: np.ndarray) -> np.ndarray:
    """H'^-1 with H' = H + DAMP_FRAC * mean(diag H) * I: what SparseGPT scores
    and the OBS update read. Every weight that reads the same input shares it.
    """
    h = np.array(h, dtype=np.float64)
    h.flat[:: h.shape[0] + 1] += DAMP_FRAC * float(np.mean(np.diag(h)))
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


def _hessian_error(dw: np.ndarray, rec: InputStats) -> float:
    """||dW X^T||_F from the record's H = X^T X alone: sqrt(tr(dW H dW^T)),
    clamped at 0 against rounding; dW is in pruning orientation. An input
    that saw no tokens has H = 0, which gives 0.0 with no product."""
    if rec.tokens_seen == 0:
        return 0.0
    return math.sqrt(max(0.0, float(np.sum((dw @ rec.hessian.h) * dw))))


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


def _prune_group(pruned: MoEModel, method: str, target: SparsityTarget,
                 group: list[InputStats]) -> dict[str, tuple[np.ndarray, dict]]:
    """Prune the weights that read each input of `group` (inputs of one
    kind): masks from each weight's scores, then sparsegpt's one OBS update
    over the stack of them all, with one H'^-1 per input; the other methods
    zero the pruned weights. sparsegpt on inputs that saw no token, whose
    all-zero Hessian no dampening makes invertible, is magnitude relabelled."""
    label = method
    if method == "sparsegpt" and not group[0].tokens_seen:
        method, label = "magnitude", "sparsegpt(magnitude-fallback:no-tokens)"
    d_in, d_out = pruned.params[group[0].weights[0]].shape
    w = np.empty((len(group), len(group[0].weights), d_in, d_out))
    stored = np.empty(w.shape, dtype=np.uint8)
    h_inv = np.empty((len(group), 1, d_in, d_in)) if method == "sparsegpt" else None
    rows = {}
    for j, rec in enumerate(group):
        if h_inv is not None:
            h_inv[j, 0] = damped_inverse(rec.hessian.h)
        for p, name in enumerate(rec.weights):
            w[j, p] = pruned.params[name]
            wp = w[j, p].T.copy()  # (out, in) pruning orientation
            if method == "wanda":
                scores = score_wanda(wp, np.sqrt(np.diagonal(rec.hessian.h)))
            elif method == "moe-pruner":
                scores = score_moe_pruner(wp, rec.scaled.norms())
            elif h_inv is not None:
                scores = score_sparsegpt(wp, h_inv[j, 0])
            else:
                scores = score_magnitude(wp)
            keep = select_mask(scores, target)
            stored[j, p] = keep.T
            rows[name] = (keep, _hessian_error(wp - wp * keep, rec))
    out = w * stored if h_inv is None else obs_update(w, stored, h_inv)
    done = {}
    for j, rec in enumerate(group):
        for p, name in enumerate(rec.weights):
            keep, before = rows[name]
            after = before if h_inv is None else _hessian_error((w[j, p] - out[j, p]).T, rec)
            pruned.params[name] = out[j, p]
            done[name] = (stored[j, p], _report_row(name, label, keep, rec.tokens_seen,
                                                    before, after))
    return done


def _prune_layer(pruned: MoEModel, method: str, target: SparsityTarget,
                 records: LayerStats) -> tuple[dict[str, np.ndarray], list[dict]]:
    """Prune in place the expert weights of `pruned` that `records`, one
    layer's input records, name. Returns the keep-masks aligned to the stored
    weights and the report rows, both in parameter order."""
    done: dict[str, tuple[np.ndarray, dict]] = {}
    for inputs in zip(*records):  # one kind of input, over the layer's experts
        names = inputs[0].weights
        d_in, d_out = pruned.params[names[0]].shape
        per = max(1, STACK_BYTES // (8 * d_in * (d_in + 2 * len(names) * d_out)))
        for seen in (True, False):
            group = [rec for rec in inputs if bool(rec.tokens_seen) == seen]
            for g in range(0, len(group), per):
                done.update(_prune_group(pruned, method, target, group[g : g + per]))
    order = [name for expert in records for rec in expert for name in rec.weights]
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
    be collected from `model`. Either way each layer is pruned from one
    InputStats record per expert input. Reconstruction errors come from the
    same (undamped) X^T X that the layer was scored from. w_gate and w_up
    share their input's record, so sparsegpt inverts one Hessian for both, and
    updates both, for a group of experts at once, in one stacked OBS sweep.

    Attention and router matrices are untouched. Returns the pruned model, the
    keep-masks aligned to the stored weights, and a report.
    """
    if method not in METHODS:
        raise ConfigError(f"unknown pruning method {method!r}; choose from {METHODS}")
    if propagate not in ("dense", "recompute"):
        raise ConfigError(f"propagate must be 'dense' or 'recompute', got {propagate!r}")
    diff = stats.model_config.architecture_diff(model.config)
    if diff:
        raise ShapeError(f"stats and model architecture mismatch on {diff} (stats vs model)")

    cfg = model.config
    # every expert weight is replaced below; until then the pruned model
    # reads the original, so only the other parameters are copied
    pruned = MoEModel(cfg, {n: p if ".experts." in n else p.copy()
                            for n, p in model.params.items()})
    masks: dict[str, np.ndarray] = {}
    report = PruneReport(method=method, sparsity=target.describe(), propagate=propagate)
    for i, records in enumerate(stats.layers):
        if propagate == "recompute" and i > 0:
            records = empty_layer(cfg, i)
            for batch in window_batches(stats.sequences):
                layer = model_forward(pruned, batch, stop=(i, "hidden")).layers[i]
                accumulate_layer(records, layer)
        layer_masks, rows = _prune_layer(pruned, method, target, records)
        masks.update(layer_masks)
        report.targets += rows
    return pruned, masks, report.finalize()
