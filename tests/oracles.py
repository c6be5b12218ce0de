"""Independent reference implementations the tests check the toolkit against.

Plain-NumPy kernels, a per-expert MoE layer forward (no tape, no
batching), the cross-entropy loss and gradient as separate allocating
expressions, mask selection by stable argsort, the SPD inverse mirrored by
summing triangles, a central-difference gradient check for autograd ops,
the allocating Adam step (and the two-phase step: the full backward, then
every update), the gate-weighted expert combine built from plain tape ops,
calibration statistics, dispatch counts and a
recompute prune built from forwards that run to the logits (with the expert
intermediates rebuilt from their inputs), the sequential
OBS sweep and a prune that takes one weight at a time, and the KD loss and
lambda of one batch.
No command uses them; pytest does not collect this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotri

from moeprune import autograd as ag
from moeprune import distill, pruning
from moeprune.calibration import accumulate_layer, empty_layer
from moeprune.errors import ConfigError, ContractError, InputError, NumericalError, ShapeError
from moeprune.model import MoEModel, _topk_mask, model_forward, window_batches


def _check_finite(m: np.ndarray, op: str) -> np.ndarray:
    if not np.isfinite(m).all():
        raise NumericalError(f"{op} produced non-finite entries")
    return m


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Standard product a @ b, (n,k) x (k,m) -> (n,m)."""
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul needs 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    return _check_finite(a @ b, "matmul")


def row_softmax(m: np.ndarray) -> np.ndarray:
    """Row-wise softmax, stabilized by max-subtraction. Rows sum to 1."""
    m = np.asarray(m, dtype=np.float64)
    shifted = m - m.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return _check_finite(e / e.sum(axis=1, keepdims=True), "row_softmax")


def ce_loss(logits: np.ndarray, targets) -> float:
    """Mean next-token cross-entropy, natural log, as (logz - picked).mean()."""
    targets = np.asarray(targets, dtype=np.intp)
    if targets.ndim != 1 or targets.size != logits.shape[0]:
        raise ShapeError(f"targets length {targets.size} != logits rows {logits.shape[0]}")
    if targets.size and (targets.min() < 0 or targets.max() >= logits.shape[1]):
        raise InputError(f"target out of vocabulary range [0, {logits.shape[1]})")
    shifted = logits - logits.max(axis=1, keepdims=True)
    picked = shifted[np.arange(targets.size), targets]
    logz = np.log(np.exp(shifted, out=shifted).sum(axis=1))
    return float((logz - picked).mean())


def cross_entropy_grad(logits: np.ndarray, targets, g: float = 1.0) -> np.ndarray:
    """d(g * mean CE)/d logits from the stored log-probabilities: (g / n) *
    (softmax - onehot)."""
    n = logits.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    p = np.exp(logp)
    p[np.arange(n), targets] -= 1.0
    return (g / n) * p


def silu(m: np.ndarray) -> np.ndarray:
    """Elementwise x * sigmoid(x)."""
    m = np.asarray(m, dtype=np.float64)
    # exp(-|x|) never overflows; both branches equal x*sigmoid(x).
    e = np.exp(-np.abs(m))
    return _check_finite(np.where(m >= 0, m / (1.0 + e), m * e / (1.0 + e)), "silu")


@dataclass
class ExpertWeights:
    w_gate: np.ndarray  # (d_model, d_ff)
    w_up: np.ndarray    # (d_model, d_ff)
    w_down: np.ndarray  # (d_ff, d_model)


@dataclass
class MoELayer:
    router: np.ndarray  # (d_model, n_experts)
    experts: list[ExpertWeights]


def moe_layer(model: MoEModel, i: int) -> MoELayer:
    """Layer i's router and expert weights (views of the model's arrays)."""
    experts = [
        ExpertWeights(
            w_gate=model.params[f"layers.{i}.experts.{e}.w_gate"],
            w_up=model.params[f"layers.{i}.experts.{e}.w_up"],
            w_down=model.params[f"layers.{i}.experts.{e}.w_down"],
        )
        for e in range(model.config.n_experts)
    ]
    return MoELayer(router=model.params[f"layers.{i}.router"], experts=experts)


def _masked_softmax(x: np.ndarray, mask: np.ndarray) -> np.ndarray:
    masked = np.where(mask, x, -np.inf)
    shifted = x - masked.max(axis=1, keepdims=True)
    with np.errstate(over="ignore"):
        e = np.where(mask, np.exp(shifted), 0.0)
    return e / e.sum(axis=1, keepdims=True)


def route(x: np.ndarray, layer: MoELayer, k: int) -> np.ndarray:
    """Top-k softmax gates: keep the k largest logits per row, softmax over
    the survivors, zeros elsewhere."""
    if k > layer.router.shape[1]:
        raise ConfigError(f"top_k={k} exceeds n_experts={layer.router.shape[1]}")
    logits = matmul(x, layer.router)
    return _masked_softmax(logits, _topk_mask(logits, k))


def expert_forward(x: np.ndarray, e: ExpertWeights) -> np.ndarray:
    """SwiGLU expert: (silu(x W_gate) * (x W_up)) W_down."""
    if x.shape[1] != e.w_gate.shape[0]:
        raise ShapeError(f"expert input width {x.shape[1]} != d_model {e.w_gate.shape[0]}")
    return matmul(silu(matmul(x, e.w_gate)) * matmul(x, e.w_up), e.w_down)


def moe_layer_forward(x: np.ndarray, layer: MoELayer, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Gate-weighted sum of expert outputs, and the gates; experts with zero
    gate for a token are not evaluated on it."""
    gates = route(x, layer, k)
    y = np.zeros_like(x)
    for e, expert in enumerate(layer.experts):
        idx = np.nonzero(gates[:, e])[0]
        if idx.size == 0:
            continue
        out = expert_forward(x[idx], expert)
        y[idx] += gates[idx, e][:, None] * out
    return y, gates


def select_mask(scores: np.ndarray, target) -> np.ndarray:
    """Keep-mask by stable argsort: each row (unstructured) or aligned
    m-column group (n:m) prunes its lowest scores, lower column index first
    among equal scores."""
    rows, cols = scores.shape
    mask = np.ones((rows, cols), dtype=np.uint8)
    if target.p is not None:
        k = math.floor(target.p * cols)
        order = np.argsort(scores, axis=1, kind="stable")
        np.put_along_axis(mask, order[:, :k], 0, axis=1)
        return mask
    m = target.m_group
    order = np.argsort(scores.reshape(rows, cols // m, m), axis=2, kind="stable")
    np.put_along_axis(mask.reshape(rows, cols // m, m), order[:, :, : m - target.n_keep], 0, axis=2)
    return mask


def spd_inverse(h: np.ndarray) -> np.ndarray:
    """Inverse of an SPD matrix from LAPACK potrf/potri, its lower triangle
    mirrored by summing the two triangles."""
    factor, info = dpotrf(h, lower=1, clean=0)
    if info != 0:
        raise ContractError("matrix is not positive definite")
    inv, info = dpotri(factor, lower=1)
    return np.ascontiguousarray(np.tril(inv) + np.tril(inv, -1).T)


def grad_check(
    f: Callable[[ag.Var], ag.Var], x: np.ndarray, eps: float = 1e-5
) -> float:
    """Max relative error between analytic and central-difference gradients.

    f must be a deterministic scalar-valued function of one matrix Var.
    Relative error per entry is |analytic - numeric| / max(1, |analytic|).
    """
    if not (0.0 < eps <= 1e-2):
        raise ContractError(f"eps must be in (0, 1e-2], got {eps}")
    x = np.asarray(x, dtype=np.float64)
    tape = ag.Tape()
    xv = tape.var(x.copy())
    loss = f(xv)
    tape.backward(loss)
    analytic = xv.grad.copy()

    def eval_at(arr: np.ndarray) -> float:
        t = ag.Tape()
        return float(f(t.var(arr)).value[0, 0])

    worst = 0.0
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        ij = it.multi_index
        xp = x.copy()
        xp[ij] += eps
        xm = x.copy()
        xm[ij] -= eps
        numeric = (eval_at(xp) - eval_at(xm)) / (2.0 * eps)
        a = analytic[ij]
        worst = max(worst, abs(a - numeric) / max(1.0, abs(a)))
        it.iternext()
    return worst


class Adam:
    """Adam as whole-array expressions, each building its temporaries."""

    def __init__(self, params: dict[str, np.ndarray], masks: dict[str, np.ndarray] | None = None,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.masks = masks or {}
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def step(self, grads: dict[str, np.ndarray], lr: float) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for name, p in self.params.items():
            g = grads[name] * self.masks[name] if name in self.masks else grads[name]
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p -= lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


class TwoPhaseAdam(Adam):
    """moeprune's Adam.step in two phases: the full backward, which leaves
    every weight as it was, then the update of every weight by its leaf's
    gradient (zeros where none was written), times its mask if it has one."""

    def step(self, loss: ag.Var, leaves: dict[str, ag.Var], lr: float) -> None:
        loss.tape.backward(loss)
        super().step({n: leaves[n].grad for n in self.params}, lr)


def combine(t, gates, outs, rows):
    """moe_combine from plain tape ops, per expert: gather the gate rows, pick
    column e with a one-hot matmul, scale the outputs, scatter them to full
    size and fold them together."""
    n, n_experts = gates.value.shape
    total = None
    for e in sorted(outs):
        gcol = ag.matmul(ag.gather_rows(gates, rows[e]), t.var(np.eye(n_experts)[:, [e]]))
        scattered = ag.scatter_rows(ag.mul(outs[e], gcol), rows[e], n)
        total = scattered if total is None else ag.add(total, scattered)
    return total


def full_layers(model: MoEModel, batch) -> list:
    """The layer traces of a forward that runs to the logits, with each
    routed expert's SwiGLU intermediate (which such a pass leaves empty)
    rebuilt by ag.swiglu, on a tape that records nothing, from its routed MoE
    inputs and its weights: the forward's value bit for bit."""
    res = model_forward(model, batch)
    assert res.logits is not None
    tape = ag.Tape(record=False)
    for i, lt in enumerate(res.layers):
        for e, idx in lt.expert_tokens.items():
            if idx.size:
                w_gate, w_up = (tape.var(model.params[f"layers.{i}.experts.{e}.{part}"])
                                for part in ("w_gate", "w_up"))
                lt.expert_hidden[e] = ag.swiglu(tape.var(lt.moe_input[idx]), w_gate, w_up).value
    return res.layers


def full_forward_stats(model: MoEModel, sequences, mode: str = "argmax") -> dict:
    """Calibration statistics from forwards that run to the logits: per
    expert input, the sums of squared gate-scaled and plain routed inputs,
    X^T X and the token count, plus the dispatch counts, summed
    batch by batch over the windows in order. Argmax counts take the argmax
    of each token's full router softmax; topk counts take its k largest
    router logits, lowest index first among equals."""
    cfg = model.config
    out: dict = {"counts": np.zeros((cfg.n_layers, cfg.n_experts), dtype=np.int64),
                 "total_tokens": 0}
    for batch in window_batches(sequences):
        out["total_tokens"] += batch.size
        for i, lt in enumerate(full_layers(model, batch)):
            logits = lt.router_logits
            picks = (np.argmax(row_softmax(logits), axis=1) if mode == "argmax"
                     else np.argsort(-logits, axis=1, kind="stable")[:, :cfg.top_k].ravel())
            np.add.at(out["counts"][i], picks, 1)
            for e, idx in lt.expert_tokens.items():
                if idx.size == 0:
                    continue
                g = lt.gates[idx, e]
                for part, x in (("w_gate", lt.moe_input[idx]), ("w_down", lt.expert_hidden[e])):
                    s = out.setdefault(f"layers.{i}.experts.{e}.{part}", {
                        "scaled": np.zeros(x.shape[1]), "plain": np.zeros(x.shape[1]),
                        "h": np.zeros((x.shape[1], x.shape[1])), "tokens": 0})
                    scaled = x * g[:, None]
                    s["scaled"] += (scaled * scaled).sum(axis=0)
                    s["plain"] += (x * x).sum(axis=0)
                    s["h"] += x.T @ x
                    s["tokens"] += idx.size
    return out


def teacher_targets(teacher: MoEModel, batch) -> distill.TeacherTargets:
    """The teacher's forced rows and expert outputs for `batch` (equal-length
    windows), from one teacher forward over it: what distill reads from its
    cache."""
    windows = np.asarray(batch)
    return distill._batch_targets(distill._teacher_windows(teacher, windows),
                                  range(len(windows)), windows.shape[1])


def kd_loss(teacher: MoEModel, student: MoEModel, batch, lam: float) -> dict:
    """The KD losses {l_ce, l_expert, lambda, total} on one batch, with no
    parameter update."""
    return distill._kd_graph(student, batch, lam, teacher_targets(teacher, batch))[1]


def init_lambda(teacher: MoEModel, student: MoEModel, batch) -> float:
    """lambda = l_ce / l_expert measured once on the probe batch; an identical
    student (l_expert == 0) falls back to 1 with a warning."""
    return distill._kd_graph(student, batch, None,
                             teacher_targets(teacher, batch))[1]["lambda"]


def prune_recompute(model: MoEModel, stats, method: str, target):
    """prune_model(..., propagate="recompute") as full forwards: every
    parameter copied up front, and before each layer i (layer 0 included)
    the calibration windows run to the logits through the partly pruned
    model, which prune_model's layer step then prunes."""
    cfg = model.config
    pruned = model.copy()
    masks: dict[str, np.ndarray] = {}
    report = pruning.PruneReport(method=method, sparsity=target.describe(),
                                 propagate="recompute")
    for i in range(cfg.n_layers):
        records = empty_layer(cfg, i)
        for batch in window_batches(stats.sequences):
            accumulate_layer(records, full_layers(pruned, batch)[i])
        layer_masks, rows = pruning._prune_layer(pruned, method, target, records)
        masks.update(layer_masks)
        report.targets += rows
    return pruned, masks, report.finalize()


def obs_sweep(w: np.ndarray, mask: np.ndarray, h_inv: np.ndarray) -> np.ndarray:
    """The sequential OBS column sweep in pruning orientation (output neuron
    x input): for each column holding a pruned weight, divide the pruned
    rows' values by the diagonal, subtract the outer product with H^-1's row
    from every column to the right, and zero the column's pruned entries."""
    out = w.copy()
    for j in range(w.shape[1]):
        d = h_inv[j, j]
        if d <= 0:
            raise NumericalError(f"H^-1 diagonal entry {j} is {d}; not positive")
        pruned = mask[:, j] == 0
        if not pruned.any():
            continue
        err = out[pruned, j] / d
        out[np.ix_(pruned, np.arange(j + 1, w.shape[1]))] -= np.outer(err, h_inv[j, j + 1 :])
        out[pruned, j] = 0.0
    return out


def prune_per_target(model: MoEModel, stats, method: str, target, propagate: str = "dense"):
    """prune_model as a loop over its targets, one weight at a time in
    pruning orientation: the method's scores, masks by stable argsort, an
    H'^-1 inverted for each sparsegpt target and the sequential OBS sweep.
    With propagate="recompute", layer i > 0 is scored from forwards that run
    to the logits through the partly pruned model."""
    cfg = model.config
    pruned = model.copy()
    masks: dict[str, np.ndarray] = {}
    report = pruning.PruneReport(method=method, sparsity=target.describe(), propagate=propagate)
    for i in range(cfg.n_layers):
        records = stats.layers[i]
        if propagate == "recompute" and i > 0:
            records = empty_layer(cfg, i)
            for batch in window_batches(stats.sequences):
                accumulate_layer(records, full_layers(pruned, batch)[i])
        # the record of the input each weight reads
        read = {name: rec for expert in records for rec in expert for name in rec.weights}
        for e in range(cfg.n_experts):
            for part in ("w_gate", "w_up", "w_down"):
                name = f"layers.{i}.experts.{e}.{part}"
                rec = read[name]
                wp = pruned.params[name].T.copy()
                used, h_inv = method, None
                if method == "wanda":
                    scores = pruning.score_wanda(wp, np.sqrt(np.diagonal(rec.hessian.h)))
                elif method == "moe-pruner":
                    scores = pruning.score_moe_pruner(wp, rec.scaled.norms())
                elif method == "sparsegpt" and rec.tokens_seen:
                    h_inv = pruning.damped_inverse(rec.hessian.h)
                    scores = pruning.score_sparsegpt(wp, h_inv)
                else:
                    scores = pruning.score_magnitude(wp)
                    if method == "sparsegpt":
                        used = "sparsegpt(magnitude-fallback:no-tokens)"
                keep = select_mask(scores, target)
                updated = wp * keep if h_inv is None else obs_sweep(wp, keep, h_inv)
                before = pruning._hessian_error(wp - wp * keep, rec)
                pruned.params[name] = np.ascontiguousarray(updated.T)
                masks[name] = np.ascontiguousarray(keep.T)
                report.targets.append({
                    "name": name, "method": used,
                    "rows": int(wp.shape[0]), "cols": int(wp.shape[1]), "weights": int(wp.size),
                    "zeros": int(keep.size - int(keep.sum())),
                    "sparsity_achieved": 1.0 - float(keep.sum()) / keep.size,
                    "tokens_seen": int(rec.tokens_seen),
                    "recon_error_before_update": before,
                    "recon_error_after_update": (
                        before if h_inv is None
                        else pruning._hessian_error(wp - updated, rec)),
                })
    return pruned, masks, report.finalize()
