"""Independent reference implementations the tests check the toolkit against.

Plain-NumPy kernels, a per-expert MoE layer forward (no tape, no
batching), mask selection by stable argsort, the SPD inverse mirrored by
summing triangles, and a central-difference gradient check for autograd ops.
No command uses them; pytest does not collect this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotri

from moeprune import autograd as ag
from moeprune.errors import ConfigError, ContractError, ShapeError
from moeprune.model import GateMatrix, MoEModel, _full_softmax, _topk_mask
from moeprune.numerics import _check_finite


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


def route(x: np.ndarray, layer: MoELayer, k: int) -> GateMatrix:
    """Top-k softmax gate: keep the k largest logits per row, softmax over the
    survivors, zeros elsewhere."""
    if k > layer.router.shape[1]:
        raise ConfigError(f"top_k={k} exceeds n_experts={layer.router.shape[1]}")
    logits = matmul(x, layer.router)
    mask, selected = _topk_mask(logits, k)
    gates = _masked_softmax(logits, mask)
    gm = GateMatrix(values=gates, selected=selected, probs=_full_softmax(logits))
    gm.validate(k)
    return gm


def expert_forward(x: np.ndarray, e: ExpertWeights) -> np.ndarray:
    """SwiGLU expert: (silu(x W_gate) * (x W_up)) W_down."""
    if x.shape[1] != e.w_gate.shape[0]:
        raise ShapeError(f"expert input width {x.shape[1]} != d_model {e.w_gate.shape[0]}")
    return matmul(silu(matmul(x, e.w_gate)) * matmul(x, e.w_up), e.w_down)


def moe_layer_forward(x: np.ndarray, layer: MoELayer, k: int) -> tuple[np.ndarray, GateMatrix]:
    """Gate-weighted sum of expert outputs; experts with zero gate for a token
    are not evaluated on it."""
    gm = route(x, layer, k)
    y = np.zeros_like(x)
    for e, expert in enumerate(layer.experts):
        idx = np.nonzero(gm.values[:, e])[0]
        if idx.size == 0:
            continue
        out = expert_forward(x[idx], expert)
        y[idx] += gm.values[idx, e][:, None] * out
    return y, gm


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
