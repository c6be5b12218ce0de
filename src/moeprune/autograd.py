"""Tape-based reverse-mode autodiff over 2-D float64 arrays.

The op vocabulary is fixed and small: exactly the kinds the toy MoE model needs
(matmul, add, mul, silu, swiglu, row_softmax, rmsnorm, gather_rows,
scatter_rows, cross_entropy, mse, scale, masked_assign, causal_attention,
moe_combine), each with a hand-written backward rule (no general closures from
user code). Scalars are 1x1 matrices. An expert call is one fused `swiglu`
node: with `w_down` it yields the expert's output and keeps only its two
projections, where the silu/mul/matmul chain kept five activations. `silu`,
`mul`, `scatter_rows` and `masked_assign`, which no forward calls, remain:
bench/tracer.py wraps each op kind by name, and the tests build the oracles
of swiglu, moe_combine and the masked KD graph from them. Gradients
accumulate across reuses of a Var (`Var.accumulate`: the first write takes
the backward rule's fresh array); training code builds a fresh tape per
step, so there is nothing to zero.
`Tape.backward` sweeps the tape: the recorded nodes (and the closures holding
their operands) are dropped, so a step's graph is freed by reference
counting rather than left to the cycle collector. It can hand each leaf's
gradient over as soon as it is complete (after the backward of the first
node that read the leaf) and drop it, so no step holds every gradient.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import ContractError, InputError, ShapeError

__all__ = [
    "Tape",
    "Var",
    "matmul",
    "add",
    "mul",
    "silu",
    "swiglu",
    "row_softmax",
    "rmsnorm",
    "gather_rows",
    "scatter_rows",
    "cross_entropy",
    "mse",
    "scale",
    "masked_assign",
    "causal_attention",
    "moe_combine",
]


class Var:
    """A matrix value on a tape, with a lazily allocated gradient buffer."""

    __slots__ = ("value", "_grad", "tape", "requires_grad")

    def __init__(self, value: np.ndarray, tape: "Tape", requires_grad: bool = True):
        if value.ndim != 2:
            raise ShapeError(f"Var values must be 2-D, got shape {value.shape}")
        self.value = value
        self._grad = None
        self.tape = tape
        self.requires_grad = requires_grad

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
            self._grad = np.zeros_like(self.value)
        return self._grad

    def accumulate(self, g: np.ndarray) -> None:
        """Add g into the gradient. The first write keeps g itself instead of
        adding it to zeros, so g must be a fresh array that nothing else holds."""
        if self._grad is None:
            self._grad = g
        else:
            self._grad += g


class Tape:
    """Topologically ordered record of operations; backward visits each once."""

    def __init__(self):
        self.nodes: list[tuple[Var, Callable[[np.ndarray], None]]] = []
        self.swept = False
        self._unread: dict[int, Var] = {}              # leaves no node has read yet
        self._first_reads: dict[int, list[Var]] = {}   # node index -> leaves it reads first

    def var(self, value) -> Var:
        """Register a leaf (parameter or input)."""
        v = Var(np.asarray(value, dtype=np.float64), self)
        self._unread[id(v)] = v
        return v

    def const(self, value) -> Var:
        """Register a constant leaf: no gradient is computed or stored for it,
        and subgraphs built only from constants are not recorded."""
        return Var(np.asarray(value, dtype=np.float64), self, requires_grad=False)

    def _emit(self, value: np.ndarray, bwd: Callable[[np.ndarray], None], *operands: Var) -> Var:
        if not any(o.requires_grad for o in operands):
            return Var(value, self, requires_grad=False)
        first = [v for o in operands if (v := self._unread.pop(id(o), None)) is not None]
        if first:
            self._first_reads[len(self.nodes)] = first
        out = Var(value, self)
        self.nodes.append((out, bwd))
        return out

    def backward(self, loss: Var, ready: Callable[[Var], None] | None = None) -> None:
        """Sweep the tape from loss. ready(leaf), if given, is called once for
        each leaf some node reads, right after the backward of the earliest
        recorded such node (no later backward writes its gradient or reads
        its value); the leaf's gradient is dropped after the call."""
        if loss.value.shape != (1, 1):
            raise ContractError(f"backward needs a scalar (1x1) loss, got {loss.value.shape}")
        if self.swept:
            raise ContractError("this tape was swept by an earlier backward; build a new graph")
        loss.grad[...] = 1.0
        nodes, self.nodes, self.swept = self.nodes, [], True
        reads, self._first_reads, self._unread = self._first_reads if ready else {}, {}, {}
        while nodes:
            out, bwd = nodes.pop()
            if out._grad is not None:
                bwd(out._grad)
            for leaf in reads.get(len(nodes), ()):
                ready(leaf)
                leaf._grad = None


def _same_tape(*vs: Var) -> Tape:
    t = vs[0].tape
    for v in vs[1:]:
        if v.tape is not t:
            raise ContractError("operands live on different tapes")
    return t


def matmul(a: Var, b: Var) -> Var:
    t = _same_tape(a, b)
    av, bv = a.value, b.value
    if av.shape[1] != bv.shape[0]:
        raise ShapeError(f"matmul shape mismatch: {av.shape} x {bv.shape}")

    def bwd(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate(g @ bv.T)
        if b.requires_grad:
            b.accumulate(av.T @ g)

    return t._emit(av @ bv, bwd, a, b)


def add(a: Var, b: Var) -> Var:
    t = _same_tape(a, b)
    if a.value.shape != b.value.shape:
        raise ShapeError(f"add shape mismatch: {a.value.shape} vs {b.value.shape}")

    def bwd(g: np.ndarray) -> None:  # g is out's buffer: each operand takes a copy
        if a.requires_grad:
            a.accumulate(g.copy())
        if b.requires_grad:
            b.accumulate(g.copy())

    return t._emit(a.value + b.value, bwd, a, b)


def mul(a: Var, b: Var) -> Var:
    """Elementwise product; b may be a (n,1) column broadcast over a's columns."""
    t = _same_tape(a, b)
    bshape = b.value.shape
    if bshape != a.value.shape and not (bshape == (a.value.shape[0], 1)):
        raise ShapeError(f"mul shape mismatch: {a.value.shape} vs {bshape}")

    def bwd(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate(g * b.value)
        if b.requires_grad:
            if bshape == a.value.shape:
                b.accumulate(g * a.value)
            else:
                b.accumulate((g * a.value).sum(axis=1, keepdims=True))

    return t._emit(a.value * b.value, bwd, a, b)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """sigmoid(x) of x clipped to [-60, 60], built in one fresh buffer."""
    sig = np.clip(x, -60.0, 60.0)
    np.negative(sig, out=sig)
    np.exp(sig, out=sig)
    sig += 1.0
    np.divide(1.0, sig, out=sig)
    return sig


def _silu_grad(x: np.ndarray, sig: np.ndarray, g: np.ndarray) -> np.ndarray:
    """g * sig * (1 + x * (1 - sig)), the SiLU derivative at x times g."""
    d = np.subtract(1.0, sig)
    d *= x
    d += 1.0
    d *= sig
    d *= g
    return d


def silu(a: Var) -> Var:
    x = a.value
    sig = _sigmoid(x)

    def bwd(g: np.ndarray) -> None:
        a.accumulate(_silu_grad(x, sig, g))

    return a.tape._emit(x * sig, bwd, a)


def swiglu(x: Var, w_gate: Var, w_up: Var, w_down: Var | None = None) -> Var:
    """silu(x @ w_gate) * (x @ w_up), times w_down when given, as one node:
    the value and every gradient equal those of the matmul/silu/matmul/mul
    (/matmul) chain bit for bit.

    The node keeps only the two projections; backward rebuilds the sigmoid
    and silu(x @ w_gate) with the forward's operations (and their product
    with x @ w_up, for w_down's gradient), then applies the chain's gradients
    in its backward order: w_down, the up branch (x, then w_up), then the
    gate branch (x, then w_gate).
    """
    down = () if w_down is None else (w_down,)
    operands = (x, w_gate, w_up, *down)
    t = _same_tape(*operands)
    xv, wg, wu = x.value, w_gate.value, w_up.value
    if (xv.shape[1] != wg.shape[0] or wg.shape != wu.shape
            or down and w_down.value.shape[0] != wu.shape[1]):
        raise ShapeError(f"swiglu shape mismatch: {[o.value.shape for o in operands]}")
    up_grad = x.requires_grad or w_up.requires_grad
    gate_grad = x.requires_grad or w_gate.requires_grad
    down_grad = bool(down) and w_down.requires_grad
    gp = xv @ wg
    out = _sigmoid(gp)
    out *= gp  # silu(x @ w_gate)
    # a node that is not taped keeps nothing: x @ w_up then takes gp's buffer
    up = xv @ wu if up_grad or gate_grad or down_grad else np.matmul(xv, wu, out=gp)
    out *= up
    if down:
        out = out @ w_down.value

    def bwd(g: np.ndarray) -> None:
        sig = _sigmoid(gp)
        act = gp * sig  # silu(x @ w_gate)
        if down:
            if down_grad:  # by the forward's product, rebuilt
                w_down.accumulate((act * up).T @ g)
            g = g @ w_down.value.T  # the product's gradient
        if up_grad:
            act *= g
            if x.requires_grad:
                x.accumulate(act @ wu.T)
            if w_up.requires_grad:
                w_up.accumulate(xv.T @ act)
        del act
        if gate_grad:
            ga = _silu_grad(gp, sig, g * up)
            if x.requires_grad:
                x.accumulate(ga @ wg.T)
            if w_gate.requires_grad:
                w_gate.accumulate(xv.T @ ga)

    return t._emit(out, bwd, *operands)


def row_softmax(a: Var, mask: np.ndarray) -> Var:
    """Row-wise softmax over the positions where mask is True; the others get
    probability exactly 0.

    The mask is a constant (routing structure), not a differentiable operand:
    it realizes Eq.-style "set non-selected logits to -inf" without
    materializing infinities.
    """
    x = a.value
    if mask.shape != x.shape:
        raise ShapeError(f"softmax mask shape {mask.shape} != logits shape {x.shape}")
    if not mask.any(axis=1).all():
        raise ShapeError("softmax mask leaves an empty row")
    masked = np.where(mask, x, -np.inf)
    shifted = x - masked.max(axis=1, keepdims=True)
    with np.errstate(over="ignore"):
        e = np.where(mask, np.exp(shifted), 0.0)
    s = e / e.sum(axis=1, keepdims=True)

    def bwd(g: np.ndarray) -> None:
        dot = (g * s).sum(axis=1, keepdims=True)
        a.accumulate(s * (g - dot))

    return a.tape._emit(s, bwd, a)


def rmsnorm(a: Var, eps: float = 1e-5) -> Var:
    """Parameter-free RMS normalization per row: x / sqrt(mean(x^2) + eps)."""
    x = a.value
    n = x.shape[1]
    r = 1.0 / np.sqrt((x * x).mean(axis=1, keepdims=True) + eps)

    def bwd(g: np.ndarray) -> None:
        xg = (x * g).sum(axis=1, keepdims=True)
        a.accumulate(r * (g - (r * r / n) * x * xg))

    return a.tape._emit(x * r, bwd, a)


def gather_rows(a: Var, idx: np.ndarray) -> Var:
    """Select rows a[idx]; the embedding lookup and the expert-dispatch gather."""
    idx = np.asarray(idx, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError(f"gather_rows needs a 1-D index, got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= a.value.shape[0]):
        raise InputError(f"gather index out of range [0, {a.value.shape[0]})")

    def bwd(g: np.ndarray) -> None:
        if (np.diff(idx) > 0).all():  # distinct rows (expert dispatch): plain +=
            a.grad[idx] += g
        else:  # repeated rows (embedding lookup) must accumulate
            np.add.at(a.grad, idx, g)

    return a.tape._emit(a.value[idx], bwd, a)


def scatter_rows(a: Var, idx: np.ndarray, n_rows: int) -> Var:
    """Place rows of a at positions idx of an (n_rows, d) zero matrix (duplicates add).
    Unused by the forward pass (see moe_combine); kept because bench/tracer.py
    wraps every op kind by name, so deleting it breaks traced bench runs."""
    idx = np.asarray(idx, dtype=np.intp)
    if idx.ndim != 1 or idx.size != a.value.shape[0]:
        raise ShapeError(f"scatter index shape {idx.shape} != row count {a.value.shape[0]}")
    out = np.zeros((n_rows, a.value.shape[1]))
    np.add.at(out, idx, a.value)

    def bwd(g: np.ndarray) -> None:
        a.grad[...] += g[idx]

    return a.tape._emit(out, bwd, a)


def cross_entropy(logits: Var, targets: np.ndarray, rows: np.ndarray | None = None) -> Var:
    """Mean next-token cross-entropy (natural log) of logits rows vs targets.
    rows, strictly increasing, lists the rows of logits the targets belong
    to (None: every row). They are read in place, with no gather node: the
    value and gradient equal gather_rows-then-cross_entropy's bit for bit,
    and an unlisted row's gradient is +0.0. The forward holds one buffer of
    the listed rows and keeps only their maxima and log-normalizers, from
    which the backward rebuilds the softmax."""
    targets = np.asarray(targets, dtype=np.intp)
    x = logits.value
    if rows is not None:
        rows = np.asarray(rows, dtype=np.intp)
        if rows.ndim != 1:
            raise ShapeError(f"cross_entropy needs 1-D rows, got shape {rows.shape}")
        if rows.size and (rows[0] < 0 or rows[-1] >= x.shape[0] or (np.diff(rows) <= 0).any()):
            raise InputError(f"cross_entropy rows must be strictly increasing in "
                             f"[0, {x.shape[0]})")
    n = x.shape[0] if rows is None else rows.size
    if targets.ndim != 1 or targets.size != n:
        raise ShapeError(f"targets length {targets.size} != logits rows {n}")
    if targets.size and (targets.min() < 0 or targets.max() >= x.shape[1]):
        raise InputError(f"target out of vocabulary range [0, {x.shape[1]})")
    picks = np.arange(n)

    def listed() -> np.ndarray:  # a fresh buffer holding the listed rows
        return x.copy() if rows is None else x[rows]

    shifted = listed()
    rowmax = shifted.max(axis=1, keepdims=True)
    shifted -= rowmax
    picked = shifted[picks, targets]
    logz = np.log(np.exp(shifted, out=shifted).sum(axis=1, keepdims=True))
    del shifted
    loss = -(picked - logz[:, 0]).mean()

    def bwd(g: np.ndarray) -> None:
        p = listed()  # the softmax, in the forward's operation order
        p -= rowmax
        p -= logz
        np.exp(p, out=p)
        p[picks, targets] -= 1.0
        p *= g[0, 0] / n
        if rows is not None:
            # as gather_rows' backward adds p into zeros: 0.0 + p, so -0.0 becomes +0.0
            p += 0.0
            full = np.zeros_like(x)
            full[rows] = p
            p = full
        logits.accumulate(p)

    return logits.tape._emit(np.array([[loss]]), bwd, logits)


def mse(a: Var, b: Var) -> Var:
    """Mean squared error over all entries, (1/N) * sum((a-b)^2)."""
    t = _same_tape(a, b)
    if a.value.shape != b.value.shape:
        raise ShapeError(f"mse shape mismatch: {a.value.shape} vs {b.value.shape}")
    diff = a.value - b.value
    n = max(diff.size, 1)

    def bwd(g: np.ndarray) -> None:
        d = (2.0 * g[0, 0] / n) * diff
        if a.requires_grad:
            a.accumulate(d)
        if b.requires_grad:
            b.accumulate(-d)  # a fresh array: a and b never share d

    return t._emit(np.array([[(diff * diff).sum() / n]]), bwd, a, b)


def scale(a: Var, c: float) -> Var:
    c = float(c)

    def bwd(g: np.ndarray) -> None:
        a.accumulate(c * g)

    return a.tape._emit(c * a.value, bwd, a)


def masked_assign(a: Var, mask: np.ndarray) -> Var:
    """Zero both the value and the gradient flow wherever mask == 0. The
    mask is multiplied in as given (0/1 of any dtype, uint8 or bool as
    loaded): a float64 product with it equals that with its float64 copy."""
    if mask.shape != a.value.shape:
        raise ShapeError(f"mask shape {mask.shape} != value shape {a.value.shape}")

    def bwd(g: np.ndarray) -> None:
        a.accumulate(g * mask)

    return a.tape._emit(a.value * mask, bwd, a)


def causal_attention(q: Var, k: Var, v: Var, batch: int, n_heads: int) -> Var:
    """Multi-head causal self-attention over `batch` equal-length windows.

    q, k and v hold (batch*T, d) rows, window-major; head h owns columns
    [h*dh, (h+1)*dh) with dh = d / n_heads. Each row attends to the rows of
    its own window at or before it with softmax(q k^T / sqrt(dh)), and each
    head's output goes back into its columns. The causal mask is structure,
    not a differentiable operand.
    """
    t = _same_tape(q, k, v)
    n, d = q.value.shape
    if k.value.shape != (n, d) or v.value.shape != (n, d):
        raise ShapeError(f"attention q/k/v shapes differ: {q.value.shape}, "
                         f"{k.value.shape}, {v.value.shape}")
    if batch <= 0 or n % batch or n_heads <= 0 or d % n_heads:
        raise ShapeError(f"{n} rows x {d} columns do not split into {batch} windows "
                         f"and {n_heads} heads")
    T, dh = n // batch, d // n_heads
    c = 1.0 / np.sqrt(dh)

    def split(x: np.ndarray) -> np.ndarray:  # (B*T, d) -> (B, H, T, dh)
        return x.reshape(batch, T, n_heads, dh).transpose(0, 2, 1, 3)

    def merge(x: np.ndarray) -> np.ndarray:  # (B, H, T, dh) -> (B*T, d)
        return x.transpose(0, 2, 1, 3).reshape(n, d)

    qs, ks, vs = split(q.value), split(k.value), split(v.value)
    causal = np.tri(T)  # 0/1 floats; masked scores are zeroed before exp (no overflow) and after
    p = qs @ ks.transpose(0, 1, 3, 2)
    p *= c
    p -= np.max(p, axis=-1, keepdims=True, where=np.tri(T, dtype=bool), initial=-np.inf)
    p *= causal
    np.exp(p, out=p)
    p *= causal
    p /= p.sum(axis=-1, keepdims=True)

    def bwd(g: np.ndarray) -> None:
        gs = split(g)
        ds = gs @ vs.transpose(0, 1, 3, 2)
        ds -= (ds * p).sum(axis=-1, keepdims=True)
        ds *= p
        ds *= c
        if q.requires_grad:
            q.accumulate(merge(ds @ ks))
        if k.requires_grad:
            k.accumulate(merge(ds.transpose(0, 1, 3, 2) @ qs))
        if v.requires_grad:
            v.accumulate(merge(p.transpose(0, 1, 3, 2) @ gs))

    return t._emit(merge(p @ vs), bwd, q, k, v)


def moe_combine(gates: Var, outs: dict[int, Var], rows: dict[int, np.ndarray]) -> Var:
    """Gate-weighted sum of expert outputs: each expert e adds
    gates[r, e] * outs[e] into the rows r of rows[e] (strictly increasing,
    within gates' n rows) of an (n, d) zero matrix, in ascending e."""
    t = _same_tape(gates, *outs.values())
    n, n_experts = gates.value.shape
    if not outs:
        raise ShapeError("moe_combine needs at least one expert output")
    order = sorted(outs)
    out = np.zeros((n, outs[order[0]].value.shape[1]))
    for e in order:
        idx, o = rows[e], outs[e].value
        if not 0 <= e < n_experts or o.shape != (len(idx), out.shape[1]):
            raise ShapeError(f"expert {e} of {n_experts}: output shape {o.shape} does not "
                             f"match {len(idx)} rows x {out.shape[1]}")
        if len(idx) and (idx[0] < 0 or idx[-1] >= n or (np.diff(idx) <= 0).any()):
            raise InputError(f"expert {e}: rows must be strictly increasing in [0, {n})")
        out[idx] += o * gates.value[idx, e][:, None]

    def bwd(g: np.ndarray) -> None:
        for e in order:
            idx, o = rows[e], outs[e]
            ge = g[idx]
            if o.requires_grad:
                o.accumulate(ge * gates.value[idx, e][:, None])
            if gates.requires_grad:
                gates.grad[idx, e] += (ge * o.value).sum(axis=1)

    return t._emit(out, bwd, gates, *outs.values())
