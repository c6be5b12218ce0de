import gc
import weakref

import numpy as np
import pytest

from moeprune import autograd as ag
from moeprune.errors import ContractError, InputError, ShapeError
from moeprune.model import MoEModel
from moeprune.numerics import SeededRng
from moeprune.training import TrainConfig, train_model

from conftest import TINY
from oracles import grad_check


def scalar(tape, x):
    return tape.var(np.array([[float(x)]]))


class TestRecord:
    """Ops record their forward values on the tape."""

    def test_add_identity(self):
        t = ag.Tape()
        a = t.var(np.arange(6.0).reshape(2, 3))
        out = ag.add(a, t.var(np.zeros((2, 3))))
        assert np.array_equal(out.value, a.value)

    def test_matmul_identity(self):
        t = ag.Tape()
        a = t.var(np.arange(4.0).reshape(2, 2))
        out = ag.matmul(a, t.var(np.eye(2)))
        assert np.array_equal(out.value, a.value)

    def test_chained_square(self):
        t = ag.Tape()
        x = scalar(t, 3.0)
        assert ag.mul(x, x).value[0, 0] == 9.0


class TestBackward:
    def test_square_derivative(self):
        t = ag.Tape()
        x = scalar(t, 3.0)
        loss = ag.mul(x, x)
        t.backward(loss)
        assert x.grad[0, 0] == pytest.approx(6.0, abs=1e-14)

    def test_mse_at_minimum_is_flat(self):
        t = ag.Tape()
        a = t.var(SeededRng(0).normal_matrix(3, 3))
        b = t.var(a.value.copy())
        t.backward(ag.mse(a, b))
        assert np.array_equal(a.grad, np.zeros((3, 3)))
        assert np.array_equal(b.grad, np.zeros((3, 3)))

    def test_cross_entropy_uniform_gradient_closed_form(self):
        # d/dlogits mean CE = (softmax - onehot) / N
        t = ag.Tape()
        logits = t.var(np.zeros((4, 5)))
        targets = np.array([0, 1, 2, 3])
        t.backward(ag.cross_entropy(logits, targets))
        onehot = np.zeros((4, 5))
        onehot[np.arange(4), targets] = 1.0
        expected = (np.full((4, 5), 0.2) - onehot) / 4
        assert np.abs(logits.grad - expected).max() < 1e-15

    def test_non_scalar_loss_rejected(self):
        t = ag.Tape()
        v = t.var(np.zeros((2, 2)))
        with pytest.raises(ContractError, match="scalar"):
            t.backward(ag.add(v, v))

    def test_accumulation_is_linear(self):
        rng = SeededRng(3)
        x0 = rng.normal_matrix(4, 4)
        w0 = rng.normal_matrix(4, 4)

        def grads(which):
            t = ag.Tape()
            x, w = t.var(x0), t.var(w0)
            l1 = ag.mse(ag.matmul(x, w), t.var(np.zeros((4, 4))))
            l2 = ag.mse(ag.silu(x), t.var(np.ones((4, 4))))
            loss = {"l1": l1, "l2": l2, "sum": ag.add(l1, l2)}[which]
            t.backward(loss)
            return x.grad.copy()

        assert np.abs(grads("sum") - (grads("l1") + grads("l2"))).max() < 1e-12

    def test_second_backward_on_swept_tape_rejected(self):
        gc.disable()
        try:
            t = ag.Tape()
            x = scalar(t, 3.0)
            loss = ag.mul(x, x)
            t.backward(loss)
            assert t.nodes == []
            with pytest.raises(ContractError, match="swept"):
                t.backward(loss)
            assert x.grad[0, 0] == 6.0
        finally:
            gc.enable()

    def test_graph_freed_without_cycle_collector(self):
        gc.disable()
        try:
            t = ag.Tape()
            x = t.var(SeededRng(1).normal_matrix(3, 3))
            hidden = ag.silu(ag.matmul(x, x))
            alive = weakref.ref(hidden.value)
            t.backward(ag.mse(hidden, t.const(np.zeros((3, 3)))))
            del hidden
            assert alive() is None
            assert np.isfinite(x.grad).all()
        finally:
            gc.enable()

    def test_ready_reports_each_read_leaf_once_its_gradient_is_complete(self):
        values = [SeededRng(2 + i).normal_matrix(3, 3) for i in range(4)]

        def sweep(ready=None):
            t = ag.Tape()
            x, w, v, unread = leaves = [t.var(a) for a in values]
            y = ag.matmul(x, w)                     # first reads x and w
            ag.matmul(v, t.const(np.eye(3)))        # reads v; nothing flows back to it
            t.backward(ag.mse(ag.add(y, ag.scale(x, 2.0)), t.const(np.zeros((3, 3)))), ready)
            return leaves

        reported = []
        x, w, v, unread = sweep(lambda leaf: reported.append((leaf, leaf.grad.copy())))
        # in reverse recording order of the first readers, each with the
        # gradient a plain sweep ends with, which the tape then drops
        assert [leaf for leaf, _ in reported] == [v, x, w]
        assert all(leaf._grad is None for leaf, _ in reported) and unread._grad is None
        px, pw, pv, _ = sweep()
        for (_, grad), want in zip(reported, [pv, px, pw]):
            assert np.array_equal(grad, want.grad)
        assert not np.array_equal(reported[1][1], 0.0)
        assert np.array_equal(reported[0][1], np.zeros((3, 3)))

    def test_unreachable_var_keeps_zero_grad(self):
        t = ag.Tape()
        x = t.var(np.ones((2, 2)))
        orphan = t.var(np.ones((2, 2)))
        t.backward(ag.mse(x, t.var(np.zeros((2, 2)))))
        assert np.array_equal(orphan.grad, np.zeros((2, 2)))


def zero_fill_accumulate(self, g):
    """Oracle: the gradient rule before first writes took the array, adding
    every contribution into a zero-filled buffer."""
    self.grad[...] += g


def grads_both_ways(monkeypatch, build):
    """The leaf gradients of build() -> (loss, leaves), first with
    Var.accumulate and then with the zero-fill oracle in its place."""
    runs = []
    for oracle in (False, True):
        with monkeypatch.context() as m:
            if oracle:
                m.setattr(ag.Var, "accumulate", zero_fill_accumulate)
            loss, leaves = build()
            loss.tape.backward(loss)
            runs.append([v.grad.copy() for v in leaves])
    return runs


class TestFirstWriteTakesArray:
    X = SeededRng(5).normal_matrix(4, 3)
    W = SeededRng(6).normal_matrix(3, 3)

    @pytest.mark.parametrize("case", ["add_self", "two_consumers", "mse_both", "every_op"])
    def test_equals_zero_fill(self, monkeypatch, case):
        def build():
            t = ag.Tape()
            x, w = t.var(self.X), t.var(self.W)
            target = t.const(np.ones((4, 3)))
            if case == "add_self":
                return ag.mse(ag.add(x, x), target), [x]
            if case == "two_consumers":
                y = ag.matmul(x, w)
                return ag.mse(ag.add(ag.silu(y), ag.mul(y, y)), target), [x, w]
            if case == "mse_both":
                return ag.mse(ag.matmul(x, w), ag.silu(x)), [x, w]
            g = ag.row_softmax(ag.matmul(x, w), mask=np.eye(4, 3, dtype=bool) | (self.X > 0))
            h = ag.causal_attention(x, ag.rmsnorm(x), ag.scale(x, 0.5), 2, 1)
            h = ag.masked_assign(ag.add(h, ag.gather_rows(ag.matmul(x, w), [3, 2, 1, 0])),
                                 (self.X > -0.5).astype(np.uint8))
            out = ag.moe_combine(g, {0: ag.gather_rows(h, [0, 2]), 2: h},
                                 {0: np.array([0, 2]), 2: np.arange(4)})
            return ag.add(ag.mse(out, target),
                          ag.cross_entropy(ag.scatter_rows(out, [1, 0, 3, 2], 4), [0, 1, 2, 0])), [x, w]

        new, old = grads_both_ways(monkeypatch, build)
        for a, b in zip(new, old):
            assert np.array_equal(a, b)

    def test_add_x_x_is_twice_the_gradient(self):
        t = ag.Tape()
        x = t.var(self.X)
        t.backward(ag.mse(ag.add(x, x), t.const(np.zeros((4, 3)))))
        assert np.allclose(x.grad, 8.0 * self.X / self.X.size, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("join", ["add", "mse"])
    def test_no_two_vars_share_a_buffer(self, join):
        t = ag.Tape()
        a, b = t.var(self.X), t.var(self.X[::-1].copy())
        p, q = ag.scale(a, 2.0), ag.scale(b, 3.0)
        s = ag.add(p, q) if join == "add" else ag.mse(p, q)
        t.backward(ag.mse(s, t.const(np.zeros(s.value.shape))))
        held = [a, b, p, q, s]
        for i, u in enumerate(held):
            for v in held[i + 1:]:
                assert not np.shares_memory(u.grad, v.grad)

    def test_training_bytes_equal_zero_fill(self, monkeypatch, small_corpus):
        # a first write may leave -0.0 where zero-fill gave +0.0; Adam's
        # m += (1 - beta1) * g turns it back, so the weights keep every byte
        def train():
            return train_model(MoEModel.init(TINY), small_corpus,
                               TrainConfig(steps=3, batch_size=2, seed=1))[0].params
        new = train()
        monkeypatch.setattr(ag.Var, "accumulate", zero_fill_accumulate)
        old = train()
        assert all(new[n].tobytes() == old[n].tobytes() for n in new)


class TestMaskedAssign:
    def test_zeroes_value_and_gradient(self):
        t = ag.Tape()
        mask = np.array([[1, 0], [0, 1]], dtype=np.uint8)
        w = t.var(np.array([[2.0, 3.0], [4.0, 5.0]]))
        out = ag.masked_assign(w, mask)
        assert np.array_equal(out.value, [[2.0, 0.0], [0.0, 5.0]])
        t.backward(ag.mse(out, t.var(np.zeros((2, 2)))))
        assert w.grad[0, 1] == 0.0 and w.grad[1, 0] == 0.0
        assert w.grad[0, 0] != 0.0 and w.grad[1, 1] != 0.0


    @pytest.mark.parametrize("dtype", [np.uint8, bool])
    def test_mask_as_loaded_equals_float64_mask(self, dtype):
        # value and gradient bit for bit, signed zeros included
        rng = SeededRng(3)
        w0, target = rng.normal_matrix(5, 7), rng.normal_matrix(5, 7)
        keep = rng.normal_matrix(5, 7) > 0
        got = []
        for mask in (keep.astype(np.float64), keep.astype(dtype)):
            t = ag.Tape()
            w = t.var(w0)
            out = ag.masked_assign(w, mask)
            t.backward(ag.mse(out, t.const(target)))
            got.append((out.value.tobytes(), w.grad.tobytes()))
        assert got[0] == got[1]


# every supported op kind against central finite differences (random 4x4,
# eps=1e-5, 1e-4 relative tolerance)

RNG = SeededRng(42)
X0 = RNG.normal_matrix(4, 4)
IDX = np.array([2, 0, 3, 1])
KEEP = np.array([[1, 1, 0, 1]] * 4, dtype=bool)
MASK01 = (RNG.normal_matrix(4, 4) > 0).astype(np.uint8)
TARGETS = np.array([1, 3, 0, 2])
OTHER = RNG.normal_matrix(4, 4)
COL = RNG.normal_matrix(4, 1)
# two windows of two rows, two heads of two columns
QK = RNG.normal_matrix(4, 4), RNG.normal_matrix(4, 4)
# moe_combine over 4 rows and 4 experts: expert 1 takes no row, expert 3 every row
ROWS = {0: np.array([0, 2]), 1: np.array([], dtype=np.intp), 2: np.array([1, 2, 3]),
        3: np.arange(4)}
EXPERT_OUTS = {e: RNG.normal_matrix(len(r), 4) for e, r in ROWS.items()}


def _combine(t, gates=None, out3=None):
    """moe_combine of fixed leaves, with the gates or expert 3's output replaced."""
    outs = {e: t.var(o) for e, o in EXPERT_OUTS.items()}
    if out3 is not None:
        outs[3] = out3
    return ag.moe_combine(t.var(np.abs(X0)) if gates is None else gates, outs, ROWS)


def _to_scalar(t, v):
    return ag.mse(v, t.var(np.zeros(v.value.shape)))


OP_CASES = {
    "matmul": lambda t, x: _to_scalar(t, ag.matmul(x, t.var(OTHER))),
    "matmul_rhs": lambda t, x: _to_scalar(t, ag.matmul(t.var(OTHER), x)),
    "add": lambda t, x: _to_scalar(t, ag.add(x, t.var(OTHER))),
    "elementwise-multiply": lambda t, x: _to_scalar(t, ag.mul(x, t.var(OTHER))),
    "mul_column_broadcast": lambda t, x: _to_scalar(t, ag.mul(x, t.var(COL))),
    "silu": lambda t, x: _to_scalar(t, ag.silu(x)),
    "swiglu_x": lambda t, x: _to_scalar(t, ag.swiglu(x, t.var(OTHER), t.var(QK[0]))),
    "swiglu_gate": lambda t, x: _to_scalar(t, ag.swiglu(t.var(OTHER), x, t.var(QK[0]))),
    "swiglu_up": lambda t, x: _to_scalar(t, ag.swiglu(t.var(OTHER), t.var(QK[0]), x)),
    "swiglu_shared": lambda t, x: _to_scalar(t, ag.swiglu(x, x, x)),
    "swiglu_down_x": lambda t, x: _to_scalar(
        t, ag.swiglu(x, t.var(OTHER), t.var(QK[0]), t.var(QK[1]))),
    "swiglu_down_gate": lambda t, x: _to_scalar(
        t, ag.swiglu(t.var(OTHER), x, t.var(QK[0]), t.var(QK[1]))),
    "swiglu_down_up": lambda t, x: _to_scalar(
        t, ag.swiglu(t.var(OTHER), t.var(QK[0]), x, t.var(QK[1]))),
    "swiglu_down_w_down": lambda t, x: _to_scalar(
        t, ag.swiglu(t.var(OTHER), t.var(QK[0]), t.var(QK[1]), x)),
    "row_softmax_masked": lambda t, x: _to_scalar(t, ag.row_softmax(x, mask=KEEP)),
    "rmsnorm": lambda t, x: _to_scalar(t, ag.rmsnorm(x)),
    "embedding-gather": lambda t, x: _to_scalar(t, ag.gather_rows(x, IDX)),
    "scatter-rows": lambda t, x: _to_scalar(t, ag.scatter_rows(x, IDX, 6)),
    "cross-entropy": lambda t, x: ag.cross_entropy(x, TARGETS),
    "mean-squared-error": lambda t, x: ag.mse(x, t.var(OTHER)),
    "scalar-scale": lambda t, x: _to_scalar(t, ag.scale(x, -1.7)),
    "masked-assign": lambda t, x: _to_scalar(t, ag.masked_assign(x, MASK01)),
    "causal_attention_q": lambda t, x: ag.mse(
        ag.causal_attention(x, t.var(QK[0]), t.var(QK[1]), 2, 2), t.var(OTHER)),
    "causal_attention_k": lambda t, x: ag.mse(
        ag.causal_attention(t.var(QK[0]), x, t.var(QK[1]), 2, 2), t.var(OTHER)),
    "causal_attention_v": lambda t, x: ag.mse(
        ag.causal_attention(t.var(QK[0]), t.var(QK[1]), x, 2, 2), t.var(OTHER)),
    "causal_attention_shared": lambda t, x: ag.mse(
        ag.causal_attention(x, x, x, 2, 2), t.var(OTHER)),
    "moe_combine_gates": lambda t, x: ag.mse(_combine(t, gates=x), t.var(OTHER)),
    "moe_combine_expert_output": lambda t, x: ag.mse(_combine(t, out3=x), t.var(OTHER)),
    "moe_combine_shared": lambda t, x: ag.mse(_combine(t, gates=x, out3=x), t.var(OTHER)),
}


@pytest.mark.parametrize("kind", sorted(OP_CASES))
def test_op_gradient_matches_finite_differences(kind):
    build = OP_CASES[kind]
    err = grad_check(lambda x: build(x.tape, x), X0, eps=1e-5)
    assert err < 1e-4, f"{kind}: max relative error {err}"


class TestGradCheck:
    def test_exact_quadratic(self):
        def f(x):
            return ag.mse(x, x.tape.var(np.zeros(x.value.shape)))

        assert grad_check(f, X0, eps=1e-5) < 1e-7

    def test_eps_bounds(self):
        with pytest.raises(ContractError):
            grad_check(lambda x: ag.silu(x), X0, eps=0.5)


class TestInputValidation:
    def test_gather_out_of_range(self):
        t = ag.Tape()
        with pytest.raises(InputError):
            ag.gather_rows(t.var(np.zeros((3, 2))), np.array([0, 5]))

    def test_cross_entropy_target_out_of_vocab(self):
        t = ag.Tape()
        with pytest.raises(InputError):
            ag.cross_entropy(t.var(np.zeros((2, 4))), np.array([1, 9]))

    def test_mul_shape_mismatch(self):
        t = ag.Tape()
        with pytest.raises(ShapeError):
            ag.mul(t.var(np.zeros((2, 3))), t.var(np.zeros((3, 2))))
