"""The in-place hot ops against their straightforward allocating forms.

Each oracle below is the plain NumPy (or plain-op) form the op replaced. The
rewrites reorder no floating-point operation, so values and gradients must be
equal bit for bit, not merely close.
"""

import warnings
from collections import Counter

import numpy as np
import pytest

from moeprune import autograd as ag
from moeprune.errors import InputError, ShapeError
from moeprune.model import forward_pass, make_param_vars
from moeprune.numerics import SeededRng

import oracles
from conftest import TINY


def attention_oracle(q, k, v, g, batch, n_heads):
    """np.where softmax: (output, dq, dk, dv) for upstream gradient g."""
    n, d = q.shape
    T, dh = n // batch, d // n_heads
    c = 1.0 / np.sqrt(dh)

    def split(x):
        return x.reshape(batch, T, n_heads, dh).transpose(0, 2, 1, 3)

    def merge(x):
        return x.transpose(0, 2, 1, 3).reshape(n, d)

    qs, ks, vs, gs = split(q), split(k), split(v), split(g)
    causal = np.tril(np.ones((T, T), dtype=bool))
    scores = (qs @ ks.transpose(0, 1, 3, 2)) * c
    shifted = scores - np.where(causal, scores, -np.inf).max(axis=-1, keepdims=True)
    with np.errstate(over="ignore"):
        e = np.where(causal, np.exp(shifted), 0.0)
    p = e / e.sum(axis=-1, keepdims=True)
    dp = gs @ vs.transpose(0, 1, 3, 2)
    ds = p * (dp - (dp * p).sum(axis=-1, keepdims=True)) * c
    return (merge(p @ vs), merge(ds @ ks), merge(ds.transpose(0, 1, 3, 2) @ qs),
            merge(p.transpose(0, 1, 3, 2) @ gs))


def silu_oracle(x, g):
    sig = 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))
    return x * sig, g * (sig * (1.0 + x * (1.0 - sig)))


def ce_loss_oracle(logits, targets):
    shifted = logits - logits.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - logz
    return float(-logp[np.arange(targets.size), targets].mean())


def combine_oracle(t, gates, outs, rows):
    """Per expert: gather the gate rows, pick column e with a one-hot matmul,
    scale the outputs, scatter them to full size and fold them together."""
    n, n_experts = gates.value.shape
    total = None
    for e in sorted(outs):
        gcol = ag.matmul(ag.gather_rows(gates, rows[e]), t.const(np.eye(n_experts)[:, [e]]))
        scattered = ag.scatter_rows(ag.mul(outs[e], gcol), rows[e], n)
        total = scattered if total is None else ag.add(total, scattered)
    return total


def run_backward(tape, g):
    """Feed upstream gradient g to the one op recorded on tape."""
    (_, bwd), = tape.nodes
    bwd(g)


class TestCausalAttention:
    @pytest.mark.parametrize("batch,T,n_heads,dh", [(3, 7, 2, 4), (4, 1, 2, 3), (1, 16, 4, 2)])
    def test_value_and_gradients_match_oracle(self, batch, T, n_heads, dh):
        rng = SeededRng(batch * 100 + T)
        n, d = batch * T, n_heads * dh
        q, k, v, g = (rng.normal_matrix(n, d) for _ in range(4))
        t = ag.Tape()
        qv, kv, vv = t.var(q), t.var(k), t.var(v)
        out = ag.causal_attention(qv, kv, vv, batch, n_heads)
        run_backward(t, g)
        expected = attention_oracle(q, k, v, g, batch, n_heads)
        assert np.array_equal(out.value, expected[0])
        for var, want in zip((qv, kv, vv), expected[1:]):
            assert np.array_equal(var.grad, want)

    def test_masked_scores_that_overflowed_exp(self):
        # each later key scores ~1270 above the one before it, so the old
        # form's exp of a masked shifted score overflowed to inf
        T, dh = 6, 2
        q = np.full((T, dh), 30.0)
        k = np.arange(T, dtype=float)[:, None] * np.full((1, dh), 30.0)
        v = SeededRng(3).normal_matrix(T, dh)
        scores = q @ k.T / np.sqrt(dh)
        causal_max = np.where(np.tri(T, dtype=bool), scores, -np.inf).max(axis=1, keepdims=True)
        with pytest.warns(RuntimeWarning, match="overflow"):
            np.exp(scores - causal_max)
        t = ag.Tape()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                out = ag.causal_attention(t.var(q), t.var(k), t.var(v), 1, 1)
                run_backward(t, v)
        assert np.isfinite(out.value).all()
        assert np.array_equal(out.value, attention_oracle(q, k, v, v, 1, 1)[0])


class TestMoeCombine:
    N, E, D = 10, 4, 8

    def build(self, rows, seed):
        rng = SeededRng(seed)
        t = ag.Tape()
        gates = t.var(np.abs(rng.normal_matrix(self.N, self.E)))
        outs = {e: t.var(rng.normal_matrix(len(r), self.D)) for e, r in rows.items()}
        return t, gates, outs

    @pytest.mark.parametrize("rows", [
        {0: [0, 3, 4, 9], 1: [0, 1, 2, 3, 5, 8], 3: [0, 1, 3, 4, 5, 6, 7, 9]},
        {0: [], 1: [2, 7], 2: list(range(10)), 3: [0, 9]},     # an empty expert
        {2: list(range(10))},                                   # one expert takes every row
    ], ids=["three-experts", "empty-expert", "one-expert-all-rows"])
    def test_value_and_gradients_match_oracle(self, rows):
        rows = {e: np.array(r, dtype=np.intp) for e, r in rows.items()}
        target = SeededRng(99).normal_matrix(self.N, self.D)
        results = []
        for fused in (True, False):
            t, gates, outs = self.build(rows, seed=5)
            out = (ag.moe_combine(gates, outs, rows) if fused
                   else combine_oracle(t, gates, outs, rows))
            t.backward(ag.mse(out, t.const(target)))
            results.append([out.value, gates.grad] + [outs[e].grad for e in sorted(outs)])
        for fused, oracle in zip(*results):
            assert np.array_equal(fused, oracle)

    def test_rows_must_be_strictly_increasing(self):
        rows = {0: np.array([3, 1])}
        t, gates, outs = self.build(rows, seed=1)
        with pytest.raises(InputError):
            ag.moe_combine(gates, outs, rows)

    def test_output_shape_must_match_rows(self):
        t, gates, outs = self.build({0: np.arange(3)}, seed=1)
        with pytest.raises(ShapeError):
            ag.moe_combine(gates, outs, {0: np.arange(4)})


class TestSilu:
    def test_value_and_gradient_match_oracle(self):
        rng = SeededRng(4)
        x = rng.normal_matrix(7, 5, std=30.0)   # spans the +-60 clip
        g = rng.normal_matrix(7, 5)
        t = ag.Tape()
        xv = t.var(x)
        out = ag.silu(xv)
        run_backward(t, g)
        want_value, want_grad = silu_oracle(x, g)
        assert np.array_equal(out.value, want_value)
        assert np.array_equal(xv.grad, want_grad)


def swiglu_chain(x, w_gate, w_up, w_down=None):
    """The four-node chain ag.swiglu replaced, and w_down's matmul after it."""
    hidden = ag.mul(ag.silu(ag.matmul(x, w_gate)), ag.matmul(x, w_up))
    return hidden if w_down is None else ag.matmul(hidden, w_down)


class TestSwiglu:
    @pytest.mark.parametrize("case", ["rows", "one-row", "clipped", "x-shared", "weights-shared"])
    def test_value_and_gradients_match_chain(self, case):
        # with and without w_down; the shared cases share one square matrix
        # among the weights, w_down included
        rng = SeededRng(len(case))
        n = 1 if case == "one-row" else 5
        f = 6 if case == "weights-shared" else 8
        x = rng.normal_matrix(n, 6)
        w_gate = rng.normal_matrix(6, f, std=40.0 if case == "clipped" else 1.0)
        w_up, w_down = rng.normal_matrix(6, f), rng.normal_matrix(f, 6)
        other = rng.normal_matrix(6, 3)
        if case == "clipped":
            assert (np.abs(x @ w_gate) > 60.0).any() and (x @ w_gate < -60.0).any()
        for down in (False, True):
            target = rng.normal_matrix(n, 6 if down else f)
            results = []
            for op in (ag.swiglu, swiglu_chain):
                t = ag.Tape()
                xv, gv = t.var(x), t.var(w_gate)
                uv = gv if case == "weights-shared" else t.var(w_up)
                dv = gv if case == "weights-shared" else t.var(w_down)
                if case == "x-shared":  # x also feeds ops on both sides of the op
                    before = ag.matmul(xv, t.var(other))  # backward reaches it last
                out = op(xv, gv, uv, dv) if down else op(xv, gv, uv)
                loss = ag.mse(out, t.const(target))
                if case == "x-shared":
                    after = ag.scale(xv, 0.5)  # backward reaches it first
                    loss = ag.add(ag.add(loss, ag.mse(before, t.const(np.zeros((n, 3))))),
                                  ag.mse(after, t.const(x)))
                t.backward(loss)
                results.append((out.value, xv.grad, gv.grad, uv.grad, dv.grad))
            for fused, chain in zip(*results):
                assert np.array_equal(fused, chain), down

    def test_keeps_two_arrays(self):
        # the two projections; with w_down, not their product either
        rng = SeededRng(8)
        shapes = ((5, 6), (6, 8), (6, 8), (8, 6))
        for operands in (3, 4):
            t = ag.Tape()
            out = ag.swiglu(*(t.var(rng.normal_matrix(r, c)) for r, c in shapes[:operands]))
            assert out.value.shape == (5, 8 if operands == 3 else 6)
            (_, bwd), = t.nodes
            kept = [c.cell_contents for c in bwd.__closure__]
            assert sum(isinstance(v, np.ndarray) and v.shape == (5, 8) for v in kept) == 2

    def test_training_forward_records_one_node_per_expert_call(self, tiny_model):
        tape = ag.Tape()
        pv = make_param_vars(tiny_model, tape)
        tokens = np.asarray(SeededRng(9).integers(0, 256, size=(3, TINY.seq_len)))
        tr = forward_pass(tiny_model, tokens, pv)
        kinds = Counter(bwd.__qualname__.split(".")[0] for _, bwd in tape.nodes)
        calls = sum(rows.size > 0 for layer in tr.layers for rows in layer.expert_tokens.values())
        assert calls > TINY.n_layers and kinds["swiglu"] == calls
        assert kinds["silu"] == kinds["mul"] == 0
        # four attention projections and the router per layer, and the head:
        # each expert call's w_down runs inside its swiglu node
        assert kinds["matmul"] == 5 * TINY.n_layers + 1

    def test_shape_mismatch(self):
        t = ag.Tape()
        with pytest.raises(ShapeError, match="swiglu"):
            ag.swiglu(t.var(np.zeros((2, 3))), t.var(np.zeros((3, 4))), t.var(np.zeros((3, 5))))


class TestGatherRowsBackward:
    @pytest.mark.parametrize("idx", [[0, 1, 4], [4, 0, 2], [3, 1, 3, 3, 0], []])
    def test_matches_add_at(self, idx):
        idx = np.array(idx, dtype=np.intp)
        g = SeededRng(6).normal_matrix(idx.size, 3)
        t = ag.Tape()
        a = t.var(SeededRng(7).normal_matrix(5, 3))
        ag.gather_rows(a, idx)
        run_backward(t, g)
        want = np.zeros((5, 3))
        np.add.at(want, idx, g)
        assert np.array_equal(a.grad, want)


def ce_case(kind):
    """(logits, targets): random, peaked (one margin of 50 per row, loss 0)
    or wide-vocabulary."""
    rng = SeededRng(len(kind))
    rows, vocab, std = {"random": (63, 256, 3.0), "peaked": (9, 16, 0.0),
                        "wide": (5, 8192, 2.0)}[kind]
    logits = rng.normal_matrix(rows, vocab, std=std) if std else np.zeros((rows, vocab))
    targets = np.asarray(rng.integers(0, vocab, size=rows))
    if kind == "peaked":
        logits[np.arange(rows), targets] = 50.0
    return logits, targets


class TestCeLoss:
    @pytest.mark.parametrize("rows,vocab,std", [(1, 5, 1.0), (63, 256, 3.0), (8, 16, 400.0)])
    def test_matches_log_prob_form(self, rows, vocab, std):
        rng = SeededRng(rows)
        logits = rng.normal_matrix(rows, vocab, std=std)
        targets = np.asarray(rng.integers(0, vocab, size=rows))
        loss = ag.cross_entropy(ag.Tape().const(logits), targets)
        assert loss.value[0, 0] == ce_loss_oracle(logits, targets)

    @pytest.mark.parametrize("kind", ["random", "peaked", "wide"])
    def test_value_and_gradient_match_allocating_forms(self, kind):
        logits, targets = ce_case(kind)
        t = ag.Tape()
        x = t.var(logits)
        loss = ag.cross_entropy(x, targets)
        run_backward(t, np.array([[0.7]]))
        assert np.array_equal(loss.value[0, 0], oracles.ce_loss(logits, targets))
        assert np.array_equal(x.grad, oracles.cross_entropy_grad(logits, targets, 0.7))
        if kind == "peaked":
            assert loss.value[0, 0] == 0.0

    @pytest.mark.parametrize("g", [0.7, -0.7, 0.0])
    @pytest.mark.parametrize("kind", ["random", "peaked", "wide"])
    def test_rows_equal_gather_then_cross_entropy(self, kind, g):
        # the rows are read in place; value and gradient equal those of the
        # gather node they replace (whose backward adds into zeros, so a
        # -0.0 that g <= 0 makes is +0.0 there), unlisted rows' gradient +0.0
        logits, targets = ce_case(kind)
        n = logits.shape[0]
        for rows in (np.arange(n), np.flatnonzero(np.arange(n) % 4 != 3), np.array([n - 1])):
            grads, values = [], []
            for read_in_place in (False, True):
                t = ag.Tape()
                x = t.var(logits)
                loss = (ag.cross_entropy(x, targets[rows], rows) if read_in_place
                        else ag.cross_entropy(ag.gather_rows(x, rows), targets[rows]))
                t.backward(ag.scale(loss, g))
                values.append(loss.value.tobytes())
                grads.append(x.grad.tobytes())
            assert values[0] == values[1] and grads[0] == grads[1]

    @pytest.mark.parametrize("rows,error", [
        ([1, 0], InputError), ([0, 0], InputError), ([-1, 2], InputError),
        ([2, 4], InputError), ([[0, 1]], ShapeError), ([0, 1, 2], ShapeError),
    ])
    def test_rows_out_of_range_or_not_increasing_rejected(self, rows, error):
        t = ag.Tape()
        with pytest.raises(error):
            ag.cross_entropy(t.var(np.zeros((4, 3))), np.array([0, 1]), np.array(rows))

    def test_leaves_logits_untouched(self):
        logits = SeededRng(2).normal_matrix(4, 6)
        before = logits.copy()
        t = ag.Tape()
        t.backward(ag.cross_entropy(t.var(logits), np.array([0, 1, 2, 3])))
        assert np.array_equal(logits, before)
