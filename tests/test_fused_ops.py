"""The in-place hot ops against their straightforward allocating forms.

Each oracle below is the plain NumPy (or plain-op) form the op replaced. The
rewrites reorder no floating-point operation, so values and gradients must be
equal bit for bit, not merely close.
"""

import warnings

import numpy as np
import pytest

from moeprune import autograd as ag
from moeprune.errors import InputError, ShapeError
from moeprune.model import ce_loss
from moeprune.numerics import SeededRng


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


class TestCeLoss:
    @pytest.mark.parametrize("rows,vocab,std", [(1, 5, 1.0), (63, 256, 3.0), (8, 16, 400.0)])
    def test_matches_log_prob_form(self, rows, vocab, std):
        rng = SeededRng(rows)
        logits = rng.normal_matrix(rows, vocab, std=std)
        targets = np.asarray(rng.integers(0, vocab, size=rows))
        assert ce_loss(logits, targets) == ce_loss_oracle(logits, targets)

    def test_leaves_logits_untouched(self):
        logits = SeededRng(2).normal_matrix(4, 6)
        before = logits.copy()
        ce_loss(logits, np.array([0, 1, 2, 3]))
        assert np.array_equal(logits, before)
