import math

import mpmath
import numpy as np
import pytest

import moeprune.autograd
import moeprune.model

from moeprune import autograd as ag
from moeprune.errors import ConfigError, ContractError, InputError, NumericalError
from moeprune.model import (
    ModelConfig,
    MoEModel,
    forward_pass,
    model_forward,
)
from moeprune.numerics import SeededRng
from moeprune.training import batch_ce_graph, evaluate_perplexity

from conftest import TINY, random_bytes_corpus
from oracles import (
    ExpertWeights,
    MoELayer,
    expert_forward,
    full_layers,
    moe_layer,
    moe_layer_forward,
    route,
)


def make_layer(rng: SeededRng, d_model=4, d_ff=6, n_experts=4) -> MoELayer:
    experts = [
        ExpertWeights(
            w_gate=rng.normal_matrix(d_model, d_ff),
            w_up=rng.normal_matrix(d_model, d_ff),
            w_down=rng.normal_matrix(d_ff, d_model),
        )
        for _ in range(n_experts)
    ]
    return MoELayer(router=rng.normal_matrix(d_model, n_experts), experts=experts)


class TestConfig:
    def test_defaults_valid(self):
        cfg = ModelConfig()
        assert cfg.vocab_size == 256 and cfg.top_k <= cfg.n_experts

    @pytest.mark.parametrize("bad", [
        dict(top_k=5, n_experts=4),
        dict(top_k=0),
        dict(d_model=30, n_heads=4),
        dict(d_ff=-1),
    ])
    def test_invalid_configs(self, bad):
        with pytest.raises(ConfigError):
            ModelConfig(**bad)


class TestRoute:
    def test_symmetric_two_experts(self):
        layer = make_layer(SeededRng(0), n_experts=2)
        gates = route(np.zeros((3, 4)), layer, k=2)  # zero input -> zero logits
        assert np.allclose(gates, 0.5)

    def test_top1_is_onehot(self):
        layer = make_layer(SeededRng(1), n_experts=4)
        gates = route(SeededRng(2).normal_matrix(5, 4), layer, k=1)
        assert (np.count_nonzero(gates, axis=1) == 1).all()
        assert np.allclose(gates.max(axis=1), 1.0)

    def test_hand_logits(self):
        # identity router makes logits == input row
        layer = MoELayer(router=np.eye(4), experts=make_layer(SeededRng(3)).experts)
        gates = route(np.array([[3.0, 1.0, 2.0, 0.0]]), layer, k=2)
        expected = np.exp([3.0, 2.0])
        expected /= expected.sum()
        assert gates[0, 1] == 0.0 and gates[0, 3] == 0.0
        assert np.abs(gates[0, [0, 2]] - expected).max() < 1e-15

    def test_k_above_n_rejected(self):
        layer = make_layer(SeededRng(4), n_experts=2)
        with pytest.raises(ConfigError):
            route(np.zeros((1, 4)), layer, k=3)

    def test_rows_sum_to_one_with_topk_nonzeros(self):
        layer = make_layer(SeededRng(5))
        gates = route(SeededRng(6).normal_matrix(40, 4, std=2.0), layer, k=2)
        assert np.abs(gates.sum(axis=1) - 1.0).max() < 1e-12
        assert (np.count_nonzero(gates, axis=1) == 2).all()

    def test_tie_breaks_to_lowest_index(self):
        layer = MoELayer(router=np.eye(4), experts=make_layer(SeededRng(7)).experts)
        gates = route(np.zeros((1, 4)), layer, k=2)  # all logits equal
        assert list(np.flatnonzero(gates[0])) == [0, 1]


class TestExpertForward:
    def test_zero_input(self):
        e = make_layer(SeededRng(0)).experts[0]
        assert np.array_equal(expert_forward(np.zeros((3, 4)), e), np.zeros((3, 4)))

    def test_zero_down_projection(self):
        e = make_layer(SeededRng(1)).experts[0]
        e.w_down = np.zeros_like(e.w_down)
        x = SeededRng(2).normal_matrix(3, 4)
        assert np.array_equal(expert_forward(x, e), np.zeros((3, 4)))

    def test_hand_trace(self):
        e = ExpertWeights(
            w_gate=np.array([[0.5, -1.0], [1.0, 2.0]]),
            w_up=np.array([[1.0, 0.0], [0.0, 1.0]]),
            w_down=np.array([[2.0, 0.0], [1.0, -1.0]]),
        )
        x = np.array([[1.0, 2.0]])
        g = x @ e.w_gate
        sig = 1 / (1 + np.exp(-g))
        expected = ((g * sig) * (x @ e.w_up)) @ e.w_down
        assert np.abs(expert_forward(x, e) - expected).max() < 1e-15


class TestMoELayerForward:
    def test_identical_experts_full_k(self):
        layer = make_layer(SeededRng(0))
        for e in layer.experts[1:]:
            e.w_gate = layer.experts[0].w_gate
            e.w_up = layer.experts[0].w_up
            e.w_down = layer.experts[0].w_down
        x = SeededRng(1).normal_matrix(5, 4)
        y, _ = moe_layer_forward(x, layer, k=4)
        assert np.abs(y - expert_forward(x, layer.experts[0])).max() < 1e-12

    def test_top1_unscaled_selection(self):
        layer = make_layer(SeededRng(2))
        x = SeededRng(3).normal_matrix(6, 4)
        y, gates = moe_layer_forward(x, layer, k=1)
        for t in range(6):
            e = int(gates[t].argmax())
            assert gates[t, e] == 1.0
            expected = expert_forward(x[[t]], layer.experts[e])
            assert np.abs(y[t] - expected[0]).max() < 1e-12

    def test_matches_dense_sum(self):
        layer = make_layer(SeededRng(4), n_experts=2)
        x = SeededRng(5).normal_matrix(2, 4)
        y, gates = moe_layer_forward(x, layer, k=2)
        dense = np.zeros_like(x)
        for e in range(2):
            dense += gates[:, [e]] * expert_forward(x, layer.experts[e])
        assert np.abs(y - dense).max() < 1e-12

    def test_sparse_equals_dense_random(self):
        rng = SeededRng(6)
        for trial in range(10):
            layer = make_layer(rng)
            x = rng.normal_matrix(7, 4, std=1.5)
            y, gates = moe_layer_forward(x, layer, k=2)
            dense = np.zeros_like(x)
            for e in range(4):
                dense += gates[:, [e]] * expert_forward(x, layer.experts[e])
            assert np.abs(y - dense).max() < 1e-12

    def test_expert_permutation_invariance(self):
        rng = SeededRng(8)
        layer = make_layer(rng)
        x = rng.normal_matrix(9, 4, std=1.5)
        y, _ = moe_layer_forward(x, layer, k=2)
        perm = [2, 0, 3, 1]
        permuted = MoELayer(router=layer.router[:, perm],
                            experts=[layer.experts[p] for p in perm])
        y2, _ = moe_layer_forward(x, permuted, k=2)
        assert np.abs(y - y2).max() < 1e-12


def ce_loss(logits: np.ndarray, targets) -> float:
    """The cross-entropy op's value on constant logits, as evaluation reads it."""
    return float(ag.cross_entropy(ag.Tape().const(logits), targets).value[0, 0])


class TestCeLoss:
    def test_uniform_is_log_vocab(self):
        logits = np.zeros((5, 256))
        assert ce_loss(logits, np.arange(5)) == pytest.approx(math.log(256), abs=1e-12)

    def test_confident_margin_drives_loss_to_zero(self):
        logits = np.zeros((3, 16))
        logits[np.arange(3), [4, 7, 9]] = 50.0
        assert ce_loss(logits, np.array([4, 7, 9])) < 1e-15

    def test_against_high_precision(self):
        rng = SeededRng(9)
        logits = rng.normal_matrix(4, 6, std=2.0)
        targets = np.array([3, 0, 5, 2])
        with mpmath.workdps(60):
            total = mpmath.mpf(0)
            for i, t in enumerate(targets):
                row = [mpmath.mpf(v) for v in logits[i]]
                z = sum(mpmath.e ** v for v in row)
                total += -(row[t] - mpmath.log(z))
            expected = float(total / 4)
        assert ce_loss(logits, targets) == pytest.approx(expected, abs=1e-14)

    def test_target_out_of_vocab(self):
        with pytest.raises(InputError):
            ce_loss(np.zeros((2, 4)), np.array([0, 4]))


def straight_line_forward(model: MoEModel, tokens: np.ndarray) -> np.ndarray:
    """Independent plain-numpy reimplementation of the forward pass."""
    cfg = model.config
    p = model.params
    T = len(tokens)

    def rms(x):
        return x / np.sqrt((x * x).mean(axis=1, keepdims=True) + 1e-5)

    def masked_sm(x, keep):
        shifted = x - np.where(keep, x, -np.inf).max(axis=1, keepdims=True)
        e = np.where(keep, np.exp(shifted), 0.0)
        return e / e.sum(axis=1, keepdims=True)

    h = p["token_embedding"][tokens]
    dh = cfg.d_model // cfg.n_heads
    causal = np.tril(np.ones((T, T), dtype=bool))
    for i in range(cfg.n_layers):
        a = rms(h)
        q, k, v = (a @ p[f"layers.{i}.attn.{w}"] for w in ("wq", "wk", "wv"))
        outs = []
        for hd in range(cfg.n_heads):
            sl = slice(hd * dh, (hd + 1) * dh)
            scores = (q[:, sl] @ k[:, sl].T) / math.sqrt(dh)
            outs.append(masked_sm(scores, causal) @ v[:, sl])
        h = h + np.hstack(outs) @ p[f"layers.{i}.attn.wo"]

        m = rms(h)
        logits = m @ p[f"layers.{i}.router"]
        order = np.argsort(-logits, axis=1, kind="stable")[:, : cfg.top_k]
        keep = np.zeros_like(logits, dtype=bool)
        np.put_along_axis(keep, order, True, axis=1)
        gates = masked_sm(logits, keep)
        y = np.zeros_like(m)
        for e in range(cfg.n_experts):
            ew = ExpertWeights(
                w_gate=p[f"layers.{i}.experts.{e}.w_gate"],
                w_up=p[f"layers.{i}.experts.{e}.w_up"],
                w_down=p[f"layers.{i}.experts.{e}.w_down"],
            )
            y += gates[:, [e]] * expert_forward(m, ew)
        h = h + y
    return rms(h) @ p["lm_head"]


class TestModelForward:
    def test_zero_weights_uniform_logits(self):
        cfg = ModelConfig(d_model=8, n_heads=2, n_layers=1, n_experts=2, top_k=1,
                          d_ff=8, seq_len=8, vocab_size=32, seed=0)
        model = MoEModel.init(cfg)
        for name in model.params:
            if name != "token_embedding":
                model.params[name] = np.zeros_like(model.params[name])
        res = model_forward(model, np.array([1, 2, 3]))
        assert np.array_equal(res.logits.value, np.zeros((3, 32)))

    def test_deterministic_across_reinit(self):
        tokens = np.arange(10)
        a = model_forward(MoEModel.init(TINY), tokens).logits.value
        b = model_forward(MoEModel.init(TINY), tokens).logits.value
        assert np.array_equal(a, b)

    def test_matches_straight_line_oracle(self):
        model = MoEModel.init(TINY)
        tokens = np.array([10, 200, 33, 4, 97, 64, 250, 7])
        res = model_forward(model, tokens)
        oracle = straight_line_forward(model, tokens)
        assert np.abs(res.logits.value - oracle).max() < 1e-12

    def test_trace_exposes_moe_internals(self, tiny_model):
        tokens = np.arange(12)
        res = model_forward(tiny_model, tokens)
        assert len(res.layers) == TINY.n_layers
        for lt in res.layers:
            assert lt.moe_input.shape == (12, TINY.d_model)
            routed = sum(idx.size for idx in lt.expert_tokens.values())
            assert routed == 12 * TINY.top_k
            for e, idx in lt.expert_tokens.items():
                assert lt.expert_outputs[e].shape == (idx.size, TINY.d_model)
                # a pass to the logits keeps no SwiGLU intermediate
                assert lt.expert_hidden[e].shape == (0, TINY.d_ff)

    def test_out_of_vocab_token(self, tiny_model):
        with pytest.raises(InputError):
            model_forward(tiny_model, np.array([1, 300]))

    def test_sequence_too_long(self, tiny_model):
        with pytest.raises(InputError):
            model_forward(tiny_model, np.zeros(TINY.seq_len + 1, dtype=int))

    def test_fresh_model_perplexity_near_vocab_size(self, tiny_model):
        ppl, _ = evaluate_perplexity(tiny_model, random_bytes_corpus(3, 1 << 13))
        assert abs(ppl - 256) / 256 < 0.05

    def test_upcycle_clones_experts(self):
        model = MoEModel.init(TINY, upcycle=True)
        for i in range(TINY.n_layers):
            base = model.params[f"layers.{i}.experts.0.w_gate"]
            for e in range(1, TINY.n_experts):
                assert np.array_equal(model.params[f"layers.{i}.experts.{e}.w_gate"], base)


class TestBatchedForward:
    @staticmethod
    def batch(seed=4, B=3, T=12):
        return np.random.default_rng(seed).integers(0, 256, size=(B, T))

    def test_batch_matches_per_window_forwards(self, tiny_model):
        toks = self.batch()
        B, T = toks.shape
        res = model_forward(tiny_model, toks)
        assert res.logits.value.shape == (B * T, TINY.vocab_size)
        for b in range(B):
            one = model_forward(tiny_model, toks[b])
            rows = slice(b * T, (b + 1) * T)
            assert np.abs(res.logits.value[rows] - one.logits.value).max() < 1e-12
            for lb, lo in zip(res.layers, one.layers):
                assert np.abs(lb.moe_input[rows] - lo.moe_input).max() < 1e-12
                for e, idx in lb.expert_tokens.items():
                    own = idx[(idx >= b * T) & (idx < (b + 1) * T)] - b * T
                    assert np.array_equal(own, lo.expert_tokens[e])

    def test_batch_ce_gradients_are_mean_of_per_window(self, tiny_model):
        toks = self.batch(seed=5, B=4, T=10)
        loss, _, leaves, tape = batch_ce_graph(tiny_model, list(toks))
        tape.backward(loss)
        singles = []
        for w in toks:
            l1, _, lv1, t1 = batch_ce_graph(tiny_model, [w])
            t1.backward(l1)
            singles.append((float(l1.value[0, 0]), lv1))
        assert float(loss.value[0, 0]) == pytest.approx(
            np.mean([v for v, _ in singles]), abs=1e-12)
        for name, leaf in leaves.items():
            mean = sum(lv[name].grad for _, lv in singles) / len(singles)
            assert np.abs(leaf.grad - mean).max() < 1e-12, name

    def test_forced_dispatch_outputs(self, tiny_model):
        # per expert e of each layer, forced rows that are: its own rows (e=0),
        # as many other rows (e=1), a subset (e=2), every row (e=3); a second
        # pass forces nothing
        toks = self.batch()
        plain = model_forward(tiny_model, toks)
        forced = []
        for lt in plain.layers:
            n, own = lt.moe_input.shape[0], lt.expert_tokens
            other = np.sort((own[1] + 1) % n)
            assert not np.array_equal(other, own[1])
            forced.append({0: own[0], 1: other, 2: own[2][::2], 3: np.arange(n)})
        tape = ag.Tape()
        consts = {n: tape.const(p) for n, p in tiny_model.params.items()}
        tr = forward_pass(tiny_model, toks, consts, forced_dispatch=forced)
        assert np.allclose(tr.logits.value, plain.logits.value, rtol=1e-12, atol=1e-14)
        for i, (lt, pl) in enumerate(zip(tr.layers, plain.layers)):
            experts = moe_layer(tiny_model, i).experts
            assert list(tr.forced_outputs[i]) == [0, 1, 2, 3]
            for e, rows in forced[i].items():
                assert np.array_equal(lt.expert_tokens[e], pl.expert_tokens[e])
                assert np.allclose(lt.expert_outputs[e], pl.expert_outputs[e], rtol=1e-12, atol=1e-15)
                want = expert_forward(pl.moe_input[rows], experts[e])
                assert np.allclose(tr.forced_outputs[i][e].value, want, rtol=1e-12, atol=1e-15)
        none = forward_pass(tiny_model, toks, consts,
                            forced_dispatch=[{e: np.arange(0) for e in range(4)}] * 2)
        assert none.forced_outputs == [{}, {}]

    def test_model_forward_records_no_tape(self, tiny_model):
        assert model_forward(tiny_model, self.batch()).logits.tape.nodes == []

    @pytest.mark.parametrize("until", ["router", "hidden"])
    def test_stopped_forward_runs_no_head_and_no_last_w_down(self, tiny_model, monkeypatch,
                                                             until):
        operands, combines = [], []
        matmul, swiglu, moe_combine = ag.matmul, ag.swiglu, ag.moe_combine

        def recording_matmul(a, b):
            operands.append(b.value)
            return matmul(a, b)

        def recording_swiglu(x, w_gate, w_up):
            operands.extend((w_gate.value, w_up.value))
            return swiglu(x, w_gate, w_up)

        def counting_combine(*args):
            combines.append(1)
            return moe_combine(*args)

        monkeypatch.setattr(ag, "matmul", recording_matmul)
        monkeypatch.setattr(ag, "swiglu", recording_swiglu)
        monkeypatch.setattr(ag, "moe_combine", counting_combine)
        last = TINY.n_layers - 1
        toks = self.batch()
        res = model_forward(tiny_model, toks, stop=(last, until))

        def read(name):
            return any(np.shares_memory(b, tiny_model.params[name]) for b in operands)

        experts = range(TINY.n_experts)
        assert res.logits is None and len(res.layers) == TINY.n_layers
        assert not read("lm_head") and len(combines) == last
        assert not any(read(f"layers.{last}.experts.{e}.w_down") for e in experts)
        assert any(read(f"layers.{last - 1}.experts.{e}.w_down") for e in experts)
        assert any(read(f"layers.{last}.experts.{e}.w_gate") for e in experts) == (until == "hidden")

        monkeypatch.undo()
        full = full_layers(tiny_model, toks)
        for got, want in zip(res.layers[:last], full):
            for e in experts:
                assert np.array_equal(got.expert_outputs[e], want.expert_outputs[e])
        got, want = res.layers[last], full[last]
        assert np.array_equal(got.moe_input, want.moe_input)
        assert np.array_equal(got.gates, want.gates)
        assert np.array_equal(got.router_logits, want.router_logits)
        if until == "router":
            assert got.expert_tokens == got.expert_hidden == {}
        # only a pass that stops at "hidden" records the intermediates, in
        # every layer it runs, equal to those rebuilt from the routed inputs
        for got, want in zip(res.layers, full):
            for e, rows in got.expert_tokens.items():
                assert np.array_equal(rows, want.expert_tokens[e])
                hidden = want.expert_hidden[e] if until == "hidden" else np.zeros((0, TINY.d_ff))
                assert np.array_equal(got.expert_hidden[e], hidden)

    @pytest.mark.parametrize("stop", [(TINY.n_layers, "hidden"), (-1, "router"), (0, "logits")])
    def test_unknown_stop_point(self, tiny_model, stop):
        with pytest.raises(ContractError, match="stop point"):
            model_forward(tiny_model, self.batch(), stop=stop)

    @pytest.mark.parametrize("until", ["router", "hidden"])
    def test_stopped_forward_takes_no_forced_dispatch(self, tiny_model, until):
        tape = ag.Tape()
        consts = {n: tape.const(p) for n, p in tiny_model.params.items()}
        forced = [{0: np.arange(2)}] * TINY.n_layers
        with pytest.raises(ContractError, match="forced_dispatch"):
            forward_pass(tiny_model, self.batch(), consts, forced_dispatch=forced, stop=(0, until))

    @pytest.mark.parametrize("tokens", [
        np.zeros((2, TINY.seq_len + 1), dtype=int),   # window too long
        np.array([[1, 2, 3], [4, 256, 5]]),           # out of vocabulary
        np.zeros((0, 8), dtype=int),                  # no windows
        np.zeros((2, 0), dtype=int),                  # empty windows
        [np.arange(4), np.arange(5)],                 # unequal lengths
        np.zeros((2, 2, 2), dtype=int),               # not a batch
    ])
    def test_batch_validation(self, tiny_model, tokens):
        with pytest.raises(InputError):
            model_forward(tiny_model, tokens)

    def test_perplexity_independent_of_row_budget(self, tiny_model, monkeypatch):
        corpus = random_bytes_corpus(6, 1 << 12)
        whole = evaluate_perplexity(tiny_model, corpus)
        monkeypatch.setattr(moeprune.model, "ROWS_PER_FORWARD", 3 * TINY.seq_len)
        chunked = evaluate_perplexity(tiny_model, corpus)
        assert chunked[1] == whole[1]
        assert chunked[0] == pytest.approx(whole[0], rel=1e-12)


def test_underflowed_gate_raises():
    # a huge router column wins every token it favours by so much that the
    # other selected expert's gate underflows to zero
    model = MoEModel.init(TINY)
    model.params["layers.0.router"][:, 1] = 1e5
    with pytest.raises(NumericalError, match=f"exactly {TINY.top_k} nonzeros"):
        model_forward(model, np.arange(TINY.seq_len))


@pytest.mark.parametrize("values,message", [
    (np.array([[0.5, 0.4]]), "sum to 1"),
    (np.array([[1.0, 0.0], [0.5, 0.5]]), "exactly 2 nonzeros"),
    (np.array([[np.nan, 1.0]]), "sum to 1"),
])
def test_gate_validate_raises(tiny_model, monkeypatch, values, message):
    # the router's softmax hands back these gate rows (zero-padded to every
    # expert, tiled over the tokens); the forward must refuse them
    def bad_gates(a, mask):
        rows = np.zeros((len(values), TINY.n_experts))
        rows[:, :values.shape[1]] = values
        return a.tape.var(np.resize(rows, a.value.shape))
    monkeypatch.setattr(ag, "row_softmax", bad_gates)
    with pytest.raises(NumericalError, match=message):
        model_forward(tiny_model, np.arange(TINY.seq_len))
