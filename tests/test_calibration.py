from dataclasses import replace

import numpy as np
import pytest

import moeprune.model
from moeprune.calibration import (
    InputStats,
    ScaledNormAccumulator,
    build_calibration_set,
    collect,
    count_dispatch,
    nonoverlapping_windows,
)
from moeprune.errors import InputError, ShapeError
from moeprune.model import ModelConfig, MoEModel, model_forward, window_batches

from conftest import TINY, TOP1, expert_names, input_records, synth_corpus
from oracles import full_forward_stats


@pytest.fixture(scope="module")
def corpus():
    return synth_corpus(seed=2, size=1 << 16)


@pytest.fixture(scope="module")
def cal(corpus):
    return build_calibration_set(corpus, nsamples=16, seq_len=TINY.seq_len, seed=5)


@pytest.fixture(scope="module")
def stats(tiny_model, cal):
    return collect(tiny_model, cal)


@pytest.fixture(scope="module")
def stacked_inputs(tiny_model, cal):
    """Oracle: the routed inputs of every expert matrix, stacked over the
    calibration set from plain forwards."""
    parts = {}
    for seq in cal.sequences:
        for i, lt in enumerate(model_forward(tiny_model, seq).layers):
            for e, idx in lt.expert_tokens.items():
                base = f"layers.{i}.experts.{e}"
                for tgt, x in ((f"{base}.w_gate", lt.moe_input[idx]),
                               (f"{base}.w_up", lt.moe_input[idx]),
                               (f"{base}.w_down", lt.expert_hidden[e])):
                    parts.setdefault(tgt, []).append(x)
    return {name: np.vstack(xs) for name, xs in parts.items()}


class TestBuildCalibrationSet:
    def test_deterministic(self, corpus):
        a = build_calibration_set(corpus, 4, 32, seed=0)
        b = build_calibration_set(corpus, 4, 32, seed=0)
        for sa, sb in zip(a.sequences, b.sequences):
            assert np.array_equal(sa, sb)

    def test_128_sequences_from_1mb(self):
        cal = build_calibration_set(synth_corpus(0, 1 << 20), 128, 64, seed=1)
        assert len(cal.sequences) == 128
        assert all(len(s) == 64 for s in cal.sequences)

    def test_corpus_shorter_than_window(self):
        with pytest.raises(InputError, match="shorter"):
            build_calibration_set(b"tiny", 1, 32, seed=0)

    def test_corpus_too_short_for_nsamples(self):
        with pytest.raises(InputError, match="too short"):
            build_calibration_set(b"x" * 100, 8, 32, seed=0)

    def test_windows_tail_dropped(self):
        ws = nonoverlapping_windows(b"a" * 70, 32)
        assert len(ws) == 2


class TestAccumulator:
    def test_single_token_hand_case(self):
        rec = InputStats.empty(("layers.0.experts.0.w_gate",), 2)
        rec.add(np.array([[1.0, 2.0]]), np.array([0.5]))
        assert np.array_equal(rec.scaled.sum_sq, [0.25, 1.0])  # (1*0.5)^2, (2*0.5)^2
        assert np.array_equal(np.diagonal(rec.hessian.h), [1.0, 4.0])  # plain 1^2, 2^2
        assert np.array_equal(rec.hessian.h, [[1.0, 2.0], [2.0, 4.0]])
        assert rec.tokens_seen == 1

    def test_norm_is_sqrt_of_sum(self):
        acc = ScaledNormAccumulator.empty(2)
        acc.add(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([0.5, 1.0]))
        assert np.allclose(acc.norms(), [np.sqrt(9.25), np.sqrt(17.0)])

    def test_width_mismatch(self):
        rec = InputStats.empty(("layers.0.experts.0.w_down",), 3)
        with pytest.raises(ShapeError, match="w_down: input width 2 != 3"):
            rec.add(np.zeros((2, 2)), np.ones(2))
        assert rec.tokens_seen == 0 and not rec.scaled.sum_sq.any()


class TestCollect:
    def test_routing_partition_top1(self, corpus):
        cfg = ModelConfig(d_model=16, n_heads=2, n_layers=1, n_experts=2, top_k=1,
                          d_ff=32, seq_len=32, vocab_size=256, seed=4)
        model = MoEModel.init(cfg)
        cal = build_calibration_set(corpus, 4, 32, seed=2)
        st = collect(model, cal)
        total = sum(inp.tokens_seen for inp, _ in st.layers[0])
        assert total == 4 * 32  # k=1 partitions tokens exactly

    def test_topk_coverage(self, stats):
        for layer in stats.layers:
            routed = sum(inp.tokens_seen for inp, _ in layer)
            assert routed == 16 * TINY.seq_len * TINY.top_k

    def test_one_record_per_expert_input(self, tiny_model, stats):
        assert len(stats.layers) == TINY.n_layers
        seen = []
        for i, layer in enumerate(stats.layers):
            assert len(layer) == TINY.n_experts
            for e, expert in enumerate(layer):
                base = f"layers.{i}.experts.{e}"
                assert [rec.weights for rec in expert] == [
                    (f"{base}.w_gate", f"{base}.w_up"), (f"{base}.w_down",)]
                seen += [name for rec in expert for name in rec.weights]
        # every expert weight reads exactly one record
        assert sorted(seen) == sorted(expert_names(tiny_model))
        assert len(seen) == len(set(seen))
        # and no accumulator is shared between records
        accs = [id(a) for layer in stats.layers for expert in layer for rec in expert
                for a in (rec.scaled, rec.hessian)]
        assert len(accs) == len(set(accs))

    def test_top1_scaled_norms_equal_plain_norms(self, corpus):
        # gates of exactly 1.0 make the scaled statistic the plain one, bit for
        # bit, and the plain one is X^T X's diagonal
        model = MoEModel.init(TOP1)
        cal = build_calibration_set(corpus, 4, TOP1.seq_len, seed=3)
        st = collect(model, cal)
        want = full_forward_stats(model, cal.sequences)
        for lt in model_forward(model, np.stack(cal.sequences)).layers:
            assert (lt.gates.values.max(axis=1) == 1.0).all()
        for name, rec in input_records(st).items():
            assert rec.tokens_seen > 0
            assert np.array_equal(rec.scaled.sum_sq, want[name]["plain"])
            assert np.abs(rec.scaled.sum_sq - np.diagonal(rec.hessian.h)).max() < 1e-10

    def test_hessian_equals_xtx_of_captured(self, stats, stacked_inputs):
        records = input_records(stats).values()
        assert set(stacked_inputs) == {name for rec in records for name in rec.weights}
        for rec in records:
            for name in rec.weights:
                x = stacked_inputs[name]
                h = rec.hessian.h
                assert np.abs(h - x.T @ x).max() < 1e-10
                assert np.abs(h - h.T).max() < 1e-9
                assert (np.diag(h) >= 0).all()

    def test_unscaled_matches_batch_computation(self, stats, stacked_inputs):
        for rec in input_records(stats).values():
            for name in rec.weights:
                x = stacked_inputs[name]
                batch = np.sqrt((x * x).sum(axis=0))
                assert np.abs(np.sqrt(np.diagonal(rec.hessian.h)) - batch).max() < 1e-10

    def test_scaled_matches_batch_recomputation(self, tiny_model, corpus):
        cal = build_calibration_set(corpus, 4, 32, seed=7)
        st = collect(tiny_model, cal)
        # recompute one target's statistic in a single batch pass
        name = "layers.0.experts.0.w_gate"
        rows = []
        for seq in cal.sequences:
            lt = model_forward(tiny_model, seq).layers[0]
            idx = lt.expert_tokens[0]
            rows.append(lt.moe_input[idx] * lt.gates.values[idx, 0][:, None])
        stacked = np.vstack(rows)
        scaled = input_records(st)[name].scaled
        assert np.abs(scaled.norms() - np.sqrt((stacked ** 2).sum(axis=0))).max() < 1e-10

    def test_argmax_frequency_total(self, tiny_model, cal):
        counts, total = count_dispatch(tiny_model, cal, "argmax")
        assert total == 16 * TINY.seq_len
        for i in range(TINY.n_layers):
            assert counts[i].sum() == total

    def test_topk_frequency_total(self, tiny_model, corpus):
        cal = build_calibration_set(corpus, 4, 32, seed=8)
        counts, total = count_dispatch(tiny_model, cal, "topk")
        for i in range(TINY.n_layers):
            assert counts[i].sum() == total * TINY.top_k

    def test_zero_gate_tokens_contribute_nothing(self, stats):
        # every accumulated token for an expert had a strictly positive gate,
        # so token counts equal the gate-support sizes exactly
        for layer in stats.layers:
            for gate, down in layer:
                assert down.tokens_seen == gate.tokens_seen


class TestValidateForModel:
    def test_mismatched_model_rejected(self, stats):
        other = MoEModel.init(ModelConfig(d_model=16, n_heads=2, n_layers=2,
                                          n_experts=2, top_k=2, d_ff=32,
                                          seq_len=32, vocab_size=256, seed=0))
        with pytest.raises(ShapeError, match="architecture"):
            stats.validate_for_model(other)

    def test_other_top_k_rejected(self, stats):
        # TOP1 is TINY with top-1 routing: only the router's k differs
        with pytest.raises(ShapeError, match="architecture mismatch on top_k: 2 vs 1"):
            stats.validate_for_model(MoEModel.init(TOP1))

    def test_same_architecture_accepted(self, stats):
        # seq_len and seed are not architecture
        stats.validate_for_model(MoEModel.init(replace(TINY, seq_len=16, seed=99)))


TOY = ModelConfig(d_model=64, n_heads=4, n_layers=2, n_experts=4, top_k=2,
                  d_ff=128, seq_len=64, vocab_size=256, seed=77)
WIDE_ONE_LAYER = ModelConfig(d_model=16, n_heads=2, n_layers=1, n_experts=16, top_k=2,
                             d_ff=32, seq_len=32, vocab_size=256, seed=78)


class TestCollectEqualsFullForwards:
    """collect stops after the last layer's expert intermediates; its
    statistics must equal those summed from forwards that run to the logits."""

    @staticmethod
    def check(model, cal):
        st = collect(model, cal)
        want = full_forward_stats(model, cal.sequences)
        for name, rec in input_records(st).items():
            w = want.get(name)
            if w is None:  # an expert no token reached
                assert rec.tokens_seen == 0 and not rec.hessian.h.any()
                continue
            assert np.array_equal(rec.scaled.sum_sq, w["scaled"]), name
            assert np.array_equal(rec.hessian.h, w["h"]), name
            assert rec.tokens_seen == w["tokens"]

    def test_toy_two_layers(self, corpus):
        cal = build_calibration_set(corpus, 6, TOY.seq_len, seed=1)
        self.check(MoEModel.init(TOY), cal)

    def test_one_layer_sixteen_experts(self, corpus):
        cal = build_calibration_set(corpus, 6, WIDE_ONE_LAYER.seq_len, seed=2)
        self.check(MoEModel.init(WIDE_ONE_LAYER), cal)

    def test_multi_batch(self, tiny_model, cal, monkeypatch):
        monkeypatch.setattr(moeprune.model, "ROWS_PER_FORWARD", 3 * TINY.seq_len)
        assert [len(b) for b in window_batches(cal.sequences)] == [3, 3, 3, 3, 3, 1]
        self.check(tiny_model, cal)


class TestCountDispatchEqualsFullForwards:
    """count_dispatch stops at the last layer's router; its counts must equal
    those taken from forwards that run to the logits."""

    @pytest.mark.parametrize("mode", ["argmax", "topk"])
    @pytest.mark.parametrize("config", [TINY, TOY, WIDE_ONE_LAYER], ids=["tiny", "toy", "wide"])
    def test_counts_over_several_batches(self, corpus, monkeypatch, mode, config):
        monkeypatch.setattr(moeprune.model, "ROWS_PER_FORWARD", 3 * config.seq_len)
        model = MoEModel.init(config)
        cal = build_calibration_set(corpus, 8, config.seq_len, seed=4)
        assert [len(b) for b in window_batches(cal.sequences)] == [3, 3, 2]
        counts, total = count_dispatch(model, cal, mode)
        want = full_forward_stats(model, cal.sequences, mode)
        assert counts.dtype == np.int64
        assert np.array_equal(counts, want["counts"])
        assert total == want["total_tokens"] == 8 * config.seq_len

    def test_unknown_mode(self, tiny_model, cal):
        with pytest.raises(InputError, match="mode"):
            count_dispatch(tiny_model, cal, "softmax")
