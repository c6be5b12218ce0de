import itertools
import math
from dataclasses import asdict, replace

import numpy as np
import pytest

import moeprune.pruning
from moeprune.calibration import (
    InputStats,
    ScaledNormAccumulator,
    build_calibration_set,
    collect,
    empty_layer,
)
from moeprune.errors import ConfigError, NumericalError, ShapeError
from moeprune.model import ModelConfig, MoEModel, model_forward
from moeprune.numerics import SeededRng, spd_inverse
from moeprune.pruning import (
    METHODS,
    OBS_BLOCK,
    SparsityTarget,
    _hessian_error,
    damped_inverse,
    obs_update,
    prune_model,
    reconstruction_error,
    score_magnitude,
    score_moe_pruner,
    score_sparsegpt,
    score_wanda,
    select_mask,
)
from moeprune.training import evaluate_perplexity

from conftest import TINY, TOP1, expert_names, input_records, synth_corpus
from oracles import obs_sweep as obs_sweep_oracle
from oracles import full_layers, prune_per_target, prune_recompute
from oracles import select_mask as argsort_select_mask


def oracle_keep_set(scores_row: np.ndarray, keep: int) -> tuple[int, ...]:
    """Exhaustive enumeration: the keep-set maximizing total score, ties
    resolved toward keeping higher column indices (pruning lower ones)."""
    best = max(
        itertools.combinations(range(scores_row.size), keep),
        key=lambda c: (scores_row[list(c)].sum(), c),
    )
    return best


class TestScoreMagnitude:
    def test_absolute_value(self):
        assert np.array_equal(score_magnitude(np.array([[-3.0, 1.0]])), [[3.0, 1.0]])

    def test_zero_matrix(self):
        assert np.array_equal(score_magnitude(np.zeros((2, 2))), np.zeros((2, 2)))

    def test_sign_invariance(self):
        w = SeededRng(0).normal_matrix(3, 5)
        assert np.array_equal(score_magnitude(w), score_magnitude(-w))


class TestScoreWanda:
    def test_unit_norms_equal_magnitude(self):
        w = SeededRng(1).normal_matrix(3, 4)
        assert np.array_equal(score_wanda(w, np.ones(4)), score_magnitude(w))

    def test_hand_product(self):
        assert np.array_equal(score_wanda(np.array([[2.0, -1.0]]), np.array([1.0, 4.0])),
                              [[2.0, 4.0]])

    def test_zero_norm_column(self):
        s = score_wanda(SeededRng(2).normal_matrix(3, 3), np.array([1.0, 0.0, 2.0]))
        assert (s[:, 1] == 0.0).all()

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            score_wanda(np.zeros((2, 3)), np.ones(2))


class TestScoreMoePruner:
    def test_worked_instance(self):
        # W row [2,-1]; tokens X=[[1,2],[3,4]]; gates [0.5, 1.0]
        acc = ScaledNormAccumulator(np.zeros(2))
        acc.add(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([0.5, 1.0]))
        s = score_moe_pruner(np.array([[2.0, -1.0]]), acc.norms())
        assert abs(s[0, 0] - 2 * math.sqrt(9.25)) < 1e-12
        assert abs(s[0, 1] - math.sqrt(17.0)) < 1e-12
        mask = select_mask(s, SparsityTarget.unstructured(0.5))
        assert np.array_equal(mask, [[1, 0]])  # column 1 pruned at 50%

    def test_unit_gates_bitwise_equal_wanda(self):
        rng = SeededRng(3)
        x = rng.normal_matrix(10, 6)
        w = rng.normal_matrix(4, 6)
        acc = ScaledNormAccumulator(np.zeros(6))
        acc.add(x, np.ones(10))
        assert np.array_equal(score_moe_pruner(w, acc.norms()),
                              score_wanda(w, np.sqrt((x * x).sum(axis=0))))

    def test_dead_expert_all_zero_scores(self):
        acc = ScaledNormAccumulator(np.zeros(4))
        s = score_moe_pruner(SeededRng(4).normal_matrix(2, 4), acc.norms())
        assert np.array_equal(s, np.zeros((2, 4)))
        mask = select_mask(s, SparsityTarget.unstructured(0.5))
        assert np.array_equal(mask, [[0, 0, 1, 1], [0, 0, 1, 1]])  # index tie-break

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            score_moe_pruner(np.zeros((2, 4)), np.ones(3))

    def test_gate_scaling_invariance_of_masks(self):
        # scaling one expert's gates by c>0 scales scores uniformly: same masks
        rng = SeededRng(5)
        x = rng.normal_matrix(12, 8)
        g = np.abs(rng.normal_matrix(12, 1)).ravel()
        w = rng.normal_matrix(6, 8)
        a1 = ScaledNormAccumulator(np.zeros(8))
        a2 = ScaledNormAccumulator(np.zeros(8))
        a1.add(x, g)
        a2.add(x, 3.7 * g)
        t = SparsityTarget.unstructured(0.5)
        assert np.array_equal(select_mask(score_moe_pruner(w, a1.norms()), t),
                              select_mask(score_moe_pruner(w, a2.norms()), t))


class TestScoreSparsegpt:
    def test_identity_hessian_equals_magnitude_masks(self):
        w = SeededRng(6).normal_matrix(4, 6)
        h_inv = spd_inverse(np.eye(6))
        s = score_sparsegpt(w, h_inv)
        assert np.abs(s - w * w).max() < 1e-12
        t = SparsityTarget.unstructured(0.5)
        assert np.array_equal(select_mask(s, t), select_mask(score_magnitude(w), t))
        assert np.allclose(h_inv, np.eye(6))

    def test_diagonal_hessian_column_scaling(self):
        w = np.ones((1, 2))
        s = score_sparsegpt(w, spd_inverse(np.diag([4.0, 1.0])))
        # H'^-1 = diag(1/4, 1); S = W^2 / diag(H'^-1) scales columns by [4, 1]
        assert np.allclose(s, [[4.0, 1.0]])

    def test_singular_hessian_rescued_by_dampening(self):
        h = np.outer([1.0, 1.0], [1.0, 1.0])  # rank 1
        with pytest.raises(NumericalError):
            spd_inverse(h)
        h_inv = damped_inverse(h)
        s = score_sparsegpt(np.ones((1, 2)), h_inv)
        assert np.isfinite(s).all() and np.isfinite(h_inv).all()


class TestSelectMask:
    def test_descending_scores(self):
        mask = select_mask(np.array([[4.0, 3.0, 2.0, 1.0]]), SparsityTarget.unstructured(0.5))
        assert np.array_equal(mask, [[1, 1, 0, 0]])

    def test_2to4_group(self):
        mask = select_mask(np.array([[5.0, 1.0, 4.0, 2.0]]), SparsityTarget.semi_structured(2, 4))
        assert np.array_equal(mask, [[1, 0, 1, 0]])  # keep columns 0 and 2

    def test_all_equal_tie_break(self):
        mask = select_mask(np.ones((1, 4)), SparsityTarget.unstructured(0.5))
        assert np.array_equal(mask, [[0, 0, 1, 1]])

    def test_p_zero_keeps_everything(self):
        mask = select_mask(np.ones((3, 4)), SparsityTarget.unstructured(0.0))
        assert mask.all()

    def test_invalid_p(self):
        with pytest.raises(ConfigError):
            SparsityTarget.unstructured(1.0)
        with pytest.raises(ConfigError):
            SparsityTarget.unstructured(-0.1)

    def test_nm_divisibility(self):
        with pytest.raises(ShapeError):
            select_mask(np.ones((2, 6)), SparsityTarget.semi_structured(2, 4))

    def test_exact_zero_counts_random(self):
        rng = SeededRng(7)
        for _ in range(20):
            scores = np.abs(rng.normal_matrix(5, 12))
            for p in (0.25, 0.5, 0.75):
                mask = select_mask(scores, SparsityTarget.unstructured(p))
                assert ((mask == 0).sum(axis=1) == math.floor(p * 12)).all()
            mask = select_mask(scores, SparsityTarget.semi_structured(1, 4))
            assert ((mask.reshape(5, 3, 4) == 0).sum(axis=2) == 3).all()

    def test_matches_exhaustive_oracle(self):
        rng = SeededRng(8)
        for _ in range(25):
            scores = np.abs(rng.normal_matrix(4, 8))
            mask = select_mask(scores, SparsityTarget.unstructured(0.5))
            for r in range(4):
                kept = tuple(np.nonzero(mask[r])[0])
                assert kept == oracle_keep_set(scores[r], 4)

    def test_nm_matches_exhaustive_oracle(self):
        rng = SeededRng(9)
        for _ in range(25):
            scores = np.abs(rng.normal_matrix(3, 8))
            mask = select_mask(scores, SparsityTarget.semi_structured(2, 4))
            for r in range(3):
                for g in range(2):
                    grp = scores[r, g * 4 : (g + 1) * 4]
                    kept = tuple(np.nonzero(mask[r, g * 4 : (g + 1) * 4])[0])
                    assert kept == oracle_keep_set(grp, 2)


class TestSelectMaskEqualsArgsort:
    """The sort-free selection against the stable-argsort oracle, bit for bit."""

    TARGETS = [SparsityTarget.unstructured(p) for p in (0.1, 0.25, 0.5, 0.75, 0.9)] + [
        SparsityTarget.semi_structured(n, m) for n, m in ((1, 4), (2, 4), (3, 4), (3, 8), (4, 8))]

    @pytest.mark.parametrize("kind", ["random", "heavy-ties", "all-equal", "signed-zeros"])
    def test_equals_oracle(self, kind):
        rng = np.random.default_rng(40)
        for rows, cols in ((1, 8), (7, 16), (33, 64)):
            scores = {
                "random": rng.normal(size=(rows, cols)),
                "heavy-ties": rng.integers(0, 3, size=(rows, cols)).astype(np.float64),
                "all-equal": np.full((rows, cols), 0.5),
                "signed-zeros": rng.choice([-0.0, 0.0, 1.0], size=(rows, cols)),
            }[kind]
            for t in self.TARGETS:
                assert np.array_equal(select_mask(scores, t), argsort_select_mask(scores, t))

    def test_all_but_one_pruned(self):
        rng = np.random.default_rng(41)
        for cols in (4, 9, 64):
            t = SparsityTarget.unstructured((cols - 1) / cols)
            for scores in (rng.normal(size=(5, cols)), np.zeros((5, cols))):
                mask = select_mask(scores, t)
                assert np.array_equal(mask, argsort_select_mask(scores, t))
                assert (mask.sum(axis=1) == 1).all()


def _random_spd_inverse(rng: SeededRng, n: int) -> np.ndarray:
    a = rng.normal_matrix(n + 3, n)
    return spd_inverse(a.T @ a + 0.1 * np.eye(n))


def _obs(w: np.ndarray, mask: np.ndarray, h_inv: np.ndarray) -> np.ndarray:
    """obs_update in pruning orientation, as the oracle sweeps."""
    return obs_update(w.T, mask.T, h_inv).T


def _obs_cases():
    """(weight, keep-mask, H^-1) triples in pruning orientation over the mask
    kinds the sweep meets, and column counts around the block size."""
    rng = SeededRng(40)
    b = OBS_BLOCK
    for rows, cols in [(1, 8), (8, 1), (5, 8), (16, 12), (3, 16), (24, 32),
                       (4, b - 1), (4, b), (4, b + 1), (3, 2 * b + 3)]:
        w = rng.normal_matrix(rows, cols)
        h_inv = _random_spd_inverse(rng, cols)
        scores = np.abs(rng.normal_matrix(rows, cols))
        masks = [select_mask(scores, SparsityTarget.unstructured(p)) for p in (0.25, 0.5, 0.75)]
        if cols % 4 == 0:
            masks += [select_mask(scores, SparsityTarget.semi_structured(n, 4)) for n in (1, 2)]
        masks.append(rng.integers(0, 2, size=(rows, cols)).astype(np.uint8))
        column_pruned = np.ones((rows, cols), dtype=np.uint8)
        column_pruned[:, cols // 2] = 0
        masks += [column_pruned, np.ones((rows, cols), dtype=np.uint8),
                  np.zeros((rows, cols), dtype=np.uint8)]
        if cols > b:
            skip_block = masks[1].copy()  # no pruned column in the first block
            skip_block[:, :b] = 1
            last_only = masks[1].copy()  # pruned columns only in the last block
            last_only[:, : (cols - 1) // b * b] = 1
            masks += [skip_block, last_only]
        for mask in masks:
            yield w, mask, h_inv


class TestObsUpdate:
    def test_matches_column_sweep_oracle(self):
        for w, mask, h_inv in _obs_cases():
            got, want = _obs(w, mask, h_inv), obs_sweep_oracle(w, mask, h_inv)
            scale = max(1.0, float(np.abs(want).max()))
            assert np.abs(got - want).max() <= 1e-12 * scale
            assert (got[mask == 0] == 0.0).all()
            if mask.all():
                assert np.array_equal(got, w)

    @pytest.mark.parametrize("n", [OBS_BLOCK - 1, 2 * OBS_BLOCK + 3])
    def test_stacked_equals_slices(self, n):
        # experts x (w_gate, w_up) sharing each expert's H^-1, in stored
        # orientation; expert 1's w_up keeps every weight, and expert 2's
        # first block is pruned only in its w_gate
        rng = SeededRng(42)
        w = rng.normal_matrix(3 * 2 * n, 5).reshape(3, 2, n, 5)
        h_inv = np.stack([_random_spd_inverse(rng, n) for _ in range(3)])[:, None]
        mask = (rng.integers(0, 2, size=w.size) == 1).astype(np.uint8).reshape(w.shape)
        mask[1, 1] = 1
        mask[2, 1, : min(n, OBS_BLOCK)] = 1
        got = obs_update(w, mask, h_inv)
        for j in range(3):
            for p in range(2):
                assert np.array_equal(got[j, p], obs_update(w[j, p], mask[j, p], h_inv[j, 0]))
        flat = obs_update(w.reshape(6, n, 5), mask.reshape(6, n, 5), h_inv.repeat(2, axis=0)[:, 0])
        assert np.array_equal(flat, got.reshape(6, n, 5))
        assert (got[mask == 0] == 0.0).all() and not np.signbit(got[mask == 0]).any()

    def test_h_inv_must_fit_weights(self):
        w = np.ones((2, 4, 3))
        mask = np.ones(w.shape, dtype=np.uint8)
        for h_inv in (np.eye(3), np.stack([np.eye(4)] * 3), np.ones((2, 2, 4, 4))):
            with pytest.raises(ShapeError, match="does not fit"):
                obs_update(w, mask, h_inv)

    @pytest.mark.parametrize("bad", [(3,), (0, 5), (6, 2)])
    def test_non_positive_diagonal_matches_oracle_error(self, bad):
        rng = SeededRng(41)
        w = rng.normal_matrix(4, 8)
        h_inv = _random_spd_inverse(rng, 8)
        mask = select_mask(np.abs(w), SparsityTarget.semi_structured(2, 4))
        mask[:, bad[0]] = 1  # column bad[0] is kept in every row
        for j in bad:
            h_inv[j, j] = -0.5 if j % 2 else 0.0
        with pytest.raises(NumericalError) as want:
            obs_sweep_oracle(w, mask, h_inv)
        with pytest.raises(NumericalError) as got:
            _obs(w, mask, h_inv)
        assert str(got.value) == str(want.value)
        assert f"entry {min(bad)} " in str(got.value)

    def test_identity_hinv_is_plain_zeroing(self):
        w = SeededRng(10).normal_matrix(3, 4)
        mask = select_mask(score_magnitude(w), SparsityTarget.unstructured(0.5))
        assert np.array_equal(_obs(w, mask, np.eye(4)), w * mask)

    def test_empty_mask_is_noop(self):
        w = SeededRng(11).normal_matrix(3, 4)
        assert np.array_equal(_obs(w, np.ones((3, 4), dtype=np.uint8), np.eye(4)), w)

    def test_update_reduces_reconstruction_error(self):
        rng = SeededRng(12)
        w = rng.normal_matrix(4, 4)
        x = rng.normal_matrix(16, 4)
        h_inv = damped_inverse(x.T @ x)
        s = score_sparsegpt(w, h_inv)
        mask = select_mask(s, SparsityTarget.unstructured(0.5))
        plain = reconstruction_error(w, w * mask, x)
        updated = _obs(w, mask, h_inv)
        compensated = reconstruction_error(w, updated, x)
        assert compensated <= plain
        assert (updated[mask == 0] == 0.0).all()
        # direct evaluation of the objective agrees with the helper
        assert compensated == pytest.approx(np.linalg.norm(w @ x.T - updated @ x.T), abs=1e-12)


class TestReconstructionError:
    def test_identical_weights(self):
        w = SeededRng(13).normal_matrix(2, 3)
        assert reconstruction_error(w, w, np.ones((5, 3))) == 0.0

    def test_zero_inputs(self):
        w = SeededRng(14).normal_matrix(2, 3)
        assert reconstruction_error(w, np.zeros_like(w), np.zeros((5, 3))) == 0.0

    def test_hand_instance(self):
        w = np.array([[1.0, 2.0], [3.0, 4.0]])
        wp = np.array([[1.0, 0.0], [3.0, 4.0]])
        x = np.array([[1.0, 1.0], [2.0, 0.0]])
        # (w - wp) x^T = [[2, 0], [0, 0]] -> frobenius 2
        assert reconstruction_error(w, wp, x) == pytest.approx(2.0, abs=1e-15)


class TestHessianError:
    """The X^T X form prune reports use against the direct ||dW X^T||_F oracle."""

    @pytest.mark.parametrize("tokens", [0, 1, 5, 40])
    def test_matches_oracle_zeroed_and_updated(self, tokens):
        rng = SeededRng(17 + tokens)
        for _ in range(10):
            w = rng.normal_matrix(6, 8)
            x = rng.normal_matrix(tokens, 8) if tokens else np.zeros((0, 8))
            rec = InputStats.empty(("w",), 8)
            rec.add(x, np.ones(tokens))
            h_inv = damped_inverse(rec.hessian.h + np.eye(8))
            s = score_sparsegpt(w, h_inv)
            mask = select_mask(s, SparsityTarget.unstructured(0.5))
            for w_pruned in (w * mask, _obs(w, mask, h_inv)):
                want = reconstruction_error(w, w_pruned, x)
                got = _hessian_error(w - w_pruned, rec)
                assert got == pytest.approx(want, rel=1e-9, abs=0.0)
                if tokens == 0:
                    assert got == want == 0.0

    def test_no_tokens_reads_no_hessian(self):
        # a dead expert's input: 0.0 without touching H
        rec = InputStats.empty(("w",), 8)
        rec.hessian.h.fill(np.nan)
        assert _hessian_error(SeededRng(18).normal_matrix(6, 8), rec) == 0.0

    def test_prune_report_matches_stacked_inputs(self):
        cfg = ModelConfig(d_model=8, n_heads=2, n_layers=2, n_experts=4, top_k=2,
                          d_ff=8, seq_len=16, vocab_size=256, seed=31)
        model = MoEModel.init(cfg)
        cal = build_calibration_set(synth_corpus(seed=7, size=1 << 14), 4, 16, seed=2)
        pruned, _, report = prune_model(model, collect(model, cal), "sparsegpt",
                                        SparsityTarget.unstructured(0.5))
        traces = [full_layers(model, seq) for seq in cal.sequences]
        for t in report.targets:
            _, i, _, e, part = t["name"].split(".")
            i, e = int(i), int(e)
            x = np.vstack([(lt[i].expert_hidden[e] if part == "w_down"
                            else lt[i].moe_input[lt[i].expert_tokens[e]]) for lt in traces])
            w = model.params[t["name"]].T
            want = reconstruction_error(w, pruned.params[t["name"]].T, x)
            assert t["recon_error_after_update"] == pytest.approx(want, rel=1e-9, abs=1e-12)


@pytest.fixture(scope="module")
def model_and_stats():
    model = MoEModel.init(TINY)
    corpus = synth_corpus(seed=4, size=1 << 16)
    cal = build_calibration_set(corpus, 8, TINY.seq_len, seed=21)
    return model, collect(model, cal), corpus


@pytest.fixture(scope="module")
def top1_model_and_stats(model_and_stats):
    """A top-1 model (gates of exactly 1.0) and its calibration statistics."""
    model = MoEModel.init(TOP1)
    cal = build_calibration_set(model_and_stats[2], 8, TOP1.seq_len, seed=21)
    return model, collect(model, cal)


class TestPruneModel:
    def test_zero_sparsity_is_bit_identical(self, model_and_stats):
        model, stats, corpus = model_and_stats
        pruned, masks, report = prune_model(model, stats, "moe-pruner",
                                            SparsityTarget.unstructured(0.0))
        for name in model.params:
            assert np.array_equal(pruned.params[name], model.params[name])
        assert report.totals["sparsity_achieved"] == 0.0
        eval_slice = corpus[: 1 << 13]
        p0, _ = evaluate_perplexity(model, eval_slice)
        p1, _ = evaluate_perplexity(pruned, eval_slice)
        assert abs(p0 - p1) < 1e-10

    def test_uniform_gates_match_wanda(self, top1_model_and_stats):
        model, stats = top1_model_and_stats
        t = SparsityTarget.unstructured(0.5)
        _, masks_moe, _ = prune_model(model, stats, "moe-pruner", t)
        _, masks_wanda, _ = prune_model(model, stats, "wanda", t)
        for name in masks_moe:
            assert np.array_equal(masks_moe[name], masks_wanda[name])

    def test_uniform_gates_match_wanda_under_recompute(self, top1_model_and_stats):
        # later layers are re-collected from the partly pruned top-1 model,
        # whose gates are 1.0 too, so the degeneracy holds at every layer
        model, stats = top1_model_and_stats
        t = SparsityTarget.unstructured(0.5)
        _, masks_moe, _ = prune_model(model, stats, "moe-pruner", t, propagate="recompute")
        _, masks_wanda, _ = prune_model(model, stats, "wanda", t, propagate="recompute")
        for name in masks_moe:
            assert np.array_equal(masks_moe[name], masks_wanda[name])

    @pytest.mark.parametrize("method", ["magnitude", "wanda", "moe-pruner", "sparsegpt"])
    def test_mask_exactness_all_targets(self, model_and_stats, method):
        model, stats, _ = model_and_stats
        pruned, masks, _ = prune_model(model, stats, method, SparsityTarget.unstructured(0.5))
        for name, mask in masks.items():
            per_neuron_zeros = (mask.T == 0).sum(axis=1)  # pruning orientation rows
            assert (per_neuron_zeros == mask.shape[0] // 2).all()
            assert (pruned.params[name][mask == 0] == 0.0).all()

    def test_nm_pattern_exactness(self, model_and_stats):
        model, stats, _ = model_and_stats
        _, masks, _ = prune_model(model, stats, "moe-pruner", SparsityTarget.semi_structured(2, 4))
        for mask in masks.values():
            m = mask.T  # (out, in)
            groups = m.reshape(m.shape[0], m.shape[1] // 4, 4)
            assert ((groups == 0).sum(axis=2) == 2).all()

    def test_masks_match_per_row_oracle(self):
        cfg = ModelConfig(d_model=8, n_heads=2, n_layers=1, n_experts=2, top_k=2,
                          d_ff=8, seq_len=16, vocab_size=256, seed=30)
        model = MoEModel.init(cfg)
        corpus = synth_corpus(seed=6, size=1 << 14)
        cal = build_calibration_set(corpus, 4, 16, seed=1)
        stats = collect(model, cal)
        _, masks, _ = prune_model(model, stats, "moe-pruner", SparsityTarget.unstructured(0.5))
        for e in range(2):
            name = f"layers.0.experts.{e}.w_gate"
            scores = score_moe_pruner(model.params[name].T,
                                      input_records(stats)[name].scaled.norms())
            for r in range(scores.shape[0]):
                kept = tuple(np.nonzero(masks[name].T[r])[0])
                assert kept == oracle_keep_set(scores[r], scores.shape[1] // 2)

    @pytest.mark.parametrize("method", METHODS)
    def test_dense_prune_runs_no_forward(self, model_and_stats, monkeypatch, method):
        model, stats, _ = model_and_stats

        def forbidden(*_args, **_kwargs):
            raise AssertionError("a dense prune must not run the model")

        monkeypatch.setattr(moeprune.pruning, "model_forward", forbidden)
        prune_model(model, stats, method, SparsityTarget.unstructured(0.5))

    def test_recompute_runs_one_forward_per_layer_and_sequence(self, model_and_stats,
                                                               monkeypatch):
        # forwards run on batches of windows; count the windows forwarded
        model, stats, _ = model_and_stats
        # (layer 0 comes from the dense stats, and each forward stops at the
        # layer it feeds)
        windows, stops = [], set()

        def counting(model, batch, stop=None):
            windows.append(len(batch))
            stops.add(stop)
            return model_forward(model, batch, stop=stop)

        monkeypatch.setattr(moeprune.pruning, "model_forward", counting)
        prune_model(model, stats, "wanda", SparsityTarget.unstructured(0.5),
                    propagate="recompute")
        assert sum(windows) == (TINY.n_layers - 1) * len(stats.sequences)
        assert stops == {(i, "hidden") for i in range(1, TINY.n_layers)}

    @pytest.mark.parametrize("target", [SparsityTarget.unstructured(0.5),
                                        SparsityTarget.semi_structured(2, 4)],
                             ids=["0.5", "2:4"])
    @pytest.mark.parametrize("method", METHODS)
    def test_recompute_equals_full_forward_oracle(self, model_and_stats, method, target):
        model, stats, _ = model_and_stats
        pruned, masks, report = prune_model(model, stats, method, target, propagate="recompute")
        want, want_masks, want_report = prune_recompute(model, stats, method, target)
        assert masks.keys() == want_masks.keys()
        for name in masks:
            assert np.array_equal(masks[name], want_masks[name])
        for name in model.params:
            assert pruned.params[name].tobytes() == want.params[name].tobytes()
        assert asdict(report) == asdict(want_report)

    @pytest.mark.parametrize("propagate", ["dense", "recompute"])
    @pytest.mark.parametrize("target", [SparsityTarget.unstructured(0.5),
                                        SparsityTarget.semi_structured(2, 4)],
                             ids=["0.5", "2:4"])
    @pytest.mark.parametrize("method", METHODS)
    def test_equals_per_target_loop(self, model_and_stats, method, target, propagate):
        model, stats, _ = model_and_stats
        pruned, masks, report = prune_model(model, stats, method, target, propagate=propagate)
        want, want_masks, want_report = prune_per_target(model, stats, method, target, propagate)
        assert list(masks) == list(want_masks)
        for name in masks:
            assert masks[name].dtype == np.uint8
            assert masks[name].tobytes() == want_masks[name].tobytes()
        for name in model.params:
            got, ref = pruned.params[name], want.params[name]
            if method == "sparsegpt":
                assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
            else:
                assert got.tobytes() == ref.tobytes()
        for name, mask in masks.items():
            assert (pruned.params[name][mask == 0] == 0.0).all()
        for row, ref in zip(report.targets, want_report.targets):
            for key in ("recon_error_before_update", "recon_error_after_update"):
                if method == "sparsegpt":
                    assert row.pop(key) == pytest.approx(ref.pop(key), rel=1e-9)
            assert row == ref

    def test_expert_groups_do_not_change_the_result(self, model_and_stats, monkeypatch):
        # one expert per stacked OBS update, against all of a layer's at once
        model, stats, _ = model_and_stats
        t = SparsityTarget.unstructured(0.5)
        pruned, masks, report = prune_model(model, stats, "sparsegpt", t)
        monkeypatch.setattr(moeprune.pruning, "STACK_BYTES", 1)
        alone, alone_masks, alone_report = prune_model(model, stats, "sparsegpt", t)
        for name in model.params:
            assert pruned.params[name].tobytes() == alone.params[name].tobytes()
        for name in masks:
            assert masks[name].tobytes() == alone_masks[name].tobytes()
        assert asdict(report) == asdict(alone_report)

    @pytest.mark.parametrize("propagate", ["dense", "recompute"])
    def test_input_model_untouched_and_unshared(self, model_and_stats, propagate):
        model, stats, _ = model_and_stats
        before = {n: p.tobytes() for n, p in model.params.items()}
        pruned, _, _ = prune_model(model, stats, "sparsegpt",
                                   SparsityTarget.unstructured(0.5), propagate=propagate)
        assert {n: p.tobytes() for n, p in model.params.items()} == before
        for name, p in pruned.params.items():
            assert not np.shares_memory(p, model.params[name]), name

    @pytest.mark.parametrize("method", METHODS)
    def test_one_layer_recompute_equals_dense(self, method):
        # with nothing pruned upstream, recompute's fresh accumulators must
        # repeat collect's additions exactly
        cfg = ModelConfig(d_model=16, n_heads=2, n_layers=1, n_experts=4, top_k=2,
                          d_ff=16, seq_len=32, vocab_size=256, seed=32)
        model = MoEModel.init(cfg)
        cal = build_calibration_set(synth_corpus(seed=8, size=1 << 14), 6, 32, seed=3)
        stats = collect(model, cal)
        t = SparsityTarget.semi_structured(2, 4)
        pd, md, rd = prune_model(model, stats, method, t, propagate="dense")
        pr, mr, rr = prune_model(model, stats, method, t, propagate="recompute")
        assert md.keys() == mr.keys()
        for name in md:
            assert np.array_equal(md[name], mr[name])
        for name in model.params:
            assert pd.params[name].tobytes() == pr.params[name].tobytes()
        assert rd.targets == rr.targets
        assert rd.totals == rr.totals

    def test_recompute_propagation_runs(self, model_and_stats):
        model, stats, _ = model_and_stats
        pruned, masks, report = prune_model(model, stats, "wanda",
                                            SparsityTarget.unstructured(0.5),
                                            propagate="recompute")
        assert report.propagate == "recompute"
        for name, mask in masks.items():
            assert (pruned.params[name][mask == 0] == 0.0).all()

    def test_sparsegpt_updates_survivors(self, model_and_stats):
        model, stats, _ = model_and_stats
        pruned, masks, report = prune_model(model, stats, "sparsegpt",
                                            SparsityTarget.unstructured(0.5))
        name = "layers.0.experts.0.w_gate"
        survivors = masks[name] == 1
        assert not np.array_equal(pruned.params[name][survivors],
                                  model.params[name][survivors])
        # per-target regressions are possible with a fixed pre-chosen mask;
        # the update must help in aggregate
        before = sum(t["recon_error_before_update"] for t in report.targets)
        after = sum(t["recon_error_after_update"] for t in report.targets)
        assert after < before

    def test_sparsegpt_inverts_each_expert_input_once(self, model_and_stats, monkeypatch):
        # w_gate and w_up read one input: one H^-1 for both, one for w_down
        model, stats, _ = model_and_stats
        calls = []

        def counting(h):
            calls.append(h.shape)
            return spd_inverse(h)

        monkeypatch.setattr(moeprune.pruning, "spd_inverse", counting)
        _, _, report = prune_model(model, stats, "sparsegpt", SparsityTarget.unstructured(0.5))
        live = {t["name"].rsplit(".", 1)[0] for t in report.targets if t["method"] == "sparsegpt"}
        assert live and len(calls) == 2 * len(live)
        assert calls.count((TINY.d_model, TINY.d_model)) == len(live)

    def test_idle_input_takes_labelled_magnitude_fallback(self, model_and_stats):
        # no calibration token reached expert 1 of layer 0: sparsegpt cannot
        # invert its all-zero Hessian, so it prunes it by magnitude, labelled
        model, stats, _ = model_and_stats
        idle = replace(stats, layers=[list(layer) for layer in stats.layers])
        idle.layers[0][1] = empty_layer(TINY, 0)[1]
        t = SparsityTarget.unstructured(0.5)
        pruned, masks, report = prune_model(model, idle, "sparsegpt", t)
        _, magnitude_masks, _ = prune_model(model, idle, "magnitude", t)
        rows = {r["name"]: r for r in report.targets}
        for name in rows:
            fallback = name.startswith("layers.0.experts.1.")
            assert rows[name]["method"] == ("sparsegpt(magnitude-fallback:no-tokens)"
                                            if fallback else "sparsegpt")
            if fallback:
                assert rows[name]["tokens_seen"] == 0
                assert rows[name]["recon_error_after_update"] == 0.0
                assert masks[name].tobytes() == magnitude_masks[name].tobytes()
                assert (pruned.params[name].tobytes()
                        == (model.params[name] * masks[name]).tobytes())

    def test_shared_statistics_report_every_target(self, model_and_stats):
        model, stats, _ = model_and_stats
        _, _, report = prune_model(model, stats, "moe-pruner", SparsityTarget.unstructured(0.5))
        names = [t["name"] for t in report.targets]
        assert names == expert_names(model)
        by_name = {t["name"]: t for t in report.targets}
        for i in range(TINY.n_layers):
            for e in range(TINY.n_experts):
                base = f"layers.{i}.experts.{e}"
                gate, down = stats.layers[i][e]
                assert gate.weights == (f"{base}.w_gate", f"{base}.w_up")
                assert down.weights == (f"{base}.w_down",)
                assert by_name[f"{base}.w_gate"]["tokens_seen"] == gate.tokens_seen
                assert (by_name[f"{base}.w_gate"]["tokens_seen"]
                        == by_name[f"{base}.w_up"]["tokens_seen"]
                        == by_name[f"{base}.w_down"]["tokens_seen"])

    @pytest.mark.parametrize("method", ["magnitude", "wanda", "moe-pruner"])
    def test_no_update_reports_equal_errors(self, model_and_stats, method):
        model, stats, _ = model_and_stats
        _, _, report = prune_model(model, stats, method, SparsityTarget.unstructured(0.5))
        for t in report.targets:
            assert t["recon_error_after_update"] == t["recon_error_before_update"]
        assert report.totals["recon_error_before_update"] > 0.0

    def test_attention_and_router_untouched(self, model_and_stats):
        model, stats, _ = model_and_stats
        pruned, masks, _ = prune_model(model, stats, "magnitude", SparsityTarget.unstructured(0.7))
        for name in model.params:
            if ".experts." not in name:
                assert np.array_equal(pruned.params[name], model.params[name])
                assert name not in masks

    def test_stats_architecture_mismatch(self, model_and_stats):
        _, stats, _ = model_and_stats
        other = MoEModel.init(ModelConfig(d_model=16, n_heads=2, n_layers=2,
                                          n_experts=2, top_k=1, d_ff=32,
                                          seq_len=32, vocab_size=256, seed=1))
        with pytest.raises(ShapeError):
            prune_model(other, stats, "magnitude", SparsityTarget.unstructured(0.5))

    def test_unknown_method(self, model_and_stats):
        model, stats, _ = model_and_stats
        with pytest.raises(ConfigError):
            prune_model(model, stats, "l0-regression", SparsityTarget.unstructured(0.5))


class TestDegenerationChain:
    def test_unit_norms_wanda_equals_magnitude(self):
        rng = SeededRng(15)
        t = SparsityTarget.unstructured(0.5)
        for _ in range(20):
            w = rng.normal_matrix(5, 8)
            assert np.array_equal(select_mask(score_wanda(w, np.ones(8)), t),
                                  select_mask(score_magnitude(w), t))

    def test_identity_hessian_sparsegpt_equals_magnitude(self):
        rng = SeededRng(16)
        t = SparsityTarget.unstructured(0.5)
        for _ in range(20):
            w = rng.normal_matrix(5, 8)
            s = score_sparsegpt(w, spd_inverse(np.eye(8)))
            assert np.array_equal(select_mask(s, t), select_mask(score_magnitude(w), t))
