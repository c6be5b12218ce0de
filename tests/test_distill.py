import importlib

import numpy as np
import pytest

from moeprune.distill import KDConfig, distill, init_lambda, kd_loss
from moeprune.errors import ContractError, NumericalError
from moeprune.model import (
    ExpertWeights,
    ModelConfig,
    MoEModel,
    ce_loss,
    expert_forward,
    model_forward,
)
from moeprune.numerics import SeededRng
from moeprune.optim import cosine_lr
from moeprune.pruning import SparsityTarget, prune_model
from moeprune.calibration import build_calibration_set, collect

from conftest import synth_corpus

CFG = ModelConfig(d_model=8, n_heads=2, n_layers=1, n_experts=2, top_k=1,
                  d_ff=16, seq_len=16, vocab_size=256, seed=17)


def small_batch(seed=0, n=3, length=12):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, CFG.vocab_size, length) for _ in range(n)]


def perturbed_student(teacher: MoEModel, scale=0.3, seed=1) -> MoEModel:
    student = teacher.copy()
    rng = np.random.default_rng(seed)
    for name in student.expert_param_names():
        student.params[name] += scale * rng.normal(size=student.params[name].shape)
    return student


class TestKdLoss:
    def test_identical_models_zero_expert_loss(self):
        teacher = MoEModel.init(CFG)
        b = kd_loss(teacher, teacher.copy(), small_batch(), lam=1.0)
        assert b.l_expert == 0.0
        assert b.total == b.l_ce

    def test_lambda_zero_total_is_ce(self):
        teacher = MoEModel.init(CFG)
        b = kd_loss(teacher, perturbed_student(teacher), small_batch(), lam=0.0)
        assert b.total == b.l_ce

    def test_breakdown_identity(self):
        teacher = MoEModel.init(CFG)
        b = kd_loss(teacher, perturbed_student(teacher), small_batch(), lam=2.5)
        assert abs(b.total - (b.l_ce + 2.5 * b.l_expert)) < 1e-12

    def test_architecture_mismatch(self):
        teacher = MoEModel.init(CFG)
        other = MoEModel.init(ModelConfig(d_model=8, n_heads=2, n_layers=1,
                                          n_experts=4, top_k=1, d_ff=16,
                                          seq_len=16, vocab_size=256, seed=17))
        with pytest.raises(ContractError, match="architecture"):
            kd_loss(teacher, other, small_batch(), lam=1.0)

    def test_matches_double_forward_oracle(self):
        teacher = MoEModel.init(CFG)
        student = perturbed_student(teacher)
        batch = small_batch(seed=5)
        b = kd_loss(teacher, student, batch, lam=1.0)

        # independent recomputation: two plain forwards per sequence, expert
        # MSE over the teacher's dispatch sets, CE from student logits
        ce_terms = []
        diffs = {}  # (layer, expert) -> list of squared-diff blocks
        for seq in batch:
            ttr = model_forward(teacher, seq)
            strc = model_forward(student, seq)
            ce_terms.append(ce_loss(strc.logits[:-1], seq[1:]))
            for i in range(CFG.n_layers):
                for e, idx in ttr.layers[i].expert_tokens.items():
                    if idx.size == 0:
                        continue
                    sw = ExpertWeights(
                        w_gate=student.params[f"layers.{i}.experts.{e}.w_gate"],
                        w_up=student.params[f"layers.{i}.experts.{e}.w_up"],
                        w_down=student.params[f"layers.{i}.experts.{e}.w_down"],
                    )
                    s_out = expert_forward(strc.layers[i].moe_input[idx], sw)
                    diffs.setdefault((i, e), []).append(ttr.layers[i].expert_outputs[e] - s_out)
        l_expert = sum(float((np.vstack(v) ** 2).mean()) for v in diffs.values())
        assert b.l_ce == pytest.approx(float(np.mean(ce_terms)), abs=1e-12)
        assert b.l_expert == pytest.approx(l_expert, rel=1e-12)


class TestInitLambda:
    def test_equals_ratio_of_recomputed_losses(self):
        teacher = MoEModel.init(CFG)
        student = perturbed_student(teacher)
        batch = small_batch(seed=3)
        lam = init_lambda(teacher, student, batch)
        b = kd_loss(teacher, student, batch, lam=1.0)
        assert lam == pytest.approx(b.l_ce / b.l_expert, abs=1e-12)

    def test_identical_model_falls_back_with_warning(self):
        teacher = MoEModel.init(CFG)
        with pytest.warns(RuntimeWarning, match="lambda = 1"):
            lam = init_lambda(teacher, teacher.copy(), small_batch())
        assert lam == 1.0


def pruned_pair(corpus):
    teacher = MoEModel.init(CFG)
    cal = build_calibration_set(corpus, 8, CFG.seq_len, seed=2)
    stats = collect(teacher, cal)
    student, masks, _ = prune_model(teacher, stats, "moe-pruner",
                                    SparsityTarget.unstructured(0.5))
    return teacher, student, masks


@pytest.fixture(scope="module")
def kd_corpus():
    return synth_corpus(seed=9, size=1 << 15)


class TestDistill:
    def test_zero_epochs_returns_student_unchanged(self, kd_corpus):
        teacher, student, masks = pruned_pair(kd_corpus)
        res = distill(teacher, student, masks, kd_corpus,
                      KDConfig(epochs=0, samples=8, batch_size=4))
        for name in student.param_names():
            assert np.array_equal(res.student.params[name], student.params[name])
        assert res.log == []

    def test_masks_preserved_bit_exactly(self, kd_corpus):
        teacher, student, masks = pruned_pair(kd_corpus)
        cfg = KDConfig(epochs=2, samples=16, batch_size=4, learning_rate=1e-3, seed=4)
        res = distill(teacher, student, masks, kd_corpus, cfg)
        assert len(res.log) == 8
        for name, m in masks.items():
            vals = res.student.params[name][m == 0]
            assert (vals == 0.0).all()

    def test_teacher_is_read_only(self, kd_corpus):
        teacher, student, masks = pruned_pair(kd_corpus)
        snapshot = {n: p.copy() for n, p in teacher.params.items()}
        distill(teacher, student, masks, kd_corpus,
                KDConfig(epochs=1, samples=8, batch_size=4, learning_rate=1e-3))
        for name, p in teacher.params.items():
            assert np.array_equal(p, snapshot[name])

    def test_router_frozen_by_default(self, kd_corpus):
        teacher, student, masks = pruned_pair(kd_corpus)
        res = distill(teacher, student, masks, kd_corpus,
                      KDConfig(epochs=1, samples=8, batch_size=4, learning_rate=1e-2))
        for i in range(CFG.n_layers):
            name = f"layers.{i}.router"
            assert np.array_equal(res.student.params[name], student.params[name])
        # attention still moves in frozen-router mode
        assert not np.array_equal(res.student.params["layers.0.attn.wq"],
                                  student.params["layers.0.attn.wq"])

    def test_full_parameter_updates_router(self, kd_corpus):
        # top_k=1 renormalizes the single gate to exactly 1, which correctly
        # leaves the router with zero gradient; use top-2 so gradient flows
        cfg2 = ModelConfig(d_model=8, n_heads=2, n_layers=1, n_experts=2, top_k=2,
                           d_ff=16, seq_len=16, vocab_size=256, seed=17)
        teacher = MoEModel.init(cfg2)
        cal = build_calibration_set(kd_corpus, 8, cfg2.seq_len, seed=2)
        student, masks, _ = prune_model(teacher, collect(teacher, cal), "moe-pruner",
                                        SparsityTarget.unstructured(0.5))
        res = distill(teacher, student, masks, kd_corpus,
                      KDConfig(epochs=1, samples=8, batch_size=4,
                               learning_rate=1e-2, router_frozen=False))
        assert not np.array_equal(res.student.params["layers.0.router"],
                                  student.params["layers.0.router"])

    def test_log_records_loss_breakdown(self, kd_corpus):
        teacher, student, masks = pruned_pair(kd_corpus)
        res = distill(teacher, student, masks, kd_corpus,
                      KDConfig(epochs=1, samples=8, batch_size=4))
        for rec in res.log:
            assert set(rec) == {"step", "lr", "l_ce", "l_expert", "lambda", "total"}
            assert rec["total"] == pytest.approx(
                rec["l_ce"] + rec["lambda"] * rec["l_expert"], abs=1e-12)

    def test_first_batch_graph_also_sets_auto_lambda(self, kd_corpus, monkeypatch):
        kd = importlib.import_module("moeprune.distill")
        teacher, student, masks = pruned_pair(kd_corpus)
        cfg = KDConfig(epochs=1, samples=8, batch_size=4, learning_rate=1e-3, seed=4)
        cal = build_calibration_set(kd_corpus, cfg.samples, CFG.seq_len, cfg.seed)
        first = [cal.sequences[j] for j in SeededRng(cfg.seed).child(1).permutation(8)[:4]]
        probe_lam = init_lambda(teacher, student, first)
        teacher_forwards = []

        def counting_forward(model, batch):
            teacher_forwards.append(len(batch))
            return model_forward(model, batch)

        monkeypatch.setattr(kd, "model_forward", counting_forward)
        res = distill(teacher, student, masks, kd_corpus, cfg)
        assert teacher_forwards == [4, 4]  # one per step, no separate probe
        assert res.lam == probe_lam
        assert [rec["lambda"] for rec in res.log] == [probe_lam, probe_lam]

    def test_identical_student_auto_lambda_falls_back_with_warning(self, kd_corpus):
        teacher = MoEModel.init(CFG)
        with pytest.warns(RuntimeWarning, match="lambda = 1"):
            res = distill(teacher, teacher.copy(), {}, kd_corpus,
                          KDConfig(epochs=1, samples=4, batch_size=4))
        assert res.lam == 1.0 and res.log[0]["lambda"] == 1.0

    def test_nan_loss_aborts_naming_step(self, kd_corpus):
        teacher, student, masks = pruned_pair(kd_corpus)
        student.params["lm_head"][0, 0] = np.nan
        with pytest.raises(NumericalError, match="step 0"):
            distill(teacher, student, masks, kd_corpus,
                    KDConfig(epochs=1, samples=4, batch_size=4))

    def test_unmasked_student_weight_rejected(self, kd_corpus):
        teacher, student, masks = pruned_pair(kd_corpus)
        name = next(iter(masks))
        student.params[name][masks[name] == 0] = 0.5
        with pytest.raises(ContractError, match="nonzero under the mask"):
            distill(teacher, student, masks, kd_corpus, KDConfig(epochs=1, samples=4))


class TestSchedule:
    def test_cosine_endpoints(self):
        lr0 = 2e-5
        total = 40
        assert cosine_lr(0, total, lr0) == lr0
        assert cosine_lr(total - 1, total, lr0) <= 1e-3 * lr0
        mid = cosine_lr(total // 2, total, lr0)
        assert 0 < mid < lr0

    def test_short_runs_still_decay(self):
        for total in (2, 3, 5, 10):
            assert cosine_lr(total - 1, total, 1.0) <= 1e-3
