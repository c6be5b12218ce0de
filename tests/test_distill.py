import types

import numpy as np
import pytest

import moeprune.distill as kd
import moeprune.model as model_module
from moeprune import autograd as ag
from moeprune.distill import (
    KDConfig,
    _batch_targets,
    _kd_graph,
    _teacher_windows,
    distill,
)
from moeprune.errors import ContractError, NumericalError
from moeprune.model import (
    ModelConfig,
    MoEModel,
    _topk_mask,
    make_param_vars,
    model_forward,
    next_token_targets,
)
from moeprune.numerics import SeededRng
from moeprune.optim import cosine_lr
from moeprune.pruning import SparsityTarget, prune_model
from moeprune.calibration import build_calibration_set, collect

import oracles
from conftest import expert_names, synth_corpus
from oracles import ExpertWeights, ce_loss, expert_forward, init_lambda, kd_loss, teacher_targets
from test_autograd import grads_both_ways

CFG = ModelConfig(d_model=8, n_heads=2, n_layers=1, n_experts=2, top_k=1,
                  d_ff=16, seq_len=16, vocab_size=256, seed=17)


def test_submodule_import_yields_the_module():
    # the package re-exports no name, so no function shadows its submodule
    assert isinstance(kd, types.ModuleType)
    assert kd.distill is distill


def small_batch(seed=0, n=3, length=12):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, CFG.vocab_size, length) for _ in range(n)]


def perturbed_student(teacher: MoEModel, scale=0.3, seed=1) -> MoEModel:
    student = teacher.copy()
    rng = np.random.default_rng(seed)
    for name in expert_names(student):
        student.params[name] += scale * rng.normal(size=student.params[name].shape)
    return student


class TestKdLoss:
    def test_identical_models_zero_expert_loss(self):
        teacher = MoEModel.init(CFG)
        b = kd_loss(teacher, teacher.copy(), small_batch(), lam=1.0)
        assert b["l_expert"] == 0.0
        assert b["total"] == b["l_ce"]

    def test_lambda_zero_total_is_ce(self):
        teacher = MoEModel.init(CFG)
        b = kd_loss(teacher, perturbed_student(teacher), small_batch(), lam=0.0)
        assert b["total"] == b["l_ce"]

    def test_breakdown_identity(self):
        teacher = MoEModel.init(CFG)
        b = kd_loss(teacher, perturbed_student(teacher), small_batch(), lam=2.5)
        assert abs(b["total"] - (b["l_ce"] + 2.5 * b["l_expert"])) < 1e-12
        assert b["lambda"] == 2.5

    def test_architecture_mismatch(self):
        teacher = MoEModel.init(CFG)
        other = MoEModel.init(ModelConfig(d_model=8, n_heads=2, n_layers=1,
                                          n_experts=4, top_k=1, d_ff=16,
                                          seq_len=16, vocab_size=256, seed=17))
        with pytest.raises(ContractError,
                           match="teacher/student architecture mismatch on n_experts: 2 vs 4"):
            distill(teacher, other, {}, synth_corpus(seed=9, size=1 << 12),
                    KDConfig(epochs=1, samples=4, batch_size=4))

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
            ce_terms.append(ce_loss(strc.logits.value[:-1], seq[1:]))
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
        assert b["l_ce"] == pytest.approx(float(np.mean(ce_terms)), abs=1e-12)
        assert b["l_expert"] == pytest.approx(l_expert, rel=1e-12)


def two_path_kd_graph(teacher, student, batch, lam, masks=None):
    """Oracle: the KD graph as it was built before each student expert ran
    once per step. The student forwards on its own routing, then each
    teacher-routed row set goes through a second call of that expert. The
    student's forward is built here from tape ops, with the combine of
    oracles.combine, so it reads none of forward_pass's forced rows.
    Returns (total, leaf gradients)."""

    def expert(i, e, x):
        base = f"layers.{i}.experts.{e}"
        return ag.matmul(ag.swiglu(x, pv[f"{base}.w_gate"], pv[f"{base}.w_up"]),
                         pv[f"{base}.w_down"])

    cfg = student.config
    teacher_trace = model_forward(teacher, batch)
    tape = ag.Tape()
    leaves = make_param_vars(student, tape)
    # the oracle masks each weight before the forward (masked_assign)
    pv = {n: ag.masked_assign(v, masks[n]) if n in (masks or {}) else v
          for n, v in leaves.items()}
    toks = np.atleast_2d(np.asarray(batch, dtype=np.intp))
    h = ag.gather_rows(pv["token_embedding"], toks.ravel())
    moe_inputs = []
    for i in range(cfg.n_layers):
        a = ag.rmsnorm(h)
        qkv = [ag.matmul(a, pv[f"layers.{i}.attn.{w}"]) for w in ("wq", "wk", "wv")]
        attn = ag.causal_attention(*qkv, toks.shape[0], cfg.n_heads)
        h = ag.add(h, ag.matmul(attn, pv[f"layers.{i}.attn.wo"]))
        moe_inputs.append(m := ag.rmsnorm(h))
        logits = ag.matmul(m, pv[f"layers.{i}.router"])
        gates = ag.row_softmax(logits, _topk_mask(logits.value, cfg.top_k))
        own = {e: np.nonzero(gates.value[:, e])[0] for e in range(cfg.n_experts)}
        outs = {e: expert(i, e, ag.gather_rows(m, r)) for e, r in own.items() if r.size}
        h = ag.add(h, oracles.combine(tape, gates, outs, own))
    rows, targets = next_token_targets(toks)
    l_ce = ag.cross_entropy(ag.gather_rows(ag.matmul(ag.rmsnorm(h), pv["lm_head"]), rows),
                            targets)
    terms = [ag.mse(expert(i, e, ag.gather_rows(moe_inputs[i], idx)),
                    tape.const(lt.expert_outputs[e]))
             for i, lt in enumerate(teacher_trace.layers)
             for e, idx in lt.expert_tokens.items() if idx.size]
    l_expert = terms[0]
    for term in terms[1:]:
        l_expert = ag.add(l_expert, term)
    total = ag.add(l_ce, ag.scale(l_expert, lam))
    tape.backward(total)
    return total.value[0, 0], {n: v.grad for n, v in leaves.items()}


# 5 experts, top-1, per layer: the teacher's router repeats column 1 in
# column 2 and column 0 in column 4, so ties (lowest index wins) keep it off
# experts 2 and 4; the student's repeats column 0 in columns 3 and 4, so it
# never picks 3 or 4. Expert 2 then has own rows only, expert 3 forced rows
# only, and expert 4 no rows at all.
ROUTED = ModelConfig(d_model=8, n_heads=2, n_layers=2, n_experts=5, top_k=1,
                     d_ff=8, seq_len=12, vocab_size=32, seed=23)


def routed_pair():
    teacher = MoEModel.init(ROUTED)
    student = perturbed_student(teacher, scale=0.2, seed=4)
    for i in range(ROUTED.n_layers):
        rt, rs = teacher.params[f"layers.{i}.router"], student.params[f"layers.{i}.router"]
        rt[:, 2], rt[:, 4] = rt[:, 1], rt[:, 0]
        rs[:, 2] = np.random.default_rng(i).normal(size=ROUTED.d_model)
        rs[:, 3], rs[:, 4] = rs[:, 0], rs[:, 0]
    return teacher, student


def routed_batch(seed, n=3):
    rng = np.random.default_rng(seed)
    return np.stack([rng.integers(0, ROUTED.vocab_size, ROUTED.seq_len) for _ in range(n)])


def dispatch_sets(teacher, student, batch):
    """Per layer, expert -> (teacher rows, student rows)."""
    t, s = model_forward(teacher, batch), model_forward(student, batch)
    return [{e: (lt.expert_tokens[e], ls.expert_tokens[e]) for e in lt.expert_tokens}
            for lt, ls in zip(t.layers, s.layers)]


class TestOneExpertCall:
    """The merged path (one expert call per layer and expert) against the
    two-path oracle: loss and every gradient to 1e-12 relative. A masked
    weight's gradient is compared as Adam takes it, times its mask."""

    def assert_matches_oracle(self, teacher, student, batch, masks=None, lam=1.7):
        total, _, leaves, tape = _kd_graph(student, batch, lam,
                                           teacher_targets(teacher, batch))
        tape.backward(total)
        want_total, want = two_path_kd_graph(teacher, student, batch, lam, masks)
        assert total.value[0, 0] == pytest.approx(want_total, rel=1e-12, abs=0)
        for name, g in want.items():
            got = leaves[name].grad * masks[name] if name in (masks or {}) else leaves[name].grad
            assert np.abs(got - g).max() <= 1e-12 * np.abs(g).max(), name

    def test_own_rows_equal_forced_rows(self):
        teacher = MoEModel.init(CFG)
        student = perturbed_student(teacher)  # experts only, one layer: same routing
        batch = small_batch(seed=6)
        sets = dispatch_sets(teacher, student, batch)
        assert all(np.array_equal(t, s) for layer in sets for t, s in layer.values())
        self.assert_matches_oracle(teacher, student, batch)

    @pytest.mark.parametrize("part", ["router", "attn.wq"])
    def test_perturbed_routing(self, part):
        cfg = ModelConfig(d_model=8, n_heads=2, n_layers=2, n_experts=4, top_k=2,
                          d_ff=16, seq_len=16, vocab_size=256, seed=31)
        teacher = MoEModel.init(cfg)
        student = perturbed_student(teacher, scale=0.2)
        rng = np.random.default_rng(7)
        for i in range(cfg.n_layers):
            student.params[f"layers.{i}.{part}"] += 0.5 * rng.normal(size=(8, 4 if part == "router" else 8))
        batch = small_batch(seed=8, n=4)
        sets = dispatch_sets(teacher, student, batch)
        assert any(not np.array_equal(t, s) for layer in sets for t, s in layer.values())
        self.assert_matches_oracle(teacher, student, batch)

    def test_experts_routed_by_one_model_only_or_by_none(self):
        teacher, student = routed_pair()
        batch = routed_batch(seed=0)
        for layer in dispatch_sets(teacher, student, batch):
            assert layer[2][0].size == 0 and layer[2][1].size > 0  # student only
            assert layer[3][0].size > 0 and layer[3][1].size == 0  # teacher only
            assert layer[4][0].size == 0 and layer[4][1].size == 0  # nobody
        self.assert_matches_oracle(teacher, student, batch)

    def test_masked_student(self, kd_corpus):
        teacher, student, masks = pruned_pair(kd_corpus)
        student = perturbed_student(student, scale=0.1)
        for name, m in masks.items():
            student.params[name] *= m
        self.assert_matches_oracle(teacher, student, small_batch(seed=2, n=4, length=16), masks)

    def test_teacher_pass_assembles_each_batch(self):
        teacher, _ = routed_pair()
        windows = routed_batch(seed=5, n=9)
        cache = _teacher_windows(teacher, windows)
        picks = [7, 2, 5, 2]
        dispatch, outputs = _batch_targets(cache, picks, ROUTED.seq_len)
        direct = model_forward(teacher, [windows[j] for j in picks]).layers
        for i, lt in enumerate(direct):
            assert list(dispatch[i]) == list(outputs[i]) == list(range(ROUTED.n_experts))
            for e, rows in lt.expert_tokens.items():
                assert np.array_equal(dispatch[i][e], rows)
                assert np.allclose(outputs[i][e], lt.expert_outputs[e], rtol=1e-12, atol=1e-15)

    def test_teacher_pass_stops_after_the_last_experts(self, monkeypatch):
        # no combine and no head: the cache equals one from passes to the logits
        teacher, _ = routed_pair()
        windows = routed_batch(seed=6, n=9)
        passes = []

        def recording(model, batch, stop=None):
            passes.append(model_forward(model, batch, stop))
            return passes[-1]

        monkeypatch.setattr(kd, "model_forward", recording)
        stopped = _teacher_windows(teacher, windows)
        assert len(passes) == 1 and passes[0].logits is None
        assert len(passes[0].layers) == ROUTED.n_layers
        monkeypatch.setattr(kd, "model_forward", lambda model, batch, stop: model_forward(
            model, batch))
        full = _teacher_windows(teacher, windows)
        assert len(stopped) == len(full) == len(windows)
        for got_window, want_window in zip(stopped, full):
            for got, want in zip(got_window, want_window, strict=True):
                assert list(got) == list(want)
                for e, (rows, outs) in want.items():
                    assert np.array_equal(got[e][0], rows)
                    assert got[e][1].tobytes() == outs.tobytes()

    def test_each_expert_called_once_per_layer(self, monkeypatch):
        teacher, student = routed_pair()
        batch = routed_batch(seed=1)
        calls = []

        swiglu = ag.swiglu
        expert_of = {id(student.params[f"layers.{i}.experts.{e}.w_gate"]): (i, e)
                     for i in range(ROUTED.n_layers) for e in range(ROUTED.n_experts)}

        def counting_swiglu(x, w_gate, w_up, w_down=None):
            calls.append(expert_of[id(w_gate.value)])
            return swiglu(x, w_gate, w_up, w_down)

        routed = [(i, e) for i, layer in enumerate(dispatch_sets(teacher, student, batch))
                  for e, (t, s) in layer.items() if t.size or s.size]
        targets = _batch_targets(_teacher_windows(teacher, batch), range(len(batch)),
                                 ROUTED.seq_len)
        monkeypatch.setattr(ag, "swiglu", counting_swiglu)
        _kd_graph(student, batch, 1.0, targets)
        assert calls == routed

    def test_gradients_equal_zero_fill_oracle(self, monkeypatch):
        teacher, student = routed_pair()
        batch = routed_batch(seed=3)

        def build():
            total, _, leaves, _ = _kd_graph(student, batch, 0.8,
                                            teacher_targets(teacher, batch))
            return total, list(leaves.values())

        new, old = grads_both_ways(monkeypatch, build)
        for a, b in zip(new, old):
            assert np.array_equal(a, b)


class TestInitLambda:
    def test_equals_ratio_of_recomputed_losses(self):
        teacher = MoEModel.init(CFG)
        student = perturbed_student(teacher)
        batch = small_batch(seed=3)
        lam = init_lambda(teacher, student, batch)
        b = kd_loss(teacher, student, batch, lam=1.0)
        assert lam == pytest.approx(b["l_ce"] / b["l_expert"], abs=1e-12)

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
        for name in student.params:
            assert np.array_equal(res.student.params[name], student.params[name])
        assert res.log == []

    def test_masks_preserved_bit_exactly(self, kd_corpus):
        teacher, student, masks = pruned_pair(kd_corpus)
        cfg = KDConfig(epochs=2, samples=16, batch_size=4, learning_rate=1e-3, seed=4)
        res = distill(teacher, student, masks, kd_corpus, cfg)
        assert res.student is student  # trained in place
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
        res = distill(teacher, student.copy(), masks, kd_corpus,
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
        res = distill(teacher, student.copy(), masks, kd_corpus,
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
        teacher, student, masks = pruned_pair(kd_corpus)
        cfg = KDConfig(epochs=1, samples=8, batch_size=4, learning_rate=1e-3, seed=4)
        cal = build_calibration_set(kd_corpus, cfg.samples, CFG.seq_len, cfg.seed)
        first = [cal.sequences[j] for j in SeededRng(cfg.seed).child(1).permutation(8)[:4]]
        probe_lam = init_lambda(teacher, student, first)
        teacher_forwards = []

        def counting_forward(model, batch, stop=None):
            teacher_forwards.append(len(batch))
            return model_forward(model, batch, stop)

        monkeypatch.setattr(kd, "model_forward", counting_forward)
        res = distill(teacher, student, masks, kd_corpus, cfg)
        assert teacher_forwards == [8]  # one batched pass over all windows, none per step
        assert res.lam == probe_lam
        assert [rec["lambda"] for rec in res.log] == [probe_lam, probe_lam]

    def test_teacher_pass_independent_of_row_budget(self, kd_corpus, monkeypatch):
        teacher, student, masks = pruned_pair(kd_corpus)
        cfg = KDConfig(epochs=2, samples=8, batch_size=3, learning_rate=1e-3, seed=5)
        whole = distill(teacher, student.copy(), masks, kd_corpus, cfg)
        monkeypatch.setattr(model_module, "ROWS_PER_FORWARD", 3 * CFG.seq_len)
        chunked = distill(teacher, student.copy(), masks, kd_corpus, cfg)
        assert len(chunked.log) == len(whole.log) == 6
        for a, b in zip(chunked.log, whole.log):
            for key in ("l_ce", "l_expert", "lambda", "total"):
                assert a[key] == pytest.approx(b[key], rel=1e-12)

    def test_identical_student_auto_lambda_falls_back_with_warning(self, kd_corpus):
        teacher = MoEModel.init(CFG)
        with pytest.warns(RuntimeWarning, match="lambda = 1") as record:
            res = distill(teacher, teacher.copy(), {}, kd_corpus,
                          KDConfig(epochs=1, samples=4, batch_size=4))
        assert res.lam == 1.0 and res.log[0]["lambda"] == 1.0
        # the warning points at the line that called distill
        assert [w.filename for w in record] == [__file__]

    def test_nan_loss_aborts_naming_step(self, kd_corpus):
        teacher, student, masks = pruned_pair(kd_corpus)
        student.params["lm_head"][0, 0] = np.nan
        with pytest.raises(NumericalError, match="non-finite KD loss at step 0"):
            distill(teacher, student, masks, kd_corpus,
                    KDConfig(epochs=1, samples=4, batch_size=4))

    def test_unmasked_student_weight_rejected(self, kd_corpus):
        teacher, student, masks = pruned_pair(kd_corpus)
        name = next(iter(masks))
        student.params[name][masks[name] == 0] = 0.5
        with pytest.raises(ContractError, match="nonzero under the mask"):
            distill(teacher, student, masks, kd_corpus, KDConfig(epochs=1, samples=4))

    def test_mask_on_unknown_parameter_rejected(self, kd_corpus):
        teacher, student, masks = pruned_pair(kd_corpus)
        masks = {**masks, "no.such.weight": np.ones((2, 2), dtype=np.uint8)}
        with pytest.raises(ContractError, match="unknown parameter 'no.such.weight'"):
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
