"""Acceptance suite: one test per criterion, one PASS line each (visible with
pytest -s or -v). Criterion 10 trains a model end to end and dominates the
runtime; everything else finishes in seconds."""

import itertools
import math
import time
import warnings

import numpy as np
import pytest

from moeprune.calibration import (
    HessianAccumulator,
    ScaledNormAccumulator,
    build_calibration_set,
    collect,
)
from moeprune.cli import main as cli_main
from moeprune.distill import KDConfig, _kd_graph, distill
from moeprune.analysis import balance_score
from moeprune.model import ModelConfig, MoEModel, model_forward
from moeprune.numerics import SeededRng, spd_inverse
from moeprune.persistence import load_checkpoint, save_checkpoint
from moeprune.pruning import (
    SparsityTarget,
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
from moeprune.training import TrainConfig, evaluate_perplexity, train_model

from conftest import expert_names, synth_corpus
from oracles import init_lambda, kd_loss, teacher_targets


def report(n: int, detail: str) -> None:
    print(f"\nACCEPTANCE {n}: PASS - {detail}")


HALF = SparsityTarget.unstructured(0.5)


def test_criterion_1_degeneration_equivalences():
    t0 = time.time()
    rng = SeededRng(1001)
    for _ in range(100):
        w = rng.normal_matrix(6, 16)
        x = rng.normal_matrix(24, 16)
        ones = np.ones(24)

        scaled = ScaledNormAccumulator(np.zeros(16))
        scaled.add(x, ones)                       # unit gates
        hessian = HessianAccumulator(np.zeros((16, 16)))    # Wanda's norms: sqrt(diag(X^T X))
        hessian.add(x)
        m_moe = select_mask(score_moe_pruner(w, scaled.norms()), HALF)
        m_wanda = select_mask(score_wanda(w, np.sqrt(np.diagonal(hessian.h))), HALF)
        assert np.array_equal(m_moe, m_wanda)

        m_unit = select_mask(score_wanda(w, np.ones(16)), HALF)   # unit norms
        m_mag = select_mask(score_magnitude(w), HALF)
        assert np.array_equal(m_unit, m_mag)

        s_gpt = score_sparsegpt(w, spd_inverse(np.eye(16)))  # identity Hessian
        assert np.array_equal(select_mask(s_gpt, HALF), m_mag)
    assert time.time() - t0 < 10
    report(1, "unit gates==wanda, unit norms==magnitude, identity H==magnitude; "
              "100 seeded instances each, bit-exact masks")


def test_criterion_2_mask_structure(tmp_path):
    t0 = time.time()
    import json

    cfg = {"d_model": 16, "n_heads": 2, "n_layers": 2, "n_experts": 4, "top_k": 2,
           "d_ff": 32, "seq_len": 32, "vocab_size": 256, "seed": 3}
    (tmp_path / "config.json").write_text(json.dumps({"model": cfg}))
    (tmp_path / "corpus.txt").write_bytes(synth_corpus(seed=20, size=1 << 15))
    assert cli_main(["train", "--config", str(tmp_path / "config.json"),
                     "--corpus", str(tmp_path / "corpus.txt"), "--steps", "0",
                     "--out", str(tmp_path / "ckpt")]) == 0

    assert cli_main(["prune", "--ckpt", str(tmp_path / "ckpt"), "--sparsity", "0.5",
                     "--calib", str(tmp_path / "corpus.txt"), "--nsamples", "16",
                     "--out", str(tmp_path / "p50")]) == 0
    _, masks = load_checkpoint(tmp_path / "p50")
    assert len(masks) == 2 * 4 * 3
    for mask in masks.values():
        out_in = mask.T
        zeros = (out_in == 0).sum(axis=1)
        assert (zeros == math.floor(0.5 * out_in.shape[1])).all()

    assert cli_main(["prune", "--ckpt", str(tmp_path / "ckpt"), "--pattern", "2:4",
                     "--calib", str(tmp_path / "corpus.txt"), "--nsamples", "16",
                     "--out", str(tmp_path / "p24")]) == 0
    _, masks24 = load_checkpoint(tmp_path / "p24")
    for mask in masks24.values():
        m = mask.T
        groups = m.reshape(m.shape[0], m.shape[1] // 4, 4)
        assert ((groups == 0).sum(axis=2) == 2).all()
    assert time.time() - t0 < 30
    report(2, "p=0.5 rows have exactly floor(0.5*cols) zeros; 2:4 groups have exactly 2 zeros")


def test_criterion_3_brute_force_oracle():
    t0 = time.time()

    def oracle_keep(scores_row, keep):
        return max(itertools.combinations(range(scores_row.size), keep),
                   key=lambda c: (scores_row[list(c)].sum(), c))

    for seed in range(50):
        rng = SeededRng(3000 + seed)
        for cols in (4, 6, 8):
            w = rng.normal_matrix(3, cols)
            x = rng.normal_matrix(12, cols)
            acc = ScaledNormAccumulator(np.zeros(cols))
            acc.add(x, np.abs(rng.normal_matrix(1, 12)).ravel())
            h = x.T @ x + 0.05 * np.eye(cols)
            score_sets = [
                score_magnitude(w),
                score_wanda(w, np.sqrt((x * x).sum(axis=0))),
                score_moe_pruner(w, acc.norms()),
                score_sparsegpt(w, damped_inverse(h)),
            ]
            keep_n = cols // 2
            for scores in score_sets:
                mask = select_mask(scores, HALF)
                for r in range(scores.shape[0]):
                    assert tuple(np.nonzero(mask[r])[0]) == oracle_keep(scores[r], keep_n)
    assert time.time() - t0 < 30
    report(3, "per-row selection == exhaustive subset enumeration, 4 metrics, "
              "50 seeds, widths 4/6/8")


def test_criterion_4_worked_metric_value():
    acc = ScaledNormAccumulator(np.zeros(2))
    acc.add(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([0.5, 1.0]))
    s = score_moe_pruner(np.array([[2.0, -1.0]]), acc.norms())
    assert abs(s[0, 0] - 2.0 * math.sqrt(9.25)) < 1e-12
    assert abs(s[0, 1] - math.sqrt(17.0)) < 1e-12
    assert np.array_equal(select_mask(s, HALF), [[1, 0]])
    report(4, f"scores [{s[0,0]:.6f}, {s[0,1]:.6f}] == [2*sqrt(9.25), sqrt(17)] "
              "within 1e-12; column 1 pruned at 50%")


def test_criterion_5_obs_update_improves():
    t0 = time.time()
    rng = SeededRng(5005)
    plain_errors, updated_errors = [], []
    for _ in range(100):
        w = rng.normal_matrix(8, 8)
        x = rng.normal_matrix(24, 8)
        h_inv = damped_inverse(x.T @ x)
        scores = score_sparsegpt(w, h_inv)
        damped = x.T @ x + 0.01 * np.mean(np.diag(x.T @ x)) * np.eye(8)
        assert np.abs(damped @ spd_inverse(damped) - np.eye(8)).max() < 1e-8
        mask = select_mask(scores, HALF)
        plain = reconstruction_error(w, w * mask, x)
        # obs_update takes the stored (d_in, d_out) orientation
        updated = reconstruction_error(w, obs_update(w.T, mask.T, h_inv).T, x)
        assert math.isfinite(updated)
        plain_errors.append(plain)
        updated_errors.append(updated)
    assert np.mean(updated_errors) < np.mean(plain_errors)
    assert time.time() - t0 < 10
    report(5, f"mean reconstruction error {np.mean(updated_errors):.4f} with OBS "
              f"< {np.mean(plain_errors):.4f} without; H*H^-1 residual < 1e-8")


def test_criterion_6_kd_gradient_fidelity():
    t0 = time.time()
    cfg = ModelConfig(d_model=8, n_heads=2, n_layers=1, n_experts=2, top_k=2,
                      d_ff=16, seq_len=12, vocab_size=32, seed=66)
    teacher = MoEModel.init(cfg)
    student = teacher.copy()
    srng = np.random.default_rng(1)
    for name in expert_names(student):
        student.params[name] += 0.2 * srng.normal(size=student.params[name].shape)
    cal = [srng.integers(0, 32, 10) for _ in range(2)]
    masks = prune_model(
        teacher,
        collect(teacher, build_calibration_set(bytes(srng.integers(0, 32, 4096).astype(np.uint8)),
                                               4, 12, seed=2)),
        "magnitude", HALF)[1]
    for name, m in masks.items():
        student.params[name] *= m
    lam = 1.5

    # the graph reads masked weights directly (Adam masks their gradients),
    # so every entry's gradient, pruned ones included, is checked
    total, _, leaves, tape = _kd_graph(student, cal, lam, teacher_targets(teacher, cal))
    tape.backward(total)

    eps = 1e-5
    worst = 0.0
    for name in student.params:
        p = student.params[name]
        analytic = leaves[name].grad
        it = np.nditer(p, flags=["multi_index"])
        while not it.finished:
            ij = it.multi_index
            orig = p[ij]
            p[ij] = orig + eps
            up = kd_loss(teacher, student, cal, lam)["total"]
            p[ij] = orig - eps
            down = kd_loss(teacher, student, cal, lam)["total"]
            p[ij] = orig
            numeric = (up - down) / (2 * eps)
            worst = max(worst, abs(analytic[ij] - numeric) / max(1.0, abs(analytic[ij])))
            it.iternext()
    assert worst < 1e-4
    assert time.time() - t0 < 60
    report(6, f"KD-loss gradient vs central differences over every parameter "
              f"entry: max relative error {worst:.2e} < 1e-4")


def test_criterion_7_mask_preservation_200_steps():
    t0 = time.time()
    cfg = ModelConfig(d_model=16, n_heads=2, n_layers=1, n_experts=2, top_k=2,
                      d_ff=16, seq_len=16, vocab_size=256, seed=7)
    teacher = MoEModel.init(cfg)
    corpus = synth_corpus(seed=70, size=1 << 15)
    cal = build_calibration_set(corpus, 8, cfg.seq_len, seed=1)
    student, masks, _ = prune_model(teacher, collect(teacher, cal), "moe-pruner", HALF)
    res = distill(teacher, student.copy(), masks, corpus,
                  KDConfig(epochs=2, samples=400, batch_size=4, learning_rate=1e-3, seed=3))
    assert len(res.log) == 200
    checked = 0
    for name, m in masks.items():
        vals = res.student.params[name][m == 0]
        assert (vals == 0.0).all()
        checked += vals.size
        # survivors did move, so zeros are not an artifact of a frozen model
        assert not np.array_equal(res.student.params[name], student.params[name])
    assert time.time() - t0 < 120
    report(7, f"{checked} masked weights all exactly 0.0 after 200 optimizer steps")


def test_criterion_8_lambda_initialization():
    cfg = ModelConfig(d_model=16, n_heads=2, n_layers=2, n_experts=4, top_k=2,
                      d_ff=32, seq_len=16, vocab_size=256, seed=8)
    teacher = MoEModel.init(cfg)
    student = teacher.copy()
    rng = np.random.default_rng(2)
    for name in expert_names(student):
        student.params[name] += 0.3 * rng.normal(size=student.params[name].shape)
    batch = [rng.integers(0, 256, 14) for _ in range(3)]

    lam = init_lambda(teacher, student, batch)
    probe = kd_loss(teacher, student, batch, lam=1.0)
    assert lam == pytest.approx(probe["l_ce"] / probe["l_expert"], rel=1e-12)

    with pytest.warns(RuntimeWarning):
        fallback = init_lambda(teacher, teacher.copy(), batch)
    assert fallback == 1.0
    report(8, f"lambda {lam:.4f} == l_ce/l_expert of recomputed losses; "
              "identical-model fallback lambda=1 with warning")


def test_criterion_9_load_balancing_score():
    assert balance_score([3, 1]) == pytest.approx(0.5, abs=1e-12)
    assert balance_score([7, 7, 7, 7]) == pytest.approx(0.0, abs=1e-12)
    assert balance_score([123456, 0, 0, 0]) == pytest.approx(math.sqrt(3), abs=1e-12)
    rng = SeededRng(9009)
    for _ in range(1000):
        n = 2 + int(rng.integers(2, 16))
        f = np.abs(rng.normal_matrix(1, n)).ravel() + 1e-12
        s = balance_score(f)
        assert abs(balance_score(float(rng.integers(1, 9)) * f) - s) < 1e-12
        assert abs(balance_score(f[rng.permutation(n)]) - s) < 1e-12
        assert -1e-15 <= s <= math.sqrt(n - 1) + 1e-12
    report(9, "f=[3,1]->0.5, uniform->0, concentrated->sqrt(3); scale/permutation "
              "invariance on 1000 random vectors")


TOY = ModelConfig(d_model=64, n_heads=4, n_layers=2, n_experts=4, top_k=2,
                  d_ff=128, seq_len=64, vocab_size=256, seed=77)
SPARSITIES = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7)


def test_criterion_10_end_to_end_trend():
    t0 = time.time()
    corpus = synth_corpus(seed=100, size=1 << 20)
    train_part = corpus[: 960 * 1024]
    held_out = corpus[960 * 1024 : 960 * 1024 + 16 * 1024]

    teacher, _ = train_model(MoEModel.init(TOY), train_part,
                             TrainConfig(steps=600, batch_size=8, learning_rate=2e-3, seed=500))
    teacher_ppl, _ = evaluate_perplexity(teacher, held_out)
    print(f"\n  teacher held-out perplexity: {teacher_ppl:.4f} "
          f"({time.time() - t0:.0f}s)")
    assert teacher_ppl < 10.0

    # (a) perplexity non-decreasing in sparsity, per seed
    for seed in (0, 1, 2):
        stats = collect(teacher, build_calibration_set(train_part, 128, TOY.seq_len, seed))
        ppls = []
        for p in SPARSITIES:
            pruned, _, _ = prune_model(teacher, stats, "moe-pruner",
                                       SparsityTarget.unstructured(p))
            ppls.append(evaluate_perplexity(pruned, held_out)[0])
        print(f"  (a) seed {seed}: " + " ".join(f"{x:.4f}" for x in ppls))
        assert all(b >= a for a, b in zip(ppls, ppls[1:])), \
            f"perplexity not monotone for seed {seed}: {ppls}"

    # (b) gate-weighted metric vs wanda at 50%, 10 seeds, raw table attached
    moe_ppls, wanda_ppls = [], []
    print("  (b) seed   moe-pruner   wanda")
    for seed in range(10):
        stats = collect(teacher, build_calibration_set(train_part, 128, TOY.seq_len, seed))
        row = {}
        for method in ("moe-pruner", "wanda"):
            pruned, _, _ = prune_model(teacher, stats, method, HALF)
            row[method] = evaluate_perplexity(pruned, held_out)[0]
        moe_ppls.append(row["moe-pruner"])
        wanda_ppls.append(row["wanda"])
        print(f"      {seed}    {row['moe-pruner']:.4f}      {row['wanda']:.4f}")
    moe_mean, wanda_mean = np.mean(moe_ppls), np.mean(wanda_ppls)
    print(f"    mean    {moe_mean:.4f}      {wanda_mean:.4f} "
          f"(threshold {1.02 * wanda_mean:.4f})")
    assert moe_mean <= 1.02 * wanda_mean

    # (c) distillation reduces pruned perplexity in >= 4 of 5 seeds
    wins = 0
    print("  (c) seed   before    after")
    for seed in range(5):
        stats = collect(teacher, build_calibration_set(train_part, 128, TOY.seq_len, seed))
        pruned, masks, _ = prune_model(teacher, stats, "moe-pruner", HALF)
        before = evaluate_perplexity(pruned, held_out)[0]
        res = distill(teacher, pruned, masks, train_part,
                      KDConfig(epochs=3, samples=1000, batch_size=8,
                               learning_rate=2e-5, seed=seed))
        after = evaluate_perplexity(res.student, held_out)[0]
        wins += after < before
        print(f"      {seed}    {before:.4f}   {after:.4f}")
    assert wins >= 4
    elapsed = time.time() - t0
    assert elapsed < 1800
    report(10, f"teacher ppl {teacher_ppl:.2f}<10; monotone over sparsities (3 seeds); "
               f"moe-pruner mean {moe_mean:.4f} <= wanda mean {wanda_mean:.4f}+2%; "
               f"distillation improved {wins}/5 seeds; {elapsed:.0f}s total")


def test_criterion_11_noop_safety(tmp_path):
    cfg = ModelConfig(d_model=16, n_heads=2, n_layers=2, n_experts=4, top_k=2,
                      d_ff=32, seq_len=32, vocab_size=256, seed=11)
    model = MoEModel.init(cfg)
    corpus = synth_corpus(seed=30, size=1 << 15)
    eval_slice = corpus[: 1 << 13]

    stats = collect(model, build_calibration_set(corpus, 8, cfg.seq_len, seed=0))
    pruned, masks, _ = prune_model(model, stats, "moe-pruner",
                                   SparsityTarget.unstructured(0.0))
    p_orig, _ = evaluate_perplexity(model, eval_slice)
    p_noop, _ = evaluate_perplexity(pruned, eval_slice)
    assert abs(p_orig - p_noop) < 1e-10
    for name in model.params:
        assert np.array_equal(pruned.params[name], model.params[name])

    save_checkpoint(pruned, tmp_path / "ckpt", masks=masks)
    loaded, loaded_masks = load_checkpoint(tmp_path / "ckpt")
    for name in model.params:
        assert loaded.params[name].tobytes() == pruned.params[name].tobytes()
    for name, m in masks.items():
        assert np.array_equal(loaded_masks[name], m)
    report(11, f"0%-sparsity perplexity delta {abs(p_orig - p_noop):.2e} < 1e-10; "
               "checkpoint round-trip bit-exact")
