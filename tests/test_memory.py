"""Memory a run keeps: freed blocks stay in the process for the next window
(glibc allocator policy, set by cli.main), a training or KD step's
gradients are gone before the next step's graph is built, and a pass keeps
only what its caller reads (expert intermediates only where calibration
stops, no copy of the logits or of the masks). KD holds one copy of each
model: Adam masks the gradients, the student trains in place and the
teacher is freed once its cache is built."""

import os
import platform
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import moeprune.distill as kd
import moeprune.training as training
from moeprune import autograd as ag
from moeprune.calibration import build_calibration_set, collect
from moeprune.cli import main
from moeprune.distill import KDConfig, distill
from moeprune.model import ModelConfig, MoEModel, model_forward
from moeprune.optim import Adam
from moeprune.persistence import load_checkpoint, save_checkpoint
from moeprune.pruning import SparsityTarget, prune_model
from moeprune.training import TrainConfig, evaluate_perplexity, train_model

from conftest import TINY, synth_corpus

SRC = Path(__file__).resolve().parents[1] / "src"

# a warm-up eval, then EVALS more, each through cli.main; prints the minor
# page faults of the EVALS
EVALS = 5
COUNT_FAULTS = f"""
import resource, sys
from moeprune.cli import main
argv = ["eval", "--ckpt", sys.argv[1], "--corpus", sys.argv[2]]
assert main(argv) == 0
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range({EVALS}):
    assert main(argv) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before, file=sys.stderr)
"""
# Under glibc's default policy these evals take ~21K faults: each window's
# freed activations go back to the kernel and are faulted in again. With
# the policy, under a hundred.
MAX_FAULTS = 2000


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the policy is glibc's")
def test_repeated_evals_reuse_freed_memory(tmp_path):
    config = ModelConfig(d_model=32, n_heads=2, n_layers=1, n_experts=4, top_k=2, d_ff=64,
                         seq_len=64, vocab_size=256, seed=4)
    save_checkpoint(MoEModel.init(config), tmp_path / "ckpt")
    (tmp_path / "corpus.txt").write_bytes(synth_corpus(seed=3, size=1 << 13))
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"}
    run = subprocess.run([sys.executable, "-c", COUNT_FAULTS, str(tmp_path / "ckpt"),
                          str(tmp_path / "corpus.txt")],
                         env=env, capture_output=True, text=True, check=True)
    faults = int(run.stderr.strip().splitlines()[-1])
    assert faults < MAX_FAULTS, f"{EVALS} evals took {faults} minor page faults"


def _watch_gradients(monkeypatch, module, builder: str) -> tuple[list, list]:
    """Hold a weakref to each gradient array a step's Adam updates take, and
    record, as the module's graph builder is entered, how many of the last
    step's are still alive. Returns (weakrefs of the last step, alive counts)."""
    held, alive = [], []
    step, update, build = Adam.step, Adam.update, getattr(module, builder)

    def watched_step(self, *args):
        held.clear()
        return step(self, *args)

    def watched_update(self, name, g, *args):
        held.append(weakref.ref(g))
        return update(self, name, g, *args)

    def watched_build(*args, **kwargs):
        alive.append(sum(ref() is not None for ref in held))
        return build(*args, **kwargs)

    monkeypatch.setattr(Adam, "step", watched_step)
    monkeypatch.setattr(Adam, "update", watched_update)
    monkeypatch.setattr(module, builder, watched_build)
    return held, alive


def _train(model):
    train_model(model, synth_corpus(2, 1 << 12), TrainConfig(steps=3, batch_size=2, seed=1))


def _distill(model):
    distill(model, model.copy(), {}, synth_corpus(3, 1 << 12),
            KDConfig(epochs=1, samples=6, batch_size=2, lambda_mode=1.0))


@pytest.mark.parametrize("module, builder, run", [(training, "batch_ce_graph", _train),
                                                  (kd, "_kd_graph", _distill)],
                         ids=["train", "distill"])
def test_step_frees_gradients_before_next_forward(monkeypatch, module, builder, run):
    held, alive = _watch_gradients(monkeypatch, module, builder)
    run(MoEModel.init(TINY))
    assert held and alive == [0, 0, 0]


def test_no_two_gradients_are_held_at_once(monkeypatch):
    # Adam updates each weight inside backward as soon as its gradient is
    # complete, and the tape then drops it: as a weight updates, the only
    # leaves holding a gradient are it and the other weights its node read
    # (an expert's swiglu reads three). A full backward first would hold all.
    step, update = Adam.step, Adam.update
    leaves, held = [], []

    def watched_step(self, loss, step_leaves, lr):
        leaves[:] = step_leaves.values()
        return step(self, loss, step_leaves, lr)

    def watched_update(self, *args):
        held.append(sum(v._grad is not None for v in leaves))
        return update(self, *args)

    monkeypatch.setattr(Adam, "step", watched_step)
    monkeypatch.setattr(Adam, "update", watched_update)
    model = MoEModel.init(TINY)
    _train(model)
    assert len(held) == 3 * len(model.params) and set(held) == {1, 2, 3}


def test_only_a_pass_stopped_at_hidden_records_expert_intermediates(tiny_model):
    toks = np.random.default_rng(4).integers(0, 256, size=(3, 12))
    for lt in model_forward(tiny_model, toks).layers:
        assert sorted(lt.expert_hidden) == list(range(TINY.n_experts))
        assert all(h.shape == (0, TINY.d_ff) for h in lt.expert_hidden.values())
    for i in range(TINY.n_layers):
        layers = model_forward(tiny_model, toks, stop=(i, "hidden")).layers
        assert len(layers) == i + 1
        for lt in layers:
            assert sum(rows.size for rows in lt.expert_tokens.values()) == toks.size * TINY.top_k
            for e, rows in lt.expert_tokens.items():
                assert lt.expert_hidden[e].shape == (rows.size, TINY.d_ff)


def masked_pair(cfg: ModelConfig, corpus: bytes):
    """A teacher at init and its 50% moe-pruner student, with the masks."""
    teacher = MoEModel.init(cfg)
    stats = collect(teacher, build_calibration_set(corpus, 4, cfg.seq_len, 0))
    return (teacher, *prune_model(teacher, stats, "moe-pruner",
                                  SparsityTarget.unstructured(0.5))[:2])


def test_adam_masks_gradients_with_the_masks_as_loaded(monkeypatch, tmp_path):
    corpus = synth_corpus(3, 1 << 12)
    teacher, student, masks = masked_pair(TINY, corpus)
    save_checkpoint(student, tmp_path / "student", masks=masks)
    student, loaded = load_checkpoint(tmp_path / "student")
    made, update = [], Adam.update

    def watched_update(self, name, g, *args):
        made.append(self)
        update(self, name, g, *args)
        if name in loaded:
            assert not g[loaded[name] == 0].any(), name

    monkeypatch.setattr(Adam, "update", watched_update)
    distill(teacher, student, loaded, corpus,
            KDConfig(epochs=1, samples=4, batch_size=2, lambda_mode=1.0))
    opt = made[0]
    assert set(made) == {opt} and opt.masks.keys() == loaded.keys()
    assert all(opt.masks[n] is m and m.dtype == np.uint8 for n, m in loaded.items())


# d_model 16, d_ff 32, and batches of 2 windows of 4 tokens: no activation
# has an expert weight's shape, (16, 32) or (32, 16)
SHORT = ModelConfig(d_model=16, n_heads=2, n_layers=2, n_experts=4, top_k=2, d_ff=32,
                    seq_len=4, vocab_size=256, seed=5)


def test_masked_distill_hands_over_each_expert_right_after_its_swiglu(monkeypatch):
    # the graph reads masked weights directly, so each expert's three
    # gradients are handed to Adam right after its swiglu backward; a
    # masked_assign recorded before the forward would keep every masked
    # weight's gradient (and its masked copy's) until the sweep ends. The
    # teacher targets (each mse's second operand) are leaves of the student's
    # tape: their gradients are dropped at hand-over, before any update
    corpus = synth_corpus(3, 1 << 12)
    teacher, student, masks = masked_pair(SHORT, corpus)
    shapes = {(SHORT.d_model, SHORT.d_ff), (SHORT.d_ff, SHORT.d_model)}
    grads, alive, targets, target_grads, targets_alive = [], [], set(), [], []
    accumulate, update, mse, step = ag.Var.accumulate, Adam.update, ag.mse, Adam.step

    def watched_mse(a, b):
        targets.add(id(b))  # b lives until its mse node is swept
        return mse(a, b)

    def watched_accumulate(self, g):
        accumulate(self, g)
        if self.value.shape in shapes:
            grads.append(weakref.ref(self._grad))
        if id(self) in targets:
            target_grads.append(weakref.ref(self._grad))

    def watched_update(self, *args):
        alive.append(len({id(a) for ref in grads if (a := ref()) is not None}))
        targets_alive.append(sum(ref() is not None for ref in target_grads))
        return update(self, *args)

    def watched_step(self, *args):
        step(self, *args)
        targets.clear()  # the swept targets' ids may be reused by the next graph

    monkeypatch.setattr(ag, "mse", watched_mse)
    monkeypatch.setattr(ag.Var, "accumulate", watched_accumulate)
    monkeypatch.setattr(Adam, "update", watched_update)
    monkeypatch.setattr(Adam, "step", watched_step)
    res = distill(teacher, student, masks, corpus,
                  KDConfig(epochs=1, samples=6, batch_size=2, lambda_mode=1.0))
    assert len(alive) == len(res.log) * (len(student.params) - SHORT.n_layers)
    assert max(alive) == 3, f"{max(alive)} expert-shaped gradients alive at one update"
    assert target_grads, "no teacher target took a gradient"
    assert max(targets_alive) == 0, f"{max(targets_alive)} teacher-target gradients alive"


# cli distill's traced peak on a 2-layer d_model 64 model (2 MiB of
# weights), 8 windows, batch 4: ~22.5 MB with a second copy of the student,
# the teacher alive through every step and every masked weight's float64
# copy and gradient alive until the sweep ended; ~17.0 MB with none of these
DISTILL_PEAK_MB = 20


def test_cli_distill_keeps_one_copy_of_each_model(tmp_path):
    cfg = ModelConfig(d_model=64, n_heads=4, n_layers=2, n_experts=4, top_k=2, d_ff=128,
                      seq_len=64, vocab_size=256, seed=77)
    corpus = synth_corpus(3, 1 << 13)
    teacher, student, masks = masked_pair(cfg, corpus)
    save_checkpoint(teacher, tmp_path / "teacher")
    save_checkpoint(student, tmp_path / "student", masks=masks)
    (tmp_path / "corpus.txt").write_bytes(corpus)
    del teacher, student, masks
    argv = ["distill", "--teacher", str(tmp_path / "teacher"), "--student",
            str(tmp_path / "student"), "--corpus", str(tmp_path / "corpus.txt"),
            "--samples", "8", "--batch-size", "4", "--epochs", "1", "--lam", "1"]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert main([*argv, "--out", str(tmp_path / "distilled")]) == 0
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < DISTILL_PEAK_MB * 2**20, f"traced peak {peak / 2**20:.1f} MB"


# evaluate_perplexity's traced peak over two batches of TINY windows: ~25.6
# MB when each batch copied its logits' target rows, every expert's SwiGLU
# intermediate outlived its w_down, and a batch's logits outlived the next
# forward; ~16.1 MB with none of these
EVAL_PEAK_MB = 21


def test_evaluate_perplexity_keeps_no_copies(tiny_model):
    corpus = synth_corpus(seed=3, size=1 << 13)
    evaluate_perplexity(tiny_model, corpus)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        evaluate_perplexity(tiny_model, corpus)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < EVAL_PEAK_MB * 2**20, f"traced peak {peak / 2**20:.1f} MB"
