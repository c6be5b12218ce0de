"""Memory a run keeps: freed blocks stay in the process for the next window
(glibc allocator policy, set by cli.main), a training or KD step's
gradients are gone before the next step's graph is built, and a pass keeps
only what its caller reads (expert intermediates only where calibration
stops, no copy of the logits or of the masks)."""

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
from moeprune.distill import KDConfig, distill
from moeprune.model import ModelConfig, MoEModel, model_forward
from moeprune.optim import Adam
from moeprune.persistence import save_checkpoint
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
    """Hold a weakref to each gradient array Adam.step receives, and record,
    as the module's graph builder is entered, how many of the last step's
    are still alive. Returns (weakrefs of the last step, alive counts)."""
    held, alive = [], []
    step, build = Adam.step, getattr(module, builder)

    def watched_step(self, grads, lr):
        held[:] = [weakref.ref(g) for g in grads.values()]
        return step(self, grads, lr)

    def watched_build(*args, **kwargs):
        alive.append(sum(ref() is not None for ref in held))
        return build(*args, **kwargs)

    monkeypatch.setattr(Adam, "step", watched_step)
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


def test_distill_hands_masked_assign_the_masks_as_given(monkeypatch):
    teacher = MoEModel.init(TINY)
    student = teacher.copy()
    name = "layers.0.experts.1.w_up"
    mask = (np.random.default_rng(0).random(student.params[name].shape) > 0.5).astype(np.uint8)
    student.params[name] *= mask
    seen, masked_assign = [], ag.masked_assign

    def recording(a, m):
        seen.append(m)
        return masked_assign(a, m)

    monkeypatch.setattr(ag, "masked_assign", recording)
    distill(teacher, student, {name: mask}, synth_corpus(3, 1 << 12),
            KDConfig(epochs=1, samples=4, batch_size=2, lambda_mode=1.0))
    assert len(seen) == 2 and all(m is mask for m in seen)


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
