"""What a training step holds, and that train_model trains in place."""

import tracemalloc

import numpy as np

import moeprune.training as training
from moeprune.calibration import corpus_tokens
from moeprune.model import ModelConfig, MoEModel
from moeprune.numerics import SeededRng
from moeprune.training import TrainConfig, train_model

from conftest import TINY, synth_corpus

# One layer of 16 experts whose weights are most of the model, so a second
# copy of them, or extra activations per expert call, shows in the peak.
WIDE1 = ModelConfig(d_model=32, n_heads=2, n_layers=1, n_experts=16, top_k=2, d_ff=512,
                    seq_len=32, vocab_size=256, seed=3)
BATCH = 8


def test_step_peak_is_three_weight_copies_plus_activations():
    """numpy reports its buffers to tracemalloc, so the traced peak of a
    training run counts every array it made. The bound:
    - the weights and Adam's m and v: 3x the parameter bytes. Backward
      makes a step's gradients as it frees the forward's activations, and
      Adam updates each weight and drops its gradient as soon as that is
      complete, so they fit in the allowance below;
    - per expert call, four (rows x d_ff) arrays, summed over the calls
      (rows: the batch's tokens x top_k). The fused SwiGLU node, w_down
      included, holds two: the projections it keeps. The other two cover
      the block's narrower activations (each routed row's input and output,
      each token's attention and residual rows at d_model 32);
    - at the head, two (tokens x vocab) arrays: the logits and the rows the
      cross-entropy reads.
    The bound is 27.5 MiB and 25.6 MiB is traced. A copy of the weights
    exceeds it, and so does w_down's input kept per expert call, as a
    separate w_down matmul keeps it: 27.7 MiB, or 27.6 MiB with Adam's
    updates inside backward."""
    tokens = BATCH * WIDE1.seq_len
    allowance = 8 * tokens * (4 * WIDE1.top_k * WIDE1.d_ff + 2 * WIDE1.vocab_size)
    corpus = synth_corpus(1, 1 << 12)
    tracemalloc.start()
    try:
        model = MoEModel.init(WIDE1)
        train_model(model, corpus, TrainConfig(steps=2, batch_size=BATCH, seed=2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    param_bytes = sum(p.nbytes for p in model.params.values())
    assert peak <= 3 * param_bytes + allowance, (
        f"traced peak {peak} B > 3 x {param_bytes} B weights + {allowance} B activations")


def test_trains_the_given_model_in_place():
    model = MoEModel.init(TINY)
    arrays = dict(model.params)
    before = {n: p.copy() for n, p in arrays.items()}
    out, log = train_model(model, synth_corpus(2, 1 << 12),
                           TrainConfig(steps=2, batch_size=2, seed=1))
    assert out is model and len(log) == 2
    assert all(out.params[n] is arrays[n] for n in arrays)
    assert not np.array_equal(out.params["lm_head"], before["lm_head"])


def test_zero_steps_returns_the_model_untouched():
    model = MoEModel.init(TINY)
    before = {n: p.copy() for n, p in model.params.items()}
    out, log = train_model(model, synth_corpus(2, 1 << 12), TrainConfig(steps=0))
    assert out is model and log == []
    assert all(np.array_equal(out.params[n], before[n]) for n in before)


def test_each_step_forwards_one_batch_array_of_seeded_windows(monkeypatch):
    batches, build = [], training.batch_ce_graph

    def watched(model, batch):
        batches.append(batch)
        return build(model, batch)

    monkeypatch.setattr(training, "batch_ce_graph", watched)
    corpus = synth_corpus(2, 1 << 12)
    train_model(MoEModel.init(TINY), corpus, TrainConfig(steps=3, batch_size=2, seed=1))
    toks, T = corpus_tokens(corpus), TINY.seq_len
    offsets = SeededRng(1).integers(0, toks.size - T + 1, size=(3, 2))
    assert len(batches) == 3
    for batch, offs in zip(batches, offsets):
        assert isinstance(batch, np.ndarray) and batch.dtype == np.intp
        assert batch.shape == (2, T)
        assert all(np.array_equal(row, toks[o : o + T]) for row, o in zip(batch, offs))
