"""What a training step holds, and that train_model trains in place."""

import tracemalloc

import numpy as np

from moeprune.model import ModelConfig, MoEModel
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
    - the weights and Adam's m and v: 3x the parameter bytes. A step's
      gradients are made in backward as its forward's activations are
      freed, so they fit in the allowance below; the previous step's are
      gone before the next forward, and keeping them exceeds the bound;
    - per expert call, five (rows x d_ff) arrays, summed over the calls
      (rows: the batch's tokens x top_k). The fused SwiGLU holds three: the
      two projections it keeps and its output, w_down's input. The other two
      cover the block's narrower activations (each routed row's input and
      output, each token's attention and residual rows at d_model 32);
    - at the head, two (tokens x vocab) arrays: the logits and the rows the
      cross-entropy reads.
    A copy of the weights, or the silu/mul chain's two more (rows x d_ff)
    arrays per expert call, exceeds it."""
    tokens = BATCH * WIDE1.seq_len
    allowance = 8 * tokens * (5 * WIDE1.top_k * WIDE1.d_ff + 2 * WIDE1.vocab_size)
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
