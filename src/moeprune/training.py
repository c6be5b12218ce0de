"""Plain cross-entropy pretraining for the toy teacher, plus perplexity
evaluation over non-overlapping windows."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .calibration import corpus_tokens, nonoverlapping_windows
from .config import Section
from .errors import InputError, NumericalError
from .model import (
    MoEModel,
    forward_pass,
    make_param_vars,
    model_forward,
    next_token_targets,
    window_batches,
)
from .numerics import SeededRng
from .optim import Adam, run_steps

__all__ = ["TrainConfig", "train_model", "evaluate_perplexity", "batch_ce_graph"]


@dataclass(frozen=True)
class TrainConfig(Section):
    SECTION = "train"

    steps: int = 2000
    batch_size: int = 8
    learning_rate: float = 1e-3
    seed: int = 0


def batch_ce_graph(model: MoEModel, batch: list[np.ndarray]):
    """Mean next-token CE over a batch of equal-length windows: one forward
    and one cross-entropy over every row that has a next token. Returns
    (loss, {"loss": its value}, leaf Vars, tape)."""
    tape = ag.Tape()
    leaves, pv = make_param_vars(model, tape)
    tr = forward_pass(model, batch, pv)
    rows, targets = next_token_targets(tr.tokens)
    loss = ag.cross_entropy(tr.logits, targets, rows)
    return loss, {"loss": float(loss.value[0, 0])}, leaves, tape


def train_model(
    model: MoEModel, corpus: bytes, cfg: TrainConfig
) -> tuple[MoEModel, list[dict]]:
    """Adam + cosine CE training on randomly offset windows. Deterministic per
    seed. Trains `model` in place (no copy of the weights) and returns it with
    the step log; a step holds the weights, Adam's two moments, the gradients
    and the forward's activations. Aborts (NumericalError naming the step) on
    a non-finite loss or a step that overflows, leaving the model part-trained."""
    toks = corpus_tokens(corpus)
    seq_len = model.config.seq_len
    if toks.size < seq_len + 1:
        raise InputError(f"corpus has {toks.size} tokens; need more than seq_len={seq_len}")
    rng = SeededRng(cfg.seed)
    starts = toks.size - seq_len + 1
    batches = [[toks[o : o + seq_len] for o in rng.integers(0, starts, size=cfg.batch_size)]
               for _ in range(cfg.steps)]
    # a lambda, not a partial: a batch_ce_graph patched on the module still runs
    log = run_steps("training", Adam(model.params), batches, cfg.learning_rate,
                    lambda batch: batch_ce_graph(model, batch))
    return model, log


def evaluate_perplexity(model: MoEModel, corpus: bytes) -> tuple[float, int]:
    """exp(mean next-token CE) over non-overlapping seq_len windows (tail
    dropped), forwarded in batches of windows. Returns (perplexity, predicted
    token count); a model with a non-finite weight or perplexity raises
    NumericalError."""
    for name, p in model.params.items():
        if not np.isfinite(p).all():
            raise NumericalError(f"parameter {name} holds a non-finite value")
    windows = nonoverlapping_windows(corpus, model.config.seq_len)
    total_ce = 0.0
    total_tokens = 0
    for batch in window_batches(windows):
        rows, targets = next_token_targets(batch)
        # no name holds the logits, so they are freed before the next forward
        ce = ag.cross_entropy(model_forward(model, batch).logits, targets, rows)
        total_ce += float(ce.value[0, 0]) * rows.size
        total_tokens += rows.size
    mean_ce = total_ce / total_tokens
    ppl = math.exp(mean_ce) if mean_ce < 709.0 else math.inf  # math.exp raises past ~709.78
    if not math.isfinite(ppl):
        raise NumericalError(f"perplexity is not finite (mean cross-entropy {mean_ce})")
    return ppl, total_tokens
