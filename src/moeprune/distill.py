"""Expert-wise knowledge distillation: L = L_ce + lambda * L_expert, where
L_expert sums, over every layer and expert, the MSE between the teacher's and
the student's output for that expert.

Pairing is teacher-forced: expert i's MSE is evaluated on the token set the
teacher's router dispatched to expert i, with each model using its own hidden
state at that layer. The frozen teacher is forwarded once over all windows
before the first step; each step reads its batch's dispatch and expert
outputs from that pass. Sparsity masks act on the gradients (optim.Adam): a
pruned weight's gradient is +-0, so Adam's moments and step stay +0 there
and the weight keeps its exact zero.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import autograd as ag
from .calibration import build_calibration_set
from .config import Section
from .errors import ContractError
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
from .persistence import nonzero_where_pruned

__all__ = ["KDConfig", "distill"]


@dataclass(frozen=True)
class KDConfig(Section):
    SECTION = "kd"

    lambda_mode: str | float = "auto"   # "auto" (first-batch l_ce/l_expert) or a number
    epochs: int = 3
    learning_rate: float = 2e-5
    batch_size: int = 8
    samples: int = 1000
    seed: int = 0
    router_frozen: bool = True


TeacherTargets = tuple[list[dict[int, np.ndarray]], list[dict[int, np.ndarray]]]


def _teacher_windows(teacher: MoEModel, windows: np.ndarray) -> list[list[dict[int, tuple]]]:
    """One teacher forward over the (N, T) windows, in window_batches and
    stopped after the last layer's expert outputs (no combine, no head). Per
    window, per layer, expert -> (positions in the window the teacher routed
    to that expert, the expert's outputs there): all that KD reads."""
    cache = []
    for batch in window_batches(windows):
        B, T = batch.shape
        layers = model_forward(teacher, batch, (teacher.config.n_layers - 1, "experts")).layers
        cuts = [{e: np.searchsorted(rows, np.arange(B + 1) * T)
                 for e, rows in lt.expert_tokens.items()} for lt in layers]
        for b in range(B):
            cache.append([{e: (lt.expert_tokens[e][c[b]:c[b + 1]] - b * T,
                               lt.expert_outputs[e][c[b]:c[b + 1]]) for e, c in cut.items()}
                          for lt, cut in zip(layers, cuts)])
    return cache


def _batch_targets(cache: list, picks, T: int) -> TeacherTargets:
    """The forced rows and teacher outputs of the batch that stacks the cached
    windows `picks` in order (window b's positions offset by b*T): per layer,
    expert -> rows, and expert -> outputs."""
    dispatch: list[dict[int, np.ndarray]] = []
    outputs: list[dict[int, np.ndarray]] = []
    for i in range(len(cache[picks[0]])):
        parts = [cache[j][i] for j in picks]
        dispatch.append({e: np.concatenate([p[e][0] + b * T for b, p in enumerate(parts)])
                         for e in parts[0]})
        outputs.append({e: np.concatenate([p[e][1] for p in parts]) for e in parts[0]})
    return dispatch, outputs


def _kd_graph(student: MoEModel, batch: np.ndarray, lam: float | None,
              targets: TeacherTargets):
    """Build the differentiable KD loss for one batch.

    Returns (total Var, the step's losses {l_ce, l_expert, lambda, total},
    student leaf Vars, which it reads directly (no mask), tape). targets
    are the teacher's forced rows and expert outputs for this batch
    (_batch_targets).
    One student forward runs on the tape over the whole batch; each (layer,
    expert) contributes one MSE over the rows the teacher routed to it
    anywhere in the batch. lam None takes lambda = l_ce / l_expert from this
    batch; a zero l_expert falls back to 1 with a warning.
    """
    dispatch, t_outs = targets
    tape = ag.Tape()
    leaves = make_param_vars(student, tape)
    strace = forward_pass(student, batch, leaves, forced_dispatch=dispatch)
    rows, next_tokens = next_token_targets(strace.tokens)
    l_ce = ag.cross_entropy(strace.logits, next_tokens, rows)
    expert_terms = [ag.mse(strace.forced_outputs[i][e], tape.const(t_out))
                    for i, layer in enumerate(t_outs)
                    for e, t_out in layer.items() if t_out.shape[0]]

    l_expert = expert_terms[0] if expert_terms else tape.var(np.zeros((1, 1)))
    for term in expert_terms[1:]:
        l_expert = ag.add(l_expert, term)
    if lam is None:
        l_e = float(l_expert.value[0, 0])
        if l_e == 0.0:
            warnings.warn("expert distillation loss is zero on the probe batch (student "
                          "identical to teacher?); falling back to lambda = 1.0",
                          RuntimeWarning, stacklevel=5)  # past graph, run_steps, distill
        lam = float(l_ce.value[0, 0]) / l_e if l_e else 1.0
    total = ag.add(l_ce, ag.scale(l_expert, lam))
    losses = {"l_ce": float(l_ce.value[0, 0]), "l_expert": float(l_expert.value[0, 0]),
              "lambda": float(lam), "total": float(total.value[0, 0])}
    return total, losses, leaves, tape


@dataclass
class DistillResult:
    student: MoEModel
    lam: float
    log: list[dict] = field(default_factory=list)


def distill(
    teacher: MoEModel,
    student: MoEModel,
    masks: dict[str, np.ndarray],
    corpus: bytes,
    cfg: KDConfig,
) -> DistillResult:
    """Cosine-scheduled Adam fine-tuning of the student under its masks.

    Trains `student` in place and returns it; Adam masks the gradients. The
    teacher is read-only; on CPython 3.11+ it is freed before the first step
    if the caller holds no reference to it. Router matrices are excluded from
    updates unless cfg.router_frozen is False. The log holds one record per
    step: {step, lr, l_ce, l_expert, lambda, total}.
    """
    diff = teacher.config.architecture_diff(student.config)
    if diff:
        raise ContractError(f"teacher/student architecture mismatch on {diff}")
    for name, m in masks.items():
        if name not in student.params:
            raise ContractError(f"mask targets unknown parameter {name!r}")
        if nonzero_where_pruned(student.params[name], m):
            raise ContractError(f"student weights at {name!r} are nonzero under the mask")

    cal = build_calibration_set(corpus, cfg.samples, student.config.seq_len, cfg.seed)
    order_rng = SeededRng(cfg.seed).child(1)
    n = len(cal.sequences)
    batches = [perm[b0 : b0 + cfg.batch_size]
               for perm in (order_rng.permutation(n) for _ in range(cfg.epochs))
               for b0 in range(0, n, cfg.batch_size)]
    # a fixed lambda is resolved even when no step runs
    lam: float | None = None if cfg.lambda_mode == "auto" else float(cfg.lambda_mode)
    if not batches:
        return DistillResult(student=student, lam=1.0 if lam is None else lam)

    opt = Adam({name: p for name, p in student.params.items()
                if cfg.router_frozen is False or not name.endswith(".router")}, masks)
    # the frozen teacher runs once over every window, not once per epoch
    cache = _teacher_windows(teacher, cal.sequences)
    del teacher  # not read again

    def graph(picks):
        # an "auto" lambda comes from the first batch (masked weights are zero)
        nonlocal lam
        step = _kd_graph(student, cal.sequences[picks], lam,
                         _batch_targets(cache, picks, student.config.seq_len))
        lam = step[1]["lambda"]
        return step

    log = run_steps("KD", opt, batches, cfg.learning_rate, graph)
    return DistillResult(student=student, lam=lam, log=log)
