"""Expert-wise knowledge distillation: L = L_ce + lambda * L_expert, where
L_expert sums, over every layer and expert, the MSE between the teacher's and
the student's output for that expert.

Pairing is teacher-forced: expert i's MSE is evaluated on the token set the
teacher's router dispatched to expert i, with each model using its own hidden
state at that layer. Sparsity masks are enforced inside the graph
(masked-assign) and re-zeroed after each optimizer step, so pruned weights
stay exactly zero.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import autograd as ag
from .calibration import build_calibration_set
from .errors import ContractError, NumericalError
from .model import MoEModel, forward_pass, make_param_vars, model_forward, next_token_targets
from .numerics import SeededRng
from .optim import Adam, cosine_lr

__all__ = ["KDConfig", "KDLossBreakdown", "kd_loss", "init_lambda", "distill"]


@dataclass
class KDConfig:
    lambda_mode: str | float = "auto"   # "auto" (first-batch l_ce/l_expert) or a number
    epochs: int = 3
    learning_rate: float = 2e-5
    batch_size: int = 8
    samples: int = 1000
    seed: int = 0
    router_frozen: bool = True
    schedule: str = "cosine"

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ContractError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.epochs < 0:
            raise ContractError(f"epochs must be >= 0, got {self.epochs}")
        if self.schedule != "cosine":
            raise ContractError(f"only the cosine schedule is supported, got {self.schedule!r}")


@dataclass
class KDLossBreakdown:
    l_ce: float
    l_expert: float
    lam: float
    total: float

    def to_dict(self) -> dict:
        return {"l_ce": self.l_ce, "l_expert": self.l_expert,
                "lambda": self.lam, "total": self.total}


def _check_same_architecture(teacher: MoEModel, student: MoEModel) -> None:
    t, s = teacher.config, student.config
    fields = ("d_model", "n_heads", "n_layers", "n_experts", "top_k", "d_ff", "vocab_size")
    for f in fields:
        if getattr(t, f) != getattr(s, f):
            raise ContractError(
                f"teacher/student architecture mismatch on {f}: "
                f"{getattr(t, f)} vs {getattr(s, f)}"
            )


def _kd_graph(
    teacher: MoEModel,
    student: MoEModel,
    batch: list[np.ndarray],
    lam: float | None,
    masks: dict[str, np.ndarray] | None = None,
):
    """Build the differentiable KD loss for one batch.

    Returns (total Var, breakdown, student leaf Vars, tape). One teacher
    forward runs off-tape and one student forward on it, both over the whole
    batch; each (layer, expert) contributes one MSE over the rows the teacher
    routed to it anywhere in the batch. lam None takes lambda = l_ce /
    l_expert from this batch; a zero l_expert falls back to 1 with a warning.
    """
    teacher_trace = model_forward(teacher, batch)
    tape = ag.Tape()
    params = make_param_vars(student, tape, masks)
    dispatch = [lt.expert_tokens for lt in teacher_trace.layers]
    strace = forward_pass(student, batch, tape=tape, forced_dispatch=dispatch, params=params)
    rows, targets = next_token_targets(strace.tokens)
    l_ce = ag.cross_entropy(ag.gather_rows(strace.logits, rows), targets)
    expert_terms = [ag.mse(strace.forced_outputs[i][e], tape.const(t_out))
                    for i, lt in enumerate(teacher_trace.layers)
                    for e, t_out in lt.expert_outputs.items() if t_out.shape[0]]

    l_expert = expert_terms[0] if expert_terms else tape.var(np.zeros((1, 1)))
    for term in expert_terms[1:]:
        l_expert = ag.add(l_expert, term)
    if lam is None:
        l_e = float(l_expert.value[0, 0])
        if l_e == 0.0:
            warnings.warn("expert distillation loss is zero on the probe batch (student "
                          "identical to teacher?); falling back to lambda = 1.0",
                          RuntimeWarning, stacklevel=3)
        lam = float(l_ce.value[0, 0]) / l_e if l_e else 1.0
    total = ag.add(l_ce, ag.scale(l_expert, lam))
    breakdown = KDLossBreakdown(
        l_ce=float(l_ce.value[0, 0]),
        l_expert=float(l_expert.value[0, 0]),
        lam=float(lam),
        total=float(total.value[0, 0]),
    )
    return total, breakdown, params[0], tape


def kd_loss(
    teacher: MoEModel,
    student: MoEModel,
    batch: list[np.ndarray],
    lam: float,
    masks: dict[str, np.ndarray] | None = None,
) -> KDLossBreakdown:
    """Measure the KD loss on one batch (no parameter updates)."""
    _check_same_architecture(teacher, student)
    _, breakdown, _, _ = _kd_graph(teacher, student, batch, lam, masks)
    return breakdown


def init_lambda(teacher: MoEModel, student: MoEModel, batch: list[np.ndarray]) -> float:
    """lambda = l_ce / l_expert measured once on the probe batch; an identical
    student (l_expert == 0) falls back to 1 with a warning."""
    _check_same_architecture(teacher, student)
    return _kd_graph(teacher, student, batch, None)[1].lam


@dataclass
class DistillResult:
    student: MoEModel
    log: list[dict] = field(default_factory=list)
    lam: float = 1.0


def distill(
    teacher: MoEModel,
    student: MoEModel,
    masks: dict[str, np.ndarray],
    corpus: bytes | str,
    cfg: KDConfig,
) -> DistillResult:
    """Cosine-scheduled Adam fine-tuning of the student under its masks.

    The teacher is read-only. Router matrices are excluded from updates unless
    cfg.router_frozen is False. The log holds one record per step:
    {step, lr, l_ce, l_expert, lambda, total}.
    """
    _check_same_architecture(teacher, student)
    out = student.copy()
    for name, m in masks.items():
        if name not in out.params:
            raise ContractError(f"mask targets unknown parameter {name!r}")
        if not (out.params[name][m == 0] == 0.0).all():
            raise ContractError(f"student weights at {name!r} are nonzero under the mask")

    cal = build_calibration_set(corpus, cfg.samples, out.config.seq_len, cfg.seed)
    order_rng = SeededRng(cfg.seed).child(1)
    steps_per_epoch = max(1, (cfg.samples + cfg.batch_size - 1) // cfg.batch_size)
    total_steps = cfg.epochs * steps_per_epoch
    result = DistillResult(student=out)
    if total_steps == 0:
        return result

    trainable = [n for n in out.param_names()
                 if cfg.router_frozen is False or not n.endswith(".router")]
    opt = Adam({n: out.params[n] for n in trainable})

    lam: float | None = None if cfg.lambda_mode == "auto" else float(cfg.lambda_mode)
    step = 0
    for _ in range(cfg.epochs):
        perm = order_rng.permutation(len(cal.sequences))
        for b0 in range(0, len(perm), cfg.batch_size):
            batch = [cal.sequences[j] for j in perm[b0 : b0 + cfg.batch_size]]
            # an "auto" lambda comes from the first batch (masked weights are zero)
            total, breakdown, leaves, tape = _kd_graph(teacher, out, batch, lam, masks)
            lam = breakdown.lam
            if not np.isfinite(breakdown.total):
                raise NumericalError(f"non-finite KD loss at step {step}: {breakdown.total}")
            tape.backward(total)
            lr = cosine_lr(step, total_steps, cfg.learning_rate)
            opt.step({n: leaves[n].grad for n in trainable}, lr)
            for name, m in masks.items():
                out.params[name] *= m
            result.log.append({"step": step, "lr": lr, **breakdown.to_dict()})
            step += 1
    result.lam = lam if lam is not None else 1.0
    return result
