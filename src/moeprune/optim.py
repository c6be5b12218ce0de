"""Adam with cosine decay, and the one step loop that training and
distillation share. Adam's step runs the backward and updates each weight
inside it as soon as its gradient is complete, which is then dropped (as LOMO
does, Lv et al. 2023): the weights and moments equal those of a full backward
followed by every update, and no step holds every gradient at once. A masked
weight's gradient is multiplied by its mask in place as it is handed over."""

from __future__ import annotations

import math

import numpy as np

from .autograd import Var
from .errors import NumericalError

__all__ = ["Adam", "cosine_lr", "run_steps"]

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


def cosine_lr(step: int, total_steps: int, base_lr: float) -> float:
    """base_lr at step 0, exactly 0 at the final step (total_steps - 1)."""
    if total_steps <= 1:
        return float(base_lr)
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * step / (total_steps - 1)))


def run_steps(kind: str, opt: Adam, batches: list, base_lr: float, graph) -> list[dict]:
    """One Adam step per batch, at the cosine rate over len(batches). graph(batch)
    returns (loss Var, log fields, leaf Vars by name, tape); opt.step runs its
    backward and updates, and a step's graph is gone before the next graph is
    built. A non-finite loss, or a numpy overflow, invalid value or division
    by zero (raised, so no RuntimeWarning prints), stops with a NumericalError
    naming kind and step; weights that step's backward had reached keep their
    update. Returns the log."""
    log = []
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for step, batch in enumerate(batches):
                loss, fields, leaves, tape = graph(batch)
                value = float(loss.value[0, 0])
                if not math.isfinite(value):
                    raise NumericalError(f"non-finite {kind} loss at step {step}: {value}")
                lr = cosine_lr(step, len(batches), base_lr)
                opt.step(loss, leaves, lr)
                del loss, leaves, tape
                log.append({"step": step, "lr": lr, **fields})
    except FloatingPointError as exc:
        raise NumericalError(f"{kind} step {step} diverged: {exc}") from None
    return log


class Adam:
    def __init__(self, params: dict[str, np.ndarray], masks: dict[str, np.ndarray] | None = None):
        self.params = params
        self.masks = masks or {}
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0
        # a step's temporaries are views into two buffers of the largest size
        size = max((p.size for p in params.values()), default=0)
        self._scratch = (np.empty(size), np.empty(size))

    def step(self, loss: Var, leaves: dict[str, Var], lr: float) -> None:
        """Backward of loss, updating each of self.params by its leaf's
        (leaves[name]) gradient as soon as that is complete; a weight that no
        node read then takes the update for the zero gradient its leaf holds."""
        self.t += 1
        bc1, bc2 = 1.0 - BETA1 ** self.t, 1.0 - BETA2 ** self.t
        pending = {id(leaves[n]): n for n in self.params}

        def ready(leaf: Var) -> None:
            if id(leaf) in pending:
                self.update(pending.pop(id(leaf)), leaf.grad, lr, bc1, bc2)

        loss.tape.backward(loss, ready)
        for name in pending.values():
            self.update(name, leaves[name].grad, lr, bc1, bc2)

    def update(self, name: str, g: np.ndarray, lr: float, bc1: float, bc2: float) -> None:
        """m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g^2, then
        p -= lr (m / bc1) / (sqrt(v / bc2) + eps): in place, one operation
        at a time in that order, so the result is that of the expression. g,
        the leaf's own array, is first multiplied by name's mask (0/1, any
        dtype, used as given: uint8 as loaded) if it has one."""
        p, m, v = self.params[name], self.m[name], self.v[name]
        if name in self.masks:
            g *= self.masks[name]
        s, r = (buf[: p.size].reshape(p.shape) for buf in self._scratch)
        m *= BETA1
        m += np.multiply(g, 1.0 - BETA1, out=s)
        v *= BETA2
        np.multiply(g, g, out=s)
        s *= 1.0 - BETA2
        v += s
        np.divide(m, bc1, out=s)
        s *= lr
        np.divide(v, bc2, out=r)
        np.sqrt(r, out=r)
        r += EPS
        s /= r
        p -= s
