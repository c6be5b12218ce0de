"""Adam with cosine decay, and the one step loop that training and
distillation share."""

from __future__ import annotations

import math

import numpy as np

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
    returns (loss Var, log fields, leaf Vars by name, tape); each of opt.params
    steps by its leaf's gradient, and a step's graph and gradients are dropped
    before the next graph is built. A non-finite loss, or a numpy overflow,
    invalid value or division by zero (raised, so no RuntimeWarning prints),
    stops with a NumericalError naming kind and step. Returns the log."""
    log = []
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for step, batch in enumerate(batches):
                loss, fields, leaves, tape = graph(batch)
                value = float(loss.value[0, 0])
                if not math.isfinite(value):
                    raise NumericalError(f"non-finite {kind} loss at step {step}: {value}")
                tape.backward(loss)
                lr = cosine_lr(step, len(batches), base_lr)
                opt.step({n: leaves[n].grad for n in opt.params}, lr)
                del loss, leaves, tape
                log.append({"step": step, "lr": lr, **fields})
    except FloatingPointError as exc:
        raise NumericalError(f"{kind} step {step} diverged: {exc}") from None
    return log


class Adam:
    def __init__(self, params: dict[str, np.ndarray]):
        self.params = params
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0
        # a step's temporaries are views into two buffers of the largest size
        size = max((p.size for p in params.values()), default=0)
        self._scratch = (np.empty(size), np.empty(size))

    def step(self, grads: dict[str, np.ndarray], lr: float) -> None:
        """m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g^2, then
        p -= lr (m / bc1) / (sqrt(v / bc2) + eps): in place, one operation
        at a time in that order, so the result is that of the expression."""
        self.t += 1
        b1, b2 = BETA1, BETA2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for name, p in self.params.items():
            g = grads[name]
            m = self.m[name]
            v = self.v[name]
            s, r = (buf[: p.size].reshape(p.shape) for buf in self._scratch)
            m *= b1
            m += np.multiply(g, 1.0 - b1, out=s)
            v *= b2
            np.multiply(g, g, out=s)
            s *= 1.0 - b2
            v += s
            np.divide(m, bc1, out=s)
            s *= lr
            np.divide(v, bc2, out=r)
            np.sqrt(r, out=r)
            r += EPS
            s /= r
            p -= s
