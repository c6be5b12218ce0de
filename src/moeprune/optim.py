"""Adam with cosine decay, shared by training and distillation."""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np

from .errors import NumericalError

__all__ = ["Adam", "cosine_lr", "finite_step"]

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


def cosine_lr(step: int, total_steps: int, base_lr: float) -> float:
    """base_lr at step 0, exactly 0 at the final step (total_steps - 1)."""
    if total_steps <= 1:
        return float(base_lr)
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * step / (total_steps - 1)))


@contextmanager
def finite_step(kind: str, step: int):
    """Run one optimizer step (graph, backward, update) with numpy overflow,
    invalid and divide-by-zero raising: a step that would make a value
    non-finite stops with a NumericalError naming the step, and prints no
    RuntimeWarning."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            yield
    except FloatingPointError as exc:
        raise NumericalError(f"{kind} step {step} diverged: {exc}") from None


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
