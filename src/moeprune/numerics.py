"""Dense float64 matrix kernels and seeded randomness.

A "matrix" throughout the toolkit is a 2-D C-contiguous float64 ndarray:
shape[0]/shape[1] are the row/column counts and the underlying buffer is the
row-major sequence of 64-bit values that the persistence layer writes verbatim.
Public operations validate shapes and leave only finite entries behind.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotri

from .errors import NumericalError, ShapeError

__all__ = [
    "matmul",
    "row_softmax",
    "silu",
    "spd_inverse",
    "SeededRng",
]


def _check_finite(m: np.ndarray, op: str) -> np.ndarray:
    if not np.isfinite(m).all():
        raise NumericalError(f"{op} produced non-finite entries")
    return m


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Standard product a @ b, (n,k) x (k,m) -> (n,m)."""
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul needs 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    return _check_finite(a @ b, "matmul")


def row_softmax(m: np.ndarray) -> np.ndarray:
    """Row-wise softmax, stabilized by max-subtraction. Rows sum to 1."""
    m = np.asarray(m, dtype=np.float64)
    shifted = m - m.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return _check_finite(e / e.sum(axis=1, keepdims=True), "row_softmax")


def silu(m: np.ndarray) -> np.ndarray:
    """Elementwise x * sigmoid(x)."""
    m = np.asarray(m, dtype=np.float64)
    # exp(-|x|) never overflows; both branches equal x*sigmoid(x).
    e = np.exp(-np.abs(m))
    return _check_finite(np.where(m >= 0, m / (1.0 + e), m * e / (1.0 + e)), "silu")


def spd_inverse(h: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric positive definite matrix via Cholesky (LAPACK
    potrf, then potri on the factor).

    The full inverse is materialized because the OBS weight update consumes
    its diagonal and upper triangle. Raises NumericalError for non-PD input
    (the caller should add dampening and retry).
    """
    if h.ndim != 2 or h.shape[0] != h.shape[1] or h.size == 0:
        raise ShapeError(f"spd_inverse needs a non-empty square matrix, got {h.shape}")
    asym = np.abs(h - h.T).max()
    if asym > 1e-9 * max(1.0, float(np.abs(h).max())):
        raise ShapeError(f"matrix is not symmetric (max asymmetry {asym:.3e})")
    factor, info = dpotrf(h, lower=1, clean=0)
    if info == 0:
        inv, info = dpotri(factor, lower=1)
    if info != 0:
        raise NumericalError(
            "Cholesky factorization failed (matrix not positive definite); "
            "increase dampening"
        )
    # potri fills the lower triangle only; mirroring it makes the result
    # exactly symmetric.
    inv = np.tril(inv) + np.tril(inv, -1).T
    return _check_finite(np.ascontiguousarray(inv), "spd_inverse")


class SeededRng:
    """Deterministic random source: one seed, one reproducible stream.

    Backed by PCG64, whose stream is identical across platforms for a given
    seed. `child(tag)` derives an independent stream so parallel settings
    (sweep workers, per-command stages) stay reproducible.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def normal_matrix(self, rows: int, cols: int, std: float = 1.0) -> np.ndarray:
        return self._gen.normal(0.0, std, size=(rows, cols))

    def integers(self, low: int, high: int, size: int | None = None):
        return self._gen.integers(low, high, size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def child(self, tag: int) -> "SeededRng":
        return SeededRng((self.seed * 0x9E3779B97F4A7C15 + tag + 1) % (1 << 63))
