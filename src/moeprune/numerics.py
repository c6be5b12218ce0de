"""Seeded randomness and the SPD inverse.

A "matrix" throughout the toolkit is a 2-D C-contiguous float64 ndarray:
shape[0]/shape[1] are the row/column counts and the underlying buffer is the
row-major sequence of 64-bit values that the persistence layer writes verbatim.
`spd_inverse` (Cholesky, for the OBS update) validates its input and leaves
only finite entries behind; `SeededRng` is the one source of randomness.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotri

from .errors import NumericalError, ShapeError

__all__ = ["spd_inverse", "SeededRng"]


def _max_asymmetry(h: np.ndarray, strip: int = 64) -> float:
    """max |h[i, j] - h[j, i]| (NaN if any difference is NaN), from the
    upper-triangle row strips h[i:i+strip, i:] against their transposed
    columns: about half of a full h - h.T, in strip-sized temporaries."""
    n = h.shape[0]
    worst = []
    for i in range(0, n, strip):
        d = h[i : i + strip, i:] - h[i:, i : i + strip].T
        worst += [d.max(), -d.min()]
    return np.max(worst)


def spd_inverse(h: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric positive definite matrix via Cholesky (LAPACK
    potrf, then potri on the factor).

    The full inverse is materialized because the OBS weight update consumes
    its diagonal and upper triangle. Raises NumericalError for non-PD input
    (the caller should add dampening and retry).
    """
    if h.ndim != 2 or h.shape[0] != h.shape[1] or h.size == 0:
        raise ShapeError(f"spd_inverse needs a non-empty square matrix, got {h.shape}")
    asym = _max_asymmetry(h)
    if asym > 1e-9 * max(1.0, h.max(), -h.min()):
        raise ShapeError(f"matrix is not symmetric (max asymmetry {asym:.3e})")
    # h is symmetric, so h.T is the same matrix stored column-major: potrf
    # reads it with no transposing copy
    factor, info = dpotrf(h.T, lower=1, clean=0)
    if info == 0:
        inv, info = dpotri(factor, lower=1, overwrite_c=1)
    if info != 0:
        raise NumericalError(
            "Cholesky factorization failed (matrix not positive definite); "
            "increase dampening"
        )
    # potri fills the lower triangle of its column-major result, which is
    # the upper one of the row-major transpose; mirror it row by row, and
    # adding 0.0 stores every zero as +0.0.
    inv = inv.T
    for i in range(1, h.shape[0]):
        inv[i, :i] = inv[:i, i]
    inv += 0.0
    if not np.isfinite(inv).all():
        raise NumericalError("spd_inverse produced non-finite entries")
    return inv


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
