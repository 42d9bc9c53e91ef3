"""Small dense linear-algebra helpers shared across the package.

Vectorization is column-stacking throughout, so vec(A X B) = (B^T tensor A) vec(X).
"""

from __future__ import annotations

import numpy as np

Array = np.ndarray

# Package-wide defaults: predicate tolerance (residuals, CP/unital checks) and
# the threshold below which a matrix entry counts as zero in nonzero patterns.
DEFAULT_TOL = 1e-9
DEFAULT_ZERO_TOL = 1e-12
# Absolute tolerance for the residuals of a built product system or dilation.
DEFAULT_VERIFY_TOL = 1e-8
# phase_fix leaves a vector whose largest entry is at most this in modulus.
PHASE_FLOOR = 1e-12


class CapExceededError(RuntimeError):
    """A size cap would be passed; raised before the large allocation."""


class CompletionError(RuntimeError):
    """Orthonormal completion could not be carried out to full dimension."""


def dagger(a: Array) -> Array:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return np.conj(np.swapaxes(a, -1, -2))


def fro(a: Array) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(a))


def max_block_fro(m: Array, rows: int, size: int) -> float:
    """Largest Frobenius norm among the size x size blocks of a matrix with
    rows * size rows. A (count, size, size) stack is passed as
    m.reshape(-1, size) with rows = count. One reduction over the float
    view, with no squared copy."""
    x = np.ascontiguousarray(m, dtype=complex).view(np.float64).reshape(rows, size, -1, 2 * size)
    return float(np.sqrt(np.einsum("iajb,iajb->ij", x, x).max()))


def vec(a: Array) -> Array:
    return np.asarray(a).reshape(-1, order="F")


def unvec(v: Array, rows: int, cols: int | None = None) -> Array:
    cols = rows if cols is None else cols
    return np.asarray(v).reshape(rows, cols, order="F")


def hermitize(a: Array) -> Array:
    return 0.5 * (a + dagger(a))


def phase_fix(v: Array) -> Array:
    """Rotate the global phase so the largest-modulus entry is real positive."""
    i = int(np.argmax(np.abs(v)))
    z = v[i]
    if abs(z) <= PHASE_FLOOR:
        return v
    return v * (np.conj(z) / abs(z))


def require_finite(a: Array, what: str = "matrix") -> None:
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{what} contains NaN or Inf entries")


def complete_orthonormal(cols: Array, dim: int) -> Array:
    """Extend orthonormal columns to an orthonormal basis of C^dim.

    The completion is the trailing dim - r columns of the complete QR
    factorization of the r given columns, which is deterministic.
    """
    r = cols.shape[1]
    if r > dim:
        raise CompletionError(f"cannot complete {r} columns to an orthonormal basis of C^{dim}")
    q, _ = np.linalg.qr(cols, mode="complete")
    return q[:, r:]


def rotation_taking(v: Array, w: Array) -> Array:
    """Orthogonal map sending unit vector v to unit vector w.

    Acts as the identity on the orthogonal complement of span{v, w}
    (no reflection). Real vectors with <v, w> > -1 only.
    """
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    c = float(v @ w)
    if c <= -1.0 + 1e-12:
        raise ValueError("rotation_taking is undefined for antipodal vectors")
    s = v + w
    return np.eye(v.size) - np.outer(s, s) / (1.0 + c) + 2.0 * np.outer(w, v)
