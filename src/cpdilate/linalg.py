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


class CapExceededError(RuntimeError):
    """A size cap would be passed; raised before the large allocation."""


class CompletionError(RuntimeError):
    """Orthonormal completion could not be carried out to full dimension."""


def dagger(a: Array) -> Array:
    return np.conj(a.T)


def fro(a: Array) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(a))


def vec(a: Array) -> Array:
    return np.asarray(a).reshape(-1, order="F")


def unvec(v: Array, rows: int, cols: int | None = None) -> Array:
    cols = rows if cols is None else cols
    return np.asarray(v).reshape(rows, cols, order="F")


def hermitize(a: Array) -> Array:
    return 0.5 * (a + dagger(a))


def eigh_desc(a: Array) -> tuple[Array, Array]:
    """Hermitian eigendecomposition with eigenvalues in descending order."""
    w, v = np.linalg.eigh(hermitize(a))
    return w[::-1], v[:, ::-1]


def phase_fix(v: Array, tol: float = 1e-12) -> Array:
    """Rotate the global phase so the largest-modulus entry is real positive."""
    i = int(np.argmax(np.abs(v)))
    z = v[i]
    if abs(z) <= tol:
        return v
    return v * (np.conj(z) / abs(z))


def require_finite(a: Array, what: str = "matrix") -> None:
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{what} contains NaN or Inf entries")


def complete_orthonormal(cols: Array, dim: int, tol: float = 1e-7) -> Array:
    """Extend orthonormal columns to an orthonormal basis of C^dim.

    Standard basis vectors are swept in index order through Gram-Schmidt
    (two passes, for stability) and survivors are kept, which makes the
    completion deterministic.
    """
    have = [np.ascontiguousarray(cols[:, j]) for j in range(cols.shape[1])]
    extra: list[Array] = []
    for i in range(dim):
        if len(have) + len(extra) >= dim:
            break
        v = np.zeros(dim, dtype=complex)
        v[i] = 1.0
        for _ in range(2):
            for b in have:
                v = v - b * np.vdot(b, v)
            for b in extra:
                v = v - b * np.vdot(b, v)
        nrm = np.linalg.norm(v)
        if nrm > tol:
            extra.append(v / nrm)
    if len(have) + len(extra) != dim:
        raise CompletionError(
            f"could not complete {len(have)} columns to an orthonormal basis of C^{dim}"
        )
    if not extra:
        return np.zeros((dim, 0), dtype=complex)
    return np.column_stack(extra)


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
