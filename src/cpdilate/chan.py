"""Completely positive maps on M_n(C): Kraus, Choi and superoperator forms.

Conventions:

* A map acts as a |-> sum_i T_i a T_i^*.
* vec() is column-stacking, so the superoperator is sum_i conj(T_i) tensor T_i
  acting on vec(a).
* The Choi matrix is sum_i vec(T_i) vec(T_i)^* = M M^*, with M the n^2 x L
  matrix of columns vec(T_i); it is PSD exactly when the map is completely
  positive, and it does not depend on the order of the Kraus operators. The
  superoperator is an entry permutation (reshuffle) of the Choi matrix, so
  both are computed from one GEMM and have equal Frobenius distances.
* Two Kraus families are compared in R-coordinates: one thin QR of
  [Ma, Mb - Ma] gives Ma = Q Ra and Mb = Q Rb with one isometry Q, and the
  Choi distance and the equivalence unitary are computed from Ra and Rb,
  (2L) x L matrices, without forming an n^2 x n^2 Choi matrix.
* Unital means sum_i T_i T_i^* = I; contractive means sum_i T_i T_i^* <= I.

Everything here is a pure function over immutable inputs; identical inputs
give identical outputs on one platform.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    Array,
    CompletionError,
    complete_orthonormal,
    dagger,
    fro,
    hermitize,
    phase_fix,
    require_finite,
    unvec,
)

# Structural guard at construction; predicates use the caller's tolerance.
_CONTRACTIVITY_GUARD = 1e-7
# The completed equivalence unitary must be unitary to this before its polar
# projection; a larger residual is a failed construction, not roundoff.
_COMPLETION_GUARD = 1e-6


class DimensionMismatchError(ValueError):
    pass


class NotCompletelyPositiveError(ValueError):
    def __init__(self, eigenvalue: float):
        self.eigenvalue = eigenvalue
        super().__init__(f"Choi matrix has negative eigenvalue {eigenvalue:.3e}")


class NotSameChannelError(ValueError):
    def __init__(self, deviation: float):
        self.deviation = deviation
        super().__init__(f"Kraus families define different maps (Choi deviation {deviation:.3e})")


@dataclass(frozen=True, eq=False)
class KrausFamily:
    """Ordered family of n x n operators presenting a CP map a |-> sum T a T^*,
    held as one read-only (L, n, n) complex stack copied from the input."""

    dim: int
    ops: Array

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be positive")
        if len(self.ops) < 1:
            raise ValueError("a Kraus family needs at least one operator")
        for t in self.ops:
            t = np.asarray(t)
            if t.shape != (self.dim, self.dim):
                raise DimensionMismatchError(
                    f"Kraus operator has shape {t.shape}, expected {(self.dim, self.dim)}"
                )
            require_finite(t, "Kraus operator")
        ops = np.array(self.ops, dtype=complex)
        ops.setflags(write=False)
        object.__setattr__(self, "ops", ops)
        top = float(np.linalg.eigvalsh(hermitize(self.op_sum()))[-1])
        if top > 1.0 + _CONTRACTIVITY_GUARD:
            raise ValueError(f"family is not contractive: lambda_max(sum T T*) = {top:.6f}")

    def __len__(self) -> int:
        return len(self.ops)

    def op_sum(self) -> Array:
        """sum_i T_i T_i^*."""
        return sum(t @ dagger(t) for t in self.ops)

    @cached_property
    def unitality_residual(self) -> float:
        """|| sum_i T_i T_i^* - I ||_F; the map is unital when it is within tol."""
        return fro(hermitize(self.op_sum()) - np.eye(self.dim))


@dataclass(frozen=True)
class ChannelReport:
    is_cp: bool
    is_unital: bool
    is_contractive: bool
    min_choi_eigenvalue: float
    unitality_residual: float
    tol: float


def identity_channel(dim: int) -> KrausFamily:
    return KrausFamily(dim, (np.eye(dim, dtype=complex),))


def conjugation(u: Array) -> KrausFamily:
    """The map a |-> u a u^* for a single operator u."""
    return KrausFamily(len(u), (u,))


def pad(k: KrausFamily, length: int) -> KrausFamily:
    """Pad with zero operators up to the requested length."""
    if length < len(k):
        raise ValueError("cannot pad to a shorter length")
    if length == len(k):
        return k
    z = np.zeros((length - len(k), k.dim, k.dim), dtype=complex)
    return KrausFamily(k.dim, np.concatenate((k.ops, z)))


def _kraus_matrix(ops: Array) -> Array:
    """The n^2 x L matrix M whose i-th column is vec(T_i), for an (L, n, n) stack."""
    d = ops.shape[-1]
    return ops.transpose(1, 2, 0).reshape(d * d, len(ops), order="F")


def kraus_to_choi(k: KrausFamily) -> Array:
    """Choi matrix sum_i vec(T_i) vec(T_i)^* = M M^*; Hermitian PSD by construction."""
    m = _kraus_matrix(k.ops)
    return m @ dagger(m)


def _r_coordinates(ma: Array, mb: Array) -> tuple[Array, Array]:
    """Ra, Rb with Ma = Q Ra and Mb = Q Rb for one isometry Q, from one thin QR
    of [Ma, Mb - Ma] with R = [Ra, Rb - Ra].

    Q preserves inner products, so Choi distances, singular values and right
    singular vectors of Ma and Mb are those of Ra and Rb: (2L) x L matrices, or
    n^2 x L when n^2 <= 2L. For equal inputs the block Mb - Ma is exactly zero,
    Householder reflectors keep it so, and Rb == Ra bit for bit.
    """
    length = ma.shape[1]
    r = np.linalg.qr(np.concatenate((ma, mb - ma), axis=1), mode="r")
    ra = r[:, :length]
    return ra, ra + r[:, length:]


def _choi_distance(ra: Array, rb: Array) -> float:
    """|| Ra Ra^* - Rb Rb^* ||_F, the Choi distance of two Kraus matrices in the
    R-coordinates of _r_coordinates; taken in place, so equal inputs give 0.0."""
    diff = ra @ dagger(ra)
    diff -= rb @ dagger(rb)
    return fro(diff)


def choi_to_kraus(choi: Array, tol: float = DEFAULT_TOL) -> KrausFamily:
    """Kraus family from eigenvectors of a Choi matrix.

    Eigenvalues above tol are kept in descending order, each eigenvector's
    global phase normalized for reproducibility. Any eigenvalue below -tol
    means the map is not completely positive.
    """
    choi = np.asarray(choi, dtype=complex)
    n2 = choi.shape[0]
    n = int(round(np.sqrt(n2)))
    if choi.shape != (n2, n2) or n * n != n2:
        raise DimensionMismatchError(f"Choi matrix shape {choi.shape} is not (n^2, n^2)")
    herm_dev = fro(choi - dagger(choi))
    if herm_dev > tol * max(1.0, fro(choi)):
        raise ValueError(f"Choi matrix is not Hermitian (deviation {herm_dev:.3e})")
    w, v = np.linalg.eigh(hermitize(choi))
    w, v = w[::-1], v[:, ::-1]
    if w[-1] < -tol:
        raise NotCompletelyPositiveError(float(w[-1]))
    ops = [
        unvec(np.sqrt(lam) * phase_fix(v[:, i]), n)
        for i, lam in enumerate(w)
        if lam > tol
    ]
    if not ops:
        ops = [np.zeros((n, n), dtype=complex)]
    return KrausFamily(n, tuple(ops))


def kraus_to_super(k: KrausFamily) -> Array:
    """Superoperator on column-vectorized matrices: sum_i conj(T_i) tensor T_i.

    Computed as the reshuffle of the Choi matrix, which permutes its entries.
    """
    n = k.dim
    choi = kraus_to_choi(k).reshape(n, n, n, n)
    return choi.transpose(3, 1, 2, 0).reshape(n * n, n * n)


def apply_kraus(k: KrausFamily, a: Array) -> Array:
    a = np.asarray(a, dtype=complex)
    if a.shape != (k.dim, k.dim):
        raise DimensionMismatchError(f"argument has shape {a.shape}, expected {(k.dim, k.dim)}")
    return sum(t @ a @ dagger(t) for t in k.ops)


def compose(k1: KrausFamily, k2: KrausFamily) -> KrausFamily:
    """Kraus family of k1 after k2: operators T_i S_j in lexicographic (i, j) order."""
    if k1.dim != k2.dim:
        raise DimensionMismatchError(f"dims {k1.dim} and {k2.dim} differ")
    return KrausFamily(k1.dim, tuple(t @ s for t in k1.ops for s in k2.ops))


def classify(k: KrausFamily, tol: float = DEFAULT_TOL) -> ChannelReport:
    w_min = float(np.linalg.eigvalsh(hermitize(kraus_to_choi(k)))[0])
    lam_max = float(np.linalg.eigvalsh(hermitize(k.op_sum()))[-1])
    return ChannelReport(
        is_cp=w_min >= -tol,
        is_unital=k.unitality_residual <= tol,
        is_contractive=lam_max <= 1.0 + tol,
        min_choi_eigenvalue=w_min,
        unitality_residual=k.unitality_residual,
        tol=tol,
    )


def kraus_equivalence_unitary(
    a: KrausFamily, b: KrausFamily, tol: float = DEFAULT_TOL
) -> Array:
    """L x L unitary u with A_i = sum_j u[i, j] B_j for two families of one map.

    Families are zero-padded to a common length L. Raises NotSameChannelError
    when their Choi matrices differ by more than tol relative to the first
    (floored at 1); the unitary is then built by _equivalence_unitary.
    """
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dims {a.dim} and {b.dim} differ")
    length = max(len(a), len(b))
    ra, rb = _r_coordinates(*(_kraus_matrix(pad(k, length).ops) for k in (a, b)))
    deviation = _choi_distance(ra, rb)
    # ||Ma Ma^*||_F = ||Ra^* Ra||_F, an L x L product.
    if deviation > tol * max(1.0, fro(dagger(ra) @ ra)):
        raise NotSameChannelError(deviation)
    return _equivalence_unitary(ra, rb, tol)


def _equivalence_unitary(ra: Array, rb: Array, tol: float) -> Array:
    """Unitary u with Ma = Mb u^T for two Kraus matrices of one map, from their
    R-coordinates (_r_coordinates). Ma = Mb u^T holds exactly when Ra = Rb u^T,
    so the SVDs act on (2L) x L matrices, or n^2 x L when n^2 <= 2L.

    The relation is consistent exactly when both present one map. On the
    support, u^T is the orthogonal-Procrustes solution, the polar factor of
    Rb_r^* Ra (Rb_r the rank-r truncation of Rb): no unitary gives a smaller
    residual, and it is unitary to machine precision. The kernel parts are
    joined by deterministic orthonormal completions. Singular values at or
    below sqrt(tol) (the Choi-eigenvalue cutoff) count as kernel.

    The least-squares solution, completed the same way, is unitary only to
    roundoff times the condition number of Rb_r; it serves as the check
    that the completion succeeded.
    """
    length = ra.shape[1]
    _, sa, vah = np.linalg.svd(ra, full_matrices=False)
    wb, sb, vbh = np.linalg.svd(rb, full_matrices=False)
    cut = np.sqrt(tol) * max(1.0, float(sa[0]))
    rank = int(np.sum(sb > cut))
    coef = dagger(wb[:, :rank]) @ ra
    u = (dagger(vbh[:rank]) @ (coef / sb[:rank, None])).T
    cross = (dagger(vbh[:rank]) @ (coef * sb[:rank, None])).T
    if rank < length:
        # Operator-coefficient supports are spanned by conj(right singular vectors).
        pa = complete_orthonormal(vah[:rank].T, length)
        pb = complete_orthonormal(vbh[:rank].T, length)
        u = u + pa @ dagger(pb)
        cross = cross + pa @ dagger(pb)
    unitarity = fro(dagger(u) @ u - np.eye(length))
    if unitarity > _COMPLETION_GUARD:
        raise CompletionError(f"unitary completion failed (residual {unitarity:.3e})")
    w, _, vh = np.linalg.svd(cross)
    return w @ vh


# ---------------------------------------------------------------------------
# JSON encoding: complex scalar = [re, im]; matrix = array of rows;
# channel = {"dim": n, "kraus": [matrix, ...]} or {"dim": n, "choi": matrix}.
# ---------------------------------------------------------------------------


def matrix_to_json(a: Array) -> list:
    a = np.asarray(a, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in a]


_JSON_NUMBERS = (int, float)  # exact types, so JSON true/false are not numbers


def matrix_from_json(obj: list) -> Array:
    if type(obj) is not list or not all(type(row) is list for row in obj):
        raise ValueError("a matrix must be a list of rows")
    rows = []
    for row in obj:
        r = []
        for entry in row:
            kind = type(entry)
            if kind in _JSON_NUMBERS:
                r.append(complex(entry))
            elif (
                kind is list
                and len(entry) == 2
                and type(entry[0]) in _JSON_NUMBERS
                and type(entry[1]) in _JSON_NUMBERS
            ):
                r.append(complex(entry[0], entry[1]))
            else:
                raise ValueError(f"matrix entry {entry!r} is neither a number nor a [re, im] pair")
        rows.append(r)
    out = np.array(rows, dtype=complex)
    require_finite(out, "matrix")
    return out


def channel_to_json(k: KrausFamily) -> dict:
    return {"dim": k.dim, "kraus": [matrix_to_json(t) for t in k.ops]}


def channel_from_json(d: dict, tol: float = DEFAULT_TOL) -> KrausFamily:
    dim = d.get("dim")
    if isinstance(dim, bool) or not isinstance(dim, int):
        raise ValueError(f"channel JSON needs an integer 'dim' field, got {dim!r}")
    if "kraus" in d:
        if not isinstance(d["kraus"], list):
            raise ValueError("'kraus' must be a list of matrices")
        ops = tuple(matrix_from_json(m) for m in d["kraus"])
        fam = KrausFamily(dim, ops)
    elif "choi" in d:
        fam = choi_to_kraus(matrix_from_json(d["choi"]), tol)
        if fam.dim != dim:
            raise DimensionMismatchError("'dim' does not match the Choi matrix size")
    else:
        raise ValueError("channel JSON needs a 'kraus' or 'choi' field")
    return fam
