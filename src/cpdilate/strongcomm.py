"""Strong-commutation certificates for commuting CP-map pairs on M_n(C).

A pair Theta, Phi with Kraus families {T_i} (length m) and {S_j} (length n)
commutes strongly exactly when there is an mn x mn unitary u with

    T_i S_j = sum_{(p,q)} u[(i,j),(p,q)] S_q T_p ,

rows indexed by (i, j) and columns by (p, q), both flattened lexicographically.
On a finite-dimensional space every commuting pair admits such a unitary; it
is found here by relating the two composite Kraus families of the (equal) maps
Theta∘Phi and Phi∘Theta through their common Choi eigenbasis.

The products T_i S_j and S_q T_p are stacked once, one batched matmul each.
With L = mn, their n^2 x L Kraus matrices Ma and Mb enter one thin QR of
[Ma, Mb - Ma], which writes Ma = Q Ra and Mb = Q Rb for one isometry Q (see
chan._r_coordinates). Commutation is the Frobenius distance of the Choi
matrices (the superoperator distance), || Ra Ra^* - Rb Rb^* ||_F, with no
n^2 x n^2 matrix formed: O(n^2 L^2) work instead of O(n^4 L). u is solved
from SVDs of Ra and Rb, (2L) x L matrices instead of n^2 x L ones. The
intertwining residual is taken on the original stacks, every row's sum over
(p, q) in one GEMM.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chan import (
    DEFAULT_TOL,
    DimensionMismatchError,
    KrausFamily,
    _choi_distance,
    _equivalence_unitary,
    _kraus_matrix,
    _r_coordinates,
)
from .linalg import Array, dagger, fro

# A constructed certificate is refused when a residual passes
# max(100 * tol, CERTIFICATE_FLOOR).
CERTIFICATE_FLOOR = 1e-7


class NonCommutingError(ValueError):
    pass


class CertificateError(RuntimeError):
    pass


@dataclass(frozen=True)
class CommutationReport:
    commute: bool
    residual: float
    tol: float


@dataclass(frozen=True, eq=False)
class StrongCommutationCertificate:
    """Unitary witness u for strong commutation, with its residuals.

    m and n are the Kraus lengths of Theta and Phi; u is mn x mn with the
    index convention u[(i,j), (p,q)] -> i*n + j rows, p*n + q columns.
    """

    m: int
    n: int
    u: Array
    unitarity_residual: float
    intertwining_residual: float


@dataclass(frozen=True)
class CertificateCheck:
    passed: bool
    unitarity_residual: float
    intertwining_residual: float
    tol: float


def _products(theta: KrausFamily, phi: KrausFamily) -> tuple[Array, Array]:
    """Stacks of T_i S_j at flat index i*n + j and S_q T_p at p*n + q (certificate rows and columns)."""
    if theta.dim != phi.dim:
        raise DimensionMismatchError(f"dims {theta.dim} and {phi.dim} differ")
    t, s = theta.ops[:, None], phi.ops[None, :]
    d = theta.dim
    return (t @ s).reshape(-1, d, d), (s @ t).reshape(-1, d, d)


def _commutation_coordinates(left: Array, right: Array, m: int) -> tuple[float, Array, Array]:
    """Choi distance of Theta∘Phi and Phi∘Theta, with the R-coordinates Ra, Rb
    of their Kraus matrices from one thin QR (chan._r_coordinates).

    The S_q T_p stack is compared in compose's (q, p) order, so a map against
    itself gives two identical Kraus matrices and exactly 0.0. Rb is returned
    with its columns in the certificate's (p, q) order.
    """
    d = left.shape[-1]
    swapped = right.reshape(m, -1, d, d).swapaxes(0, 1).reshape(-1, d, d)
    ra, rb = _r_coordinates(_kraus_matrix(left), _kraus_matrix(swapped))
    rows = len(rb)
    return _choi_distance(ra, rb), ra, rb.reshape(rows, -1, m).swapaxes(1, 2).reshape(rows, -1)


def check_commute(theta: KrausFamily, phi: KrausFamily, tol: float = DEFAULT_TOL) -> CommutationReport:
    """Choi distance of Theta∘Phi and Phi∘Theta, equal to their superoperator distance."""
    residual, _, _ = _commutation_coordinates(*_products(theta, phi), len(theta))
    return CommutationReport(commute=residual <= tol, residual=residual, tol=tol)


def _max_row_residual(left: Array, right: Array, u: Array) -> float:
    mn = left.shape[0]
    diff = left.reshape(mn, -1) - u @ right.reshape(mn, -1)
    return float(np.max(np.linalg.norm(diff, axis=1)))


def intertwining_residual(theta: KrausFamily, phi: KrausFamily, u: Array) -> float:
    """max over (i,j) of || T_i S_j - sum_{(p,q)} u[(i,j),(p,q)] S_q T_p ||_F.

    Both product stacks are recomputed from the families; the sums over (p,q)
    for all rows are one (mn x mn)(mn x n^2) GEMM.
    """
    m, n = len(theta), len(phi)
    if u.shape != (m * n, m * n):
        raise DimensionMismatchError(f"certificate has shape {u.shape}, expected {(m * n, m * n)}")
    return _max_row_residual(*_products(theta, phi), u)


def strong_commutation_certificate(
    theta: KrausFamily, phi: KrausFamily, tol: float = DEFAULT_TOL
) -> StrongCommutationCertificate:
    """Produce the unitary witness for a commuting pair.

    Raises NonCommutingError when the pair does not commute within tol, and
    CertificateError if the numeric construction leaves a large residual
    (which would indicate a bug, not a mathematical obstruction).
    """
    m, n = len(theta), len(phi)
    left, right = _products(theta, phi)
    residual, ra, rb = _commutation_coordinates(left, right, m)
    if not residual <= tol:
        raise NonCommutingError(f"maps do not commute (superoperator residual {residual:.3e})")
    # The absolute commutation bound implies kraus_equivalence_unitary's
    # same-map check (equal deviation, scale >= 1), so the core is called directly.
    u = _equivalence_unitary(ra, rb, tol)
    unit = fro(dagger(u) @ u - np.eye(m * n))
    intw = _max_row_residual(left, right, u)
    if max(unit, intw) > max(100 * tol, CERTIFICATE_FLOOR):
        raise CertificateError(
            f"certificate construction failed (unitarity {unit:.3e}, intertwining {intw:.3e})"
        )
    return StrongCommutationCertificate(
        m=m, n=n, u=u, unitarity_residual=unit, intertwining_residual=intw
    )


def verify_certificate(
    theta: KrausFamily,
    phi: KrausFamily,
    cert: StrongCommutationCertificate,
    tol: float = DEFAULT_TOL,
) -> CertificateCheck:
    """Recompute both residual fields from scratch; pass iff both are within tol.

    Only cert.u is read: the product stacks are rebuilt from theta and phi.
    """
    intw = intertwining_residual(theta, phi, cert.u)  # checks the shape of u first
    unit = fro(dagger(cert.u) @ cert.u - np.eye(len(cert.u)))
    return CertificateCheck(
        passed=unit <= tol and intw <= tol,
        unitarity_residual=unit,
        intertwining_residual=intw,
        tol=tol,
    )
