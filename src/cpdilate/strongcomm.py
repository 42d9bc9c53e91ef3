"""Strong-commutation certificates for commuting CP-map pairs on M_n(C).

A pair Theta, Phi with Kraus families {T_i} (length m) and {S_j} (length n)
commutes strongly exactly when there is an mn x mn unitary u with

    T_i S_j = sum_{(p,q)} u[(i,j),(p,q)] S_q T_p ,

rows indexed by (i, j) and columns by (p, q), both flattened lexicographically.
On a finite-dimensional space every commuting pair admits such a unitary; it
is found here by relating the two composite Kraus families of the (equal) maps
Theta∘Phi and Phi∘Theta through their common Choi eigenbasis.

Commutation is tested as the Frobenius distance of the two composite Choi
matrices, which equals the superoperator distance. The intertwining residual
stacks the products T_i S_j and S_q T_p with one batched matmul each and
forms every row's sum over (p, q) in one GEMM.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chan import (
    DEFAULT_TOL,
    DimensionMismatchError,
    KrausFamily,
    compose,
    kraus_equivalence_unitary,
    kraus_to_choi,
)
from .linalg import Array, dagger, fro


class NonCommutingError(ValueError):
    pass


class CertificateError(RuntimeError):
    pass


@dataclass(frozen=True)
class CommutationReport:
    commute: bool
    residual: float
    tol: float


@dataclass(frozen=True)
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


def check_commute(theta: KrausFamily, phi: KrausFamily, tol: float = DEFAULT_TOL) -> CommutationReport:
    """Frobenius distance of the Choi matrices of Theta∘Phi and Phi∘Theta.

    The superoperator is an entry reshuffle of the Choi matrix, so this equals
    the superoperator distance; no n^2 x n^2 matrix is formed per operator.
    """
    if theta.dim != phi.dim:
        raise DimensionMismatchError(f"dims {theta.dim} and {phi.dim} differ")
    diff = kraus_to_choi(compose(theta, phi))
    diff -= kraus_to_choi(compose(phi, theta))
    residual = fro(diff)
    return CommutationReport(commute=residual <= tol, residual=residual, tol=tol)


def _products(theta: KrausFamily, phi: KrausFamily) -> tuple[Array, Array]:
    """Stacks of T_i S_j at flat index i*n + j and S_q T_p at p*n + q (certificate rows and columns)."""
    t = np.stack(theta.ops)[:, None]
    s = np.stack(phi.ops)[None, :]
    d = theta.dim
    return (t @ s).reshape(-1, d, d), (s @ t).reshape(-1, d, d)


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
    rep = check_commute(theta, phi, tol)
    if not rep.commute:
        raise NonCommutingError(
            f"maps do not commute (superoperator residual {rep.residual:.3e})"
        )
    left, right = _products(theta, phi)
    d = theta.dim
    u = kraus_equivalence_unitary(KrausFamily(d, tuple(left)), KrausFamily(d, tuple(right)), tol)
    m, n = len(theta), len(phi)
    unit = fro(dagger(u) @ u - np.eye(m * n))
    intw = _max_row_residual(left, right, u)
    if max(unit, intw) > max(100 * tol, 1e-7):
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
    m, n = len(theta), len(phi)
    if cert.u.shape != (m * n, m * n):
        raise DimensionMismatchError(
            f"certificate is {cert.u.shape}, families give mn = {m * n}"
        )
    unit = fro(dagger(cert.u) @ cert.u - np.eye(m * n))
    intw = intertwining_residual(theta, phi, cert.u)
    return CertificateCheck(
        passed=unit <= tol and intw <= tol,
        unitarity_residual=unit,
        intertwining_residual=intw,
        tol=tol,
    )
