"""Stochastic matrices as unital CP maps on the diagonal algebra.

A row-stochastic P acts on diagonal matrices, and a pair P, Q commutes
strongly exactly when PQ = QP and, for every (i, k), the nonzero-pattern
counts

    |{j : q_kj p_ji != 0}|  and  |{j : p_kj q_ji != 0}|

agree. When they do, an explicit block intertwiner can be written down; when
they do not, the failing (i, k) pairs are witnesses. Semigroups e^{t(P - I)}
of irreducible generators are strictly positive for t > 0, so they commute
strongly whenever the generators commute.

Counting nonzeros is discontinuous: an entry is treated as zero iff it is
<= zero_tol, and entries within a decade of zero_tol are flagged so reports
can warn about borderline patterns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_TOL, DEFAULT_ZERO_TOL, Array, fro, require_finite, rotation_taking


class NoIntertwinerError(ValueError):
    def __init__(self, witnesses):
        self.witnesses = witnesses
        super().__init__(f"pattern-count criterion fails at (i, k) pairs {witnesses}")


@dataclass(frozen=True)
class CardReport:
    holds: bool
    witnesses: tuple[tuple[int, int, int, int], ...]  # (i, k, count_qp, count_pq)
    zero_tol: float
    near_zero_entries: tuple[tuple[str, int, int, float], ...]


@dataclass(frozen=True)
class DiagonalCommutationReport:
    strongly_commute: bool
    commute: bool
    commutation_residual: float
    card: CardReport
    tol: float


@dataclass(frozen=True, eq=False)
class IntertwinerBlock:
    domain_js: tuple[int, ...]
    codomain_js: tuple[int, ...]
    matrix: Array


@dataclass(frozen=True, eq=False)
class DiagonalIntertwiner:
    n: int
    blocks: dict
    unitarity_residual: float
    distinguished_residual: float


def _as_square(p) -> Array:
    p = np.asarray(p, dtype=float)
    if p.ndim != 2 or p.shape[0] != p.shape[1] or p.size == 0:
        raise ValueError(f"expected a nonempty square matrix, got shape {p.shape}")
    return p


def validate(p, tol: float = DEFAULT_TOL) -> bool:
    """True iff every row sums to 1 within tol. Non-finite or negative entries
    are an error."""
    p = _as_square(p)
    require_finite(p, "stochastic matrix")
    neg = np.argwhere(p < -tol)
    if neg.size:
        spots = [(int(i), int(j), float(p[i, j])) for i, j in neg[:8]]
        raise ValueError(f"negative entries at {spots}")
    return bool(np.all(np.abs(p.sum(axis=1) - 1.0) <= tol))


def _near_zero(name: str, p: Array, zero_tol: float):
    idx = np.argwhere((p > zero_tol) & (p <= 10 * zero_tol))
    return [(name, int(i), int(j), float(p[i, j])) for i, j in idx]


def card_criterion(p, q, zero_tol: float = DEFAULT_ZERO_TOL) -> CardReport:
    """Compare nonzero-pattern counts for every (i, k); list every failure."""
    p, q = _as_square(p), _as_square(q)
    if p.shape != q.shape:
        raise ValueError(f"shapes {p.shape} and {q.shape} differ")
    bp = (p > zero_tol).astype(int)
    bq = (q > zero_tol).astype(int)
    count_qp = bq @ bp  # [k, i] = |{j : q_kj != 0 and p_ji != 0}|
    count_pq = bp @ bq
    witnesses = [
        (int(i), int(k), int(count_qp[k, i]), int(count_pq[k, i]))
        for i in range(p.shape[0])
        for k in range(p.shape[0])
        if count_qp[k, i] != count_pq[k, i]
    ]
    near = tuple(_near_zero("P", p, zero_tol) + _near_zero("Q", q, zero_tol))
    return CardReport(
        holds=not witnesses,
        witnesses=tuple(witnesses),
        zero_tol=zero_tol,
        near_zero_entries=near,
    )


def strongly_commute_diagonal(
    p,
    q,
    tol: float = DEFAULT_TOL,
    zero_tol: float = DEFAULT_ZERO_TOL,
) -> DiagonalCommutationReport:
    """Strong commutation on the diagonal algebra: PQ = QP plus the count criterion."""
    p, q = _as_square(p), _as_square(q)
    if p.shape != q.shape:
        raise ValueError(f"shapes {p.shape} and {q.shape} differ")
    residual = fro(p @ q - q @ p)
    commute = residual <= tol
    card = card_criterion(p, q, zero_tol)
    return DiagonalCommutationReport(
        strongly_commute=commute and card.holds,
        commute=commute,
        commutation_residual=residual,
        card=card,
        tol=tol,
    )


def _expm(a: Array) -> Array:
    """Matrix exponential by scaling-and-squaring with a truncated series."""
    nrm = float(np.linalg.norm(a, 1))
    squarings = max(0, int(np.ceil(np.log2(nrm / 0.5)))) if nrm > 0.5 else 0
    x = a / (2.0**squarings)
    acc = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    for j in range(1, 40):
        term = term @ x / j
        acc = acc + term
        if float(np.linalg.norm(term, 1)) < 1e-18 * max(1.0, float(np.linalg.norm(acc, 1))):
            break
    for _ in range(squarings):
        acc = acc @ acc
    return acc


# Largest t ||P - I||_1 that semigroup_at takes. Each squaring doubles the
# roundoff in the row sums, which past this would drift from 1 by over 1e-9.
SEMIGROUP_REACH = 1e6


def semigroup_at(p, t: float) -> Array:
    """e^{t(P - I)}, stochastic for stochastic P and t >= 0; formed directly,
    so that no factor e^{-t} or e^{tP} under- or overflows."""
    q = _as_square(p) - np.eye(len(p))
    if not (t >= 0 and t * float(np.linalg.norm(q, 1)) <= SEMIGROUP_REACH):
        raise ValueError(f"t = {t} is not in [0, {SEMIGROUP_REACH:g} / ||P - I||_1]")
    return _expm(t * q)


def is_irreducible(p, zero_tol: float = DEFAULT_ZERO_TOL) -> bool:
    """Strong connectivity of the digraph with an edge i -> j iff p_ij > zero_tol."""
    p = _as_square(p)
    adj = p > zero_tol

    def reaches_all(a: Array) -> bool:
        n = a.shape[0]
        seen = np.zeros(n, dtype=bool)
        stack = [0]
        seen[0] = True
        while stack:
            i = stack.pop()
            for j in np.nonzero(a[i])[0]:
                if not seen[j]:
                    seen[j] = True
                    stack.append(int(j))
        return bool(seen.all())

    return reaches_all(adj) and reaches_all(adj.T)


def build_diagonal_intertwiner(
    p,
    q,
    tol: float = DEFAULT_TOL,
    zero_tol: float = DEFAULT_ZERO_TOL,
) -> DiagonalIntertwiner:
    """Blockwise unitary witnessing strong commutation of a diagonal pair.

    For each (i, k) the domain block carries the orthonormal basis
    (q_kj p_ji)^{-1/2} e_i x e_j x e_k over j with q_kj p_ji != 0, and the
    distinguished vector e_i x 1 x e_k has coordinates sqrt(q_kj p_ji) there
    (squared norm (QP)_ki). The block sends it to its counterpart (squared
    norm (PQ)_ki, equal by commutation) by the rotation in their common
    2-plane, completed by the identity, so verification reduces to checking
    the distinguished vectors map across and each block is unitary.
    """
    report = strongly_commute_diagonal(p, q, tol, zero_tol)
    if not report.card.holds:
        raise NoIntertwinerError([(i, k) for (i, k, _, _) in report.card.witnesses])
    if not report.commute:
        raise ValueError(
            f"matrices do not commute (residual {report.commutation_residual:.3e})"
        )
    p, q = _as_square(p), _as_square(q)
    n = p.shape[0]
    blocks = {}
    worst_unit = 0.0
    worst_dist = 0.0
    for i in range(n):
        for k in range(n):
            # Same per-entry zero rule as card_criterion, so block sizes match.
            dom = [j for j in range(n) if q[k, j] > zero_tol and p[j, i] > zero_tol]
            cod = [j for j in range(n) if p[k, j] > zero_tol and q[j, i] > zero_tol]
            if not dom:
                blocks[(i, k)] = IntertwinerBlock((), (), np.zeros((0, 0)))
                continue
            v0 = np.sqrt([q[k, j] * p[j, i] for j in dom])
            w0 = np.sqrt([p[k, j] * q[j, i] for j in cod])
            v0 = v0 / np.linalg.norm(v0)
            w0 = w0 / np.linalg.norm(w0)
            u = rotation_taking(v0, w0)
            blocks[(i, k)] = IntertwinerBlock(tuple(dom), tuple(cod), u)
            worst_unit = max(worst_unit, fro(u.T @ u - np.eye(len(dom))))
            worst_dist = max(worst_dist, float(np.linalg.norm(u @ v0 - w0)))
    return DiagonalIntertwiner(
        n=n,
        blocks=blocks,
        unitarity_residual=worst_unit,
        distinguished_residual=worst_dist,
    )
