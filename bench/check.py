"""Independent output checks, recomputed from the definitions in plain numpy.

Nothing here imports cpdilate. Each check takes the program's outputs as
arrays and recomputes the identity they must satisfy, so a defect in the
library's own verify functions cannot hide a wrong result.
"""

from __future__ import annotations

import numpy as np

# Residuals are relative to the size of the recomputed quantity; the library
# verifies at 1e-8 absolute on matrix units, and correct results sit near 1e-13.
CHECK_TOL = 1e-8


def certificate_residual(t_ops, s_ops, u) -> float:
    """Worst of ||u*u - I||_F and max_(i,j) ||T_i S_j - sum_(p,q) u[(i,j),(p,q)] S_q T_p||_F.

    Rows of u are indexed i*k + j and columns p*k + q, as in the certificate.
    """
    t = np.asarray(t_ops, dtype=complex)
    s = np.asarray(s_ops, dtype=complex)
    u = np.asarray(u, dtype=complex)
    mk, n = len(t) * len(s), t.shape[1]
    if u.shape != (mk, mk):
        return float("inf")
    left = np.einsum("iab,jbc->ijac", t, s).reshape(mk, n, n)
    right = np.einsum("qab,pbc->pqac", s, t).reshape(mk, n, n)
    recon = np.einsum("rc,cab->rab", u, right)
    intertwining = np.linalg.norm((left - recon).reshape(mk, -1), axis=1).max()
    unitarity = np.linalg.norm(u.conj().T @ u - np.eye(mk))
    return float(max(intertwining, unitarity))


def _apply(kraus: np.ndarray, x: np.ndarray, times: int) -> np.ndarray:
    for _ in range(times):
        x = (kraus @ x @ kraus.conj().transpose(0, 2, 1)).sum(axis=0)
    return x


def dilation_residual(t_ops, s_ops, embed, v_words: dict, rng: np.random.Generator) -> float:
    """max over g = (a, b) of ||Theta^a Phi^b(x) - E* alpha_g(E x E*) E||_F / ||x||_F.

    v_words maps (a, b) to the stacked operators V_g(e_w) on K, one per fiber
    word, so alpha_g(y) = sum_w V_g(e_w) y V_g(e_w)*; E is the embedding of H
    into K and x is a fresh random matrix for each g.
    """
    t = np.asarray(t_ops, dtype=complex)
    s = np.asarray(s_ops, dtype=complex)
    e = np.asarray(embed, dtype=complex)
    n = t.shape[1]
    worst = 0.0
    for (a, b), words in sorted(v_words.items()):
        v = np.asarray(words, dtype=complex)
        x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        lhs = _apply(t, _apply(s, x, b), a)
        alpha = (v @ (e @ x @ e.conj().T) @ v.conj().transpose(0, 2, 1)).sum(axis=0)
        rhs = e.conj().T @ alpha @ e
        worst = max(worst, float(np.linalg.norm(lhs - rhs) / np.linalg.norm(x)))
    return worst


def expected_dim_k(n: int, m: int, k: int, horizon: tuple[int, int]) -> int:
    """dim K = dim X(horizon) * n = m^a k^b n for a unital pair."""
    return m ** horizon[0] * k ** horizon[1] * n
