"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import dataclasses
import time

import numpy as np

from cpdilate.chan import KrausFamily, identity_channel
from cpdilate.dilation import (
    build_big_space,
    build_dilation_space,
    lift_operators,
    minimality_check,
    verify_e_dilation,
)
from cpdilate.linalg import dagger
from cpdilate.prodsys import (
    GridPoint,
    build_product_system,
    flip_from_certificate,
    grid_points,
    verify_representation,
)
from cpdilate.stochastic import (
    is_irreducible,
    semigroup_at,
    strongly_commute_diagonal,
)
from cpdilate.strongcomm import (
    StrongCommutationCertificate,
    strong_commutation_certificate,
    verify_certificate,
)

from conftest import PAULI_X, PAULI_Z, CommutingFamily, corner_collapse_channel, mix_of_unitaries, random_unitary

J3 = np.full((3, 3), 1.0 / 3.0)
Q3 = np.array([[0.5, 0.0, 0.5], [0.25, 0.5, 0.25], [0.25, 0.5, 0.25]])

HORIZON = GridPoint(3, 3)
MARGIN = GridPoint(1, 1)


def _report(num: int, ok: bool, elapsed: float, detail: str, bound: float | None = None):
    status = "PASS" if ok else "FAIL"
    budget = f", budget {bound:g}s" if bound is not None else ""
    print(f"[criterion {num}] {status} ({elapsed:.2f}s{budget}) {detail}")
    assert ok, f"criterion {num}: {detail}"
    if bound is not None:
        assert elapsed < bound, f"criterion {num} exceeded its runtime bound ({elapsed:.2f}s)"


def _random_irreducible_stochastic(n, rng):
    while True:
        m = rng.uniform(0.1, 1.0, size=(n, n))
        idx = rng.choice(n * n, size=n, replace=False)
        m.flat[idx] = 0.0
        m[m.sum(axis=1) == 0, 0] = 1.0
        m = m / m.sum(axis=1, keepdims=True)
        if is_irreducible(m):
            return m


def _certified_pairs(rng, count=20):
    """Commuting CP pairs on M_2 / M_3 built from one commuting unitary family."""
    pairs = []
    for idx in range(count):
        n = 2 if idx % 2 == 0 else 3
        family = CommutingFamily(n, rng)
        kind = idx % 4
        if kind == 0:  # commuting endomorphisms
            theta = KrausFamily(n, (family.member(),))
            phi = KrausFamily(n, (family.member(),))
        elif kind == 1:  # convex mixes with shared eigenstructure
            theta = mix_of_unitaries(family, 2)
            phi = mix_of_unitaries(family, 2)
        elif kind == 2:  # theta and theta composed with a commuting automorphism
            theta = mix_of_unitaries(family, 2)
            alpha = family.member()
            phi = KrausFamily(n, tuple(t @ alpha for t in theta.ops))
        else:  # mix against a single conjugation
            theta = mix_of_unitaries(family, 2)
            phi = KrausFamily(n, (family.member(),))
        pairs.append((theta, phi))
    return pairs


def _dilation_suite(rng):
    """Identity, Z/X, the corner-collapse pair, plus five random CP0 pairs on M_2."""
    suite = [
        ("identity", identity_channel(2), identity_channel(2)),
        ("zx", KrausFamily(2, (PAULI_Z,)), KrausFamily(2, (PAULI_X,))),
        ("corner", corner_collapse_channel(), identity_channel(2)),
    ]
    for idx in range(5):
        family = CommutingFamily(2, rng)
        if idx % 2 == 0:
            theta = mix_of_unitaries(family, 2)
            phi = KrausFamily(2, (family.member(),))
        else:
            theta = KrausFamily(2, (family.member(),))
            phi = mix_of_unitaries(family, 2)
        suite.append((f"random{idx}", theta, phi))
    return suite


def _pipeline(theta, phi, horizon=HORIZON, margin=MARGIN):
    cert = strong_commutation_certificate(theta, phi)
    sys_ = build_product_system(theta, phi, cert)
    big, sys_ = build_big_space(sys_, horizon)
    dsp = build_dilation_space(big, sys_, margin)
    res = lift_operators(dsp, sys_)
    return sys_, dsp, res


def test_criterion_1_paper_stochastic_example():
    start = time.perf_counter()
    rep = strongly_commute_diagonal(J3, Q3, tol=1e-12)
    witness_ok = (0, 0, 2, 3) in rep.card.witnesses
    ok = (
        rep.commute
        and rep.commutation_residual <= 1e-12
        and not rep.card.holds
        and witness_ok
        and not rep.strongly_commute
    )
    elapsed = time.perf_counter() - start
    _report(
        1,
        ok,
        elapsed,
        f"commute residual {rep.commutation_residual:.1e}, witness (0,0) counts 2 vs 3, "
        f"strongly_commute={rep.strongly_commute}",
        bound=1.0,
    )


def test_criterion_2_irreducible_semigroups():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    ok = True
    detail = []
    for _ in range(5):
        p = _random_irreducible_stochastic(4, rng)
        coef = rng.dirichlet(np.ones(3))
        q = coef[0] * np.eye(4) + coef[1] * p + coef[2] * (p @ p)
        for t in (0.1, 0.5, 1.0, 2.0):
            for s in (0.1, 0.5, 1.0, 2.0):
                pt, qs = semigroup_at(p, t), semigroup_at(q, s)
                rep = strongly_commute_diagonal(pt, qs, tol=1e-8)
                positive = float(min(pt.min(), qs.min())) > 0.0
                if not (positive and rep.commute and rep.card.holds):
                    ok = False
                    detail.append(f"failed at t={t}, s={s}")
    elapsed = time.perf_counter() - start
    _report(2, ok, elapsed, "; ".join(detail) or "5 pairs x 16 grid times all strongly commute", bound=5.0)


def test_criterion_3_finite_dimensional_certificates():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    pairs = _certified_pairs(rng, 20)
    worst = 0.0
    for theta, phi in pairs:
        cert = strong_commutation_certificate(theta, phi)
        worst = max(worst, cert.unitarity_residual, cert.intertwining_residual)
    elapsed = time.perf_counter() - start
    _report(3, worst <= 1e-8, elapsed, f"20 certificates, worst residual {worst:.2e}", bound=10.0)


def test_criterion_4_representation_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    pairs = _certified_pairs(rng, 20)
    worst = 0.0
    for theta, phi in pairs:
        cert = strong_commutation_certificate(theta, phi)
        sys_ = build_product_system(theta, phi, cert)
        rep = verify_representation(sys_, HORIZON, tol=1e-8)
        assert rep.unital
        worst = max(
            worst,
            rep.identity_residual,
            rep.homomorphism_residual,
            rep.coisometry_residual,
        )
    elapsed = time.perf_counter() - start
    _report(4, worst <= 1e-8, elapsed, f"horizon (3,3), worst residual {worst:.2e}")


def test_criterion_5_dilation_pipeline():
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    worst = 0.0
    min_gram = 0.0
    min_p = 0.0
    for name, theta, phi in _dilation_suite(rng):
        _, dsp, res = _pipeline(theta, phi)
        rep = verify_e_dilation(res, theta, phi, MARGIN, tol=1e-8)
        worst = max(
            worst,
            rep.isometry_residual,
            rep.coisometry_residual,
            rep.dilation_residual,
            rep.semigroup_residual,
            rep.multiplicativity_residual,
        )
        min_gram = min(min_gram, rep.gram_min_eig)
        min_p = min(min_p, rep.p_increase_min_eig)
        assert rep.passed, name
    ok = worst <= 1e-8 and min_gram >= -1e-10 and min_p >= -1e-10
    elapsed = time.perf_counter() - start
    _report(
        5,
        ok,
        elapsed,
        f"8 pipelines at (3,3)/(1,1): worst residual {worst:.2e}, "
        f"gram min eig {min_gram:.1e}, alpha(p)-p floor {min_p:.1e}",
        bound=60.0,
    )


def test_criterion_6_minimality_and_full_algebra():
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    details = []
    ok = True
    for name, theta, phi in _dilation_suite(rng):
        _, dsp, res = _pipeline(theta, phi)
        rep = minimality_check(res)
        if not (rep.span_full and rep.commutant_dim == 1):
            ok = False
            details.append(
                f"{name}: span {rep.span_dim}/{rep.dim_k}, commutant {rep.commutant_dim}"
            )
    elapsed = time.perf_counter() - start
    _report(6, ok, elapsed, "; ".join(details) or "span reaches dimK and commutant is scalar, all 8", bound=60.0)


def test_criterion_7_negative_control():
    start = time.perf_counter()
    theta, phi = corner_collapse_channel(), identity_channel(2)
    fake_u = random_unitary(2, np.random.default_rng(11))
    fake = StrongCommutationCertificate(
        m=2, n=1, u=fake_u, unitarity_residual=0.0, intertwining_residual=0.0
    )
    chk = verify_certificate(theta, phi, fake)
    sys_ = dataclasses.replace(
        build_product_system(theta, phi, strong_commutation_certificate(theta, phi)),
        flip=flip_from_certificate(fake.u, fake.m, fake.n),
    )
    rep = verify_representation(sys_, GridPoint(2, 2))
    ok = chk.intertwining_residual > 1e-3 and rep.homomorphism_residual > 1e-3
    elapsed = time.perf_counter() - start
    _report(
        7,
        ok,
        elapsed,
        f"fake certificate: intertwining residual {chk.intertwining_residual:.2e}, "
        f"homomorphism residual {rep.homomorphism_residual:.2e} (> 1e-3)",
    )


def test_criterion_8_endomorphic_pairs_dilate_to_themselves():
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    pairs = [(KrausFamily(2, (PAULI_Z,)), KrausFamily(2, (PAULI_X,)))]
    for n in (2, 3):
        family = CommutingFamily(n, rng)
        pairs.append((KrausFamily(n, (family.member(),)), KrausFamily(n, (family.member(),))))
    worst = 0.0
    ok = True
    for theta, phi in pairs:
        n = theta.dim
        _, dsp, res = _pipeline(theta, phi, horizon=GridPoint(2, 2), margin=MARGIN)
        if dsp.dim_k != n:
            ok = False
            continue
        u_op, w_op = theta.ops[0], phi.ops[0]
        embed = dsp.embed_h
        for g in grid_points(MARGIN):
            word = np.linalg.matrix_power(u_op, g.a) @ np.linalg.matrix_power(w_op, g.b)
            word_k = embed @ word @ dagger(embed)
            for _ in range(3):
                b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
                b_k = embed @ b @ dagger(embed)
                diff = res.alpha(g, b_k) - word_k @ b_k @ dagger(word_k)
                worst = max(worst, float(np.max(np.abs(diff))))
                back = dagger(embed) @ res.alpha(g, b_k) @ embed
                worst = max(worst, float(np.max(np.abs(back - word @ b @ dagger(word)))))
    ok = ok and worst <= 1e-9
    elapsed = time.perf_counter() - start
    _report(
        8,
        ok,
        elapsed,
        f"3 endomorphic pairs: dimK = dim H and alpha matches word conjugation "
        f"entrywise ({worst:.2e} <= 1e-9)",
    )
