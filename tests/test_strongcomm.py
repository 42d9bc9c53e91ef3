import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpdilate import chan, strongcomm
from cpdilate.chan import KrausFamily, compose, identity_channel, kraus_to_super
from cpdilate.linalg import CompletionError, fro
from cpdilate.strongcomm import (
    DimensionMismatchError,
    NonCommutingError,
    StrongCommutationCertificate,
    check_commute,
    intertwining_residual,
    strong_commutation_certificate,
    verify_certificate,
)

from conftest import (
    CommutingFamily,
    close,
    mix_of_unitaries,
    oracle_super,
    random_contractive,
    random_unitary,
)


def oracle_check_commute(theta, phi):
    """|| S(Theta∘Phi) - S(Phi∘Theta) ||_F with Kronecker-sum superoperators."""
    return fro(oracle_super(compose(theta, phi)) - oracle_super(compose(phi, theta)))


def oracle_intertwining_residual(theta, phi, u):
    """Double loop over (i, j), each row reconstructed as a sum of mn products."""
    m, n = len(theta), len(phi)
    right = [s @ t for t in theta.ops for s in phi.ops]
    worst = 0.0
    for i, t in enumerate(theta.ops):
        for j, s in enumerate(phi.ops):
            row = u[i * n + j]
            recon = sum(row[c] * right[c] for c in range(m * n))
            worst = max(worst, fro(t @ s - recon))
    return worst


def wide_mix_pair(dim, count, seed):
    """Two mixes of `count` commuting unitaries each on M_dim."""
    family = CommutingFamily(dim, np.random.default_rng(seed))
    return mix_of_unitaries(family, count), mix_of_unitaries(family, count)


class TestCheckCommute:
    def test_map_commutes_with_itself(self, zx_pair):
        # Nine composite operators: a Choi matrix formed in any order but
        # compose's would differ from the other side at roundoff.
        for theta in (zx_pair[0], wide_mix_pair(4, 3, seed=11)[0]):
            rep = check_commute(theta, theta)
            assert rep.commute and rep.residual == 0.0

    def test_pauli_conjugations_commute(self, zx_pair):
        rep = check_commute(*zx_pair)
        assert rep.commute

    def test_hadamard_vs_phase_do_not_commute(self):
        hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        phase = np.diag([1.0, 1.0j])
        rep = check_commute(KrausFamily(2, (hadamard,)), KrausFamily(2, (phase,)))
        assert not rep.commute
        # Oracle: direct superoperator comparison.
        s1 = kraus_to_super(compose(KrausFamily(2, (hadamard,)), KrausFamily(2, (phase,))))
        s2 = kraus_to_super(compose(KrausFamily(2, (phase,)), KrausFamily(2, (hadamard,))))
        assert rep.residual == pytest.approx(fro(s1 - s2))
        assert rep.residual == pytest.approx(
            oracle_check_commute(KrausFamily(2, (hadamard,)), KrausFamily(2, (phase,))), rel=1e-12
        )
        assert rep.residual == pytest.approx(np.sqrt(6), rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            check_commute(identity_channel(2), identity_channel(3))


class TestBatchedKernelsMatchOracles:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(1, 4),
        m=st.integers(1, 3),
        n=st.integers(1, 3),
        commuting=st.booleans(),
    )
    def test_random_families(self, seed, dim, m, n, commuting):
        rng = np.random.default_rng(seed)
        if commuting:
            family = CommutingFamily(dim, rng)
            theta, phi = mix_of_unitaries(family, m), mix_of_unitaries(family, n)
        else:
            theta, phi = random_contractive(dim, m, rng), random_contractive(dim, n, rng)
        rep = check_commute(theta, phi)
        assert close(rep.residual, oracle_check_commute(theta, phi))
        for k in (compose(theta, phi), compose(phi, theta)):
            assert close(kraus_to_super(k), oracle_super(k))
        # A random, wrong witness; for commuting pairs also the constructed one.
        witnesses = [random_unitary(m * n, rng)]
        if commuting:
            witnesses.append(strong_commutation_certificate(theta, phi).u)
        for u in witnesses:
            assert close(
                intertwining_residual(theta, phi, u), oracle_intertwining_residual(theta, phi, u)
            )

    def test_certificate_residual_matches_oracle(self, rng):
        family = CommutingFamily(3, rng)
        theta, phi = mix_of_unitaries(family, 3), mix_of_unitaries(family, 2)
        # Products of commuting unitaries span at most dim = 3 of the mn = 6
        # Kraus directions, so u is completed on a 3-dimensional kernel.
        left, _ = strongcomm._products(theta, phi)
        assert np.linalg.matrix_rank(left.reshape(6, -1)) == 3
        cert = strong_commutation_certificate(theta, phi)
        assert close(cert.intertwining_residual, oracle_intertwining_residual(theta, phi, cert.u))
        assert cert.intertwining_residual <= 1e-12
        # Mixes of commuting unitaries give a symmetric u; a random one is not.
        wrong = random_unitary(6, rng)
        assert close(
            intertwining_residual(theta, phi, wrong), oracle_intertwining_residual(theta, phi, wrong)
        )

    def test_certify_path_builds_no_kronecker_products(self, monkeypatch):
        theta, phi = wide_mix_pair(4, 3, seed=7)

        def no_kron(*args, **kwargs):
            raise AssertionError("np.kron called on the certify path")

        monkeypatch.setattr(np, "kron", no_kron)
        cert = strong_commutation_certificate(theta, phi)
        assert verify_certificate(theta, phi, cert).passed

    def test_certificate_builds_products_once_without_compose(self, monkeypatch):
        theta, phi = wide_mix_pair(4, 3, seed=7)
        calls = []
        products = strongcomm._products
        monkeypatch.setattr(
            strongcomm, "_products", lambda *args: calls.append(args) or products(*args)
        )

        def forbidden(*args, **kwargs):
            raise AssertionError("compose or a new KrausFamily on the certify path")

        monkeypatch.setattr(chan, "compose", forbidden)
        monkeypatch.setattr(strongcomm, "compose", forbidden, raising=False)
        monkeypatch.setattr(KrausFamily, "__post_init__", forbidden)
        strong_commutation_certificate(theta, phi)
        assert len(calls) == 1

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(1, 3),
        m=st.integers(1, 3),
        n=st.integers(1, 3),
        commuting=st.booleans(),
    )
    def test_non_commuting_error_iff_check_fails(self, seed, dim, m, n, commuting):
        rng = np.random.default_rng(seed)
        if commuting:
            family = CommutingFamily(dim, rng)
            theta, phi = mix_of_unitaries(family, m), mix_of_unitaries(family, n)
        else:
            theta, phi = random_contractive(dim, m, rng), random_contractive(dim, n, rng)
        residual = check_commute(theta, phi).residual
        tols = [1e-9]
        if 0.0 < residual < 1e-9:
            # The two sides of the decision: the certificate must draw it at the same residual.
            tols += [residual, np.nextafter(residual, 0.0)]
        for tol in tols:
            try:
                strong_commutation_certificate(theta, phi, tol)
                raised = False
            except NonCommutingError:
                raised = True
            assert raised == (not check_commute(theta, phi, tol).commute)

    def test_wide_mix_pair_certifies_quickly(self):
        # Mix/mix of 8 commuting unitaries each on M_32: mn = 64, n^2 = 1024.
        theta, phi = wide_mix_pair(32, 8, seed=3)
        start = time.perf_counter()
        cert = strong_commutation_certificate(theta, phi)
        chk = verify_certificate(theta, phi, cert)
        elapsed = time.perf_counter() - start
        assert chk.passed and cert.u.shape == (64, 64)
        assert elapsed < 1.0, f"certificate + verification took {elapsed:.2f} s"


class TestRCoordinates:
    # (dim, m, n): R is thin when dim^2 > 2mn and wide when dim^2 <= 2mn. Mixes
    # of commuting unitaries span at most dim Kraus directions, so mn > dim
    # reaches the kernel completion of the certificate.
    SHAPES = {
        "thin-deficient": (4, 2, 3),
        "thin-full-rank": (4, 1, 2),
        "wide-deficient": (2, 3, 3),
    }

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("seed", range(3))
    def test_both_shapes_match_oracles(self, shape, seed):
        dim, m, n = self.SHAPES[shape]
        rng = np.random.default_rng(seed)
        family = CommutingFamily(dim, rng)
        theta, phi = mix_of_unitaries(family, m), mix_of_unitaries(family, n)
        left, right = strongcomm._products(theta, phi)
        _, ra, _ = strongcomm._commutation_coordinates(left, right, m)
        assert ra.shape == (min(dim * dim, 2 * m * n), m * n)
        rank = np.linalg.matrix_rank(left.reshape(m * n, -1))
        assert (rank < m * n) == shape.endswith("deficient")
        # The commuting pair and a generic, non-commuting one of the same shape.
        for a, b in ((theta, phi), (random_contractive(dim, m, rng), random_contractive(dim, n, rng))):
            assert close(check_commute(a, b).residual, oracle_check_commute(a, b))
        cert = strong_commutation_certificate(theta, phi)
        assert cert.unitarity_residual <= 1e-12
        assert cert.intertwining_residual <= 1e-12
        assert oracle_intertwining_residual(theta, phi, cert.u) <= 1e-12

    def test_wide_pair_forms_no_choi_matrix(self):
        # One 1024 x 1024 complex Choi matrix is 16 MiB.
        theta, phi = wide_mix_pair(32, 8, seed=3)
        for f in (check_commute, strong_commutation_certificate):
            f(theta, phi)
            tracemalloc.start()
            try:
                f(theta, phi)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 16 * 2**20, f"{f.__name__} peaked at {peak / 2**20:.1f} MiB"


class TestCertificate:
    def test_identity_pair(self):
        cert = strong_commutation_certificate(identity_channel(2), identity_channel(2))
        assert cert.u.shape == (1, 1)
        assert abs(cert.u[0, 0] - 1.0) < 1e-12

    def test_zx_pair_gives_minus_one(self, zx_pair):
        # ZX = u XZ forces u = [-1].
        cert = strong_commutation_certificate(*zx_pair)
        assert abs(cert.u[0, 0] + 1.0) < 1e-12
        assert cert.unitarity_residual < 1e-12
        assert cert.intertwining_residual < 1e-12

    def test_failed_completion_raises(self, zx_pair, monkeypatch):
        # No unitary passes a negative guard: the completion check itself fires.
        monkeypatch.setattr(chan, "_COMPLETION_GUARD", -1.0)
        with pytest.raises(CompletionError, match="^unitary completion failed"):
            strong_commutation_certificate(*zx_pair)

    def test_corner_collapse_with_identity(self, corner_pair):
        cert = strong_commutation_certificate(*corner_pair)
        assert cert.m == 2 and cert.n == 1
        phase = cert.u[0, 0]
        assert fro(cert.u - phase * np.eye(2)) < 1e-8
        assert cert.intertwining_residual < 1e-8

    def test_non_commuting_pair_rejected(self):
        hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        phase = np.diag([1.0, 1.0j])
        with pytest.raises(NonCommutingError):
            strong_commutation_certificate(
                KrausFamily(2, (hadamard,)), KrausFamily(2, (phase,))
            )

    def test_certificate_symmetry(self, rng):
        family = CommutingFamily(2, rng)
        theta = mix_of_unitaries(family, 2)
        phi = mix_of_unitaries(family, 2)
        c1 = strong_commutation_certificate(theta, phi)
        c2 = strong_commutation_certificate(phi, theta)
        assert verify_certificate(theta, phi, c1).passed
        assert verify_certificate(phi, theta, c2).passed

    def test_two_distinct_certificates_both_verify(self, zx_pair):
        theta, phi = zx_pair
        cert = strong_commutation_certificate(theta, phi)
        # A certificate is not unique; -u fails here (mn = 1 forces the phase),
        # but any valid witness must pass verify_certificate. Build a second
        # witness for a pair with mn > 1 by reusing the construction on
        # reordered Kraus ops.
        family = CommutingFamily(2, np.random.default_rng(5))
        a = mix_of_unitaries(family, 2)
        b = mix_of_unitaries(family, 2)
        c1 = strong_commutation_certificate(a, b)
        shuffled = KrausFamily(a.dim, (a.ops[1], a.ops[0]))
        c_perm = strong_commutation_certificate(shuffled, b)
        # Reindexing rows and columns back gives a second valid witness for (a, b).
        perm = np.zeros((2, 2))
        perm[0, 1] = perm[1, 0] = 1.0
        n = len(b)
        pair_perm = np.kron(perm, np.eye(n))
        u2 = np.asarray(pair_perm @ c_perm.u @ pair_perm.T, dtype=complex)
        alt = StrongCommutationCertificate(
            m=2, n=n, u=u2, unitarity_residual=0.0, intertwining_residual=0.0
        )
        assert verify_certificate(theta, phi, cert).passed
        assert verify_certificate(a, b, c1).passed
        assert verify_certificate(a, b, alt).passed

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 4))
    def test_commuting_endomorphism_pairs_always_certify(self, seed, n):
        rng = np.random.default_rng(seed)
        family = CommutingFamily(n, rng)
        theta = KrausFamily(n, (family.member(),))
        phi = KrausFamily(n, (family.member(),))
        cert = strong_commutation_certificate(theta, phi)
        assert cert.unitarity_residual <= 1e-8
        assert cert.intertwining_residual <= 1e-8

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_composition_with_commuting_automorphism_certifies(self, seed):
        # Phi = Theta after a commuting unitary conjugation.
        rng = np.random.default_rng(seed)
        family = CommutingFamily(2, rng)
        theta = mix_of_unitaries(family, 2)
        alpha = family.member()
        phi = KrausFamily(2, tuple(t @ alpha for t in theta.ops))
        cert = strong_commutation_certificate(theta, phi)
        assert cert.intertwining_residual <= 1e-8

    @pytest.mark.parametrize("seed", range(20))
    def test_lopsided_weights_give_unitary_to_roundoff(self, seed):
        # A Kraus weight of 1e-4 makes Mb ill-conditioned; a least-squares u
        # was unitary only to ~1e-12 here, the Procrustes u is to ~1e-15.
        family = CommutingFamily(2, np.random.default_rng(seed))
        theta = KrausFamily(2, (family.member(),))
        w = 1e-4
        phi = KrausFamily(2, (np.sqrt(w) * family.member(), np.sqrt(1 - w) * family.member()))
        cert = strong_commutation_certificate(theta, phi)
        assert cert.unitarity_residual <= 2e-14
        assert cert.intertwining_residual <= 2e-14


class TestVerifyCertificate:
    def test_valid_certificate_passes(self, corner_pair):
        cert = strong_commutation_certificate(*corner_pair)
        assert verify_certificate(*corner_pair, cert).passed

    def test_identity_witness_fails_for_zx(self, zx_pair):
        theta, phi = zx_pair
        fake = StrongCommutationCertificate(
            m=1, n=1, u=np.eye(1, dtype=complex),
            unitarity_residual=0.0, intertwining_residual=0.0,
        )
        chk = verify_certificate(theta, phi, fake)
        assert not chk.passed
        # || ZX - XZ ||_F = 2 || ZX ||_F = 2 sqrt(2)
        assert chk.intertwining_residual == pytest.approx(2 * np.sqrt(2))

    def test_scaled_unitary_fails_unitarity(self, zx_pair):
        theta, phi = zx_pair
        fake = StrongCommutationCertificate(
            m=1, n=1, u=-2.0 * np.eye(1, dtype=complex),
            unitarity_residual=0.0, intertwining_residual=0.0,
        )
        chk = verify_certificate(theta, phi, fake)
        assert not chk.passed
        assert chk.unitarity_residual > 1.0

    def test_shape_mismatch_raises(self, zx_pair):
        theta, phi = zx_pair
        bad = StrongCommutationCertificate(
            m=1, n=1, u=np.eye(2, dtype=complex),
            unitarity_residual=0.0, intertwining_residual=0.0,
        )
        with pytest.raises(DimensionMismatchError):
            verify_certificate(theta, phi, bad)

    def test_intertwining_residual_is_independent_recomputation(self, rng):
        family = CommutingFamily(3, rng)
        theta = mix_of_unitaries(family, 2)
        phi = KrausFamily(3, (family.member(),))
        cert = strong_commutation_certificate(theta, phi)
        assert intertwining_residual(theta, phi, cert.u) == pytest.approx(
            cert.intertwining_residual, abs=1e-12
        )
