import dataclasses
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpdilate.chan import identity_channel
from cpdilate.linalg import dagger, fro
from cpdilate.prodsys import (
    CapExceededError,
    GridPoint,
    InvalidCertificateError,
    build_product_system,
    flip_from_certificate,
    grid_points,
    representation_matrix,
    verify_representation,
)
from cpdilate.strongcomm import StrongCommutationCertificate

from conftest import (
    CommutingFamily,
    close,
    make_system,
    mix_of_unitaries,
    oracle_product_unitary,
    product,
    random_unitary,
)


@pytest.fixture
def zx_system(zx_pair):
    return make_system(*zx_pair)


@pytest.fixture
def mixed_system(rng):
    family = CommutingFamily(2, rng)
    theta = mix_of_unitaries(family, 2)
    phi = mix_of_unitaries(family, 2)
    return make_system(theta, phi)


class TestGridPoint:
    def test_partial_order(self):
        assert GridPoint(1, 2) <= GridPoint(2, 2)
        assert not GridPoint(2, 1) <= GridPoint(1, 2)
        assert not GridPoint(1, 2) <= GridPoint(2, 1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            GridPoint(-1, 0)
        with pytest.raises(ValueError):
            GridPoint(1, 0) - GridPoint(2, 0)

    def test_grid_enumeration(self):
        pts = grid_points(GridPoint(2, 1))
        assert len(pts) == 6
        assert pts[0] == GridPoint(0, 0)
        assert pts[-1] == GridPoint(2, 1)


class TestBuildSystem:
    def test_identity_pair_on_scalars(self):
        theta = identity_channel(1)
        sys_ = make_system(theta, theta)
        assert sys_.m == sys_.k == 1
        assert abs(sys_.flip[0, 0] - 1.0) < 1e-12
        assert sys_.fiber_dim(GridPoint(5, 7)) == 1

    def test_zx_flip_is_minus_one(self, zx_system):
        assert zx_system.flip.shape == (1, 1)
        assert abs(zx_system.flip[0, 0] + 1.0) < 1e-12

    def test_corner_pair_fiber_dims(self, corner_pair):
        sys_ = make_system(*corner_pair)
        assert sys_.m == 2 and sys_.k == 1
        assert sys_.fiber_dim(GridPoint(3, 2)) == 8

    def test_invalid_certificate_rejected(self, corner_pair):
        theta, phi = corner_pair
        fake = StrongCommutationCertificate(
            m=2, n=1, u=np.array([[0, 1], [1, 0]], dtype=complex),
            unitarity_residual=0.0, intertwining_residual=0.0,
        )
        with pytest.raises(InvalidCertificateError):
            build_product_system(theta, phi, fake)

    def test_flip_is_unitary(self, mixed_system):
        f = mixed_system.flip
        assert fro(dagger(f) @ f - np.eye(f.shape[0])) < 1e-10


class TestMultiply:
    def test_unit_law(self, mixed_system):
        x = np.arange(1, 5, dtype=complex)
        one, g = np.ones(1, dtype=complex), GridPoint(1, 1)
        left = product(mixed_system, GridPoint(0, 0), one, g, x)
        right = product(mixed_system, g, x, GridPoint(0, 0), one)
        assert fro(left - x) < 1e-12
        assert fro(right - x) < 1e-12

    def test_single_flip_sign(self, zx_system):
        one, e, f = np.ones(1, dtype=complex), GridPoint(1, 0), GridPoint(0, 1)
        ef = product(zx_system, e, one, f, one)   # already ordered, no flip
        fe = product(zx_system, f, one, e, one)   # one flip, picks up the -1
        assert ef.shape == fe.shape == (zx_system.fiber_dim(GridPoint(1, 1)),)
        assert ef[0] == pytest.approx(1.0)
        assert fe[0] == pytest.approx(-1.0)

    def test_flip_count_matches_bc(self, mixed_system):
        # (0,2) * (2,0): four elementary flips; compare against applying the
        # flip-by-flip product unitary to the raw tensor.
        g1, x = GridPoint(0, 2), np.arange(1, 5, dtype=complex)
        g2, y = GridPoint(2, 0), np.arange(4, 0, -1, dtype=complex)
        got = product(mixed_system, g1, x, g2, y)
        u = oracle_product_unitary(mixed_system, g1, g2)
        assert fro(got - u @ np.kron(x, y)) < 1e-12

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_associativity_all_small_triples(self, seed):
        rng = np.random.default_rng(seed)
        family = CommutingFamily(2, rng)
        sys_ = make_system(mix_of_unitaries(family, 2), mix_of_unitaries(family, 2))

        def rand_vec(g):
            d = sys_.fiber_dim(g)
            return rng.normal(size=d) + 1j * rng.normal(size=d)

        pts = grid_points(GridPoint(1, 1))
        for g1 in pts:
            for g2 in pts:
                for g3 in pts:
                    x, y, z = rand_vec(g1), rand_vec(g2), rand_vec(g3)
                    left = product(sys_, g1 + g2, product(sys_, g1, x, g2, y), g3, z)
                    right = product(sys_, g1, x, g2 + g3, product(sys_, g2, y, g3, z))
                    assert left.shape == right.shape == (sys_.fiber_dim(g1 + g2 + g3),)
                    assert fro(left - right) < 1e-9

    def test_memory_is_linear_in_the_product(self, mixed_system):
        # Two 256-coordinate vectors at (4, 4): the product has 2^16
        # coordinates (1 MiB); I_{X(g1)} tensor y as a matrix would be 256 MiB.
        rng = np.random.default_rng(0)
        x, y = (rng.normal(size=256) + 1j * rng.normal(size=256) for _ in range(2))
        g = GridPoint(4, 4)
        tracemalloc.start()
        try:
            got = product(mixed_system, g, x, g, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.shape == (mixed_system.fiber_dim(GridPoint(8, 8)),) == (2**16,)
        assert peak < 16 * 2**20


class TestRepresentation:
    def test_grid_origin_is_identity(self, mixed_system):
        rep = representation_matrix(mixed_system, GridPoint(0, 0))
        assert fro(rep - np.eye(2)) < 1e-12

    def test_one_step_block_row(self, corner_pair):
        sys_ = make_system(*corner_pair)
        rep = representation_matrix(sys_, GridPoint(1, 0))
        t1, t2 = corner_pair[0].ops
        assert fro(rep - np.hstack([t1, t2])) < 1e-12

    def test_zx_word(self, zx_system, zx_pair):
        theta, phi = zx_pair
        rep = representation_matrix(zx_system, GridPoint(1, 1))
        assert fro(rep - theta.ops[0] @ phi.ops[0]) < 1e-12

    def test_contractivity(self, mixed_system):
        for g in grid_points(GridPoint(2, 2)):
            rep = representation_matrix(mixed_system, g)
            assert np.linalg.norm(rep, 2) <= 1.0 + 1e-10

    def test_cap_refuses_before_building(self, mixed_system):
        # The grid below (20, 20) has 2 (2^21 - 1)^2 dimensions.
        start = time.perf_counter()
        with pytest.raises(CapExceededError):
            representation_matrix(mixed_system, GridPoint(20, 20))
        assert time.perf_counter() - start < 1.0
        assert not mixed_system._words



class TestProductMap:
    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 3),
        lengths=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    )
    def test_block_flips_match_sweep_and_multiply(self, seed, n, lengths):
        # Every split g1 + g2 <= (3,3): the product map of the dilation
        # blocks and the lift, which applies the block-flip table, against
        # the flip-by-flip sweep. Both are defined for any unitary flip; a
        # random one is complex.
        rng = np.random.default_rng(seed)
        family = CommutingFamily(n, rng)
        sys_ = make_system(*(mix_of_unitaries(family, k) for k in lengths))
        sys_ = dataclasses.replace(sys_, flip=random_unitary(sys_.m * sys_.k, rng))
        for g in grid_points(GridPoint(3, 3)):
            for g1 in grid_points(g):
                g2 = g - g1
                want = oracle_product_unitary(sys_, g1, g2)
                x, y = (
                    rng.normal(size=d) + 1j * rng.normal(size=d)
                    for d in (sys_.fiber_dim(g1), sys_.fiber_dim(g2))
                )
                got = product(sys_, g1, x, g2, y)
                assert got.shape == (sys_.fiber_dim(g),)
                assert close(want @ np.kron(x, y), got)


class TestVerifyRepresentation:
    def test_identity_pair_on_scalars_all_zero(self):
        sys_ = make_system(identity_channel(1), identity_channel(1))
        rep = verify_representation(sys_, GridPoint(3, 3))
        assert rep.identity_residual == 0.0
        assert rep.homomorphism_residual == 0.0
        assert rep.passed

    def test_zx_pair_horizon_three(self, zx_system):
        rep = verify_representation(zx_system, GridPoint(3, 3))
        assert rep.unital
        assert rep.identity_residual <= 1e-10
        assert rep.homomorphism_residual <= 1e-10
        assert rep.coisometry_residual <= 1e-10

    def test_corner_pair_horizon(self, corner_pair):
        sys_ = make_system(*corner_pair)
        rep = verify_representation(sys_, GridPoint(2, 1))
        assert rep.unital
        assert rep.identity_residual <= 1e-10
        assert rep.coisometry_residual <= 1e-10

    def test_cap_enforced(self, corner_pair):
        sys_ = make_system(*corner_pair)
        with pytest.raises(CapExceededError):
            verify_representation(sys_, GridPoint(3, 3), cap=8)

    def test_cap_bounds_the_whole_grid(self, zx_pair):
        # Every fiber of a single-Kraus pair is one-dimensional, so only the
        # total over the grid bounds the horizon: 2 * 101^2 = 20402.
        sys_ = make_system(*zx_pair)
        start = time.perf_counter()
        with pytest.raises(CapExceededError, match="dimension 20402 exceeds cap 8192"):
            verify_representation(sys_, GridPoint(100, 100))
        assert time.perf_counter() - start < 1.0
        # The cap refuses exactly the totals above it: 2 * 3^2 at (2, 2).
        assert verify_representation(sys_, GridPoint(2, 2), cap=18).passed
        with pytest.raises(CapExceededError):
            verify_representation(sys_, GridPoint(2, 2), cap=17)

    def test_fake_flip_breaks_homomorphism(self, corner_pair):
        theta, phi = corner_pair
        fake_u = random_unitary(2, np.random.default_rng(11))
        fake = StrongCommutationCertificate(
            m=2, n=1, u=fake_u, unitarity_residual=0.0, intertwining_residual=0.0
        )
        sys_ = dataclasses.replace(
            make_system(theta, phi), flip=flip_from_certificate(fake.u, fake.m, fake.n)
        )
        rep = verify_representation(sys_, GridPoint(2, 2))
        assert rep.homomorphism_residual > 1e-3

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 3))
    def test_certified_pairs_verify(self, seed, n):
        rng = np.random.default_rng(seed)
        family = CommutingFamily(n, rng)
        theta = mix_of_unitaries(family, 2)
        phi = mix_of_unitaries(family, 2)
        sys_ = make_system(theta, phi)
        rep = verify_representation(sys_, GridPoint(2, 2), tol=1e-8)
        assert rep.passed
