import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpdilate.linalg import fro
from cpdilate.stochastic import (
    NoIntertwinerError,
    build_diagonal_intertwiner,
    card_criterion,
    is_irreducible,
    semigroup_at,
    strongly_commute_diagonal,
    validate,
)

J3 = np.full((3, 3), 1.0 / 3.0)
Q3 = np.array([[0.5, 0.0, 0.5], [0.25, 0.5, 0.25], [0.25, 0.5, 0.25]])


def random_stochastic(n, rng, zeros=0):
    m = rng.uniform(0.1, 1.0, size=(n, n))
    if zeros:
        idx = rng.choice(n * n, size=zeros, replace=False)
        m.flat[idx] = 0.0
    m[m.sum(axis=1) == 0, 0] = 1.0
    return m / m.sum(axis=1, keepdims=True)


def series_expm(a, terms=60):
    """Independent oracle: plain Taylor series, no scaling."""
    out = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    for j in range(1, terms):
        term = term @ a / j
        out = out + term
    return out


class TestValidate:
    def test_identity(self):
        assert validate(np.eye(3))

    def test_flat_matrix(self):
        assert validate(J3)

    def test_bad_row_sum(self):
        assert not validate(np.array([[0.5, 0.6], [0.2, 0.8]]))

    def test_negative_entry_reported(self):
        with pytest.raises(ValueError, match="negative"):
            validate(np.array([[1.5, -0.5], [0.0, 1.0]]))

    @pytest.mark.parametrize(
        "check",
        [validate, lambda p: card_criterion(p, p), lambda p: semigroup_at(p, 1.0), is_irreducible],
        ids=["validate", "card_criterion", "semigroup_at", "is_irreducible"],
    )
    def test_empty_matrix_refused(self, check):
        with pytest.raises(ValueError, match="nonempty square matrix"):
            check(np.zeros((0, 0)))


class TestCardCriterion:
    def test_equal_matrices_hold(self, rng):
        p = random_stochastic(4, rng, zeros=3)
        rep = card_criterion(p, p)
        assert rep.holds and rep.witnesses == ()

    def test_paper_pair_fails_with_witness(self):
        rep = card_criterion(J3, Q3)
        assert not rep.holds
        # Direct enumeration: row 0 of Q has 2 nonzeros, column 0 has 3.
        assert (0, 0, 2, 3) in rep.witnesses

    def test_strictly_positive_pair_counts_are_n(self, rng):
        p = random_stochastic(3, rng)
        q = random_stochastic(3, rng)
        rep = card_criterion(p, q)
        assert rep.holds

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5), z=st.integers(0, 6))
    def test_symmetry_under_swap(self, seed, n, z):
        rng = np.random.default_rng(seed)
        p = random_stochastic(n, rng, zeros=min(z, n * n - n))
        q = random_stochastic(n, rng, zeros=min(z, n * n - n))
        assert card_criterion(p, q).holds == card_criterion(q, p).holds


class TestStrongCommutation:
    def test_paper_pair_commutes_but_not_strongly(self):
        rep = strongly_commute_diagonal(J3, Q3)
        assert rep.commute
        assert rep.commutation_residual <= 1e-12
        # Oracle: both products equal (1/3) J3 by direct multiplication.
        assert fro(J3 @ Q3 - J3) < 1e-15
        assert fro(Q3 @ J3 - J3) < 1e-15
        assert not rep.card.holds
        assert not rep.strongly_commute

    def test_identity_pair(self):
        rep = strongly_commute_diagonal(np.eye(3), np.eye(3))
        assert rep.strongly_commute

    def test_commuting_irreducible_exponentials(self, rng):
        p = random_stochastic(4, rng, zeros=4)
        while not is_irreducible(p):
            p = random_stochastic(4, rng, zeros=4)
        coef = rng.dirichlet(np.ones(3))
        q = coef[0] * np.eye(4) + coef[1] * p + coef[2] * (p @ p)
        pt = semigroup_at(p, 1.0)
        qs = semigroup_at(q, 1.0)
        rep = strongly_commute_diagonal(pt, qs, tol=1e-8)
        assert rep.strongly_commute


class TestSemigroup:
    def test_time_zero_is_identity(self):
        assert fro(semigroup_at(J3, 0.0) - np.eye(3)) < 1e-15

    def test_swap_generator_closed_form(self):
        # P = [[0,1],[1,0]]: entries ((1+e^{-2t})/2, (1-e^{-2t})/2).
        p = np.array([[0.0, 1.0], [1.0, 0.0]])
        t = np.log(2.0)
        got = semigroup_at(p, t)
        assert got[0, 0] == pytest.approx(5.0 / 8.0, abs=1e-12)
        assert got[0, 1] == pytest.approx(3.0 / 8.0, abs=1e-12)
        assert got[1, 0] == pytest.approx(3.0 / 8.0, abs=1e-12)
        assert got[1, 1] == pytest.approx(5.0 / 8.0, abs=1e-12)

    def test_matches_series_oracle(self, rng):
        p = random_stochastic(4, rng, zeros=5)
        t = 0.7
        oracle = np.exp(-t) * series_expm(t * p)
        assert fro(semigroup_at(p, t) - oracle) < 1e-12

    def test_irreducible_generator_strictly_positive(self, rng):
        p = np.zeros((4, 4))
        for i in range(4):
            p[i, (i + 1) % 4] = 1.0  # 4-cycle: irreducible, lots of zeros
        out = semigroup_at(p, 0.1)
        assert np.all(out > 0.0)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            semigroup_at(J3, -0.5)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), s=st.floats(0.05, 2.0), t=st.floats(0.05, 2.0))
    def test_semigroup_law_and_stochasticity(self, seed, s, t):
        rng = np.random.default_rng(seed)
        p = random_stochastic(4, rng, zeros=4)
        ps, pt, pst = semigroup_at(p, s), semigroup_at(p, t), semigroup_at(p, s + t)
        assert fro(ps @ pt - pst) < 1e-8
        assert np.all(ps >= -1e-12)
        assert np.allclose(ps.sum(axis=1), 1.0, atol=1e-10)


class TestIrreducibility:
    def test_flat_matrix(self):
        assert is_irreducible(J3)

    def test_absorbing_state(self):
        assert not is_irreducible(np.array([[1.0, 0.0], [0.5, 0.5]]))

    def test_three_cycle(self):
        p = np.zeros((3, 3))
        p[0, 1] = p[1, 2] = p[2, 0] = 1.0
        assert is_irreducible(p)


class TestIntertwiner:
    def test_identity_pair_blocks_are_scalars(self):
        tw = build_diagonal_intertwiner(np.eye(3), np.eye(3))
        for (i, k), block in tw.blocks.items():
            if i == k:
                assert block.matrix.shape == (1, 1)
                assert abs(block.matrix[0, 0] - 1.0) < 1e-12
            else:
                assert block.matrix.shape == (0, 0)

    def test_flat_two_by_two_pair(self):
        half = np.full((2, 2), 0.5)
        tw = build_diagonal_intertwiner(half, half)
        assert tw.distinguished_residual < 1e-10
        assert tw.unitarity_residual < 1e-10
        for block in tw.blocks.values():
            assert block.matrix.shape == (2, 2)

    def test_paper_pair_has_no_intertwiner(self):
        with pytest.raises(NoIntertwinerError) as err:
            build_diagonal_intertwiner(J3, Q3)
        assert (0, 0) in err.value.witnesses

    def test_distinguished_vector_norm_identity(self, rng):
        # sum_j q_kj p_ji = (QP)_ki exactly as computed.
        p = random_stochastic(3, rng)
        q = random_stochastic(3, rng)
        qp = q @ p
        for i in range(3):
            for k in range(3):
                total = sum(q[k, j] * p[j, i] for j in range(3))
                assert total == pytest.approx(qp[k, i], abs=1e-14)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), t=st.floats(0.1, 2.0))
    def test_exponential_pairs_always_intertwine(self, seed, t):
        rng = np.random.default_rng(seed)
        p = random_stochastic(3, rng, zeros=2)
        coef = rng.dirichlet(np.ones(2))
        q = coef[0] * np.eye(3) + coef[1] * p
        tw = build_diagonal_intertwiner(semigroup_at(p, t), semigroup_at(q, t), tol=1e-7)
        assert tw.distinguished_residual < 1e-9
        assert tw.unitarity_residual < 1e-9
