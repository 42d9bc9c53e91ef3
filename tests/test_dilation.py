import math
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cpdilate import dilation
from cpdilate.chan import KrausFamily, apply_kraus, identity_channel
from cpdilate.dilation import (
    CapExceededError,
    OutOfHorizonError,
    algebra_dims,
    build_big_space,
    build_dilation_space,
    dilate,
    minimality_check,
    verify_e_dilation,
)
from cpdilate.linalg import dagger, fro, hermitize
from cpdilate.strongcomm import NonCommutingError, strong_commutation_certificate
from cpdilate.prodsys import (
    E_STEP,
    F_STEP,
    ZERO,
    GridPoint,
    grid_points,
    representation_matrix,
)

from conftest import (
    PAULI_X,
    PAULI_Z,
    CommutingFamily,
    compress,
    corner_collapse_channel,
    lifted,
    make_system,
    mix_of_unitaries,
    oracle_alpha_corner,
    oracle_product_unitary,
    oracle_span_projector,
    pauli_mix_pair,
    random_contractive,
    random_unitary,
)


class HatOracle:
    """Full block maps of the hat semigroup, built from the definitions, for
    checks against the library.

    blocks(g)[t] maps block t down to block t - g; everything below the
    horizon stays below it, so compositions are exact. The canonical
    composition order applies all (1,0) steps first. Unit steps are the
    one-shot maps of direct_blocks, so nothing here calls the library's step
    code. The oracle keeps its own block offsets of the big space of the
    lifted dilation res.
    """

    def __init__(self, res):
        self.sys = res.sys
        self.big = big = res.dsp.big
        self.offsets = {}
        total = 0
        for g in big.points:
            self.offsets[g] = total
            total += big.dims[g]
        self._cache: dict = {}

    def block_slice(self, g: GridPoint) -> slice:
        return slice(self.offsets[g], self.offsets[g] + self.big.dims[g])

    def blocks(self, g: GridPoint) -> dict:
        if g in self._cache:
            return self._cache[g]
        if g == ZERO:
            out = {
                t: np.eye(self.big.dims[t], dtype=complex)
                for t in self.big.points
            }
        else:
            step = E_STEP if g.a > 0 else F_STEP
            prev = self.blocks(g - step)
            unit = self.direct_blocks(step)
            out = {t: prev[t - step] @ unit[t] for t in self.big.points if g <= t}
        self._cache[g] = out
        return out

    def direct_blocks(self, g: GridPoint) -> dict:
        """Single-shot definition: decompose X(t) as X(t-g) tensor X(g) through
        the flip-by-flip product map and absorb X(g) through rep_g."""
        sys, n = self.sys, self.sys.dim_h
        rep = representation_matrix(sys, g)
        out = {}
        for t in self.big.points:
            if not g <= t:
                continue
            base = t - g
            u = oracle_product_unitary(sys, base, g)
            out[t] = np.kron(np.eye(sys.fiber_dim(base), dtype=complex), rep) @ np.kron(
                dagger(u), np.eye(n, dtype=complex)
            )
        return out

    def matrix(self, g: GridPoint) -> np.ndarray:
        """Full big-space matrix of the g step."""
        out = np.zeros((self.big.total_dim, self.big.total_dim), dtype=complex)
        for t, m in self.blocks(g).items():
            out[self.block_slice(t - g), self.block_slice(t)] = m
        return out

    def coisometry_residual(self, s: GridPoint) -> float:
        """max over blocks t with t + s <= horizon of || hat_s hat_s^* - I ||_F.

        The restriction is the truncation-aware one: the adjoint pushes block
        t up to t + s, which must stay on the grid.
        """
        worst = 0.0
        blocks = self.blocks(s)
        for t in self.big.points:
            if t + s <= self.big.horizon:
                m = blocks[t + s]
                worst = max(worst, fro(m @ dagger(m) - np.eye(m.shape[0])))
        return worst


def join(s: GridPoint, u: GridPoint) -> GridPoint:
    return GridPoint(max(s.a, u.a), max(s.b, u.b))


def split_difference(u: GridPoint, s: GridPoint) -> tuple[GridPoint, GridPoint]:
    """Positive and negative parts of u - s, both grid points."""
    d = (u.a - s.a, u.b - s.b)
    plus = GridPoint(max(d[0], 0), max(d[1], 0))
    minus = GridPoint(max(-d[0], 0), max(-d[1], 0))
    return plus, minus


def oracle_gram(oracle: HatOracle):
    """Generator Gram matrix from the join formula.

    Entry for generators p = (s, zeta), q = (u, eta):

        gram[p, q] = < zeta, hat_{(u-s)_+} hat_{(u-s)_-}^* eta >

    evaluated blockwise through the join s v u; exact for unital maps,
    where commuting unitary dilations of the hat steps doubly commute.
    """
    big = oracle.big
    gram = np.zeros((big.total_dim, big.total_dim), dtype=complex)
    for s in big.points:
        for u in big.points:
            plus, minus = split_difference(u, s)
            j = join(s, u)
            m_plus = oracle.blocks(plus)[j]     # block j -> s
            m_minus = oracle.blocks(minus)[j]   # block j -> u
            gram[oracle.block_slice(s), oracle.block_slice(u)] = m_plus @ dagger(m_minus)
    return hermitize(gram)


def assert_factor_matches_oracle(res):
    """The blocks of res.dsp come in grid order; side by side they form the
    factor, whose Gram matrix is the join-formula one, of rank dim K; and
    block s is (hat_{horizon - s} on the top block)^*.

    Returns the Gram matrix.
    """
    oracle = HatOracle(res)
    dsp, big = res.dsp, res.dsp.big
    gram = oracle_gram(oracle)
    assert list(dsp.blocks) == list(big.points)
    factor = np.hstack([dsp.blocks[g] for g in big.points])
    assert fro(dagger(factor) @ factor - gram) <= 1e-12 * fro(gram)
    assert np.linalg.matrix_rank(gram) == dsp.dim_k
    for s in big.points:
        t_s = oracle.blocks(big.horizon - s)[big.horizon]
        assert fro(dagger(dsp.blocks[s]) - t_s) < 1e-12
    return gram


def named_pair(name):
    family = CommutingFamily(2, np.random.default_rng(5))
    if name == "identity":
        return identity_channel(2), identity_channel(2)
    if name == "zx":
        return KrausFamily(2, (PAULI_Z,)), KrausFamily(2, (PAULI_X,))
    if name == "corner":
        return corner_collapse_channel(), identity_channel(2)
    if name == "mix/conj":
        return mix_of_unitaries(family, 2), KrausFamily(2, (family.member(),))
    if name == "rotated":
        return pauli_mix_pair(0.3, 0.6, family.rng)
    return mix_of_unitaries(family, 2), mix_of_unitaries(family, 2)


ORACLE_CASES = [
    ("identity", (2, 2)),
    ("zx", (3, 3)),
    ("corner", (2, 0)),
    ("corner", (2, 1)),
    ("corner", (3, 1)),
    ("corner", (2, 2)),
    ("mix/conj", (3, 3)),
    ("mix/mix", (3, 3)),
    ("rotated", (2, 2)),
]


@pytest.fixture
def scalar_identity():
    theta = identity_channel(1)
    return lifted(theta, theta, GridPoint(2, 2), GridPoint(1, 1))


class TestBigSpace:
    def test_identity_pair_shift_structure(self, scalar_identity):
        big = scalar_identity.dsp.big
        assert big.total_dim == 9  # nine one-dimensional blocks
        oracle = HatOracle(scalar_identity)
        step = oracle.matrix(GridPoint(1, 0))
        # delta_t |-> delta_{t-(1,0)}: a pure block shift with unit entries.
        for t in big.points:
            if t.a >= 1:
                row = oracle.offsets[t - GridPoint(1, 0)]
                col = oracle.offsets[t]
                assert abs(step[row, col] - 1.0) < 1e-12
        assert np.count_nonzero(np.abs(step) > 1e-12) == 6

    def test_zx_blocks_are_words_with_shift(self, zx_pair):
        theta, phi = zx_pair
        res = lifted(theta, phi, GridPoint(2, 2), GridPoint(1, 1))
        big = res.dsp.big
        assert all(big.dims[g] == 2 for g in big.points)
        blocks = HatOracle(res).blocks(GridPoint(1, 0))
        for t, m in blocks.items():
            # Conjugation word Z, twisted by (-1) for each F letter it passes.
            assert fro(m - (-1.0) ** t.b * theta.ops[0]) < 1e-12

    def test_cap_enforced(self, corner_pair):
        sys_ = make_system(*corner_pair)
        with pytest.raises(CapExceededError):
            build_big_space(sys_, GridPoint(3, 3), cap=10)

    @pytest.mark.parametrize(
        "pair, horizon, message",
        [
            ("zx_pair", (2000, 2000), "dimension 8008002 exceeds cap 8192"),
            ("corner_pair", (2000, 2000), r"dimension \d{600,} exceeds cap 8192"),
            # 2^100001 is not formed: it would not even print.
            ("corner_pair", (100000, 0), r"dimension over 2\^100000 exceeds cap 8192"),
        ],
        ids=["zx", "corner", "corner-unformed"],
    )
    def test_cap_refuses_before_enumerating_the_grid(self, pair, horizon, message, request):
        # The total comes from the Kraus lengths: no grid point is built.
        sys_ = make_system(*request.getfixturevalue(pair))
        tracemalloc.start()
        try:
            with pytest.raises(CapExceededError, match=message):
                build_big_space(sys_, GridPoint(*horizon))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        # The closed-form total is the sum of the block dimensions, and the
        # cap refuses exactly the totals above it.
        big, _ = build_big_space(sys_, GridPoint(3, 2))
        assert big.total_dim == sum(big.dims.values())
        build_big_space(sys_, GridPoint(3, 2), cap=big.total_dim)
        with pytest.raises(CapExceededError):
            build_big_space(sys_, GridPoint(3, 2), cap=big.total_dim - 1)

    def test_coisometry_on_interior_blocks(self, corner_pair):
        oracle = HatOracle(lifted(*corner_pair, GridPoint(2, 1), GridPoint(1, 1)))
        for step in (GridPoint(1, 0), GridPoint(0, 1), GridPoint(1, 1)):
            assert oracle.coisometry_residual(step) < 1e-12

    def test_steps_commute(self, rng):
        family = CommutingFamily(2, rng)
        res = lifted(
            mix_of_unitaries(family, 2), mix_of_unitaries(family, 2),
            GridPoint(2, 2), GridPoint(1, 1),
        )
        oracle = HatOracle(res)
        a = oracle.matrix(GridPoint(1, 0))
        b = oracle.matrix(GridPoint(0, 1))
        assert fro(a @ b - b @ a) < 1e-12

    def test_composed_equals_direct_definition(self, rng):
        # hat_{(a,b)} assembled from unit steps vs the one-shot decomposition
        # X(t) = X(t-g) tensor X(g); agreement exercises the flip machinery.
        family = CommutingFamily(2, rng)
        res = lifted(
            mix_of_unitaries(family, 2), mix_of_unitaries(family, 2),
            GridPoint(2, 2), GridPoint(1, 1),
        )
        oracle = HatOracle(res)
        for g in (GridPoint(2, 1), GridPoint(1, 1), GridPoint(2, 2)):
            composed = oracle.blocks(g)
            direct = oracle.direct_blocks(g)
            assert set(composed) == set(direct)
            worst = max(fro(composed[t] - direct[t]) for t in composed)
            assert worst < 1e-10

    def test_steps_match_direct_definition_with_complex_flip(self):
        # With a complex flip, a product map that conjugates or transposes it
        # is seen. The library's closed-form blocks meet this flip in
        # test_factor_matches_oracle_gram[rotated].
        res = lifted(*named_pair("rotated"), GridPoint(2, 2), GridPoint(1, 1))
        assert np.abs(res.sys.flip.imag).max() > 0.1
        oracle = HatOracle(res)
        for g in (GridPoint(2, 1), GridPoint(1, 1), GridPoint(2, 2)):
            composed = oracle.blocks(g)
            direct = oracle.direct_blocks(g)
            assert set(composed) == set(direct)
            assert max(fro(composed[t] - direct[t]) for t in composed) < 1e-10


class TestDilationSpace:
    def test_identity_pair_collapses_to_h(self, scalar_identity):
        dsp = scalar_identity.dsp
        assert dsp.dim_k == 1
        assert np.allclose(oracle_gram(HatOracle(scalar_identity)), np.ones((9, 9)))
        assert fro(dagger(dsp.embed_h) @ dsp.embed_h - np.eye(1)) < 1e-12

    def test_zx_pair_dilation_is_itself(self, zx_pair):
        dsp = lifted(*zx_pair, GridPoint(3, 3), GridPoint(1, 1)).dsp
        assert dsp.dim_k == 2
        assert dsp.gram_min_eig > -1e-10

    def test_corner_pair_proper_dilation_rank_pinned(self, corner_pair):
        # dim X(2,0) * n = 8, frozen as a regression value.
        dsp = lifted(*corner_pair, GridPoint(2, 0), GridPoint(1, 0)).dsp
        assert dsp.dim_k == 8
        assert dsp.dim_k > 2

    def test_gram_diagonal_blocks_are_identities(self, corner_pair):
        oracle = HatOracle(lifted(*corner_pair, GridPoint(2, 1), GridPoint(1, 1)))
        big, gram = oracle.big, oracle_gram(oracle)
        for g in big.points:
            sl = oracle.block_slice(g)
            assert fro(gram[sl, sl] - np.eye(big.dims[g])) < 1e-12

    @pytest.mark.parametrize("name, horizon", ORACLE_CASES)
    def test_factor_matches_oracle_gram(self, name, horizon):
        horizon = GridPoint(*horizon)
        margin = GridPoint(min(horizon.a, 1), min(horizon.b, 1))
        res = lifted(*named_pair(name), horizon, margin)
        dsp = res.dsp
        assert dsp.dim_k == dsp.big.dims[horizon]
        gram = assert_factor_matches_oracle(res)
        # sum_g T_g^* T_g carries the nonzero spectrum of the Gram matrix.
        gram_eigs = np.linalg.eigvalsh(gram)
        assert abs(dsp.kept_min - gram_eigs[-dsp.dim_k]) < 1e-10 * gram_eigs[-1]
        assert dsp.gram_min_eig == 0.0 and dsp.dropped_max == 0.0

    def test_embed_is_isometry(self, corner_pair):
        dsp = lifted(*corner_pair, GridPoint(2, 2), GridPoint(1, 1)).dsp
        assert fro(dagger(dsp.embed_h) @ dsp.embed_h - np.eye(2)) < 1e-12

    def test_margin_beyond_horizon_rejected(self, corner_pair):
        sys_ = make_system(*corner_pair)
        big, sys_ = build_big_space(sys_, GridPoint(1, 1))
        with pytest.raises(OutOfHorizonError):
            build_dilation_space(big, sys_, GridPoint(2, 1))

    def test_non_unital_input_rejected(self):
        theta = KrausFamily(2, (0.5 * np.eye(2, dtype=complex),))
        phi = identity_channel(2)
        sys_ = make_system(theta, phi)
        big, sys_ = build_big_space(sys_, GridPoint(1, 1))
        with pytest.raises(ValueError, match="unital"):
            build_dilation_space(big, sys_, GridPoint(1, 1))


class TestLiftedOperators:
    def test_identity_pair_operators_are_identity(self, scalar_identity):
        res = scalar_identity
        for g in grid_points(res.dsp.margin):
            for v in res.v_blocks_for(g):
                assert fro(v - np.eye(1)) < 1e-12
            assert fro(res.alpha(g, np.eye(1)) - np.eye(1)) < 1e-12

    def test_zx_alpha_is_word_conjugation(self, zx_pair):
        theta, phi = zx_pair
        res = lifted(theta, phi, GridPoint(2, 2), GridPoint(1, 1))
        dsp = res.dsp
        e = dsp.embed_h
        for g in grid_points(GridPoint(1, 1)):
            word = np.linalg.matrix_power(theta.ops[0], g.a) @ np.linalg.matrix_power(
                phi.ops[0], g.b
            )
            for x in (np.eye(2, dtype=complex), np.diag([1.0, 3.0 + 0j])):
                got = dagger(e) @ res.alpha(g, e @ x @ dagger(e)) @ e
                assert fro(got - word @ x @ dagger(word)) < 1e-9

    @pytest.mark.parametrize("name", ["corner", "mix/mix", "rotated"])
    def test_lift_shifts_generators(self, name):
        # V_g(e_w) sends the generator (u, zeta tensor h) to
        # (g + u, (e_w . zeta) tensor h) for every u <= horizon - g.
        res = lifted(*named_pair(name), GridPoint(2, 2), GridPoint(1, 1))
        sys_, dsp = res.sys, res.dsp
        n = sys_.dim_h
        for g in grid_points(dsp.margin):
            for u in grid_points(dsp.horizon - g):
                mult = oracle_product_unitary(sys_, g, u)
                fd_u = sys_.fiber_dim(u)
                for w, v in enumerate(res.v_blocks_for(g)):
                    left = np.kron(mult[:, w * fd_u:(w + 1) * fd_u], np.eye(n))
                    want = dsp.blocks[g + u] @ left
                    assert fro(v @ dsp.blocks[u] - want) < 1e-12

    def test_mix_pair_at_dim_k_512(self):
        # N = 1922 generators and dim K = 512: nothing of size N x N may be formed.
        family = CommutingFamily(2, np.random.default_rng(5))
        theta, phi = mix_of_unitaries(family, 2), mix_of_unitaries(family, 2)
        start = time.perf_counter()
        res = lifted(theta, phi, GridPoint(4, 4), GridPoint(1, 1))
        assert time.perf_counter() - start < 3.0
        assert res.dsp.big.total_dim == 1922 and res.dsp.dim_k == 512
        assert len(res.v_blocks_for(GridPoint(1, 1))) == 4

    def test_out_of_margin_rejected(self, corner_pair):
        res = lifted(*corner_pair, GridPoint(2, 2), GridPoint(1, 1))
        with pytest.raises(OutOfHorizonError):
            res.v_blocks_for(GridPoint(2, 0))

    def test_word_stack_is_a_view_of_one_product(self, corner_pair):
        # fiber_dim((1, 0)) = 2: the stack of two V_g(e_w) and the wide
        # product [V_1 V_2] that alpha and verify_e_dilation read share memory.
        res = lifted(*corner_pair, GridPoint(2, 2), GridPoint(1, 1))
        v = res.v_blocks_for(GridPoint(1, 0))
        assert len(v) == 2
        assert np.shares_memory(dilation._hstack(v), v)

    def test_alpha_routes_agree_on_embedded_arguments(self, corner_pair):
        # Lifted V_g route vs exact generator-block route.
        res = lifted(*corner_pair, GridPoint(2, 2), GridPoint(1, 1))
        dsp = res.dsp
        rng = np.random.default_rng(3)
        for g in grid_points(dsp.margin):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            via_v = res.alpha(g, res.embed(a))
            via_blocks = oracle_alpha_corner(res, g, a)
            assert fro(via_v - via_blocks) < 1e-10

    def test_endomorphism_on_matrix_units(self, corner_pair):
        res = lifted(*corner_pair, GridPoint(2, 2), GridPoint(1, 1))
        g = GridPoint(1, 0)
        units = [np.zeros((2, 2), dtype=complex) for _ in range(4)]
        for idx, (r, c) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
            units[idx][r, c] = 1.0
        worst = 0.0
        for x in units:
            for y in units:
                lhs = res.alpha(g, res.embed(x @ y))
                rhs = res.alpha(g, res.embed(x)) @ res.alpha(g, res.embed(y))
                worst = max(worst, fro(lhs - rhs))
        assert worst < 1e-8


class TestVerification:
    def test_identity_pair_report_all_zero(self, scalar_identity):
        theta = identity_channel(1)
        rep = verify_e_dilation(scalar_identity, theta, theta, GridPoint(1, 1))
        assert rep.passed
        assert rep.dilation_residual < 1e-12

    def test_zx_pair_passes(self, zx_pair):
        res = lifted(*zx_pair, GridPoint(2, 2), GridPoint(1, 1))
        rep = verify_e_dilation(res, *zx_pair, GridPoint(1, 1))
        assert rep.passed
        assert rep.p_increase_min_eig > -1e-10

    def test_zx_pair_wide_grid_limit(self, zx_pair):
        res = lifted(*zx_pair, GridPoint(3, 3), GridPoint(2, 2))
        rep = verify_e_dilation(res, *zx_pair, GridPoint(2, 2), tol=1e-10)
        assert rep.passed

    def test_conjugation_pair_wide_grid_limit(self, rng):
        family = CommutingFamily(2, rng)
        theta = KrausFamily(2, (family.member(),))
        phi = KrausFamily(2, (family.member(),))
        res = lifted(theta, phi, GridPoint(3, 3), GridPoint(2, 2))
        rep = verify_e_dilation(res, theta, phi, GridPoint(2, 2))
        assert rep.passed

    def test_compression_order_telescopes(self, corner_pair):
        # P_g then P_h through the dilation equals P_{g+h}.
        theta, phi = corner_pair
        res = lifted(theta, phi, GridPoint(2, 2), GridPoint(1, 1))
        g, h = GridPoint(1, 0), GridPoint(0, 1)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        p_h = compress(res, res.alpha(h, res.embed(x)))
        p_g_then_h = compress(res, res.alpha(g, res.embed(p_h)))
        p_gh = compress(res, res.alpha(g + h, res.embed(x)))
        assert fro(p_g_then_h - p_gh) < 1e-10

    def test_grid_limit_beyond_margin_rejected(self, corner_pair):
        res = lifted(*corner_pair, GridPoint(2, 2), GridPoint(1, 1))
        with pytest.raises(OutOfHorizonError):
            verify_e_dilation(res, *corner_pair, GridPoint(2, 2))

    def test_truncation_semantics_at_the_boundary(self, corner_pair):
        # Unitality makes generator spans increase along the grid, so
        # alpha_g(1) = 1 holds globally even at a finite horizon. The isometry
        # side is where truncation is real: V_g(x)* V_g(x) is the proper
        # projection onto the valid generator span, not the identity.
        res = lifted(*corner_pair, GridPoint(2, 2), GridPoint(1, 1))
        dsp = res.dsp
        g = GridPoint(1, 1)
        alpha_id = res.alpha(g, np.eye(dsp.dim_k, dtype=complex))
        assert fro(alpha_id - np.eye(dsp.dim_k)) < 1e-10
        v = res.v_blocks_for(g)[0]
        p_g = oracle_span_projector(dsp, dsp.horizon - g)
        assert fro(dagger(v) @ v - p_g) < 1e-10
        assert fro(dagger(v) @ v - np.eye(dsp.dim_k)) > 0.5
        assert fro(p_g @ p_g - p_g) < 1e-10

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_random_certified_pairs_pass(self, seed):
        rng = np.random.default_rng(seed)
        family = CommutingFamily(2, rng)
        theta = mix_of_unitaries(family, 2)
        phi = KrausFamily(2, (family.member(),))
        res = lifted(theta, phi, GridPoint(2, 2), GridPoint(1, 1))
        rep = verify_e_dilation(res, theta, phi, GridPoint(1, 1))
        assert rep.passed
        # Cross-check the dilation identity against the direct Kraus powers.
        x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        got = compress(res, res.alpha(GridPoint(1, 1), res.embed(x)))
        expected = apply_kraus(theta, apply_kraus(phi, x))
        assert fro(got - expected) < 1e-9


class TestMinimality:
    def test_identity_pair_span_is_one(self, scalar_identity):
        rep = minimality_check(scalar_identity)
        assert rep.span_dim == 1 and rep.span_full
        assert rep.commutant_dim == 1

    def test_zx_pair_span_two_at_depth_one(self, zx_pair):
        res = lifted(*zx_pair, GridPoint(2, 2), GridPoint(1, 1))
        rep = minimality_check(res)
        assert rep.span_dim == rep.dim_k == 2
        assert rep.commutant_dim == 1

    def test_corner_pair_commutant_is_scalars(self, corner_pair):
        res = lifted(*corner_pair, GridPoint(2, 2), GridPoint(1, 1))
        rep = minimality_check(res)
        assert rep.span_dim == rep.dim_k and rep.span_full
        assert rep.commutant_dim == 1 and rep.passed
        # R = B(K): the generated algebra is everything.
        assert rep.closure_dim == rep.dim_k**2

    def test_scalar_commutant_skips_the_span(self, corner_pair, monkeypatch):
        # B(K) has no proper invariant subspace: with a scalar commutant the
        # span is K, read off the one commutant solve with no SVD of a pile
        # of words.
        res = lifted(*corner_pair, GridPoint(3, 3), GridPoint(1, 1))
        solves = []
        solve = dilation._block_commutant
        monkeypatch.setattr(
            dilation, "_block_commutant", lambda *args: solves.append(1) or solve(*args)
        )

        def refuse(*args, **kwargs):
            raise AssertionError("an SVD ran")

        monkeypatch.setattr(np.linalg, "svd", refuse)
        rep = minimality_check(res)
        assert len(solves) == 1
        assert rep.span_dim == rep.dim_k and rep.span_full
        assert rep.commutant_dim == 1 and rep.passed
        assert rep.closure_dim == rep.dim_k**2

    def test_mix_pair_at_dim_k_128(self):
        # The d^2 x d^2 commutator operator would need 12.8 GiB here, and the
        # stack of all 64 generators alpha_g(e_rc) 16 MiB.
        family = CommutingFamily(2, np.random.default_rng(5))
        theta, phi = mix_of_unitaries(family, 2), mix_of_unitaries(family, 2)
        res = lifted(theta, phi, GridPoint(3, 3), GridPoint(1, 1))
        elapsed = []
        for _ in range(3):
            start = time.perf_counter()
            minimality_check(res)
            elapsed.append(time.perf_counter() - start)
        assert min(elapsed) < 2.0
        tracemalloc.start()
        try:
            rep = minimality_check(res)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 128**2 * 16
        assert rep.dim_k == rep.span_dim == 128
        assert rep.commutant_dim == 1
        assert rep.closure_dim == 128**2

    def test_corner_pair_at_dim_k_256_holds_no_generator_copy(self, corner_pair):
        # The generators are read from the stored factor blocks: no
        # transposed copy of them, and no (n dim K)^2 outer product per grid
        # point, is made (7.25 n^2 dim K^2 16 B with both, 5.75 without).
        res = lifted(*corner_pair, GridPoint(7, 0), GridPoint(0, 0))
        sys_, dsp = res.sys, res.dsp
        n, d = sys_.dim_h, dsp.dim_k
        assert d == 256
        tracemalloc.start()
        try:
            rep = minimality_check(res)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6.5 * n * n * d * d * 16
        assert rep.span_full and rep.commutant_dim == 1

    @staticmethod
    def _path_graph_check(embed):
        # Generators embed embed^* and (I + 0.4 path-graph adjacency) + [1] on
        # C^12 + C; the second one alone generates M_12 + C.
        d = 12
        path = np.diag(np.ones(d - 1), 1) + np.diag(np.ones(d - 1), -1)
        top = GridPoint(1, 0)
        chol = np.linalg.cholesky(np.eye(d) + 0.4 * path)
        dsp = SimpleNamespace(
            horizon=top,
            dim_k=d + 1,
            blocks={ZERO: embed, top: _direct_sum(chol, np.eye(1))},
            embed_h=embed,
        )
        rep = minimality_check(SimpleNamespace(dsp=dsp, sys=SimpleNamespace(dim_h=1)))
        gens = np.stack([embed @ dagger(embed), _direct_sum(np.eye(d) + 0.4 * path, np.eye(1))])
        assert rep.span_dim == oracle_span_dim(gens, embed, d + 1)
        return rep

    def test_span_runs_until_it_stops_growing(self):
        # Started at e_0 the commutant is C + C: each word reaches one more
        # vertex of the path, so the span needs words of length 11 to fill
        # C^12 and never leaves it.
        rep = self._path_graph_check(np.eye(13, 1, dtype=complex))
        assert (rep.span_dim, rep.commutant_dim, rep.closure_dim) == (12, 2, 12 * 12 + 1)
        assert not rep.span_full and not rep.passed

    def test_span_meets_both_summands(self):
        # A two-dimensional fiber at the origin, e_0 and e_12: E E^* is
        # e_0 e_0^* + e_12 e_12^*, in M_12 + C, so the commutant stays C + C
        # while the span reaches both summands and is all of K.
        rep = self._path_graph_check(np.eye(13, dtype=complex)[:, [0, 12]])
        assert (rep.span_dim, rep.commutant_dim, rep.closure_dim) == (13, 2, 12 * 12 + 1)
        assert rep.span_full and not rep.passed


def oracle_span_dim(gens, start, rounds, tol=1e-8):
    """Dimension of the span of the words of length <= rounds in gens applied
    to start: dense Krylov growth, rank by SVD of the whole pile each round."""
    basis = start
    for _ in range(rounds):
        pile = np.hstack([basis] + [g @ basis for g in gens])
        u, s, _ = np.linalg.svd(pile, full_matrices=False)
        grown = u[:, s > tol * s[0]]
        if grown.shape[1] == basis.shape[1]:
            break
        basis = grown
    return basis.shape[1]


def oracle_commutant(mats, tol=1e-8):
    """Commutant basis from the full d^2 x d^2 commutator operator.

    sum_g c_g^* c_g with c_g = I (x) a_g - a_g^T (x) I acts on column-stacked
    vec(X) as X -> sum_g [a_g^*, [a_g, X]]; expanded, it is
    I (x) sum a^* a + sum conj(a) a^T (x) I - sum (a^T (x) a^* + conj(a) (x) a).
    Its near-null eigenvectors, under the same 0.01 tol scale cut, span the
    commutant. O(d^4) memory, so small d only.
    """
    d = mats.shape[-1]
    ident = np.eye(d, dtype=complex)
    lop = np.kron(ident, sum(dagger(a) @ a for a in mats))
    lop += np.kron(sum(a.conj() @ a.T for a in mats), ident)
    for a in mats:
        lop -= np.kron(a.T, dagger(a)) + np.kron(a.conj(), a)
    evals, evecs = np.linalg.eigh(0.5 * (lop + dagger(lop)))
    scale = max(float(evals[-1]), 1.0)
    null = evecs[:, evals < 0.01 * tol * scale]
    return np.stack([v.reshape(d, d, order="F") for v in null.T])


def _units_of(n):
    """The n^2 matrix units E_rc of M_n, row-major in (r, c)."""
    return np.eye(n * n, dtype=complex).reshape(n * n, n, n)


def _direct_sum(a, b):
    out = np.zeros((a.shape[0] + b.shape[0],) * 2, dtype=complex)
    out[: a.shape[0], : a.shape[0]] = a
    out[a.shape[0]:, a.shape[0]:] = b
    return out


_PAULI_Y = np.array([[0, -1j], [1j, 0]])
_CLIFFORD_GAMMAS = [
    np.kron(PAULI_X, np.eye(2)),
    np.kron(_PAULI_Y, np.eye(2)),
    np.kron(PAULI_Z, PAULI_X),
    np.kron(PAULI_Z, _PAULI_Y),
]

# *-closed generator sets with known (commutant, generated algebra) dimensions.
SYNTHETIC_SETS = {
    "B(C^6)": (_units_of(6), (1, 36)),
    "M3 x I2": (np.stack([np.kron(e, np.eye(2)) for e in _units_of(3)]), (4, 9)),
    "M2 + M3": (
        np.stack(
            [_direct_sum(e, np.zeros((3, 3))) for e in _units_of(2)]
            + [_direct_sum(np.zeros((2, 2)), e) for e in _units_of(3)]
        ),
        (2, 13),
    ),
    "(M2 x I2) + M1": (
        np.stack(
            [_direct_sum(np.kron(e, np.eye(2)), np.zeros((1, 1))) for e in _units_of(2)]
            + [_direct_sum(np.zeros((4, 4)), np.eye(1))]
        ),
        (5, 5),
    ),
    # Every element is a multiple of I: the random element is fully degenerate.
    "scalars on C^3": (np.eye(3, dtype=complex)[None], (9, 1)),
    # Four anticommuting gammas generate M_4, yet every element of their span
    # has eigenvalues +-|alpha| of multiplicity 2 in M_4: the span's random
    # element clusters as [4, 4], although the algebra is M_4 x I_2.
    "Clifford M4 x I2": (
        np.stack([np.kron(g, np.eye(2)) for g in _CLIFFORD_GAMMAS]),
        (4, 16),
    ),
}


class TestCommutant:
    @pytest.mark.parametrize("name", sorted(SYNTHETIC_SETS))
    def test_synthetic_sets_match_oracle(self, name):
        mats, want = SYNTHETIC_SETS[name]
        # A random unitary frame, so no block is aligned with the standard
        # basis and degenerate eigenvalues are split by roundoff.
        u = random_unitary(mats.shape[-1], np.random.default_rng(11))
        mats = u @ mats @ dagger(u)
        comm = oracle_commutant(mats)
        assert len(comm) == want[0]
        assert len(oracle_commutant(comm)) == want[1]
        assert algebra_dims(mats) == want

    @pytest.mark.parametrize("name", sorted(SYNTHETIC_SETS))
    def test_one_cluster_gives_the_same_counts(self, name, monkeypatch):
        # Merging clusters only enlarges the search space of the solve. With
        # every eigenvalue in one cluster it runs over all of M_d; for the
        # direct sums S1 and S2 are then not scalar on the block.
        mats, want = SYNTHETIC_SETS[name]
        u = random_unitary(mats.shape[-1], np.random.default_rng(12))
        mats = u @ mats @ dagger(u)
        d = mats.shape[-1]
        coef, _, _ = dilation._block_commutant([mats], np.array([d]))
        assert coef.shape[1] == want[0]
        # The structure reading clusters with the same cutoff: a merged
        # cluster is refused, never counted.
        monkeypatch.setattr(dilation, "CLUSTER_REL", 10.0)
        if want[0] == 1:
            assert algebra_dims(mats) == want
        else:
            with pytest.raises(RuntimeError, match="no consistent block structure"):
                algebra_dims(mats)

    def test_cap_raises_before_allocating(self):
        d = math.isqrt(dilation.MAX_COMMUTANT_UNKNOWNS) + 1
        tracemalloc.start()
        try:
            with pytest.raises(CapExceededError):
                algebra_dims(np.eye(d, dtype=complex)[None])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The refused solve would hold a (d^2 x d^2) complex operator.
        assert peak < 0.01 * 16 * d**4

    def test_minimality_check_raises_over_cap(self, zx_pair, monkeypatch):
        res = lifted(*zx_pair, GridPoint(2, 2), GridPoint(1, 1))
        monkeypatch.setattr(dilation, "MAX_COMMUTANT_UNKNOWNS", 1)
        tracemalloc.start()
        try:
            with pytest.raises(CapExceededError):
                minimality_check(res)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Refused on the solve's size, before its operator is allocated:
        # about 8 KiB of blocks and frames are held.
        assert peak < 2**16

    def test_minimality_check_refuses_dim_k_before_its_random_element(
        self, corner_pair, monkeypatch
    ):
        # The unknowns are at least dim K = 256, so a cap of 255 refuses the
        # solve before the 1 MiB random element and its eigh are formed.
        res = lifted(*corner_pair, GridPoint(7, 0), GridPoint(0, 0))
        assert res.dsp.dim_k == 256
        monkeypatch.setattr(dilation, "MAX_COMMUTANT_UNKNOWNS", 255)
        tracemalloc.start()
        try:
            with pytest.raises(CapExceededError, match="dim K = 256 unknowns, over the cap 255"):
                minimality_check(res)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**18

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        lengths=st.tuples(st.integers(1, 3), st.integers(1, 3)),
        horizon=st.tuples(st.integers(1, 2), st.integers(1, 2)),
        pauli=st.booleans(),
    )
    # An ill-conditioned certificate once left 1e-13 roundoff in the Gram matrix.
    @example(seed=0, lengths=(1, 2), horizon=(1, 1), pauli=False)
    # Three commuting unitaries on M_2 are linearly dependent: K is not
    # minimal, and the commutant is M_2, which takes the non-abelian solve.
    @example(seed=0, lengths=(3, 3), horizon=(1, 1), pauli=False)
    # Words that anticommute: the flip has complex entries.
    @example(seed=0, lengths=(2, 2), horizon=(2, 2), pauli=True)
    def test_random_pairs_match_oracle(self, seed, lengths, horizon, pauli):
        rng = np.random.default_rng(seed)
        if pauli:
            theta, phi = pauli_mix_pair(rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8), rng)
            lengths = (2, 2)
        else:
            family = CommutingFamily(2, rng)
            theta, phi = (mix_of_unitaries(family, k) for k in lengths)
        # dim K <= 32 keeps the d^4 oracle small.
        assume(lengths[0] ** horizon[0] * lengths[1] ** horizon[1] <= 16)
        horizon = GridPoint(*horizon)
        res = lifted(theta, phi, horizon, GridPoint(1, 1))
        assert_factor_matches_oracle(res)
        rep = minimality_check(res)
        dsp = res.dsp
        # The oracle's generators come from the explicit kron formula.
        gens = np.stack(
            [oracle_alpha_corner(res, g, m) for g in grid_points(horizon) for m in _units_of(2)]
        )
        # The oracle stops once its span stops growing; dim K rounds always
        # suffice. It grows the span by Krylov rounds, independently of the
        # commutant solve that minimality_check reads the span from.
        assert rep.span_dim == oracle_span_dim(gens, dsp.embed_h, dsp.dim_k)
        comm = oracle_commutant(gens)
        assert rep.commutant_dim == len(comm)
        # The double-commutant oracle takes 13-16 s at 257-577 elements.
        if len(comm) <= 64:
            assert rep.closure_dim == len(oracle_commutant(comm))

    def test_redundant_pair_pinned(self):
        # A unital mix of three commuting unitaries for each map: Choi rank 2,
        # Kraus length 3, so K is (3/2)^(a+b) too large to be minimal.
        family = CommutingFamily(2, np.random.default_rng(0))
        theta, phi = mix_of_unitaries(family, 3), mix_of_unitaries(family, 3)
        pinned = (
            ((1, 1), (8, 4, 100)),
            ((2, 1), (16, 22, 420)),
            # A non-abelian commutant: the algebra's summands have
            # multiplicities above one.
            ((2, 2), (32, 121, 1764)),
        )
        for horizon, want in pinned:
            res = lifted(theta, phi, GridPoint(*horizon), GridPoint(1, 1))
            rep = minimality_check(res)
            assert (rep.span_dim, rep.commutant_dim, rep.closure_dim) == want


STAGES = (
    "build_product_system",
    "build_big_space",
    "build_dilation_space",
    "lift_operators",
    "verify_e_dilation",
    "minimality_check",
)


class TestDilate:
    @pytest.mark.parametrize("name", ["corner", "rotated"])
    def test_matches_the_stage_chain(self, name):
        theta, phi = named_pair(name)
        horizon, margin = GridPoint(2, 2), GridPoint(1, 1)
        run = dilate(theta, phi, horizon, margin)
        res = lifted(theta, phi, horizon, margin)
        assert run.report == verify_e_dilation(res, theta, phi, margin)
        assert run.minimality == minimality_check(res)
        assert run.passed == (run.report.passed and run.minimality.passed)
        assert run.res.v_blocks.keys() == res.v_blocks.keys()
        for g, stack in res.v_blocks.items():
            assert np.array_equal(run.res.v_blocks[g], stack)
        if name == "rotated":
            assert np.abs(run.res.sys.flip.imag).max() > 0.1

    def test_supplied_certificate_gives_the_same_run(self, corner_pair, monkeypatch):
        horizon, margin = GridPoint(2, 2), GridPoint(1, 1)
        cert = strong_commutation_certificate(*corner_pair)
        computed = dilate(*corner_pair, horizon, margin)

        def refuse(*args):
            raise AssertionError("the certificate was computed again")

        monkeypatch.setattr(dilation, "strong_commutation_certificate", refuse)
        run = dilate(*corner_pair, horizon, margin, cert=cert)
        assert run.cert is cert
        assert run.report == computed.report and run.minimality == computed.minimality
        for g, stack in computed.res.v_blocks.items():
            assert np.array_equal(run.res.v_blocks[g], stack)

    def test_non_commuting_pair_raises(self, rng):
        theta, phi = random_contractive(2, 2, rng), random_contractive(2, 2, rng)
        with pytest.raises(NonCommutingError):
            dilate(theta, phi, GridPoint(1, 1), GridPoint(1, 1))

    def test_each_stage_runs_once(self, zx_pair, monkeypatch):
        # The stages are looked up on the module at call time, where a tracer
        # that swaps them finds each one.
        calls = []
        for name in STAGES:
            stage = getattr(dilation, name)
            monkeypatch.setattr(
                dilation, name,
                lambda *a, _name=name, _stage=stage, **k: calls.append(_name) or _stage(*a, **k),
            )
        assert dilate(*zx_pair, GridPoint(2, 2), GridPoint(1, 1)).passed
        assert calls == list(STAGES)
