"""The factored verifiers against their per-unit loop definitions.

`verify_e_dilation` and `verify_representation` form every residual from thin
factors and batched products. The oracles below are the plain loops over
matrix units, fiber words and grid splits, with alpha_g summed word by word,
the isometry stated against an eigendecomposition of the generator cover
(`conftest.oracle_span_projector`) and the p-increase read off the full
dim_k x dim_k gap, so the fast path is never checked against itself.
"""

import collections
import dataclasses
import json
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cpdilate import prodsys
from cpdilate.chan import KrausFamily, apply_kraus, channel_from_json, classify, identity_channel
from cpdilate.dilation import (
    PSD_FLOOR,
    build_big_space,
    build_dilation_space,
    lift_operators,
    minimality_check,
    verify_e_dilation,
)
from cpdilate.linalg import DEFAULT_TOL, DEFAULT_VERIFY_TOL, dagger, fro, hermitize
from cpdilate.prodsys import ZERO, GridPoint, grid_points, verify_representation

from conftest import (
    FIXTURES,
    CommutingFamily,
    compress,
    corner_collapse_channel,
    lifted,
    make_system,
    mix_of_unitaries,
    oracle_product_unitary,
    oracle_span_projector,
    pauli_mix_pair,
    random_unitary,
)

DILATION_KEYS = (
    "isometry", "coisometry", "dilation", "semigroup", "multiplicativity", "p_increase_min_eig",
)
REPRESENTATION_KEYS = ("identity", "homomorphism", "coisometry")


def _units(n):
    units = []
    for r in range(n):
        for c in range(n):
            e = np.zeros((n, n), dtype=complex)
            e[r, c] = 1.0
            units.append(e)
    return units


def _kraus_power(theta, phi, g, x):
    """Theta^a(Phi^b(x)), one Kraus application at a time."""
    out = np.asarray(x, dtype=complex)
    for _ in range(g.b):
        out = apply_kraus(phi, out)
    for _ in range(g.a):
        out = apply_kraus(theta, out)
    return out


def _loop_alpha(res, g, b):
    return sum(m @ b @ dagger(m) for m in res.v_blocks_for(g))


def oracle_verify_e_dilation(res, theta, phi, grid_limit) -> dict:
    """The six dilation residuals, each a max over matrix units, words and points."""
    dsp = res.dsp
    units = _units(res.sys.dim_h)
    pts = grid_points(grid_limit)
    eye_k = np.eye(dsp.dim_k, dtype=complex)
    p = dsp.embed_h @ dagger(dsp.embed_h)
    out = dict.fromkeys(DILATION_KEYS, 0.0)

    def worst(key, value):
        out[key] = max(out[key], value)

    for g in pts:
        for x in units:
            rhs = compress(res, _loop_alpha(res, g, res.embed(x)))
            worst("dilation", fro(_kraus_power(theta, phi, g, x) - rhs))
        for x in units:
            for y in units:
                lhs = _loop_alpha(res, g, res.embed(x @ y))
                rhs = _loop_alpha(res, g, res.embed(x)) @ _loop_alpha(res, g, res.embed(y))
                worst("multiplicativity", fro(lhs - rhs))
        worst("coisometry", fro(_loop_alpha(res, g, eye_k) - eye_k))
        p_g = oracle_span_projector(dsp, dsp.horizon - g)
        mats = res.v_blocks_for(g)
        for ix, vx in enumerate(mats):
            for iy, vy in enumerate(mats):
                inner = 1.0 if ix == iy else 0.0
                worst("isometry", fro(dagger(vx) @ vy - inner * p_g))
        gap = hermitize(_loop_alpha(res, g, p) - p)
        out["p_increase_min_eig"] = min(
            out["p_increase_min_eig"], float(np.linalg.eigvalsh(gap)[0])
        )

    for g in pts:
        for h in pts:
            if not (g + h) <= grid_limit:
                continue
            for x in units:
                lhs = _loop_alpha(res, g, _loop_alpha(res, h, res.embed(x)))
                rhs = _loop_alpha(res, g + h, res.embed(x))
                worst("semigroup", fro(lhs - rhs))
    return out


def oracle_verify_representation(sys, horizon, tol=DEFAULT_TOL) -> dict:
    """The three representation residuals with dense Kronecker products, one
    split at a time, with the product map of the flip-by-flip sweep.

    Reads `prodsys.representation_matrix`, a reader of the word-operator
    table `prodsys._word_operators`, so a test that replaces the table
    reaches both paths.
    """
    n = sys.dim_h
    reps = {g: prodsys.representation_matrix(sys, g) for g in grid_points(horizon)}
    theta, phi = sys.theta, sys.phi
    unital = classify(theta, tol).is_unital and classify(phi, tol).is_unital
    out = dict.fromkeys(REPRESENTATION_KEYS, 0.0)
    for g, rep in reps.items():
        fd = sys.fiber_dim(g)
        for x in _units(n):
            lhs = rep @ np.kron(np.eye(fd, dtype=complex), x) @ dagger(rep)
            out["identity"] = max(out["identity"], fro(lhs - _kraus_power(theta, phi, g, x)))
        if unital:
            out["coisometry"] = max(out["coisometry"], fro(rep @ dagger(rep) - np.eye(n)))
    for g1 in grid_points(horizon):
        for g2 in grid_points(horizon - g1):
            u = oracle_product_unitary(sys, g1, g2)
            lhs = reps[g1 + g2] @ np.kron(u, np.eye(n, dtype=complex))
            rhs = reps[g1] @ np.kron(np.eye(sys.fiber_dim(g1), dtype=complex), reps[g2])
            out["homomorphism"] = max(out["homomorphism"], fro(lhs - rhs))
    return out


def dilation_residuals(rep) -> dict:
    return {
        "isometry": rep.isometry_residual,
        "coisometry": rep.coisometry_residual,
        "dilation": rep.dilation_residual,
        "semigroup": rep.semigroup_residual,
        "multiplicativity": rep.multiplicativity_residual,
        "p_increase_min_eig": rep.p_increase_min_eig,
    }


def representation_residuals(rep) -> dict:
    return {
        "identity": rep.identity_residual,
        "homomorphism": rep.homomorphism_residual,
        "coisometry": rep.coisometry_residual,
    }


def assert_agree(got: dict, want: dict, abs_tol: float = 1e-12):
    assert got.keys() == want.keys()
    for key in got:
        assert abs(got[key] - want[key]) <= abs_tol, (key, got[key], want[key])


def mix_pair(n, lengths, seed):
    family = CommutingFamily(n, np.random.default_rng(seed))
    return tuple(mix_of_unitaries(family, k) for k in lengths)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 3),
    lengths=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    horizon=st.tuples(st.integers(0, 2), st.integers(0, 2)),
    margin=st.tuples(st.integers(0, 1), st.integers(0, 1)),
)
def test_residuals_match_loop_oracles(seed, n, lengths, horizon, margin):
    horizon = GridPoint(*horizon)
    margin = GridPoint(min(margin[0], horizon.a), min(margin[1], horizon.b))
    # The oracle costs n^4 fd dim_k^3 per grid point; keep each draw under a second.
    assume(n * lengths[0] ** horizon.a * lengths[1] ** horizon.b <= 54)
    theta, phi = mix_pair(n, lengths, seed)
    res = lifted(theta, phi, horizon, margin)

    assert_agree(
        dilation_residuals(verify_e_dilation(res, theta, phi, margin)),
        oracle_verify_e_dilation(res, theta, phi, margin),
    )
    assert_agree(
        representation_residuals(verify_representation(res.sys, horizon)),
        oracle_verify_representation(res.sys, horizon),
    )


@pytest.mark.parametrize("n, horizon", [(2, (2, 2)), (3, (1, 2)), ("pauli", (2, 2))])
def test_broken_lift_moves_every_residual(n, horizon):
    if n == "pauli":
        theta, phi = pauli_mix_pair(0.3, 0.6, np.random.default_rng(0))
    else:
        theta, phi = mix_pair(n, (2, 2), 7)
    res = lifted(theta, phi, GridPoint(*horizon), GridPoint(1, 1))
    margin = res.dsp.margin
    assert verify_e_dilation(res, theta, phi, margin).passed
    # A V_(1,0) shrunk by 0.9 is no isometry, alpha_(1,0)(1) = 0.81 and
    # alpha_(1,0)(p) no longer dominates p.
    blocks = dict(res.v_blocks)
    blocks[GridPoint(1, 0)] = 0.9 * blocks[GridPoint(1, 0)]
    broken = dataclasses.replace(res, v_blocks=blocks)
    got = dilation_residuals(verify_e_dilation(broken, theta, phi, margin))
    want = oracle_verify_e_dilation(broken, theta, phi, margin)
    for values in (got, want):
        assert values["p_increase_min_eig"] < -PSD_FLOOR
        for key in DILATION_KEYS[:-1]:
            assert values[key] > DEFAULT_VERIFY_TOL, key
    assert_agree(got, want)


def test_isometry_sees_overlapping_words():
    # Two words sharing one operator: every diagonal block V_x^* V_x is still
    # P_g, and only the off-diagonal block V_0^* V_1 = P_g shows the defect.
    theta, phi = mix_pair(2, (2, 2), 7)
    res = lifted(theta, phi, GridPoint(2, 2), GridPoint(1, 1))
    g = GridPoint(1, 1)
    blocks = dict(res.v_blocks)
    blocks[g] = blocks[g].copy()
    blocks[g][1] = blocks[g][0]
    broken = dataclasses.replace(res, v_blocks=blocks)
    got = verify_e_dilation(broken, theta, phi, g).isometry_residual
    want = oracle_verify_e_dilation(broken, theta, phi, g)["isometry"]
    assert got > DEFAULT_VERIFY_TOL and want > DEFAULT_VERIFY_TOL
    assert abs(got - want) <= 1e-12


def test_isometry_sees_a_generator_outside_the_top_block():
    # A lower generator moved off the range of B = blocks[(1,1)], the
    # generators at horizon - g for g = (1,1): the lift never reads it, so
    # only the generator span shows the defect.
    theta, phi = mix_pair(2, (2, 2), 7)
    res = lifted(theta, phi, GridPoint(2, 2), GridPoint(1, 1))
    dsp = res.dsp
    gens = dsp.blocks[GridPoint(1, 1)]
    rng = np.random.default_rng(3)
    z = rng.normal(size=dsp.dim_k) + 1j * rng.normal(size=dsp.dim_k)
    z -= gens @ (dagger(gens) @ z)
    low = dsp.blocks[GridPoint(1, 0)].copy()
    low[:, 0] = z / np.linalg.norm(z)
    blocks = {**dsp.blocks, GridPoint(1, 0): low}
    broken = dataclasses.replace(res, dsp=dataclasses.replace(dsp, blocks=blocks))
    got = verify_e_dilation(broken, theta, phi, res.dsp.margin).isometry_residual
    want = oracle_verify_e_dilation(broken, theta, phi, res.dsp.margin)["isometry"]
    assert got > DEFAULT_VERIFY_TOL and want > DEFAULT_VERIFY_TOL


@pytest.mark.parametrize("limit", [(1, 1), (2, 2)])
def test_isometry_sees_a_scaled_top_block(limit):
    # Part of B = blocks[limit] scaled before the lift: V_g, g = (2,2) - limit,
    # is built from the scaled B, so V_x^* V_y = delta_xy B B^* still holds.
    # At (1,1) B B^* no longer fixes the lower generators; at (2,2) B is
    # square, there are none to test, and only B^* B != 1 shows the defect.
    theta, phi = mix_pair(2, (2, 2), 7)
    res = lifted(theta, phi, GridPoint(2, 2), GridPoint(1, 1))
    dsp = res.dsp
    gens = dsp.blocks[GridPoint(*limit)].copy()
    gens[:, :2] *= 0.9
    blocks = {**dsp.blocks, GridPoint(*limit): gens}
    broken = lift_operators(dataclasses.replace(dsp, blocks=blocks), res.sys)
    got = verify_e_dilation(broken, theta, phi, dsp.margin).isometry_residual
    want = oracle_verify_e_dilation(broken, theta, phi, dsp.margin)["isometry"]
    assert got > DEFAULT_VERIFY_TOL and want > DEFAULT_VERIFY_TOL


@pytest.mark.parametrize("shrink", [1.0, 0.9])
@pytest.mark.parametrize("pair, horizon", [("wide_r", (1, 1)), ("pauli", (2, 2))])
def test_oracle_agreement(pair, horizon, shrink):
    # wide_r: M_2 mix/mix at (1,1), dim K = 8 below n fd + n = 10 at g = (1,1),
    # so the p-increase factor R is wide. pauli: a complex flip.
    if pair == "wide_r":
        theta, phi = mix_pair(2, (2, 2), 7)
    else:
        theta, phi = pauli_mix_pair(0.3, 0.6, np.random.default_rng(0))
    horizon = GridPoint(*horizon)
    res = lifted(theta, phi, horizon, GridPoint(1, 1))
    if pair == "wide_r":
        assert res.dsp.dim_k < 2 * res.sys.fiber_dim(GridPoint(1, 1)) + 2
    res = dataclasses.replace(res, v_blocks={g: shrink * v for g, v in res.v_blocks.items()})
    got = dilation_residuals(verify_e_dilation(res, theta, phi, GridPoint(1, 1)))
    assert_agree(got, oracle_verify_e_dilation(res, theta, phi, GridPoint(1, 1)))
    if shrink < 1.0:
        assert got["p_increase_min_eig"] < -PSD_FLOOR
        assert got["isometry"] > DEFAULT_VERIFY_TOL


def _fixture_pair(*names):
    return tuple(
        channel_from_json(json.loads((FIXTURES / f"channel_{name}.json").read_text()))
        for name in names
    )


def _min_rank(res, g, compress_to_h=False):
    """The smallest rank among the thin factors A_r of alpha_g, or among
    their compressions e^* A_r to H."""
    e = res.dsp.embed_h
    thin = (res.v_blocks_for(g) @ e).transpose(2, 1, 0)
    if compress_to_h:
        thin = dagger(e) @ thin
    return min(np.linalg.matrix_rank(a, tol=1e-10) for a in thin)


R_COORDINATE_CASES = {
    # Kraus columns e^* A_r of rank below dim X(g): the corner map kills
    # e_11, and three commuting unitaries on M_2 are linearly dependent.
    "corner": (lambda: (corner_collapse_channel(), identity_channel(2)), (2, 2), (1, 1)),
    "mix3": (lambda: _fixture_pair("mix3_a", "mix3_b"), (2, 1), (1, 1)),
    # Scalars at margin = horizon: dim K = 4 < 2 dim X(1,1) = 8, so the
    # semigroup QR of [B_r A'_r] returns a wide R.
    "wide_r": (lambda: mix_pair(1, (2, 2), 3), (1, 1), (1, 1)),
    # Words that anticommute: the flip has complex entries.
    "pauli": (lambda: pauli_mix_pair(0.3, 0.6, np.random.default_rng(0)), (2, 2), (1, 1)),
}


@pytest.mark.parametrize(
    "case, defect",
    # test_oracle_agreement covers the honest and the shrunk pauli pair.
    [(c, d) for c in ("corner", "mix3", "wide_r") for d in (None, "shrink", "overlap")]
    + [("pauli", "overlap")],
)
def test_r_coordinate_residuals_match_oracle(case, defect):
    # Multiplicativity and semigroup are measured in the R factors of thin
    # QRs; [B_r A'_r] has rank dim X(g) of its 2 dim X(g) columns whenever
    # the semigroup law holds. An overlap defect (word 1 of V_g set to word
    # 0) makes the thin factors A_r themselves rank-deficient.
    make, horizon, margin = R_COORDINATE_CASES[case]
    theta, phi = make()
    margin = GridPoint(*margin)
    res = lifted(theta, phi, GridPoint(*horizon), margin)
    fd = res.sys.fiber_dim(margin)
    if case == "wide_r":
        assert res.dsp.dim_k < 2 * fd
    elif case != "pauli":
        assert _min_rank(res, margin, compress_to_h=True) < fd
    blocks = dict(res.v_blocks)
    if defect == "shrink":
        blocks = {g: 0.9 * v for g, v in blocks.items()}
    elif defect == "overlap":
        blocks[margin] = blocks[margin].copy()
        blocks[margin][1] = blocks[margin][0]
    res = dataclasses.replace(res, v_blocks=blocks)
    if defect == "overlap":
        assert _min_rank(res, margin) < fd
    got = dilation_residuals(verify_e_dilation(res, theta, phi, margin))
    assert_agree(got, oracle_verify_e_dilation(res, theta, phi, margin))
    if defect:
        assert got["multiplicativity"] > DEFAULT_VERIFY_TOL
        assert got["semigroup"] > DEFAULT_VERIFY_TOL


def test_verify_decomposes_only_thin_problems(monkeypatch):
    # M_2 mix/mix at (2,2): dim K = 32, while [A E] at g = (1,1) has
    # n fd + n = 10 columns; no eigendecomposition may be larger.
    theta, phi = mix_pair(2, (2, 2), 7)
    res = lifted(theta, phi, GridPoint(2, 2), GridPoint(1, 1))
    bound = 2 * res.sys.fiber_dim(GridPoint(1, 1)) + 2
    assert res.dsp.dim_k > bound
    sizes = []
    for name in ("eigh", "eigvalsh"):

        def guarded(a, *args, _honest=getattr(np.linalg, name), **kwargs):
            sizes.append(a.shape[-1])
            assert a.shape[-1] <= bound, a.shape
            return _honest(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, guarded)
    assert verify_e_dilation(res, theta, phi, GridPoint(1, 1)).passed
    assert sizes


@pytest.mark.parametrize("defect", ["scaled", "perturbed"])
def test_broken_representation_moves_every_residual(defect, monkeypatch):
    sys_ = make_system(*mix_pair(2, (2, 3), 8))
    horizon = GridPoint(2, 2)
    assert verify_representation(sys_, horizon).passed
    honest = prodsys._word_operators
    rng = np.random.default_rng(9)
    seen: dict = {}

    def broken(system, limit):
        # Memoized per grid point, so that both paths see the same defective
        # word operators, however many tables they build.
        table = honest(system, limit)
        for g, words in table.items():
            if g in seen:
                continue
            if g == ZERO:
                seen[g] = words
            elif defect == "scaled":
                seen[g] = 0.9 * words
            else:
                noise = rng.normal(size=words.shape) + 1j * rng.normal(size=words.shape)
                seen[g] = words + 1e-3 * noise
        return {g: seen[g] for g in table}

    monkeypatch.setattr(prodsys, "_word_operators", broken)
    got = representation_residuals(verify_representation(sys_, horizon))
    want = oracle_verify_representation(sys_, horizon)
    for values in (got, want):
        for key in REPRESENTATION_KEYS:
            assert values[key] > DEFAULT_VERIFY_TOL, key
    assert_agree(got, want)


def test_wide_fiber_verifies_in_under_a_second():
    # M_3 mix/mix at (3,3): dim K = 192 and 81 products per grid point.
    theta, phi = mix_pair(3, (2, 2), 5)
    res = lifted(theta, phi, GridPoint(3, 3), GridPoint(1, 1))
    assert res.dsp.dim_k == 192
    start = time.perf_counter()
    rep = verify_e_dilation(res, theta, phi, GridPoint(1, 1))
    assert time.perf_counter() - start < 1.0
    assert rep.passed


def test_verify_memory_at_dim_k_512():
    # M_2 mix/mix at (4,4): no (n dim K)^2 outer product, so the traced peak
    # stays under 12 dim K^2 complex entries (48 MiB); forming that product
    # and its difference for the semigroup check took 61.5 MiB.
    theta, phi = mix_pair(2, (2, 2), 5)
    res = lifted(theta, phi, GridPoint(4, 4), GridPoint(1, 1))
    k = res.dsp.dim_k
    assert k == 512
    peak = _traced_peak(lambda: verify_e_dilation(res, theta, phi, GridPoint(1, 1)))
    assert peak < 12 * k * k * 16


def test_broken_flip_moves_homomorphism_residual():
    # A flip that is unitary but not the certificate's breaks every split that
    # reorders letters, on the block-flip path and on the sweep oracle alike.
    sys_ = make_system(*mix_pair(2, (2, 3), 8))
    horizon = GridPoint(2, 2)
    assert verify_representation(sys_, horizon).passed
    broken = dataclasses.replace(sys_, flip=random_unitary(6, np.random.default_rng(3)))
    got = verify_representation(broken, horizon).homomorphism_residual
    want = oracle_verify_representation(broken, horizon)["homomorphism"]
    assert got > DEFAULT_VERIFY_TOL and want > DEFAULT_VERIFY_TOL
    assert abs(got - want) <= 1e-12


def test_each_block_flip_built_once_per_system(monkeypatch):
    # Every Sigma(b, a) but the unit flip Sigma(1, 1) is one tensordot. The
    # three stages of one system share its table: at (3, 3) they need
    # Sigma(b, a) for 1 <= a, b <= 3, so 8 products in all.
    built: list = []
    tensordot = np.tensordot

    def counting(*args, **kwargs):
        built.append(args[0].shape)
        return tensordot(*args, **kwargs)

    theta, phi = mix_pair(2, (2, 3), 6)
    horizon, margin = GridPoint(3, 3), GridPoint(1, 1)
    big, sys_ = build_big_space(make_system(theta, phi), horizon)
    monkeypatch.setattr(prodsys.np, "tensordot", counting)
    verify_representation(sys_, horizon)
    lift_operators(build_dilation_space(big, sys_, margin), sys_)
    assert len(built) == 3 * 3 - 1


class _CountingTable(dict):
    """A word table that counts how often each grid point is stored."""

    def __init__(self):
        super().__init__()
        self.stores = collections.Counter()

    def __setitem__(self, key, value):
        self.stores[key] += 1
        super().__setitem__(key, value)


def test_pipeline_reads_one_representation_of_the_pair(monkeypatch):
    # The whole pipeline on a mix/conj pair at (3,3)/(1,1): once the system
    # is built no Kraus family is constructed or validated again, and its
    # three readers share one word table, each stack built once, read-only.
    theta, phi = mix_pair(2, (2, 1), 4)
    horizon, margin = GridPoint(3, 3), GridPoint(1, 1)
    sys_ = make_system(theta, phi)
    table = _CountingTable()
    object.__setattr__(sys_, "_words", table)
    constructed: list = []
    post_init = KrausFamily.__post_init__
    monkeypatch.setattr(
        KrausFamily, "__post_init__", lambda self: constructed.append(self) or post_init(self)
    )
    assert verify_representation(sys_, horizon).passed
    big, sys_ = build_big_space(sys_, horizon)
    res = lift_operators(build_dilation_space(big, sys_, margin), sys_)
    assert verify_e_dilation(res, theta, phi, margin).passed
    assert minimality_check(res).passed
    assert constructed == []
    assert table.stores == {g: 1 for g in grid_points(horizon)}
    assert not any(stack.flags.writeable for stack in table.values())


def test_deep_grid_representation_is_cheap():
    # M_2 mix/mix at (4,4): 625 splits, fibers of dimension up to 256.
    sys_ = make_system(*mix_pair(2, (2, 2), 5))
    horizon = GridPoint(4, 4)
    assert verify_representation(sys_, horizon).passed
    # Best of three, so that one slow sample on a shared machine does not fail.
    elapsed = []
    for _ in range(3):
        start = time.perf_counter()
        verify_representation(sys_, horizon)
        elapsed.append(time.perf_counter() - start)
    assert min(elapsed) < 0.1
    assert _traced_peak(lambda: verify_representation(sys_, horizon)) < 8 * 2**20


def _traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_representation_memory_does_not_grow_with_the_grid():
    # Conjugations on M_16: every fiber is one-dimensional, so the grid at
    # (4,4) is only 400-dimensional, and each Theta^a Phi^b of the 256 matrix
    # units is a 1 MiB stack. Holding one per grid point would take 25 MiB
    # at (4,4).
    sys_ = make_system(*mix_pair(16, (1, 1), 2))
    small = _traced_peak(lambda: verify_representation(sys_, GridPoint(1, 1)))
    large = _traced_peak(lambda: verify_representation(sys_, GridPoint(4, 4)))
    assert large < small + 2**20


def test_representation_memory_does_not_grow_with_the_fiber():
    # M_16 with Kraus lengths (2, 1) at (7, 0): a grid total of 4080 of the 8192
    # the grid cap allows, and fibers up to 128-dimensional. Each theta^a of the
    # 256 matrix units is a 1 MiB stack; a per-word product of them, 128 times
    # that, would take 128 MiB at the last point.
    sys_ = make_system(*mix_pair(16, (2, 1), 2))
    horizon = GridPoint(7, 0)
    assert sys_.fiber_dim(horizon) == 128
    assert _traced_peak(lambda: verify_representation(sys_, horizon)) < 16 * 2**20
