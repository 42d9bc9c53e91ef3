"""Seeded builder faults: does each report catch what it claims?

Each fault is one small change to a builder function, applied with
monkeypatch under the name that the calling module binds: `dilation` binds
`strong_commutation_certificate`, `_left_multiply`, `_word_operators` and
`_kraus_grid` at import, and `strongcomm` binds the `chan` helpers. The
pipeline is `dilation.dilate` at horizon (2, 2), margin (1, 1), then
`verify_representation` at (2, 2). A fault is caught when some report's
`passed` is false or a stage raises; each entry names a pair and the report,
or the error of the stage, that catches it there.

Two further tables list the faults that no report can see: those
equivalent to the correct code, with a one-line proof each, and the
commutant-solver faults that drop generators or lose the eigenframe, which a
minimal pair cannot show (see test_commutant_faults_move_the_pinned_triple).
"""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from cpdilate import chan, dilation, prodsys, strongcomm
from cpdilate.chan import KrausFamily, identity_channel
from cpdilate.linalg import dagger
from cpdilate.prodsys import E_STEP, F_STEP, ZERO, GridPoint, grid_points, verify_representation

from conftest import (
    CommutingFamily,
    corner_collapse_channel,
    lifted,
    mix_of_unitaries,
    pauli_mix_pair,
    random_unitary,
)

HORIZON = GridPoint(2, 2)
MARGIN = GridPoint(1, 1)
_OMEGA = np.exp(2j * np.pi / 3)
CLOCK = np.diag([1, _OMEGA, _OMEGA**2])
SHIFT = np.roll(np.eye(3, dtype=complex), 1, axis=0)


def clock_shift_pair(p: float, q: float, rng: np.random.Generator):
    """Mixes of I with the clock and of I with the shift on M_3, each with
    its Kraus operators mixed by a random unitary. Clock times shift is
    omega = e^{2 pi i / 3} times shift times clock, so the certificate is not
    Hermitian. The other pairs' certificates are (V tensor W) D (V tensor W)^*
    with D a real diagonal of +-1: they cannot tell u from u^*."""
    pair = []
    for w, unit in ((p, CLOCK), (q, SHIFT)):
        ops = np.stack((np.sqrt(w) * np.eye(3, dtype=complex), np.sqrt(1 - w) * unit))
        pair.append(KrausFamily(3, tuple(np.tensordot(random_unitary(2, rng), ops, axes=1))))
    return tuple(pair)


def _mixes(n: int):
    family = CommutingFamily(n, np.random.default_rng(n))
    return mix_of_unitaries(family, 2), mix_of_unitaries(family, 2)


# Built afresh for every run, so that no cached property outlives a patch.
PAIRS = {
    "pauli_mix": lambda: pauli_mix_pair(0.3, 0.6, np.random.default_rng(5)),
    "corner": lambda: (corner_collapse_channel(), identity_channel(2)),
    "mix2": lambda: _mixes(2),
    "mix3": lambda: _mixes(3),
    "clock": lambda: clock_shift_pair(0.3, 0.6, np.random.default_rng(7)),
}


def failures(theta, phi) -> set:
    """The reports that fail on the pair, or the name of the error a stage raises."""
    try:
        run = dilation.dilate(theta, phi, HORIZON, MARGIN)
        rep = verify_representation(run.res.sys, HORIZON)
    except (ValueError, RuntimeError) as exc:  # every error class of the stages
        return {type(exc).__name__}
    reports = {"representation": rep, "dilation": run.report, "minimality": run.minimality}
    return {name for name, report in reports.items() if not report.passed}


def _wrap(monkeypatch, module, name, make):
    """Replace module.name by make(original)."""
    monkeypatch.setattr(module, name, make(getattr(module, name)))


def _wrap_output(monkeypatch, module, name, edit):
    """Replace module.name by the function whose result is edit(result)."""
    _wrap(monkeypatch, module, name, lambda f: lambda *args: edit(f(*args)))


def _edit_lift(monkeypatch, edit):
    """lift_operators whose v_blocks table is edit(table, margin)."""

    def faulty(res):
        res.v_blocks = edit(res.v_blocks, res.dsp.margin)
        return res

    _wrap_output(monkeypatch, dilation, "lift_operators", faulty)


def _set_word_operators(monkeypatch, append):
    """_word_operators with append(prev, ops) in place of prev[:, None] @ ops,
    in both modules that call it."""

    def faulty(sys, horizon):
        n, words = sys.dim_h, sys._words
        for g in grid_points(horizon):
            if g in words:
                continue
            if g == ZERO:
                words[g] = np.eye(n, dtype=complex)[None]
            else:
                prev, fam = (words[g - F_STEP], sys.phi) if g.b else (words[g - E_STEP], sys.theta)
                words[g] = append(prev, fam.ops).reshape(-1, n, n)
        return words

    for module in (prodsys, dilation):
        monkeypatch.setattr(module, "_word_operators", faulty)


def _set_kraus_grid(monkeypatch, make):
    """make(_kraus_grid) in both modules that call it."""
    for module in (prodsys, dilation):
        _wrap(monkeypatch, module, "_kraus_grid", make)


def _set_product_map(monkeypatch, pick):
    """_product_map applying pick(sys, g, rest) in place of Sigma(g.b, rest.a)."""

    def faulty(sys, g, rest, x):
        sigma = pick(sys, g, rest)
        if sigma is None:
            return x
        return sigma @ x.reshape(sys.m**g.a, sigma.shape[1], -1)

    monkeypatch.setattr(prodsys, "_product_map", faulty)


CAUGHT = {}


def caught(pair: str, catcher: str):
    """Register a fault with the pair and the report or error that catches it."""

    def register(patch):
        CAUGHT[patch.__name__] = (patch, pair, catcher)
        return patch

    return register


# chan


@caught("pauli_mix", "CertificateError")
def chan_equivalence_unitary_transposed(mp):
    _wrap_output(mp, strongcomm, "_equivalence_unitary", lambda u: u.T)


@caught("mix2", "CertificateError")
def chan_r_coordinates_drop_the_difference_block(mp):
    _wrap_output(mp, strongcomm, "_r_coordinates", lambda r: (r[0], r[0]))


@caught("corner", "ValueError")
def chan_op_sum_tests_trace_preservation(mp):
    # sum T^* T for sum T T^*: build_dilation_space refuses the corner map.
    mp.setattr(chan.KrausFamily, "op_sum", lambda self: sum(dagger(t) @ t for t in self.ops))


# strongcomm


@caught("mix2", "CertificateError")
def strongcomm_rb_left_in_qp_order(mp):
    def faulty(f):
        def coordinates(left, right, m):
            residual, ra, rb = f(left, right, m)
            return residual, ra, rb.reshape(len(rb), m, -1).swapaxes(1, 2).reshape(len(rb), -1)

        return coordinates

    _wrap(mp, strongcomm, "_commutation_coordinates", faulty)


@caught("clock", "representation")
def strongcomm_products_swapped(mp):
    # The certificate then relates S T to T S: it is u^*.
    _wrap_output(mp, strongcomm, "_products", lambda stacks: stacks[::-1])


@caught("clock", "InvalidCertificateError")
def strongcomm_certificate_adjoint(mp):
    _wrap_output(mp, dilation, "strong_commutation_certificate",
                 lambda c: dataclasses.replace(c, u=dagger(c.u)))


# prodsys


@caught("pauli_mix", "representation")
def prodsys_flip_without_conj(mp):
    _wrap(mp, prodsys, "flip_from_certificate", lambda f: lambda u, m, k: f(np.conj(u), m, k))


@caught("mix2", "representation")
def prodsys_flip_without_swap(mp):
    mp.setattr(prodsys, "flip_from_certificate", lambda u, m, k: np.conj(u))


@caught("pauli_mix", "dilation")
def prodsys_product_map_transposes_sigma(mp):
    def pick(sys, g, rest):
        sigma = sys._block_flip(g.b, rest.a)
        return None if sigma is None else sigma.T

    _set_product_map(mp, pick)


@caught("mix3", "dilation")
def prodsys_product_map_reads_sigma_of_rest_a_g_b(mp):
    _set_product_map(mp, lambda sys, g, rest: sys._block_flip(rest.a, g.b))


@caught("corner", "dilation")
def prodsys_left_multiply_reverses_words(mp):
    def faulty(sys, g, rest, m):
        fd = sys.fiber_dim(g)
        x = np.zeros((fd, m.shape[0], fd, m.shape[1]), dtype=complex)
        x[np.arange(fd)[::-1], :, np.arange(fd)] = m  # block w takes word fd - 1 - w
        return prodsys._product_map(sys, g, rest, x).reshape(fd * m.shape[0], -1)

    mp.setattr(dilation, "_left_multiply", faulty)


@caught("pauli_mix", "representation")
def prodsys_words_prepend_letters(mp):
    _set_word_operators(mp, lambda prev, ops: ops[None] @ prev[:, None])


@caught("mix2", "representation")
def prodsys_words_index_letter_first(mp):
    _set_word_operators(mp, lambda prev, ops: (prev[:, None] @ ops).swapaxes(0, 1))


@caught("pauli_mix", "dilation")
def prodsys_kraus_grid_drops_dagger(mp):
    def grid(theta, phi, limit, x):
        # _kraus_grid with each map applied as y -> sum_i T_i y T_i.
        def apply(fam, y):
            return (fam.ops[:, None] @ y @ fam.ops[:, None]).sum(axis=0)

        foot = np.asarray(x, dtype=complex)
        for b in range(limit.b + 1):
            foot = apply(phi, foot) if b else foot
            out = foot
            for a in range(limit.a + 1):
                out = apply(theta, out) if a else out
                yield GridPoint(a, b), out

    _set_kraus_grid(mp, lambda f: grid)


@caught("corner", "representation")
def prodsys_kraus_grid_one_theta_ahead(mp):
    # Theta^(a+1) Phi^b at (a, b).
    _set_kraus_grid(mp, lambda f: lambda theta, phi, limit, x: (
        (g - E_STEP, y) for g, y in f(theta, phi, limit + E_STEP, x) if g.a))


# dilation


@caught("corner", "dilation")
def dilation_blocks_use_rep_not_its_adjoint(mp):
    # build_dilation_space takes the adjoint of what the table returns.
    _wrap_output(mp, dilation, "_word_operators", lambda words: {g: dagger(w) for g, w in words.items()})


@caught("mix2", "dilation")
def dilation_embedding_conjugated(mp):
    _wrap_output(mp, dilation, "build_dilation_space",
                 lambda dsp: dataclasses.replace(dsp, embed_h=dsp.embed_h.conj()))


@caught("mix2", "OutOfHorizonError")
def dilation_lift_one_short_in_a(mp):
    _edit_lift(mp, lambda v, margin: {g: x for g, x in v.items() if g.a < margin.a})


@caught("corner", "dilation")
def dilation_lift_transposes_grid_points(mp):
    _edit_lift(mp, lambda v, margin: {g: v[GridPoint(g.b, g.a)] for g in v})


@caught("clock", "dilation")
def dilation_lift_conjugated(mp):
    _edit_lift(mp, lambda v, margin: {g: x.conj() for g, x in v.items()})


@caught("mix2", "minimality")
def dilation_laplacian_without_degree_term(mp):
    # The commutant solve with clusters of one then counts the negative
    # eigenvalues of -(W + W^T) as commutant directions; the dense oracle_commutant
    # catches it too (test_dilation.py::TestCommutant::test_synthetic_sets_match_oracle).
    mp.setattr(dilation, "_laplacian", lambda w: -w)


# Faults no report can see, each with its proof of equivalence.
EQUIVALENT = {
    # Both Kraus matrices have their rows permuted alike; Choi distances and
    # Ma = Mb u^T are invariant under a common row permutation.
    "chan_kraus_matrix_stacks_rows": lambda mp: mp.setattr(
        strongcomm, "_kraus_matrix", lambda ops: ops.transpose(1, 2, 0).reshape(-1, len(ops))),
    # Phi^b Theta^a = Theta^a Phi^b for a commuting pair.
    "prodsys_kraus_grid_applies_theta_first": lambda mp: _set_kraus_grid(
        mp, lambda f: lambda theta, phi, limit, x: (
            (GridPoint(g.b, g.a), y) for g, y in f(phi, theta, GridPoint(limit.b, limit.a), x))),
    # sum_i T_i y T_i^* does not depend on the order of i.
    "prodsys_kraus_grid_reverses_kraus_order": lambda mp: _set_kraus_grid(
        mp, lambda f: lambda theta, phi, limit, x: f(
            SimpleNamespace(ops=theta.ops[::-1]), SimpleNamespace(ops=phi.ops[::-1]), limit, x)),
    # alpha_g(b) = sum_w V_w b V_w^* and V_x^* V_y = delta_xy P are invariant
    # under one permutation of the words w.
    "dilation_lift_reverses_words": lambda mp: _edit_lift(
        mp, lambda v, margin: {g: x[::-1] for g, x in v.items()}),
}

# Commutant-solver faults. On a minimal pair the solve searches the matrices
# diagonal in the eigenframe of a random element of B(K), and the scalars are
# all of those that commute with a generic set: a fault that drops generators
# or loses the frame still finds the scalars. A redundant pair sees them: its
# pinned triple (test_dilation.py::TestCommutant::test_redundant_pair_pinned,
# and the mix3 step of CI), and the dense oracle_commutant on its explicit
# example lengths=(3, 3), horizon=(1, 1)
# (test_dilation.py::TestCommutant::test_random_pairs_match_oracle). The frame
# fault even reports that pair as minimal.
COMMUTANT = {
    "dilation_commutant_solve_takes_first_chunk": lambda mp: _wrap(
        mp, dilation, "_block_commutant",
        lambda f: lambda chunks, sizes: f([next(iter(chunks))], sizes)),
    "dilation_eigenframe_is_identity": lambda mp: _wrap_output(
        mp, dilation, "_eigen_clusters", lambda out: (np.eye(len(out[0]), dtype=complex), out[1])),
}


def test_every_pair_passes_unpatched():
    for name, pair in PAIRS.items():
        assert failures(*pair()) == set(), name


@pytest.mark.parametrize("fault", sorted(CAUGHT))
def test_fault_is_caught(fault, monkeypatch):
    patch, pair, catcher = CAUGHT[fault]
    theta, phi = PAIRS[pair]()
    patch(monkeypatch)
    assert catcher in failures(theta, phi)


@pytest.mark.parametrize("fault", sorted(EQUIVALENT))
def test_equivalent_fault_passes_everywhere(fault, monkeypatch):
    pairs = [pair() for pair in PAIRS.values()]
    EQUIVALENT[fault](monkeypatch)
    for theta, phi in pairs:
        assert failures(theta, phi) == set()


@pytest.mark.parametrize("fault", sorted(COMMUTANT))
def test_commutant_faults_move_the_pinned_triple(fault, monkeypatch):
    # The first row pinned by test_redundant_pair_pinned: mixes of three
    # commuting unitaries at horizon (1, 1), (span, commutant, closure).
    family = CommutingFamily(2, np.random.default_rng(0))
    theta, phi = mix_of_unitaries(family, 3), mix_of_unitaries(family, 3)
    minimal = [pair() for pair in PAIRS.values()]
    COMMUTANT[fault](monkeypatch)
    rep = dilation.minimality_check(lifted(theta, phi, GridPoint(1, 1), GridPoint(1, 1)))
    assert (rep.span_dim, rep.commutant_dim, rep.closure_dim) != (8, 4, 100)
    for pair in minimal:
        assert failures(*pair) == set()  # the reports cannot see it
