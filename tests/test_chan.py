import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpdilate import chan
from cpdilate.chan import (
    DimensionMismatchError,
    KrausFamily,
    NotCompletelyPositiveError,
    NotSameChannelError,
    apply_kraus,
    choi_to_kraus,
    classify,
    compose,
    identity_channel,
    kraus_equivalence_unitary,
    kraus_to_choi,
    kraus_to_super,
    pad,
)
from cpdilate.linalg import dagger, fro, unvec, vec

from conftest import (
    PAULI_X,
    PAULI_Z,
    CommutingFamily,
    close,
    corner_collapse_channel,
    mix_of_unitaries,
    oracle_super,
    random_contractive,
    random_unitary,
)


def matrix_units(n):
    units = []
    for r in range(n):
        for c in range(n):
            e = np.zeros((n, n), dtype=complex)
            e[r, c] = 1.0
            units.append(e)
    return units


def brute_force_apply(k, a):
    """Independent oracle: per-operator triple products, no vectorization."""
    n = k.dim
    out = np.zeros((n, n), dtype=complex)
    for t in k.ops:
        out += t @ a @ np.conj(t.T)
    return out


class TestChoi:
    def test_identity_channel_choi_is_rank_one(self):
        choi = kraus_to_choi(identity_channel(2))
        v = vec(np.eye(2))
        assert np.allclose(choi, np.outer(v, v.conj()))
        assert abs(np.trace(choi) - 2.0) < 1e-12
        evals = np.linalg.eigvalsh(choi)
        assert np.allclose(sorted(evals.real), [0, 0, 0, 2], atol=1e-12)

    def test_corner_collapse_choi_via_basis_application(self):
        # Oracle: apply the map to all four matrix units directly.
        k = corner_collapse_channel()
        choi = kraus_to_choi(k)
        recovered = choi_to_kraus(choi)
        for e in matrix_units(2):
            expected = e[0, 0] * np.eye(2)
            assert fro(brute_force_apply(k, e) - expected) < 1e-12
            assert fro(apply_kraus(recovered, e) - expected) < 1e-10

    def test_pauli_mix_choi_eigenvalues(self):
        k = KrausFamily(2, (PAULI_X / np.sqrt(2), PAULI_Z / np.sqrt(2)))
        evals = np.linalg.eigvalsh(kraus_to_choi(k))
        assert np.allclose(sorted(evals.real), [0, 0, 1, 1], atol=1e-12)

    def test_choi_to_kraus_identity_up_to_phase(self):
        k = choi_to_kraus(kraus_to_choi(identity_channel(2)))
        assert len(k.ops) == 1
        op = k.ops[0]
        phase = op[0, 0] / abs(op[0, 0])
        assert fro(op / phase - np.eye(2)) < 1e-12

    def test_choi_to_kraus_depolarizing_action(self):
        # C = I4/2 encodes a |-> tr(a)/2 * I; verify on matrix units.
        k = choi_to_kraus(np.eye(4, dtype=complex) / 2)
        assert len(k.ops) == 4
        for e in matrix_units(2):
            expected = np.trace(e) / 2 * np.eye(2)
            assert fro(apply_kraus(k, e) - expected) < 1e-12

    def test_choi_to_kraus_rejects_negative_eigenvalue(self):
        choi = np.diag([1.0, 1.0, 1.0, -0.1]).astype(complex)
        with pytest.raises(NotCompletelyPositiveError) as err:
            choi_to_kraus(choi)
        assert err.value.eigenvalue == pytest.approx(-0.1, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), m=st.integers(1, 3))
    def test_batched_forms_match_loop_oracles(self, seed, n, m):
        # Oracles: the Kronecker sum and the sum of rank-one outer products.
        rng = np.random.default_rng(seed)
        k = random_contractive(n, m, rng)
        choi = sum(np.outer(vec(t), np.conj(vec(t))) for t in k.ops)
        assert close(kraus_to_choi(k), choi)
        assert close(kraus_to_super(k), oracle_super(k))

    def test_choi_ignores_kraus_order(self, rng):
        k = random_contractive(3, 3, rng)
        reordered = KrausFamily(3, k.ops[::-1])
        assert close(kraus_to_choi(reordered), kraus_to_choi(k))
        assert close(kraus_to_super(reordered), oracle_super(k))


class TestApplyCompose:
    def test_apply_identity(self, rng):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        assert fro(apply_kraus(identity_channel(2), a) - a) < 1e-14

    def test_apply_corner_collapse_hand_expansion(self):
        k = corner_collapse_channel()
        a = np.array([[0.3 + 0.1j, 2.0], [5.0, -1.0j]])
        assert fro(apply_kraus(k, a) - a[0, 0] * np.eye(2)) < 1e-14

    def test_conjugation_by_x_on_z(self):
        k = KrausFamily(2, (PAULI_X,))
        assert fro(apply_kraus(k, PAULI_Z) + PAULI_Z) < 1e-14

    def test_apply_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            apply_kraus(identity_channel(2), np.eye(3))

    def test_compose_with_identity(self, rng):
        k = random_contractive(2, 2, rng)
        c = compose(identity_channel(2), k)
        for e in matrix_units(2):
            assert fro(apply_kraus(c, e) - apply_kraus(k, e)) < 1e-12

    def test_compose_pauli_conjugations_superoperator(self):
        kz = KrausFamily(2, (PAULI_Z,))
        kx = KrausFamily(2, (PAULI_X,))
        szx = kraus_to_super(compose(kz, kx))
        sxz = kraus_to_super(compose(kx, kz))
        assert fro(szx - sxz) < 1e-14  # anticommutation signs cancel
        assert fro(szx - kraus_to_super(KrausFamily(2, (PAULI_Z @ PAULI_X,)))) < 1e-14

    def test_compose_kraus_count_multiplies(self, rng):
        a = random_contractive(2, 2, rng)
        b = random_contractive(2, 3, rng)
        assert len(compose(a, b)) == 6

    def test_compose_superoperator_is_product(self, rng):
        a = random_contractive(3, 2, rng)
        b = random_contractive(3, 2, rng)
        got = kraus_to_super(compose(a, b))
        assert fro(got - kraus_to_super(a) @ kraus_to_super(b)) < 1e-12

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 4))
    def test_apply_kraus_matches_superoperator(self, seed, n):
        rng = np.random.default_rng(seed)
        k = random_contractive(n, 2, rng)
        sup = kraus_to_super(k)
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        assert fro(apply_kraus(k, a) - unvec(sup @ vec(a), n)) < 1e-10

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_compose_associative_at_superoperator_level(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = (random_contractive(2, 2, rng) for _ in range(3))
        left = kraus_to_super(compose(compose(a, b), c))
        right = kraus_to_super(compose(a, compose(b, c)))
        assert fro(left - right) < 1e-10

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 4))
    def test_choi_kraus_round_trip(self, seed, n):
        rng = np.random.default_rng(seed)
        k = random_contractive(n, 3, rng)
        back = choi_to_kraus(kraus_to_choi(k))
        assert fro(kraus_to_super(back) - kraus_to_super(k)) < n * n * 1e-9


class TestClassify:
    def test_identity_is_unital_cp(self):
        rep = classify(identity_channel(2))
        assert rep.is_cp and rep.is_unital and rep.is_contractive
        assert rep.unitality_residual < 1e-14

    def test_corner_collapse_is_unital(self):
        # sum T T* = e00 + e11 = I by direct matrix sum.
        rep = classify(corner_collapse_channel())
        assert rep.is_unital and rep.is_cp

    def test_scaled_identity_not_unital(self):
        rep = classify(KrausFamily(2, (0.5 * np.eye(2, dtype=complex),)))
        assert rep.is_contractive and not rep.is_unital
        assert rep.unitality_residual == pytest.approx(fro(0.25 * np.eye(2) - np.eye(2)))


class TestKrausFamily:
    def test_ops_is_one_read_only_copy(self):
        given = np.stack([PAULI_X, PAULI_Z]) / np.sqrt(2)
        k = KrausFamily(2, given)
        assert k.ops.shape == (2, 2, 2) and k.ops.dtype == complex
        assert not k.ops.flags.writeable and not np.shares_memory(k.ops, given)
        given[0] = 0.0
        assert np.array_equal(k.ops[0], PAULI_X / np.sqrt(2))

    def test_tuple_input_gives_the_same_stack(self):
        k = KrausFamily(2, (PAULI_X / np.sqrt(2), PAULI_Z / np.sqrt(2)))
        assert np.array_equal(k.ops, np.stack([PAULI_X, PAULI_Z]) / np.sqrt(2))
        assert np.array_equal(pad(k, 3).ops[2], np.zeros((2, 2)))

    def test_unitality_residual_is_the_classify_field(self):
        k = KrausFamily(2, (0.5 * np.eye(2, dtype=complex),))
        assert k.unitality_residual == classify(k).unitality_residual
        assert k.unitality_residual == fro(0.25 * np.eye(2) - np.eye(2))


class TestEquivalenceUnitary:
    def test_identity_on_itself(self):
        u = kraus_equivalence_unitary(identity_channel(2), identity_channel(2))
        assert u.shape == (1, 1)
        assert abs(u[0, 0] - 1.0) < 1e-12

    def test_scalar_phase(self):
        a = KrausFamily(2, (PAULI_X,))
        b = KrausFamily(2, (1j * PAULI_X,))
        u = kraus_equivalence_unitary(a, b)
        assert abs(u[0, 0] + 1j) < 1e-12  # u = [-i]

    def test_hadamard_mixing(self):
        t1, t2 = corner_collapse_channel().ops
        b = KrausFamily(2, ((t1 + t2) / np.sqrt(2), (t1 - t2) / np.sqrt(2)))
        a = corner_collapse_channel()
        u = kraus_equivalence_unitary(a, b)
        hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        assert fro(u - hadamard) < 1e-10
        assert fro(dagger(u) @ u - np.eye(2)) < 1e-10

    def test_rejects_different_channels(self):
        with pytest.raises(NotSameChannelError):
            kraus_equivalence_unitary(
                KrausFamily(2, (PAULI_X,)), KrausFamily(2, (PAULI_Z,))
            )

    def test_padding_to_common_length(self, rng):
        k = random_contractive(2, 1, rng)
        padded = pad(k, 3)
        u = kraus_equivalence_unitary(k, padded)
        assert u.shape == (3, 3)
        assert fro(dagger(u) @ u - np.eye(3)) < 1e-8

    # (dim, length): R is thin when dim^2 > 2 length and wide otherwise; a
    # mix of more commuting unitaries than dim needs the kernel completion.
    @pytest.mark.parametrize(
        "dim, length, deficient",
        [(4, 3, False), (4, 6, True), (2, 2, False), (2, 3, True)],
    )
    @pytest.mark.parametrize("seed", range(3))
    def test_both_r_shapes_reproduce_kraus_matrix(self, dim, length, deficient, seed):
        rng = np.random.default_rng(seed)
        if deficient:
            a = mix_of_unitaries(CommutingFamily(dim, rng), length)
        else:
            a = random_contractive(dim, length, rng)
        w = random_unitary(length, rng)
        b = KrausFamily(dim, tuple(np.tensordot(w.T, np.stack(a.ops), axes=1)))
        ma, mb = chan._kraus_matrix(a.ops), chan._kraus_matrix(b.ops)
        ra, _ = chan._r_coordinates(ma, mb)
        assert ra.shape == (min(dim * dim, 2 * length), length)
        assert (np.linalg.matrix_rank(ma) < length) == deficient
        u = kraus_equivalence_unitary(a, b)
        # Recomputed in the original n^2 x L coordinates.
        assert fro(ma - mb @ u.T) <= 1e-12
        assert fro(dagger(u) @ u - np.eye(length)) <= 1e-12

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 3),
        m=st.integers(1, 3),
        deficient=st.booleans(),
    )
    def test_rotated_family_recovered(self, seed, n, m, deficient):
        # B = w-rotation of A is another Kraus family of the same map.
        rng = np.random.default_rng(seed)
        if deficient:
            # n + m commuting unitaries span at most n directions: the
            # unitary needs the kernel completion.
            m += n
            a = mix_of_unitaries(CommutingFamily(n, rng), m)
            assert np.linalg.matrix_rank(np.stack(a.ops).reshape(m, -1)) < m
        else:
            a = random_contractive(n, m, rng)
        w = random_unitary(m, rng)
        b_ops = tuple(
            sum(w[j, i] * a.ops[j] for j in range(m)) for i in range(m)
        )
        b = KrausFamily(n, b_ops)
        u = kraus_equivalence_unitary(a, b)
        assert fro(dagger(u) @ u - np.eye(m)) < 1e-8
        recon = [sum(u[i, j] * b.ops[j] for j in range(m)) for i in range(m)]
        worst = max(fro(a.ops[i] - recon[i]) for i in range(m))
        assert worst < 1e-8
