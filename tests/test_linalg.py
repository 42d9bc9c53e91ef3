import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpdilate.linalg import (
    CompletionError,
    complete_orthonormal,
    dagger,
    fro,
    rotation_taking,
    unvec,
    vec,
)


class TestVec:
    def test_column_stacking(self):
        a = np.array([[1, 2], [3, 4]], dtype=complex)
        assert np.array_equal(vec(a), np.array([1, 3, 2, 4], dtype=complex))

    def test_round_trip(self):
        a = np.arange(6, dtype=complex).reshape(2, 3)
        assert np.array_equal(unvec(vec(a), 2, 3), a)

    def test_kron_identity(self):
        # vec(A X B) = (B^T kron A) vec(X)
        rng = np.random.default_rng(0)
        a, x, b = (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(3))
        assert fro(vec(a @ x @ b) - np.kron(b.T, a) @ vec(x)) < 1e-12


def oracle_complete_orthonormal(cols, dim, tol=1e-7):
    """Gram-Schmidt sweep of the standard basis (two passes) against the given columns."""
    have = [np.ascontiguousarray(cols[:, j]) for j in range(cols.shape[1])]
    extra = []
    for i in range(dim):
        if len(have) + len(extra) >= dim:
            break
        v = np.zeros(dim, dtype=complex)
        v[i] = 1.0
        for _ in range(2):
            for b in have + extra:
                v = v - b * np.vdot(b, v)
        nrm = np.linalg.norm(v)
        if nrm > tol:
            extra.append(v / nrm)
    assert len(have) + len(extra) == dim
    return np.column_stack(extra) if extra else np.zeros((dim, 0), dtype=complex)


class TestCompletion:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 6), r=st.integers(0, 5))
    def test_completion_is_orthonormal_complement(self, seed, dim, r):
        r = min(r, dim)
        rng = np.random.default_rng(seed)
        z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        q, _ = np.linalg.qr(z)
        cols = q[:, :r]
        extra = complete_orthonormal(cols, dim)
        full = np.hstack([cols, extra])
        assert full.shape == (dim, dim)
        assert fro(dagger(full) @ full - np.eye(dim)) < 1e-10
        # The completion is unique up to a unitary on the complement: compare projectors.
        oracle = oracle_complete_orthonormal(cols, dim)
        assert fro(extra @ dagger(extra) - oracle @ dagger(oracle)) < 1e-10

    def test_deterministic(self):
        cols = np.array([[1.0], [0.0], [0.0]], dtype=complex)
        e1 = complete_orthonormal(cols, 3)
        e2 = complete_orthonormal(cols, 3)
        assert np.array_equal(e1, e2)

    def test_over_complete_raises(self):
        cols = np.eye(2, dtype=complex)
        with pytest.raises(CompletionError):
            complete_orthonormal(np.hstack([cols, cols]), 2)


class TestDagger:
    def test_stack_gives_each_conjugate_transpose(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(3, 2, 4)) + 1j * rng.normal(size=(3, 2, 4))
        got = dagger(a)
        assert got.shape == (3, 4, 2)
        for x, y in zip(a, got):
            assert np.array_equal(y, x.conj().T)

    def test_matrix_is_conjugate_transpose_bit_for_bit(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(2, 5)) + 1j * rng.normal(size=(2, 5))
        assert np.array_equal(dagger(a), a.conj().T)


class TestRotation:
    def test_maps_v_to_w(self):
        rng = np.random.default_rng(2)
        v = np.abs(rng.normal(size=5))
        w = np.abs(rng.normal(size=5))
        v, w = v / np.linalg.norm(v), w / np.linalg.norm(w)
        r = rotation_taking(v, w)
        assert fro(r @ v - w) < 1e-12
        assert fro(r.T @ r - np.eye(5)) < 1e-12

    def test_identity_when_equal(self):
        v = np.ones(3) / np.sqrt(3)
        assert fro(rotation_taking(v, v) - np.eye(3)) < 1e-12

    def test_fixes_orthogonal_complement(self):
        v = np.array([1.0, 0.0, 0.0])
        w = np.array([0.0, 1.0, 0.0])
        r = rotation_taking(v, w)
        z = np.array([0.0, 0.0, 1.0])
        assert fro(r @ z - z) < 1e-12
