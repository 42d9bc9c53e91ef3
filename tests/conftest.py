import numpy as np
import pytest

from cpdilate.chan import KrausFamily, identity_channel
from cpdilate.dilation import build_big_space, build_dilation_space, lift_operators
from cpdilate.prodsys import build_product_system
from cpdilate.strongcomm import strong_commutation_certificate

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.diag([1.0, -1.0]).astype(complex)


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class CommutingFamily:
    """Unitaries sharing one random eigenbasis; all members commute."""

    def __init__(self, n: int, rng: np.random.Generator):
        self.n = n
        self.rng = rng
        self.basis = random_unitary(n, rng)

    def member(self) -> np.ndarray:
        phases = np.exp(1j * self.rng.uniform(0, 2 * np.pi, size=self.n))
        return self.basis @ np.diag(phases) @ self.basis.conj().T


def mix_of_unitaries(family: CommutingFamily, count: int) -> KrausFamily:
    """Unital CP map sum_i p_i U_i . U_i^* as a Kraus family of length count."""
    weights = family.rng.dirichlet(np.ones(count))
    ops = tuple(np.sqrt(w) * family.member() for w in weights)
    return KrausFamily(family.n, ops)


def pauli_mix_pair(p: float, q: float, rng: np.random.Generator) -> tuple[KrausFamily, KrausFamily]:
    """Mixes of I with Z and of I with X, each with its Kraus operators mixed
    by a random unitary: a strongly commuting pair whose words anticommute,
    so that its flip has complex entries."""
    pair = []
    for w, pauli in ((p, PAULI_Z), (q, PAULI_X)):
        ops = np.stack((np.sqrt(w) * np.eye(2, dtype=complex), np.sqrt(1 - w) * pauli))
        pair.append(KrausFamily(2, tuple(np.tensordot(random_unitary(2, rng), ops, axes=1))))
    return tuple(pair)


def random_contractive(n: int, m: int, rng: np.random.Generator) -> KrausFamily:
    """m random complex n x n operators scaled so that sum T T* < I; generically non-commuting."""
    ops = [rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) for _ in range(m)]
    total = sum(t @ t.conj().T for t in ops)
    lam = np.linalg.eigvalsh(total)[-1].real
    scale = 1.0 / np.sqrt(lam * 1.01)
    return KrausFamily(n, tuple(scale * t for t in ops))


def make_system(theta, phi):
    """The twisted product system of a strongly commuting pair."""
    return build_product_system(theta, phi, strong_commutation_certificate(theta, phi))


def lifted(theta, phi, horizon, margin):
    """The stages of dilation.dilate up to the lift, with default
    tolerances: the lifted dilation, whose system and space are res.sys and
    res.dsp."""
    big, sys_ = build_big_space(make_system(theta, phi), horizon)
    return lift_operators(build_dilation_space(big, sys_, margin), sys_)


def oracle_super(k: KrausFamily) -> np.ndarray:
    """Superoperator as the Kronecker sum sum_i conj(T_i) ⊗ T_i, one n^2 x n^2 term per operator."""
    n2 = k.dim * k.dim
    s = np.zeros((n2, n2), dtype=complex)
    for t in k.ops:
        s += np.kron(np.conj(t), t)
    return s


def oracle_product_unitary(sys, g1, g2) -> np.ndarray:
    """Multiplication map X(g1) tensor X(g2) -> X(g1+g2), by a flip-by-flip
    sweep over the identity of the mixed word space E^a1 F^b1 E^a2 F^b2: the
    leftmost adjacent (F, E) pair is flipped first, until every E precedes
    every F."""
    types = ["E"] * g1.a + ["F"] * g1.b + ["E"] * g2.a + ["F"] * g2.b
    dims = [sys.m if t == "E" else sys.k for t in types]
    batch = sys.fiber_dim(g1 + g2)
    arr = np.eye(batch, dtype=complex).reshape(dims + [batch])
    flip4 = sys.flip.reshape(sys.m, sys.k, sys.k, sys.m)
    while True:
        pos = next(
            (p for p in range(len(types) - 1) if types[p] == "F" and types[p + 1] == "E"),
            None,
        )
        if pos is None:
            return arr.reshape(-1, batch)
        pre = int(np.prod(dims[:pos], dtype=int))
        post = int(np.prod(dims[pos + 2:], dtype=int)) * batch
        work = arr.reshape(pre, sys.k, sys.m, post)
        work = np.einsum("efxy,pxyr->pefr", flip4, work)
        types[pos], types[pos + 1] = "E", "F"
        dims[pos], dims[pos + 1] = sys.m, sys.k
        arr = work.reshape(dims + [batch])


def oracle_span_projector(dsp, limit) -> np.ndarray:
    """Orthogonal projector onto the span of the generators at grid points
    <= limit: the eigenvectors of sum_s f_s f_s^* over their blocks f_s, with
    eigenvalues above 1e-10 times the largest."""
    cover = sum(f @ f.conj().T for g, f in dsp.blocks.items() if g <= limit)
    w, v = np.linalg.eigh(0.5 * (cover + cover.conj().T))
    kept = v[:, w > 1e-10 * w[-1]]
    return kept @ kept.conj().T


def compress(res, b) -> np.ndarray:
    """embed_h^* b embed_h, the corner of an operator b on K of a lifted
    dilation res."""
    e = res.dsp.embed_h
    return e.conj().T @ b @ e


def oracle_alpha_corner(res, g, a) -> np.ndarray:
    """alpha_g(embed a embed^*) of a lifted dilation res, by the exact
    generator-block formula f_g (I tensor a) f_g^*, valid for every g up to
    the horizon."""
    f_g = res.dsp.blocks[g]
    fd = res.sys.fiber_dim(g)
    return f_g @ np.kron(np.eye(fd, dtype=complex), np.asarray(a, dtype=complex)) @ f_g.conj().T


def close(got, want, rel: float = 1e-12, abs_: float = 1e-14) -> bool:
    """Frobenius agreement to rel relative plus abs_ absolute."""
    diff = np.linalg.norm(np.asarray(got) - np.asarray(want))
    return bool(diff <= rel * np.linalg.norm(want) + abs_)


def corner_collapse_channel() -> KrausFamily:
    """a |-> a_00 I on M_2, Kraus {e0 e0^*, e1 e0^*}."""
    t1 = np.zeros((2, 2), dtype=complex)
    t1[0, 0] = 1.0
    t2 = np.zeros((2, 2), dtype=complex)
    t2[1, 0] = 1.0
    return KrausFamily(2, (t1, t2))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


@pytest.fixture
def zx_pair() -> tuple[KrausFamily, KrausFamily]:
    return KrausFamily(2, (PAULI_Z,)), KrausFamily(2, (PAULI_X,))


@pytest.fixture
def corner_pair() -> tuple[KrausFamily, KrausFamily]:
    return corner_collapse_channel(), identity_channel(2)
