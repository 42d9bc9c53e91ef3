"""Discrete two-parameter twisted product systems over the grid N^2.

For a strongly commuting pair on M_n(C) with Kraus families {T_i} (length m)
and {S_j} (length k), the fiber over (a, b) is the plain Hilbert space
E^{tensor a} tensor F^{tensor b} with E = C^m and F = C^k; because the
algebra is all of B(H) the commutant is trivial and no module structure
survives, which is the simplification that makes everything concrete.

Multiplication reorders mixed words E^a F^b E^c F^d into sorted form
through the elementary flip

    tau : F tensor E -> E tensor F ,   tau = conj(u) o swap ,

of an adjacent (F, E) slot pair, where u is the strong-commutation
certificate. The block-sort permutation is fully commutative, so every order
of flips gives the same map.

As a matrix, the product X(g1) tensor X(g2) -> X(g1+g2) in the mixed layout
E^a1 F^b1 E^a2 F^b2 is I tensor Sigma(b1, a2) tensor I, where the block flip
Sigma(b, a) : F^b tensor E^a -> E^a tensor F^b is the identity when a or b is
0. The block flips belong to the product system: `_block_flip` builds each
Sigma(b, a) at most once per system, with one product from the unit flip:
Sigma(b, 1) from Sigma(b - 1, 1) and tau, Sigma(b, a) from Sigma(b, a - 1)
and Sigma(b, 1). Every product map, `multiply` and the dilation's included,
is applied as Sigma on the middle axis of a reshape by `_product_map`,
except in `verify_representation`, which checks the homomorphism identity once
per g1, batched over every g2, and applies Sigma^T inline on the same reshape
so that a split whose Sigma is the identity costs no GEMM.

The covariant representation sends the basis word (i_1..i_a, j_1..j_b) to
T_{i_1} .. T_{i_a} S_{j_1} .. S_{j_b}; the flip convention above is exactly
what makes it multiplicative across fibers. The system owns its two families,
and `_word_operators` keeps the word operators of every fiber built so far as
one table per system.

The covariance residual here and the dilation residual of verify_e_dilation
both compare the Choi blocks Theta^a Phi^b(e_rc) of Kraus iteration with the
blocks F_r F_c^* of a thin factor through one kernel, `_unit_block_residual`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chan import DEFAULT_TOL, KrausFamily
from .linalg import Array, CapExceededError, dagger, fro, max_block_fro
from .strongcomm import StrongCommutationCertificate, verify_certificate


class InvalidCertificateError(ValueError):
    pass


DEFAULT_FIBER_CAP = 4096


@dataclass(frozen=True)
class GridPoint:
    a: int
    b: int

    def __post_init__(self):
        if self.a < 0 or self.b < 0:
            raise ValueError(f"grid points are nonnegative, got {(self.a, self.b)}")

    def __add__(self, other: "GridPoint") -> "GridPoint":
        return GridPoint(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "GridPoint") -> "GridPoint":
        return GridPoint(self.a - other.a, self.b - other.b)

    def __le__(self, other: "GridPoint") -> bool:
        return self.a <= other.a and self.b <= other.b

    def key(self) -> tuple[int, int]:
        return (self.a, self.b)


ZERO = GridPoint(0, 0)
E_STEP = GridPoint(1, 0)
F_STEP = GridPoint(0, 1)


def grid_points(horizon: GridPoint) -> list[GridPoint]:
    """All grid points below the horizon, in lexicographic order."""
    return [GridPoint(a, b) for a in range(horizon.a + 1) for b in range(horizon.b + 1)]


@dataclass(frozen=True, eq=False)
class TwistedProductSystem:
    theta: KrausFamily
    phi: KrausFamily
    flip: Array            # mk x mk unitary, F tensor E -> E tensor F
    _flips: dict = field(default_factory=dict, init=False, repr=False)
    _words: dict = field(default_factory=dict, init=False, repr=False)
    dim_h = property(lambda self: self.theta.dim)
    m = property(lambda self: len(self.theta))  # dim of the E fiber = Kraus length of theta
    k = property(lambda self: len(self.phi))    # dim of the F fiber = Kraus length of phi

    def fiber_dim(self, g: GridPoint) -> int:
        return self.m**g.a * self.k**g.b

    def _block_flip(self, b: int, a: int) -> Array | None:
        """The block flip Sigma(b, a) : F^b tensor E^a -> E^a tensor F^b, an
        (m^a k^b) x (k^b m^a) matrix built at most once, or None when a or b
        is 0 and Sigma is the identity.

        Sigma(b, 1) moves one E left past b F's, last flip first:
        (tau tensor I)(I_k tensor Sigma(b - 1, 1)). Sigma(b, a) moves the
        first E, then the rest: (I_m tensor Sigma(b, a - 1))(Sigma(b, 1) tensor I).
        """
        if a == 0 or b == 0:
            return None
        if (b, a) in self._flips:
            return self._flips[b, a]
        m, k = self.m, self.k
        fk = k**b
        if a == 1 and b == 1:
            out = self.flip
        elif a == 1:
            tau = self.flip.reshape(m, k, k, m)
            prev = self._block_flip(b - 1, 1).reshape(m, fk // k, fk // k, m)
            # [e2, f2, f0, F', F0, e0] -> rows (e2, f2, F'), columns (f0, F0, e0)
            out = np.tensordot(tau, prev, axes=(3, 0)).transpose(0, 1, 3, 2, 4, 5)
        else:
            one = self._block_flip(b, 1).reshape(m, fk, fk, m)
            ma = m ** (a - 1)
            rest = self._block_flip(b, a - 1).reshape(ma, fk, fk, ma)
            # [e1, Fb0, e10, A2, Fb2, A0] -> rows (e1, A2, Fb2), columns (Fb0, e10, A0)
            out = np.tensordot(one, rest, axes=(1, 2)).transpose(0, 3, 4, 1, 2, 5)
        out = np.ascontiguousarray(out).reshape(m**a * fk, fk * m**a)
        self._flips[b, a] = out
        return out


@dataclass(frozen=True, eq=False)
class FiberVector:
    grid: GridPoint
    coords: Array


@dataclass(frozen=True)
class RepresentationReport:
    horizon: GridPoint
    identity_residual: float     # covariance with Theta^a Phi^b on matrix units
    homomorphism_residual: float
    coisometry_residual: float   # only meaningful when both maps are unital
    unital: bool
    tol: float

    @property
    def passed(self) -> bool:
        worst = max(self.identity_residual, self.homomorphism_residual)
        if self.unital:
            worst = max(worst, self.coisometry_residual)
        return worst <= self.tol


def flip_from_certificate(u: Array, m: int, k: int) -> Array:
    """tau with tau[p*k+q, j*m+i] = conj(u[p*k+q, i*k+j]).

    Derived from the certificate identity by inverting the unitary: the word
    f_j e_i must be sent to the combination of words e_p f_q whose
    representation reproduces S_j T_i.
    """
    return np.conj(u).reshape(m * k, m, k).transpose(0, 2, 1).reshape(m * k, m * k)


def build_product_system(
    theta: KrausFamily,
    phi: KrausFamily,
    cert: StrongCommutationCertificate,
    tol: float = DEFAULT_TOL,
) -> TwistedProductSystem:
    result = verify_certificate(theta, phi, cert, tol)
    if not result.passed:
        raise InvalidCertificateError(
            "certificate fails verification "
            f"(unitarity {result.unitarity_residual:.3e}, "
            f"intertwining {result.intertwining_residual:.3e})"
        )
    return TwistedProductSystem(
        theta=theta, phi=phi, flip=flip_from_certificate(cert.u, len(theta), len(phi))
    )


def _product_map(sys: TwistedProductSystem, g: GridPoint, rest: GridPoint, x: Array) -> Array:
    """U_{g,rest} = I tensor Sigma(g.b, rest.a) tensor I on the leading
    X(g) tensor X(rest) axes of x, as Sigma on the middle axis of a reshape;
    x itself when Sigma is the identity. The caller reshapes the result."""
    sigma = sys._block_flip(g.b, rest.a)
    if sigma is None:
        return x
    return sigma @ x.reshape(sys.m**g.a, sigma.shape[1], -1)


def _left_multiply(sys: TwistedProductSystem, g: GridPoint, rest: GridPoint, m: Array) -> Array:
    """(U_{g,rest} tensor I)(I_{X(g)} tensor m) for a matrix m with rows
    (X(rest), ...): column block w is the left multiplication by the fiber
    word e_w of X(g), X(rest) -> X(g + rest), applied to m.
    """
    fd = sys.fiber_dim(g)
    x = np.zeros((fd, m.shape[0], fd, m.shape[1]), dtype=complex)
    x[np.arange(fd), :, np.arange(fd)] = m
    return _product_map(sys, g, rest, x).reshape(fd * m.shape[0], -1)


def multiply(sys: TwistedProductSystem, x: FiberVector, y: FiberVector) -> FiberVector:
    """Product U_{g1,g2} (x tensor y) of fiber vectors, at g1 + g2."""
    if x.coords.shape[0] != sys.fiber_dim(x.grid) or y.coords.shape[0] != sys.fiber_dim(y.grid):
        raise ValueError("fiber vector length does not match its grid point")
    out = _product_map(sys, x.grid, y.grid, np.outer(x.coords.astype(complex), y.coords))
    return FiberVector(x.grid + y.grid, out.reshape(-1))


def _word_operators(sys: TwistedProductSystem, horizon: GridPoint) -> dict:
    """The system's table g -> read-only (fiber_dim(g), n, n) stack of the word
    operators T_{i_1}..T_{i_a}S_{j_1}..S_{j_b} of X(g), extended to every g <= horizon.

    Each stack is one batched product from a neighbour: (a, b) appends an S
    letter to (a, b - 1) and (a, 0) a T letter to (a - 1, 0), so word w
    followed by letter t lands at w * (number of letters) + t.
    """
    n, words = sys.dim_h, sys._words
    for g in grid_points(horizon):
        if g in words:
            continue
        if g == ZERO:
            stack = np.eye(n, dtype=complex)[None]
        else:
            prev, fam = (words[g - F_STEP], sys.phi) if g.b else (words[g - E_STEP], sys.theta)
            stack = (prev[:, None] @ fam.ops).reshape(-1, n, n)
        stack.setflags(write=False)
        words[g] = stack
    return words


def representation_matrix(sys: TwistedProductSystem, g: GridPoint) -> Array:
    """The n x (fiber_dim * n) matrix with column block T_{i_1}..T_{i_a}S_{j_1}..S_{j_b};
    CapExceededError, before building, when the grid below g passes DEFAULT_FIBER_CAP."""
    _big_space_dim(sys, g, DEFAULT_FIBER_CAP)
    return _word_operators(sys, g)[g].transpose(1, 0, 2).reshape(sys.dim_h, -1)


def _kraus_grid(theta: KrausFamily, phi: KrausFamily, limit: GridPoint, x: Array):
    """Yield (g, Theta^a(Phi^b(x))) for every grid point g <= limit, for each
    matrix of a (count, n, n) stack x.

    One Kraus application per point, in the order of applying Phi b times and
    then Theta a times: (0, b) is Phi of (0, b - 1), and (a, b) is Theta of
    (a - 1, b). Points come column by column (b outer, a inner), so only the
    column's foot (0, b) and the latest point are held, however large the grid.
    """

    def apply(fam: KrausFamily, y: Array) -> Array:
        ops = fam.ops[:, None]
        return (ops @ y @ dagger(ops)).sum(axis=0)

    foot = np.asarray(x, dtype=complex)
    for b in range(limit.b + 1):
        if b:
            foot = apply(phi, foot)
        out = foot
        for a in range(limit.a + 1):
            if a:
                out = apply(theta, out)
            yield GridPoint(a, b), out


def _matrix_units(n: int) -> Array:
    """The (n^2, n, n) stack of matrix units e_rc, unit r * n + c."""
    return np.eye(n * n, dtype=complex).reshape(n * n, n, n)


def _outer_units(a: Array) -> Array:
    """All A_r A_c^* of a (..., n, rows, cols) stack, as (..., n*rows, n*rows)
    matrices whose block (r, c) is A_r A_c^*."""
    flat = a.reshape(*a.shape[:-3], -1, a.shape[-1])
    return flat @ dagger(flat)


def _unit_block_residual(units: Array, power: Array) -> float:
    """Largest Frobenius norm of block (r, c) of units minus Theta^a Phi^b(e_rc),
    for the (n^2, n, n) stack power of _kraus_grid. Overwrites units."""
    n = power.shape[-1]
    units -= power.reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(n * n, n * n)
    return max_block_fro(units, n, n)


def _big_space_dim(sys: TwistedProductSystem, horizon: GridPoint, cap: int) -> int:
    """The sum of dim X(g) tensor H over the grid points g below the horizon,
    or CapExceededError when it passes cap; no grid point is built.

    Block g has dimension n m^a k^b: the total is n times a geometric sum per
    axis. A power past 2^4096 is not formed; base^top >= 2^top > cap refuses.
    """
    sums = []
    for base, top in ((sys.m, horizon.a), (sys.k, horizon.b)):
        if base > 1 and (top + 1) * base.bit_length() > 4096 and top >= cap.bit_length():
            raise CapExceededError(f"big space dimension over 2^{top} exceeds cap {cap}")
        sums.append(top + 1 if base == 1 else (base ** (top + 1) - 1) // (base - 1))
    total = sys.dim_h * sums[0] * sums[1]
    if total > cap:
        raise CapExceededError(f"big space dimension {total} exceeds cap {cap}")
    return total


def verify_representation(
    sys: TwistedProductSystem,
    horizon: GridPoint,
    tol: float = DEFAULT_TOL,
    cap: int = DEFAULT_FIBER_CAP,
) -> RepresentationReport:
    """Check the three representation contracts on the full grid rectangle.

    (1) covariance: rep_g (I tensor x) rep_g^* = Theta^a Phi^b (x) on matrix
        units; (2) multiplicativity across every split g1 + g2 <= horizon, as
        the single matrix identity rep_{g1+g2} (U_{g1,g2} tensor I) =
        rep_{g1} (I tensor rep_{g2}); (3) when both maps are unital, each
        rep_g is a coisometry.

    (1) and (3) take one GEMM per grid point: with R_r the n x dim X(g)
    column r of the words, block (r, c) of _outer_units([R_1 .. R_n]) is
    R_r R_c^* = rep_g (I tensor e_rc) rep_g^*, and rep_g rep_g^* is the
    sum of its diagonal blocks.

    Raises CapExceededError, before any word operator is built, when the sum
    of dim X(g) tensor H over the grid passes cap.
    """
    n = sys.dim_h
    _big_space_dim(sys, horizon, cap)
    words = _word_operators(sys, horizon)
    unital = all(fam.unitality_residual <= tol for fam in (sys.theta, sys.phi))

    ident = 0.0
    coiso = 0.0
    for g, power in _kraus_grid(sys.theta, sys.phi, horizon, _matrix_units(n)):
        # R_r = rep_g[:, :, r] is [r, i, w] of the words; block (r, c) of units is R_r R_c^*.
        units = _outer_units(words[g].transpose(2, 1, 0))
        if unital:
            gram = np.einsum("rirj->ij", units.reshape(n, n, n, n)) - np.eye(n)
            coiso = max(coiso, fro(gram))
        ident = max(ident, _unit_block_residual(units, power))
        del units  # before the next Kraus step

    # Entry [i, w, j] of reps[a, b] is entry (i, j) of the operator of fiber word w.
    pts = grid_points(horizon)
    reps = {g.key(): np.ascontiguousarray(words[g].transpose(1, 0, 2)) for g in pts}
    # Int keys and inline product maps: Sigma(b1, a2) is looked up once per a2,
    # and a split costs a GEMM only where it is not the identity.
    top_a, top_b = horizon.key()
    hom = 0.0
    for g1 in pts:
        a1, b1 = g1.key()
        fd1, rows = sys.fiber_dim(g1), n * sys.m**a1
        splits = [(a2, b2) for a2 in range(top_a - a1 + 1) for b2 in range(top_b - b1 + 1)]
        # Both sides for every g2 at once, as (fd1, n, sum_g2 fd2 n) stacks:
        # block a of the n x (fd1 fd2 n) matrices of each split, side by side.
        # rep_{g1} (I tensor rep_{g2}): column (a, b, j) is W_a rep_{g2}[:, (b, j)].
        rhs = words[g1] @ np.concatenate([reps[g2].reshape(n, -1) for g2 in splits], axis=1)
        lhs = []
        for a2 in range(top_a - a1 + 1):
            # rep_{g1+g2} (U tensor I): U^T on the word axis of rep_{g1+g2}.
            sigma = sys._block_flip(b1, a2)
            for b2 in range(top_b - b1 + 1):
                rep = reps[a1 + a2, b1 + b2]
                if sigma is not None:
                    rep = sigma.T @ rep.reshape(rows, len(sigma), -1)
                lhs.append(rep.reshape(n, fd1, -1))
        diff = np.concatenate(lhs, axis=2).transpose(1, 0, 2) - rhs
        sq = (diff.real**2 + diff.imag**2).sum(axis=(0, 1))
        # Each split's squared Frobenius norm is the sum over its column segment.
        starts = np.cumsum([0] + [piece.shape[2] for piece in lhs[:-1]])
        hom = max(hom, float(np.sqrt(np.add.reduceat(sq, starts).max())))

    return RepresentationReport(
        horizon=horizon,
        identity_residual=ident,
        homomorphism_residual=hom,
        coisometry_residual=coiso,
        unital=unital,
        tol=tol,
    )
