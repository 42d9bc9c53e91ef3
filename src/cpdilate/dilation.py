"""Finite-horizon isometric dilation of a twisted product-system representation.

The big space is the direct sum of the blocks X(g) tensor H over all grid
points g below a horizon. The two step operators push a block down by one
grid unit while absorbing one fiber letter through the representation; their
adjoints push blocks up. For unital maps the steps are coisometries, and the
minimal dilation space is the inductive limit of X(s) tensor H (Muhly and
Solel, Internat. J. Math. 13 (2002); Shalit, Canad. Math. Bull. 53 (2010)).
At a finite horizon that limit is reached at the top block:

    K = X(horizon) tensor H.

The generator at grid point s, a basis vector of X(s) tensor H, sits in K as
a column of T_s^*, where T_s is hat_{horizon - s} restricted to the top block
(block horizon -> block s). With r = horizon - s it has the closed form

    T_s^* = (U_{s,r} tensor I_H)(I_{X(s)} tensor rep_r^*),

with U_{s,r} the product map and rep_r the representation matrix of X(r).
`build_dilation_space` keeps one block T_s^* per grid point; together their
columns span K, and the Gram matrix of all of them is the generator Gram
matrix of the join formula. V_g(e_w) = (L_w tensor I) T_{horizon - g} with
L_w the left multiplication by the fiber word e_w, and alpha_g(b) sums
V_g(e_w) b V_g(e_w)^* over words. Both are one left multiplication by the
words of a fiber, `prodsys._left_multiply`. No Gram matrix is formed and no
unitary extension is ever constructed.

Truncation bookkeeping: V_g and alpha_g are exposed only for g <= margin.
V_g acts exactly on the span of generators at grid points <= horizon - g,
which is the range of T_{horizon - g}^*, and vanishes on its orthogonal
complement rather than being silently truncated into wrong values. For
unital maps the generator spans increase along the grid, so the coisometry
identity alpha_g(1) = 1 survives truncation globally; the isometry identity
is the one that does not, and it is verified against the projector of the
valid span (the identity on the infinite grid), read off the generator
columns by GEMMs (see verify_e_dilation). On corner-embedded arguments
alpha_g reduces to an exact generator-block formula valid for every g up to
the horizon, which is what the minimality checks use.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby

import numpy as np

from .chan import KrausFamily
from .linalg import (
    DEFAULT_TOL,
    DEFAULT_VERIFY_TOL,
    Array,
    CapExceededError,
    dagger,
    fro,
    hermitize,
    max_block_fro,
)
from .prodsys import (
    DEFAULT_GRID_CAP,
    ZERO,
    GridPoint,
    TwistedProductSystem,
    _big_space_dim,
    _kraus_grid,
    _left_multiply,
    _matrix_units,
    _outer_units,
    _unit_block_residual,
    _word_operators,
    build_product_system,
    grid_points,
)
from .strongcomm import StrongCommutationCertificate, strong_commutation_certificate

# Floor below zero allowed for p_increase_min_eig.
PSD_FLOOR = 1e-10


class OutOfHorizonError(ValueError):
    pass


@dataclass(frozen=True)
class BigSpace:
    """The grid below the horizon and the dimension of each block X(g) tensor H."""

    horizon: GridPoint
    points: tuple[GridPoint, ...]
    dims: dict
    total_dim: int


def build_big_space(
    sys: TwistedProductSystem, horizon: GridPoint, cap: int = DEFAULT_GRID_CAP
) -> tuple[BigSpace, TwistedProductSystem]:
    """The grid below the horizon and its block dimensions, or CapExceededError
    when their total passes cap. Returns (big, sys), the first two arguments
    of build_dilation_space."""
    total = _big_space_dim(sys, horizon, cap)
    points = tuple(grid_points(horizon))
    dims = {g: sys.fiber_dim(g) * sys.dim_h for g in points}
    return BigSpace(horizon=horizon, points=points, dims=dims, total_dim=total), sys


@dataclass(frozen=True, eq=False)
class DilationSpace:
    """The dilation space K = X(horizon) tensor H at a finite horizon."""

    big: BigSpace
    margin: GridPoint
    blocks: dict           # g -> T_g^*, dim_k x dims[g], in grid_points order
    dim_k: int
    embed_h: Array         # dim_k x n isometry, the copy of H at grid point 0
    dropped_max = 0.0      # not a field: no direction of K is dropped

    @property
    def horizon(self) -> GridPoint:
        return self.big.horizon

    @cached_property
    def kept_min(self) -> float:
        """Smallest eigenvalue of sum_g T_g^* T_g."""
        cover = np.zeros((self.dim_k, self.dim_k), dtype=complex)
        for f in self.blocks.values():
            cover += f @ dagger(f)
        return float(np.linalg.eigvalsh(hermitize(cover))[0])

    @property
    def gram_min_eig(self) -> float:
        """Smallest eigenvalue of the generator Gram matrix: it has the
        spectrum of sum_g T_g^* T_g plus total_dim - dim_k zeros. Without
        zeros the horizon is (0, 0), whose only block is exactly I_n."""
        return 0.0 if self.big.total_dim > self.dim_k else 1.0


def build_dilation_space(
    big: BigSpace, sys: TwistedProductSystem, margin: GridPoint
) -> DilationSpace:
    """Realize K = X(horizon) tensor H and the K-coordinates of every generator.

    The block of grid point s is T_s^* with T_s = hat_{horizon - s} on the top
    block, in closed form: with r = horizon - s,

        T_s^* = (U_{s,r} tensor I_H)(I_{X(s)} tensor rep_r^*).

    Requires both maps unital (the coisometric case); otherwise K is not the
    top block and the blocks would be wrong, not merely approximate.
    """
    if not (margin <= big.horizon):
        raise OutOfHorizonError(f"margin {margin.key()} exceeds horizon {big.horizon.key()}")
    for fam, name in ((sys.theta, "first"), (sys.phi, "second")):
        if not fam.unitality_residual <= DEFAULT_VERIFY_TOL:
            raise ValueError(f"dilation requires unital maps; the {name} map is not")

    words = _word_operators(sys, big.horizon)
    n, top = sys.dim_h, big.horizon
    blocks = {}
    for s in big.points:
        # rep_r^* has rows (X(r), H): block w is W_w^*.
        rep_h = dagger(words[top - s]).reshape(-1, n)
        blocks[s] = _left_multiply(sys, s, top - s, rep_h)
    return DilationSpace(
        big=big, margin=margin, blocks=blocks, dim_k=big.dims[top], embed_h=blocks[ZERO]
    )


@dataclass(eq=False)
class EDilationResult:
    """Lifted operators of the dilation on K-coordinates."""

    dsp: DilationSpace
    sys: TwistedProductSystem
    # g -> (fiber_dim(g), dim_k, dim_k) stack, one V_g(e_w) per word: a strided
    # view of the one product [V_1 ... V_fd], which _hstack returns uncopied.
    v_blocks: dict

    def v_blocks_for(self, g: GridPoint) -> Array:
        if g not in self.v_blocks:
            raise OutOfHorizonError(
                f"operators at {g.key()} exceed the margin {self.dsp.margin.key()}"
            )
        return self.v_blocks[g]

    def alpha(self, g: GridPoint, b: Array) -> Array:
        """alpha_g(b) = sum over fiber words of V_g(e_w) b V_g(e_w)^*.

        One batched product V b, then [V_1 b ... V_fd b] [V_1 ... V_fd]^*.
        """
        v = self.v_blocks_for(g)
        return _hstack(v @ b) @ dagger(_hstack(v))

    def embed(self, a: Array) -> Array:
        e = self.dsp.embed_h
        return e @ np.asarray(a, dtype=complex) @ dagger(e)


def _hstack(stack: Array) -> Array:
    """[M_1 ... M_s] for a (s, rows, cols) stack."""
    s, rows, cols = stack.shape
    return stack.transpose(1, 0, 2).reshape(rows, s * cols)


def lift_operators(dsp: DilationSpace, sys: TwistedProductSystem) -> EDilationResult:
    """V_g(e_w) = (L_w tensor I_n) T_{horizon - g} for every g <= margin.

    L_w : X(horizon - g) -> X(horizon) multiplies by the fiber word e_w on
    the left, so V_g(e_w) sends the generator (u, zeta tensor h) to
    (g + u, (e_w . zeta) tensor h) for u <= horizon - g, and vanishes off the
    range of T_{horizon - g}^*, the span of those generators.
    """
    k, top = dsp.dim_k, dsp.horizon
    v_blocks: dict = {}
    for g in grid_points(dsp.margin):
        wide = _left_multiply(sys, g, top - g, dagger(dsp.blocks[top - g]))
        v_blocks[g] = wide.reshape(k, -1, k).transpose(1, 0, 2)
    return EDilationResult(dsp=dsp, sys=sys, v_blocks=v_blocks)


@dataclass(frozen=True)
class DilationReport:
    gram_min_eig: float
    isometry_residual: float
    coisometry_residual: float
    dilation_residual: float
    semigroup_residual: float
    multiplicativity_residual: float
    p_increase_min_eig: float
    tol: float

    @property
    def passed(self) -> bool:
        worst = max(
            self.isometry_residual,
            self.coisometry_residual,
            self.dilation_residual,
            self.semigroup_residual,
            self.multiplicativity_residual,
        )
        return worst <= self.tol and self.p_increase_min_eig >= -PSD_FLOOR


def verify_e_dilation(
    res: EDilationResult,
    theta: KrausFamily,
    phi: KrausFamily,
    grid_limit: GridPoint,
    tol: float = DEFAULT_VERIFY_TOL,
) -> DilationReport:
    """Check the dilation contracts at every grid point below grid_limit.

    Full coisometry (alpha_g(1) = 1) is checked globally: for unital maps the
    generator spans increase along the grid, the top corner block spans all of
    K, and every K_{>= g} therefore already exhausts K. The isometry identity
    is the one that genuinely needs truncation bookkeeping; it is stated
    against the projector of the span where the finite-horizon operator is
    exact (generators below horizon - g), which on the infinite grid is the
    identity. With B = T_{horizon - g}^*, the generators at horizon - g, the
    residual also takes ||B^* B - 1|| and ||f_s - B B^* f_s|| for every other
    block f_s below (implied by the first when B is square), all lower blocks
    in one GEMM pair with a segment sum per block. Once both vanish
    B B^* is that projector, and V_x^* V_y, y >= x, is compared with
    delta_xy B B^*: the lift is checked against the generator columns, not
    against the T^* T it was built from.

    Every embedded argument has rank at most n. With the thin factor
    A_r = [V_g(e_w) embed_h e_r]_w (dim_k x fiber_dim(g)), alpha_g applied
    to embed e_rc is A_r A_c^*, so the residuals on matrix units are formed
    from it: dilation e^* A_r A_c^* e against Kraus iteration of theta and
    phi; multiplicativity A_i (A_j^* A_k - delta_jk I) A_l^*; semigroup
    B_r B_c^* - A'_r A'_c^* with B = V_g A of alpha_h and A' of alpha_{g+h};
    alpha_g(p) = sum_r A_r A_r^*. The Frobenius norm is unitarily invariant,
    so the two dim_k x dim_k differences are taken in R coordinates: with
    A_i = Q_i R_i, multiplicativity is R_i D_jk R_l^*, D_jk = A_j^* A_k -
    delta_jk I, and with [B_r A'_r] = Q_r [R^B_r R^A_r], one batched QR over
    every split of a grid point, semigroup is R^B_r R^B_c^* - R^A_r R^A_c^*;
    each norm is still of an explicit difference. Coisometry and isometry
    use the full V_g. The p-increase gap A A^* - E E^* = M S M^*, M = [A E],
    S = diag(1, -1), has the nonzero spectrum of R S R^* for the R factor of
    M, which decides min(0, its smallest eigenvalue) as an (n fd + n)-square
    problem.
    """
    dsp, sys = res.dsp, res.sys
    if not grid_limit <= dsp.margin:
        raise OutOfHorizonError(
            f"grid limit {grid_limit.key()} exceeds margin {dsp.margin.key()}"
        )
    n, k, e = sys.dim_h, dsp.dim_k, dsp.embed_h
    pts = grid_points(grid_limit)
    # thin[g][r] = A_r, shape (n, dim_k, fiber_dim(g)).
    thin = {g: (res.v_blocks_for(g) @ e).transpose(2, 1, 0) for g in pts}

    dil = 0.0
    mult = 0.0
    coiso = 0.0
    iso = 0.0
    p_min = 0.0
    for g, power in _kraus_grid(theta, phi, grid_limit, _matrix_units(n)):
        v, a = res.v_blocks_for(g), thin[g]
        fd = a.shape[2]
        # Block (r, c) is embed_h^* alpha_g(embed e_rc) embed_h.
        dil = max(dil, _unit_block_residual(_outer_units(dagger(e) @ a), power))

        # d[j, m] = A_j^* A_m - delta_jm I; block (i, j, m; l) is R_i d[j, m] R_l^*.
        wide_a = _hstack(a)
        d = (dagger(wide_a) @ wide_a - np.eye(n * fd)).reshape(n, fd, n, fd).transpose(0, 2, 1, 3)
        r = np.linalg.qr(a, mode="r")
        sandwich = (r[:, None, None] @ d).reshape(-1, fd) @ dagger(r.reshape(-1, fd))
        mult = max(mult, max_block_fro(sandwich, n**3, r.shape[1]))

        wide = _hstack(v)
        gram = wide @ dagger(wide)
        gram.flat[::k + 1] -= 1.0
        coiso = max(coiso, fro(gram))
        limit = dsp.horizon - g
        gens = dsp.blocks[limit]
        gens_h = dagger(gens)
        iso = max(iso, fro(gens_h @ gens - np.eye(gens.shape[1])))
        lower = [f for s, f in dsp.blocks.items() if s <= limit and s != limit]
        if gens.shape[1] < k and lower:
            low = np.hstack(lower)
            off = (low - gens @ (gens_h @ low)).view(np.float64)
            starts = np.cumsum([0] + [2 * f.shape[1] for f in lower[:-1]])
            sq = np.add.reduceat(np.einsum("ij,ij->j", off, off), starts)
            iso = max(iso, float(np.sqrt(sq.max())))
            del low, off  # before the row products
        p_g = gens @ gens_h
        for x in range(fd):
            # Block row x of [V]^*[V] from block x on: V_x^* V_y = delta_xy P_g.
            row = dagger(v[x]) @ wide[:, x * k:]
            row[:, :k] -= p_g
            iso = max(iso, max_block_fro(row, 1, k))
        r = np.linalg.qr(np.hstack((wide_a, e)), mode="r")
        a_r, e_r = r[:, :n * fd], r[:, n * fd:]
        gap = hermitize(a_r @ dagger(a_r) - e_r @ dagger(e_r))
        p_min = min(p_min, float(np.linalg.eigvalsh(gap)[0]))

    semi = 0.0
    for s in pts:
        # [B_r A'_r] for every split g + h = s and unit r: B of alpha_g alpha_h, A' of alpha_s.
        fd = thin[s].shape[2]
        splits = grid_points(s)
        pair = np.empty((len(splits), n, k, 2 * fd), dtype=complex)
        pair[..., fd:] = thin[s]
        for i, g in enumerate(splits):
            a_h = thin[s - g]
            b = res.v_blocks_for(g) @ _hstack(a_h)  # (fd_g, dim_k, n fd_h)
            pair[i, ..., :fd] = b.reshape(len(b), k, n, -1).transpose(2, 1, 0, 3).reshape(n, k, -1)
        r = np.linalg.qr(pair, mode="r")
        diff = _outer_units(r[..., :fd]) - _outer_units(r[..., fd:])
        semi = max(semi, max_block_fro(diff, len(splits) * n, r.shape[2]))

    return DilationReport(
        gram_min_eig=dsp.gram_min_eig,
        isometry_residual=iso,
        coisometry_residual=coiso,
        dilation_residual=dil,
        semigroup_residual=semi,
        multiplicativity_residual=mult,
        p_increase_min_eig=p_min,
        tol=tol,
    )


# Commutant of a *-closed generator set. A fixed-seed random Hermitian element
# A of the span lies in the generated algebra, so every element of the
# commutant commutes with A and is block-diagonal over A's eigenspaces
# (Murota, Kanno, Kojima and Kojima, Japan J. Indust. Appl. Math. 27 (2010)).
# Eigenvalues closer than CLUSTER_REL * ||A|| share a block: an eigenspace
# split by roundoff stays whole, and merging two distinct eigenvalues only
# enlarges the search space of the solve.
COMMUTANT_SEED = 0
CLUSTER_REL = 1e-8
# Commutant basis: eigenvalues of the normal operator below 0.01 * COMMUTANT_TOL
# times its largest (or 1).
COMMUTANT_TOL = 1e-8
# Two eigenvalue clusters of a random commutant element share a summand when a
# second element's block between them is above LINK_REL times its largest.
LINK_REL = 1e-6
# Unknowns of the commutant solve, the sum of squared block sizes. Its traced
# peak is 4.07 N^2 16 B for N unknowns (65 MiB at N = 1024) before LAPACK's
# workspace, ~1 GiB by that ratio at the cap (not measured there).
MAX_COMMUTANT_UNKNOWNS = 4096
# Commutant generators come in batches of at most max(_SLICE_ENTRIES, d^2) complex
# entries (16 MiB to d = 1024); the general solve gathers slices of a batch onto N
# unknowns of at most max(_SLICE_ENTRIES, N^2) entries (256 MiB at the cap).
_SLICE_ENTRIES = 2**20


def _random_coefficients(count: int) -> Array:
    rng = np.random.default_rng(COMMUTANT_SEED)
    return rng.normal(size=count) + 1j * rng.normal(size=count)


def _eigen_clusters(a: Array) -> tuple[Array, Array]:
    """Eigenvectors of a Hermitian matrix and the sizes of its eigenvalue clusters."""
    w, v = np.linalg.eigh(a)
    norm = float(np.abs(w).max()) if w.size else 0.0
    cuts = np.flatnonzero(np.diff(w) > CLUSTER_REL * norm) + 1
    return v, np.diff(np.concatenate(([0], cuts, [w.size])))


def _laplacian(w: Array) -> Array:
    """diag(w 1) - w, the graph Laplacian of a symmetric weight matrix."""
    return np.diag(w.sum(axis=1)) - w


def _block_commutant(chunks: Iterable[Array], sizes: Array) -> tuple[Array, Array, Array]:
    """Commutant of the *-closed span of the generators among block-diagonal matrices.

    chunks yields (count, d, d) stacks of the generators B_g, already in the
    frame whose eigenvalue clusters have the given sizes; it is drawn only
    after the cap check. Minimizes sum_g ||[C, B_g]||^2 over C block-diagonal
    in that frame. Returns (coef, p, q): column k of coef holds the entries of
    the k-th commutant basis element at positions (p, q) of the frame.
    """
    unknowns = int(sizes @ sizes)
    if unknowns > MAX_COMMUTANT_UNKNOWNS:
        raise CapExceededError(
            f"commutant solve needs {unknowns} unknowns, over the cap {MAX_COMMUTANT_UNKNOWNS}"
        )
    d = int(sizes.sum())
    # Normal operator N(C) = C S1 + S2 C - sum_g (B C B* + B* C B), with
    # S1 = sum_g B B*, S2 = sum_g B* B. The sandwich terms, restricted to the
    # unknowns, are T + T^* with T[u, w] = sum_g B[p_u, p_w] conj(B[q_u, q_w]).
    if unknowns == d:
        # Clusters of one: p = q = range(d), T = W = sum_g |B|^2 is real, and
        # S1 and S2 on the diagonal are its row and column sums, so N is the
        # graph Laplacian of W + W^T. W is reduced chunk by chunk.
        w = np.zeros((d, d))
        for chunk in chunks:
            for x in (chunk.real, chunk.imag):
                w += np.einsum("gij,gij->ij", x, x)
        p = q = np.arange(d)
        normal = _laplacian(w + w.T)
    else:
        labels = np.repeat(np.arange(sizes.size), sizes)
        p, q = np.nonzero(labels[:, None] == labels[None, :])  # row-major within each block
        # S1 and S2 are formed only on the blocks.
        t = np.zeros((unknowns, unknowns), dtype=complex)
        s1 = np.zeros((d, d), dtype=complex)
        s2 = np.zeros((d, d), dtype=complex)
        # A gather holds count * unknowns^2 entries.
        per = max(1, _SLICE_ENTRIES // (unknowns * unknowns))
        for chunk in chunks:
            for start in range(0, len(chunk), per):
                bg = chunk[start:start + per]
                rows_p, rows_q = bg.take(p, axis=1), bg.take(q, axis=1).conj()
                t += np.einsum("gij,gij->ij", rows_p.take(p, axis=2), rows_q.take(q, axis=2))
                s1[p, q] += np.einsum("gux,gux->u", rows_p, rows_q)
                s2[p, q] += np.einsum("gxu,gxu->u", bg.take(p, axis=2).conj(), bg.take(q, axis=2))
        normal = -(t + dagger(t))
        del t
        # C S1 + S2 C on the unknowns: entry (u, w) takes S1[q_w, q_u] where
        # p_u = p_w, and S2[p_u, p_w] where q_u = q_w.
        u, w = np.nonzero(p[:, None] == p[None, :])
        normal[u, w] += s1[q[w], q[u]]
        u, w = np.nonzero(q[:, None] == q[None, :])
        normal[u, w] += s2[p[u], p[w]]
        normal = hermitize(normal)
    evals, evecs = np.linalg.eigh(normal)
    scale = max(float(evals[-1]), 1.0)
    return evecs[:, evals < 0.01 * COMMUTANT_TOL * scale], p, q


def _closure_dim(coef: Array, p: Array, q: Array, d: int) -> int:
    """Dimension of the generated unital *-algebra, read off the commutant
    basis (coef, p, q) of _block_commutant on C^d.

    The algebra is a sum of M_{d_i} tensor I_{m_i}, its commutant of
    I_{d_i} tensor M_{m_i} (Maehara and Murota, Japan J. Indust. Appl. Math.
    27 (2010)). A random Hermitian commutant element has m_i eigenvalue
    clusters of size d_i in summand i; a second one, in that eigenframe,
    links two clusters exactly when they share a summand. A span element
    would not do: it can be degenerate inside one summand.
    """
    dim_comm = coef.shape[1]
    if dim_comm <= 1:
        return d * d

    # Both commutant elements stay in the frame of the solve.
    pair = np.zeros((2, d, d), dtype=complex)
    pair[:, p, q] = _random_coefficients(2 * dim_comm).reshape(2, -1) @ coef.T
    frame, sizes = _eigen_clusters(pair[0] + dagger(pair[0]))
    starts = np.cumsum(sizes) - sizes
    power = np.abs(dagger(frame) @ pair[1] @ frame) ** 2
    power = np.add.reduceat(np.add.reduceat(power, starts, axis=0), starts, axis=1)
    reach = (power + power.T > LINK_REL**2 * power.max()) + np.eye(sizes.size)
    for _ in range(sizes.size.bit_length()):  # paths of up to 2^bits steps
        reach = (reach @ reach > 0).astype(float)
    summand = reach.argmax(axis=1)  # named by its first cluster
    firsts, mults = np.unique(summand, return_counts=True)
    # A cluster merged by CLUSTER_REL breaks one of these instead of the count.
    if (sizes != sizes[summand]).any() or mults @ mults != dim_comm:
        raise RuntimeError(f"no consistent block structure for a commutant of dim {dim_comm}")
    return int(sizes[firsts] @ sizes[firsts])


@dataclass(frozen=True)
class MinimalityReport:
    dim_k: int
    span_dim: int
    span_full: bool
    commutant_dim: int
    closure_dim: int

    @property
    def passed(self) -> bool:
        # A scalar commutant makes the span full (minimality_check).
        return self.commutant_dim == 1


def minimality_check(res: EDilationResult) -> MinimalityReport:
    """Commutant and span diagnostics for minimality.

    The generators are alpha_g(e_rc) = A_r A_c^* for every grid point g up
    to the horizon and matrix units e_rc, with A_r = f_g.reshape(d, fd, n)[:, :, r]
    read off the factor block f_g of g; no generator is formed. On
    corner-embedded arguments alpha_g is exact at every grid point, and the
    span needs grid points beyond the operator margin to exhaust K.

    (1) The generators form a *-closed set, so by the double commutant
        theorem they generate B(K) exactly when their commutant is the
        scalars. The random element of their span is sum_g f_g (I tensor C_g)
        f_g^*, with the coefficients of _random_coefficients in (g, r, c)
        order, and the commutant solve takes the n^2 generators H_r H_c^* of
        each grid point, H = frame^* A. Consecutive grid points with equal
        block shapes share one product, of at most max(_SLICE_ENTRIES, d^2)
        generator entries; a grid point over that is formed one generator at
        a time. closure_dim, the dimension of the generated unital *-algebra,
        is read off the commutant's structure.
    (2) The span of the words alpha_{g_1}(m_1) ... alpha_{g_r}(m_r) applied
        to E H, with E = f_0 the embedding of H, is invariant under the
        generated algebra R = sum_i M_{d_i} tensor I_{m_i}. E E^*, the sum of
        A_r A_r^* at g = 0, lies in R, so it is sum_i Q_i tensor I_{m_i} and
        the span is the sum of the summands with Q_i != 0. The
        Hilbert-Schmidt projection of E E^* onto the commutant (the
        trace-preserving conditional expectation) is sum_i (rank Q_i / d_i) Z_i,
        Z_i the unit of summand i. Its rank is the span's dimension and its
        nonzero eigenvalues are at least 1 / dim K, so those above
        0.5 / dim K are counted. The commutant basis is Hilbert-Schmidt
        orthonormal and block-diagonal over the solve's clusters, so the
        projection is formed on the unknowns and read block by block.
    """
    dsp, sys = res.dsp, res.sys
    n, d = sys.dim_h, dsp.dim_k
    if d > MAX_COMMUTANT_UNKNOWNS:  # the unknowns, sum of squared cluster sizes, are >= d
        raise CapExceededError(
            f"commutant solve needs at least dim K = {d} unknowns, "
            f"over the cap {MAX_COMMUTANT_UNKNOWNS}"
        )
    # The factor block f_g of each grid point, whose columns are (X(g), H).
    blocks = [dsp.blocks[g] for g in grid_points(dsp.horizon)]
    budget = max(_SLICE_ENTRIES, d * d)

    def batches() -> Iterator[tuple[int, int, Array]]:
        # Runs of consecutive blocks of one shape, as many as keep their n^2 d^2
        # generators each within the budget (at least one), joined side by side
        # when drawn: (index of the first, count, [f_g ...]).
        per, first = max(1, budget // (n * n * d * d)), 0
        for _, run in groupby(blocks, key=np.shape):
            run = list(run)
            for i in range(0, len(run), per):
                part = run[i:i + per]
                yield first + i, len(part), np.concatenate(part, axis=1) if per > 1 else part[0]
            first += len(run)

    # sum over (r, c) of C_g[r, c] A_r A_c^* is f_g (I tensor C_g) f_g^*, and a
    # batch is one product [f_g (I tensor C_g) ...] [f_g ...]^*.
    coefs = _random_coefficients(len(blocks) * n * n).reshape(-1, n, n)
    a = np.zeros((d, d), dtype=complex)
    for i, count, cols in batches():
        a += (cols.reshape(d, count, -1, n) @ coefs[i:i + count]).reshape(d, -1) @ dagger(cols)

    def _chunks(frame: Array) -> Iterator[Array]:
        frame_h = dagger(frame)
        for _, count, cols in batches():
            # h[i, r] = H_r of the batch's i-th grid point.
            h = (frame_h @ cols).reshape(d, count, -1, n).transpose(1, 3, 0, 2)
            if n * n * d * d > budget:  # one grid point, one generator at a time
                for r, c in np.ndindex(n, n):
                    yield (h[0, r] @ dagger(h[0, c]))[None]
            else:  # generator (i, r, c), H_r H_c^* of point i, at (i * n + r) * n + c
                yield (h[:, :, None] @ dagger(h)[:, None]).reshape(-1, d, d)

    frame, sizes = _eigen_clusters(a + dagger(a))
    coef, p, q = _block_commutant(_chunks(frame), sizes)
    # The projection of E E^* onto the commutant, on the unknowns (p, q) of the
    # solve; those of one cluster are one row-major block.
    e = dagger(frame) @ dsp.blocks[ZERO]
    y = coef @ (dagger(coef) @ np.einsum("uj,uj->u", e[p], e[q].conj()))
    starts = np.cumsum(sizes * sizes) - sizes * sizes
    span_rank = 0
    for s in np.unique(sizes):
        block = y[starts[sizes == s, None] + np.arange(s * s)].reshape(-1, s, s)
        span_rank += int((np.linalg.eigvalsh(block) > 0.5 / d).sum())
    return MinimalityReport(
        dim_k=d,
        span_dim=span_rank,
        span_full=span_rank == d,
        commutant_dim=coef.shape[1],
        closure_dim=_closure_dim(coef, p, q, d),
    )


@dataclass(frozen=True, eq=False)
class DilationRun:
    """One pass of dilate; the system and the space are res.sys and res.dsp."""

    cert: StrongCommutationCertificate
    res: EDilationResult
    report: DilationReport
    minimality: MinimalityReport

    @property
    def passed(self) -> bool:
        return self.report.passed and self.minimality.passed


def dilate(
    theta: KrausFamily, phi: KrausFamily, horizon: GridPoint, margin: GridPoint, *,
    cert: StrongCommutationCertificate | None = None, tol: float = DEFAULT_TOL,
    verify_tol: float = DEFAULT_VERIFY_TOL, cap: int = DEFAULT_GRID_CAP,
) -> DilationRun:
    """Certify the pair unless cert is given (NonCommutingError if it does not
    commute), build its product system, dilate to horizon, verify up to margin
    against the caller's theta and phi, and check minimality. Each stage is
    called by its module-level name, so that a tracer swapping them sees it."""
    if cert is None:
        cert = strong_commutation_certificate(theta, phi, tol)
    big, sys = build_big_space(build_product_system(theta, phi, cert, tol), horizon, cap)
    res = lift_operators(build_dilation_space(big, sys, margin), sys)
    report = verify_e_dilation(res, theta, phi, margin, verify_tol)
    return DilationRun(cert=cert, res=res, report=report, minimality=minimality_check(res))
