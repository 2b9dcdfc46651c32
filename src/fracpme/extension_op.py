"""Assembly and solution of the discrete weighted elliptic extension problem.

Interior nodes satisfy L v = y^(1-sigma) Lap_c v + (1-sigma) y^(-sigma) Dy_d v = 0
with Dirichlet data on the trace row k = 0 and homogeneous Dirichlet data on
the lateral and top boundary (the truncated half-plane of the scheme).  Rows
are assembled in a scaled form: multiplying the raw finite-difference row at
height y_k = k*dx by dx^(1+sigma) * k^(sigma-1) and flipping its sign leaves
coefficients that depend only on k and sigma, with an O(1) positive diagonal.
That scaling keeps the matrix well conditioned across sigma and is exactly the
manipulation under which the low-order scheme exhibits its M-structure.

The interior operator A is the Kronecker sum I (x) T_x + S_y (x) I of a 1-D
x-factor and a 1-D y-factor; only the two factors are kept, and A itself is
formed only for dump_matrix (solve --dump-matrix) and tests.  A is solved by
fast diagonalization (Lynch, Rice and Thomas 1964): T_x = V diag(lam) V^-1
once per operator, the modes in ascending order of lam, then the banded
y-systems (S_y + lam_n I) of all x-modes as the diagonal blocks of one banded
solve.  For c = 2 the interior x-block is tridiag(-1, 2, -1), whose modes are
known in closed form: V is the symmetric, orthogonal DST-I matrix, so
V^-1 = V^T and one array holds both; c >= 3 takes a dense eig and inv.  Trace
data enter only through S_y's k = 0 column, so each mode's response to the
trace is a precomputed y-profile G[:, n], and it decays with height the
faster the larger lam_n is (the extension's exp(-y sqrt(lam))).
A step maps the trace to x-modes once, c = V^-1 t, and forms each row of
(G o c) V^T only over the modes that can still move it by more than 2^-60
max|t|: the rows fall into a few blocks, each with its own mode count (the
staircase), and one product per block.  The residual of the whole interior
checks every solve: where both factors' windows reach one node each way (c = 2
with d = 1, 2 or no drift), A's rows are five offsets of the height-major nodes,
so one DIA product L @ P.ravel() over all nodes forms it; other pairs apply
each factor in turn.  assemble builds this once per key.  The sign test of the
M-structure reads only the two factors too: offending_factor_rows lists the rows
of each that hold a positive off-diagonal entry.
"""

from __future__ import annotations

import math
import os
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np
from scipy import linalg, sparse

from .core import STENCIL_WINDOWS, Grid, check_sigma, check_stencil
from .errors import ConfigError, SolverError

__all__ = [
    "fd_weights", "ExtensionOperator", "assemble", "solve_interior", "full_grid_values",
    "discrete_max_location", "dump_matrix", "check_memory",
]

_MONOTONE_TOL = 1e-12                   # offending_factor_rows' sign margin
_CACHE_BYTES = 64 * 2**20               # budget of the operator cache, in array bytes
_TAIL_BOUND = 2.0**-60                  # bound on a row's dropped modes, per unit max|trace|
_BLOCK_SAVING = 2**18                   # multiply-adds a new row block must save per step
_cache: OrderedDict = OrderedDict()     # (I, K, sigma, c, d) -> its ExtensionOperator
_CGROUP_ROOT = "/sys/fs/cgroup"         # where the cgroup trees are mounted


def fd_weights(offsets: Sequence[float], deriv: int) -> np.ndarray:
    """Finite-difference weights for d^deriv/ds^deriv at 0 on the given offsets.

    Lagrange basis: w_j = deriv! [s^deriv] prod_{k!=j} (s - x_k) / prod_{k!=j} (x_j - x_k).
    On integer offsets the coefficient and the product are exact integers, so
    each weight is the exact rational rounded once; repeated offsets raise.
    """
    x = [float(o) for o in offsets]
    if deriv < 0 or len(x) <= deriv:
        raise ValueError("need more stencil points than the derivative order")
    if len(set(x)) < len(x):
        raise ValueError(f"stencil offsets must be distinct, got {tuple(offsets)}")
    w = []
    for j, xj in enumerate(x):
        others = x[:j] + x[j + 1:]
        poly = [1.0]                    # ascending coefficients of prod (s - x_k)
        for xk in others:
            poly = [a - xk * b for a, b in zip([0.0] + poly, poly + [0.0])]
        w.append(math.factorial(deriv) * poly[deriv] / math.prod(xj - xk for xk in others) + 0.0)
    return np.array(w)


def _factor(family: tuple[int, int], n: int) -> sparse.csr_matrix:
    """(n-1) x (n+1) matrix whose row j-1 holds the weights of the stencil family
    (deriv, order) at node j of 0..n: STENCIL_WINDOWS' first window at node 1, its
    middle one at nodes 2..n-2, its last at n-1; check_stencil has seen that they fit."""
    first, middle, last = STENCIL_WINDOWS[family]
    spans = ((first, 1, 2), (middle, 2, n - 1), (last, n - 1, n))[:1 if n == 2 else 3]
    rows, cols, vals = zip(*((np.repeat(np.arange(lo - 1, hi - 1), len(w)),
                              np.add.outer(np.arange(lo, hi), w).ravel(),
                              np.tile(fd_weights(w, family[0]), hi - lo)) for w, lo, hi in spans))
    return sparse.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                             shape=(n - 1, n + 1))


def _sine_basis(I: int) -> tuple[np.ndarray, np.ndarray]:
    """lam and B for c = 2, whose interior x-block is tridiag(-1, 2, -1) of order I-1:
    lam_n = 4 sin^2(n pi/2I) ascending, and the DST-I matrix
    B[i-1, n-1] = sqrt(2/I) sin(pi ((i n) mod 2I)/I), symmetric, orthogonal, its
    columns the eigenvectors, formed in place in one array.  The products i n are
    exact in floating point, and reducing them mod 2I before sin keeps B^T B
    within ~1e-15 of I at I = 1024."""
    j = np.arange(1.0, I)
    B = np.outer(j, j)
    B %= 2 * I
    B *= np.pi / I
    np.sin(B, out=B)
    B *= math.sqrt(2.0 / I)
    return 4.0 * np.sin(j * (np.pi / (2 * I))) ** 2, B


def _x_modes(c: int, T_int: sparse.csr_matrix, S_int: sparse.csr_matrix, reach: tuple[int, int],
             s_trace: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """V, V^-1 and G for T_int = V diag(lam) V^-1, lam ascending, and the y-systems
    (S_int + lam_n I) G[:, n] = s_trace = -S_y[:, 0] of all modes n: the diagonal blocks
    of one banded system, whose widths are S_y's reach clipped to S_int's order - 1.

    For c = 2, lam and B come from _sine_basis, and V = B^T and V^-1 = B are two
    views of its one array, with the layouts eig and inv give: V Fortran-ordered,
    so each row block's V[:, :n]^T is a C-ordered GEMM operand (a C-ordered V
    made it F-ordered, and a solve 15-20 % slower at I = K = 64), and V^-1
    C-ordered.  For c >= 3, V comes from a dense eig of T_int, refused if its
    spectrum is complex, and V^-1 from inv.
    """
    if c == 2:
        lam, B = _sine_basis(T_int.shape[0] + 1)
        V = B.T
    else:
        lam, V = linalg.eig(T_int.toarray())
        if np.any(lam.imag != 0.0):
            raise SolverError("x-block has complex eigenvalues; "
                              "the x-mode solve needs a real spectrum")
        order = np.argsort(lam.real, kind="stable")
        lam, V = lam.real[order], V[:, order]
    S, n_y = S_int.tocoo(), S_int.shape[0]
    lower, upper = (min(r, n_y - 1) for r in reach)
    y_band = np.zeros((lower + upper + 1, n_y))             # LAPACK band storage
    y_band[upper + S.row - S.col, S.col] = S.data
    # tiling is exact: y_band's slots that fall outside a block are zero, so no
    # two modes are coupled
    ab = np.tile(y_band, len(lam))
    ab[upper] += np.repeat(lam, n_y)
    g = linalg.solve_banded((lower, upper), ab, np.tile(s_trace, len(lam)), overwrite_ab=True)
    return V, (V.T if c == 2 else linalg.inv(V)), g.reshape(len(lam), n_y).T.copy()


def _staircase(V: np.ndarray, V_inv: np.ndarray, G: np.ndarray) -> tuple[tuple[int, int, int], ...]:
    """Row blocks (k0, k1, n) of G that tile its rows 0..K-2 in order, n nonincreasing:
    rows k0..k1-1 of a solve are formed from modes 0..n-1 only.

    With c = V^-1 t, |c_n'| <= ||V^-1||_inf max|t| and |V[i, n']| <= max|V|, so
    the modes n' >= n add at most sum_n'>=n |G[k, n']| ||V^-1||_inf max|V| max|t|
    to row k.  Neither scalar forms an n x n |V|: max|V| = max(max V, -min V), and
    ||V^-1||_inf sums |V^-1| over row blocks of about 2^14 entries.  Row k needs
    the fewest modes n_k that keep this sum <= 2^-60 max|t| at row k and every row
    below it.  One pass groups the rows: a block ends at the first row needing at
    most half its mode count, if the rows from there on then save _BLOCK_SAVING
    multiply-adds or more.
    """
    step = 2**14 // len(V) + 1
    inv_norm = np.max([np.abs(V_inv[r:r + step]).sum(axis=1).max() for r in range(0, len(V), step)])
    limit = _TAIL_BOUND / (inv_norm * np.maximum(V.max(), -V.min()))
    tail = np.abs(G[:, ::-1])
    np.cumsum(tail, axis=1, out=tail)       # tail[k, j]: |G[k]| summed over the top j+1 modes
    need = G.shape[1] - np.count_nonzero(tail <= limit, axis=1)    # a NaN sum keeps its mode
    need = np.maximum.accumulate(need[::-1])[::-1].tolist()
    blocks, k0 = [], 0
    for k, n in enumerate(need):
        if 2 * n <= need[k0] and (len(need) - k) * (need[k0] - n) * V.shape[0] >= _BLOCK_SAVING:
            blocks.append((k0, k, need[k0]))
            k0 = k
    blocks.append((k0, len(need), need[k0]))
    return tuple(blocks)


def _five_diagonals(T_x: sparse.csr_matrix, S_y: sparse.csr_matrix) -> sparse.dia_matrix:
    """The full-node operator L in DIA form, for two tridiagonal factors.

    Over the height-major nodes n = k(I+1) + i, row n of L is zero at boundary
    nodes and at an interior node holds T_x's row i-1 at offsets -1, 0, 1 and
    S_y's row k-1 at offsets -(I+1), 0, I+1, so (L @ P.ravel())[n] is A's
    residual at (i, k).  DIA stores entry (n, n + o) at data[o's row, n + o].
    """
    I, K, N = T_x.shape[1] - 1, S_y.shape[1] - 1, T_x.shape[1] * S_y.shape[1]
    offsets = np.array([-(I + 1), -1, 0, 1, I + 1])
    x, y = T_x.diagonal, lambda j: S_y.diagonal(j)[:, None]
    data = np.zeros((5, N))
    for row, (o, w) in enumerate(zip(offsets, (y(0), x(0), x(1) + y(1), x(2), y(2)))):
        # the interior rows n, k = 1 .. K-1 and i = 1 .. I-1, at their columns n + o
        data[row, I + 1 + o:N - (I + 1) + o].reshape(K - 1, I + 1)[:, 1:I] = w
    return sparse.dia_matrix((data, offsets), shape=(N, N))


@dataclass(frozen=True, eq=False)
class ExtensionOperator:
    """The interior system for trace data on I x K steps: its two 1-D factors and x-modes.

    Interior unknowns are ordered by (k, i).  T_x, (I-1) x (I+1), and S_y,
    (K-1) x (K+1), are the scaled 1-D factors over all x-nodes 0..I and all
    y-nodes 0..K; row n = (k-1)(I-1) + (i-1) of the interior matrix A is row
    i-1 of T_x at height k plus row k-1 of S_y at abscissa i.  V, V^-1 and G are
    _x_modes' arrays, s = -S_y[:, 0], blocks _staircase's, L _five_diagonals'
    (None unless both factors' windows reach one node each way), nbytes the bytes of their
    distinct buffers.  Solves use only these; A is derived on every read.
    """
    I: int
    K: int
    sigma: float
    c: int
    d: int | None
    T_x: sparse.csr_matrix
    S_y: sparse.csr_matrix
    V: np.ndarray = field(repr=False)
    V_inv: np.ndarray = field(repr=False)
    G: np.ndarray = field(repr=False)
    s: np.ndarray = field(repr=False)
    blocks: tuple[tuple[int, int, int], ...] = field(repr=False)
    L: sparse.dia_matrix | None = field(repr=False)
    nbytes: int

    @cached_property
    def s_max(self) -> float:
        """max|s|: the residual check's ||rhs||_inf per unit max|trace|."""
        return float(np.abs(self.s).max())

    @cached_property
    def block_products(self) -> tuple[tuple[np.ndarray, np.ndarray, tuple[slice, slice], int], ...]:
        """(G[k0:k1, :n], V[:, :n]^T, the node-array index of rows 1+k0 .. k1, n) for
        each row block (k0, k1, n): the staircase's operands, sliced once per operator."""
        return tuple((self.G[k0:k1, :n], self.V[:, :n].T,
                      (slice(1 + k0, 1 + k1), slice(1, self.I)), n) for k0, k1, n in self.blocks)

    @cached_property
    def offending_factor_rows(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The rows of T_x and of S_y that hold an off-diagonal entry (towards interior
        and boundary nodes alike) above _MONOTONE_TOL: the sign test of Varga's
        M-matrix conditions, read from the two factors.

        Every scaled row sums to zero, so a row whose off-diagonal entries are <= 0
        has diagonal sum |off-diagonal| > 0: it is weakly diagonally dominant, and
        strictly so where its stencil reaches the boundary.  Node row (i, k) is T_x's
        row i-1 plus S_y's row k-1, so it offends exactly when i-1 is in the first
        tuple or k-1 in the second, and A has M-structure exactly when both are empty.
        """
        return tuple(tuple(np.unique(F.row[(F.col != F.row + 1) & (F.data > _MONOTONE_TOL)]).tolist())
                     for F in (self.T_x.tocoo(), self.S_y.tocoo()))

    @property
    def solve_bytes(self) -> int:
        """Bytes a solve into a new node array holds beyond the operator and its trace: P and
        a row block's G c and product (or L's product) on the L path; P, R, T_x's product and
        scipy's C-ordered copy of P[1:K].T on the factor path; each at most a node array, and
        8 trace-length vectors."""
        return 8 * (self.K + 1) * (self.I + 1) * (3 if self.L is not None else 4) + 64 * (self.I + 1)

    @property
    def A(self) -> sparse.csr_matrix:
        """I (x) T_x,int + S_y,int (x) I from the factors, for dump_matrix and tests."""
        return sparse.kronsum(self.T_x[:, 1:self.I], self.S_y[:, 1:self.K], format="csr")

    def condition_estimate(self) -> float:
        """kappa_1(V) = ||V||_1 * ||V^-1||_1 >= 1 of the x-mode basis: the factor by
        which a solve's change to x-modes and back can amplify rounding."""
        return float(np.linalg.norm(self.V, 1) * np.linalg.norm(self.V_inv, 1))


def _build_bytes(I: int, K: int, c: int, reach: tuple[int, int]) -> int:
    """An upper bound on the bytes _build holds at once, for S_y's reach (l, u).

    n = I-1 x-modes, m = K-1 y-nodes, l and u S_y's band widths.  The band solve
    holds V (n^2 floats) and per mode and y-node the tiled band (l+u+1), the rhs
    and LAPACK's copy (or the solution and G); gtsv (l = u = 1) works in place,
    gbsv adds a (2l+u+1)-row band, its Fortran copy and the pivots.  Later: the
    basis (c = 2: n^2; c >= 3: 3n^2, eig's or inv's arrays), G, _staircase's
    tail sums and mask, and L's five node-length diagonals and n*m main sums.
    64 KiB and 512 bytes per x- and y-node cover the rest."""
    (l, u), n, m = reach, I - 1, K - 1
    gbsv = 0 if l == u == 1 else 16 * (2 * l + u + 1) + 4   # per n*m: band, its copy, pivots
    L = 0 if gbsv else 5 * (I + 1) * (K + 1) + n * m       # both factors are tridiagonal
    solve = 8 * n * n + (8 * (l + u + 3) + gbsv) * n * m
    after = 8 * ((1 if c == 2 else 3) * n * n + 2 * n * m + L) + n * m
    return max(solve, after) + 2**16 + 512 * (n + m)


def _physical_memory() -> float:
    """Bytes of physical memory, or inf where the OS does not report them."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return float("inf")


def _address_space_limit() -> float:
    """The soft RLIMIT_AS in bytes, or inf where it is unlimited or not reported."""
    try:
        import resource
        soft = resource.getrlimit(resource.RLIMIT_AS)[0]
    except (ImportError, OSError):
        return float("inf")
    return float("inf") if soft == resource.RLIM_INFINITY else soft


def _cgroup_memory_limit() -> float:
    """The lowest memory limit in bytes over this process's cgroups and all their
    ancestors: v2 memory.max under _CGROUP_ROOT or its unified/ tree (hybrid
    hosts), v1 memory.limit_in_bytes under its memory/ tree; inf if none is read."""
    try:
        with open("/proc/self/cgroup", encoding="utf-8") as fh:
            groups = [line.rstrip("\n").split(":", 2) for line in fh]
    except OSError:
        return float("inf")
    files = []
    for _, controllers, path in (g for g in groups if len(g) == 3):
        names = (["/memory%s/memory.limit_in_bytes"] if "memory" in controllers.split(",")
                 else [] if controllers else ["%s/memory.max", "/unified%s/memory.max"])
        path = path.rstrip("/")
        for group in [path[:i] for i, ch in enumerate(path) if ch == "/"] + [path]:
            files += [_CGROUP_ROOT + name % group for name in names]
    limit = float("inf")
    for name in files:
        try:
            with open(name, encoding="utf-8") as fh:
                text = fh.read().strip()
            limit = min(limit, float("inf") if text == "max" else int(text))
        except (OSError, ValueError):
            pass
    return limit


def check_memory(need: int, what: str) -> None:
    """Raise ConfigError(f"{what} {need} bytes, more than the {budget} bytes of {source}")
    if need exceeds the least of physical memory, the soft RLIMIT_AS and the cgroup's
    limit.  A need <= 1 MiB, below any budget, returns before any limit is read."""
    if need > 2**20:
        have, source = min((_physical_memory(), "physical memory"),
                           (_address_space_limit(), "the soft RLIMIT_AS"),
                           (_cgroup_memory_limit(), "the cgroup's memory.max"))
        if need > have:
            raise ConfigError(f"{what} {need} bytes, more than the {have} bytes of {source}")


def _build(I: int, K: int, sigma: float, c: int, d: int | None) -> ExtensionOperator:
    """The operator for (I, K, sigma, c, d), every array read-only; its nbytes counts
    each distinct buffer once (for c = 2, V and V^-1 share one).

    The scaled row at (i, k) is -(x weights at i) - (y weights at k): T_x holds
    the x second-derivative rows, S_y the y second-derivative plus (1-sigma)/k
    first-derivative rows.  No interior matrix is formed: check_stencil refuses the
    key, then check_memory a mesh over the budget, before any of it is allocated.
    """
    families, x_reach, y_reach = check_stencil(sigma, c, d, I, K)
    check_memory(_build_bytes(I, K, c, y_reach),
                 f"mesh I={I}, K={K} too large: its operator needs up to")
    T_x, S_y = -_factor((2, c), I), -_factor((2, c), K)
    for family in families[1:]:             # the drift's (1, d)
        S_y = S_y - sparse.diags((1.0 - sigma) / np.arange(1, K)) @ _factor(family, K)
    s = -S_y[:, 0].toarray().ravel()        # the trace reaches the interior only through it
    try:
        V, V_inv, G = _x_modes(c, T_x[:, 1:I], S_y[:, 1:K], y_reach, s)
    except linalg.LinAlgError as e:
        raise SolverError(f"x-mode setup failed for (c={c}, d={d}, sigma={sigma}): {e}") from e
    except MemoryError as e:
        raise ConfigError(f"mesh I={I}, K={K} too large: x-mode setup cannot be allocated") from e
    L = _five_diagonals(T_x, S_y) if x_reach == y_reach == (1, 1) else None
    arrays = [V, V_inv, G, s] + ([] if L is None else [L.data, L.offsets])
    for M in (T_x, S_y):
        M.sum_duplicates()          # canonical: scipy never re-sorts a frozen matrix in place
        arrays += [M.data, M.indices, M.indptr]
    for a in arrays:
        a.setflags(write=False)
    buffers = {id(b): b.nbytes for b in (a if a.base is None else a.base for a in arrays)}
    return ExtensionOperator(I=I, K=K, sigma=sigma, c=c, d=d, T_x=T_x, S_y=S_y, V=V,
                             V_inv=V_inv, G=G, s=s, blocks=_staircase(V, V_inv, G), L=L,
                             nbytes=sum(buffers.values()))


def assemble(grid: Grid, sigma: float, c: int = 2, d: int | None = 1) -> ExtensionOperator:
    """The operator for grid's I and K, sigma and the stencil pair (c, d).

    It depends on nothing else: one frozen operator is built per (I, K, sigma, c, d),
    and every caller gets that same object.  An LRU keeps operators while their
    nbytes total at most _CACHE_BYTES = 64 MiB; a larger one is returned but not kept.
    Only _build checks a key, so a cache hit is a lookup: a refused key is never kept.
    """
    key = (grid.I, grid.K, check_sigma(sigma), c, d)
    op = _cache.pop(key, None) or _build(*key)
    if op.nbytes <= _CACHE_BYTES:
        _cache[key] = op                    # (re)inserted as the most recently used
        while sum(o.nbytes for o in _cache.values()) > _CACHE_BYTES:
            _cache.popitem(last=False)
    return op


def _residual(op: ExtensionOperator, P: np.ndarray) -> float:
    """max over the interior nodes of |A w - outer(s, trace)| for the node array P:
    one product with op.L over all nodes (zero rows at the boundary), or, where
    op.L is None, S_y over P's columns plus T_x over its rows."""
    if op.L is not None:
        R = op.L @ P.ravel()
    else:
        I, K = op.I, op.K
        R = op.S_y @ P[:, 1:I]
        np.add(R, (op.T_x @ P[1:K].T).T, out=R)
    return float(np.abs(R, out=R).max())


def solve_interior(op: ExtensionOperator, trace_row: np.ndarray,
                   P: np.ndarray | None = None) -> np.ndarray:
    """The height-major (K+1) x (I+1) node array P[k, i] for the trace data trace_row
    and homogeneous lateral/top data: trace_row at k = 0, the solve inside, 0 elsewhere.

    P, if given, is filled in place and returned: only its trace row and interior
    are written, so its lateral and top boundary must already be 0, as in any
    array solve_interior returned.  The mode profiles scaled by c = V^-1 trace and
    mapped back through V fill P's interior, each row block from its own leading
    modes (op.block_products); the residual of the whole interior, one product
    with op.L or else one with each 1-D factor, catches a non-finite or
    inaccurate solve (SolverError), so a P returned is finite.
    """
    I, K = op.I, op.K
    if trace_row.shape != (I - 1,):
        raise ValueError(f"trace_row must have length I-1 = {I - 1}, got {trace_row.shape}")
    hi, lo = float(trace_row.max()), float(trace_row.min())
    if not (-np.inf < lo and hi < np.inf):      # a NaN fails both
        raise ValueError("boundary data must be finite")
    # P's interior W solves W T_x,int^T + S_y,int W = outer(s, trace), one
    # y-system per column of W V^-T
    if P is None:
        P = np.zeros((K + 1, I + 1))
    P[0, 1:I] = trace_row
    c = op.V_inv @ trace_row
    for G, V_T, rows, n in op.block_products:
        np.matmul(G * c[:n], V_T, out=P[rows])
    # ||outer(s, trace)||_inf = max|s| max|t| exactly: rounding is monotone
    norm_rhs = op.s_max * max(hi, -lo)
    resid = _residual(op, P)
    if not resid < 1e-10 * max(norm_rhs, 1e-300):     # fails for inf < inf and for NaN
        raise SolverError(
            f"solve residual {resid:.3e} exceeds 1e-10 * ||rhs||_inf = {1e-10 * norm_rhs:.3e}; "
            f"x-mode basis condition estimate {op.condition_estimate():.3e}")
    return P


def full_grid_values(P: np.ndarray) -> np.ndarray:
    """The march's snapshot of the height-major node array P[k, i]: a read-only [i, k]
    copy, P.T in P's memory order, that shares no memory with P."""
    vals = np.array(P.T)
    vals.setflags(write=False)
    return vals


def discrete_max_location(values: np.ndarray) -> tuple[int, int]:
    """Argmax node (i, k) of the node array values[i, k]; ties by smallest k, then i."""
    vals = np.asarray(values, dtype=float)
    k, i = divmod(int(np.argmax(vals.T)), vals.shape[0])
    return i, k


def dump_matrix(op: ExtensionOperator, path) -> None:
    """Write A as `row col value` triplets, 0-based, row-major: its canonical CSR's order."""
    A = op.A
    rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for r, c, v in zip(rows.tolist(), A.indices.tolist(), A.data.tolist()):
            fh.write(f"{r} {c} {v:.17e}\n")
