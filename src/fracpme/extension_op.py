"""Assembly and solution of the discrete weighted elliptic extension problem.

Interior nodes satisfy L v = y^(1-sigma) Lap_c v + (1-sigma) y^(-sigma) Dy_d v = 0
with Dirichlet data on the trace row k = 0 and the lateral/top boundary.  Rows
are assembled in a scaled form: multiplying the raw finite-difference row at
height y_k = k*dx by dx^(1+sigma) * k^(sigma-1) and flipping its sign leaves
coefficients that depend only on k and sigma, with an O(1) positive diagonal.
That scaling keeps the matrix well conditioned across sigma and is exactly the
manipulation under which the low-order scheme exhibits its M-structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as spla

from .core import Grid, _check_sigma
from .errors import SolverError, UnsupportedStencilError

__all__ = [
    "SUPPORTED_PAIRS", "fd_weights", "ExtensionOperator",
    "assemble", "solve_interior", "full_grid_values", "MonotoneReport",
    "verify_monotone_structure", "discrete_max_location", "apply_operator",
    "dump_matrix",
]

SUPPORTED_PAIRS = frozenset({(2, 1), (2, 2), (2, 3), (3, 3), (3, 4), (4, 4)})

# smallest step counts a stencil family needs (one-sided windows included)
_MIN_N_SECOND = {2: 2, 3: 4, 4: 5}
_MIN_K_FIRST = {1: 2, 2: 2, 3: 3, 4: 4}


def fd_weights(offsets: Sequence[float], deriv: int) -> np.ndarray:
    """Finite-difference weights for d^deriv/ds^deriv at 0 on the given offsets.

    Fornberg's recurrence; exact (up to rounding) for any distinct offsets.
    """
    x = np.asarray(offsets, dtype=float)
    n = len(x)
    if deriv < 0 or n <= deriv:
        raise ValueError("need more stencil points than the derivative order")
    c = np.zeros((n, deriv + 1))
    c[0, 0] = 1.0
    c1 = 1.0
    c4 = x[0]
    for i in range(1, n):
        mn = min(i, deriv)
        c2 = 1.0
        c5 = c4
        c4 = x[i]
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, deriv].copy()


def _second_deriv_offsets(idx: int, n: int, c: int) -> tuple[int, ...]:
    """Offsets for the order-c second derivative at index idx on nodes 0..n.

    Centered stencils where they fit; one-sided windows of the same formal
    order next to the boundary (the 5-point one-sided window is order 3, the
    6-point one order 4; the centered 5-point is order 4 by symmetry).
    """
    if c == 2:
        return (-1, 0, 1)
    if c == 3:
        if 2 <= idx <= n - 2:
            return (-2, -1, 0, 1, 2)
        return (-1, 0, 1, 2, 3) if idx == 1 else (-3, -2, -1, 0, 1)
    if c == 4:
        if 2 <= idx <= n - 2:
            return (-2, -1, 0, 1, 2)
        return (-1, 0, 1, 2, 3, 4) if idx == 1 else (-4, -3, -2, -1, 0, 1)
    raise UnsupportedStencilError(f"second-derivative order c={c} not supported")


def _first_deriv_offsets(k: int, K: int, d: int) -> tuple[int, ...]:
    """Offsets for the order-d first derivative in y at row k (1 <= k <= K-1)."""
    if d == 1:
        return (0, 1)
    if d == 2:
        return (-1, 0, 1)
    if d == 3:
        return (-1, 0, 1, 2) if k <= K - 2 else (-2, -1, 0, 1)
    if d == 4:
        if 2 <= k <= K - 2:
            return (-2, -1, 0, 1, 2)
        return (-1, 0, 1, 2, 3) if k == 1 else (-3, -2, -1, 0, 1)
    raise UnsupportedStencilError(f"first-derivative order d={d} not supported")


def _check_pair(sigma: float, c: int, d: int | None, I: int, K: int) -> None:
    if d is None:
        if sigma != 1.0:
            raise UnsupportedStencilError("d may be omitted only at sigma = 1")
        if c not in _MIN_N_SECOND:
            raise UnsupportedStencilError(f"Laplacian order c={c} not supported")
    elif (c, d) not in SUPPORTED_PAIRS:
        raise UnsupportedStencilError(
            f"(c, d) = ({c}, {d}) not in the supported set {sorted(SUPPORTED_PAIRS)}")
    min_i = _MIN_N_SECOND[c]
    min_k = _MIN_N_SECOND[c] if d is None else max(_MIN_N_SECOND[c], _MIN_K_FIRST[d])
    if I < min_i or K < min_k:
        raise UnsupportedStencilError(
            f"mesh too small for (c={c}, d={d}): need I >= {min_i} and K >= {min_k}, "
            f"got I={I}, K={K}")


def _factor(offsets: list[tuple[int, ...]], deriv: int, n: int) -> sparse.csr_matrix:
    """(n-1) x (n+1) matrix whose row j-1 holds the d^deriv weights at node j of 0..n.

    offsets[j-1] is the stencil window at node j; weights are computed once
    per distinct window.
    """
    weights = {o: fd_weights(o, deriv) for o in set(offsets)}
    cols = np.concatenate([np.add(j, o) for j, o in enumerate(offsets, start=1)])
    if cols.min() < 0 or cols.max() > n:
        raise SolverError(f"stencil leaves the mesh 0..{n}")
    rows = np.repeat(np.arange(n - 1), [len(o) for o in offsets])
    vals = np.concatenate([weights[o] for o in offsets])
    return sparse.csr_matrix((vals, (rows, cols)), shape=(n - 1, n + 1))


@dataclass
class ExtensionOperator:
    """Assembled interior system A w = -B b with a reusable factorization.

    Interior unknowns are ordered by (k, i); the boundary vector b enumerates
    all non-interior nodes sorted by (k, i).  B holds the stencil couplings to
    boundary nodes with the same sign convention as A, so the right-hand side
    for boundary data b is -B @ b.  interior_mask, shape (K+1, I+1) and
    indexed [k, i], is True at interior nodes: its row-major order is the
    column order of [A | B] before the split.
    """
    grid: Grid
    sigma: float
    c: int
    d: int | None
    A: sparse.csr_matrix
    boundary_coupling: sparse.csr_matrix
    interior_mask: np.ndarray
    _lu: object = field(repr=False, default=None)

    def condition_estimate(self) -> float:
        """1-norm condition estimate ||A||_1 * ||A^-1||_1 (uses the factorization)."""
        n = self.A.shape[0]
        inv = spla.LinearOperator((n, n), matvec=self._lu.solve,
                                  rmatvec=lambda v: self._lu.solve(v, trans="T"))
        return spla.onenormest(self.A) * spla.onenormest(inv)


def assemble(grid: Grid, sigma: float, c: int = 2, d: int | None = 1) -> ExtensionOperator:
    """Build and factorize the interior operator for a fixed grid and sigma.

    The scaled row at (i, k) is -(x weights at i) - (y weights at k), so over
    all nodes in (k, i) order the operator is the Kronecker sum
    L = E_y (x) T_x + S_y (x) E_x, where E restricts to interior indices,
    T_x holds the x second-derivative rows and S_y the y second-derivative
    plus (1-sigma)/k first-derivative rows.
    """
    sigma = _check_sigma(sigma)
    I, K = grid.I, grid.K
    _check_pair(sigma, c, d, I, K)

    T_x = -_factor([_second_deriv_offsets(i, I, c) for i in range(1, I)], 2, I)
    S_y = -_factor([_second_deriv_offsets(k, K, c) for k in range(1, K)], 2, K)
    if d is not None and sigma != 1.0:
        drift = sparse.diags((1.0 - sigma) / np.arange(1, K))
        S_y = S_y - drift @ _factor([_first_deriv_offsets(k, K, d) for k in range(1, K)], 1, K)
    L = (sparse.kron(sparse.eye(K - 1, K + 1, k=1), T_x, format="csr")
         + sparse.kron(S_y, sparse.eye(I - 1, I + 1, k=1), format="csr"))

    mask = np.zeros((K + 1, I + 1), dtype=bool)
    mask[1:K, 1:I] = True
    mask.setflags(write=False)
    inner = mask.ravel()
    A = L[:, inner]
    B = L[:, ~inner]
    A.eliminate_zeros()
    B.eliminate_zeros()
    op = ExtensionOperator(grid=grid, sigma=sigma, c=c, d=d, A=A,
                           boundary_coupling=B, interior_mask=mask)
    try:
        # COLAMD keeps fill low; the factorization is reused for every rhs
        lu = spla.splu(A.tocsc(), permc_spec="COLAMD")
    except RuntimeError as e:
        raise SolverError(f"factorization failed for (c={c}, d={d}, sigma={sigma}): {e}") from e
    op._lu = lu
    return op


def _boundary_vector(op: ExtensionOperator, trace_row: np.ndarray,
                     lateral: np.ndarray | None) -> np.ndarray:
    """Dirichlet data at the non-interior nodes in (k, i) order: the column order of B.

    The trace nodes (0, 1..I-1) sit between the corner (0, 0) and the rest of
    the lateral data, so the vector is lateral[:1], trace_row, lateral[1:].
    """
    I, K = op.grid.I, op.grid.K
    trace_row = np.asarray(trace_row, dtype=float)
    if trace_row.shape != (I - 1,):
        raise ValueError(f"trace_row must have length I-1 = {I - 1}, got {trace_row.shape}")
    n_lat = 2 * (K + 1) + (I - 1)
    if lateral is None:
        lateral = np.zeros(n_lat)
    else:
        lateral = np.asarray(lateral, dtype=float)
        if lateral.shape != (n_lat,):
            raise ValueError(f"lateral must have length {n_lat}, got {lateral.shape}")
    if not (np.isfinite(trace_row).all() and np.isfinite(lateral).all()):
        raise ValueError("boundary data must be finite")
    return np.concatenate([lateral[:1], trace_row, lateral[1:]])


def solve_interior(op: ExtensionOperator, trace_row: np.ndarray,
                   lateral: np.ndarray | None = None) -> np.ndarray:
    """Interior values, shape (I-1, K-1) indexed [i-1, k-1], for given Dirichlet data.

    lateral enumerates the non-trace boundary nodes in (k, i) order; None
    means homogeneous (the bounded-domain scheme).  The cached factorization
    is reused; the solution is residual-checked.
    """
    rhs = -op.boundary_coupling.dot(_boundary_vector(op, trace_row, lateral))
    w = op._lu.solve(rhs)
    norm_rhs = float(np.abs(rhs).max()) if rhs.size else 0.0
    resid = float(np.abs(op.A.dot(w) - rhs).max()) if rhs.size else 0.0
    if resid > 1e-10 * max(norm_rhs, 1e-300):
        raise SolverError(
            f"solve residual {resid:.3e} exceeds 1e-10 * ||rhs||_inf = {1e-10 * norm_rhs:.3e}; "
            f"condition estimate {op.condition_estimate():.3e}")
    I, K = op.grid.I, op.grid.K
    return w.reshape(K - 1, I - 1).T


def full_grid_values(op: ExtensionOperator, trace_row: np.ndarray,
                     interior: np.ndarray, lateral: np.ndarray | None = None) -> np.ndarray:
    """Assemble the (I+1) x (K+1) node array from its boundary and interior parts."""
    I, K = op.grid.I, op.grid.K
    vals = np.empty((I + 1, K + 1))
    vals.T[~op.interior_mask] = _boundary_vector(op, trace_row, lateral)
    vals[1:-1, 1:-1] = interior
    return vals


@dataclass(frozen=True)
class MonotoneReport:
    is_m_structure: bool
    offending_rows: tuple[int, ...]


def verify_monotone_structure(op: ExtensionOperator, tol: float = 1e-12) -> MonotoneReport:
    """Check the sign/dominance pattern sufficient for the discrete maximum principle.

    Requires positive diagonal, nonpositive off-diagonal entries (in A and in
    the boundary coupling), weak diagonal dominance everywhere, and strict
    dominance in rows coupled to the boundary.  Diagnostic only; offenders
    are reported, never raised.
    """
    A = op.A.tocoo()
    B = op.boundary_coupling.tocoo()
    n = A.shape[0]
    diag = op.A.diagonal()
    off = A.row != A.col
    off_sum = np.bincount(A.row[off], weights=np.abs(A.data[off]), minlength=n)
    b_sum = np.bincount(B.row, weights=np.abs(B.data), minlength=n)
    # largest stored off-diagonal entry of each row of A and of B
    off_max = np.full(n, -np.inf)
    np.maximum.at(off_max, A.row[off], A.data[off])
    np.maximum.at(off_max, B.row, B.data)
    scale = np.maximum(np.abs(diag), 1.0)
    bad = ((off_max > tol) | (diag <= tol * scale)
           # weak dominance always; strict when part of the stencil hit the boundary
           | (diag < off_sum - tol * scale)
           | ((b_sum > tol * scale) & (diag <= off_sum + tol * scale)))
    offenders = tuple(int(r) for r in np.flatnonzero(bad))
    return MonotoneReport(is_m_structure=not offenders, offending_rows=offenders)


def discrete_max_location(values) -> tuple[int, int]:
    """Argmax node (i, k); ties broken by smallest k, then smallest i."""
    vals = np.asarray(getattr(values, "values", values), dtype=float)
    k, i = divmod(int(np.argmax(vals.T)), vals.shape[0])
    return i, k


def apply_operator(values: np.ndarray, dx: float, sigma: float,
                   c: int = 2, d: int | None = 1) -> np.ndarray:
    """Matrix-free pointwise application of the unscaled operator at interior nodes.

    Returns L v with physical units on the (I-1) x (K-1) interior block; meant
    for truncation-error studies against analytically sampled fields, not for
    production solves.
    """
    sigma = _check_sigma(sigma)
    vals = np.asarray(values, dtype=float)
    I = vals.shape[0] - 1
    K = vals.shape[1] - 1
    _check_pair(sigma, c, d, I, K)
    out = np.empty((I - 1, K - 1))
    inv_dx2 = 1.0 / (dx * dx)
    for k in range(1, K):
        y = k * dx
        yo = _second_deriv_offsets(k, K, c)
        wy = fd_weights(yo, 2)
        if d is not None and sigma != 1.0:
            fo = _first_deriv_offsets(k, K, d)
            wf = fd_weights(fo, 1)
        for i in range(1, I):
            xo = _second_deriv_offsets(i, I, c)
            wx = fd_weights(xo, 2)
            lap = (sum(w * vals[i + o, k] for o, w in zip(xo, wx))
                   + sum(w * vals[i, k + o] for o, w in zip(yo, wy))) * inv_dx2
            res = y ** (1.0 - sigma) * lap
            if d is not None and sigma != 1.0:
                dy = sum(w * vals[i, k + o] for o, w in zip(fo, wf)) / dx
                res += (1.0 - sigma) * y ** (-sigma) * dy
            out[i - 1, k - 1] = res
    return out


def dump_matrix(op: ExtensionOperator, path) -> None:
    """Write A as `row col value` triplets, 0-based, sorted row-major."""
    coo = op.A.tocoo()
    order = np.lexsort((coo.col, coo.row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for idx in order:
            fh.write(f"{coo.row[idx]} {coo.col[idx]} {coo.data[idx]:.17e}\n")
