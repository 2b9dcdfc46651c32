"""Assembly, solves, monotone structure, and truncation order of the
discrete weighted elliptic operator.

Independent checks used here:
  * finite-difference weights against textbook tables and polynomial
    exactness (a degree-(n-1) polynomial must be differentiated exactly);
  * the assembled sparse system against a dense, separately coded assembly
    of the same equations (different node ordering, no scaling tricks);
  * the x-mode solve against scipy's sparse direct solve of the assembled A;
    that direct solve also carries the checks with nonzero lateral data,
    which the solver itself never takes: lateral and top data enter through
    the boundary columns of the operator's 1-D factors T_x and S_y;
  * the mode staircase's dropped tails against sums recomputed from G, and
    its solve against the full product (G o V^-1 t) V^T of the same parts;
  * the operator's offending factor rows, expanded to node rows, against a
    dense scan of the full-node operator built from the matrix-free application;
  * the assembled rows against the matrix-free pointwise application via the
    known row scaling, and that application against a node-by-node loop;
  * measured truncation order on a smooth product field against the formal
    order formula;
  * a cached operator against a fresh build of the same key.
"""

import dataclasses
from fractions import Fraction
import math
import resource
import shutil
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import linalg, sparse
from scipy.sparse.linalg import spsolve

from fracpme import extension_op
from fracpme.core import (STENCIL_WINDOWS, SUPPORTED_PAIRS, Grid, SolverConfig,
                          effective_order, initial_data_preset, stencil_families, stencil_reach)
from fracpme.errors import ConfigError, SolverError, UnsupportedStencilError
from fracpme.extension_op import (
    _MONOTONE_TOL,
    _build,
    _cache,
    ExtensionOperator,
    _x_modes,
    assemble,
    discrete_max_location,
    dump_matrix,
    fd_weights,
    full_grid_values,
    solve_interior,
)
from fracpme.marcher import march
from fracpme.oracles import dense_extension_solve
from pointwise import apply_operator, window


_LAPLACIAN_ORDERS = sorted(c for deriv, c in STENCIL_WINDOWS if deriv == 2)


def _min_mesh(sigma, c, d):
    # the smallest accepted mesh (I, K): the fewest steps T_x's and S_y's windows need
    families = stencil_families(sigma, c, d)
    return stencil_reach(families[:1])[1], stencil_reach(families)[1]


def _y_reach(sigma, c, d):
    # S_y's (lower, upper) reach, the band widths _build solves with
    return stencil_reach(stencil_families(sigma, c, d))[0]


def make_grid(I=8, K=4, dx=0.25):
    return Grid(X=I * dx / 2.0, Y=K * dx, I=I, K=K)


def _boundary_part(op, vals):
    # the scaled operator applied to the node field vals, shape (I+1, K+1),
    # with its interior zeroed: the boundary contribution, in (k, i) row order,
    # taken from the boundary columns of the factors T_x and S_y
    I, K = op.I, op.K
    edge = np.array(vals, dtype=float)
    edge[1:I, 1:K] = 0.0
    return (edge.T[1:K] @ op.T_x.T + op.S_y @ edge.T[:, 1:I]).ravel()


# ---------------------------------------------------------------------------
# finite-difference weights


@pytest.mark.parametrize("offsets,deriv,want", [
    ((-1, 0, 1), 2, (1.0, -2.0, 1.0)),
    ((-1, 0, 1), 1, (-0.5, 0.0, 0.5)),
    ((0, 1), 1, (-1.0, 1.0)),
    ((0, 1, 2), 1, (-1.5, 2.0, -0.5)),
    ((-2, -1, 0, 1, 2), 2, (-1 / 12, 4 / 3, -5 / 2, 4 / 3, -1 / 12)),
    ((-2, -1, 0, 1, 2), 1, (1 / 12, -2 / 3, 0.0, 2 / 3, -1 / 12)),
    ((-1, 0, 1, 2), 1, (-1 / 3, -1 / 2, 1.0, -1 / 6)),
])
def test_fd_weights_textbook_rows(offsets, deriv, want):
    assert fd_weights(offsets, deriv) == pytest.approx(np.array(want), abs=1e-13)


@given(st.data())
def test_fd_weights_differentiate_polynomials_exactly(data):
    offs = data.draw(st.lists(st.integers(-5, 5), min_size=3, max_size=6, unique=True))
    deriv = data.draw(st.integers(1, 2))
    coeffs = data.draw(st.lists(st.floats(-3, 3), min_size=len(offs), max_size=len(offs)))
    poly = np.polynomial.Polynomial(coeffs)
    w = fd_weights(offs, deriv)
    approx = sum(wi * poly(o) for wi, o in zip(w, offs))
    exact = poly.deriv(deriv)(0.0)
    assert approx == pytest.approx(exact, rel=1e-9, abs=1e-9)


def test_fd_weights_needs_enough_points():
    with pytest.raises(ValueError):
        fd_weights((0, 1), 2)
    for offsets, deriv in (((0, 0, 1), 1), ((0, 1, 1, 2), 2), ((-1, 0, 1, 2, 0), 1)):
        with pytest.raises(ValueError, match="distinct"):
            fd_weights(offsets, deriv)


def _exact_weights(offsets, deriv):
    """The weights as exact rationals: the unique solution of the moment conditions
    sum_j w_j x_j^p = deriv! [p == deriv], p < n, by Gauss-Jordan over Fractions."""
    n = len(offsets)
    rows = [[Fraction(x) ** p for x in offsets] + [Fraction(math.factorial(deriv) * (p == deriv))]
            for p in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(n):
            if r != col:
                f = rows[r][col] / rows[col][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return [rows[j][n] / rows[j][j] for j in range(n)]


_WINDOWS = sorted({(window, family[0]) for family, windows in STENCIL_WINDOWS.items()
                   for window in windows})


@pytest.mark.parametrize("offsets,deriv", _WINDOWS,
                         ids=[f"d{d}:{','.join(map(str, o))}" for o, d in _WINDOWS])
def test_fd_weights_are_the_exact_rationals_rounded_once(offsets, deriv):
    # bit for bit, signed zeros included (float.hex keeps the sign of 0)
    got = [float(w) for w in fd_weights(offsets, deriv)]
    assert [w.hex() for w in got] == [float(w).hex() for w in _exact_weights(offsets, deriv)]
    if sorted(-o for o in offsets) == sorted(offsets):
        # a window symmetric about 0: weights even (deriv 2) or odd (deriv 1) in the offset
        assert [w.hex() for w in got] == [((-1) ** deriv * w + 0.0).hex() for w in got[::-1]]


# ---------------------------------------------------------------------------
# assembly: constants are annihilated, matrix-free application agrees


@pytest.mark.parametrize("c,d", sorted(SUPPORTED_PAIRS))
@pytest.mark.parametrize("sigma", [0.5, 1.0, 1.5])
def test_row_sums_vanish_on_constants(c, d, sigma):
    # the full-node operator applied to the all-ones field must vanish: it has
    # no zeroth-order term, so constants are in its kernel for every stencil
    op = assemble(make_grid(I=10, K=6), sigma, c=c, d=d)
    total = np.asarray(op.A.sum(axis=1)).ravel() + _boundary_part(op, np.ones((11, 7)))
    assert np.abs(total).max() < 1e-10


@pytest.mark.parametrize("c,d", [(2, 1), (2, 3), (3, 4), (4, 4)])
def test_apply_operator_annihilates_constants(c, d):
    vals = np.full((11, 7), 3.7)
    out = apply_operator(vals, dx=0.25, sigma=0.75, c=c, d=d)
    assert np.abs(out).max() < 1e-12


# every supported pair at three sigmas, plus the pure Laplacian at sigma = 1
_ROW_CASES = ([(c, d, sigma) for c, d in sorted(SUPPORTED_PAIRS) for sigma in (0.4, 1.0, 1.6)]
              + [(c, None, 1.0) for c in _LAPLACIAN_ORDERS])


@pytest.mark.parametrize("c,d,sigma", _ROW_CASES)
def test_assembled_rows_match_pointwise_application(c, d, sigma):
    # scaled row n = (k-1)(I-1)+(i-1) of the full-node operator equals
    # -dx^(1+sigma) k^(sigma-1) times the physical operator at node (i, k);
    # the smallest accepted mesh is where the one-sided windows of both
    # sides meet (and, for c > 2, cover every node of a row)
    I_min, K_min = _min_mesh(sigma, c, d)
    for grid in (make_grid(I=9, K=5, dx=0.2), make_grid(I=I_min, K=K_min, dx=0.2)):
        op = assemble(grid, sigma, c=c, d=d)
        rng = np.random.default_rng(20240814)
        vals = rng.random((grid.I + 1, grid.K + 1))
        w = vals[1:-1, 1:-1].T.ravel()
        scaled = op.A.dot(w) + _boundary_part(op, vals)
        physical = apply_operator(vals, grid.dx, sigma, c=c, d=d)
        for k in range(1, grid.K):
            factor = -grid.dx ** (1.0 + sigma) * k ** (sigma - 1.0)
            row = scaled[(k - 1) * (grid.I - 1):(k) * (grid.I - 1)]
            assert row == pytest.approx(factor * physical[:, k - 1], rel=1e-10, abs=1e-12)


# ---------------------------------------------------------------------------
# exact solutions


def _direct_solve(op, vals):
    # scipy's sparse direct solve of the interior system for the Dirichlet data
    # on the boundary nodes of vals, shape (I+1, K+1), as an (I-1, K-1) array
    # indexed [i-1, k-1]
    w = spsolve(op.A.tocsc(), -_boundary_part(op, vals))
    return w.reshape(op.K - 1, op.I - 1).T


def test_linear_in_x_is_reproduced_exactly():
    # v(x, y) = x kills both terms of the operator, so the discrete solve with
    # matching boundary data (lateral and top included) must return it to
    # solver precision
    grid = make_grid(I=8, K=4)
    for sigma, c, d in ((0.5, 2, 1), (1.0, 2, None), (1.5, 2, 3)):
        op = assemble(grid, sigma, c=c, d=d)
        vals = np.broadcast_to(grid.xs[:, None], (grid.I + 1, grid.K + 1))
        want = np.tile(grid.xs[1:-1][:, None], (1, grid.K - 1))
        assert _direct_solve(op, vals) == pytest.approx(want, abs=1e-11)


def test_zero_data_gives_zero_solution():
    op = assemble(make_grid(), 0.7)
    assert np.all(solve_interior(op, np.zeros(7)) == 0.0)


# ---------------------------------------------------------------------------
# dense oracle cross-check


@pytest.mark.parametrize("sigma", [0.3, 0.5, 1.0, 1.5, 1.9])
@pytest.mark.parametrize("d", [1, 2])
def test_sparse_solve_matches_dense_oracle(sigma, d):
    I, K, dx = 8, 6, 0.25
    rng = np.random.default_rng(20240817)
    trace = rng.random(I - 1)
    grid = Grid(X=I * dx / 2.0, Y=K * dx, I=I, K=K)
    op = assemble(grid, sigma, c=2, d=d)
    got = solve_interior(op, trace).T
    full = dense_extension_solve(I, K, dx, sigma, trace, c=2, d=d)
    assert got == pytest.approx(full, rel=1e-9, abs=1e-12)
    assert full[1:-1, 0] == pytest.approx(trace, rel=1e-12)


def test_sparse_solve_matches_dense_oracle_with_lateral_data():
    I, K, dx = 6, 4, 0.25
    rng = np.random.default_rng(7)
    trace = rng.random(I - 1)
    grid = Grid(X=I * dx / 2.0, Y=K * dx, I=I, K=K)
    op = assemble(grid, 0.8, c=2, d=1)
    vals = np.full((I + 1, K + 1), 0.3)
    vals[1:I, 0] = trace                    # the trace nodes (1..I-1, 0)
    got = _direct_solve(op, vals)
    full = dense_extension_solve(I, K, dx, 0.8, trace, c=2, d=1, lateral_value=0.3)
    assert got == pytest.approx(full[1:-1, 1:-1], rel=1e-9)


# every supported pair at four sigmas, plus the pure Laplacian at sigma = 1
_SOLVE_CASES = ([(c, d, sigma) for c, d in sorted(SUPPORTED_PAIRS)
                 for sigma in (0.3, 1.0, 1.5, 1.9)]
                + [(c, None, 1.0) for c in _LAPLACIAN_ORDERS])


@pytest.mark.parametrize("c,d,sigma", _SOLVE_CASES)
def test_mode_solve_matches_sparse_direct_solve(c, d, sigma):
    # the x-mode solve against scipy's sparse direct solve of the same system,
    # on the smallest accepted mesh and on one with I != K
    I_min, K_min = _min_mesh(sigma, c, d)
    rng = np.random.default_rng(20261018)
    for grid in (make_grid(I=I_min, K=K_min, dx=0.2), make_grid(I=13, K=7, dx=0.2)):
        op = assemble(grid, sigma, c=c, d=d)
        trace = rng.random(grid.I - 1)
        vals = np.zeros((grid.I + 1, grid.K + 1))
        vals[1:grid.I, 0] = trace
        P = solve_interior(op, trace)
        assert P.shape == (grid.K + 1, grid.I + 1)
        assert np.abs(P[1:-1, 1:-1].T - _direct_solve(op, vals)).max() <= 1e-12 * np.abs(trace).max()


# at sigma != 1, (2, 1) is checked through its five diagonals; (3, 4), on eig's
# basis, and (2, 3), on the closed-form sine basis, through their two factors
_RESIDUAL_PATHS = pytest.mark.parametrize("c,d", [(2, 1), (3, 4), (2, 3)])


@_RESIDUAL_PATHS
def test_residual_check_catches_corrupted_profiles(c, d):
    # a solve that no longer satisfies A w = -B b must be refused, and the
    # message must carry a usable condition estimate
    grid = make_grid(I=12, K=6, dx=0.125)
    op = assemble(grid, 0.6, c=c, d=d)
    assert (op.L is not None) == (d == 1)
    trace = np.sin(np.linspace(0, math.pi, 11))
    solve_interior(op, trace)
    op = dataclasses.replace(op, G=op.G * (1.0 + 1e-6))
    with pytest.raises(SolverError, match="condition estimate") as ei:
        solve_interior(op, trace)
    est = float(str(ei.value).rsplit("condition estimate", 1)[1])
    assert math.isfinite(est) and est >= 1.0


@_RESIDUAL_PATHS
def test_solve_into_a_reused_node_array_is_a_fresh_solve_bit_for_bit(c, d):
    # the march hands an array solve_interior returned back to the next solve: the trace
    # row and the interior are overwritten, the zero boundary is kept, and the
    # residual check still refuses a corrupted operator
    op = assemble(make_grid(I=12, K=6, dx=0.125), 0.6, c=c, d=d)
    assert (op.L is not None) == (d == 1)
    xs = np.linspace(0, math.pi, 11)
    P = extension_op.solve_interior(op, np.sin(xs))
    for trace in (np.sin(2 * xs) ** 2, np.exp(-xs), np.zeros(11)):
        want = extension_op.solve_interior(op, trace)
        assert extension_op.solve_interior(op, trace, P) is P
        assert P.tobytes() == want.tobytes()
        assert not P[:, [0, -1]].any() and not P[-1].any()
    bad = dataclasses.replace(op, G=op.G * (1.0 + 1e-6))
    with pytest.raises(SolverError, match="condition estimate"):
        extension_op.solve_interior(bad, np.sin(xs), P)


def test_residual_check_refuses_inf_where_the_rhs_norm_overflows(monkeypatch):
    # max|s| max|trace| = 1.25 * 1.7e308 overflows, and "resid <= 1e-10 ||rhs||"
    # let an infinite residual through; a P solve_interior returns must be finite
    op = assemble(make_grid(I=12, K=6), 1.5, c=2, d=2)
    trace = np.zeros(11)
    trace[5] = 1.7e308                      # one node: the solve itself stays finite
    assert op.s_max == 1.25 and op.s_max * float(trace.max()) == np.inf
    monkeypatch.setattr(extension_op, "_residual", lambda *_args: np.inf)
    with pytest.raises(SolverError, match="solve residual inf exceeds"):
        extension_op.solve_interior(op, trace)


def test_failed_solve_never_builds_the_interior_matrix():
    # the refusal's condition estimate comes from the x-mode basis the
    # operator holds, not from a factorization of A
    op = assemble(make_grid(I=12, K=6, dx=0.125), 0.6)
    op = dataclasses.replace(op, G=op.G * (1.0 + 1e-6))
    with pytest.raises(SolverError, match="condition estimate"):
        solve_interior(op, np.sin(np.linspace(0, math.pi, 11)))
    assert "A" not in vars(op)


@_RESIDUAL_PATHS
def test_residual_check_catches_a_nan_solve(c, d):
    # a NaN residual fails no "resid > tol" test; the check must refuse it too
    op = assemble(make_grid(I=12, K=6, dx=0.125), 0.6, c=c, d=d)
    assert (op.L is not None) == (d == 1)
    G = op.G.copy()
    G[0, 0] = np.nan
    op = dataclasses.replace(op, G=G)
    with pytest.raises(SolverError, match="solve residual nan"):
        solve_interior(op, np.sin(np.linspace(0, math.pi, 11)))


def _full_node_operator(op):
    # L over all (K+1)(I+1) height-major nodes from a Kronecker sum of the
    # factors padded with zero boundary rows, converted to DIA form
    I, K = op.I, op.K
    T = sparse.vstack([sparse.csr_matrix((1, I + 1)), op.T_x, sparse.csr_matrix((1, I + 1))])
    S = sparse.vstack([sparse.csr_matrix((1, K + 1)), op.S_y, sparse.csr_matrix((1, K + 1))])
    inner_x = sparse.diags(np.r_[0.0, np.ones(I - 1), 0.0])
    inner_y = sparse.diags(np.r_[0.0, np.ones(K - 1), 0.0])
    return (sparse.kron(inner_y, T) + sparse.kron(S, inner_x)).todia()


_ALL_PAIRS = [(c, d, s) for c, d in sorted(SUPPORTED_PAIRS) for s in (0.3, 1.0, 1.7)] + [
    (c, None, 1.0) for c in _LAPLACIAN_ORDERS]


@pytest.mark.parametrize("c,d,sigma", _ALL_PAIRS)
@pytest.mark.parametrize("I,K", [(12, 6), (64, 32)])
def test_residual_paths_agree(c, d, sigma, I, K):
    # the five-diagonal product and the two-factor product are two roundings of
    # one residual; an operator's own L must equal the Kronecker-built one exactly
    op = assemble(make_grid(I=I, K=K), sigma, c=c, d=d)
    L = _full_node_operator(op)
    if op.L is not None:
        assert abs(op.L.tocsr() - L.tocsr()).max() == 0.0
    diagonal, factors = dataclasses.replace(op, L=L), dataclasses.replace(op, L=None)
    rng = np.random.default_rng([I, c, d or 0, int(10 * sigma)])
    for _ in range(4):
        trace = rng.random(I - 1) * 10.0 ** rng.uniform(-3, 3)
        P = extension_op.solve_interior(op, trace)
        bound = 1e-15 * op.s_max * trace.max()
        assert abs(extension_op._residual(diagonal, P) - extension_op._residual(factors, P)) <= bound


def test_only_tridiagonal_factors_take_the_diagonal_path():
    # c = 2 with d = 1, 2 or no drift: every interior row has the same five
    # offsets.  (2, 3) pads its rows to seven, and c >= 3 to more.  At sigma = 1
    # the drift vanishes, so (2, 3) is then (2, None)'s operator
    grid = make_grid(I=12, K=6)
    for sigma in (0.3, 1.7):
        diagonal = {(c, d) for c, d in SUPPORTED_PAIRS if assemble(grid, sigma, c=c, d=d).L is not None}
        assert diagonal == {(2, 1), (2, 2)}, sigma
    assert {c for c in _LAPLACIAN_ORDERS if assemble(grid, 1.0, c=c, d=None).L is not None} == {2}
    assert {(c, d) for c, d in SUPPORTED_PAIRS
            if assemble(grid, 1.0, c=c, d=d).L is not None} == {(2, 1), (2, 2), (2, 3)}


def _tridiagonal(F):
    # a 1-D factor over nodes 0..n: row j-1 stores entries only in columns j-1 .. j+1
    coo = F.tocoo()
    return not np.any((coo.col < coo.row) | (coo.col > coo.row + 2))


@pytest.mark.parametrize("family", sorted(STENCIL_WINDOWS))
def test_factor_rows_are_their_windows_weights(family):
    # row j-1 of the factor over nodes 0..n holds fd_weights of node j's window
    # (the first at node 1, the last at n-1, the middle one between) at columns
    # j + window, in canonical CSR; from the family's fewest steps to 40
    first, middle, last = STENCIL_WINDOWS[family]
    for n in range(stencil_reach((family,))[1], 41):
        F = extension_op._factor(family, n)
        assert F.shape == (n - 1, n + 1) and F.has_canonical_format, n
        for j in range(1, n):
            w = first if j == 1 else last if j == n - 1 else middle
            row = F.getrow(j - 1)
            assert row.indices.tolist() == [j + o for o in w], (n, j)
            assert row.data.tobytes() == fd_weights(w, family[0]).tobytes(), (n, j)


@pytest.mark.parametrize("c,d", sorted(SUPPORTED_PAIRS) + [(c, None) for c in _LAPLACIAN_ORDERS])
def test_band_structure_is_the_built_factors_band(c, d):
    # the stencil table's reach, clipped to K - 2, is the band S_y's interior block
    # stores, and both reaches (1, 1) is "both factors tridiagonal", the L decision.
    # Every K from the pair's minimum to 40; T_x's band does not depend on I once
    # its windows fit, so I = 8
    for sigma in (0.3, 0.5, 1.0, 1.5, 1.9) if d else (1.0,):
        families = stencil_families(sigma, c, d)
        (x_reach, _), (y_reach, least) = stencil_reach(families[:1]), stencil_reach(families)
        assert families == (((2, c),) if d is None or sigma == 1.0 else ((2, c), (1, d)))
        for K in range(least, 41):
            op = _build(8, K, sigma, c, d)
            S = op.S_y[:, 1:K].tocoo()
            widths = int((S.row - S.col).max()), int((S.col - S.row).max())
            assert widths == tuple(min(r, K - 2) for r in y_reach), (sigma, K)
            tridiagonal = _tridiagonal(op.T_x) and _tridiagonal(op.S_y)
            assert (op.L is not None) == tridiagonal == (x_reach == y_reach == (1, 1)), (sigma, K)


def test_x_modes_refuse_a_complex_spectrum():
    # a rotation block has eigenvalues +-i: the eig path, which c >= 3 takes, must refuse it
    # rather than drop the imaginary parts
    rotation = sparse.csr_matrix(np.array([[0.0, -1.0], [1.0, 0.0]]))
    with pytest.raises(SolverError, match="complex eigenvalues"):
        _x_modes(3, rotation, sparse.identity(3, format="csr"), (0, 0), np.ones(3))


@pytest.mark.parametrize("I", [2, 3, 8, 33, 64])
def test_sine_basis_is_the_eig_basis(I):
    # c = 2's interior x-block is tridiag(-1, 2, -1): the closed form against a
    # dense eigensolve of the assembled block
    T_int = -extension_op._factor((2, 2), I)[:, 1:I].toarray()
    lam, B = extension_op._sine_basis(I)
    want = np.sort(linalg.eigvals(T_int).real)
    assert np.abs(lam - want).max() <= 1e-14 * want.max()
    assert np.array_equal(B, B.T)
    assert np.abs(B @ B - np.eye(I - 1)).max() <= 1e-14
    assert np.abs(T_int @ B - B * lam).max() <= 1e-14 * want.max()


def _eig_built(op):
    # op with the x-modes of the eig path, which c >= 3 takes, on op's own factors
    I, K = op.I, op.K
    V, V_inv, G = _x_modes(3, op.T_x[:, 1:I], op.S_y[:, 1:K], _y_reach(op.sigma, op.c, op.d), op.s)
    return dataclasses.replace(op, V=V, V_inv=V_inv, G=G,
                               blocks=extension_op._staircase(V, V_inv, G))


@pytest.mark.parametrize("d,sigma", [(d, s) for d in (1, 2, 3) for s in (0.3, 1.0, 1.7)]
                         + [(None, 1.0)])
def test_closed_form_solve_matches_an_eig_built_operator(d, sigma):
    rng = np.random.default_rng(20261019)
    for grid in (make_grid(I=13, K=7), make_grid(I=128, K=64)):
        op = assemble(grid, sigma, c=2, d=d)
        eig_op = _eig_built(op)
        for _ in range(3):
            trace = rng.random(grid.I - 1)
            want = extension_op.solve_interior(eig_op, trace)
            got = extension_op.solve_interior(op, trace)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), (grid.I, d, sigma)


def test_closed_form_keeps_the_long_solve_staircase():
    # perfbench's long_solve operator: sigma = 0.5, (2, 1), I = 256, K = 128, X = Y = 8
    op = assemble(Grid(X=8.0, Y=8.0, I=256, K=128), 0.5, c=2, d=1)
    assert op.blocks == _eig_built(op).blocks


# every supported pair at four sigmas on three meshes (K = I/2)
_STAIRCASE_CASES = [(c, d, sigma, I) for c, d in sorted(SUPPORTED_PAIRS)
                    for sigma in (0.3, 1.0, 1.5, 1.9) for I in (16, 64, 256)]


@pytest.mark.parametrize("c,d,sigma,I", _STAIRCASE_CASES)
def test_mode_staircase_bounds_what_it_drops(c, d, sigma, I):
    K = I // 2
    op = assemble(make_grid(I=I, K=K), sigma, c=c, d=d)
    # the blocks tile rows 0..K-2 in order, with nonincreasing mode counts,
    # and the first block keeps every mode
    starts, ends, counts = zip(*op.blocks)
    assert starts[0] == 0 and ends[-1] == K - 1
    assert all(k0 < k1 for k0, k1 in zip(starts, ends))
    assert list(starts[1:]) == list(ends[:-1])
    assert counts[0] == I - 1 and list(counts) == sorted(counts, reverse=True)
    if I == 256:                            # sorted modes decay: about half the work goes
        assert sum((k1 - k0) * n for k0, k1, n in op.blocks) <= 0.55 * (K - 1) * (I - 1)
    # the dropped tail of every row, recomputed from G, is within 2^-60; the
    # 1e-12 allows for the build's sums running in another order
    tail_bound = 2.0**-60
    scale = np.linalg.norm(op.V_inv, np.inf) * np.abs(op.V).max()
    for k0, k1, n in op.blocks:
        tails = np.abs(op.G[k0:k1, n:]).sum(axis=1) * scale
        assert tails.max(initial=0.0) <= tail_bound * (1.0 + 1e-12), (k0, k1, n)
    # on random nonnegative traces the solve matches the full product of the
    # same parts within the dropped tail plus both products' rounding: each
    # sum of I-1 products, one more rounding for G o c, is off by at most
    # (I+1) eps times the sum of the products' magnitudes
    rng = np.random.default_rng(20261019)
    for _ in range(3):
        trace = rng.random(I - 1)
        cvec = op.V_inv @ trace
        full = (op.G * cvec) @ op.V.T
        rounding = 2 * (I + 1) * np.finfo(float).eps * ((np.abs(op.G) * np.abs(cvec)) @ np.abs(op.V).T)
        got = solve_interior(op, trace)[1:-1, 1:-1]
        assert np.all(np.abs(got - full) <= tail_bound * trace.max() + rounding)


@pytest.mark.parametrize("c,d", sorted(SUPPORTED_PAIRS) + [(c, None) for c in _LAPLACIAN_ORDERS])
def test_sweep_meshes_solve_in_one_block(c, d):
    # at I = K = 64 no split can save 2^18 multiply-adds, so the small meshes
    # pay one product per step, not one per block
    for sigma in ((0.3, 0.5, 1.0, 1.5, 1.9) if d is not None else (1.0,)):
        op = assemble(make_grid(I=64, K=64), sigma, c=c, d=d)
        assert op.blocks == ((0, 63, 63),), (c, d, sigma)


def test_solve_is_deterministic():
    grid = make_grid(I=12, K=6, dx=0.125)
    trace = np.sin(np.linspace(0, math.pi, 11))
    a = solve_interior(assemble(grid, 0.6), trace)
    _cache.clear()                          # two independent builds, not one shared operator
    b = solve_interior(assemble(grid, 0.6), trace)
    assert np.array_equal(a, b)


def test_solve_bytes_is_three_node_arrays_on_the_l_path_and_four_on_the_factor_path():
    # the working set of one solve, which march adds to its memory check after the build
    grid = make_grid(I=12, K=6, dx=0.125)
    for (c, d), arrays in (((2, 1), 3), ((3, 4), 4)):
        op = assemble(grid, 0.5, c=c, d=d)
        assert (op.L is not None) == (arrays == 3)
        assert op.solve_bytes == 8 * (6 + 1) * (12 + 1) * arrays + 64 * (12 + 1)


# ---------------------------------------------------------------------------
# the operator cache


def _csr_parts(*matrices):
    return [a for M in matrices for a in (M.data, M.indices, M.indptr)]


def _parts(op):
    dia = [] if op.L is None else [op.L.data, op.L.offsets]
    return _csr_parts(op.T_x, op.S_y) + [op.V, op.V_inv, op.G, op.s] + dia


def _owner(a):
    # the array that owns a's memory
    while a.base is not None:
        a = a.base
    return a


def _distinct_bytes(arrays):
    return sum({id(o): o.nbytes for o in map(_owner, arrays)}.values())


def _bitwise_equal(left, right):
    return all(np.array_equal(a, b) and a.dtype == b.dtype
               for a, b in zip(left, right, strict=True))


def test_cache_hit_equals_a_fresh_build():
    # every key is cached side by side, so a key that dropped c, d or sigma
    # would hand one of them another's parts
    grid = make_grid(I=12, K=6)
    cases = ([(c, d, s) for c, d in sorted(SUPPORTED_PAIRS) for s in (0.3, 1.0, 1.6)]
             + [(c, None, 1.0) for c in (2, 3, 4)])
    first = [assemble(grid, s, c=c, d=d) for c, d, s in cases]
    assert len(_cache) == len(cases)
    for (c, d, sigma), op in zip(cases, first):
        hit = assemble(grid, sigma, c=c, d=d)
        assert hit is op and (hit.I, hit.K, hit.sigma, hit.c, hit.d) == (12, 6, sigma, c, d)
        fresh = _build(12, 6, sigma, c, d)
        assert _bitwise_equal(_csr_parts(hit.A), _csr_parts(fresh.A)), (c, d, sigma)
        assert _bitwise_equal(_parts(hit), _parts(fresh)), (c, d, sigma)
        assert hit.blocks == fresh.blocks, (c, d, sigma)
        assert fresh.nbytes == _distinct_bytes(_parts(fresh)), (c, d, sigma)


def _count_stencil_checks(monkeypatch):
    calls = []
    real = extension_op.check_stencil
    monkeypatch.setattr(extension_op, "check_stencil", lambda *a: calls.append(a) or real(*a))
    return calls


def test_a_key_is_checked_when_built_and_a_cache_hit_is_a_lookup(monkeypatch):
    checks = _count_stencil_checks(monkeypatch)
    grid = make_grid(I=12, K=6)
    op = assemble(grid, 0.7, c=3, d=4)
    assert checks == [(0.7, 3, 4, 12, 6)]
    checks.clear()
    assert assemble(grid, 0.7, c=3, d=4) is op and checks == []


@pytest.mark.parametrize("grid,c,d", [(make_grid(), 4, 3), (make_grid(I=8, K=4), 4, 4),
                                      (Grid(X=1.0, Y=0.5, I=4, K=1), 2, 1)])
def test_a_refused_key_is_refused_again_with_one_message(monkeypatch, grid, c, d):
    # a refused key is never cached, so the second call checks it afresh
    checks = _count_stencil_checks(monkeypatch)
    messages = []
    for _ in range(2):
        with pytest.raises(UnsupportedStencilError) as refusal:
            assemble(grid, 0.5, c=c, d=d)
        messages.append(str(refusal.value))
    assert len(checks) == 2 and messages[0] == messages[1] and not _cache


def test_c2_entry_counts_its_shared_basis_once():
    # V and V^-1 of a c = 2 operator are views of one array: the entry's bytes
    # are the sum over its distinct buffers, so the cache does not evict early
    for d, sigma in ((1, 0.5), (2, 1.5), (3, 0.7), (None, 1.0)):
        op = _build(12, 6, sigma, 2, d)
        arrays = _parts(op)
        assert _owner(op.V) is _owner(op.V_inv)
        assert len({id(_owner(a)) for a in arrays}) == len(arrays) - 1, (d, sigma)
        assert op.nbytes == _distinct_bytes(arrays), (d, sigma)
        assert op.nbytes + op.V.nbytes == sum(_owner(a).nbytes for a in arrays), (d, sigma)


def test_corrupting_one_operator_leaves_another_of_the_same_key_intact():
    grid = make_grid(I=12, K=6, dx=0.125)
    trace = np.sin(np.linspace(0, math.pi, 11))
    bad, good = assemble(grid, 0.6), assemble(grid, 0.6)
    want = solve_interior(good, trace)
    bad = dataclasses.replace(bad, G=bad.G * (1.0 + 1e-6))
    with pytest.raises(SolverError, match="solve residual"):
        solve_interior(bad, trace)
    assert np.array_equal(solve_interior(good, trace), want)
    assert np.array_equal(solve_interior(assemble(grid, 0.6), trace), want)


def test_shared_parts_are_read_only():
    op = assemble(make_grid(), 0.5)
    with pytest.raises(ValueError, match="read-only"):
        op.V[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        op.T_x.data[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        op.G[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        op.L.data[0, 0] = 1.0


def test_operator_is_frozen_and_holds_no_derived_matrix():
    # a shared operator must not change under one caller, nor keep an A that the
    # cache's byte count leaves out
    op = assemble(make_grid(), 0.5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        op.G = op.G.copy()
    assert op.A.nnz == op.A.nnz and op.A is not op.A
    assert "A" not in vars(op)


def test_grids_of_one_shape_share_one_operator():
    # X and Y never enter the scaled operator: it holds I and K, and no grid
    gauss = initial_data_preset("gaussian")
    cfgs = [SolverConfig(sigma=0.5, m=2.0, X=X, Y=X, T=0.01, I=8, K=4, J=2)
            for X in (1.0, 2.0)]
    ops = [assemble(cfg.grid(), 0.5) for cfg in cfgs]
    assert ops[0] is ops[1] and (ops[0].I, ops[0].K) == (8, 4)
    assert "grid" not in {f.name for f in dataclasses.fields(ExtensionOperator)}
    # each march steps on the operator cached under the other grid's key, and gives
    # the bits of a march on an operator built for its own grid
    runs = [march(cfg, gauss).trace_history for cfg in cfgs]
    assert not np.array_equal(*runs)
    for cfg, run in zip(cfgs, runs):
        extension_op._cache.clear()
        assert np.array_equal(march(cfg, gauss).trace_history, run)


def test_march_never_builds_the_interior_matrix(monkeypatch):
    # A is derived on demand for diagnostics; no solve or residual check reads it
    def no_matrix(_op):
        raise AssertionError("the march read A")

    cfg = SolverConfig(sigma=0.5, m=2.0, X=2.0, Y=2.0, T=0.01, I=8, K=4, J=2)
    monkeypatch.setattr(extension_op.ExtensionOperator, "A", property(no_matrix))
    march(cfg, initial_data_preset("gaussian"))


def _count_builds(monkeypatch):
    calls = []
    real = extension_op._x_modes
    monkeypatch.setattr(extension_op, "_x_modes", lambda *a: calls.append(1) or real(*a))
    return calls


def test_cache_evicts_the_least_recently_used(monkeypatch):
    grid = make_grid()
    keys = [(grid.I, grid.K, sigma, 2, 1) for sigma in (0.3, 0.5, 0.7)]
    size = _build(*keys[0]).nbytes
    assert all(_build(*k).nbytes == size for k in keys)
    monkeypatch.setattr(extension_op, "_CACHE_BYTES", 2 * size)
    builds = _count_builds(monkeypatch)
    for sigma in (0.3, 0.5, 0.3, 0.7):      # 0.3 is used again, so 0.5 goes first
        assemble(grid, sigma)
    assert list(_cache) == [keys[0], keys[2]] and len(builds) == 3
    assemble(grid, 0.5)
    assert list(_cache) == [keys[2], keys[1]] and len(builds) == 4


def test_over_budget_operator_is_returned_built_once_and_not_kept(monkeypatch):
    small = make_grid()
    monkeypatch.setattr(extension_op, "_CACHE_BYTES", _build(small.I, small.K, 0.5, 2, 1).nbytes)
    assemble(small, 0.5)
    builds = _count_builds(monkeypatch)
    big = make_grid(I=16, K=8)
    op = assemble(big, 0.5)
    assert len(builds) == 1 and list(_cache) == [(small.I, small.K, 0.5, 2, 1)]
    trace = np.linspace(0.0, 1.0, big.I - 1)
    again = assemble(big, 0.5)
    assert again is not op and len(builds) == 2
    assert np.array_equal(solve_interior(op, trace), solve_interior(again, trace))


def test_failed_build_is_not_kept(monkeypatch):
    def broken(*_args):
        raise linalg.LinAlgError("injected")

    monkeypatch.setattr(extension_op, "_x_modes", broken)
    with pytest.raises(SolverError, match="injected"):
        assemble(make_grid(), 0.5)
    assert not _cache


def test_unallocatable_x_modes_are_a_config_error(monkeypatch):
    def unallocatable(*_args):
        raise MemoryError

    monkeypatch.setattr(extension_op, "_x_modes", unallocatable)
    with pytest.raises(ConfigError, match="I=8, K=4"):
        assemble(make_grid(), 0.5)
    assert not _cache


def _bound(I, K, c, d, sigma=0.5):
    # the bound _build checks for (I, K, sigma, c, d)
    return extension_op._build_bytes(I, K, c, _y_reach(sigma, c, d))


@pytest.mark.parametrize("I,K,c,d", [(I, I // 2, c, d) for I in (128, 512)
                                     for c, d in sorted(SUPPORTED_PAIRS)]
                         + [(256, 256, 4, 4), (1024, 512, 2, 1), (1024, 16, 2, 1)])
def test_build_bytes_bound_the_traced_peak(I, K, c, d):
    # an upper bound on every mesh; at 512 x 256 a tight one, so a mesh that fits
    # is not refused.  On the wide 1024 x 16 mesh the basis is most of the build:
    # _staircase forms no second n x n array beside it
    tracemalloc.start()
    try:
        _build(I, K, 0.5, c, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _bound(I, K, c, d)
    if I == 512:
        assert _bound(I, K, c, d) <= 1.5 * peak


def test_c2_bound_leaves_out_the_eig_path_arrays(monkeypatch):
    # on a wide mesh the x-basis is most of a build: a budget between the c = 2
    # bound (one n^2 basis) and the eig path's (which also holds the dense
    # x-block, eig's copy and V^-1) builds (2, 1), and still refuses (3, 4)
    I, K = 512, 8
    new, eig = _bound(I, K, 2, 1), _bound(I, K, 3, 4)
    assert 2**20 < new < 0.6 * eig
    monkeypatch.setattr(extension_op, "_physical_memory", lambda: (new + eig) // 2)
    grid = make_grid(I=I, K=K)
    assemble(grid, 0.5, c=2, d=1)
    with pytest.raises(ConfigError, match=f"I={I}, K={K} too large"):
        assemble(grid, 1.5, c=3, d=4)


def test_mesh_over_the_memory_budget_is_refused_before_any_x_modes(monkeypatch):
    def never(*_args):
        raise AssertionError("x-mode setup started")

    assert extension_op._physical_memory() > 0
    need = _bound(256, 128, 2, 1)
    assert need > 2**20                     # smaller needs fit any budget unread
    monkeypatch.setattr(extension_op, "_physical_memory", lambda: need - 1)
    monkeypatch.setattr(extension_op, "_x_modes", never)
    with pytest.raises(ConfigError, match=f"I=256, K=128 too large: its operator needs up to "
                                          f"{need} bytes, more than the {need - 1} bytes of "
                                          f"physical memory$"):
        assemble(make_grid(256, 128), 0.5)
    assert not _cache
    monkeypatch.undo()
    monkeypatch.setattr(extension_op, "_physical_memory", lambda: need)
    assemble(make_grid(256, 128), 0.5)      # a budget of exactly the bound builds


@pytest.mark.parametrize("reader,name", [
    ("_address_space_limit", "the soft RLIMIT_AS"),
    ("_cgroup_memory_limit", "the cgroup's memory.max"),
])
def test_process_limits_below_physical_memory_refuse_the_mesh(monkeypatch, reader, name):
    # each limit is faked through its reader; no real limit is lowered
    def never(*_args):
        raise AssertionError("x-mode setup started")

    need = _bound(256, 128, 2, 1)
    monkeypatch.setattr(extension_op, "_physical_memory", lambda: 2 * need)
    monkeypatch.setattr(extension_op, reader, lambda: need - 1)
    monkeypatch.setattr(extension_op, "_x_modes", never)
    with pytest.raises(ConfigError, match=f"more than the {need - 1} bytes of {name}$"):
        assemble(make_grid(256, 128), 0.5)
    assert not _cache
    monkeypatch.undo()
    monkeypatch.setattr(extension_op, reader, lambda: need)
    assemble(make_grid(256, 128), 0.5)


def test_small_needs_read_no_limit(monkeypatch):
    # a need of at most 1 MiB is below any budget, so no limit is read for it
    def unread():
        raise AssertionError("a memory limit was read")

    for reader in ("_physical_memory", "_address_space_limit", "_cgroup_memory_limit"):
        monkeypatch.setattr(extension_op, reader, unread)
    extension_op.check_memory(2**20, "never refused")
    with pytest.raises(AssertionError, match="a memory limit was read"):
        extension_op.check_memory(2**20 + 1, "read")


def test_memory_limit_readers_report_inf_for_no_limit(monkeypatch, tmp_path):
    # RLIM_INFINITY and a cgroup memory.max of "max" are no limit; a group
    # without the file (cgroup v1, or the root group) is none either
    assert extension_op._address_space_limit() > 0
    assert extension_op._cgroup_memory_limit() > 0
    monkeypatch.setattr(resource, "getrlimit", lambda _r: (resource.RLIM_INFINITY, 0))
    assert extension_op._address_space_limit() == math.inf
    monkeypatch.setattr(resource, "getrlimit", lambda _r: (2**30, resource.RLIM_INFINITY))
    assert extension_op._address_space_limit() == 2**30

    files = {"/proc/self/cgroup": "4:memory:/v1\n0::/job/step\n"}
    real_open = open

    def fake_open(path, *args, **kwargs):
        if str(path) in files:
            target = tmp_path / "file"
            target.write_text(files[str(path)])
            return real_open(target, *args, **kwargs)
        raise FileNotFoundError(path)

    monkeypatch.setattr("builtins.open", fake_open)
    assert extension_op._cgroup_memory_limit() == math.inf      # no memory.max
    files["/sys/fs/cgroup/job/step/memory.max"] = "max\n"
    assert extension_op._cgroup_memory_limit() == math.inf
    files["/sys/fs/cgroup/job/step/memory.max"] = "1073741824\n"
    assert extension_op._cgroup_memory_limit() == 2**30
    files["/proc/self/cgroup"] = "0::/\n"
    files["/sys/fs/cgroup/memory.max"] = "536870912\n"
    assert extension_op._cgroup_memory_limit() == 2**29


def test_cgroup_limit_is_the_lowest_over_ancestors_and_hierarchies(monkeypatch, tmp_path):
    # the cgroup trees are files under a temporary root; nothing real is read
    root, proc = tmp_path / "cgroup", tmp_path / "proc-self-cgroup"
    real_open = open
    monkeypatch.setattr("builtins.open", lambda path, *a, **kw: real_open(
        proc if str(path) == "/proc/self/cgroup" else path, *a, **kw))
    monkeypatch.setattr(extension_op, "_CGROUP_ROOT", str(root))

    def limit(groups, files):
        shutil.rmtree(root, ignore_errors=True)
        proc.write_text(groups)
        for rel, text in files.items():
            (root / rel).parent.mkdir(parents=True, exist_ok=True)
            (root / rel).write_text(text)
        return extension_op._cgroup_memory_limit()

    # a v2 ancestor's memory.max caps a leaf that says "max", as systemd slices do
    assert limit("0::/user.slice/job\n", {"user.slice/job/memory.max": "max\n",
                                          "user.slice/memory.max": "4096\n"}) == 4096
    assert limit("0::/a/b/\n", {"a/b/memory.max": "1024\n", "a/memory.max": "4096\n",
                                "memory.max": "max\n"}) == 1024
    # a hybrid host mounts the v2 tree at unified/
    assert limit("4:memory:/x\n0::/job\n", {"unified/job/memory.max": "2048\n"}) == 2048
    # cgroup v1: the memory hierarchy's memory.limit_in_bytes, on ancestors too
    assert limit("4:memory:/docker/abc\n0::/\n", {
        "memory/docker/abc/memory.limit_in_bytes": "9223372036854771712\n",
        "memory/docker/memory.limit_in_bytes": "8192\n"}) == 8192
    assert limit("3:cpu,memory:/g\n", {"memory/g/memory.limit_in_bytes": "512\n"}) == 512
    assert limit("5:pids:/g\n", {"pids/g/memory.limit_in_bytes": "512\n"}) == math.inf
    # the lowest over every hierarchy at once
    assert limit("4:memory:/g\n0::/g\n", {"memory/g/memory.limit_in_bytes": "700\n",
                                          "unified/g/memory.max": "600\n",
                                          "g/memory.max": "800\n"}) == 600
    # an unreadable value or a missing file is no limit
    assert limit("0::/g\n", {"g/memory.max": "garbage\n", "memory.max": "max\n"}) == math.inf
    assert limit("0::/g\n", {}) == math.inf


# ---------------------------------------------------------------------------
# monotone structure and the discrete maximum principle


@pytest.mark.parametrize("sigma", [round(0.05 * j, 2) for j in range(1, 40)])
@pytest.mark.parametrize("c,d", [(2, 1), (2, 2)])
def test_low_order_pairs_have_m_structure(sigma, c, d):
    # README: (2, 1) and (2, 2) pass the sign test at every sigma in (0, 2)
    for grid in (make_grid(I=10, K=6), make_grid(I=64, K=32)):
        assert assemble(grid, sigma, c=c, d=d).offending_factor_rows == ((), ())


@pytest.mark.parametrize("sigma,c,d", [
    *((round(0.05 * j, 2), 2, d) for d in (1, 2) for j in range(1, 40)), (1.0, 2, None)])
def test_m_structure_row_one_map_is_positive_and_sub_stochastic(sigma, c, d):
    # P1 = V diag(G[0]) V^-1 maps a trace to row k = 1 of its solve.  P1 >= 0 with
    # P1 1 <= 1 keeps row 1 in [0, max trace], the ground of the trace band's bound
    op = assemble(make_grid(I=64, K=32), sigma, c=c, d=d)
    P1 = op.V @ (op.G[0][:, None] * op.V_inv)
    assert P1.min() > 0.0
    assert P1.sum(axis=1).max() < 1.0
    t = np.random.default_rng(7).uniform(0.0, 1.0, op.I - 1)
    assert np.abs(P1 @ t - extension_op.solve_interior(op, t)[1, 1:-1]).max() <= 1e-13 * np.abs(t).max()


def test_pure_laplacian_stencil_has_m_structure_at_sigma_one():
    assert assemble(make_grid(), 1.0, c=2, d=None).offending_factor_rows == ((), ())


def test_high_order_pair_lacks_m_structure():
    x_rows, y_rows = assemble(make_grid(I=12, K=8), 0.5, c=4, d=4).offending_factor_rows
    assert x_rows and y_rows


def _node_rows(op):
    # the factor rows expanded to the node rows n = (k-1)(I-1) + (i-1) they offend
    x_rows, y_rows = op.offending_factor_rows
    return tuple(n for n in range((op.I - 1) * (op.K - 1))
                 if n % (op.I - 1) in x_rows or n // (op.I - 1) in y_rows)


def _dense_offending_rows(grid, sigma, c, d):
    # the monotone criterion scanned row by row over the dense full-node
    # operator: column (i, k) is the matrix-free application to the unit field
    # at node (i, k), each row scaled by -dx^(1+sigma) k^(sigma-1)
    I, K, tol = grid.I, grid.K, _MONOTONE_TOL
    scale = np.repeat(-grid.dx ** (1.0 + sigma) * np.arange(1.0, K) ** (sigma - 1.0), I - 1)
    full = np.empty(((K - 1) * (I - 1), I + 1, K + 1))
    for i in range(I + 1):
        for k in range(K + 1):
            unit = np.zeros((I + 1, K + 1))
            unit[i, k] = 1.0
            full[:, i, k] = scale * apply_operator(unit, grid.dx, sigma, c=c, d=d).T.ravel()
    inner = np.zeros((I + 1, K + 1), dtype=bool)
    inner[1:I, 1:K] = True
    offenders = []
    for n, row in enumerate(full):
        k, i = divmod(n, I - 1)
        diag = row[i + 1, k + 1]
        row = row.copy()
        row[i + 1, k + 1] = 0.0
        off_sum, b_sum = np.abs(row[inner]).sum(), np.abs(row[~inner]).sum()
        s = max(abs(diag), 1.0)
        if (row.max() > tol or diag <= tol * s or diag < off_sum - tol * s
                or (b_sum > tol * s and diag <= off_sum + tol * s)):
            offenders.append(n)
    return tuple(offenders)


@pytest.mark.parametrize("c,d,sigma", [(c, d, sigma) for c, d in sorted(SUPPORTED_PAIRS)
                                       for sigma in (0.3, 0.7, 1.3, 1.9)]
                         + [(c, None, 1.0) for c in _LAPLACIAN_ORDERS])
def test_monotone_report_matches_a_dense_scan(c, d, sigma):
    for grid in (make_grid(I=10, K=6), make_grid(I=7, K=5)):
        op = assemble(grid, sigma, c=c, d=d)
        assert _node_rows(op) == _dense_offending_rows(grid, sigma, c, d)


@pytest.mark.parametrize("factor", ["T_x", "S_y"])
def test_monotone_margin_admits_entries_up_to_the_tolerance(factor):
    # an off-diagonal factor entry counts as positive only above the margin,
    # and then it flags every operator row that contains its factor row
    op = assemble(make_grid(I=10, K=6), 0.5, c=2, d=1)
    I, K = op.I, op.K
    rows = (tuple((k - 1) * (I - 1) + 2 for k in range(1, K)) if factor == "T_x"
            else tuple(range(2 * (I - 1), 3 * (I - 1))))
    flagged = ((2,), ()) if factor == "T_x" else ((), (2,))
    for value, factor_rows, offenders in ((_MONOTONE_TOL, ((), ()), ()),
                                          (np.nextafter(_MONOTONE_TOL, 1.0), flagged, rows)):
        F = getattr(op, factor).tolil()
        F[2, 2] = value                     # left neighbour of factor row 2 (diagonal: column 3)
        changed = dataclasses.replace(op, **{factor: F.tocsr()})
        assert changed.offending_factor_rows == factor_rows
        assert _node_rows(changed) == offenders


def test_unit_trace_solution_lies_in_unit_interval():
    grid = make_grid(I=10, K=6)
    for sigma in (0.4, 1.0, 1.7):
        op = assemble(grid, sigma, c=2, d=1 if sigma != 1.0 else None)
        interior = solve_interior(op, np.ones(grid.I - 1))[1:-1, 1:-1]
        assert interior.min() > 0.0
        assert interior.max() < 1.0
        # the maximum over the interior sits on the row nearest the trace
        assert interior.max() == pytest.approx(interior[0].max())


def test_random_trace_respects_discrete_maximum_principle():
    grid = make_grid(I=10, K=6)
    op = assemble(grid, 0.6, c=2, d=1)
    rng = np.random.default_rng(99)
    for _ in range(20):
        trace = rng.random(grid.I - 1)
        interior = solve_interior(op, trace)[1:-1, 1:-1]
        assert interior.min() >= -1e-12
        assert interior.max() <= trace.max() + 1e-12


def test_discrete_max_location_tie_break():
    vals = np.zeros((5, 4))
    vals[2, 0] = 1.0
    vals[1, 1] = 1.0
    assert discrete_max_location(vals) == (2, 0)      # smallest k wins
    assert discrete_max_location(np.asfortranarray(vals)) == (2, 0)
    vals[1, 0] = 1.0
    assert discrete_max_location(vals) == (1, 0)      # then smallest i
    assert discrete_max_location(np.asfortranarray(vals)) == (1, 0)


# ---------------------------------------------------------------------------
# truncation order on a smooth field


# The probe v = cos(x) exp(y/2) has no parity in y, so every derivative that
# enters the stencil truncation terms is nonzero at the trace and the measured
# order cannot exceed the formal one by symmetry accidents.


def _product_field(grid):
    xs = grid.xs[:, None]
    ys = grid.ys[None, :]
    return np.cos(xs) * np.exp(0.5 * ys)


def _exact_operator(grid, sigma):
    # L v = cos(x) [ y^(1-sigma) (h'' - h) + (1-sigma) y^(-sigma) h' ],
    # h = exp(y/2): h'' - h = -(3/4) h, h' = h / 2
    xs = grid.xs[1:-1, None]
    ys = grid.ys[None, 1:-1]
    h = np.exp(0.5 * ys)
    out = ys ** (1.0 - sigma) * (-0.75 * h)
    if sigma != 1.0:
        out = out + (1.0 - sigma) * ys ** (-sigma) * (0.5 * h)
    return np.cos(xs) * out


@pytest.mark.parametrize("sigma,c,d", [
    (0.5, 2, 1),
    (1.0, 2, None),
    (1.5, 2, 3),
    (1.5, 3, 4),
])
def test_truncation_order_matches_formal_order(sigma, c, d):
    want = effective_order(sigma, c, d)
    errs = []
    for I in (32, 64, 128):
        grid = Grid(X=1.0, Y=2.0, I=I, K=I)
        vals = _product_field(grid)
        lv = apply_operator(vals, grid.dx, sigma, c=c, d=d)
        errs.append(np.abs(lv - _exact_operator(grid, sigma)).max())
    slope = math.log2(errs[-2] / errs[-1])
    assert slope == pytest.approx(want, abs=0.3)


def test_near_trace_rows_carry_the_d_minus_sigma_term():
    # For (c, d) = (2, 2) at sigma = 1/2 the d - sigma = 3/2 truncation term
    # lives on the first interior row (elsewhere the plain dx^2 term wins with
    # a much larger constant), so the formal order is measured there.
    errs = []
    for I in (64, 128, 256):
        grid = Grid(X=1.0, Y=2.0, I=I, K=I)
        lv = apply_operator(_product_field(grid), grid.dx, 0.5, c=2, d=2)
        errs.append(np.abs(lv[:, 0] - _exact_operator(grid, 0.5)[:, 0]).max())
    slope = math.log2(errs[-2] / errs[-1])
    assert slope == pytest.approx(1.5, abs=0.15)


def test_negative_formal_order_shows_divergence():
    # (c, d) = (2, 1) at sigma = 1.5 has formal order -1/2: the max-norm
    # truncation error must grow under refinement
    errs = []
    for I in (32, 64, 128):
        grid = Grid(X=1.0, Y=2.0, I=I, K=I)
        lv = apply_operator(_product_field(grid), grid.dx, 1.5, c=2, d=1)
        errs.append(np.abs(lv - _exact_operator(grid, 1.5)).max())
    assert errs[0] < errs[1] < errs[2]


# ---------------------------------------------------------------------------
# guards, dumps, bookkeeping


def test_unsupported_pairs_rejected():
    grid = make_grid()
    for c, d in ((1, 1), (4, 3), (3, 2), (5, 4)):
        with pytest.raises(UnsupportedStencilError):
            assemble(grid, 0.5, c=c, d=d)
    with pytest.raises(UnsupportedStencilError):
        assemble(grid, 0.5, c=2, d=None)     # d only omittable at sigma = 1


# the minimum mesh (I, K) of each pair away from sigma = 1 and of each Laplacian order alone
_MIN_MESH = {(2, 1): (2, 2), (2, 2): (2, 2), (2, 3): (2, 3), (3, 3): (4, 4), (3, 4): (4, 4),
             (4, 4): (5, 5), (2, None): (2, 2), (3, None): (4, 4), (4, None): (5, 5)}


@pytest.mark.parametrize("c,d,sigma", [pytest.param(c, d, 0.5 if d else 1.0, id=f"{c}-{d}")
                                       for c, d in _MIN_MESH]
                         + [pytest.param(c, d, 1.0, id=f"{c}-{d}-sigma1")
                            for c, d in sorted(SUPPORTED_PAIRS)])
def test_config_and_assemble_take_the_minimum_mesh_and_refuse_one_step_fewer(c, d, sigma):
    # both refuse with one message: the config when it is built, assemble on its grid.
    # At sigma = 1 the drift vanishes, so a pair takes its Laplacian's minimum mesh
    I_min, K_min = _MIN_MESH[c, None if sigma == 1.0 else d]
    assert _min_mesh(sigma, c, d) == (I_min, K_min)

    def refusal(I, K):
        with pytest.raises(ConfigError) as config_error:
            SolverConfig(sigma=sigma, m=1.0, X=I * 0.125, Y=K * 0.25, T=0.1, I=I, K=K, J=1,
                         c=c, d=d)
        with pytest.raises(ConfigError) as assemble_error:
            assemble(make_grid(I=I, K=K), sigma, c=c, d=d)
        assert str(config_error.value) == str(assemble_error.value)
        return config_error.value

    SolverConfig(sigma=sigma, m=1.0, X=I_min * 0.125, Y=K_min * 0.25, T=0.1, I=I_min, K=K_min,
                 J=1, c=c, d=d)
    op = assemble(make_grid(I=I_min, K=K_min), sigma, c=c, d=d)
    want = f"mesh too small for (c={c}, d={d}): need I >= {I_min} and K >= {K_min}"
    short_k = refusal(I_min, K_min - 1)
    assert type(short_k) is UnsupportedStencilError and str(short_k).startswith(want)
    short_i = refusal(I_min - 1, K_min)
    if I_min - 1 >= 2:
        assert type(short_i) is UnsupportedStencilError and str(short_i).startswith(want)
    else:                                   # I = 1 is no mesh at all: the Grid refuses it first
        assert "need integer I >= 2" in str(short_i)
    if sigma == 1.0 and d is not None:      # the pair builds the pure Laplacian's operator
        plain = assemble(make_grid(I=I_min, K=K_min), sigma, c=c, d=None)
        assert np.array_equal(op.S_y.toarray(), plain.S_y.toarray())
        assert np.array_equal(op.G, plain.G)
        if c == 2:
            SolverConfig(sigma=1.0, m=1, X=2, Y=1, T=0.1, I=8, K=2, J=10, c=c, d=d)


def test_mesh_too_small_rejected():
    with pytest.raises(UnsupportedStencilError):
        assemble(Grid(X=1.0, Y=0.5, I=4, K=1), 0.5, c=2, d=1)
    with pytest.raises(UnsupportedStencilError):
        assemble(Grid(X=1.0, Y=1.0, I=4, K=2), 0.5, c=4, d=4)


def test_solve_validates_boundary_data():
    op = assemble(make_grid(), 0.5)
    with pytest.raises(ValueError):
        solve_interior(op, np.zeros(3))                 # wrong trace length
    with pytest.raises(ValueError):
        solve_interior(op, np.full(7, np.nan))


def test_full_grid_assembly_layout():
    # the march's snapshot: P.T, read-only, in P's memory order, sharing no memory with P
    grid = make_grid(I=6, K=3)
    op = assemble(grid, 0.5, c=2, d=1)
    trace = np.arange(1, 6, dtype=float)
    P = solve_interior(op, trace)
    vals = full_grid_values(P)
    assert vals.shape == (7, 4) and np.array_equal(vals, P.T)
    assert vals.strides == P.T.strides and not vals.flags.writeable
    assert not np.shares_memory(vals, P)
    assert np.array_equal(vals[1:-1, 0], trace)
    assert vals[0, 0] == 0.0 and vals[-1, 0] == 0.0            # corners are lateral
    assert np.all(vals[:, -1] == 0.0)                          # top row


def _pointwise_operator(vals, dx, sigma, c, d):
    # one node at a time, each stencil sum in stencil order
    I, K = vals.shape[0] - 1, vals.shape[1] - 1
    out = np.empty((I - 1, K - 1))
    for k in range(1, K):
        y = k * dx
        yo = window((2, c), k, K)
        wy = fd_weights(yo, 2)
        for i in range(1, I):
            xo = window((2, c), i, I)
            wx = fd_weights(xo, 2)
            lap = (sum(w * vals[i + o, k] for o, w in zip(xo, wx))
                   + sum(w * vals[i, k + o] for o, w in zip(yo, wy))) * (1.0 / (dx * dx))
            res = y ** (1.0 - sigma) * lap
            if d is not None and sigma != 1.0:
                fo = window((1, d), k, K)
                dy = sum(w * vals[i, k + o] for o, w in zip(fo, fd_weights(fo, 1))) / dx
                res += (1.0 - sigma) * y ** (-sigma) * dy
            out[i - 1, k - 1] = res
    return out


@pytest.mark.parametrize("c,d,sigma", _ROW_CASES)
def test_apply_operator_matches_pointwise_loop(c, d, sigma):
    # same sums in the same order, so the arrays agree to the last bit
    I_min, K_min = _min_mesh(sigma, c, d)
    rng = np.random.default_rng(7)
    for I, K in ((I_min, K_min), (11, 6), (12, 9)):
        vals = rng.standard_normal((I + 1, K + 1))
        got = apply_operator(vals, 0.2, sigma, c=c, d=d)
        assert np.array_equal(got, _pointwise_operator(vals, 0.2, sigma, c, d))


def test_condition_estimate_is_finite_and_positive():
    op = assemble(make_grid(), 1.0, c=2, d=None)
    est = op.condition_estimate()
    assert math.isfinite(est)
    assert est >= 1.0


@pytest.mark.parametrize("c,d", sorted(SUPPORTED_PAIRS) + [(c, None) for c in (2, 3, 4)])
def test_condition_estimate_is_the_x_basis_one_norm_condition(c, d):
    op = assemble(make_grid(I=12, K=6), 1.0 if d is None else 0.7, c=c, d=d)
    ref = np.linalg.norm(op.V, 1) * np.linalg.norm(np.linalg.inv(op.V), 1)
    assert op.condition_estimate() == pytest.approx(ref, rel=1e-12)
    assert op.condition_estimate() >= 1.0


def test_dump_matrix_round_trip(tmp_path):
    op = assemble(make_grid(I=6, K=3), 0.5)
    path = tmp_path / "A.txt"
    dump_matrix(op, path)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == op.A.nnz
    rows, cols, vals = [], [], []
    for ln in lines:
        r, c_, v = ln.split()
        rows.append(int(r))
        cols.append(int(c_))
        vals.append(float(v))
    rebuilt = np.zeros(op.A.shape)
    rebuilt[rows, cols] = vals
    assert rebuilt == pytest.approx(op.A.toarray(), rel=1e-15)
    assert rows == sorted(rows)                                # row-major order


def _reference_dump(op):
    coo = op.A.tocoo()
    entries = sorted(zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist()))
    return "".join(f"{r} {c_} {v:.17e}\n" for r, c_, v in entries).encode("utf-8")


@pytest.mark.parametrize("c,d", sorted(SUPPORTED_PAIRS) + [(c, None) for c in (2, 3, 4)])
def test_dump_matrix_writes_the_canonical_csr_in_row_major_order(tmp_path, c, d):
    # the dump writes A's CSR as stored; stored order is row-major only because A is canonical
    for sigma, (I, K) in ((0.3, (13, 7)), (1.0, (16, 8)), (1.9, (12, 12))):
        sigma = 1.0 if d is None else sigma
        op = assemble(make_grid(I=I, K=K), sigma, c=c, d=d)
        A = op.A
        assert A.has_canonical_format, (c, d, sigma)
        coo = A.tocoo()
        order = np.lexsort((coo.col, coo.row))
        want = "".join(f"{r} {c_} {v:.17e}\n" for r, c_, v in zip(
            coo.row[order].tolist(), coo.col[order].tolist(), coo.data[order].tolist()))
        path = tmp_path / "A.txt"
        dump_matrix(op, path)
        assert path.read_bytes() == want.encode("utf-8"), (c, d, sigma)


@pytest.mark.parametrize("c,d,sigma,I,K", [(2, 1, 0.5, 64, 32), (3, 4, 1.5, 13, 7)])
def test_dump_matrix_matches_per_line_formatting(tmp_path, c, d, sigma, I, K):
    # the (2, 1) operator has 9577 nonzeros: several format blocks, the last partial
    op = assemble(make_grid(I=I, K=K), sigma, c=c, d=d)
    path = tmp_path / "A.txt"
    dump_matrix(op, path)
    assert path.read_bytes() == _reference_dump(op)
