"""Acceptance checks, one test per criterion.

Each test exercises a stated guarantee at its stated tolerance and prints one
PASS line on success (run with -s or read the captured output).  Tolerances
and runtimes here are contractual; do not loosen them to make a failure go
away -- a failure means the implementation, not the test, is wrong.
"""

import math
import time

import numpy as np
import pytest

from fracpme import core, extension_op, marcher, oracles
from fracpme.core import InitialData, SolverConfig, initial_data_preset
from fracpme.harness import (
    OPTIMAL,
    PRACTICAL,
    SchemeMode,
    StudySetup,
    bridge_order_fit,
    run_convergence,
    run_sigma_table,
    select_scheme_params,
)


def _report(num, text, detail=""):
    tail = f"  [{detail}]" if detail else ""
    print(f"PASS acceptance {num}: {text}{tail}")


# ---------------------------------------------------------------------------
# 1. quotient-error table reproduction


def test_acceptance_1_quotient_table():
    t0 = time.perf_counter()
    res = run_sigma_table()
    elapsed = time.perf_counter() - t0
    assert res.ok, f"table mismatches: {res.mismatches}"
    rows = res.csv.strip().split("\n")
    assert len(rows) == 1 + 12          # header + 3 sigma x 4 heights
    assert elapsed < 1.0, f"table took {elapsed:.2f}s, budget is 1s"
    _report(1, "all 12 table rows (E, alpha, sigma_e) match to 4 decimals",
            f"{elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. trace-quotient order 2 - sigma


def test_acceptance_2_quotient_order():
    t0 = time.perf_counter()
    slopes = {}
    for sigma in (0.5, 1.0, 1.5):
        slope, _ = bridge_order_fit(sigma)      # y = 2^-3 .. 2^-8, gaussian data
        assert abs(slope - (2.0 - sigma)) <= 0.15, (
            f"sigma={sigma}: fitted exponent {slope:.4f} outside "
            f"[{2 - sigma - 0.15:.2f}, {2 - sigma + 0.15:.2f}]")
        slopes[sigma] = slope
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(2, "two-point quotient error fits exponent 2-sigma within 0.15",
            " ".join(f"{s}:{v:.3f}" for s, v in slopes.items()))


# ---------------------------------------------------------------------------
# 3 + 4. maximum-principle band and max-on-trace over the full test matrix
#
# Amplitudes are drawn from [1, 2].  Each march takes the step count of the
# CFL constant [m b_max^((m-1)/m) nu]^(-1), which certifies the band for
# every b_max (see the sub-unit test in test_marcher.py).


MATRIX_MS = (1.0, 2.0, 3.0)
MATRIX_SIGMAS = (0.3, 0.5, 1.0, 1.5, 1.9)


def _seeded_bump(seed):
    rng = np.random.default_rng(seed)
    amp = float(rng.uniform(1.0, 2.0))
    x0 = float(rng.uniform(-0.5, 0.5))
    half_width = float(rng.uniform(0.5, 1.0))

    def fn(xs):
        out = np.zeros_like(xs, dtype=float)
        inside = np.abs(xs - x0) < half_width
        out[inside] = amp * np.cos(
            np.pi * (xs[inside] - x0) / (2.0 * half_width)) ** 2
        return out

    return InitialData(name=f"seeded-bump-{seed}", fn=fn)


@pytest.fixture(scope="module")
def max_principle_matrix():
    """45 marches on a 65 x 65 node mesh with CFL-compliant dt; per-step
    full-field diagnostics come back with each trajectory."""
    X, Y, I, K, T = 2.0, 4.0, 64, 64, 0.1
    grid = core.Grid(X, Y, I, K)
    t0 = time.perf_counter()
    runs = []
    for m in MATRIX_MS:
        for sigma in MATRIX_SIGMAS:
            for trial in range(3):
                data = _seeded_bump(trial + 10 * round(10 * sigma) + 1000 * int(m))
                samples = data.sample(grid.xs)
                b_max = float((samples[1:-1] ** m).max())
                bound = core.cfl_max_dt(m, b_max, sigma, grid.dx)
                J = max(1, math.ceil(T / (0.95 * bound)))
                cfg = SolverConfig(sigma=sigma, m=m, X=X, Y=Y, T=T, I=I, K=K, J=J)
                traj = marcher.march(cfg, data)
                runs.append((m, sigma, trial, traj))
    return runs, time.perf_counter() - t0


def test_acceptance_3_maximum_principle_band(max_principle_matrix):
    runs, elapsed = max_principle_matrix
    assert len(runs) == 45
    steps = 0
    for m, sigma, trial, traj in runs:
        for diag in traj.diagnostics:
            assert diag.w_min >= -1e-10, (
                f"(m={m}, sigma={sigma}, trial={trial}) step {diag.j}: "
                f"w_min = {diag.w_min:.3e}")
            assert diag.w_max <= traj.b_max + 1e-10, (
                f"(m={m}, sigma={sigma}, trial={trial}) step {diag.j}: "
                f"w_max = {diag.w_max:.6e} > b_max = {traj.b_max:.6e}")
            steps += 1
    assert elapsed < 120.0, f"matrix took {elapsed:.1f}s, budget is 2 min"
    _report(3, "every node of every step stays in [-1e-10, b_max + 1e-10]",
            f"45 runs, {steps} steps, {elapsed:.1f}s")


def test_acceptance_4_max_on_trace(max_principle_matrix):
    runs, _ = max_principle_matrix
    checked = 0
    for m, sigma, trial, traj in runs:
        for diag in traj.diagnostics:
            _, k = diag.argmax
            assert k == 0, (
                f"(m={m}, sigma={sigma}, trial={trial}) step {diag.j}: "
                f"global argmax at k = {k}")
            checked += 1
    _report(4, "global argmax sits on the trace row (k = 0) at every step",
            f"{checked} steps checked")


# ---------------------------------------------------------------------------
# 5. homogeneous solve vanishes; repeated runs are bitwise identical


def test_acceptance_5_uniqueness_and_determinism(tmp_path):
    grid = core.Grid(2.0, 2.0, 16, 8)
    op = extension_op.assemble(grid, 0.7, 2, 1)
    P = extension_op.solve_interior(op, np.zeros(grid.I - 1))
    assert float(np.abs(P).max()) <= 1e-12

    cfg = SolverConfig(sigma=0.7, m=2.0, X=2.0, Y=2.0, T=0.1, I=16, K=8, J=16)
    data = initial_data_preset("bump")
    paths = []
    for run in range(2):
        extension_op._cache.clear()         # two independent builds, not one shared operator
        traj = marcher.march(cfg, data, capture=np.arange(cfg.J + 1) * cfg.dt)
        path = tmp_path / f"run{run}.csv"
        marcher.write_trace_csv(traj, path)
        paths.append(path)
    first, second = (p.read_bytes() for p in paths)
    assert first == second
    _report(5, "zero-data solve is exactly zero; repeat runs byte-identical",
            f"{len(first)} byte CSV")


# ---------------------------------------------------------------------------
# 6. sparse solve vs dense reference; PV quadrature vs Fourier symbol


def test_acceptance_6_oracle_equivalence():
    worst_rel = 0.0
    rng = np.random.default_rng(7)
    for I, K, c, d, sigma in ((8, 6, 2, 1, 0.7), (8, 8, 2, 2, 1.5),
                              (6, 4, 2, 1, 1.0), (9, 9, 2, 1, 0.4)):
        dx = 0.25
        grid = core.Grid(X=I * dx / 2.0, Y=K * dx, I=I, K=K)
        trace = rng.uniform(0.0, 1.0, I - 1)
        op = extension_op.assemble(grid, sigma, c, d)
        sparse_vals = extension_op.solve_interior(op, trace).T
        dense_vals = oracles.dense_extension_solve(I, K, dx, sigma, trace, c, d)
        rel = float(np.abs(sparse_vals - dense_vals).max()
                    / np.abs(dense_vals).max())
        worst_rel = max(worst_rel, rel)
    assert worst_rel <= 1e-9

    worst_sym = 0.0
    for sigma in (0.5, 1.0, 1.5):
        for omega in (1.0, 2.0, 3.0):
            for x in (0.0, 0.3):
                val = oracles.frac_laplacian_pv(
                    lambda s, w=omega: math.cos(w * s), x, sigma)
                worst_sym = max(worst_sym,
                                abs(val - omega ** sigma * math.cos(omega * x)))
    assert worst_sym <= 1e-6
    _report(6, "sparse = dense to 1e-9; PV matches the symbol to 1e-6",
            f"rel {worst_rel:.2e}, symbol err {worst_sym:.2e}")


# ---------------------------------------------------------------------------
# 7. end-to-end convergence


def test_acceptance_7_convergence_orders():
    t0 = time.perf_counter()
    # m = 1 against the spectral reference: quantitative order
    rep = run_convergence(1.0, 1.0, OPTIMAL, levels=4,
                          setup=StudySetup(cfl_safety=0.25))
    errs = [r.err_trace for r in rep.rows]
    assert all(a > b for a, b in zip(errs, errs[1:])), f"errors not decreasing: {errs}"
    final = rep.rows[-1].order
    assert final is not None and abs(final - 1.0) <= 0.3, (
        f"final order {final} outside 1 +- 0.3")

    # m > 1 property-based substitute: decreasing errors, positive orders
    nonlinear_setup = StudySetup(X=2.0, Y=2.0, T=0.25, base_i=8,
                                 data=initial_data_preset("bump"))
    sub_orders = {}
    for sigma in (0.5, 1.5):
        sub = run_convergence(sigma, 2.0, PRACTICAL, levels=3, setup=nonlinear_setup)
        sub_errs = [r.err_trace for r in sub.rows]
        assert all(a > b for a, b in zip(sub_errs, sub_errs[1:])), (
            f"(m=2, sigma={sigma}) errors not decreasing: {sub_errs}")
        orders = [r.order for r in sub.rows if r.order is not None]
        assert orders and all(o > 0 for o in orders), (
            f"(m=2, sigma={sigma}) non-positive order in {orders}")
        sub_orders[sigma] = orders[-1]
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _report(7, "linear order 2-sigma reproduced; nonlinear errors shrink",
            f"final {final:.3f}; m=2 orders "
            + " ".join(f"{s}:{v:.2f}" for s, v in sub_orders.items())
            + f"; {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 8. scheme-parameter tables


def test_acceptance_8_scheme_parameter_tables():
    # higher-accuracy table: target a = 2(2-sigma) below sigma = 1, else 2
    optimal_rows = {0.3: (4, 4), 0.5: (4, 4), 0.7: (3, 4),
                    1.0: (2, None), 1.2: (3, 4), 1.7: (3, 4)}
    for sigma, (c, d) in optimal_rows.items():
        got = select_scheme_params(sigma, OPTIMAL)
        assert (got.c, got.d) == (c, d), f"optimal sigma={sigma}: got {got}"
        want_a = 2.0 * (2.0 - sigma) if sigma < 1.0 else 2.0
        want_p = (2.0 - sigma) if sigma < 1.0 else (1.0 if sigma == 1.0 else sigma)
        assert (got.a, got.p) == (want_a, want_p)

    # bare-minimum table: target a = sigma + delta with dt ~ dx^sigma
    minimal_rows = {0.3: (1, 1), 0.5: (1, 2), 0.7: (1, 2), 1.0: (2, None),
                    1.2: (2, 3), 1.5: (3, 4), 1.7: (3, 4)}
    for sigma, (c, d) in minimal_rows.items():
        got = select_scheme_params(sigma, SchemeMode("minimal", 0.05))
        assert (got.c, got.d) == (c, d), f"minimal sigma={sigma}: got {got}"
        assert got.a == pytest.approx(sigma + 0.05) and got.p == sigma
    _report(8, "both stencil-selection tables reproduced row for row",
            f"{len(optimal_rows) + len(minimal_rows)} rows")


# ---------------------------------------------------------------------------
# 9. domain-truncation scaling laws


def test_acceptance_9_truncation_scaling_laws():
    rng = np.random.default_rng(99)
    for _ in range(50):
        sigma = float(rng.uniform(0.05, 1.95))
        m = float(rng.uniform(1.0, 4.0))
        n_dim = int(rng.integers(1, 4))
        X = float(rng.uniform(0.5, 8.0))
        T = float(rng.uniform(0.1, 4.0))
        C = float(rng.uniform(0.5, 3.0))
        beta = oracles.barenblatt_exponents(n_dim, m, sigma).beta

        base = oracles.lateral_bound(X, T, n_dim, m, sigma, C=C)
        assert oracles.lateral_bound(2.0 * X, T, n_dim, m, sigma, C=C) == (
            pytest.approx(base / 2.0 ** (n_dim + sigma), rel=1e-12))
        assert oracles.lateral_bound(X, 2.0 * T, n_dim, m, sigma, C=C) == (
            pytest.approx(base * 2.0 ** (beta * sigma), rel=1e-12))

        dx = float(rng.uniform(0.01, 0.9))
        a = float(rng.uniform(0.2, 4.0))
        L = float(rng.uniform(0.5, 2.0))
        w = oracles.min_domain_half_width(dx, a, n_dim, sigma, L=L)
        assert oracles.min_domain_half_width(dx / 2.0, a, n_dim, sigma, L=L) == (
            pytest.approx(w * 2.0 ** (a / (n_dim + sigma)), rel=1e-12))

    ladder = [oracles.min_domain_half_width(2.0 ** -k, 2.0, 1, 1.0)
              for k in range(1, 31)]
    assert all(b > a for a, b in zip(ladder, ladder[1:]))
    assert ladder[-1] > 1e6 * ladder[0]
    _report(9, "truncation bounds obey their power laws to 1e-12; "
               "half-width diverges as dx -> 0",
            "50 randomized draws")
