"""Experiment layer: scheme-parameter tables, order estimation, refinement
studies, the embedded quotient-error table, and the cross-module validation
suite (with faults injected through the module attributes it calls, which
prove the checks can fail).
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import fracpme.core as core
import fracpme.harness as harness
import fracpme.oracles as oracles
from fracpme.core import ConfigError, initial_data_preset
from fracpme.harness import (
    OPTIMAL,
    PRACTICAL,
    ConvergenceReport,
    SchemeMode,
    SchemeParams,
    StudySetup,
    bridge_order_fit,
    estimate_order,
    run_convergence,
    run_sigma_table,
    run_validate,
    select_scheme_params,
    write_loglog_svg,
)


# ---------------------------------------------------------------------------
# scheme modes


def test_scheme_mode_parse_and_label():
    assert SchemeMode.parse("optimal") == OPTIMAL
    assert SchemeMode.parse(" Practical ") == PRACTICAL
    mode = SchemeMode.parse("minimal:0.5")
    assert mode.kind == "minimal" and mode.delta == 0.5
    assert mode.label() == "minimal:0.5"
    assert OPTIMAL.label() == "optimal"


def test_scheme_mode_rejects_bad_specs():
    with pytest.raises(ConfigError):
        SchemeMode("turbo")
    with pytest.raises(ConfigError):
        SchemeMode("minimal")                 # needs delta
    with pytest.raises(ConfigError):
        SchemeMode("minimal", -0.1)
    with pytest.raises(ConfigError):
        SchemeMode("optimal", 0.5)            # takes no delta
    with pytest.raises(ConfigError):
        SchemeMode.parse("minimal:nope")


@pytest.mark.parametrize("spec,message", [
    ("minimal:-1", "^minimal mode needs delta > 0$"),
    ("minimal:0", "^minimal mode needs delta > 0$"),
    ("minimal:nan", "^minimal mode needs delta > 0$"),
    ("minimal:nope", "^bad minimal mode spec 'minimal:nope'$"),
])
def test_scheme_mode_parse_leaves_the_delta_to_scheme_mode(spec, message):
    # parse refuses only text that is not a number; SchemeMode judges the number
    with pytest.raises(ConfigError, match=message):
        SchemeMode.parse(spec)


OPTIMAL_ROWS = [
    # sigma -> (a, c, d, p, has_note)
    (0.3, 3.4, 4, 4, 1.7, False),
    (0.5, 3.0, 4, 4, 1.5, True),
    (0.75, 2.5, 3, 4, 1.25, False),
    (1.0, 2.0, 2, None, 1.0, False),
    (1.3, 2.0, 3, 4, 1.3, False),
    (1.5, 2.0, 3, 4, 1.5, False),
    (1.9, 2.0, 3, 4, 1.9, False),
]

PRACTICAL_ROWS = [
    (0.3, 0.6, 2, 2, 0.3, False),
    (0.5, 1.0, 2, 3, 0.5, True),
    (0.75, 1.5, 2, 3, 0.75, False),
    (1.0, 2.0, 2, None, 1.0, False),
    (1.5, 2.0, 3, 4, 1.5, False),
]


@pytest.mark.parametrize("sigma,a,c,d,p,noted", OPTIMAL_ROWS)
def test_optimal_table(sigma, a, c, d, p, noted):
    got = select_scheme_params(sigma, OPTIMAL)
    assert (got.a, got.c, got.d, got.p) == (a, c, d, p)
    assert (got.note is not None) == noted


@pytest.mark.parametrize("sigma,a,c,d,p,noted", PRACTICAL_ROWS)
def test_practical_table(sigma, a, c, d, p, noted):
    got = select_scheme_params(sigma, PRACTICAL)
    assert (got.a, got.c, got.d, got.p) == (a, c, d, p)
    assert (got.note is not None) == noted


def test_minimal_table_rows():
    got = select_scheme_params(0.3, SchemeMode("minimal", 0.2))
    assert (got.a, got.c, got.d, got.p) == (0.5, 1, 1, 0.3)
    got = select_scheme_params(0.5, SchemeMode("minimal", 0.5))
    assert (got.c, got.d) == (1, 2)
    assert got.note is not None
    got = select_scheme_params(1.0, SchemeMode("minimal", 0.3))
    assert (got.c, got.d) == (2, None)
    got = select_scheme_params(1.2, SchemeMode("minimal", 0.4))
    assert (got.c, got.d) == (2, 3)
    got = select_scheme_params(1.5, SchemeMode("minimal", 0.4))
    assert (got.c, got.d) == (3, 4)
    assert got.note is not None


def test_minimal_mode_validates_attainability():
    # a = sigma + delta beyond what the table pair delivers must be refused
    with pytest.raises(ConfigError):
        select_scheme_params(0.5, SchemeMode("minimal", 0.6))  # asks 1.1 > 1.0
    with pytest.raises(ConfigError):
        select_scheme_params(0.3, SchemeMode("minimal", 0.5))  # asks 0.8 > 0.7


def _below(s):
    return math.nextafter(s, 0.0)


def _above(s):
    return math.nextafter(s, 2.0)


# every sigma-region of the tables, with both float neighbours of each breakpoint
REGION_SIGMAS = (0.25, _below(0.5), 0.5, _above(0.5), 0.75, _below(1.0), 1.0, _above(1.0),
                 1.25, _below(1.5), 1.5, _above(1.5), 1.75)

# per mode, one row per REGION_SIGMAS: (c, d, a, p, note present) or ConfigError;
# then the sigma and report target of a small m = 2 study
REGION_TABLES = [
    (OPTIMAL, [
        (4, 4, 3.5, 1.75, False), (4, 4, 3.0, 1.5, False), (4, 4, 3.0, 1.5, True),
        (3, 4, 3.0, 1.5, False), (3, 4, 2.5, 1.25, False), (3, 4, 2.0, 1.0, False),
        (2, None, 2.0, 1.0, False), (3, 4, 2.0, 1.0, False), (3, 4, 2.0, 1.25, False),
        (3, 4, 2.0, 1.5, False), (3, 4, 2.0, 1.5, False), (3, 4, 2.0, 1.5, False),
        (3, 4, 2.0, 1.75, False),
    ], 0.75, 1.25),
    (PRACTICAL, [
        (2, 2, 0.5, 0.25, False), (2, 2, 1.0, 0.5, False), (2, 3, 1.0, 0.5, True),
        (2, 3, 1.0, 0.5, False), (2, 3, 1.5, 0.75, False), (2, 3, 2.0, 1.0, False),
        (2, None, 2.0, 1.0, False), (3, 4, 2.0, 1.0, False), (3, 4, 2.0, 1.25, False),
        (3, 4, 2.0, 1.5, False), (3, 4, 2.0, 1.5, False), (3, 4, 2.0, 1.5, False),
        (3, 4, 2.0, 1.75, False),
    ], 0.75, 0.75),
    (SchemeMode("minimal", 0.05), [
        (1, 1, 0.3, 0.25, False), ConfigError, (1, 2, 0.55, 0.5, True),
        (1, 2, 0.55, 0.5, False), (1, 2, 0.8, 0.75, False), ConfigError,
        (2, None, 1.05, 1.0, False), (2, 3, 1.05, 1.0, False), (2, 3, 1.3, 1.25, False),
        ConfigError, (3, 4, 1.55, 1.5, True), (3, 4, 1.55, 1.5, False),
        (3, 4, 1.8, 1.75, False),
    ], 1.25, 0.05),
]


@pytest.mark.parametrize("mode,rows,study_sigma,target", REGION_TABLES,
                         ids=[mode.label() for mode, *_ in REGION_TABLES])
def test_tables_on_every_region_and_breakpoint(mode, rows, study_sigma, target):
    for sigma, want in zip(REGION_SIGMAS, rows, strict=True):
        if want is ConfigError:
            with pytest.raises(ConfigError, match="only reaches"):
                select_scheme_params(sigma, mode)
            continue
        got = select_scheme_params(sigma, mode)
        assert (got.c, got.d, got.note is not None) == (want[0], want[1], want[4]), sigma
        assert (got.a, got.p) == pytest.approx(want[2:4], rel=1e-12), sigma
    setup = StudySetup(X=2.0, Y=2.0, T=0.05, base_i=8, data=initial_data_preset("bump"))
    assert run_convergence(study_sigma, 2.0, mode, 2, setup).target == target


# ---------------------------------------------------------------------------
# order estimation


def test_estimate_order_exact_power_law():
    assert estimate_order(0.5 ** 1.7, 0.25 ** 1.7, 0.5, 0.25) == pytest.approx(
        1.7, rel=1e-12)


def test_estimate_order_on_rounded_table_entries():
    # the embedded quotient table carries 1.0340 at (sigma=1, y=0.125) because
    # it is fitted from unrounded errors; refitting from the 4-decimal rounded
    # entries gives 1.0339 -- both are checked so the distinction stays visible
    got = estimate_order(0.2580, 0.1260, 0.25, 0.125)
    assert round(got, 4) == 1.0339
    assert abs(got - 1.0340) < 1.5e-4


@given(scale=st.floats(1e-6, 1e6), e1=st.floats(0.01, 10.0),
       ratio=st.floats(1.1, 20.0))
def test_estimate_order_is_scale_invariant(scale, e1, ratio):
    e2 = e1 / ratio
    base = estimate_order(e1, e2, 0.5, 0.25)
    assert estimate_order(scale * e1, scale * e2, 0.5, 0.25) == pytest.approx(
        base, rel=1e-9, abs=1e-9)
    # swapping the two levels measures the same slope
    assert estimate_order(e2, e1, 0.25, 0.5) == pytest.approx(base, rel=1e-12)


def test_estimate_order_rejects_bad_inputs():
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            estimate_order(bad, 1.0, 0.5, 0.25)
        with pytest.raises(ValueError):
            estimate_order(1.0, 1.0, bad, 0.25)
    with pytest.raises(ValueError):
        estimate_order(1.0, 0.5, 0.25, 0.25)


# ---------------------------------------------------------------------------
# embedded quotient-error table


def test_sigma_table_matches_embedded_values():
    res = run_sigma_table()
    assert res.ok, res.mismatches
    assert res.csv.startswith("sigma,y,E,alpha,sigma_e\n")
    assert "1.0000,0.1250,0.1260,1.0340,0.9660" in res.csv


def test_sigma_table_single_row_and_passthrough():
    res = run_sigma_table(sigmas=(1.0,))
    assert res.ok
    assert "0.5000,0.5000" not in res.csv
    # a sigma without embedded expectations rides along unchecked
    res = run_sigma_table(sigmas=(0.75, 1.0))
    assert res.ok
    assert "0.7500,0.5000" in res.csv


def test_sigma_table_skips_off_ladder_heights():
    res = run_sigma_table(sigmas=(0.5,), ys=(0.3, 0.15))
    assert res.ok and res.mismatches == ()


@pytest.mark.parametrize("sigmas,ys,line", [
    (None, (0.5, 0.125), "0.5000,0.1250,0.0223,1.5864,0.4136"),
    ((0.5,), (0.25, 0.0625), "0.5000,0.0625,0.0078,1.5213,0.4787"),
    ((1.5,), (0.5, 0.3, 0.25, 0.125), "1.5000,0.1250,0.5345,0.5340,1.4660")])
def test_sigma_table_fits_over_a_gap_are_not_checked(sigmas, ys, line):
    # alpha and sigma_e over a gap differ from the table's consecutive fits; E still matches
    res = run_sigma_table(sigmas=sigmas, ys=ys)
    assert res.ok, res.mismatches
    assert line in res.csv.split("\n")


def test_sigma_table_checks_e_on_a_gapped_ladder(monkeypatch):
    quotient = oracles.discrete_sigma_derivative
    monkeypatch.setattr(oracles, "discrete_sigma_derivative",
                        lambda v0, vy, y, sigma: 1.01 * quotient(v0, vy, y, sigma))
    res = run_sigma_table(sigmas=(0.5,), ys=(0.25, 0.0625))
    assert [(mm.y, mm.column) for mm in res.mismatches] == [(0.25, "E"), (0.0625, "E")]


def test_sigma_table_detects_a_planted_mismatch(monkeypatch):
    bad = {"E": (0.2008, 0.0645, 0.0223, 0.9999),
           "alpha": (None, 1.6388, 1.5340, 1.5085),
           "sigma_e": (None, 0.3612, 0.4660, 0.4915)}
    monkeypatch.setitem(harness.TABLE_EXPECTED, 0.5, bad)
    res = run_sigma_table(sigmas=(0.5,))
    assert not res.ok
    assert len(res.mismatches) == 1
    mm = res.mismatches[0]
    assert (mm.sigma, mm.y, mm.column, mm.expected) == (0.5, 0.0625, "E", 0.9999)
    assert mm.computed == pytest.approx(0.0078, abs=5e-5)


# ---------------------------------------------------------------------------
# validation suite and injected faults


def test_bridge_order_fit_sees_two_minus_sigma():
    slope, errs = bridge_order_fit(0.5)
    assert slope == pytest.approx(1.5, abs=0.15)
    assert all(e > 0 for e in errs)


def test_validate_passes_clean():
    res = run_validate()
    assert res.ok
    names = [c.name for c in res.checks]
    assert names == ["fourier-symbol", "trace-bridge sigma=0.5",
                     "trace-bridge sigma=1.0", "trace-bridge sigma=1.5",
                     "dense-equivalence"]
    text = res.summary()
    assert text.count("PASS") >= 5 and "validation PASSED" in text


def test_validate_catches_a_scaled_normalization_constant(monkeypatch):
    # a 1% error in mu_sigma leaves a signal that does not vanish with y, so
    # the fitted bridge slope flattens where the genuine residual decays fastest
    mu_sigma = core.mu_sigma
    monkeypatch.setattr(core, "mu_sigma", lambda sigma: 1.01 * mu_sigma(sigma))
    res = run_validate()
    assert not res.ok
    failed = [c.name for c in res.checks if not c.passed]
    assert failed == ["trace-bridge sigma=0.5"]
    assert "validation FAILED" in res.summary()


def test_validate_catches_a_loosened_quadrature(monkeypatch):
    pv = oracles.frac_laplacian_pv
    monkeypatch.setattr(oracles, "frac_laplacian_pv",
                        lambda fn, x, sigma, tol: pv(fn, x, sigma, tol=1e-2))
    res = run_validate()
    failed = [c.name for c in res.checks if not c.passed]
    assert "fourier-symbol" in failed


# ---------------------------------------------------------------------------
# refinement studies


def small_linear_setup():
    return StudySetup(X=16.0, Y=16.0, T=0.5, base_i=16)


def test_convergence_linear_reference_is_spectral():
    rep = run_convergence(1.0, 1.0, PRACTICAL, levels=2, setup=small_linear_setup())
    assert rep.reference == "spectral"
    assert not rep.degenerate
    assert len(rep.rows) == 2
    assert rep.rows[0].order is None and rep.rows[1].order is not None
    assert all(r.err_trace > 0 and r.err_field is None for r in rep.rows)
    assert rep.rows[0].I == 16 and rep.rows[1].I == 32
    assert rep.rows[1].dx == pytest.approx(rep.rows[0].dx / 2)
    assert rep.target == pytest.approx(1.0)


def test_convergence_linear_reference_is_one_oracle_call(monkeypatch):
    # the finest level's nodes, which hold every level's, go to one
    # shared-node quadrature
    calls = []
    oracle = oracles.fractional_heat_solution

    def counted(*args, **kwargs):
        calls.append(np.shape(args[1]))
        return oracle(*args, **kwargs)

    monkeypatch.setattr(oracles, "fractional_heat_solution", counted)
    run_convergence(1.0, 1.0, PRACTICAL, levels=3, setup=small_linear_setup())
    assert calls == [(65,)]


def test_convergence_nonlinear_reference_is_fine_grid():
    setup = StudySetup(X=2.0, Y=2.0, T=0.25, base_i=8,
                       data=initial_data_preset("bump"))
    rep = run_convergence(0.5, 2.0, PRACTICAL, levels=2, setup=setup)
    assert rep.reference == "fine-grid"
    assert all(r.err_trace > 0 and r.err_field is not None for r in rep.rows)
    assert rep.rows[1].err_trace < rep.rows[0].err_trace


def test_convergence_zero_data_is_degenerate():
    setup = StudySetup(X=2.0, Y=2.0, T=0.25, base_i=8,
                       data=initial_data_preset("zero"))
    rep = run_convergence(0.5, 2.0, PRACTICAL, levels=2, setup=setup)
    assert rep.degenerate
    assert all(r.order is None for r in rep.rows)
    assert "degenerate=true" in rep.to_csv()


def test_convergence_guards():
    with pytest.raises(ConfigError):
        run_convergence(1.0, 1.0, PRACTICAL, levels=1)
    for levels in (2.5, 2.0, "3", None):
        with pytest.raises(ConfigError, match="integer"):
            run_convergence(1.0, 1.0, OPTIMAL, levels)
    setup = StudySetup(X=2.0, Y=2.0, T=0.25, base_i=8,
                       data=initial_data_preset("bump"))
    with pytest.raises(ConfigError, match="gaussian"):
        run_convergence(1.0, 1.0, PRACTICAL, levels=2, setup=setup)
    bad_geometry = StudySetup(X=2.0, Y=1.7, T=0.25, base_i=8)
    with pytest.raises(ConfigError, match="mesh must be square"):
        run_convergence(1.0, 1.0, PRACTICAL, levels=2, setup=bad_geometry)


@pytest.mark.parametrize("X,Y,message", [
    (2.0, 0.1, r"^need integer I >= 2 and K >= 1, got I=8, K=0"),
    # Y/dx overflows to inf, which round() once raised OverflowError on
    (1e-300, 1e10, r"^need integer I >= 2 and K >= 1, got I=8, K=inf$"),
    # dx = 2X/I underflows to 0, which Y/dx once divided by (ZeroDivisionError)
    (5e-324, 1.0, r"^need integer I >= 2 and K >= 1, got I=8, K=inf$"),
    (5e-324, 1e-20, r"^mesh must be square with a finite width dx > 0: dx = 2X/I = 0\.0"),
])
def test_study_rung_mesh_is_judged_by_grid(monkeypatch, X, Y, message):
    calls = []
    monkeypatch.setattr(harness.marcher, "march", lambda *args, **kwargs: calls.append(args))
    setup = StudySetup(X=X, Y=Y, T=0.25, base_i=8, data=initial_data_preset("bump"))
    with pytest.raises(ConfigError, match=message):
        run_convergence(1.0, 2.0, PRACTICAL, levels=2, setup=setup)
    assert calls == []


@pytest.mark.parametrize("sigma,m,mode,extent,data,message", [
    # p = sigma: dx^p / dx^sigma once underflowed to 0 / 0 (ZeroDivisionError); as one
    # power it is 1, and the CFL step itself needs a J beyond the trace history's bound
    (1.5, 2.0, PRACTICAL, 1e-150, "bump", r"^J = \d+ too large: the \(J\+1\) x \(I\+1\)"),
    # the capped step, about 1e-341, underflows to 0 (ZeroDivisionError)
    (0.3, 2.0, OPTIMAL, 1e-200, "bump", r"^J must be a positive integer, got inf$"),
    # a subnormal step whose T/dt overflows to inf (OverflowError from ceil)
    (0.5, 10.0, OPTIMAL, 1e-25, "constant:1e30", r"^J must be a positive integer, got inf$"),
])
def test_study_step_too_small_to_count_is_refused_before_the_first_march(
        monkeypatch, sigma, m, mode, extent, data, message):
    calls = []
    monkeypatch.setattr(harness.marcher, "march", lambda *args, **kwargs: calls.append(args))
    setup = StudySetup(X=extent, Y=extent, base_i=16, data=core.parse_initial_data(data))
    with pytest.raises(ConfigError, match=message):
        run_convergence(sigma, m, mode, levels=2, setup=setup)
    assert calls == []


def test_study_on_a_huge_domain_takes_the_cfl_step():
    # dx = 2^-3 * 1e300: dx^p once overflowed (OverflowError); the accuracy rule's
    # ratio dx^(p - sigma) is at least 1 here, so the CFL step is the study's step
    setup = StudySetup(X=1e300, Y=1e300, base_i=16, data=initial_data_preset("bump"))
    cfg = harness._study_config(0.3, 2.0, harness.select_scheme_params(0.3, OPTIMAL), setup, 16)
    b_max = float(harness.marcher.initial_trace_w(cfg, setup.data).max())
    dt = setup.cfl_safety * core.cfl_max_dt(2.0, b_max, 0.3, cfg.dx)
    assert cfg.J == max(1, math.ceil(setup.T / dt - 1e-12))


@pytest.mark.parametrize("cfl_safety", [1.5, 0.0, -0.5, math.nan])
def test_study_setup_refuses_a_cfl_safety_each_level_would(monkeypatch, cfl_safety):
    # StudySetup holds cfl_safety as given; the first rung's SolverConfig refuses it
    # with its own message, before any march (1.5 once got as far as the first march)
    with pytest.raises(ConfigError) as by_config:
        core.SolverConfig(sigma=1.0, m=1.0, X=2.0, Y=2.0, T=0.25, I=8, K=8, J=4,
                          cfl_safety=cfl_safety)
    calls = []
    monkeypatch.setattr(harness.marcher, "march", lambda *args, **kwargs: calls.append(args))
    setup = StudySetup(cfl_safety=cfl_safety)
    with pytest.raises(ConfigError, match=r"^cfl_safety must lie in \(0, 1\], got ") as by_study:
        run_convergence(1.0, 1.0, PRACTICAL, 2, setup)
    assert str(by_study.value) == str(by_config.value)
    assert calls == []


@pytest.mark.parametrize("sigma,m,data", [(1.0, 1.0, "gaussian"), (0.5, 2.0, "bump")])
def test_study_setup_stores_an_integral_base_i_as_an_int(monkeypatch, sigma, m, data):
    # 8.0 runs as 8: Grid stores I as an int, and the stride comes from the last
    # rung's I (a float stride once reached ref_trace[::r]); nan, inf, 0 and 8.5
    # are Grid's to refuse, before any march
    reports = [run_convergence(sigma, m, PRACTICAL, 2, StudySetup(
        X=2.0, Y=2.0, T=0.25, base_i=base_i, data=initial_data_preset(data)))
        for base_i in (8, 8.0)]
    assert reports[0].to_csv() == reports[1].to_csv()
    calls = []
    monkeypatch.setattr(harness.marcher, "march", lambda *args, **kwargs: calls.append(args))
    for bad in (math.nan, math.inf, 0, 8.5):
        setup = StudySetup(X=2.0, Y=2.0, T=0.25, base_i=bad, data=initial_data_preset(data))
        with pytest.raises(ConfigError, match=r"^need integer I >= 2 and K >= 1, got I="):
            run_convergence(sigma, m, PRACTICAL, 2, setup)
    assert calls == []


_EXTENTS = r"^domain extents X, Y must be positive and finite, got X="


@pytest.mark.parametrize("name,value,message", [
    *((name, v, _EXTENTS) for name in ("X", "Y") for v in (0.0, -2.0, math.nan, math.inf)),
    *(("T", v, r"^horizon T must be positive and finite, got ")
      for v in (0.0, -1.0, math.nan, math.inf)),
    *(("cfl_safety", v, r"^cfl_safety must lie in \(0, 1\], got ")
      for v in (1.5, 0.0, -0.5, math.nan)),
    *(("base_i", v, r"^need integer I >= 2 and K >= 1, got I=")
      for v in (0, 8.5, math.nan, math.inf)),
])
def test_study_values_are_judged_by_the_first_rung_before_any_march(
        monkeypatch, name, value, message):
    # StudySetup holds every value as given; the first rung's SolverConfig (T,
    # cfl_safety) and its Grid (X, Y, I = base_i) refuse a bad one with their own message
    calls = []
    monkeypatch.setattr(harness.marcher, "march", lambda *args, **kwargs: calls.append(args))
    setup = StudySetup(**{"X": 2.0, "Y": 2.0, "T": 0.25, "base_i": 8,
                          "data": initial_data_preset("bump"), name: value})
    assert getattr(setup, name) is value
    with pytest.raises(ConfigError, match=message):
        run_convergence(0.5, 2.0, PRACTICAL, 2, setup)
    assert calls == []


def test_convergence_refuses_spectral_reference_data_before_marching(monkeypatch):
    calls = []
    march = harness.marcher.march
    monkeypatch.setattr(harness.marcher, "march",
                        lambda *args, **kwargs: calls.append(args) or march(*args, **kwargs))
    setup = StudySetup(X=2.0, Y=2.0, T=0.25, base_i=8, data=initial_data_preset("bump"))
    with pytest.raises(ConfigError, match="gaussian"):
        run_convergence(0.5, 1.0, PRACTICAL, levels=2, setup=setup)
    assert calls == []


def test_convergence_spectral_reference_refuses_a_datum_only_named_gaussian():
    # the oracle solves for the preset exp(-x^2) itself; 2 exp(-x^2) under the
    # same name would be measured against another datum's solution
    doubled = core.InitialData("gaussian", fn=lambda xs: 2.0 * np.exp(-xs ** 2))
    with pytest.raises(ConfigError, match="^the m = 1 spectral reference supports gaussian "
                                          "data only$"):
        run_convergence(1.0, 1.0, PRACTICAL, 2, StudySetup(data=doubled))
    parsed = StudySetup(X=16.0, Y=16.0, T=0.5, base_i=16, data=core.parse_initial_data("gaussian"))
    assert run_convergence(1.0, 1.0, PRACTICAL, 2, parsed).reference == "spectral"


# each study's to_csv(), frozen: the ladder's shape moves no digit of a report
_FROZEN_LINEAR_CSV = (
    "# sigma=1 m=1 mode=practical\n"
    "# stencil c=2 d=None a=2 p=1\n"
    "# reference=spectral target_order=1 degenerate=false\n"
    "dx,dt,err_trace,err_field,order\n"
    "2.0000000000000000e+00,5.0000000000000000e-01,2.2529056601432862e-01,,\n"
    "1.0000000000000000e+00,5.0000000000000000e-01,1.1643291865431593e-01,,0.9523\n")
_FROZEN_NONLINEAR_CSV = (
    "# sigma=0.5 m=2 mode=practical\n"
    "# stencil c=2 d=3 a=1 p=0.5\n"
    "# reference=fine-grid target_order=0.5 degenerate=false\n"
    "dx,dt,err_trace,err_field,order\n"
    "5.0000000000000000e-01,2.5000000000000000e-01,3.3481495662811556e-02,"
    "5.4020955262076176e-02,\n"
    "2.5000000000000000e-01,1.2500000000000000e-01,1.3091426420811292e-02,"
    "2.5193870101343829e-02,1.3547\n")


@pytest.mark.parametrize("sigma,m,setup,ladder,capture,frozen", [
    (1.0, 1.0, small_linear_setup(), [(16, 1), (32, 1)], None, _FROZEN_LINEAR_CSV),
    (0.5, 2.0, StudySetup(X=2.0, Y=2.0, T=0.25, base_i=8, data=initial_data_preset("bump")),
     [(8, 1), (16, 2), (64, 3)], (0.25,), _FROZEN_NONLINEAR_CSV),
], ids=["spectral", "fine-grid"])
def test_convergence_marches_one_ladder(monkeypatch, sigma, m, setup, ladder, capture, frozen):
    # the levels coarse to fine, then for m != 1 the fine-grid reference two
    # halvings past the finest level; only that study reads a field at T
    marches = []
    march = harness.marcher.march
    monkeypatch.setattr(harness.marcher, "march", lambda cfg, data, capture=None: (
        marches.append((cfg.I, cfg.J, capture)) or march(cfg, data, capture=capture)))
    rep = run_convergence(sigma, m, PRACTICAL, 2, setup)
    assert marches == [(I, J, capture) for I, J in ladder]
    assert [r.I for r in rep.rows] == [I for I, _ in ladder[:2]]
    assert rep.to_csv() == frozen


def test_convergence_csv_is_deterministic_and_parseable():
    rep = run_convergence(1.0, 1.0, PRACTICAL, levels=2, setup=small_linear_setup())
    text = rep.to_csv()
    assert text == rep.to_csv()
    lines = text.strip().split("\n")
    assert lines[3] == "dx,dt,err_trace,err_field,order"
    assert len(lines) == 4 + len(rep.rows)
    first = lines[4].split(",")
    assert float(first[0]) == rep.rows[0].dx
    assert float(first[2]) == rep.rows[0].err_trace
    assert first[3] == "" and first[4] == ""


def test_loglog_svg_output(tmp_path):
    rep = run_convergence(1.0, 1.0, PRACTICAL, levels=2, setup=small_linear_setup())
    path = tmp_path / "study.svg"
    write_loglog_svg(rep, path)
    text = path.read_text()
    assert text.startswith("<svg ")
    assert text.count("<circle") == len(rep.rows)
    assert "stroke-dasharray" in text          # the slope guide line

    degenerate = ConvergenceReport(
        sigma=0.5, m=2.0, mode=PRACTICAL,
        params=SchemeParams(a=1.0, c=2, d=3, p=0.5),
        reference="fine-grid", target=0.5, rows=(), degenerate=True)
    path2 = tmp_path / "empty.svg"
    write_loglog_svg(degenerate, path2)
    assert "degenerate study" in path2.read_text()
