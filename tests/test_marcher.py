"""Explicit trace update and the coupled time march.

The structural claims under the CFL restriction are exercised directly:
range preservation of the update, order preservation of the full scheme,
exact zeros on the artificial boundary, stationarity of flat data, and the
linear special case where the update reduces to plain averaging.
"""

import dataclasses
import functools
import inspect
import io
import math
import re
import tracemalloc

import numpy as np
import pytest

from fracpme.core import (
    Field,
    Grid,
    SolverConfig,
    cfl_max_dt,
    initial_data_preset,
    nu_sigma,
    parse_initial_data,
)
from fracpme.errors import (CflViolationError, ConfigError, MaxPrincipleError,
                            NegativeBracketError, SolverError)
from fracpme.marcher import (
    Trajectory,
    boundary_update,
    initial_trace_w,
    initialize,
    march,
    step,
    write_snapshot_csv,
    write_trace_csv,
)
from fracpme import extension_op, marcher
from fracpme.extension_op import assemble


def make_config(**over):
    base = dict(sigma=0.5, m=1.0, X=2.0, Y=1.0, T=0.5, I=8, K=2, J=2)
    base.update(over)
    return SolverConfig(**base)


GAUSS = initial_data_preset("gaussian")


def every_step(cfg):
    """Snapshot times of all J + 1 time levels of cfg."""
    return np.arange(cfg.J + 1) * cfg.dt


# ---------------------------------------------------------------------------
# boundary update


def test_flat_data_is_stationary():
    for m in (1.0, 2.0, 3.0):
        row = np.full(7, 0.6)
        new = boundary_update(row, row, dt=0.01, dx=0.5, sigma=0.5, m=m)
        assert new == pytest.approx(row, rel=1e-14)


def test_linear_case_with_unit_weight_returns_upper_row():
    # m = 1 and dt = dx^sigma / nu_sigma make lambda = 1, so the update
    # hands back the row at height dx exactly
    sigma, dx = 0.7, 0.25
    dt = dx ** sigma / nu_sigma(sigma)
    row0 = np.array([0.0, 0.3, 0.9, 0.1])
    row1 = np.array([0.2, 0.4, 0.5, 0.0])
    new = boundary_update(row0, row1, dt, dx, sigma, m=1.0)
    assert new == pytest.approx(row1, rel=1e-13, abs=1e-15)


def test_linear_case_is_convex_combination():
    sigma, dx = 0.5, 0.5
    dt = 0.4 * dx ** sigma / nu_sigma(sigma)      # lambda = 0.4
    row0 = np.array([1.0, 0.0])
    row1 = np.array([0.0, 1.0])
    new = boundary_update(row0, row1, dt, dx, sigma, m=1.0)
    assert new == pytest.approx([0.6, 0.4], rel=1e-13)


@pytest.mark.parametrize("m", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("sigma", [0.5, 1.0, 1.5])
def test_update_preserves_range_under_cfl(m, sigma):
    # 500 seeded random row pairs in [0, b_max]: the update must stay in the
    # band whenever dt respects the CFL bound, for b_max below 1 as well as
    # above (the bound is evaluated at max f = b_max^(1/m), not at b_max)
    rng = np.random.default_rng(int(10 * m + 100 * sigma))
    dx = 0.25
    for _ in range(500):
        b_max = float(rng.uniform(0.05, 3.0))
        dt = 0.95 * cfl_max_dt(m, b_max, sigma, dx)
        row0 = rng.uniform(0.0, b_max, size=9)
        row1 = rng.uniform(0.0, b_max, size=9)
        new = boundary_update(row0, row1, dt, dx, sigma, m)
        assert new.min() >= 0.0
        assert new.max() <= b_max * (1.0 + 1e-12)


def test_cfl_constant_keeps_the_band_below_unit_b_max():
    # With b_max < 1 and m > 1 the bound must come from max f = b_max^(1/m):
    # evaluated at b_max itself, [m b_max^(m-1) nu]^(-1), it admits this row
    # pair, whose update then overshoots to 0.49 > b_max.  Row0 = b_max^2
    # is where the update's slack is smallest.
    m, sigma, dx = 2.0, 1.0, 0.25
    b_max = 0.4
    dt = cfl_max_dt(m, b_max, sigma, dx)
    assert dt == pytest.approx(dx / (m * math.sqrt(b_max)), rel=1e-14)   # nu_1 = 1
    row0 = np.array([b_max ** 2])
    row1 = np.array([b_max])
    new = boundary_update(row0, row1, dt, dx, sigma, m)
    assert 0.0 <= new[0] <= b_max
    assert new[0] == pytest.approx(0.348, abs=1e-3)


def test_update_monotone_in_upper_row():
    rng = np.random.default_rng(3)
    row0 = rng.uniform(0.0, 1.0, size=11)
    lo = rng.uniform(0.0, 1.0, size=11)
    hi = lo + rng.uniform(0.0, 0.5, size=11)
    dt = 0.9 * cfl_max_dt(2.0, 1.0, 0.5, 0.25)
    new_lo = boundary_update(row0, lo, dt, 0.25, 0.5, 2.0)
    new_hi = boundary_update(row0, hi, dt, 0.25, 0.5, 2.0)
    assert np.all(new_hi >= new_lo - 1e-14)


def test_genuinely_negative_bracket_raises():
    row0 = np.array([0.0, 1.0, 0.0])
    row1 = np.zeros(3)
    # lambda far beyond the stable range drives the middle bracket negative
    with pytest.raises(NegativeBracketError) as ei:
        boundary_update(row0, row1, dt=10.0, dx=0.5, sigma=0.5, m=2.0)
    assert ei.value.index == 1
    assert ei.value.value < -1e-12
    assert ei.value.step is None          # not inside a march


def test_roundoff_scale_negative_bracket_clamps_to_zero():
    # dt chosen so lambda = 6: bracket = 6 * (0 - 1e-13) + 1e-13 = -5e-13,
    # inside the roundoff band, so the update clamps to 0 instead of raising
    sigma, dx = 0.5, 1.0
    row0 = np.array([1e-13])
    row1 = np.zeros(1)
    dt = 6.0 / nu_sigma(sigma)
    new = boundary_update(row0, row1, dt, dx, sigma, m=1.0)
    assert new[0] == 0.0


@pytest.mark.parametrize("m", [1.0, 1.5, 2.0, 3.0])
def test_update_in_place_is_the_clipped_power_bit_for_bit(m):
    # on rows with zeros of both signs and a roundoff-scale negative bracket,
    # the in-place clamp and power give the bits of clip(bracket, 0, None) ** m
    rng = np.random.default_rng(int(10 * m))
    rest = rng.random(60)
    row0 = np.r_[-0.0, 0.0, -0.0, 1e-13, rest]
    row1 = np.r_[-0.0, -0.0, 0.0, 0.0, rest + rng.random(60)]
    lam = 6.0
    want = np.clip(lam * (row1 - row0) + np.maximum(row0, 0.0) ** (1.0 / m), 0.0, None) ** m
    got = boundary_update(row0, row1, lam / nu_sigma(0.5), 1.0, 0.5, m)
    assert got.tobytes() == want.tobytes()


def test_dx_power_underflow_and_lambda_overflow_are_refused():
    # dx > 0 whose dx^sigma underflows to 0, and lambda = nu dt / dx^sigma = inf:
    # these raised ZeroDivisionError or returned NaN rows
    rows = dict(row0=np.ones(3), row1=np.ones(3), sigma=1.9, m=2.0)
    with pytest.raises(ValueError, match=r"dx\^sigma = 1e-300\^1.9 is not a positive finite"):
        boundary_update(**rows, dt=0.01, dx=1e-300)
    with pytest.raises(ValueError, match="lambda = nu_sigma dt / dx\\^sigma overflows"):
        boundary_update(**rows, dt=1e300, dx=1e-10)
    with pytest.raises(ValueError, match=r"dx\^sigma = 1e-300\^1.9"):
        cfl_max_dt(2.0, 1.0, 1.9, 1e-300)
    cfg = SolverConfig(sigma=1.9, m=2.0, X=1e-300, Y=2e-300, T=0.1, I=2, K=2, J=10)
    with pytest.raises(ConfigError, match=r"dx\^sigma = 1e-300\^1.9"):
        march(cfg, GAUSS)


def test_march_refuses_a_cfl_bound_that_underflows():
    # dx^sigma = 1e-285 is fine, but over m (max f)^(m-1) nu = 2e150 the bound
    # underflows to 0; composing the message divided by it (ZeroDivisionError)
    cfg = SolverConfig(sigma=1.9, m=2.0, X=1e-150, Y=2e-150, T=0.1, I=2, K=2, J=10)
    with pytest.raises(CflViolationError, match="increase J to at least inf$"):
        march(cfg, lambda xs: np.full_like(xs, 1e150))


def test_update_validates_inputs():
    with pytest.raises(ValueError):
        boundary_update(np.zeros(3), np.zeros(4), 0.1, 0.5, 0.5, 1.0)
    with pytest.raises(ValueError):
        boundary_update(np.array([np.nan]), np.zeros(1), 0.1, 0.5, 0.5, 1.0)
    with pytest.raises(ValueError):
        boundary_update(np.array([-1.0]), np.zeros(1), 0.1, 0.5, 0.5, 1.0)
    with pytest.raises(ValueError):
        boundary_update(np.zeros(1), np.zeros(1), 0.1, 0.5, 0.5, 0.5)


# ---------------------------------------------------------------------------
# initialization


def test_initial_trace_is_data_to_the_m():
    cfg = make_config(m=2.0)
    row = initial_trace_w(cfg, GAUSS)
    xs = cfg.grid().xs
    assert row.shape == (cfg.I - 1,)
    assert row == pytest.approx(np.exp(-xs[1:-1] ** 2) ** 2, rel=1e-14)


@pytest.mark.parametrize("m", [1.0, 2.0, 3.5])
def test_initial_trace_is_one_row_for_every_form_of_the_datum(m):
    # an InitialData, its bare callable and its sampled array give bitwise the same row
    cfg = make_config(m=m)
    rows = [initial_trace_w(cfg, f) for f in (GAUSS, GAUSS.fn, GAUSS.fn(cfg.grid().xs))]
    assert all(r.tobytes() == rows[0].tobytes() for r in rows[1:])


def test_initial_trace_refuses_an_overflowing_f_to_the_m():
    cfg = make_config(m=2.0)
    with pytest.raises(ConfigError, match="f\\^m overflows at m = 2"):
        initial_trace_w(cfg, np.full(cfg.I + 1, 1e200))
    # only the interior is raised to the m-th power: a huge corner value is Dirichlet data
    data = np.r_[1e200, np.ones(cfg.I - 1), 1e200]
    assert np.array_equal(initial_trace_w(cfg, data), np.ones(cfg.I - 1))


def test_initialize_solves_interior():
    cfg = make_config()
    field = initialize(cfg, GAUSS)
    assert field.time_index == 0
    assert field.values.shape == (9, 3)
    assert np.array_equal(field.values[1:-1, 0], initial_trace_w(cfg, GAUSS))
    inner = field.values[1:-1, 1]
    assert inner.min() > 0.0
    assert inner.max() < 1.0


def test_initialize_rejects_negative_data():
    with pytest.raises(ValueError, match="nonnegative"):
        initialize(make_config(), lambda xs: -np.ones_like(xs))


def test_initialize_accepts_plain_arrays():
    cfg = make_config()
    samples = np.zeros(9)
    samples[4] = 1.0
    field = initialize(cfg, samples)
    assert field.values[4, 0] == 1.0
    with pytest.raises(ValueError):
        initialize(cfg, np.zeros(5))


@pytest.mark.parametrize("f", [lambda xs: 1.0, lambda xs: np.ones(3), lambda xs: np.ones((9, 1))],
                         ids=["scalar", "three-samples", "column"])
def test_march_refuses_a_callable_of_the_wrong_shape(f):
    # a callable's samples are checked like an array's: a scalar raised IndexError,
    # 3 samples were broadcast over the 9 trace nodes, a column raised numpy's error
    with pytest.raises(ConfigError, match=r"initial data must have 9 samples, got \("):
        march(make_config(), f)


@pytest.mark.parametrize("wrap,name", [
    (lambda v: v, "data"),
    (lambda v: lambda xs: v, "data"),
    (lambda v: parse_initial_data("inline:" + ",".join(map(str, v))), "inline"),
], ids=["array", "callable", "inline"])
def test_every_datum_is_refused_by_one_gate_with_one_message(wrap, name):
    # InitialData.sample refuses a bare array or callable as it refuses InitialData:
    # the same shape, sign and, up to the datum's name, non-finite messages
    for values, message in ((np.ones(5), r"^initial data must have 9 samples, got \(5,\)$"),
                            (np.r_[np.ones(8), np.nan], rf"^initial data '{name}' has non-finite"),
                            (np.r_[np.ones(8), -1.0], "^nonnegative initial data required$")):
        with pytest.raises(ConfigError, match=message):
            march(make_config(), wrap(values))


# ---------------------------------------------------------------------------
# single step


def test_zero_field_is_fixed_point():
    cfg = make_config()
    state = Field(np.zeros((9, 3)))
    new = step(state, cfg)
    assert np.all(new.values == 0.0)
    assert new.time_index == 1


def test_step_attaches_no_step_number_outside_march():
    # step() itself performs no CFL check; a crafted state with a huge dt
    # surfaces the bracket failure directly
    cfg = make_config(m=2.0, T=40.0, J=1)         # dt = 40
    vals = np.zeros((9, 3))
    vals[4, 0] = 1.0
    with pytest.raises(NegativeBracketError):
        step(Field(vals), cfg)


def test_initialize_and_step_store_fields_height_major():
    # row k of the field (the trace, row 1) is contiguous, and argmax scans in place
    cfg = make_config(m=2.0)
    state = initialize(cfg, GAUSS)
    assert state.values.T.flags.c_contiguous
    assert step(state, cfg).values.T.flags.c_contiguous


def test_no_marcher_function_takes_an_operator():
    # step, like march and initialize, solves on config's own operator, so no
    # operator of another sigma or pair can be stepped with under this config
    assert list(inspect.signature(step).parameters) == ["state", "config"]
    for name, fn in inspect.getmembers(marcher, inspect.isfunction):
        if fn.__module__ == marcher.__name__:
            assert "op" not in inspect.signature(fn).parameters, name
    cfg = make_config(m=2.0, sigma=1.0)
    state = initialize(cfg, GAUSS)
    assemble(cfg.grid(), 0.3, cfg.c, cfg.d)     # another sigma's operator, cached beside it
    want = extension_op._solve(assemble(cfg.grid(), 1.0, cfg.c, cfg.d), boundary_update(
        state.values[1:-1, 0], state.values[1:-1, 1], cfg.dt, cfg.dx, 1.0, cfg.m))
    assert np.array_equal(step(state, cfg).values, want.T)


# ---------------------------------------------------------------------------
# full march


def test_march_shapes_and_band():
    cfg = make_config(J=4)
    traj = march(cfg, GAUSS)
    assert traj.trace_history.shape == (5, 9)
    assert traj.times == pytest.approx(np.arange(5) * cfg.dt)
    assert len(traj.diagnostics) == 5
    assert traj.b_max == pytest.approx(1.0)
    assert 0.0 < traj.cfl_ratio <= cfg.cfl_safety * (1.0 + 1e-12)
    for d in traj.diagnostics:
        assert -1e-10 <= d.w_min and d.w_max <= traj.b_max + 1e-10
        assert d.argmax[1] == 0            # the maximum sits on the trace row


def test_march_initial_level_is_the_data():
    cfg = make_config(m=2.0, J=4)
    xs = cfg.grid().xs
    samples = 1.3 * np.exp(-xs ** 2)
    traj = march(cfg, samples, capture=(0.0,))
    want = samples.copy()
    want[0] = want[-1] = 0.0
    assert traj.trace_history[0] == pytest.approx(want, rel=1e-12)
    assert np.array_equal(traj.snapshots[0][1].values, initialize(cfg, samples).values)
    # the same power expression the study configs use for b_max
    assert traj.b_max == (samples[1:-1] ** cfg.m).max()


def test_march_artificial_boundary_stays_exactly_zero():
    cfg = make_config(m=2.0, sigma=1.0, J=4)
    traj = march(cfg, GAUSS, capture=every_step(cfg))
    assert len(traj.snapshots) == 5
    for _, fld in traj.snapshots:
        assert np.all(fld.values[0, :] == 0.0)
        assert np.all(fld.values[-1, :] == 0.0)
        assert np.all(fld.values[:, -1] == 0.0)


def test_march_is_deterministic():
    cfg = make_config(m=3.0, sigma=1.5, J=4, d=3, K=3, Y=1.5)
    a = march(cfg, GAUSS)
    extension_op._cache.clear()             # two independent builds, not one shared operator
    b = march(cfg, GAUSS)
    assert np.array_equal(a.trace_history, b.trace_history)


def test_records_holding_arrays_compare_by_identity():
    # a field-wise == would compare arrays and raise on their truth value
    cfg = make_config()
    a, b = (march(cfg, GAUSS, capture=every_step(cfg)) for _ in range(2))
    op = assemble(cfg.grid(), 0.5)
    ops = [op, dataclasses.replace(op)]         # one key's operator is shared: copy it
    for left, right in ((a, b), (a.snapshots[0][1], b.snapshots[0][1]), ops):
        assert left == left and left != right


def test_float_counts_march_bitwise_like_ints():
    # 64.0 is a valid count; the solver used to fail on it inside assemble and march
    cfg = make_config(I=16, K=4, J=6)
    ints = march(cfg, GAUSS, capture=every_step(cfg))
    floats = march(make_config(I=16.0, K=4.0, J=6.0), GAUSS, capture=every_step(cfg))
    assert np.array_equal(floats.trace_history, ints.trace_history)
    assert np.array_equal(floats.times, ints.times)
    assert all(np.array_equal(a.values, b.values)
               for (_, a), (_, b) in zip(floats.snapshots, ints.snapshots, strict=True))
    with pytest.raises(ConfigError):
        make_config(I=16.5, K=4)


def fake_budget(monkeypatch, budget):
    """Fake the cgroup's memory limit as the least of the three, budget bytes."""
    for name, limit in (("_physical_memory", 2 * budget), ("_address_space_limit", 2 * budget),
                        ("_cgroup_memory_limit", budget)):
        monkeypatch.setattr(extension_op, name, lambda limit=limit: limit)


def test_trace_history_over_the_memory_budget_is_refused_before_the_first_step(monkeypatch):
    # the budget is faked through the cgroup reader; the 1.6 MB history and up to
    # 6.4 MB of step records are never allocated, and no step is taken
    class FirstStep(Exception):
        pass

    def first_step(*_args):
        raise FirstStep

    cfg = make_config(J=20000)
    need = (cfg.J + 1) * (8 * (cfg.I + 2) + marcher._RECORD_BYTES)
    assert need > 2**20                     # smaller needs fit any budget unread
    fake_budget(monkeypatch, need - 1)
    monkeypatch.setattr(marcher, "_bracket_update", first_step)
    message = (rf"J = 20000 too large at I = 8, K = 2: .* and 0 \(K\+1\) x \(I\+1\) snapshots "
               rf"need {need} bytes, more than the {need - 1} bytes of the cgroup's memory.max$")
    with pytest.raises(ConfigError, match=message):
        march(cfg, GAUSS)
    with pytest.raises(ConfigError, match="capture must be"):   # capture is checked first
        march(cfg, GAUSS, capture="some")
    # after the build, the operator and a solve's working arrays count too
    op = assemble(cfg.grid(), cfg.sigma)
    kept = need + op.nbytes + extension_op._solve_bytes(op)
    fake_budget(monkeypatch, kept - 1)
    with pytest.raises(ConfigError, match=rf"snapshots, with the operator and a solve's arrays, "
                                          rf"need {kept} bytes, more than the {kept - 1} bytes"):
        march(cfg, GAUSS)
    fake_budget(monkeypatch, kept)
    with pytest.raises(FirstStep):          # a budget of exactly the need passes
        march(cfg, GAUSS)


def test_budget_for_the_history_alone_is_refused_before_the_build(monkeypatch):
    # each step also keeps a StepDiagnostics record, about 250 B at I = 8: a budget
    # of the history and its times plus 100 B a step cannot hold the march
    def never(*_args):
        raise AssertionError("the operator was assembled")

    cfg = make_config(J=20000)
    history = 8 * (cfg.J + 1) * (cfg.I + 2)
    fake_budget(monkeypatch, history + 100 * (cfg.J + 1))
    monkeypatch.setattr(extension_op, "assemble", never)
    with pytest.raises(ConfigError, match=r"J\+1 step records and 0 \(K\+1\) x \(I\+1\) snapshots"):
        march(cfg, GAUSS)


def test_counted_need_covers_what_the_march_holds():
    # the traced peak of a march (operator cached before tracing) is within the need
    # the guard counts, and each step adds at most a history row, its time and
    # _RECORD_BYTES; J > 256, so the step numbers are not interned small ints
    cfg = {J: make_config(m=1.0, T=100.0, J=J) for J in (1000, 2000)}
    assemble(cfg[1000].grid(), 0.5)

    def peak(J):
        tracemalloc.start()
        try:
            march(cfg[J], initial_data_preset("bump"))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    per_step = 8 * (cfg[1000].I + 2) + marcher._RECORD_BYTES
    peaks = {J: peak(J) for J in cfg}
    assert peaks[2000] <= 2001 * per_step
    assert peaks[2000] - peaks[1000] <= 1000 * per_step, (peaks[2000] - peaks[1000]) / 1000


@pytest.mark.parametrize("sigma,c,d,on_L", [(0.5, 2, 1, True), (1.5, 3, 4, False)],
                         ids=["L-path", "factor-path"])
def test_counted_need_covers_a_solves_working_arrays(monkeypatch, sigma, c, d, on_L):
    # J = 4 at I = 128, K = 64: node arrays dominate the peak.  The factor residual
    # holds 4 with P (R, T_x's product, scipy's C-ordered copy of P's rows), the L
    # path up to 3 (a row block's G c and its product beside P); a count of 2 node
    # arrays fails both cases
    cfg = make_config(sigma=sigma, c=c, d=d, X=4.0, Y=4.0, I=128, K=64, T=1e-4, J=4)
    op = assemble(cfg.grid(), sigma, c, d)      # cached before tracing: none of it is traced
    assert (op.L is not None) == on_L
    counted = []
    monkeypatch.setattr(extension_op, "check_memory", lambda need, _what: counted.append(need))
    tracemalloc.start()
    try:
        march(cfg, GAUSS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= counted[-1] - op.nbytes, (peak, counted[-1] - op.nbytes)


def test_small_march_reads_no_memory_limit(monkeypatch):
    # a 65 x 65 march and its build each need less than 1 MiB, below any budget:
    # neither reads a limit
    def unread():
        raise AssertionError("a memory limit was read")

    for name in ("_physical_memory", "_address_space_limit", "_cgroup_memory_limit"):
        monkeypatch.setattr(extension_op, name, unread)
    monkeypatch.setattr(extension_op, "_cache", type(extension_op._cache)())
    cfg = SolverConfig(sigma=0.5, m=2.0, X=2.0, Y=4.0, T=0.01, I=64, K=64, J=20)
    traj = march(cfg, GAUSS)
    assert traj.trace_history.shape == (21, 65)


def test_march_enforces_cfl():
    cfg = make_config(J=1, T=5.0)          # dt = 5 is far beyond the bound
    with pytest.raises(CflViolationError) as ei:
        march(cfg, GAUSS)
    msg = str(ei.value)
    assert "increase J to at least" in msg
    suggested = int(msg.rsplit(" ", 1)[-1])
    bound = cfl_max_dt(cfg.m, 1.0, cfg.sigma, cfg.dx)
    assert 5.0 / suggested <= cfg.cfl_safety * bound * (1.0 + 1e-9)


@pytest.mark.parametrize("refusal,error,message", [
    ("negative data", ConfigError, "nonnegative initial data required"),
    ("dx power", ConfigError, r"dx\^sigma = 1e-300\^1.9 is not a positive finite"),
    ("lambda", ConfigError, r"lambda = nu_sigma dt / dx\^sigma overflows"),
    ("cfl", CflViolationError, "increase J to at least"),
    ("capture", ConfigError, "capture must be None or snapshot times, got 'some'"),
    ("history", ConfigError, r"J = 20000 too large at I = 8, K = 2: .* the cgroup's memory.max$"),
    ("snapshots", ConfigError, r"J = 200 too large at I = 64, K = 16: .* and 201 \(K\+1\) x "
                               r"\(I\+1\) snapshots need 1947288 bytes"),
])
def test_march_refuses_before_it_builds_or_solves(monkeypatch, refusal, error, message):
    # every refusal of the config, the data or capture comes before the operator
    # is built and before step 0 is solved
    cfg, f, capture = make_config(), GAUSS, None
    if refusal == "negative data":
        f = -np.ones(cfg.I + 1)
    elif refusal == "dx power":
        cfg = SolverConfig(sigma=1.9, m=2.0, X=1e-300, Y=2e-300, T=0.1, I=2, K=2, J=10)
    elif refusal == "lambda":                  # nu dt / dx^sigma = nu 1e300 / 1e-19
        cfg = SolverConfig(sigma=1.9, m=2.0, X=1e-10, Y=2e-10, T=1e300, I=2, K=2, J=1)
    elif refusal == "cfl":
        cfg = make_config(J=1, T=5.0)
    elif refusal == "capture":
        capture = "some"
    elif refusal == "history":
        cfg = make_config(J=20000)
        fake_budget(monkeypatch, 8 * (cfg.J + 1) * (cfg.I + 2) - 1)
    else:
        cfg = make_config(I=64, K=16, T=1e-3, J=200)     # each distinct step counts once
        capture = np.r_[every_step(cfg), every_step(cfg)]
        fake_budget(monkeypatch, (cfg.J + 1) * (8 * (cfg.I + 2) + marcher._RECORD_BYTES
                                                + 8 * (cfg.K + 1) * (cfg.I + 1)) - 1)
    calls = []
    real_build, real_solve = extension_op._build, extension_op._solve
    monkeypatch.setattr(extension_op, "_cache", type(extension_op._cache)())    # no cached build
    monkeypatch.setattr(extension_op, "_build",
                        lambda *args: calls.append("build") or real_build(*args))
    monkeypatch.setattr(extension_op, "_solve",
                        lambda *args: calls.append("solve") or real_solve(*args))
    with pytest.raises(error, match=message) as ei:
        march(cfg, f, capture=capture)
    assert type(ei.value) is error
    assert calls == []


def test_march_zero_data():
    cfg = make_config(m=2.0, J=2)
    traj = march(cfg, initial_data_preset("zero"))
    assert np.all(traj.trace_history == 0.0)
    assert traj.b_max == 0.0
    assert traj.cfl_ratio == 0.0           # infinite bound reported as ratio 0


def test_march_preserves_order_between_data():
    # pointwise-ordered initial data stay ordered under the monotone scheme
    cfg = make_config(m=2.0, sigma=0.5, J=4)
    small = march(cfg, GAUSS)
    big = march(cfg, parse_initial_data("constant:1"))
    assert np.all(small.trace_history <= big.trace_history + 1e-12)


def test_march_max_decays_in_time():
    cfg = make_config(m=2.0, sigma=1.0, J=6, T=0.75)
    traj = march(cfg, GAUSS)
    maxes = traj.trace_history.max(axis=1)
    assert np.all(np.diff(maxes) <= 1e-12)


@pytest.mark.parametrize("sigma,d", [(0.5, 1), (1.5, 1), (1.0, None)])
def test_linear_march_is_the_closed_form_mode_decay(sigma, d):
    # c = 2, m = 1: a step is t + lam (row 1 - t), and row 1 = B^T diag(G[0]) B t with
    # B = V^-1, so t_J = B^T diag((1 - lam (1 - G[0]))^J) B t_0
    cfg = SolverConfig(sigma=sigma, m=1.0, X=2.0, Y=2.0, T=1.0, I=128, K=64, J=400, c=2, d=d)
    bump = initial_data_preset("bump")
    op = assemble(cfg.grid(), sigma, c=2, d=d)
    B, lam = op.V_inv, marcher._lambda(cfg.dt, cfg.dx, sigma)
    want = B.T @ ((1.0 - lam * (1.0 - op.G[0])) ** cfg.J * (B @ initial_trace_w(cfg, bump)))
    got = march(cfg, bump).trace_history[-1, 1:-1]
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _step_by_step(cfg, f):
    """The march's outputs rebuilt from initialize and J public steps."""
    fields = [initialize(cfg, f)]
    for _ in range(cfg.J):
        fields.append(step(fields[-1], cfg))
    history = np.maximum([fld.values[:, 0] for fld in fields], 0.0) ** (1.0 / cfg.m)
    diags = [(j, float(j * cfg.dt).hex(), float(fld.values.min()).hex(),
              float(fld.values.max()).hex(), extension_op.discrete_max_location(fld))
             for j, fld in enumerate(fields)]
    return history, diags, fields


def _bits(a):
    return a.shape, a.strides, a.tobytes(order="A")


@pytest.mark.parametrize("m", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("c,d", [(2, 1), (3, 4), (2, None)])
def test_march_is_the_public_step_bit_for_bit(c, d, m):
    # march advances its own node array; every output must equal, bit for bit and
    # in memory order, what initialize and J calls of step give
    cfg = SolverConfig(sigma=1.0, m=m, X=3.0, Y=3.0, T=0.6, I=12, K=6, J=6, c=c, d=d)
    traj = march(cfg, GAUSS, capture=every_step(cfg))
    history, diags, fields = _step_by_step(cfg, GAUSS)
    assert _bits(traj.trace_history) == _bits(history)
    assert [(dg.j, dg.t.hex(), dg.w_min.hex(), dg.w_max.hex(), dg.argmax)
            for dg in traj.diagnostics] == diags
    assert [(t, fld.time_index) for t, fld in traj.snapshots] == [
        (float(j * cfg.dt), j) for j in range(cfg.J + 1)]
    assert [_bits(fld.values) for _, fld in traj.snapshots] == [_bits(f.values) for f in fields]


def test_march_snapshots_are_read_only_and_keep_their_values():
    # a snapshot holds its step's node array itself: nothing, not a later step
    # nor a later march, may write to it or to the array it views
    cfg = make_config(m=2.0, J=6, T=0.6)
    snapshots = [fld for _, fld in march(cfg, GAUSS, capture=every_step(cfg)).snapshots]
    march(cfg, GAUSS, capture=every_step(cfg))
    for n, (fld, want) in enumerate(zip(snapshots, _step_by_step(cfg, GAUSS)[2])):
        assert _bits(fld.values) == _bits(want.values)
        owner = fld.values if fld.values.base is None else fld.values.base
        assert not fld.values.flags.writeable and not owner.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            fld.values[4, 1] = 7.0
        assert not any(np.shares_memory(fld.values, other.values) for other in snapshots[n + 1:])


@pytest.mark.parametrize("steps", [list(range(11)), [0, 3, 6, 9, 10]],
                         ids=["every-step", "every-third"])
def test_march_snapshots_own_their_arrays_while_other_steps_share_one(monkeypatch, steps):
    # every solve fills the march's one node array.  Each snapshot is a read-only,
    # height-major copy that shares memory with neither that array nor another
    # snapshot, and holds the bits its solve gave, which a fresh solve of its trace gives too
    cfg = make_config(m=2.0, J=10, T=1.0)
    op = assemble(cfg.grid(), cfg.sigma, cfg.c, cfg.d)
    real, made = extension_op._solve, []

    def recording(op, trace, P=None):
        out = real(op, trace, P)
        made.append((out, out.tobytes()))
        return out

    monkeypatch.setattr(extension_op, "_solve", recording)
    traj = march(cfg, GAUSS, capture=[j * cfg.dt for j in steps])
    assert [fld.time_index for _, fld in traj.snapshots] == steps
    P = made[0][0]
    assert len(made) == cfg.J + 1 and all(out is P for out, _ in made)
    values = [fld.values for _, fld in traj.snapshots]
    for n, (j, vals) in enumerate(zip(steps, values)):
        assert not vals.flags.writeable and vals.T.flags.c_contiguous
        assert not np.shares_memory(vals, P)
        assert vals.T.tobytes() == made[j][1]
        assert vals.T.tobytes() == real(op, vals[1:-1, 0].copy()).tobytes()
        assert not any(np.shares_memory(vals, other) for other in values[n + 1:])


def test_march_solves_step_0_like_every_step(monkeypatch):
    # step 0 is the solve of the data's trace row into a new node array, and every
    # later step refills that array, captured or not.  Step 0's snapshot is a copy
    # with initialize's bytes and strides
    cfg = make_config(m=2.0, J=3, T=0.3)
    want = initialize(cfg, GAUSS).values
    real, calls = extension_op._solve, []

    def recording(op, trace, P=None):
        calls.append((P, real(op, trace, P)))
        return calls[-1][1]

    monkeypatch.setattr(extension_op, "_solve", recording)
    for capture in ((0.0,), (0.0, 0.1), None):
        calls.clear()
        traj = march(cfg, GAUSS, capture=capture)
        assert calls[0][0] is None and all(P is calls[0][1] for P, _ in calls[1:])
        assert len(calls) == cfg.J + 1
        for _, fld in traj.snapshots:
            assert not np.shares_memory(fld.values, calls[0][1])
    fld = march(cfg, GAUSS, capture=(0.0,)).snapshots[0][1]
    assert fld.time_index == 0 and _bits(fld.values) == _bits(want)


# ---------------------------------------------------------------------------
# the march's checks at a failing step


def test_march_reports_the_step_of_a_negative_bracket(monkeypatch):
    # with the CFL bound lifted, dt = 40 drives the bracket negative at step 1
    cfg = make_config(m=2.0, T=40.0, J=1)
    vals = initialize(cfg, GAUSS).values
    with pytest.raises(NegativeBracketError) as direct:
        boundary_update(vals[1:-1, 0], vals[1:-1, 1], cfg.dt, cfg.dx, cfg.sigma, cfg.m)
    monkeypatch.setattr(marcher.core, "cfl_max_dt", lambda *_args: math.inf)
    with pytest.raises(NegativeBracketError) as ei:
        march(cfg, GAUSS)
    assert ei.value.step == 1
    assert (ei.value.index, ei.value.value) == (direct.value.index, direct.value.value)
    assert str(ei.value) == str(direct.value)


def _fake_solve(monkeypatch, fake):
    """Replace extension_op._solve by fake(n, real_solve, op, trace), n numbering
    the calls from step 0's, 1; returns the list of call numbers.  real_solve
    is the real _solve with the node array march passes it, if any, bound.  No
    real input to march reaches these failures, so a fake stands in for the solve."""
    real, calls = extension_op._solve, []

    def counted(op, trace, P=None):
        calls.append(len(calls) + 1)
        return fake(calls[-1], functools.partial(real, P=P), op, trace)

    monkeypatch.setattr(extension_op, "_solve", counted)
    return calls


def test_march_propagates_a_solver_error_mid_march(monkeypatch):
    # from step 2 on the solve runs on profiles G scaled by 2, so the real residual
    # check fails; march passes that error on unchanged
    raised = []

    def scaled_profiles(n, real, op, trace):
        try:
            return real(dataclasses.replace(op, G=2.0 * op.G) if n >= 3 else op, trace)
        except SolverError as e:
            raised.append(e)
            raise

    calls = _fake_solve(monkeypatch, scaled_profiles)
    with pytest.raises(SolverError, match="^solve residual ") as ei:
        march(make_config(m=2.0, J=4), GAUSS)
    assert calls == [1, 2, 3] and ei.value is raised[0]


@pytest.mark.parametrize("node,value", [((1, 3), -1e-11), ((2, 3), math.nan), ((1, 5), math.inf)])
def test_march_checks_a_corrupted_node_array(monkeypatch, node, value):
    # step 1's node array P[k, i] gets one bad value.  A row-1 value in
    # [-1e-10, -1e-12) passes the band check and enters step 2's bracket only as
    # lam (row1 - row0), so the march completes; a non-finite one fails step 1's
    # band check.  The march raises no ValueError for either
    def corrupt(n, real, op, trace):
        P = real(op, trace)
        if n == 2:
            P[node] = value
        return P

    calls = _fake_solve(monkeypatch, corrupt)
    if value < 0.0:
        assert len(march(make_config(m=2.0, J=4), GAUSS).diagnostics) == 5
        assert calls == [1, 2, 3, 4, 5]
        return
    with pytest.raises(MaxPrincipleError, match="solution left \\[0, b_max\\] band at step 1"):
        march(make_config(m=2.0, J=4), GAUSS)
    assert calls == [1, 2]


def test_march_memory_does_not_grow_with_a_node_array_per_step():
    # Growth of the traced peak from J = 50 to J = 500 at I = K = 32 is what the
    # march keeps per step, measured at about 450 B: one 264 B history row, which
    # u = w^(1/m) overwrites in place, and about 180 B of time and slotted
    # StepDiagnostics.  Forming u as a second history took about 990 B per step;
    # keeping each step's 33 x 33 node array would add 8.7 KB per step, 3.9 MB
    # over the 450 steps.  The operator is built before tracing; each march finds it cached.
    assemble(Grid(2.0, 4.0, 32, 32), 0.5)

    def peak(J):
        cfg = SolverConfig(sigma=0.5, m=2.0, X=2.0, Y=4.0, T=J * 1e-3, I=32, K=32, J=J)
        tracemalloc.start()
        try:
            march(cfg, GAUSS)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    growth = peak(500) - peak(50)
    assert growth <= 450 * 768, f"{growth / 450:.0f} B per step"


# ---------------------------------------------------------------------------
# snapshot capture


def test_capture_modes():
    cfg = make_config(J=4)
    assert march(cfg, GAUSS, capture=None).snapshots == ()
    timed = march(cfg, GAUSS, capture=(0.5, 0.0, 0.2))     # 0.2 / dt = 1.6 rounds to 2
    assert [round(t / cfg.dt) for t, _ in timed.snapshots] == [0, 2, 4]


def test_capture_validation():
    cfg = make_config(J=4)
    with pytest.raises(ValueError):
        march(cfg, GAUSS, capture=0)
    with pytest.raises(ValueError):
        march(cfg, GAUSS, capture=(0.9,))   # beyond T = 0.5
    with pytest.raises(ConfigError, match=r"^snapshot time 1e\+308 outside \[0, T\]$"):
        march(cfg, GAUSS, capture=(1e308,))     # t / dt overflows to inf


@pytest.mark.parametrize("t", [-0.01, 0.112, -1e-12, 0.1 * (1.0 + 1e-11), -math.inf, math.nan])
def test_capture_refuses_a_time_outside_0_T_whose_nearest_step_is_in_range(t):
    # T = 0.1, J = 4: each time but the last two rounds to step 0 or 4
    with pytest.raises(ConfigError, match=rf"^snapshot time {re.escape(str(t))} outside \[0, T\]$"):
        march(make_config(T=0.1, J=4), GAUSS, capture=(t,))


def test_capture_takes_the_ends_of_0_T_to_a_relative_1e_12():
    # 11 (0.1 / 11) exceeds T = 0.1 by 1.4e-17; it, -0.0 and T (1 + 1e-13) are the ends
    cfg = make_config(T=0.1, J=11)
    assert 11 * (0.1 / 11) > 0.1
    traj = march(cfg, GAUSS, capture=(11 * (0.1 / 11), -0.0, 0.1 * (1.0 + 1e-13), -1e-14))
    assert [fld.time_index for _, fld in traj.snapshots] == [0, 11]


@pytest.mark.parametrize("capture", ["all", 3, np.int64(3), np.array(3)])
def test_capture_takes_times_only(capture):
    # every step or every n-th one is a list of times; no other form is read
    with pytest.raises(ConfigError, match=f"capture must be None or snapshot times, got "
                                          f"{re.escape(repr(capture))}$"):
        march(make_config(J=4), GAUSS, capture=capture)


@pytest.mark.parametrize("capture", [True, np.bool_(True)])
def test_capture_refuses_a_bool(capture):
    with pytest.raises(ConfigError, match="True"):
        march(make_config(J=4), GAUSS, capture=capture)


def test_capture_refuses_a_float_stride():
    with pytest.raises(ConfigError, match="2.0"):
        march(make_config(J=4), GAUSS, capture=2.0)


def test_capture_refuses_a_string_other_than_all():
    with pytest.raises(ConfigError, match="'x'"):
        march(make_config(J=4), GAUSS, capture="x")


def test_capture_refuses_a_non_iterable():
    with pytest.raises(ConfigError, match="object"):
        march(make_config(J=4), GAUSS, capture=object())


@pytest.mark.parametrize("entry", ["0.5", None, True])
def test_capture_refuses_a_non_numeric_time(entry):
    with pytest.raises(ConfigError, match=repr(entry)):
        march(make_config(J=4), GAUSS, capture=(0.0, entry))


# ---------------------------------------------------------------------------
# CSV output


def test_trace_csv_round_trip(tmp_path):
    cfg = make_config(J=2)
    traj = march(cfg, GAUSS)
    path = tmp_path / "trace.csv"
    write_trace_csv(traj, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,x,u"
    assert len(lines) == 1 + 3 * 9
    t, x, u = (float(tok) for tok in lines[-1].split(","))
    assert t == traj.times[-1]
    assert x == cfg.grid().xs[-1]
    assert u == traj.trace_history[-1, -1]


def test_snapshot_csv_layout(tmp_path):
    cfg = make_config(J=2)
    traj = march(cfg, GAUSS, capture=(0.5,))
    path = tmp_path / "snap.csv"
    write_snapshot_csv(traj, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,x,y,w"
    assert len(lines) == 1 + 9 * 3
    vals = traj.snapshots[0][1].values
    t, x, y, w = (float(tok) for tok in lines[1].split(","))
    assert (t, x, y) == (0.5, -2.0, 0.0)
    assert w == vals[0, 0]


# values whose text is easy to get wrong: signed zero, a tiny negative w left
# by rounding, a subnormal, the smallest/largest decades and a 3-digit exponent
_HARD_VALUES = (0.0, -0.0, -3e-17, 5e-324, 2.2e-308, 1e-300, 1e100, 1.0 / 3.0, 0.1)


def _reference_trace_csv(traj):
    xs = traj.config.grid().xs
    lines = ["t,x,u\n"]
    for j, t in enumerate(traj.times):
        for x, u in zip(xs, traj.trace_history[j]):
            lines.append(f"{t:.16e},{x:.16e},{u:.16e}\n")
    return "".join(lines).encode("utf-8")


def _reference_snapshot_csv(traj):
    grid = traj.config.grid()
    lines = ["t,x,y,w\n"]
    for t, fld in traj.snapshots:
        for i, x in enumerate(grid.xs):
            for k, y in enumerate(grid.ys):
                lines.append(f"{t:.16e},{x:.16e},{y:.16e},{fld.values[i, k]:.16e}\n")
    return "".join(lines).encode("utf-8")


@pytest.mark.parametrize("I,n_snapshots", [(5, 1), (5, 3), (6, 1), (6, 4)])
def test_csv_writers_match_per_line_formatting(tmp_path, I, n_snapshots):
    # square mesh dx = 0.3 with I odd or even; t = j * 0.1 is not a binary fraction
    K, J = 3, 4
    cfg = SolverConfig(sigma=0.5, m=2.0, X=0.15 * I, Y=0.3 * K, T=0.1 * J, I=I, K=K, J=J)
    rng = np.random.default_rng(I + 10 * n_snapshots)

    def values(shape):
        out = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 20, size=shape)
        flat = out.reshape(-1)
        flat[:len(_HARD_VALUES)] = _HARD_VALUES
        return rng.permutation(flat).reshape(shape)

    times = np.arange(J + 1) * 0.1
    snapshots = tuple((float(times[j]), Field(values=values((I + 1, K + 1)), time_index=j))
                      for j in range(n_snapshots))
    traj = Trajectory(config=cfg, times=times, trace_history=values((J + 1, I + 1)),
                      snapshots=snapshots, diagnostics=(), b_max=1.0, cfl_ratio=0.5)
    trace_path, snap_path = tmp_path / "trace.csv", tmp_path / "snap.csv"
    write_trace_csv(traj, trace_path)
    write_snapshot_csv(traj, snap_path)
    assert trace_path.read_bytes() == _reference_trace_csv(traj)
    assert snap_path.read_bytes() == _reference_snapshot_csv(traj)
    assert b"-0.0000000000000000e+00" in trace_path.read_bytes() + snap_path.read_bytes()


def _converted(values):
    out = io.BytesIO()
    marcher._write_lines(out, [], np.asarray(values, dtype=float))
    return out.getvalue()


def test_field_conversion_matches_percent_format_value_by_value():
    powers = np.array([float(f"1e{e}") for e in range(-99, 100)])
    ties = 1.0 + np.arange(1, 2 ** 17, 2) * 2.0 ** -17       # exact 17th-digit ties
    bits = np.random.default_rng(7).integers(0, 2 ** 64, 10 ** 5, dtype=np.uint64)
    finite = bits.view(np.float64)[np.isfinite(bits.view(np.float64))]
    extremes = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
    values = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
                             ties, ties[::4] * 2.0 ** 40, ties[::4] * 2.0 ** -40, finite, extremes])
    got = _converted(values)
    want = ("%.16e\n" * values.size % tuple(values.tolist())).encode()
    if got != want:
        bad = [(v, g, w) for v, g, w in zip(values.tolist(), got.split(), want.split()) if g != w]
        pytest.fail(f"{len(bad)} of {values.size} values differ, first: {bad[:3]}")


def _random_trajectory(I, K, J, history, snapshot):
    cfg = SolverConfig(sigma=0.5, m=2.0, X=0.15 * I, Y=0.3 * K, T=0.1 * J, I=I, K=K, J=J)
    assert history.shape == (J + 1, I + 1) and snapshot.shape == (I + 1, K + 1)
    return Trajectory(config=cfg, times=np.arange(J + 1) * 0.1, trace_history=history,
                      snapshots=((0.1 * J, Field(values=snapshot, time_index=J)),),
                      diagnostics=(), b_max=1.0, cfl_ratio=0.5)


def test_csv_writers_match_per_line_formatting_across_blocks(tmp_path):
    # 257 trace nodes over 20 levels and a 257 x 129 snapshot: no block size divides
    # either, so blocks end inside a time level and inside an x-column.  In the
    # snapshot t and y never have a sign, w always has one and x has one in some
    # blocks, in none or in some lines only
    rng = np.random.default_rng(20)
    history = rng.standard_normal((20, 257)) * 10.0 ** rng.integers(-120, 120, (20, 257))
    history.reshape(-1)[:len(_HARD_VALUES)] = _HARD_VALUES
    traj = _random_trajectory(256, 128, 19, history, -rng.random((257, 129)))
    trace_path, snap_path = tmp_path / "trace.csv", tmp_path / "snap.csv"
    write_trace_csv(traj, trace_path)
    write_snapshot_csv(traj, snap_path)
    assert trace_path.read_bytes() == _reference_trace_csv(traj)
    assert snap_path.read_bytes() == _reference_snapshot_csv(traj)


def test_csv_writers_peak_memory(tmp_path):
    rng = np.random.default_rng(2000)
    traj = _random_trajectory(256, 128, 1999, rng.random((2000, 257)), rng.random((257, 129)))
    tracemalloc.start()
    try:
        write_trace_csv(traj, tmp_path / "trace.csv")
        write_snapshot_csv(traj, tmp_path / "snap.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2 ** 20, f"writers peaked at {peak / 2 ** 20:.2f} MiB"
