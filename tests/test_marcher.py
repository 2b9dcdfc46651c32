"""Explicit trace update and the coupled time march.

The structural claims under the CFL restriction are exercised directly:
range preservation of the update, order preservation of the full scheme,
exact zeros on the artificial boundary, stationarity of flat data, and the
linear special case where the update reduces to plain averaging.
"""

import math

import numpy as np
import pytest

from fracpme.core import (
    Field,
    SolverConfig,
    cfl_max_dt,
    initial_data_preset,
    nu_sigma,
    parse_initial_data,
)
from fracpme.errors import CflViolationError, NegativeBracketError
from fracpme.marcher import (
    boundary_update,
    initial_trace_w,
    initialize,
    march,
    step,
    write_snapshot_csv,
    write_trace_csv,
)
from fracpme.extension_op import assemble


def make_config(**over):
    base = dict(sigma=0.5, m=1.0, X=2.0, Y=1.0, T=0.5, I=8, K=2, J=2)
    base.update(over)
    return SolverConfig(**base)


GAUSS = initial_data_preset("gaussian")


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
    # band whenever dt respects the CFL bound.  For m > 1 the bound's
    # guarantee requires b_max >= 1 (see the sub-unit counterexample below);
    # m = 1 is a plain convex combination for every b_max.
    rng = np.random.default_rng(int(10 * m + 100 * sigma))
    dx = 0.25
    lo = 0.05 if m == 1.0 else 1.0
    for _ in range(500):
        b_max = float(rng.uniform(lo, 3.0))
        dt = 0.95 * cfl_max_dt(m, b_max, sigma, dx)
        row0 = rng.uniform(0.0, b_max, size=9)
        row1 = rng.uniform(0.0, b_max, size=9)
        new = boundary_update(row0, row1, dt, dx, sigma, m)
        assert new.min() >= 0.0
        assert new.max() <= b_max * (1.0 + 1e-12)


def test_cfl_constant_is_not_sufficient_below_unit_band():
    # Documented edge: with b_max < 1 and m > 1 the stability constant
    # [m b_max^(m-1) nu]^(-1) admits row pairs inside [0, b_max] whose update
    # leaves the band; the guarantee is only proven for b_max >= 1 and the
    # marcher's runtime band check is the safety net in that regime
    m, sigma, dx = 2.0, 1.0, 0.25
    b_max = 0.4
    dt = cfl_max_dt(m, b_max, sigma, dx)
    row0 = np.array([b_max ** 2])          # the interior maximizer of the bound
    row1 = np.array([b_max])
    new = boundary_update(row0, row1, dt, dx, sigma, m)
    assert new[0] > b_max


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
    assert row[0] == 0.0 and row[-1] == 0.0
    assert row[1:-1] == pytest.approx(np.exp(-xs[1:-1] ** 2) ** 2, rel=1e-14)


def test_initialize_solves_interior():
    cfg = make_config()
    field = initialize(cfg, GAUSS)
    assert field.time_index == 0
    assert field.values.shape == (9, 3)
    assert np.array_equal(field.values[1:-1, 0], initial_trace_w(cfg, GAUSS)[1:-1])
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


# ---------------------------------------------------------------------------
# single step


def test_zero_field_is_fixed_point():
    cfg = make_config()
    op = assemble(cfg.grid(), cfg.sigma, cfg.c, cfg.d)
    state = Field(np.zeros((9, 3)))
    new = step(state, op, cfg)
    assert np.all(new.values == 0.0)
    assert new.time_index == 1


def test_step_attaches_no_step_number_outside_march():
    # step() itself performs no CFL check; a crafted state with a huge dt
    # surfaces the bracket failure directly
    cfg = make_config(m=2.0, T=40.0, J=1)         # dt = 40
    op = assemble(cfg.grid(), cfg.sigma, cfg.c, cfg.d)
    vals = np.zeros((9, 3))
    vals[4, 0] = 1.0
    with pytest.raises(NegativeBracketError):
        step(Field(vals), op, cfg)


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
    traj = march(cfg, GAUSS, capture="all")
    assert len(traj.snapshots) == 5
    for _, fld in traj.snapshots:
        assert np.all(fld.values[0, :] == 0.0)
        assert np.all(fld.values[-1, :] == 0.0)
        assert np.all(fld.values[:, -1] == 0.0)


def test_march_is_deterministic():
    cfg = make_config(m=3.0, sigma=1.5, J=4, d=3, K=3, Y=1.5)
    a = march(cfg, GAUSS)
    b = march(cfg, GAUSS)
    assert np.array_equal(a.trace_history, b.trace_history)


def test_march_enforces_cfl():
    cfg = make_config(J=1, T=5.0)          # dt = 5 is far beyond the bound
    with pytest.raises(CflViolationError) as ei:
        march(cfg, GAUSS)
    msg = str(ei.value)
    assert "increase J to at least" in msg
    suggested = int(msg.rsplit(" ", 1)[-1])
    bound = cfl_max_dt(cfg.m, 1.0, cfg.sigma, cfg.dx)
    assert 5.0 / suggested <= cfg.cfl_safety * bound * (1.0 + 1e-9)


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


# ---------------------------------------------------------------------------
# snapshot capture


def test_capture_modes():
    cfg = make_config(J=4)
    assert march(cfg, GAUSS, capture=None).snapshots == ()
    assert [t for t, _ in march(cfg, GAUSS, capture="all").snapshots] == pytest.approx(
        [0.0, 0.125, 0.25, 0.375, 0.5])
    strided = march(cfg, GAUSS, capture=3)
    assert [round(t / cfg.dt) for t, _ in strided.snapshots] == [0, 3, 4]
    timed = march(cfg, GAUSS, capture=(0.0, 0.5))
    assert [round(t / cfg.dt) for t, _ in timed.snapshots] == [0, 4]


def test_capture_validation():
    cfg = make_config(J=4)
    with pytest.raises(ValueError):
        march(cfg, GAUSS, capture=0)
    with pytest.raises(ValueError):
        march(cfg, GAUSS, capture=(0.9,))   # beyond T = 0.5


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
