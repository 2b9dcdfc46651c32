"""Constants, mesh bookkeeping, configuration parsing.

The scalar constants (mu_sigma, nu_sigma, riesz_constant) are checked against
50-digit mpmath evaluations of the same closed forms, so a bug in the exponent
bookkeeping cannot hide behind itself.
"""

import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from fracpme.core import (
    STENCIL_WINDOWS,
    Field,
    Grid,
    InitialData,
    SolverConfig,
    cfl_max_dt,
    effective_order,
    initial_data_preset,
    load_config,
    mu_sigma,
    nu_sigma,
    parse_config_text,
    parse_initial_data,
    riesz_constant,
    stencil_reach,
)
from fracpme.errors import ConfigError
from fracpme.marcher import boundary_update
from fracpme.oracles import barenblatt_exponents

mpmath.mp.dps = 50

sigmas_open = st.floats(min_value=0.01, max_value=1.99, allow_nan=False)


def mp_mu(sigma):
    s = mpmath.mpf(sigma)
    return float(2 ** (s - 1) * mpmath.gamma(s / 2) / mpmath.gamma(1 - s / 2))


def mp_riesz(n, sigma):
    s = mpmath.mpf(sigma)
    return float(2 ** (s - 1) * s * mpmath.gamma((n + s) / 2)
                 / (mpmath.pi ** (mpmath.mpf(n) / 2) * mpmath.gamma(1 - s / 2)))


# ---------------------------------------------------------------------------
# mu, nu, riesz


def test_mu_sigma_equals_one_at_sigma_one():
    assert mu_sigma(1.0) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("sigma", [0.1, 0.3, 0.5, 0.75, 1.0, 1.25, 1.5, 1.9, 1.99])
def test_mu_nu_match_mpmath(sigma):
    assert mu_sigma(sigma) == pytest.approx(mp_mu(sigma), rel=1e-12)
    assert nu_sigma(sigma) == pytest.approx(sigma * mp_mu(sigma), rel=1e-12)


@pytest.mark.parametrize("n_dim", [1, 2, 3])
@pytest.mark.parametrize("sigma", [0.1, 0.5, 1.0, 1.5, 1.9])
def test_riesz_matches_mpmath(n_dim, sigma):
    assert riesz_constant(n_dim, sigma) == pytest.approx(mp_riesz(n_dim, sigma), rel=1e-12)


def test_riesz_known_closed_forms():
    # sigma = 1: C_{1,1} = 1/pi and C_{2,1} = 1/(2 pi)
    assert riesz_constant(1, 1.0) == pytest.approx(1.0 / math.pi, rel=1e-13)
    assert riesz_constant(2, 1.0) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-13)


@given(sigma=sigmas_open)
def test_nu_is_sigma_times_mu(sigma):
    assert nu_sigma(sigma) == sigma * mu_sigma(sigma)


@given(sigma=sigmas_open)
def test_constants_positive(sigma):
    assert mu_sigma(sigma) > 0.0
    assert nu_sigma(sigma) > 0.0
    assert riesz_constant(1, sigma) > 0.0


@pytest.mark.parametrize("bad", [0.0, 2.0, -0.3, 2.4])
def test_sigma_domain_enforced(bad):
    for fn in (mu_sigma, nu_sigma, lambda s: riesz_constant(1, s)):
        with pytest.raises(ValueError):
            fn(bad)


def test_riesz_rejects_bad_dimension():
    with pytest.raises(ValueError):
        riesz_constant(0, 0.5)
    with pytest.raises(ValueError):
        riesz_constant(1.5, 0.5)


# ---------------------------------------------------------------------------
# CFL bound


def test_cfl_linear_case_ignores_b_max():
    # m = 1: dt_max = dx^sigma / nu_sigma regardless of the data's maximum
    for sigma in (0.5, 1.0, 1.5):
        want = 0.1 ** sigma / nu_sigma(sigma)
        assert cfl_max_dt(1.0, 0.0, sigma, 0.1) == pytest.approx(want, rel=1e-14)
        assert cfl_max_dt(1.0, 7.3, sigma, 0.1) == pytest.approx(want, rel=1e-14)


def test_cfl_zero_data_degenerate_case():
    assert cfl_max_dt(2.0, 0.0, 1.0, 0.1) == math.inf
    assert cfl_max_dt(3.0, 0.0, 0.5, 0.1) == math.inf


def test_cfl_known_value():
    # m = 2, b_max = 1, sigma = 1 (nu = 1): dt_max = dx / 2
    assert cfl_max_dt(2.0, 1.0, 1.0, 0.25) == pytest.approx(0.125, rel=1e-14)


@given(b1=st.floats(0.01, 10.0), b2=st.floats(0.01, 10.0))
def test_cfl_decreasing_in_b_max(b1, b2):
    lo, hi = sorted((b1, b2))
    assert cfl_max_dt(2.0, hi, 1.5, 0.1) <= cfl_max_dt(2.0, lo, 1.5, 0.1)


@given(sigma=sigmas_open, dx=st.floats(0.001, 1.0))
def test_cfl_dx_scaling(sigma, dx):
    one = cfl_max_dt(2.0, 1.0, sigma, dx)
    two = cfl_max_dt(2.0, 1.0, sigma, 2.0 * dx)
    assert two == pytest.approx(2.0 ** sigma * one, rel=1e-12)


def test_cfl_rejects_bad_arguments():
    with pytest.raises(ValueError):
        cfl_max_dt(0.5, 1.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        cfl_max_dt(1.0, -1.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        cfl_max_dt(1.0, 1.0, 1.0, 0.0)


# ---------------------------------------------------------------------------
# effective order of the (c, d) pair


@pytest.mark.parametrize("sigma,c,d,want", [
    (1.0, 2, None, 2.0),
    (1.0, 3, 7, 3.0),          # d irrelevant at sigma = 1
    (0.5, 2, 1, 0.5),
    (0.5, 4, 4, 3.5),
    (0.3, 1, 1, 0.7),
    (1.5, 3, 4, 2.5),
    (1.5, 2, 3, 1.5),
    (1.9, 4, 4, 2.1),
])
def test_effective_order_examples(sigma, c, d, want):
    assert effective_order(sigma, c, d) == pytest.approx(want, rel=1e-14)


def test_effective_order_nonpositive_is_returned_not_raised():
    # (c, d) = (2, 1) cannot converge for sigma > 1; callers get the flag value
    assert effective_order(1.5, 2, 1) == pytest.approx(-0.5)


def test_effective_order_requires_d_away_from_one():
    with pytest.raises(ValueError):
        effective_order(0.5, 2, None)
    with pytest.raises(ValueError):
        effective_order(0.5, 0, 1)
    with pytest.raises(ValueError):
        effective_order(0.5, 2, 0)


_SCALAR_CASES = [
    (boundary_update, "m", math.nan, "m must be finite"),
    (boundary_update, "m", math.inf, "m must be finite"),
    (boundary_update, "dt", math.nan, "dt and dx"),
    (boundary_update, "dt", math.inf, "dt and dx"),
    (boundary_update, "dt", 0.0, "dt and dx"),
    (boundary_update, "dt", -0.01, "dt and dx"),
    (boundary_update, "dx", 0.0, "dt and dx"),
    (boundary_update, "dx", math.nan, "dt and dx"),
    (boundary_update, "dx", math.inf, "dt and dx"),
    (cfl_max_dt, "b_max", math.nan, "b_max must be nonnegative and finite"),
    (cfl_max_dt, "b_max", math.inf, "b_max must be nonnegative and finite"),
    (cfl_max_dt, "dx", math.nan, "dx must be positive and finite"),
    (cfl_max_dt, "dx", math.inf, "dx must be positive and finite"),
    (cfl_max_dt, "m", math.nan, "m must be finite"),
    (barenblatt_exponents, "m", math.nan, "m must be finite"),
    (barenblatt_exponents, "m", math.inf, "m must be finite"),
    (barenblatt_exponents, "m", 0.5, "m must be finite"),
]
_SCALAR_ARGS = {
    boundary_update: dict(row0=np.ones(3), row1=np.ones(3), dt=0.01, dx=0.5, sigma=0.5, m=2.0),
    cfl_max_dt: dict(m=2.0, b_max=1.0, sigma=0.5, dx=0.1),
    barenblatt_exponents: dict(n_dim=1, m=2.0, sigma=0.5),
}


@pytest.mark.parametrize("fn,key,value,match", _SCALAR_CASES,
                         ids=[f"{fn.__name__}-{key}={value}" for fn, key, value, _ in _SCALAR_CASES])
def test_public_scalar_checks_refuse_non_finite_input(fn, key, value, match):
    # before, these returned NaN, inf or 0.0, or raised ZeroDivisionError (dx = 0)
    with pytest.raises(ValueError, match=match):
        fn(**{**_SCALAR_ARGS[fn], key: value})


# ---------------------------------------------------------------------------
# the stencil table


def _old_second_deriv_offsets(idx, n, c):
    # the per-node window functions the table replaced, as they were, as its reference
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
    raise AssertionError(c)


def _old_first_deriv_offsets(k, K, d):
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
    raise AssertionError(d)


def test_stencil_windows_are_pinned():
    assert STENCIL_WINDOWS == {
        (2, 2): ((-1, 0, 1), (-1, 0, 1), (-1, 0, 1)),
        (2, 3): ((-1, 0, 1, 2, 3), (-2, -1, 0, 1, 2), (-3, -2, -1, 0, 1)),
        (2, 4): ((-1, 0, 1, 2, 3, 4), (-2, -1, 0, 1, 2), (-4, -3, -2, -1, 0, 1)),
        (1, 1): ((0, 1), (0, 1), (0, 1)),
        (1, 2): ((-1, 0, 1), (-1, 0, 1), (-1, 0, 1)),
        (1, 3): ((-1, 0, 1, 2), (-1, 0, 1, 2), (-2, -1, 0, 1)),
        (1, 4): ((-1, 0, 1, 2, 3), (-2, -1, 0, 1, 2), (-3, -2, -1, 0, 1)),
    }


@pytest.mark.parametrize("family", sorted(STENCIL_WINDOWS))
def test_stencil_windows_give_the_old_per_node_windows(family):
    # first window at node 1, last at node n-1, middle in between, on every
    # mesh the family fits, against the window functions the table replaced
    deriv, order = family
    old = _old_second_deriv_offsets if deriv == 2 else _old_first_deriv_offsets
    first, middle, last = STENCIL_WINDOWS[family]
    for n in range(stencil_reach((family,))[1], 13):
        want = [old(j, n, order) for j in range(1, n)]
        assert want == ([first] + [middle] * (n - 3) + [last] if n > 2 else [first]), n


def test_fewest_steps_equal_the_old_minimum_tables():
    assert {c: stencil_reach(((2, c),))[1] for c in (2, 3, 4)} == {2: 2, 3: 4, 4: 5}
    assert {d: stencil_reach(((1, d),))[1] for d in (1, 2, 3, 4)} == {1: 2, 2: 2, 3: 3, 4: 4}


# ---------------------------------------------------------------------------
# the mesh


def test_grid_coordinates():
    g = Grid(X=2.0, Y=2.0, I=8, K=4)
    assert g.dx == pytest.approx(0.5)
    assert g.xs[0] == pytest.approx(-2.0)
    assert g.xs[-1] == pytest.approx(2.0)
    assert g.ys[0] == 0.0
    assert g.ys[-1] == pytest.approx(2.0)
    assert np.allclose(np.diff(g.xs), g.dx)
    assert np.allclose(np.diff(g.ys), g.dx)


def test_grid_requires_square_mesh():
    with pytest.raises(ConfigError):
        Grid(X=2.0, Y=1.0, I=8, K=3)


def test_grid_squareness_is_relative_below_unit_width():
    # dx = 1e-13 is four times dy = 2.5e-14; an absolute 1e-12 margin passed it
    with pytest.raises(ConfigError, match="mesh must be square"):
        Grid(X=1e-13, Y=1e-13, I=2, K=4)
    assert Grid(X=1e-13, Y=2e-13, I=2, K=2).dx == 1e-13


def test_grid_rejects_bad_extents_and_counts():
    with pytest.raises(ConfigError):
        Grid(X=-1.0, Y=1.0, I=4, K=2)
    with pytest.raises(ConfigError):
        Grid(X=1.0, Y=1.0, I=1, K=1)


def test_grid_stores_whole_float_counts_as_ints():
    # a float count that is a whole number is valid; the solver needs it as an int
    g = Grid(2.0, 4.0, 64.0, 64.0)
    assert (g.I, g.K) == (64, 64) and type(g.I) is int and type(g.K) is int
    assert g == Grid(2, 4, 64, 64) and np.array_equal(g.xs, Grid(2, 4, 64, 64).xs)
    for I in (64.5, math.nan, math.inf):
        with pytest.raises(ConfigError, match="need integer I >= 2"):
            Grid(2.0, 4.0, I, 64)


def test_grid_arrays_read_only():
    g = Grid(X=1.0, Y=1.0, I=4, K=2)
    with pytest.raises(ValueError):
        g.xs[0] = 99.0


def test_grids_compare_and_hash_by_extents_and_counts():
    a, b = Grid(2.0, 1.0, 8, 2), Grid(2.0, 1.0, 8, 2)
    assert a == b and hash(a) == hash(b)
    assert {a: "first", b: "second"} == {a: "second"}
    assert a != Grid(2.0, 2.0, 8, 4) and a != Grid(4.0, 2.0, 8, 2)


# ---------------------------------------------------------------------------
# field storage


def test_field_trace_is_first_column():
    vals = np.arange(15, dtype=float).reshape(5, 3)
    f = Field(vals)
    assert np.array_equal(f.trace, vals[:, 0])
    assert f.time_index == 0


def test_field_rejects_non_finite():
    vals = np.ones((5, 3))
    vals[2, 1] = np.nan
    with pytest.raises(ValueError, match=r"i=2, k=1"):
        Field(vals)


def test_field_rejects_wrong_shape():
    with pytest.raises(ValueError):
        Field(np.ones(6))
    with pytest.raises(ValueError):
        Field(np.ones((2, 2)))


def test_field_values_read_only():
    f = Field(np.ones((5, 3)))
    with pytest.raises(ValueError):
        f.values[0, 0] = 2.0


# ---------------------------------------------------------------------------
# solver configuration


def make_config(**over):
    base = dict(sigma=1.0, m=1.0, X=2.0, Y=1.0, T=0.5, I=8, K=2, J=10)
    base.update(over)
    return SolverConfig(**base)


def test_config_properties():
    cfg = make_config()
    assert cfg.dx == pytest.approx(0.5)
    assert cfg.dt == pytest.approx(0.05)
    assert cfg.grid().I == 8


def test_config_builds_its_grid_once():
    # the Grid validated at construction is the one grid() returns; it takes no
    # part in ==, hash or repr, and replace() builds the new config's own
    cfg = make_config()
    assert cfg.grid() is cfg.grid()
    assert cfg.grid() == Grid(cfg.X, cfg.Y, cfg.I, cfg.K)
    twin = make_config()
    assert cfg == twin and hash(cfg) == hash(twin) and cfg.grid() is not twin.grid()
    assert repr(cfg) == ("SolverConfig(sigma=1.0, m=1.0, X=2.0, Y=1.0, T=0.5, I=8, K=2, "
                         "J=10, c=2, d=1, cfl_safety=0.95)")
    finer = dataclasses.replace(cfg, I=16, K=4)
    assert finer == make_config(I=16, K=4) and finer.grid() == Grid(2.0, 1.0, 16, 4)
    assert dataclasses.replace(cfg, J=20).grid() is not cfg.grid()
    with pytest.raises(ConfigError):
        dataclasses.replace(cfg, K=3)


def test_config_d_none_only_at_sigma_one():
    make_config(sigma=1.0, d=None)            # fine
    with pytest.raises(ConfigError):
        make_config(sigma=1.5, d=None)


def test_config_stores_whole_float_counts_as_ints():
    cfg = make_config(I=8.0, K=2.0, J=10.0)
    assert (cfg.I, cfg.K, cfg.J) == (8, 2, 10)
    assert all(type(n) is int for n in (cfg.I, cfg.K, cfg.J))
    assert cfg == make_config()
    for J in (10.5, math.nan, math.inf):
        with pytest.raises(ConfigError, match="J must be a positive integer"):
            make_config(J=J)


@pytest.mark.parametrize("over", [
    dict(sigma=2.5), dict(sigma=0.0), dict(m=0.5), dict(T=0.0), dict(T=-1.0),
    dict(J=0), dict(cfl_safety=0.0), dict(cfl_safety=1.5), dict(K=3),
    dict(m=math.nan), dict(m=math.inf), dict(T=math.nan), dict(T=math.inf),
    dict(X=math.inf), dict(Y=math.nan),
])
def test_config_rejects_invalid(over):
    with pytest.raises(ConfigError):
        make_config(**over)


def test_config_refuses_a_step_that_underflows_to_0():
    # T = 5e-324 is positive and finite, but T / 2 rounds to 0; the march would divide by it
    with pytest.raises(ConfigError, match=r"^time step dt = T/J underflows to 0 at T = 5e-324, J = 2$"):
        make_config(sigma=0.5, m=2.0, T=5e-324, J=2)
    assert make_config(sigma=0.5, m=2.0, T=5e-324, J=1).dt == 5e-324


# ---------------------------------------------------------------------------
# initial data


def test_gaussian_preset():
    f = initial_data_preset("gaussian")
    xs = np.array([-1.0, 0.0, 1.0])
    assert np.allclose(f.sample(xs), [math.exp(-1), 1.0, math.exp(-1)])


def test_bump_preset_compact_support():
    f = initial_data_preset("bump")
    xs = np.array([-3.0, -2.0, 0.0, 2.0, 2.5])
    vals = f.sample(xs)
    assert vals[0] == 0.0 and vals[1] == 0.0 and vals[3] == 0.0 and vals[4] == 0.0
    assert vals[2] == pytest.approx(1.0)


def test_zero_preset():
    f = initial_data_preset("zero")
    assert np.all(f.sample(np.linspace(-2, 2, 9)) == 0.0)


def test_unknown_preset():
    with pytest.raises(ConfigError):
        initial_data_preset("sine")


def test_constant_initial_data():
    f = parse_initial_data("constant:0.75")
    assert np.all(f.sample(np.zeros(5)) == 0.75)
    # the parser refuses only text; sample judges the value
    with pytest.raises(ConfigError, match="^nonnegative initial data required$"):
        parse_initial_data("constant:-1").sample(np.zeros(5))
    with pytest.raises(ConfigError):
        parse_initial_data("constant:xyz")


def test_inline_initial_data():
    f = parse_initial_data("inline:0, 0.5, 1.0, 0.5, 0")
    assert f.sample(np.zeros(5)).tolist() == [0.0, 0.5, 1.0, 0.5, 0.0]
    with pytest.raises(ConfigError, match=r"^initial data must have 4 samples, got \(5,\)$"):
        f.sample(np.zeros(4))
    with pytest.raises(ConfigError, match=r"^initial data must have 5 samples, got \(0,\)$"):
        parse_initial_data("inline:").sample(np.zeros(5))
    with pytest.raises(ConfigError, match="^bad inline initial data"):
        parse_initial_data("inline:0, x")


def test_initial_data_is_a_name_and_a_sampler():
    # inline: samples are one more sampler, which returns them read-only
    assert [f.name for f in dataclasses.fields(InitialData)] == ["name", "fn"]
    f = parse_initial_data("inline:0, 0.5, 0")
    assert f.name == "inline"
    out = f.sample(np.zeros(3))
    assert out.tolist() == [0.0, 0.5, 0.0] and not out.flags.writeable


def test_initial_data_rejects_non_finite_and_bad_shape():
    bad = InitialData(name="bad", fn=lambda xs: np.full_like(xs, np.nan))
    with pytest.raises(ConfigError):
        bad.sample(np.zeros(3))
    scalar = InitialData(name="scalar", fn=lambda xs: 1.0)
    with pytest.raises(ConfigError):
        scalar.sample(np.zeros(3))


@pytest.mark.parametrize("data", [InitialData(name="fn", fn=lambda xs: xs),
                                  parse_initial_data("inline:0.0, -1e-300, 1.0")],
                         ids=["callable", "inline"])
def test_initial_data_refuses_a_negative_sample_itself(data):
    # the sign rule lives in sample, not in its callers
    with pytest.raises(ConfigError, match="^nonnegative initial data required$"):
        data.sample(np.array([-1.0, 0.0, 1.0]))


# ---------------------------------------------------------------------------
# config files


GOOD_CONFIG = """
# convergence run
sigma = 1.0
m = 1
X = 2.0
Y = 1.0
T = 0.5     # horizon
I = 8
K = 2
J = 10
d = none
initial_data = bump
"""


def test_parse_config_round_trip():
    cfg, data = parse_config_text(GOOD_CONFIG)
    assert cfg.sigma == 1.0 and cfg.m == 1.0 and cfg.I == 8 and cfg.J == 10
    assert cfg.d is None
    assert data.name == "bump"


def test_parse_config_defaults_to_gaussian():
    text = "sigma=1\nm=1\nX=2\nY=1\nT=0.5\nI=8\nK=2\nJ=10\n"
    _, data = parse_config_text(text)
    assert data.name == "gaussian"


@pytest.mark.parametrize("mutant,frag", [
    ("sigma = 1\nsigma = 1\nm=1\nX=2\nY=1\nT=0.5\nI=8\nK=2\nJ=10", "duplicate"),
    ("wibble = 3\nsigma=1\nm=1\nX=2\nY=1\nT=0.5\nI=8\nK=2\nJ=10", "unknown key"),
    ("sigma =\nm=1\nX=2\nY=1\nT=0.5\nI=8\nK=2\nJ=10", "empty value"),
    ("sigma 1\nm=1\nX=2\nY=1\nT=0.5\nI=8\nK=2\nJ=10", "key = value"),
    ("m=1\nX=2\nY=1\nT=0.5\nI=8\nK=2\nJ=10", "missing required"),
    ("sigma=1\nm=1\nX=2\nY=1\nT=0.5\nI=eight\nK=2\nJ=10", "integer"),
    ("sigma=one\nm=1\nX=2\nY=1\nT=0.5\nI=8\nK=2\nJ=10", "number"),
])
def test_parse_config_errors(mutant, frag):
    with pytest.raises(ConfigError, match=frag):
        parse_config_text(mutant)


def test_load_config(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(GOOD_CONFIG)
    cfg, data = load_config(p)
    assert cfg.K == 2 and data.name == "bump"
