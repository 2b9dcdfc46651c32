"""Reference computations: principal-value fractional Laplacian, spectral
linear-case solution, self-similar exponents, dense elliptic reference.

The two independent routes to the fractional Laplacian (real-space PV
quadrature and Fourier-symbol integration) are played against each other on
Gaussian data, and both against closed forms where those exist (cosine
symbol, Cauchy-profile identity at sigma = 1).
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate

from fracpme import extension_op, oracles
from fracpme.core import Grid, nu_sigma, riesz_constant
from fracpme.errors import QuadratureError
from fracpme.oracles import (
    barenblatt_exponents,
    box_symbol,
    dense_extension_solve,
    frac_laplacian_pv,
    fractional_heat_solution,
    gaussian_hat,
    lateral_bound,
    min_domain_half_width,
)
from pointwise import apply_operator


# ---------------------------------------------------------------------------
# principal-value fractional Laplacian


@pytest.mark.parametrize("sigma", [0.5, 1.0, 1.5])
@pytest.mark.parametrize("omega", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("x", [0.0, 0.3])
def test_pv_reproduces_the_fourier_symbol(sigma, omega, x):
    got = frac_laplacian_pv(lambda s: math.cos(omega * s), x, sigma)
    assert got == pytest.approx(omega ** sigma * math.cos(omega * x), abs=1e-6)


@pytest.mark.parametrize("sigma", [0.3, 0.9, 1.1, 1.9])
def test_pv_symbol_on_both_branches(sigma):
    # sigma <= 1 integrates the raw second difference; sigma > 1 extracts the
    # quadratic part first -- both must see the same symbol
    got = frac_laplacian_pv(lambda s: math.cos(2.0 * s), 0.0, sigma)
    assert got == pytest.approx(2.0 ** sigma, abs=1e-6)


def test_pv_of_sine_is_odd_symbol():
    got = frac_laplacian_pv(lambda s: math.sin(1.5 * s), 0.4, 0.7)
    assert got == pytest.approx(1.5 ** 0.7 * math.sin(0.6), abs=1e-6)


@pytest.mark.parametrize("sigma", [0.4, 1.0, 1.6])
def test_pv_annihilates_constants_exactly(sigma):
    assert frac_laplacian_pv(lambda s: 2.5, 0.3, sigma) == 0.0


def test_pv_cauchy_profile_closed_form_at_sigma_one():
    # (-Lap)^(1/2) (1+x^2)^(-1) = (1 - x^2) / (1 + x^2)^2, from the Poisson
    # semigroup d/dt pi P_t at t = 1.  Quadratic tail decay is the slowest
    # the tail ladder handles; its four levels leave errors below 5e-10 (three
    # left 3.6e-9).
    g = lambda s: 1.0 / (1.0 + s * s)
    for x in (0.0, 0.5, 2.0):
        want = (1.0 - x * x) / (1.0 + x * x) ** 2
        assert frac_laplacian_pv(g, x, 1.0, tol=1e-6) == pytest.approx(want, abs=2e-9)


@pytest.mark.parametrize("sigma", [0.3, 0.5, 0.7, 1.0, 1.3])
@pytest.mark.parametrize("x", [0.0, 0.3, 2.0])
def test_pv_cauchy_profile_closed_form_within_tol(sigma, x):
    # the symbol |xi|^sigma against the transform pi e^-|xi| of 1/(1+u^2):
    # Gamma(1+sigma) Re (1 - ix)^-(1+sigma).  The second difference's u^-2
    # tail leaves a Z^-(sigma+2) remainder that a two-level ladder misses.
    want = (math.gamma(1.0 + sigma) * math.cos((1.0 + sigma) * math.atan(x))
            / (1.0 + x * x) ** ((1.0 + sigma) / 2.0))
    got = frac_laplacian_pv(lambda s: 1.0 / (1.0 + s * s), x, sigma, tol=1e-6)
    assert got == pytest.approx(want, abs=1e-6)


@pytest.mark.parametrize("sigma", [0.3, 0.5, 0.7, 0.9, 1.0, 1.3, 1.5])
def test_pv_at_a_kink_is_certified_or_refused(sigma):
    # 1/(1+|u|) has a kink at x = 0: the second difference is 2z/(1+z), so the
    # PV is C_sigma 2 pi / sin(pi sigma) for sigma < 1 and diverges from 1 on.
    # Below z ~ 1e-16 the difference rounds to 0, and the spike z^-sigma that
    # lives there must not be certified away.
    g = lambda s: 1.0 / (1.0 + abs(s))
    if sigma >= 1.0:
        with pytest.raises(QuadratureError):
            frac_laplacian_pv(g, 0.0, sigma, tol=1e-6)
        return
    want = riesz_constant(1, sigma) * 2.0 * math.pi / math.sin(math.pi * sigma)
    try:
        got = frac_laplacian_pv(g, 0.0, sigma, tol=1e-6)
    except QuadratureError:
        return
    assert got == pytest.approx(want, abs=1e-6)


@pytest.mark.parametrize("tol", [1e-6, 1e-8])
@pytest.mark.parametrize("sigma", [0.3, 0.5, 0.7, 0.9])
def test_pv_at_a_kink_lands_within_tol_or_refuses(sigma, tol):
    # the far field of 1/(1+|u|), 2/(z^sigma (1+z)), has remainders in every
    # power Z^-(sigma+q); a three-level tail ladder left 1.6e-7 at sigma = 0.3
    # and certified 2e-9 at tol 1e-8
    g = lambda s: 1.0 / (1.0 + abs(s))
    want = riesz_constant(1, sigma) * 2.0 * math.pi / math.sin(math.pi * sigma)
    try:
        got = frac_laplacian_pv(g, 0.0, sigma, tol=tol)
    except QuadratureError:
        return
    assert abs(got - want) <= tol


@pytest.mark.parametrize("sigma", [0.3, 0.5, 0.7, 1.0, 1.3])
@pytest.mark.parametrize("x", [0.0, 0.3, 2.0])
def test_pv_cauchy_profile_lands_within_tol_or_refuses(sigma, x):
    # at tol 1e-8 the u^-2 tail's Z^-(sigma+4) remainder matters: a
    # three-level ladder certified errors up to 1.8e-7 with estimates near 2e-9
    want = (math.gamma(1.0 + sigma) * math.cos((1.0 + sigma) * math.atan(x))
            / (1.0 + x * x) ** ((1.0 + sigma) / 2.0))
    try:
        got = frac_laplacian_pv(lambda s: 1.0 / (1.0 + s * s), x, sigma, tol=1e-8)
    except QuadratureError:
        return
    assert abs(got - want) <= 1e-8


@pytest.mark.parametrize("sigma", [0.6, 1.0, 1.4])
def test_pv_matches_spectral_route_on_gaussian(sigma):
    # real-space PV vs Fourier-side integral of |xi|^sigma g_hat: independent
    # code paths, same operator
    g = lambda s: math.exp(-s * s)
    for x in (0.0, 0.7):
        pv = frac_laplacian_pv(g, x, sigma, tol=1e-9)
        spectral, _ = integrate.quad(
            lambda xi: xi ** sigma * gaussian_hat(xi) * math.cos(xi * x) / math.pi,
            0.0, np.inf, epsabs=1e-12)
        assert pv == pytest.approx(spectral, abs=1e-7)


def test_pv_is_linear():
    g1 = lambda s: math.exp(-s * s)
    g2 = lambda s: 1.0 / (1.0 + s * s)
    combo = lambda s: 2.0 * g1(s) - 0.5 * g2(s)
    got = frac_laplacian_pv(combo, 0.3, 0.8)
    want = (2.0 * frac_laplacian_pv(g1, 0.3, 0.8)
            - 0.5 * frac_laplacian_pv(g2, 0.3, 0.8))
    assert got == pytest.approx(want, abs=1e-7)


def test_pv_even_data_gives_even_result():
    g = lambda s: math.exp(-s * s)
    a = frac_laplacian_pv(g, 0.6, 1.3)
    b = frac_laplacian_pv(g, -0.6, 1.3)
    assert a == pytest.approx(b, rel=1e-9)


def test_pv_full_output_and_certification():
    val, est = frac_laplacian_pv(lambda s: math.exp(-s * s), 0.0, 0.5,
                                 tol=1e-8, full_output=True)
    assert est <= 1e-8
    assert val == pytest.approx(frac_laplacian_pv(lambda s: math.exp(-s * s), 0.0, 0.5))


def test_pv_raises_when_tolerance_unreachable():
    with pytest.raises(QuadratureError) as ei:
        frac_laplacian_pv(lambda s: math.exp(-s * s), 0.0, 0.5, tol=1e-15)
    assert ei.value.achieved > 1e-15


def test_pv_rejects_bad_sigma():
    with pytest.raises(ValueError):
        frac_laplacian_pv(lambda s: 0.0, 0.0, 2.0)


def test_pv_rejects_non_finite_input():
    g = lambda s: math.exp(-s * s)
    for x in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            frac_laplacian_pv(g, x, 0.5)
    # a NaN estimate certifies nothing
    with pytest.raises(QuadratureError) as ei:
        frac_laplacian_pv(lambda s: math.nan, 0.0, 0.5)
    assert math.isnan(ei.value.achieved)


# ---------------------------------------------------------------------------
# spectral solution of the linear problem


# the trace nodes of the acceptance-7 m = 1 study at its finest level (I = 128)
STUDY_NODES = np.linspace(-16.0, 16.0, 129)


def test_heat_solution_identity_at_time_zero():
    for sigma in (0.3, 1.0):
        for x in (0.0, 0.7, 2.0, STUDY_NODES):
            u = fractional_heat_solution(gaussian_hat, x, 0.0, sigma)
            assert np.shape(u) == np.shape(x)
            assert np.abs(u - np.exp(-np.square(x))).max() <= 1e-9


@pytest.mark.parametrize("t,sigma", [(0.5, 1.0), (0.5, 0.5), (0.25, 1.5), (1.0, 0.3), (0.1, 1.9)])
def test_heat_solution_matches_per_point_quad(t, sigma):
    # the shared-node rule against one adaptive QUADPACK integral per node
    xs = STUDY_NODES[64:]
    got = fractional_heat_solution(gaussian_hat, xs, t, sigma)
    for x, u in zip(xs, got):
        want, est = integrate.quad(
            lambda xi: math.exp(-xi ** sigma * t - xi * xi / 4.0) * math.cos(xi * x)
            / math.sqrt(math.pi), 0.0, np.inf, epsabs=1e-12, epsrel=1e-13, limit=400)
        assert est <= 1e-11
        assert u == pytest.approx(want, abs=1e-9)
    # a scalar call is the length-1 case, on its own panels
    assert fractional_heat_solution(gaussian_hat, float(xs[3]), t, sigma) == pytest.approx(
        got[3], abs=1e-9)


@pytest.mark.parametrize("sigma", [0.3, 1.0, 1.9])
def test_heat_solution_is_even_bitwise(sigma):
    u = fractional_heat_solution(gaussian_hat, STUDY_NODES, 0.5, sigma)
    assert np.array_equal(u, u[::-1])
    assert (fractional_heat_solution(gaussian_hat, -0.7, 0.5, sigma)
            == fractional_heat_solution(gaussian_hat, 0.7, 0.5, sigma))


def test_heat_solution_matches_cauchy_convolution_at_sigma_one():
    # sigma = 1 semigroup is convolution with the Cauchy kernel
    t = 0.3
    for x in (0.0, 1.0):
        u = fractional_heat_solution(gaussian_hat, x, t, 1.0)
        want, _ = integrate.quad(
            lambda s: t / math.pi / ((x - s) ** 2 + t * t) * math.exp(-s * s),
            -np.inf, np.inf, epsabs=1e-12)
        assert u == pytest.approx(want, abs=1e-7)


@pytest.mark.parametrize("sigma", [0.5, 1.5])
def test_heat_solution_sup_norm_decays(sigma):
    vals = [fractional_heat_solution(gaussian_hat, 0.0, t, sigma)
            for t in (0.0, 0.25, 0.5, 1.0)]
    assert all(a > b > 0.0 for a, b in zip(vals, vals[1:]))


def test_heat_solution_time_derivative_agrees_with_pv():
    # dual-route consistency: d/dt u = -(-Lap)^(sigma/2) u, the left side from
    # the spectral integrand, the right side from the real-space PV oracle
    sigma, t, x = 1.4, 0.5, 0.3
    dtu, _ = integrate.quad(
        lambda xi: -xi ** sigma * math.exp(-xi ** sigma * t) * gaussian_hat(xi)
        * math.cos(xi * x) / math.pi, 0.0, np.inf, epsabs=1e-12)
    pv = frac_laplacian_pv(
        lambda s: fractional_heat_solution(gaussian_hat, s, t, sigma), x, sigma,
        tol=1e-6)
    assert -pv == pytest.approx(dtu, abs=1e-5)


def test_heat_solution_guards():
    for t in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError):
            fractional_heat_solution(gaussian_hat, 0.0, t, 1.0)
    for x in (math.nan, math.inf, np.array([0.0, -math.inf])):
        with pytest.raises(ValueError, match="finite"):
            fractional_heat_solution(gaussian_hat, x, 0.5, 1.0)
    for x in (0.0, STUDY_NODES):
        with pytest.raises(QuadratureError) as ei:
            fractional_heat_solution(gaussian_hat, x, 0.5, 0.5, tol=1e-30)
        assert ei.value.achieved > 1e-30
    # a NaN estimate certifies nothing
    with pytest.raises(QuadratureError) as ei:
        fractional_heat_solution(lambda xi: xi * math.nan, 0.0, 0.5, 1.0)
    assert math.isnan(ei.value.achieved)


def test_gauss_kronrod_pair_is_exact_to_its_degrees():
    # K15 integrates degree 22 exactly and G7 degree 13 on [-1, 1]; the second
    # weight column is K15 - G7, so it annihilates degree <= 13 and not 14
    x = oracles._GK_NODES
    for p in range(24):
        exact = (1.0 - (-1.0) ** (p + 1)) / (p + 1)
        kd = oracles._GK_WEIGHTS.T @ x ** p
        assert kd[0] == pytest.approx(exact, abs=1e-15)
        if p <= 13:
            assert abs(kd[1]) <= 1e-15
        elif p % 2 == 0:                # odd powers vanish by symmetry
            assert abs(kd[1]) > 1e-5


def test_engine_keeps_leading_axes_and_stops_short_visibly():
    # f's leading axes come back in front of the panel axis, and an integrand
    # the engine cannot resolve leaves an estimate above tol for the caller
    f = lambda s: np.stack([np.cos(s), np.exp(s)])
    a, K, E = oracles._gauss_kronrod(f, np.array([0.0, 0.5]), np.array([0.5, 1.0]), 1e-12)
    assert K.shape == E.shape == (2, len(a))
    assert K.sum(axis=-1) == pytest.approx([math.sin(1.0), math.e - 1.0], abs=1e-14)
    assert E.max(axis=0).sum() <= 0.5e-12
    for g in (lambda z: z ** -0.9, lambda z: np.sin(1.0 / z)):
        a, K, E = oracles._gauss_kronrod(g, np.zeros(1), np.ones(1), 1e-8)
        assert E.sum() > 1e-8 and len(a) <= oracles._MAX_PANELS


def test_gaussian_hat_values():
    assert gaussian_hat(0.0) == pytest.approx(math.sqrt(math.pi), rel=1e-15)
    assert gaussian_hat(2.0) == pytest.approx(math.sqrt(math.pi) / math.e, rel=1e-14)
    assert gaussian_hat(1.3) == gaussian_hat(-1.3)
    xi = np.array([0.0, 1.3, 2.0])
    assert gaussian_hat(xi).tolist() == [gaussian_hat(v) for v in xi]


# ---------------------------------------------------------------------------
# self-similar exponents and truncation scalings


def test_barenblatt_known_values():
    # beta = 1/(N(m-1) + sigma), alpha = N beta (Vazquez 2014)
    e = barenblatt_exponents(1, 1.0, 1.0)
    assert (e.alpha, e.beta) == (1.0, 1.0)
    e = barenblatt_exponents(1, 2.0, 1.0)
    assert (e.alpha, e.beta) == (0.5, 0.5)
    e = barenblatt_exponents(2, 1.0, 1.0)
    assert (e.alpha, e.beta) == (2.0, 1.0)
    e = barenblatt_exponents(3, 3.0, 0.5)
    assert e.beta == pytest.approx(1.0 / 6.5, rel=1e-15)
    assert e.alpha == pytest.approx(3.0 / 6.5, rel=1e-15)


@given(n_dim=st.integers(1, 3), m=st.floats(1.0, 4.0), sigma=st.floats(0.05, 1.95))
def test_barenblatt_scaling_identity(n_dim, m, sigma):
    # -alpha + beta (N + sigma) = beta sigma: the exponent balance that makes
    # the self-similar form solve the equation
    e = barenblatt_exponents(n_dim, m, sigma)
    assert -e.alpha + e.beta * (n_dim + sigma) == pytest.approx(
        e.beta * sigma, rel=1e-12, abs=1e-15)


@given(n_dim=st.integers(1, 3), m=st.floats(1.0, 4.0), sigma=st.floats(0.05, 1.95))
def test_barenblatt_exponents_balance_the_equation(n_dim, m, sigma):
    # u = t^-alpha F(x t^-beta) in u_t + (-Lap)^(sigma/2) u^m = 0: u_t scales as
    # t^-(alpha+1), the fractional term as t^-(m alpha + sigma beta)
    e = barenblatt_exponents(n_dim, m, sigma)
    assert e.alpha + 1.0 == pytest.approx(m * e.alpha + sigma * e.beta, rel=1e-12)


@pytest.mark.parametrize("sigma", [0.5, 1.0, 1.5])
def test_barenblatt_alpha_matches_the_heat_kernel_decay(sigma):
    # at m = 1, N = 1 near-delta data decay as the fractional heat kernel,
    # u(0, t) ~ t^-alpha, read off fractional_heat_solution at t = 1 and 2
    f_hat = lambda xi: np.exp(-1e-6 * xi ** 2)
    decay = -math.log2(fractional_heat_solution(f_hat, 0.0, 2.0, sigma)
                       / fractional_heat_solution(f_hat, 0.0, 1.0, sigma))
    assert decay == pytest.approx(barenblatt_exponents(1, 1.0, sigma).alpha, abs=1e-3)


def test_barenblatt_guards():
    with pytest.raises(ValueError):
        barenblatt_exponents(0, 1.0, 1.0)
    with pytest.raises(ValueError):
        barenblatt_exponents(1, 0.5, 1.0)
    with pytest.raises(ValueError):
        barenblatt_exponents(1, 1.0, 2.0)


def test_lateral_bound_power_laws():
    base = lateral_bound(4.0, 1.0, 1, 1.0, 1.0)
    assert lateral_bound(8.0, 1.0, 1, 1.0, 1.0) == pytest.approx(
        base / 2.0 ** 2, rel=1e-12)
    beta = barenblatt_exponents(1, 1.0, 1.0).beta
    assert lateral_bound(4.0, 2.0, 1, 1.0, 1.0) == pytest.approx(
        base * 2.0 ** (beta * 1.0), rel=1e-12)
    assert lateral_bound(4.0, 1.0, 1, 1.0, 1.0, C=3.0) == pytest.approx(
        3.0 * base, rel=1e-15)
    with pytest.raises(ValueError):
        lateral_bound(0.0, 1.0, 1, 1.0, 1.0)
    for bad in (math.nan, math.inf, -math.inf, 0.0, -1.0):
        for args, kwargs in (((bad, 1.0), {}), ((1.0, bad), {}), ((1.0, 1.0), {"C": bad})):
            with pytest.raises(ValueError, match="finite and positive"):
                lateral_bound(*args, 1, 1.0, 1.0, **kwargs)
    # X^-(N+sigma) overflows (a float power raises) or underflows to 0
    with pytest.raises(ValueError, match="bound must be finite and positive, got inf"):
        lateral_bound(1e-300, 1.0, 1, 1.0, 1.0)
    with pytest.raises(ValueError, match="bound must be finite and positive, got 0.0"):
        lateral_bound(1e300, 1.0, 1, 1.0, 1.0)


def test_min_domain_half_width_values_and_divergence():
    # a/(N+sigma) = 1: the half-width is L/dx
    assert min_domain_half_width(0.25, 2.0, 1, 1.0) == pytest.approx(4.0, rel=1e-13)
    assert min_domain_half_width(0.25, 2.0, 1, 1.0, L=2.0) == pytest.approx(8.0, rel=1e-13)
    widths = [min_domain_half_width(dx, 1.5, 1, 0.5) for dx in (0.5, 0.25, 0.125)]
    assert widths[0] < widths[1] < widths[2]


def test_min_domain_half_width_guards():
    for bad in (0.0, 1.0, 1.5, -0.1, math.nan):
        with pytest.raises(ValueError):
            min_domain_half_width(bad, 2.0, 1, 1.0)
    with pytest.raises(ValueError):
        min_domain_half_width(0.5, 0.0, 1, 1.0)
    with pytest.raises(ValueError):
        min_domain_half_width(0.5, 2.0, 1, 1.0, L=0.0)
    for bad in (math.nan, math.inf, -math.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match="finite and positive"):
            min_domain_half_width(0.1, bad, 1, 0.5)
        with pytest.raises(ValueError, match="finite and positive"):
            min_domain_half_width(0.1, 1.0, 1, 0.5, L=bad)
    # dx^(a/(N+sigma)) underflows to 0; L / dx^(a/(N+sigma)) overflows
    with pytest.raises(ValueError, match="half_width must be finite and positive, got inf"):
        min_domain_half_width(0.1, 2000.0, 1, 0.5)
    with pytest.raises(ValueError, match="half_width must be finite and positive, got inf"):
        min_domain_half_width(1e-10, 20.0, 1, 0.1, L=1e300)


# ---------------------------------------------------------------------------
# dense elliptic reference


@pytest.mark.parametrize("sigma,d", [(0.5, 1), (1.0, 1), (1.5, 1), (0.5, 2), (1.5, 2)])
def test_dense_solution_satisfies_the_difference_equations(sigma, d):
    I, K, dx = 8, 6, 0.25
    rng = np.random.default_rng(5)
    trace = rng.random(I - 1)
    full = dense_extension_solve(I, K, dx, sigma, trace, c=2, d=d)
    resid = apply_operator(full, dx, sigma, c=2, d=d)
    scale = np.abs(full).max() / dx ** 2
    assert np.abs(resid).max() <= 1e-9 * scale


def test_dense_solution_enforces_dirichlet_rows():
    I, K, dx = 6, 4, 0.25
    trace = np.linspace(0.2, 0.8, I - 1)
    full = dense_extension_solve(I, K, dx, 0.7, trace, lateral_value=0.1)
    assert full[1:-1, 0] == pytest.approx(trace, rel=1e-13)
    assert np.all(np.abs(full[0, :] - 0.1) < 1e-13)
    assert np.all(np.abs(full[-1, :] - 0.1) < 1e-13)
    assert np.all(np.abs(full[:, -1] - 0.1) < 1e-13)


def test_dense_reference_rejects_unsupported_stencils():
    with pytest.raises(ValueError):
        dense_extension_solve(6, 4, 0.25, 0.5, np.zeros(5), c=3, d=1)
    with pytest.raises(ValueError):
        dense_extension_solve(6, 4, 0.25, 0.5, np.zeros(5), c=2, d=3)
    with pytest.raises(ValueError):
        dense_extension_solve(6, 4, 0.25, 0.5, np.zeros(4))


# ---------------------------------------------------------------------------
# exact trace symbol of the truncated problem


@pytest.mark.parametrize("X,Y", [(0.5, 0.01), (1.0, 0.5), (2.0, 2.0), (8.0, 40.0)])
def test_box_symbol_is_a_coth_at_sigma_1(X, Y):
    # s = 1/2: K_s/I_s = (pi/2) e^-z / sinh z, so d_n = a (1 + e^-z / sinh z) = a coth(aY)
    for n in range(1, 40):
        a = n * math.pi / (2.0 * X)
        want = a / math.tanh(a * Y)
        assert abs(box_symbol(n, X, Y, 1.0) - want) <= 1e-14 * want, n


@pytest.mark.parametrize("sigma", [0.1, 0.5, 1.0, 1.5, 1.9])
def test_box_symbol_is_the_whole_space_symbol_far_below_the_top(sigma):
    # once aY >= 40 the finite-height term is below e^-80: d_n = a^sigma
    for n in (1, 2, 5):
        for X in (0.5, 2.0):
            a = n * math.pi / (2.0 * X)
            for aY in (40.0, 50.0, 1000.0):
                assert abs(box_symbol(n, X, aY / a, sigma) - a ** sigma) <= 1e-14 * a ** sigma


@pytest.mark.parametrize("args", [(0, 1.0, 1.0, 0.5), (1.5, 1.0, 1.0, 0.5), (math.inf, 1.0, 1.0, 0.5),
                                  (math.nan, 1.0, 1.0, 0.5), (1, 0.0, 1.0, 0.5),
                                  (1, 1.0, math.inf, 0.5), (1, 1.0, math.nan, 0.5)])
def test_box_symbol_refuses_bad_input(args):
    with pytest.raises(ValueError):
        box_symbol(*args)


def test_scheme_symbol_converges_to_the_box_symbol_at_sigma_1():
    # Diagnostic.  For c = 2, column n-1 of V is the box mode phi_n, so the scheme's
    # symbol is nu_sigma (1 - G[0, n-1]) / dx^sigma, the two-point quotient of the
    # trace phi_n.  At sigma = 1 with (2, None) its error halves with dx.  At
    # sigma != 1 it does not converge: the next test pins README's known defect
    X = Y = 2.0
    errors = {n: [] for n in (1, 2, 3)}
    for I in (32, 64, 128, 256, 512):
        op = extension_op.assemble(Grid(X, Y, I, I // 2), 1.0, c=2, d=None)
        for n, errs in errors.items():
            exact = box_symbol(n, X, Y, 1.0)
            errs.append(abs(nu_sigma(1.0) * (1.0 - op.G[0, n - 1]) / (2.0 * X / I) - exact) / exact)
    for n, errs in errors.items():
        orders = [math.log2(e0 / e1) for e0, e1 in zip(errs, errs[1:])]
        assert all(abs(p - 1.0) <= 0.1 for p in orders), (n, orders)


# README, "Known defect at sigma != 1": the mode-1 relative symbol error in %, as printed
_KNOWN_DEFECT = {
    (0.5, 2, 1): (-34.2, -36.7, -38.7, -40.1, -41.1),
    (0.5, 2, 2): (-25.3, -27.2, -28.7, -29.8, -30.6),
    (1.5, 2, 1): (-19.4, -17.2, -16.2, -15.8, -15.6),
}


@pytest.mark.parametrize("sigma,c,d", list(_KNOWN_DEFECT))
def test_scheme_symbol_known_defect_at_sigma_other_than_1(sigma, c, d):
    # the scheme's mode-1 symbol nu_sigma (1 - G[0, 0]) / dx^sigma against box_symbol,
    # X = Y = 2, K = I/2: each README entry to its printed 0.1 %
    exact = box_symbol(1, 2.0, 2.0, sigma)
    for I, printed in zip((32, 64, 128, 256, 512), _KNOWN_DEFECT[sigma, c, d]):
        op = extension_op.assemble(Grid(2.0, 2.0, I, I // 2), sigma, c, d)
        rel = (nu_sigma(sigma) * (1.0 - op.G[0, 0]) / (4.0 / I) ** sigma - exact) / exact
        assert abs(100.0 * rel - printed) <= 0.05, (I, 100.0 * rel, printed)
