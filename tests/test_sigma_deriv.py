"""Two-point sigma-derivative quotient and the Poisson extension kernel.

The kernel normalization constant d = Gamma((1+s)/2) / (sqrt(pi) Gamma(s/2))
is checked against the same closed form evaluated with 50-digit mpmath, and
the kernel's unit mass against an independent quadrature.  The order-study table values are
frozen 4-decimal strings so formatting or constant drift cannot slip through.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate

from fracpme.core import mu_sigma
from fracpme.errors import QuadratureError
from fracpme.harness import DEFAULT_STUDY_YS, deriv_order_study, order_study_csv
from fracpme.oracles import (
    discrete_sigma_derivative,
    kernel_mass_constant,
    normalized_sigma_derivative,
    poisson_extension,
    poisson_kernel,
)

mpmath.mp.dps = 50


# ---------------------------------------------------------------------------
# quotient


def test_quotient_value():
    # F = sigma * (vy - v0) / y^sigma, spot value with exact binary inputs
    assert discrete_sigma_derivative(1.0, 3.0, 0.25, 1.0) == pytest.approx(8.0, rel=1e-15)
    assert discrete_sigma_derivative(0.0, 1.0, 0.25, 0.5) == pytest.approx(1.0, rel=1e-15)


def test_quotient_accepts_arrays():
    v0 = np.array([0.0, 1.0, 2.0])
    vy = np.array([1.0, 1.0, 0.0])
    out = discrete_sigma_derivative(v0, vy, 0.5, 1.0)
    assert np.allclose(out, [2.0, 0.0, -4.0])


def test_normalized_is_mu_times_quotient():
    for sigma in (0.3, 1.0, 1.7):
        F = discrete_sigma_derivative(0.2, 0.9, 0.1, sigma)
        assert normalized_sigma_derivative(0.2, 0.9, 0.1, sigma) == pytest.approx(
            mu_sigma(sigma) * F, rel=1e-15)


@given(v0=st.floats(-5, 5), vy=st.floats(-5, 5), a=st.floats(-3, 3))
def test_quotient_linear_in_values(v0, vy, a):
    base = discrete_sigma_derivative(v0, vy, 0.25, 0.7)
    scaled = discrete_sigma_derivative(a * v0, a * vy, 0.25, 0.7)
    assert scaled == pytest.approx(a * base, rel=1e-12, abs=1e-12)


def test_quotient_rejects_bad_inputs():
    with pytest.raises(ValueError):
        discrete_sigma_derivative(0.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        discrete_sigma_derivative(0.0, 1.0, -0.5, 1.0)
    with pytest.raises(ValueError):
        discrete_sigma_derivative(np.nan, 1.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        discrete_sigma_derivative(0.0, 1.0, 0.5, 2.5)
    for y in (math.inf, math.nan):
        with pytest.raises(ValueError):
            discrete_sigma_derivative(1.0, 2.0, y, 0.5)
        with pytest.raises(ValueError):
            normalized_sigma_derivative(1.0, 2.0, y, 0.5)
    with pytest.raises(ValueError, match="non-finite input 'y'"):
        discrete_sigma_derivative(1.0, 2.0, math.inf, 0.5)


# ---------------------------------------------------------------------------
# kernel normalization


@pytest.mark.parametrize("sigma", [0.1, 0.3, 0.5, 1.0, 1.5, 1.9])
def test_kernel_constant_matches_closed_form(sigma):
    s = mpmath.mpf(sigma)
    want = float(mpmath.gamma((1 + s) / 2) / (mpmath.sqrt(mpmath.pi) * mpmath.gamma(s / 2)))
    assert kernel_mass_constant(sigma) == pytest.approx(want, rel=1e-10)


def test_kernel_constant_at_sigma_one():
    # Cauchy kernel: d = 1/pi
    assert kernel_mass_constant(1.0) == pytest.approx(1.0 / math.pi, rel=1e-12)


@pytest.mark.parametrize("y", [0.1, 1.0, 10.0])
@pytest.mark.parametrize("sigma", [0.5, 1.0, 1.5])
def test_kernel_has_unit_mass_at_every_height(sigma, y):
    mass, _ = integrate.quad(lambda x: poisson_kernel(x, y, sigma),
                             -np.inf, np.inf, epsabs=1e-12, limit=400)
    assert mass == pytest.approx(1.0, abs=1e-8)


def test_kernel_center_value_and_symmetry():
    for sigma in (0.5, 1.0, 1.5):
        d = kernel_mass_constant(sigma)
        for y in (0.25, 2.0):
            assert poisson_kernel(0.0, y, sigma) == pytest.approx(d / y, rel=1e-14)
        assert poisson_kernel(0.7, 1.3, sigma) == poisson_kernel(-0.7, 1.3, sigma)
        assert poisson_kernel(0.7, 1.3, sigma) > 0.0


def test_kernel_rejects_bad_arguments():
    with pytest.raises(ValueError):
        poisson_kernel(0.0, 0.0, 1.0)
    for x, y in ((math.nan, 1.0), (math.inf, 1.0), (0.0, math.inf), (0.0, math.nan)):
        with pytest.raises(ValueError, match="non-finite"):
            poisson_kernel(x, y, 0.5)


# ---------------------------------------------------------------------------
# extension by convolution


def test_extension_of_constant_is_constant():
    for sigma in (0.3, 1.0, 1.8):
        for y in (0.05, 1.0, 5.0):
            v = poisson_extension(lambda x: 1.0, 0.4, y, sigma)
            assert v == pytest.approx(1.0, abs=1e-9)


def test_extension_of_odd_function_vanishes_at_origin():
    v = poisson_extension(math.tanh, 0.0, 0.7, 0.8)
    assert v == pytest.approx(0.0, abs=1e-9)


def test_extension_matches_cauchy_semigroup_at_sigma_one():
    # sigma = 1 kernel is the Cauchy kernel P_y, a convolution semigroup:
    # extending g(x) = 1/(1+x^2) = pi P_1(x) gives pi P_{y+1}(x)
    g = lambda x: 1.0 / (1.0 + x * x)
    for x, y in ((0.0, 0.5), (0.3, 1.0), (-1.0, 0.25)):
        v = poisson_extension(g, x, y, 1.0)
        want = (y + 1.0) / (x * x + (y + 1.0) ** 2)
        assert v == pytest.approx(want, abs=1e-9)


def test_extension_matches_harmonic_case_for_oscillatory_data():
    # Extension of cos(x) at sigma = 1 is exp(-y) cos(x).  The oscillation
    # never decays, so the panels near t = 0 stay unresolved and the errors
    # sit near 2e-5; the identity is checked at that honest tolerance.
    for x, y in ((0.0, 0.5), (0.3, 1.0)):
        v = poisson_extension(math.cos, x, y, 1.0, tol=1e-4)
        assert v == pytest.approx(math.exp(-y) * math.cos(x), abs=1e-4)


def test_extension_rejects_non_finite_input_and_nan_data():
    for x, y in ((math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0), (0.0, math.inf),
                 (0.0, math.nan)):
        with pytest.raises(ValueError, match="non-finite"):
            poisson_extension(lambda s: 1.0, x, y, 0.5)
    # a NaN estimate certifies nothing
    with pytest.raises(QuadratureError) as ei:
        poisson_extension(lambda s: math.nan, 0.0, 1.0, 0.5)
    assert math.isnan(ei.value.achieved)


def test_extension_preserves_bounds():
    # 0 <= g <= 1 implies 0 <= v <= 1 (unit-mass positive kernel)
    g = lambda x: math.exp(-x * x)
    for sigma in (0.5, 1.5):
        v = poisson_extension(g, 0.1, 0.8, sigma)
        assert 0.0 < v < 1.0


@given(a=st.floats(-2, 2), b=st.floats(-2, 2))
def test_extension_linearity(a, b):
    g1 = lambda x: 1.0 / (1.0 + x * x)
    g2 = lambda x: math.exp(-x * x)
    combo = lambda x: a * g1(x) + b * g2(x)
    lhs = poisson_extension(combo, 0.2, 0.6, 1.2, tol=1e-9)
    rhs = (a * poisson_extension(g1, 0.2, 0.6, 1.2, tol=1e-9)
           + b * poisson_extension(g2, 0.2, 0.6, 1.2, tol=1e-9))
    assert lhs == pytest.approx(rhs, abs=1e-7)


def test_quotient_of_harmonic_extension_converges_linearly_at_sigma_one():
    # v = exp(-y) cos(x): mu_1 * F -> -cos(x) with O(y) error
    x = 0.4
    errs = []
    for y in (0.2, 0.1, 0.05):
        F = normalized_sigma_derivative(math.cos(x), math.exp(-y) * math.cos(x), y, 1.0)
        errs.append(abs(F + math.cos(x)))
    assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.15)
    assert errs[1] / errs[2] == pytest.approx(2.0, rel=0.15)


# ---------------------------------------------------------------------------
# order study, frozen table

# E(y) = sigma (exp(y^2) - 1) / y^sigma on y = 0.5, 0.25, 0.125, 0.0625,
# rounded to 4 decimals, with the two-point fits alpha and sigma_e = 2 - alpha.
FROZEN_STUDY = {
    0.5: (("0.2008", "", ""), ("0.0645", "1.6388", "0.3612"),
          ("0.0223", "1.5340", "0.4660"), ("0.0078", "1.5085", "0.4915")),
    1.0: (("0.5681", "", ""), ("0.2580", "1.1388", "0.8612"),
          ("0.1260", "1.0340", "0.9660"), ("0.0626", "1.0085", "0.9915")),
    1.5: (("1.2050", "", ""), ("0.7739", "0.6388", "1.3612"),
          ("0.5345", "0.5340", "1.4660"), ("0.3757", "0.5085", "1.4915")),
}


@pytest.mark.parametrize("sigma", sorted(FROZEN_STUDY))
def test_order_study_matches_frozen_values(sigma):
    rows = deriv_order_study(sigma)
    assert [r.y for r in rows] == list(DEFAULT_STUDY_YS)
    for row, (E, alpha, sigma_e) in zip(rows, FROZEN_STUDY[sigma]):
        assert f"{row.E:.4f}" == E
        if alpha:
            assert f"{row.alpha:.4f}" == alpha
            assert f"{row.sigma_e:.4f}" == sigma_e
        else:
            assert row.alpha is None and row.sigma_e is None


@pytest.mark.parametrize("sigma", [0.5, 1.0, 1.5])
def test_order_study_matches_mpmath(sigma):
    s = mpmath.mpf(sigma)
    rows = deriv_order_study(sigma)
    for row in rows:
        y = mpmath.mpf(row.y)
        want = float(s * (mpmath.exp(y * y) - 1) / y ** s)
        assert row.E == pytest.approx(want, rel=1e-12)


def test_order_study_fit_tends_to_two_minus_sigma():
    rows = deriv_order_study(0.5, ys=[2.0 ** -j for j in range(1, 10)])
    assert rows[-1].alpha == pytest.approx(1.5, abs=2e-3)
    assert rows[-1].sigma_e == pytest.approx(0.5, abs=2e-3)


def test_order_study_input_validation():
    with pytest.raises(ValueError):
        deriv_order_study(1.0, ys=[0.5])
    with pytest.raises(ValueError):
        deriv_order_study(1.0, ys=[0.25, 0.5])
    with pytest.raises(ValueError):
        deriv_order_study(1.0, ys=[0.5, 0.0])
    with pytest.raises(ValueError, match="overflows"):
        deriv_order_study(1.0, ys=[100.0, 50.0])        # exp(y^2) is not a double
    # the largest accepted height still gives a finite error at sigma near 2
    rows = deriv_order_study(1.999, ys=[26.6, 26.0])
    assert all(math.isfinite(r.E) for r in rows)


def test_order_study_csv_layout():
    blocks = [(s, deriv_order_study(s)) for s in (0.5, 1.0, 1.5)]
    csv = order_study_csv(blocks)
    lines = csv.strip().split("\n")
    assert lines[0] == "sigma,y,E,alpha,sigma_e"
    assert len(lines) == 1 + 3 * 4
    assert lines[1] == "0.5000,0.5000,0.2008,,"
    assert lines[6] == "1.0000,0.2500,0.2580,1.1388,0.8612"
    assert csv.endswith("\n")
