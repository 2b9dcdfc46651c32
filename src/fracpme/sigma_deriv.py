"""Two-point sigma-derivative at the trace and the Poisson extension kernel.

The quotient F(x, y) = sigma * (v(x, y) - v(x, 0)) / y^sigma approximates the
(unnormalized) sigma-derivative of v at y = 0; multiplying by mu_sigma gives
an O(y^(2-sigma)) approximation of -(-Lap)^(sigma/2) applied to the trace,
for C^2 traces.  The order experiment below drives the exact test function
v = exp(y^2), whose sigma-derivative at 0 vanishes, so the quotient itself is
the error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import core
from .errors import ConfigError, QuadratureError
from .oracles import _gauss_kronrod

__all__ = [
    "discrete_sigma_derivative", "normalized_sigma_derivative",
    "kernel_mass_constant", "poisson_kernel",
    "poisson_extension", "OrderStudyRow", "deriv_order_study", "order_study_csv",
]


def _require_finite(**vals):
    for name, v in vals.items():
        if not np.all(np.isfinite(v)):
            raise ValueError(f"non-finite input {name!r}")


def discrete_sigma_derivative(v0, vy, y: float, sigma: float):
    """F(x, y) = sigma * (v(x,y) - v(x,0)) / y^sigma.

    v0 and vy may be scalars or arrays (mesh row 0 and row at height y); a
    non-finite value or height is a ValueError.
    """
    core._check_sigma(sigma)
    if not (y > 0.0):
        raise ValueError(f"evaluation height must be positive, got {y}")
    _require_finite(v0=v0, vy=vy, y=y)
    return sigma * (np.asarray(vy, dtype=float) - np.asarray(v0, dtype=float)) / y ** sigma


def normalized_sigma_derivative(v0, vy, y: float, sigma: float):
    """mu_sigma * F; approximates the normalized sigma-derivative at y = 0."""
    return core.mu_sigma(sigma) * discrete_sigma_derivative(v0, vy, y, sigma)


# ---------------------------------------------------------------------------
# Poisson kernel of the extension problem, unit-mass normalization

def kernel_mass_constant(sigma: float) -> float:
    """d_sigma such that the N = 1 kernel d * y^s / (x^2 + y^2)^((1+s)/2) has unit mass.

    The mass integral of (1 + x^2)^(-(1+s)/2) over the line is B(1/2, s/2),
    so d_sigma = G((1+s)/2) / (sqrt(pi) G(s/2)).
    """
    sigma = core._check_sigma(sigma)
    return math.gamma((1.0 + sigma) / 2.0) / (math.sqrt(math.pi) * math.gamma(sigma / 2.0))


def poisson_kernel(x: float, y: float, sigma: float) -> float:
    """Extension kernel P(x, y) in one dimension."""
    core._check_sigma(sigma)
    _require_finite(x=x, y=y)
    if not (y > 0.0):
        raise ValueError(f"kernel height must be positive, got {y}")
    d = kernel_mass_constant(sigma)
    return d * y ** sigma / (x * x + y * y) ** ((1.0 + sigma) / 2.0)


def poisson_extension(g: Callable[[float], float], x: float, y: float,
                      sigma: float, tol: float = 1e-10) -> float:
    """v(x, y) = (P(., y) * g)(x) for bounded integrable g, abs tolerance tol.

    With xi = x + y*s, then s = cot t folding s onto -s, the convolution is
        int_0^(pi/2) d_sigma sin(t)^(sigma-1) (g(x + y cot t) + g(x - y cot t)) dt,
    certified by the oracles' adaptive quadrature; g is called with one float
    at a time.  For data that oscillate without decay (e.g. cos) the panels
    near t = 0 stay unresolved: at sigma = 1 a tol of 1e-4 is certified with
    errors near 2e-5, and a much tighter tol raises QuadratureError.  A
    non-finite x or y is a ValueError.
    """
    core._check_sigma(sigma)
    _require_finite(x=x, y=y)
    if not (y > 0.0):
        raise ValueError(f"extension height must be positive, got {y}")
    d = kernel_mass_constant(sigma)
    g = np.vectorize(g, otypes=[float])

    def integrand(t):
        s = y / np.tan(t)
        return d * np.sin(t) ** (sigma - 1.0) * (g(x + s) + g(x - s))

    # starting panels of t graded geometrically toward 0, where s = cot t runs off
    breaks = np.concatenate([[0.0], math.pi / 2.0 * 0.5 ** np.arange(120, -1, -1)])
    _, K, E = _gauss_kronrod(integrand, breaks[:-1], breaks[1:], tol)
    est = float(E.sum())
    if not est <= tol:                  # a NaN estimate certifies nothing
        raise QuadratureError(
            f"poisson_extension reached abs error {est:.3e} > tol {tol:.3e} "
            f"at (x={x}, y={y}, sigma={sigma})", achieved=est)
    return float(K.sum())


# ---------------------------------------------------------------------------
# order experiment for the two-point quotient

@dataclass(frozen=True)
class OrderStudyRow:
    y: float
    E: float
    alpha: float | None
    sigma_e: float | None


DEFAULT_STUDY_YS = (0.5, 0.25, 0.125, 0.0625)
_MAX_STUDY_Y = math.sqrt(math.log(np.finfo(float).max) - 1.0)   # sigma * exp(y^2) < inf


def deriv_order_study(sigma: float, ys: Sequence[float] = DEFAULT_STUDY_YS) -> list[OrderStudyRow]:
    """Error |F(x, y)| of the two-point quotient on a decreasing ladder of y.

    The test function v = exp(y^2) has zero exact sigma-derivative at y = 0,
    so E(y) = sigma * (exp(y^2) - 1) / y^sigma.  alpha is the two-point order
    fit between consecutive rows and sigma_e = 2 - alpha the implied exponent;
    both are None on the first row.
    """
    core._check_sigma(sigma)
    ys = [float(y) for y in ys]
    if len(ys) < 2:
        raise ConfigError("need at least two heights")
    if (not all(map(math.isfinite, ys)) or ys[-1] <= 0.0 or ys[0] > _MAX_STUDY_Y
            or any(y2 >= y1 for y1, y2 in zip(ys, ys[1:]))):
        raise ConfigError(f"heights must be finite, strictly decreasing, positive and at "
                          f"most {_MAX_STUDY_Y:.4g} (exp(y^2) overflows above)")

    rows: list[OrderStudyRow] = []
    for y in ys:
        E = abs(float(discrete_sigma_derivative(1.0, math.exp(y * y), y, sigma)))
        if E == 0.0:
            raise ConfigError(f"height y = {y:g} is too small: E(y) rounds to 0, "
                              f"so no order can be fitted")
        alpha = math.log(rows[-1].E / E) / math.log(rows[-1].y / y) if rows else None
        rows.append(OrderStudyRow(y, E, alpha, None if alpha is None else 2.0 - alpha))
    return rows


def order_study_csv(blocks: Sequence[tuple[float, Sequence[OrderStudyRow]]]) -> str:
    """CSV with header sigma,y,E,alpha,sigma_e; 4-decimal fixed, empty first-row fits."""
    lines = ["sigma,y,E,alpha,sigma_e"]
    for sigma, rows in blocks:
        for r in rows:
            alpha = "" if r.alpha is None else f"{r.alpha:.4f}"
            sigma_e = "" if r.sigma_e is None else f"{r.sigma_e:.4f}"
            lines.append(f"{sigma:.4f},{r.y:.4f},{r.E:.4f},{alpha},{sigma_e}")
    return "\n".join(lines) + "\n"
