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
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import integrate

from . import core
from .errors import ConfigError, QuadratureError

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

    v0 and vy may be scalars or arrays (mesh row 0 and row at height y).
    """
    core._check_sigma(sigma)
    if not (y > 0.0):
        raise ValueError(f"evaluation height must be positive, got {y}")
    _require_finite(v0=v0, vy=vy)
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
    if not (y > 0.0):
        raise ValueError(f"kernel height must be positive, got {y}")
    d = kernel_mass_constant(sigma)
    return d * y ** sigma / (x * x + y * y) ** ((1.0 + sigma) / 2.0)


def poisson_extension(g: Callable[[float], float], x: float, y: float,
                      sigma: float, tol: float = 1e-10) -> float:
    """v(x, y) = (P(., y) * g)(x) for bounded integrable g, abs tolerance tol.

    Substituting xi = x + y*s turns the convolution into an integral of
    d_sigma * (1 + s^2)^(-(1+sigma)/2) * g(x + y*s) over the whole line, which
    the adaptive quadrature handles with a certified error estimate (the
    kernel tails are explicit power laws).  For data that oscillate without
    decay (e.g. cos) the certified estimate saturates near 1e-5; pass a looser
    tol in that case or expect QuadratureError.
    """
    core._check_sigma(sigma)
    if not (y > 0.0):
        raise ValueError(f"extension height must be positive, got {y}")
    d = kernel_mass_constant(sigma)

    def integrand(s):
        return d * (1.0 + s * s) ** (-(1.0 + sigma) / 2.0) * g(x + y * s)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, est = integrate.quad(integrand, -np.inf, np.inf,
                                  epsabs=tol / 2.0, epsrel=1e-13, limit=400)
    if est > tol:
        raise QuadratureError(
            f"poisson_extension reached abs error {est:.3e} > tol {tol:.3e} "
            f"at (x={x}, y={y}, sigma={sigma})", achieved=est)
    return val


# ---------------------------------------------------------------------------
# order experiment for the two-point quotient

@dataclass(frozen=True)
class OrderStudyRow:
    y: float
    E: float
    alpha: float | None
    sigma_e: float | None


DEFAULT_STUDY_YS = (0.5, 0.25, 0.125, 0.0625)


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
    if any(y2 >= y1 for y1, y2 in zip(ys, ys[1:])) or ys[-1] <= 0.0:
        raise ConfigError("heights must be strictly decreasing and positive")

    rows: list[OrderStudyRow] = []
    prev: OrderStudyRow | None = None
    for y in ys:
        E = abs(float(discrete_sigma_derivative(1.0, math.exp(y * y), y, sigma)))
        if prev is None:
            rows.append(OrderStudyRow(y=y, E=E, alpha=None, sigma_e=None))
        else:
            alpha = math.log(prev.E / E) / math.log(prev.y / y)
            rows.append(OrderStudyRow(y=y, E=E, alpha=alpha, sigma_e=2.0 - alpha))
        prev = rows[-1]
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
