"""Independent reference computations used to check the scheme.

Nothing here shares code with the solver path: the fractional Laplacian is a
principal-value quadrature, the linear-case reference is a Fourier integral,
and the small-mesh elliptic reference is a dense textbook assembly.  The
acceptance suite compares the two routes; keep them independent.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import _check_sigma, riesz_constant
from .errors import QuadratureError

__all__ = [
    "frac_laplacian_pv", "fractional_heat_solution", "gaussian_hat",
    "BarenblattExponents", "barenblatt_exponents", "lateral_bound",
    "min_domain_half_width", "dense_extension_solve",
]


_TAIL_BLOCKS = 48                       # _tail_integral's summed blocks before extrapolation
_TAIL_H = 1.0                           # and their width


def _quad(f, a, b, epsabs, epsrel=1e-13, limit=400):
    from scipy import integrate           # loaded on first use: no solve path needs it
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        return integrate.quad(f, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit)


def _wynn_epsilon(seq):
    """Accelerate a convergent sequence; returns (value, error estimate)."""
    n = len(seq)
    e0 = np.zeros(n + 1)
    e1 = np.array(seq, dtype=float)
    diag = [e1[-1]]
    for k in range(1, n):
        m = n - k
        e2 = np.empty(m)
        for j in range(m):
            d = e1[j + 1] - e1[j]
            if d == 0.0:
                e2[j] = e1[j + 1] if k % 2 == 0 else 1e308
            else:
                e2[j] = e0[j + 1] + 1.0 / d
        e0, e1 = e1[: m + 1], e2
        if k % 2 == 0 and m:
            diag.append(e2[-1])
    diag = [v for v in diag if abs(v) < 1e300]
    if len(diag) >= 2:
        return diag[-1], abs(diag[-1] - diag[-2])
    if n > 1:
        return seq[-1], abs(seq[-1] - seq[-2])
    return seq[-1], abs(seq[-1])


def _tail_integral(f, start: float, sigma: float):
    """Integral of f over [start, inf) for f decaying like z^(-1-sigma).

    Unit blocks are summed exactly; the algebraic remainder of the partial
    sums is killed by a Richardson ladder with the known exponents sigma and
    sigma+1, then Wynn-epsilon polishes what is left.  All-zero blocks short
    circuit so that constants annihilate exactly.
    """
    vals = []
    qerr = 0.0
    a = start
    for _ in range(_TAIL_BLOCKS):
        v, e = _quad(f, a, a + _TAIL_H, epsabs=1e-14, epsrel=1e-12, limit=60)
        vals.append(v)
        qerr += e
        a += _TAIL_H
    if all(v == 0.0 for v in vals):
        return 0.0, qerr
    partial = np.cumsum(vals)
    Z = start + _TAIL_H * np.arange(1, _TAIL_BLOCKS + 1)
    t = partial.astype(float)
    for q in range(2):
        zp = Z ** (sigma + q)
        t = (zp[1:] * t[1:] - zp[:-1] * t[:-1]) / (zp[1:] - zp[:-1])
        Z = Z[1:]
    best, est = _wynn_epsilon(list(t))
    return best, est + qerr


def frac_laplacian_pv(g: Callable[[float], float], x: float, sigma: float,
                      tol: float = 1e-8, full_output: bool = False):
    """(-Lap)^(sigma/2) g at x via the symmetric principal-value integral.

    Uses the second-difference regularization
        C_sigma * int_0^inf (2 g(x) - g(x+z) - g(x-z)) / z^(1+sigma) dz
    (the half-line integral of the symmetric difference equals the whole-line
    principal value).  Near field on (0, 1]: adaptive quadrature; for sigma > 1 the quadratic
    part of the second difference is first extracted by Richardson
    extrapolation and integrated analytically, because the raw integrand's
    cancellation noise at small z silently corrupts the adaptive estimate.
    Far field: block summation with sequence acceleration.  Raises
    QuadratureError unless the certified estimate is <= tol (a NaN estimate
    never is), and ValueError for a non-finite x.
    """
    sigma = _check_sigma(sigma)
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x}")
    C = riesz_constant(1, sigma)
    gx = float(g(x))

    def delta(z):
        return 2.0 * gx - g(x + z) - g(x - z)

    half_tol = tol / (4.0 * C)
    if sigma <= 1.0:
        near, e_near = _quad(lambda z: delta(z) * z ** (-1.0 - sigma), 0.0, 1.0,
                             epsabs=half_tol)
    else:
        # delta(z) = q z^2 + O(z^4): pull q out with two Richardson levels
        h = 0.1
        d = [delta(h / 2 ** j) / (h / 2 ** j) ** 2 for j in range(3)]
        r1 = (4.0 * d[1] - d[0]) / 3.0
        r2 = (4.0 * d[2] - d[1]) / 3.0
        q = (16.0 * r2 - r1) / 15.0
        sing = q / (2.0 - sigma)  # int_0^1 q z^(1-sigma) dz
        reg, e_near = _quad(lambda z: (delta(z) - q * z * z) * z ** (-1.0 - sigma),
                            0.0, 1.0, epsabs=half_tol)
        near = sing + reg
    far, e_far = _tail_integral(lambda z: delta(z) * z ** (-1.0 - sigma), 1.0, sigma)

    value = C * (near + far)
    est = C * (e_near + e_far)
    if not est <= tol:                  # a NaN estimate certifies nothing
        raise QuadratureError(
            f"frac_laplacian_pv reached abs error {est:.3e} > tol {tol:.3e} "
            f"at (x={x}, sigma={sigma})", achieved=est)
    if full_output:
        return value, est
    return value


# ---------------------------------------------------------------------------
# linear-case spectral reference

# QUADPACK's 15-point Gauss-Kronrod rule on [-1, 1] (Piessens et al. 1983):
# xgk, wgk and wg, outermost node first and the centre last
_XGK = np.array([0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
                 0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
                 0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
                 0.207784955007898467600689403773245, 0.0])
_WGK = np.array([0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
                 0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
                 0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
                 0.204432940075298892414161999234649, 0.209482141084727828012999174891714])
_WG = np.array([0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
                0.381830050505118944950369775488975, 0.417959183673469387755102040816327])
_GK_NODES = np.concatenate([-_XGK, _XGK[-2::-1]])      # ascending; the 7 Gauss nodes are odd
_GK_WEIGHTS = np.zeros((15, 2))                         # columns: K15, K15 - G7
_GK_WEIGHTS[:, 0] = np.concatenate([_WGK, _WGK[-2::-1]])
_GK_WEIGHTS[:, 1] = _GK_WEIGHTS[:, 0]
_GK_WEIGHTS[1::2, 1] -= np.concatenate([_WG, _WG[-2::-1]])

# initial panels of s in [0, 1]: graded geometrically toward s = 0, where
# xi^sigma is not smooth, then uniform on [1/2, 1]
_S_BREAKS = np.concatenate([[0.0], 0.5 ** np.arange(20, 0, -1), 0.5 + np.arange(1, 9) / 16.0])
_MAX_PANELS = 2000


def gaussian_hat(xi):
    """Fourier transform of exp(-x^2) with the convention int f exp(-i xi x) dx,
    elementwise for a float or an array xi."""
    return math.sqrt(math.pi) * np.exp(-xi * xi / 4.0)


def _gk_panels(F, ux: np.ndarray, a: np.ndarray, b: np.ndarray):
    """K15 and |K15 - G7|, shapes (len(a), len(ux)), of the panels [a_j, b_j] of
    s = xi / (1 + xi) for the integrand F(xi) cos(xi x) dxi at every x in ux."""
    half = 0.5 * (b - a)
    s = (0.5 * (a + b))[:, None] + half[:, None] * _GK_NODES
    xi = s / (1.0 - s)
    weighted = F(xi) * (half[:, None] / ((1.0 - s) * (1.0 - s)))
    block = np.cos(np.multiply.outer(ux, xi))
    block *= weighted
    kd = block @ _GK_WEIGHTS                 # (len(ux), panels, 2)
    return kd[..., 0].T, np.abs(kd[..., 1]).T


def fractional_heat_solution(f_hat: Callable[[np.ndarray], np.ndarray], x, t: float,
                             sigma: float, tol: float = 1e-9) -> float | np.ndarray:
    """u(x, t) for u_t + (-Lap)^(sigma/2) u = 0, m = 1, via the Fourier symbol.

    f_hat must be the transform of real even data, which makes the inversion
    integral real and one-sided:
        u(x, t) = int_0^inf F(xi) cos(xi x) dxi,  F = e^(-xi^sigma t) f_hat(xi) / pi,
    and must accept an array of xi.  x is a float (a float is returned) or an
    array (an array of its shape is returned).

    All points share one adaptive 15-point Gauss-Kronrod quadrature on
    s = xi / (1 + xi) in [0, 1): F is evaluated once per node and x enters only
    through cos(xi |x|) on the unique |x|, so u(-x) == u(x) bitwise.  Panels are
    bisected worst-first until sum over panels of max over x of |K15 - G7| is
    <= tol / 2.  The estimate of a point is sum over panels of |K15 - G7| there;
    QuadratureError (with .achieved, the largest estimate) is raised unless every
    estimate is <= tol, also when _MAX_PANELS panels do not reach it.
    """
    sigma = _check_sigma(sigma)
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError(f"time must be finite and nonnegative, got {t}")
    xa = np.asarray(x, dtype=float)
    if not np.isfinite(xa).all():
        raise ValueError("every x must be finite")
    ux = np.unique(np.abs(xa))

    def F(xi):
        return np.exp(-xi ** sigma * t) * f_hat(xi) / math.pi

    a, b = _S_BREAKS[:-1], _S_BREAKS[1:]
    K, E = _gk_panels(F, ux, a, b)
    err = E.max(axis=1, initial=0.0)
    total = err.sum()
    while total > tol / 2.0:
        # bisect the worst panels, as many as leave the rest summing to <= tol / 2
        order = np.argsort(-err, kind="stable")
        rest = total - np.cumsum(err[order])
        split = order[: np.count_nonzero(rest > tol / 2.0) + 1]
        if len(a) + len(split) > _MAX_PANELS:
            break
        mid = 0.5 * (a[split] + b[split])
        keep = np.ones(len(a), dtype=bool)
        keep[split] = False
        Kn, En = _gk_panels(F, ux, np.concatenate([a[split], mid]),
                            np.concatenate([mid, b[split]]))
        a = np.concatenate([a[keep], a[split], mid])
        b = np.concatenate([b[keep], mid, b[split]])
        K = np.concatenate([K[keep], Kn])
        E = np.concatenate([E[keep], En])
        err = E.max(axis=1, initial=0.0)
        total = err.sum()
    est = float(E.sum(axis=0).max(initial=0.0))
    if not (total <= tol / 2.0 and est <= tol):
        raise QuadratureError(
            f"fractional_heat_solution did not certify tol {tol:.3e}: abs error estimate "
            f"{est:.3e} with {len(a)} panels at (t={t}, sigma={sigma})", achieved=est)
    u = K.sum(axis=0)[np.searchsorted(ux, np.abs(xa))]
    return float(u) if u.ndim == 0 else u


# ---------------------------------------------------------------------------
# self-similar exponents and the domain-truncation scaling laws

@dataclass(frozen=True)
class BarenblattExponents:
    alpha: float
    beta: float


def barenblatt_exponents(n_dim: int, m: float, sigma: float) -> BarenblattExponents:
    """alpha = N / (N(m+1) + sigma), beta = 1 / (N(m+1) + sigma)."""
    if int(n_dim) != n_dim or n_dim < 1:
        raise ValueError(f"dimension must be a positive integer, got {n_dim}")
    if m < 1.0:
        raise ValueError(f"m must be >= 1, got {m}")
    sigma = _check_sigma(sigma)
    beta = 1.0 / (n_dim * (m + 1.0) + sigma)
    return BarenblattExponents(alpha=n_dim * beta, beta=beta)


def lateral_bound(X: float, T: float, n_dim: int, m: float, sigma: float,
                  C: float = 1.0) -> float:
    """Tail bound C * T^(beta sigma) / X^(N+sigma) on the solution at |x| = X.

    The profile constant is not derivable here; C is a caller input (default
    1) and only the power law is meaningful.
    """
    if X <= 0.0 or T <= 0.0:
        raise ValueError("X and T must be positive")
    beta = barenblatt_exponents(n_dim, m, sigma).beta
    return C * T ** (beta * sigma) * X ** (-(n_dim + sigma))


def min_domain_half_width(dx: float, a: float, n_dim: int, sigma: float,
                          L: float = 1.0) -> float:
    """Half-width L / dx^(a/(N+sigma)) keeping the lateral truncation O(dx^a)."""
    if not (0.0 < dx < 1.0):
        raise ValueError(f"dx must lie in (0, 1), got {dx}")
    if a <= 0.0 or L <= 0.0:
        raise ValueError("a and L must be positive")
    sigma = _check_sigma(sigma)
    if int(n_dim) != n_dim or n_dim < 1:
        raise ValueError(f"dimension must be a positive integer, got {n_dim}")
    return L / dx ** (a / (n_dim + sigma))


# ---------------------------------------------------------------------------
# brute-force elliptic reference on small meshes

def dense_extension_solve(I: int, K: int, dx: float, sigma: float,
                          trace_row: np.ndarray, c: int = 2, d: int = 1,
                          lateral_value: float = 0.0) -> np.ndarray:
    """Solve the extension problem by dense LU on the full node set.

    Textbook assembly in physical (unscaled) units with identity rows for the
    Dirichlet nodes; no elimination, no row scaling, no sparse storage.  Only
    the hand-coded low-order stencils are available (c = 2, d in {1, 2}),
    which keeps this path independent of the production assembler.
    """
    sigma = _check_sigma(sigma)
    if c != 2 or d not in (1, 2):
        raise ValueError("dense reference implements c = 2 with d in {1, 2} only")
    trace_row = np.asarray(trace_row, dtype=float)
    if trace_row.shape != (I - 1,):
        raise ValueError(f"trace_row must have length I-1 = {I - 1}")
    n = (I + 1) * (K + 1)
    A = np.zeros((n, n))
    b = np.zeros(n)

    def idx(i, k):
        return i * (K + 1) + k

    for i in range(I + 1):
        for k in range(K + 1):
            r = idx(i, k)
            if i == 0 or i == I or k == K:
                A[r, r] = 1.0
                b[r] = lateral_value
            elif k == 0:
                A[r, r] = 1.0
                b[r] = trace_row[i - 1]
            else:
                y = k * dx
                w_lap = y ** (1.0 - sigma) / dx ** 2
                A[r, idx(i - 1, k)] += w_lap
                A[r, idx(i + 1, k)] += w_lap
                A[r, idx(i, k - 1)] += w_lap
                A[r, idx(i, k + 1)] += w_lap
                A[r, r] += -4.0 * w_lap
                w_dy = (1.0 - sigma) * y ** (-sigma) / dx
                if d == 1:
                    A[r, idx(i, k + 1)] += w_dy
                    A[r, r] += -w_dy
                else:
                    A[r, idx(i, k + 1)] += 0.5 * w_dy
                    A[r, idx(i, k - 1)] += -0.5 * w_dy
    return np.linalg.solve(A, b).reshape(I + 1, K + 1)
