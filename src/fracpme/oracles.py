"""Independent reference computations used to check the scheme.

Nothing here shares code with the solver path: the fractional Laplacian is a
principal-value quadrature, the linear-case reference is a Fourier integral,
the small-mesh elliptic reference is a dense textbook assembly, and the
extension at a height y is a Poisson-kernel convolution, where the two-point
sigma-quotient is read.  The acceptance suite compares the two routes; keep
them independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import core          # mu_sigma read per call, so a fault injected in core reaches it
from .core import check_m, check_sigma, riesz_constant
from .errors import QuadratureError

__all__ = [
    "frac_laplacian_pv", "fractional_heat_solution", "gaussian_hat",
    "BarenblattExponents", "barenblatt_exponents", "barenblatt_profile", "lateral_bound",
    "min_domain_half_width", "dense_extension_solve", "box_symbol", "box_symbol_at",
    "discrete_sigma_derivative", "normalized_sigma_derivative", "kernel_mass_constant",
    "poisson_kernel", "poisson_extension",
]


# ---------------------------------------------------------------------------
# the one adaptive quadrature of every oracle integral

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

_MAX_PANELS = 2000


def _gauss_kronrod(f, a: np.ndarray, b: np.ndarray, tol: float):
    """Adaptive G7/K15 quadrature, vectorized over panels (Shampine 2008).

    f maps nodes of shape (panels, 15) to values of shape (..., panels, 15).
    From the ascending starting panels [a_j, b_j], the worst panels are
    bisected until sum over panels of max over the leading axes of
    |K15 - G7| is <= tol / 2.  It stops short at _MAX_PANELS panels, and
    before splitting a panel narrower than 2^-40 of [a_0, b_-1]: there the
    PV's second difference is rounding noise, blind to the z^-sigma spike of
    data with a kink at x.  Returns the panels' left ends, and K15 and
    |K15 - G7|, shape (..., panels).
    """
    def rule(a, b):                     # K15 and |K15 - G7| per unit half-width
        half = 0.5 * (b - a)
        kd = f((0.5 * (a + b))[:, None] + half[:, None] * _GK_NODES) @ _GK_WEIGHTS
        return kd[..., 0], np.abs(kd[..., 1])

    floor = 2.0 ** -40 * (b[-1] - a[0])
    K, E = rule(a, b)
    while True:
        half = 0.5 * (b - a)
        err = half * E.reshape(-1, len(a)).max(axis=0, initial=0.0)
        total = err.sum()
        if not total > tol / 2.0:       # done, or NaN: the caller's check refuses it
            return a, half * K, half * E
        # bisect the worst panels, as many as leave the rest summing to <= tol / 2
        order = np.argsort(-err, kind="stable")
        n = np.count_nonzero(total - np.cumsum(err[order]) > tol / 2.0) + 1
        split, keep = order[:n], order[n:]
        lo, hi = a[split], b[split]
        if len(a) + n > _MAX_PANELS or (hi - lo).min() < floor:
            return a, half * K, half * E
        mid = 0.5 * (lo + hi)
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        Kn, En = rule(lo, hi)
        a, b = np.concatenate([a[keep], lo]), np.concatenate([b[keep], hi])
        K = np.concatenate([K[..., keep], Kn], axis=-1)
        E = np.concatenate([E[..., keep], En], axis=-1)


# ---------------------------------------------------------------------------
# principal-value fractional Laplacian

_TAIL_BLOCKS = 48                       # _tail_integral's unit blocks before extrapolation


def _wynn_epsilon(seq):
    """Accelerate a convergent sequence of >= 2 terms; returns (value, error estimate)."""
    e0 = np.zeros(len(seq) + 1)
    e1 = np.asarray(seq, dtype=float)
    diag = [e1[-1]]
    for k in range(1, len(seq)):
        d = np.diff(e1)
        with np.errstate(divide="ignore"):          # the d == 0 lanes are replaced
            e2 = np.where(d == 0.0, e1[1:] if k % 2 == 0 else 1e308, e0[1:len(e1)] + 1.0 / d)
        e0, e1 = e1, e2
        if k % 2 == 0:
            diag.append(e2[-1])
    diag = [v for v in diag if abs(v) < 1e300]
    if len(diag) >= 2:
        return diag[-1], abs(diag[-1] - diag[-2])
    return seq[-1], abs(seq[-1] - seq[-2])


def _tail_integral(f, start: float, sigma: float, tol: float):
    """Integral of f over [start, inf) for f decaying like z^(-1-sigma).

    The unit blocks are _gauss_kronrod's starting panels, integrated together
    to tol.  A Richardson ladder kills the partial sums' remainders in
    Z^-(sigma+q), q = 0 ... 3 (q = 2 from data with a u^-2 tail, odd q from
    data with a kink at x), then Wynn-epsilon polishes what is left.  Its own
    estimate misses a remainder that still decays algebraically (three levels
    left 1.6e-7 on 1/(1+|u|) at sigma = 0.3 and estimated 1.5e-9), so a fifth
    level is formed too and how far it moves the value joins the estimate.
    All-zero blocks short circuit so that constants annihilate exactly.
    """
    Z = start + np.arange(1.0, _TAIL_BLOCKS + 1.0)     # the blocks' right ends
    a, K, E = _gauss_kronrod(f, Z - 1.0, Z, tol)
    t = np.cumsum(np.bincount((a - start).astype(int), weights=K, minlength=_TAIL_BLOCKS))
    if not t.any():
        return 0.0, E.sum()
    for q in range(5):
        zp = Z ** (sigma + q)
        t = (zp[1:] * t[1:] - zp[:-1] * t[:-1]) / (zp[1:] - zp[:-1])
        Z = Z[1:]
        if q == 3:
            best, est = _wynn_epsilon(t)
    check = _wynn_epsilon(t)[0]
    return best, est + abs(check - best) + E.sum()


def frac_laplacian_pv(g: Callable[[float], float], x: float, sigma: float,
                      tol: float = 1e-8, full_output: bool = False):
    """(-Lap)^(sigma/2) g at x via the symmetric principal-value integral.

    Uses the second-difference regularization
        C_sigma * int_0^inf (2 g(x) - g(x+z) - g(x-z)) / z^(1+sigma) dz
    (the half-line integral of the symmetric difference equals the whole-line
    principal value).  g is called with one float at a time.  Near field on
    (0, 1]: adaptive quadrature from the single panel [0, 1]; for sigma > 1 the
    quadratic part of the second difference is first extracted by Richardson
    extrapolation and integrated analytically, because the raw integrand's
    cancellation noise at small z silently corrupts the adaptive estimate.
    Far field: block summation with sequence acceleration.  Raises
    QuadratureError unless the certified estimate is <= tol (a NaN estimate
    never is), and ValueError for a non-finite x.
    """
    sigma = check_sigma(sigma)
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x}")
    C = riesz_constant(1, sigma)
    g = np.vectorize(g, otypes=[float])
    gx = float(g(x))

    def delta(z):
        return 2.0 * gx - g(x + z) - g(x - z)

    q = 0.0
    if sigma > 1.0:
        # delta(z) = q z^2 + O(z^4): pull q out with two Richardson levels
        h = 0.1 / 2.0 ** np.arange(3)
        d = delta(h) / h ** 2
        r = (4.0 * d[1:] - d[:-1]) / 3.0
        q = float((16.0 * r[1] - r[0]) / 15.0)
    _, K, E = _gauss_kronrod(lambda z: (delta(z) - q * z * z) * z ** (-1.0 - sigma),
                             np.zeros(1), np.ones(1), tol / (2.0 * C))
    near = q / (2.0 - sigma) + K.sum()     # q / (2 - sigma) = int_0^1 q z^(1-sigma) dz
    # the ladder and Wynn-epsilon amplify block errors, hence the far tighter block tol
    far, e_far = _tail_integral(lambda z: delta(z) * z ** (-1.0 - sigma), 1.0, sigma,
                                tol / (4.0 * C) * 1e-6)

    value = float(C * (near + far))
    est = float(C * (E.sum() + e_far))
    if not est <= tol:                  # a NaN estimate certifies nothing
        raise QuadratureError(
            f"frac_laplacian_pv reached abs error {est:.3e} > tol {tol:.3e} "
            f"at (x={x}, sigma={sigma})", achieved=est)
    if full_output:
        return value, est
    return value


# ---------------------------------------------------------------------------
# linear-case spectral reference

# initial panels of s in [0, 1]: graded geometrically toward s = 0, where
# xi^sigma is not smooth, then uniform on [1/2, 1]
_S_BREAKS = np.concatenate([[0.0], 0.5 ** np.arange(20, 0, -1), 0.5 + np.arange(1, 9) / 16.0])


def gaussian_hat(xi):
    """Fourier transform of exp(-x^2) with the convention int f exp(-i xi x) dx,
    elementwise for a float or an array xi."""
    return math.sqrt(math.pi) * np.exp(-xi * xi / 4.0)


def fractional_heat_solution(f_hat: Callable[[np.ndarray], np.ndarray], x, t: float,
                             sigma: float, tol: float = 1e-9) -> float | np.ndarray:
    """u(x, t) for u_t + (-Lap)^(sigma/2) u = 0, m = 1, via the Fourier symbol.

    f_hat must be the transform of real even data, which makes the inversion
    integral real and one-sided:
        u(x, t) = int_0^inf F(xi) cos(xi x) dxi,  F = e^(-xi^sigma t) f_hat(xi) / pi,
    and must accept an array of xi.  x is a float (a float is returned) or an
    array (an array of its shape is returned).

    All points share one run of _gauss_kronrod on s = xi / (1 + xi) in [0, 1),
    to tol over the worst x of each panel: F is evaluated once per node and x
    enters only through cos(xi |x|) on the unique |x|, so u(-x) == u(x)
    bitwise.  The estimate of a point is sum over panels of |K15 - G7| there;
    QuadratureError (with .achieved, the largest estimate) is raised unless every
    estimate is <= tol, also when the engine stops short of tol / 2.
    """
    sigma = check_sigma(sigma)
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError(f"time must be finite and nonnegative, got {t}")
    xa = np.asarray(x, dtype=float)
    if not np.isfinite(xa).all():
        raise ValueError("every x must be finite")
    ux = np.unique(np.abs(xa))

    def f(s):                           # F(xi) cos(xi x) dxi/ds, shape (len(ux), *s.shape)
        w = 1.0 - s
        xi = s / w
        block = np.cos(np.multiply.outer(ux, xi))
        block *= np.exp(-t * xi ** sigma) * f_hat(xi) / (math.pi * w * w)
        return block

    a, K, E = _gauss_kronrod(f, _S_BREAKS[:-1], _S_BREAKS[1:], tol)
    est = float(E.sum(axis=-1).max(initial=0.0))
    if not E.max(axis=0, initial=0.0).sum() <= tol / 2.0:     # which bounds est too
        raise QuadratureError(
            f"fractional_heat_solution did not certify tol {tol:.3e}: abs error estimate "
            f"{est:.3e} with {len(a)} panels at (t={t}, sigma={sigma})", achieved=est)
    u = K.sum(axis=-1)[np.searchsorted(ux, np.abs(xa))]
    return float(u) if u.ndim == 0 else u


# ---------------------------------------------------------------------------
# self-similar exponents and the domain-truncation scaling laws

@dataclass(frozen=True)
class BarenblattExponents:
    alpha: float
    beta: float


def barenblatt_exponents(n_dim: int, m: float, sigma: float) -> BarenblattExponents:
    """alpha = N / (N(m-1) + sigma), beta = 1 / (N(m-1) + sigma): the exponents of
    u = t^-alpha F(x t^-beta), from the equation's balance alpha + 1 = m alpha + sigma beta
    and mass conservation alpha = N beta (Vazquez 2014)."""
    if int(n_dim) != n_dim or n_dim < 1:
        raise ValueError(f"dimension must be a positive integer, got {n_dim}")
    check_m(m)
    sigma = check_sigma(sigma)
    beta = 1.0 / (n_dim * (m - 1.0) + sigma)
    return BarenblattExponents(alpha=n_dim * beta, beta=beta)


def barenblatt_profile(x, t: float, sigma: float):
    """Huang's explicit solution of u_t + (-Lap)^(sigma/2)(u^m) = 0 on the line for
    m = (3 - sigma)/(1 + sigma) (Huang, Bull. London Math. Soc. 2014), at unit scale:

        u = t^-beta F(x t^-beta),  F(xi) = A (1 + xi^2)^(-(1+sigma)/2),

    beta = 1/(m - 1 + sigma), A^(m-1) = beta / c and
    c = 2^(sigma-1) G((1+sigma)/2) / G((3-sigma)/2).  m >= 1 needs sigma in (0, 1]; at
    sigma = 1 (m = 1) A = 1 and u = t/(t^2 + x^2).  x is a float (a float is returned)
    or an array; t must be positive and finite."""
    if not 0.0 < sigma <= 1.0:          # a NaN fails too
        raise ValueError(f"the explicit profile needs sigma in (0, 1], got {sigma}")
    _require_positive(t=t)
    m = (3.0 - sigma) / (1.0 + sigma)
    beta = barenblatt_exponents(1, m, sigma).beta
    c = 2.0 ** (sigma - 1.0) * math.gamma((1.0 + sigma) / 2.0) / math.gamma((3.0 - sigma) / 2.0)
    A = 1.0 if sigma == 1.0 else (beta / c) ** (1.0 / (m - 1.0))
    xi = np.asarray(x, dtype=float) * t ** -beta
    u = A * t ** -beta * (1.0 + xi ** 2) ** (-(1.0 + sigma) / 2.0)
    return float(u) if u.ndim == 0 else u


def box_symbol(n: int, X: float, Y: float, sigma: float) -> float:
    """The exact trace symbol d_n = box_symbol_at(n pi/2X, Y, sigma) of the truncated
    problem for the mode sin(n pi (x + X)/2X) on (-X, X) with zero data at |x| = X."""
    if not (n >= 1 and n % 1 == 0):        # nan and inf fail too
        raise ValueError(f"mode number must be a positive integer, got {n}")
    _require_positive(X=X)
    return box_symbol_at(n * math.pi / (2.0 * X), Y, sigma)


def box_symbol_at(a: float, Y: float, sigma: float) -> float:
    """The exact trace symbol d(a) of the wavenumber a > 0 on the strip 0 < y < Y with
    zero data at y = Y (Stinga and Torrea 2010), in the scheme's mu_sigma/nu_sigma
    normalization:

        d(a) = a^sigma [1 + (2 sin(pi s)/pi) K_s(aY)/I_s(aY)],  s = sigma/2.

    It is a coth(aY) at sigma = 1 and tends to a^sigma as Y grows.  K_s/I_s is kve/ive
    e^(-2aY), and d(a) is a^sigma once e^(-2aY) underflows (kve, ive are nan from aY near
    1e9 on); an a^sigma past the floats is a ValueError.  scipy.special is imported
    here, not with the module: it would add about 40 ms and 2.5 MB to every process.
    """
    sigma = check_sigma(sigma)
    _require_positive(a=a, Y=Y)
    s = sigma / 2.0
    try:
        whole = a ** sigma
    except OverflowError:               # a float power past the range raises
        whole = math.inf
    _require_positive(a_sigma=whole)
    decay = math.exp(-2.0 * a * Y)
    if decay == 0.0:
        return whole
    from scipy.special import ive, kve

    ratio = float(kve(s, a * Y) / ive(s, a * Y)) * decay
    return whole * (1.0 + 2.0 * math.sin(math.pi * s) / math.pi * ratio)


def _require_positive(**vals: float) -> None:
    """ValueError for a value that is nan, infinite or not positive: a bad input, or
    a result that overflowed to inf or underflowed to 0."""
    for name, v in vals.items():
        if not 0.0 < v < math.inf:
            raise ValueError(f"{name} must be finite and positive, got {v}")


def lateral_bound(X: float, T: float, n_dim: int, m: float, sigma: float,
                  C: float = 1.0) -> float:
    """Tail bound C * T^(beta sigma) / X^(N+sigma) on the solution at |x| = X, where
    beta sigma = sigma / (N(m-1) + sigma): 1 at m = 1, the fractional heat kernel's
    t |x|^-(N+sigma) tail.

    The profile constant is not derivable here; C is a caller input (default
    1) and only the power law is meaningful.
    """
    _require_positive(X=X, T=T, C=C)
    beta = barenblatt_exponents(n_dim, m, sigma).beta
    try:
        bound = C * T ** (beta * sigma) * X ** (-(n_dim + sigma))
    except OverflowError:               # a float power past the range raises
        bound = math.inf
    _require_positive(bound=bound)
    return bound


def min_domain_half_width(dx: float, a: float, n_dim: int, sigma: float,
                          L: float = 1.0) -> float:
    """Half-width L / dx^(a/(N+sigma)) keeping the lateral truncation O(dx^a)."""
    if not (0.0 < dx < 1.0):
        raise ValueError(f"dx must lie in (0, 1), got {dx}")
    _require_positive(a=a, L=L)
    sigma = check_sigma(sigma)
    if int(n_dim) != n_dim or n_dim < 1:
        raise ValueError(f"dimension must be a positive integer, got {n_dim}")
    scale = dx ** (a / (n_dim + sigma))
    half_width = L / scale if scale > 0.0 else math.inf
    _require_positive(half_width=half_width)
    return half_width


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
    sigma = check_sigma(sigma)
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


# ---------------------------------------------------------------------------
# two-point sigma-quotient at the trace, and the Poisson extension it reads

def _require_finite(**vals):
    for name, v in vals.items():
        if not np.all(np.isfinite(v)):
            raise ValueError(f"non-finite input {name!r}")


def discrete_sigma_derivative(v0, vy, y: float, sigma: float):
    """F(x, y) = sigma * (v(x,y) - v(x,0)) / y^sigma.

    Approximates the (unnormalized) sigma-derivative of v at y = 0.  v0 and vy
    may be scalars or arrays (mesh row 0 and row at height y); a non-finite
    value or height is a ValueError.
    """
    check_sigma(sigma)
    if not (y > 0.0):
        raise ValueError(f"evaluation height must be positive, got {y}")
    _require_finite(v0=v0, vy=vy, y=y)
    return sigma * (np.asarray(vy, dtype=float) - np.asarray(v0, dtype=float)) / y ** sigma


def normalized_sigma_derivative(v0, vy, y: float, sigma: float):
    """mu_sigma * F: an O(y^(2-sigma)) approximation of -(-Lap)^(sigma/2) applied
    to a C^2 trace."""
    return core.mu_sigma(sigma) * discrete_sigma_derivative(v0, vy, y, sigma)


def kernel_mass_constant(sigma: float) -> float:
    """d_sigma such that the N = 1 kernel d * y^s / (x^2 + y^2)^((1+s)/2) has unit mass.

    The mass integral of (1 + x^2)^(-(1+s)/2) over the line is B(1/2, s/2),
    so d_sigma = G((1+s)/2) / (sqrt(pi) G(s/2)).
    """
    sigma = check_sigma(sigma)
    return math.gamma((1.0 + sigma) / 2.0) / (math.sqrt(math.pi) * math.gamma(sigma / 2.0))


def poisson_kernel(x: float, y: float, sigma: float) -> float:
    """Extension kernel P(x, y) in one dimension."""
    check_sigma(sigma)
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
    certified by the adaptive quadrature above; g is called with one float
    at a time.  For data that oscillate without decay (e.g. cos) the panels
    near t = 0 stay unresolved: at sigma = 1 a tol of 1e-4 is certified with
    errors near 2e-5, and a much tighter tol raises QuadratureError.  A
    non-finite x or y is a ValueError.
    """
    check_sigma(sigma)
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
