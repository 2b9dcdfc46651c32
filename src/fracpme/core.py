"""Mesh, configuration, the stencil table and the scheme's scalar constants.

Everything lives on the truncated extended half-plane [-X, X] x [0, Y] with a
uniform square mesh (dy = dx is enforced at construction; all error estimates
assume it).  Node (i, k) sits at (x_i, y_k) = (i*dx - X, k*dx).  Row k = 0 is
the trace that carries the evolving solution; the lateral and top boundary is
homogeneous Dirichlet.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, UnsupportedStencilError

__all__ = [
    "mu_sigma", "nu_sigma", "riesz_constant", "cfl_max_dt", "effective_order",
    "STENCIL_WINDOWS", "SUPPORTED_PAIRS", "stencil_families", "stencil_reach", "check_stencil",
    "Grid", "SolverConfig", "InitialData", "initial_data_preset", "parse_initial_data",
    "parse_config_text", "load_config",
]

def _check_sigma(sigma: float) -> float:
    sigma = float(sigma)
    if not (0.0 < sigma < 2.0):
        raise ConfigError(f"sigma must lie in the open interval (0, 2), got {sigma}")
    return sigma


def _check_m(m: float) -> None:
    if not 1.0 <= m < math.inf:
        raise ConfigError(f"m must be finite and >= 1, got {m}")


def mu_sigma(sigma: float) -> float:
    """Normalization constant of the sigma-derivative: 2^(s-1) G(s/2) / G(1-s/2)."""
    sigma = _check_sigma(sigma)
    return 2.0 ** (sigma - 1.0) * math.gamma(sigma / 2.0) / math.gamma(1.0 - sigma / 2.0)


def nu_sigma(sigma: float) -> float:
    """sigma * mu_sigma; the constant entering the trace update and the CFL bound."""
    return _check_sigma(sigma) * mu_sigma(sigma)


def riesz_constant(n_dim: int, sigma: float) -> float:
    """Constant of the principal-value integral form of the fractional Laplacian."""
    if int(n_dim) != n_dim or n_dim < 1:
        raise ValueError(f"dimension must be a positive integer, got {n_dim}")
    sigma = _check_sigma(sigma)
    return (2.0 ** (sigma - 1.0) * sigma * math.gamma((n_dim + sigma) / 2.0)
            / (math.pi ** (n_dim / 2.0) * math.gamma(1.0 - sigma / 2.0)))


def cfl_max_dt(m: float, b_max: float, sigma: float, dx: float) -> float:
    """Largest stable time step: dx^sigma / (m * b_max^((m-1)/m) * nu_sigma).

    b_max is the discrete max of f^m over the trace nodes, so
    b_max^((m-1)/m) = (max f)^(m-1).  The update w -> w^(1/m) - lambda w is
    nondecreasing on [0, b_max] exactly when lambda <= 1 / (m (max f)^(m-1)),
    with lambda = nu_sigma dt / dx^sigma; that monotonicity keeps every step
    inside [0, b_max] for any b_max.  For m > 1 and identically zero data the
    bound is +inf (the update is trivially stable).  sigma and m are scheme
    parameters, so rejecting them is a ConfigError.
    """
    sigma = _check_sigma(sigma)
    _check_m(m)
    if not 0.0 <= b_max < math.inf:
        raise ValueError(f"b_max must be nonnegative and finite, got {b_max}")
    if not 0.0 < dx < math.inf:
        raise ValueError(f"dx must be positive and finite, got {dx}")
    dx_sigma = _dx_power(dx, sigma)
    if b_max == 0.0 and m > 1.0:
        return math.inf
    return dx_sigma / (m * b_max ** ((m - 1.0) / m) * nu_sigma(sigma))


def _dx_power(dx: float, sigma: float) -> float:
    """dx^sigma for a positive finite dx; ConfigError where it underflows to 0 or overflows."""
    try:
        p = float(dx) ** sigma
    except OverflowError:
        p = math.inf
    if not 0.0 < p < math.inf:
        raise ConfigError(f"dx^sigma = {dx:g}^{sigma:g} is not a positive finite float")
    return p


def effective_order(sigma: float, c: int, d: int | None) -> float:
    """Formal consistency order a of the discretized extension operator: the least order
    of its stencil_families, c for the Laplacian at sigma <= 1 and c + 1 - sigma above,
    d - sigma for the drift, so a = c at sigma = 1.  An a <= 0 means (c, d) cannot converge
    for this sigma; it is returned as-is so callers can flag the configuration."""
    sigma = _check_sigma(sigma)
    orders = []
    for deriv, n in stencil_families(sigma, c, d):
        if int(n) != n or n < 1:
            raise ValueError(f"{'c' if deriv == 2 else 'd'} must be a positive integer, got {n}")
        orders.append(n - sigma if deriv == 1 else float(n) if sigma <= 1.0 else n + 1.0 - sigma)
    _check_d(sigma, d)
    return min(orders)


# Offsets of each stencil family, (2, c) for the order-c second derivative and (1, d)
# for the order-d first derivative, at node 1, the nodes between and node n-1 of 0..n:
# centered where they fit, one-sided of the same formal order at the boundary.
# extension_op.fd_weights derives every weight from its window: these are all the stencil data.
STENCIL_WINDOWS = {
    (2, 2): ((-1, 0, 1), (-1, 0, 1), (-1, 0, 1)),
    (2, 3): ((-1, 0, 1, 2, 3), (-2, -1, 0, 1, 2), (-3, -2, -1, 0, 1)),
    (2, 4): ((-1, 0, 1, 2, 3, 4), (-2, -1, 0, 1, 2), (-4, -3, -2, -1, 0, 1)),
    (1, 1): ((0, 1), (0, 1), (0, 1)),
    (1, 2): ((-1, 0, 1), (-1, 0, 1), (-1, 0, 1)),
    (1, 3): ((-1, 0, 1, 2), (-1, 0, 1, 2), (-2, -1, 0, 1)),
    (1, 4): ((-1, 0, 1, 2, 3), (-2, -1, 0, 1, 2), (-3, -2, -1, 0, 1)),
}
SUPPORTED_PAIRS = frozenset({(2, 1), (2, 2), (2, 3), (3, 3), (3, 4), (4, 4)})


def stencil_families(sigma: float, c: int, d: int | None) -> tuple[tuple[int, int], ...]:
    """S_y's stencil families: (2, c) for the Laplacian, T_x's only family, and (1, d)
    for the drift (1 - sigma) y^(-sigma) d/dy, which vanishes at sigma = 1 and is
    left out there, as where d is None."""
    return ((2, c),) if d is None or sigma == 1.0 else ((2, c), (1, d))


def stencil_reach(families: Sequence[tuple[int, int]]) -> tuple[tuple[int, int], int]:
    """The (lower, upper) reach of a factor with these stencil families, the most nodes
    their windows span each way, and the fewest steps n >= 2 whose nodes 0..n hold
    their first and last windows.  T_x's families are stencil_families(...)[:1], S_y's all."""
    first, middle, last = zip(*(STENCIL_WINDOWS[f] for f in families))   # each: a window per family
    windows = first + middle + last
    fewest = max(2, 1 + max(map(max, first)), 1 - min(map(min, last)))
    return (max(-min(w) for w in windows), max(map(max, windows))), fewest


def _check_d(sigma: float, d: int | None) -> None:
    if d is None and sigma != 1.0:
        raise UnsupportedStencilError("d may be omitted only at sigma = 1")


def check_stencil(sigma: float, c: int, d: int | None, I: int,
                  K: int) -> tuple[tuple[tuple[int, int], ...], tuple[int, int], tuple[int, int]]:
    """Refuse (UnsupportedStencilError) d = None away from sigma = 1, a pair outside
    SUPPORTED_PAIRS, and a mesh with fewer x-steps I or y-steps K than its windows need;
    else return S_y's stencil families and the (lower, upper) reach of T_x and of S_y."""
    _check_d(sigma, d)
    if d is None and (2, c) not in STENCIL_WINDOWS:
        raise UnsupportedStencilError(f"Laplacian order c={c} not supported")
    if d is not None and (c, d) not in SUPPORTED_PAIRS:
        raise UnsupportedStencilError(
            f"(c, d) = ({c}, {d}) not in the supported set {sorted(SUPPORTED_PAIRS)}")
    families = stencil_families(sigma, c, d)
    (x_reach, min_i), (y_reach, min_k) = stencil_reach(families[:1]), stencil_reach(families)
    if I < min_i or K < min_k:
        raise UnsupportedStencilError(
            f"mesh too small for (c={c}, d={d}): need I >= {min_i} and K >= {min_k}, "
            f"got I={I}, K={K}")
    return families, x_reach, y_reach


@dataclass(frozen=True)
class Grid:
    """Uniform square mesh on [-X, X] x [0, Y] with I x-steps and K y-steps."""
    X: float
    Y: float
    I: int
    K: int
    dx: float = field(init=False, compare=False)     # derived: == and hash use X, Y, I, K
    xs: np.ndarray = field(init=False, repr=False, compare=False)
    ys: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (0.0 < self.X < math.inf and 0.0 < self.Y < math.inf):
            raise ConfigError(f"domain extents X, Y must be positive and finite, "
                              f"got X={self.X}, Y={self.Y}")
        if not (self.I % 1 == 0 and self.I >= 2 and self.K % 1 == 0 and self.K >= 1):
            raise ConfigError(f"need integer I >= 2 and K >= 1, got I={self.I}, K={self.K}")
        self.__dict__.update(I=int(self.I), K=int(self.K))     # 64.0 passes: store 64
        dx = 2.0 * self.X / self.I
        dy = self.Y / self.K
        if not 0.0 < dx < math.inf or abs(dx - dy) > 1e-12 * max(dx, dy):
            raise ConfigError(f"mesh must be square with a finite width dx > 0: "
                              f"dx = 2X/I = {dx!r}, dy = Y/K = {dy!r}")
        try:
            xs = np.arange(self.I + 1) * dx - self.X
            ys = np.arange(self.K + 1) * dx
        except (MemoryError, ValueError):   # ValueError: numpy's "array is too big"
            raise ConfigError(f"mesh I={self.I}, K={self.K} too large: "
                              "its node coordinates cannot be allocated") from None
        xs.setflags(write=False)
        ys.setflags(write=False)
        self.__dict__.update(dx=dx, xs=xs, ys=ys)


@dataclass(frozen=True)
class SolverConfig:
    """All scheme parameters for one bounded-domain run."""
    sigma: float
    m: float
    X: float
    Y: float
    T: float
    I: int
    K: int
    J: int
    c: int = 2
    d: int | None = 1
    cfl_safety: float = 0.95
    _grid: Grid = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_sigma(self.sigma)
        _check_m(self.m)
        if not 0.0 < self.T < math.inf:
            raise ConfigError(f"horizon T must be positive and finite, got {self.T}")
        if not (self.J % 1 == 0 and self.J >= 1):
            raise ConfigError(f"J must be a positive integer, got {self.J}")
        if not (0.0 < self.cfl_safety <= 1.0):
            raise ConfigError(f"cfl_safety must lie in (0, 1], got {self.cfl_safety}")
        # validates extents, mesh counts, dx = dy; frozen with read-only arrays, so shared
        grid = Grid(self.X, self.Y, self.I, self.K)
        check_stencil(self.sigma, self.c, self.d, grid.I, grid.K)
        self.__dict__.update(_grid=grid, I=grid.I, K=grid.K, J=int(self.J))
        if (self.J + 1) * (self.I + 1) > np.iinfo(np.intp).max // 8:
            raise ConfigError(f"J = {self.J} too large: the (J+1) x (I+1) trace history must "
                              f"hold at most {np.iinfo(np.intp).max // 8} float64 values")
        if not self.T / self.J > 0.0:        # J is below 2^60 here, so T / J is a float
            raise ConfigError(f"time step dt = T/J underflows to 0 at T = {self.T}, J = {self.J}")

    def grid(self) -> Grid:
        return self._grid

    @property
    def dx(self) -> float:
        return self._grid.dx

    @property
    def dt(self) -> float:
        return self.T / self.J


# ---------------------------------------------------------------------------
# initial data


@dataclass(frozen=True)
class InitialData:
    """Nonnegative initial datum u(x, 0) = f(x): a name and the sampler fn."""
    name: str
    fn: Callable[[np.ndarray], np.ndarray]

    def sample(self, xs: np.ndarray) -> np.ndarray:
        """The datum at the nodes xs: ConfigError unless one finite value >= 0 per node."""
        out = np.asarray(self.fn(np.asarray(xs, dtype=float)), dtype=float)
        if out.shape != np.shape(xs):
            raise ConfigError(f"initial data must have {np.size(xs)} samples, got {out.shape}")
        if not np.isfinite(out).all():
            raise ConfigError(f"initial data {self.name!r} has non-finite samples")
        if (out < 0.0).any():
            raise ConfigError("nonnegative initial data required")
        return out


def _gaussian(xs):
    return np.exp(-xs ** 2)


def _bump(xs):
    # compactly supported, max 1, zero outside |x| < 2
    out = np.zeros_like(xs, dtype=float)
    inside = np.abs(xs) < 2.0
    out[inside] = np.cos(np.pi * xs[inside] / 4.0) ** 2
    return out


_PRESETS: dict[str, Callable] = {
    "gaussian": _gaussian,
    "bump": _bump,
    "zero": lambda xs: np.zeros_like(xs, dtype=float),
}


def initial_data_preset(name: str) -> InitialData:
    if name not in _PRESETS:
        raise ConfigError(f"unknown initial data preset {name!r}; "
                          f"known: {sorted(_PRESETS)} plus constant:V and inline:v0,v1,...")
    return InitialData(name=name, fn=_PRESETS[name])


def parse_initial_data(text: str) -> InitialData:
    """Parse a config-file initial_data value.

    Accepts a preset name (gaussian | bump | zero), constant:VALUE, or inline:v0,v1,...,vI
    (I+1 comma-separated samples); only text that does not parse is refused: sample judges.
    """
    text = text.strip()
    if text.startswith("constant:"):
        try:
            val = float(text.partition(":")[2])
        except ValueError:
            raise ConfigError(f"bad constant initial data {text!r}") from None
        return InitialData(name=text, fn=lambda xs, v=val: np.full_like(xs, v, dtype=float))
    if text.startswith("inline:"):
        try:
            vals = np.array([float(v) for v in text.partition(":")[2].split(",") if v.strip()])
        except ValueError:
            raise ConfigError(f"bad inline initial data {text!r}") from None
        vals.setflags(write=False)
        return InitialData(name="inline", fn=lambda xs, v=vals: v)
    return initial_data_preset(text)


# ---------------------------------------------------------------------------
# flat key-value configuration files

def parse_config_text(text: str) -> tuple[SolverConfig, InitialData]:
    """Parse `key = value` lines ('#' comments allowed): SolverConfig's init fields, each
    required unless it has a default, and initial_data.  Unknown keys are errors."""
    keys = {f.name: f for f in fields(SolverConfig) if f.init}
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in keys and key != "initial_data":
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
        if key in entries:
            raise ConfigError(f"config line {lineno}: duplicate key {key!r}")
        if not val:
            raise ConfigError(f"config line {lineno}: empty value for {key!r}")
        entries[key] = val

    missing = sorted(k for k, f in keys.items() if f.default is MISSING and k not in entries)
    if missing:
        raise ConfigError(f"config missing required keys: {', '.join(missing)}")

    data_text = entries.pop("initial_data", "gaussian")
    kwargs: dict = {}
    for key, val in entries.items():
        typ = keys[key].type                          # "float", "int" or "int | None"
        kind, parse = ("an integer", int) if typ.startswith("int") else ("a number", float)
        if val.lower() == "none" and typ.endswith("None"):
            kwargs[key] = None
            continue
        try:
            kwargs[key] = parse(val)
        except ValueError:
            raise ConfigError(f"config key {key!r} must be {kind}, got {val!r}") from None
    data = parse_initial_data(data_text)
    return SolverConfig(**kwargs), data


def load_config(path) -> tuple[SolverConfig, InitialData]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read config file {str(path)!r}: {e}") from None
    return parse_config_text(text)
