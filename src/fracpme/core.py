"""Mesh, configuration, field storage, and the scalar constants of the scheme.

Everything lives on the truncated extended half-plane [-X, X] x [0, Y] with a
uniform square mesh (dy = dx is enforced at construction; all error estimates
assume it).  Node (i, k) sits at (x_i, y_k) = (i*dx - X, k*dx).  Row k = 0 is
the trace that carries the evolving solution; the lateral and top boundary is
homogeneous Dirichlet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError

__all__ = [
    "mu_sigma", "nu_sigma", "riesz_constant", "cfl_max_dt",
    "effective_order", "Grid", "Field", "SolverConfig",
    "InitialData", "initial_data_preset", "parse_initial_data",
    "parse_config_text", "load_config",
]

def _check_sigma(sigma: float) -> float:
    sigma = float(sigma)
    if not (0.0 < sigma < 2.0):
        raise ConfigError(f"sigma must lie in the open interval (0, 2), got {sigma}")
    return sigma


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
    """Largest stable time step: dx^sigma / (m * b_max^(m-1) * nu_sigma).

    b_max is the discrete max of f^m over the trace nodes.  For m > 1 and
    identically zero data the bound is +inf (the update is trivially stable).
    sigma and m are scheme parameters, so rejecting them is a ConfigError.
    """
    sigma = _check_sigma(sigma)
    if m < 1.0:
        raise ConfigError(f"m must be >= 1, got {m}")
    if b_max < 0.0:
        raise ValueError(f"b_max must be nonnegative, got {b_max}")
    if dx <= 0.0:
        raise ValueError(f"dx must be positive, got {dx}")
    if b_max == 0.0 and m > 1.0:
        return math.inf
    return dx ** sigma / (m * b_max ** (m - 1.0) * nu_sigma(sigma))


def effective_order(sigma: float, c: int, d: int | None) -> float:
    """Formal consistency order a of the discretized extension operator.

    a = min(c, d - sigma) for sigma < 1, min(c + 1 - sigma, d - sigma) for
    sigma > 1, and plain c at sigma = 1 where the weighted first-derivative
    term vanishes and d is irrelevant.  A value a <= 0 means the pair (c, d)
    cannot converge for this sigma; it is returned as-is so callers can flag
    the configuration instead of computing with it.
    """
    sigma = _check_sigma(sigma)
    if int(c) != c or c < 1:
        raise ValueError(f"c must be a positive integer, got {c}")
    if sigma == 1.0:
        return float(c)
    if d is None:
        raise ValueError("d may be omitted only at sigma = 1")
    if int(d) != d or d < 1:
        raise ValueError(f"d must be a positive integer, got {d}")
    if sigma < 1.0:
        return min(float(c), d - sigma)
    return min(c + 1.0 - sigma, d - sigma)


@dataclass(frozen=True)
class Grid:
    """Uniform square mesh on [-X, X] x [0, Y] with I x-steps and K y-steps."""
    X: float
    Y: float
    I: int
    K: int
    dx: float = field(init=False)
    xs: np.ndarray = field(init=False, repr=False)
    ys: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.X <= 0 or self.Y <= 0:
            raise ConfigError("domain extents X, Y must be positive")
        if int(self.I) != self.I or self.I < 2 or int(self.K) != self.K or self.K < 1:
            raise ConfigError(f"need integer I >= 2 and K >= 1, got I={self.I}, K={self.K}")
        dx = 2.0 * self.X / self.I
        dy = self.Y / self.K
        if abs(dx - dy) > 1e-12 * max(1.0, dx):
            raise ConfigError(
                f"mesh must be square: dx = 2X/I = {dx!r} but dy = Y/K = {dy!r}")
        xs = np.arange(self.I + 1) * dx - self.X
        ys = np.arange(self.K + 1) * dx
        xs.setflags(write=False)
        ys.setflags(write=False)
        object.__setattr__(self, "dx", dx)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)


@dataclass(frozen=True)
class Field:
    """Values of the extended variable w on all (I+1) x (K+1) nodes, [i, k] indexed."""
    values: np.ndarray
    time_index: int = 0

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] < 3 or v.shape[1] < 2:
            raise ValueError(f"field values must be (I+1) x (K+1) with I >= 2, got {v.shape}")
        if not np.isfinite(v).all():
            bad = np.argwhere(~np.isfinite(v))[0]
            raise ValueError(f"non-finite field value at node (i={bad[0]}, k={bad[1]})")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def trace(self) -> np.ndarray:
        return self.values[:, 0]


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

    def __post_init__(self):
        _check_sigma(self.sigma)
        if self.m < 1.0:
            raise ConfigError(f"m must be >= 1, got {self.m}")
        if self.T <= 0.0:
            raise ConfigError(f"horizon T must be positive, got {self.T}")
        if int(self.J) != self.J or self.J < 1:
            raise ConfigError(f"J must be a positive integer, got {self.J}")
        if not (0.0 < self.cfl_safety <= 1.0):
            raise ConfigError(f"cfl_safety must lie in (0, 1], got {self.cfl_safety}")
        if self.d is None and self.sigma != 1.0:
            raise ConfigError("d may be omitted only at sigma = 1")
        self.grid()  # validates extents, mesh counts, dx = dy

    def grid(self) -> Grid:
        return Grid(self.X, self.Y, self.I, self.K)

    @property
    def dx(self) -> float:
        return 2.0 * self.X / self.I

    @property
    def dt(self) -> float:
        return self.T / self.J


# ---------------------------------------------------------------------------
# initial data


@dataclass(frozen=True)
class InitialData:
    """Nonnegative initial datum u(x, 0) = f(x), as a callable or a sample list."""
    name: str
    fn: Callable[[np.ndarray], np.ndarray] | None = None
    samples: tuple[float, ...] | None = None

    def sample(self, xs: np.ndarray) -> np.ndarray:
        if self.samples is not None:
            if len(self.samples) != len(xs):
                raise ConfigError(
                    f"inline initial data has {len(self.samples)} samples, mesh needs {len(xs)}")
            out = np.array(self.samples, dtype=float)
        else:
            out = np.asarray(self.fn(np.asarray(xs, dtype=float)), dtype=float)
            if out.shape != np.shape(xs):
                raise ConfigError("initial data callable must map xs elementwise")
        if not np.isfinite(out).all():
            raise ConfigError(f"initial data {self.name!r} has non-finite samples")
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

    Accepts a preset name (gaussian | bump | zero), constant:VALUE, or
    inline:v0,v1,...,vI (exactly I+1 comma-separated samples).
    """
    text = text.strip()
    if text.startswith("constant:"):
        try:
            val = float(text.partition(":")[2])
        except ValueError:
            raise ConfigError(f"bad constant initial data {text!r}") from None
        if val < 0:
            raise ConfigError("constant initial data must be nonnegative")
        return InitialData(name=text, fn=lambda xs, v=val: np.full_like(xs, v, dtype=float))
    if text.startswith("inline:"):
        body = text.partition(":")[2]
        try:
            vals = tuple(float(tok) for tok in body.split(",") if tok.strip())
        except ValueError:
            raise ConfigError(f"bad inline initial data {text!r}") from None
        if not vals:
            raise ConfigError("inline initial data needs at least one sample")
        return InitialData(name="inline", samples=vals)
    return initial_data_preset(text)


# ---------------------------------------------------------------------------
# flat key-value configuration files

_INT_KEYS = {"I", "K", "J", "c", "d"}
_FLOAT_KEYS = {"sigma", "m", "X", "Y", "T", "cfl_safety"}
_ALL_KEYS = _INT_KEYS | _FLOAT_KEYS | {"initial_data"}
_REQUIRED_KEYS = {"sigma", "m", "X", "Y", "T", "I", "K", "J"}


def parse_config_text(text: str) -> tuple[SolverConfig, InitialData]:
    """Parse `key = value` lines ('#' comments allowed). Unknown keys are errors."""
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _ALL_KEYS:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
        if key in entries:
            raise ConfigError(f"config line {lineno}: duplicate key {key!r}")
        if not val:
            raise ConfigError(f"config line {lineno}: empty value for {key!r}")
        entries[key] = val

    missing = sorted(_REQUIRED_KEYS - entries.keys())
    if missing:
        raise ConfigError(f"config missing required keys: {', '.join(missing)}")

    kwargs: dict = {}
    for key, val in entries.items():
        if key == "initial_data":
            continue
        if key in _INT_KEYS:
            if key == "d" and val.lower() == "none":
                kwargs[key] = None
                continue
            try:
                kwargs[key] = int(val)
            except ValueError:
                raise ConfigError(f"config key {key!r} must be an integer, got {val!r}") from None
        else:
            try:
                kwargs[key] = float(val)
            except ValueError:
                raise ConfigError(f"config key {key!r} must be a number, got {val!r}") from None

    data = parse_initial_data(entries.get("initial_data", "gaussian"))
    return SolverConfig(**kwargs), data


def load_config(path) -> tuple[SolverConfig, InitialData]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())
