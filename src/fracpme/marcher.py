"""Explicit time integration of the trace coupled to the elliptic extension solve.

One step: advance the trace row by the explicit nonlinear update driven by the
two-point sigma-derivative quotient, then re-solve the interior.  Under the
CFL restriction dt <= C(m, f) dx^sigma the update is a convex combination in
the pressure variable, which is what makes every bound below hold.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass

import numpy as np

from . import core, extension_op
from .core import Field, InitialData, SolverConfig
from .errors import CflViolationError, ConfigError, MaxPrincipleError, NegativeBracketError

__all__ = [
    "StepDiagnostics", "Trajectory", "initialize", "boundary_update", "step",
    "march", "write_trace_csv", "write_snapshot_csv",
]

_RECORD_BYTES = 320     # >= 312 B a step: StepDiagnostics 72, tuple 56, 3 floats, 3 ints, 2 slots


def initial_trace_w(config: SolverConfig, f) -> np.ndarray:
    """f^m at the I - 1 interior trace nodes at t = 0 (the corners are homogeneous
    Dirichlet data), f sampled by InitialData.sample, a bare callable or array as 'data'."""
    if not isinstance(f, InitialData):
        f = InitialData("data", fn=f if callable(f) else lambda xs, v=f: v)
    with np.errstate(over="ignore"):
        row = f.sample(config.grid().xs)[1:-1] ** config.m
    if not np.isfinite(row).all():
        raise ConfigError(f"initial data too large: f^m overflows at m = {config.m:g}")
    return row


def initialize(config: SolverConfig, f) -> Field:
    """Starting field: trace row f^m, homogeneous lateral data, interior solved."""
    row = initial_trace_w(config, f)
    op = extension_op.assemble(config.grid(), config.sigma, config.c, config.d)
    return Field(values=extension_op._solve(op, row).T, time_index=0)


def _bracket_update(row0: np.ndarray, row1: np.ndarray, lam: float, m: float,
                    level: int | None = None, base: np.ndarray | None = None) -> np.ndarray:
    """boundary_update with lam = nu_sigma dt / dx^sigma, for rows it would accept;
    the m-th root of base (default row0, which the march keeps >= 0) enters the
    bracket, so it must be >= 0.  level is the time level a NegativeBracketError
    reports as its step."""
    bracket = lam * (row1 - row0)
    root = row0 if base is None else base
    bracket += root if m == 1.0 else root ** (1.0 / m)
    low = bracket.min() if bracket.size else 0.0
    if low < 0.0:
        if low < -1e-12:
            idx = int(np.argmin(bracket))
            raise NegativeBracketError(
                f"pressure bracket reached {bracket[idx]:.3e} at trace index {idx}; "
                f"time step too large for the data", step=level, index=idx, value=float(bracket[idx]))
        np.maximum(bracket, 0.0, out=bracket)
    if m != 1.0:
        bracket **= m
    return bracket


def _lambda(dt: float, dx: float, sigma: float) -> float:
    """lam = nu_sigma dt / dx^sigma of the trace update, for dt > 0 and dx > 0 finite;
    ConfigError where dx^sigma underflows to 0 or overflows, or lam overflows."""
    lam = core.nu_sigma(sigma) * dt / core._dx_power(dx, sigma)
    if not lam < np.inf:
        raise ConfigError(f"lambda = nu_sigma dt / dx^sigma overflows at dt = {dt}, dx = {dx}, "
                         f"sigma = {sigma}")
    return lam


def boundary_update(row0: np.ndarray, row1: np.ndarray, dt: float, dx: float,
                    sigma: float, m: float) -> np.ndarray:
    """One explicit trace step:

        new = [ nu_sigma * (dt/dx^sigma) * (row1 - row0) + row0^(1/m) ]^m

    The bracket is nonnegative under the CFL precondition; excursions below
    -1e-12 abort (CFL violation or corrupted state), smaller ones are rounding
    and clamp to 0.  Rows down to -1e-12 are accepted, and row0 enters the root
    clamped at 0.  A dx^sigma that is 0 or not finite, or a lambda that
    overflows, is refused (ConfigError, a ValueError).
    """
    row0, row1 = np.asarray(row0, dtype=float), np.asarray(row1, dtype=float)
    if row0.shape != row1.shape:
        raise ValueError("trace rows must have equal shape")
    if not (np.isfinite(row0).all() and np.isfinite(row1).all()):
        raise ValueError("trace rows must be finite")
    if row0.size and min(row0.min(), row1.min()) < -1e-12:
        raise ValueError("trace rows must be nonnegative")
    core._check_m(m)
    if not (0.0 < dt < np.inf and 0.0 < dx < np.inf):
        raise ValueError(f"dt and dx must be positive and finite, got dt = {dt}, dx = {dx}")
    return _bracket_update(row0, row1, _lambda(dt, dx, sigma), m, base=np.maximum(row0, 0.0))


def step(state: Field, config: SolverConfig) -> Field:
    """Advance one time level: trace update, then interior re-solve on config's operator."""
    vals = state.values
    new_trace = boundary_update(vals[1:-1, 0], vals[1:-1, 1],
                                config.dt, config.dx, config.sigma, config.m)
    op = extension_op.assemble(config.grid(), config.sigma, config.c, config.d)
    return Field(values=extension_op._solve(op, new_trace).T, time_index=state.time_index + 1)


@dataclass(frozen=True, slots=True)
class StepDiagnostics:
    j: int
    t: float
    w_min: float
    w_max: float
    argmax: tuple[int, int]


@dataclass(frozen=True, eq=False)
class Trajectory:
    """March output: full trace history, optional field snapshots, diagnostics."""
    config: SolverConfig
    times: np.ndarray                      # (J+1,)
    trace_history: np.ndarray              # (J+1, I+1), u = w^(1/m) at k = 0
    snapshots: tuple[tuple[float, Field], ...]
    diagnostics: tuple[StepDiagnostics, ...]
    b_max: float
    cfl_ratio: float                       # dt / cfl_max_dt

    @property
    def final_trace(self) -> np.ndarray:
        return self.trace_history[-1]


def _capture_steps(capture, J: int, T: float) -> set[int]:
    """Steps of the times in capture (None: no step), each rounded to the nearest; ConfigError
    for any other capture, a time not a number, or one outside [0, T] by over 1e-12 T."""
    if capture is None:
        return set()
    try:
        if isinstance(capture, (str, bytes)):
            raise TypeError
        times = list(capture)
    except TypeError:
        raise ConfigError(f"capture must be None or snapshot times, got {capture!r}") from None
    steps = set()
    for t in times:
        if not isinstance(t, numbers.Real) or isinstance(t, bool):
            raise ConfigError(f"snapshot time must be a number, got {t!r}")
        t = float(t)
        if not -1e-12 <= t / T <= 1.0 + 1e-12:        # a NaN fails too
            raise ConfigError(f"snapshot time {t} outside [0, T]")
        steps.add(min(max(round(t / (T / J)), 0), J))      # a rounded J dt may pass T
    return steps


def march(config: SolverConfig, f, capture=None) -> Trajectory:
    """Run all J steps on config's operator, enforcing the CFL bound and the band.

    capture: None (trace history only) or an iterable of times, each rounded to the
    nearest step.  The data, lambda, the CFL bound, capture and the memory of the history,
    its times, the step records and the snapshots are checked, in that order, before the
    operator is built, and that memory with the operator's and a solve's after it;
    a step raises only NegativeBracketError, SolverError or MaxPrincipleError.
    """
    row = initial_trace_w(config, f)
    b_max = float(row.max())

    dt = config.dt
    lam = _lambda(dt, config.dx, config.sigma)
    bound = core.cfl_max_dt(config.m, b_max, config.sigma, config.dx)
    if dt > config.cfl_safety * bound * (1.0 + 1e-12):
        with np.errstate(divide="ignore", over="ignore"):     # a bound that underflows to 0
            least = np.ceil(np.float64(config.T) / (config.cfl_safety * bound))
        raise CflViolationError(
            f"dt = {dt:.6e} exceeds cfl_safety * C(m,f) * dx^sigma = "
            f"{config.cfl_safety * bound:.6e}; increase J to at least {least:.0f}")

    wanted = _capture_steps(capture, config.J, config.T)
    # before allocating: overcommit may grant what a cgroup kills later
    J, I, K = config.J, config.I, config.K
    need = (J + 1) * (8 * (I + 2) + _RECORD_BYTES) + 8 * len(wanted) * (K + 1) * (I + 1)
    held = (f"J = {J} too large at I = {I}, K = {K}: the (J+1) x (I+1) trace history, "
            f"its times, J+1 step records and {len(wanted)} (K+1) x (I+1) snapshots")
    extension_op.check_memory(need, f"{held} need")
    op = extension_op.assemble(config.grid(), config.sigma, config.c, config.d)
    # after the build, whose peak never sits on the history's: the operator and a solve's arrays
    extension_op.check_memory(need + op.nbytes + extension_op._solve_bytes(op),
                              f"{held}, with the operator and a solve's arrays, need")
    try:
        w_hist = np.empty((J + 1, I + 1))
        times = np.arange(J + 1) * dt
    except MemoryError:
        raise ConfigError(f"{held} need {need} bytes, which cannot be allocated") from None
    snapshots: list[tuple[float, Field]] = []
    diags: list[StepDiagnostics] = []

    # one node array, refilled by every solve; no row is rescanned: _solve returns
    # finite arrays, and the bracket checks row 1
    P, width = None, I + 1
    for j in range(J + 1):
        if j > 0:
            row = _bracket_update(P[0, 1:-1], P[1, 1:-1], lam, config.m, j)
        P = extension_op._solve(op, row, P)
        w_min = float(P.min())
        k, i = divmod(int(np.argmax(P)), width)     # discrete_max_location's (i, k)
        w_max = float(P[k, i])
        if not (w_min >= -1e-10 and w_max <= b_max + 1e-10):
            raise MaxPrincipleError(
                f"solution left [0, b_max] band at step {j}: "
                f"min = {w_min:.3e}, max = {w_max:.3e}, b_max = {b_max:.3e}")
        w_hist[j] = P[0]
        diags.append(StepDiagnostics(j, float(times[j]), w_min, w_max, (i, k)))
        if j in wanted:
            snapshots.append((float(times[j]), Field(P.T, j)))

    trace_hist = np.maximum(w_hist, 0.0, out=w_hist)    # u = w^(1/m) over w's rows, in place
    trace_hist **= 1.0 / config.m
    times.setflags(write=False)
    trace_hist.setflags(write=False)
    return Trajectory(config=config, times=times, trace_history=trace_hist,
                      snapshots=tuple(snapshots), diagnostics=tuple(diags),
                      b_max=b_max, cfl_ratio=dt / bound if np.isfinite(bound) else 0.0)


# ---------------------------------------------------------------------------
# CSV emission (17 significant digits for bit-stable round trips)
#
# Every field is "%.16e" text, made for a block of at most _BLOCK values at a
# time.  |v| in [1e-99, 1e99) is N * 10^(e - 16), e = floor(log10|v|), with N the
# product |v| * 10^(16 - e) rounded half-even: Dekker's exact product (Veltkamp
# split) with a double-double power of ten, within 1e-14 of the truth.  Values
# within 1e-9 of a tie, products below 1e16 or rounding to 1e17 (log10 one off,
# a carry into the next decade) and |v| outside [1e-99, 1e99) take "%.16e" % v
# one by one; 0.0 and every sign stay on the fast path.  A field is _WIDTH bytes
# (sign, "d.dddddddddddddddde+dd", third exponent digit), 0 where unwritten.  A
# block's lines are one byte matrix without the sign and third-digit columns no
# line uses; any 0 byte left is dropped.  The bytes are those of "%.16e" % v.

_BLOCK, _WIDTH = 4096, 24


@functools.cache
def _tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """hi, lo with hi + lo = 10^q to 2^-106 relative (q = -83 ... 116), and the
    4-digit text of 0 ... 9999 as uint32 items."""
    rows = []
    for q in range(-83, 117):
        num, den = (10 ** q, 1) if q >= 0 else (1, 10 ** -q)
        hi = num / den                              # int division rounds correctly
        n, d = hi.as_integer_ratio()
        rows.append((hi, (num * d - n * den) / (den * d)))
    digits = (np.arange(10000)[:, None] // [1000, 100, 10, 1] % 10 + ord("0")).astype(np.uint8)
    return (*np.array(rows).T, digits.view(np.uint32).ravel())


def _text(values) -> np.ndarray:
    """'%.16e' text of each value as a row of _WIDTH bytes, 0 where unwritten."""
    hi_tab, lo_tab, quads = _tables()
    v = np.asarray(values, dtype=float).reshape(-1)
    a = np.abs(v)
    ok = (a >= 1e-99) & (a < 1e99)
    x = np.where(ok, a, 1.0)
    e10 = np.floor(np.log10(x)).astype(np.int64)
    hi, lo = hi_tab.take(99 - e10), lo_tab.take(99 - e10)       # 10^(16 - e10)
    p = x * hi
    xh, hh = 134217729.0 * x, 134217729.0 * hi                 # Veltkamp: 26-bit halves
    xh, hh = xh - (xh - x), hh - (hh - hi)
    xl, hl = x - xh, hi - hh
    whole = np.trunc(p)
    r = (p - whole) + (((xh * hh - p) + xh * hl + xl * hh) + xl * hl) + x * lo
    frac = r - np.floor(r)
    n = whole.astype(np.int64) + np.floor(r).astype(np.int64)
    fast = ok & (np.abs(frac - 0.5) >= 1e-9) & (n >= 10 ** 16)
    n += frac > 0.5
    fast &= n < 10 ** 17
    zero = a == 0.0
    n[zero] = e10[zero] = 0
    fast |= zero

    lead = n // 10 ** 16
    quad = np.empty((v.size, 4), np.int64)                      # the 16 digits after the point
    quad[:, 3] = n - lead * 10 ** 16
    for c, scale in enumerate((10 ** 12, 10 ** 8, 10 ** 4)):
        quad[:, c] = quad[:, 3] // scale
        quad[:, 3] -= quad[:, c] * scale
    out = np.empty((v.size, _WIDTH), np.uint8)
    out[:, 0] = np.where(np.signbit(v), ord("-"), 0)
    out[:, 1] = lead + ord("0")
    out[:, 2] = ord(".")
    out[:, 3:19] = quads.take(quad).view(np.uint8).reshape(v.size, 16)
    out[:, 19:21] = [ord("e"), ord("+")]
    out[e10 < 0, 20] = ord("-")
    out[:, 21:23] = quads.take(np.abs(e10)).view(np.uint8).reshape(v.size, 4)[:, 2:]
    out[:, 23] = 0
    slow = np.flatnonzero(~fast)
    if slow.size:                       # "% -24.16e": the sign or a space, then the text
        text = b"% -24.16e" * slow.size % tuple(v[slow].tolist())
        out[slow] = np.frombuffer(text.replace(b" ", b"\0"), np.uint8).reshape(-1, _WIDTH)
    return out


def _write_lines(fh, keys: list[np.ndarray], values: np.ndarray) -> None:
    """Write "key_0,...,key_{d-1},value" for every entry of values, in C order;
    keys[a] is the _text of the coordinates along values' axis a."""
    for start in range(0, values.size, _BLOCK):
        index = np.unravel_index(np.arange(start, min(start + _BLOCK, values.size)), values.shape)
        fields = [*(k.take(i, axis=0) for k, i in zip(keys, index)), _text(values[index])]
        sep = np.full((index[0].size, 1), ord(","), np.uint8)
        lines = np.hstack([part for f in fields for part in
                           (f[:, 0 if f[:, 0].any() else 1:None if f[:, -1].any() else -1], sep)])
        lines[:, -1] = ord("\n")
        del fields                                  # hold one block of text at most twice
        fh.write(lines if lines.min() else lines.tobytes().replace(b"\0", b""))


def write_trace_csv(traj: Trajectory, path) -> None:
    """Rows t,x,u for every time level and trace node, time-major."""
    with open(path, "wb") as fh:
        fh.write(b"t,x,u\n")
        _write_lines(fh, [_text(traj.times), _text(traj.config.grid().xs)], traj.trace_history)


def write_snapshot_csv(traj: Trajectory, path) -> None:
    """Rows t,x,y,w for every captured snapshot, ordered by (t, x, y)."""
    grid = traj.config.grid()
    xy = [_text(grid.xs), _text(grid.ys)]
    with open(path, "wb") as fh:
        fh.write(b"t,x,y,w\n")
        for t, fld in traj.snapshots:
            _write_lines(fh, [_text(t), *xy], fld.values[None])
