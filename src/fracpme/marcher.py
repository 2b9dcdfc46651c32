"""Explicit time integration of the trace coupled to the elliptic extension solve.

One step: advance the trace row by the explicit nonlinear update driven by the
two-point sigma-derivative quotient, then re-solve the interior.  Under the
CFL restriction dt <= C(m, f) dx^sigma the update is a convex combination in
the pressure variable, which is what makes every bound below hold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core, extension_op
from .core import Field, InitialData, SolverConfig
from .errors import CflViolationError, ConfigError, MaxPrincipleError, NegativeBracketError

__all__ = [
    "StepDiagnostics", "Trajectory", "initialize", "boundary_update", "step",
    "march", "write_trace_csv", "write_snapshot_csv",
]


def _data_samples(f, grid) -> np.ndarray:
    """Initial datum as a sample vector on grid.xs; rejects negative data."""
    if isinstance(f, InitialData):
        samples = f.sample(grid.xs)
    elif callable(f):
        samples = np.asarray(f(grid.xs), dtype=float)
    else:
        samples = np.asarray(f, dtype=float)
        if samples.shape != grid.xs.shape:
            raise ConfigError(
                f"initial data must have {grid.xs.size} samples, got {samples.shape}")
    if not np.isfinite(samples).all():
        raise ConfigError("initial data must be finite")
    if samples.min() < 0.0:
        raise ConfigError("nonnegative initial data required")
    return samples


def initial_trace_w(config: SolverConfig, f) -> np.ndarray:
    """Trace row of w at t = 0: f^m at the interior trace nodes, 0 at the corners."""
    grid = config.grid()
    samples = _data_samples(f, grid)
    row = np.zeros(grid.I + 1)
    with np.errstate(over="ignore"):
        row[1:-1] = samples[1:-1] ** config.m
    if not np.isfinite(row).all():
        raise ConfigError(f"initial data too large: f^m overflows at m = {config.m:g}")
    return row


def initialize(config: SolverConfig, f, op: extension_op.ExtensionOperator | None = None) -> Field:
    """Starting field: trace row f^m, homogeneous lateral data, interior solved.

    op, if given, must be the operator assembled for config's grid, sigma, c and d.
    """
    if op is None:
        op = extension_op.assemble(config.grid(), config.sigma, config.c, config.d)
    elif (op.grid, op.sigma, op.c, op.d) != (config.grid(), config.sigma, config.c, config.d):
        raise ValueError("op was assembled for another grid, sigma or stencil pair than config")
    row0 = initial_trace_w(config, f)
    interior = extension_op.solve_interior(op, row0[1:-1])
    vals = extension_op.full_grid_values(op, row0[1:-1], interior)
    return Field(values=vals, time_index=0)


def boundary_update(row0: np.ndarray, row1: np.ndarray, dt: float, dx: float,
                    sigma: float, m: float) -> np.ndarray:
    """One explicit trace step:

        new = [ nu_sigma * (dt/dx^sigma) * (row1 - row0) + row0^(1/m) ]^m

    The bracket is nonnegative under the CFL precondition; excursions below
    -1e-12 abort (CFL violation or corrupted state), smaller ones are rounding
    and clamp to 0.
    """
    row0 = np.asarray(row0, dtype=float)
    row1 = np.asarray(row1, dtype=float)
    if row0.shape != row1.shape:
        raise ValueError("trace rows must have equal shape")
    if not (np.isfinite(row0).all() and np.isfinite(row1).all()):
        raise ValueError("trace rows must be finite")
    if row0.size and min(row0.min(), row1.min()) < -1e-12:
        raise ValueError("trace rows must be nonnegative")
    if m < 1.0:
        raise ValueError(f"m must be >= 1, got {m}")
    lam = core.nu_sigma(sigma) * dt / dx ** sigma
    bracket = lam * (row1 - row0) + np.maximum(row0, 0.0) ** (1.0 / m)
    if bracket.size and bracket.min() < -1e-12:
        idx = int(np.argmin(bracket))
        raise NegativeBracketError(
            f"pressure bracket reached {bracket[idx]:.3e} at trace index {idx}; "
            f"time step too large for the data", index=idx, value=float(bracket[idx]))
    np.clip(bracket, 0.0, None, out=bracket)
    return bracket ** m


def step(state: Field, op: extension_op.ExtensionOperator, config: SolverConfig) -> Field:
    """Advance one time level: trace update, then interior re-solve."""
    vals = state.values
    new_trace = boundary_update(vals[1:-1, 0], vals[1:-1, 1],
                                config.dt, config.dx, config.sigma, config.m)
    interior = extension_op.solve_interior(op, new_trace)
    new_vals = extension_op.full_grid_values(op, new_trace, interior)
    return Field(values=new_vals, time_index=state.time_index + 1)


@dataclass(frozen=True)
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


def _capture_steps(capture, J: int, dt: float) -> set[int]:
    if capture is None:
        return set()
    if capture == "all":
        return set(range(J + 1))
    if isinstance(capture, int):
        if capture <= 0:
            raise ConfigError("capture stride must be positive")
        return set(range(0, J + 1, capture)) | {J}
    steps = set()
    for t in capture:
        t = float(t)
        j = int(round(t / dt)) if np.isfinite(t) else -1
        if not (0 <= j <= J):
            raise ConfigError(f"snapshot time {t} outside [0, T]")
        steps.add(j)
    return steps


def march(config: SolverConfig, f, capture=None,
          op: extension_op.ExtensionOperator | None = None) -> Trajectory:
    """Run all J steps, enforcing the CFL bound and the maximum-principle band.

    capture: None (trace history only), "all", an integer stride, or an
    iterable of times (rounded to the nearest step).  op: the operator for
    config's grid, sigma, c and d, assembled here if None (a mismatch raises
    ValueError).
    """
    if op is None:
        op = extension_op.assemble(config.grid(), config.sigma, config.c, config.d)
    state = initialize(config, f, op)
    b_max = float(state.values[1:-1, 0].max())

    bound = core.cfl_max_dt(config.m, b_max, config.sigma, config.dx)
    dt = config.dt
    if dt > config.cfl_safety * bound * (1.0 + 1e-12):
        raise CflViolationError(
            f"dt = {dt:.6e} exceeds cfl_safety * C(m,f) * dx^sigma = "
            f"{config.cfl_safety * bound:.6e}; increase J to at least "
            f"{int(np.ceil(config.T / (config.cfl_safety * bound)))}")

    try:
        w_hist = np.empty((config.J + 1, config.I + 1))
        times = np.arange(config.J + 1) * dt
    except MemoryError:
        raise ConfigError(f"J = {config.J} too large at I = {config.I}: the (J+1) x (I+1) trace "
                          f"history needs {8 * (config.J + 1) * (config.I + 1)} bytes") from None
    wanted = _capture_steps(capture, config.J, dt)
    snapshots: list[tuple[float, Field]] = []
    diags: list[StepDiagnostics] = []

    for j in range(config.J + 1):
        if j > 0:
            try:
                state = step(state, op, config)
            except NegativeBracketError as e:
                e.step = j
                raise
        vals = state.values
        w_min, w_max = float(vals.min()), float(vals.max())
        if w_min < -1e-10 or w_max > b_max + 1e-10:
            raise MaxPrincipleError(
                f"solution left [0, b_max] band at step {j}: "
                f"min = {w_min:.3e}, max = {w_max:.3e}, b_max = {b_max:.3e}")
        w_hist[j] = vals[:, 0]
        diags.append(StepDiagnostics(j=j, t=float(times[j]), w_min=w_min, w_max=w_max,
                                     argmax=extension_op.discrete_max_location(vals)))
        if j in wanted:
            snapshots.append((float(times[j]), state))

    trace_hist = np.maximum(w_hist, 0.0) ** (1.0 / config.m)
    times.setflags(write=False)
    trace_hist.setflags(write=False)
    return Trajectory(config=config, times=times, trace_history=trace_hist,
                      snapshots=tuple(snapshots), diagnostics=tuple(diags),
                      b_max=b_max, cfl_ratio=dt / bound if np.isfinite(bound) else 0.0)


# ---------------------------------------------------------------------------
# CSV emission (17 significant digits for bit-stable round trips)
#
# Every field is "%.16e" text, the same as f"{v:.16e}".  The columns that do
# not change within a block are formatted once; a block (one time level of
# the trace, one x-column of a snapshot) is then a single %-format of a
# template with one "%.16e" per row over the block's values, so each data
# value costs one float-to-text conversion in C.  Blocks are written as they
# are formatted, so no more than one block of text is held at a time.

def _block_template(prefix: str, suffixes: list[str]) -> str:
    """prefix + suffixes[0] + prefix + suffixes[1] + ... as one string."""
    return prefix.join(["", *suffixes])


def write_trace_csv(traj: Trajectory, path) -> None:
    """Rows t,x,u for every time level and trace node, time-major."""
    x_rows = [f",{x:.16e},%.16e\n" for x in traj.config.grid().xs.tolist()]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,x,u\n")
        for t, row in zip(traj.times.tolist(), traj.trace_history):
            fh.write(_block_template(f"{t:.16e}", x_rows) % tuple(row.tolist()))


def write_snapshot_csv(traj: Trajectory, path) -> None:
    """Rows t,x,y,w for every captured snapshot, ordered by (t, x, y)."""
    grid = traj.config.grid()
    xs = [f"{x:.16e}" for x in grid.xs.tolist()]
    y_rows = [f",{y:.16e},%.16e\n" for y in grid.ys.tolist()]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,x,y,w\n")
        for t, fld in traj.snapshots:
            t_str = f"{t:.16e},"
            for x, column in zip(xs, fld.values):
                fh.write(_block_template(t_str + x, y_rows) % tuple(column.tolist()))
