"""Explicit time integration of the trace coupled to the elliptic extension solve.

One step: advance the trace row by the explicit nonlinear update driven by the
two-point sigma-derivative quotient, then re-solve the interior.  Under the
CFL restriction dt <= C(m, f) dx^sigma the update is a convex combination in
the pressure variable, which is what makes every bound below hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import core, extension_op
from .core import Field, InitialData, SolverConfig
from .errors import (CflViolationError, ConfigError, MaxPrincipleError,
                     NegativeBracketError, SolverError)

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
    row[1:-1] = samples[1:-1] ** config.m
    return row


def initialize(config: SolverConfig, f, op: extension_op.ExtensionOperator | None = None) -> Field:
    """Starting field: trace row f^m, homogeneous lateral data, interior solved."""
    if op is None:
        op = extension_op.assemble(config.grid(), config.sigma, config.c, config.d)
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
    if not np.isfinite(new_vals).all():
        i, k = np.argwhere(~np.isfinite(new_vals))[0]
        raise SolverError(f"non-finite value at node (i={i}, k={k}), "
                          f"step {state.time_index + 1}")
    return Field(values=new_vals, time_index=state.time_index + 1)


@dataclass(frozen=True)
class StepDiagnostics:
    j: int
    t: float
    w_min: float
    w_max: float
    argmax: tuple[int, int]


@dataclass(frozen=True)
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
        j = int(round(float(t) / dt))
        if not (0 <= j <= J):
            raise ConfigError(f"snapshot time {t} outside [0, T]")
        steps.add(j)
    return steps


def march(config: SolverConfig, f, capture=None) -> Trajectory:
    """Run all J steps, enforcing the CFL bound and the maximum-principle band.

    capture: None (trace history only), "all", an integer stride, or an
    iterable of times (rounded to the nearest step).
    """
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

    wanted = _capture_steps(capture, config.J, dt)
    hi = b_max + 1e-10
    w_hist = np.empty((config.J + 1, config.I + 1))
    times = np.arange(config.J + 1) * dt
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
        if w_min < -1e-10 or w_max > hi:
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

def write_trace_csv(traj: Trajectory, path) -> None:
    """Rows t,x,u for every time level and trace node, time-major."""
    xs = traj.config.grid().xs
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,x,u\n")
        for j, t in enumerate(traj.times):
            row = traj.trace_history[j]
            for x, u in zip(xs, row):
                fh.write(f"{t:.16e},{x:.16e},{u:.16e}\n")


def write_snapshot_csv(traj: Trajectory, path) -> None:
    """Rows t,x,y,w for every captured snapshot, ordered by (t, x, y)."""
    grid = traj.config.grid()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,x,y,w\n")
        for t, fld in traj.snapshots:
            vals = fld.values
            for i, x in enumerate(grid.xs):
                for k, y in enumerate(grid.ys):
                    fh.write(f"{t:.16e},{x:.16e},{y:.16e},{vals[i, k]:.16e}\n")
