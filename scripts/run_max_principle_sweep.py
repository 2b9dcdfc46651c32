#!/usr/bin/env python3
"""Sweep the explicit marcher across m x sigma x random bump data and verify
the discrete maximum principle.

For every combination of m in {1, 2, 3}, sigma in {0.3, 0.5, 1.0, 1.5, 1.9}
and three seeded bumps with amplitude in [1, 2], marches to T = 0.1 on a
65 x 65 node mesh with a CFL-compliant step and reports the worst band excess
(how far any node left [0, b_max]) and the worst argmax height (which must be
the trace row, k = 0).  The step follows the CFL constant
[m b_max^((m-1)/m) nu_sigma]^(-1), which certifies the band for every
amplitude; the amplitudes match the acceptance-3 matrix.

Usage: PYTHONPATH=src python3 scripts/run_max_principle_sweep.py
"""

import math
import sys

import numpy as np

from fracpme.core import Grid, InitialData, SolverConfig, cfl_max_dt
from fracpme.errors import MaxPrincipleError
from fracpme.marcher import march


def seeded_bump(seed):
    rng = np.random.default_rng(seed)
    amp = float(rng.uniform(1.0, 2.0))
    x0 = float(rng.uniform(-0.5, 0.5))
    half_width = float(rng.uniform(0.5, 1.0))

    def fn(xs):
        out = np.zeros_like(xs, dtype=float)
        inside = np.abs(xs - x0) < half_width
        out[inside] = amp * np.cos(np.pi * (xs[inside] - x0) / (2.0 * half_width)) ** 2
        return out

    return InitialData(name=f"seeded-bump-{seed}", fn=fn)


def main() -> int:
    X, Y, I, K, T = 2.0, 4.0, 64, 64, 0.1
    grid = Grid(X, Y, I, K)
    violations = 0
    for m in (1.0, 2.0, 3.0):
        for sigma in (0.3, 0.5, 1.0, 1.5, 1.9):
            worst_excess = 0.0
            worst_k = 0
            steps = 0
            for trial in range(3):
                data = seeded_bump(trial + 10 * round(10 * sigma) + 1000 * int(m))
                samples = data.sample(grid.xs)
                b_max = float((samples[1:-1] ** m).max())
                bound = cfl_max_dt(m, b_max, sigma, grid.dx)
                J = max(1, math.ceil(T / (SolverConfig.cfl_safety * bound)))
                cfg = SolverConfig(sigma=sigma, m=m, X=X, Y=Y, T=T, I=I, K=K, J=J)
                try:
                    traj = march(cfg, data)
                except MaxPrincipleError as e:
                    print(f"m={m:g} sigma={sigma:<4g} trial {trial}: BAND VIOLATION: {e}")
                    violations += 1
                    continue
                for diag in traj.diagnostics:
                    worst_excess = max(worst_excess, -diag.w_min,
                                       diag.w_max - traj.b_max)
                    worst_k = max(worst_k, diag.argmax[1])
                steps += len(traj.diagnostics)
            state = "ok" if worst_k == 0 else f"ARGMAX OFF TRACE (k={worst_k})"
            if worst_k != 0:
                violations += 1
            print(f"m={m:g} sigma={sigma:<4g}: {steps:5d} steps, "
                  f"worst band excess {worst_excess:.3e}, argmax {state}")
    if violations:
        print(f"{violations} violation(s) found")
        return 1
    print("maximum principle and max-on-trace verified over the full sweep")
    return 0


if __name__ == "__main__":
    sys.exit(main())
