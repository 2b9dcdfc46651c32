#!/usr/bin/env python3
"""Time the operator build and the per-step elliptic solve over a mesh ladder.

For I = 64, 128, 256, 512, 1024 with K = I/2 (X = Y = 8, so dx = 16/I) and for
the pairs (c, d) = (2, 1) at sigma = 0.5 and (3, 4) at sigma = 1.5, times one
`assemble` (a fresh build: the operator cache is emptied first), records the
tracemalloc peak of another fresh, untimed build in MiB, and times the p50
and p99 of SOLVES direct calls of `solve_interior` on the gaussian datum's
trace (after one untimed call), and the p50 of STEPS march steps: one march
of STEPS + 1 steps at m = 2 and half the CFL bound from the gaussian datum,
each step timed from its trace update to the next step's (the clock is read
in a wrapper around marcher._bracket_update); the march finds the rung's
freshly built operator in the cache.  It also times march_ms, the ms of that
whole marcher.march call (end to end), and csv_ms, the ms
marcher.write_trace_csv takes to write that march into a temporary directory
(the CSV output layer).  It makes PASSES passes over the whole ladder and
records, per rung, the median over the passes of each of the seven and, beside
it as <figure>_q1 and <figure>_q3, its lower and upper quartile: on a shared
machine the speed drifts over seconds to minutes, rungs timed at five
different moments are less at its mercy than one, and whether a change's
median lies outside the other run's quartiles can be read from the committed
files alone.  Each rung also records, once (they are deterministic), the
mode-1 accuracy split of that march: with s1 = nu_sigma (1 - G[0, 0]) / dx^sigma
the scheme's mode-1 symbol and d1 = oracles.box_symbol(1, X, Y, sigma) the
exact one, space_err = |e^(-s1 T) - e^(-d1 T)| and time_err =
|(1 - lam (1 - G[0, 0]))^J - e^(-s1 T)|, lam = nu_sigma dt / dx^sigma, so a
change that moves the accuracy shows beside its timings.  The machine facts
(the package's line count src_lines among them, split into the scheme's
scheme_lines and the verification half's oracle_lines) go with them into
OUTDIR/BENCH_<tag>.json.  BLAS runs on one
thread unless the BLAS thread variables are set.

Usage: PYTHONPATH=src python3 scripts/bench_ladder.py TAG [OUTDIR] [RUNGS]
  OUTDIR defaults to bench/ in the repository; RUNGS (default 5) keeps only
  the smallest rungs of the ladder.
"""

import hashlib
import json
import math
import os
import pathlib
import platform
import subprocess
import sys
import tempfile
import time
import tracemalloc

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ.setdefault(_var, "1")

import numpy as np      # noqa: E402  (after the BLAS thread variables)
import scipy            # noqa: E402

import fracpme          # noqa: E402
from fracpme.core import Grid, SolverConfig, cfl_max_dt, initial_data_preset  # noqa: E402
from fracpme import extension_op, marcher, oracles      # noqa: E402
from fracpme.extension_op import assemble, solve_interior      # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parents[1]
LADDER = (64, 128, 256, 512, 1024)
PAIRS = ((2, 1, 0.5), (3, 4, 1.5))      # (c, d, sigma)
PASSES = 5
SOLVES = 50
STEPS = 50
M = 2.0
EXACT = ("space_err", "time_err")      # recorded once, without quartiles
HALVES = {"scheme_lines": ("__init__", "cli", "core", "errors", "extension_op", "marcher"),
          "oracle_lines": ("harness", "oracles", "sigma_deriv")}


def machine_facts() -> dict:
    facts = {"nproc": os.cpu_count(), "cpu": platform.processor() or "unknown",
             "python": platform.python_version(), "numpy": np.__version__,
             "scipy": scipy.__version__, **{var: os.environ[var] for var in BLAS_VARS}}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
        facts["cpu"] = models[0] if models else facts["cpu"]
    except OSError:
        pass
    try:
        proc = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"],
                              cwd=ROOT, capture_output=True, text=True, timeout=10)
        facts["git"] = proc.stdout.strip() if proc.returncode == 0 else "unavailable"
    except (OSError, subprocess.TimeoutExpired):
        facts["git"] = "unavailable"
    digest, lines = hashlib.sha256(), {}
    for path in sorted(pathlib.Path(fracpme.__file__).parent.glob("*.py")):
        source = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + source)
        lines[path.stem] = source.count(b"\n")
    facts["src_sha256"] = digest.hexdigest()[:16]
    facts["src_lines"] = sum(lines.values())        # as `wc -l src/fracpme/*.py` counts them
    for half, modules in HALVES.items():
        facts[half] = sum(lines.get(name, 0) for name in modules)
    return facts


def rung(I: int, c: int, d: int, sigma: float) -> dict:
    grid = Grid(X=8.0, Y=8.0, I=I, K=I // 2)
    trace = initial_data_preset("gaussian").fn(grid.xs)[1:-1]
    extension_op._cache.clear()
    start = time.perf_counter()
    op = assemble(grid, sigma, c=c, d=d)
    assemble_s = time.perf_counter() - start
    extension_op._cache.clear()
    tracemalloc.start()
    try:
        assemble(grid, sigma, c=c, d=d)
        assemble_peak_mib = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    solve_interior(op, trace)
    times = []
    for _ in range(SOLVES):
        start = time.perf_counter()
        solve_interior(op, trace)
        times.append(time.perf_counter() - start)
    p50, p99 = np.percentile(times, [50, 99]) * 1e3
    return {"assemble_s": assemble_s, "assemble_peak_mib": assemble_peak_mib,
            "solve_ms_p50": p50, "solve_ms_p99": p99, **march_figures(op, grid, trace)}


def march_figures(op, grid, trace) -> dict:
    """step_ms_p50, the p50 in ms of STEPS consecutive steps of one march on grid with
    op's sigma and pair from the datum whose interior trace is trace (b_max = max
    trace^M), march_ms, the ms of that whole march call, csv_ms, the ms
    write_trace_csv takes to write that march, and the march's mode-1 accuracy split."""
    J = STEPS + 1
    T = J * 0.5 * cfl_max_dt(M, float(trace.max()) ** M, op.sigma, grid.dx)
    config = SolverConfig(sigma=op.sigma, m=M, X=grid.X, Y=grid.Y, T=T, I=grid.I, K=grid.K,
                          J=J, c=op.c, d=op.d)
    update, ticks = marcher._bracket_update, []

    def ticking(*args, **kwargs):
        ticks.append(time.perf_counter())
        return update(*args, **kwargs)

    marcher._bracket_update = ticking
    try:
        start = time.perf_counter()
        traj = marcher.march(config, np.r_[0.0, trace, 0.0])
        march_ms = (time.perf_counter() - start) * 1e3
    finally:
        marcher._bracket_update = update
    with tempfile.TemporaryDirectory() as tmp:
        start = time.perf_counter()
        marcher.write_trace_csv(traj, pathlib.Path(tmp) / "trace.csv")
        csv_ms = (time.perf_counter() - start) * 1e3
    return {"step_ms_p50": float(np.percentile(np.diff(ticks), 50)) * 1e3, "march_ms": march_ms,
            "csv_ms": csv_ms, **mode_1_split(op, config)}


def mode_1_split(op, config) -> dict:
    """space_err and time_err of config's march on op (see the module docstring)."""
    g = 1.0 - float(op.G[0, 0])         # mode 1 is the first: the x-modes ascend
    lam = marcher._lambda(config.dt, config.dx, op.sigma)
    s1, d1 = lam * g / config.dt, oracles.box_symbol(1, config.X, config.Y, op.sigma)
    decay = math.exp(-s1 * config.T)
    return {"space_err": abs(decay - math.exp(-d1 * config.T)),
            "time_err": abs((1.0 - lam * g) ** config.J - decay)}


def main() -> int:
    if not 2 <= len(sys.argv) <= 4:
        print(__doc__.rsplit("Usage: ", 1)[1], file=sys.stderr)
        return 2
    tag = sys.argv[1]
    outdir = pathlib.Path(sys.argv[2]) if len(sys.argv) > 2 else ROOT / "bench"
    ladder = LADDER[:int(sys.argv[3])] if len(sys.argv) > 3 else LADDER
    cases = [(I, c, d, sigma) for I in ladder for c, d, sigma in PAIRS]
    passes = [[rung(*case) for case in cases] for _ in range(PASSES)]
    rungs = []
    for (I, c, d, sigma), timed in zip(cases, zip(*passes)):
        r = {"I": I, "K": I // 2, "c": c, "d": d, "sigma": sigma}
        r.update({key: timed[0][key] for key in EXACT})
        for key in (key for key in timed[0] if key not in EXACT):
            q1, r[key], q3 = np.percentile([t[key] for t in timed], [25, 50, 75]).tolist()
            r[f"{key}_q1"], r[f"{key}_q3"] = q1, q3
        rungs.append(r)
        print(f"I={I} K={r['K']} (c, d)=({c}, {d}) sigma={sigma}: assemble "
              f"{r['assemble_s']:.3f} s (peak {r['assemble_peak_mib']:.1f} MiB), "
              f"solve p50 {r['solve_ms_p50']:.3f} ms, "
              f"p99 {r['solve_ms_p99']:.3f} ms, step p50 {r['step_ms_p50']:.3f} ms, "
              f"march {r['march_ms']:.3f} ms, csv {r['csv_ms']:.3f} ms, "
              f"mode-1 space_err {r['space_err']:.2e}, time_err {r['time_err']:.2e}")
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / f"BENCH_{tag}.json"
    path.write_text(json.dumps({"tag": tag, "passes": PASSES, "solve_calls": SOLVES,
                                "march_steps": STEPS,
                                "machine": machine_facts(), "rungs": rungs}, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
