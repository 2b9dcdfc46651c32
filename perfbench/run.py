#!/usr/bin/env python3
"""fracpme benchmark: one workload per run, every output checked.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 24 --trace 0

Workloads (see workloads.py): sweep, long_solve, convergence.  Each is a
closed loop: one client runs the workload's operations one after the other,
in a single process.  A pass is one run over all of them; passes repeat until
--seconds are used, and at least two run.

--trace 0 prints the end-to-end metrics, measured with no tracing wrapper
installed.  --trace 1 interleaves traced and untraced passes and prints the
per-layer metrics, including the tracing overhead.  Human-readable lines come
first; the last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import calibration

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("sweep", "long_solve", "convergence")
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 3          # set-ups timed per run, each in a fresh process
MIN_PASSES = 2
MIN_TRACED_PASSES = 2     # exact counts are compared between traced passes
TAIL_SAMPLES = 10         # a percentile is reported only with this many samples beyond it


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=24.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", metavar="DIR", default=None,
                   help="set up in DIR, print 'ready <monotonic time>' and exit")
    return p.parse_args(argv)


def pin_threads() -> tuple[int, int]:
    """One BLAS thread, and one CPU for this process and its set-up probes:
    the solver is single-threaded, and calibration points then measure the CPU
    the program runs on."""
    for var in BLAS_VARS:
        os.environ.setdefault(var, "1")
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    return len(cpus), max(cpus)


def set_up(args, workdir):
    """Import the program from this checkout's src/ and generate the inputs."""
    if not os.path.isfile(os.path.join(SRC, "fracpme", "__init__.py")):
        raise SystemExit(f"error: the fracpme sources are not at {SRC}")
    sys.path.insert(0, SRC)
    import workloads
    import fracpme
    if os.path.dirname(os.path.dirname(os.path.abspath(fracpme.__file__))) != SRC:
        raise SystemExit(f"error: imported fracpme from {fracpme.__file__}, not {SRC}")
    os.makedirs(workdir, exist_ok=True)
    return workloads, workloads.BUILDERS[args.workload](args.seed, workdir)


def measure_setup(args, cal) -> list[tuple[float, float]]:
    """(seconds from spawn to inputs ready, speed factor) of fresh processes,
    each run between two calibration points."""
    times = []
    for n in range(SETUP_PROBES):
        before = cal.point()
        workdir = os.path.join(OUT, f"probe-{os.getpid()}-{n}")
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-probe", workdir]
        start = time.monotonic()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        lines = proc.stdout.split()
        if proc.returncode != 0 or len(lines) != 2 or lines[0] != "ready":
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append((float(lines[1]) - start, calibration.factor(before + cal.point())))
    return times


def percentile(values, q):
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


class Pass:
    """Timed regions (calibration.Timed) of one pass's operations and marches."""

    def __init__(self, traced):
        self.traced = traced
        self.ops: list[calibration.Timed] = []
        self.marches: list[calibration.Timed] = []
        self.failures: list[tuple[str, list[str]]] = []
        self.node_steps = 0

    @property
    def wall(self) -> float:
        return sum(op.raw for op in self.ops)

    @property
    def wall_ref(self) -> float:
        return sum(op.ref for op in self.ops)

    @property
    def factor(self) -> float:
        return self.wall_ref / self.wall


class Probes:
    """Hooks the run keeps on the program: every march is timed and its
    Trajectory kept for the checks, and every time step may take a
    calibration point.  Tracing, when on, wraps these hooks."""

    def __init__(self, marcher, clock):
        self.marcher, self.clock = marcher, clock
        self.recorded: list = []
        self._saved = (marcher.march, marcher.step)

    def install(self) -> None:
        march, step = self._saved
        clock = self.clock

        def timed_march(*args, **kwargs):
            region = calibration.Timed()
            clock.push(region)
            try:
                traj = march(*args, **kwargs)
            finally:
                clock.pop()
            self.recorded.append((traj, region))
            return traj

        def ticking_step(*args, **kwargs):
            state = step(*args, **kwargs)
            clock.tick()
            return state

        self.marcher.march, self.marcher.step = timed_march, ticking_step

    def uninstall(self) -> None:
        self.marcher.march, self.marcher.step = self._saved

    def take(self) -> list:
        out, self.recorded = self.recorded, []
        return out


def run_pass(wl, probes, tracer, pass_id) -> Pass:
    """One closed-loop pass; only the operations are timed, not their checks."""
    result = Pass(traced=tracer is not None)
    clock = probes.clock
    if tracer is not None:
        tracer.install(pass_id)
    try:
        for op in wl.ops:
            probes.take()
            region = calibration.Timed()
            clock.push(region)
            try:
                out, error = op.run(), None
            except Exception as e:            # a failed operation is counted, not fatal
                out, error = None, f"{type(e).__name__}: {e}"
            finally:
                clock.pop()
            result.ops.append(region)
            recorded = probes.take()
            if error is None:
                try:
                    problems = op.check(out, [traj for traj, _ in recorded])
                except Exception as e:
                    problems = [f"check raised {type(e).__name__}: {e}"]
            else:
                problems = [error]
            if problems:
                result.failures.append((op.label, problems))
            for traj, march in recorded:
                cfg = traj.config
                result.node_steps += (cfg.I - 1) * (cfg.K - 1) * cfg.J
                result.marches.append(march)
            clock.tick()
    finally:
        if tracer is not None:
            tracer.uninstall()
    clock.point()                             # settles the last operations' reference time
    return result


def run_passes(args, wl, probes, tracer):
    """Untraced passes, or traced and untraced ones interleaved T U T (U T)..."""
    passes: list[Pass] = []
    begun = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 0
        started = time.perf_counter()
        passes.append(run_pass(wl, probes, tracer if traced else None, len(passes)))
        last = time.perf_counter() - started
        elapsed = time.perf_counter() - begun
        n_traced = sum(p.traced for p in passes)
        enough = len(passes) >= MIN_PASSES and (
            tracer is None or (n_traced >= MIN_TRACED_PASSES and passes[-1].traced))
        step = last if tracer is None else 2 * last
        if enough and elapsed + step > args.seconds:
            return passes


def machine_facts(nproc: int, pinned: int) -> dict:
    import numpy
    import scipy
    facts = {"nproc": nproc, "pinned_cpu": pinned, "cpu": platform.processor() or "unknown",
             "l3": "unknown", "python": platform.python_version(),
             "numpy": numpy.__version__, "scipy": scipy.__version__}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
        facts["cpu"] = models[0] if models else facts["cpu"]
    except OSError:
        pass
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(cache_dir)):
            with open(os.path.join(cache_dir, entry, "level"), encoding="utf-8") as fh:
                if fh.read().strip() == "3":
                    with open(os.path.join(cache_dir, entry, "size"), encoding="utf-8") as fs:
                        facts["l3"] = fs.read().strip()
    except OSError:
        pass
    for var in BLAS_VARS:
        facts[var] = os.environ.get(var, "")
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
        facts["git"] = proc.stdout.strip() if proc.returncode == 0 else "unavailable"
    except (OSError, subprocess.TimeoutExpired):
        facts["git"] = "unavailable"
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "fracpme")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    facts["src_sha256"] = h.hexdigest()[:16]
    return facts


def end_to_end(untraced: list[Pass], setup: list[tuple[float, float]],
               scaled: bool = True) -> tuple[dict, list[str]]:
    """Times in seconds at the reference speed, or as measured if not scaled."""
    def secs(region):
        return region.ref if scaled else region.raw

    ops = [secs(op) for p in untraced for op in p.ops]
    march_s = sum(secs(m) for p in untraced for m in p.marches)
    metrics = {}
    if setup:
        metrics["setup_s"] = (statistics.median(t * (k if scaled else 1.0) for t, k in setup), "s")
    metrics.update({
        "wall_s": (statistics.median(sum(secs(op) for op in p.ops) for p in untraced), "s"),
        "op_s_p50": (statistics.median(ops), "s"),
        # 0 only when no march completed, and then every operation failed
        "node_steps_per_s": (sum(p.node_steps for p in untraced) / march_s if march_s else 0.0,
                             "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    })
    notes = []
    p90, beyond = percentile(ops, 0.90)
    if beyond >= TAIL_SAMPLES:
        notes.append(f"op_s_p90 {p90:.6f} s ({beyond} samples beyond it)")
    elif scaled:
        notes.append(f"op_s_p90 not reported: {beyond} samples beyond it, "
                     f"{TAIL_SAMPLES} needed")
    if scaled:
        notes.append(f"wall_s is the median of {len(untraced)} passes; op_s_p50 of {len(ops)} "
                     "operations; pass speed factors "
                     + " ".join(f"{p.factor:.4f}" for p in untraced))
    return metrics, notes


def per_layer(tracer, passes: list[Pass]) -> tuple[dict, list[str], list[str]]:
    """Per-layer metrics from the traced passes, plus the exact counts' check."""
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    tables = {p_id: tracer.layer_table(p_id, passes[p_id].factor)
              for p_id in sorted({s[4] for s in tracer.spans})}
    problems, notes = [], []
    counts = []
    for p_id, table in tables.items():
        row = {f"{name}.calls": r["calls"] for name, r in sorted(table.items())}
        row.update(tracer.counts[p_id])
        distinct = tracer.keys[p_id]["extension_op.assemble.distinct"]
        row["extension_op.assemble.distinct"] = len(distinct)
        counts.append(row)
    if any(c != counts[0] for c in counts[1:]):
        problems.append(f"exact counts differ between traced passes: {counts}")
    exact = counts[0]
    notes.append("exact counts " + hashlib.sha256(
        json.dumps(exact, sort_keys=True).encode()).hexdigest()[:16] + " "
        + " ".join(f"{k}={v}" for k, v in sorted(exact.items())))

    def med(name, key):
        return statistics.median(t.get(name, {}).get(key, 0.0) for t in tables.values())

    def pooled_ms(name, q):
        durs = [d for t in tables.values() for d in t.get(name, {}).get("durations", ())]
        if not durs:
            return 0.0
        value, beyond = percentile(durs, q)
        if beyond < TAIL_SAMPLES:
            notes.append(f"{name} p{round(100 * q)} has only {beyond} samples beyond it")
        return 1e3 * value

    for p_id, table in tables.items():
        self_total = sum(r["self_s"] for r in table.values())
        wall = passes[p_id].wall_ref
        if abs(self_total - wall) > 0.01 * wall + 1e-3:
            problems.append(f"span self times add up to {self_total:.4f} s, "
                            f"traced wall is {wall:.4f} s")
    traced_wall = statistics.median(p.wall_ref for p in traced)
    untraced_wall = statistics.median(p.wall_ref for p in untraced)
    assemble_calls = exact.get("extension_op.assemble.calls", 0)
    m = {
        "extension_op.assemble.calls": (assemble_calls, "count"),
        "extension_op.assemble.s": (med("extension_op.assemble", "s"), "s"),
        "extension_op.assemble.nnz": (exact.get("extension_op.assemble.nnz", 0), "count"),
        "extension_op.assemble.distinct_ratio": (
            exact["extension_op.assemble.distinct"] / assemble_calls if assemble_calls else 0.0,
            "ratio"),
        "extension_op.solve_interior.calls": (exact.get("extension_op.solve_interior.calls", 0), "count"),
        "extension_op.solve_interior.s": (med("extension_op.solve_interior", "s"), "s"),
        "extension_op.solve_interior.ms_p50": (pooled_ms("extension_op.solve_interior", 0.5), "ms"),
        "extension_op.solve_interior.ms_p99": (pooled_ms("extension_op.solve_interior", 0.99), "ms"),
        "extension_op.full_grid_values.calls": (exact.get("extension_op.full_grid_values.calls", 0), "count"),
        "extension_op.full_grid_values.s": (med("extension_op.full_grid_values", "s"), "s"),
        "extension_op.discrete_max_location.calls": (
            exact.get("extension_op.discrete_max_location.calls", 0), "count"),
        "extension_op.discrete_max_location.s": (med("extension_op.discrete_max_location", "s"), "s"),
        "marcher.step.calls": (exact.get("marcher.step.calls", 0), "count"),
        "marcher.step.self_s": (med("marcher.step", "self_s"), "s"),
        "marcher.step.ms_p50": (pooled_ms("marcher.step", 0.5), "ms"),
        "marcher.step.ms_p99": (pooled_ms("marcher.step", 0.99), "ms"),
        "marcher.boundary_update.calls": (exact.get("marcher.boundary_update.calls", 0), "count"),
        "marcher.boundary_update.s": (med("marcher.boundary_update", "s"), "s"),
        "marcher.march.calls": (exact.get("marcher.march.calls", 0), "count"),
        "marcher.march.self_s": (med("marcher.march", "self_s"), "s"),
        "marcher.write_trace_csv.bytes": (exact.get("marcher.write_trace_csv.bytes", 0), "bytes"),
        "marcher.write_snapshot_csv.bytes": (exact.get("marcher.write_snapshot_csv.bytes", 0), "bytes"),
        "oracles.fractional_heat_solution.calls": (
            exact.get("oracles.fractional_heat_solution.calls", 0), "count"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
    }
    # layers that only some workloads reach: printed, but kept out of the JSON
    # metrics, where a time that is 0 on every run of a workload would mislead
    for name, key in (("marcher.write_trace_csv", "s"), ("marcher.write_snapshot_csv", "s"),
                      ("cli.main", "self_s"), ("harness.run_convergence", "self_s"),
                      ("oracles.fractional_heat_solution", "s")):
        notes.append(f"{name}.{key} {med(name, key):.6f} s")
    notes.append(f"trace: {len(traced)} traced and {len(untraced)} untraced passes, "
                 f"{len(tracer.spans)} spans; untraced wall_s {untraced_wall:.6f} s")
    return m, notes, problems


def _fmt(value) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc, cpu = pin_threads()
    if args.setup_probe:
        set_up(args, args.setup_probe)
        print(f"ready {time.monotonic()!r}")
        return 0

    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    try:
        workloads, wl = set_up(args, workdir)
        cal = calibration.Calibrator()
        setup_times = measure_setup(args, cal) if args.trace == 0 else []
        import tracing
        from fracpme import marcher
        clock = calibration.ReferenceClock(cal)
        probes = Probes(marcher, clock)
        tracer = tracing.Tracer(tracing.program_targets(), lambda: clock.paused) if args.trace else None
        probes.install()
        try:
            passes = run_passes(args, wl, probes, tracer)
        finally:
            probes.uninstall()
        if tracer is not None:
            tracer.write_spans(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.csv"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = [p for p in passes if not p.traced]
    attempted = sum(len(p.ops) for p in passes)
    failures = [f for p in passes for f in p.failures]
    problems: list[str] = []
    e2e, notes = end_to_end(untraced, setup_times)
    raw, raw_notes = end_to_end(untraced, setup_times, scaled=False)
    metrics = e2e
    if tracer is not None:
        metrics, layer_notes, problems = per_layer(tracer, passes)
        notes += layer_notes

    facts = machine_facts(nproc, cpu)
    print(f"fracpme benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("machine: " + " ".join(f"{k}={v!r}" if " " in str(v) else f"{k}={v}"
                                 for k, v in facts.items()))
    print(f"inputs: digest={wl.digest[:16]} operations={len(wl.ops)} "
          f"marches_per_pass={len(passes[0].marches)} node_steps_per_pass={passes[0].node_steps}")
    for name, (value, unit) in e2e.items():
        print(f"e2e {name} {_fmt(value)} {unit}")
    print(f"e2e failed_frac {len(failures) / attempted:.6g} ({len(failures)} of {attempted})")
    for name, (value, unit) in raw.items():
        print(f"raw {name} {_fmt(value)} {unit}")
    for note in raw_notes:
        print(f"raw {note}")
    if tracer is not None:
        for name, (value, unit) in metrics.items():
            print(f"layer {name} {_fmt(value)} {unit}")
    for note in notes:
        print(f"note {note}")
    for label, msgs in failures[:10]:
        print(f"FAILED {label}: " + "; ".join(msgs[:3]))
    for msg in problems:
        print(f"PROBLEM {msg}")
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
