"""Inputs, operations and output checks of the benchmark's three workloads.

Every input is generated here from the seed; the program receives only the
generated configs and data samples.  Step counts come from the CFL formula
below, a copy of the bound the solver enforced when this benchmark was
written, so a later change to the solver's bound does not move the inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from fracpme import cli, core, harness, marcher

DEFAULT_SEED = 0
CFL_SAFETY = 0.95            # SolverConfig's default; the marcher checks dt against it
BAND_TOL = 1e-10             # acceptance 3: every node in [-1e-10, b_max + 1e-10]
REFERENCE_ATOL = 1e-9        # final traces vs the stored default-seed reference
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

SWEEP_MS = (1.0, 2.0, 3.0)
SWEEP_SIGMAS = (0.3, 0.5, 1.0, 1.5, 1.9)
SWEEP_TRIALS = 3
SWEEP_MESH = {"X": 2.0, "Y": 4.0, "I": 64, "K": 64, "T": 0.1}
LONG_MESH = {"X": 8.0, "Y": 8.0, "I": 256, "K": 128, "T": 28.0}
LONG_SIGMA, LONG_M, LONG_SNAPSHOTS = 0.5, 2.0, 5
AMP_RANGE = (1.0, 2.0)


def nu_sigma(sigma: float) -> float:
    return sigma * 2.0 ** (sigma - 1.0) * math.gamma(sigma / 2.0) / math.gamma(1.0 - sigma / 2.0)


def cfl_dt(m: float, b_max: float, sigma: float, dx: float) -> float:
    """dx^sigma / (m b_max^(m-1) nu_sigma), with b_max the max of f^m."""
    return dx ** sigma / (m * b_max ** (m - 1.0) * nu_sigma(sigma))


def frozen_steps(T: float, m: float, b_max: float, sigma: float, dx: float) -> int:
    return max(1, math.ceil(T / (CFL_SAFETY * cfl_dt(m, b_max, sigma, dx))))


def trace_nodes(X: float, I: int) -> np.ndarray:
    return np.arange(I + 1) * (2.0 * X / I) - X       # the same floats as Grid.xs


def bump_samples(xs, amp, x0, half_width) -> np.ndarray:
    out = np.zeros_like(xs, dtype=float)
    inside = np.abs(xs - x0) < half_width
    out[inside] = amp * np.cos(np.pi * (xs[inside] - x0) / (2.0 * half_width)) ** 2
    return out


def _draw_bump(rng, amp_hi):
    amp = float(rng.uniform(AMP_RANGE[0], amp_hi))
    return amp, float(rng.uniform(-0.5, 0.5)), float(rng.uniform(0.5, 1.0))


# ---------------------------------------------------------------------------
# output checks


def check_march(traj, b_max_expected: float | None = None) -> list[str]:
    """Band, finiteness and max-on-trace of every step, read from the diagnostics."""
    cfg = traj.config
    problems = []
    if len(traj.diagnostics) != cfg.J + 1:
        problems.append(f"{len(traj.diagnostics)} diagnostics for J = {cfg.J}")
    if b_max_expected is not None and not (
            abs(traj.b_max - b_max_expected) <= 1e-12 * max(1.0, b_max_expected)):
        problems.append(f"b_max {traj.b_max!r} differs from the input's {b_max_expected!r}")
    hi = traj.b_max + BAND_TOL
    for diag in traj.diagnostics:
        if not (math.isfinite(diag.w_min) and math.isfinite(diag.w_max)):
            problems.append(f"step {diag.j}: non-finite values")
        elif diag.w_min < -BAND_TOL or diag.w_max > hi:
            problems.append(f"step {diag.j}: [{diag.w_min:.3e}, {diag.w_max:.3e}] "
                            f"outside the band [0, {traj.b_max:.6e}]")
        if diag.argmax[1] != 0:
            problems.append(f"step {diag.j}: argmax at k = {diag.argmax[1]}")
        if len(problems) > 5:
            break
    if not np.isfinite(traj.trace_history).all():
        problems.append("non-finite trace history")
    return problems


def check_reference(final_trace, ref) -> list[str]:
    ref = np.asarray(ref, dtype=float)
    got = np.asarray(final_trace, dtype=float)
    if got.shape != ref.shape:
        return [f"final trace shape {got.shape} != reference {ref.shape}"]
    err = float(np.abs(got - ref).max())
    if not err <= REFERENCE_ATOL:
        return [f"final trace differs from the reference by {err:.3e} > {REFERENCE_ATOL:g}"]
    return []


def load_reference(workload, wl) -> dict:
    """The stored default-seed outputs, made from inputs with the same digest."""
    with open(REFERENCE_PATH, "r", encoding="utf-8") as fh:
        ref = json.load(fh)[workload]
    if ref["inputs_digest"] != wl.digest:
        raise ValueError(f"{workload} default-seed inputs {wl.digest} differ from the "
                         f"reference's {ref['inputs_digest']}")
    return ref


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object, list], list[str]]     # (result, its Trajectories) -> problems


@dataclass
class Workload:
    name: str
    ops: list[Op]
    inputs: list[dict]                 # frozen scalar inputs, one entry per op or march
    digest: str = ""

    def finish_digest(self, blobs: list[bytes]) -> None:
        h = hashlib.sha256(json.dumps(self.inputs, sort_keys=True).encode())
        for blob in blobs:
            h.update(blob)
        self.digest = h.hexdigest()


def sweep_inputs(seed: int) -> list[dict]:
    """The acceptance-3 matrix; J of every march is frozen at its value for the
    acceptance-3 bumps, so every seed does the same number of steps.

    The default seed reproduces the acceptance-3 bumps.  Other seeds draw each
    amplitude from [1, a_cap], a_cap <= 2 being the largest amplitude that the
    frozen J keeps within CFL_SAFETY of the bound (with 1 % to spare).
    """
    mesh = SWEEP_MESH
    xs = trace_nodes(mesh["X"], mesh["I"])
    dx = 2.0 * mesh["X"] / mesh["I"]
    out = []
    for m in SWEEP_MS:
        for sigma in SWEEP_SIGMAS:
            for trial in range(SWEEP_TRIALS):
                acc_seed = trial + 10 * round(10 * sigma) + 1000 * int(m)
                amp, x0, hw = _draw_bump(np.random.default_rng(acc_seed), AMP_RANGE[1])
                b_acc = float((bump_samples(xs, amp, x0, hw)[1:-1] ** m).max())
                J = frozen_steps(mesh["T"], m, b_acc, sigma, dx)
                if seed != DEFAULT_SEED:
                    amp_cap = AMP_RANGE[1]
                    if m > 1.0:
                        ratio = 0.99 * CFL_SAFETY * dx ** sigma * J / (mesh["T"] * m * nu_sigma(sigma))
                        amp_cap = min(amp_cap, ratio ** (1.0 / (m * (m - 1.0))))
                    rng = np.random.default_rng([seed, int(m), round(10 * sigma), trial])
                    amp, x0, hw = _draw_bump(rng, amp_cap)
                samples = bump_samples(xs, amp, x0, hw)
                out.append({"m": m, "sigma": sigma, "trial": trial, "amp": amp, "x0": x0,
                            "half_width": hw, "J": J, "c": 2, "d": 1, **mesh,
                            "samples": samples,
                            "b_max": float((samples[1:-1] ** m).max())})
    return out


def build_sweep(seed: int, workdir: str, with_reference: bool = True) -> Workload:
    marches = sweep_inputs(seed)
    inputs = [{k: v for k, v in spec.items() if k != "samples"} for spec in marches]
    wl = Workload("sweep", [], inputs)
    wl.finish_digest([spec["samples"].tobytes() for spec in marches])
    ref = load_reference("sweep", wl) if with_reference and seed == DEFAULT_SEED else None
    for n, spec in enumerate(marches):
        cfg = core.SolverConfig(sigma=spec["sigma"], m=spec["m"], X=spec["X"], Y=spec["Y"],
                                T=spec["T"], I=spec["I"], K=spec["K"], J=spec["J"],
                                c=spec["c"], d=spec["d"])

        def check(traj, recorded, spec=spec, n=n):
            problems = check_march(traj, spec["b_max"])
            if len(recorded) != 1:
                problems.append(f"{len(recorded)} marches recorded for one sweep operation")
            if ref is not None:
                problems += check_reference(traj.final_trace, ref["final_traces"][n])
            return problems

        wl.ops.append(Op(label=f"m={spec['m']:g} sigma={spec['sigma']:g} trial={spec['trial']}",
                         run=lambda cfg=cfg, data=spec["samples"]: marcher.march(cfg, data),
                         check=check))
    return wl


def long_solve_inputs(seed: int) -> dict:
    """One seeded bump on the 257 x 129 mesh; J is frozen at the worst amplitude (2)."""
    mesh = LONG_MESH
    dx = 2.0 * mesh["X"] / mesh["I"]
    J = frozen_steps(mesh["T"], LONG_M, AMP_RANGE[1] ** LONG_M, LONG_SIGMA, dx)
    amp, x0, hw = _draw_bump(np.random.default_rng([seed, mesh["I"]]), AMP_RANGE[1])
    samples = bump_samples(trace_nodes(mesh["X"], mesh["I"]), amp, x0, hw)
    dt = mesh["T"] / J
    steps = [round(q * J / (LONG_SNAPSHOTS - 1)) for q in range(LONG_SNAPSHOTS)]
    return {"sigma": LONG_SIGMA, "m": LONG_M, "c": 2, "d": 1, "J": J, **mesh,
            "amp": amp, "x0": x0, "half_width": hw, "samples": samples,
            "b_max": float((samples[1:-1] ** LONG_M).max()),
            "snapshots": ",".join(repr(j * dt) for j in steps)}


def config_text(spec: dict) -> str:
    keys = ("sigma", "m", "X", "Y", "T", "I", "K", "J", "c", "d")
    lines = [f"{k} = {spec[k]!r}" for k in keys]
    lines.append("initial_data = inline:" + ",".join(repr(float(v)) for v in spec["samples"]))
    return "\n".join(lines) + "\n"


def _tail_lines(path: str, n: int) -> list[str]:
    with open(path, "rb") as fh:
        fh.seek(0, os.SEEK_END)
        size = fh.tell()
        fh.seek(max(0, size - 120 * (n + 1)))
        return fh.read().decode("utf-8").splitlines()[-n:]


def build_long_solve(seed: int, workdir: str, with_reference: bool = True) -> Workload:
    spec = long_solve_inputs(seed)
    text = config_text(spec)
    inputs = [{k: v for k, v in spec.items() if k != "samples"}]
    wl = Workload("long_solve", [], inputs)
    wl.finish_digest([spec["samples"].tobytes(), text.encode()])
    cfg_path = os.path.join(workdir, "long_solve.cfg")
    prefix = os.path.join(workdir, "long_solve")
    with open(cfg_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    argv = ["solve", "--config", cfg_path, "--out-prefix", prefix,
            "--snapshots", spec["snapshots"]]
    ref = load_reference("long_solve", wl) if with_reference and seed == DEFAULT_SEED else None
    trace_csv, snap_csv = f"{prefix}_trace.csv", f"{prefix}_snapshots.csv"

    def run():
        for path in (trace_csv, snap_csv):
            if os.path.exists(path):
                os.remove(path)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
        return rc, out.getvalue()

    def check(result, recorded):
        rc, stdout = result
        if rc != 0:
            return [f"solve exited with {rc}"]
        if len(recorded) != 1:
            return [f"{len(recorded)} marches recorded for one solve"]
        traj = recorded[0]
        problems = check_march(traj, spec["b_max"])
        if traj.config.J != spec["J"] or f"ran {spec['J']} steps" not in stdout:
            problems.append("solve did not run the configured steps")
        if len(traj.snapshots) != LONG_SNAPSHOTS:
            problems.append(f"{len(traj.snapshots)} snapshots, expected {LONG_SNAPSHOTS}")
        n_nodes = spec["I"] + 1
        rows = [line.split(",") for line in _tail_lines(trace_csv, n_nodes)]
        written = np.array([float(r[2]) for r in rows])
        if (len(rows) != n_nodes or float(rows[0][0]) != float(traj.times[-1])
                or not np.array_equal(written, traj.final_trace)):
            problems.append("the trace CSV's last time level differs from the final trace")
        last = _tail_lines(snap_csv, 1)[0].split(",")
        if float(last[0]) != traj.snapshots[-1][0]:
            problems.append("the snapshot CSV does not end at the last snapshot time")
        if ref is not None:
            problems += check_reference(traj.final_trace, ref["final_trace"])
        return problems

    wl.ops.append(Op("solve", run, check))
    return wl


# the studies of scripts/run_convergence_study.py (acceptance 7); (c, d) and p
# are the scheme tables' choices when this benchmark was written
CONVERGENCE_STUDIES = (
    {"sigma": 1.0, "m": 1.0, "mode": "optimal", "levels": 4, "c": 2, "d": None, "p": 1.0,
     "setup": {"X": 16.0, "Y": 16.0, "T": 0.5, "base_i": 16, "data": "gaussian",
               "cfl_safety": 0.25}},
    {"sigma": 0.5, "m": 2.0, "mode": "practical", "levels": 3, "c": 2, "d": 3, "p": 0.5,
     "setup": {"X": 2.0, "Y": 2.0, "T": 0.25, "base_i": 8, "data": "bump",
               "cfl_safety": 0.95}},
    {"sigma": 1.5, "m": 2.0, "mode": "practical", "levels": 3, "c": 3, "d": 4, "p": 1.5,
     "setup": {"X": 2.0, "Y": 2.0, "T": 0.25, "base_i": 8, "data": "bump",
               "cfl_safety": 0.95}},
)


def _data_fn(name):
    if name == "gaussian":
        return lambda xs: np.exp(-xs ** 2)
    return lambda xs: np.where(np.abs(xs) < 2.0, np.cos(np.pi * xs / 4.0) ** 2, 0.0)


def convergence_marches(study: dict) -> list[dict]:
    """Frozen (I, K, J, c, d) of every march of one study, levels then reference."""
    s = study["setup"]
    sizes = [s["base_i"] * 2 ** lev for lev in range(study["levels"])]
    if study["m"] != 1.0:
        sizes.append(s["base_i"] * 2 ** (study["levels"] + 1))
    out = []
    for I in sizes:
        dx = 2.0 * s["X"] / I
        xs = trace_nodes(s["X"], I)
        b_max = float((_data_fn(s["data"])(xs)[1:-1] ** study["m"]).max())
        bound = cfl_dt(study["m"], b_max, study["sigma"], dx)
        dt_target = s["cfl_safety"] * min(bound, bound * dx ** study["p"] / dx ** study["sigma"])
        J = max(1, math.ceil(s["T"] / dt_target - 1e-12))
        out.append({"I": I, "K": round(s["Y"] / dx), "J": J, "c": study["c"], "d": study["d"]})
    return out


def build_convergence(seed: int, workdir: str, with_reference: bool = True) -> Workload:
    ops, inputs = [], []
    for study in CONVERGENCE_STUDIES:
        s = study["setup"]
        setup = harness.StudySetup(X=s["X"], Y=s["Y"], T=s["T"], base_i=s["base_i"],
                                   data=core.initial_data_preset(s["data"]),
                                   cfl_safety=s["cfl_safety"])
        mode = harness.SchemeMode.parse(study["mode"])
        expected = convergence_marches(study)

        def run(study=study, mode=mode, setup=setup):
            return harness.run_convergence(study["sigma"], study["m"], mode,
                                           study["levels"], setup)

        def check(report, recorded, study=study, expected=expected):
            problems = []
            got = [{"I": t.config.I, "K": t.config.K, "J": t.config.J,
                    "c": t.config.c, "d": t.config.d} for t in recorded]
            if got != expected:
                problems.append(f"the study's marches moved: {got} != frozen {expected}")
            for traj in recorded:
                problems += check_march(traj)
            errs = [r.err_trace for r in report.rows]
            if not all(a > b for a, b in zip(errs, errs[1:])):
                problems.append(f"errors not strictly decreasing: {errs}")
            orders = [r.order for r in report.rows if r.order is not None]
            if study["m"] == 1.0:
                final = report.rows[-1].order
                if final is None or not abs(final - 1.0) <= 0.3:
                    problems.append(f"final order {final} outside 1 +- 0.3")
            elif not orders or not all(o > 0 for o in orders):
                problems.append(f"non-positive order in {orders}")
            return problems

        ops.append(Op(f"m={study['m']:g} sigma={study['sigma']:g} {study['mode']}", run, check))
        inputs.append(study | {"marches": expected})
    wl = Workload("convergence", ops, inputs)
    wl.finish_digest([])
    return wl


BUILDERS = {"sweep": build_sweep, "long_solve": build_long_solve,
            "convergence": build_convergence}
