"""Smoke tests: the scripts run the way README.md runs them, from the repo root
with the package on PYTHONPATH."""

import ast
import json
import math
import subprocess
import sys
from pathlib import Path

from fracpme import extension_op
from fracpme.core import stencil_families, stencil_reach

ROOT = Path(__file__).resolve().parents[1]


def run_script(env, name, *args):
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
                          capture_output=True, text=True, timeout=300, env=env, cwd=ROOT)


def test_max_principle_sweep_script(child_env):
    proc = run_script(child_env, "run_max_principle_sweep.py")
    assert proc.returncode == 0, proc.stderr
    assert "maximum principle and max-on-trace verified over the full sweep" in proc.stdout


def test_convergence_study_script(child_env, tmp_path):
    proc = run_script(child_env, "run_convergence_study.py", tmp_path)
    assert proc.returncode == 0, proc.stderr
    tags = ("linear_sigma1_optimal", "m2_sigma0p5_practical", "m2_sigma1p5_practical")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"{tag}.{ext}" for tag in tags for ext in ("csv", "svg"))


def test_bench_ladder_halves_list_every_module_once():
    # machine_facts counts a stale name as 0 lines, which the sum check below cannot see
    tree = ast.parse((ROOT / "scripts" / "bench_ladder.py").read_text())
    halves = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and getattr(node.targets[0], "id", None) == "HALVES")
    listed = [name for modules in halves.values() for name in modules]
    assert sorted(listed) == sorted(p.stem for p in (ROOT / "src" / "fracpme").glob("*.py"))


def test_bench_ladder_script(child_env, tmp_path):
    proc = run_script(child_env, "bench_ladder.py", "smoke", tmp_path, 2)
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    assert (report["tag"], report["passes"], report["solve_calls"], report["march_steps"]) == (
        "smoke", 5, 50, 50)
    assert {"nproc", "cpu", "python", "numpy", "scipy", "git", "src_sha256",
            "OPENBLAS_NUM_THREADS", "src_lines"} <= set(report["machine"])
    assert report["machine"]["src_lines"] == sum(
        p.read_bytes().count(b"\n") for p in (ROOT / "src" / "fracpme").glob("*.py"))
    assert report["machine"]["scheme_lines"] + report["machine"]["oracle_lines"] == (
        report["machine"]["src_lines"])
    assert [(r["I"], r["K"], r["c"], r["d"], r["sigma"]) for r in report["rungs"]] == [
        (64, 32, 2, 1, 0.5), (64, 32, 3, 4, 1.5), (128, 64, 2, 1, 0.5), (128, 64, 3, 4, 1.5)]
    figures = ("assemble_s", "assemble_peak_mib", "solve_ms_p50", "solve_ms_p99", "step_ms_p50",
               "march_ms", "csv_ms")
    for r in report["rungs"]:
        # each figure's median over the passes lies between its quartiles
        assert set(r) == {"I", "K", "c", "d", "sigma", "space_err", "time_err"} | {
            f"{f}{q}" for f in figures for q in ("", "_q1", "_q3")}
        # the mode-1 accuracy split is recorded once, finite and >= 0
        assert all(math.isfinite(r[f]) and r[f] >= 0.0 for f in ("space_err", "time_err"))
        assert all(r[f"{f}_q1"] <= r[f] <= r[f"{f}_q3"] for f in figures)
        assert 0.0 < r["assemble_s"] and 0.0 < r["solve_ms_p50"] <= r["solve_ms_p99"]
        assert 0.0 < r["step_ms_p50"] and 0.0 < r["csv_ms"]
        # half of a march's 50 timed step intervals last at least their p50
        assert 25 * r["step_ms_p50"] < r["march_ms"]
        # the traced peak of a build lies within the bound _build checks the budget against
        reach = stencil_reach(stencil_families(r["sigma"], r["c"], r["d"]))[0]
        bound = extension_op._build_bytes(r["I"], r["K"], r["c"], reach)
        assert 0.0 < r["assemble_peak_mib"] <= bound / 2**20


def test_output_digest_script(child_env):
    # a run of the script and a run of its main() print the same "<workload> <sha256>"
    # line.  Before main(), that child prints the step the digest hashes for each
    # snapshot, the index of its time in the march's times: of the 5 steps of
    # dt = 0.1, a capture at 0.26 and 0.1 keeps steps 1 and 3
    proc = run_script(child_env, "output_digest.py", "convergence")
    assert proc.returncode == 0, proc.stderr
    code = ("import sys, output_digest; from fracpme import core, marcher\n"
            "cfg = core.SolverConfig(sigma=0.5, m=2.0, X=2.0, Y=1.0, T=0.5, I=8, K=2, J=5)\n"
            "traj = marcher.march(cfg, core.initial_data_preset('gaussian'), capture=(0.26, 0.1))\n"
            "print([(bool(t == traj.times[j]), j) for t, _ in traj.snapshots\n"
            "       for j in [output_digest.snapshot_step(traj, t)]])\n"
            "sys.exit(output_digest.main(['convergence']))")
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           timeout=300, env=child_env, cwd=ROOT / "scripts")
    assert child.returncode == 0, child.stderr
    steps, line = child.stdout.splitlines()
    assert steps == "[(True, 1), (True, 3)]"
    name, digest = proc.stdout.split()
    assert name == "convergence" and len(digest) == 64 and line + "\n" == proc.stdout
    assert run_script(child_env, "output_digest.py", "no_such_workload").returncode == 2
