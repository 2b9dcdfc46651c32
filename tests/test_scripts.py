"""Smoke tests: the scripts run the way README.md runs them, from the repo root
with the package on PYTHONPATH."""

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
    # two runs of one workload print the same "<workload> <sha256>" line
    lines = []
    for _ in range(2):
        proc = run_script(child_env, "output_digest.py", "convergence")
        assert proc.returncode == 0, proc.stderr
        lines.append(proc.stdout)
    name, digest = lines[0].split()
    assert name == "convergence" and len(digest) == 64 and lines[1] == lines[0]
    assert run_script(child_env, "output_digest.py", "no_such_workload").returncode == 2
