"""Command-line interface: subcommands, exit codes, file outputs.

Exit-code contract: 0 success, 1 check/solver failure, 2 rejected input
(including argparse rejections and CFL violations, whose fix is a config change);
an internal fault propagates instead of being reported as a configuration error.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import fracpme
import fracpme.harness as harness
import fracpme.marcher as marcher
from fracpme.cli import main


GOOD_CONFIG = """\
# small complete run
sigma = 0.5
m = 2.0
X = 2.0
Y = 1.0
T = 0.1
I = 8
K = 2
J = 4
initial_data = bump
"""


def write_config(tmp_path, text=GOOD_CONFIG, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# argparse level


def test_no_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as ei:
        main([])
    assert ei.value.code == 2


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as ei:
        main(["frobnicate"])
    assert ei.value.code == 2


# ---------------------------------------------------------------------------
# sigma-table


def test_sigma_table_to_stdout(capsys):
    assert main(["sigma-table", "--sigmas", "1.0"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("sigma,y,E,alpha,sigma_e\n")
    assert "1.0000,0.0625,0.0626,1.0085,0.9915" in out


def test_sigma_table_to_file(tmp_path, capsys):
    out_path = tmp_path / "table.csv"
    assert main(["sigma-table", "--sigmas", "0.5", "--ys", "0.5", "0.25",
                 "--out", str(out_path)]) == 0
    assert capsys.readouterr().out == ""
    text = out_path.read_text()
    assert text.startswith("sigma,y,E,alpha,sigma_e\n")
    assert len(text.strip().split("\n")) == 3


def test_sigma_table_mismatch_exits_1(monkeypatch, capsys):
    bad = dict(harness.TABLE_EXPECTED[1.0])
    bad["E"] = (0.9, 0.2580, 0.1260, 0.0626)
    monkeypatch.setitem(harness.TABLE_EXPECTED, 1.0, bad)
    assert main(["sigma-table", "--sigmas", "1.0"]) == 1
    err = capsys.readouterr().err
    assert "mismatches" in err and "expected 0.900000" in err


# ---------------------------------------------------------------------------
# solve


def test_solve_writes_outputs(tmp_path, capsys):
    cfg = write_config(tmp_path)
    prefix = str(tmp_path / "out")
    code = main(["solve", "--config", cfg, "--out-prefix", prefix,
                 "--snapshots", "0.0,0.1",
                 "--dump-matrix", str(tmp_path / "op.txt")])
    assert code == 0
    trace = (tmp_path / "out_trace.csv").read_text()
    assert trace.startswith("t,x,u\n")
    snaps = (tmp_path / "out_snapshots.csv").read_text()
    assert snaps.startswith("t,x,y,w\n")
    matrix = (tmp_path / "op.txt").read_text().strip().split("\n")
    assert all(len(line.split()) == 3 for line in matrix[1:])
    out = capsys.readouterr().out
    assert "ran 4 steps" in out and "out_trace.csv" in out and "out_snapshots.csv" in out


def test_solve_without_snapshots_writes_trace_only(tmp_path, capsys):
    cfg = write_config(tmp_path)
    prefix = str(tmp_path / "bare")
    assert main(["solve", "--config", cfg, "--out-prefix", prefix]) == 0
    assert (tmp_path / "bare_trace.csv").exists()
    assert not (tmp_path / "bare_snapshots.csv").exists()
    assert "bare_snapshots.csv" not in capsys.readouterr().out


def test_solve_bad_config_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, GOOD_CONFIG + "turbo = 9\n", name="bad.cfg")
    assert main(["solve", "--config", cfg]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_solve_cfl_violation_exits_2(tmp_path, capsys):
    text = GOOD_CONFIG.replace("J = 4", "J = 1").replace("T = 0.1", "T = 2.0")
    cfg = write_config(tmp_path, text, name="coarse.cfg")
    assert main(["solve", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "increase J" in err


@pytest.mark.parametrize("argv", [
    ["sigma-table", "--sigmas", "2.5"],
    ["sigma-table", "--ys", "0.25", "0.5"],
    ["sigma-table", "--ys", "0.5"],
    ["solve", "--config", "{cfg}", "--snapshots", "5.0"],
    ["solve", "--config", "{cfg}", "--snapshots", "0.0,soon"],
    ["solve", "--config", "{negative}"],
    ["convergence", "--sigma", "0", "--m", "1.0", "--mode", "practical"],
    ["convergence", "--sigma", "1.0", "--m", "0.5", "--mode", "practical"],
], ids=["sigma", "ys-increasing", "ys-single", "snapshot-after-T",
        "snapshot-not-a-number", "negative-inline-data", "convergence-sigma",
        "convergence-m"])
def test_rejected_input_exits_2(tmp_path, capsys, argv):
    paths = {"cfg": write_config(tmp_path),
             "negative": write_config(
                 tmp_path, GOOD_CONFIG.replace("bump", "inline:0,1,1,1,-1,1,1,1,0"),
                 name="negative.cfg")}
    assert main([tok.format(**paths) for tok in argv]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_internal_value_error_is_not_a_configuration_error(tmp_path, monkeypatch, capsys):
    def broken_march(*_args, **_kwargs):
        raise ValueError("internal fault")

    monkeypatch.setattr(marcher, "march", broken_march)
    with pytest.raises(ValueError, match="internal fault"):
        main(["solve", "--config", write_config(tmp_path)])
    assert "configuration error" not in capsys.readouterr().err


# ---------------------------------------------------------------------------
# convergence


def test_convergence_run_with_outputs(tmp_path, capsys):
    out_path = tmp_path / "study.csv"
    svg_path = tmp_path / "study.svg"
    code = main(["convergence", "--sigma", "1.0", "--m", "1.0",
                 "--mode", "practical", "--levels", "2", "--base-i", "16",
                 "--out", str(out_path), "--plot", str(svg_path)])
    assert code == 0
    assert out_path.read_text().startswith("# sigma=1 m=1 mode=practical")
    assert svg_path.read_text().startswith("<svg ")
    out = capsys.readouterr().out
    assert "final order estimate" in out and "reference spectral" in out


def test_convergence_bad_mode_exits_2(capsys):
    assert main(["convergence", "--sigma", "1.0", "--m", "1.0",
                 "--mode", "warp"]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_convergence_wrong_data_for_spectral_reference_exits_2(capsys):
    assert main(["convergence", "--sigma", "1.0", "--m", "1.0",
                 "--mode", "practical", "--levels", "2", "--data", "bump",
                 "--x", "2", "--y", "2", "--t", "0.25", "--base-i", "8"]) == 2
    assert "gaussian" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# validate


def test_validate_passes(capsys):
    assert main(["validate"]) == 0
    out = capsys.readouterr().out
    assert "validation PASSED" in out
    assert out.count("PASS") >= 5


# ---------------------------------------------------------------------------
# installed entry point


def test_console_script_smoke():
    # the child imports the same fracpme as this process, installed or not
    src = str(Path(fracpme.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "fracpme.cli",
                           "sigma-table", "--sigmas", "0.5", "--ys", "0.5", "0.25"],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0
    assert proc.stdout.startswith("sigma,y,E,alpha,sigma_e")
