"""Command-line interface: subcommands, exit codes, file outputs.

Exit-code contract: 0 success, 1 check/solver failure, 2 rejected input
(including argparse rejections and CFL violations, whose fix is a config change);
an internal fault propagates instead of being reported as a configuration error.
"""

import subprocess
import sys

import pytest

import fracpme.core as core
import fracpme.extension_op as extension_op
import fracpme.harness as harness
import fracpme.marcher as marcher
from fracpme.cli import main
from fracpme.errors import NegativeBracketError, SolverError


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


def write_mesh_config(tmp_path, name, X, Y, I, K, J=4):
    """GOOD_CONFIG on another mesh."""
    text = (GOOD_CONFIG.replace("X = 2.0", f"X = {X!r}").replace("Y = 1.0", f"Y = {Y!r}")
            .replace("I = 8", f"I = {I}").replace("K = 2", f"K = {K}")
            .replace("J = 4", f"J = {J}"))
    return write_config(tmp_path, text, name=f"{name}.cfg")


def count_builds(monkeypatch):
    """Empty the operator cache and record each extension_op._build from here on."""
    calls, real = [], extension_op._build
    monkeypatch.setattr(extension_op, "_cache", type(extension_op._cache)())
    monkeypatch.setattr(extension_op, "_build", lambda *key: calls.append(key) or real(*key))
    return calls


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


def test_solve_assembles_the_operator_once(tmp_path, monkeypatch):
    # --dump-matrix writes the operator that march stepped with, from the cache
    builds = count_builds(monkeypatch)
    cfg, dump = write_config(tmp_path), tmp_path / "op.txt"
    assert main(["solve", "--config", cfg, "--out-prefix", str(tmp_path / "out"),
                 "--dump-matrix", str(dump)]) == 0
    config, _ = core.load_config(cfg)
    assert builds == [(config.I, config.K, config.sigma, config.c, config.d)]
    extension_op._cache.clear()
    ref = tmp_path / "ref.txt"
    extension_op.dump_matrix(
        extension_op.assemble(config.grid(), config.sigma, config.c, config.d), ref)
    assert dump.read_bytes() == ref.read_bytes()


def test_refused_solve_writes_no_file(tmp_path, monkeypatch, capsys):
    # a CFL-refused run exits 2, builds no operator and leaves only its config:
    # the operator dump, like the CSVs, is written after the march
    builds = count_builds(monkeypatch)
    cfg = write_config(tmp_path, GOOD_CONFIG.replace("T = 0.1", "T = 5.0"))
    assert main(["solve", "--config", cfg, "--out-prefix", str(tmp_path / "out"),
                 "--snapshots", "0.0", "--dump-matrix", str(tmp_path / "op.txt")]) == 2
    assert "increase J to at least" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]
    assert builds == []


@pytest.mark.parametrize("t", ["-0.01", "0.112"])
def test_snapshot_time_outside_0_T_exits_2_though_its_nearest_step_is_in_range(
        tmp_path, monkeypatch, capsys, t):
    # T = 0.1, dt = 0.025: -0.01 rounds to step 0 and 0.112 to step 4, yet both lie outside [0, T]
    builds = count_builds(monkeypatch)
    cfg = write_config(tmp_path)
    assert main(["solve", "--config", cfg, "--out-prefix", str(tmp_path / "out"),
                 f"--snapshots={t}"]) == 2
    assert f"snapshot time {float(t)} outside [0, T]" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]
    assert builds == []


def test_snapshot_time_whose_step_overflows_exits_2(tmp_path, monkeypatch, capsys):
    # 1e300 / dt = 1e300 / 1e-300 overflows; it is refused like any time past T
    builds = count_builds(monkeypatch)
    text = (GOOD_CONFIG.replace("T = 0.1", "T = 1e-300").replace("J = 4", "J = 1")
            .replace("bump", "zero"))
    cfg = write_config(tmp_path, text)
    assert main(["solve", "--config", cfg, "--out-prefix", str(tmp_path / "out"),
                 "--snapshots", "1e300", "--dump-matrix", str(tmp_path / "op.txt")]) == 2
    assert "snapshot time 1e+300 outside [0, T]" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]
    assert builds == []


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
    ["convergence", "--sigma", "1.0", "--m", "1.0", "--mode", "practical", "--base-i", "0"],
    ["convergence", "--sigma", "1.0", "--m", "1.0", "--mode", "practical", "--cfl-safety", "0"],
    ["convergence", "--sigma", "1.0", "--m", "1.0", "--mode", "practical", "--x", "0"],
    ["solve", "--config", "{missing}"],
    ["solve", "--config", "{directory}"],
    ["solve", "--config", "{binary}"],
    ["sigma-table", "--ys", "0.5", "1e-9"],
    ["solve", "--config", "{T_nan}"],
    ["solve", "--config", "{T_inf}"],
    ["solve", "--config", "{m_nan}"],
    ["solve", "--config", "{m_inf}"],
    ["solve", "--config", "{cfg}", "--snapshots", "nan"],
    ["solve", "--config", "{cfg}", "--snapshots", "inf"],
    ["convergence", "--sigma", "1.0", "--m", "1.0", "--mode", "practical", "--t", "nan"],
    ["convergence", "--sigma", "1.0", "--m", "1.0", "--mode", "practical", "--t", "inf"],
    ["convergence", "--sigma", "1.0", "--m", "nan", "--mode", "practical"],
    ["convergence", "--sigma", "1.0", "--m", "inf", "--mode", "practical"],
    ["sigma-table", "--ys", "inf", "0.5"],
    ["sigma-table", "--ys", "0.5", "nan"],
    ["sigma-table", "--ys", "100", "50"],
    ["solve", "--config", "{huge}"],
    ["convergence", "--sigma", "0.5", "--m", "2", "--mode", "practical", "--levels", "2",
     "--data", "constant:1e160"],
    ["solve", "--config", "{huge_J}"],
    ["convergence", "--sigma", "0.5", "--m", "2", "--mode", "practical", "--levels", "2",
     "--data", "constant:1e100"],
    ["solve", "--config", "{J_unallocatable}"],
    ["solve", "--config", "{mesh_unallocatable}"],
    ["solve", "--config", "{mesh_overflow}"],
    ["solve", "--config", "{mesh_underflow}"],
    ["solve", "--config", "{mesh_too_big}"],
    ["solve", "--config", "{mesh_not_square}"],
    ["sigma-table", "--sigmas", "1.0", "--out", "{nodir}/t.csv"],
    ["solve", "--config", "{cfg}", "--out-prefix", "{nodir}/run"],
    ["convergence", "--sigma", "1.0", "--m", "1.0", "--mode", "practical", "--levels", "2",
     "--plot", "{nodir}/study.svg"],
    ["solve", "--config", "{dt_underflow}", "--snapshots", "0.0"],
    ["convergence", "--sigma", "1.5", "--m", "2", "--mode", "practical", "--levels", "2",
     "--base-i", "16", "--x", "1e-150", "--y", "1e-150", "--data", "bump"],
    ["convergence", "--sigma", "0.3", "--m", "2", "--mode", "optimal", "--levels", "2",
     "--base-i", "16", "--x", "1e-200", "--y", "1e-200", "--data", "bump"],
    ["convergence", "--sigma", "0.5", "--m", "10", "--mode", "optimal", "--levels", "2",
     "--base-i", "16", "--x", "1e-25", "--y", "1e-25", "--data", "constant:1e30"],
    ["convergence", "--sigma", "1.0", "--m", "2", "--mode", "practical", "--levels", "2",
     "--base-i", "16", "--x", "1e-300", "--y", "1e10", "--data", "bump"],
    ["convergence", "--sigma", "1.0", "--m", "2", "--mode", "practical", "--levels", "2",
     "--base-i", "16", "--x", "5e-324", "--y", "1e-20", "--data", "bump"],
], ids=["sigma", "ys-increasing", "ys-single", "snapshot-after-T",
        "snapshot-not-a-number", "negative-inline-data", "convergence-sigma",
        "convergence-m", "convergence-base-i", "convergence-cfl-safety", "convergence-x",
        "config-missing", "config-directory", "config-not-utf8", "ys-too-fine",
        "config-T-nan", "config-T-inf", "config-m-nan", "config-m-inf",
        "snapshot-nan", "snapshot-inf", "convergence-t-nan", "convergence-t-inf",
        "convergence-m-nan", "convergence-m-inf", "ys-inf", "ys-nan", "ys-overflow",
        "data-power-overflow", "convergence-data-power-overflow", "config-J-huge",
        "convergence-J-huge", "config-J-unallocatable", "config-mesh-unallocatable",
        "config-mesh-overflow", "config-mesh-underflow", "config-mesh-too-big",
        "config-mesh-not-square-unallocatable",
        "sigma-table-out-unwritable",
        "solve-out-prefix-unwritable", "convergence-plot-unwritable", "config-dt-underflow",
        "convergence-cfl-step-J-huge", "convergence-step-underflow", "convergence-step-subnormal",
        "convergence-K-overflow", "convergence-dx-underflow"])
def test_rejected_input_exits_2(tmp_path, capsys, argv):
    binary = tmp_path / "binary.cfg"
    binary.write_bytes(b"sigma = 0.5\n\xff\xfe\n")
    paths = {"cfg": write_config(tmp_path),
             "negative": write_config(
                 tmp_path, GOOD_CONFIG.replace("bump", "inline:0,1,1,1,-1,1,1,1,0"),
                 name="negative.cfg"),
             "huge": write_config(tmp_path, GOOD_CONFIG.replace("bump", "constant:1e160"),
                                  name="huge.cfg"),
             "huge_J": write_config(tmp_path, GOOD_CONFIG.replace("J = 4", f"J = {10**30}"),
                                    name="huge_J.cfg"),
             # T = 5e-324 is positive, but T / 2 rounds to 0
             "dt_underflow": write_config(tmp_path, GOOD_CONFIG.replace("T = 0.1", "T = 5e-324")
                                          .replace("J = 4", "J = 2"), name="dt_underflow.cfg"),
             # a 640 PiB trace history: numpy refuses it without touching memory
             "J_unallocatable": write_config(
                 tmp_path, GOOD_CONFIG.replace("J = 4", f"J = {10**16}"),
                 name="J_unallocatable.cfg"),
             # 256 TiB of x-coordinates, beyond the 128 TiB user address space
             "mesh_unallocatable": write_config(
                 tmp_path, GOOD_CONFIG.replace("I = 8", f"I = {2**45}")
                 .replace("K = 2", f"K = {2**43}"), name="mesh_unallocatable.cfg"),
             # 2X overflows; dx underflows to 0; numpy calls 2^60 coordinates too big;
             # dx = 2 dy, refused as not square before its coordinates are tried
             **{name: write_mesh_config(tmp_path, name, *mesh) for name, mesh in (
                 ("mesh_overflow", (1e308, 1e308, 4, 2)),
                 ("mesh_underflow", (5e-324, 5e-324, 4, 2)),
                 ("mesh_too_big", (1.0, 1.0, 2**60, 2**59)),
                 ("mesh_not_square", (2.0, 1.0, 2**45, 2**44)))},
             "nodir": str(tmp_path / "missing"),
             **{f"{key}_{val}": write_config(
                 tmp_path, GOOD_CONFIG.replace(line, f"{key} = {val}"), name=f"{key}_{val}.cfg")
                for key, line in (("T", "T = 0.1"), ("m", "m = 2.0")) for val in ("nan", "inf")},
             "missing": str(tmp_path / "absent.cfg"),
             "directory": str(tmp_path),
             "binary": str(binary)}
    assert main([tok.format(**paths) for tok in argv]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_mesh_whose_dx_power_underflows_exits_2(tmp_path, capsys):
    # dx = 1e-300 is a positive finite width, but dx^1.9 underflows to 0
    path = write_config(tmp_path, GOOD_CONFIG.replace("sigma = 0.5", "sigma = 1.9")
                        .replace("X = 2.0", "X = 4e-300").replace("Y = 1.0", "Y = 2e-300"),
                        name="dx_power.cfg")
    assert main(["solve", "--config", path]) == 2
    assert "dx^sigma = 1e-300^1.9" in capsys.readouterr().err


def test_unallocatable_mesh_that_is_not_square_is_refused_as_not_square(tmp_path, capsys):
    # dx = 2^-44 is twice dy = 2^-45: the squareness check must catch it, not the allocator
    assert main(["solve", "--config", write_mesh_config(
        tmp_path, "not_square", 2.0, 1.0, 2**45, 2**44)]) == 2
    assert "mesh must be square" in capsys.readouterr().err


def test_mesh_beyond_physical_memory_exits_2_before_its_x_block(tmp_path, monkeypatch, capsys):
    # on an 8 GiB machine: the dense x-block alone would be 8 GiB, and the
    # operator's bound is about 96 GiB.  J = 10 keeps dt within the CFL bound,
    # which is checked before the operator is assembled
    def never(*_args):
        raise AssertionError("x-mode setup started")

    monkeypatch.setattr(extension_op, "_physical_memory", lambda: 2**33)
    monkeypatch.setattr(extension_op, "_x_modes", never)
    assert main(["solve", "--config", write_mesh_config(
        tmp_path, "over_memory", 8.0, 8.0, 32768, 16384, J=10)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "I=32768, K=16384" in err
    assert "bytes of physical memory" in err


def test_snapshots_over_the_memory_budget_exit_2_and_write_no_file(tmp_path, monkeypatch,
                                                                    capsys):
    # 201 snapshots of a 65 x 17 mesh hold 1.8 MB; the faked 1.5 MB budget takes
    # the history and its times (0.1 MB), not them
    builds = count_builds(monkeypatch)
    monkeypatch.setattr(extension_op, "_physical_memory", lambda: 1_500_000)
    cfg = write_mesh_config(tmp_path, "run", 2.0, 1.0, 64, 16, J=200)
    times = ",".join(str(0.1 * j / 200) for j in range(201))
    assert main(["solve", "--config", cfg, "--out-prefix", str(tmp_path / "out"),
                 "--snapshots", times, "--dump-matrix", str(tmp_path / "op.txt")]) == 2
    err = capsys.readouterr().err
    assert "configuration error: J = 200 too large at I = 64, K = 16" in err
    assert "201 (K+1) x (I+1) snapshots need" in err and "bytes of physical memory" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]
    assert builds == []


def test_operator_and_node_arrays_over_the_memory_budget_exit_2_before_the_first_step(
        tmp_path, monkeypatch, capsys):
    # 20001 steps at I = 8 need 8.0 MB for the history and records; a budget of that
    # need passes the check before the build, not the one after it, which adds the
    # operator and the working arrays of a solve (extension_op._solve_bytes)
    def never(*_args):
        raise AssertionError("a step was solved")

    cfg = write_mesh_config(tmp_path, "run", 2.0, 1.0, 8, 2, J=20000)
    config, _ = core.load_config(cfg)
    J, I, K = config.J, config.I, config.K
    need = (J + 1) * (8 * (I + 2) + marcher._RECORD_BYTES)
    key = (I, K, config.sigma, config.c, config.d)
    op = extension_op._build(*key)
    kept = need + op.nbytes + extension_op._solve_bytes(op)
    builds = count_builds(monkeypatch)
    monkeypatch.setattr(extension_op, "_physical_memory", lambda: need)
    monkeypatch.setattr(extension_op, "_solve", never)
    assert main(["solve", "--config", cfg, "--out-prefix", str(tmp_path / "out"),
                 "--dump-matrix", str(tmp_path / "op.txt")]) == 2
    err = capsys.readouterr().err
    assert (f"with the operator and a solve's arrays, need {kept} bytes, more than the "
            f"{need} bytes of physical memory") in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]
    assert builds == [key]


@pytest.mark.parametrize("module,name,error", [
    (extension_op, "_solve", SolverError("solve residual 1e-3 exceeds 1e-10 * ||rhs||_inf")),
    (marcher, "_bracket_update", NegativeBracketError("pressure bracket reached -1e-3", step=2)),
], ids=["solver", "negative-bracket"])
def test_run_that_fails_mid_march_exits_1_and_writes_no_file(tmp_path, monkeypatch, capsys,
                                                            module, name, error):
    # the third call fails: step 2's solve, or step 3's trace update
    calls, real = [], getattr(module, name)

    def fail_third(*args):
        calls.append(name)
        if len(calls) == 3:
            raise error
        return real(*args)

    monkeypatch.setattr(module, name, fail_third)
    assert main(["solve", "--config", write_config(tmp_path), "--out-prefix",
                 str(tmp_path / "out"), "--snapshots", "0.0",
                 "--dump-matrix", str(tmp_path / "op.txt")]) == 1
    assert capsys.readouterr().err == f"error: {error}\n"
    assert len(calls) == 3
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


@pytest.mark.parametrize("extra,message", [
    ("c = 3\nd = 1\n", "(c, d) = (3, 1) not in the supported set"),
    ("c = 4\nd = 4\n", "mesh too small for (c=4, d=4): need I >= 5 and K >= 5, got I=8, K=2"),
    ("d = none\n", "d may be omitted only at sigma = 1"),
])
def test_unsupported_stencil_exits_2_when_the_config_is_read(tmp_path, monkeypatch, capsys,
                                                            extra, message):
    def never(*_args, **_kwargs):
        raise AssertionError("the operator was assembled")

    monkeypatch.setattr(extension_op, "assemble", never)
    prefix = tmp_path / "out"
    assert main(["solve", "--config", write_config(tmp_path, GOOD_CONFIG + extra),
                 "--out-prefix", str(prefix), "--dump-matrix", str(tmp_path / "A.txt")]) == 2
    assert f"configuration error: {message}" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


def test_convergence_refuses_a_minimal_mode_pair_it_cannot_assemble(capsys):
    # minimal mode picks (c, d) = (1, 1) below sigma = 1/2; no first study config takes it
    assert main(["convergence", "--sigma", "0.3", "--m", "2.0", "--mode", "minimal:0.2",
                 "--levels", "2"]) == 2
    assert "(c, d) = (1, 1) not in the supported set" in capsys.readouterr().err


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


def test_cli_import_leaves_quadrature_unloaded(child_env):
    # the oracles run on their own Gauss-Kronrod engine, so neither importing the
    # CLI nor calling each of the three oracle integrals loads scipy.integrate
    # (and the scipy.optimize it pulls in)
    code = ("import math, sys, fracpme.cli\n"
            "from fracpme import oracles, sigma_deriv\n"
            "oracles.frac_laplacian_pv(math.cos, 0.3, 0.5)\n"
            "oracles.fractional_heat_solution(oracles.gaussian_hat, [0.0, 1.0], 0.5, 1.0)\n"
            "sigma_deriv.poisson_extension(math.tanh, 0.2, 0.5, 1.0)\n"
            "print('scipy.integrate' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=120, env=child_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_console_script_smoke(child_env):
    proc = subprocess.run([sys.executable, "-m", "fracpme.cli",
                           "sigma-table", "--sigmas", "0.5", "--ys", "0.5", "0.25"],
                          capture_output=True, text=True, timeout=120, env=child_env)
    assert proc.returncode == 0
    assert proc.stdout.startswith("sigma,y,E,alpha,sigma_e")
