"""Command-line front end.

Exit codes: 0 success, 1 check/solver failure, 2 rejected input: a bad
invocation (argparse), a config or option the program refuses, or a CFL
violation.  Any other exception is an internal fault and propagates.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import core, extension_op, harness, marcher
from .errors import (CflViolationError, ConfigError, MaxPrincipleError,
                     NegativeBracketError, QuadratureError, SolverError,
                     UnsupportedStencilError)

# CflViolationError counts as configuration: the fix is a larger J
_CONFIG_ERRORS = (ConfigError, CflViolationError, UnsupportedStencilError)
_RUN_ERRORS = (MaxPrincipleError, NegativeBracketError, QuadratureError, SolverError)


def _cmd_sigma_table(args) -> int:
    result = harness.run_sigma_table(args.sigmas, args.ys)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(result.csv)
    else:
        sys.stdout.write(result.csv)
    if not result.ok:
        print("expected-value mismatches:", file=sys.stderr)
        for mm in result.mismatches:
            print(f"  sigma={mm.sigma:g} y={mm.y:g} {mm.column}: computed "
                  f"{mm.computed:.6f}, expected {mm.expected:.6f}", file=sys.stderr)
        return 1
    return 0


def _cmd_solve(args) -> int:
    config, data = core.load_config(args.config)
    capture = None
    if args.snapshots:
        try:
            capture = [float(tok) for tok in args.snapshots.split(",") if tok.strip()]
        except ValueError:
            raise ConfigError(f"--snapshots takes comma-separated times, "
                              f"got {args.snapshots!r}") from None
    if args.dump_matrix:
        op = extension_op.assemble(config.grid(), config.sigma, config.c, config.d)
        extension_op.dump_matrix(op, args.dump_matrix)
    traj = marcher.march(config, data, capture=capture)
    prefix = args.out_prefix
    marcher.write_trace_csv(traj, f"{prefix}_trace.csv")
    if traj.snapshots:
        marcher.write_snapshot_csv(traj, f"{prefix}_snapshots.csv")
    final = traj.final_trace
    print(f"ran {config.J} steps to T = {config.T:g} on a "
          f"{config.I + 1} x {config.K + 1} mesh (dx = {config.dx:g}, dt = {config.dt:g})")
    print(f"b_max = {traj.b_max:.6g}, CFL ratio used = {traj.cfl_ratio:.4f}")
    print(f"final trace: max = {final.max():.6g} at x = "
          f"{config.grid().xs[int(np.argmax(final))]:g}")
    print(f"wrote {prefix}_trace.csv" + (f" and {prefix}_snapshots.csv" if traj.snapshots else ""))
    return 0


def _cmd_convergence(args) -> int:
    mode = harness.SchemeMode.parse(args.mode)
    data = core.parse_initial_data(args.data)
    setup = harness.StudySetup(X=args.x, Y=args.y, T=args.t, base_i=args.base_i,
                               data=data, cfl_safety=args.cfl_safety)
    report = harness.run_convergence(args.sigma, args.m, mode, args.levels, setup)
    csv = report.to_csv()
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(csv)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(csv)
    if args.plot:
        harness.write_loglog_svg(report, args.plot)
        print(f"wrote {args.plot}")
    final_order = report.rows[-1].order
    if report.degenerate:
        print("degenerate study: all errors zero")
    elif final_order is not None:
        print(f"final order estimate {final_order:.4f} (target {report.target:g}, "
              f"reference {report.reference})")
    return 0


def _cmd_validate(_args) -> int:
    result = harness.run_validate()
    print(result.summary())
    return 0 if result.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracpme",
        description="Finite-difference solver and convergence harness for the "
                    "fractional porous medium equation via the extension problem.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sigma-table", help="reproduce the two-point quotient error table")
    p.add_argument("--sigmas", type=float, nargs="+", default=None)
    p.add_argument("--ys", type=float, nargs="+", default=None)
    p.add_argument("--out", default=None, help="CSV path (stdout if omitted)")
    p.set_defaults(fn=_cmd_sigma_table)

    p = sub.add_parser("solve", help="march a configured run and write CSVs")
    p.add_argument("--config", required=True, help="flat key = value config file")
    p.add_argument("--snapshots", default=None,
                   help="comma-separated times for full-field snapshots")
    p.add_argument("--out-prefix", default="run")
    p.add_argument("--dump-matrix", default=None,
                   help="write the assembled operator as 'row col value' triplets")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("convergence", help="mesh-refinement order study")
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--m", type=float, required=True)
    p.add_argument("--mode", required=True,
                   help="practical | optimal | minimal:DELTA")
    p.add_argument("--levels", type=int, default=4)
    p.add_argument("--base-i", type=int, default=16, dest="base_i")
    p.add_argument("--x", type=float, default=16.0)
    p.add_argument("--y", type=float, default=16.0)
    p.add_argument("--t", type=float, default=0.5)
    p.add_argument("--data", default="gaussian")
    p.add_argument("--cfl-safety", type=float, default=0.95, dest="cfl_safety")
    p.add_argument("--out", default=None, help="CSV path (stdout if omitted)")
    p.add_argument("--plot", default=None, help="write a log-log SVG to this path")
    p.set_defaults(fn=_cmd_convergence)

    p = sub.add_parser("validate", help="run the oracle-consistency suite")
    p.set_defaults(fn=_cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _RUN_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except _CONFIG_ERRORS as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
