#!/usr/bin/env python3
"""Mesh-refinement convergence studies for the trace error at t = T.

Runs the flagship linear study (m = 1, sigma = 1, higher-accuracy stencils,
spectral whole-space reference) plus two nonlinear studies (m = 2 at
sigma = 0.5 and 1.5, fine-grid self-reference) and writes one CSV and one
log-log SVG per study into the output directory.

The linear study uses cfl_safety = 0.25 so the step-count ladder halves dt
cleanly level to level; with the bound nearly saturated the coarse levels sit
in a preasymptotic regime and the two-point fits wander.

Usage: PYTHONPATH=src python3 scripts/run_convergence_study.py [outdir]
"""

import pathlib
import sys

from fracpme.core import initial_data_preset
from fracpme.harness import (OPTIMAL, PRACTICAL, StudySetup, run_convergence,
                             write_loglog_svg)


def run_one(tag, sigma, m, mode, levels, setup, outdir):
    report = run_convergence(sigma, m, mode, levels, setup)
    csv_path = outdir / f"{tag}.csv"
    svg_path = outdir / f"{tag}.svg"
    csv_path.write_text(report.to_csv())
    write_loglog_svg(report, svg_path)
    last = report.rows[-1]
    print(f"{tag}: final err {last.err_trace:.3e}, order "
          f"{'-' if last.order is None else f'{last.order:.4f}'} "
          f"(target {report.target:g}); wrote {csv_path} and {svg_path}")
    return report


def main() -> int:
    outdir = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "results")
    outdir.mkdir(parents=True, exist_ok=True)

    run_one("linear_sigma1_optimal", 1.0, 1.0, OPTIMAL, 4,
            StudySetup(cfl_safety=0.25), outdir)

    nonlinear = StudySetup(X=2.0, Y=2.0, T=0.25, base_i=8,
                           data=initial_data_preset("bump"))
    for sigma in (0.5, 1.5):
        run_one(f"m2_sigma{sigma:g}_practical".replace(".", "p"),
                sigma, 2.0, PRACTICAL, 3, nonlinear, outdir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
