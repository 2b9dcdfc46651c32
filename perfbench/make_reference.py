#!/usr/bin/env python3
"""Write reference.json: the default-seed final traces of sweep and long_solve.

The benchmark compares later runs of the default seed against these traces.
Regenerate only when the workloads' inputs change on purpose, never to make a
failing comparison pass.

Usage (from the repository root): python3 perfbench/make_reference.py
"""

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402
from fracpme import core, marcher  # noqa: E402


def main() -> int:
    seed = workloads.DEFAULT_SEED
    with tempfile.TemporaryDirectory(dir=HERE) as workdir:
        sweep = workloads.build_sweep(seed, workdir, with_reference=False)
        long_solve = workloads.build_long_solve(seed, workdir, with_reference=False)
        traces = [op.run().final_trace.tolist() for op in sweep.ops]
    # the long solve's own path: its config text, parsed as the solve command does
    cfg, data = core.parse_config_text(
        workloads.config_text(workloads.long_solve_inputs(seed)))
    final = marcher.march(cfg, data).final_trace.tolist()
    ref = {"sweep": {"inputs_digest": sweep.digest, "final_traces": traces},
           "long_solve": {"inputs_digest": long_solve.digest, "final_trace": final}}
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(ref, fh)
        fh.write("\n")
    print(f"wrote {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
