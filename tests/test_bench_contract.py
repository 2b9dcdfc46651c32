"""The benchmark's traced layers are program functions, and a march runs through them.

perfbench/tracing.py wraps each (module, attribute) of `program_targets()`;
a function removed or renamed in the program would break `--trace 1` runs,
so every target must stay a callable attribute of its fracpme module.  A march
that bypassed `marcher.step`, `marcher.boundary_update`, `extension_op.solve_interior`
or `extension_op.full_grid_values` would leave their layers at 0 (and, for the
step, perfbench's per-step calibration clock still).
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from fracpme import marcher
from fracpme.core import SolverConfig, initial_data_preset

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_benchmark_traced_layers_are_callable_program_attributes():
    targets = load_tracing().program_targets()
    assert targets
    for module, attr, name, _hook in targets:
        assert module.__name__.startswith("fracpme.") and sys.modules[module.__name__] is module
        assert callable(getattr(module, attr, None)), name


def test_a_march_runs_through_the_traced_step_and_solve():
    # J steps, each one step, one trace update and one solve, after step 0's solve; every
    # step's argmax from discrete_max_location, and every captured step's snapshot from
    # full_grid_values
    tracing = load_tracing()
    tracer = tracing.Tracer(tracing.program_targets(), paused=lambda: 0.0)
    J = 5
    cfg = SolverConfig(sigma=0.5, m=2.0, X=2.0, Y=2.0, T=0.05, I=16, K=8, J=J)
    capture = (0.0, 0.02, cfg.T)
    tracer.install(0)
    try:
        traj = marcher.march(cfg, initial_data_preset("gaussian"), capture=capture)
    finally:
        tracer.uninstall()
    assert len(traj.diagnostics) == J + 1 and np.isfinite(traj.final_trace).all()
    assert len(traj.snapshots) == len(capture)
    calls = {name: row["calls"] for name, row in tracer.layer_table(0).items()}
    assert calls["marcher.march"] == 1
    assert calls["marcher.step"] == calls["marcher.boundary_update"] == J
    assert calls["extension_op.solve_interior"] == calls["extension_op.discrete_max_location"] == J + 1
    assert calls["extension_op.full_grid_values"] == len(capture)
