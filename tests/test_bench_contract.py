"""The benchmark's traced layers are program functions.

perfbench/tracing.py wraps each (module, attribute) of `program_targets()`;
a function removed or renamed in the program would break `--trace 1` runs,
so every target must stay a callable attribute of its fracpme module.
"""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_benchmark_traced_layers_are_callable_program_attributes():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = tracing.program_targets()
    assert targets
    for module, attr, name, _hook in targets:
        assert module.__name__.startswith("fracpme.") and sys.modules[module.__name__] is module
        assert callable(getattr(module, attr, None)), name
