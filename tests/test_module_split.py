"""The scheme and its certifying oracles share no code.

The scheme is `extension_op` and `marcher`; the independent references are
`oracles` and `sigma_deriv`.  Each side may import `core` and `errors`, never
a module of the other side, or a fault in shared code could pass the checks
that compare the two.
"""

import ast
from pathlib import Path

import pytest

import fracpme

SCHEME = {"extension_op", "marcher"}
ORACLES = {"oracles", "sigma_deriv"}


def _package_imports(name):
    # the fracpme modules a source file imports, relatively or by absolute name
    tree = ast.parse((Path(fracpme.__file__).parent / f"{name}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0 and parts[0] != "fracpme":
                continue
            parts = parts[1:] if node.level == 0 else parts
            if parts and parts[0]:
                found.add(parts[0])
            else:
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("fracpme."))
    return found


@pytest.mark.parametrize("name,forbidden", [(m, ORACLES) for m in sorted(SCHEME)]
                         + [(m, SCHEME) for m in sorted(ORACLES)])
def test_scheme_and_oracles_import_nothing_of_each_other(name, forbidden):
    assert not _package_imports(name) & forbidden


def test_import_scan_sees_the_package_imports():
    # the scan itself must find what each module does import
    assert _package_imports("marcher") >= {"core", "extension_op", "errors"}
    assert _package_imports("harness") >= SCHEME | ORACLES
