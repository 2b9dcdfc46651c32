"""The scheme and its certifying oracles share no code.

The scheme is `extension_op` and `marcher`; the independent references are
`oracles`.  Each side may import `core` and `errors`, never a module of the
other side, or a fault in shared code could pass the checks that compare the
two.  Nor does the package carry a sparse direct solver: every solve goes
through the x-modes of the operator's two 1-D factors.  And no module imports
scipy.integrate: the oracles run on their own adaptive Gauss-Kronrod engine,
so the tests' QUADPACK references stay independent.  Every name a module
exports in __all__ resolves to one of its attributes, and no module imports
or reaches a private name of another.
"""

import ast
import importlib
from pathlib import Path

import pytest

import fracpme

SCHEME = {"extension_op", "marcher"}
ORACLES = {"oracles"}
MODULES = {p.stem for p in Path(fracpme.__file__).parent.glob("*.py")} - {"__init__"}


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


def _module_uses(source, module):
    # every import of the dotted module, or of a name from it, and every
    # attribute path through it (sparse.linalg after `from scipy import sparse`)
    def inside(name):
        return name == module or name.startswith(module + ".")

    tail = ".".join(module.split(".")[-2:])       # sparse.linalg, scipy.integrate
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if inside(a.name)]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found += [f"{node.module}.{a.name}" for a in node.names
                      if inside(f"{node.module}.{a.name}")]
        elif isinstance(node, ast.Attribute) and node.attr == module.rsplit(".", 1)[1]:
            path = ast.unparse(node)
            if path == tail or path.endswith("." + tail):
                found.append(path)
    return found


@pytest.mark.parametrize("source,hit", [
    ("import scipy.sparse.linalg", True), ("import scipy.sparse.linalg as spla", True),
    ("from scipy.sparse.linalg import splu", True), ("from scipy.sparse import linalg", True),
    ("from scipy.sparse import linalg as spla", True),
    ("from scipy import sparse\nsparse.linalg.splu", True),
    ("import scipy\nscipy.sparse.linalg.onenormest", True),
    ("from scipy import linalg, sparse\nlinalg.eig(sparse.eye(2).toarray())", False),
    ("from scipy.sparse import linalg_helpers", False)])
def test_sparse_linalg_scan_sees_every_form(source, hit):
    assert bool(_module_uses(source, "scipy.sparse.linalg")) == hit


@pytest.mark.parametrize("path", sorted(Path(fracpme.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_package_uses_no_sparse_direct_solver(path):
    assert _module_uses(path.read_text(), "scipy.sparse.linalg") == []


@pytest.mark.parametrize("source,hit", [
    ("import scipy.integrate", True), ("import scipy.integrate as si", True),
    ("from scipy.integrate import quad", True), ("from scipy import integrate", True),
    ("from scipy import integrate as quadpack", True),
    ("import scipy\nscipy.integrate.quad(abs, 0, 1)", True),
    ("from scipy import special\nspecial.gamma(0.5)", False),
    ("from scipy import integrate_helpers", False)])
def test_integrate_scan_sees_every_form(source, hit):
    assert bool(_module_uses(source, "scipy.integrate")) == hit


@pytest.mark.parametrize("path", sorted(Path(fracpme.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_package_imports_no_quadpack(path):
    assert _module_uses(path.read_text(), "scipy.integrate") == []


@pytest.mark.parametrize("path", sorted(Path(fracpme.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_export_resolves(path):
    # a name left in __all__ after its definition is gone is a stale export
    module = importlib.import_module("fracpme" if path.stem == "__init__" else f"fracpme.{path.stem}")
    assert [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)] == []


def _private_imports(source):
    # underscore names taken from a package module by `from .x import _y` or `from fracpme...`
    return [f"{node.module or '.'}:{alias.name}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom)
            and (node.level > 0 or (node.module or "").split(".")[0] == "fracpme")
            for alias in node.names if alias.name.startswith("_")]


@pytest.mark.parametrize("source,hit", [
    ("from .oracles import _gauss_kronrod", True), ("from . import _private", True),
    ("from .core import Grid, _check as check", True), ("from fracpme.core import _x", True),
    ("from .core import check_sigma", False), ("from __future__ import annotations", False),
    ("from numpy import _globals", False)])
def test_private_import_scan_sees_every_form(source, hit):
    assert bool(_private_imports(source)) == hit


@pytest.mark.parametrize("path", sorted(Path(fracpme.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_imports_a_private_name(path):
    # a helper two modules share is public in the module that defines it
    assert _private_imports(path.read_text()) == []


def _private_reaches(source):
    # underscore attributes read through a package module's name: core._x, fracpme.core._x
    return [ast.unparse(node) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr.startswith("_")
            and ast.unparse(node.value).split(".")[-1] in MODULES]


@pytest.mark.parametrize("source,hit", [
    ("core._dx_power(1.0, 0.5)", True), ("extension_op._cache.clear()", True),
    ("fracpme.core._x", True), ("self._cache", False), ("core.trace_lambda", False),
    ("np._globals", False)])
def test_private_reach_scan_sees_every_form(source, hit):
    assert bool(_private_reaches(source)) == hit


@pytest.mark.parametrize("path", sorted(Path(fracpme.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_reaches_a_private_name(path):
    # the same rule for an attribute read through another module's name
    assert _private_reaches(path.read_text()) == []
