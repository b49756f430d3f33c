"""The engine layers stay parameter-agnostic: ``spectral`` and ``topology``
take sector models (and single matrices), and only ``models`` (and the CLI,
through it) turns parameters into them."""

import ast
import os

import pytest

import pointgap

PACKAGE = os.path.dirname(os.path.abspath(pointgap.__file__))
PARAMS_CLASSES = {"DotParams", "ChainParams"}


def _parse(module):
    with open(os.path.join(PACKAGE, f"{module}.py")) as fh:
        return ast.parse(fh.read())


def _import_time_nodes(tree):
    """The nodes of a tree that run when its module is imported: all but
    those inside function bodies."""
    todo = [tree]
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))


def _imported_modules(nodes):
    """Every module an import among ``nodes`` names (``ast.walk(tree)`` for
    a whole tree, function bodies included); relative imports are resolved
    against the package."""
    names = []
    for node in nodes:
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(part for part in ("pointgap" if node.level else "",
                                                node.module) if part)
            names.append(module)
            # ``from . import models`` names the module as an alias
            names += [f"{module}.{alias.name}" for alias in node.names]
    return names


def test_import_scan_resolves_relative_imports():
    tree = ast.parse("from . import models\nfrom .spectral import x\n"
                     "def f():\n    import pointgap.models\n")
    assert _imported_modules(ast.walk(tree)) == ["pointgap", "pointgap.models",
                                       "pointgap.spectral", "pointgap.spectral.x",
                                       "pointgap.models"]


@pytest.mark.parametrize("module", ["spectral", "topology"])
def test_engine_does_not_import_models(module):
    tree = _parse(module)
    offending = [name for name in _imported_modules(ast.walk(tree))
                 if name == "pointgap.models" or name.startswith("pointgap.models.")]
    assert offending == []
    identifiers = {getattr(node, "id", getattr(node, "attr", None))
                   for node in ast.walk(tree)}
    assert not identifiers & PARAMS_CLASSES


def test_import_time_scan_skips_function_bodies():
    tree = ast.parse("import numpy\nclass A:\n    import os\n"
                     "    def f(self):\n        import scipy\n"
                     "def g():\n    from scipy import linalg\n")
    assert sorted(_imported_modules(_import_time_nodes(tree))) == ["numpy", "os"]


def test_no_module_imports_scipy_at_import_time():
    """scipy loads at the first call that needs it, not with the package:
    a run that makes no LU, band ordering, gap margin, Hausdorff distance or
    oracle match never loads it."""
    modules = sorted(name[:-3] for name in os.listdir(PACKAGE) if name.endswith(".py"))
    offending = {module: [name for name in _imported_modules(_import_time_nodes(_parse(module)))
                          if name == "scipy" or name.startswith("scipy.")]
                 for module in modules}
    assert {module: names for module, names in offending.items() if names} == {}
