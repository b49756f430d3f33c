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


def _imported_modules(tree):
    """Every module an import names anywhere in a tree, function bodies
    included; relative imports are resolved against the package."""
    names = []
    for node in ast.walk(tree):
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
    assert _imported_modules(tree) == ["pointgap", "pointgap.models",
                                       "pointgap.spectral", "pointgap.spectral.x",
                                       "pointgap.models"]


@pytest.mark.parametrize("module", ["spectral", "topology"])
def test_engine_does_not_import_models(module):
    tree = _parse(module)
    offending = [name for name in _imported_modules(tree)
                 if name == "pointgap.models" or name.startswith("pointgap.models.")]
    assert offending == []
    identifiers = {getattr(node, "id", getattr(node, "attr", None))
                   for node in ast.walk(tree)}
    assert not identifiers & PARAMS_CLASSES
