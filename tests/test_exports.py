"""Every exported name exists: each layer's __all__ names only what the
module defines, and the package imports only exported layer names, never
the test-only oracles."""

import ast
import importlib
from pathlib import Path

import pytest

import zetaglue

LAYERS = ("spectral_core", "base1d", "glue", "scattering", "adiabatic", "cli",
          "oracles")


@pytest.mark.parametrize("layer", LAYERS)
def test_all_names_are_defined(layer):
    module = importlib.import_module(f"zetaglue.{layer}")
    missing = [name for name in getattr(module, "__all__", ())
               if not hasattr(module, name)]
    assert missing == []


def test_package_imports_exported_names():
    tree = ast.parse(Path(zetaglue.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"zetaglue.{node.module}")
        for alias in node.names:
            assert hasattr(module, alias.name), (node.module, alias.name)
            assert alias.name in module.__all__, (node.module, alias.name)


def test_package_does_not_import_oracles():
    names = []
    for node in ast.walk(ast.parse(Path(zetaglue.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            names += [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
    assert names
    assert not [name for name in names if name.split(".")[-1] == "oracles"]
