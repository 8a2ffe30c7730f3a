"""Export integrity: every name a module exports resolves."""

import ast
import importlib
from pathlib import Path

import pytest

import adast

MODULES = ("adast", "adast.algorithms", "adast.errors", "adast.harness", "adast.metrics",
           "adast.problems", "adast.topology")


def _star(name: str) -> dict:
    """The names ``from <name> import *`` binds."""
    namespace: dict = {}
    exec(f"from {name} import *", namespace)  # raises on a stale __all__ entry
    namespace.pop("__builtins__")
    return namespace


@pytest.mark.parametrize("name", MODULES)
def test_star_import_resolves_every_export(name):
    module = importlib.import_module(name)
    namespace = _star(name)
    exported = getattr(module, "__all__", None)
    if exported is not None:
        assert sorted(namespace) == sorted(exported)
    assert namespace


def test_package_re_exports_only_exported_names():
    # a name trimmed from its module's __all__ must leave adast/__init__.py too
    tree = ast.parse(Path(adast.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        exported = _star(f"adast.{node.module}")
        for alias in node.names:
            assert alias.name in exported, (node.module, alias.name)
