"""Export integrity: every name a module exports resolves."""

import importlib

import pytest

MODULES = ("adast", "adast.algorithms", "adast.errors", "adast.harness", "adast.metrics",
           "adast.problems", "adast.topology")


@pytest.mark.parametrize("name", MODULES)
def test_star_import_resolves_every_export(name):
    module = importlib.import_module(name)
    namespace: dict = {}
    exec(f"from {name} import *", namespace)  # raises on a stale __all__ entry
    namespace.pop("__builtins__")
    exported = getattr(module, "__all__", None)
    if exported is not None:
        assert sorted(namespace) == sorted(exported)
    assert namespace
