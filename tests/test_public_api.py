"""The public API: every exported name resolves, so no export outlives its code."""

import importlib
import pkgutil

import pytest

import riskcheck

# Every library module but the ``python -m riskcheck`` entry point.
MODULES = [
    m.name
    for m in pkgutil.iter_modules(riskcheck.__path__, "riskcheck.")
    if m.name != "riskcheck.__main__"
]


@pytest.mark.parametrize("name", ["riskcheck", *MODULES])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_star_import():
    namespace = {}
    exec("from riskcheck import *", namespace)
    assert set(riskcheck.__all__) <= set(namespace)
