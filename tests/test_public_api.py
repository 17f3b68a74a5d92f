"""The public API: every exported name resolves, so no export outlives its
code, and only ``riskcheck.serialize`` writes files."""

import ast
import importlib
import pkgutil
from pathlib import Path

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


def _file_writes(tree: ast.AST):
    """The line of each call in ``tree`` that may open a file for writing:
    ``open`` with a mode that is not a read-only literal, ``write_text`` or
    ``write_bytes``."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in ("write_text", "write_bytes"):
            yield node.lineno
        elif name == "open":
            # open(file, mode) and io.open(file, mode), but path.open(mode)
            function = isinstance(func, ast.Name) or (
                isinstance(func.value, ast.Name) and func.value.id in ("io", "builtins")
            )
            mode = {k.arg: k.value for k in node.keywords}.get("mode")
            if mode is None and len(node.args) > function:
                mode = node.args[int(function)]
            read_only = (
                isinstance(mode, ast.Constant)
                and isinstance(mode.value, str)
                and not set(mode.value) & set("wax+")
            )
            if mode is not None and not read_only:
                yield node.lineno


def test_only_serialize_writes_files():
    source = Path(riskcheck.__file__).parent
    writers = {
        path.name: lines
        for path in sorted(source.glob("*.py"))
        if (lines := list(_file_writes(ast.parse(path.read_text()))))
    }
    assert list(writers) == ["serialize.py"], writers
