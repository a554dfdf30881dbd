"""The public surface resolves: no export names something that is gone."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import pseudobath

MODULES = [info.name for info in pkgutil.iter_modules(pseudobath.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_exist(name):
    module = importlib.import_module(f"pseudobath.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_package_reexports_are_in_module_all():
    tree = ast.parse(inspect.getsource(pseudobath))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"pseudobath.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, f"{node.module}.{alias.name}"
            assert getattr(pseudobath, alias.name) is getattr(module, alias.name)
