import importlib
import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_python_examples_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert blocks
    for code in blocks:
        exec(compile(code, str(README), "exec"), {})


def module_table():
    rows = re.findall(r"^\| `(pseudobath\.\w+)` \| (.*) \|$", README.read_text(), re.MULTILINE)
    assert rows
    return rows


MODULE_TABLE = module_table()


# ids are the module names, so that editing a row keeps its test's id
@pytest.mark.parametrize("module, contents", MODULE_TABLE, ids=[m for m, _ in MODULE_TABLE])
def test_module_table_names_exist(module, contents):
    names = re.findall(r"`([^`]*)`", contents)
    assert names
    for name in names:
        obj = importlib.import_module(module)
        for part in name.split("."):
            assert hasattr(obj, part), f"{module} has no {name}"
            obj = getattr(obj, part)
