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


@pytest.mark.parametrize("module, contents", module_table())
def test_module_table_names_exist(module, contents):
    names = re.findall(r"`([^`]*)`", contents)
    assert names
    for name in names:
        obj = importlib.import_module(module)
        for part in name.split("."):
            assert hasattr(obj, part), f"{module} has no {name}"
            obj = getattr(obj, part)
