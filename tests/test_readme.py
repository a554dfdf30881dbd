import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_python_examples_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert blocks
    for code in blocks:
        exec(compile(code, str(README), "exec"), {})
