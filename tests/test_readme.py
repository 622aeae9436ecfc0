"""The README's Python examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_examples_run():
    # Every ```python block, in order and in one namespace, as a reader
    # would paste them: a later block may use a name an earlier one made.
    # Each block is padded to its own line numbers, so a failure points at
    # the README line.
    text = README.read_text(encoding="utf-8")
    blocks = list(re.finditer(r"^```python\n(.*?)^```", text, re.DOTALL | re.MULTILINE))
    assert blocks and len(blocks) == text.count("```python")
    namespace: dict = {}
    for block in blocks:
        padded = "\n" * text.count("\n", 0, block.start(1)) + block.group(1)
        exec(compile(padded, str(README), "exec"), namespace)
