"""Each Python example in README.md runs as written, on its own."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
_TEXT = README.read_text()
# (first line number, code) of each ```python block; padding the code with
# that many newlines makes tracebacks point at README lines.
BLOCKS = [(_TEXT.count("\n", 0, m.start(1)), m.group(1))
          for m in re.finditer(r"^```python\n(.*?)^```", _TEXT,
                               re.MULTILINE | re.DOTALL)]


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("line, code", BLOCKS,
                         ids=[f"line{line + 1}" for line, _ in BLOCKS])
def test_readme_python_block_runs(line, code):
    exec(compile("\n" * line + code, str(README), "exec"), {})
