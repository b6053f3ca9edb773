"""Each Python example in README.md runs as written, on its own, and each
`hog` command of its CLI examples exits as its comment says."""

import re
import shlex
from pathlib import Path

import pytest

from hog.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
_TEXT = README.read_text()
# (first line number, code) of each ```python block; padding the code with
# that many newlines makes tracebacks point at README lines.
BLOCKS = [(_TEXT.count("\n", 0, m.start(1)), m.group(1))
          for m in re.finditer(r"^```python\n(.*?)^```", _TEXT,
                               re.MULTILINE | re.DOTALL)]
# (line number, command) of each `hog` line of the ```sh blocks.
COMMANDS = [(_TEXT.count("\n", 0, m.start()) + 1, m.group(1))
            for m in re.finditer(r"^(hog .*)$", _TEXT, re.MULTILINE)
            if _TEXT.rfind("```sh", 0, m.start())
            > _TEXT.rfind("```\n", 0, m.start())]


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("line, code", BLOCKS,
                         ids=[f"line{line + 1}" for line, _ in BLOCKS])
def test_readme_python_block_runs(line, code):
    exec(compile("\n" * line + code, str(README), "exec"), {})


def test_readme_has_cli_examples():
    assert len(COMMANDS) >= 8


@pytest.mark.parametrize("line, command", COMMANDS,
                         ids=[f"line{line}" for line, _ in COMMANDS])
def test_readme_cli_example_exits_as_documented(line, command, tmp_path,
                                                monkeypatch, capsys):
    # The commands run in a scratch directory (one writes nf.json), with
    # the shipped games.
    exit_code = re.search(r"#\s*exit\s+(\d+)\s*$", command)
    argv = [str(ROOT / arg) if arg.startswith("games/") else arg
            for arg in shlex.split(command, comments=True)]
    assert argv[0] == "hog"
    monkeypatch.chdir(tmp_path)
    assert main(argv[1:]) == (int(exit_code[1]) if exit_code else 0)
    assert "Traceback" not in capsys.readouterr().err
