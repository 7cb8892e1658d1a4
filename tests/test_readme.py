"""Every fenced python block of the README runs as written, on its own, and
every ``randtri`` command line of its sh blocks exits 0."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from randtri.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.M | re.S)
SH_LINES = [line for block in re.findall(r"^```sh\n(.*?)^```", TEXT, re.M | re.S)
            for line in block.splitlines()]
# `randtri report` is left to tests/test_cli.py, which already runs it
COMMANDS = [argv[1:] for argv in (shlex.split(line, comments=True) for line in SH_LINES)
            if argv[:1] == ["randtri"] and argv[1:2] != ["report"]]


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_python_block_runs_alone(index):
    # a fresh namespace per block: each block must bring its own imports
    code = compile(BLOCKS[index], f"README.md python block {index}", "exec")
    exec(code, {"__name__": "readme"})


def test_readme_has_cli_examples():
    assert COMMANDS


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_cli_example_exits_0(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert main(argv) == 0, err.getvalue()
