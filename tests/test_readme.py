"""The README's Quick start and Command line examples run as written."""

import json
import os
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

from quatspin import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
_COMMAND_LINE = README.read_text().split("## Command line", 1)[1]


def test_quick_start_block_runs():
    section = README.read_text().split("## Quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md (Quick start)", "exec"), {})


_COMMANDS = re.search(r"```sh\n(.*?)```", _COMMAND_LINE, re.S).group(1)


@pytest.mark.parametrize("line", [
    line for line in _COMMANDS.splitlines()
    # the full suite runs in tests/test_acceptance.py (criterion 10)
    if not line.startswith("quatspin verify --suite all")])
def test_command_line_block_runs(capsys, line):
    argv = shlex.split(line)
    assert argv[0] == "quatspin"
    assert cli.main(argv[1:]) == 0
    json.loads(capsys.readouterr().out)


def test_command_line_example_shows_the_real_stdout():
    # a fresh interpreter, as users run it
    block = _COMMAND_LINE.split("Example:", 1)[1]
    command, want = re.search(r"```sh\n\$ (.*?)\n(.*?)```", block,
                              re.S).groups()
    argv = shlex.split(command)
    assert argv[0] == "quatspin"
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "quatspin", *argv[1:]],
                          capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == want
