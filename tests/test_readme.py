"""The README's examples run as shown.

Each ```python block runs, and what it prints matches the ``# ...``
comment on each of its print lines. Each ``$ fibsums ...`` line of a ```sh
block that shows output prints that output: ``| head -N`` keeps its first
N lines, and a trailing ``# ...`` comment is not part of the command.
"""

import contextlib
import io
import pathlib
import re
import shlex

import pytest
from conftest import run_main

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README.read_text(),
                    re.MULTILINE | re.DOTALL)
PYTHON = [code for lang, code in BLOCKS if lang == "python"]


def _shell_examples():
    """(command, output lines) of every ``$ fibsums`` line that shows output."""
    examples = []
    for lang, code in BLOCKS:
        if lang != "sh":
            continue
        for chunk in re.findall(r"^\$ .*\n(?:[^$].*\n)*", code, re.MULTILINE):
            command, *output = chunk.splitlines()
            if command.startswith("$ fibsums ") and output:
                examples.append((command[2:], output))
    return examples


SHELL = _shell_examples()


def test_every_kind_of_example_is_found():
    assert len(PYTHON) == 1 and len(SHELL) == 6


@pytest.mark.parametrize("code", PYTHON,
                         ids=[f"python-{k}" for k in range(len(PYTHON))])
def test_python_blocks_print_their_comments(code):
    expected = re.findall(r"^print\(.*\)\s+# (.*)$", code, re.MULTILINE)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        exec(compile(code, str(README), "exec"), {})
    assert buf.getvalue().splitlines() == expected


@pytest.mark.parametrize("command,output", SHELL, ids=[c for c, _ in SHELL])
def test_shell_lines_print_their_output(command, output):
    words = shlex.split(command, comments=True)
    argv, keep = words[1:], None
    if "|" in words:
        pipe = words.index("|")
        assert words[pipe + 1] == "head", command
        argv, keep = words[1:pipe], int(words[pipe + 2].lstrip("-"))
    code, stdout = run_main(argv)
    assert code == 0
    assert stdout.splitlines()[:keep] == output
