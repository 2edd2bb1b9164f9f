"""Every `$ phasefisher ...` example in README.md, run and compared with the output it shows.

In a fenced block, a line that starts with `$ phasefisher` is a command, and
the lines after it, up to a blank line or the end of the block, are its
stdout. Every shown line must match a whole line, in order; a `...` line
stands for any number of lines. Each command runs in a temporary directory,
so the files it writes land there, and must exit 0.
"""

import re
import shlex
from pathlib import Path

import pytest

from phasefisher.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _examples() -> list[tuple[str, list[str]]]:
    """(command, shown lines) for each `$ phasefisher` line of a fenced block, in README order."""
    examples, shown, fenced = [], None, False
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            fenced, shown = not fenced, None
        elif fenced and line.startswith("$ phasefisher "):
            shown = []
            examples.append((line[2:], shown))
        elif fenced and line and shown is not None:
            shown.append(line)
        else:
            shown = None
    return examples


EXAMPLES = _examples()


def test_every_subcommand_has_an_example():
    assert {shlex.split(command)[1] for command, _ in EXAMPLES} == {
        "point", "sweep", "crossings", "verify"
    }


@pytest.mark.parametrize("command, shown", EXAMPLES, ids=[command for command, _ in EXAMPLES])
def test_example_output_is_current(tmp_path, monkeypatch, capsys, command, shown):
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(command)[1:]) == 0
    out = capsys.readouterr().out
    pattern = "".join("(?:.*\n)*" if line == "..." else re.escape(line) + "\n" for line in shown)
    assert re.fullmatch(pattern, out), "README shows:\n" + "\n".join(shown) + f"\n\nstdout:\n{out}"
