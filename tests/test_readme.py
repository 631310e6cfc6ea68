"""The README's shell sessions: each ``$ chromaposet ...`` line in a fenced
block runs through ``chromaposet.cli.main`` and must print the lines that
follow it, up to the next ``$`` line, and nothing on stderr.  A ``$ echo $?`` after it gives the
exit code; a session without one exits 0.  A ``...`` line stands for any
run of lines, and criterion timings (``0.00s / 1s``) are masked, so the
``verify`` session checks its first and last lines."""

import re
import shlex
from pathlib import Path

import pytest

from chromaposet import cli

README = Path(__file__).resolve().parent.parent / "README.md"
PROMPT = "$ chromaposet "


def _mask(line):
    return re.sub(r"\d+\.\d+s / ", "s / ", line)


def sessions():
    """(command, printed lines, exit code) for each session, in order."""
    found = []
    for block in re.findall(r"^```[^\n]*\n(.*?)^```", README.read_text(), re.M | re.S):
        lines = block.splitlines()
        for i, line in enumerate(lines):
            if not line.startswith(PROMPT):
                continue
            end = next((j for j in range(i + 1, len(lines)) if lines[j].startswith("$")), len(lines))
            code = int(lines[end + 1]) if lines[end:end + 1] == ["$ echo $?"] else 0
            found.append((line[len(PROMPT):], lines[i + 1:end], code))
    return found


SESSIONS = sessions()


def test_the_readme_shows_its_sessions():
    assert [command.split()[0] for command, _, _ in SESSIONS] == [
        "schur-coeff", "nice", "schur", "verify"
    ]


def check_session(capsys, command, want, code):
    """Run one session and assert its printed lines, exit code and empty stderr."""
    got_code = cli.main(shlex.split(command))
    captured = capsys.readouterr()
    got = [_mask(line) for line in captured.out.splitlines()]
    want = [_mask(line) for line in want]
    if "..." in want:
        k = want.index("...")
        head, tail = want[:k], want[k + 1:]
        assert len(got) >= len(head) + len(tail)
        got = got[:k] + got[len(got) - len(tail):]
        want = head + tail
    assert (got, got_code, captured.err) == (want, code, "")


@pytest.mark.parametrize("command, want, code", SESSIONS, ids=[s[0] for s in SESSIONS])
def test_readme_session(capsys, command, want, code):
    check_session(capsys, command, want, code)
