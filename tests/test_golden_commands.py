"""Golden outputs of the commands outside the benchmark pools:
``tests/golden/commands.json`` maps each argv to the SHA-256 of what
``chromaposet.cli.main`` prints and returns for it, as in
``tests/test_golden_nice.py``, whose ``digest`` and ``write_golden`` it
reuses.

It covers, each with and without ``--json``: ``chain-partition`` on a type
found, one refuted, and searches over and at their node budget, so the
reported ``nodes`` is pinned exactly; ``scp`` on the closed and the search
route; ``tabloid`` with ``--content`` and with ``--content-prefix``;
``theorem41`` on a few (n, k); ``verify``, its criterion timings masked;
and ``poset --lattice`` on every builder poset of up to 32 elements.  The CLI's error cases are pinned in
``tests/test_cli.py``.

The rule is the one of ``tests/test_golden_nice.py``: a change that alters
one of these outputs on purpose regenerates the file (``python
tests/test_golden_commands.py``, from the root of a checkout) and lists
each changed argv in CHANGES.md.
"""

import json
import sys

from test_golden_nice import ROOT, digest, write_golden

GOLDEN = ROOT / "tests" / "golden" / "commands.json"


def golden_argvs():
    """Every argv the golden file covers, in a fixed order."""
    from conftest import builder_specs

    argvs = [
        ["chain-partition", "--poset", "b3:7", "--type", "7,7,6"],
        ["chain-partition", "--poset", "b3:7", "--type", "8,7,5"],
        ["chain-partition", "--poset", "prod:4x3", "--type", "6,4,2"],
        ["chain-partition", "--poset", "b3:7", "--type", "7,7,6", "--node-budget", "100"],
        ["chain-partition", "--poset", "b3:7", "--type", "7,7,6", "--node-budget", "1961"],
        ["chain-partition", "--poset", "prod:4x3", "--type", "6,4,2", "--node-budget", "2"],
        ["scp", "--poset", "prod:4x3", "--type", "6,4,2"],
        ["scp", "--poset", "prod:4x3", "--type", "6,4,2", "--method", "brute"],
        ["scp", "--poset", "prod:5x3", "--type", "7,5,3", "--method", "closed"],
        ["scp", "--poset", "b3:3", "--type", "5,4,3"],
        ["tabloid", "--shape", "5,3,2,1", "--content", "6,3,2"],
        ["tabloid", "--shape", "5,3,2,1", "--content-prefix", "6"],
        ["theorem41", "--n", "2", "--k", "5"],
        ["theorem41", "--n", "3", "--k", "6"],
        ["theorem41", "--n", "5", "--k", "9"],
        ["verify"],
    ]
    argvs += [["poset", "--poset", spec.dsl(), "--lattice"] for spec in builder_specs(32)]
    return [argv + flag for argv in argvs for flag in ([], ["--json"])]


def test_command_outputs_match_the_golden_file():
    golden = json.loads(GOLDEN.read_text())
    assert list(golden) == [" ".join(argv) for argv in golden_argvs()]
    changed = [key for key, want in golden.items() if digest(key.split(" ")) != want]
    assert not changed, "outputs differ from tests/golden/commands.json:\n" + "\n".join(changed)


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "tests"))
    write_golden(GOLDEN, golden_argvs())
