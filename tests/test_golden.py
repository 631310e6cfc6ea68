"""Golden outputs of the CLI: each ``tests/golden/<name>.json`` maps an argv
to the SHA-256 of what ``chromaposet.cli.main`` prints and returns for it
(stdout, with ``wall_time_ms`` removed from a JSON envelope and ``verify``'s
criterion timings masked; stderr; the exit code).  The test checks that
each file's keys are its generator's argv, in order, and recomputes every
digest.

- ``nice.json``: the benchmark's 41 ``nice`` queries as the pool gives them
  and without ``--json``, ``nice --all-types --witness --json`` on every
  builder poset of up to 20 elements and on ``b3:8`` and ``sum:0+b3:7+1``,
  and the two niceness sweeps with their default flags.
- ``schur.json``: the benchmark's 40 ``expansion`` queries as the pool
  gives them and without ``--json``, and ``schur --max-elements 16 --json``
  on every builder poset of up to 16 elements (15 of them are pool
  queries).
- ``witness.json``: the benchmark's 94 ``witness`` queries as the pool
  gives them and without ``--json``, and the ``two_chain_negativity`` sweep
  with its default flags.
- ``commands.json``, each with and without ``--json``: ``chain-partition``
  on a type found, one refuted, and searches over and at their node budget,
  so the reported ``nodes`` is pinned exactly; ``scp`` on the closed and
  the search route; ``schur-coeff`` on the search route, one query over
  its node budget among them; ``tabloid`` with ``--content`` and with
  ``--content-prefix``; ``theorem41`` on a few (n, k); ``verify``; and
  ``poset --lattice`` on every builder poset of up to 32 elements.  The
  CLI's error cases are pinned in ``tests/test_cli.py``.

The rule: a change that alters one of these outputs on purpose regenerates
the files (``python tests/test_golden.py [name ...]`` from the root of a
checkout, every file when no name is given), which prints each argv whose
digest changed or is new, and lists those argv in CHANGES.md.  A
regenerated file without such a list is a regression.
"""

import contextlib
import hashlib
import io
import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


def digest(argv):
    """SHA-256 of (stdout, stderr, exit code) of one CLI call, with the
    envelope's wall time removed and ``verify``'s criterion timings
    masked."""
    from chromaposet import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    stdout = out.getvalue()
    if argv[0] == "verify":
        stdout = re.sub(r"\d+\.\d+s / ", "s / ", stdout)
        stdout = re.sub(r'"elapsed_s": [0-9.e-]+', '"elapsed_s": null', stdout)
    if "--json" in argv and stdout:
        envelope = json.loads(stdout)
        del envelope["wall_time_ms"]
        stdout = json.dumps(envelope, sort_keys=True, indent=2)
    blob = json.dumps([stdout, err.getvalue(), code])
    return hashlib.sha256(blob.encode()).hexdigest()


def pool_argvs(workload):
    """The benchmark pool's argv as given, then each without ``--json``."""
    from conftest import load_perfbench

    pool = [list(argv) for argv in load_perfbench("workloads").pool(workload)]
    return pool + [[arg for arg in argv if arg != "--json"] for argv in pool]


def nice_argvs():
    from conftest import builder_specs

    argvs = pool_argvs("nice")
    flags = ["--all-types", "--witness", "--json"]
    argvs += [["nice", "--poset", spec.dsl(), *flags] for spec in builder_specs(20)]
    argvs += [["nice", "--poset", "b3:8", "--max-elements", "22", *flags],
              ["nice", "--poset", "sum:0+b3:7+1", "--max-elements", "21", *flags]]
    argvs += [["sweep", "--family", "b3_niceness"], ["sweep", "--family", "product_niceness"]]
    return argvs


def schur_argvs():
    from conftest import builder_specs

    argvs = pool_argvs("expansion")
    for spec in builder_specs(16):
        argv = ["schur", "--poset", spec.dsl(), "--max-elements", "16", "--json"]
        if argv not in argvs:  # the pool asks for some of these already
            argvs.append(argv)
    return argvs


def witness_argvs():
    return pool_argvs("witness") + [["sweep", "--family", "two_chain_negativity"]]


def commands_argvs():
    from conftest import builder_specs

    argvs = [
        ["chain-partition", "--poset", "b3:7", "--type", "7,7,6"],
        ["chain-partition", "--poset", "b3:7", "--type", "8,7,5"],
        ["chain-partition", "--poset", "prod:4x3", "--type", "6,4,2"],
        ["chain-partition", "--poset", "b3:7", "--type", "7,7,6", "--node-budget", "100"],
        ["chain-partition", "--poset", "b3:7", "--type", "7,7,6", "--node-budget", "398"],
        ["chain-partition", "--poset", "b3:7", "--type", "7,7,6", "--node-budget", "399"],
        ["chain-partition", "--poset", "prod:4x3", "--type", "6,4,2", "--node-budget", "2"],
        ["scp", "--poset", "prod:4x3", "--type", "6,4,2"],
        ["scp", "--poset", "prod:4x3", "--type", "6,4,2", "--method", "brute"],
        ["scp", "--poset", "prod:5x3", "--type", "7,5,3", "--method", "closed"],
        ["scp", "--poset", "b3:3", "--type", "5,4,3"],
        ["schur-coeff", "--poset", "bool:3", "--shape", "4,2,2"],
        ["schur-coeff", "--poset", "sum:1+prod:3x2+1", "--shape", "5,3"],
        ["schur-coeff", "--poset", "prod:4x3", "--shape", "6,4,2", "--method", "tabloid_brute"],
        ["schur-coeff", "--poset", "b3:6", "--shape", "9,7,2"],
        ["schur-coeff", "--poset", "b3:3", "--shape", "6,5,1", "--node-budget", "5"],
        ["tabloid", "--shape", "5,3,2,1", "--content", "6,3,2"],
        ["tabloid", "--shape", "5,3,2,1", "--content-prefix", "6"],
        ["theorem41", "--n", "2", "--k", "5"],
        ["theorem41", "--n", "3", "--k", "6"],
        ["theorem41", "--n", "5", "--k", "9"],
        ["verify"],
    ]
    argvs += [["poset", "--poset", spec.dsl(), "--lattice"] for spec in builder_specs(32)]
    return [argv + flag for argv in argvs for flag in ([], ["--json"])]


GENERATORS = {
    "nice": nice_argvs,
    "schur": schur_argvs,
    "witness": witness_argvs,
    "commands": commands_argvs,
}


def _keys(argvs):
    """Each argv joined with spaces, the file's key for it."""
    keys = [" ".join(argv) for argv in argvs]
    # Keys split back on spaces, so no argument may hold one.
    assert len(set(keys)) == len(keys) and all(" " not in arg for argv in argvs for arg in argv)
    return keys


@pytest.mark.parametrize("name", GENERATORS)
def test_outputs_match_the_golden_file(name):
    golden = json.loads((GOLDEN / f"{name}.json").read_text())
    assert list(golden) == _keys(GENERATORS[name]())
    changed = [key for key, want in golden.items() if digest(key.split(" ")) != want]
    assert not changed, f"outputs differ from tests/golden/{name}.json:\n" + "\n".join(changed)


def test_every_pool_query_has_a_golden_digest():
    """A pool change cannot leave a query without a pinned output."""
    pinned = set()
    for name in ("nice", "schur", "witness"):
        pinned |= json.loads((GOLDEN / f"{name}.json").read_text()).keys()
    for workload in ("witness", "expansion", "nice"):
        missing = [key for argv in pool_argvs(workload) if (key := " ".join(argv)) not in pinned]
        assert not missing, f"{workload} pool queries without a golden digest:\n" + "\n".join(missing)


def regenerate(names):
    """Rewrite each named golden file from its generator, printing every
    argv whose digest changed or is new."""
    for name in names:
        path = GOLDEN / f"{name}.json"
        old = json.loads(path.read_text()) if path.exists() else {}
        new = {key: digest(key.split(" ")) for key in _keys(GENERATORS[name]())}
        for key, value in new.items():
            if old.get(key) != value:
                print(key)
        path.write_text(json.dumps(new, indent=1) + "\n")


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    regenerate(sys.argv[1:] or GENERATORS)
