"""Golden outputs of the niceness commands: ``tests/golden/nice.json`` maps
each argv to the SHA-256 of what ``chromaposet.cli.main`` prints and
returns for it (stdout, with ``wall_time_ms`` removed from a JSON
envelope; stderr; the exit code), and the test recomputes every entry.

It covers the benchmark's 41 ``nice`` queries as the pool gives them and
without ``--json``, ``nice --all-types --witness --json`` on every builder
poset of up to 20 elements and on ``b3:8`` and ``sum:0+b3:7+1``, and the
two niceness sweeps with their default flags.

The rule: a change that alters one of these outputs on purpose
regenerates the file (``python tests/test_golden_nice.py``, from the root
of a checkout) and lists each changed argv in CHANGES.md.  A regenerated
file without such a list is a regression.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "nice.json"


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
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    pool = [list(argv) for argv in workloads.pool(workload)]
    return pool + [[arg for arg in argv if arg != "--json"] for argv in pool]


def write_golden(path, argvs):
    """Write the digest of every argv to ``path``, keyed by the argv joined
    with spaces."""
    keys = [" ".join(argv) for argv in argvs]
    # Keys split back on spaces, so no argument may hold one.
    assert len(set(keys)) == len(keys) and all(" " not in arg for argv in argvs for arg in argv)
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({key: digest(key.split(" ")) for key in keys}, indent=1) + "\n")
    print(f"wrote {len(keys)} digests to {path.relative_to(ROOT)}")


def golden_argvs():
    """Every argv the golden file covers, in a fixed order."""
    from conftest import builder_specs

    argvs = pool_argvs("nice")
    flags = ["--all-types", "--witness", "--json"]
    argvs += [["nice", "--poset", spec.dsl(), *flags] for spec in builder_specs(20)]
    argvs += [["nice", "--poset", "b3:8", "--max-elements", "22", *flags],
              ["nice", "--poset", "sum:0+b3:7+1", "--max-elements", "21", *flags]]
    argvs += [["sweep", "--family", "b3_niceness"], ["sweep", "--family", "product_niceness"]]
    return argvs


def test_nice_outputs_match_the_golden_file():
    golden = json.loads(GOLDEN.read_text())
    assert len(golden) > 100
    changed = [key for key, want in golden.items() if digest(key.split(" ")) != want]
    assert not changed, "outputs differ from tests/golden/nice.json:\n" + "\n".join(changed)


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    write_golden(GOLDEN, golden_argvs())
