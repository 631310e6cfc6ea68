"""Golden outputs of the ``schur`` command: ``tests/golden/schur.json`` maps
each argv to the digest ``test_golden_nice.digest`` takes of what
``chromaposet.cli.main`` prints and returns for it, and the test
recomputes every entry.

It covers the benchmark's 40 ``expansion`` queries as the pool gives them
and without ``--json``, and ``schur --max-elements 16 --json`` on every
builder poset of up to 16 elements (15 of them are pool queries).

The rule is the ``nice`` file's: a change that alters one of these outputs
on purpose regenerates the file (``python tests/test_golden_schur.py``,
from the root of a checkout) and lists each changed argv in CHANGES.md.  A
regenerated file without such a list is a regression.
"""

import json
import sys

from test_golden_nice import ROOT, digest, pool_argvs, write_golden

GOLDEN = ROOT / "tests" / "golden" / "schur.json"


def golden_argvs():
    """Every argv the golden file covers, in a fixed order."""
    from conftest import builder_specs

    argvs = pool_argvs("expansion")
    for spec in builder_specs(16):
        argv = ["schur", "--poset", spec.dsl(), "--max-elements", "16", "--json"]
        if argv not in argvs:  # the pool asks for some of these already
            argvs.append(argv)
    return argvs


def test_schur_outputs_match_the_golden_file():
    golden = json.loads(GOLDEN.read_text())
    assert len(golden) > 100
    changed = [key for key, want in golden.items() if digest(key.split(" ")) != want]
    assert not changed, "outputs differ from tests/golden/schur.json:\n" + "\n".join(changed)


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    write_golden(GOLDEN, golden_argvs())
