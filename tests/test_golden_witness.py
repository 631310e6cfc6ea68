"""Golden outputs of the ``schur-coeff`` witness queries:
``tests/golden/witness.json`` maps each argv to the digest
``test_golden_nice.digest`` takes of what ``chromaposet.cli.main`` prints
and returns for it, and the test recomputes every entry.

It covers the benchmark's 94 ``witness`` queries as the pool gives them
and without ``--json``, and the ``two_chain_negativity`` sweep with its
default flags.

The rule is the ``nice`` file's: a change that alters one of these outputs
on purpose regenerates the file (``python tests/test_golden_witness.py``,
from the root of a checkout) and lists each changed argv in CHANGES.md.  A
regenerated file without such a list is a regression.
"""

import json
import sys

from test_golden_nice import ROOT, digest, pool_argvs, write_golden

GOLDEN = ROOT / "tests" / "golden" / "witness.json"


def golden_argvs():
    """Every argv the golden file covers, in a fixed order."""
    return pool_argvs("witness") + [["sweep", "--family", "two_chain_negativity"]]


def test_witness_outputs_match_the_golden_file():
    golden = json.loads(GOLDEN.read_text())
    assert len(golden) > 100
    changed = [key for key, want in golden.items() if digest(key.split(" ")) != want]
    assert not changed, "outputs differ from tests/golden/witness.json:\n" + "\n".join(changed)


def test_every_pool_query_has_a_golden_digest():
    """A pool change cannot leave a query without a pinned output."""
    pinned = set()
    for name in ("nice", "schur", "witness"):
        pinned |= json.loads((ROOT / "tests" / "golden" / f"{name}.json").read_text()).keys()
    for workload in ("witness", "expansion", "nice"):
        missing = [key for argv in pool_argvs(workload) if (key := " ".join(argv)) not in pinned]
        assert not missing, f"{workload} pool queries without a golden digest:\n" + "\n".join(missing)


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    write_golden(GOLDEN, golden_argvs())
