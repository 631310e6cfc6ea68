"""The count ledger: ``BENCH_counts.json`` at the root of the repo holds one
entry per change that lowered a total, each with its commit, its date and
the exact totals over two benchmark pools, read through
``conftest.load_perfbench``.  The totals count work, not time, so they do
not depend on the machine.  A total above the last entry fails; a change
that lowers one appends an entry, and one that raises one on purpose
appends one and says why in CHANGES.md."""

import json
from pathlib import Path

from chromaposet import ChainPartitionCounter, build_poset, is_nice, parse_poset_spec, schur_expansion
from conftest import load_perfbench

LEDGER = Path(__file__).resolve().parent.parent / "BENCH_counts.json"


def _posets(workload):
    pool = load_perfbench("workloads").pool(workload)
    return [build_poset(parse_poset_spec(argv[argv.index("--poset") + 1])) for argv in pool]


def test_pool_totals_stay_within_the_last_ledger_entry(monkeypatch):
    last = json.loads(LEDGER.read_text())[-1]
    # The niceness scan's nodes over the `nice` pool, each scan stopped at
    # its verdict as `nice --witness` stops it.
    scan_nodes = sum(is_nice(poset).nodes for poset in _posets("nice"))
    # The states count_all walks over the `expansion` pool.
    walked = []
    count_all = ChainPartitionCounter.count_all

    def counted(counter, *args, **kwargs):
        result = count_all(counter, *args, **kwargs)
        walked.append(counter.nodes)
        return result

    monkeypatch.setattr(ChainPartitionCounter, "count_all", counted)
    for poset in _posets("expansion"):
        schur_expansion(poset, max_elements=len(poset))
    totals = {"nice": {"scan_nodes": scan_nodes}, "expansion": {"count_all_states": sum(walked)}}
    for pool, counts in totals.items():
        for name, total in counts.items():
            assert total <= last[pool][name], f"{pool} {name}: {total} > {last[pool][name]}"
