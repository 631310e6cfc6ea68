"""The distributive-lattice corpus as a frontier measure: every J(Q) up to
``--max-size`` elements (default 20), from ``test_lattice_corpus``'s
generator, decided by ``is_nice``.

Run from the root of a checkout:

    python tests/corpus_frontier.py [--max-size N]

Per size it prints the number of lattices, the search nodes and CPU
seconds of ``is_nice``, and each lattice that is not nice with its witness.

It exits 1 when the counts differ from OEIS A006982, when the lattices
that are not nice are not exactly two of 18 elements with the witness
((9,7,2), (6,6,6)) and two of 20 with ((10,8,2), (7,7,6)) (those of
``b3:6``, ``b3:7`` and their duals), or when ``StablePartitionCounter``,
which shares no code with the search, counts a chain partition of an
unachieved witness type.  Nodes and times are reported, not checked, so that a change to the scan or the engine can move them.
Standard library only; pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# OEIS A006982 from 15 to 20 elements; test_lattice_corpus holds 1 to 14.
COUNTS_15_TO_20 = (891, 1639, 2978, 5483, 10006, 18428)
NOT_NICE = {18: ((9, 7, 2), (6, 6, 6)), 20: ((10, 8, 2), (7, 7, 6))}


def witness_failure(poset, unachieved):
    """A message when ``StablePartitionCounter`` counts a chain partition
    of ``poset`` of the type ``unachieved``, which ``is_nice`` gave as not
    achieved; None when it counts none."""
    from chromaposet import StablePartitionCounter, incomparability_graph

    if StablePartitionCounter(incomparability_graph(poset)).count(unachieved):
        return (f"a {len(poset)}-element lattice has a chain partition of "
                f"the unachieved type {unachieved}")
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--max-size", type=int, default=20, choices=range(1, 21),
                        metavar="N", help="largest lattice, at most 20 (default 20)")
    args = parser.parse_args(argv)

    from chromaposet import is_nice
    from test_lattice_corpus import COUNTS, distributive_lattices

    started = time.process_time()
    lattices = distributive_lattices(args.max_size)
    print(f"generated {len(lattices)} lattices in {time.process_time() - started:.1f} s")
    print("size  lattices   nodes  nice s")
    counts, failures, not_nice = [], [], []
    total_nodes = total_s = 0
    for size in range(1, args.max_size + 1):
        group = [p for p in lattices if len(p) == size]
        counts.append(len(group))
        nodes, witnesses, started = 0, [], time.process_time()
        for poset in group:
            verdict = is_nice(poset)
            nodes += verdict.nodes
            if not verdict.nice:
                witnesses.append(verdict.witness)
                if failure := witness_failure(poset, verdict.witness[1]):
                    failures.append(failure)
        seconds = time.process_time() - started
        not_nice += [(size, witness) for witness in witnesses]
        total_nodes, total_s = total_nodes + nodes, total_s + seconds
        print(f"{size:4d}  {len(group):8d}  {nodes:6d}  {seconds:6.2f}")
        for achieved, unachieved in witnesses:
            print(f"      not nice: achieved {achieved} but not {unachieved}")
    print(f"total {len(lattices)} lattices, {len(not_nice)} not nice, "
          f"{total_nodes} nodes, {total_s:.1f} s in is_nice")

    want_counts = (COUNTS + COUNTS_15_TO_20)[: args.max_size]
    if tuple(counts) != want_counts:
        failures.append(f"lattice counts {tuple(counts)} are not OEIS A006982 {want_counts}")
    # Each witness twice: b3:n and its dual.
    want = [(size, w) for size, w in NOT_NICE.items() if size <= args.max_size for _ in range(2)]
    if sorted(not_nice) != want:
        failures.append(f"lattices not nice {sorted(not_nice)}, want {want}")
    for failure in failures:
        print(f"FAILED: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
