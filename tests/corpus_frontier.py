"""The distributive-lattice corpus as a frontier measure: every J(Q) up to
``--max-size`` elements (default 20), from ``test_lattice_corpus``'s
generator, decided by ``is_nice``.

Run from the root of a checkout:

    python tests/corpus_frontier.py [--max-size N] [--expand M]

Per size it prints the number of lattices, the search nodes and CPU
seconds of ``is_nice``, and each lattice that is not nice with its witness.
With ``--expand M`` it also runs ``schur_expansion`` on every lattice of at
most M elements and prints, per size, the remaining sets that
``ChainPartitionCounter.count_all`` walks (a count no machine changes) and
the CPU seconds of the expansions.

It exits 1 when the counts differ from OEIS A006982, when the lattices
that are not nice are not exactly two of 18 elements with the witness
((9,7,2), (6,6,6)) and two of 20 with ((10,8,2), (7,7,6)) (those of
``b3:6``, ``b3:7`` and their duals), or when ``StablePartitionCounter``,
which shares no code with the search, counts a chain partition of an
unachieved witness type.  Nodes, states and times are reported, not
checked, so that a change to the scan, the engine or the expansion can
move them.
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


def expand(group) -> tuple[int, float]:
    """The ``count_all`` states and the CPU seconds of ``schur_expansion``
    over the lattices of ``group``.  Each expansion builds one counter and
    calls ``count_all`` once, so the states are the counter's nodes."""
    from chromaposet import ChainPartitionCounter, schur_expansion

    states = 0
    count_all = ChainPartitionCounter.count_all

    def counted(counter, *args, **kwargs):
        nonlocal states
        result = count_all(counter, *args, **kwargs)
        states += counter.nodes
        return result

    ChainPartitionCounter.count_all = counted
    try:
        started = time.process_time()
        for poset in group:
            schur_expansion(poset, max_elements=len(poset))
        return states, time.process_time() - started
    finally:
        ChainPartitionCounter.count_all = count_all


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--max-size", type=int, default=20, choices=range(1, 21),
                        metavar="N", help="largest lattice, at most 20 (default 20)")
    parser.add_argument("--expand", type=int, default=0, choices=range(21), metavar="M",
                        help="also expand every lattice of at most M elements (default 0)")
    args = parser.parse_args(argv)
    if args.expand > args.max_size:
        parser.error("--expand exceeds --max-size")

    from chromaposet import is_nice
    from test_lattice_corpus import COUNTS, distributive_lattices

    started = time.process_time()
    lattices = distributive_lattices(args.max_size)
    print(f"generated {len(lattices)} lattices in {time.process_time() - started:.1f} s")
    print("size  lattices   nodes  nice s" + ("   states  expand s" if args.expand else ""))
    counts, failures, not_nice = [], [], []
    total_nodes = total_s = total_states = total_expand_s = 0
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
        row = f"{size:4d}  {len(group):8d}  {nodes:6d}  {seconds:6.2f}"
        if size <= args.expand:
            states, expand_s = expand(group)
            total_states, total_expand_s = total_states + states, total_expand_s + expand_s
            row += f"  {states:7d}  {expand_s:8.2f}"
        print(row)
        for achieved, unachieved in witnesses:
            print(f"      not nice: achieved {achieved} but not {unachieved}")
    print(f"total {len(lattices)} lattices, {len(not_nice)} not nice, "
          f"{total_nodes} nodes, {total_s:.1f} s in is_nice")
    if args.expand:
        print(f"expanded {sum(counts[: args.expand])} lattices: {total_states} "
              f"count_all states, {total_expand_s:.1f} s in schur_expansion")

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
