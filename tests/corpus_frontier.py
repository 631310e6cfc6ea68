"""The distributive-lattice corpus as a frontier measure: every J(Q) up to
``--max-size`` elements (default 20), from ``test_lattice_corpus``'s
generator, decided by ``is_nice``.

Run from the root of a checkout:

    python tests/corpus_frontier.py [--max-size N] [--expand M]

Per size it prints the number of lattices, the search nodes and CPU
seconds of ``is_nice``, and each lattice that is not nice with its witness.
With ``--expand M`` it also runs ``schur_expansion`` on every lattice of at
most M elements and prints, per size, the remaining sets that
``ChainPartitionCounter.count_all`` walks (a count no machine changes), the
CPU seconds of the expansions and the number of lattices with a negative
Schur coefficient, each of them with its level sizes and its most negative
coefficient.  Every expansion is checked by ``checksum_failure``.

It exits 1 when the counts differ from OEIS A006982, when the lattices
that are not nice are not exactly two of 18 elements with the witness
((9,7,2), (6,6,6)) and two of 20 with ((10,8,2), (7,7,6)) (those of
``b3:6``, ``b3:7`` and their duals), when ``StablePartitionCounter``,
which shares no code with the search, counts a chain partition of an
unachieved witness type, when an expansion fails a checksum, or when the
lattices with a negative coefficient up to 16 elements are not none up to
13, two of 14, four of 15 and six of 16.  Nodes, states and times are
reported, not checked, so that a change to the scan, the engine or the
expansion can move them.
Standard library only; pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# OEIS A006982 from 15 to 20 elements; test_lattice_corpus holds 1 to 14.
COUNTS_15_TO_20 = (891, 1639, 2978, 5483, 10006, 18428)
NOT_NICE = {18: ((9, 7, 2), (6, 6, 6)), 20: ((10, 8, 2), (7, 7, 6))}
# Lattices with a negative Schur coefficient, by size; none below 14.
NEGATIVE_TO_16 = {14: 2, 15: 4, 16: 6}


def witness_failure(poset, unachieved):
    """A message when ``StablePartitionCounter`` counts a chain partition
    of ``poset`` of the type ``unachieved``, which ``is_nice`` gave as not
    achieved; None when it counts none."""
    from chromaposet import StablePartitionCounter, incomparability_graph

    if StablePartitionCounter(incomparability_graph(poset)).count(unachieved):
        return (f"a {len(poset)}-element lattice has a chain partition of "
                f"the unachieved type {unachieved}")
    return None


def checksum_failure(poset, expansion):
    """A message when the Schur expansion ``expansion`` of ``poset`` fails
    one of two identities that share no code with it; None when both hold.

    The coefficient of x_1 x_2 ... x_n is n! in X_G, since every injective
    colouring is proper, and f^lam in s_lam, the standard Young tableaux
    of shape lam (the hook-length formula): so sum c_lam f^lam = n!.  With
    two variables set to 1, s_lam is lam_1 - lam_2 + 1 for at most two rows
    and 0 otherwise, and X_G is the number of proper 2-colourings: 2 per
    component of the incomparability graph G when G is bipartite, else 0.
    The second identity tells lam from its conjugate; the first cannot."""
    n = len(poset)
    tableaux = two_rows = 0
    for lam, c in expansion.items():
        hooks = 1
        for i, row in enumerate(lam):
            for j in range(row):
                hooks *= row - j + sum(below > j for below in lam[i + 1 :])
        tableaux += c * math.factorial(n) // hooks
        if len(lam) <= 2:
            first, second = (lam + (0, 0))[:2]
            two_rows += c * (first - second + 1)
    if tableaux != math.factorial(n):
        return f"sum c_lam f^lam is {tableaux}, not {n}!"
    colourings = _two_colourings(poset)
    if two_rows != colourings:
        return f"sum c_lam s_lam(1, 1) is {two_rows}, not {colourings}"
    return None


def _two_colourings(poset):
    """Proper 2-colourings of the incomparability graph, from breadth-first
    layers of each component: a component is bipartite exactly when no edge
    joins two elements of one layer, and then has two colourings."""
    up, n = poset.up, len(poset)
    layer, colourings = {}, 1
    for start in range(n):
        if start in layer:
            continue
        layer[start] = 0
        frontier = [start]
        colourings *= 2
        while frontier:
            grown = []
            for x in frontier:
                for y in range(n):
                    if y == x or up[x] >> y & 1 or up[y] >> x & 1:
                        continue
                    if y not in layer:
                        layer[y] = layer[x] + 1
                        grown.append(y)
                    elif layer[y] == layer[x]:
                        return 0
            frontier = grown
    return colourings


def expand(group) -> tuple[int, float, list]:
    """The ``count_all`` states, the CPU seconds of ``schur_expansion`` and
    the expansions of the lattices of ``group``.  Each expansion builds one
    counter and calls ``count_all`` once, so the states are the counter's
    nodes."""
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
        expansions = [schur_expansion(poset, max_elements=len(poset)) for poset in group]
        return states, time.process_time() - started, expansions
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
    print("size  lattices   nodes  nice s"
          + ("   states  expand s  negative" if args.expand else ""))
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
        negative = []
        if size <= args.expand:
            states, expand_s, expansions = expand(group)
            total_states, total_expand_s = total_states + states, total_expand_s + expand_s
            for poset, expansion in zip(group, expansions):
                if failure := checksum_failure(poset, expansion):
                    failures.append(f"a {size}-element lattice: {failure}")
                lam, c = min(expansion.items(), key=lambda item: item[1])
                if c < 0:
                    negative.append((tuple(m.bit_count() for m in poset.levels()), lam, c))
            row += f"  {states:7d}  {expand_s:8.2f}  {len(negative):8d}"
            if size <= 16 and len(negative) != NEGATIVE_TO_16.get(size, 0):
                failures.append(f"{len(negative)} lattices of {size} elements have a negative "
                                f"coefficient, want {NEGATIVE_TO_16.get(size, 0)}")
        print(row)
        for achieved, unachieved in witnesses:
            print(f"      not nice: achieved {achieved} but not {unachieved}")
        for levels, lam, c in negative:
            print(f"      negative: levels {levels}, most negative [s_{lam}] = {c}")
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
