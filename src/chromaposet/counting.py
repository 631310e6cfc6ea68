"""Exact counts of semi-ordered chain partitions of posets and semi-ordered
stable partitions of graphs, and the search that finds one chain partition.

Both engines enumerate *unordered* partitions — always growing the block
that contains the lowest-indexed uncovered element, so each partition is
built exactly once — and restore orderings with the product of alpha_k!
symmetry factors.  ``ChainPartitionCounter`` is the one chain-partition
engine.  Its ``count_all`` counts every type in one pass, for a whole Schur
expansion; ``count`` (one type: ``scp`` and brute Schur coefficients) and
``find`` (niceness and certificates) share one bounded recursion and memo.
``StablePartitionCounter`` counts stable partitions of a graph and shares
no code with it, nor does ``schur.count_colorings_by_type``, so their
agreement on incomparability graphs is a meaningful test.
``filling_partition`` is the one size check of the chain-partition counts.

For a product of two chains m x n and a type whose first n-1 parts are the
forced staircase values m+n-2i+1, the count also has a closed form: a
weak-composition sum over the ways of distributing the remaining parts among
the n maximal "threads" of the product.  ``scp_closed_form`` evaluates it in
pure integer arithmetic, not composition by composition but by placing the
tail blocks on the threads one at a time, over the multisets of thread
loads.  ``closed_route`` is the one place that decides whether it applies:
it reads the two sides off the poset's spec, tests the staircase prefix,
and returns the sides (m, n) or None for the search; every caller that
counts a two-chain product, Schur sums and CLI alike, asks it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, InternalInvariantError
from .partitions import (
    Partition,
    PartitionIds,
    as_partition,
    multiplicity_profile,
    symmetry_factor,
)
from .posets import Graph, Poset, chain_lengths


@dataclass
class SearchStats:
    """Node counter for ``ChainPartitionCounter.count``; only the benchmark's tracer passes one."""

    nodes: int = 0


def filling_partition(partition, n: int) -> Partition:
    """``partition`` as a partition; DomainError unless it fills an
    n-element poset.  ``count``, ``find``, ``closed_route`` and
    ``scp_closed_form`` (on m * n elements) call it, and the CLI calls it
    on a spec's element count before building; the oracles keep their own."""
    lam = as_partition(partition)
    if sum(lam) != n:
        raise DomainError(f"partition {lam} does not fill the {n}-element poset")
    return lam


class StablePartitionCounter:
    """Counts semi-ordered stable partitions of a graph, sharing a memo
    across types (useful when expanding a whole symmetric function)."""

    def __init__(self, graph: Graph):
        self.graph = graph
        self.full = (1 << len(graph)) - 1
        self._memo: dict[tuple[int, tuple[int, ...]], int] = {}

    def count(self, type_) -> int:
        lam = as_partition(type_)
        if sum(lam) != len(self.graph):
            raise DomainError(f"type {lam} does not cover {len(self.graph)} vertices")
        return self._count(self.full, lam) * symmetry_factor(lam)

    def _count(self, rem: int, sizes: tuple[int, ...]) -> int:
        if not sizes:
            return 1
        key = (rem, sizes)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        adj = self.graph.adj
        v = (rem & -rem).bit_length() - 1
        rest = rem ^ (1 << v)
        total = 0
        for i, s in enumerate(sizes):
            if i and sizes[i - 1] == s:
                continue
            tail = sizes[:i] + sizes[i + 1 :]
            total += self._grow(rest, 1 << v, rest & ~adj[v], s - 1, tail)
        self._memo[key] = total
        return total

    def _grow(self, rest: int, block: int, cand: int, need: int, tail) -> int:
        if need == 0:
            return self._count(rest & ~block, tail)
        if cand.bit_count() < need:
            return 0
        adj = self.graph.adj
        total = 0
        while cand:
            low = cand & -cand
            cand ^= low
            w = low.bit_length() - 1
            total += self._grow(rest, block | low, cand & ~adj[w], need - 1, tail)
        return total


class ChainPartitionCounter:
    """The chain-partition engine: counts the semi-ordered chain partitions
    of every type (``count_all``, which ``schur_expansion`` calls once) or
    of one type (``count``, for ``scp`` and brute Schur coefficients), or
    finds one (``find``) on the order relation.

    ``count_all`` walks every remaining set once, without bounds, keeping
    the counts of all block sizes together, each multiset of sizes named by
    its id in the ``PartitionIds`` the caller passes (``schur_expansion``
    shares it with its signed-content table); on one large type, such as
    ``chain:1200`` or brute coefficients on ``prod:8x3``, only the bounded
    walk of ``count`` is feasible.  For that walk one memo, (remaining
    elements, block sizes) -> number of unordered partitions, is shared by
    every ``count`` and ``find`` call.  ``find`` stores 0 for each
    subtree it exhausts and nothing where it stops at a hit, and walks a
    state stored with a nonzero count again, because it needs the blocks.
    The walk's per-node bound is height capacity: a chain holds at most
    one element of each level of ``Poset.levels()``, so k blocks cover at
    most min(k, level size) elements of every level, and no block is
    longer than the number of levels the remaining elements meet.  ``find``
    also refutes a state with two blocks left by ``_splits``, an exact
    bipartition test, before growing a block; ``count`` skips it, since
    memo hits dominate a count and the test showed no gain there.  With
    three blocks left, ``find`` also looks ahead on each level that holds
    exactly three remaining elements x, y, z: two chains cannot cover an
    antichain of three, so the block grown through the lowest element must
    take one of them, say x, together with every remaining element
    incomparable to both y and z (the chain/antichain argument of Greene
    and Kleitman, JCTA 20, 1976).  ``_grow`` stops as soon as its block
    and candidates can hold none of a level's three such masks.  At other
    k, or in ``count``, the masks cost more than they save.
    Longest-chain and antichain-width bounds cost more per node than the
    nodes they save.  The memo and the bounds cut only subtrees without a
    solution, so counts are exact and the first solution found, in the
    fixed search order, does not depend on what the memo holds.  ``nodes``
    counts the states walked, memo hits excluded.
    """

    def __init__(self, poset: Poset, node_budget: int | None = None):
        self.poset = poset
        self.node_budget = node_budget
        self.nodes = 0
        self._memo: dict[tuple[int, tuple[int, ...]], int] = {}
        self._height_masks = poset.levels()

    def count(self, type_, stats: SearchStats | None = None) -> int:
        """Semi-ordered chain partitions of the given type; ``stats.nodes``
        grows by the states this call walks."""
        lam = filling_partition(type_, len(self.poset))
        before = self.nodes
        total = self._walk(self.poset.full_mask, lam, None)
        if stats is not None:
            stats.nodes += self.nodes - before
        return total * symmetry_factor(lam)

    def count_all(self, ids: PartitionIds) -> dict[int, int]:
        """{id in ``ids``: semi-ordered chain partitions of that type} for
        every type, zero counts left out, from one pass over the remaining
        sets.  Its memo maps a remaining set to {id of the block sizes:
        unordered count} and lives for this call; ``nodes`` grows by one
        per state walked."""
        comp = self.poset.comp
        added, insert = ids.added, ids.insert
        memo: dict[int, dict[int, int]] = {0: {0: 1}}

        def walk(rem: int) -> dict[int, int]:
            table = memo.get(rem)
            if table is not None:
                return table
            self.nodes += 1
            if self.node_budget is not None and self.nodes > self.node_budget:
                raise DomainError(f"search exceeded {self.node_budget} nodes")
            table = memo[rem] = {}
            v = (rem & -rem).bit_length() - 1
            grow(rem, table, 1 << v, (rem ^ (1 << v)) & comp[v], 1)
            return table

        def grow(rem: int, table: dict, block: int, cand: int, size: int) -> None:
            # The block is one chain through the lowest remaining element:
            # every partition of what is left adds one of size ``size``.
            into = added[size]
            for i, count in walk(rem & ~block).items():
                j = into.get(i)
                if j is None:
                    j = insert(i, size)
                table[j] = table.get(j, 0) + count
            while cand:
                low = cand & -cand
                cand ^= low
                grow(rem, table, block | low, cand & comp[low.bit_length() - 1], size + 1)

        return {
            i: count * symmetry_factor(ids.partition(i))
            for i, count in walk(self.poset.full_mask).items()
        }

    def find(self, type_) -> list[int] | None:
        """Block bitmasks of the first chain partition of the given type in
        the search order, or None after exhausting the (pruned) search."""
        lam = filling_partition(type_, len(self.poset))
        blocks: list[int] = []
        return blocks if self._walk(self.poset.full_mask, lam, blocks) else None

    def _walk(self, rem: int, sizes: tuple[int, ...], blocks: list[int] | None) -> int:
        """Unordered chain partitions of ``rem`` with the given block sizes:
        all of them counted when ``blocks`` is None, otherwise a nonzero
        result at the first one found, its blocks appended to ``blocks``."""
        if not sizes:
            return 1
        key = (rem, sizes)
        hit = self._memo.get(key)
        if hit is not None and (blocks is None or not hit):
            return hit
        self.nodes += 1
        if self.node_budget is not None and self.nodes > self.node_budget:
            raise DomainError(f"search exceeded {self.node_budget} nodes")
        k = len(sizes)
        if blocks is not None and k == 2 and not self._splits(rem, sizes[0]):
            self._memo[key] = 0
            return 0
        capacity = levels = 0
        for hm in self._height_masks:
            c = (rem & hm).bit_count()
            if c:
                levels += 1
                capacity += c if c < k else k
        total = 0
        if capacity >= rem.bit_count() and sizes[0] <= levels:
            comp = self.poset.comp
            forced = self._forced(rem) if k == 3 and blocks is not None else ()
            v = (rem & -rem).bit_length() - 1
            rest = rem ^ (1 << v)
            for i, s in enumerate(sizes):
                if i and sizes[i - 1] == s:
                    continue
                tail = sizes[:i] + sizes[i + 1 :]
                total += self._grow(rem, tail, 1 << v, rest & comp[v], s - 1, blocks, forced)
                if blocks is not None and total:
                    return total
        self._memo[key] = total
        return total

    def _forced(self, rem: int) -> list[tuple[int, int, int]]:
        """The masks of ``find``'s three-block look-ahead: for each level
        that holds exactly three elements x, y, z of ``rem``, the elements
        of ``rem`` incomparable to both y and z (x among them), likewise
        for y and for z.  A level whose masks are its own elements is left
        out, since the next state's capacity test refutes a block that
        misses it."""
        comp = self.poset.comp
        forced = []
        for hm in self._height_masks:
            level = rem & hm
            if level.bit_count() == 3:
                x = level & -level
                y = level ^ x
                y &= -y
                z = level ^ x ^ y
                ix, iy, iz = (rem & ~comp[e.bit_length() - 1] for e in (x, y, z))
                masks = (iy & iz, ix & iz, ix & iy)
                if masks != (x, y, z):
                    forced.append(masks)
        return forced

    def _splits(self, rem: int, a: int) -> bool:
        """Whether ``rem`` splits into two chains, one of them of ``a``
        elements.  Chains are the independent sets of the incomparability
        graph, so it must be bipartite, and since each connected component
        has exactly two 2-colourings, choosing one side of each must total
        ``a``.  Each component is 2-coloured by breadth-first layers: it is
        bipartite exactly when no edge joins two elements of one layer."""
        comp = self.poset.comp
        reach = 1  # bit t set: some choice of sides totals t elements
        left = rem
        while left:
            layer = seen = left & -left
            here, there = 1, 0  # this layer's side of the component, the other
            while layer:
                nbrs = 0
                rest = layer
                while rest:
                    low = rest & -rest
                    rest ^= low
                    nbrs |= rem & ~comp[low.bit_length() - 1]
                if nbrs & layer:
                    return False
                layer = nbrs & ~seen
                seen |= layer
                here, there = there + layer.bit_count(), here
            left &= ~seen
            reach = (reach << here) | (reach << there)
        return bool(reach >> a & 1)

    def _grow(
        self, rem: int, tail: tuple[int, ...], block: int, cand: int, need: int, blocks, forced
    ) -> int:
        if forced:
            # The finished block lies inside block | cand: prune when, on
            # some level, it can contain none of the three masks.
            lost = rem & ~(block | cand)
            for mx, my, mz in forced:
                if mx & lost and my & lost and mz & lost:
                    return 0
        if need == 0:
            if blocks is None:
                return self._walk(rem & ~block, tail, None)
            blocks.append(block)
            found = self._walk(rem & ~block, tail, blocks)
            if not found:
                blocks.pop()
            return found
        if cand.bit_count() < need:
            return 0
        comp = self.poset.comp
        total = 0
        while cand:
            low = cand & -cand
            cand ^= low
            w = low.bit_length() - 1
            total += self._grow(rem, tail, block | low, cand & comp[w], need - 1, blocks, forced)
            if blocks is not None and total:
                return total
        return total


# ---------------------------------------------------------------------------
# Closed form for products of two chains


def staircase_type(m: int, n: int) -> Partition:
    """(m+n-1, m+n-3, ..., m-n+1): the dominance-maximal chain-partition type
    of the m x n product.  Its first n-1 parts are the staircase forced on
    the types the closed form applies to."""
    if not m >= n >= 1:
        raise DomainError(f"need m >= n >= 1, got ({m}, {n})")
    return tuple(m + n - 2 * i + 1 for i in range(1, n + 1))


def closed_route(poset: Poset, partition, method: str) -> tuple[int, int] | None:
    """Route choice for a chain-partition count or a Schur coefficient: the
    sides (m, n), m >= n, for the closed form, None for backtracking search.

    The closed form applies when the poset was built as a product of at most
    two chains (``chain:n`` is n x 1, ``bool:1`` is 2 x 1, ``bool:2`` is
    2 x 2) and the partition starts with the staircase m+n-1, m+n-3, ...,
    m-n+3.  ``method`` is ``brute`` (always search), ``closed`` (the closed
    form, which must apply) or ``auto`` (the closed form whenever it
    applies).  The size is checked first, so a partition that does not fill
    the poset fails alike under every method."""
    lam = filling_partition(partition, len(poset))
    if method not in ("auto", "brute", "closed"):
        raise DomainError(f"unknown method {method!r}")
    lengths = chain_lengths(poset.spec)
    sides = None
    if method != "brute" and lengths and len(lengths) <= 2:
        m, n = sorted(lengths + (1,), reverse=True)[:2]
        if lam[: n - 1] == staircase_type(m, n)[:-1]:
            sides = (m, n)
    if method == "closed" and sides is None:
        raise DomainError(
            "closed form needs a product of two chains and a staircase-prefixed partition"
        )
    return sides


def _exact(num: int, den: int) -> int:
    out, r = divmod(num, den)
    if r:
        raise InternalInvariantError(f"{num} is not divisible by {den}")
    return out


def scp_closed_form(m: int, n: int, type_) -> int:
    """Closed-form chain-partition count of the m x n product (m >= n >= 1)
    for a type that starts with the staircase m+n-1, m+n-3, ..., m-n+3.

    The count is a weak-composition sum over the tail, the parts after the
    staircase: for each part size k of the tail (multiplicity alpha_k), a
    weak composition distributes its copies among the n threads, weighted
    by the multinomial of that composition; thread j then contributes L_j!,
    the factorial of its load (the sum of its assigned sizes).  The total
    is scaled by (n-1)! and divided — exactly — by the product of
    k!^alpha_k.

    The multinomials count the ways to assign the labelled tail blocks with
    those compositions, so the sum equals the sum of prod L_j! over every
    assignment of labelled blocks to threads.  That sum is evaluated by
    placing the blocks one at a time, over states that are the sorted
    nonzero thread loads: a block of size s on one of the c threads of load
    L multiplies the weight by c * (L+s)!/L!, and on one of the e empty
    threads by e * s!.
    """
    pre = staircase_type(m, n)[:-1]
    lam = filling_partition(type_, m * n)
    if lam[: n - 1] != pre:
        raise DomainError(f"type {lam} does not start with the staircase {pre}")
    tail = lam[n - 1 :]
    states: dict[tuple[int, ...], int] = {(): 1}
    for s in tail:
        grown: dict[tuple[int, ...], int] = {}
        for loads, weight in states.items():
            empty = n - len(loads)
            if empty:
                key = tuple(sorted(loads + (s,)))
                grown[key] = grown.get(key, 0) + weight * empty * math.factorial(s)
            for i, load in enumerate(loads):
                if i and loads[i - 1] == load:
                    continue
                key = tuple(sorted(loads[:i] + (load + s,) + loads[i + 1 :]))
                step = loads.count(load) * math.perm(load + s, s)
                grown[key] = grown.get(key, 0) + weight * step
        states = grown
    total = sum(states.values()) * math.factorial(n - 1)
    denom = 1
    for k, alpha in multiplicity_profile(tail):
        denom *= math.factorial(k) ** alpha
    return _exact(total, denom)


# ---------------------------------------------------------------------------
# The six witness contents and their closed-form counts


WITNESS_CASE_HEIGHTS = {"T1": 3, "T2": 2, "T3": 2, "T4": 1, "T5": 1, "T6": 0}

# The closed forms take n!, which costs 0.1 s at n = 20,000 and 0.8 s at
# 50,000; k needs no cap, since only polynomials in k are taken.
WITNESS_MAX_N = 30000


def check_witness_range(n: int, k: int) -> None:
    """The range of Theorem 4.1's witness: k >= 5 and n >= 2, with n at
    most WITNESS_MAX_N."""
    if k < 5 or n < 2:
        raise DomainError(f"need k >= 5 and n >= 2, got ({n}, {k})")
    if n > WITNESS_MAX_N:
        raise DomainError(f"n exceeds the witness limit of {WITNESS_MAX_N}")


def staircase_delta(n: int, k: int) -> Partition:
    """(2n+k-1, 2n+k-3, ..., k+3): the length-(n-1) forced prefix for the
    (n+k) x n product."""
    check_witness_range(n, k)
    return staircase_type(n + k, n)[:-1]


def proof_case_closed_forms(n: int, k: int) -> dict[str, int]:
    """Chain-partition counts of the (n+k) x n product for the six witness
    contents, from their closed polynomial forms (with the small-k branches
    where the tail multiplicities change)."""
    check_witness_range(n, k)
    nf = math.factorial(n)
    t1 = nf * (n + _exact(k * k + k - 2, 2))
    t2 = nf * (n * n + (2 * k - 1) * n + (k * k - k))
    if k == 5:
        t3 = nf * (n + 19)
    else:
        t3 = nf * (n + _exact(k**3 - k - 6, 6))
    t4 = nf * (n * n + _exact(k * k + k - 2, 2) * n + _exact(k**3 - k * k - 2 * k, 2))
    if k == 6:
        t5 = nf * (n * n + 25 * n + 114)
    else:
        t5 = nf * (
            n * n
            + _exact(k**3 - 3 * k * k + 8 * k - 6, 6) * n
            + _exact(k**4 - 3 * k**3 + 2 * k * k - 6 * k, 6)
        )
    if k == 5:
        t6 = nf * (n * n + 15 * n + 74)
    else:
        t6 = nf * (
            n * n
            + (k * k - 3 * k + 5) * n
            + _exact(k**4 - 2 * k**3 - 5 * k * k + 14 * k - 24, 4)
        )
    return {"T1": t1, "T2": t2, "T3": t3, "T4": t4, "T5": t5, "T6": t6}
