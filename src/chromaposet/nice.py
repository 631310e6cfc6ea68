"""Deciding the nice property: which chain-partition types a poset achieves,
whether that set is closed downward in dominance, and machine-checkable
certificates for the positive answers.

The existence search is ``find`` on the one chain-partition engine,
``counting.ChainPartitionCounter``, with its memo shared across the types of
a scan.  A niceness scan generates only the types that lie inside the
poset's Greene–Kleitman shape, and searches only those that neither a merge
nor an exchange settles: splitting a chain gives two chains, so a type is
achieved whenever merging two of its parts gives an achieved type, and
moving an element to a chain it is comparable with throughout keeps both
chains (the exchange argument of Greene and Kleitman, JCTA 20, 1976).  One
lookup usually settles the merges: every merge of a type dominates the
merge of its two smallest parts, so when that one lies outside the shape
they all do.  Certificates are checked by
``ChainPartitionCertificate.validate``, which uses only the raw order
relation.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

from .counting import ChainPartitionCounter, SearchStats, staircase_type
from .errors import DomainError, InternalInvariantError
from .partitions import Partition, as_partition, dominance_leq, partitions_of
from .posets import Poset, Product, build_poset, check_limit, OrdinalSum, iter_bits


# Largest poset ``is_nice`` takes unless told otherwise.
NICENESS_LIMIT = 20


@dataclass(frozen=True)
class ChainPartitionCertificate:
    """An ordered list of blocks (element labels) claimed to be a chain
    partition of the poset of the given type."""

    poset: Poset
    blocks: tuple[tuple[str, ...], ...]
    type: Partition

    def validate(self) -> None:
        """Re-check the claim from scratch: blocks disjoint, covering, each
        pairwise comparable, sizes matching the type.  Uses only the raw
        order relation, none of the search machinery."""
        poset = self.poset
        seen: set[str] = set()
        for block in self.blocks:
            for label in block:
                if label in seen:
                    raise DomainError(f"element {label!r} appears twice")
                seen.add(label)
            for x, y in itertools.combinations(block, 2):
                i, j = poset.index_of(x), poset.index_of(y)
                if not (poset.up[i] >> j & 1 or poset.up[j] >> i & 1):
                    raise DomainError(f"{x!r} and {y!r} are incomparable")
        if seen != set(poset.labels):
            raise DomainError("blocks do not cover the poset")
        sizes = tuple(sorted((len(b) for b in self.blocks), reverse=True))
        if sizes != self.type:
            raise DomainError(f"block sizes {sizes} do not match type {self.type}")

    def to_jsonable(self) -> dict:
        return {
            "type": ",".join(str(x) for x in self.type),
            "blocks": [list(block) for block in self.blocks],
        }


@dataclass
class NiceVerdict:
    nice: bool
    witness: tuple[Partition, Partition] | None = None
    witness_certificate: ChainPartitionCertificate | None = None
    achieved_types: tuple[Partition, ...] = ()
    nodes: int = 0


# The benchmark's tracer wraps ``find`` under this name; the package uses ChainPartitionCounter.
ChainPartitionSearcher = ChainPartitionCounter


def _certificate_from_masks(
    poset: Poset, masks: list[int], type_: Partition
) -> ChainPartitionCertificate:
    heights = {i: poset.dn[i].bit_count() for i in range(len(poset))}
    ordered = sorted(masks, key=lambda b: (-b.bit_count(), b))
    blocks = tuple(
        tuple(poset.labels[i] for i in sorted(iter_bits(b), key=lambda i: heights[i]))
        for b in ordered
    )
    cert = ChainPartitionCertificate(poset, blocks, type_)
    cert.validate()
    return cert


def chain_partition_exists(
    poset: Poset,
    type_,
    node_budget: int | None = None,
    stats: SearchStats | None = None,
) -> ChainPartitionCertificate | None:
    """A validated certificate of the given type, or None when the exhaustive
    (pruned) search proves none exists."""
    lam = as_partition(type_)
    searcher = ChainPartitionCounter(poset, node_budget)
    masks = searcher.find(lam)
    if stats is not None:
        stats.nodes += searcher.nodes
    if masks is None:
        return None
    return _certificate_from_masks(poset, masks, lam)


def is_nice(
    poset: Poset,
    max_elements: int = NICENESS_LIMIT,
    node_budget: int | None = None,
) -> NiceVerdict:
    """Compute the achievable chain-partition types, in descending
    lexicographic order (``achieved_types``), and decide whether they are
    closed downward in dominance.

    The witness of a failure is the first pair (achieved type, unachieved
    dominated type) in descending lexicographic order over both coordinates,
    and its certificate is the first partition of that type in ``find``'s
    search order.  Only the types inside the poset's Greene–Kleitman shape
    (``Poset.chain_shape``) are generated, since no chain partition has a
    prefix sum above it.  One of them is searched only when nothing cheaper
    settles it: a merge of two parts into an achieved type, or an exchange
    (``_exchange``) that reaches it from a partition already found with as
    many blocks, newest first.  The merges cost one lookup unless it fails:
    the merge of the two smallest parts (``_smallest_merge``) is dominated
    by every other merge, and the generated types are closed downward in
    dominance, so when it was not generated no merge was, and when it is
    achieved so is the type.  Only when it was generated and failed are the
    other merges looked up.  Until some type fails, a type with more than
    w parts (w the width, at least 2) whose part w-1 is at least the sum of
    its two smallest needs no lookup: that merge keeps its first w-1 parts,
    so it lies inside the shape, was generated, and was achieved.
    ``nodes`` counts the search nodes of the types
    that were searched, and types settled otherwise cost none.
    """
    n = len(poset)
    check_limit(n, max_elements, "niceness")
    searcher = ChainPartitionCounter(poset, node_budget)
    # Descending lex order decides every merge of a type before the type; a
    # merge above the shape is never generated, and never achieved.
    achieved: dict[Partition, bool] = {}
    masks: dict[Partition, list[int]] = {}
    # Block lists of every achieved type that ``find`` or the exchange
    # settled, grouped by length, oldest first.
    known: dict[int, list[list[int]]] = {}
    failed: list[Partition] = []
    # A type with a prefix sum above the Greene–Kleitman shape has no chain
    # partition, and since dominance only lowers prefix sums no achieved
    # type dominates it, so only the types inside the shape are generated.
    shape = poset.chain_shape()
    w = max(len(shape), 2)
    for lam in partitions_of(n, shape):
        # The smallest merge keeps lam's first w-1 parts, and its later
        # prefix sums are at most n = c_w, so it lies inside the shape: it
        # was decided before lam, and while nothing has failed it was achieved.
        if not failed and len(lam) > w and lam[w - 2] >= lam[-1] + lam[-2]:
            settled = True
        else:
            # Every other merge of lam dominates its smallest merge, so when
            # that one lies outside the shape (None) so do they all.
            settled = achieved.get(_smallest_merge(lam)) if len(lam) > 1 else None
        if settled is False:
            settled = any(achieved.get(merged) for merged in _merges(lam))
        if settled:
            achieved[lam] = True
        else:
            tried = (_exchange(poset, b, lam) for b in reversed(known.get(len(lam), ())))
            found = next(filter(None, tried), None)
            if found is None:
                found = searcher.find(lam)
                if found is not None:
                    masks[lam] = found
            achieved[lam] = found is not None
            if found is None:
                failed.append(lam)
            else:
                known.setdefault(len(lam), []).append(found)
    types = tuple(lam for lam, ok in achieved.items() if ok)
    if failed:
        # mu is dominated by lam when no prefix sum of mu exceeds lam's.
        # Pairing the sums with zip is exact: past the end of lam its sums
        # stay at n, and if mu is the shorter one its last sum, n, meets one
        # of lam's below n.
        bars = [tuple(itertools.accumulate(mu)) for mu in failed]
        for lam in types:
            top = tuple(itertools.accumulate(lam))
            for mu, bar in zip(failed, bars):
                if all(map(operator.le, bar, top)):
                    found = masks.get(lam) or searcher.find(lam)
                    cert = _certificate_from_masks(poset, found, lam)
                    return NiceVerdict(False, (lam, mu), cert, types, searcher.nodes)
    return NiceVerdict(True, achieved_types=types, nodes=searcher.nodes)


def _exchange(poset: Poset, blocks: list[int], lam: Partition) -> list[int] | None:
    """Blocks of type ``lam`` made from a chain partition with ``len(lam)``
    blocks by moving elements between chains, or None when no move is left.

    The blocks, largest first, are paired with the parts of ``lam``.  Each
    move takes the first pair (i, j) where block i is longer than its part,
    block j is shorter than its part, and some element of block i is
    comparable to every element of block j; the lowest such element moves
    to block j.  Both blocks stay chains, and every move brings two sizes
    one closer to their parts, so the moves stop."""
    blocks = sorted(blocks, key=int.bit_count, reverse=True)
    while True:
        long = [i for i, b in enumerate(blocks) if b.bit_count() > lam[i]]
        if not long:
            return blocks
        short = [j for j, b in enumerate(blocks) if b.bit_count() < lam[j]]
        for i, j in itertools.product(long, short):
            movable = blocks[i]
            for y in iter_bits(blocks[j]):
                movable &= poset.comp[y]
            if movable:
                low = movable & -movable
                blocks[i] ^= low
                blocks[j] |= low
                break
        else:
            return None


def _smallest_merge(lam: Partition) -> Partition:
    """The merge of the two smallest parts of ``lam``, which every other
    merge dominates: merging x with y' <= y instead of with y turns the pair
    {x + y, y'} into {x + y', y}, which the first pair majorizes."""
    merged = lam[-2] + lam[-1]
    i = len(lam) - 2
    while i and lam[i - 1] < merged:
        i -= 1
    return lam[:i] + (merged,) + lam[i:-2]


def _merges(lam: Partition):
    """The types made by merging two parts of ``lam`` into one, each once.
    Every one is lexicographically larger than ``lam``."""
    for i in range(len(lam)):
        if i and lam[i - 1] == lam[i]:
            continue
        for j in range(i + 1, len(lam)):
            if j > i + 1 and lam[j - 1] == lam[j]:
                continue
            rest = lam[:i] + lam[i + 1 : j] + lam[j + 1 :]
            yield tuple(sorted(rest + (lam[i] + lam[j],), reverse=True))


# ---------------------------------------------------------------------------
# Constructive results for ordinal sums of products of two chains


def ordinal_sum_chain_partition(
    p: int, q: int, m: int, n: int, mu
) -> ChainPartitionCertificate:
    """Constructive chain partition of the ordinal sum p + (m x n) + q for
    any type mu dominated by the shifted staircase.

    The recursion t_j = max(0, prefix(mu, j) - prefix(lam, j) - sum of
    earlier t) decides how many elements of the added chains each block
    absorbs; the remainder nu = mu - t is again dominated by the staircase,
    so the product part can be partitioned by search, and block j is topped
    up with t_j consecutive added-chain elements.
    """
    if p < 0 or q < 0:
        raise DomainError("added chain lengths must be >= 0")
    lam = staircase_type(m, n)
    lam_tilde = (lam[0] + p + q,) + lam[1:]
    mu = as_partition(mu)
    if not dominance_leq(mu, lam_tilde):
        raise DomainError(f"{mu} is not dominated by {lam_tilde}")
    t: list[int] = []
    bars = itertools.accumulate(lam + (0,) * len(mu))
    for top, bar in zip(itertools.accumulate(mu), bars):
        t.append(max(0, top - bar - sum(t)))
    nu = tuple(part - tj for part, tj in zip(mu, t))
    if sum(t) != p + q or any(x < 0 for x in nu):
        raise InternalInvariantError(f"bad absorption split t={t} for mu={mu}")
    if list(nu) != sorted(nu, reverse=True):
        raise InternalInvariantError(f"nu={nu} is not a partition")
    positive = tuple(x for x in nu if x)
    if not dominance_leq(positive, lam):
        raise InternalInvariantError(f"nu={positive} escapes the staircase {lam}")

    sum_poset = build_poset(OrdinalSum(p, Product((m, n)), q))
    # Elements p .. p+mn-1 are the product, with its order and labels.
    inner = chain_partition_exists(sum_poset.induced(((1 << m * n) - 1) << p), positive)
    if inner is None:
        raise InternalInvariantError(f"no product partition of type {positive}")
    # The added chains bottom up: the first p below the product, the rest above.
    extras = sum_poset.labels[:p] + sum_poset.labels[p + m * n :]
    blocks, cursor = [], 0
    for tj, base in itertools.zip_longest(t, inner.blocks, fillvalue=()):
        take = extras[cursor : cursor + tj]
        below = max(0, p - cursor)
        cursor += tj
        blocks.append(take[:below] + base + take[below:])
    cert = ChainPartitionCertificate(sum_poset, tuple(blocks), mu)
    cert.validate()
    return cert
