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
they all do.  The first type scanned is the shape's own, which dominates
every other; when it is achieved and a later type fails, that pair is the
witness, and the scan stops there until its lists are read.  Certificates
are checked by ``ChainPartitionCertificate.validate``, which uses only the
raw order relation.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

from .counting import ChainPartitionCounter, staircase_type
from .errors import DomainError, InternalInvariantError
from .partitions import Partition, _heads, as_partition, dominance_leq, partitions_of
from .posets import NICENESS_LIMIT, Poset, Product, build_poset, check_limit, OrdinalSum, iter_bits


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


@dataclass(frozen=True, kw_only=True)
class NiceVerdict:
    """A niceness decision: the first witness (achieved type, unachieved
    type it dominates) and a certificate of its first type, the search
    nodes up to the decision, the Greene–Kleitman ``shape`` as prefix sums,
    and the types inside it with no chain partition, in descending
    lexicographic order (``unachieved_types``).  Every other type inside
    the shape is achieved (``achieved_types``).  A scan that stopped at its
    witness runs to its end on the first read of either list."""

    witness: tuple[Partition, Partition] | None = None
    witness_certificate: ChainPartitionCertificate | None = None
    nodes: int = 0
    shape: tuple[int, ...] = ()
    # The unachieved types: a tuple, or the ones found chained to the rest
    # of the scan.
    _unachieved: Iterable[Partition] = field(default=(), repr=False, compare=False)

    @property
    def nice(self) -> bool:
        return self.witness is None

    @functools.cached_property
    def unachieved_types(self) -> tuple[Partition, ...]:
        # A scan that raised (past its budget) has ended, and its end is not
        # the end of the list: a second read raises instead.
        rest = self._unachieved
        object.__setattr__(self, "_unachieved", None)
        if rest is None:
            raise DomainError("the niceness scan stopped at its budget")
        return tuple(rest)

    @functools.cached_property
    def achieved_types(self) -> tuple[Partition, ...]:
        # The shape's last prefix sum is the size of the poset.
        n = self.shape[-1] if self.shape else 0
        unachieved = set(self.unachieved_types)
        return tuple(lam for lam in partitions_of(n, self.shape) if lam not in unachieved)


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


def chain_partition_exists(poset: Poset, type_) -> ChainPartitionCertificate | None:
    """A validated certificate of the given type, or None when the exhaustive
    (pruned) search proves none exists."""
    lam = as_partition(type_)
    masks = ChainPartitionCounter(poset).find(lam)
    if masks is None:
        return None
    return _certificate_from_masks(poset, masks, lam)


def is_nice(
    poset: Poset,
    max_elements: int = NICENESS_LIMIT,
    node_budget: int | None = None,
) -> NiceVerdict:
    """Decide whether the achievable chain-partition types are closed
    downward in dominance, and list the types inside the poset's
    Greene–Kleitman shape (``Poset.chain_shape``) that are not achieved;
    no chain partition has a prefix sum above that shape.

    The witness of a failure is the first pair (achieved type, unachieved
    dominated type) in descending lexicographic order over both coordinates,
    and its certificate is the first partition of that type in ``find``'s
    search order.  The types are scanned in descending lexicographic order
    (``_scan``), and the first one is the shape's own type T, its
    differences, which dominates every type inside the shape.  So when some
    other type fails first, T is achieved, that failure is the first type
    it dominates, and the pair is the witness: the scan stops there.  When
    T fails, or nothing does, the scan runs to its end.  A stopped scan
    resumes on the first read of ``unachieved_types`` or
    ``achieved_types``, with the same search, memo and budget, so the lists
    are always complete.  ``nodes`` counts the search nodes up to the
    verdict.  ``node_budget`` bounds the search nodes and, apart from them,
    the types the scan takes: past either, DomainError, from ``is_nice`` or
    from the read that resumes the scan.
    """
    n = len(poset)
    check_limit(n, max_elements, "niceness")
    searcher = ChainPartitionCounter(poset, node_budget)
    masks: dict[Partition, list[int]] = {}
    # A type with a prefix sum above the Greene–Kleitman shape has no chain
    # partition, and since dominance only lowers prefix sums no achieved
    # type dominates it, so only the types inside the shape are scanned.
    shape = poset.chain_shape()
    scan = _scan(poset, shape, searcher, masks)
    unachieved = list(itertools.islice(scan, 1))
    own = tuple(map(operator.sub, shape, (0,) + shape))
    if unachieved and unachieved[0] != own:
        witness = (own, unachieved[0])
    else:
        unachieved += scan
        witness = _first_witness(n, shape, unachieved) if unachieved else None
    if witness is None:
        return NiceVerdict(nodes=searcher.nodes, shape=shape, _unachieved=tuple(unachieved))
    lam = witness[0]
    cert = _certificate_from_masks(poset, masks.get(lam) or searcher.find(lam), lam)
    return NiceVerdict(witness=witness, witness_certificate=cert, nodes=searcher.nodes,
                       shape=shape, _unachieved=itertools.chain(unachieved, scan))


def _scan(
    poset: Poset, shape: tuple[int, ...], searcher: ChainPartitionCounter,
    masks: dict[Partition, list[int]],
) -> Iterator[Partition]:
    """The types inside ``shape`` with no chain partition, in descending
    lexicographic order, each yielded as the scan meets it; the blocks of
    the types ``find`` settles go into ``masks``.

    A type is searched only when nothing cheaper settles it: a merge of two
    parts into an achieved type, or an exchange (``_exchange``) that reaches
    it from a partition already found with as many blocks, newest first.
    Every merge dominates the merge of the two smallest parts
    (``_smallest_merge``), so when that merge lies outside the shape no
    merge is achieved.  One rule settles every type: a merge is achieved
    when it lies inside the shape and has not failed.  Until some type
    fails, the types it settles by their part sizes alone are not even
    generated (``_open_types``); from the first failure on, the scan walks
    every type inside the shape.  Types settled otherwise cost no node.
    The searcher's node budget also bounds the types the scan takes."""
    n, budget = len(poset), searcher.node_budget
    # Block lists of every achieved type that ``find`` or the exchange
    # settled, grouped by length, oldest first.
    known: dict[int, list[list[int]]] = {}

    def search(lam: Partition) -> bool:
        tried = (_exchange(poset, b, lam) for b in reversed(known.get(len(lam), ())))
        found = next(filter(None, tried), None)
        if found is None:
            found = searcher.find(lam)
            if found is None:
                return False
            masks[lam] = found
        known.setdefault(len(lam), []).append(found)
        return True

    unachieved: list[Partition] = []

    def achieved(mu: Partition) -> bool:
        # Descending lex order decides every merge of a type before the type.
        return mu not in unachieved and all(map(operator.le, itertools.accumulate(mu), shape))

    types = _open_types(n, shape)
    for taken in itertools.count():
        if budget is not None and taken > budget:
            raise DomainError(f"niceness scan exceeded {budget} types")
        if (lam := next(types, None)) is None:
            return
        # Every other merge of lam dominates its smallest merge, so unless that
        # one failed, lam is settled exactly when that one lies inside the shape.
        if len(lam) > 1:
            merged = _smallest_merge(lam)
            if achieved(merged) or merged in unachieved and any(map(achieved, _merges(lam))):
                continue
        if not search(lam):
            if not unachieved:
                # From the first failure on, every type inside the shape is
                # walked; tuples compare in the scan's lexicographic order.
                types = itertools.dropwhile(lam.__le__, partitions_of(n, shape))
            unachieved.append(lam)
            yield lam


def _first_witness(
    n: int, shape: tuple[int, ...], unachieved: list[Partition]
) -> tuple[Partition, Partition] | None:
    """The first pair (achieved type, unachieved type it dominates) inside
    ``shape``, given every unachieved type in descending lexicographic
    order, or None when the achieved types are closed downward."""
    # mu is dominated by lam when no prefix sum of mu exceeds lam's.
    # Pairing the sums with zip is exact: past the end of lam its sums
    # stay at n, and if mu is the shorter one its last sum, n, meets one
    # of lam's below n.
    bars = [tuple(itertools.accumulate(mu)) for mu in unachieved]
    for lam in partitions_of(n, shape):
        if lam in unachieved:
            continue
        top = tuple(itertools.accumulate(lam))
        for mu, bar in zip(unachieved, bars):
            if all(map(operator.le, bar, top)):
                return lam, mu
    return None


def _open_types(n: int, shape: Partition) -> Iterator[Partition]:
    """The types inside a chain shape (prefix sums that strictly increase
    to ``n``) that the no-lookup rule leaves open, in descending
    lexicographic order.  With w the larger of ``len(shape)`` and 2, the
    rule settles a type of more than w parts whose part w-1 is at least the
    sum of its two smallest parts: merging those two keeps the first w-1
    parts, so the merge lies inside the shape and comes earlier in the scan.

    The first w-1 parts are the heads of ``partitions._heads``, the walk
    that ``partitions_of`` runs; only they are capped, since the shape's
    w-th prefix sum is n.  With a the last of them and r left, the open
    completions are (r,) when r <= a, and otherwise those whose parts
    before the last exceed a/2 and whose last two sum past a
    (``_completions``); for a <= 2 that is the one made of parts a and at
    most one 1.  The head of n = 0 is empty, and so is its one type."""
    for head in _heads(n, shape, max(len(shape), 2) - 1):
        a, rest = head[-1] if head else 0, n - sum(head)
        if rest <= a:
            yield head + (rest,) if rest else head
        elif a <= 2:
            yield head + (a,) * (rest // a) + (1,) * (rest % a)
        else:
            for tail in _completions(rest, a, a):
                yield head + tail


def _completions(rest: int, prev: int, a: int) -> list[Partition]:
    """The open completions of ``rest`` > a after a part ``prev``, in
    descending lexicographic order, where a is the last of the first w-1
    parts and ``prev`` is a or a later part above a/2: at least two parts,
    each at most the one before it, those before the last above a/2, and
    the last two summing past a.  A part q before the last is tried only
    when what is left can follow it: as the last part, or as k >= 1 more
    parts in (a/2, q] and a last one, which together reach every sum from
    (k-1)(a//2 + 1) + a + 1 to (k+1)q."""
    low = a // 2 + 1
    out = []
    for q in range(prev, low - 1, -1):
        left = rest - q
        if left <= q:
            out.append((q, left))
        elif a < left <= ((left - a - 1) // low + 2) * q:
            out += [(q,) + tail for tail in _completions(left, q, a)]
    return out


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
    """The types made by merging two parts of ``lam`` into one, one per pair
    of parts.  Every one is lexicographically larger than ``lam``."""
    for i, j in itertools.combinations(range(len(lam)), 2):
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
