"""Integer partitions, their multiplicities, and the dominance order.

Partitions are plain tuples of weakly decreasing positive ints; ``()`` is the
unique partition of 0.  Everything here is exact integer arithmetic.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import defaultdict
from collections.abc import Iterable, Iterator, Sequence

from .errors import DomainError, DslParseError

Partition = tuple[int, ...]


def as_partition(parts: Iterable[int]) -> Partition:
    """Validate ``parts`` as a partition (weakly decreasing, positive)."""
    p = tuple(int(x) for x in parts)
    for i, x in enumerate(p):
        if x < 1:
            raise DomainError(f"partition parts must be positive, got {x}")
        if i and p[i - 1] < x:
            raise DomainError(f"parts must be weakly decreasing, got {p}")
    return p


def sorted_partition(parts: Iterable[int]) -> Partition:
    """Sort nonnegative entries into a partition, dropping zeros."""
    p = sorted((int(x) for x in parts), reverse=True)
    if p and p[-1] < 0:
        raise DomainError("partition parts must be nonnegative")
    return tuple(x for x in p if x > 0)


def parse_partition(text: str) -> Partition:
    """Parse the comma-separated text form; the empty string is ``()``.

    Unparseable text raises :class:`DslParseError` with the byte offset of
    the offending piece; text that parses but is not weakly decreasing and
    positive is a plain domain error.
    """
    if text == "":
        return ()
    parts = []
    offset = 0
    for piece in text.split(","):
        if not (piece.isascii() and piece.isdigit()):
            raise DslParseError(f"bad partition part {piece!r}", offset)
        try:
            parts.append(int(piece))
        except ValueError:  # over the interpreter's limit on digits
            raise DslParseError(f"partition part too long: {len(piece)} digits", offset) from None
        offset += len(piece) + 1
    return as_partition(parts)


def format_partition(p: Partition) -> str:
    """Inverse of :func:`parse_partition`."""
    return ",".join(str(x) for x in p)


def dominance_leq(mu: Partition, lam: Partition) -> bool:
    """True when ``mu`` is dominated by ``lam``: every prefix sum of ``mu``
    is at most the corresponding prefix sum of ``lam`` (zero-padded).

    Both arguments must be partitions of the same total.
    """
    mu = as_partition(mu)
    lam = as_partition(lam)
    if sum(mu) != sum(lam):
        raise DomainError(f"{mu} and {lam} have different totals")
    acc_mu = acc_lam = 0
    for k in range(len(mu)):
        acc_mu += mu[k]
        acc_lam += lam[k] if k < len(lam) else 0
        if acc_mu > acc_lam:
            return False
    return True


def partitions_of(n: int, bound: Sequence[int] = ()) -> Iterator[Partition]:
    """All partitions of ``n`` whose k-th prefix sum is at most
    ``bound[k-1]``, in descending lexicographic order; parts past the end
    of ``bound`` are not capped.  ``(m,)`` caps every part at m, and a
    poset's chain shape admits exactly the types inside it.

    Each partition follows from the one before: lower its rightmost part
    above 1 by one and refill the rest greedily, each part as large as the
    one before it, the remainder and the bound allow.  Since ``bound``
    strictly increases, a part of 1 fits wherever the prefix before it
    does, so every refill completes; a first bound below 1 admits no
    partition of a positive ``n``."""
    if n < 0:
        raise DomainError("cannot partition a negative integer")
    if any(a >= b for a, b in zip(bound, bound[1:])):
        raise DomainError(f"prefix-sum bound must strictly increase, got {tuple(bound)}")
    caps = [min(b, n) for b in bound] + [n] * n
    parts: list[int] = []
    total, part = 0, n
    while True:
        while total < n:
            cap = caps[len(parts)] - total
            if cap < part:
                part = cap
                if part < 1:
                    return
            parts.append(part)
            total += part
        yield tuple(parts)
        while parts and parts[-1] == 1:
            parts.pop()
            total -= 1
        if not parts:
            return
        parts[-1] -= 1
        part = parts[-1]
        total -= 1


def multiplicity_profile(lam: Partition) -> tuple[tuple[int, int], ...]:
    """Part sizes with multiplicities, ascending by size: ((k, alpha_k), ...)."""
    lam = as_partition(lam)
    pairs: list[tuple[int, int]] = []
    for part in sorted(lam):
        if pairs and pairs[-1][0] == part:
            pairs[-1] = (part, pairs[-1][1] + 1)
        else:
            pairs.append((part, 1))
    return tuple(pairs)


def symmetry_factor(lam: Partition) -> int:
    """Product of ``alpha_k!`` over the multiplicities of ``lam``; the number
    of orderings of equal-size blocks."""
    out = 1
    for _, count in multiplicity_profile(lam):
        out *= math.factorial(count)
    return out


def rearrangement_count(lam: Partition, length: int) -> int:
    """Number of distinct length-``length`` vectors whose nonzero entries are
    a rearrangement of ``lam`` (the monomial basis evaluated at that many
    ones).  Zero when ``lam`` has more parts than ``length``."""
    lam = as_partition(lam)
    if len(lam) > length:
        return 0
    out = math.factorial(length) // math.factorial(length - len(lam))
    return out // symmetry_factor(lam)


class PartitionIds:
    """Small ints for the partitions one computation builds, so that its
    dicts are keyed by int instead of by tuple.  ``sizes[i]`` holds the
    parts of id i in ascending order, and id 0 is ``()``.  ``added[k]``
    maps an id to the id with one more part k; callers look there first
    and call :meth:`insert` on a miss, so each insertion builds a tuple
    once.  Two routes to one multiset get one id.  An interner lives for
    one call and is not kept across calls."""

    def __init__(self) -> None:
        self.sizes: list[Partition] = [()]
        self.added: defaultdict[int, dict[int, int]] = defaultdict(dict)
        self._ids: dict[Partition, int] = {(): 0}

    def insert(self, i: int, k: int) -> int:
        """The id of partition ``i`` with one more part ``k``, recorded in
        ``added[k]``."""
        parts = self.sizes[i]
        at = bisect_left(parts, k)
        grown = parts[:at] + (k,) + parts[at:]
        j = self._ids.setdefault(grown, len(self.sizes))
        if j == len(self.sizes):
            self.sizes.append(grown)
        self.added[k][i] = j
        return j

    def partition(self, i: int) -> Partition:
        """The partition of id ``i``, largest part first."""
        return self.sizes[i][::-1]
