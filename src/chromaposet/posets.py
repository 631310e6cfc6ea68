"""Finite posets: builders (chains, products of chains, boolean algebras, the
tailed-cube family, ordinal sums), incomparability graphs, and order-theoretic
queries (chains, the levels by height, the Greene–Kleitman chain shape,
distributivity).  The longest chain is the number of levels and the width
is the length of the chain shape.  Every builder poset is a coordinate
poset: integer tuples under the componentwise order, built in one pass
however deeply its ordinal sums nest.

Elements are indexed 0..n-1 in construction order, and every subset is a
bitmask over those indices; labels are human-readable strings used in
certificates and JSON output.  Posets are immutable once built.
"""

from __future__ import annotations

import itertools
import math
from heapq import heappop, heappush
from dataclasses import dataclass

from .errors import DomainError, DslParseError

# The most elements a spec may describe: every up-set is an n-bit mask and
# validation walks the related pairs, so building costs up to n^2 / 2 steps
# (8-14 s of CPU for prod:64x64, prod:2048x2 and chain:4096 on CPython 3.11).
MAX_ELEMENTS = 4096
# The deepest nesting of ordinal sums the DSL parser accepts; counting the
# elements of a spec and printing it recurse once per level.
MAX_SUM_DEPTH = 100
# The most elements the distributive-lattice check takes: it makes one pass
# over the n^2 / 2 pairs on n-bit masks (0.01-0.02 s of CPU for the 256
# elements of bool:8 or prod:16x16, 0.04 s at 512, 0.23 s at 1,024, and
# 7.7, 8.6 and 33 s for bool:12, prod:64x64 and chain:4096; CPython 3.11 on
# a 2-core Xeon).
LATTICE_LIMIT = 256
# The largest posets ``nice.is_nice`` and ``schur.schur_expansion`` take
# unless told otherwise; the CLI's --max-elements defaults.
NICENESS_LIMIT = 20
EXPANSION_LIMIT = 12


def iter_bits(mask: int):
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# ---------------------------------------------------------------------------
# Builder specs


class PosetSpec:
    """Abstract syntax for the poset builder DSL."""

    def dsl(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class Chain(PosetSpec):
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"chain length must be >= 1, got {self.n}")

    def dsl(self) -> str:
        return f"chain:{self.n}"


@dataclass(frozen=True)
class Product(PosetSpec):
    lengths: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "lengths", tuple(int(x) for x in self.lengths))
        if not self.lengths or any(x < 1 for x in self.lengths):
            raise DomainError(f"product factors must be >= 1, got {self.lengths}")

    def dsl(self) -> str:
        return "prod:" + "x".join(str(x) for x in self.lengths)


@dataclass(frozen=True)
class Boolean(PosetSpec):
    rank: int

    def __post_init__(self):
        if self.rank < 1:
            raise DomainError(f"boolean rank must be >= 1, got {self.rank}")

    def dsl(self) -> str:
        return f"bool:{self.rank}"


@dataclass(frozen=True)
class B3(PosetSpec):
    """The 2n+6-element lattice: a 3-cube with two parallel n-element tails."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"tail length must be >= 1, got {self.n}")

    def dsl(self) -> str:
        return f"b3:{self.n}"


@dataclass(frozen=True)
class OrdinalSum(PosetSpec):
    """A p-chain placed entirely below ``inner``, a q-chain entirely above."""

    p: int
    inner: PosetSpec
    q: int

    def __post_init__(self):
        if self.p < 0 or self.q < 0:
            raise DomainError("ordinal-sum chain lengths must be >= 0")
        if not isinstance(self.inner, PosetSpec):
            raise DomainError("ordinal-sum inner part must be a poset spec")

    def dsl(self) -> str:
        return f"sum:{self.p}+{self.inner.dsl()}+{self.q}"


# ---------------------------------------------------------------------------
# Core types


class Poset:
    """Immutable finite poset.

    ``up[i]`` is the bitmask of j with i <= j (including i itself), ``dn[i]``
    the bitmask of j <= i, ``comp[i]`` their union, and ``covers[i]`` the
    bitmask of elements covering i.  The order relation is validated at
    construction.  Heights come from ``levels()`` and the width from
    ``chain_shape()``.
    """

    __slots__ = (
        "labels",
        "up",
        "dn",
        "comp",
        "covers",
        "full_mask",
        "spec",
        "_index",
    )

    def __init__(self, labels: tuple[str, ...], up: tuple[int, ...]):
        n = len(labels)
        if len(set(labels)) != n:
            raise DomainError("element labels must be distinct")
        if len(up) != n:
            raise DomainError("one up-set mask per element required")
        full = (1 << n) - 1
        # One pass over the related pairs i < j builds dn and ORs into beyond
        # what lies strictly above each element above i.  The covers of i are
        # the elements above i outside beyond, and i's up-set is closed
        # exactly when beyond lies inside upi.
        # The errors are raised afterwards in the order of element-by-element
        # checks: antisymmetry, then transitivity, at the first failing i.
        dn = [0] * n
        covers = [0] * n
        open_at = None
        for i in range(n):
            upi = up[i]
            if upi & ~full:
                raise DomainError("up-set mask out of range")
            bit = 1 << i
            if not upi & bit:
                raise DomainError(f"order not reflexive at {labels[i]}")
            dn[i] |= bit
            strict = above = upi ^ bit
            beyond = 0
            while above:
                low = above & -above
                above ^= low
                j = low.bit_length() - 1
                dn[j] |= bit
                beyond |= up[j] ^ low
            if open_at is None and beyond & ~upi:
                open_at = i
            covers[i] = strict & ~beyond
        for i in range(n):
            if up[i] & dn[i] != 1 << i:
                raise DomainError(f"order not antisymmetric at {labels[i]}")
            if i == open_at:
                raise DomainError(f"order not transitive at {labels[i]}")
        self.labels = tuple(labels)
        self.up = tuple(up)
        self.dn = tuple(dn)
        self.comp = tuple(up[i] | dn[i] for i in range(n))
        self.full_mask = full
        self.covers = tuple(covers)
        self.spec: PosetSpec | None = None  # set by build_poset
        self._index = {lab: i for i, lab in enumerate(labels)}

    def __len__(self) -> int:
        return len(self.labels)

    def __repr__(self) -> str:
        return f"Poset({len(self)} elements)"

    def index_of(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise DomainError(f"no element labeled {label!r}") from None

    def induced(self, mask: int) -> Poset:
        """The subposet on the elements of ``mask``, labels in index order."""
        keep = list(iter_bits(mask))
        up = tuple(
            sum(1 << k for k, j in enumerate(keep) if self.up[i] >> j & 1)
            for i in keep
        )
        return Poset(tuple(self.labels[i] for i in keep), up)

    def levels(self) -> tuple[int, ...]:
        """The element masks by height, lowest first: each level is the
        minimal elements of what the lower levels leave.  An element that
        becomes minimal covers an element of the level just peeled, so only
        the covers of that level are tested."""
        out: list[int] = []
        rem = cand = self.full_mask
        while rem:
            level = 0
            for i in iter_bits(cand):
                if self.dn[i] & rem == 1 << i:
                    level |= 1 << i
            out.append(level)
            rem ^= level
            cand = 0
            for i in iter_bits(level):
                cand |= self.covers[i]
        return tuple(out)

    def max_chain_size(self) -> int:
        """Size of the longest chain: the number of levels."""
        return len(self.levels())

    def width(self) -> int:
        """Size of the largest antichain: the length of the chain shape."""
        return len(self.chain_shape())

    def chain_shape(self) -> tuple[int, ...]:
        """The Greene–Kleitman shape (c_1, ..., c_w): c_k is the most
        elements that k disjoint chains cover.  c_1 is the longest chain,
        the length w is the width, and c_w is the size of the poset.

        A min-cost flow on the cover graph with each element split into an
        in and an out node, joined by a "use" arc (capacity 1, cost -1) and
        a "pass" arc (unbounded, cost 0); the source feeds every in node and
        every out node drains to the sink.  A unit of flow follows a chain
        of covers and collects the elements it uses, so k units cover at
        most c_k elements, and successive shortest paths reach c_k after
        the k-th augmentation (Frank, JCTB 29, 1980).  The first path is a
        longest chain of covers, read off the levels, so c_1 is the number
        of levels.  Each later one is found by Dijkstra on costs reduced by
        node potentials.  The first potentials are the distances in the
        empty network, read off the heights: -h at the in node of an element
        at height h, -h - 1 at its out node.  After each search the
        distances are added to them, and every node stays reachable, since
        the source arcs never fill."""
        n = len(self)
        if not n:
            return ()
        source, sink = 2 * n, 2 * n + 1
        head: list[int] = []
        cap: list[int] = []
        cost: list[int] = []
        arcs: list[list[int]] = [[] for _ in range(2 * n + 2)]

        def arc(u: int, v: int, capacity: int, weight: int) -> None:
            # Arc a runs u -> v; its residual twin a ^ 1 runs v -> u.
            for tail, tip, c, w in ((u, v, capacity, weight), (v, u, 0, -weight)):
                arcs[tail].append(len(head))
                head.append(tip)
                cap.append(c)
                cost.append(w)

        # Element i is in node 2i and out node 2i + 1.  Flow never exceeds
        # the width, so a capacity of n stands for "unbounded".
        for i in range(n):
            arc(source, 2 * i, n, 0)
            arc(2 * i, 2 * i + 1, 1, -1)
            arc(2 * i, 2 * i + 1, n, 0)
            arc(2 * i + 1, sink, n, 0)
            for j in iter_bits(self.covers[i]):
                arc(2 * i + 1, 2 * j, n, 0)

        levels = self.levels()
        pot = [0] * (2 * n + 2)
        for h, level in enumerate(levels):
            for i in iter_bits(level):
                pot[2 * i], pot[2 * i + 1] = -h, -h - 1
        pot[sink] = -len(levels)
        # Every arc on a longest chain of covers is tight, so the first
        # search would find all reduced distances 0 and leave the potentials
        # as they are.  Push the first unit along such a chain instead, read
        # off the levels top down: an element one level below the last one
        # and under it is covered by it.
        path, below = [sink], self.full_mask
        for level in reversed(levels):
            i = (level & below).bit_length() - 1
            path += (2 * i + 1, 2 * i)
            below = self.dn[i]
        path.append(source)
        for v, u in zip(path, path[1:]):
            # The use arc of an element comes before its pass arc.
            a = next(a for a in arcs[u] if head[a] == v)
            cap[a] -= 1
            cap[a ^ 1] += 1
        covered = len(levels)
        shape = [covered]
        while covered < n:
            dist = [math.inf] * (2 * n + 2)
            via = [-1] * (2 * n + 2)
            dist[source] = 0
            heap = [(0, source)]
            while heap:
                d, u = heappop(heap)
                if d > dist[u]:
                    continue
                du = d + pot[u]
                for a in arcs[u]:
                    if cap[a]:
                        v = head[a]
                        dv = du + cost[a] - pot[v]
                        if dv < dist[v]:
                            dist[v] = dv
                            via[v] = a
                            heappush(heap, (dv, v))
            for v, d in enumerate(dist):
                pot[v] += d
            v = sink
            while v != source:
                a = via[v]
                cap[a] -= 1
                cap[a ^ 1] += 1
                v = head[a ^ 1]
            # The source's potential stays 0, so the sink's is the path's cost.
            covered -= pot[sink]
            shape.append(covered)
        return tuple(shape)


class Graph:
    """Undirected graph with labeled vertices; ``adj[i]`` is a neighbor
    bitmask (no self-loops)."""

    __slots__ = ("labels", "adj")

    def __init__(self, labels: tuple[str, ...], adj: tuple[int, ...]):
        n = len(labels)
        if len(adj) != n:
            raise DomainError("one adjacency mask per vertex required")
        for i in range(n):
            if adj[i] >> i & 1:
                raise DomainError(f"self-loop at {labels[i]}")
            for j in iter_bits(adj[i]):
                if j >= n or not adj[j] >> i & 1:
                    raise DomainError("adjacency not symmetric")
        self.labels = tuple(labels)
        self.adj = tuple(adj)

    def __len__(self) -> int:
        return len(self.labels)


# ---------------------------------------------------------------------------
# Spec-level operations


def incomparability_graph(poset: Poset) -> Graph:
    """Graph on the poset's elements joining exactly the incomparable pairs."""
    full = poset.full_mask
    adj = tuple(full & ~poset.comp[i] for i in range(len(poset)))
    return Graph(poset.labels, adj)


def verify_distributive_lattice(poset: Poset) -> bool:
    """True iff every pair of elements has a meet and a join and the
    lattice they make is distributive, decided in one pass over the pairs.
    The meet of a and b exists when their common lower bounds ``dn[a] &
    dn[b]`` are one element's down-set, and the join likewise from the
    up-sets.  An element is join-irreducible when its strict down-set is
    one element's down-set; J is the mask of them all.  A finite lattice is
    distributive iff ``dn[a v b] & J == (dn[a] | dn[b]) & J`` for every
    pair (Birkhoff, 1937).  In a distributive lattice the join-irreducibles
    are join-prime.  Conversely, a -> ``dn[a] & J`` always preserves meets,
    and is one-to-one because every element is the join of the
    join-irreducibles below it; the condition makes it preserve joins too,
    so it embeds the lattice in the subsets of J.  DomainError past
    LATTICE_LIMIT elements."""
    n = len(poset)
    check_limit(n, LATTICE_LIMIT, "lattice-check")
    dn, up = poset.dn, poset.up
    below = set(dn)
    above = {mask: i for i, mask in enumerate(up)}
    irreducible = sum(1 << j for j in range(n) if dn[j] ^ 1 << j in below)
    for a in range(n):
        for b in range(a + 1, n):
            join = above.get(up[a] & up[b])
            if join is None or dn[a] & dn[b] not in below:
                return False
            if dn[join] & irreducible != (dn[a] | dn[b]) & irreducible:
                return False
    return True


# ---------------------------------------------------------------------------
# Builders


def _poset_from_coords(labels, coords) -> Poset:
    """Poset on coordinate tuples under the componentwise order.

    ``up[i]`` is the AND over the axes of the mask of elements whose
    coordinate on that axis is at least coordinate i's."""
    up = [-1] * len(coords)
    for axis in zip(*coords):
        at_least: dict[int, int] = {}
        for j, value in enumerate(axis):
            at_least[value] = at_least.get(value, 0) | 1 << j
        acc = 0
        for value in sorted(at_least, reverse=True):
            acc |= at_least[value]
            at_least[value] = acc
        for i, value in enumerate(axis):
            up[i] &= at_least[value]
    return Poset(tuple(labels), tuple(up))


def chain_lengths(spec: PosetSpec) -> tuple[int, ...] | None:
    """The chain lengths when ``spec`` is a product of chains (``chain:n``
    is one chain, ``bool:r`` is r chains of 2), None otherwise.  Call it
    only on a spec within the size cap."""
    if isinstance(spec, Chain):
        return (spec.n,)
    if isinstance(spec, Product):
        return spec.lengths
    if isinstance(spec, Boolean):
        return (2,) * spec.rank
    return None


def _b3_coords(n: int):
    # Coordinate realization inside the product (n+1) x 2 x 2.  The named
    # elements sit on the cube at the top; the two n-element tails hang from
    # b and e.  The facts the non-niceness argument relies on (which named
    # elements form chains, which are incomparable, meet/join closure) are
    # pinned by the tests rather than rechecked on every build.
    at = {
        "a": (n + 1, 2, 2),
        "b": (n + 1, 1, 2),
        "c": (n, 2, 2),
        "d": (n + 1, 2, 1),
        "e": (n + 1, 1, 1),
        "f": (n, 2, 1),
    }
    for i in range(1, n + 1):
        at[str(i)], at[f"{i}'"] = (n + 1 - i, 1, 2), (n + 1 - i, 1, 1)
    return list(at), list(at.values())


def _coords(spec: PosetSpec):
    """Labels and coordinates, in construction order, of the poset ``spec``
    describes under the componentwise order.  An ordinal sum stays on its
    inner spec's axes: the p-chain sits below the least first coordinate
    and the q-chain above the greatest, at the least (greatest) value of
    every other axis.  Inner labels that clash with ``loN``/``hiN`` or with
    an earlier label take primes."""
    sums = []
    while isinstance(spec, OrdinalSum):
        sums.append(spec)
        spec = spec.inner
    if isinstance(spec, B3):
        labels, coords = _b3_coords(spec.n)
    else:
        coords = list(itertools.product(*(range(1, m + 1) for m in chain_lengths(spec))))
        labels = [",".join(map(str, c)) for c in coords]
        if not isinstance(spec, Chain):
            labels = [f"({lab})" for lab in labels]
    for outer in reversed(sums):
        p, q = outer.p, outer.q
        low, *least = map(min, zip(*coords))
        high, *most = map(max, zip(*coords))
        taken = {f"lo{i + 1}" for i in range(p)} | {f"hi{j + 1}" for j in range(q)}
        renamed = [f"lo{i + 1}" for i in range(p)]
        for lab in labels:
            while lab in taken:
                lab += "'"
            taken.add(lab)
            renamed.append(lab)
        labels = renamed + [f"hi{j + 1}" for j in range(q)]
        coords = [(low - p + i, *least) for i in range(p)] + coords
        coords += [(high + 1 + j, *most) for j in range(q)]
    return labels, coords


def _element_count(spec: PosetSpec) -> int:
    """Elements of the poset ``spec`` describes, worked out before anything
    is built.  A Boolean rank is clamped before the power is taken: any
    rank past the cap still counts more than MAX_ELEMENTS."""
    if isinstance(spec, Chain):
        return spec.n
    if isinstance(spec, Product):
        return math.prod(spec.lengths)
    if isinstance(spec, Boolean):
        return 2 ** min(spec.rank, MAX_ELEMENTS.bit_length())
    if isinstance(spec, B3):
        return 2 * spec.n + 6
    if isinstance(spec, OrdinalSum):
        return spec.p + _element_count(spec.inner) + spec.q
    raise DomainError(f"unknown poset spec {spec!r}")


def check_size(spec: PosetSpec) -> int:
    """The element count of ``spec``, worked out before anything is built;
    DomainError, naming ``spec``, when it is over MAX_ELEMENTS."""
    n = _element_count(spec)
    if n > MAX_ELEMENTS:
        raise DomainError(f"poset {spec.dsl()} has more than {MAX_ELEMENTS} elements")
    return n


def check_limit(n: int, limit: int, check: str) -> None:
    """DomainError when ``check`` (say, ``niceness``) is asked of n > limit
    elements; callers run it on a spec's element count before building."""
    if n > limit:
        raise DomainError(f"{n} elements exceeds the {check} limit of {limit}")


def build_poset(spec: PosetSpec) -> Poset:
    """Construct the poset described by ``spec`` from its coordinates;
    DomainError when it has more than MAX_ELEMENTS elements."""
    check_size(spec)
    poset = _poset_from_coords(*_coords(spec))
    poset.spec = spec
    return poset


# ---------------------------------------------------------------------------
# DSL parsing: chain:N | prod:N1xN2x... | bool:R | b3:N | sum:P+<spec>+Q


def _parse_int(text: str, pos: int) -> tuple[int, int]:
    start = pos
    while pos < len(text) and text[pos] in "0123456789":
        pos += 1
    if pos == start:
        raise DslParseError("expected an integer", start)
    try:
        return int(text[start:pos]), pos
    except ValueError:  # over the interpreter's limit on digits
        raise DslParseError(f"integer too long: {pos - start} digits", start) from None


def _expect(text: str, pos: int, token: str) -> int:
    if not text.startswith(token, pos):
        raise DslParseError(f"expected {token!r}", pos)
    return pos + len(token)


def _parse_spec(text: str, pos: int, depth: int = 0) -> tuple[PosetSpec, int]:
    """The spec starting at ``pos`` inside ``depth`` enclosing ordinal sums."""
    for head in ("chain", "prod", "bool", "b3", "sum"):
        if text.startswith(head + ":", pos):
            break
    else:
        raise DslParseError("expected chain:, prod:, bool:, b3:, or sum:", pos)
    if head == "sum" and depth == MAX_SUM_DEPTH:
        raise DslParseError(f"ordinal sums nested more than {MAX_SUM_DEPTH} deep", pos)
    pos += len(head) + 1
    if head == "chain":
        n, pos = _parse_int(text, pos)
        return Chain(n), pos
    if head == "bool":
        r, pos = _parse_int(text, pos)
        return Boolean(r), pos
    if head == "b3":
        n, pos = _parse_int(text, pos)
        return B3(n), pos
    if head == "prod":
        lengths = []
        n, pos = _parse_int(text, pos)
        lengths.append(n)
        while pos < len(text) and text[pos] == "x":
            n, pos = _parse_int(text, pos + 1)
            lengths.append(n)
        return Product(tuple(lengths)), pos
    p, pos = _parse_int(text, pos)
    pos = _expect(text, pos, "+")
    inner, pos = _parse_spec(text, pos, depth + 1)
    pos = _expect(text, pos, "+")
    q, pos = _parse_int(text, pos)
    return OrdinalSum(p, inner, q), pos


def parse_poset_spec(text: str) -> PosetSpec:
    """Parse the whitespace-free poset DSL; syntax errors carry the byte
    offset, while semantically invalid parameters (e.g. ``chain:0``) raise
    plain :class:`DomainError`."""
    spec, pos = _parse_spec(text, 0)
    if pos != len(text):
        raise DslParseError("unexpected trailing text", pos)
    return spec
