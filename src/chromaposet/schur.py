"""Chromatic symmetric functions of incomparability graphs, expanded exactly
in the monomial and Schur bases.

Monomial coefficients are semi-ordered stable-partition counts.  Schur
coefficients come from the signed tabloid sum: for each content of a special
rim hook tabloid of the requested shape, add its signed tabloid count
(``rimhooks._signed_tables``) times the chain-partition count of that
content.
``counting.closed_route`` decides how the counts are taken: for a product
of two chains m x n and a shape carrying the forced staircase prefix it
returns (m, n), every count is ``scp_closed_form(m, n, content)``, and the
table restricted to that prefix has a handful of entries; that fast path is
what makes the large negativity sweeps cheap.  Otherwise the counts come
from the backtracking search, and the table peels no hook longer than the
longest chain: a content with a longer part counts 0.

A full expansion sets aside the r elements comparable to every other one:
each is an isolated vertex of the incomparability graph, a factor s_1 of
its function (Stanley, Adv. Math. 111, 1995, Prop. 2.3).  The tabloid sum
runs on the rest, and r single-box Pieri steps add them back, dropping
zero coefficients once, after the last step.  Its shapes share one
signed-content table (``rimhooks._signed_tables``), so the table of a
sub-shape is built once per expansion, and one pass
(``ChainPartitionCounter.count_all``) counts the chain partitions of every
type, so no remaining set is walked once per content.  Both key what
they return by the ids of the one ``PartitionIds`` they are passed, so
their merges and the tabloid sum key their dicts by int, and each
"partition plus one part" is built once per expansion.  Every builder
poset has a bottom and a top.  ``schur_coefficient`` sums one table on
either route, decoding each content for its count: the closed form, or a
search of the whole poset.
"""

from __future__ import annotations

import math
from functools import partial

from .counting import (
    WITNESS_CASE_HEIGHTS,
    ChainPartitionCounter,
    StablePartitionCounter,
    _exact,
    check_witness_range,
    closed_route,
    proof_case_closed_forms,
    scp_closed_form,
    staircase_delta,
)
from .errors import DomainError
from .partitions import (
    Partition,
    PartitionIds,
    as_partition,
    partitions_of,
    rearrangement_count,
)
from .posets import EXPANSION_LIMIT, Graph, Poset, check_limit, iter_bits
from .rimhooks import _signed_tables, kostka_number


def schur_at_ones(lam, colors: int) -> int:
    """The Schur function of shape ``lam`` with ``colors`` variables set
    to 1: semistandard tableaux with bounded entries, counted through the
    Kostka numbers."""
    lam = as_partition(lam)
    return sum(
        kostka_number(lam, mu) * rearrangement_count(mu, colors)
        for mu in partitions_of(sum(lam))
    )


def monomial_expansion(graph: Graph) -> dict[Partition, int]:
    """Monomial coefficients of the chromatic symmetric function, zero
    coefficients omitted: one stable-partition count per type."""
    counter = StablePartitionCounter(graph)
    return {lam: c for lam in partitions_of(len(graph)) if (c := counter.count(lam))}


# ---------------------------------------------------------------------------
# Schur coefficients


def schur_coefficient(
    poset: Poset, shape, method: str = "auto", node_budget: int | None = None
) -> int:
    """Coefficient of the Schur function of ``shape`` in the chromatic
    symmetric function of the poset's incomparability graph.

    ``tabloid_brute`` counts every tabloid content by backtracking search;
    ``tabloid_closed`` (products of two chains, staircase-prefixed shapes
    only) evaluates each content by the closed form; ``auto`` picks the
    closed route whenever it applies.  ``node_budget`` bounds the nodes the
    searches walk together (DomainError past it); the closed route
    does not search and ignores it.  Both routes sum one signed-content
    table; they differ only in how it is cut and how a content is counted.
    """
    if method not in ("auto", "tabloid_brute", "tabloid_closed"):
        raise DomainError(f"unknown method {method!r}")
    shape = as_partition(shape)
    sides = closed_route(poset, shape, method.removeprefix("tabloid_"))
    if sides is None:
        # A content with a part longer than the longest chain counts 0, so
        # no such hook is peeled.  One engine searches every content, so
        # ``node_budget`` bounds them together.
        prefix, cap = (), poset.max_chain_size()
        count = ChainPartitionCounter(poset, node_budget).count
    else:
        # ``closed_route`` found the staircase in the shape's first n-1 parts.
        m, n = sides
        prefix, cap = shape[: n - 1], None
        count = partial(scp_closed_form, m, n)
    ids = PartitionIds()
    table = next(_signed_tables((shape,), ids, prefix, cap))[1]
    return sum(signed * count(ids.partition(c)) for c, signed in table.items())


def _tabloid_expansion(poset: Poset) -> dict[Partition, int]:
    """Nonzero Schur coefficients of the whole poset by the tabloid sum,
    one shape at a time; only shapes whose first part fits in the longest
    chain are generated (the coefficients of the others vanish).  The
    shapes share one signed-content table, which peels no hook longer than
    the longest chain, and one pass that counts the chain partitions of
    every type; both name each partition by its id in one interner."""
    longest = poset.max_chain_size()
    ids = PartitionIds()
    counts = ChainPartitionCounter(poset).count_all(ids)
    coeffs = {}
    shapes = partitions_of(len(poset), (longest,))
    for lam, table in _signed_tables(shapes, ids, cap=longest):
        total = sum(signed * counts.get(c, 0) for c, signed in table.items())
        if total:
            coeffs[lam] = total
    return coeffs


def _times_s1(coeffs: dict[Partition, int], r: int) -> dict[Partition, int]:
    """Multiply by s_1 r times (Pieri's rule): each step turns s_nu into
    the sum of s_mu over the shapes mu that add one box to nu.  Zeros are
    dropped once, at the end."""
    for _ in range(r):
        out: dict[Partition, int] = {}
        for nu, c in coeffs.items():
            for i, part in enumerate(nu):
                if i == 0 or nu[i - 1] > part:
                    mu = nu[:i] + (part + 1,) + nu[i + 1 :]
                    out[mu] = out.get(mu, 0) + c
            mu = nu + (1,)
            out[mu] = out.get(mu, 0) + c
        coeffs = out
    return {mu: c for mu, c in coeffs.items() if c}


def schur_expansion(poset: Poset, max_elements: int = EXPANSION_LIMIT) -> dict[Partition, int]:
    """Full Schur expansion over all partitions of |P|, zero coefficients
    omitted: the tabloid sum on the elements not comparable to all others,
    times s_1 once for each element that is."""
    n = len(poset)
    check_limit(n, max_elements, "expansion")
    inner = poset.induced(sum(1 << v for v in range(n) if poset.comp[v] != poset.full_mask))
    return _times_s1(_tabloid_expansion(inner), n - len(inner))


# ---------------------------------------------------------------------------
# The negativity witness for products of two chains


def rho_shape(n: int, k: int) -> Partition:
    """The witness shape: staircase prefix down to k+3, then (k-3, 2, 2).
    A partition of n(n+k) with n+2 parts."""
    return staircase_delta(n, k) + (k - 3, 2, 2)


def theorem41_coefficient(n: int, k: int) -> int:
    """Closed form of the witness-shape coefficient for the (n+k) x n
    product.  Negative for every n >= (k+2)/2; signs outside that range are
    reported by the caller, not asserted here."""
    check_witness_range(n, k)
    nf = math.factorial(n)
    if k == 5:
        return nf * (-4 * n + 9)
    if k == 6:
        return nf * (-11 * n + 32)
    num = nf * (k - 4) * ((-2 * k * k + 4 * k - 18) * n + (k**3 - 7 * k + 18))
    return _exact(num, 12)


def witness_coefficient_from_cases(n: int, k: int) -> int:
    """The same coefficient assembled compositionally: six case counts, each
    weighted by the sign of its tabloid.  Cross-checks theorem41_coefficient."""
    counts = proof_case_closed_forms(n, k)
    return sum(
        (-1) ** WITNESS_CASE_HEIGHTS[name] * count for name, count in counts.items()
    )


# ---------------------------------------------------------------------------
# Coloring oracles


def _count_colorings(graph: Graph, caps: list[int]) -> int:
    """Proper colorings that use color c at most ``caps[c]`` times, by
    direct enumeration."""
    n = len(graph)
    assignment = [0] * n

    def rec(i: int) -> int:
        if i == n:
            return 1
        below = graph.adj[i] & ((1 << i) - 1)
        forbidden = {assignment[j] for j in iter_bits(below)}
        total = 0
        for c in range(len(caps)):
            if not caps[c] or c in forbidden:
                continue
            caps[c] -= 1
            assignment[i] = c
            total += rec(i + 1)
            caps[c] += 1
        return total

    return rec(0)


def count_proper_colorings(graph: Graph, colors: int) -> int:
    """Proper colorings with a fixed palette, by direct enumeration."""
    return _count_colorings(graph, [len(graph)] * colors)


def count_colorings_by_type(graph: Graph, type_) -> int:
    """Proper colorings in which color i is used exactly type_[i] times —
    the monomial coefficient read directly off the coloring sum, sharing no
    code with the stable-partition counter.  The caps add up to the number
    of vertices, so a coloring meets each one exactly."""
    lam = as_partition(type_)
    if sum(lam) != len(graph):
        raise DomainError(f"type {lam} does not cover the graph")
    return _count_colorings(graph, list(lam))
