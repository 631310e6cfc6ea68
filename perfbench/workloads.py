"""Workload pools, seeded query generation and answer checks.

A workload is a pool of distinct queries split into strata of similar
cost.  Every pass runs the whole pool once.  A seed sets the order: it
deals each stratum evenly into a fixed number of rounds, so that every
round carries the same mix of cheap and expensive queries, and shuffles
each round.  The harness stops starting rounds once the time window is used
up, so a run cut short by a slow program still measures a representative
mix.

Every answer is checked against a route that shares no code with the
measured path; the checks run after the timed window and are cached per
input within a process.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import cache

from chromaposet import (
    ChainPartitionCertificate,
    Product,
    StablePartitionCounter,
    build_poset,
    count_proper_colorings,
    dominance_leq,
    format_partition,
    incomparability_graph,
    kostka_number,
    parse_partition,
    parse_poset_spec,
    partitions_of,
    rho_shape,
    schur_at_ones,
    sorted_partition,
    theorem41_coefficient,
    witness_coefficient_from_cases,
)


@dataclass(frozen=True)
class Query:
    """One CLI call and what its answer is checked against: ``kind`` names
    the oracle, ``key`` its input."""

    argv: tuple[str, ...]
    kind: str
    key: tuple


# ---------------------------------------------------------------------------
# Pools


def _rho(n: int, k: int) -> Query:
    shape = format_partition(rho_shape(n, k))
    argv = ("schur-coeff", "--poset", f"prod:{n + k}x{n}", "--shape", shape, "--json")
    return Query(argv, "rho", (n, k))


def _two_chain_family() -> list[Query]:
    """Shapes (m+1, m-2j, 2^a, 1^b) with b = 2j-2a-1 on the m x 2 product,
    the family of the ``two_chain_negativity`` sweep, deduplicated.  m stops
    at 9 because the Kostka-route check grows steeply beyond it."""
    shapes = set()
    for m in range(5, 10):
        for j in range(1, m // 2 + 1):
            for a in range(j):
                parts = (m + 1, m - 2 * j) + (2,) * a + (1,) * (2 * j - 2 * a - 1)
                shapes.add((m, sorted_partition(parts)))
    return [
        Query(
            ("schur-coeff", "--poset", f"prod:{m}x2", "--shape", format_partition(shape), "--json"),
            "two_chain",
            (m, shape),
        )
        for m, shape in sorted(shapes)
    ]


def _schur(dsl: str) -> Query:
    return Query(("schur", "--poset", dsl, "--max-elements", "16", "--json"), "schur", (dsl,))


def _nice(dsl: str) -> Query:
    return Query(("nice", "--poset", dsl, "--witness", "--json"), "nice", (dsl,))


def _sums(inner: str, size: int, total: int) -> list[str]:
    """Ordinal sums sum:p+inner+q with p <= q filling ``total`` elements.
    p <= q keeps out the dual of each poset, whose incomparability graph is
    the same."""
    extra = total - size
    return [f"sum:{p}+{inner}+{extra - p}" for p in range(extra // 2 + 1)]


def _family(inner: str, size: int, totals) -> list[str]:
    return [dsl for total in totals for dsl in _sums(inner, size, total)]


# Every workload runs ROUNDS rounds, and each stratum is spread over them as
# evenly as its size allows.  Every seed runs the same queries, in another
# order: a seed that picked among them would move the median and the tail
# by the cost of the queries it picked.  The strata are sized so that the
# median and the tail rank fall inside a stratum rather than on the edge
# between two.
ROUNDS = 8

WITNESS = [
    [_rho(7, k) for k in range(5, 13)],
    [_rho(6, k) for k in range(5, 13)],
    [_rho(5, k) for k in range(5, 21)],
    [_rho(4, k) for k in range(5, 21)],
    [_rho(3, k) for k in range(5, 13)],
    [_rho(2, k) for k in range(5, 13)],
    _two_chain_family(),
]

EXPANSION = [
    [_schur(d) for d in (
        "bool:3", "sum:0+bool:3+1", "sum:0+prod:3x2+2", "sum:1+prod:3x2+1",
        "sum:0+prod:3x2+3", "sum:1+prod:3x2+2", "sum:0+prod:4x2+1", *_sums("prod:2x2", 4, 9),
    )],
    [_schur(d) for d in (
        "b3:2", *_sums("bool:3", 8, 10), *_sums("prod:3x2", 6, 10), *_sums("prod:4x2", 8, 10),
        "sum:0+prod:2x2+6", "sum:1+prod:2x2+5",
    )],
    [_schur(d) for d in (
        *_sums("bool:3", 8, 11), *_sums("prod:3x3", 9, 11), *_sums("prod:3x2", 6, 11),
        "sum:1+prod:4x2+2",
    )],
    [_schur(d) for d in (
        "prod:2x2x3", "b3:3", *_sums("bool:3", 8, 12), *_sums("b3:2", 10, 12), "sum:1+prod:3x3+2",
    )],
    [_schur(d) for d in (
        "sum:0+prod:3x3+3", "sum:0+prod:4x2+4", "sum:1+prod:4x2+3", "sum:0+prod:2x2x3+1",
    )],
]

NICE = [
    [_nice(d) for d in ("b3:6", "b3:7")],
    [_nice(d) for d in ("b3:3", "b3:4", "b3:5")],
    [_nice(d) for d in (
        "prod:5x4", "prod:3x3x2", "prod:2x2x4", "prod:6x3", "bool:4", "prod:4x4", "prod:5x3",
    )],
    [_nice(d) for d in (*_sums("b3:4", 14, 20), "sum:1+b3:6+1")],
    [_nice(d) for d in (*_sums("b3:3", 12, 19), *_sums("b3:4", 14, 19), "sum:0+b3:6+1")],
    [_nice(d) for d in (
        *_sums("b3:3", 12, 17), *_sums("b3:4", 14, 17), "sum:0+b3:5+1", "sum:0+bool:4+1",
        "sum:0+prod:4x3+5",
    )],
    [_nice(d) for d in (
        *_family("b3:3", 12, (13, 14)), "sum:0+b3:4+1", *_family("prod:4x3", 12, (13, 14)),
        "sum:0+prod:2x2x3+1",
    )],
]

WORKLOADS = {"witness": WITNESS, "expansion": EXPANSION, "nice": NICE}


def pool(workload: str) -> dict[tuple[str, ...], Query]:
    """Every query of a workload by its argv."""
    return {q.argv: q for members in WORKLOADS[workload] for q in members}


# b3:n is not nice exactly when n >= 6 (the source paper).  Every other
# pool member is nice: products of two chains and their ordinal sums with
# chains by the dominance characterization, the rest as chromaposet 0.1.0
# decides them.
NOT_NICE = frozenset({"b3:6", "b3:7"})


def make_rounds(workload: str, seed: int, pass_: int = 0) -> list[list[Query]]:
    """The rounds of one pass over the whole pool; no query repeats within
    them.  The seed and the pass set which round each query falls in and
    the order within each round."""
    deal = random.Random(f"{workload}:{seed}:{pass_}")
    rounds: list[list[Query]] = [[] for _ in range(ROUNDS)]
    for members in WORKLOADS[workload]:
        slots = deal.sample(range(ROUNDS), ROUNDS)
        for i, query in enumerate(deal.sample(members, len(members))):
            rounds[slots[i % ROUNDS]].append(query)
    for batch in rounds:
        deal.shuffle(batch)
    return rounds


# ---------------------------------------------------------------------------
# Answer checks


class Checker:
    """Checks one answer against a route that shares no code with the
    measured path.  Expected values are cached per input."""

    def __init__(self):
        self._expected: dict[tuple, object] = {}
        self._at_ones = cache(schur_at_ones)
        self._kostka: dict[tuple, int] = {}

    def check(self, query: Query, code: int, out: str) -> str | None:
        """None when the answer and exit code are right, else why not."""
        try:
            envelope = json.loads(out)
        except ValueError:
            return f"exit {code}, output is not one JSON envelope"
        try:
            return getattr(self, "_check_" + query.kind)(query.key, code, envelope["result"])
        except Exception as exc:  # a malformed result or an oracle that cannot decide
            return f"check raised {exc!r}"

    def _expect(self, key: tuple, compute):
        if key not in self._expected:
            self._expected[key] = compute()
        return self._expected[key]

    def _check_rho(self, key, code, result) -> str | None:
        n, k = key
        want = self._expect(("rho",) + key, lambda: _rho_oracle(n, k))
        return _check_coefficient(int(result["coefficient"]), want, code)

    def _check_two_chain(self, key, code, result) -> str | None:
        want = self._expect(("two_chain",) + key, lambda: self._two_chain_coefficient(*key))
        return _check_coefficient(int(result["coefficient"]), want, code)

    def _check_schur(self, key, code, result) -> str | None:
        (dsl,) = key
        graph = incomparability_graph(build_poset(parse_poset_spec(dsl)))
        want = self._expect(("schur", dsl), lambda: self._schur_coefficients(graph))
        got = {parse_partition(lam): int(c) for lam, c in result["coeffs"].items()}
        if got != want:
            wrong = sorted(set(got.items()) ^ set(want.items()), reverse=True)[:3]
            return f"coefficients differ from the monomial route at {wrong}"
        for colors in (2, 3):
            direct = self._expect(("colorings", dsl, colors),
                                  lambda: count_proper_colorings(graph, colors))
            via = sum(c * self._at_ones(lam, colors) for lam, c in got.items())
            if via != direct:
                return f"specialization at N={colors} gives {via}, colorings give {direct}"
        negative = any(c < 0 for c in got.values())
        if code != (3 if negative else 0):
            return f"exit {code} with {'a negative' if negative else 'no negative'} coefficient"
        return None

    def _check_nice(self, key, code, result) -> str | None:
        (dsl,) = key
        want = dsl not in NOT_NICE
        if result["nice"] is not want:
            return f"verdict {result['nice']}, table says {want}"
        if code != (0 if want else 4):
            return f"exit {code} for nice={want}"
        if want:
            return "witness on a nice poset" if "witness" in result else None
        witness = result["witness"]
        achieved = parse_partition(witness["achieved"])
        unachieved = parse_partition(witness["unachieved"])
        if achieved == unachieved or not dominance_leq(unachieved, achieved):
            return f"witness {achieved} / {unachieved} is not a dominance pair"
        cert = witness["certificate"]
        if parse_partition(cert["type"]) != achieved:
            return f"certificate type {cert['type']} is not the achieved type"
        poset = build_poset(parse_poset_spec(dsl))
        blocks = tuple(tuple(block) for block in cert["blocks"])
        ChainPartitionCertificate(poset, blocks, achieved).validate()  # raises if it lies
        return None

    def _kostka_number(self, lam, mu) -> int:
        if (lam, mu) not in self._kostka:
            self._kostka[lam, mu] = kostka_number(lam, mu)
        return self._kostka[lam, mu]

    def _from_monomial(self, graph, shapes) -> dict[tuple[int, ...], int]:
        """Schur coefficients at ``shapes`` from the monomial coefficients
        (stable-partition counts) by back-substitution through the Kostka
        matrix: m-coefficient(lam) = sum over mu dominating lam of
        s-coefficient(mu) * K(mu, lam).  ``shapes`` must hold every shape
        with a nonzero coefficient that dominates one of them."""
        counter = StablePartitionCounter(graph)
        coeffs: dict[tuple[int, ...], int] = {}
        for lam in sorted(shapes, reverse=True):  # lexicographic order extends dominance
            value = counter.count(lam)
            for mu, c in coeffs.items():
                if c and dominance_leq(lam, mu):
                    value -= c * self._kostka_number(mu, lam)
            coeffs[lam] = value
        return coeffs

    def _schur_coefficients(self, graph) -> dict[tuple[int, ...], int]:
        coeffs = self._from_monomial(graph, partitions_of(len(graph)))
        return {lam: c for lam, c in coeffs.items() if c}

    def _two_chain_coefficient(self, m: int, shape: tuple[int, ...]) -> int:
        """A shape's coefficient on the m x 2 product.  Shapes with first
        part above m+1, the longest chain, have coefficient 0, so only the
        shapes (m+1, nu) dominating ``shape`` enter."""
        graph = incomparability_graph(build_poset(Product((m, 2))))
        above = [(m + 1,) + nu for nu in partitions_of(m - 1) if dominance_leq(shape[1:], nu)]
        return self._from_monomial(graph, above)[shape]


def _check_coefficient(got: int, want: int, code: int) -> str | None:
    if got != want:
        return f"coefficient {got}, oracle {want}"
    if code != (3 if want < 0 else 0):
        return f"exit {code} for coefficient {want}"
    return None


def _rho_oracle(n: int, k: int) -> int:
    """Theorem 4.1, direct and assembled from its six cases."""
    direct = theorem41_coefficient(n, k)
    composed = witness_coefficient_from_cases(n, k)
    if direct != composed:
        raise ValueError(f"theorem41 oracles disagree at ({n}, {k}): {direct} != {composed}")
    return direct
