"""The reproduction suite: every quantitative claim the package is built
around, as timed pass/fail checks with exact integer comparisons.

Both the ``verify`` CLI command and the acceptance tests run these; keeping
them here guarantees the two entry points cannot drift apart.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import Callable

from .counting import ChainPartitionCounter, StablePartitionCounter, scp_closed_form
from .counting import staircase_type
from .nice import chain_partition_exists, is_nice, ordinal_sum_chain_partition
from .partitions import dominance_leq, partitions_of, rearrangement_count, sorted_partition
from .posets import B3, Chain, OrdinalSum, Product, build_poset, incomparability_graph
from .rimhooks import inverse_kostka, kostka_number
from .schur import (
    count_colorings_by_type,
    count_proper_colorings,
    monomial_expansion,
    rho_shape,
    schur_coefficient,
    schur_expansion,
    theorem41_coefficient,
    witness_coefficient_from_cases,
)


@dataclass
class CriterionResult:
    number: int
    name: str
    ok: bool
    detail: str
    elapsed: float
    limit: float

    @property
    def within_limit(self) -> bool:
        return self.elapsed < self.limit

    def line(self) -> str:
        status = "PASS" if self.ok and self.within_limit else "FAIL"
        return (
            f"[{status}] {self.number:2d} {self.name:<28s} "
            f"{self.elapsed:8.2f}s / {self.limit:g}s  {self.detail}"
        )


def _check_negative_coefficient(lengths, shape, want: int) -> tuple[bool, str]:
    poset = build_poset(Product(lengths))
    value = schur_coefficient(poset, shape, method="tabloid_closed")
    return value == want, f"value={value} (want {want})"


def _check_general_k_coefficient() -> tuple[bool, str]:
    direct = theorem41_coefficient(5, 7)
    composed = witness_coefficient_from_cases(5, 7)
    poset = build_poset(Product((12, 5)))
    tabloid = schur_coefficient(poset, rho_shape(5, 7), method="tabloid_closed")
    ok = direct == composed == tabloid == -3840
    return ok, f"direct={direct} composed={composed} tabloid_closed={tabloid} (want -3840)"


def _check_scp_chain4() -> tuple[bool, str]:
    value = ChainPartitionCounter(build_poset(Chain(4))).count((2, 1, 1))
    return value == 12, f"value={value} (want 12)"


def _check_chain3_expansion() -> tuple[bool, str]:
    got = schur_expansion(build_poset(Chain(3)))
    want = {(3,): 1, (2, 1): 2, (1, 1, 1): 1}
    return got == want, f"coeffs={got}"


def _check_b36_not_nice() -> tuple[bool, str]:
    poset = build_poset(B3(6))
    cert = chain_partition_exists(poset, (9, 7, 2))
    # Chains are the stable sets of the incomparability graph, so this
    # refutes (6,6,6) with no code shared with the search behind is_nice.
    absent = StablePartitionCounter(incomparability_graph(poset)).count((6, 6, 6)) == 0
    verdict = is_nice(poset)
    ok = (
        cert is not None
        and absent
        and not verdict.nice
        and verdict.witness == ((9, 7, 2), (6, 6, 6))
    )
    return ok, (
        f"cert(9,7,2)={'yes' if cert else 'no'} absent(6,6,6)={absent} "
        f"nice={verdict.nice} witness={verdict.witness}"
    )


def _check_b3_small_nice() -> tuple[bool, str]:
    verdicts = {n: is_nice(build_poset(B3(n))).nice for n in (1, 2, 3, 4)}
    positive = all(c >= 0 for c in schur_expansion(build_poset(B3(1))).values())
    ok = all(verdicts.values()) and positive
    return ok, f"nice={verdicts} schur_nonneg(n=1)={positive}"


def _check_closed_form_oracle() -> tuple[bool, str]:
    checked = 0
    for m, n in ((3, 2), (4, 2), (5, 2), (4, 3), (5, 3)):
        counter = ChainPartitionCounter(build_poset(Product((m, n))))
        prefix = staircase_type(m, n)[:-1]
        for tail in partitions_of(m - n + 1):
            type_ = prefix + tail
            closed = scp_closed_form(m, n, type_)
            brute = counter.count(type_)
            if closed != brute:
                return False, f"mismatch at (m,n)={(m, n)} type={type_}: {closed} != {brute}"
            checked += 1
    return True, f"{checked} types agree"


def _check_inverse_kostka_identity() -> tuple[bool, str]:
    checked = 0
    for n in range(1, 9):
        parts = list(partitions_of(n))
        for mu in parts:
            for nu in parts:
                total = sum(
                    inverse_kostka(lam, mu) * kostka_number(lam, nu) for lam in parts
                )
                if total != (1 if mu == nu else 0):
                    return False, f"(mu,nu)=({mu},{nu}) gives {total}"
                checked += 1
    return True, f"{checked} matrix entries agree"


_ORACLE_SPECS = (
    Chain(1),
    Chain(2),
    Chain(3),
    Chain(4),
    Chain(5),
    Chain(6),
    Product((2, 2)),
    Product((3, 2)),
    Product((2, 2, 2)),
    B3(1),
)


def _check_three_path_schur() -> tuple[bool, str]:
    for spec in _ORACLE_SPECS:
        poset = build_poset(spec)
        graph = incomparability_graph(poset)
        mono = monomial_expansion(graph)
        schur = schur_expansion(poset, max_elements=len(poset))
        for mu in partitions_of(len(poset)):
            direct = count_colorings_by_type(graph, mu)
            if mono.get(mu, 0) != direct:
                return False, f"{spec.dsl()}: monomial[{mu}]={mono.get(mu, 0)} != {direct}"
        for lam in partitions_of(len(poset)):
            via_kostka = sum(inverse_kostka(lam, mu) * c for mu, c in mono.items())
            if schur.get(lam, 0) != via_kostka:
                return False, f"{spec.dsl()}: schur[{lam}]={schur.get(lam, 0)} != {via_kostka}"
    return True, f"{len(_ORACLE_SPECS)} posets, all three routes agree"


def _check_two_column_sign_sweep() -> tuple[bool, str]:
    values = {}
    for m in range(8, 13):
        shape = sorted_partition((m + 1, m - 8, 2, 2, 2, 1))
        poset = build_poset(Product((m, 2)))
        values[m] = schur_coefficient(poset, shape, method="tabloid_closed")
    ok = all(v < 0 for v in values.values())
    return ok, f"values={values}"


def _check_ordinal_sum_certificates() -> tuple[bool, str]:
    checked = 0
    for p, q, m, n in ((1, 1, 2, 2), (2, 0, 3, 2), (1, 2, 3, 3)):
        lam = staircase_type(m, n)
        lam_tilde = (lam[0] + p + q,) + lam[1:]
        sum_poset = build_poset(OrdinalSum(p, Product((m, n)), q))
        for mu in partitions_of(p + q + m * n):
            if dominance_leq(mu, lam_tilde):
                cert = ordinal_sum_chain_partition(p, q, m, n, mu)
                cert.validate()
            elif chain_partition_exists(sum_poset, mu) is not None:
                return False, f"(p,q,m,n)={(p, q, m, n)}: {mu} escapes the bound"
            checked += 1
    return True, f"{checked} types checked"


def _check_dominance_characterization() -> tuple[bool, str]:
    checked = 0
    for n in range(1, 5):
        for m in range(n, 17):
            if m * n > 16:
                break
            poset = build_poset(Product((m, n)))
            bound = staircase_type(m, n)
            for delta in partitions_of(m * n):
                exists = chain_partition_exists(poset, delta) is not None
                if exists != dominance_leq(delta, bound):
                    return False, f"(m,n)={(m, n)} type={delta}: exists={exists}"
                checked += 1
    return True, f"{checked} (poset, type) pairs agree"


def _check_chromatic_specialization() -> tuple[bool, str]:
    for spec in _ORACLE_SPECS:
        graph = incomparability_graph(build_poset(spec))
        mono = monomial_expansion(graph)
        for colors in (1, 2, 3):
            # X_G with N = colors variables set to 1: the chromatic polynomial
            value = sum(c * rearrangement_count(lam, colors) for lam, c in mono.items())
            direct = count_proper_colorings(graph, colors)
            if value != direct:
                return False, f"{spec.dsl()} at N={colors}: {value} != {direct}"
    return True, f"{len(_ORACLE_SPECS)} posets at N=1,2,3 agree"


CRITERIA: tuple[tuple[int, str, float, Callable[[], tuple[bool, str]]], ...] = (
    (1, "negative-coefficient-8x3", 1.0,
     partial(_check_negative_coefficient, (8, 3), (10, 8, 2, 2, 2), -18)),
    (2, "negative-coefficient-10x4", 5.0,
     partial(_check_negative_coefficient, (10, 4), (13, 11, 9, 3, 2, 2), -288)),
    (3, "general-k-coefficient", 10.0, _check_general_k_coefficient),
    (4, "scp-count-chain4", 0.1, _check_scp_chain4),
    (5, "chain3-schur-expansion", 0.1, _check_chain3_expansion),
    (6, "b3-6-not-nice", 60.0, _check_b36_not_nice),
    (7, "b3-small-nice", 600.0, _check_b3_small_nice),
    (8, "closed-form-oracle", 300.0, _check_closed_form_oracle),
    (9, "inverse-kostka-identity", 60.0, _check_inverse_kostka_identity),
    (10, "three-path-schur-oracle", 300.0, _check_three_path_schur),
    (11, "two-column-sign-sweep", 60.0, _check_two_column_sign_sweep),
    (12, "ordinal-sum-certificates", 300.0, _check_ordinal_sum_certificates),
    (13, "dominance-characterization", 300.0, _check_dominance_characterization),
    (14, "chromatic-specialization", 60.0, _check_chromatic_specialization),
)


def run_all(numbers: list[int] | None = None) -> list[CriterionResult]:
    """Run the criteria numbered in ``numbers`` (all when None), in order."""
    results = []
    for num, name, limit, fn in CRITERIA:
        if numbers is None or num in numbers:
            start = time.perf_counter()
            ok, detail = fn()
            elapsed = time.perf_counter() - start
            results.append(CriterionResult(num, name, ok, detail, elapsed, limit))
    return results
