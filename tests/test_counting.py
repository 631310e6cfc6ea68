import itertools
from collections import Counter
from math import factorial, prod

import pytest
from hypothesis import given, settings, strategies as st

from chromaposet.counting import (
    ChainPartitionCounter,
    SearchStats,
    StablePartitionCounter,
    closed_route,
    proof_case_closed_forms,
    scp_closed_form,
    staircase_delta,
    staircase_type,
)
from chromaposet.errors import DomainError
from chromaposet.nice import ChainPartitionSearcher, chain_partition_exists
from chromaposet.partitions import PartitionIds, partitions_of, symmetry_factor
from chromaposet.posets import (
    B3,
    Boolean,
    Chain,
    OrdinalSum,
    Product,
    build_poset,
    incomparability_graph,
    Poset,
    parse_poset_spec,
)
from chromaposet.schur import count_colorings_by_type
from conftest import builder_specs, random_posets, unit_interval_orders, witness_case_contents


def brute_count_scp(poset, type_):
    """Assign each element a block index and accept proper semi-ordered
    chain fillings; hopeless beyond ~8 elements, which is the point."""
    n = len(poset)
    total = 0
    for assignment in itertools.product(range(len(type_)), repeat=n):
        sizes = [0] * len(type_)
        for b in assignment:
            sizes[b] += 1
        if sizes != list(type_):
            continue
        ok = True
        for i, j in itertools.combinations(range(n), 2):
            if assignment[i] == assignment[j]:
                if not (poset.up[i] >> j & 1 or poset.up[j] >> i & 1):
                    ok = False
                    break
        if ok:
            total += 1
    # labeled slots distinguish equal-size blocks, which is exactly the
    # semi-ordered convention
    return total


def test_known_small_counts():
    assert ChainPartitionCounter(build_poset(Chain(4))).count((2, 1, 1)) == 12
    assert ChainPartitionCounter(build_poset(Product((2, 2)))).count((2, 2)) == 4
    assert ChainPartitionCounter(build_poset(Chain(3))).count((3,)) == 1
    assert ChainPartitionCounter(build_poset(Chain(3))).count((2, 1)) == 3


def test_size_mismatch():
    with pytest.raises(DomainError, match=r"^partition \(2, 1\) does not fill the 4-element poset$"):
        ChainPartitionCounter(build_poset(Chain(4))).count((2, 1))


@pytest.mark.parametrize("type_", [(5, 2), (5, 4)], ids=["too-small", "too-large"])
def test_one_size_message_on_every_route(type_):
    """A type too small or too large for the poset fails with one message
    whichever entry point counts it: the search, every route choice and
    the closed form, each before anything else is checked."""
    poset = build_poset(Product((4, 2)))
    message = rf"^partition \({type_[0]}, {type_[1]}\) does not fill the 8-element poset$"
    calls = [
        lambda: ChainPartitionCounter(poset).count(type_),
        lambda: ChainPartitionCounter(poset).find(type_),
        lambda: scp_closed_form(4, 2, type_),
    ]
    calls += [lambda m=m: closed_route(poset, type_, m) for m in ("auto", "brute", "closed")]
    for call in calls:
        with pytest.raises(DomainError, match=message):
            call()


@pytest.mark.parametrize("call, message", [
    (lambda: StablePartitionCounter(incomparability_graph(build_poset(Chain(3)))).count((2,)),
     "type (2,) does not cover 3 vertices"),
    (lambda: closed_route(build_poset(Chain(3)), (3,), "fast"), "unknown method 'fast'"),
], ids=("stable-size", "route-method"))
def test_refusals_raise_pinned_messages(call, message):
    with pytest.raises(DomainError) as exc:
        call()
    assert str(exc.value) == message


def test_zero_when_part_exceeds_longest_chain():
    p = build_poset(Product((2, 2)))
    assert ChainPartitionCounter(p).count((4,)) == 0
    b = build_poset(B3(2))
    assert ChainPartitionCounter(b).count((len(b),)) == 0


def test_chain_counts_are_multinomials():
    for n in range(1, 9):
        poset = build_poset(Chain(n))
        for lam in partitions_of(n):
            assert ChainPartitionCounter(poset).count(lam) == multinomial(lam)


def test_semiordered_divisible_by_symmetry():
    for spec in (Chain(5), Product((3, 2)), Boolean(3), B3(1)):
        poset = build_poset(spec)
        for lam in partitions_of(len(poset)):
            c = ChainPartitionCounter(poset).count(lam)
            assert c % symmetry_factor(lam) == 0


def test_graph_and_poset_counters_agree():
    for spec in (Chain(5), Product((3, 2)), Product((2, 2, 2)), B3(1), OrdinalSum(1, Chain(2), 1)):
        poset = build_poset(spec)
        counter = ChainPartitionCounter(poset)
        graph = incomparability_graph(poset)
        for lam in partitions_of(len(poset)):
            assert counter.count(lam) == StablePartitionCounter(graph).count(lam)


def test_counters_against_assignment_brute():
    for spec in (Chain(4), Product((3, 2)), Product((2, 2)), OrdinalSum(1, Product((2, 2)), 1)):
        poset = build_poset(spec)
        counter = ChainPartitionCounter(poset)
        for lam in partitions_of(len(poset)):
            assert counter.count(lam) == brute_count_scp(poset, lam), (spec, lam)


@settings(max_examples=100, deadline=None)
@given(random_posets())
def test_engine_matches_coloring_oracle_on_random_posets(poset):
    """Counts and existence against proper colorings by type, which share no
    code with the chain-partition engine."""
    graph = incomparability_graph(poset)
    for lam in partitions_of(len(poset)):
        expected = count_colorings_by_type(graph, lam)
        assert ChainPartitionCounter(poset).count(lam) == expected, lam
        cert = chain_partition_exists(poset, lam)
        assert (cert is not None) == (expected > 0), lam
        if cert is not None:
            assert cert.type == lam
            cert.validate()


def _check_one_pass(poset):
    """``count_all`` against a count of every type, and each count against
    stable partitions of the incomparability graph, which share no code
    with the engine."""
    oracle = StablePartitionCounter(incomparability_graph(poset))
    counter = ChainPartitionCounter(poset)
    counts = {lam: counter.count(lam) for lam in partitions_of(len(poset))}
    assert all(counts[lam] == oracle.count(lam) for lam in counts)
    assert _count_all(poset) == {lam: c for lam, c in counts.items() if c}


def _count_all(poset):
    """``count_all`` with an interner of its own, keyed by partitions."""
    ids = PartitionIds()
    return {ids.partition(i): c for i, c in ChainPartitionCounter(poset).count_all(ids).items()}


@pytest.mark.parametrize("spec", builder_specs(12), ids=lambda spec: spec.dsl())
def test_one_pass_counts_every_type(spec):
    _check_one_pass(build_poset(spec))


def test_one_pass_on_the_empty_poset():
    _check_one_pass(Poset((), ()))
    assert _count_all(Poset((), ())) == {(): 1}


@settings(max_examples=100, deadline=None)
@given(random_posets())
def test_one_pass_counts_every_type_on_random_posets(poset):
    _check_one_pass(poset)


@settings(max_examples=100, deadline=None)
@given(unit_interval_orders())
def test_one_pass_counts_every_type_on_unit_interval_orders(poset):
    _check_one_pass(poset)


def test_one_pass_keeps_the_node_budget():
    counter = ChainPartitionCounter(build_poset(Product((3, 2))), node_budget=3)
    with pytest.raises(DomainError, match="exceeded 3 nodes"):
        counter.count_all(PartitionIds())


def test_one_engine_counts_and_finds():
    assert ChainPartitionCounter is ChainPartitionSearcher


@pytest.mark.parametrize("dsl", ["b3:3", "prod:4x3", "bool:3"])
def test_shared_memo_agrees_with_fresh_engines(dsl):
    """Finds that leave zeros and partial walks in the memo, and counts that
    fill it, change neither later counts nor the first blocks found."""
    poset = build_poset(parse_poset_spec(dsl))
    types = list(partitions_of(len(poset)))
    counts = {lam: ChainPartitionCounter(poset).count(lam) for lam in types}
    firsts = {lam: ChainPartitionCounter(poset).find(lam) for lam in types}
    assert 0 in counts.values() and None in firsts.values()
    assert all((firsts[lam] is None) == (counts[lam] == 0) for lam in types)
    finder_first = ChainPartitionCounter(poset)
    assert {lam: finder_first.find(lam) for lam in types} == firsts
    assert {lam: finder_first.count(lam) for lam in types} == counts
    counter_first = ChainPartitionCounter(poset)
    assert {lam: counter_first.count(lam) for lam in types} == counts
    assert {lam: counter_first.find(lam) for lam in types} == firsts


def _check_two_chain_test(poset):
    """``_splits`` against stable partitions of the incomparability graph of
    every nonempty subposet, an oracle that shares no code with it."""
    engine = ChainPartitionCounter(poset)
    for rem in range(1, 1 << len(poset)):
        size = rem.bit_count()
        oracle = StablePartitionCounter(incomparability_graph(poset.induced(rem)))
        for a in range((size + 1) // 2, size + 1):
            lam = (a, size - a) if a < size else (a,)
            assert engine._splits(rem, a) == (oracle.count(lam) > 0), (rem, lam)


@pytest.mark.parametrize("spec", builder_specs(10), ids=lambda spec: spec.dsl())
def test_two_chain_test_matches_stable_partitions(spec):
    _check_two_chain_test(build_poset(spec))


@settings(max_examples=100, deadline=None)
@given(random_posets())
def test_two_chain_test_matches_stable_partitions_on_random_posets(poset):
    _check_two_chain_test(poset)


def first_chain_partition(poset, rem, sizes):
    """The first chain partition of ``rem`` with the given block sizes in the
    engine's order, from a search with no pruning: each block goes through
    the lowest remaining element, its size taken over the distinct sizes in
    order, and takes further elements by increasing index."""
    if not sizes:
        return []
    comp = poset.comp
    v = (rem & -rem).bit_length() - 1

    def chains(block, cand, need):
        if need == 0:
            yield block
            return
        for w in range(len(poset)):
            if cand >> w & 1:
                yield from chains(block | 1 << w, (cand >> w + 1 << w + 1) & comp[w], need - 1)

    for i, s in enumerate(sizes):
        if i and sizes[i - 1] == s:
            continue
        for block in chains(1 << v, rem & comp[v] & ~(1 << v), s - 1):
            rest = first_chain_partition(poset, rem & ~block, sizes[:i] + sizes[i + 1 :])
            if rest is not None:
                return [block] + rest
    return None


def _check_first_blocks(poset):
    """``find``, with its look-ahead on three blocks left, returns the first
    blocks of an unpruned search in the same order, or None with it."""
    for lam in partitions_of(len(poset)):
        if len(lam) >= 3:
            expected = first_chain_partition(poset, poset.full_mask, lam)
            assert ChainPartitionCounter(poset).find(lam) == expected, lam


@pytest.mark.parametrize("spec", builder_specs(12), ids=lambda spec: spec.dsl())
def test_find_returns_the_first_blocks_of_an_unpruned_search(spec):
    _check_first_blocks(build_poset(spec))


@settings(max_examples=100, deadline=None)
@given(random_posets())
def test_find_returns_the_first_blocks_on_random_posets(poset):
    _check_first_blocks(poset)


@settings(max_examples=100, deadline=None)
@given(unit_interval_orders())
def test_find_returns_the_first_blocks_on_unit_interval_orders(poset):
    _check_first_blocks(poset)


def test_search_stats_populated():
    stats = SearchStats()
    ChainPartitionCounter(build_poset(Product((3, 2)))).count((4, 2), stats=stats)
    assert stats.nodes > 0


def test_closed_form_rejects_bad_input():
    # the 8x3 staircase is (10, 8); the tail of (10, 8, 4, 2) is (4, 2)
    assert staircase_type(8, 3)[:-1] == (10, 8)
    assert scp_closed_form(8, 3, (10, 8, 4, 2)) == literal_closed_form(8, 3, (10, 8, 4, 2))
    with pytest.raises(
        DomainError, match=r"^type \(10, 7, 5, 2\) does not start with the staircase \(10, 8\)$"
    ):
        scp_closed_form(8, 3, (10, 7, 5, 2))
    with pytest.raises(
        DomainError, match=r"^partition \(10, 8, 4\) does not fill the 24-element poset$"
    ):
        scp_closed_form(8, 3, (10, 8, 4))
    with pytest.raises(DomainError, match="weakly decreasing"):
        scp_closed_form(8, 3, (10, 8, 2, 4))
    # the sides are checked before the type
    with pytest.raises(DomainError, match=r"^need m >= n >= 1, got \(3, 4\)$"):
        scp_closed_form(3, 4, (10, 8))
    with pytest.raises(DomainError, match=r"^need m >= n >= 1, got \(3, 0\)$"):
        scp_closed_form(3, 0, ())


def test_closed_form_values():
    assert scp_closed_form(4, 2, (5, 2, 1)) == 8
    assert scp_closed_form(8, 3, (10, 8, 4, 2)) == 102


def multinomial(parts):
    """sum(parts)! / (parts_1! * parts_2! * ...)."""
    return factorial(sum(parts)) // prod(factorial(x) for x in parts)


def weak_compositions(total, length):
    """Every length-``length`` tuple of nonnegative ints summing to ``total``."""
    if length == 1:
        return [(total,)]
    return [(first,) + rest for first in range(total + 1)
            for rest in weak_compositions(total - first, length - 1)]


def literal_closed_form(m, n, type_):
    """The closed form as written: for each part size k of the tail, a weak
    composition of its multiplicity over the n threads, weighted by its
    multinomial; thread j then contributes (its load)!.  Scaled by (n-1)!
    and divided by the product of k!^alpha_k."""
    assert sum(type_) == m * n and type_[: n - 1] == staircase_type(m, n)[:-1]
    # The tail's part sizes with their multiplicities, ((k, alpha_k), ...).
    profile = sorted(Counter(type_[n - 1 :]).items())
    total = 0
    splits = [weak_compositions(alpha, n) for _, alpha in profile]
    for combo in itertools.product(*splits):
        loads = [0] * n
        weight = 1
        for (k, alpha), comp in zip(profile, combo):
            weight *= multinomial(comp)
            for j, a in enumerate(comp):
                loads[j] += k * a
        for load in loads:
            weight *= factorial(load)
        total += weight
    total *= factorial(n - 1)
    denom = 1
    for k, alpha in profile:
        denom *= factorial(k) ** alpha
    assert total % denom == 0
    return total // denom


def test_closed_form_matches_the_weak_composition_sum():
    for m in range(1, 12):
        for n in range(1, m + 1):
            for tail in partitions_of(m - n + 1):
                type_ = staircase_type(m, n)[:-1] + tail
                assert scp_closed_form(m, n, type_) == literal_closed_form(m, n, type_), type_


def test_closed_form_matches_counter_exhaustively():
    for m, n in ((3, 2), (4, 2), (4, 3)):
        poset = build_poset(Product((m, n)))
        for tail in partitions_of(m - n + 1):
            type_ = staircase_type(m, n)[:-1] + tail
            assert scp_closed_form(m, n, type_) == ChainPartitionCounter(poset).count(type_), type_


def test_forced_content_prefix():
    def prefix(shape, m, n):
        sides = closed_route(build_poset(Product((m, n))), shape, "auto")
        return None if sides is None else staircase_type(*sides)[:-1]

    assert prefix((10, 8, 2, 2, 2), 8, 3) == (10, 8)
    assert prefix((13, 11, 9, 3, 2, 2), 10, 4) == (13, 11, 9)
    assert prefix((9, 9, 2, 2, 2), 8, 3) is None
    assert prefix((4, 2, 2), 4, 2) is None  # 4 != 4+2-1
    assert prefix((5, 2, 1), 4, 2) == (5,)
    with pytest.raises(DomainError, match=r"^partition \(5, 2\) does not fill the 8-element poset$"):
        prefix((5, 2), 4, 2)


def test_forced_prefix_is_really_forced():
    # shapes with the staircase prefix only admit contents extending it
    for m, n in ((3, 2), (4, 2), (4, 3)):
        poset = build_poset(Product((m, n)))
        prefix = staircase_type(m, n)[:-1]
        from chromaposet.rimhooks import enumerate_srht

        for tail in partitions_of(m - n + 1):
            shape = prefix + tail
            for t in enumerate_srht(shape):
                if ChainPartitionCounter(poset).count(t.content):
                    assert t.content[: n - 1] == prefix, (shape, t.content)


def test_staircase_delta():
    assert staircase_delta(3, 5) == (10, 8)
    assert staircase_delta(2, 5) == (8,)
    assert staircase_delta(5, 7) == (16, 14, 12, 10)
    with pytest.raises(DomainError, match=r"^need k >= 5 and n >= 2, got \(1, 5\)$"):
        staircase_delta(1, 5)
    with pytest.raises(DomainError, match=r"^need k >= 5 and n >= 2, got \(3, 4\)$"):
        staircase_delta(3, 4)


def test_witness_case_contents():
    cases = witness_case_contents(3, 5)
    assert cases["T1"] == (10, 8, 4, 2)
    assert cases["T2"] == (10, 8, 4, 1, 1)
    assert cases["T3"] == (10, 8, 3, 3)
    assert cases["T4"] == (10, 8, 3, 2, 1)
    # at k=5 the T5 tail (k-3,3,1) sorts to the same content as T4's
    assert cases["T5"] == (10, 8, 3, 2, 1)
    assert cases["T6"] == (10, 8, 2, 2, 2)
    cases7 = witness_case_contents(4, 7)
    assert cases7["T3"] == (14, 12, 10, 5, 3)
    assert cases7["T5"] == (14, 12, 10, 4, 3, 1)


def test_case_polynomials_match_closed_form():
    # the six per-case polynomials agree with the generic closed form over
    # the range of the witness coefficients
    for k in range(5, 21):
        for n in range(2, 8):
            cases = proof_case_closed_forms(n, k)
            contents = witness_case_contents(n, k)
            for name, value in cases.items():
                assert value == scp_closed_form(n + k, n, contents[name]), (name, n, k)


def test_case_values_at_reference_point():
    cases = proof_case_closed_forms(3, 5)
    assert cases == {
        "T1": 102,
        "T2": 336,
        "T3": 132,
        "T4": 576,
        "T5": 576,
        "T6": 768,
    }


@settings(deadline=None)
@given(st.integers(2, 4), st.integers(2, 4))
def test_closed_form_total_is_positive(m_extra, n):
    m = n + m_extra
    for tail in partitions_of(m - n + 1):
        assert scp_closed_form(m, n, staircase_type(m, n)[:-1] + tail) > 0
