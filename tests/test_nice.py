"""Niceness decisions, chain-partition certificates, the negative Schur
coefficient behind every failure of niceness, and the constructive
partitions: the parameterized chain families inside products of two chains
and the absorption recursion for ordinal sums."""

import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from chromaposet import (
    B3,
    Boolean,
    Chain,
    ChainPartitionCertificate,
    ChainPartitionCounter,
    DomainError,
    OrdinalSum,
    Poset,
    Product,
    StablePartitionCounter,
    build_poset,
    chain_partition_exists,
    dominance_leq,
    incomparability_graph,
    is_nice,
    ordinal_sum_chain_partition,
    parse_poset_spec,
    partitions_of,
    schur_coefficient,
    staircase_type,
)
from chromaposet import nice
from chromaposet.nice import _exchange, _merges, _smallest_merge
from chromaposet.posets import iter_bits
from conftest import builder_specs, random_posets, unit_interval_orders


def achieved_set(poset):
    verdict = is_nice(poset)
    return verdict, set(verdict.achieved_types)


def downward_closed(achieved, n):
    return all(
        mu in achieved
        for lam in achieved
        for mu in partitions_of(n)
        if dominance_leq(mu, lam)
    )


# ---------------------------------------------------------------------------
# existence search and certificates


def test_staircase_partition_of_4x3():
    cert = chain_partition_exists(build_poset(Product((4, 3))), (6, 4, 2))
    assert cert is not None
    assert cert.type == (6, 4, 2)
    assert cert.blocks == (
        ("(1,1)", "(1,2)", "(1,3)", "(2,3)", "(3,3)", "(4,3)"),
        ("(2,1)", "(2,2)", "(3,2)", "(4,2)"),
        ("(3,1)", "(4,1)"),
    )


def test_impossible_types_return_none():
    poset = build_poset(Product((2, 2)))
    assert chain_partition_exists(poset, (4,)) is None  # longest chain is 3
    assert chain_partition_exists(poset, (3, 1)) is not None
    with pytest.raises(DomainError, match=r"^partition \(3, 2\) does not fill the 4-element poset$"):
        chain_partition_exists(poset, (3, 2))


def test_node_budget_is_enforced():
    poset = build_poset(B3(6))
    with pytest.raises(DomainError, match=r"^search exceeded 10 nodes$"):
        ChainPartitionCounter(poset, 10).find((6, 6, 6))


def test_certificate_validation_rejects_bad_claims():
    poset = build_poset(Product((2, 2)))
    good = (("(1,1)", "(1,2)", "(2,2)"), ("(2,1)",))
    ChainPartitionCertificate(poset, good, (3, 1)).validate()

    dup = (("(1,1)", "(1,2)", "(2,2)"), ("(2,1)", "(1,1)"))
    with pytest.raises(DomainError, match=r"^element '\(1,1\)' appears twice$"):
        ChainPartitionCertificate(poset, dup, (3, 2)).validate()

    incomp = (("(1,2)", "(2,1)"), ("(1,1)", "(2,2)"))
    with pytest.raises(DomainError, match=r"^'\(1,2\)' and '\(2,1\)' are incomparable$"):
        ChainPartitionCertificate(poset, incomp, (2, 2)).validate()

    missing = (("(1,1)", "(1,2)", "(2,2)"),)
    with pytest.raises(DomainError, match=r"^blocks do not cover the poset$"):
        ChainPartitionCertificate(poset, missing, (3,)).validate()

    with pytest.raises(DomainError, match=r"^block sizes \(3, 1\) do not match type \(2, 2\)$"):
        ChainPartitionCertificate(poset, good, (2, 2)).validate()

    with pytest.raises(DomainError, match=r"^no element labeled 'bogus'$"):
        ChainPartitionCertificate(poset, (("(1,1)", "bogus"),), (2,)).validate()


def test_certificate_jsonable_shape():
    cert = chain_partition_exists(build_poset(Chain(3)), (2, 1))
    data = cert.to_jsonable()
    assert data["type"] == "2,1"
    assert sorted(len(b) for b in data["blocks"]) == [1, 2]


# ---------------------------------------------------------------------------
# niceness


@pytest.mark.parametrize("n", range(1, 7))
def test_chains_are_nice(n):
    verdict, achieved = achieved_set(build_poset(Chain(n)))
    assert verdict.nice
    # every subset of a chain is a chain, so every type is achievable
    assert achieved == set(partitions_of(n))


@pytest.mark.parametrize("sides", [(2, 2), (3, 2), (3, 3), (4, 3)])
def test_products_of_two_chains_are_nice(sides):
    verdict, _ = achieved_set(build_poset(Product(sides)))
    assert verdict.nice
    assert verdict.witness is None


@pytest.mark.parametrize("sides", [(2, 2), (3, 2), (4, 2), (3, 3)])
def test_product_achieved_types_are_dominance_ideal(sides):
    """For a product of two chains the achievable types are exactly the
    partitions dominated by the staircase."""
    m, n = sides
    _, achieved = achieved_set(build_poset(Product(sides)))
    top = staircase_type(m, n)
    assert achieved == {
        mu for mu in partitions_of(m * n) if dominance_leq(mu, top)
    }


@pytest.mark.parametrize("n", [1, 2, 3])
def test_small_b3_members_are_nice(n):
    verdict, achieved = achieved_set(build_poset(B3(n)))
    assert verdict.nice
    assert downward_closed(achieved, 2 * n + 6)


def test_b3_6_is_not_nice():
    verdict = is_nice(build_poset(B3(6)))
    assert not verdict.nice
    assert verdict.witness == ((9, 7, 2), (6, 6, 6))
    cert = verdict.witness_certificate
    assert cert.type == (9, 7, 2)
    cert.validate()


def test_niceness_matches_downward_closure():
    for spec in [
        Chain(4),
        Boolean(3),
        Product((3, 2)),
        B3(1),
        OrdinalSum(1, Product((2, 2)), 1),
        OrdinalSum(0, Product((3, 2)), 2),
    ]:
        poset = build_poset(spec)
        verdict, achieved = achieved_set(poset)
        assert verdict.nice == downward_closed(achieved, len(poset)), spec


def _check_against_per_type_search(poset):
    """is_nice agrees with a separate search for every type: the achieved
    set, the verdict (downward closure) and the first witness pair."""
    n = len(poset)
    verdict = is_nice(poset)
    types = list(partitions_of(n))
    per_type = {lam for lam in types if chain_partition_exists(poset, lam) is not None}
    assert set(verdict.achieved_types) == per_type
    assert list(verdict.achieved_types) == [lam for lam in types if lam in per_type]
    assert verdict.nice == downward_closed(per_type, n)
    pairs = [
        (lam, mu)
        for lam in types
        if lam in per_type
        for mu in types
        if mu not in per_type and dominance_leq(mu, lam)
    ]
    assert verdict.witness == (pairs[0] if pairs else None)
    if pairs:
        assert verdict.witness_certificate.type == pairs[0][0]
        verdict.witness_certificate.validate()


@pytest.mark.parametrize("spec", builder_specs(14) + [B3(6)], ids=lambda spec: spec.dsl())
def test_achieved_types_match_per_type_search(spec):
    _check_against_per_type_search(build_poset(spec))


@settings(max_examples=150, deadline=None)
@given(random_posets())
def test_random_posets_match_per_type_search(poset):
    _check_against_per_type_search(poset)


def _check_against_stable_partitions(poset):
    """Chains are the stable sets of the incomparability graph, so the
    achieved types are the types with a stable partition, which a counter
    that shares no code with the chain-partition engine decides."""
    counter = StablePartitionCounter(incomparability_graph(poset))
    stable = {mu for mu in partitions_of(len(poset)) if counter.count(mu)}
    assert set(is_nice(poset).achieved_types) == stable


@pytest.mark.parametrize("spec", builder_specs(11), ids=lambda spec: spec.dsl())
def test_achieved_types_match_stable_partition_counts(spec):
    _check_against_stable_partitions(build_poset(spec))


@settings(max_examples=150, deadline=None)
@given(random_posets())
def test_random_posets_match_stable_partition_counts(poset):
    _check_against_stable_partitions(poset)


@settings(max_examples=60, deadline=None)
@given(unit_interval_orders(max_size=10))
def test_unit_interval_orders_match_stable_partition_counts(poset):
    _check_against_stable_partitions(poset)


def _chain_union(sizes):
    """Disjoint chains of the given sizes; the elements of the first are
    a1 < a2 < ..., of the second b1 < b2 < ..., and so on."""
    labels, up = [], []
    for name, size in zip("abc", sizes):
        base = len(labels)
        labels += [f"{name}{i}" for i in range(1, size + 1)]
        up += [(1 << base + size) - (1 << base + i) for i in range(size)]
    return Poset(tuple(labels), tuple(up))


CHAIN_UNIONS = [
    sizes
    for k in (2, 3)
    for sizes in itertools.combinations_with_replacement(range(1, 7), k)
]


@pytest.mark.parametrize("sizes", CHAIN_UNIONS, ids=lambda sizes: "+".join(map(str, sizes)))
def test_chain_unions_match_stable_partition_counts(sizes):
    # A union of w chains first fails on a type with more than w parts;
    # from then on the scan may no longer settle a type by its part sizes
    # alone.
    _check_against_stable_partitions(_chain_union(sizes))


def test_two_3_chains_are_not_nice():
    verdict = is_nice(_chain_union((3, 3)))
    assert (verdict.nice, verdict.witness) == (False, ((3, 3), (2, 2, 2)))
    assert verdict.witness_certificate.blocks == (("a1", "a2", "a3"), ("b1", "b2", "b3"))


def _check_exchange(poset):
    """Every partition the exchange builds, from the first partition of an
    achieved type to each type of the same length, passes the certificate
    check, which reads only the raw order relation."""
    engine = ChainPartitionCounter(poset)
    for mu in is_nice(poset).achieved_types:
        blocks = engine.find(mu)
        assert _exchange(poset, blocks, mu) == sorted(blocks, key=int.bit_count, reverse=True)
        for lam in partitions_of(len(poset)):
            moved = _exchange(poset, blocks, lam) if len(lam) == len(mu) else None
            if moved is not None:
                labels = tuple(tuple(poset.labels[i] for i in iter_bits(b)) for b in moved)
                ChainPartitionCertificate(poset, labels, lam).validate()


@pytest.mark.parametrize("spec", builder_specs(14), ids=lambda spec: spec.dsl())
def test_exchange_builds_valid_partitions(spec):
    _check_exchange(build_poset(spec))


@settings(max_examples=100, deadline=None)
@given(random_posets())
def test_exchange_builds_valid_partitions_on_random_posets(poset):
    _check_exchange(poset)


@pytest.mark.parametrize("dsl, most", [
    ("prod:5x4", 64),
    ("prod:3x3x2", 46),
    ("bool:4", 60),
    ("prod:4x4", 64),
    ("sum:0+b3:4+6", 180),
    ("b3:6", 3791),
    # These need the two-chain test in find and the exchange.  With the
    # test alone b3:7, sum:1+b3:6+1 and b3:6 take 3,007, 1,028 and 884
    # nodes; with the exchange alone 13,061, 72 and 2,167.  The pins are
    # exact, and need the three-block look-ahead too: without it b3:7,
    # sum:1+b3:6+1 and b3:6 take 1,974, 12 and 504 nodes.
    ("b3:7", 406),
    ("sum:1+b3:6+1", 7),
    ("b3:6", 121),
    # And the stop at the witness: a scan that runs to its end takes
    # 7,634, 43,918, 198,149, 763,799 and 3,031,308 nodes on b3:8 to b3:12.
    ("b3:8", 658),
    ("b3:9", 1010),
    ("b3:10", 1484),
    ("b3:11", 2104),
    ("b3:12", 2896),
])
def test_scan_searches_at_most_pinned_nodes(dsl, most):
    # Node counts do not depend on the machine: a scan that loses its
    # Greene-Kleitman filter searches thousands more (prod:5x4 searched
    # 6,954 nodes without it).
    poset = build_poset(parse_poset_spec(dsl))
    assert is_nice(poset, max_elements=len(poset)).nodes <= most


@pytest.mark.parametrize("n", range(2, 13))
def test_smallest_merge_is_dominated_by_every_merge(n):
    for lam in partitions_of(n):
        if len(lam) < 2:
            continue
        merges = list(_merges(lam))
        smallest = _smallest_merge(lam)
        assert smallest in merges, lam
        assert all(dominance_leq(smallest, m) for m in merges), lam


@pytest.mark.parametrize("dsl, most", [
    ("prod:5x4", 0),
    ("bool:4", 0),
    ("b3:5", 0),
    ("sum:1+b3:6+1", 0),
    ("b3:6", 6),
    ("b3:7", 12),
])
def test_scan_settles_types_by_their_smallest_merge(monkeypatch, dsl, most):
    # Call counts do not depend on the machine: a scan that generated every
    # merge of every type calls _merges once per type inside the shape.
    calls = []
    monkeypatch.setattr(nice, "_merges", lambda lam: calls.append(lam) or _merges(lam))
    is_nice(build_poset(parse_poset_spec(dsl)))
    assert len(calls) <= most


@pytest.mark.parametrize("dsl, most", [
    ("sum:0+b3:4+6", 105),
    ("sum:1+b3:6+1", 93),
    ("prod:5x4", 119),
    ("bool:4", 56),
    ("b3:7", 397),
])
def test_scan_settles_many_part_types_without_a_lookup(monkeypatch, dsl, most):
    # Call counts do not depend on the machine: a scan that looked up the
    # smallest merge of every type with two or more parts calls
    # _smallest_merge 589, 556, 417, 72 and 528 times on these posets.
    calls = []
    monkeypatch.setattr(nice, "_smallest_merge", lambda lam: calls.append(lam) or _smallest_merge(lam))
    is_nice(build_poset(parse_poset_spec(dsl)))
    assert len(calls) <= most


def test_b3_8_keeps_its_witness_and_certificate():
    verdict = is_nice(build_poset(B3(8)), max_elements=22)
    assert (verdict.nice, verdict.witness) == (False, ((11, 9, 2), (8, 8, 6)))
    assert verdict.witness_certificate.blocks == (
        ("8'", "7'", "6'", "5'", "4'", "3'", "2'", "1'", "e", "b", "a"),
        ("8", "7", "6", "5", "4", "3", "2", "1", "c"),
        ("f", "d"),
    )


@pytest.mark.parametrize("n, missing", [(6, (6, 6, 6)), (7, (7, 7, 6)), (8, (8, 8, 6))],
                         ids=("b3:6", "b3:7", "b3:8"))
def test_b3_witness_types_have_no_stable_partition(n, missing):
    """Chains are the stable sets of the incomparability graph, so a zero
    count refutes the unachieved witness type with no code shared with the
    search behind ``is_nice``."""
    graph = incomparability_graph(build_poset(B3(n)))
    assert StablePartitionCounter(graph).count(missing) == 0


def _negative_coefficient(poset, verdict):
    """The first shape nu dominating the witness's unachieved type mu, mu
    itself tried first, whose Schur coefficient is negative, with that
    coefficient; None if there is none.

    Stanley's argument (Discrete Math. 193, 1998) says there is one.  The
    coefficient of m_mu, the sum of c_nu K_{nu,mu} over nu dominating mu,
    is 0.  Were no such c_nu negative, all would be 0, and so would the
    coefficient of m_lam for the achieved lam.  Shapes outside the chain
    shape have c_nu = 0, so only those inside it are tried."""
    mu = verdict.witness[1]
    shapes = [nu for nu in partitions_of(len(poset), poset.chain_shape()) if dominance_leq(mu, nu)]
    for nu in sorted(shapes, key=lambda nu: nu != mu):
        coefficient = schur_coefficient(poset, nu)
        if coefficient < 0:
            return nu, coefficient
    return None


@pytest.mark.parametrize("dsl, shape, coefficient", [
    ("b3:6", (6, 6, 6), -72),
    ("b3:7", (7, 7, 6), -168),
    ("b3:8", (8, 8, 6), -328),
    ("sum:0+b3:7+1", (7, 7, 7), -168),
], ids=("b3:6", "b3:7", "b3:8", "sum:0+b3:7+1"))
def test_not_nice_means_a_negative_schur_coefficient(dsl, shape, coefficient):
    """The two halves of the paper meet: each non-nice poset's unachieved
    witness type is itself a negative Schur coefficient."""
    poset = build_poset(parse_poset_spec(dsl))
    verdict = is_nice(poset, max_elements=len(poset))
    assert not verdict.nice
    assert _negative_coefficient(poset, verdict) == (shape, coefficient)


def test_b3_6_negative_coefficients_above_its_witness():
    """All shapes inside the chain shape that dominate (6, 6, 6), and the
    two of them with a negative coefficient."""
    poset = build_poset(B3(6))
    shapes = [nu for nu in partitions_of(18, poset.chain_shape()) if dominance_leq((6, 6, 6), nu)]
    negative = {nu: c for nu in shapes if (c := schur_coefficient(poset, nu)) < 0}
    assert (len(shapes), negative) == (10, {(7, 6, 5): -92, (6, 6, 6): -72})


def test_not_nice_builders_have_a_negative_schur_coefficient():
    not_nice = []
    for spec in builder_specs(20):
        poset = build_poset(spec)
        verdict = is_nice(poset)
        if not verdict.nice:
            assert _negative_coefficient(poset, verdict) is not None, spec
            not_nice.append(spec.dsl())
    assert not_nice == ["b3:6", "b3:7"]


@settings(max_examples=150, deadline=None)
@given(random_posets())
def test_not_nice_random_posets_have_a_negative_schur_coefficient(poset):
    verdict = is_nice(poset)
    if not verdict.nice:
        assert _negative_coefficient(poset, verdict) is not None


def test_b3_6_and_its_sum_keep_their_answers():
    verdict = is_nice(build_poset(B3(6)))
    assert (verdict.nice, verdict.witness) == (False, ((9, 7, 2), (6, 6, 6)))
    assert len(verdict.achieved_types) == 315
    assert all(dominance_leq(lam, (9, 7, 2)) for lam in verdict.achieved_types)
    # Adding a bottom and a top makes it nice: every type dominated by
    # (11, 7, 2), the steps of its Greene-Kleitman shape (11, 18, 20), is
    # achieved.
    verdict = is_nice(build_poset(OrdinalSum(1, B3(6), 1)))
    assert (verdict.nice, verdict.witness) == (True, None)
    assert verdict.achieved_types == tuple(
        mu for mu in partitions_of(20) if dominance_leq(mu, (11, 7, 2))
    )


def test_is_nice_size_guard():
    with pytest.raises(DomainError, match=r"^21 elements exceeds the niceness limit of 20$"):
        is_nice(build_poset(Product((7, 3))))
    # the scan takes 11 types before its searches walk 11 nodes
    with pytest.raises(DomainError, match=r"^niceness scan exceeded 10 types$"):
        is_nice(build_poset(B3(6)), node_budget=10)


def test_lists_read_past_the_budget_raise_on_every_read():
    # The scan stops at b3:8's witness after 658 nodes, and the scan that
    # completes its lists reaches 7,634 in all.
    verdict = is_nice(build_poset(B3(8)), max_elements=22, node_budget=1000)
    assert (verdict.nice, verdict.nodes) == (False, 658)
    with pytest.raises(DomainError, match=r"^search exceeded 1000 nodes$"):
        verdict.unachieved_types
    with pytest.raises(DomainError, match=r"^the niceness scan stopped at its budget$"):
        verdict.achieved_types
    verdict = is_nice(build_poset(B3(8)), max_elements=22, node_budget=7634)
    assert verdict.unachieved_types == ((8, 8, 6), (8, 7, 7)) and verdict.nodes == 658


def test_empty_poset_is_nice():
    verdict = is_nice(Poset((), ()))
    assert verdict.nice is True
    assert verdict.achieved_types == ((),)
    assert verdict.witness is None and verdict.witness_certificate is None
    assert verdict.nodes == 0


def test_verdict_carries_achieved_types():
    poset = build_poset(Product((2, 2)))
    assert is_nice(poset).achieved_types == (
        (3, 1),
        (2, 2),
        (2, 1, 1),
        (1, 1, 1, 1),
    )


# ---------------------------------------------------------------------------
# the staircase and the parameterized chain families


def test_staircase_type_values():
    assert staircase_type(4, 3) == (6, 4, 2)
    assert staircase_type(8, 3) == (10, 8, 6)
    assert staircase_type(16, 4) == (19, 17, 15, 13)
    assert staircase_type(5, 1) == (5,)
    with pytest.raises(DomainError, match=r"^need m >= n >= 1, got \(3, 4\)$"):
        staircase_type(3, 4)


def _chain_family(m, n, sigma, upsilon):
    """The chains C_1..C_{n-1} and leftover blocks R_1..R_n that a
    permutation sigma of 1..n-1 and a sorted (n-1)-subset upsilon of 1..m
    pick inside the m x n product.

    Chain number sigma_i runs through the i-th position: up the column n-i
    from (i, n-i) to row r_i, across to column n-i+1, and on to
    (m-n+1+i, n-i+1).  Below rank n-2 and above rank m, the i leftmost
    elements of rank i-1 and of rank m+n-i-1 go to the chains numbered by
    sigma with entries larger than i removed.  Leftover block R_i is the run
    of column n+1-i strictly between r_{i-1} and r_i.
    """
    r = (0,) + tuple(upsilon) + (m + 1,)
    chains = {j: [] for j in range(1, n)}
    for i in range(1, n):
        chains[sigma[i - 1]] += [(x, n - i) for x in range(i, r[i] + 1)]
        chains[sigma[i - 1]] += [(x, n - i + 1) for x in range(r[i], m - n + 2 + i)]
    for i in range(1, n - 1):
        trunc = [v for v in sigma if v <= i]
        for k in range(1, i + 1):
            chains[trunc[k - 1]] += [(k, i - k + 1), (m - i + k, n - k + 1)]
    family = tuple(tuple(sorted(chains[j], key=sum)) for j in range(1, n))
    blocks = tuple(
        tuple((x, n + 1 - i) for x in range(r[i - 1] + 1, r[i])) for i in range(1, n + 1)
    )
    _check_chain_family(m, n, family, blocks)
    return family, blocks


def _check_chain_family(m, n, family, blocks):
    """The chains have sizes m+n-1, m+n-3, ..., m-n+3; with the nonempty
    leftover runs they form a chain partition of m x n, and no two leftover
    blocks hold comparable elements."""
    assert [len(chain) for chain in family] == list(range(m + n - 1, m - n + 1, -2))
    parts = [block for block in family + blocks if block]
    ChainPartitionCertificate(
        build_poset(Product((m, n))),
        tuple(tuple(f"({x},{y})" for x, y in block) for block in parts),
        tuple(sorted(map(len, parts), reverse=True)),
    ).validate()
    for b1, b2 in itertools.combinations(blocks, 2):
        for (a, b), (c, d) in itertools.product(b1, b2):
            assert (a - c) * (b - d) < 0, ((a, b), (c, d))


def test_single_chain_family_8x2():
    family, blocks = _chain_family(8, 2, (1,), (3,))
    assert family == (
        ((1, 1), (2, 1), (3, 1), (3, 2), (4, 2), (5, 2), (6, 2), (7, 2), (8, 2)),
    )
    assert blocks == (((1, 2), (2, 2)), ((4, 1), (5, 1), (6, 1), (7, 1), (8, 1)))


def test_leftover_blocks_are_column_runs():
    _, blocks = _chain_family(16, 4, (1, 2, 3), (4, 10, 14))
    assert blocks == (
        ((1, 4), (2, 4), (3, 4)),
        ((5, 3), (6, 3), (7, 3), (8, 3), (9, 3)),
        ((11, 2), (12, 2), (13, 2)),
        ((15, 1), (16, 1)),
    )


def test_rank_rows_follow_truncated_permutation():
    """Reading the cells of fixed rank left to right gives the permutation
    with its large entries removed, one entry per surviving chain."""
    sigma = (3, 1, 6, 5, 2, 7, 4)
    family, _ = _chain_family(8, 8, sigma, (1, 2, 3, 4, 5, 6, 7))
    owner = {cell: j for j, chain in enumerate(family, start=1) for cell in chain}
    rows = {
        rank: [owner[(k, rank + 2 - k)] for k in range(1, rank + 2)]
        for rank in (4, 5, 6)
    }
    assert rows[6] == [3, 1, 6, 5, 2, 7, 4]
    assert rows[5] == [3, 1, 6, 5, 2, 4]
    assert rows[4] == [3, 1, 5, 2, 4]


def test_families_are_distinct_and_counted():
    for n in (2, 3):
        for m in range(n, 6):
            seen = set()
            for sigma in itertools.permutations(range(1, n)):
                for upsilon in itertools.combinations(range(1, m + 1), n - 1):
                    family, _ = _chain_family(m, n, sigma, upsilon)
                    seen.add(family)
            expected = math.factorial(n - 1) * math.comb(m, n - 1)
            assert len(seen) == expected, (m, n)


# ---------------------------------------------------------------------------
# ordinal sums


def test_ordinal_sum_absorption_splits():
    cert = ordinal_sum_chain_partition(1, 1, 2, 2, (4, 2))
    assert cert.type == (4, 2)
    assert "lo1" in cert.blocks[0]
    assert "hi1" in cert.blocks[1]

    # both added elements land in the second block, around the inner chain
    cert = ordinal_sum_chain_partition(1, 1, 3, 2, (4, 4))
    assert cert.type == (4, 4)
    assert cert.blocks[1][0] == "lo1"
    assert cert.blocks[1][-1] == "hi1"

    # the shifted staircase itself puts every added element in block one
    cert = ordinal_sum_chain_partition(2, 1, 3, 2, (7, 2))
    assert {"lo1", "lo2", "hi1"} <= set(cert.blocks[0])


def test_ordinal_sum_preconditions():
    with pytest.raises(DomainError, match=r"^added chain lengths must be >= 0$"):
        ordinal_sum_chain_partition(-1, 0, 2, 2, (4, 1))
    with pytest.raises(DomainError, match=r"^\(6,\) is not dominated by \(5, 1\)$"):
        ordinal_sum_chain_partition(1, 1, 2, 2, (6,))
    with pytest.raises(DomainError, match=r"^\(4, 1\) and \(5, 1\) have different totals$"):
        ordinal_sum_chain_partition(1, 1, 2, 2, (4, 1))


def test_ordinal_sum_achieved_iff_dominated():
    """On 1 + (2 x 2) + 1 the constructive route, the search, and the
    dominance test must all agree, for every type."""
    poset = build_poset(OrdinalSum(1, Product((2, 2)), 1))
    tilde = (5, 1)
    for mu in partitions_of(6):
        dominated = dominance_leq(mu, tilde)
        assert (chain_partition_exists(poset, mu) is not None) == dominated
        if dominated:
            cert = ordinal_sum_chain_partition(1, 1, 2, 2, mu)
            assert cert.type == mu
            cert.validate()
        else:
            with pytest.raises(DomainError, match=r"^\(6,\) is not dominated by \(5, 1\)$"):
                ordinal_sum_chain_partition(1, 1, 2, 2, mu)


@st.composite
def _sum_partition_cases(draw):
    """(p, q, m, n, mu): m >= n >= 1, m*n + p + q <= 16, and mu dominated
    by the shifted staircase of p + (m x n) + q."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(n, 16 // n))
    p = draw(st.integers(0, 16 - m * n))
    q = draw(st.integers(0, 16 - m * n - p))
    lam = staircase_type(m, n)
    tilde = (lam[0] + p + q,) + lam[1:]
    mu = draw(st.sampled_from(
        [mu for mu in partitions_of(m * n + p + q) if dominance_leq(mu, tilde)]
    ))
    return p, q, m, n, mu


@settings(max_examples=60, deadline=None)
@given(_sum_partition_cases())
def test_ordinal_sum_partition_certificates_validate(case):
    p, q, m, n, mu = case
    cert = ordinal_sum_chain_partition(p, q, m, n, mu)
    assert cert.type == mu
    assert len(cert.poset) == m * n + p + q
    cert.validate()


def test_ordinal_sums_of_products_are_nice():
    for p, q, m, n in [(1, 1, 2, 2), (2, 0, 3, 2), (0, 1, 3, 3)]:
        poset = build_poset(OrdinalSum(p, Product((m, n)), q))
        verdict, achieved = achieved_set(poset)
        assert verdict.nice
        lam = staircase_type(m, n)
        tilde = (lam[0] + p + q,) + lam[1:]
        assert achieved == {
            mu for mu in partitions_of(len(poset)) if dominance_leq(mu, tilde)
        }
