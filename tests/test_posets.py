import itertools
import math
import re
import sys

import pytest
from hypothesis import given, strategies as st

from chromaposet import posets
from chromaposet.counting import staircase_type
from chromaposet.nice import chain_partition_exists
from chromaposet.partitions import partitions_of
from chromaposet.errors import DomainError, DslParseError
from chromaposet.posets import (
    B3,
    MAX_SUM_DEPTH,
    Boolean,
    Chain,
    Graph,
    OrdinalSum,
    Poset,
    PosetSpec,
    Product,
    build_poset,
    check_size,
    incomparability_graph,
    iter_bits,
    parse_poset_spec,
    verify_distributive_lattice,
)
from conftest import builder_specs, load_perfbench, random_posets, unit_interval_orders

# Ordinal sums nested two and three deep around every builder family; the
# inner sums' lo/hi labels clash with the outer ones and are primed.
NESTED_SUMS = [
    OrdinalSum(p, OrdinalSum(q, OrdinalSum(q, core, p), 1), p)
    for core in (Chain(2), Product((3, 2)), Boolean(2), B3(1))
    for p, q in ((0, 1), (1, 0), (2, 1), (1, 2))
] + [OrdinalSum(2, OrdinalSum(1, core, 1), 0) for core in (Chain(3), Product((2, 2, 2)), B3(2))]


SPEC_SAMPLES = [
    Chain(1),
    Chain(5),
    Product((2, 2)),
    Product((4, 3)),
    Product((2, 2, 2)),
    Boolean(3),
    B3(1),
    B3(4),
    OrdinalSum(1, Product((3, 2)), 2),
    OrdinalSum(0, Chain(2), 0),
    OrdinalSum(2, OrdinalSum(1, Chain(1), 0), 1),
]


def test_chain_basics():
    c = build_poset(Chain(4))
    assert len(c) == 4
    assert c.labels == ("1", "2", "3", "4")
    assert c.max_chain_size() == 4
    assert c.width() == 1
    assert not any(incomparability_graph(c).adj)


def test_invalid_specs():
    with pytest.raises(DomainError, match=r"^chain length must be >= 1, got 0$"):
        Chain(0)
    with pytest.raises(DomainError, match=r"^product factors must be >= 1, got \(\)$"):
        Product(())
    with pytest.raises(DomainError, match=r"^product factors must be >= 1, got \(3, 0\)$"):
        Product((3, 0))
    with pytest.raises(DomainError, match=r"^boolean rank must be >= 1, got -1$"):
        Boolean(-1)
    with pytest.raises(DomainError, match=r"^tail length must be >= 1, got 0$"):
        B3(0)
    with pytest.raises(DomainError, match=r"^ordinal-sum chain lengths must be >= 0$"):
        OrdinalSum(-1, Chain(1), 0)


def test_product_structure():
    p = build_poset(Product((4, 3)))
    assert len(p) == 12
    assert p.max_chain_size() == 6  # 4 + 3 - 1
    assert p.width() == 3
    i = p.index_of("(2,2)")
    j = p.index_of("(3,3)")
    assert p.up[i] >> j & 1
    assert not p.up[j] >> i & 1
    with pytest.raises(DomainError, match=r"^no element labeled '\(9,9\)'$"):
        p.index_of("(9,9)")
    # incomparable pair count: total pairs minus comparable ones
    comparable = sum(
        1
        for a, b in itertools.combinations(range(12), 2)
        if p.up[a] >> b & 1 or p.up[b] >> a & 1
    )
    assert sum(a.bit_count() for a in incomparability_graph(p).adj) == 2 * (66 - comparable)


def test_covers_generate_order():
    # transitive closure of the cover relation reproduces up
    for spec in SPEC_SAMPLES:
        poset = build_poset(spec)
        n = len(poset)
        reach = [1 << i | poset.covers[i] for i in range(n)]
        changed = True
        while changed:
            changed = False
            for i in range(n):
                new = reach[i]
                for j in range(n):
                    if reach[i] >> j & 1:
                        new |= reach[j]
                if new != reach[i]:
                    reach[i] = new
                    changed = True
        for i in range(n):
            assert reach[i] == poset.up[i], spec


def test_max_chain_examples():
    assert build_poset(Product((8, 3))).max_chain_size() == 10
    assert build_poset(B3(6)).max_chain_size() == 9
    assert build_poset(B3(6)).width() == 3


def test_boolean_is_cube_product():
    b = build_poset(Boolean(3))
    p = build_poset(Product((2, 2, 2)))
    assert len(b) == len(p) == 8
    # same up-set profile under the coordinate bijection
    assert sorted(m.bit_count() for m in b.up) == sorted(m.bit_count() for m in p.up)


def test_b3_embeds_cube_with_tails():
    """The facts the non-niceness argument uses, on the built poset and on
    the coordinates it is built from."""
    for n in range(1, 13):
        poset = build_poset(B3(n))
        assert len(poset) == 2 * n + 6
        a = poset.index_of("a")
        assert poset.dn[a].bit_count() == len(poset) - poset.up[a].bit_count() + 1

        def comparable(x, y):
            i, j = poset.index_of(x), poset.index_of(y)
            return bool(poset.up[i] >> j & 1 or poset.up[j] >> i & 1)

        def chain(names):
            return all(comparable(x, y) for x, y in itertools.combinations(names, 2))

        tail = [str(i) for i in range(1, n + 1)]
        assert chain(["a", "d", "f", *(f"{i}'" for i in tail)])
        assert chain(["c", *tail])
        assert comparable("b", "e")
        # b,c,d mutually incomparable; e,f,1 mutually incomparable
        for trio in (("b", "c", "d"), ("e", "f", "1")):
            assert not any(comparable(x, y) for x, y in itertools.combinations(trio, 2))
        assert not any(comparable("d", i) for i in tail)
        assert not any(comparable(i, x) for i in tail for x in ("e", "f"))
        # Meet/join closure of the coordinates: a sublattice of the product.
        labels, coords = posets._b3_coords(n)
        assert labels == list(poset.labels)
        cset = set(coords)
        assert len(cset) == len(coords)
        for x, y in itertools.combinations(coords, 2):
            assert tuple(map(min, x, y)) in cset and tuple(map(max, x, y)) in cset
        if n == 1:
            assert cset == set(itertools.product((1, 2), repeat=3))
        assert verify_distributive_lattice(poset)


def test_b3_1_is_boolean_cube():
    poset = build_poset(B3(1))
    assert len(poset) == 8
    assert sorted(m.bit_count() for m in poset.up) == sorted(
        m.bit_count() for m in build_poset(Boolean(3)).up
    )


def _meets_and_joins(poset):
    """Every meet and every join, keyed by the pair of elements: the common
    bound that lies beyond all the others, or None where there is none."""
    n = range(len(poset))

    def bound(order, a, b):
        common = [c for c in n if order[a] >> c & 1 and order[b] >> c & 1]
        best = [c for c in common if all(order[c] >> d & 1 for d in common)]
        return best[0] if best else None

    return (
        {(a, b): bound(poset.dn, a, b) for a in n for b in n},
        {(a, b): bound(poset.up, a, b) for a in n for b in n},
    )


def test_meet_join():
    p = build_poset(Product((3, 3)))
    meet, join = _meets_and_joins(p)
    i, j = p.index_of("(1,3)"), p.index_of("(3,1)")
    assert p.labels[meet[i, j]] == "(1,1)"
    assert p.labels[join[i, j]] == "(3,3)"
    assert (meet[i, i], join[i, i]) == (i, i)
    meet, join = _meets_and_joins(Poset(("x", "y"), (0b01, 0b10)))
    assert meet[0, 1] is None and join[0, 1] is None


def test_distributive_examples():
    assert verify_distributive_lattice(build_poset(Product((6, 3))))
    assert verify_distributive_lattice(build_poset(Boolean(3)))
    # an antichain of 2 has no meets at all
    two = Poset(("x", "y"), (0b01, 0b10))
    assert not verify_distributive_lattice(two)


def _from_up_sets(up_sets):
    """A poset on one-letter labels from each label's up-set, spelled as
    the string of its labels."""
    labels = tuple(up_sets)
    return Poset(labels, tuple(sum(1 << labels.index(y) for y in ups) for ups in up_sets.values()))


M3 = _from_up_sets({"0": "0abc1", "a": "a1", "b": "b1", "c": "c1", "1": "1"})
N5 = _from_up_sets({"0": "0abc1", "a": "ab1", "b": "b1", "c": "c1", "1": "1"})


def _ordinal_sum(*blocks):
    """Every element of a block below every element of the later blocks."""
    n = sum(map(len, blocks))
    labels, up, offset = [], [], 0
    for k, block in enumerate(blocks):
        later = (1 << n) - (1 << offset + len(block))
        labels += [f"{k}.{label}" for label in block.labels]
        up += [mask << offset | later for mask in block.up]
        offset += len(block)
    return Poset(tuple(labels), tuple(up))


def _product(p, q):
    """The componentwise order on pairs, (i, j) at index i * len(q) + j."""
    up = [
        sum(1 << k * len(q) + l for k in iter_bits(p.up[i]) for l in iter_bits(q.up[j]))
        for i in range(len(p))
        for j in range(len(q))
    ]
    labels = [f"({x},{y})" for x in p.labels for y in q.labels]
    return Poset(tuple(labels), tuple(up))


def _two_law_reference(poset):
    """Both distributive laws over every triple, after every meet and join."""
    n = range(len(poset))
    meet, join = _meets_and_joins(poset)
    if None in meet.values() or None in join.values():
        return False
    return all(
        meet[a, join[b, c]] == join[meet[a, b], meet[a, c]]
        and join[a, meet[b, c]] == meet[join[a, b], join[a, c]]
        for a in n
        for b in n
        for c in n
    )


@pytest.mark.parametrize(
    "lattice",
    [
        M3,
        N5,
        _ordinal_sum(build_poset(Chain(2)), N5, build_poset(Chain(1))),
        _ordinal_sum(M3, build_poset(Chain(3))),
        _product(N5, build_poset(Chain(2))),
        _product(M3, build_poset(Product((2, 2)))),
    ],
    ids=["M3", "N5", "chain2+N5+chain1", "M3+chain3", "N5x2", "M3x2x2"],
)
def test_non_distributive_lattices_fail_the_check(lattice):
    meet, join = _meets_and_joins(lattice)
    assert None not in meet.values() and None not in join.values()
    assert not verify_distributive_lattice(lattice)
    assert not _two_law_reference(lattice)


# Two minimal elements under a top has every join and not every meet; its
# dual has every meet and not every join.
V = _from_up_sets({"a": "a1", "b": "b1", "1": "1"})
WEDGE = _from_up_sets({"0": "0ab", "a": "a", "b": "b"})


@pytest.mark.parametrize(
    "poset, joins",
    [
        (V, True),
        (WEDGE, False),
        (_ordinal_sum(V, build_poset(Chain(2))), True),
        (_ordinal_sum(build_poset(Chain(2)), WEDGE), False),
        (_product(V, build_poset(Chain(2))), True),
        (_product(WEDGE, build_poset(Boolean(2))), False),
    ],
    ids=["V", "wedge", "V+chain2", "chain2+wedge", "Vx2", "wedgex2x2"],
)
def test_half_lattices_fail_the_check(poset, joins):
    """Every join exists and not every meet, or the reverse: the check
    looks for both."""
    meet, join = _meets_and_joins(poset)
    assert (None not in join.values(), None not in meet.values()) == (joins, not joins)
    assert not verify_distributive_lattice(poset)


@pytest.mark.parametrize("spec", builder_specs(32), ids=lambda spec: spec.dsl())
def test_distributivity_of_builder_posets_matches_both_laws(spec):
    poset = build_poset(spec)
    assert verify_distributive_lattice(poset) == _two_law_reference(poset)


@given(random_posets(max_size=7), st.booleans())
def test_distributivity_of_random_posets_matches_both_laws(poset, bounded):
    """With ``bounded``, a bottom and a top are added, which makes most
    draws lattices."""
    if bounded:
        point = build_poset(Chain(1))
        poset = _ordinal_sum(point, poset, point)
    assert verify_distributive_lattice(poset) == _two_law_reference(poset)


@given(unit_interval_orders(max_size=7, min_size=1))
def test_distributivity_of_bounded_unit_interval_orders_matches_both_laws(poset):
    """A unit interval order with a bottom and a top added: a lattice
    exactly when every pair has a least upper bound."""
    point = build_poset(Chain(1))
    poset = _ordinal_sum(point, poset, point)
    assert verify_distributive_lattice(poset) == _two_law_reference(poset)


def test_dsl_round_trip():
    for spec in SPEC_SAMPLES:
        assert parse_poset_spec(spec.dsl()) == spec


def test_dsl_parse_errors_carry_offsets():
    for text, offset in [("chain:x", 6), ("prod:3x", 7), ("nope:3", 0), ("sum:1+chain:2", 13)]:
        with pytest.raises(DslParseError) as exc:
            parse_poset_spec(text)
        assert exc.value.offset == offset, text
    # trailing garbage is a parse error, bad parameters a semantic one
    with pytest.raises(DslParseError):
        parse_poset_spec("chain:3junk")
    with pytest.raises(DomainError, match=r"^chain length must be >= 1, got 0$") as exc2:
        parse_poset_spec("chain:0")
    assert not isinstance(exc2.value, DslParseError)


def test_the_dsl_reader_does_not_recurse():
    """The deepest nesting parses with only 20 frames to spare, where a
    reader recursing once per ordinal sum would need 100."""
    text = "sum:1+" * MAX_SUM_DEPTH + "chain:2" + "+1" * MAX_SUM_DEPTH
    depth, frame = 0, sys._getframe()
    while frame:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 20)
    try:
        spec = parse_poset_spec(text)
    finally:
        sys.setrecursionlimit(limit)
    # walk the nesting: == and dsl() on the spec recurse
    for _ in range(MAX_SUM_DEPTH):
        assert (type(spec), spec.p, spec.q) == (OrdinalSum, 1, 1)
        spec = spec.inner
    assert spec == Chain(2)


UNKNOWN_SPEC = PosetSpec()


@pytest.mark.parametrize("call, message", [
    (lambda: Graph(("a", "b"), (0b10,)), "one adjacency mask per vertex required"),
    (lambda: Graph(("a", "b"), (0b10, 0b11)), "self-loop at b"),
    (lambda: Graph(("a", "b"), (0b10, 0b00)), "adjacency not symmetric"),
    # a neighbour past the last vertex
    (lambda: Graph(("a",), (0b10,)), "adjacency not symmetric"),
    (lambda: OrdinalSum(1, "chain:2", 1), "ordinal-sum inner part must be a poset spec"),
    (lambda: check_size(UNKNOWN_SPEC), f"unknown poset spec {UNKNOWN_SPEC!r}"),
], ids=("graph-masks", "graph-loop", "graph-symmetry", "graph-range", "sum-inner", "unknown-spec"))
def test_refusals_raise_pinned_messages(call, message):
    with pytest.raises(DomainError) as exc:
        call()
    assert str(exc.value) == message


def test_element_cap_is_checked_before_building(monkeypatch):
    for spec in builder_specs(20):
        assert posets._element_count(spec) == len(build_poset(spec)), spec
    # under a cap of 12, 12 elements build and 13 or more do not
    monkeypatch.setattr(posets, "MAX_ELEMENTS", 12)
    assert len(build_poset(Product((4, 3)))) == len(build_poset(B3(3))) == 12
    too_large = [
        Chain(13), Product((13, 1)), B3(4), Boolean(4), Boolean(10**12),
        OrdinalSum(1, Product((4, 3)), 0), OrdinalSum(0, Chain(1), 10**12),
    ]
    for spec in too_large:
        message = f"^poset {re.escape(spec.dsl())} has more than 12 elements$"
        with pytest.raises(DomainError, match=message):
            build_poset(spec)


def test_ordinal_sum_labels_and_order():
    poset = build_poset(OrdinalSum(2, Product((2, 2)), 1))
    assert poset.labels[:2] == ("lo1", "lo2")
    assert poset.labels[-1] == "hi1"
    lo1, hi1 = poset.index_of("lo1"), poset.index_of("hi1")
    assert poset.up[lo1] == poset.full_mask
    assert poset.dn[hi1] == poset.full_mask
    mid = poset.index_of("(2,1)")
    assert poset.up[lo1] >> mid & 1
    assert poset.up[mid] >> hi1 & 1


def _ordinal_sum_up(p, inner, q):
    """The up-sets of p-chain + inner + q-chain from the definition: a lower
    chain element is below everything after it, an inner element keeps its
    up-set and is below the whole upper chain."""
    k = len(inner)
    full = (1 << (p + k + q)) - 1
    hi_mask = ((1 << q) - 1) << (p + k)
    return tuple(
        [full & ~((1 << i) - 1) for i in range(p)]
        + [(inner.up[i] << p) | hi_mask for i in range(k)]
        + [hi_mask & ~((1 << (p + k + j)) - 1) for j in range(q)]
    )


@pytest.mark.parametrize(
    "spec",
    [spec for spec in builder_specs(14) if isinstance(spec, OrdinalSum)] + NESTED_SUMS,
    ids=lambda spec: spec.dsl(),
)
def test_ordinal_sums_match_their_definition(spec):
    inner, poset = build_poset(spec.inner), build_poset(spec)
    assert poset.up == _ordinal_sum_up(spec.p, inner, spec.q)
    # inner labels keep their order, primed where they would clash
    kept = poset.labels[spec.p : spec.p + len(inner)]
    assert [lab.rstrip("'") for lab in kept] == [lab.rstrip("'") for lab in inner.labels]


def test_nested_sum_constructs_one_poset(monkeypatch):
    made = []
    real = Poset.__init__

    def spy(self, labels, up):
        made.append(len(labels))
        real(self, labels, up)

    monkeypatch.setattr(Poset, "__init__", spy)
    poset = build_poset(parse_poset_spec("sum:1+sum:0+sum:2+b3:2+1+0+3"))
    assert made == [len(poset)] == [17]


def test_ordinal_sum_renames_colliding_labels():
    # inner chain has elements "1","2"; a lo/hi chain never collides, but a
    # nested ordinal sum reuses "lo1"/"hi1" and must be renamed
    inner = OrdinalSum(1, Chain(1), 1)
    poset = build_poset(OrdinalSum(1, inner, 1))
    assert poset.labels.count("lo1") == 1
    assert "lo1'" in poset.labels
    assert "hi1'" in poset.labels


def test_subset_helpers():
    p = build_poset(Product((4, 2)))
    chain_mask = sum(1 << p.index_of(lab) for lab in ["(1,1)", "(2,1)", "(2,2)"])
    assert p.induced(chain_mask).width() == 1
    anti = sum(1 << p.index_of(lab) for lab in ["(1,2)", "(2,1)"])
    assert p.induced(anti).max_chain_size() == 1
    assert p.induced(anti).width() == 2


@given(st.integers(1, 5), st.integers(1, 4))
def test_product_width_equals_min_side_count(m, n):
    lengths = tuple(sorted((m, n), reverse=True))
    poset = build_poset(Product(lengths))
    assert poset.width() == min(m, n)
    assert poset.max_chain_size() == m + n - 1


def _pairwise_up(coords):
    return tuple(
        sum(1 << j for j, cj in enumerate(coords) if all(a <= b for a, b in zip(ci, cj)))
        for ci in coords
    )


def test_coordinate_up_sets_match_pairwise_comparison(monkeypatch):
    """Every poset a builder makes (chains, products, boolean lattices, b3,
    ordinal sums nested up to three deep) up to 20 elements has the up-sets
    of the componentwise order, compared pair by pair."""
    built = []
    real = posets._poset_from_coords

    def spy(labels, coords):
        poset = real(labels, coords)
        built.append((coords, poset.up))
        return poset

    monkeypatch.setattr(posets, "_poset_from_coords", spy)
    specs = [Boolean(r) for r in range(1, 5)] + [B3(n) for n in range(1, 8)]
    specs += [
        Product(lengths)
        for k in range(1, 5)
        for lengths in itertools.product(range(1, 21), repeat=k)
        if math.prod(lengths) <= 20
    ]
    specs += [OrdinalSum(1, Product((3, 2)), 2), OrdinalSum(0, B3(2), 3)]
    specs += [Chain(n) for n in range(1, 21)] + NESTED_SUMS
    for spec in specs:
        build_poset(spec)
    assert len(built) == len(specs)
    for coords, up in built:
        assert up == _pairwise_up(coords), coords


# ---------------------------------------------------------------------------
# the Greene-Kleitman shape


@given(random_posets())
def test_chain_shape_is_the_best_cover_of_achieved_types(poset):
    """c_k is the largest k-th prefix sum over the types that have a chain
    partition, found type by type."""
    n = len(poset)
    achieved = [lam for lam in partitions_of(n) if chain_partition_exists(poset, lam)]
    best = [max(sum(lam[:k]) for lam in achieved) for k in range(1, n + 1)]
    assert poset.chain_shape() == tuple(best[: best.index(n) + 1])


def test_chain_shape_of_two_chain_products_is_the_staircase():
    sides = [(m, n) for m in range(1, 9) for n in range(1, m + 1)] + [(40, 25), (600, 2)]
    for m, n in sides:
        shape = build_poset(Product((m, n))).chain_shape()
        assert shape == tuple(itertools.accumulate(staircase_type(m, n))), (m, n)
    assert build_poset(Chain(1200)).chain_shape() == (1200,)


def _dilworth_width(poset):
    """Largest antichain: the size minus a maximum matching in the
    bipartite graph of strict comparabilities (Dilworth)."""
    match_to = {}

    def try_match(i, seen):
        for j in iter_bits(poset.up[i] ^ (1 << i)):
            if j not in seen:
                seen.add(j)
                if j not in match_to or try_match(match_to[j], seen):
                    match_to[j] = i
                    return True
        return False

    return len(poset) - sum(try_match(i, set()) for i in range(len(poset)))


@pytest.mark.parametrize("spec", builder_specs(20), ids=lambda spec: spec.dsl())
def test_chain_shape_ends_are_longest_chain_and_width(spec):
    poset = build_poset(spec)
    shape = poset.chain_shape()
    assert shape[0] == poset.max_chain_size()
    assert len(shape) == _dilworth_width(poset) == poset.width()
    assert shape[-1] == len(poset)


def test_empty_poset_has_empty_chain_shape():
    assert Poset((), ()).chain_shape() == ()


@given(st.one_of(random_posets(max_size=14), unit_interval_orders(max_size=14)))
def test_chain_shape_matches_the_flow(poset):
    assert poset.chain_shape() == poset._flow_shape(poset.levels())


def test_a_shape_below_the_level_bound_comes_from_the_flow():
    """a < b, a < c and d alone: the levels {a, d} and {b, c} bound the
    shape by (2, 4), but no two disjoint chains cover four elements."""
    poset = Poset(("a", "b", "c", "d"), (0b0111, 0b0010, 0b0100, 0b1000))
    assert poset.chain_shape() == (2, 3, 4)


def test_boolean_lattice_shape_is_its_level_bound():
    """The boolean lattice of rank n has a symmetric chain decomposition
    (de Bruijn, Tengbergen and Kruyswijk, 1951), so c_k = sum over i of
    min(C(n, i), k)."""
    for n in range(1, 13):
        sizes = [math.comb(n, i) for i in range(n + 1)]
        bound = tuple(sum(min(size, k) for size in sizes) for k in range(1, max(sizes) + 1))
        assert build_poset(Boolean(n)).chain_shape() == bound, n


def test_the_level_chains_settle_the_shape_without_the_flow(monkeypatch):
    """The flow runs only where the chains read off the levels fall short of
    the level bound: on none of the 41 `nice` pool posets, and on at most
    57 of the 1,105 distributive lattices of up to 14 elements."""
    from test_lattice_corpus import LATTICES

    flows = []
    flow_shape = Poset._flow_shape

    def counted(poset, levels):
        flows.append(poset)
        return flow_shape(poset, levels)

    monkeypatch.setattr(Poset, "_flow_shape", counted)
    for argv in load_perfbench("workloads").pool("nice"):
        build_poset(parse_poset_spec(argv[argv.index("--poset") + 1])).chain_shape()
    assert not flows
    for lattice in LATTICES:
        lattice.chain_shape()
    assert len(flows) <= 1105 - 1048


# ---------------------------------------------------------------------------
# levels by height


def _check_levels(poset):
    levels = poset.levels()
    assert sum(levels) == poset.full_mask
    assert sum(level.bit_count() for level in levels) == len(poset)
    for k, level in enumerate(levels):
        assert level
        for i in iter_bits(level):
            # each level is an antichain, and each element above level 0
            # lies above an element of the level before
            assert not level & poset.comp[i] & ~(1 << i)
            if k:
                assert poset.dn[i] & levels[k - 1]


@given(random_posets())
def test_levels_partition_random_posets_by_height(poset):
    _check_levels(poset)


@pytest.mark.parametrize("spec", builder_specs(20), ids=lambda spec: spec.dsl())
def test_levels_partition_builder_posets_by_height(spec):
    _check_levels(build_poset(spec))


def test_empty_poset_has_no_levels():
    assert Poset((), ()).levels() == ()


# ---------------------------------------------------------------------------
# induced subposets


@pytest.mark.parametrize("spec", builder_specs(14), ids=lambda spec: spec.dsl())
def test_induced_subposet_restricts_the_order(spec):
    """On the elements that are not universal and on every other index:
    the parent's relation restricted to the mask, pair by pair, and the
    labels in index order."""
    poset = build_poset(spec)
    universal = sum(1 << v for v in range(len(poset)) if poset.comp[v] == poset.full_mask)
    for mask in (poset.full_mask & ~universal, poset.full_mask & 0x5555):
        keep = list(posets.iter_bits(mask))
        sub = poset.induced(mask)
        assert sub.labels == tuple(poset.labels[i] for i in keep)
        for a, i in enumerate(keep):
            for b, j in enumerate(keep):
                assert sub.up[a] >> b & 1 == poset.up[i] >> j & 1, (i, j)


def test_induced_on_the_empty_mask_is_the_empty_poset():
    sub = build_poset(Product((3, 2))).induced(0)
    assert len(sub) == 0 and sub.labels == () and sub.up == ()


# ---------------------------------------------------------------------------
# validation of the order relation and the relations derived from it


@pytest.mark.parametrize("up, message", [
    ((0b0001, 0b1010, 0b0100), "up-set mask out of range"),
    # a range error wins over an antisymmetry failure at an earlier element
    ((0b0011, 0b0011, 0b1100), "up-set mask out of range"),
    ((0b0011, 0b0000, 0b0100), "order not reflexive at b"),
    ((0b0011, 0b0011, 0b0100), "order not antisymmetric at a"),
    ((0b0011, 0b0110, 0b0100), "order not transitive at a"),
    ((0b0001, 0b0110, 0b1100, 0b1000), "order not transitive at b"),
    # at the same element antisymmetry is checked first
    ((0b0011, 0b0111, 0b0100), "order not antisymmetric at a"),
    # the first failing element decides, whichever check fails there
    ((0b00001, 0b00110, 0b01100, 0b11000, 0b11000), "order not transitive at b"),
    ((0b00011, 0b00011, 0b01100, 0b11000, 0b10000), "order not antisymmetric at a"),
])
def test_invalid_relations_raise_pinned_messages(up, message):
    labels = "abcde"[: len(up)]
    with pytest.raises(DomainError) as exc:
        Poset(tuple(labels), up)
    assert str(exc.value) == message


@st.composite
def relations(draw):
    """Labels and up-set masks for 0-7 elements: a random order on shuffled
    indices, then up to three flipped bits (a bit at index n is out of
    range) and up to two related pairs made related both ways, and now and
    then a repeated label or one mask too few or too many."""
    n = draw(st.integers(0, 7))
    perm = draw(st.permutations(range(n)))
    up = [1 << i for i in range(n)]
    for a, b in itertools.combinations(range(n), 2):
        if draw(st.booleans()):
            up[perm[a]] |= 1 << perm[b]
    for k in range(n):  # Warshall's transitive closure
        for i in range(n):
            if up[i] >> k & 1:
                up[i] |= up[k]
    if n:
        for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n)), max_size=3)):
            up[i] ^= 1 << j
        for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2)):
            up[j] |= (up[i] >> j & 1) << i
    labels = list("abcdefg"[:n])
    fault = draw(st.integers(0, 19))
    if fault == 1 and n >= 2:
        labels[draw(st.integers(1, n - 1))] = labels[0]
    elif fault == 2 and n:
        up.pop()
    elif fault == 3:
        up.append(1)
    return tuple(labels), tuple(up)


def _first_fault(labels, up):
    """The message of the first failing check, in the documented order, or
    None for a valid order relation."""
    n = len(labels)
    if len(set(labels)) != n:
        return "element labels must be distinct"
    if len(up) != n:
        return "one up-set mask per element required"
    for i in range(n):
        if up[i] >> n:
            return "up-set mask out of range"
        if not up[i] >> i & 1:
            return f"order not reflexive at {labels[i]}"
    rel = lambda i, j: up[i] >> j & 1
    for i in range(n):
        if any(j != i and rel(i, j) and rel(j, i) for j in range(n)):
            return f"order not antisymmetric at {labels[i]}"
        if any(rel(i, j) and rel(j, k) and not rel(i, k) for j in range(n) for k in range(n)):
            return f"order not transitive at {labels[i]}"
    return None


@given(relations())
def test_relation_checks_fail_in_the_documented_order(relation):
    labels, up = relation
    message = _first_fault(labels, up)
    if message is None:
        poset = Poset(labels, up)
        assert poset.up == up
        _assert_derived_relations(poset)
    else:
        with pytest.raises(DomainError) as exc:
            Poset(labels, up)
        assert str(exc.value) == message


def _assert_derived_relations(poset):
    """``dn`` is the transpose of ``up``, ``comp`` their union, and j covers
    i when i < j with no element strictly between, checked pair by pair."""
    n = len(poset)
    below = lambda i, j: i != j and poset.up[i] >> j & 1
    for i in range(n):
        dn = sum(1 << j for j in range(n) if poset.up[j] >> i & 1)
        assert (poset.dn[i], poset.comp[i]) == (dn, poset.up[i] | dn)
        covers = sum(
            1 << j for j in range(n)
            if below(i, j) and not any(below(i, k) and below(k, j) for k in range(n))
        )
        assert poset.covers[i] == covers, i


@given(random_posets())
def test_derived_relations_of_random_posets(poset):
    _assert_derived_relations(poset)


@pytest.mark.parametrize("spec", builder_specs(20), ids=lambda spec: spec.dsl())
def test_derived_relations_of_builder_posets(spec):
    _assert_derived_relations(build_poset(spec))
