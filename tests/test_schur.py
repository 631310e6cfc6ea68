"""Schur and monomial expansions, checked against routes that share no code
with the library: coloring enumeration for monomial coefficients, the hook
length and hook content formulas for chain expansions and principal
specializations, Gasharov's P-tableaux on unit interval orders, two
checksums on expansions of every size, and the closed witness formula
against its six-case assembly."""

import math
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromaposet import (
    B3,
    Boolean,
    Chain,
    DomainError,
    Graph,
    OrdinalSum,
    Product,
    build_poset,
    count_colorings_by_type,
    count_proper_colorings,
    incomparability_graph,
    inverse_kostka,
    kostka_number,
    monomial_expansion,
    parse_poset_spec,
    partitions_of,
    rearrangement_count,
    rho_shape,
    schur_at_ones,
    schur_coefficient,
    schur_expansion,
    signed_contents,
    theorem41_coefficient,
    witness_coefficient_from_cases,
)
from chromaposet import rimhooks
from chromaposet.schur import _tabloid_expansion
from chromaposet.counting import (
    ChainPartitionCounter,
    closed_route,
    scp_closed_form,
    staircase_type,
)
from chromaposet.partitions import PartitionIds
from chromaposet.posets import iter_bits
from chromaposet.rimhooks import _signed_tables
from conftest import builder_specs, posets_with_universal, random_posets, unit_interval_orders
from corpus_frontier import checksum_failure


# what the closed route raises when its hypotheses fail
NOT_CLOSED = r"^closed form needs a product of two chains and a staircase-prefixed partition$"


def hook_products(lam):
    """Product of hook lengths, plus the multiset of cell contents j - i."""
    hooks = 1
    contents = []
    for i, row in enumerate(lam):
        for j in range(row):
            arm = row - j - 1
            leg = sum(1 for below in lam[i + 1 :] if below > j)
            hooks *= arm + leg + 1
            contents.append(j - i)
    return hooks, contents


def standard_tableaux_count(lam):
    hooks, _ = hook_products(lam)
    q, r = divmod(math.factorial(sum(lam)), hooks)
    assert r == 0
    return q


def schur_ones_by_hook_content(lam, colors):
    hooks, contents = hook_products(lam)
    val = Fraction(1)
    for c in contents:
        val *= Fraction(colors + c)
    val /= hooks
    assert val.denominator == 1
    return int(val)


def schur_sum_at_ones(coeffs, colors):
    """A Schur expansion with ``colors`` variables set to 1."""
    return sum(c * schur_at_ones(lam, colors) for lam, c in coeffs.items())


def path_graph(n):
    adj = tuple(
        (1 << (i - 1) if i else 0) | (1 << (i + 1) if i + 1 < n else 0)
        for i in range(n)
    )
    return Graph(tuple(f"v{i}" for i in range(n)), adj)


SMALL_SPECS = [
    Chain(4),
    Product((2, 2)),
    Product((3, 2)),
    B3(1),
    OrdinalSum(1, Product((2, 2)), 1),
]


# ---------------------------------------------------------------------------
# monomial side


def test_edgeless_monomial_expansion():
    # a chain's incomparability graph has no edges, so every set partition
    # of the vertices is stable
    mono = monomial_expansion(incomparability_graph(build_poset(Chain(3))))
    assert mono == {(3,): 1, (2, 1): 3, (1, 1, 1): 6}


def test_empty_graph_monomial_expansion():
    assert monomial_expansion(Graph((), ())) == {(): 1}


def test_monomial_coefficients_count_colorings_by_type():
    """[m_mu] X_G is the number of proper colorings using color i exactly
    mu_i times; the coloring enumerator computes that without touching the
    stable-partition counter."""
    for spec in SMALL_SPECS:
        g = incomparability_graph(build_poset(spec))
        mono = monomial_expansion(g)
        for mu in partitions_of(len(g)):
            assert mono.get(mu, 0) == count_colorings_by_type(g, mu), (spec, mu)


@pytest.mark.parametrize("colors", [1, 2, 3, 4])
def test_monomial_specialization_is_chromatic_polynomial(colors):
    for spec in SMALL_SPECS:
        g = incomparability_graph(build_poset(spec))
        mono = monomial_expansion(g)
        specialized = sum(c * rearrangement_count(lam, colors) for lam, c in mono.items())
        assert specialized == count_proper_colorings(g, colors)


def test_coloring_counters_on_a_path():
    g = path_graph(3)
    for colors in range(6):
        assert count_proper_colorings(g, colors) == colors * (colors - 1) ** 2
    assert count_colorings_by_type(g, (3,)) == 0
    assert count_colorings_by_type(g, (2, 1)) == 1
    assert count_colorings_by_type(g, (1, 1, 1)) == 6
    with pytest.raises(DomainError, match=r"^type \(2, 2\) does not cover the graph$"):
        count_colorings_by_type(g, (2, 2))


def test_coloring_counters_without_colors():
    # the empty graph has one coloring, the empty one, with any palette
    empty = Graph((), ())
    for colors in (3, 1, 0, -1, -3):
        assert count_proper_colorings(empty, colors) == 1
    assert count_colorings_by_type(empty, ()) == 1
    g = path_graph(3)
    for colors in (0, -1, -3):
        assert count_proper_colorings(g, colors) == 0


# ---------------------------------------------------------------------------
# Schur expansions


def test_chain_expansion_frozen():
    assert schur_expansion(build_poset(Chain(3))) == {(3,): 1, (2, 1): 2, (1, 1, 1): 1}


@pytest.mark.parametrize("n", range(1, 11))
def test_chain_expansion_counts_standard_tableaux(n):
    """A chain's function is h_1^n = s_1^n, whose Schur coefficients are the
    numbers of standard tableaux — independently available from hook
    lengths.  Every element of a chain is universal, so the expansion is
    Pieri's rule alone."""
    assert schur_expansion(build_poset(Chain(n)), max_elements=n) == {
        lam: standard_tableaux_count(lam) for lam in partitions_of(n)
    }


def test_product_2x2_expansion_frozen():
    exp = schur_expansion(build_poset(Product((2, 2))))
    assert exp == {(3, 1): 2, (2, 2): 2, (2, 1, 1): 4, (1, 1, 1, 1): 2}


@pytest.mark.parametrize("dsl, tables, steps", [
    # Built per shape and uncapped, these took 197, 916, 385, 134 and 1,159
    # tables of 611, 3,319, 1,634, 452 and 4,847 steps.  With the shared
    # table but no cap, the steps were 413, 1,863, 957, 313 and 2,481.
    ("b3:3", 93, 261),
    ("prod:4x4", 323, 1152),
    ("bool:4", 146, 361),
    ("sum:0+prod:2x2x3+1", 66, 153),
    ("prod:3x3x2", 358, 1133),
])
def test_expansion_builds_at_most_pinned_tables(dsl, tables, steps, monkeypatch):
    """Sub-shape tables are counted, not timed: every table the peel builds
    calls ``_peel_steps`` once, and each hook it peels is one step.  A table
    rebuilt for each shape builds more tables; a peel of hooks longer than
    the longest chain takes more steps."""
    built = taken = 0
    peel_steps = rimhooks._peel_steps

    def counted(*args):
        nonlocal built, taken
        built += 1
        for step in peel_steps(*args):
            taken += 1
            yield step

    monkeypatch.setattr(rimhooks, "_peel_steps", counted)
    schur_expansion(build_poset(parse_poset_spec(dsl)), max_elements=18)
    assert built <= tables and taken <= steps


@pytest.mark.parametrize("dsl, inserts", [
    # The pass and the tables merge 4,070, 77,780, 14,078, 1,482 and
    # 129,163 entries into these expansions' dicts.
    ("b3:3", 189),
    ("prod:4x4", 797),
    ("bool:4", 308),
    ("sum:0+prod:2x2x3+1", 125),
    ("prod:3x3x2", 885),
])
def test_expansion_builds_at_most_pinned_partitions(dsl, inserts, monkeypatch):
    """Partitions are counted, not timed: the chain-partition pass and the
    signed-content tables share one interner, and a merge builds the tuple
    of "partition i plus one part k" only when ``PartitionIds.added`` does
    not hold it yet.  Without that memo every merge would build one."""
    built = 0
    insert = PartitionIds.insert

    def counted(ids, i, k):
        nonlocal built
        built += 1
        return insert(ids, i, k)

    monkeypatch.setattr(PartitionIds, "insert", counted)
    schur_expansion(build_poset(parse_poset_spec(dsl)), max_elements=18)
    assert built <= inserts


@pytest.mark.parametrize("dsl, states", [
    ("b3:3", 248),
    ("prod:4x4", 1560),
    ("bool:4", 775),
    ("sum:0+prod:2x2x3+1", 111),
    ("prod:3x3x2", 3176),
])
def test_expansion_walks_at_most_pinned_states(dsl, states, monkeypatch):
    """The chain-partition pass is counted, not timed: an expansion runs
    ``count_all`` once, on the poset without its universal elements, and
    ``nodes`` counts the remaining sets it walks."""
    walked = []
    count_all = ChainPartitionCounter.count_all

    def counted(counter, *args, **kwargs):
        result = count_all(counter, *args, **kwargs)
        walked.append(counter.nodes)
        return result

    monkeypatch.setattr(ChainPartitionCounter, "count_all", counted)
    schur_expansion(build_poset(parse_poset_spec(dsl)), max_elements=18)
    assert len(walked) == 1 and walked[0] <= states


def _check_shared_ids(poset):
    """One interner shared by ``count_all`` and the capped tables, filled by
    either first: decoded, each gives what it gives alone, and no multiset
    has two ids."""
    longest = poset.max_chain_size()
    shapes = list(partitions_of(len(poset), (longest,)))
    own = PartitionIds()
    alone = {own.partition(i): c for i, c in ChainPartitionCounter(poset).count_all(own).items()}
    for counts_first in (True, False):
        ids = PartitionIds()
        if counts_first:
            counts = ChainPartitionCounter(poset).count_all(ids)
        tables = list(_signed_tables(shapes, ids, cap=longest))
        if not counts_first:
            counts = ChainPartitionCounter(poset).count_all(ids)
        assert {ids.partition(i): c for i, c in counts.items()} == alone
        for shape, table in tables:
            capped = {c: n for c, n in signed_contents(shape).items() if c[0] <= longest}
            assert {ids.partition(i): n for i, n in table.items()} == capped, shape
        assert len(set(ids.sizes)) == len(ids.sizes)
        assert all(parts == tuple(sorted(parts)) for parts in ids.sizes)
        for k, into in ids.added.items():
            assert all(ids.sizes[j] == tuple(sorted(ids.sizes[i] + (k,))) for i, j in into.items())


@pytest.mark.parametrize("spec", builder_specs(12), ids=lambda spec: spec.dsl())
def test_shared_ids_are_exact_on_builders(spec):
    _check_shared_ids(build_poset(spec))


@settings(deadline=None, max_examples=60)
@given(random_posets())
def test_shared_ids_are_exact_on_random_posets(poset):
    _check_shared_ids(poset)


@settings(deadline=None, max_examples=60)
@given(unit_interval_orders())
def test_shared_ids_are_exact_on_unit_interval_orders(poset):
    _check_shared_ids(poset)


def test_schur_expansion_matches_monomials_through_kostka():
    """Converting the Schur expansion back to the monomial basis must
    reproduce the directly-computed monomial coefficients."""
    for spec in SMALL_SPECS:
        poset = build_poset(spec)
        mono = monomial_expansion(incomparability_graph(poset))
        schur = schur_expansion(poset)
        n = len(poset)
        for mu in partitions_of(n):
            via_kostka = sum(
                c * kostka_number(lam, mu) for lam, c in schur.items()
            )
            assert via_kostka == mono.get(mu, 0), (spec, mu)


@pytest.mark.parametrize("spec", builder_specs(16), ids=lambda spec: spec.dsl())
def test_expansions_of_builders_pass_the_checksums(spec):
    """Sum c_lam f^lam = n! and the two-row sum = chi_G(2) (see
    ``corpus_frontier.checksum_failure``) reach past the 12-14 elements
    where every other Schur route stops."""
    poset = build_poset(spec)
    assert checksum_failure(poset, schur_expansion(poset, max_elements=16)) is None


@settings(deadline=None, max_examples=100)
@given(random_posets())
def test_expansions_of_random_posets_pass_the_checksums(poset):
    assert checksum_failure(poset, schur_expansion(poset)) is None


@settings(deadline=None, max_examples=100)
@given(unit_interval_orders())
def test_expansions_of_unit_interval_orders_pass_the_checksums(poset):
    assert checksum_failure(poset, schur_expansion(poset)) is None


@settings(deadline=None)
@given(random_posets(max_size=7))
def test_schur_and_monomial_routes_on_random_posets(poset):
    """Posets from no builder, so every route below is the searched one:
    monomial coefficients against coloring enumeration, the Schur expansion
    against the inverse-Kostka transform of those coefficients, and each
    brute Schur coefficient against the expansion."""
    n = len(poset)
    g = incomparability_graph(poset)
    mono = monomial_expansion(g)
    schur = schur_expansion(poset)
    for mu in partitions_of(n):
        assert mono.get(mu, 0) == count_colorings_by_type(g, mu), mu
    for lam in partitions_of(n):
        via_inverse = sum(inverse_kostka(lam, mu) * c for mu, c in mono.items())
        assert schur.get(lam, 0) == via_inverse, lam
        assert schur_coefficient(poset, lam, method="tabloid_brute") == via_inverse, lam


@pytest.mark.parametrize("colors", [1, 2, 3])
def test_schur_specialization_is_chromatic_polynomial(colors):
    for spec in SMALL_SPECS:
        poset = build_poset(spec)
        specialized = schur_sum_at_ones(schur_expansion(poset), colors)
        assert specialized == count_proper_colorings(incomparability_graph(poset), colors)


def test_schur_at_ones_matches_hook_content_formula():
    for n in range(1, 7):
        for lam in partitions_of(n):
            for colors in range(5):
                assert schur_at_ones(lam, colors) == schur_ones_by_hook_content(
                    lam, colors
                )


def test_schur_expansion_size_guard():
    with pytest.raises(DomainError, match=r"^13 elements exceeds the expansion limit of 12$"):
        schur_expansion(build_poset(Chain(13)))
    # explicit limit overrides the default
    schur_expansion(build_poset(Chain(13)), max_elements=13)


@given(st.integers(min_value=1, max_value=7), st.integers(min_value=0, max_value=4))
def test_chain_specialization_is_power(n, colors):
    exp = schur_expansion(build_poset(Chain(n)), max_elements=13)
    assert schur_sum_at_ones(exp, colors) == colors**n


# ---------------------------------------------------------------------------
# the universal elements, added back by Pieri's rule


@settings(deadline=None, max_examples=30)
@given(posets_with_universal())
def test_universal_elements_are_added_back_by_pieri(poset):
    """Against the inverse-Kostka transform of the coloring counts, and
    against the tabloid sum over the whole poset, which removes nothing."""
    n = len(poset)
    g = incomparability_graph(poset)
    colorings = {mu: count_colorings_by_type(g, mu) for mu in partitions_of(n)}
    schur = schur_expansion(poset)
    for lam in partitions_of(n):
        via_inverse = sum(inverse_kostka(lam, mu) * c for mu, c in colorings.items())
        assert schur.get(lam, 0) == via_inverse, lam
    assert schur == _tabloid_expansion(poset)


@pytest.mark.parametrize("dsl", ["bool:4", "prod:4x3", "sum:1+b3:2+1"])
def test_reduction_matches_the_whole_poset_walk(dsl):
    poset = build_poset(parse_poset_spec(dsl))
    assert schur_expansion(poset, max_elements=16) == _tabloid_expansion(poset)


def test_brute_coefficients_match_the_reduced_expansion():
    poset = build_poset(OrdinalSum(1, Product((3, 2)), 1))
    exp = schur_expansion(poset)
    for lam in partitions_of(len(poset)):
        assert schur_coefficient(poset, lam, method="tabloid_brute") == exp.get(lam, 0), lam


# ---------------------------------------------------------------------------
# P-tableaux: a third Schur route on (3+1)-free posets


def p_tableaux(poset, shape):
    """Gasharov's P-tableaux of ``shape`` (Discrete Math. 157, 1996): every
    element once, each row a chain increasing left to right in P, and no
    entry below, in P, the entry directly above it.  On a (3+1)-free poset
    their number is the coefficient of s_shape.  Filled row by row; a row's
    completions depend only on the elements left and the row above it."""
    above = [up & ~(1 << i) for i, up in enumerate(poset.up)]

    @lru_cache(maxsize=None)
    def rows(r, free, prev):
        if r == len(shape):
            return 1

        def fill(row, free):
            if len(row) == shape[r]:
                return rows(r + 1, free, row)
            return sum(
                fill(row + (x,), free & ~(1 << x))
                for x in iter_bits(free)
                if (not row or above[row[-1]] >> x & 1)
                and not (prev and above[x] >> prev[len(row)] & 1)
            )

        return fill((), free)

    return rows(0, (1 << len(poset)) - 1, ())


def _check_p_tableaux(poset):
    expansion = schur_expansion(poset)
    for lam in partitions_of(len(poset)):
        assert p_tableaux(poset, lam) == expansion.get(lam, 0), lam


@settings(deadline=None, max_examples=60)
@given(unit_interval_orders())
def test_unit_interval_orders_count_p_tableaux(poset):
    _check_p_tableaux(poset)


@pytest.mark.parametrize("dsl", ["chain:5", "prod:2x2", "prod:2x3", "prod:2x2x2", "bool:3", "b3:1", "sum:1+b3:1+1"])
def test_3_plus_1_free_builders_count_p_tableaux(dsl):
    _check_p_tableaux(build_poset(parse_poset_spec(dsl)))


@settings(deadline=None, max_examples=15)
@given(unit_interval_orders(max_size=12, min_size=10), st.data())
def test_unit_interval_orders_count_p_tableaux_by_shape(poset, data):
    """Single coefficients on 10-12 elements.  These posets carry no spec,
    so ``schur_coefficient`` walks the whole poset, without the reduction
    ``schur_expansion`` makes; the shape is drawn inside the chain shape,
    where the coefficients can be nonzero."""
    shape = data.draw(st.sampled_from(list(partitions_of(len(poset), poset.chain_shape()))))
    assert schur_coefficient(poset, shape) == p_tableaux(poset, shape)


@settings(deadline=None, max_examples=30)
@given(unit_interval_orders(max_size=12))
def test_schur_never_exits_3_on_unit_interval_orders(poset):
    """``schur`` exits 3 exactly when a coefficient is negative, and
    (3+1)-free posets are Schur-positive; 12 elements is its default
    limit."""
    assert min(schur_expansion(poset).values()) > 0


# ---------------------------------------------------------------------------
# single coefficients and the closed fast path


def test_witness_coefficient_every_method():
    poset = build_poset(Product((8, 3)))
    shape = rho_shape(3, 5)
    for method in ("auto", "tabloid_brute", "tabloid_closed"):
        assert schur_coefficient(poset, shape, method=method) == -18


def test_witness_coefficient_10x4():
    poset = build_poset(Product((10, 4)))
    assert schur_coefficient(poset, rho_shape(4, 6)) == -288


def test_fast_path_detection():
    """closed_route reads the sides m >= n off the spec and applies the
    closed form when the shape starts with their staircase prefix."""
    cases = [
        (Boolean(2), (3, 1), (2, 2), (3,)),
        # a chain is a product with one side of length 1: no forced prefix at all
        (Chain(4), (2, 1, 1), (4, 1), ()),
        (B3(1), (7, 1), None, None),
        (Product((8, 3)), (10, 8, 2, 2, 2), (8, 3), (10, 8)),
        (Product((10, 4)), (13, 11, 9, 3, 2, 2), (10, 4), (13, 11, 9)),
        (Product((8, 3)), (9, 9, 2, 2, 2), None, None),
        (Product((4, 2)), (4, 2, 2), None, None),  # 4 != 4+2-1
        (Product((4, 2)), (5, 2, 1), (4, 2), (5,)),
    ]
    for spec, shape, sides, prefix in cases:
        poset = build_poset(spec)
        assert closed_route(poset, shape, "auto") == sides, (spec, shape)
        assert closed_route(poset, shape, "brute") is None
        if sides is None:
            with pytest.raises(DomainError, match=NOT_CLOSED):
                closed_route(poset, shape, "closed")
        else:
            assert closed_route(poset, shape, "closed") == sides
            assert staircase_type(*sides)[:-1] == prefix
    with pytest.raises(DomainError, match=r"^partition \(5, 2\) does not fill the 8-element poset$"):
        closed_route(build_poset(Product((4, 2))), (5, 2), "auto")


def test_fast_path_agrees_on_boolean_square():
    poset = build_poset(Boolean(2))
    assert schur_coefficient(poset, (3, 1), method="tabloid_closed") == 2
    assert schur_coefficient(poset, (3, 1), method="tabloid_brute") == 2


def _staircase_grid():
    """(spelling, (m, n), shape) for every staircase-prefixed shape of every
    m x n product with 1 <= n <= m <= 8 and mn <= 20, under every DSL
    spelling of that product: the prefix (m+n-1, m+n-3, ..., m-n+3)
    followed by any partition of m-n+1."""
    for n in range(1, 9):
        for m in range(n, 9):
            if m * n > 20:
                break
            spellings = {f"prod:{m}x{n}", f"prod:{n}x{m}"}
            if n == 1:
                spellings |= {f"chain:{m}", f"prod:{m}"}
            if m == 2:
                spellings.add(f"bool:{n}")
            staircase = tuple(m + n - 2 * i + 1 for i in range(1, n))
            for dsl in sorted(spellings):
                for tail in partitions_of(m - n + 1):
                    yield dsl, (m, n), staircase + tail


def test_closed_path_matches_brute_over_staircase_grid():
    grid = list(_staircase_grid())
    assert len(grid) == 379
    for dsl, sides, shape in grid:
        poset = build_poset(parse_poset_spec(dsl))
        assert closed_route(poset, shape, "auto") == sides, (dsl, shape)
        auto = schur_coefficient(poset, shape)
        assert auto == schur_coefficient(poset, shape, method="tabloid_brute"), (dsl, shape)
        brute = ChainPartitionCounter(poset).count(shape)
        assert scp_closed_form(*sides, shape) == brute, (dsl, shape)


def test_schur_coefficient_errors():
    poset = build_poset(Product((8, 3)))
    with pytest.raises(DomainError, match=r"^partition \(10, 8, 2, 2\) does not fill the 24-element poset$"):
        schur_coefficient(poset, (10, 8, 2, 2))
    with pytest.raises(DomainError):
        schur_coefficient(poset, rho_shape(3, 5), method="closed")
    with pytest.raises(DomainError, match=NOT_CLOSED):
        # no staircase prefix under this shape
        schur_coefficient(poset, (9, 9, 2, 2, 2), method="tabloid_closed")
    with pytest.raises(DomainError, match=NOT_CLOSED):
        b3 = build_poset(B3(1))
        schur_coefficient(b3, (len(b3) - 1, 1), method="tabloid_closed")


# ---------------------------------------------------------------------------
# the negativity witness in closed form


def test_rho_shape_values():
    assert rho_shape(3, 5) == (10, 8, 2, 2, 2)
    assert rho_shape(2, 5) == (8, 2, 2, 2)
    for n, k in [(2, 5), (3, 5), (4, 7), (6, 9)]:
        shape = rho_shape(n, k)
        assert sum(shape) == n * (n + k)
        assert len(shape) == n + 2
        assert all(a >= b for a, b in zip(shape, shape[1:]))


def test_theorem41_values():
    assert theorem41_coefficient(3, 5) == -18
    assert theorem41_coefficient(4, 6) == -288
    assert theorem41_coefficient(5, 7) == -3840


def test_theorem41_negative_in_stated_range():
    for k in range(5, 13):
        threshold = -(-(k + 2) // 2)
        for n in range(threshold, threshold + 5):
            assert theorem41_coefficient(n, k) < 0, (n, k)


def test_theorem41_matches_case_assembly():
    for k in range(5, 10):
        for n in range(2, 7):
            assert witness_coefficient_from_cases(n, k) == theorem41_coefficient(
                n, k
            ), (n, k)


@pytest.mark.parametrize("n, k", [(n, 9) for n in range(8, 21)] + [(20, k) for k in range(5, 9)])
def test_closed_route_matches_theorem41_at_the_frontier(n, k):
    # Without the dominance prune the signed-content table of rho_shape(16, 9)
    # takes seconds to build.
    poset = build_poset(Product((n + k, n)))
    assert schur_coefficient(poset, rho_shape(n, k)) == theorem41_coefficient(n, k)


def test_theorem41_preconditions():
    with pytest.raises(DomainError, match=r"^need k >= 5 and n >= 2, got \(3, 4\)$"):
        theorem41_coefficient(3, 4)
    with pytest.raises(DomainError, match=r"^need k >= 5 and n >= 2, got \(1, 5\)$"):
        theorem41_coefficient(1, 5)
    # n is capped before n! is taken, in every closed form that takes it
    for closed_form in (theorem41_coefficient, witness_coefficient_from_cases, rho_shape):
        with pytest.raises(DomainError, match=r"^n exceeds the witness limit of 30000$"):
            closed_form(30001, 5)
    # the range check still comes first
    with pytest.raises(DomainError, match=r"^need k >= 5 and n >= 2, got \(30001, 4\)$"):
        theorem41_coefficient(30001, 4)


# ---------------------------------------------------------------------------
# shifted shapes on ordinal sums


def _pieri_shift(m, n, tilde):
    """The coefficient of a shape whose first part is the longest chain of
    p + (m x n) + q: the m x n coefficient with that part cut to m+n-1."""
    return schur_coefficient(build_poset(Product((m, n))), (m + n - 1,) + tuple(tilde[1:]))


def test_pieri_shift_examples():
    assert _pieri_shift(8, 3, (10, 8, 2, 2, 2)) == -18
    assert _pieri_shift(8, 3, (11, 8, 2, 2, 2)) == -18
    assert _pieri_shift(2, 2, (5, 1)) == 2


def test_pieri_shift_matches_direct_expansion():
    """On a small ordinal sum the shifted coefficients can be read off the
    full expansion directly."""
    poset = build_poset(OrdinalSum(1, Product((2, 2)), 1))
    exp = schur_expansion(poset)
    longest = poset.max_chain_size()
    for tilde in partitions_of(len(poset)):
        if tilde[0] != longest:
            continue
        rho = (3,) + tilde[1:]
        if any(rho[i] < rho[i + 1] for i in range(len(rho) - 1)):
            continue
        assert _pieri_shift(2, 2, tilde) == exp.get(tilde, 0), tilde
