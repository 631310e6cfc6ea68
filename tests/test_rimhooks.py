"""The tabloid enumerator gets its own independent oracle: a brute-force
decomposer that tries every way of peeling rim hooks off a shape with no
knowledge of the bottom-hook recursion.  The signed content table behind
every inverse-Kostka value and Schur sum is checked in turn against the
enumerated tabloids.
"""

import itertools
from collections import Counter

import pytest

from chromaposet.counting import WITNESS_CASE_HEIGHTS, staircase_delta
from chromaposet.errors import DomainError
from chromaposet.partitions import PartitionIds, dominance_leq, partitions_of
from chromaposet.rimhooks import (
    SpecialRimHookTabloid,
    _signed_tables,
    enumerate_srht,
    inverse_kostka,
    kostka_number,
    render_tabloid,
    signed_contents,
)
from chromaposet.schur import rho_shape
from conftest import witness_case_contents


def _set_partitions(items):
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + (part[i] + (first,),) + part[i + 1 :]
        yield part + (((first,),))


def _block_to_hook(block):
    """Rebuild a hook, its cells row by row, from a raw cell set, or None
    when the cells do not even form per-row intervals over contiguous rows."""
    rows: dict = {}
    for r, c in block:
        rows.setdefault(r, []).append(c)
    row_ids = sorted(rows)
    if row_ids != list(range(row_ids[0], row_ids[-1] + 1)):
        return None
    hook = []
    for r in row_ids:
        cs = sorted(rows[r])
        if cs != list(range(cs[0], cs[-1] + 1)):
            return None
        hook += [(r, c) for c in cs]
    return tuple(hook)


def brute_tilings(shape):
    """Every partition of the diagram's cells that validates as a special
    rim hook tabloid under some peel order.  Knows nothing about how the
    enumerator chooses hooks."""
    cells = tuple(
        (r, c) for r, length in enumerate(shape, start=1) for c in range(1, length + 1)
    )
    tilings = set()
    for part in _set_partitions(cells):
        hooks = []
        for block in part:
            hook = _block_to_hook(block)
            if hook is None:
                break
            hooks.append(hook)
        else:
            for order in itertools.permutations(hooks):
                try:
                    SpecialRimHookTabloid(shape, tuple(order)).validate()
                except DomainError:
                    continue
                tilings.add(frozenset(frozenset(h) for h in order))
                break
    return tilings


@pytest.mark.parametrize("n", range(1, 7))
def test_enumeration_matches_brute_decomposition(n):
    for shape in partitions_of(n):
        family = enumerate_srht(shape)
        got = {frozenset(frozenset(h) for h in t.hooks) for t in family}
        assert len(got) == len(family), shape  # no duplicate tilings
        assert got == brute_tilings(shape), shape


def test_single_row_and_column():
    fam = enumerate_srht((5,))
    assert len(fam) == 1
    assert fam.tabloids[0].content == (5,) and fam.tabloids[0].height == 0
    # a column splits into any run of vertical hooks, one per composition
    fam = enumerate_srht((1, 1, 1))
    assert len(fam) == 4
    signed = {}
    for t in fam:
        signed[t.content] = signed.get(t.content, 0) + t.sign
    assert signed == {(3,): 1, (2, 1): -2, (1, 1, 1): 1}


def test_two_one_family():
    fam = enumerate_srht((2, 1))
    assert len(fam) == 2
    assert sorted(t.height for t in fam) == [0, 1]
    assert {t.content for t in fam} == {(2, 1), (3,)}


def test_known_tabloid_contents():
    fam = enumerate_srht((5, 3, 2, 1), (6, 3, 2))
    assert all(t.content == (6, 3, 2) for t in fam)
    assert any(t.height == 2 for t in fam)


def test_exact_filter_equals_post_filter():
    for n in range(1, 9):
        for shape in partitions_of(n):
            everything = enumerate_srht(shape)
            for content in {t.content for t in everything}:
                direct = enumerate_srht(shape, content)
                filtered = [t for t in everything if t.content == content]
                assert [t.hooks for t in direct] == [t.hooks for t in filtered]


def test_prefix_filter_equals_post_filter():
    pairs = 0
    for n in range(1, 9):
        for shape in partitions_of(n):
            everything = enumerate_srht(shape)
            prefixes = {t.content[:k] for t in everything for k in range(len(t.content) + 1)}
            for prefix in prefixes:
                direct = enumerate_srht(shape, prefix)
                filtered = [t for t in everything if t.content[: len(prefix)] == prefix]
                assert [t.hooks for t in direct] == [t.hooks for t in filtered], (shape, prefix)
                pairs += 1
    assert pairs == 1008


def test_prefix_filter():
    fam = enumerate_srht((13, 11, 9, 3, 2, 2), (13, 11, 9))
    assert len(fam) == 6
    assert all(t.content[:3] == (13, 11, 9) for t in fam)


def test_all_emitted_tabloids_validate():
    for n in range(1, 8):
        for shape in partitions_of(n):
            for t in enumerate_srht(shape):
                t.validate()


def test_validate_rejects_corrupted():
    good = enumerate_srht((3, 2)).tabloids[0]
    bad = SpecialRimHookTabloid(good.shape, good.hooks[:-1])
    with pytest.raises(DomainError):
        bad.validate()


def test_validate_rejects_a_repeated_cell():
    good = SpecialRimHookTabloid((2, 1), (((2, 1),), ((1, 1), (1, 2))))
    good.validate()
    bad = SpecialRimHookTabloid((2, 1), (((2, 1), (2, 1)), ((1, 1), (1, 2))))
    with pytest.raises(DomainError, match=r"^hook repeats a cell$"):
        bad.validate()


# Peeling the first hook leaves rows of 1 and 2 cells, left-justified and
# without a gap; only the peel-order check rejects it.
_UPWARD_PEEL = (((1, 2), (1, 3), (2, 3), (3, 1), (3, 2), (3, 3)), ((1, 1), (2, 1), (2, 2)))


@pytest.mark.parametrize("call, message", [
    (lambda: kostka_number((2, 1), (2,)), "(2, 1) and (2,) have different sizes"),
    (lambda: SpecialRimHookTabloid((2, 1), (((2, 1),), ((2, 1), (1, 1), (1, 2)))).validate(),
     "hooks overlap"),
    (lambda: SpecialRimHookTabloid((3, 3, 3), _UPWARD_PEEL).validate(),
     "peeling does not leave a Ferrers shape"),
], ids=("kostka-size", "overlap", "peel-order"))
def test_refusals_raise_pinned_messages(call, message):
    with pytest.raises(DomainError) as exc:
        call()
    assert str(exc.value) == message


def test_content_dominates_shape():
    for n in range(1, 9):
        for shape in partitions_of(n):
            for t in enumerate_srht(shape):
                assert dominance_leq(shape, t.content)


def _signed_by_content(family, prefix):
    """The table the slow way: sum the signs of the enumerated tabloids
    whose content starts with ``prefix``."""
    signed = Counter()
    for t in family:
        if t.content[: len(prefix)] == prefix:
            signed[t.content] += t.sign
    return {content: s for content, s in signed.items() if s}


@pytest.mark.parametrize("n", range(10))
def test_signed_contents_match_enumeration(n):
    for shape in partitions_of(n):
        family = enumerate_srht(shape)
        # () and every prefix of every content, the whole content included
        prefixes = {t.content[:k] for t in family for k in range(len(t.content) + 1)}
        for prefix in prefixes:
            assert signed_contents(shape, prefix) == _signed_by_content(family, prefix), (
                shape,
                prefix,
            )


@pytest.mark.parametrize("n", range(1, 11))
def test_signed_contents_match_enumeration_for_every_prefix(n):
    """Every prefix that fits, most of them prefixes of no content: the
    dominance prune cuts sub-shapes whose unmet parts and free hooks cannot
    reach the sub-shape's prefix sums."""
    for shape in partitions_of(n):
        family = enumerate_srht(shape)
        for size in range(1, n + 1):
            for prefix in partitions_of(size):
                assert signed_contents(shape, prefix) == _signed_by_content(family, prefix), (
                    shape,
                    prefix,
                )


@pytest.mark.parametrize("n", (2, 3, 4))
@pytest.mark.parametrize("k", (5, 6, 7))
def test_signed_contents_witness_shapes(n, k):
    shape = rho_shape(n, k)
    prefix = staircase_delta(n, k)
    table = signed_contents(shape, prefix)
    assert table == _signed_by_content(enumerate_srht(shape), prefix)
    # the six tabloids of the proof, two of which share a content at k = 5
    cases = Counter()
    for name, content in witness_case_contents(n, k).items():
        cases[content] += (-1) ** WITNESS_CASE_HEIGHTS[name]
    assert table == dict(cases)


def _tables(shapes, prefix=(), cap=None):
    """``_signed_tables`` with an interner of its own, each table keyed by
    partitions."""
    ids = PartitionIds()
    for shape, table in _signed_tables(shapes, ids, prefix, cap):
        yield shape, {ids.partition(c): s for c, s in table.items()}


@pytest.mark.parametrize("n", range(11))
def test_capped_tables_match_enumeration(n):
    """A cap drops exactly the contents with a larger part, with or without
    a prefix (the shape's first part, which may itself exceed the cap)."""
    for shape in partitions_of(n):
        family = enumerate_srht(shape)
        for prefix in ((), shape[:1]):
            full = _signed_by_content(family, prefix)
            for cap in range(1, n + 1):
                table = next(_tables((shape,), prefix, cap))[1]
                assert table == {c: s for c, s in full.items() if c[0] <= cap}, (shape, prefix, cap)


@pytest.mark.parametrize("n", range(1, 11))
@pytest.mark.parametrize("cap", (None, 2, 3))
def test_shared_memo_tables_match_fresh_calls(n, cap):
    """One memo filled in ascending or descending order of shapes gives each
    shape the table a fresh call gives it."""
    shapes = list(partitions_of(n))
    fresh = {shape: next(_tables((shape,), cap=cap))[1] for shape in shapes}
    assert dict(_tables(shapes, cap=cap)) == fresh
    assert dict(_tables(shapes[::-1], cap=cap)) == fresh
    if cap is None:
        assert fresh == {shape: signed_contents(shape) for shape in shapes}


@pytest.mark.parametrize("cap", (None, 1, 2, 3))
def test_one_memo_across_sizes_matches_fresh_calls(cap):
    """Without a prefix each shape peels with its own floor, min(size, cap),
    yet the memo key leaves the floor out: one call over shapes of every
    size, in ascending or descending order, gives each shape the table a
    fresh call gives it."""
    shapes = [shape for n in range(1, 10) for shape in partitions_of(n)]
    fresh = {shape: next(_tables((shape,), cap=cap))[1] for shape in shapes}
    assert dict(_tables(shapes, cap=cap)) == fresh
    assert dict(_tables(shapes[::-1], cap=cap)) == fresh


def test_signed_contents_prefix_outside_every_content():
    assert signed_contents((3, 1), (2, 2)) == {}
    # no hook of (2, 2) reaches 4 cells; one of (2, 1, 1) does, with height 2
    assert signed_contents((2, 2), (4,)) == {}
    assert signed_contents((2, 1, 1), (4,)) == {(4,): 1}
    with pytest.raises(DomainError):
        signed_contents((2, 1), (2, 2))


def test_kostka_values():
    assert kostka_number((), ()) == 1
    assert kostka_number((2, 1), (1, 1, 1)) == 2
    assert kostka_number((2, 2), (2, 1, 1)) == 1
    assert kostka_number((3, 1), (2, 2)) == 1
    assert kostka_number((2, 2), (3, 1)) == 0
    for n in range(1, 8):
        for lam in partitions_of(n):
            assert kostka_number(lam, lam) == 1
            assert kostka_number((n,), lam) == 1


def test_kostka_dominance_support():
    for n in range(1, 8):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                positive = kostka_number(lam, mu) > 0
                assert positive == dominance_leq(mu, lam)


def test_inverse_kostka_values():
    assert inverse_kostka((2, 1), (3,)) == -1
    assert inverse_kostka((1, 1), (2,)) == -1
    assert inverse_kostka((3, 1), (2, 2)) == 0
    assert inverse_kostka((2, 1), (2, 1)) == 1


def test_inverse_kostka_unitriangular():
    for n in range(1, 8):
        for lam in partitions_of(n):
            assert inverse_kostka(lam, lam) == 1
            for mu in partitions_of(n):
                if not dominance_leq(lam, mu):
                    assert inverse_kostka(lam, mu) == 0


def test_matrix_inverse_identity():
    for n in range(1, 7):
        parts = list(partitions_of(n))
        for mu, nu in itertools.product(parts, repeat=2):
            total = sum(
                inverse_kostka(lam, mu) * kostka_number(lam, nu) for lam in parts
            )
            assert total == (mu == nu)


def test_render_tabloid_is_grid():
    t = enumerate_srht((3, 2, 1)).tabloids[0]
    lines = render_tabloid(t).splitlines()
    assert len(lines) == 3
    assert len(lines[0].split()) == 3
