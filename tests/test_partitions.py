import itertools
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from chromaposet.errors import DomainError, DslParseError
from chromaposet.partitions import (
    as_partition,
    dominance_leq,
    format_partition,
    multiplicity_profile,
    parse_partition,
    partitions_of,
    rearrangement_count,
    sorted_partition,
    symmetry_factor,
)
from chromaposet.posets import build_poset
from conftest import builder_specs


@st.composite
def partition_st(draw, max_n=12):
    n = draw(st.integers(min_value=1, max_value=max_n))
    bins = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    return tuple(sorted(Counter(bins).values(), reverse=True))


def test_as_partition_validates():
    assert as_partition([3, 2, 2]) == (3, 2, 2)
    assert as_partition(()) == ()
    with pytest.raises(DomainError):
        as_partition([2, 3])
    with pytest.raises(DomainError):
        as_partition([2, 0])
    with pytest.raises(DomainError):
        as_partition([-1])


def test_sorted_partition_drops_zeros():
    assert sorted_partition([0, 3, 1, 0, 2]) == (3, 2, 1)
    assert sorted_partition([]) == ()
    with pytest.raises(DomainError):
        sorted_partition([1, -2])


def test_parse_format_round_trip():
    assert parse_partition("10,8,2,2,2") == (10, 8, 2, 2, 2)
    assert parse_partition("") == ()
    assert format_partition((10, 8, 2, 2, 2)) == "10,8,2,2,2"
    with pytest.raises(DslParseError) as exc:
        parse_partition("10,x,2")
    assert exc.value.offset == 3
    # only ASCII 0-9 spell a part: no Unicode digits, signs, spaces or underscores
    for text, offset in [("٣", 0), ("3,٣", 2), ("1_0,8", 0), ("+3", 0), ("2, 1", 2), ("4,-1", 2), ("3,,1", 2)]:
        with pytest.raises(DslParseError) as exc:
            parse_partition(text)
        assert exc.value.offset == offset, text
    with pytest.raises(DomainError):
        parse_partition("1,2")


def test_dominance_examples():
    assert dominance_leq((6, 6, 6), (9, 7, 2))
    assert not dominance_leq((4, 2), (3, 3))
    assert dominance_leq((3, 3), (4, 2))
    with pytest.raises(DomainError, match=r"^\(2, 1\) and \(2, 2\) have different totals$"):
        dominance_leq((2, 1), (2, 2))


def test_dominance_is_partial_order():
    for n in range(1, 9):
        parts = list(partitions_of(n))
        for lam in parts:
            assert dominance_leq(lam, lam)
            assert dominance_leq((1,) * n, lam)
            assert dominance_leq(lam, (n,))
        for a in parts:
            for b in parts:
                if dominance_leq(a, b) and dominance_leq(b, a):
                    assert a == b
                for c in parts:
                    if dominance_leq(a, b) and dominance_leq(b, c):
                        assert dominance_leq(a, c)


def test_partitions_of_counts_and_order():
    # p(n) for n = 0..10
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    for n, count in enumerate(expected):
        parts = list(partitions_of(n))
        assert len(parts) == count
        assert parts == sorted(parts, reverse=True)  # descending lex
        assert all(sum(p) == n for p in parts)
        assert len(set(parts)) == count


def test_partitions_of_max_part():
    assert list(partitions_of(4, bound=(2,))) == [(2, 2), (2, 1, 1), (1, 1, 1, 1)]


def recursive_partitions(n, max_part=None):
    """Descending lexicographic order by recursion on the first part."""
    if n == 0:
        yield ()
        return
    top = n if max_part is None else min(max_part, n)
    for first in range(top, 0, -1):
        for rest in recursive_partitions(n - first, first):
            yield (first,) + rest


def test_partitions_of_matches_the_recursive_order():
    for n in range(23):
        for max_part in (None, -1, 0, 1, 2, 3, 5, 8, n, n + 3):
            bound = () if max_part is None else (max_part,)
            assert list(partitions_of(n, bound=bound)) == list(recursive_partitions(n, max_part))


def inside(mu, bound):
    """Every prefix sum of ``mu``, zero-padded, at most the bound's."""
    padded = mu + (0,) * len(bound)
    return all(s <= b for s, b in zip(itertools.accumulate(padded), bound))


def test_partitions_of_inside_every_chain_shape():
    for spec in builder_specs(20):
        poset = build_poset(spec)
        n, shape = len(poset), poset.chain_shape()
        kept = [mu for mu in partitions_of(n) if inside(mu, shape)]
        assert list(partitions_of(n, shape)) == kept, spec


@given(partition_st(max_n=16), st.integers(min_value=0, max_value=16))
def test_partitions_of_inside_prefix_sums(rho, n):
    bound = tuple(itertools.accumulate(rho))
    assert list(partitions_of(n, bound)) == [mu for mu in partitions_of(n) if inside(mu, bound)]


def test_partitions_of_below_a_partition_in_dominance():
    for n in range(10):
        everything = list(partitions_of(n))
        for lam in everything:
            below = [mu for mu in everything if dominance_leq(mu, lam)]
            assert list(partitions_of(n, tuple(itertools.accumulate(lam)))) == below


def test_partitions_of_a_bound_that_does_not_increase():
    for bound in ((3, 3), (2, 1), (1, 2, 2), (1, 3, 5, 4)):
        with pytest.raises(DomainError):
            next(partitions_of(6, bound))


def test_partitions_of_a_negative_integer():
    with pytest.raises(DomainError):
        next(partitions_of(-1))


def test_profile_round_trip():
    for n in range(1, 20):
        for lam in partitions_of(n):
            profile = multiplicity_profile(lam)
            assert [k for k, _ in profile] == sorted({*lam})
            assert tuple(k for k, alpha in reversed(profile) for _ in range(alpha)) == lam


def test_symmetry_factor():
    assert symmetry_factor((2, 2, 2)) == 6
    assert symmetry_factor((3, 2, 2, 1, 1, 1)) == 2 * 6
    assert symmetry_factor(()) == 1


def test_rearrangement_count():
    # distinct weak orderings of the parts into `length` labeled slots
    assert rearrangement_count((2, 1), 2) == 2
    assert rearrangement_count((2, 1), 3) == 6
    assert rearrangement_count((2, 2), 2) == 1
    assert rearrangement_count((1, 1, 1), 2) == 0


@given(partition_st())
def test_dominance_reflexive(lam):
    assert dominance_leq(lam, lam)


@given(partition_st())
def test_extremes_dominate(lam):
    n = sum(lam)
    assert dominance_leq((1,) * n, lam)
    assert dominance_leq(lam, (n,))


@given(partition_st())
def test_parse_format_inverse(lam):
    assert parse_partition(format_partition(lam)) == lam


@given(partition_st(max_n=7), st.integers(min_value=1, max_value=8))
def test_rearrangement_count_brute(lam, length):
    import itertools

    if length < len(lam):
        assert rearrangement_count(lam, length) == 0
        return
    padded = lam + (0,) * (length - len(lam))
    brute = len(set(itertools.permutations(padded)))
    assert rearrangement_count(lam, length) == brute
