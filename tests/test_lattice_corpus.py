"""Every distributive lattice of up to 14 elements, as a test corpus.

By Birkhoff's representation theorem every finite distributive lattice is
J(Q), the down-sets of a poset Q (its join-irreducibles) ordered by
inclusion, and J(Q) and J(Q') are isomorphic exactly when Q and Q' are.
So the corpus grows Q one new maximal element at a time, whose strict
down-set is any down-set of Q so far, keeps one Q per colour-refinement
class, and prunes at |J(Q)| > 14, since |J(Q)| never falls as Q grows.

The verdicts pinned here are this package's own answers on the corpus,
not an independent proof: every lattice is nice, none of at most 12
elements has a negative Schur coefficient, and exactly two of at most 14
do, the paper's second result at its smallest size.  Checks that share no
code with the engine: a lattice and its dual have one incomparability
graph, so the same unachieved types and Schur expansion; J(Q) has |Q|
join-irreducibles, one per rank of a longest chain; every expansion passes
the checksums of ``corpus_frontier.checksum_failure``; and the two
negative expansions agree with the monomial expansion through Kostka
numbers.
"""

import functools
import re

from chromaposet import (
    B3,
    Poset,
    build_poset,
    dominance_leq,
    incomparability_graph,
    is_nice,
    kostka_number,
    monomial_expansion,
    partitions_of,
    schur_expansion,
    verify_distributive_lattice,
)

# OEIS A006982, unlabeled distributive lattices with 1, 2, ..., 14 elements
COUNTS = (1, 1, 1, 2, 3, 5, 8, 15, 26, 47, 82, 151, 269, 494)


def _refined_colours(below):
    """The stable colour-refinement class of each element of Q, given the
    strict down-set mask ``below[i]`` of each; an isomorphism invariant."""
    m = len(below)
    above = [sum(1 << j for j in range(m) if below[j] >> i & 1) for i in range(m)]
    colours, classes = [0] * m, 1
    while True:
        colours = [
            hash((
                colours[i],
                tuple(sorted(colours[j] for j in range(m) if below[i] >> j & 1)),
                tuple(sorted(colours[j] for j in range(m) if above[i] >> j & 1)),
            ))
            for i in range(m)
        ]
        if len(set(colours)) == classes:
            return tuple(sorted(colours))
        classes = len(set(colours))


def distributive_lattices(max_size):
    """One J(Q) per isomorphism class with at most ``max_size`` elements,
    its down-sets ordered by size (a linear extension)."""
    level = [((), [0])]  # (strict down-set masks of Q, down-sets of Q)
    lattices = []
    while level:
        for _, ideals in level:
            order = sorted(ideals, key=lambda d: (d.bit_count(), d))
            up = [sum(1 << j for j, e in enumerate(order) if d & e == d) for d in order]
            lattices.append(Poset(tuple(map(str, range(len(order)))), tuple(up)))
        grown = {}
        for below, ideals in level:
            new = 1 << len(below)
            for strict in ideals:
                with_new = [d | new for d in ideals if d & strict == strict]
                if len(ideals) + len(with_new) <= max_size:
                    q = below + (strict,)
                    grown.setdefault(_refined_colours(q), (q, ideals + with_new))
        level = list(grown.values())
    return lattices


LATTICES = distributive_lattices(14)


def test_the_corpus_counts_every_lattice_once():
    assert tuple(sum(len(p) == n for p in LATTICES) for n in range(1, 15)) == COUNTS
    assert len(LATTICES) == 1105


def test_every_lattice_is_distributive_and_nice():
    assert all(verify_distributive_lattice(p) for p in LATTICES)
    assert all(is_nice(p).nice for p in LATTICES)


def test_no_lattice_of_at_most_12_elements_has_a_negative_schur_coefficient():
    small = [p for p in LATTICES if len(p) <= 12]
    assert len(small) == 342
    assert all(c >= 0 for p in small for c in schur_expansion(p).values())


def test_a_lattice_and_its_dual_answer_alike():
    small = [p for p in LATTICES if len(p) <= 12]
    for p in small:
        dual = Poset(p.labels, p.dn)
        assert is_nice(dual).unachieved_types == is_nice(p).unachieved_types
        assert schur_expansion(dual) == schur_expansion(p)


@functools.cache
def _expansion(i):
    """The Schur expansion of ``LATTICES[i]``, computed once per module."""
    return schur_expansion(LATTICES[i], max_elements=14)


def test_every_lattice_expansion_passes_the_checksums():
    from corpus_frontier import checksum_failure

    assert all(checksum_failure(p, _expansion(i)) is None for i, p in enumerate(LATTICES))


def test_exactly_two_lattices_of_at_most_14_elements_have_a_negative_schur_coefficient():
    """The smallest distributive lattices that are nice but not Schur
    positive.  The two are dual: the dual of either is a distributive
    lattice of 14 elements with the same incomparability graph, so it is
    one of the two, and its levels are the reverse of the original's, so it
    is the other one.  Each expansion gives back the monomial expansion,
    from ``StablePartitionCounter``, through Kostka numbers from horizontal
    strips."""
    negative = [i for i, p in enumerate(LATTICES) if min(_expansion(i).values()) < 0]
    levels = [tuple(mask.bit_count() for mask in LATTICES[i].levels()) for i in negative]
    assert levels == [(1, 3, 3, 2, 2, 2, 1), (1, 2, 2, 2, 3, 3, 1)]
    kostka = functools.cache(kostka_number)
    for i in negative:
        expansion = _expansion(i)
        assert {lam: c for lam, c in expansion.items() if c < 0} == {(6, 4, 4): -8}
        monomials = monomial_expansion(incomparability_graph(LATTICES[i]))
        for mu in partitions_of(14):
            via_kostka = sum(c * kostka(lam, mu) for lam, c in expansion.items()
                             if dominance_leq(mu, lam))
            assert via_kostka == monomials.get(mu, 0), (i, mu)


def _join_irreducibles(p):
    """The elements with exactly one lower cover, read off ``dn`` alone."""
    count = 0
    for x, down in enumerate(p.dn):
        strict = down & ~(1 << x)
        # Elements strictly below some element strictly below x.
        deeper = 0
        for z in range(len(p)):
            if strict >> z & 1:
                deeper |= p.dn[z] & ~(1 << z)
        count += (strict & ~deeper).bit_count() == 1
    return count


def _longest_chain(p):
    """The most elements in a chain; the elements are indexed bottom-up."""
    height = []
    for x, down in enumerate(p.dn):
        height.append(1 + max((height[z] for z in range(x) if down >> z & 1), default=0))
    return max(height)


def test_every_lattice_has_one_join_irreducible_per_rank():
    assert all(_join_irreducibles(p) == _longest_chain(p) - 1 for p in LATTICES)


def test_the_corpus_frontier_script_passes_to_12_elements(capsys):
    """``corpus_frontier.py`` checks the corpus to 20 elements outside
    tier-1 (about 40 s); its counts check runs here on the 342 smallest,
    none of which is not nice, and its expansions on the 109 of at most
    10 elements, whose ``count_all`` passes walk 1,510 states."""
    from corpus_frontier import main

    assert main(["--max-size", "12", "--expand", "10"]) == 0
    out = capsys.readouterr().out
    assert "total 342 lattices, 0 not nice," in out
    states = re.search(r"^expanded 109 lattices: (\d+) count_all states,", out, re.M)
    assert states and int(states[1]) <= 1510


def test_the_corpus_frontier_witness_check_on_b3_6_and_its_dual():
    """The script's checks on a lattice that is not nice, which the corpus
    first holds at 18 elements: b3:6 and its dual give the witness it
    expects, and ``StablePartitionCounter`` counts no chain partition of the
    unachieved type but some of the achieved one."""
    from corpus_frontier import NOT_NICE, witness_failure

    b3 = build_poset(B3(6))
    for lattice in (b3, Poset(b3.labels, b3.dn)):
        verdict = is_nice(lattice)
        assert verdict.witness == NOT_NICE[18]
        assert witness_failure(lattice, verdict.witness[1]) is None
        assert witness_failure(lattice, verdict.witness[0])
