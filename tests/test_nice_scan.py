"""The niceness scan that generates only the open types: the generator
against a filter over every type inside the shape, ``is_nice`` against the
scan that walks and looks up every such type, field by field, and the
verdict's fields against each other and a stable partition count."""

import itertools
import random

import pytest
from hypothesis import given, settings

from chromaposet import B3, ChainPartitionCounter, OrdinalSum, Poset, StablePartitionCounter
from chromaposet import build_poset, dominance_leq, incomparability_graph, is_nice
from chromaposet import parse_poset_spec, partitions_of
from chromaposet import nice
from chromaposet.nice import _exchange, _merges, _open_types, _smallest_merge
from conftest import builder_specs, random_posets, unit_interval_orders
from test_nice import CHAIN_UNIONS, _chain_union


def _rule_open(n, shape):
    """The types inside ``shape`` that the no-lookup rule leaves open."""
    w = max(len(shape), 2)
    return [
        lam for lam in partitions_of(n, shape)
        if not (len(lam) > w and lam[w - 2] >= lam[-1] + lam[-2])
    ]


def _random_dag(rng, n):
    """A random poset on n elements: each pair i < j related with one
    probability per poset, then closed under transitivity."""
    p = rng.random()
    up = [1 << i for i in range(n)]
    for i in reversed(range(n)):
        for j in range(i + 1, n):
            if rng.random() < p:
                up[i] |= up[j]
    return Poset(tuple(f"x{i}" for i in range(n)), tuple(up))


@pytest.mark.parametrize("spec", builder_specs(20), ids=lambda spec: spec.dsl())
def test_open_types_on_builder_shapes(spec):
    poset = build_poset(spec)
    n, shape = len(poset), poset.chain_shape()
    assert list(_open_types(n, shape)) == _rule_open(n, shape)


@pytest.mark.parametrize("n", range(17))
def test_open_types_on_random_bounds(n):
    # A chain shape strictly increases and ends at the size of the poset.
    rng = random.Random(n)
    for _ in range(40):
        w = rng.randint(1, n) if n else 0
        shape = tuple(sorted(rng.sample(range(1, n), w - 1))) + (n,) if n else ()
        assert list(_open_types(n, shape)) == _rule_open(n, shape), shape


def test_open_types_edge_shapes():
    assert list(_open_types(0, ())) == [()]
    # A chain: w = 2, so every type with one or two parts is open, and a
    # longer one when its two smallest parts sum past its first.
    assert list(_open_types(5, (5,))) == [(5,), (4, 1), (3, 2), (2, 2, 1), (1, 1, 1, 1, 1)]


def test_achieved_types_are_listed_only_when_read(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return partitions_of(*args)

    monkeypatch.setattr(nice, "partitions_of", counted)
    poset = build_poset(parse_poset_spec("prod:4x3"))
    verdict = is_nice(poset)
    assert verdict.nice and not calls
    assert verdict.achieved_types == tuple(partitions_of(12, poset.chain_shape()))
    assert verdict.achieved_types is verdict.achieved_types
    assert len(calls) == 1


def _check_verdict_contract(poset, count_achieved=True):
    """The verdict's fields against each other and against a stable
    partition count, which shares no code with the chain-partition engine.
    The witness is recomputed from the complete lists, which a scan that
    stopped at its witness completes when they are read; a list left
    partial would put an unachieved type among the achieved ones, so those
    of a verdict that is not nice are counted too."""
    verdict = is_nice(poset)
    cert = verdict.witness_certificate
    decided = (verdict.nice, verdict.witness, cert and cert.blocks, verdict.nodes)
    assert verdict.shape == poset.chain_shape()
    unachieved, achieved = verdict.unachieved_types, verdict.achieved_types
    assert (verdict.nice, verdict.witness, cert and cert.blocks, verdict.nodes) == decided
    assert not set(unachieved) & set(achieved)
    types = tuple(partitions_of(len(poset), verdict.shape))
    assert unachieved == tuple(lam for lam in types if lam in unachieved)
    assert achieved == tuple(lam for lam in types if lam not in unachieved)
    counter = StablePartitionCounter(incomparability_graph(poset))
    assert all(counter.count(mu) == 0 for mu in unachieved)
    if count_achieved and not verdict.nice:
        assert all(counter.count(lam) for lam in achieved)
    pairs = ((lam, mu) for lam in achieved for mu in unachieved if dominance_leq(mu, lam))
    assert verdict.witness == next(pairs, None)
    assert verdict.nice == (verdict.witness is None)
    if cert is not None:
        cert.validate()
        assert cert.type == verdict.witness[0]
    return verdict


@pytest.mark.parametrize("spec", builder_specs(14), ids=lambda spec: spec.dsl())
def test_verdict_contract_on_builders(spec):
    _check_verdict_contract(build_poset(spec))


@settings(max_examples=100, deadline=None)
@given(random_posets())
def test_verdict_contract_on_random_posets(poset):
    _check_verdict_contract(poset)


@settings(max_examples=60, deadline=None)
@given(unit_interval_orders())
def test_verdict_contract_on_unit_interval_orders(poset):
    _check_verdict_contract(poset)


@pytest.mark.parametrize("dsl, unachieved", [("b3:6", ((6, 6, 6),)), ("b3:7", ((7, 7, 6),))])
def test_b3_fails_on_one_unachieved_type(dsl, unachieved):
    # Their one unachieved type is the first to fail, so no list can be
    # partial; counting their 315 and 527 achieved types stably would take
    # 28 s and 265 s.
    verdict = _check_verdict_contract(build_poset(parse_poset_spec(dsl)), count_achieved=False)
    assert not verdict.nice and verdict.unachieved_types == unachieved


def test_nice_verdict_with_an_unachieved_type():
    # The very first type scanned, (4, 2), fails: the scan hands over to
    # the walk over every type at once, and still finds the poset nice.
    poset = Poset(tuple(f"x{i}" for i in range(6)), (61, 26, 60, 24, 16, 32))
    verdict = _check_verdict_contract(poset)
    assert verdict.nice and verdict.shape == (4, 6)
    assert verdict.unachieved_types == ((4, 2),)


def test_shape_type_that_fails_first_keeps_the_scan_going():
    # The shape's own type (4, 2, 1) is the first type scanned, and it
    # fails: the scan runs on to the witness, whose first type is achieved.
    poset = Poset(tuple(f"x{i}" for i in range(7)), (93, 82, 92, 8, 80, 32, 64))
    verdict = _check_verdict_contract(poset)
    assert verdict.shape == (4, 6, 7)
    assert verdict.unachieved_types == ((4, 2, 1), (3, 2, 2))
    assert verdict.witness == ((3, 3, 1), (3, 2, 2))


def test_verdict_fields_take_keywords_only():
    with pytest.raises(TypeError):
        nice.NiceVerdict(True)


@pytest.mark.parametrize("dsl, most", [("sum:0+b3:4+6", 105), ("prod:5x4", 119), ("bool:4", 56)])
def test_scan_visits_at_most_pinned_types(monkeypatch, dsl, most):
    # Type counts do not depend on the machine: walking every type inside
    # the shape visits 589, 417 and 72.
    visited = []

    def counted(n, shape):
        for lam in _open_types(n, shape):
            visited.append(lam)
            yield lam

    monkeypatch.setattr(nice, "_open_types", counted)
    assert is_nice(build_poset(parse_poset_spec(dsl))).nice
    assert len(visited) <= most


def test_no_type_is_searched_twice(monkeypatch):
    # A scan that went back over the types before its first failure would
    # search some of them again, with the same verdict.
    searched = []
    find = ChainPartitionCounter.find

    def recorded(counter, type_):
        searched.append(type_)
        return find(counter, type_)

    monkeypatch.setattr(ChainPartitionCounter, "find", recorded)
    for dsl in ("b3:6", "sum:0+b3:4+6"):
        searched.clear()
        is_nice(build_poset(parse_poset_spec(dsl)))
        assert searched and len(searched) == len(set(searched)), dsl


def _reference_scan(poset):
    """The scan that walks every type inside the shape and looks each one
    up, searches or exchanges it, as ``is_nice`` did before it generated
    only the open types: (nice, witness, certificate blocks, achieved
    types, nodes).  The nodes are counted up to the verdict: when the first
    type walked is achieved and another fails, the searches up to that
    failure."""
    searcher = ChainPartitionCounter(poset)
    achieved, masks, known, failed = {}, {}, {}, []
    stop = None
    for lam in partitions_of(len(poset), poset.chain_shape()):
        ok = achieved.get(_smallest_merge(lam)) if len(lam) > 1 else None
        if ok is False:
            ok = any(achieved.get(merged) for merged in _merges(lam))
        if not ok:
            tried = (_exchange(poset, b, lam) for b in reversed(known.get(len(lam), ())))
            found = next(filter(None, tried), None)
            if found is None:
                found = masks[lam] = searcher.find(lam)
            ok = found is not None
            if ok:
                known.setdefault(len(lam), []).append(found)
            else:
                if not failed and achieved:
                    stop = searcher.nodes
                failed.append(lam)
        achieved[lam] = ok
    types = tuple(lam for lam, ok in achieved.items() if ok)
    for lam in types:
        for mu in failed:
            if dominance_leq(mu, lam):
                blocks = masks.get(lam) or searcher.find(lam)
                cert = nice._certificate_from_masks(poset, blocks, lam)
                return False, (lam, mu), cert.blocks, types, stop or searcher.nodes
    return True, None, None, types, searcher.nodes


def _check_against_reference(poset, max_elements=20):
    verdict = is_nice(poset, max_elements=max_elements)
    cert = verdict.witness_certificate
    got = (verdict.nice, verdict.witness, cert and cert.blocks, verdict.achieved_types,
           verdict.nodes)
    assert got == _reference_scan(poset)


@pytest.mark.parametrize("spec", builder_specs(20), ids=lambda spec: spec.dsl())
def test_scan_matches_the_reference_on_builders(spec):
    _check_against_reference(build_poset(spec))


@pytest.mark.parametrize("spec, most", [(B3(8), 22), (OrdinalSum(0, B3(7), 1), 21)],
                         ids=["b3:8", "sum:0+b3:7+1"])
def test_scan_matches_the_reference_past_the_pool(spec, most):
    _check_against_reference(build_poset(spec), max_elements=most)


@pytest.mark.parametrize("sizes", CHAIN_UNIONS, ids=lambda sizes: "+".join(map(str, sizes)))
def test_scan_matches_the_reference_on_chain_unions(sizes):
    _check_against_reference(_chain_union(sizes))


@pytest.mark.parametrize("seed", range(6))
def test_scan_matches_the_reference_on_random_posets(seed):
    rng = random.Random(seed)
    for n in itertools.islice(itertools.cycle(range(1, 12)), 55):
        _check_against_reference(_random_dag(rng, n))
