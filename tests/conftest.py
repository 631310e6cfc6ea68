"""Shared test helpers: a time limit on every test, the builder posets up
to a size, hypothesis strategies for posets beyond the five builders (unit
interval orders among them), the contents of the six tabloids of the
negativity witness, and the benchmark's modules under ``perfbench/``."""

import importlib.util
import itertools
import signal
import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

from chromaposet import B3, Boolean, Chain, OrdinalSum, Poset, Product, build_poset
from chromaposet import sorted_partition, staircase_delta
from chromaposet.cli import _factorizations

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Seconds a test may run; the slowest takes about 3.5 s, so one that runs
# this long is stuck in a loop that does not end.
TIME_LIMIT = 120


class TimeLimitExceeded(BaseException):
    """Raised in a test that outlives ``TIME_LIMIT``.  Hypothesis catches
    ``Exception`` and pytest's ``Failed`` to shrink and replay a failing
    example, and a replay would hang again with no timer left; this
    propagates at once, and pytest reports it as that test's failure."""


@pytest.fixture(autouse=True)
def _time_limit():
    """Fail a test by name once it has run ``TIME_LIMIT`` seconds, so a
    loop that never ends stops that test rather than the whole suite."""
    if not hasattr(signal, "setitimer"):
        yield
        return

    def expire(signum, frame):
        raise TimeLimitExceeded(f"test ran past its limit of {TIME_LIMIT} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def load_perfbench(name):
    """A fresh copy of ``perfbench/<name>.py``, loaded from its path, since
    ``perfbench`` is no package."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses looks its module up by name while it builds Query
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def builder_specs(size):
    """One spec per builder shape with at most ``size`` elements: chains,
    products of chains (factors >= 2), boolean lattices, b3 and ordinal
    sums of the small ones with chains."""
    specs = [Chain(n) for n in range(1, size + 1)]
    specs += [Boolean(r) for r in range(1, size.bit_length())]
    specs += [B3(n) for n in range(1, (size - 6) // 2 + 1)]
    specs += [Product(lengths) for lengths in _factorizations(size) if len(lengths) > 1]
    for inner in (Product((2, 2)), Product((3, 2)), Boolean(3), B3(1), Product((3, 3))):
        room = size - len(build_poset(inner))
        specs += [OrdinalSum(p, inner, q) for p in range(3) for q in range(3) if 0 < p + q <= room]
    return specs


def witness_case_contents(n, k):
    """Contents of the six tabloids of the negativity witness shape."""
    tails = {
        "T1": (k - 1, 2),
        "T2": (k - 1, 1, 1),
        "T3": (k - 2, 3),
        "T4": (k - 2, 2, 1),
        "T5": (k - 3, 3, 1),
        "T6": (k - 3, 2, 2),
    }
    return {name: staircase_delta(n, k) + sorted_partition(tail) for name, tail in tails.items()}


@st.composite
def random_posets(draw, max_size=8):
    """A random DAG on 1..max_size elements with edges from lower to higher
    index, closed under transitivity."""
    n = draw(st.integers(1, max_size))
    edges = draw(st.lists(st.booleans(), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    pairs = itertools.combinations(range(n), 2)
    up = [1 << i for i in range(n)]
    for (i, j), edge in zip(pairs, edges):
        if edge:
            up[i] |= 1 << j
    for i in reversed(range(n)):
        for j in range(i + 1, n):
            if up[i] >> j & 1:
                up[i] |= up[j]
    return Poset(tuple(f"x{i}" for i in range(n)), tuple(up))


@st.composite
def posets_with_universal(draw, max_size=8):
    """X + points + Y, the ordinal sum of two random posets around 1-3
    points comparable to everything, with an optional chain below and
    above; the indices are then shuffled, so the universal elements do not
    sit only at the lowest and highest indices."""

    def chain(k):
        return [(1 << k) - (1 << i) for i in range(k)]

    points, below, above = draw(st.integers(1, 3)), draw(st.integers(0, 1)), draw(st.integers(0, 1))
    room = max_size - points - below - above
    x = draw(random_posets(max_size=draw(st.integers(1, room - 1))))
    y = draw(random_posets(max_size=room - len(x)))
    blocks = [chain(below), list(x.up), chain(points), list(y.up), chain(above)]
    n = sum(map(len, blocks))
    up, offset = [], 0
    for block in blocks:
        offset += len(block)
        later = (1 << n) - (1 << offset)
        up += [mask << (offset - len(block)) | later for mask in block]
    perm = draw(st.permutations(range(n)))
    moved = [0] * n
    for i, mask in enumerate(up):
        moved[perm[i]] = sum(1 << perm[j] for j in range(n) if mask >> j & 1)
    return Poset(tuple(f"x{i}" for i in range(n)), tuple(moved))


@st.composite
def unit_interval_orders(draw, max_size=9, min_size=2):
    """A unit interval order on min_size..max_size elements from a
    Hessenberg function: m is nondecreasing with m(i) >= i, and i < j
    exactly when j > m(i).  The indices are then shuffled.  These posets
    are (3+1)-free.  Each m(i) is a step of 0-3 above max(m(i-1), i),
    capped at n-1, so most 10-12 element draws have a longest chain of 3
    or more; drawn uniformly up to n-1, m reaches n-1 within a few
    elements and most draws are near-antichains."""
    n = draw(st.integers(min_size, max_size))
    m = []
    for i in range(n):
        m.append(min(max(m[-1] if m else 0, i) + draw(st.integers(0, 3)), n - 1))
    perm = draw(st.permutations(range(n)))
    up = [0] * n
    for i in range(n):
        up[perm[i]] = 1 << perm[i] | sum(1 << perm[j] for j in range(m[i] + 1, n))
    return Poset(tuple(f"x{i}" for i in range(n)), tuple(up))
