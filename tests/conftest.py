"""Shared test helpers: a hypothesis strategy for posets beyond the five
builders."""

import itertools

from hypothesis import strategies as st

from chromaposet import Poset


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
