"""The benchmark's tracer (perfbench/tracer.py) wraps engine entry points by
name.  Run it here on small queries, so a rename, or a change in which layer
calls which, fails the test suite instead of the benchmark run."""

import contextlib
import io

from chromaposet import cli
from conftest import load_perfbench


def _traced(argv, exit_code):
    tracer = load_perfbench("tracer").Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == exit_code
    finally:
        tracer.uninstall()
    tracer.layer_metrics()
    return tracer


def test_tracer_hooks_record_each_engine_entry_point():
    scp = _traced(["scp", "--poset", "prod:3x2", "--type", "4,2", "--method", "brute", "--json"], 0)
    coeff = _traced(
        ["schur-coeff", "--poset", "prod:3x2", "--shape", "4,2", "--method", "tabloid_brute", "--json"],
        0,
    )
    nice = _traced(["nice", "--poset", "b3:6", "--witness", "--json"], 4)
    for counted in (scp, coeff):
        assert counted.calls["cli"] == 1
        assert counted.calls["counting.count"] > 0
        assert counted.counts["counting.nodes"] > 0
        # the benchmark fails `expansion` if counting ever reaches the search
        assert counted.calls["nice.find"] == 0
    assert nice.calls["nice.find"] > 0
    assert nice.calls["nice.validate"] > 0
    assert nice.counts["nice.nodes"] > 0
    # ... and `nice` if the search ever reaches counting
    assert nice.calls["counting.count"] == 0


def test_expansion_counts_once_without_reentering_the_schur_span():
    """The expansion calls its tabloid-sum helper on the poset without its
    universal elements, never schur_expansion itself, which the tracer
    wraps.  It counts every type in one pass, not through the wrapped
    ``ChainPartitionCounter.count``."""
    traced = _traced(["schur", "--poset", "sum:1+prod:3x2+1", "--json"], 0)
    assert traced.calls["cli"] == 1
    assert traced.calls["schur"] == 1
    assert traced.calls["counting.count"] == 0
    assert traced.calls["nice.find"] == 0


def test_tabloid_hook_keeps_the_prefix_share():
    """``rimhooks.kept_ratio`` is the tabloids kept over every tabloid of
    the traced shape, which the tracer counts from ``TabloidFamily.shape``."""
    traced = _traced(["tabloid", "--shape", "5,3,2,1", "--content-prefix", "6"], 0)
    metrics = traced.layer_metrics()
    assert traced.calls["rimhooks.enumerate"] == 1
    # 4 of the 12 tabloids of the shape have a content starting with 6
    assert metrics["rimhooks.tabloids_kept"][0] == 4
    assert metrics["rimhooks.kept_ratio"][0] == 4 / 12


def test_bound_hook_counts_the_width_and_longest_chain():
    traced = _traced(["poset", "--poset", "prod:3x2"], 0)
    assert traced.calls["cli"] == 1
    assert traced.calls["posets.bound"] == 2
