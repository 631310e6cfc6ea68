"""The benchmark's answer checks (perfbench/workloads.py) on its own pools:
every ``witness`` and ``nice`` query and the two cheapest ``expansion``
strata run through the CLI under the benchmark's tracer, and each answer
and exit code must pass the oracle that shares no code with the engine,
as must the checks of the traced run that do not depend on timing.  A
wrong coefficient or verdict, or a fault that shows only when traced,
then fails the test suite instead of the benchmark run."""

import contextlib
import io
from collections import Counter

import pytest

from chromaposet import cli, counting, nice
from conftest import load_perfbench

WL = load_perfbench("workloads")
CHECKER = WL.Checker()


@pytest.mark.parametrize("workload, strata", [("witness", None), ("expansion", 2), ("nice", None)])
def test_pool_answers_pass_the_benchmark_checks(workload, strata):
    # The tracer wraps ``nice.find`` on this alias, which must stay the engine.
    assert nice.ChainPartitionSearcher is counting.ChainPartitionCounter
    queries = [q for members in WL.WORKLOADS[workload][:strata] for q in members]
    tracer = load_perfbench("tracer").Tracer()
    answers = []
    tracer.install()
    try:
        for index, query in enumerate(queries):
            tracer.query = index
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                answers.append((cli.main(list(query.argv)), out.getvalue()))
    finally:
        tracer.uninstall()
    tracer.layer_metrics()
    bypassed = load_perfbench("run").BYPASSED[workload]
    assert {layer: tracer.calls[layer] for layer in bypassed if tracer.calls[layer]} == {}
    cli_spans = Counter(span[0] for span in tracer.spans if span[1] == "cli")
    assert cli_spans == Counter(range(len(queries)))
    wrong = [
        (" ".join(query.argv), reason)
        for query, (code, out) in zip(queries, answers)
        if (reason := CHECKER.check(query, code, out)) is not None
    ]
    assert not wrong
