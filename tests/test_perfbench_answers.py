"""The benchmark's answer checks (perfbench/workloads.py) on its own pools:
every ``witness`` and ``nice`` query and the two cheapest ``expansion``
strata run through the CLI, and each answer and exit code must pass the
oracle that shares no code with the engine.  A wrong coefficient or
verdict then fails the test suite instead of the benchmark run."""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from chromaposet import cli

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses looks its module up by name while it builds Query
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


WL = _load_workloads()
CHECKER = WL.Checker()


@pytest.mark.parametrize("workload, strata", [("witness", None), ("expansion", 2), ("nice", None)])
def test_pool_answers_pass_the_benchmark_checks(workload, strata):
    wrong = []
    for query in (q for members in WL.WORKLOADS[workload][:strata] for q in members):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(query.argv))
        reason = CHECKER.check(query, code, out.getvalue())
        if reason is not None:
            wrong.append((" ".join(query.argv), reason))
    assert not wrong
