"""One pass over a workload in one fresh process: the closed loop behind
run.py.

    python3 perfbench/worker.py --workload NAME --seed N --pass P --mode MODE
        [--seconds S] [--rounds R]

Once chromaposet is imported and the queries are generated, prints a line
"ready SETUP REF": the CPU seconds the process has used so far, and the mean
CPU seconds of the reference task run right after.  Then (unless MODE is
``probe``) runs the queries one at a time through ``chromaposet.cli.main``
with their output captured, each preceded by one timed reference task, and
prints one JSON line with each query's CPU time, wall time, reference time,
exit code and output.  MODE ``traced`` wraps the layers with the tracer;
``untraced`` does not.  With ``--seconds`` no round starts after that many
seconds; ``--rounds`` runs only the first R rounds.  run.py checks the
answers after the pass.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import chromaposet  # noqa: E402
from chromaposet import cli  # noqa: E402

from workloads import make_rounds  # noqa: E402

# Reference tasks run right after set-up, to scale the set-up time.
SETUP_REFERENCES = 5


def _partitions(n: int, largest: int):
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def reference_task() -> int:
    """A fixed pure-Python task of about 10 ms of CPU, of the same kind of
    work as the queries (recursive generators, tuples, dicts, sets), that
    never touches chromaposet.  On a shared host the speed of a core drifts
    by up to half within minutes, from other tenants' use of the caches and
    the core's sibling thread, and CPU time does not leave that out; the
    time of this task, taken next to every query, measures that drift."""
    seen: dict[tuple[int, ...], int] = {}
    for parts in _partitions(22, 22):
        key = tuple(sorted(set(parts)))
        seen[key] = seen.get(key, 0) + len(parts)
    adjacency = {i: {(7 * i + 3) % 601, (13 * i + 5) % 601, (i + 1) % 601} for i in range(601)}
    total = 0
    for source in range(0, 601, 40):
        dist, frontier = {source: 0}, [source]
        while frontier:
            following = []
            for u in frontier:
                for v in adjacency[u]:
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        following.append(v)
            frontier = following
        total += sum(dist.values())
    return len(seen) + total


def time_reference() -> float:
    start = time.process_time()
    reference_task()
    return time.process_time() - start


def run_loop(rounds, seconds: float | None, tracer) -> tuple[list[tuple], int, float]:
    """Run rounds until the window closes.  Returns per-query records
    (query, CPU seconds, wall seconds, reference seconds, exit code, stdout,
    error), the rounds run and the window length in wall seconds.  A call
    is single-threaded and does no I/O, so its CPU time is its latency on an
    idle core; unlike the wall time it leaves out the time spent waiting for
    a CPU."""
    records = []
    ran = 0
    start = time.perf_counter()
    for batch in rounds:
        if seconds is not None and ran and time.perf_counter() - start >= seconds:
            break
        ran += 1
        for query in batch:
            # Each query starts from an empty collector, so that it is not
            # charged for the garbage of the query before it.
            gc.collect()
            ref = time_reference()
            if tracer is not None:
                tracer.query = len(records)
            out, err = io.StringIO(), io.StringIO()
            code = error = None
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(list(query.argv))
            except (Exception, SystemExit) as exc:  # a raising query is a failed query
                error = f"raised {exc!r}"
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            if error is None and err.getvalue():
                error = f"stderr: {err.getvalue().strip()}"
            records.append((query, cpu, wall, ref, code, out.getvalue(), error))
    return records, ran, time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass", type=int, default=0, dest="pass_")
    parser.add_argument("--mode", choices=("probe", "untraced", "traced"), required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--rounds", type=int)
    args = parser.parse_args()

    if Path(chromaposet.__file__).resolve().parent != HERE.parent / "src" / "chromaposet":
        print(f"chromaposet imported from {chromaposet.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    rounds = make_rounds(args.workload, args.seed, args.pass_)
    if args.rounds is not None:
        rounds = rounds[: args.rounds]
    setup = time.process_time()
    ref = statistics.mean(time_reference() for _ in range(SETUP_REFERENCES))
    print(f"ready {setup!r} {ref!r}", flush=True)
    if args.mode == "probe":
        return 0

    tracer = None
    if args.mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        records, ran, window = run_loop(rounds, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    queries, cpus, walls, refs, codes, outputs, errors = zip(*records)
    result = {
        "argv": [list(query.argv) for query in queries],
        "latencies": cpus,
        "walls": walls,
        "refs": refs,
        "codes": codes,
        "outputs": outputs,
        "errors": errors,
        "window_s": window,
        "rounds": ran,
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["calls"] = dict(tracer.calls)
        result["self_s"] = dict(tracer.self_s)
        result["bound_under"] = dict(tracer.bound_under)
        result["spans"] = tracer.spans
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
