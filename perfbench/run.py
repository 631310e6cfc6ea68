"""Benchmark of the chromaposet query paths, end to end and per layer.

    python3 perfbench/run.py --workload {witness,expansion,nice} --seed N
        --seconds S --trace {0,1}

Run from the root of a checkout.  Queries go one at a time, each through
``chromaposet.cli.main`` in a fresh Python process (perfbench/worker.py)
that imports chromaposet from ``src/``.  ``--trace 0`` makes two passes
over the workload's pool, each in its own process and order, stopping
early when S seconds of queries have run, and reports the end-to-end
metrics with each query timed by the mean of its passes, in CPU seconds
scaled by a reference task timed next to it (worker.py).  ``--trace 1`` runs
the first half of one pass untraced, then the same queries with every layer
wrapped, and reports the per-layer metrics.  Every answer is checked after
the timed passes.  The last line of output is one JSON object {correct,
attempted, failed, metrics}.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# The names only: the pools live in workloads.py, which imports chromaposet,
# and run.py must fail cleanly where src/ is missing.
WORKLOADS = ("witness", "expansion", "nice")
# Extra processes started only to time set-up; each measured pass is one more.
PROBES = 6
# Passes over the pool in a run, each query timed by their mean.  A pass
# takes 10-13 s on the 2-core host, so two fit a 35 s window even in a slow
# spell; the window cuts a pass short only when the program is slower, and a
# query left with fewer samples then reads slower.
PASSES = 2
# The traced run covers the first half of the rounds of one pass, so that
# its counts do not depend on timing.
TRACE_ROUNDS = 4
# Least share of the worker's wall time around the cli.main calls that the
# traced cli.main spans must cover.
COVERED = 0.98
# About the CPU seconds of the reference task (worker.reference_task) on the
# 2-core Xeon host the baseline was measured on.  Every reported time is CPU
# time times REFERENCE_S over the reference task's time measured in the same
# process at the same moment; the constant sets the scale only.
REFERENCE_S = 0.01
# A run must end within 180 s.
DEADLINE_S = 170.0

# Layers each workload must never reach; a call there means the workload no
# longer isolates the path it was chosen for.
BYPASSED = {
    "witness": ("counting.count", "posets.bound", "nice", "nice.find", "nice.validate"),
    "expansion": ("nice", "nice.find", "nice.validate"),
    "nice": ("rimhooks.enumerate", "counting.count", "counting.closed"),
}
# The layer each workload was chosen to stress.
PURPOSE = {"witness": "rimhooks.enumerate", "expansion": "counting.count", "nice": "nice.find"}


class WorkerError(RuntimeError):
    pass


def start_worker(args, mode: str, extra: list[str], deadline: float):
    """Start a worker; returns the process and the CPU seconds it used
    until it was ready, scaled by the reference task."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--mode", mode, *extra]
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
        word, *times = (proc.stdout.readline() if ready else "").split()
        if word != "ready":
            raise WorkerError(f"{mode} worker did not start: {finish(proc, deadline)[1]}")
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    setup, ref = map(float, times)
    return proc, setup * REFERENCE_S / ref


def finish(proc, deadline: float) -> tuple[str, str]:
    """Wait for a worker to end; kill it at the deadline."""
    try:
        out, err = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise WorkerError("worker ran past the deadline") from None
    return out, err.strip()


def run_worker(args, mode: str, extra: list[str], deadline: float) -> tuple[dict, float]:
    proc, setup = start_worker(args, mode, extra, deadline)
    out, err = finish(proc, deadline)
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{mode} worker exited {proc.returncode}: {err[-2000:]}")
    return json.loads(lines[-1]), setup


def probe_setup(args, deadline: float) -> float:
    proc, setup = start_worker(args, "probe", [], deadline)
    finish(proc, deadline)
    if proc.returncode != 0:
        raise WorkerError(f"probe exited {proc.returncode}")
    return setup


def check_passes(workload: str, passes: list[dict]) -> list[bool]:
    """Check every answer of every pass; print the first few failures."""
    from workloads import Checker, pool

    queries, checker = pool(workload), Checker()
    verdicts = []
    for result in passes:
        for argv, code, out, error in zip(result["argv"], result["codes"],
                                          result["outputs"], result["errors"]):
            if error is None:
                error = checker.check(queries[tuple(argv)], code, out)
            if error is not None and verdicts.count(False) < 5:
                print(f"FAILED {' '.join(argv)}: {error}", file=sys.stderr)
            verdicts.append(error is None)
    return verdicts


def scaled(result: dict) -> list[float]:
    """A pass's query CPU times at reference speed: each times REFERENCE_S
    over the mean time of the reference tasks run between the queries.  The
    drift of the host's speed comes in spells of tens of seconds, which a
    pass of about ten seconds sees as a whole."""
    return [x * REFERENCE_S / statistics.mean(result["refs"]) for x in result["latencies"]]


def percentile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: the mean of the sorted
    values, each weighted by the mass of a Beta((n+1)q, (n+1)(1-q))
    distribution over its share of [0, 1].  Unlike the nearest-rank value it
    does not jump when two queries near the rank swap places or when a gap
    in cost lies at the rank, and in pools of a few dozen queries of uneven
    cost both happen."""
    ordered = sorted(values)
    n, per_value = len(ordered), 200
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    steps = n * per_value
    logs = [(a - 1) * math.log(x) + (b - 1) * math.log1p(-x)
            for x in ((j + 0.5) / steps for j in range(steps))]
    top = max(logs)
    mass = [math.exp(v - top) for v in logs]
    weights = [sum(mass[i * per_value : (i + 1) * per_value]) for i in range(n)]
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def tail(latencies: list[float]) -> tuple[float, int]:
    """Value and percentile of the highest whole percentile with at least
    ten samples above it; the maximum when there are too few."""
    n = len(latencies)
    if n <= 10:
        return max(latencies), 100
    pct = math.floor(100 * (n - 10) / n)
    return percentile(latencies, pct / 100), pct


def end_to_end(args, deadline: float) -> tuple[dict, int, int]:
    setups = [probe_setup(args, deadline) for _ in range(PROBES)]
    passes, window = [], 0.0
    while len(passes) < PASSES and window < args.seconds:
        result, setup = run_worker(args, "untraced", [
            "--pass", str(len(passes)), "--seconds", str(args.seconds - window)], deadline)
        passes.append(result)
        setups.append(setup)
        window += result["window_s"]
    ok = check_passes(args.workload, passes)
    # Each query is timed by the mean of its passes: once scaled, what is left
    # of the noise is as likely to speed a query up as to slow it down, and
    # the mean of two passes spread half as much as the best of them.  A
    # query counts as correct only if every pass answered it correctly.
    times, wrong = {}, set()
    runs = [(tuple(argv), latency) for result in passes
            for argv, latency in zip(result["argv"], scaled(result))]
    for (argv, latency), good in zip(runs, ok):
        times.setdefault(argv, []).append(latency)
        if not good:
            wrong.add(argv)
    latencies = [statistics.mean(samples) for samples in times.values()]
    tail_s, pct = tail(latencies)
    metrics = {
        "throughput_qps": ((len(times) - len(wrong)) / sum(latencies), "1/s"),
        "query_s.p50": (percentile(latencies, 0.5), "s"),
        "query_s.tail": (tail_s, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (max(result["peak_rss_mb"] for result in passes), "MB"),
    }
    walls = [x for result in passes for x in result["walls"]]
    notes = {
        "throughput_qps": f"{len(times) - len(wrong)} of {len(times)} queries correct in "
                          f"{sum(latencies):.3f} s",
        "query_s.tail": f"p{pct} of {len(latencies)} queries",
        "setup_s": f"median of {len(setups)} process starts",
    }
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}" + (f"  ({notes[name]})" if name in notes else ""))
    rounds = "+".join(str(result["rounds"]) for result in passes)
    speeds = ", ".join(f"{REFERENCE_S / statistics.mean(result['refs']):.3f}" for result in passes)
    print(f"all passes, wall time: {sum(ok)} correct of {len(ok)} query runs in "
          f"{window:.3f} s, {len(passes)} passes of {rounds} rounds, "
          f"{sum(ok) / window:.6g} 1/s, p50 {statistics.median(walls):.6g} s; "
          f"host speed by the reference task {speeds}")
    failed = len(ok) - sum(ok)
    print(f"failed_ratio {failed / len(ok):.6g}  ({failed} of {len(ok)} query runs)")
    return metrics, len(ok), failed


def per_layer(args, deadline: float) -> tuple[dict, int, int, list[str]]:
    plain, _ = run_worker(args, "untraced", [
        "--rounds", str(TRACE_ROUNDS), "--seconds", str(args.seconds)], deadline)
    traced, _ = run_worker(args, "traced", ["--rounds", str(plain["rounds"])], deadline)
    ok = check_passes(args.workload, [plain, traced])
    problems = []
    if traced["argv"] != plain["argv"]:
        problems.append("traced run did not repeat the untraced queries")
    for layer in BYPASSED[args.workload]:
        if traced["calls"].get(layer, 0):
            problems.append(f"{args.workload} reached {layer} {traced['calls'][layer]} times")
    # The layers' self times sum to the cli.main spans by construction; the
    # worker's own wall clock around each call must agree, or work ran
    # outside the wrapped entry point.
    cli_total = sum(traced["self_s"].values())
    wall_total = sum(traced["walls"])
    if not COVERED * wall_total <= cli_total <= wall_total:
        problems.append(f"layer self times sum to {cli_total:.6f} s, the worker timed "
                        f"{wall_total:.6f} s of cli.main calls")
    if traced["calls"].get("cli") != len(traced["latencies"]):
        problems.append("one cli.main span per query expected")

    metrics = {name: tuple(value) for name, value in traced["layers"].items()}
    overhead = sum(scaled(traced)) - sum(scaled(plain))
    metrics["trace.overhead_s"] = (overhead, "s")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")

    # Share of the traced cli.main time per layer, each layer counting the
    # pruning bounds it called.
    shares = {layer: (t + traced["bound_under"].get(layer, 0.0)) / cli_total
              for layer, t in traced["self_s"].items()
              if layer != "posets.bound" and traced["calls"].get(layer)}
    ranked = sorted(shares.items(), key=lambda item: -item[1])
    print("shares of cli.main, each layer with the bounds it called: "
          + ", ".join(f"{layer} {share:.1%}" for layer, share in ranked))
    verdict = "is" if ranked and ranked[0][0] == PURPOSE[args.workload] else "is NOT"
    print(f"purpose: {PURPOSE[args.workload]} {verdict} the largest share")
    print(f"tracing overhead: {overhead:.3f} s on {sum(scaled(plain)):.3f} s untraced, "
          f"{len(traced['latencies'])} queries in {traced['rounds']} rounds")

    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace.json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "argv": traced["argv"],
                   "metrics": metrics, "spans": traced["spans"]}, fh)
    return metrics, len(ok), len(ok) - sum(ok), problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "chromaposet" / "__init__.py").is_file():
        print(f"no chromaposet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    load = ",".join(f"{x:.2f}" for x in os.getloadavg())
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"env python={platform.python_version()} cpus={os.cpu_count()} loadavg={load}")
    try:
        if args.trace:
            metrics, attempted, failed, problems = per_layer(args, deadline)
        else:
            metrics, attempted, failed = end_to_end(args, deadline)
            problems = []
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
