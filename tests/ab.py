"""Time one chromaposet call on two source trees, one process per tree.

    python tests/ab.py BASE CHANGE --call MODULE.FUNC --pool WORKLOAD [--rounds N]
    python tests/ab.py BASE CHANGE --call MODULE.ATTR... --spec DSL [--spec DSL ...]

BASE and CHANGE are checkouts.  The script starts one worker process per
role, each with only its own tree's ``src/`` on its path, so that the two
trees never share a process.  The pool is the argv of every query of
WORKLOAD in BASE's ``perfbench/workloads.py`` (its ``pool`` function).
With ``--call cli.main`` each worker runs every argv as given, with its
output captured, and compared without the JSON envelope's
``wall_time_ms``.  Any other call, say ``nice.is_nice``, is made on the
poset of each argv's ``--poset``, built before the clock starts, with
``max_elements`` from the argv's ``--max-elements`` when it has one.
``--spec`` replaces the pool by the posets it names, one per ``--spec``,
for any call but ``cli.main``.  The call is an attribute path inside the
package, so a method such as ``posets.Poset.chain_shape`` takes the poset
as its ``self``.

After one untimed pass in each worker, each round collects garbage in
both workers and then asks each to run the call over the whole pool, in alternating order, timed in CPU seconds.  The
report gives each worker's process id and tree, both medians, the median
change/base ratio of the rounds with its quartiles, and whether the
digests of the outputs agreed in every round.  It uses only the standard
library.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import hashlib
import importlib
import importlib.util
import io
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path


def _load_pool(tree: str, workload: str) -> list[list[str]]:
    path = Path(tree) / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("ab_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses looks its module up by name while it builds a class
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return [list(argv) for argv in module.pool(workload)]


def _flag(argv: list[str], name: str) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else None


def _captured(main, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _serve(call: str) -> None:
    """The worker: one JSON request per stdin line, one JSON reply per
    stdout line."""
    import chromaposet
    from chromaposet import build_poset, parse_poset_spec

    module, *path = call.split(".")
    fn = importlib.import_module(f"chromaposet.{module}")
    for name in path:
        fn = getattr(fn, name)

    def say(obj) -> None:
        print(json.dumps(obj), flush=True)

    say({"pid": os.getpid(), "package": chromaposet.__file__})
    argvs: list[list[str]] = []
    for line in sys.stdin:
        request = json.loads(line)
        if "pool" in request:
            say({"argvs": _load_pool(*request["pool"])})
            continue
        if "argvs" in request:
            argvs = request["argvs"]
            say({})
            continue
        if call == "cli.main":
            calls = [functools.partial(_captured, fn, argv) for argv in argvs]
        else:
            calls = []
            for argv in argvs:
                limit = _flag(argv, "--max-elements")
                kwargs = {"max_elements": int(limit)} if limit else {}
                poset = build_poset(parse_poset_spec(_flag(argv, "--poset")))
                calls.append(functools.partial(fn, poset, **kwargs))
        outputs = []
        gc.collect()
        start = time.process_time()
        for one in calls:
            try:
                outputs.append(one())
            except Exception as exc:  # a refusal is an output too
                outputs.append(f"{type(exc).__name__}: {exc}")
        cpu = time.process_time() - start
        digest = hashlib.sha256()
        for result in outputs:
            if call == "cli.main":  # drop the envelope's wall time
                result = re.sub(r'"wall_time_ms": [0-9.e-]+', "", repr(result))
            elif isinstance(result, dict):
                result = sorted(result.items())
            digest.update(repr(result).encode())
        say({"cpu": cpu, "digest": digest.hexdigest()})


class _Worker:
    def __init__(self, tree: str, call: str):
        env = dict(os.environ, PYTHONPATH=str(Path(tree, "src").resolve()))
        self.tree = tree
        self.proc = subprocess.Popen(
            [sys.executable, "-P", __file__, "--serve", call],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
        )
        self.hello = self.ask(None)

    def ask(self, request):
        if request is not None:
            print(json.dumps(request), file=self.proc.stdin, flush=True)
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit(f"worker for {self.tree} exited with {self.proc.wait()}")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--call", required=True, help="MODULE.ATTR... inside chromaposet")
    inputs = parser.add_mutually_exclusive_group(required=True)
    inputs.add_argument("--pool", help="a workload of BASE's perfbench/workloads.py")
    inputs.add_argument("--spec", action="append", help="a poset in the DSL; repeatable")
    parser.add_argument("--rounds", type=int, default=20)
    args = parser.parse_args(argv)
    if args.spec and args.call == "cli.main":
        parser.error("--spec needs a library call; cli.main takes the pool's argvs")
    workers = {"base": _Worker(args.base, args.call), "change": _Worker(args.change, args.call)}
    try:
        if args.spec:
            argvs = [["--poset", spec] for spec in args.spec]
        else:
            argvs = workers["base"].ask({"pool": [args.base, args.pool]})["argvs"]
        for worker in workers.values():
            worker.ask({"argvs": argvs})
        for role, worker in workers.items():
            print(f"{role}: pid {worker.hello['pid']}, {worker.hello['package']}")
        source = args.pool or " ".join(args.spec)
        print(f"{args.call} over {len(argvs)} inputs of {source}, {args.rounds} rounds")
        for worker in workers.values():  # a warm-up: the CLI imports its engines on first use
            worker.ask({"run": -1})
        runs: dict[str, list[dict]] = {"base": [], "change": []}
        for r in range(args.rounds):
            for role in ("base", "change") if r % 2 == 0 else ("change", "base"):
                runs[role].append(workers[role].ask({"run": r}))
    finally:
        for worker in workers.values():
            worker.close()
    for role, results in runs.items():
        cpu = statistics.median(run["cpu"] for run in results)
        print(f"{role}: median {cpu * 1e3:.2f} ms CPU")
    ratios = [c["cpu"] / b["cpu"] for b, c in zip(runs["base"], runs["change"])]
    q1, _, q3 = statistics.quantiles(ratios, n=4, method="inclusive") if len(ratios) > 1 else ratios * 3
    print(f"change/base: median {statistics.median(ratios):.3f} (quartiles {q1:.3f}-{q3:.3f})")
    agree = all(b["digest"] == c["digest"] for b, c in zip(runs["base"], runs["change"]))
    print(f"digests agree in every round: {'yes' if agree else 'NO'}")
    return 0 if agree else 1


if __name__ == "__main__":
    if sys.argv[1:2] == ["--serve"]:
        _serve(sys.argv[2])
    else:
        sys.exit(main())
