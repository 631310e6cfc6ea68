"""Command-line front end.

Every subcommand reads flags, calls into the library, and reports either
human-readable text or a JSON envelope {command, request, result, method,
wall_time_ms, version}.  Coefficients and counts are serialized as decimal
strings: they routinely exceed double precision, and JSON numbers would be
silently rounded by most consumers.

Exit codes: 0 success, 1 domain error, 2 parse error (bad flags, bad DSL,
bad partition text, bad values of --criteria), 3 a requested Schur
coefficient is negative, 4 a niceness query answered "no".
A reader that closes stdout early (say, ``| head``) ends the command with
exit 1 and no traceback.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

from . import __version__
from .counting import SearchStats, StaircaseContext, scp_closed_form
from .errors import DomainError, DslParseError, FastPathInapplicableError
from .nice import chain_partition_exists, is_nice
from .partitions import format_partition, parse_partition, sorted_partition
from .posets import (
    B3,
    Product,
    build_poset,
    incomparability_graph,
    iter_bits,
    parse_poset_spec,
    verify_distributive_lattice,
)
from .rimhooks import enumerate_srht, render_tabloid
from .schur import closed_fast_path, schur_coefficient, schur_expansion, theorem41_coefficient
from .counting import ChainPartitionCounter
from . import verification

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_PARSE = 2
EXIT_NEGATIVE = 3
EXIT_NOT_NICE = 4


class UsageError(ValueError):
    """A flag value that argparse does not check; exits 2."""


def _emit(args, command: str, request: dict, result, method: str, started: float) -> None:
    if args.json:
        envelope = {
            "command": command,
            "request": request,
            "result": result,
            "method": method,
            "wall_time_ms": round((time.perf_counter() - started) * 1000.0, 3),
            "version": __version__,
        }
        print(json.dumps(envelope, sort_keys=True, indent=2))


def _cmd_poset(args) -> int:
    started = time.perf_counter()
    poset = build_poset(parse_poset_spec(args.poset))
    covers = sorted(
        (poset.labels[i], poset.labels[j])
        for i in range(len(poset))
        for j in iter_bits(poset.covers[i])
    )
    result = {
        "dsl": poset.spec.dsl(),
        "size": len(poset),
        "elements": list(poset.labels),
        "covers": [list(pair) for pair in covers],
        "width": poset.width(),
        "longest_chain": poset.max_chain_size(),
        "incomparable_pairs": incomparability_graph(poset).edge_count(),
    }
    if args.lattice:
        result["distributive_lattice"] = verify_distributive_lattice(poset)
    if not args.json:
        print(f"poset {result['dsl']}: {result['size']} elements")
        print(f"  width {result['width']}, longest chain {result['longest_chain']}, "
              f"incomparable pairs {result['incomparable_pairs']}")
        if args.lattice:
            print(f"  distributive lattice: {result['distributive_lattice']}")
        for a, b in covers:
            print(f"  {a} < {b}")
    _emit(args, "poset", {"poset": args.poset, "lattice": args.lattice}, result, "construction", started)
    return EXIT_OK


def _cmd_tabloid(args) -> int:
    started = time.perf_counter()
    shape = parse_partition(args.shape)
    content = parse_partition(args.content) if args.content is not None else None
    prefix = parse_partition(args.content_prefix) if args.content_prefix is not None else None
    family = enumerate_srht(shape, content=content, content_prefix=prefix)
    tabloids = []
    for t in family:
        tabloids.append(
            {
                "hooks": [[[r, c] for r, c in hook.cells()] for hook in t.hooks],
                "height": t.height,
                "sign": t.sign,
                "content": format_partition(t.content),
            }
        )
    result = {"shape": format_partition(shape), "count": len(family), "tabloids": tabloids}
    if not args.json:
        print(f"{len(family)} special rim hook tabloids of shape {format_partition(shape)}")
        for t in family:
            print(render_tabloid(t))
            print(f"content {format_partition(t.content)}  height {t.height}  sign {t.sign:+d}")
            print()
    request = {"shape": args.shape, "content": args.content, "content_prefix": args.content_prefix}
    _emit(args, "tabloid", request, result, "enumeration", started)
    return EXIT_OK


def _cmd_scp(args) -> int:
    started = time.perf_counter()
    poset = build_poset(parse_poset_spec(args.poset))
    type_ = parse_partition(args.type)
    stats = SearchStats()
    method = args.method
    if method == "auto":
        fast = closed_fast_path(poset, type_)
        method = "closed" if fast is not None else "brute"
    if method == "closed":
        fast = closed_fast_path(poset, type_)
        if fast is None:
            raise FastPathInapplicableError(
                "closed form needs a product of two chains and a staircase-prefixed type"
            )
        count = scp_closed_form(fast[0], type_)
    else:
        count = ChainPartitionCounter(poset).count(type_, stats=stats)
    result = {
        "poset": poset.spec.dsl(),
        "type": format_partition(type_),
        "count": str(count),
        "nodes": stats.nodes,
    }
    if not args.json:
        print(f"{count} ({method})")
    request = {"poset": args.poset, "type": args.type, "method": args.method}
    _emit(args, "scp", request, result, method, started)
    return EXIT_OK


def _cmd_schur(args) -> int:
    started = time.perf_counter()
    poset = build_poset(parse_poset_spec(args.poset))
    expansion = schur_expansion(poset, max_elements=args.max_elements)
    coeffs = {
        format_partition(lam): str(c) for lam, c in expansion.sorted_items()
    }
    result = {"poset": poset.spec.dsl(), "degree": expansion.degree, "coeffs": coeffs}
    if not args.json:
        for lam, c in expansion.sorted_items():
            print(f"s[{format_partition(lam)}] {c}")
    _emit(args, "schur", {"poset": args.poset, "max_elements": args.max_elements}, result,
          "tabloid_sum", started)
    return EXIT_OK if expansion.is_nonnegative() else EXIT_NEGATIVE


def _cmd_schur_coeff(args) -> int:
    started = time.perf_counter()
    poset = build_poset(parse_poset_spec(args.poset))
    shape = parse_partition(args.shape)
    method = args.method
    if method == "auto":
        method = "tabloid_closed" if closed_fast_path(poset, shape) else "tabloid_brute"
    value = schur_coefficient(poset, shape, method=method)
    result = {
        "poset": poset.spec.dsl(),
        "shape": format_partition(shape),
        "coefficient": str(value),
    }
    if not args.json:
        print(value)
    request = {"poset": args.poset, "shape": args.shape, "method": args.method}
    _emit(args, "schur-coeff", request, result, method, started)
    return EXIT_NEGATIVE if value < 0 else EXIT_OK


def _cmd_nice(args) -> int:
    started = time.perf_counter()
    poset = build_poset(parse_poset_spec(args.poset))
    verdict = is_nice(
        poset,
        max_elements=args.max_elements,
        include_types=args.all_types,
        node_budget=args.node_budget,
    )
    result: dict = {"poset": poset.spec.dsl(), "nice": verdict.nice, "nodes": verdict.nodes}
    if verdict.witness is not None and args.witness:
        achieved, unachieved = verdict.witness
        result["witness"] = {
            "achieved": format_partition(achieved),
            "unachieved": format_partition(unachieved),
            "certificate": verdict.witness_certificate.to_jsonable(),
        }
    if args.all_types:
        result["achieved_types"] = [format_partition(t) for t in verdict.achieved_types]
    if not args.json:
        print(f"nice: {str(verdict.nice).lower()}")
        if verdict.witness is not None and args.witness:
            achieved, unachieved = verdict.witness
            print(f"achieved {format_partition(achieved)} but not {format_partition(unachieved)}")
            for block in verdict.witness_certificate.blocks:
                print("  chain: " + " < ".join(block))
        if args.all_types:
            print("achieved types: " + "; ".join(
                format_partition(t) for t in verdict.achieved_types))
    request = {
        "poset": args.poset,
        "witness": args.witness,
        "all_types": args.all_types,
        "max_elements": args.max_elements,
        "node_budget": args.node_budget,
    }
    _emit(args, "nice", request, result, "pruned_search", started)
    return EXIT_OK if verdict.nice else EXIT_NOT_NICE


def _cmd_chain_partition(args) -> int:
    started = time.perf_counter()
    poset = build_poset(parse_poset_spec(args.poset))
    type_ = parse_partition(args.type)
    stats = SearchStats()
    cert = chain_partition_exists(poset, type_, node_budget=args.node_budget, stats=stats)
    result: dict = {
        "poset": poset.spec.dsl(),
        "type": format_partition(type_),
        "exists": cert is not None,
        "nodes": stats.nodes,
    }
    if cert is not None:
        result["certificate"] = cert.to_jsonable()
    if not args.json:
        if cert is None:
            print("no chain partition of this type")
        else:
            for block in cert.blocks:
                print("chain: " + " < ".join(block))
    request = {"poset": args.poset, "type": args.type, "node_budget": args.node_budget}
    _emit(args, "chain-partition", request, result, "pruned_search", started)
    return EXIT_OK if cert is not None else EXIT_NOT_NICE


def _cmd_theorem41(args) -> int:
    started = time.perf_counter()
    value = theorem41_coefficient(args.n, args.k)
    result = {"n": args.n, "k": args.k, "coefficient": str(value)}
    if not args.json:
        print(value)
    _emit(args, "theorem41", {"n": args.n, "k": args.k}, result, "closed_form", started)
    return EXIT_NEGATIVE if value < 0 else EXIT_OK


def _sweep_two_chain(args) -> tuple[list[dict], bool, list[str]]:
    if args.b != 2 * args.j - 2 * args.a - 1:
        raise DomainError(
            f"shape family needs b = 2j - 2a - 1; got j={args.j} a={args.a} b={args.b}"
        )
    rows, lines, any_negative = [], [], False
    for m in range(args.m_min, args.m_max + 1):
        shape = sorted_partition((m + 1, m - 2 * args.j) + (2,) * args.a + (1,) * args.b)
        poset = build_poset(Product((m, 2)))
        value = schur_coefficient(poset, shape, method="tabloid_closed")
        any_negative = any_negative or value < 0
        rows.append({"m": m, "shape": format_partition(shape), "coefficient": str(value)})
        lines.append(f"m={m} shape={format_partition(shape)} coefficient={value}")
    return rows, any_negative, lines


def _sweep_b3(args) -> tuple[list[dict], bool, list[str]]:
    rows, lines, any_failure = [], [], False
    for n in range(args.n_min, args.n_max + 1):
        verdict = is_nice(
            build_poset(B3(n)), max_elements=args.max_elements, node_budget=args.node_budget
        )
        any_failure = any_failure or not verdict.nice
        row = {"n": n, "nice": verdict.nice}
        if verdict.witness is not None:
            row["witness"] = [format_partition(t) for t in verdict.witness]
        rows.append(row)
        lines.append(f"b3:{n} nice={str(verdict.nice).lower()}")
    return rows, any_failure, lines


def _factorizations(bound: int):
    """All weakly decreasing factor tuples (each factor >= 2) with product
    between 2 and ``bound``."""
    out = []

    def rec(prefix: tuple[int, ...], prod: int, cap: int):
        for f in range(2, cap + 1):
            if prod * f > bound:
                break
            out.append(prefix + (f,))
            rec(prefix + (f,), prod * f, f)

    rec((), 1, bound)
    out.sort(key=lambda t: (len(t), t))
    return out


def _sweep_products(args) -> tuple[list[dict], bool, list[str]]:
    rows, lines, any_failure = [], [], False
    for lengths in _factorizations(args.max_product):
        poset = build_poset(Product(lengths))
        if len(poset) > args.max_elements:
            continue
        verdict = is_nice(
            poset, max_elements=args.max_elements, node_budget=args.node_budget
        )
        any_failure = any_failure or not verdict.nice
        dsl = poset.spec.dsl()
        rows.append({"poset": dsl, "nice": verdict.nice})
        lines.append(f"{dsl} nice={str(verdict.nice).lower()}")
    return rows, any_failure, lines


def _cmd_sweep(args) -> int:
    started = time.perf_counter()
    if args.family == "two_chain_negativity":
        rows, flagged, lines = _sweep_two_chain(args)
        bad_exit = EXIT_NEGATIVE
    elif args.family == "b3_niceness":
        rows, flagged, lines = _sweep_b3(args)
        bad_exit = EXIT_NOT_NICE
    else:
        rows, flagged, lines = _sweep_products(args)
        bad_exit = EXIT_NOT_NICE
    if not args.json:
        for line in lines:
            print(line)
    request = {
        "family": args.family,
        "m_min": args.m_min,
        "m_max": args.m_max,
        "j": args.j,
        "a": args.a,
        "b": args.b,
        "n_min": args.n_min,
        "n_max": args.n_max,
        "max_product": args.max_product,
        "max_elements": args.max_elements,
        "node_budget": args.node_budget,
    }
    _emit(args, "sweep", request, {"rows": rows}, args.family, started)
    return bad_exit if flagged else EXIT_OK


def _criteria(text: str | None) -> list[int] | None:
    """The --criteria selection; None (all criteria) when absent."""
    if not text:
        return None
    try:
        numbers = [int(x) for x in text.split(",")]
    except ValueError:
        raise UsageError(f"--criteria takes comma-separated numbers, got {text!r}") from None
    unknown = sorted(set(numbers) - {num for num, *_ in verification.CRITERIA})
    if unknown:
        raise UsageError(f"no criterion numbered {', '.join(map(str, unknown))}")
    return numbers


def _cmd_verify(args) -> int:
    started = time.perf_counter()
    results = verification.run_all(_criteria(args.criteria))
    rows = [
        {
            "number": r.number,
            "name": r.name,
            "ok": r.ok,
            "within_limit": r.within_limit,
            "elapsed_s": round(r.elapsed, 3),
            "limit_s": r.limit,
            "detail": r.detail,
        }
        for r in results
    ]
    all_ok = all(r.ok and r.within_limit for r in results)
    if not args.json:
        for r in results:
            print(r.line())
        print(f"{'all criteria pass' if all_ok else 'FAILURES PRESENT'} "
              f"({sum(r.ok and r.within_limit for r in results)}/{len(results)})")
    _emit(args, "verify", {"criteria": args.criteria}, {"results": rows, "all_ok": all_ok},
          "acceptance_suite", started)
    return EXIT_OK if all_ok else EXIT_DOMAIN


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.  ``parse_args`` fills a
    fresh namespace on every call, so one parser serves every ``main``;
    callers must not add arguments to it."""
    parser = argparse.ArgumentParser(
        prog="chromaposet",
        description="Chromatic symmetric functions of poset incomparability graphs: "
        "exact Schur/monomial coefficients, chain partitions, and niceness checks.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="emit a JSON envelope")

    p = sub.add_parser("poset", help="build a poset from its DSL and describe it")
    p.add_argument("--poset", required=True, help="poset DSL, e.g. prod:8x3 or sum:1+b3:2+2")
    p.add_argument("--lattice", action="store_true",
                   help="also check the distributive-lattice laws")
    common(p)
    p.set_defaults(fn=_cmd_poset)

    p = sub.add_parser("tabloid", help="enumerate special rim hook tabloids of a shape")
    p.add_argument("--shape", required=True, help='partition, e.g. "10,8,2,2,2"')
    p.add_argument("--content", default=None, help="keep only tabloids with this content")
    p.add_argument("--content-prefix", default=None,
                   help="keep only tabloids whose content starts with this prefix")
    common(p)
    p.set_defaults(fn=_cmd_tabloid)

    p = sub.add_parser("scp", help="count semi-ordered chain partitions of a type")
    p.add_argument("--poset", required=True)
    p.add_argument("--type", required=True, help='partition, e.g. "2,1,1"')
    p.add_argument("--method", choices=("auto", "brute", "closed"), default="auto")
    common(p)
    p.set_defaults(fn=_cmd_scp)

    p = sub.add_parser("schur", help="full Schur expansion (exit 3 if any coefficient < 0)")
    p.add_argument("--poset", required=True)
    p.add_argument("--max-elements", type=int, default=12)
    common(p)
    p.set_defaults(fn=_cmd_schur)

    p = sub.add_parser("schur-coeff", help="one Schur coefficient (exit 3 if negative)")
    p.add_argument("--poset", required=True)
    p.add_argument("--shape", required=True)
    p.add_argument("--method", choices=("auto", "tabloid_brute", "tabloid_closed"),
                   default="auto")
    common(p)
    p.set_defaults(fn=_cmd_schur_coeff)

    p = sub.add_parser("nice", help="decide the nice property (exit 4 if not nice)")
    p.add_argument("--poset", required=True)
    p.add_argument("--witness", action="store_true", help="include the witness certificate")
    p.add_argument("--all-types", action="store_true", help="list all achievable types")
    p.add_argument("--max-elements", type=int, default=20)
    p.add_argument("--node-budget", type=int, default=None)
    common(p)
    p.set_defaults(fn=_cmd_nice)

    p = sub.add_parser("chain-partition",
                       help="find a chain partition of a type (exit 4 if none exists)")
    p.add_argument("--poset", required=True)
    p.add_argument("--type", required=True)
    p.add_argument("--node-budget", type=int, default=None)
    common(p)
    p.set_defaults(fn=_cmd_chain_partition)

    p = sub.add_parser("theorem41",
                       help="closed-form coefficient of the distinguished shape in "
                            "the (n+k) x n product (exit 3 if negative)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    common(p)
    p.set_defaults(fn=_cmd_theorem41)

    p = sub.add_parser("sweep", help="run a family of sign or niceness checks")
    p.add_argument("--family", required=True,
                   choices=("two_chain_negativity", "b3_niceness", "product_niceness"))
    p.add_argument("--m-min", type=int, default=8)
    p.add_argument("--m-max", type=int, default=12)
    p.add_argument("--j", type=int, default=4, help="shape family (m+1, m-2j, 2^a, 1^b)")
    p.add_argument("--a", type=int, default=3)
    p.add_argument("--b", type=int, default=1)
    p.add_argument("--n-min", type=int, default=1)
    p.add_argument("--n-max", type=int, default=4)
    p.add_argument("--max-product", type=int, default=12)
    p.add_argument("--max-elements", type=int, default=20)
    p.add_argument("--node-budget", type=int, default=None)
    common(p)
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("verify", help="run the reproduction suite")
    p.add_argument("--criteria", default=None, help='subset, e.g. "1,2,5"')
    common(p)
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout (say, `| head`).  Point stdout at devnull
        # so that the flush at interpreter exit does not fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_DOMAIN
    except (DslParseError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
