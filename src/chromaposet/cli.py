"""Command-line front end.

Every subcommand reads flags, calls into the library, and returns a
``Reply``; ``main`` prints either its text lines or a JSON envelope
{command, request, result, method, wall_time_ms, version}, whose request
holds every flag of the subcommand, defaults included.  Coefficients and
counts are serialized as decimal strings: they routinely exceed double
precision, and JSON numbers would be silently rounded by most consumers.

Exit codes: 0 success, 1 domain error, 2 parse error (bad flags, bad DSL,
bad partition text, bad values of --criteria, a negative budget or limit,
a sweep parameter out of range, another sweep family's flag, a sweep that
selects nothing), 3 a requested Schur coefficient is negative, 4 a niceness
query answered "no".
A reader that closes stdout early (say, ``| head``), a search that
recurses past the interpreter's stack limit, and one that runs out of
memory end the command with exit 1 and no traceback.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from typing import Callable, NamedTuple

from . import __version__
from .errors import DomainError, DslParseError
from .partitions import format_partition, parse_partition, sorted_partition
from .posets import (
    B3,
    EXPANSION_LIMIT,
    LATTICE_LIMIT,
    MAX_ELEMENTS,
    NICENESS_LIMIT,
    Product,
    build_poset,
    check_limit,
    check_size,
    iter_bits,
    parse_poset_spec,
    verify_distributive_lattice,
)

# The modules behind the searches (counting, nice, rimhooks, schur,
# verification), and json, are imported where they are used, so a command
# loads only what it runs.

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_PARSE = 2
EXIT_NEGATIVE = 3
EXIT_NOT_NICE = 4


class UsageError(ValueError):
    """A flag value that argparse does not check; exits 2."""


class Reply(NamedTuple):
    """A subcommand's answer: the envelope's ``result`` and ``method``, the
    text-mode ``lines``, and the exit ``code``."""

    result: dict
    method: str
    lines: list[str]
    code: int


def _decimal(value: int) -> str:
    """``str(value)`` at any length; parsing keeps CPython's 4,300-digit limit."""
    try:
        return str(value)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return str(value)
        finally:
            sys.set_int_max_str_digits(limit)


def _cmd_poset(args) -> Reply:
    spec = parse_poset_spec(args.poset)
    size = check_size(spec)
    if args.lattice:
        check_limit(size, LATTICE_LIMIT, "lattice-check")
    poset = build_poset(spec)
    lattice = verify_distributive_lattice(poset) if args.lattice else None
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
        "incomparable_pairs": sum((poset.full_mask & ~c).bit_count() for c in poset.comp) // 2,
    }
    lines = [
        f"poset {result['dsl']}: {result['size']} elements",
        f"  width {result['width']}, longest chain {result['longest_chain']}, "
        f"incomparable pairs {result['incomparable_pairs']}",
    ]
    if args.lattice:
        result["distributive_lattice"] = lattice
        lines.append(f"  distributive lattice: {result['distributive_lattice']}")
    lines += [f"  {a} < {b}" for a, b in covers]
    return Reply(result, "construction", lines, EXIT_OK)


def _cmd_tabloid(args) -> Reply:
    from .rimhooks import enumerate_srht, render_tabloid

    shape = parse_partition(args.shape)
    content = parse_partition(args.content) if args.content is not None else None
    prefix = parse_partition(args.content_prefix) if args.content_prefix is not None else None
    if content is not None and prefix is not None:
        raise UsageError("give at most one of --content and --content-prefix")
    if content is not None and sum(content) != sum(shape):
        raise DomainError(f"content {content} does not fill shape {shape}")
    # A shape's cells are a poset's elements in every Schur sum.
    if sum(shape) > MAX_ELEMENTS:
        raise DomainError(f"shape has more than {MAX_ELEMENTS} cells")
    family = enumerate_srht(shape, content or prefix or ())
    tabloids, lines = [], [
        f"{len(family)} special rim hook tabloids of shape {format_partition(shape)}"
    ]
    for t in family:
        tabloids.append(
            {
                "hooks": [[list(cell) for cell in hook] for hook in t.hooks],
                "height": t.height,
                "sign": t.sign,
                "content": format_partition(t.content),
            }
        )
        lines += [
            render_tabloid(t),
            f"content {format_partition(t.content)}  height {t.height}  sign {t.sign:+d}",
            "",
        ]
    result = {"shape": format_partition(shape), "count": len(family), "tabloids": tabloids}
    return Reply(result, "enumeration", lines, EXIT_OK)


def _cmd_scp(args) -> Reply:
    from .counting import ChainPartitionCounter, closed_route, filling_partition, scp_closed_form

    spec = parse_poset_spec(args.poset)
    size = check_size(spec)
    type_ = filling_partition(parse_partition(args.type), size)
    poset = build_poset(spec)
    sides = closed_route(poset, type_, args.method)
    if sides is None:
        counter = ChainPartitionCounter(poset, args.node_budget)
        count, method, nodes = counter.count(type_), "brute", counter.nodes
    else:
        count, method, nodes = scp_closed_form(*sides, type_), "closed", 0
    result = {
        "poset": poset.spec.dsl(),
        "type": format_partition(type_),
        "count": _decimal(count),
        "nodes": nodes,
    }
    return Reply(result, method, [f"{result['count']} ({method})"], EXIT_OK)


def _cmd_schur(args) -> Reply:
    from .schur import schur_expansion

    spec = parse_poset_spec(args.poset)
    size = check_size(spec)
    check_limit(size, args.max_elements, "expansion")
    poset = build_poset(spec)
    coeffs = schur_expansion(poset, max_elements=args.max_elements)
    ordered = sorted(coeffs.items(), reverse=True)
    items = [(format_partition(lam), _decimal(c)) for lam, c in ordered]
    result = {"poset": poset.spec.dsl(), "degree": len(poset), "coeffs": dict(items)}
    lines = [f"s[{lam}] {c}" for lam, c in items]
    negative = any(c < 0 for c in coeffs.values())
    return Reply(result, "tabloid_sum", lines, EXIT_NEGATIVE if negative else EXIT_OK)


def _cmd_schur_coeff(args) -> Reply:
    from .counting import closed_route, filling_partition
    from .schur import schur_coefficient

    spec = parse_poset_spec(args.poset)
    size = check_size(spec)
    shape = filling_partition(parse_partition(args.shape), size)
    poset = build_poset(spec)
    sides = closed_route(poset, shape, args.method.removeprefix("tabloid_"))
    method = "tabloid_brute" if sides is None else "tabloid_closed"
    value = schur_coefficient(poset, shape, method=method, node_budget=args.node_budget)
    result = {
        "poset": poset.spec.dsl(),
        "shape": format_partition(shape),
        "coefficient": _decimal(value),
    }
    return Reply(result, method, [result["coefficient"]], EXIT_NEGATIVE if value < 0 else EXIT_OK)


def _cmd_nice(args) -> Reply:
    from .nice import is_nice

    spec = parse_poset_spec(args.poset)
    size = check_size(spec)
    check_limit(size, args.max_elements, "niceness")
    poset = build_poset(spec)
    verdict = is_nice(poset, max_elements=args.max_elements, node_budget=args.node_budget)
    result: dict = {"poset": poset.spec.dsl(), "nice": verdict.nice, "nodes": verdict.nodes}
    lines = [f"nice: {str(verdict.nice).lower()}"]
    if verdict.witness is not None and args.witness:
        achieved, unachieved = verdict.witness
        result["witness"] = {
            "achieved": format_partition(achieved),
            "unachieved": format_partition(unachieved),
            "certificate": verdict.witness_certificate.to_jsonable(),
        }
        lines.append(
            f"achieved {format_partition(achieved)} but not {format_partition(unachieved)}"
        )
        lines += ["  chain: " + " < ".join(block) for block in verdict.witness_certificate.blocks]
    if args.all_types:
        result["achieved_types"] = [format_partition(t) for t in verdict.achieved_types]
        lines.append("achieved types: " + "; ".join(result["achieved_types"]))
    return Reply(result, "pruned_search", lines, EXIT_OK if verdict.nice else EXIT_NOT_NICE)


def _cmd_chain_partition(args) -> Reply:
    from .counting import ChainPartitionCounter, filling_partition
    from .nice import _certificate_from_masks

    spec = parse_poset_spec(args.poset)
    size = check_size(spec)
    type_ = filling_partition(parse_partition(args.type), size)
    poset = build_poset(spec)
    counter = ChainPartitionCounter(poset, args.node_budget)
    masks = counter.find(type_)
    result: dict = {
        "poset": poset.spec.dsl(),
        "type": format_partition(type_),
        "exists": masks is not None,
        "nodes": counter.nodes,
    }
    if masks is None:
        return Reply(result, "pruned_search", ["no chain partition of this type"], EXIT_NOT_NICE)
    cert = _certificate_from_masks(poset, masks, type_)
    result["certificate"] = cert.to_jsonable()
    lines = ["chain: " + " < ".join(block) for block in cert.blocks]
    return Reply(result, "pruned_search", lines, EXIT_OK)


def _cmd_theorem41(args) -> Reply:
    from .schur import theorem41_coefficient

    value = theorem41_coefficient(args.n, args.k)
    result = {"n": args.n, "k": args.k, "coefficient": _decimal(value)}
    return Reply(result, "closed_form", [result["coefficient"]],
                 EXIT_NEGATIVE if value < 0 else EXIT_OK)


def _sweep_two_chain(args) -> Reply:
    from .schur import schur_coefficient

    for dest in ("j", "a"):
        _require_at_least(args, dest, 0)
    # The shape ends in b = 2j - 2a - 1 ones.
    _require_at_least(args, "j", args.a + 1, f"a + 1 = {args.a + 1}")
    # The shape's second part is m - 2j, and the closed route on the m x 2
    # product needs m >= 2.
    _require_at_least(args, "m_min", max(2, 2 * args.j), f"max(2, 2j) = {max(2, 2 * args.j)}")
    b = 2 * args.j - 2 * args.a - 1
    if args.m_max >= args.m_min:  # refuse an oversized last case up front
        check_size(Product((args.m_max, 2)))
    rows, lines, any_negative = [], [], False
    for m in range(args.m_min, args.m_max + 1):
        shape = sorted_partition((m + 1, m - 2 * args.j) + (2,) * args.a + (1,) * b)
        poset = build_poset(Product((m, 2)))
        value = schur_coefficient(poset, shape, method="tabloid_closed")
        any_negative = any_negative or value < 0
        row = {"m": m, "shape": format_partition(shape), "coefficient": _decimal(value)}
        rows.append(row)
        lines.append(f"m={m} shape={row['shape']} coefficient={row['coefficient']}")
    return Reply({"rows": rows}, args.family, lines, EXIT_NEGATIVE if any_negative else EXIT_OK)


def _sweep_niceness(args, cases) -> Reply:
    """Decide each (spec, row) case in turn; its row gains ``nice``, and the
    witness when the poset is not nice."""
    from .nice import is_nice

    rows, lines, any_failure = [], [], False
    for spec, row in cases:
        verdict = is_nice(
            build_poset(spec), max_elements=args.max_elements, node_budget=args.node_budget
        )
        any_failure = any_failure or not verdict.nice
        row["nice"] = verdict.nice
        if verdict.witness is not None:
            row["witness"] = [format_partition(t) for t in verdict.witness]
        rows.append(row)
        lines.append(f"{spec.dsl()} nice={str(verdict.nice).lower()}")
    return Reply({"rows": rows}, args.family, lines, EXIT_NOT_NICE if any_failure else EXIT_OK)


def _sweep_b3(args) -> Reply:
    _require_at_least(args, "n_min", 1)
    return _sweep_niceness(args, ((B3(n), {"n": n}) for n in range(args.n_min, args.n_max + 1)))


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


def _sweep_products(args) -> Reply:
    specs = map(Product, _factorizations(min(args.max_product, args.max_elements)))
    return _sweep_niceness(args, ((spec, {"poset": spec.dsl()}) for spec in specs))


# Each family's sweep and the flags it reads.
_SWEEPS = {
    "two_chain_negativity": (_sweep_two_chain, ("m_min", "m_max", "j", "a")),
    "b3_niceness": (_sweep_b3, ("n_min", "n_max", "max_elements", "node_budget")),
    "product_niceness": (_sweep_products, ("max_product", "max_elements", "node_budget")),
}


def _cmd_sweep(args) -> Reply:
    sweep, reads = _SWEEPS[args.family]
    defaults = _flags("sweep").defaults
    # Another family's flag would be ignored, so it must keep its default.
    for _, flags in _SWEEPS.values():
        for dest in flags:
            if dest not in reads and getattr(args, dest) != defaults[dest]:
                raise UsageError(f"--{dest.replace('_', '-')} is not a flag of the "
                                 f"{args.family} sweep")
    reply = sweep(args)
    if not reply.result["rows"]:
        # A sweep that checks nothing would pass vacuously.
        raise UsageError(f"the {args.family} sweep selects no case under these flags")
    return reply


def _criteria(text: str | None) -> list[int] | None:
    """The --criteria selection; None (all criteria) when absent."""
    from . import verification

    if text is None:
        return None
    pieces = text.split(",")
    # ASCII digits only, as in partition text: int() also takes other
    # scripts' digits, signs, spaces and underscores.
    if not all(x.isascii() and x.isdigit() for x in pieces):
        raise UsageError(f"--criteria takes comma-separated numbers, got {text!r}")
    try:
        numbers = [int(x) for x in pieces]
    except ValueError:  # over the interpreter's limit on digits
        raise UsageError("--criteria numbers are too long") from None
    unknown = sorted(set(numbers) - {num for num, *_ in verification.CRITERIA})
    if unknown:
        raise UsageError(f"no criterion numbered {', '.join(map(str, unknown))}")
    return numbers


def _cmd_verify(args) -> Reply:
    from . import verification

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
    lines = [r.line() for r in results]
    lines.append(f"{'all criteria pass' if all_ok else 'FAILURES PRESENT'} "
                 f"({sum(r.ok and r.within_limit for r in results)}/{len(results)})")
    return Reply({"results": rows, "all_ok": all_ok}, "acceptance_suite", lines,
                 EXIT_OK if all_ok else EXIT_DOMAIN)


def _integer(text: str) -> int:
    """An integer flag's value: an optional "-", then ASCII digits only, as
    in partition text (``int`` also takes other scripts' digits, "+",
    spaces and underscores).  A number past CPython's digit limit gets its
    length in the message, not a copy of every digit."""
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"integer too long: {len(digits)} digits") from None


def _require_at_least(args, dest: str, least: int, bound: str | None = None) -> None:
    """argparse only checks that integer flags are integers; a value below
    ``least`` (spelled ``bound`` in the message, when given) exits 2."""
    value = getattr(args, dest)
    if value is not None and value < least:
        raise UsageError(f"--{dest.replace('_', '-')} must be >= {bound or least}, got {value}")


def _check_counts(args) -> None:
    """Budgets and limits count nodes or elements."""
    for dest in ("max_elements", "node_budget"):
        if hasattr(args, dest):
            _require_at_least(args, dest, 0)


_JSON = ("--json", {"action": "store_true", "help": "emit a JSON envelope"})
_POSET = ("--poset", {"required": True})
_NODE_BUDGET = ("--node-budget", {"type": _integer, "default": None})
_CLOSED_BUDGET = ("--node-budget", {
    "type": _integer, "default": None,
    "help": "search at most this many nodes (the closed form ignores it)",
})


class _Command(NamedTuple):
    """A subcommand: its help line in the top-level listing, its flags as
    ``(option, add_argument keywords)`` pairs in help order (``--json``,
    which every subcommand takes, aside), and its handler."""

    help: str
    flags: tuple[tuple[str, dict], ...]
    run: Callable[[argparse.Namespace], Reply]


_COMMANDS = {
    "poset": _Command("build a poset from its DSL and describe it", (
        ("--poset", {"required": True, "help": "poset DSL, e.g. prod:8x3 or sum:1+b3:2+2"}),
        ("--lattice", {"action": "store_true",
                       "help": "also check the distributive-lattice laws"}),
    ), _cmd_poset),
    "tabloid": _Command("enumerate special rim hook tabloids of a shape", (
        ("--shape", {"required": True, "help": 'partition, e.g. "10,8,2,2,2"'}),
        ("--content", {"default": None, "help": "keep only tabloids with this content"}),
        ("--content-prefix", {"default": None,
                              "help": "keep only tabloids whose content starts with this prefix"}),
    ), _cmd_tabloid),
    "scp": _Command("count semi-ordered chain partitions of a type", (
        _POSET,
        ("--type", {"required": True, "help": 'partition, e.g. "2,1,1"'}),
        ("--method", {"choices": ("auto", "brute", "closed"), "default": "auto"}),
        _CLOSED_BUDGET,
    ), _cmd_scp),
    "schur": _Command("full Schur expansion (exit 3 if any coefficient < 0)", (
        _POSET,
        ("--max-elements", {"type": _integer, "default": EXPANSION_LIMIT}),
    ), _cmd_schur),
    "schur-coeff": _Command("one Schur coefficient (exit 3 if negative)", (
        _POSET,
        ("--shape", {"required": True}),
        ("--method", {"choices": ("auto", "tabloid_brute", "tabloid_closed"), "default": "auto"}),
        _CLOSED_BUDGET,
    ), _cmd_schur_coeff),
    "nice": _Command("decide the nice property (exit 4 if not nice)", (
        _POSET,
        ("--witness", {"action": "store_true", "help": "include the witness certificate"}),
        ("--all-types", {"action": "store_true", "help": "list all achievable types"}),
        ("--max-elements", {"type": _integer, "default": NICENESS_LIMIT}),
        _NODE_BUDGET,
    ), _cmd_nice),
    "chain-partition": _Command("find a chain partition of a type (exit 4 if none exists)", (
        _POSET,
        ("--type", {"required": True}),
        _NODE_BUDGET,
    ), _cmd_chain_partition),
    "theorem41": _Command("closed-form coefficient of the distinguished shape in "
                          "the (n+k) x n product (exit 3 if negative)", (
        ("--n", {"type": _integer, "required": True}),
        ("--k", {"type": _integer, "required": True}),
    ), _cmd_theorem41),
    "sweep": _Command("run a family of sign or niceness checks", (
        ("--family", {"required": True, "choices": tuple(_SWEEPS)}),
        ("--m-min", {"type": _integer, "default": 8}),
        ("--m-max", {"type": _integer, "default": 12}),
        ("--j", {"type": _integer, "default": 4,
                 "help": "shape family (m+1, m-2j, 2^a, 1^b), b = 2j-2a-1"}),
        ("--a", {"type": _integer, "default": 3}),
        ("--n-min", {"type": _integer, "default": 1}),
        ("--n-max", {"type": _integer, "default": 4}),
        ("--max-product", {"type": _integer, "default": 12}),
        ("--max-elements", {"type": _integer, "default": NICENESS_LIMIT}),
        _NODE_BUDGET,
    ), _cmd_sweep),
    "verify": _Command("run the reproduction suite", (
        ("--criteria", {"default": None, "help": 'subset, e.g. "1,2,5"'}),
    ), _cmd_verify),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The whole argument parser, built once per process.  ``parse_args``
    fills a fresh namespace on every call, so one parser serves every
    ``main``; callers must not add arguments to it."""
    parser = argparse.ArgumentParser(
        prog="chromaposet",
        description="Chromatic symmetric functions of poset incomparability graphs: "
        "exact Schur/monomial coefficients, chain partitions, and niceness checks.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for option, keywords in (*command.flags, _JSON):
            p.add_argument(option, **keywords)
    return parser


class _Flags(NamedTuple):
    """One subcommand's flags as ``_plain_flags`` reads them: by option,
    its dest, the function that converts its value (None for a switch) and
    its choices (None for any); and by dest, the default of every flag that
    is not required."""

    options: dict[str, tuple[str, Callable[[str], object] | None, tuple | None]]
    defaults: dict[str, object]


@functools.cache
def _flags(name: str) -> _Flags:
    """``_COMMANDS[name]``'s flags, read once per process."""
    options, defaults = {}, {}
    for option, keywords in (*_COMMANDS[name].flags, _JSON):
        dest = option[2:].replace("-", "_")
        switch = keywords.get("action") == "store_true"
        options[option] = (dest, None if switch else keywords.get("type", str),
                           keywords.get("choices"))
        if not keywords.get("required"):
            defaults[dest] = keywords.get("default", False if switch else None)
    return _Flags(options, defaults)


def _plain_flags(name: str, words: list[str]) -> argparse.Namespace | None:
    """What subcommand ``name``'s parser makes of ``words`` when they are
    only its flags spelled in full, each valued flag followed by a word
    that does not start with "-", every value valid and every required flag
    given; None otherwise.  This reads the usual call without argparse's
    matching, which is most of the cost of parsing; argparse answers
    everything else (help, abbreviations, "--flag=value", values that look
    like flags, errors)."""
    options, defaults = _flags(name)
    values = dict(defaults)
    rest = iter(words)
    for word in rest:
        flag = options.get(word)
        if flag is None:
            return None
        dest, convert, choices = flag
        if convert is None:
            value = True
        else:
            value = next(rest, "-")
            if value.startswith("-"):
                return None
            try:
                value = convert(value)
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
            if choices is not None and value not in choices:
                return None
        values[dest] = value
    # Each flag has its own dest, and only a required one has no default.
    if len(values) < len(options):
        return None
    return argparse.Namespace(**values)


def _parse(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, with the usual call (a
    subcommand and its plain flags) read without building the whole tree."""
    if argv and argv[0] in _COMMANDS:
        args = _plain_flags(argv[0], argv[1:])
        if args is not None:
            args.command = argv[0]
            return args
    return build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    started = time.perf_counter()
    try:
        _check_counts(args)
        reply = _COMMANDS[args.command].run(args)
        if args.json:
            envelope = {
                "command": args.command,
                "request": {
                    k: v for k, v in vars(args).items() if k not in ("command", "json")
                },
                "result": reply.result,
                "method": reply.method,
                "wall_time_ms": round((time.perf_counter() - started) * 1000.0, 3),
                "version": __version__,
            }
            import json

            print(json.dumps(envelope, sort_keys=True, indent=2))
        else:
            for line in reply.lines:
                print(line)
        sys.stdout.flush()
        return reply.code
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
    except RecursionError:
        # The searches recurse once per element of a block; a chain of
        # about a thousand elements outgrows the interpreter's stack.
        limit = sys.getrecursionlimit()
        print(
            f"error: {args.command} recursed past Python's limit of {limit} frames on this input",
            file=sys.stderr,
        )
        return EXIT_DOMAIN
    except MemoryError:
        # A search's memo or a sum's table outgrew the memory there is.  The
        # error holds the frames that hold the memo, so it is reported only
        # once this block has let them go.
        pass
    print(f"error: {args.command} ran out of memory on this input", file=sys.stderr)
    return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
