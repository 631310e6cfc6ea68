"""Spans and counters at the public entry points of each chromaposet layer.

The tracer wraps functions and methods from outside the package: it swaps
each target for a timing wrapper in every ``chromaposet`` module namespace
that holds it (modules import each other's names directly) or on its class,
and puts the originals back on ``uninstall``.  The program is not changed.

A span records (query id, layer, start, end, parent span).  A layer's self
time is its span minus the spans and bound calls nested in it, so by
construction the self times of all layers add up to the ``cli.main``
spans.  The pruning bounds ``Poset.width`` and ``Poset.max_chain_size`` run
once per search node; they are kept as a call counter and a time total,
not as spans.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from functools import cache
from time import perf_counter

from chromaposet import cli, counting, nice, posets, rimhooks, schur


class Tracer:
    def __init__(self):
        self.query = -1
        self.spans: list[list] = []  # [query, layer, start, end, parent index]
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        # Bound time by the layer that called the bound.
        self.bound_under: defaultdict[str, float] = defaultdict(float)
        self.shapes: list[tuple[int, ...]] = []
        self._stack: list[list] = []  # [layer, start, child time, span index]
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        span, patch, replace = self._span, self._patch, self._replace
        replace(cli.main, span("cli", cli.main))
        replace(posets.build_poset, span("posets.build", posets.build_poset))
        replace(rimhooks.enumerate_srht,
                span("rimhooks.enumerate", rimhooks.enumerate_srht, self._after_enumerate))
        replace(counting.scp_closed_form, span("counting.closed", counting.scp_closed_form))
        replace(schur.schur_coefficient, span("schur", schur.schur_coefficient))
        replace(schur.schur_expansion, span("schur", schur.schur_expansion))
        replace(nice.is_nice, span("nice", nice.is_nice, self._after_is_nice))
        for name in ("width", "max_chain_size"):
            patch(posets.Poset, name, self._bound(getattr(posets.Poset, name)))
        counter, searcher = counting.ChainPartitionCounter, nice.ChainPartitionSearcher
        patch(counter, "count", span("counting.count", self._counted(counter.count)))
        patch(searcher, "find", span("nice.find", searcher.find, self._after_find))
        certificate = nice.ChainPartitionCertificate
        patch(certificate, "validate", span("nice.validate", certificate.validate))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def _replace(self, original, wrapper) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "chromaposet" and not mod_name.startswith("chromaposet."):
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, name, original))
                    setattr(module, name, wrapper)

    def _patch(self, cls, name: str, wrapper) -> None:
        self._undo.append((cls, name, getattr(cls, name)))
        setattr(cls, name, wrapper)

    # -- wrappers ---------------------------------------------------------

    def _span(self, layer: str, fn, after=None):
        stack, spans = self._stack, self.spans

        def wrapper(*args, **kwargs):
            parent = stack[-1][3] if stack else None
            index = len(spans)
            spans.append([self.query, layer, 0.0, 0.0, parent])
            frame = [layer, perf_counter(), 0.0, index]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result, args)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[1]
                spans[index][2:4] = frame[1], end
                self.calls[layer] += 1
                self.self_s[layer] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration

        return wrapper

    def _bound(self, fn):
        stack = self._stack

        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                self.calls["posets.bound"] += 1
                self.self_s["posets.bound"] += duration
                if stack:
                    stack[-1][2] += duration
                    self.bound_under[stack[-1][0]] += duration

        return wrapper

    def _counted(self, count):
        """ChainPartitionCounter.count with a SearchStats passed through, so
        the search reports its nodes."""

        def wrapper(counter, type_, stats=None):
            stats = counting.SearchStats() if stats is None else stats
            before = stats.nodes
            result = count(counter, type_, stats=stats)
            self.counts["counting.nodes"] += stats.nodes - before
            return result

        return wrapper

    def _after_enumerate(self, family, args) -> None:
        self.counts["rimhooks.tabloids_kept"] += len(family)
        self.shapes.append(family.shape)

    def _after_find(self, blocks, args) -> None:
        self.counts["nice.found"] += blocks is not None

    def _after_is_nice(self, verdict, args) -> None:
        self.counts["nice.nodes"] += verdict.nodes

    # -- results ----------------------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit).  Call after
        ``uninstall``."""
        if self._undo:
            raise RuntimeError("layer_metrics needs the tracer uninstalled")
        kept = self.counts["rimhooks.tabloids_kept"]
        every = sum(tabloid_count(shape) for shape in self.shapes)
        finds = self.calls["nice.find"]
        return {
            "cli.self_s": (self.self_s["cli"], "s"),
            "posets.build_s": (self.self_s["posets.build"], "s"),
            "posets.build_calls": (self.calls["posets.build"], "count"),
            "posets.bound_s": (self.self_s["posets.bound"], "s"),
            "posets.bound_calls": (self.calls["posets.bound"], "count"),
            "rimhooks.enumerate_s": (self.self_s["rimhooks.enumerate"], "s"),
            "rimhooks.enumerate_calls": (self.calls["rimhooks.enumerate"], "count"),
            "rimhooks.tabloids_kept": (kept, "count"),
            "rimhooks.kept_ratio": (kept / every if every else 0.0, "ratio"),
            "counting.count_s": (self.self_s["counting.count"], "s"),
            "counting.count_calls": (self.calls["counting.count"], "count"),
            "counting.nodes": (self.counts["counting.nodes"], "count"),
            "counting.closed_s": (self.self_s["counting.closed"], "s"),
            "counting.closed_calls": (self.calls["counting.closed"], "count"),
            "schur.self_s": (self.self_s["schur"], "s"),
            "nice.find_s": (self.self_s["nice.find"], "s"),
            "nice.find_calls": (finds, "count"),
            "nice.found_ratio": (self.counts["nice.found"] / finds if finds else 0.0, "ratio"),
            "nice.nodes": (self.counts["nice.nodes"], "count"),
            "nice.validate_s": (self.self_s["nice.validate"], "s"),
            "nice.self_s": (self.self_s["nice"], "s"),
        }


@cache
def tabloid_count(shape: tuple[int, ...]) -> int:
    """Number of special rim hook tabloids of a shape, all contents: the
    denominator of ``rimhooks.kept_ratio``.  Called after ``uninstall``, so
    building the family records no span."""
    return len(rimhooks.enumerate_srht(shape))
