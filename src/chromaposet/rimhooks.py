"""Special rim hook tabloids and signed inverse Kostka coefficients.

A rim hook is an edgewise-connected set of cells of a Ferrers diagram
containing no 2x2 block; a special rim hook additionally touches the first
column.  A special rim hook tabloid tiles an entire shape with such hooks.
The signed count of tabloids of shape lambda and content mu (hook sizes,
sorted) is the (lambda, mu) entry of the inverse Kostka matrix, i.e. the
coefficient of s_lambda when m_mu is expanded in Schur functions.
``signed_contents`` computes those signed counts without building any
tabloid, and is what the Schur sums use (``_signed_tables`` for many shapes
at once, sharing their sub-shape tables); ``enumerate_srht`` builds the
tabloids themselves for display and for the checks.

Cells are (row, column) pairs, 1-based, with row 1 the longest row (English
notation).  A hook is the tuple of its cells, row by row with columns
ascending inside each row.  Hooks are stored bottom-up in peel order: the
first hook is the one through the bottom-left cell.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache

from .errors import DomainError
from .partitions import Partition, PartitionIds, as_partition, dominance_leq, sorted_partition

Hook = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class SpecialRimHookTabloid:
    shape: Partition
    hooks: tuple[Hook, ...]

    @property
    def content(self) -> Partition:
        return sorted_partition(len(h) for h in self.hooks)

    @property
    def height(self) -> int:
        """Rows each hook spans, minus one, summed."""
        return sum(len({r for r, _ in h}) - 1 for h in self.hooks)

    @property
    def sign(self) -> int:
        return -1 if self.height % 2 else 1

    def validate(self) -> None:
        """Re-check every defining invariant from the raw cell sets; shares
        nothing with the enumeration."""
        shape_cells = {
            (r, c)
            for r, length in enumerate(self.shape, start=1)
            for c in range(1, length + 1)
        }
        seen: set[tuple[int, int]] = set()
        for hook in self.hooks:
            cells = set(hook)
            if len(cells) < len(hook):
                raise DomainError("hook repeats a cell")
            if seen & cells:
                raise DomainError("hooks overlap")
            seen |= cells
            if not any(c == 1 for _, c in cells):
                raise DomainError("hook misses the first column")
            # Connectivity by flood fill.
            stack = [next(iter(cells))]
            reached = {stack[0]}
            while stack:
                r, c = stack.pop()
                for nxt in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                    if nxt in cells and nxt not in reached:
                        reached.add(nxt)
                        stack.append(nxt)
            if reached != cells:
                raise DomainError("hook is not connected")
            if any(
                (r + 1, c) in cells and (r, c + 1) in cells and (r + 1, c + 1) in cells
                for r, c in cells
            ):
                raise DomainError("hook contains a 2x2 block")
        if seen != shape_cells:
            raise DomainError("hooks do not tile the shape")
        # Peeling bottom-up must leave a Ferrers diagram at every step:
        # occupied rows are exactly 1..k, left-justified, weakly decreasing.
        remaining = set(shape_cells)
        for hook in self.hooks:
            remaining -= set(hook)
            rows = Counter(r for r, _ in remaining)
            if sorted(rows) != list(range(1, len(rows) + 1)):
                raise DomainError("peeling leaves a gap row")
            lengths = [rows[r] for r in sorted(rows)]
            if any(lengths[i] < lengths[i + 1] for i in range(len(lengths) - 1)):
                raise DomainError("peeling does not leave a Ferrers shape")
            if any((r, c) not in remaining for r in rows for c in range(1, rows[r] + 1)):
                raise DomainError("peeling leaves a ragged row")
        if not dominance_leq(self.shape, self.content):
            raise DomainError("shape does not precede content in dominance")


@dataclass(frozen=True)
class TabloidFamily:
    shape: Partition
    tabloids: tuple[SpecialRimHookTabloid, ...]

    def __len__(self) -> int:
        return len(self.tabloids)

    def __iter__(self):
        return iter(self.tabloids)


def enumerate_srht(shape, prefix=()) -> TabloidFamily:
    """The special rim hook tabloids of ``shape`` whose sorted content
    starts with ``prefix``: all of them by default, and those of exactly
    one content when the prefix fills the shape.  The prefix prunes the
    peel as in :func:`signed_contents`, so no tabloid outside the family is
    built.  Output is sorted by the sequence of hook sizes in peel order.
    """
    shape, prefix, floor = _peel_start(shape, prefix)
    found: list[SpecialRimHookTabloid] = []

    # The hook through the bottom-left cell is forced once its top row r is
    # chosen: it takes the whole bottom row and, climbing, the cells of row i
    # between the lengths of rows i+1 and i.  Its size mu_r + L - r is
    # strictly decreasing in r, so distinct choices give distinct hooks and
    # the recursion produces each tabloid exactly once.
    def peel(lengths: Partition, unmet: Partition, acc: list[Hook]):
        if not lengths:
            if not unmet:
                found.append(SpecialRimHookTabloid(shape, tuple(acc)))
            return
        bottom = len(lengths) - 1
        for top, _, rest, trimmed in _peel_steps(lengths, unmet, floor):
            hook = ((i + 1, c) for i in range(top, bottom + 1)
                    for c in range(1 if i == bottom else lengths[i + 1], lengths[i] + 1))
            acc.append(tuple(hook))
            peel(trimmed, rest, acc)
            acc.pop()

    peel(shape, prefix, [])
    found.sort(key=lambda t: tuple(len(h) for h in t.hooks))
    return TabloidFamily(shape, tuple(found))


def _peel_start(shape, prefix) -> tuple[Partition, Partition, int]:
    """Shape and prefix as partitions, and the ``floor`` of :func:`_peel_steps`:
    the last prefix part, or without a prefix the whole size, since no hook
    is larger and so none is pruned."""
    shape = as_partition(shape)
    prefix = as_partition(prefix)
    if sum(prefix) > sum(shape):
        raise DomainError(f"prefix {prefix} exceeds shape {shape}")
    return shape, prefix, prefix[-1] if prefix else sum(shape)


def _peel_steps(lengths: Partition, unmet: Partition, floor: int):
    """Each hook through the bottom-left cell of the shape ``lengths`` that
    a content prefix admits: (its top row, 0-based; its size; the prefix
    parts still unmet; the shape left).  A hook of a size still unmet uses
    up one such part, any other hook larger than ``floor``, the last prefix
    part, is pruned, and smaller hooks are free."""
    bottom = len(lengths) - 1
    for top in range(bottom + 1):
        size = lengths[top] + bottom - top
        if size in unmet:
            i = unmet.index(size)
            rest = unmet[:i] + unmet[i + 1 :]
        elif size > floor:
            continue
        else:
            rest = unmet
        yield top, size, rest, lengths[:top] + tuple(x - 1 for x in lengths[top + 1 :] if x > 1)


def signed_contents(shape, prefix=()) -> dict[Partition, int]:
    """{content: signed count of special rim hook tabloids of ``shape`` with
    that content} over the contents that start with ``prefix``; zero entries
    are dropped.  A prefix equal to a whole content keeps that content alone.

    The bottom-left peel of :func:`enumerate_srht`, summed instead of listed:
    no hook is built, and the table of each remaining sub-shape is memoized
    together with the prefix parts it still has to supply (``_peel_steps``).
    A sub-shape is pruned when its largest hook (first row plus height) is
    below the largest unmet part, its cells cannot cover the unmet parts,
    or no content it can still take dominates it (``_can_dominate``).
    This decodes :func:`_signed_tables` on one shape, which runs the same
    peel over many shapes with one memo and a cap on the largest part: a
    full Schur expansion builds one table, shared by its shapes, and peels
    no hook longer than the longest chain.
    """
    ids = PartitionIds()
    contents = next(_signed_tables((shape,), ids, prefix))[1]
    return {ids.partition(c): count for c, count in contents.items()}


def _signed_tables(shapes, ids: PartitionIds, prefix=(), cap=None):
    """Yield (shape, {id in ``ids``: signed count}) for each shape: the
    table of :func:`signed_contents`, each content named by its id, keeping
    only the contents whose parts are all at most ``cap`` (when given).

    One memo serves every shape, so the table of a sub-shape that several
    shapes peel down to is built once; it lives as long as the generator.
    The cap lowers the peel floor, so no hook longer than ``cap`` is
    peeled: those are exactly the tabloids of the contents dropped.  The
    memo holds the tables yielded, so the caller must not change them.
    """
    added, insert = ids.added, ids.insert
    memo: dict[tuple[Partition, Partition], dict[int, int]] = {}

    # A hook size goes into a content through ``added``; ``unmet`` is
    # descending, like the prefix.  The memo key leaves out the floor.
    # With a prefix, every shape's floor is min(last prefix part, cap);
    # without one it is min(size, cap), and a sub-shape has no hook longer
    # than the shape it was peeled from, so the floor prunes the same hooks
    # whichever shape reached it (``_can_dominate``, which also reads it,
    # runs only while parts are unmet).
    def table(lengths: Partition, unmet: Partition, floor: int) -> dict[int, int]:
        key = (lengths, unmet)
        if key in memo:
            return memo[key]
        out: dict[int, int] = {}
        if not lengths:
            if not unmet:
                out[0] = 1
        elif not unmet or (
            unmet[0] < lengths[0] + len(lengths)
            and sum(unmet) <= sum(lengths)
            and _can_dominate(lengths, unmet, floor)
        ):
            bottom = len(lengths) - 1
            for top, size, rest, trimmed in _peel_steps(lengths, unmet, floor):
                sign = -1 if (bottom - top) % 2 else 1
                into = added[size]
                for content, count in table(trimmed, rest, floor).items():
                    grown = into.get(content)
                    if grown is None:
                        grown = insert(content, size)
                    out[grown] = out.get(grown, 0) + sign * count
            out = {content: count for content, count in out.items() if count}
        memo[key] = out
        return out

    for shape in shapes:
        shape, unmet, floor = _peel_start(shape, prefix)
        if cap is not None:
            if unmet and unmet[0] > cap:
                yield shape, {}
                continue
            floor = min(floor, cap)
        yield shape, table(shape, unmet, floor)


def _can_dominate(lengths: Partition, unmet: Partition, floor: int) -> bool:
    """Whether a content made of the ``unmet`` parts and free hooks of at
    most ``floor`` cells can dominate the shape ``lengths``, as the content
    of every special rim hook tabloid of it does (Eğecioğlu and Remmel
    1990).  Every unmet part is at least ``floor``, so the j-th prefix sum
    of such a content is at most sum(unmet[:j]) + max(0, j - len(unmet))
    * floor."""
    reach = row = 0
    for j, length in enumerate(lengths):
        reach += unmet[j] if j < len(unmet) else floor
        row += length
        if reach < row:
            return False
    return True


def inverse_kostka(lam, mu) -> int:
    """Coefficient of s_lam in m_mu: the signed tabloid count of shape lam
    and content mu; zero unless lam precedes mu in dominance."""
    lam = as_partition(lam)
    mu = as_partition(mu)
    if not dominance_leq(lam, mu):
        return 0
    return signed_contents(lam, mu).get(mu, 0)


def kostka_number(lam, mu) -> int:
    """Count of semistandard tableaux of shape lam and content mu, built as a
    chain of horizontal-strip additions."""
    lam = as_partition(lam)
    mu = as_partition(mu)
    if sum(lam) != sum(mu):
        raise DomainError(f"{lam} and {mu} have different sizes")
    if sum(lam) == 0:
        return 1

    @cache
    def grow(cur: Partition, i: int) -> int:
        if i == len(mu):
            return 1 if cur == lam else 0
        return sum(grow(nxt, i + 1) for nxt in _strip_extensions(cur, mu[i], lam))

    return grow((), 0)


def _strip_extensions(cur: Partition, k: int, bound: Partition):
    """Partitions inside ``bound`` obtained from ``cur`` by adding a
    horizontal strip of k cells (at most one new cell per column)."""
    out: list[Partition] = []
    row_caps = []
    for j in range(len(bound)):
        base = cur[j] if j < len(cur) else 0
        cap = bound[j]
        if j:
            cap = min(cap, cur[j - 1] if j - 1 < len(cur) else 0)
        row_caps.append((base, cap))

    def rec(j: int, rem: int, acc: list[int]):
        if rem == 0:
            rest = [base for base, _ in row_caps[j:]]
            out.append(tuple(x for x in acc + rest if x))
            return
        if j == len(row_caps):
            return
        base, cap = row_caps[j]
        for v in range(base, min(cap, base + rem) + 1):
            rec(j + 1, rem - (v - base), acc + [v])

    rec(0, k, [])
    return out


def render_tabloid(tabloid: SpecialRimHookTabloid) -> str:
    """ASCII grid with cells labeled by hook index (bottom-up, 1-based)."""
    owner: dict[tuple[int, int], int] = {}
    for idx, hook in enumerate(tabloid.hooks, start=1):
        for cell in hook:
            owner[cell] = idx
    width = len(str(len(tabloid.hooks)))
    lines = []
    for row, length in enumerate(tabloid.shape, start=1):
        lines.append(" ".join(str(owner[row, c]).rjust(width) for c in range(1, length + 1)))
    return "\n".join(lines)
