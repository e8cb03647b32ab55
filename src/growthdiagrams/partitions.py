"""Integer partitions and Young-diagram primitives.

A partition is a plain tuple of weakly decreasing positive integers; ``()`` is
the empty partition.  Cells are addressed as ``(column, row)`` pairs, 1-indexed,
in French convention (row 1 is the bottom, and the longest, row).  Everything
here is a pure function on immutable values.
"""

from __future__ import annotations

from enum import Enum
from operator import ge
from typing import Iterable, Iterator, NamedTuple

Partition = tuple[int, ...]

EMPTY: Partition = ()


class Family(str, Enum):
    """The partition families appearing in the five Littlewood identities."""

    ALL = "all"
    EVEN_ROWS = "even-rows"
    EVEN_COLS = "even-cols"
    ASYM_PLUS = "asym+1"
    ASYM_MINUS = "asym-1"


class FrobeniusCoords(NamedTuple):
    arms: tuple[int, ...]
    legs: tuple[int, ...]


def partition(parts: Iterable[int]) -> Partition:
    """Normalize an iterable of parts: drop trailing zeros, validate monotonicity."""
    p = tuple(int(x) for x in parts)
    while p and p[-1] == 0:
        p = p[:-1]
    if p and p[-1] < 0:
        raise ValueError(f"negative part in {p!r}")
    if any(a < b for a, b in zip(p, p[1:])):
        raise ValueError(f"parts not weakly decreasing: {p!r}")
    return p


def part(lam: Partition, row: int) -> int:
    """The ``row``-th part (1-indexed); zero beyond the last row."""
    return lam[row - 1] if 1 <= row <= len(lam) else 0


def size(lam: Partition) -> int:
    return sum(lam)


def contains(mu: Partition, lam: Partition) -> bool:
    """Whether mu is contained in lam as Young diagrams."""
    return len(mu) <= len(lam) and all(m <= l for m, l in zip(mu, lam))


def conjugate(lam: Partition) -> Partition:
    """Reflect the diagram along the main diagonal."""
    if not lam:
        return EMPTY
    cols = [0] * lam[0]
    for p in lam:
        for c in range(p):
            cols[c] += 1
    return tuple(cols)


def conj_part(lam: Partition, col: int) -> int:
    """Height of column ``col``: the number of parts that are >= col."""
    n = 0
    for p in lam:
        if p >= col:
            n += 1
        else:
            break
    return n


def durfee(lam: Partition) -> int:
    d = 0
    for i, p in enumerate(lam, start=1):
        if p >= i:
            d = i
        else:
            break
    return d


def frobenius(lam: Partition) -> FrobeniusCoords:
    """Frobenius coordinates (arm lengths | leg lengths) over the Durfee square."""
    d = durfee(lam)
    conj = conjugate(lam)
    arms = tuple(lam[i] - i - 1 for i in range(d))
    legs = tuple(conj[i] - i - 1 for i in range(d))
    return FrobeniusCoords(arms, legs)


def from_frobenius(coords: FrobeniusCoords) -> Partition:
    """Rebuild a partition from Frobenius coordinates; inverse of :func:`frobenius`."""
    arms, legs = coords
    if len(arms) != len(legs):
        raise ValueError("arms and legs must have equal length")
    for seq, name in ((arms, "arms"), (legs, "legs")):
        if any(x < 0 for x in seq):
            raise ValueError(f"negative {name} in {seq!r}")
        if any(a <= b for a, b in zip(seq, seq[1:])):
            raise ValueError(f"{name} not strictly decreasing: {seq!r}")
    d = len(arms)
    rows = [arms[i] + i + 1 for i in range(d)]
    col_heights = [legs[i] + i + 1 for i in range(d)]
    max_rows = col_heights[0] if d else 0
    for r in range(d + 1, max_rows + 1):
        rows.append(sum(1 for h in col_heights if h >= r))
    return tuple(rows)


def meet(lam: Partition, rho: Partition) -> Partition:
    """Intersection of Young diagrams (pointwise minimum)."""
    return tuple(min(a, b) for a, b in zip(lam, rho))


def join(lam: Partition, rho: Partition) -> Partition:
    """Union of Young diagrams (pointwise maximum)."""
    if len(lam) < len(rho):
        lam, rho = rho, lam
    return tuple(max(a, b) for a, b in zip(lam, rho)) + lam[len(rho):]


def meet_join(lam: Partition, rho: Partition) -> tuple[Partition, Partition]:
    return meet(lam, rho), join(lam, rho)


def is_horizontal_strip(mu: Partition, lam: Partition) -> bool:
    """True iff mu <= lam and lam/mu has at most one cell per column.

    Equivalent to the interlacing condition lam_1 >= mu_1 >= lam_2 >= mu_2 >= ...
    Returns False when mu is not contained in lam.
    """
    return (
        len(mu) <= len(lam) <= len(mu) + 1
        and all(map(ge, lam, mu))
        and all(map(ge, mu, lam[1:]))
    )


def is_vertical_strip(mu: Partition, lam: Partition) -> bool:
    """True iff mu <= lam and lam/mu has at most one cell per row."""
    return (
        len(mu) <= len(lam)
        and all(0 <= l - m <= 1 for l, m in zip(lam, mu))
        and all(l == 1 for l in lam[len(mu):])
    )


def odd_part_count(lam: Partition) -> int:
    return sum(1 for p in lam if p % 2)


def member(lam: Partition, family: Family) -> bool:
    """Membership in one of the named families."""
    if family is Family.ALL:
        return True
    if family is Family.EVEN_ROWS:
        return all(p % 2 == 0 for p in lam)
    if family is Family.EVEN_COLS:
        return all(p % 2 == 0 for p in conjugate(lam))
    arms, legs = frobenius(lam)
    if family is Family.ASYM_PLUS:
        return all(b == a + 1 for a, b in zip(arms, legs))
    if family is Family.ASYM_MINUS:
        return all(a == b + 1 for a, b in zip(arms, legs))
    raise ValueError(f"unknown family {family!r}")


def enumerate_partitions(
    max_size: int, box: tuple[int, int] | None = None
) -> list[Partition]:
    """All partitions of size <= max_size in graded-lexicographic order.

    Within each size, partitions are listed lexicographically by decreasing
    parts, e.g. (2) before (1, 1).  With ``box=(rows, cols)`` only partitions
    fitting inside the box are produced.  The order is deterministic.
    """
    if max_size < 0:
        raise ValueError("max_size must be >= 0")
    rows = cols = None
    if box is not None:
        rows, cols = box
    out: list[Partition] = []
    for s in range(max_size + 1):
        out.extend(_partitions_of(s, cols if cols is not None else s, rows))
    return out


def _partitions_of(s: int, max_part: int, max_rows: int | None) -> Iterator[Partition]:
    if s == 0:
        yield EMPTY
        return
    if max_rows is not None and max_rows <= 0:
        return
    for first in range(min(s, max_part), 0, -1):
        rest = _partitions_of(s - first, first, None if max_rows is None else max_rows - 1)
        for tail in rest:
            yield (first,) + tail


def partitions_of_size(s: int, box: tuple[int, int] | None = None) -> list[Partition]:
    """All partitions of size exactly ``s`` (graded-lex tail of enumerate_partitions)."""
    rows, cols = box if box is not None else (None, s)
    return list(_partitions_of(s, cols if cols is not None else s, rows))


# ---------------------------------------------------------------------------
# Strip enumeration.  These generators are the building blocks of the
# brute-force set oracles and the Schur-polynomial chain sums.

def horizontal_strips_over(
    mu: Partition, max_add: int, shape: Partition | None = None
) -> Iterator[Partition]:
    """All nu with mu < nu (horizontal strip) and |nu/mu| <= max_add.

    A horizontal strip adds at most one new row, and row r is bounded by the
    previous row of mu; ``shape`` optionally caps nu cellwise.
    """
    nrows = len(mu) + 1
    row_vals: list[int] = []

    def rec(r: int, budget: int) -> Iterator[Partition]:
        if r > nrows:
            yield tuple(v for v in row_vals if v)
            return
        lo = part(mu, r)
        hi = part(mu, r - 1) if r > 1 else lo + budget
        hi = min(hi, lo + budget)
        if shape is not None:
            hi = min(hi, part(shape, r))
        if hi < lo:
            return
        for v in range(lo, hi + 1):
            row_vals.append(v)
            yield from rec(r + 1, budget - (v - lo))
            row_vals.pop()

    yield from rec(1, max_add)


def vertical_strips_over(
    mu: Partition, max_add: int, shape: Partition | None = None
) -> Iterator[Partition]:
    """All nu with mu <' nu (vertical strip) and |nu/mu| <= max_add."""
    row_vals: list[int] = []

    def rec(r: int, budget: int) -> Iterator[Partition]:
        if r > len(mu):
            # remaining rows form a column of 1s, bounded by the last row
            limit = budget
            if row_vals and row_vals[-1] == 0:
                limit = 0
            if shape is not None:
                limit = min(limit, max(0, len(shape) - len(mu)))
                for t in range(limit + 1):
                    if t and part(shape, len(mu) + t) < 1:
                        limit = t - 1
                        break
            for t in range(limit + 1):
                yield tuple(v for v in row_vals if v) + (1,) * t
            return
        lo = part(mu, r)
        hi = min(lo + 1, lo + budget)
        if r > 1:
            hi = min(hi, row_vals[-1])
        if shape is not None:
            hi = min(hi, part(shape, r))
        if hi < lo:
            return
        for v in range(lo, hi + 1):
            row_vals.append(v)
            yield from rec(r + 1, budget - (v - lo))
            row_vals.pop()

    yield from rec(1, max_add)


def horizontal_strips_under(
    lam: Partition, max_remove: int | None = None
) -> Iterator[Partition]:
    """All mu with mu < lam (horizontal strip)."""
    row_vals: list[int] = []

    def rec(r: int, removed: int) -> Iterator[Partition]:
        if max_remove is not None and removed > max_remove:
            return
        if r > len(lam):
            yield tuple(v for v in row_vals if v)
            return
        lo = part(lam, r + 1)
        hi = lam[r - 1]
        for v in range(hi, lo - 1, -1):
            row_vals.append(v)
            yield from rec(r + 1, removed + hi - v)
            row_vals.pop()

    yield from rec(1, 0)


def vertical_strips_under(
    lam: Partition, max_remove: int | None = None
) -> Iterator[Partition]:
    """All mu with mu <' lam (vertical strip)."""
    row_vals: list[int] = []

    def rec(r: int, removed: int) -> Iterator[Partition]:
        if max_remove is not None and removed > max_remove:
            return
        if r > len(lam):
            yield tuple(v for v in row_vals if v)
            return
        hi = lam[r - 1]
        lo = max(hi - 1, 0)
        if r < len(lam):
            lo = max(lo, lam[r] - 1)
        for v in range(hi, lo - 1, -1):
            if r > 1 and v > row_vals[-1]:
                continue
            row_vals.append(v)
            yield from rec(r + 1, removed + hi - v)
            row_vals.pop()

    yield from rec(1, 0)


def sub_partitions(lam: Partition) -> Iterator[Partition]:
    """All partitions contained in lam."""
    row_vals: list[int] = []

    def rec(r: int) -> Iterator[Partition]:
        if r > len(lam):
            yield tuple(v for v in row_vals if v)
            return
        hi = lam[r - 1] if r == 1 else min(lam[r - 1], row_vals[-1])
        for v in range(hi, -1, -1):
            row_vals.append(v)
            yield from rec(r + 1)
            row_vals.pop()

    yield from rec(1)
