"""Integer partitions and Young-diagram primitives.

A partition is a plain tuple of weakly decreasing positive integers; ``()`` is
the empty partition.  Cells are addressed as ``(column, row)`` pairs, 1-indexed,
in French convention (row 1 is the bottom, and the longest, row).  Everything
here is a pure function on immutable values.  Every set of partitions listed here
or in ``interlacing.py`` (strips, boxes, size classes, up and down sets) is an
interval of Young's lattice cut to a window of sizes, and one iterative walk,
``_rows_between``, lists them all but the horizontal strips over a shape: their
rows are independent and the series sweeps list them most, so they have their own.
"""

from __future__ import annotations

from enum import Enum
from operator import ge, lt
from typing import Iterable, NamedTuple, Sequence

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
    """Normalize an iterable of int parts: drop trailing zeros, validate monotonicity."""
    p = tuple(parts)
    if any(type(x) is not int for x in p):
        raise ValueError(f"non-integer part in {p!r}")
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
    """Reflect the diagram along the main diagonal: columns lam_(i+1) + 1 .. lam_i
    all have height i, so the columns come out in runs, one per row."""
    cols: list[int] = []
    for i in range(len(lam), 0, -1):
        cols += (i,) * (lam[i - 1] - len(cols))  # len(cols) is lam_(i+1)
    return tuple(cols)


def conj_part(lam: Partition, col: int) -> int:
    """Height of column ``col``: the number of parts that are >= col."""
    return sum(1 for p in lam if p >= col)


def durfee(lam: Partition) -> int:
    """Side of the Durfee square: the number of rows i with lam_i >= i."""
    return sum(1 for i, p in enumerate(lam, start=1) if p >= i)


def frobenius(lam: Partition) -> FrobeniusCoords:
    """Frobenius coordinates (arm lengths | leg lengths) over the Durfee square,
    in one pass down the diagonal; h, the height of column i + 1, only falls."""
    arms, legs = [], []
    h = len(lam)
    for i, p in enumerate(lam):
        if p <= i:
            break
        while lam[h - 1] <= i:
            h -= 1
        arms.append(p - i - 1)
        legs.append(h - i - 1)
    return FrobeniusCoords(tuple(arms), tuple(legs))


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
    # row i of the Durfee square is arms[i-1] + i, and the rows past it come in
    # runs of length i, up to column i's height legs[i-1] + i
    rows = [a + i for i, a in enumerate(arms, start=1)]
    for i in range(len(arms), 0, -1):
        rows += (i,) * (legs[i - 1] + i - len(rows))  # len(rows): column i + 1's height
    return tuple(rows)


def meet(lam: Partition, rho: Partition) -> Partition:
    """Intersection of Young diagrams (pointwise minimum)."""
    return tuple(map(min, lam, rho))


def join(lam: Partition, rho: Partition) -> Partition:
    """Union of Young diagrams (pointwise maximum)."""
    if len(lam) < len(rho):
        lam, rho = rho, lam
    return tuple(map(max, lam, rho)) + lam[len(rho):]


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
    """Membership in one of the named families; a family's name is accepted
    (``Family`` is a str enum, so ``==`` matches a member or its name)."""
    if family == Family.ALL:
        return True
    if family == Family.EVEN_ROWS:
        return all(p % 2 == 0 for p in lam)
    if family == Family.EVEN_COLS:  # every column even: the rows come in equal pairs
        return lam[0::2] == lam[1::2]
    arms, legs = frobenius(lam)
    if family == Family.ASYM_PLUS:
        return all(b == a + 1 for a, b in zip(arms, legs))
    if family == Family.ASYM_MINUS:
        return all(a == b + 1 for a, b in zip(arms, legs))
    raise ValueError(f"unknown family {family!r}")


def check_non_negative(**fields: int | None) -> None:
    """Field-named ValueError for the first count that is not a non-negative
    int (bools included); None is not given."""
    for field, value in fields.items():
        if value is not None and (type(value) is not int or value < 0):
            raise ValueError(f"{field}: expected a non-negative integer, got {value}")


def check_partitions(**shapes: Partition) -> list[Partition]:
    """Field-named ValueError for the first shape that is not a partition;
    else the shapes, lists made tuples."""
    for field, lam in shapes.items():
        if (not isinstance(lam, (tuple, list)) or any(type(p) is not int or p < 1 for p in lam)
                or any(map(lt, lam, lam[1:]))):
            raise ValueError(f"{field}: expected a partition, got {lam}")
    return [tuple(lam) for lam in shapes.values()]


def enumerate_partitions(
    max_size: int, box: tuple[int, int] | None = None
) -> list[Partition]:
    """All partitions of size <= max_size in graded-lexicographic order.

    Within each size, partitions are listed lexicographically by decreasing
    parts, e.g. (2) before (1, 1).  With ``box=(rows, cols)`` only partitions
    fitting inside the box are produced.  The order is deterministic.
    """
    rows, cols = box or (max_size, max_size)
    check_non_negative(max_size=max_size, rows=rows, cols=cols)
    rows, cols = min(max_size, rows), min(max_size, cols)
    return sorted(reversed(_rows_between((0,) * rows, (cols,) * rows, 0, max_size)), key=size)


def partitions_of_size(s: int, box: tuple[int, int] | None = None) -> list[Partition]:
    """All partitions of size exactly ``s`` (graded-lex tail of enumerate_partitions)."""
    rows, cols = box or (s, s)
    check_non_negative(s=s, rows=rows, cols=cols)
    rows, cols = min(s, rows), min(s, cols)
    return _rows_between((0,) * rows, (cols,) * rows, s, s)[::-1]


# ---------------------------------------------------------------------------
# Interval enumeration: every up/down set, box, size class and strip set is one
# walk over an interval of Young's lattice cut by size, but the horizontal strips
# over a shape: the series sweeps list them most, and their rows are independent,
# so their own walk carries only a budget and takes half the time this one does.

def _rows_between(lo: Sequence[int], hi: Sequence[int], smin: int, smax: int) -> list[Partition]:
    """Every nu with lo[r] <= nu_r <= min(hi[r], nu_(r-1)) in each row and
    smin <= |nu| <= smax, lex-ascending.

    ``lo`` is weakly decreasing and no shorter than ``hi``, so a row of 0 ends nu, which
    is listed before every longer nu it starts.  The walk is depth-first on a stack
    of (prefix, size); each row's range is cut so that the later rows, at least lo
    and at most hi, can still bring the size into the window, and the last row is
    written straight into the output."""
    n = len(hi)
    if not n:
        return [()] if smin <= 0 <= smax else []
    least, most = [0] * n, [0] * n  # the sums of lo and hi over the rows after row r
    for r in range(n - 1, 0, -1):
        least[r - 1], most[r - 1] = least[r] + lo[r], most[r] + hi[r]
    out: list[Partition] = []
    stack = [((), 0)]
    while stack:
        p, s = stack.pop()
        r = len(p)
        low, top, a, b = lo[r], hi[r], smin - s - most[r], smax - s - least[r]
        if p and p[-1] < top:
            top = p[-1]
        if b < top:
            top = b
        if not low and smin <= s <= smax:  # a row of 0 ends nu at p
            out.append(p)
        if a > low:
            low = a
        if r == n - 1:
            for v in range(low or 1, top + 1):
                out.append(p + (v,))
        else:  # pushed descending, so the least row is walked first
            for v in range(top, (low or 1) - 1, -1):
                stack.append((p + (v,), s + v))
    return out


def horizontal_strips_over(mu: Partition, max_add: int) -> list[Partition]:
    """All nu with mu < nu (horizontal strip) and |nu/mu| <= max_add, lex-ascending;
    ``[]`` for max_add < 0.  Row r lies in [mu_r, mu_(r-1)] (row 1 up to mu_1 + max_add,
    the new row up to mu_l) whatever the other rows are, so this walk carries only
    (prefix, budget left), with none of ``_rows_between``'s bounds, caps or runs."""
    if max_add <= 0:
        return [mu] if max_add == 0 else []
    level, top = [((), max_add)], (mu[0] if mu else 0) + max_add
    for m in mu:
        prev, level = level, []
        add = level.append
        for p, b in prev:
            c = m + b
            for v in range(m, (c if c < top else top) + 1):
                add((p + (v,), c - v))
        top = m
    out: list[Partition] = []
    for p, b in level:  # the new row, written straight into out
        out.append(p)
        for v in range(1, (b if b < top else top) + 1):
            out.append(p + (v,))
    return out


def vertical_strips_over(mu: Partition, max_add: int) -> list[Partition]:
    """All nu with mu <' nu (vertical strip) and |nu/mu| <= max_add, lex-ascending."""
    lo = mu + (0,) * max_add  # row r of nu is mu_r or mu_r + 1
    return _rows_between(lo, [v + 1 for v in lo], size(mu), size(mu) + max_add)


def horizontal_strips_under(lam: Partition, max_remove: int | None = None) -> list[Partition]:
    """All mu with mu < lam (horizontal strip), lex-descending; row r in [lam_(r+1), lam_r]."""
    top = size(lam)
    low = 0 if max_remove is None else top - max_remove
    return _rows_between(lam[1:] + (0,), lam, low, top)[::-1]


def vertical_strips_under(lam: Partition, max_remove: int | None = None) -> list[Partition]:
    """All mu with mu <' lam (vertical strip), lex-descending; row r is lam_r or lam_r - 1."""
    top = size(lam)
    low = 0 if max_remove is None else top - max_remove
    return _rows_between([v - 1 for v in lam], lam, low, top)[::-1]


def sub_partitions(lam: Partition) -> list[Partition]:
    """All partitions contained in lam, lex-descending."""
    return _rows_between((0,) * len(lam), lam, 0, size(lam))[::-1]
