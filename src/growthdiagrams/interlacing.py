"""Up/down sets, ribbon profiles, and position-multiset encodings.

For a pair of partitions (lam, rho) the four sets are

    up_set(lam, rho, k)        {nu : lam < nu > rho,  |nu/(lam v rho)| = k}
    down_set(lam, rho, k)      {mu : lam > mu < rho,  |(lam ^ rho)/mu| = k}

and their dual variants where the strip condition on the rho side (down) or
the lam side (up) is vertical instead of horizontal.  By interlacing, each
row of a member lies between rows of lam and rho (which also keeps it at most
the row before), so each set is an interval of Young's lattice cut to one
size, |lam v rho| + k up and |lam ^ rho| - k down, which
``partitions._rows_between`` walks with no recursion; the ``*_sets_through``
lists take the window of every k <= kmax at once.  The structured encodings
below identify the elements with multisets of ribbon positions.
The growth enumerator lists each vertex through ``up_set``.  The local rules
in ``rules.py`` call nothing here: the encodings are the paper's statement of
the rules, which the tests check the rules against.  Nothing here is cached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .partitions import (
    Partition,
    _rows_between,
    contains,
    is_horizontal_strip,
    is_vertical_strip,
    join,
    meet,
    part,
    size,
)

INFINITE = math.inf


class DomainError(ValueError):
    """Input outside the set an operation is defined on."""


class CapacityError(DomainError):
    """A position multiset exceeds a ribbon capacity."""


class ProfileKind(str, Enum):
    REMOVABLE = "removable"
    ADDABLE = "addable"
    DUAL_REMOVABLE = "dual-removable"
    DUAL_ADDABLE = "dual-addable"


class Direction(str, Enum):
    DOWN = "down"
    UP = "up"


@dataclass(frozen=True)
class ProfileEntry:
    position: int
    row: int
    capacity: int | float  # INFINITE only at addable position 0


@dataclass(frozen=True)
class RibbonProfile:
    kind: ProfileKind
    entries: tuple[ProfileEntry, ...]

    def by_position(self) -> dict[int, ProfileEntry]:
        return {e.position: e for e in self.entries}


def profile(lam: Partition, rho: Partition, kind: ProfileKind) -> RibbonProfile:
    """Maximal removable/addable (dual) ribbons of (lam, rho), positions bottom-up."""
    if kind is ProfileKind.REMOVABLE:
        entries = tuple(
            ProfileEntry(i + 1, row, cap)
            for i, (row, cap) in enumerate(_removable_rows(lam, rho))
        )
    elif kind is ProfileKind.ADDABLE:
        added = [ProfileEntry(0, 1, INFINITE)]
        # each removable ribbon in row r pairs with an addable ribbon of the
        # same capacity in row r+1
        added.extend(
            ProfileEntry(i + 1, row + 1, cap)
            for i, (row, cap) in enumerate(_removable_rows(lam, rho))
        )
        entries = tuple(added)
    elif kind is ProfileKind.DUAL_REMOVABLE:
        entries = tuple(
            ProfileEntry(i + 1, row, 1)
            for i, row in enumerate(_dual_removable_rows(lam, rho))
        )
    elif kind is ProfileKind.DUAL_ADDABLE:
        entries = tuple(
            ProfileEntry(i, row, 1)
            for i, row in enumerate(_dual_addable_rows(lam, rho))
        )
    else:
        raise ValueError(f"unknown profile kind {kind!r}")
    return RibbonProfile(kind, entries)


def _removable_rows(lam: Partition, rho: Partition) -> tuple[tuple[int, int], ...]:
    """(row, capacity) of the maximal removable ribbons of lam ^ rho, bottom-up."""
    base = meet(lam, rho)
    out = []
    for r in range(1, len(base) + 1):
        lo = max(part(lam, r + 1), part(rho, r + 1))
        hi = base[r - 1]
        if hi > lo:
            out.append((r, hi - lo))
    return tuple(out)


def _dual_removable_rows(lam: Partition, rho: Partition) -> tuple[int, ...]:
    """Rows of the inner corners of lam ^ rho that are dual removable: the rows
    r with lam_{r+1} < rho_r <= lam_r, so (lam ^ rho)_r = rho_r is a corner."""
    return tuple(
        r for r in range(1, len(rho) + 1) if part(lam, r + 1) < rho[r - 1] <= part(lam, r)
    )


def _dual_addable_rows(lam: Partition, rho: Partition) -> tuple[int, ...]:
    """Rows of the outer corners of lam v rho that are dual addable: the rows r
    with rho_r <= lam_r < rho_{r-1} (rho_0 = +inf), so (lam v rho)_r = lam_r."""
    above = (INFINITE,) + rho
    return tuple(
        r for r in range(1, len(rho) + 2) if part(rho, r) <= part(lam, r) < above[r - 1]
    )


# ---------------------------------------------------------------------------
# The up and down sets: one interval per (lam, rho, kmax), walked by
# ``_rows_between`` in a window of one size or of kmax + 1 sizes, split by size.

def _up_interval(lam: Partition, rho: Partition, kmax: int,
                 dual: bool) -> tuple[Partition, list[int]]:
    """Row bounds (lo, hi) of U(lam, rho, k) for every k <= kmax; |lo| = |lam v rho|."""
    base = join(lam, rho)
    # hi_r is row r-1 of lam ^ rho, or when dual of rho capped at lam_r + 1;
    # above's first entry stands in for row 0 of lam and rho
    above = (part(base, 1) + kmax,) + (rho if dual else meet(lam, rho))
    rows = range(1, len(base) + 2)
    if dual:
        return base + (0,), [min(part(lam, r) + 1, part(above, r)) for r in rows]
    return base + (0,), [part(above, r) for r in rows]


def up_sets_through(lam: Partition, rho: Partition, kmax: int,
                    dual: bool = False) -> list[list[Partition]]:
    """[U(lam, rho, k) for k in 0..kmax], each sorted."""
    lo, hi = _up_interval(lam, rho, kmax, dual)
    return _by_size(_rows_between(lo, hi, sum(lo), sum(lo) + kmax), lo, kmax)


def _down_interval(lam: Partition, rho: Partition,
                   dual: bool) -> tuple[list[int], list[int]]:
    """Row bounds (lo, hi) of D(lam, rho, k) for every k; hi is lam ^ rho."""
    base = meet(lam, rho)
    rows = range(1, max(len(lam), len(rho)) + 1)
    if dual:
        lo = [max(part(lam, r + 1), part(rho, r) - 1, 0) for r in rows]
    else:
        lo = [max(part(lam, r + 1), part(rho, r + 1)) for r in rows]
    return lo, [part(base, r) for r in rows]


def down_sets_through(
    lam: Partition, rho: Partition, kmax: int, dual: bool = False
) -> list[list[Partition]]:
    """[D(lam, rho, k) for k in 0..kmax], each sorted."""
    lo, hi = _down_interval(lam, rho, dual)
    return _by_size(_rows_between(lo, hi, sum(hi) - kmax, sum(hi)), hi, kmax)


def _by_size(members: list[Partition], base: Partition, kmax: int) -> list[list[Partition]]:
    """The lex-ascending members bucketed by how many cells they differ from base."""
    out: list[list[Partition]] = [[] for _ in range(kmax + 1)]
    s = size(base)
    for nu in members:
        out[abs(size(nu) - s)].append(nu)
    return out


def up_set(lam: Partition, rho: Partition, k: int, dual: bool = False) -> list[Partition]:
    """The set U(lam, rho, k) (U* when dual), sorted for deterministic comparison."""
    if k < 0:
        raise ValueError("k must be >= 0")
    lo, hi = _up_interval(lam, rho, k, dual)
    return _rows_between(lo, hi, sum(lo) + k, sum(lo) + k)


def down_set(lam: Partition, rho: Partition, k: int, dual: bool = False) -> list[Partition]:
    """The set D(lam, rho, k) (D* when dual), sorted."""
    if k < 0:
        raise ValueError("k must be >= 0")
    lo, hi = _down_interval(lam, rho, dual)
    return _rows_between(lo, hi, sum(hi) - k, sum(hi) - k)


# ---------------------------------------------------------------------------
# Encodings.  A multiset over ribbon positions is a plain dict position -> count
# with positive counts.

PositionMultiset = dict[int, int]

#: The ribbon profile whose positions encode each (direction, dual) set.
_PROFILE_KINDS = {
    (Direction.DOWN, False): ProfileKind.REMOVABLE,
    (Direction.DOWN, True): ProfileKind.DUAL_REMOVABLE,
    (Direction.UP, False): ProfileKind.ADDABLE,
    (Direction.UP, True): ProfileKind.DUAL_ADDABLE,
}


def multiset_size(counts: PositionMultiset) -> int:
    return sum(counts.values())


def encode(
    target: Partition,
    lam: Partition,
    rho: Partition,
    direction: Direction,
    dual: bool = False,
) -> PositionMultiset:
    """Encode a member of a down/up set as a multiset of ribbon positions.

    Down: counts[i] cells are removed from the right end of removable ribbon i.
    Up: counts[i] cells extend the row of addable ribbon i.  Raises DomainError
    when ``target`` is not in the corresponding set.
    """
    if direction is Direction.DOWN:
        base = meet(lam, rho)
        if not contains(target, base):
            raise DomainError(f"{target} not contained in {base}")
        if not is_horizontal_strip(target, lam):
            raise DomainError(f"{lam}/{target} is not a horizontal strip")
        if dual and not is_vertical_strip(target, rho):
            raise DomainError(f"{rho}/{target} is not a vertical strip")
        if not dual and not is_horizontal_strip(target, rho):
            raise DomainError(f"{rho}/{target} is not a horizontal strip")
    else:
        base = join(lam, rho)
        if not contains(base, target):
            raise DomainError(f"{target} does not contain {base}")
        if dual:
            if not is_vertical_strip(lam, target):
                raise DomainError(f"{target}/{lam} is not a vertical strip")
            if not is_horizontal_strip(rho, target):
                raise DomainError(f"{target}/{rho} is not a horizontal strip")
        elif not (is_horizontal_strip(lam, target) and is_horizontal_strip(rho, target)):
            raise DomainError(f"{target} is not above both {lam} and {rho}")
    entries = profile(lam, rho, _PROFILE_KINDS[direction, dual]).entries
    rows = {e.row: e.position for e in entries}
    caps = {e.position: e.capacity for e in entries}

    counts: PositionMultiset = {}
    nrows = max(len(base), len(target))
    for r in range(1, nrows + 1):
        diff = abs(part(target, r) - part(base, r))
        if diff == 0:
            continue
        if r not in rows:
            raise DomainError(f"row {r} of {target} carries no ribbon for {lam},{rho}")
        pos = rows[r]
        if diff > caps[pos]:
            raise CapacityError(f"position {pos} exceeds capacity {caps[pos]}")
        counts[pos] = diff
    return counts


def decode(
    counts: PositionMultiset,
    lam: Partition,
    rho: Partition,
    direction: Direction,
    dual: bool = False,
) -> Partition:
    """Inverse of :func:`encode`; validates capacities and strip membership."""
    prof = profile(lam, rho, _PROFILE_KINDS[direction, dual]).by_position()
    base = meet(lam, rho) if direction is Direction.DOWN else join(lam, rho)
    rows = list(base) + [0]
    for pos, cnt in counts.items():
        if cnt < 0:
            raise ValueError("multiplicities must be >= 0")
        if cnt == 0:
            continue
        if pos not in prof:
            raise DomainError(f"no ribbon at position {pos} for {lam},{rho}")
        entry = prof[pos]
        if cnt > entry.capacity:
            raise CapacityError(
                f"multiplicity {cnt} exceeds capacity {entry.capacity} at position {pos}"
            )
        while entry.row > len(rows):
            rows.append(0)
        if direction is Direction.DOWN:
            rows[entry.row - 1] -= cnt
        else:
            rows[entry.row - 1] += cnt
    if any(v < 0 for v in rows) or any(a < b for a, b in zip(rows, rows[1:])):
        raise DomainError(f"decoded rows {rows} do not form a partition")
    target = tuple(v for v in rows if v)
    # strip membership: the decoded value must land in the stated set
    if direction is Direction.DOWN:
        ok = is_horizontal_strip(target, lam) and (
            is_vertical_strip(target, rho) if dual else is_horizontal_strip(target, rho)
        )
    else:
        ok = is_horizontal_strip(rho, target) and (
            is_vertical_strip(lam, target) if dual else is_horizontal_strip(lam, target)
        )
    if not ok:
        raise DomainError(
            f"decoded {target} is not a member of the {direction.value} set of {lam},{rho}"
        )
    return target
