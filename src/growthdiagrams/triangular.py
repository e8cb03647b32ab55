"""Triangular (dual) growth diagrams and the Littlewood bijections.

A triangular array C = (c[i][j], 1 <= i <= j <= n) labels the upper-triangular
vertex set (i, j), 0 <= i <= j <= n.  Full squares follow the variant's base
rule exactly as in rectangular growths; the diagonal half squares

        mu --- lam
                |        nu = proj_apply(variant, lam, c[i][i], mu)
               nu

use the variant's projection bijection, which keeps the diagonal chain inside
the variant's partition family.  Reading the last column yields the tableau of
the Littlewood correspondence.  In dual grids (asymmetric variants) j-steps
are vertical strips; i-steps are always horizontal, so the output is an SSYT.

Builds and inverses run the rectangular engine of growth.py on the staircase
starts[i] = i, where each diagonal square comes first in its row: a build
reads the array as its upper triangle, rows padded with zeros on the left,
and an inverse writes it there.  The enumerator runs the engine's up-set
enumerator on the array's symmetric n x n matrix, as its size law
|vertex(i, j)| is the matrix's sum over [1..i] x [1..j].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .growth import _enumerate, _grow, _ungrow, insert
from .interlacing import DomainError
from .partitions import EMPTY, Partition, member
from .projections import LITTLEWOOD, LittlewoodVariant, littlewood_variant, proj_apply
from .tableaux import TableauChain, check_chain, strip_kind

def _as_variant(variant: LittlewoodVariant | str) -> LittlewoodVariant:
    """A variant as given, or a family name with its canonical defaults."""
    return variant if isinstance(variant, LittlewoodVariant) else littlewood_variant(variant)


@dataclass(frozen=True)
class TriangularArray:
    """Entries c[i][j] for 1 <= i <= j <= n, stored as rows[i-1][j-i].  The one
    array check: refusals name ``n``, ``rows[i]`` or ``rows[i][j]``, from 0."""

    n: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if type(self.n) is not int:
            raise ValueError("n: expected an integer")
        if self.n != len(self.rows):
            raise ValueError(f"n: {self.n} does not match {len(self.rows)} rows")
        for i, row in enumerate(self.rows):
            for j, v in enumerate(row):
                if type(v) is not int or v < 0:
                    raise ValueError(f"rows[{i}][{j}]: expected a non-negative integer")
            if len(row) != self.n - i:
                raise ValueError(f"rows[{i}]: expected {self.n - i} entries, got {len(row)}")

    def entry(self, i: int, j: int) -> int:
        if not 1 <= i <= j <= self.n:
            raise IndexError(f"({i},{j}) outside the triangle")
        return self.rows[i - 1][j - i]

    def column(self, j: int) -> tuple[int, ...]:
        """Entries c[1][j], ..., c[j][j]."""
        return tuple(self.entry(i, j) for i in range(1, j + 1))


def triangular_array(rows: Sequence[Sequence[int]]) -> TriangularArray:
    return TriangularArray(len(rows), tuple(map(tuple, rows)))


def _symmetric(array: TriangularArray) -> list[list[int]]:
    """The symmetric n x n matrix whose upper triangle is the array."""
    rows = array.rows
    return [[r[i - j] for j, r in enumerate(rows[:i])] + list(rows[i]) for i in range(array.n)]


def validate_entries(variant: LittlewoodVariant, array: TriangularArray) -> None:
    """Check the entry domains the variant's identity imposes."""
    row = LITTLEWOOD[variant.family]
    diag = row.diagonal
    allowed = diag or f"the multiples of {row.power}"
    for i, (v, *off) in enumerate(array.rows, start=1):
        if (v not in diag) if diag else v % row.power:
            raise ValueError(
                f"diagonal entry c[{i}][{i}] = {v} outside {allowed} for {variant.family.value}"
            )
        if variant.dual:
            _check_binary(i, off)


def _check_binary(i: int, off: Sequence[int]) -> None:
    """Refuse an entry > 1 among c[i][i+1], c[i][i+2], ... of a dual array."""
    for j, v in enumerate(off, start=i + 1):
        if v > 1:
            raise ValueError(f"entry c[{i}][{j}] = {v} must be 0 or 1 for dual variants")


@dataclass(frozen=True)
class TriGrid:
    """Vertex labels rows[i][j - i] = partition at (i, j), for i <= j <= n."""

    rows: tuple[tuple[Partition, ...], ...]
    array: TriangularArray
    variant: LittlewoodVariant

    @property
    def n(self) -> int:
        return len(self.rows) - 1

    def vertex(self, i: int, j: int) -> Partition:
        if not 0 <= i <= j <= self.n:
            raise IndexError(f"({i},{j}) outside the triangle")
        return self.rows[i][j - i]


def _default_border(variant: LittlewoodVariant, n: int,
                    S: TableauChain | None) -> tuple[Partition, ...]:
    """Row 0's labels: the given border's chain, checked, or n + 1 empty partitions."""
    if S is None:
        return (EMPTY,) * (n + 1)
    chain = check_chain("border", S, strip_kind(variant.dual), n)
    if not member(S.inner_shape, variant.family):  # at n = 0 no projection checks it
        raise DomainError(f"border: inner shape {S.inner_shape} is not in family "
                          f"{variant.family.value}")
    return chain


def build_triangular(
    variant: LittlewoodVariant | str,
    array: TriangularArray,
    S: TableauChain | None = None,
) -> TriGrid:
    """The unique triangular (dual) growth over the array with border
    vertices(0, j) = S^(j); rows are swept top down, each diagonal square first."""
    variant = _as_variant(variant)
    n = array.n
    validate_entries(variant, array)
    grid = [list(_default_border(variant, n, S))] + [[EMPTY] * (n + 1) for _ in range(n)]
    upper = [(0,) * i + tuple(r) for i, r in enumerate(array.rows)]
    _grow(grid, upper, range(n + 1), variant.base_rule, variant)
    return TriGrid(tuple(tuple(row[i:]) for i, row in enumerate(grid)), array, variant)


def extract_P(grid: TriGrid) -> TableauChain:
    """The tableau read off the last column: shape at entries <= i is vertex(i, n)."""
    return TableauChain(tuple(row[-1] for row in grid.rows))


def littlewood_map(
    variant: LittlewoodVariant | str,
    array: TriangularArray,
    S: TableauChain | None = None,
) -> TableauChain:
    return extract_P(build_triangular(variant, array, S))


def littlewood_inverse(
    variant: LittlewoodVariant | str, P: TableauChain
) -> tuple[TriangularArray, TableauChain]:
    """Invert littlewood_map: recover the array and the border chain from P.

    Refusals of P name it ``tableau``, the field the CLI reads it from."""
    variant = _as_variant(variant)
    check_chain("tableau", P)
    n = P.entries
    if not member(P.shape, variant.family):
        raise DomainError(f"tableau: shape {P.shape} is not in family {variant.family.value}")
    grid = [[EMPTY] * n + [p] for p in P.chain]
    entries = [[0] * n for _ in range(n)]
    _ungrow(grid, entries, range(n + 1), variant.base_rule, variant)
    rows = tuple(tuple(row[i:]) for i, row in enumerate(entries))
    return TriangularArray(n, rows), TableauChain(tuple(grid[0]), strip_kind(variant.dual))


def triangular_insert(
    variant: LittlewoodVariant | str, tableau: TableauChain, column: Sequence[int]
) -> TableauChain:
    """Insert one triangular column: insert the off-diagonal entries (a one-column
    growth), then place the next entry on the cells the projection image adds.

    This is the insertion view of build_triangular for straight borders;
    skew diagrams go through build_triangular directly.  The column is
    c[1][i], ..., c[i][i], checked and named as the last column of an array.
    """
    variant = _as_variant(variant)
    i = tableau.entries + 1
    if len(column) != i:
        raise ValueError(f"column {i} needs {i} entries, got {len(column)}")
    validate_entries(variant, TriangularArray(i, tuple((0,) * (i - 1 - r) + (v,)
                                                       for r, v in enumerate(column))))
    off, diag = column[:-1], column[-1]
    hat = insert(variant.base_rule, tableau, dict(enumerate(off, start=1)))
    nu = proj_apply(variant, hat.shape, diag, tableau.shape)
    return TableauChain(hat.chain + (nu,))


def littlewood_insert(
    variant: LittlewoodVariant | str, array: TriangularArray
) -> TableauChain:
    """littlewood_map computed column by column through triangular_insert."""
    tab = TableauChain((EMPTY,))
    for j in range(1, array.n + 1):
        tab = triangular_insert(variant, tab, array.column(j))
    return tab


# ---------------------------------------------------------------------------
# Enumeration of all triangular (dual) growths of an array through the up sets.

def enumerate_triangular_growths(
    array: TriangularArray, dual: bool = False
) -> list[tuple[tuple[Partition, ...], ...]]:
    """All triangular (dual) growths of the array with an empty border; dual
    ones take 0/1 off the diagonal.  Exponential, for small arrays only."""
    for i, (_, *off) in enumerate(array.rows if dual else (), start=1):
        _check_binary(i, off)
    return _enumerate(_symmetric(array), range(array.n + 1), dual)
