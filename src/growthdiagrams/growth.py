"""Rectangular (dual) growth diagrams, the induced RSK-type correspondences,
the one square sweep that every growth diagram in the package runs, and the
enumerator that lists every growth through the up sets of ``interlacing``.

A growth diagram over an n x m matrix labels the (n+1) x (m+1) grid vertices
with partitions; i-steps (down the rows) are horizontal strips, j-steps are
horizontal strips for growths and vertical strips for dual growths.  Each
square is resolved by a local rule applied in the orientation

        mu ---- rho
        |        |          nu = apply_rule(rule, lam, rho, A[i][j], mu)
        lam ---- nu

with mu the top-left and nu the bottom-right vertex.  Coordinates are matrix
coordinates: i downwards, j rightwards.

Every diagram runs one engine, ``_grow`` and its inverse ``_ungrow``: square
(i, j) exists for starts[i] <= j <= the last column, row by row.  Rectangles
have starts[i] = 1, the triangular diagrams starts[i] = i; with a Littlewood
variant, the first square of each row is a half square (see ``triangular.py``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Mapping, Sequence

from .interlacing import DomainError, up_set
from .partitions import EMPTY, Partition, check_partitions, join, size
from .projections import LittlewoodVariant, proj_apply, proj_unapply
from .rules import Rule, apply_rule, unapply_rule
from .tableaux import TableauChain, check_chain, strip_kind

Matrix = Sequence[Sequence[int]]


# ---------------------------------------------------------------------------
# The engine.  Rules and projections are looked up as module globals on every
# square, so a wrapper installed on this module's names sees each call.

def _grow(v: list[list[Partition]], a: Matrix, starts: Sequence[int], rule: Rule,
          variant: LittlewoodVariant | None = None) -> None:
    """Fill v[i][j] for every square (i, j), row by row, from v[i-1][j-1],
    v[i][j-1], v[i-1][j] and a[i-1][j-1].  With a Littlewood ``variant`` the first
    square of each row is the half square that runs its projection: it reads
    v[i-1][j-1], v[i-1][j] and its entry a[i-1][j-1], as the full squares do.
    Only a[i-1][starts[i] - 1:] is read: a staircase's upper triangle."""
    end = len(v[0])
    for i in range(1, len(v)):
        up, row, entries = v[i - 1], v[i], a[i - 1]
        first = starts[i]
        if variant is not None:
            row[first] = proj_apply(variant, up[first], entries[first - 1], up[first - 1])
            first += 1
        mu, lam = up[first - 1], row[first - 1]  # then the rho and nu of the square before
        for j in range(first, end):
            rho = up[j]
            lam = row[j] = apply_rule(rule, lam, rho, entries[j - 1], mu)
            mu = rho


def _ungrow(v: list[list[Partition]], a: list[list[int]], starts: Sequence[int],
            rule: Rule, variant: LittlewoodVariant | None = None) -> None:
    """Invert _grow: walk its squares in reverse, recover v[i-1][j-1] from
    v[i][j-1], v[i-1][j] and v[i][j], and write the entry into a[i-1][j-1]."""
    last = len(v[0]) - 1
    for i in range(len(v) - 1, 0, -1):
        up, row, entries = v[i - 1], v[i], a[i - 1]
        first = starts[i]
        rho, nu = up[last], row[last]  # then the mu and lam of the square after
        for j in range(last, first - (variant is None), -1):
            lam = row[j - 1]
            rho, entries[j - 1] = unapply_rule(rule, lam, rho, nu)
            up[j - 1], nu = rho, lam
        if variant is not None:
            up[first - 1], entries[first - 1] = proj_unapply(variant, rho, nu)


def matrix_dims(matrix: Matrix, binary: bool = False) -> tuple[int, int]:
    """The one matrix check: a rectangle of non-negative ints (0/1 when
    ``binary``), refused by field name (``matrix[i][j]``); return (n, m)."""
    n = len(matrix)
    if n == 0:
        raise ValueError("matrix: expected at least one row")
    m = len(matrix[0])
    for i, row in enumerate(matrix):
        if len(row) != m:
            raise ValueError(f"matrix[{i}]: expected {m} entries, got {len(row)}")
        for j, v in enumerate(row):
            if type(v) is not int or v < 0:
                raise ValueError(f"matrix[{i}][{j}]: expected a non-negative integer")
            if binary and v > 1:
                raise ValueError(f"matrix[{i}][{j}]: expected 0 or 1 for a dual rule")
    return n, m


@dataclass(frozen=True)
class GrowthGrid:
    vertices: tuple[tuple[Partition, ...], ...]  # (n+1) x (m+1)
    matrix: tuple[tuple[int, ...], ...]
    dual: bool

    @property
    def n(self) -> int:
        return len(self.vertices) - 1

    @property
    def m(self) -> int:
        return len(self.vertices[0]) - 1


def _default_borders(
    rule: Rule, n: int, m: int, S: TableauChain | None, T: TableauChain | None
) -> tuple[tuple[Partition, ...], tuple[Partition, ...]]:
    """Column 0's and row 0's labels: a given border's chain, checked, or else
    a constant one, of the empty partition for S and of S's start for T."""
    s = (EMPTY,) * (n + 1) if S is None else check_chain("border-s", S, entries=n)
    t = (s[0],) * (m + 1) if T is None else check_chain("border-t", T, strip_kind(rule.dual), m)
    if s[0] != t[0]:
        raise ValueError("border-t: borders must start at the same partition")
    return s, t


def build_growth(
    rule: Rule,
    matrix: Matrix,
    S: TableauChain | None = None,
    T: TableauChain | None = None,
) -> GrowthGrid:
    """The unique rule-built (dual) growth over ``matrix`` with the given borders."""
    rule = Rule(rule)
    n, m = matrix_dims(matrix, binary=rule.dual)
    s, t = _default_borders(rule, n, m, S, T)
    grid = [[p] + [EMPTY] * m for p in s]
    grid[0] = list(t)
    _grow(grid, matrix, [1] * (n + 1), rule)
    return GrowthGrid(tuple(map(tuple, grid)), tuple(map(tuple, matrix)), rule.dual)

def extract_PQ(grid: GrowthGrid) -> tuple[TableauChain, TableauChain]:
    """P reads the last column, Q the last row."""
    p = TableauChain(tuple(row[-1] for row in grid.vertices))
    return p, TableauChain(grid.vertices[-1], strip_kind(grid.dual))


def rsk(
    rule: Rule,
    matrix: Matrix,
    S: TableauChain | None = None,
    T: TableauChain | None = None,
) -> tuple[TableauChain, TableauChain]:
    return extract_PQ(build_growth(rule, matrix, S, T))


def rsk_inverse(
    rule: Rule, P: TableauChain, Q: TableauChain
) -> tuple[tuple[tuple[int, ...], ...], TableauChain, TableauChain]:
    """Invert rsk: recover the matrix and both borders from (P, Q).

    The matrix format is fixed by the chain lengths (n = entries of P,
    m = entries of Q); trailing zero rows and columns are preserved.
    """
    rule = Rule(rule)
    check_chain("P", P)
    check_chain("Q", Q, strip_kind(rule.dual))
    if P.shape != Q.shape:
        raise ValueError(f"Q: expected final shape {P.shape}, got {Q.shape}")
    n, m = P.entries, Q.entries
    grid = [[EMPTY] * m + [p] for p in P.chain]
    grid[n] = list(Q.chain)
    matrix = [[0] * m for _ in range(n)]
    _ungrow(grid, matrix, [1] * (n + 1), rule)
    S = TableauChain(tuple(row[0] for row in grid))
    return tuple(map(tuple, matrix)), S, TableauChain(tuple(grid[0]), Q.steps)


# ---------------------------------------------------------------------------
# Insertion view.

def insert(
    rule: Rule, tableau: TableauChain, values: Mapping[int, int] | Iterable[int]
) -> TableauChain:
    """Insert a multiset of values (a set for dual rules): the one-column growth
    with the tableau's chain in column 0 and the multiplicity of i as row i's
    entry, whose last column's chain is returned.  The cells bumped into level i
    are the |R(mu)| the rule removes there, so k = |R(mu)| + (multiplicity of i).
    """
    rule = Rule(rule)
    check_chain("tableau", tableau)  # an i-chain: horizontal in every diagram
    work = Counter(dict(values)) if isinstance(values, Mapping) else Counter(values)
    n = tableau.entries
    for v, c in work.items():
        if type(v) is not int:
            raise ValueError(f"value {v!r} must be an int")
        if type(c) is not int:
            raise ValueError(f"multiplicity of {v} must be an int, got {c!r}")
        if c < 0:
            raise ValueError("multiplicities must be >= 0")
        if c == 0:
            continue
        if not 1 <= v <= n:
            raise ValueError(f"value {v} outside 1..{n}")
        if rule.dual and c > 1:
            raise ValueError("dual insertion takes a set of values")
    grid = [[p, EMPTY] for p in tableau.chain]
    grid[0][1] = tableau.chain[0]
    _grow(grid, [[work[i]] for i in range(1, n + 1)], [1] * (n + 1), rule)
    return TableauChain(tuple(row[1] for row in grid))


def check_traceable(
    rule: Rule,
    tableau: TableauChain,
    values: Iterable[int],
    reverse: bool | None = None,
) -> bool:
    """Whether inserting the set sequentially equals the batch insertion.

    ``reverse=None`` picks the rule's canonical order: ascending for row and
    dual-col insertion (traceable), descending for col and dual-row (reverse
    traceable).  A value given twice is refused as ``values``.
    """
    vals = sorted(values)
    for v, w in zip(vals, vals[1:]):
        if v == w:
            raise ValueError(f"values: {v} given twice")
    if reverse is None:
        reverse = rule in (Rule.COL, Rule.DUAL_ROW)
    if reverse:
        vals = vals[::-1]
    batch = insert(rule, tableau, vals)
    seq = tableau
    for v in vals:
        seq = insert(rule, seq, [v])
    return batch == seq


def pieri(rule: Rule, tableau: TableauChain, counts: Sequence[int]) -> TableauChain:
    """Insert {1^(a_1), ..., n^(a_n)}: the Pieri (dual Pieri) bijection."""
    n = tableau.entries
    if len(counts) != n:
        raise ValueError(f"need {n} multiplicities, got {len(counts)}")
    return insert(rule, tableau, dict(enumerate(counts, start=1)))


def pieri_inverse(
    rule: Rule, hat: TableauChain, shape: Partition
) -> tuple[TableauChain, tuple[int, ...]]:
    """Recover (tableau, counts) from the Pieri image and the source shape."""
    rule = Rule(rule)
    check_chain("hat", hat)  # an i-chain, like insert's tableau
    (shape,) = check_partitions(shape=shape)
    grid = [[EMPTY, p] for p in hat.chain]
    grid[-1][0] = shape
    counts = [[0] for _ in range(hat.entries)]
    try:  # every hat has a source, so a refusal here is the shape's
        _ungrow(grid, counts, [1] * len(grid), rule)
        if grid[0][0] != hat.chain[0]:
            raise DomainError("inner shapes disagree after inversion")
    except DomainError as err:
        raise DomainError(f"shape: {shape} is not the Pieri source of hat ({err})") from None
    return TableauChain(tuple(row[0] for row in grid)), tuple(c[0] for c in counts)


# ---------------------------------------------------------------------------
# Enumeration of all (dual) growths with straight borders, over a rectangle
# or (from triangular.py) a staircase, vertex by vertex through the up sets.

def _prefix(a: Matrix) -> list[list[int]]:
    """pre[i][j] = the sum of a over rows 1..i and columns 1..j."""
    pre = [[0] * (len(a[0]) + 1 if a else 1)]
    for row in a:
        pre.append([0, *(p + r for p, r in zip(pre[-1][1:], accumulate(row)))])
    return pre


def _enumerate(a: Matrix, vertex_starts: Sequence[int],
               dual: bool) -> list[tuple[tuple[Partition, ...], ...]]:
    """Every growth on the vertices (i, j), vertex_starts[i] <= j: v[i][j] runs
    lex-descending through U(lam, rho, k) (U* when dual) of lam = v[i][j-1] (or
    rho, non-dual, at the row's start) and rho = v[i-1][j] (or () in row 0), with
    |v[i][j]| the sum of a over [1..i] x [1..j].  Rows are cut to their range.
    The search is depth-first, on a stack of (vertex position, label) pairs."""
    sizes = _prefix(a)
    cells = [(i, j) for i, s in enumerate(vertex_starts) for j in range(s, len(sizes[0]))]
    v = [[EMPTY] * len(sizes[0]) for _ in vertex_starts]
    found = []
    stack = [(0, EMPTY)]  # the first vertex has size 0: its one label is ()
    while stack:
        pos, p = stack.pop()
        i, j = cells[pos]
        v[i][j] = p
        if pos + 1 == len(cells):
            found.append(tuple(tuple(row[s:]) for row, s in zip(v, vertex_starts)))
            continue
        i, j = cells[pos + 1]
        rho = v[i - 1][j] if i else EMPTY
        lam, jdual = (v[i][j - 1], dual) if j > vertex_starts[i] else (rho, False)
        k = sizes[i][j] - size(join(lam, rho))
        if k >= 0:  # pushed ascending, so popped lex-descending
            stack += [(pos + 1, q) for q in up_set(lam, rho, k, jdual)]
    return found


def enumerate_growths(matrix: Matrix, dual: bool = False) -> list[GrowthGrid]:
    """All (dual) growths over the matrix with empty borders, vertex by vertex
    through the up sets.  Exponential; intended for small matrices."""
    n, _ = matrix_dims(matrix, binary=dual)
    frozen = tuple(map(tuple, matrix))
    return [GrowthGrid(rows, frozen, dual) for rows in _enumerate(matrix, [0] * (n + 1), dual)]
