"""Rectangular (dual) growth diagrams and the induced RSK-type correspondences.

A growth diagram over an n x m matrix labels the (n+1) x (m+1) grid vertices
with partitions; i-steps (down the rows) are horizontal strips, j-steps are
horizontal strips for growths and vertical strips for dual growths.  Each
square is resolved by a local rule applied in the orientation

        mu ---- rho
        |        |          nu = F(rule, lam, rho, |(lam ^ rho)/mu| + A[i][j], mu)
        lam ---- nu

with mu the top-left and nu the bottom-right vertex.  Coordinates are matrix
coordinates: i downwards, j rightwards.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .interlacing import DomainError
from .partitions import (
    EMPTY,
    Partition,
    is_horizontal_strip,
    is_vertical_strip,
    meet,
    part,
    partitions_of_size,
    size,
)
from .rules import Rule, apply_rule, unapply_rule
from .tableaux import StepKind, TableauChain

Matrix = Sequence[Sequence[int]]


def matrix_dims(matrix: Matrix, binary: bool = False) -> tuple[int, int]:
    """Validate a rectangular matrix of non-negative ints; return (n, m)."""
    n = len(matrix)
    if n == 0:
        raise ValueError("matrix needs at least one row")
    m = len(matrix[0])
    for i, row in enumerate(matrix):
        if len(row) != m:
            raise ValueError(f"row {i} has length {len(row)}, expected {m}")
        for j, v in enumerate(row):
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise ValueError(f"entry ({i},{j}) must be a non-negative integer")
            if binary and v > 1:
                raise ValueError(f"entry ({i},{j}) must be 0 or 1 for dual rules")
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


def biword(matrix: Matrix) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Two-line array of a matrix: columns left to right, each top to bottom."""
    n, m = matrix_dims(matrix)
    top, bottom = [], []
    for j in range(m):
        for i in range(n):
            top.extend([j + 1] * matrix[i][j])
            bottom.extend([i + 1] * matrix[i][j])
    return tuple(top), tuple(bottom)


def _default_borders(
    rule: Rule, n: int, m: int, S: TableauChain | None, T: TableauChain | None
) -> tuple[TableauChain, TableauChain]:
    qsteps = StepKind.VERTICAL if rule.dual else StepKind.HORIZONTAL
    if S is None:
        S = TableauChain.trivial(EMPTY, n)
    if T is None:
        T = TableauChain.trivial(S.inner_shape, m, qsteps)
    if S.steps is not StepKind.HORIZONTAL:
        raise ValueError("left border must be a horizontal-strip chain")
    if T.steps is not qsteps:
        raise ValueError(f"top border must be a {qsteps.value}-strip chain")
    if S.entries != n or T.entries != m:
        raise ValueError("border lengths must match the matrix dimensions")
    if S.inner_shape != T.inner_shape:
        raise ValueError("borders must start at the same partition")
    return S, T


def build_growth(
    rule: Rule,
    matrix: Matrix,
    S: TableauChain | None = None,
    T: TableauChain | None = None,
) -> GrowthGrid:
    """The unique rule-built (dual) growth over ``matrix`` with the given borders."""
    n, m = matrix_dims(matrix, binary=rule.dual)
    S, T = _default_borders(rule, n, m, S, T)
    grid = [[EMPTY] * (m + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        grid[i][0] = S.chain[i]
    for j in range(m + 1):
        grid[0][j] = T.chain[j]
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            mu, lam, rho = grid[i - 1][j - 1], grid[i][j - 1], grid[i - 1][j]
            k = size(meet(lam, rho)) - size(mu) + matrix[i - 1][j - 1]
            grid[i][j] = apply_rule(rule, lam, rho, k, mu)
    return GrowthGrid(
        tuple(tuple(row) for row in grid),
        tuple(tuple(int(v) for v in row) for row in matrix),
        rule.dual,
    )


def extract_PQ(grid: GrowthGrid) -> tuple[TableauChain, TableauChain]:
    """P reads the last column, Q the last row."""
    p = TableauChain(tuple(grid.vertices[i][grid.m] for i in range(grid.n + 1)))
    qsteps = StepKind.VERTICAL if grid.dual else StepKind.HORIZONTAL
    q = TableauChain(tuple(grid.vertices[grid.n][j] for j in range(grid.m + 1)), qsteps)
    return p, q


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
    qsteps = StepKind.VERTICAL if rule.dual else StepKind.HORIZONTAL
    if P.steps is not StepKind.HORIZONTAL or Q.steps is not qsteps:
        raise ValueError("P must be a horizontal chain and Q must match the rule")
    if P.shape != Q.shape:
        raise ValueError(f"final shapes differ: {P.shape} vs {Q.shape}")
    n, m = P.entries, Q.entries
    grid: list[list[Partition | None]] = [[None] * (m + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        grid[i][m] = P.chain[i]
    for j in range(m + 1):
        grid[n][j] = Q.chain[j]
    matrix = [[0] * m for _ in range(n)]
    for i in range(n, 0, -1):
        for j in range(m, 0, -1):
            lam, rho, nu = grid[i][j - 1], grid[i - 1][j], grid[i][j]
            mu, a = unapply_rule(rule, lam, rho, nu)
            grid[i - 1][j - 1] = mu
            matrix[i - 1][j - 1] = a
    S = TableauChain(tuple(grid[i][0] for i in range(n + 1)))
    T = TableauChain(tuple(grid[0][j] for j in range(m + 1)), qsteps)
    return tuple(tuple(r) for r in matrix), S, T


# ---------------------------------------------------------------------------
# Insertion view.

def insert(
    rule: Rule, tableau: TableauChain, values: Mapping[int, int] | Iterable[int]
) -> TableauChain:
    """Insert a multiset of values (a set for dual rules) via the bump loop.

    Equals the single-column growth with these entries: at level i the rule is
    applied with k = (current multiplicity of i), bumped larger entries are
    re-inserted, and the chain of the updated tableau is returned.
    """
    work = Counter(dict(values)) if isinstance(values, Mapping) else Counter(values)
    n = tableau.entries
    for v, c in list(work.items()):
        if c < 0:
            raise ValueError("multiplicities must be >= 0")
        if c == 0:
            del work[v]
            continue
        if not 1 <= v <= n:
            raise ValueError(f"value {v} outside 1..{n}")
        if rule.dual and c > 1:
            raise ValueError("dual insertion takes a set of values")
    hat: list[Partition] = [tableau.chain[0]]
    for i in range(1, n + 1):
        mu, lam, rho = tableau.chain[i - 1], tableau.chain[i], hat[i - 1]
        k = work.pop(i, 0)
        nu = apply_rule(rule, lam, rho, k, mu)
        # entries of the old tableau covered by the new i-region were bumped
        for row in range(1, len(nu) + 1):
            lo, hi = part(rho, row), part(nu, row)
            for col in range(lo + 1, hi + 1):
                bumped = tableau.entry_at(col, row)
                if bumped is not None and bumped > i:
                    work[bumped] += 1
        hat.append(nu)
    return TableauChain(tuple(hat), tableau.steps)


def check_traceable(
    rule: Rule,
    tableau: TableauChain,
    values: Iterable[int],
    reverse: bool | None = None,
) -> bool:
    """Whether inserting the set sequentially equals the batch insertion.

    ``reverse=None`` picks the rule's canonical order: ascending for row and
    dual-col insertion (traceable), descending for col and dual-row (reverse
    traceable).
    """
    vals = sorted(set(values))
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
    if any(c < 0 for c in counts):
        raise ValueError("multiplicities must be >= 0")
    if rule.dual and any(c > 1 for c in counts):
        raise ValueError("dual Pieri multiplicities must be 0 or 1")
    return insert(rule, tableau, {i + 1: c for i, c in enumerate(counts) if c})


def pieri_inverse(
    rule: Rule, hat: TableauChain, shape: Partition
) -> tuple[TableauChain, tuple[int, ...]]:
    """Recover (tableau, counts) from the Pieri image and the source shape."""
    n = hat.entries
    chain: list[Partition] = [EMPTY] * (n + 1)
    counts = [0] * n
    chain[n] = shape
    for i in range(n, 0, -1):
        mu, a = unapply_rule(rule, chain[i], hat.chain[i - 1], hat.chain[i])
        chain[i - 1] = mu
        counts[i - 1] = a
    if chain[0] != hat.chain[0]:
        raise DomainError("inner shapes disagree after inversion")
    return TableauChain(tuple(chain), hat.steps), tuple(counts)


# ---------------------------------------------------------------------------
# Brute-force enumeration of all (dual) growths of a matrix, straight borders.

def enumerate_growths(matrix: Matrix, dual: bool = False) -> list[GrowthGrid]:
    """All assignments satisfying the growth definition: strip conditions on
    every edge plus the prefix-sum size law.  Exponential; intended for small
    matrices."""
    n, m = matrix_dims(matrix, binary=dual)
    sizes = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            sizes[i][j] = (
                sizes[i - 1][j] + sizes[i][j - 1] - sizes[i - 1][j - 1] + matrix[i - 1][j - 1]
            )
    by_size: dict[int, list[Partition]] = {}
    jstrip = is_vertical_strip if dual else is_horizontal_strip
    grid = [[EMPTY] * (m + 1) for _ in range(n + 1)]
    found: list[GrowthGrid] = []

    def rec(pos: int) -> None:
        if pos == (n + 1) * (m + 1):
            found.append(
                GrowthGrid(
                    tuple(tuple(row) for row in grid),
                    tuple(tuple(int(v) for v in row) for row in matrix),
                    dual,
                )
            )
            return
        i, j = divmod(pos, m + 1)
        s = sizes[i][j]
        if s not in by_size:
            by_size[s] = partitions_of_size(s)
        for p in by_size[s]:
            if i > 0 and not is_horizontal_strip(grid[i - 1][j], p):
                continue
            if j > 0 and not jstrip(grid[i][j - 1], p):
                continue
            grid[i][j] = p
            rec(pos + 1)
        grid[i][j] = EMPTY

    rec(0)
    return found


def grid_size_law(grid: GrowthGrid) -> bool:
    """Check |vertex(i,j)| = |S^(i)| + |T^(j)| - |S^(0)| + sum of matrix entries
    north-west of (i,j), where S and T are the border chains of the grid."""
    n, m = grid.n, grid.m
    s_sizes = [size(grid.vertices[i][0]) for i in range(n + 1)]
    t_sizes = [size(grid.vertices[0][j]) for j in range(m + 1)]
    pre = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            pre[i][j] = (
                pre[i - 1][j] + pre[i][j - 1] - pre[i - 1][j - 1] + grid.matrix[i - 1][j - 1]
            )
    for i in range(n + 1):
        for j in range(m + 1):
            expect = s_sizes[i] + t_sizes[j] - s_sizes[0] + pre[i][j]
            if size(grid.vertices[i][j]) != expect:
                return False
    return True
