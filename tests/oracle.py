"""Independent brute-force oracles used by the tests.

The cell, strip, up/down-set, growth and filling oracles work on explicit
cell sets or fillings, deliberately avoiding the interlacing shortcuts the
package uses, so the two routes only agree if both are right.  That holds
for ``conjugate``, ``frobenius`` and ``member`` too, read off the cell sets,
and for ``even_col_partners``, which walks the cells of lam to conjugate it,
adds or removes one cell per odd column and conjugates back.  The size laws
sum the matrix or array entries themselves.  Three groups read package code:
the family sets (``family_up_set``, ``family_down_set``, ``proj_domain``)
filter the package's strip enumerators through the cell-set ``member``,
``asym_indices`` reads the option tables of ``asym_options`` (the reference
for the tables the asym projections fill in their walk down lam's diagonal) at
the cell-set ``frobenius``, and the ``interval_*`` enumerators read the
row bounds of ``interlacing._up_interval``/``_down_interval``.  Those run
``partitions_between``, a recursive two-budget interval search kept here as
the reference that the package's one row-by-row walk is checked against,
order included.  ``compare`` is the reference the dominant-key comparison of
``verify_identity`` is checked against: it compares every monomial.
``classical_insertion`` is row and column insertion (Knuth, Burge) on plain
lists, which pins each correspondence to the classical map it equals.
``total`` sums a full sweep's states over the shapes kept, which a sweep with
``keep`` must equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from math import inf

from growthdiagrams import size
from growthdiagrams.interlacing import _down_interval, _up_interval
from growthdiagrams.partitions import (
    horizontal_strips_over,
    horizontal_strips_under,
    part,
    vertical_strips_under,
)
from growthdiagrams.projections import LITTLEWOOD
from growthdiagrams.series import Report


def cells(p):
    return {(c, r) for r, length in enumerate(p, start=1) for c in range(1, length + 1)}


def from_cells(cell_set):
    """The partition whose diagram is cell_set, counted row by row."""
    rows = [sum(1 for _, r in cell_set if r == row) for row in range(1, len(cell_set) + 1)]
    return tuple(length for length in rows if length)


def conjugate(p):
    """The diagram reflected along the main diagonal, cell by cell."""
    return from_cells({(r, c) for c, r in cells(p)})


def frobenius(p):
    """(arms, legs): the cells right of and above each diagonal cell (i, i)."""
    cs = cells(p)
    diagonal = [i for i in range(1, len(p) + 1) if (i, i) in cs]
    arms = tuple(sum(1 for c, r in cs if r == i and c > i) for i in diagonal)
    legs = tuple(sum(1 for c, r in cs if c == i and r > i) for i in diagonal)
    return arms, legs


def member(p, family):
    """Membership in a family, read off the cell set: even rows or columns
    count their cells; an asymmetric member's legs are its arms + 1 (asym+1)
    or - 1 (asym-1)."""
    cs = cells(p)
    if family == "all":
        return True
    if family in ("even-rows", "even-cols"):
        axis = 1 if family == "even-rows" else 0
        lines = [cell[axis] for cell in cs]
        return all(lines.count(line) % 2 == 0 for line in set(lines))
    arms, legs = frobenius(p)
    shift = {"asym+1": 1, "asym-1": -1}[family]
    return all(leg == arm + shift for arm, leg in zip(arms, legs))


def even_col_partners(lam):
    """(mu, nu, k): the only mu and nu with even columns that even-cols'
    projection pairs at lam, and its only k = |nu/lam|.  Each is lam conjugated
    by a walk over its cells, with one cell removed (mu) or added (nu) in each
    odd column, conjugated back."""
    def walk_conjugate(p):
        if not p:
            return ()
        cols = [0] * p[0]
        for length in p:
            for c in range(length):
                cols[c] += 1
        return tuple(cols)

    conj = walk_conjugate(lam)
    mu = walk_conjugate(tuple(c - c % 2 for c in conj if c > 1))
    nu = walk_conjugate(tuple(c + c % 2 for c in conj))
    return mu, nu, sum(c % 2 for c in conj)


def is_partition(p):
    return all(a >= b for a, b in zip(p, p[1:])) and all(v > 0 for v in p)


def contains(mu, lam):
    return cells(mu) <= cells(lam)


def horiz_strip(mu, lam):
    """lam/mu has at most one cell per column, checked on the cell sets."""
    if not contains(mu, lam):
        return False
    diff = cells(lam) - cells(mu)
    cols = [c for c, _ in diff]
    return len(cols) == len(set(cols))


def vert_strip(mu, lam):
    if not contains(mu, lam):
        return False
    diff = cells(lam) - cells(mu)
    rows = [r for _, r in diff]
    return len(rows) == len(set(rows))


def partitions_of(n, max_part=None):
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


def all_partitions(max_size):
    out = []
    for s in range(max_size + 1):
        out.extend(partitions_of(s))
    return out


def up_set(lam, rho, k, dual=False):
    """Global enumeration + cell-based strip filters."""
    base = tuple(
        max(a, b)
        for a, b in zip(lam + (0,) * len(rho), rho + (0,) * len(lam))
    )
    base = tuple(v for v in base if v)
    out = []
    for nu in partitions_of(sum(base) + k, max_part=max(base, default=0) + k):
        first = vert_strip(lam, nu) if dual else horiz_strip(lam, nu)
        if first and horiz_strip(rho, nu) and contains(base, nu):
            out.append(nu)
    return sorted(out)


def down_set(lam, rho, k, dual=False):
    base = tuple(min(a, b) for a, b in zip(lam, rho))
    base = tuple(v for v in base if v)
    if sum(base) - k < 0:
        return []
    out = []
    for mu in partitions_of(sum(base) - k):
        second = vert_strip(mu, rho) if dual else horiz_strip(mu, rho)
        if second and horiz_strip(mu, lam) and contains(mu, base):
            out.append(mu)
    return sorted(out)


def ssyt_fillings(shape, n, inner=()):
    """All (skew) SSYT of shape ``shape``/``inner`` with entries <= n, as row
    tuples with None on the inner cells; backtracking over cells."""
    shape = tuple(shape)
    rows = len(shape)
    grid = [[None] * shape[r] for r in range(rows)]
    inner_len = [inner[r] if r < len(inner) else 0 for r in range(rows)]
    cells_order = [
        (r, c) for r in range(rows) for c in range(inner_len[r], shape[r])
    ]
    out = []

    def ok(r, c, v):
        if c > 0 and c - 1 >= inner_len[r] and grid[r][c - 1] is not None:
            if v < grid[r][c - 1]:
                return False
        # French convention: row r+1 sits above row r, entries strictly
        # increase upward in a column
        if r > 0 and c < shape[r - 1] and c >= inner_len[r - 1]:
            below = grid[r - 1][c]
            if below is not None and v <= below:
                return False
        return True

    def rec(idx):
        if idx == len(cells_order):
            out.append(tuple(tuple(row) for row in grid))
            return
        r, c = cells_order[idx]
        for v in range(1, n + 1):
            if ok(r, c, v):
                grid[r][c] = v
                rec(idx + 1)
                grid[r][c] = None

    rec(0)
    return out


def ssyt_weight(filling):
    w = {}
    for row in filling:
        for v in row:
            if v is not None:
                w[v] = w.get(v, 0) + 1
    return w


def schur_poly(shape, n, inner=()):
    """Exponent-vector dict of s_{shape/inner}(x_1..x_n) via filling enumeration."""
    out = {}
    for filling in ssyt_fillings(shape, n, inner):
        w = ssyt_weight(filling)
        key = tuple(w.get(i, 0) for i in range(1, n + 1))
        out[key] = out.get(key, 0) + 1
    return out


@lru_cache(maxsize=None)
def chain_count_syt(lam):
    """Standard Young tableaux counted as saturated chains from () to lam:
    the sum of the counts of lam minus each of its corners."""
    if not lam:
        return 1
    total = 0
    for r in range(len(lam)):
        if lam[r] > (lam[r + 1] if r + 1 < len(lam) else 0):
            below = list(lam)
            below[r] -= 1
            total += chain_count_syt(tuple(v for v in below if v))
    return total


# ---------------------------------------------------------------------------
# Every interval the package lists, through the general recursive search: a
# second formulation of each enumerator, the reference its row-by-row walk is
# checked against, order included.

def partitions_between(lo, hi, max_add=inf, max_remove=inf):
    """Every partition nu with lo[r] <= nu_r <= hi[r] in each row, at most
    ``max_add`` cells above lo and at most ``max_remove`` cells below hi,
    in lex-descending order.

    ``hi`` holds finite ints and fixes the number of rows; ``lo`` is weakly
    decreasing, no longer than hi and zero past its end, so filling the
    remaining rows with lo never overdraws the add budget.
    """
    if max_add < 0 or max_remove < 0:
        return []
    n = len(hi)
    lo = tuple(lo) + (0,) * (n - len(lo))
    tail = list(accumulate(reversed(hi), initial=0))[::-1]  # tail[r] = sum(hi[r:])
    out = []
    rows = []

    def rec(r, cap, add, remove):
        if r == n:
            out.append(tuple(rows))
            return
        l, h = lo[r], hi[r]
        for v in range(min(h, cap, l + add), max(l, h - remove) - 1, -1):
            if v:
                rows.append(v)
                rec(r + 1, v, add - v + l, remove - h + v)
                rows.pop()
            elif remove - h >= tail[r + 1]:
                out.append(tuple(rows))  # every later row is 0 as well

    rec(0, inf, max_add, max_remove)
    return out


def interval_horizontal_strips_over(mu, max_add):
    return partitions_between(mu + (0,), (part(mu, 1) + max_add,) + mu, max_add)[::-1]


def interval_vertical_strips_over(mu, max_add):
    lo = mu + (0,) * max_add
    return partitions_between(lo, tuple(v + 1 for v in lo), max_add)[::-1]


def interval_horizontal_strips_under(lam, max_remove=None):
    budget = inf if max_remove is None else max_remove
    return partitions_between(lam[1:], lam, inf, budget)


def interval_vertical_strips_under(lam, max_remove=None):
    budget = inf if max_remove is None else max_remove
    return partitions_between([v - 1 for v in lam], lam, inf, budget)


def interval_sub_partitions(lam):
    return partitions_between((), lam)


def interval_enumerate_partitions(max_size, box=None):
    rows, cols = box or (max_size, max_size)
    rows, cols = min(max_size, rows), min(max_size, cols)
    return sorted(partitions_between((), (cols,) * rows, max_size), key=size)


def interval_partitions_of_size(s, box=None):
    rows, cols = box or (s, s)
    rows, cols = min(s, rows), min(s, cols)
    return partitions_between((), (cols,) * rows, s, rows * cols - s)


def _interval_by_size(members, base, kmax):
    out = [[] for _ in range(kmax + 1)]
    for nu in reversed(members):
        out[abs(size(nu) - size(base))].append(nu)
    return out


def interval_up_sets_through(lam, rho, kmax, dual=False):
    lo, hi = _up_interval(lam, rho, kmax, dual)
    return _interval_by_size(partitions_between(lo, hi, kmax), lo, kmax)


def interval_down_sets_through(lam, rho, kmax, dual=False):
    lo, hi = _down_interval(lam, rho, dual)
    return _interval_by_size(partitions_between(lo, hi, max_remove=kmax), hi, kmax)


def interval_up_set(lam, rho, k, dual=False):
    lo, hi = _up_interval(lam, rho, k, dual)
    return partitions_between(lo, hi, k, sum(hi) - size(lo) - k)[::-1]


def interval_down_set(lam, rho, k, dual=False):
    lo, hi = _down_interval(lam, rho, dual)
    return partitions_between(lo, hi, sum(hi) - k - sum(lo), k)[::-1]


# ---------------------------------------------------------------------------
# Size laws of growth diagrams.

def grid_size_law(grid):
    """Check |vertex(i,j)| = |S^(i)| + |T^(j)| - |S^(0)| + sum of matrix entries
    north-west of (i,j), where S and T are the border chains of the grid."""
    pre = [[0] * len(grid.vertices[0])]
    for row in grid.matrix:
        run = [0]
        for v in row:
            run.append(run[-1] + v)
        pre.append([p + r for p, r in zip(pre[-1], run)])
    left = [size(row[0]) for row in grid.vertices]
    top = [size(p) for p in grid.vertices[0]]
    return all(
        size(p) == left[i] + top[j] - left[0] + pre[i][j]
        for i, row in enumerate(grid.vertices)
        for j, p in enumerate(row)
    )


def triangular_size(array, i, j):
    """|vertex(i, j)| for trivial borders: sum of c[k][l] for k < l <= i plus
    sum for k <= i, k <= l <= j."""
    total = 0
    for k in range(1, i + 1):
        for l in range(k, array.n + 1):
            if l <= i and l > k:
                total += array.entry(k, l)
            if l <= j:
                total += array.entry(k, l)
    return total


# ---------------------------------------------------------------------------
# Family sets and the asymmetric index sets.

def family_up_set(family, lam, k):
    """U_X(lam, k): brute force over horizontal strips above lam."""
    out = [
        nu
        for nu in horizontal_strips_over(lam, k)
        if size(nu) - size(lam) == k and member(nu, family)
    ]
    return sorted(out)


def family_down_set(family, lam, k):
    """D_X(lam, k), using vertical strips for the asymmetric families."""
    strips = vertical_strips_under if LITTLEWOOD[family].dual else horizontal_strips_under
    out = [mu for mu in strips(lam, k) if size(lam) - size(mu) == k and member(mu, family)]
    return sorted(out)


def proj_domain(family, lam, k):
    """The members mu that proj_apply takes into U_X(lam, k), each with its
    entry: those with |lam/mu| = k - c for each allowed diagonal entry c."""
    row = LITTLEWOOD[family]
    out = []
    for c in row.diagonal or range(0, k + 1, row.power):
        if c <= k:
            out.extend(family_down_set(family, lam, k - c))
    return sorted(out)


@dataclass(frozen=True)
class AsymIndexSets:
    r_indices: tuple
    s_indices: tuple
    exists: bool  # whether lam admits any partner at all


def asym_options(coords, sign):
    """(down, up): per Frobenius index of lam, the allowed values of c for the
    members below and above lam, the smaller strip first.

    A family member is (c | c+1) for sign +1 and (c+1 | c) for sign -1; with
    t = 0 for +1 and t = 1 for -1 its index i has arm c_i + t and leg
    c_i + 1 - t.  For each Frobenius index i of lam = (a | b), the members
    below lam by a vertical strip take c_i from (a_i - t, a_i - 1 - t) and
    those above lam by a horizontal strip from (b_i - 1 + t, b_i + t).  Below,
    a value c >= 0 is allowed when its leg lies in [b_{i+1} + 1, b_i], and
    c = -1 (index absent) only when a_i = 0.  Above, a value is allowed when
    c >= 0 and its arm lies in [a_i, a_{i-1} - 1].  The sentinels are
    a_0 = +inf and b_{l+1} = -1; for sign -1 a virtual index l+1 takes (-1, 0)
    above lam when l = 0 or a_l > 1, and (-1,) otherwise.

    The indices with two allowed values are the free sets R (below) and S
    (above).  When some index has none, lam has no partner.
    """
    t = (1 - sign) // 2
    a, b = coords
    l = len(a)
    down, up = [], []
    a_prev = inf
    for i, ai in enumerate(a):  # each pair's slice keeps its allowed values
        b_next = b[i + 1] if i + 1 < l else -1
        c = ai - t  # c < 0 only as c = -1 with a_i = 0
        first = c < 0 or b_next < c + 1 - t <= b[i]
        second = b_next < c - t <= b[i] if c > 0 else c == ai == 0
        down.append((c, c - 1)[not first:1 + second])
        c = b[i] - 1 + t
        first = c >= 0 and ai <= c + t < a_prev
        second = ai <= c + 1 + t < a_prev
        up.append((c, c + 1)[not first:1 + second])
        a_prev = ai
    if sign == -1:
        up.append((-1, 0) if l == 0 or a[-1] > 1 else (-1,))
    return down, up


def asym_indices(lam, sign):
    """The free-choice index sets R and S of the +-1-asymmetric bijections,
    read from the option tables of ``asym_options``: both empty and ``exists``
    False when lam has no partner."""
    down, up = asym_options(frobenius(lam), sign)
    if not (all(down) and all(up)):
        return AsymIndexSets((), (), False)
    return AsymIndexSets(
        tuple(i for i, opts in enumerate(down, 1) if len(opts) == 2),
        tuple(i for i, opts in enumerate(up, 1) if len(opts) == 2),
        True,
    )


#: allowed diagonal entries per variant; None means every multiple of the
#: family's diagonal power
DIAGONAL_DOMAIN = {family: row.diagonal for family, row in LITTLEWOOD.items()}


def compare(identity, params, lhs, rhs):
    """Report of comparing the two sides on every monomial of either: the
    number of monomials and the first mismatch in (degree, lex) order."""
    keys = set(lhs.terms) | set(rhs.terms)
    wrong = [e for e in keys if lhs.terms.get(e, 0) != rhs.terms.get(e, 0)]
    details = {}
    if wrong:
        e = min(wrong, key=lambda e: (sum(e), e))
        details["mismatch"] = {"exponents": list(e), "lhs": lhs.terms.get(e, 0),
                               "rhs": rhs.terms.get(e, 0)}
    return Report(identity, not wrong, len(keys), params, details)


def total(states, keep):
    """The sum of the states whose shape ``keep`` accepts."""
    out = {}
    for shape, terms in states.items():
        if keep(shape):
            for exps, coeff in terms.items():
                out[exps] = out.get(exps, 0) + coeff
    return out


# ---------------------------------------------------------------------------
# Growths by backtracking over every partition of each vertex's size.

@lru_cache(maxsize=None)
def _partitions_list(n):
    return tuple(partitions_of(n))


def _growths(vertices, size_at, dual):
    """Every labelling of ``vertices`` (row-major (i, j) pairs) by partitions
    of size ``size_at(i, j)`` with a horizontal strip down every column edge
    and a horizontal (vertical when dual) strip along every row edge.  Each
    vertex runs lex-descending; a labelling comes back as its rows."""
    present = set(vertices)
    row_strip = vert_strip if dual else horiz_strip
    v = {}
    out = []

    def rec(pos):
        if pos == len(vertices):
            rows = {}
            for i, j in vertices:
                rows.setdefault(i, []).append(v[i, j])
            out.append(tuple(tuple(r) for r in rows.values()))
            return
        i, j = vertices[pos]
        for p in _partitions_list(size_at(i, j)):
            if (i - 1, j) in present and not horiz_strip(v[i - 1, j], p):
                continue
            if (i, j - 1) in present and not row_strip(v[i, j - 1], p):
                continue
            v[i, j] = p
            rec(pos + 1)

    rec(0)
    return out


def growths(matrix, dual=False):
    """All (dual) growths over a matrix with empty borders, as vertex rows."""
    n, m = len(matrix), len(matrix[0])
    return _growths(
        [(i, j) for i in range(n + 1) for j in range(m + 1)],
        lambda i, j: sum(sum(row[:j]) for row in matrix[:i]),
        dual,
    )


def triangular_growths(array, dual=False):
    """All triangular (dual) growths of an array with an empty border, as
    vertex rows (i, i..n)."""
    n = array.n
    return _growths(
        [(i, j) for i in range(n + 1) for j in range(i, n + 1)],
        lambda i, j: triangular_size(array, i, j),
        dual,
    )


# ---------------------------------------------------------------------------
# Classical insertion (Knuth 1970, Burge 1974), on plain lists.

def classical_insertion(matrix, columns=False, weak=False, descending=False):
    """(P, Q) as row lists, row 1 first, of the classical insertion of a
    matrix: its columns j = 1..m are read in turn, and each column's row
    indices i, with multiplicity, ascending (or ``descending``), are inserted
    into P; Q records j in every cell that an insertion adds.  An entry x
    goes into the first row (the first column when ``columns``): it bumps the
    first entry there that is > x (>= x when ``weak``) into the next line, or
    is put at the line's end if there is none.  Reads no package code."""
    lines, record = [], []  # P and Q by rows, or by columns when ``columns``
    n = len(matrix)
    for j in range(len(matrix[0]) if n else 0):
        for i in (range(n - 1, -1, -1) if descending else range(n)):
            for _ in range(matrix[i][j]):
                x, k = i + 1, 0
                while k < len(lines):
                    line = lines[k]
                    at = next((p for p, y in enumerate(line) if (y >= x if weak else y > x)), None)
                    if at is None:
                        break
                    line[at], x, k = x, line[at], k + 1
                if k == len(lines):
                    lines.append([])
                    record.append([])
                lines[k].append(x)
                record[k].append(j + 1)
    if columns:  # read the rows off the columns
        lines, record = ([[c[r] for c in cs if len(c) > r] for r in range(len(cs[0]) if cs else 0)]
                         for cs in (lines, record))
    return lines, record
