"""The four local (dual) growth rules as explicit bijections with inverses.

Each rule F_{lam,rho,k} maps the union of down sets (dual: two down sets) onto
the up set U(lam,rho,k) (dual: U*).  The paper states them on the multiset R of
ribbon positions that mu removes from lam ^ rho and the multiset S that nu adds
to lam v rho; with j = |R|

    row       R |-> R + {0^(k-j)}
    col       greedy matching against the pool of unused addable slots
    dual-row  R |-> R, or R + {0} when |R| = k-1
    dual-col  R |-> {x-1 : x in R}, plus {d} when |R| = k-1

Here they act on part vectors.  Position i >= 1 is the ribbon in row
r = _removable_rows(lam, rho)[i-1]: it removes (lam ^ rho)_r - mu_r cells, and
its addable slot adds nu_{r+1} - (lam v rho)_{r+1} cells; position 0 is row 1.
So the row rule is Fomin's nu_1 = (lam v rho)_1 + k - j and
nu_{r+1} = (lam v rho)_{r+1} + (lam ^ rho)_r - mu_r.  Dual position i is the
corner in row _dual_removable_rows[i-1] (down) or the cell in row
_dual_addable_rows[i] (up).  Each call checks its input once; the outputs are
valid by construction.  ``interlacing.encode``/``decode`` are the reference the
tests check these rules against.
"""

from __future__ import annotations

from enum import Enum

from .interlacing import (
    DomainError,
    _dual_addable_rows,
    _dual_removable_rows,
    _removable_rows,
)
from .partitions import Partition, is_horizontal_strip, is_vertical_strip, join, meet, size


class Rule(str, Enum):
    ROW = "row"
    COL = "col"
    DUAL_ROW = "dual-row"
    DUAL_COL = "dual-col"

    @property
    def dual(self) -> bool:
        return self in (Rule.DUAL_ROW, Rule.DUAL_COL)


def apply_rule(
    rule: Rule, lam: Partition, rho: Partition, k: int, mu: Partition
) -> Partition:
    """F_{lam,rho,k}(mu); raises DomainError when mu is outside the domain."""
    if k < 0:
        raise DomainError("k must be >= 0")
    rho_strip = is_vertical_strip if rule.dual else is_horizontal_strip
    if not (is_horizontal_strip(mu, lam) and rho_strip(mu, rho)):
        raise DomainError(f"{mu} is not below both {lam} and {rho}")
    base = meet(lam, rho)
    # removed[r-1] = (lam ^ rho)_r - mu_r; nu[r-1] starts at (lam v rho)_r
    removed = [b - m for b, m in zip(base, mu + (0,) * (len(base) - len(mu)))]
    j = sum(removed)
    nu = [*join(lam, rho), 0]
    if rule.dual:
        if j not in (k, k - 1):
            raise DomainError(f"|R(mu)| = {j} not in {{k, k-1}} for k = {k}")
        corners, slots = _dual_removable_rows(lam, rho), _dual_addable_rows(lam, rho)
        # corner i fills slot i (dual-row) or slot i-1 (dual-col); the extra
        # cell takes the slot no corner maps to
        shift = 0 if rule is Rule.DUAL_ROW else 1
        for i, r in enumerate(corners, 1):
            if removed[r - 1]:
                nu[slots[i - shift] - 1] += 1
        if j == k - 1:
            nu[slots[shift * len(corners)] - 1] += 1
    else:
        if j > k:
            raise DomainError(f"|R(mu)| = {j} exceeds k = {k}")
        if rule is Rule.ROW:
            nu[0] += k - j
            for r, c in enumerate(removed, 1):
                nu[r] += c
        else:
            # greedy: drivers R + {inf^(k-j)} ascending each take the highest
            # removable row below them whose addable slot is unused, else row 0
            pool = _pool(lam, rho, removed, len(base))
            drivers = [r for r, c in enumerate(removed, 1) for _ in range(c)]
            for x in drivers + [len(base) + 1] * (k - j):
                y = x - 1
                while y and not pool[y]:
                    y -= 1
                pool[y] -= 1
                nu[y] += 1
    return tuple(v for v in nu if v)


def unapply_rule(
    rule: Rule, lam: Partition, rho: Partition, nu: Partition
) -> tuple[Partition, int]:
    """Invert F: returns (mu, a) with a = |nu| + |mu| - |lam| - |rho|."""
    lam_strip = is_vertical_strip if rule.dual else is_horizontal_strip
    if not (is_horizontal_strip(rho, nu) and lam_strip(lam, nu)):
        raise DomainError(f"{nu} is not above both {lam} and {rho}")
    top = join(lam, rho)
    # added[r-1] = nu_r - (lam v rho)_r; mu[r-1] starts at (lam ^ rho)_r
    added = [n - t for n, t in zip(nu + (0,) * (len(top) + 1 - len(nu)), top + (0,))]
    mu = list(meet(lam, rho))
    if rule.dual:
        corners = _dual_removable_rows(lam, rho)
        shift = 0 if rule is Rule.DUAL_ROW else 1
        for i, r in enumerate(_dual_addable_rows(lam, rho)):
            if added[r - 1] and 1 <= i + shift <= len(corners):
                mu[corners[i + shift - 1] - 1] -= 1
    elif rule is Rule.ROW:
        for r in range(1, len(mu) + 1):
            mu[r - 1] -= added[r]
    else:
        # mirror greedy: S descending, each element takes the lowest unused
        # removable row above it; unmatched ones came from infinite drivers
        pool = _pool(lam, rho, added[1:], len(mu))
        for s in range(len(mu), -1, -1):
            for _ in range(added[s]):
                y = s + 1
                while y <= len(mu) and not pool[y]:
                    y += 1
                if y <= len(mu):
                    pool[y] -= 1
                    mu[y - 1] -= 1
    out = tuple(v for v in mu if v)
    return out, size(nu) + size(out) - size(lam) - size(rho)


def _pool(lam: Partition, rho: Partition, used: list[int], rows: int) -> list[int]:
    """Unused capacity of the addable slot above each removable row 1..rows
    after ``used[r-1]`` of its cells are taken; index 0 stands for row 1."""
    pool = [0] * (rows + 1)
    for r, cap in _removable_rows(lam, rho):
        pool[r] = cap - used[r - 1]
    return pool
