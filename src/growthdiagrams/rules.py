"""The four local (dual) growth rules as explicit bijections with inverses.

Each rule F_{lam,rho,k} maps the union of down sets (dual: two down sets) onto
the up set U(lam,rho,k) (dual: U*).  The paper states them on the multiset R of
ribbon positions that mu removes from lam ^ rho and the multiset S that nu adds
to lam v rho; with j = |R| and a = k - j the square's matrix entry

    row       R |-> R + {0^a}
    col       greedy matching against the pool of unused addable slots
    dual-row  R |-> R, or R + {0} when a = 1
    dual-col  R |-> {x-1 : x in R}, plus {d} when a = 1

Here each rule and direction is its own pass over the rows, with no per-row
rule test, that only compares (no builtin min/max, no lam ^ rho or lam v rho),
and each row's input check is the bound the rule's arithmetic needs anyway.
A call takes the entry a, not k, so the pass never counts j; unapply returns
the same a.  Write base = lam ^ rho and top = lam v rho.  Row and col: mu is
in the domain iff top_{r+1} <= mu_r <= base_r in every row; row r removes
base_r - mu_r cells, and its addable slot (row r+1) has mu_r - top_{r+1} cells
left over, which is zero unless row r carries a removable ribbon.  So the row
rule is Fomin's nu_1 = top_1 + a and nu_{r+1} = top_{r+1} + base_r - mu_r,
and col matches the removed cells against those left-over cells: each
removed cell, then each of the a new ones, takes the nearest slot at or above
its row with a cell left, else row 1.  The matches nest like parentheses, so
a running count a of the unmatched cells gives each slot's share, and col's
pass runs bottom-up: a starts at the new cells, slot r+1 takes
nu_{r+1} = min(top_{r+1} + a, mu_r), and then row r's cut base_r - mu_r
joins a (the inverse matches top-down).  Dual: call row r an s-row when
rho_r <= lam_r (there top_r = lam_r).  The dual corners are the s-rows r
with lam_{r+1} < rho_r, the dual slots the s-rows with lam_r < rho_{r-1}, and
the two alternate bottom-up, starting with a slot:
slot 0 <= corner 1 < slot 1 <= corner 2 ...  So dual-row sends corner i's cell
to slot i, the next s-row above it, and dual-col to slot i-1, the last slot at
or below it.  No pass pads its inputs: row and col take row n, the longer
shape's extra part over a base of 0, outside the loop (col apply starts
there), and dual apply its row past lam and rho.  Nothing is cached;
``interlacing.encode`` and ``decode`` are the reference the tests check these
rules against.
"""

from __future__ import annotations

from enum import Enum
from itertools import zip_longest
from math import inf

from .interlacing import DomainError
from .partitions import Partition


class Rule(str, Enum):
    ROW = "row"
    COL = "col"
    DUAL_ROW = "dual-row"
    DUAL_COL = "dual-col"

    def __init__(self, value: str) -> None:
        self.dual = value.startswith("dual-")  # a plain attribute, read on every square


_COL, _DUAL_ROW = Rule.COL, Rule.DUAL_ROW


def apply_rule(rule: Rule, lam: Partition, rho: Partition, a: int, mu: Partition) -> Partition:
    """F_{lam,rho,k}(mu) with k = |R(mu)| + a, a the square's entry: nu has
    |nu| + |mu| = |lam| + |rho| + a, and unapply_rule(rule, lam, rho, nu) == (mu, a).
    Raises DomainError when mu is outside the domain or a is not >= 0 (dual: 0 or 1)."""
    if a < 0 or a > 1 and rule.dual:
        raise DomainError(f"a must be {'0 or 1' if rule.dual else '>= 0'}, got {a}")
    if rule.dual:
        nu, last = [], inf
        if rule is _DUAL_ROW:
            carry = a  # the extra cell goes to the first s-row, a corner's to the next
            for l, p, m in zip_longest(lam, rho, mu, fillvalue=0):
                if not (l <= last and m <= l and p - 1 <= m <= p):  # lam_r <= mu_{r-1}
                    raise DomainError(f"{mu} is not below both {lam} and {rho}")
                if p > l:
                    nu.append(p)
                else:
                    nu.append(l + carry)
                    carry = p - m
                last = m
            if carry:  # the row past lam and rho: an s-row with lam_r = 0
                nu.append(carry)
            return tuple(nu)
        slot, below = -1, inf  # dual-col: each cell goes to the last slot at or below it
        for l, p, m in zip_longest(lam, rho, mu, fillvalue=0):
            if not (l <= last and m <= l and p - 1 <= m <= p):
                raise DomainError(f"{mu} is not below both {lam} and {rho}")
            if p > l:
                nu.append(p)
            else:
                if l < below:
                    slot = len(nu)
                nu.append(l)
                nu[slot] += p - m
            last, below = m, p
        if not below:
            nu[slot] += a
        elif a:  # the row past lam and rho is the last slot
            nu.append(a)
        return tuple(nu)
    n = len(lam) if len(lam) < len(rho) else len(rho)  # base has n rows, top n or n+1
    lm = len(mu)
    if lm > n or len(lam) + len(rho) > 2 * n + 1:
        raise DomainError(f"{mu} is not below both {lam} and {rho}")
    t = lam[n] if len(lam) > n else rho[n] if len(rho) > n else 0  # row n, over a base of 0
    nu = []
    if rule is _COL:
        for r in range(n - 1, -1, -1):  # bottom-up: a counts the unmatched cells
            l, p = lam[r], rho[r]
            m = mu[r] if r < lm else 0
            v = t + a
            if v > m:
                v = m
            nu.append(v)
            if l > p:
                if m < t or m > p:
                    raise DomainError(f"{mu} is not below both {lam} and {rho}")
                a += t - v + p - m
                t = l
            else:
                if m < t or m > l:
                    raise DomainError(f"{mu} is not below both {lam} and {rho}")
                a += t - v + l - m
                t = p
        nu.append(t + a)  # the cells left over go to row 0
        nu.reverse()
    else:
        cut, last = a, inf  # row: nu_r = top_r + cut_{r-1}, the new cells in row 0
        for r in range(n):
            l, p = lam[r], rho[r]
            m = mu[r] if r < lm else 0
            if l > p:
                if last < l or m > p:
                    raise DomainError(f"{mu} is not below both {lam} and {rho}")
                nu.append(l + cut)
                cut = p - m
            else:
                if last < p or m > l:
                    raise DomainError(f"{mu} is not below both {lam} and {rho}")
                nu.append(p + cut)
                cut = l - m
            last = m
        if last < t:
            raise DomainError(f"{mu} is not below both {lam} and {rho}")
        nu.append(t + cut)
    if not nu[-1]:  # only the last row can be empty
        nu.pop()
    return tuple(nu)


def unapply_rule(
    rule: Rule, lam: Partition, rho: Partition, nu: Partition
) -> tuple[Partition, int]:
    """Invert F: returns (mu, a) with a = |nu| + |mu| - |lam| - |rho|, so that
    apply_rule(rule, lam, rho, a, mu) == nu."""
    if rule.dual:
        mu, carry, below = [], 0, inf
        if rule is _DUAL_ROW:
            last = -1  # a slot's cell came from the corner before it, or is the extra cell
            for l, p, v in zip_longest(lam, rho, nu, fillvalue=0):
                if not (v <= below and p <= v and l <= v <= l + 1):  # nu_r <= rho_{r-1}
                    raise DomainError(f"{nu} is not above both {lam} and {rho}")
                if p > l:
                    mu.append(l)
                else:
                    if v > l:
                        if last < 0:
                            carry = 1  # the extra cell
                        else:
                            mu[last] -= 1
                    last = len(mu)
                    mu.append(p)
                below = p
        else:  # dual-col: from the next corner at or above it, or the extra cell at the last slot
            for l, l1, p, v in zip_longest(lam, lam[1:], rho, nu, fillvalue=0):
                if not (v <= below and p <= v and l <= v <= l + 1):
                    raise DomainError(f"{nu} is not above both {lam} and {rho}")
                if p > l:
                    mu.append(l)
                else:
                    carry += v - l
                    if l1 < p:
                        mu.append(p - carry)
                        carry = 0
                    else:
                        mu.append(p)
                below = p
        return tuple(mu[:len(mu) - mu.count(0)]), carry  # the extra cell: a
    n = len(lam) if len(lam) < len(rho) else len(rho)
    if not n <= len(nu) <= n + 1 or len(lam) + len(rho) > 2 * n + 1:
        raise DomainError(f"{nu} is not above both {lam} and {rho}")
    # mu[r] = base_{r-1} - u_r, u_r the cells slot r gives back; row 0 has no
    # slot: last = nu_1 offers none, mu[0] is a stand-in
    mu, last = [], nu[0] if nu else 0
    tn = lam[n] if len(lam) > n else rho[n] if len(rho) > n else 0  # row n, over a base of 0
    vn = nu[n] if len(nu) > n else 0
    if rule is _COL:
        d = 0  # top-down u_r = min(base_{r-1} - nu_r, d), d the added cells above unmatched
        for l, p, v in zip(lam, rho, nu):
            t = l if l > p else p
            if v < t or v > last:
                raise DomainError(f"{nu} is not above both {lam} and {rho}")
            u = last - v if last - v < d else d
            d += v - t - u
            mu.append(last - u)
            last = l + p - t
        if vn < tn or vn > last:
            raise DomainError(f"{nu} is not above both {lam} and {rho}")
        u = last - vn if last - vn < d else d
        mu.append(last - u)
        return tuple(mu[1:len(mu) - mu.count(0)]), d + vn - tn - u
    # row: slot r gives back all its added cells, u_r = nu_r - top_r
    for l, p, v in zip(lam, rho, nu):
        if l > p:
            if v < l or v > last:
                raise DomainError(f"{nu} is not above both {lam} and {rho}")
            mu.append(last - v + l)
            last = p
        else:
            if v < p or v > last:
                raise DomainError(f"{nu} is not above both {lam} and {rho}")
            mu.append(last - v + p)
            last = l
    if vn < tn or vn > last:
        raise DomainError(f"{nu} is not above both {lam} and {rho}")
    mu.append(last - vn + tn)
    return tuple(mu[1:len(mu) - mu.count(0)]), (nu[0] if nu else 0) - mu[0]
