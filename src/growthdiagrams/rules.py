"""The four local (dual) growth rules as explicit bijections with inverses.

Each rule F_{lam,rho,k} maps the union of down sets (dual: two down sets) onto
the up set U(lam,rho,k) (dual: U*).  The paper states them on the multiset R of
ribbon positions that mu removes from lam ^ rho and the multiset S that nu adds
to lam v rho; with j = |R| and a = k - j the square's matrix entry

    row       R |-> R + {0^a}
    col       greedy matching against the pool of unused addable slots
    dual-row  R |-> R, or R + {0} when a = 1
    dual-col  R |-> {x-1 : x in R}, plus {d} when a = 1

Here they act on part vectors in one pass over the rows that only compares (no
builtin min/max; neither lam ^ rho nor lam v rho is built), and each row's
input check is the bound the rule's arithmetic needs anyway.  A call takes
the entry a, not k, so the pass never counts j; unapply returns the same a.  Write
base = lam ^ rho and top = lam v rho.  Row and col: mu is in the domain iff
top_{r+1} <= mu_r <= base_r in every row; row r removes base_r - mu_r cells,
and its addable slot (row r+1) has mu_r - top_{r+1} cells left over, which is
zero unless row r carries a removable ribbon.  So the row rule is Fomin's
nu_1 = top_1 + a and nu_{r+1} = top_{r+1} + base_r - mu_r, and col matches
the removed cells against those left-over cells: each removed cell, then each
of the a new ones, takes the nearest slot at or above its row with a cell
left, else row 1.  The matches nest like parentheses, so a running count of
the unmatched cells gives each slot's share: one scan up the slots after the
pass (the inverse scans down them in its pass).  Dual: call row r an s-row
when rho_r <= lam_r (there top_r = lam_r).  The dual corners are the s-rows r
with lam_{r+1} < rho_r, the dual slots the s-rows with lam_r < rho_{r-1}, and
the two alternate bottom-up, starting with a slot:
slot 0 <= corner 1 < slot 1 <= corner 2 ...  So dual-row sends corner i's cell
to slot i, the next s-row above it, and dual-col to slot i-1, the last slot at
or below it.  No pass pads its inputs: row and col take row n, the longer
shape's extra part over a base of 0, after the loop, and dual apply its row
past lam and rho.  Nothing is cached; ``interlacing.encode`` and ``decode``
are the reference the tests check these rules against.
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
    dual = rule.dual
    if a < 0 or a > 1 and dual:
        raise DomainError(f"a must be {'0 or 1' if dual else '>= 0'}, got {a}")
    if dual:
        # dual-row: a removed corner's cell waits for the next s-row, the extra
        # cell goes to the first; dual-col: each goes to the last slot at or below
        dual_row = rule is _DUAL_ROW
        nu, carry, slot, last, below = [], 0, -1, inf, inf
        for l, p, m in zip_longest(lam, rho, mu, fillvalue=0):
            if not (l <= last and m <= l and p - 1 <= m <= p):  # lam_r <= mu_{r-1}
                raise DomainError(f"{mu} is not below both {lam} and {rho}")
            if p > l:
                nu.append(p)
            elif dual_row:
                if slot < 0:
                    slot = len(nu)
                nu.append(l + carry)
                carry = p - m
            else:
                if l < below:
                    slot = len(nu)
                nu.append(l)
                nu[slot] += p - m
            last, below = m, p
        if slot < 0 if dual_row else below:  # the row past lam and rho: an s-row with lam_r = 0
            slot = len(nu)
        nu.append(carry)
        nu[slot] += a
        if not nu[-1]:  # only the row past lam and rho can be empty
            nu.pop()
        return tuple(nu)
    n = len(lam) if len(lam) < len(rho) else len(rho)  # base has n rows, top n or n+1
    lm = len(mu)
    if lm > n or len(lam) + len(rho) > 2 * n + 1:
        raise DomainError(f"{mu} is not below both {lam} and {rho}")
    col = rule is _COL
    # nu[r] = top_r + cut_{r-1}: row r-1's removed cells fill the slot below it
    nu, tops, cut, last = [], [], 0, inf
    for r in range(n):
        l, p = lam[r], rho[r]
        m = mu[r] if r < lm else 0
        t = l if l > p else p
        b = l + p - t
        if last < t or m > b:
            raise DomainError(f"{mu} is not below both {lam} and {rho}")
        nu.append(t + cut)
        if col:
            tops.append(t)
        cut = b - m
        last = m
    t = lam[n] if len(lam) > n else rho[n] if len(rho) > n else 0  # row n, over a base of 0
    if last < t:
        raise DomainError(f"{mu} is not below both {lam} and {rho}")
    nu.append(t + cut)
    if col:
        # greedy, slots bottom-up: a counts the cells still unmatched, first the
        # new ones; slot r takes u = min(mu_{r-1} - top_r, a) of them, and row
        # r-1's cut joins a
        tops.append(t)
        for r in range(n, 0, -1):
            v = tops[r] + a
            m = mu[r - 1] if r <= lm else 0
            if v > m:
                v = m
            a += nu[r] - v
            nu[r] = v
    nu[0] += a  # the cells left over go to row 0
    if not nu[-1]:  # only the last row can be empty
        nu.pop()
    return tuple(nu)


def unapply_rule(
    rule: Rule, lam: Partition, rho: Partition, nu: Partition
) -> tuple[Partition, int]:
    """Invert F: returns (mu, a) with a = |nu| + |mu| - |lam| - |rho|, so that
    apply_rule(rule, lam, rho, a, mu) == nu."""
    if rule.dual:
        # dual-row: a slot's cell came from the s-row before it (a corner),
        # or is the extra cell at the first slot; dual-col: it came from the
        # next corner at or above it, or is the extra cell at the last slot
        dual_row = rule is _DUAL_ROW
        mu, carry, last, below = [], 0, -1, inf
        for l, l1, p, v in zip_longest(lam, lam[1:], rho, nu, fillvalue=0):
            if not (v <= below and p <= v and l <= v <= l + 1):  # nu_r <= rho_{r-1}
                raise DomainError(f"{nu} is not above both {lam} and {rho}")
            if p > l:
                mu.append(l)
            elif dual_row:
                if v > l:
                    if last < 0:
                        carry = 1  # the extra cell
                    else:
                        mu[last] -= 1
                last = len(mu)
                mu.append(p)
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
    col = rule is _COL
    # mu[r] = base_{r-1} - u_r: slot r gives back all its added cells (row), or
    # top-down u_r = min(base_{r-1} - nu_r, d), d the added cells above still
    # unmatched (col); row 0 has no slot: last = nu_1 offers none, mu[0] is a stand-in
    mu, d, last = [], 0, nu[0] if nu else 0
    for l, p, v in zip(lam, rho, nu):
        t = l if l > p else p
        if v < t or v > last:
            raise DomainError(f"{nu} is not above both {lam} and {rho}")
        u = v - t
        if col:
            u = last - v if last - v < d else d
            d += v - t - u
        mu.append(last - u)
        last = l + p - t
    t = lam[n] if len(lam) > n else rho[n] if len(rho) > n else 0  # row n, over a base of 0
    v = nu[n] if len(nu) > n else 0
    if v < t or v > last:
        raise DomainError(f"{nu} is not above both {lam} and {rho}")
    u = (last - v if last - v < d else d) if col else v - t
    mu.append(last - u)
    a = d + v - t - u if col else (nu[0] if nu else 0) - mu[0]
    return tuple(mu[1:len(mu) - mu.count(0)]), a
