"""The four local (dual) growth rules as explicit bijections with inverses.

Each rule F_{lam,rho,k} maps the union of down sets (dual: two down sets) onto
the up set U(lam,rho,k) (dual: U*).  The paper states them on the multiset R of
ribbon positions that mu removes from lam ^ rho and the multiset S that nu adds
to lam v rho; with j = |R|

    row       R |-> R + {0^(k-j)}
    col       greedy matching against the pool of unused addable slots
    dual-row  R |-> R, or R + {0} when |R| = k-1
    dual-col  R |-> {x-1 : x in R}, plus {d} when |R| = k-1

Here they act on part vectors in one pass over the rows, and each row's input
check is the bound the rule's arithmetic needs anyway.  Write base = lam ^ rho
and top = lam v rho.  Row and col: mu is in the domain iff
top_{r+1} <= mu_r <= base_r in every row; row r removes base_r - mu_r cells,
and its addable slot (row r+1) has mu_r - top_{r+1} cells left over, which is
zero unless row r carries a removable ribbon.  So the row rule is Fomin's
nu_1 = top_1 + k - j and nu_{r+1} = top_{r+1} + base_r - mu_r, and col
matches the removed cells against those left-over cells in one scan
(``_match``).  Dual: call row r an s-row when rho_r <= lam_r (there
top_r = lam_r).  The dual corners are the s-rows r with lam_{r+1} < rho_r,
the dual slots the s-rows with lam_r < rho_{r-1}, and the two alternate
bottom-up, starting with a slot: slot 0 <= corner 1 < slot 1 <= corner 2 ...
So dual-row sends corner i's cell to slot i, the next s-row above it, and
dual-col to slot i-1, the last slot at or below it.  Nothing is cached;
``interlacing.encode``/``decode`` are the reference the tests check these
rules against.
"""

from __future__ import annotations

from enum import Enum
from math import inf
from operator import add, ge, le, sub

from .interlacing import DomainError
from .partitions import Partition, join, meet


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
    if rule.dual:
        rows = max(len(lam), len(rho)) + 1
        lam_ = lam + (0,) * (rows + 1 - len(lam))
        j = sum(map(min, lam, rho)) - sum(mu)
        # dual-row: a removed corner's cell (or the extra cell) waits for the
        # next s-row; dual-col: it goes to the last slot at or below it
        nu, carry, slot, below = [], k - j, 0, inf
        for l, l1, p, m in zip(lam_, lam_[1:], rho + (0,) * (rows - len(rho)),
                               mu + (0,) * (rows - len(mu))):
            if not (l1 <= m <= l and p - 1 <= m <= p):
                raise DomainError(f"{mu} is not below both {lam} and {rho}")
            if p > l:
                nu.append(p)
            elif rule is Rule.DUAL_ROW:
                nu.append(l + carry)
                carry = p - m
            else:
                if l < below:
                    slot = len(nu)
                nu.append(l)
                nu[slot] += p - m
            below = p
        if rule is Rule.DUAL_COL:
            nu[slot] += k - j
        if j not in (k, k - 1):
            raise DomainError(f"|R(mu)| = {j} not in {{k, k-1}} for k = {k}")
        return tuple(filter(None, nu))
    base, top = meet(lam, rho), join(lam, rho)
    if not (len(top) - 1 <= len(mu) <= len(base) and all(map(le, mu, base))
            and all(map(ge, mu, top[1:]))):
        raise DomainError(f"{mu} is not below both {lam} and {rho}")
    mu = mu + (0,) * (len(base) - len(mu))
    j = sum(base) - sum(mu)
    if j > k:
        raise DomainError(f"|R(mu)| = {j} exceeds k = {k}")
    top += (0,)
    if rule is Rule.ROW:
        used = [*map(sub, base, mu)]  # row r's removed cells fill the slot above it
    else:
        # greedy: drivers R + {inf^(k-j)} ascending each take the highest row
        # below them whose addable slot has cells left, else row 0 (nu_1)
        used = _match([*map(sub, base, mu), k - j], [*map(sub, mu, top[1:])])
    return tuple(filter(None, [top[0] + k - sum(used), *map(add, top[1:], used)]))


def unapply_rule(
    rule: Rule, lam: Partition, rho: Partition, nu: Partition
) -> tuple[Partition, int]:
    """Invert F: returns (mu, a) with a = |nu| + |mu| - |lam| - |rho|."""
    if rule.dual:
        rows = max(len(lam), len(rho)) + 1
        lam_ = lam + (0,) * (rows + 1 - len(lam))
        nu_ = nu + (0,) * (rows + 1 - len(nu))
        # dual-row: a slot's cell came from the s-row before it (a corner),
        # or is the extra cell at the first slot; dual-col: it came from the
        # next corner at or above it, or is the extra cell at the last slot
        mu, carry, last = [], 0, None
        for l, l1, p, v, v1 in zip(lam_, lam_[1:], rho + (0,) * (rows - len(rho)),
                                   nu_, nu_[1:]):
            if not (v1 <= p <= v and l <= v <= l + 1):
                raise DomainError(f"{nu} is not above both {lam} and {rho}")
            if p > l:
                mu.append(l)
            elif rule is Rule.DUAL_ROW:
                if v > l and last is not None:
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
    else:
        base, top = meet(lam, rho), join(lam, rho)
        if not (len(top) <= len(nu) <= len(base) + 1 and all(map(ge, nu, top))
                and all(map(le, nu[1:], base))):
            raise DomainError(f"{nu} is not above both {lam} and {rho}")
        nu_ = nu + (0,) * (len(base) + 1 - len(nu))
        top += (0,)
        if rule is Rule.ROW:
            used = map(sub, nu_[1:], top[1:])
        else:
            # mirror greedy: S descending, each cell takes the lowest row at
            # or above it whose addable slot has cells left; unmatched cells
            # came from infinite drivers
            added = [*map(sub, nu_, top)]
            used = _match(added[::-1], [*map(sub, base, nu_[1:])][::-1])[::-1]
        mu = map(sub, base, used)
    out = tuple(filter(None, mu))
    return out, sum(nu) + sum(out) - sum(lam) - sum(rho)


def _match(takes: list[int], offers: list[int]) -> list[int]:
    """Cells are taken and offered in turn: takes[0], offers[0], takes[1], ...,
    offers[-1], takes[-1].  Each taken cell uses the most recently offered
    cell still open, if any.  Returns how many cells of each offer were used."""
    left = offers + [0]
    open_ = []
    for i, t in enumerate(takes):
        while t and open_:
            y = open_[-1]
            u = min(t, left[y])
            left[y] -= u
            t -= u
            if not left[y]:
                open_.pop()
        if left[i]:
            open_.append(i)
    return [*map(sub, offers, left)]
