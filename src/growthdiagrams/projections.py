"""Projection bijections for the five partition families.

For a family X these are bijections

    proj_apply(v, lam, ., .) : (mu, c)  ->  nu in U_X(lam, |lam/mu| + c)

from the members mu below lam (by vertical strips for the asymmetric families,
horizontal strips otherwise) with a half square's entry c, where
U_X(lam, k) = {nu in X : nu > lam, |nu/lam| = k}; proj_unapply inverts them.

  all        mu |-> F_{lam,lam,k}(mu) for the variant's base rule
  even-rows  conjugated through the part-halving bijection phi
  even-cols  the unique map (add/remove one cell in every odd column), by row pairs
  asym+1     index-set transport in Frobenius coordinates
  asym-1     the same, with one more free index above lam for the two extra cells

An asymmetric member is fixed by one coordinate sequence c, (c | c+1) for
asym+1 and (c+1 | c) for asym-1.  One walk down lam's diagonal pairs each
Frobenius index with the values c_i may take below lam (vertical strip) and
above it (horizontal strip), the smaller strip first (see
:func:`_asym_partner`).  One walk down the given shape's diagonal reads a bit
per index with two values: whether it takes the larger strip.  The partner
takes the same bits in order, above lam with one more for an asym-1 partner's
two extra cells, first (row*) or last (col*), and its rows are written from
its coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from typing import NamedTuple

from .interlacing import DomainError
from .partitions import Family, Partition
from .rules import Rule, apply_rule, unapply_rule


class StarVariant(str, Enum):
    ROW_STAR = "row*"
    COL_STAR = "col*"


class Littlewood(NamedTuple):
    """A family X's Littlewood identity: the sum of s_lam over lam in X is a
    product with a factor 1/(1 - x_i x_j) per i < j, or 1 + x_i x_j when
    ``dual``, and per i one of the same kind in x_i^power (none for power 0).
    The factors fix the entries of the arrays the triangular bijection takes.
    ``base`` is its canonical base rule, ``stars`` lists its projection
    variants, default first, and ``inner`` is the family of the skew
    identity's inner sum, which runs over lam' when dual.
    """

    dual: bool
    power: int
    base: Rule
    stars: tuple[StarVariant | None, ...]
    inner: Family

    @property
    def diagonal(self) -> tuple[int, ...] | None:
        """The allowed diagonal entries: the multiples of power (None), only 0
        and power when dual, only 0 for power 0."""
        if not self.power:
            return (0,)
        return (0, self.power) if self.dual else None


#: Each family's identity; every other per-family fact is derived from it.
LITTLEWOOD = {
    Family.ALL: Littlewood(False, 1, Rule.ROW, (None,), Family.ALL),
    Family.EVEN_ROWS: Littlewood(False, 2, Rule.COL, (None,), Family.EVEN_ROWS),
    Family.EVEN_COLS: Littlewood(False, 0, Rule.ROW, (None,), Family.EVEN_COLS),
    Family.ASYM_PLUS: Littlewood(True, 0, Rule.DUAL_ROW, (StarVariant.ROW_STAR,),
                                 Family.ASYM_MINUS),
    Family.ASYM_MINUS: Littlewood(True, 2, Rule.DUAL_COL,
                                  (StarVariant.ROW_STAR, StarVariant.COL_STAR), Family.ASYM_PLUS),
}


@dataclass(frozen=True)
class LittlewoodVariant:
    """One Littlewood bijection: a family, the base rule of its full squares
    and, for the asymmetric families, the projection's star.  The all and
    even-rows projections run the base rule.  Names are accepted."""

    family: Family
    base_rule: Rule
    star: StarVariant | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "family", Family(self.family))
        object.__setattr__(self, "base_rule", Rule(self.base_rule))
        if self.star is not None:
            object.__setattr__(self, "star", StarVariant(self.star))
        row = LITTLEWOOD[self.family]
        if self.star not in row.stars:
            allowed = " or ".join(s.value for s in row.stars if s) or "no star"
            star = self.star and self.star.value
            raise ValueError(f"{self.family.value} projections take {allowed}, not {star}")
        if self.base_rule.dual != row.dual:
            kind = "dual" if row.dual else "non-dual"
            raise ValueError(f"{self.family.value} requires a {kind} rule")

    @property
    def dual(self) -> bool:
        return self.base_rule.dual


def littlewood_variant(family: Family, base_rule: Rule | None = None,
                       star: StarVariant | None = None) -> LittlewoodVariant:
    """A variant with the family's canonical base rule and default star."""
    row = LITTLEWOOD[Family(family)]
    return LittlewoodVariant(family, row.base if base_rule is None else base_rule,
                             row.stars[0] if star is None else star)


# ---------------------------------------------------------------------------
# Asymmetric partners: one walk down lam's diagonal, one down the target's.

def _asym_partner(v: LittlewoodVariant, lam: Partition, target: Partition,
                  c: int | None = None) -> tuple[Partition, int]:
    """(nu, c) from mu = target below lam and the entry c (apply), or (mu, c)
    from nu = target above lam when c is None (unapply).

    Index i of a member has arm c_i + t and leg c_i + 1 - t, where t is 0 for
    asym+1 and 1 for asym-1.  Below lam =
    (a | b), c_i is a_i - t or a_i - 1 - t with its leg in [b_{i+1} + 1, b_i]
    (-1, the index absent, only when a_i = 0); above lam, b_i - 1 + t or
    b_i + t with c_i >= 0 and its arm in [a_i, a_{i-1} - 1].  Here a_0 = +inf,
    b_{l+1} = -1, and asym-1 has a virtual index l+1 above lam that takes -1
    or, when l = 0 or a_l > 1, 0.  Each table entry is the pair of allowed
    values, the smaller strip first, equal when only one is allowed.
    """
    t = 1 if v.family is Family.ASYM_MINUS else 0
    sign = 1 - 2 * t
    down: list[tuple[int, int]] = []
    up: list[tuple[int, int]] = []
    h = len(lam)  # the height of column i + 1
    a_prev = math.inf
    for i, p in enumerate(lam):
        if p <= i:
            break
        a, b = p - i - 1, h - i - 1
        while h > i + 1 and lam[h - 1] <= i + 1:
            h -= 1
        b_next = h - i - 2  # -1 past the last index
        x = a - t
        first = x < 0 or b_next < x + 1 - t <= b
        second = b_next < x - t <= b if x > 0 else x == a == 0
        y = b - 1 + t
        up_first = y >= 0 and a <= y + t < a_prev
        up_second = a <= y + 1 + t < a_prev
        if not (first or second) or not (up_first or up_second):
            raise DomainError(f"{lam} admits no {sign:+d}-asymmetric partners")
        down.append((x if first else x - 1, x - 1 if second else x))
        up.append((y if up_first else y + 1, y + 1 if up_second else y))
        a_prev = a
    if t:
        up.append((-1, 0 if a_prev > 1 else -1))
    read, write = (down, up) if c is not None else (up, down)

    coords = []
    h = len(target)
    for i, p in enumerate(target):
        if p <= i:
            break
        while target[h - 1] <= i:
            h -= 1
        if h - p != sign:  # leg - arm
            raise DomainError(f"{target} is not {sign:+d}-asymmetric")
        coords.append(p - i - 1 - t)
    if len(coords) > len(read):
        raise DomainError(f"{target} has too many Frobenius coordinates")
    coords += [-1] * (len(read) - len(coords))  # -1: the index is absent
    bits = []  # per two-valued entry: whether the target takes the larger strip
    for value, (x, y) in zip(coords, read):
        if value != x and value != y:
            raise DomainError(f"{target} is not a {sign:+d}-asymmetric partner")
        if x != y:
            bits.append(value == y)

    front = v.star is StarVariant.ROW_STAR  # where asym-1's extra-cells bit goes above lam
    if c is None:
        c = 2 * bits.pop(0 if front else -1) if t else 0
    elif c not in (0, 2 * t):
        raise DomainError(f"c = {c} is not 0 or, for asym-1, 2")
    elif t:
        bits.insert(0 if front else len(bits), c == 2)
    bits.reverse()
    rows: list[int] = []
    for x, y in write:  # row i of the Durfee square is c_i + t + i
        value = y if x != y and bits.pop() else x
        if value < 0:
            break
        rows.append(value + t + len(rows) + 1)
    for i in range(len(rows), 0, -1):  # then runs of i, up to column i's height row_i + sign
        rows += (i,) * (rows[i - 1] + sign - len(rows))
    return tuple(rows), c


# ---------------------------------------------------------------------------
# The halving bijection phi for even-row partitions; row pairs for even columns.

def halves(lam: Partition) -> tuple[Partition, Partition]:
    """(floor(lam/2), ceil(lam/2)) componentwise; the parts of 1 halve to 0."""
    lo, hi = [], []
    for p in lam:
        if p > 1:
            lo.append(p >> 1)
        hi.append(p - (p >> 1))
    return tuple(lo), tuple(hi)


def phi_double(mu: Partition) -> Partition:
    return tuple([2 * p for p in mu])


def phi_halve(mu: Partition) -> Partition:
    half = []
    for p in mu:
        if p & 1:
            raise DomainError(f"{mu} has an odd part, cannot halve")
        half.append(p >> 1)
    return tuple(half)


def _row_pairs(rows: Partition) -> Partition:
    """(r_1, r_1, r_2, r_2, ...).  lam has even columns iff its rows come in equal
    pairs, so its even-column partners pair its odd rows (nu) or its even rows (mu)."""
    return tuple(chain.from_iterable(zip(rows, rows)))


# ---------------------------------------------------------------------------
# The five projection maps.

def proj_apply(v: LittlewoodVariant, lam: Partition, c: int, mu: Partition) -> Partition:
    """Apply the projection bijection to (mu, c), c the half square's entry:
    nu has |nu/lam| = |lam/mu| + c, and proj_unapply(v, lam, nu) == (mu, c)."""
    if c < 0:
        raise DomainError("c must be >= 0")
    fam = v.family
    if fam is Family.ALL:
        return apply_rule(v.base_rule, lam, lam, c, mu)
    if fam is Family.EVEN_ROWS:
        if c & 1:
            raise DomainError(f"even-row projections take an even entry, not c = {c}")
        lo, hi = halves(lam)  # phi_halve and apply_rule refuse a mu outside the domain
        return phi_double(apply_rule(v.base_rule, lo, hi, c >> 1, phi_halve(mu)))
    if fam is Family.EVEN_COLS:
        if c:
            raise DomainError(f"even-column projections take entry 0, not c = {c}")
        if mu != _row_pairs(lam[1::2]):
            raise DomainError(f"{mu} is not the even-column partner of {lam}")
        return _row_pairs(lam[0::2])
    return _asym_partner(v, lam, mu, c)[0]


def proj_unapply(v: LittlewoodVariant, lam: Partition, nu: Partition) -> tuple[Partition, int]:
    """Invert proj_apply: returns (mu, c) with c = |nu/lam| - |lam/mu|.  Each branch's
    own check refuses a nu that is no horizontal strip over lam: unapply_rule's codomain
    (all; even-rows after phi_halve), the even-column partner, the asym tables above lam."""
    fam = v.family
    if fam is Family.ALL:
        return unapply_rule(v.base_rule, lam, lam, nu)
    if fam is Family.EVEN_ROWS:
        lo, hi = halves(lam)  # c = |nu| + |mu| - 2|lam| = 2a, as |lo| + |hi| = |lam|
        mu_half, a = unapply_rule(v.base_rule, lo, hi, phi_halve(nu))
        return phi_double(mu_half), 2 * a
    if fam is Family.EVEN_COLS:
        if nu != _row_pairs(lam[0::2]):
            raise DomainError(f"{nu} is not the even-column partner of {lam}")
        return _row_pairs(lam[1::2]), 0
    return _asym_partner(v, lam, nu)
