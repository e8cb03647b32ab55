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
  asym-1     index-set transport with an s_0 pad (row*) or an index shift (col*)

An asymmetric member is fixed by one coordinate sequence c, (c | c+1) for
asym+1 and (c+1 | c) for asym-1.  One option table per Frobenius index i of
lam = (a | b) lists the values c_i may take below lam (vertical strip) and
above it (horizontal strip), the smaller strip first; the sentinels are
a_0 = +inf, b_{l+1} = -1 and, for asym-1, a virtual index l+1 above lam (see
:func:`_asym_options`).  The indices with two values are the free sets R and S,
and both maps match the free choices below lam to those above it by rank.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from typing import NamedTuple

from .interlacing import DomainError
from .partitions import (
    Family,
    Partition,
    _frobenius_rows,
    frobenius,
    FrobeniusCoords,
)
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
# Asymmetric members below and above lam: one option table per index.

_Options = list[tuple[int, ...]]


def _asym_options(coords: FrobeniusCoords, sign: int) -> tuple[_Options, _Options]:
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
    down: _Options = []
    up: _Options = []
    a_prev = math.inf
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


def _asym_choice(options: _Options, sign: int, target: Partition) -> list[int]:
    """The 0-based ranks, among the indices with two values, of those where
    target takes the larger strip.

    Raises DomainError unless target is in the sign's family and each of its
    coordinates (-1 past its last) is an allowed value of its index.
    """
    t = (1 - sign) // 2
    arms, legs = frobenius(target)
    if any(leg != arm + 1 - 2 * t for arm, leg in zip(arms, legs)):
        raise DomainError(f"{target} is not {sign:+d}-asymmetric")
    if len(arms) > len(options):
        raise DomainError(f"{target} has too many Frobenius coordinates")
    ranks: list[int] = []
    rank = 0
    for i, opts in enumerate(options):
        c = arms[i] - t if i < len(arms) else -1
        if c not in opts:
            raise DomainError(f"{target} is not a {sign:+d}-asymmetric partner")
        if len(opts) == 2:
            if c == opts[1]:
                ranks.append(rank)
            rank += 1
    return ranks


def _asym_build(options: _Options, sign: int, ranks: list[int]) -> Partition:
    """The member whose indices with two values take the larger strip exactly
    at the given 0-based ranks, and their only value elsewhere."""
    t = (1 - sign) // 2
    cs = []
    rank = 0
    for opts in options:
        c = opts[0]
        if len(opts) == 2:
            c = opts[rank in ranks]
            rank += 1
        if c >= 0:
            cs.append(c)
    return _frobenius_rows([c + t for c in cs], [c + 1 - t for c in cs])


def _asym_tables(v: LittlewoodVariant, lam: Partition) -> tuple[int, _Options, _Options, int]:
    """(sign, down, up, pad) for lam, where pad is the rank above lam that takes
    the two extra cells of an asym-1 partner: the first (row*) or the last
    (col*) index with two values.  The other ranks keep their order.  For
    asym+1, which has no extra cells, pad = |R| lies past every rank."""
    sign = 1 if v.family is Family.ASYM_PLUS else -1
    down, up = _asym_options(frobenius(lam), sign)
    if not (all(down) and all(up)):
        raise DomainError(f"{lam} admits no {sign:+d}-asymmetric partners")
    if sign == -1 and v.star is StarVariant.ROW_STAR:
        return sign, down, up, 0
    return sign, down, up, sum(len(opts) == 2 for opts in down)


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
        return apply_rule(v.base_rule, lam, lam, None, mu, entry=c)
    if fam is Family.EVEN_ROWS:
        if c & 1:
            raise DomainError(f"even-row projections take an even entry, not c = {c}")
        lo, hi = halves(lam)  # phi_halve and apply_rule refuse a mu outside the domain
        return phi_double(apply_rule(v.base_rule, lo, hi, None, phi_halve(mu), entry=c >> 1))
    if fam is Family.EVEN_COLS:
        if c:
            raise DomainError(f"even-column projections take entry 0, not c = {c}")
        if mu != _row_pairs(lam[1::2]):
            raise DomainError(f"{mu} is not the even-column partner of {lam}")
        return _row_pairs(lam[0::2])
    sign, down, up, pad = _asym_tables(v, lam)
    ranks = [r + (r >= pad) for r in _asym_choice(down, sign, mu)]
    if sign == -1 and c == 2:
        ranks.append(pad)
    elif c:
        raise DomainError(f"c = {c} is not 0 or, for asym-1, 2")
    return _asym_build(up, sign, ranks)


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
    sign, down, up, pad = _asym_tables(v, lam)
    ranks = _asym_choice(up, sign, nu)
    mu = _asym_build(down, sign, [r - (r > pad) for r in ranks if r != pad])
    return mu, 2 if pad in ranks else 0
