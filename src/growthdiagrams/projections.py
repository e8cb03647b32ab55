"""Projection bijections for the five partition families.

For a family X these are bijections

    proj_apply(pf, lam, k, .) : (down-side domain)  ->  U_X(lam, k)

where U_X(lam, k) = {nu in X : nu > lam, |nu/lam| = k} and the down side uses
vertical strips for the asymmetric families and horizontal strips otherwise.

  all        mu |-> F_{lam,lam,k}(mu) for an inherited base rule
  even-rows  conjugated through the part-halving bijection phi
  even-cols  the unique map (add/remove one cell in every odd column)
  asym+1     index-set transport in Frobenius coordinates
  asym-1     index-set transport with an s_0 pad (row*) or an index shift (col*)
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .interlacing import DomainError
from .partitions import (
    Family,
    Partition,
    conjugate,
    frobenius,
    from_frobenius,
    FrobeniusCoords,
    horizontal_strips_over,
    horizontal_strips_under,
    is_horizontal_strip,
    member,
    odd_part_count,
    partition,
    size,
    vertical_strips_under,
)
from .rules import Rule, apply_rule, unapply_rule


class StarVariant(str, Enum):
    ROW_STAR = "row*"
    COL_STAR = "col*"


@dataclass(frozen=True)
class ProjRule:
    """A concrete projection bijection: family plus rule variant."""

    family: Family
    base: Rule | None = None  # inherited base rule (all / even-rows)
    star: StarVariant | None = None  # asym families

    def __post_init__(self) -> None:
        if self.family in (Family.ALL, Family.EVEN_ROWS):
            if self.base is None or self.base.dual or self.star is not None:
                raise ValueError(f"{self.family.value} projections inherit a non-dual rule")
        elif self.family is Family.EVEN_COLS:
            if self.base is not None or self.star is not None:
                raise ValueError("the even-column projection is unique, no variant applies")
        elif self.family is Family.ASYM_PLUS:
            if self.base is not None or self.star is not StarVariant.ROW_STAR:
                raise ValueError("asym+1 admits only the row* projection")
        else:
            if self.base is not None or self.star is None:
                raise ValueError("asym-1 projections are row* or col*")


def proj_rule(
    family: Family, base: Rule | None = None, star: StarVariant | None = None
) -> ProjRule:
    """Projection rule with canonical defaults: all -> row, even-rows -> col,
    asym -> row*."""
    if family is Family.ALL and base is None:
        base = Rule.ROW
    if family is Family.EVEN_ROWS and base is None:
        base = Rule.COL
    if family in (Family.ASYM_PLUS, Family.ASYM_MINUS) and star is None:
        star = StarVariant.ROW_STAR
    return ProjRule(family, base, star)


@dataclass(frozen=True)
class AsymIndexSets:
    r_indices: tuple[int, ...]
    s_indices: tuple[int, ...]
    exists: bool  # whether lam admits any partner at all


def asym_indices(lam: Partition, sign: int) -> AsymIndexSets:
    """The free-choice index sets R and S of the +-1-asymmetric bijections.

    Sentinels: a_0 = +inf and, for sign -1, b_{l+1} = -1 with a virtual index
    l+1 on the S side.  When the interlacing condition fails both sets are
    empty and ``exists`` is False.
    """
    return _index_sets(frobenius(lam), sign)


def _index_sets(coords: FrobeniusCoords, sign: int) -> AsymIndexSets:
    """:func:`asym_indices` on the Frobenius coordinates of lam."""
    a, b = coords
    l = len(a)
    if sign == 1:
        exists = all(b[i] >= a[i] for i in range(l)) and all(
            a[i] >= b[i + 1] for i in range(l - 1)
        )
        if not exists:
            return AsymIndexSets((), (), False)
        s_set = tuple(
            i
            for i in range(1, l + 1)
            if (i == 1 or a[i - 2] > b[i - 1]) and b[i - 1] > a[i - 1]
        )
        r_set = tuple(
            i
            for i in range(1, l + 1)
            if (b[i] if i < l else -1) < a[i - 1] < b[i - 1]
        )
        return AsymIndexSets(r_set, s_set, True)
    if sign == -1:
        exists = all(b[i] + 2 >= a[i] for i in range(l)) and all(
            a[i] >= b[i + 1] + 2 for i in range(l - 1)
        )
        if not exists:
            return AsymIndexSets((), (), False)
        s_set = []
        for i in range(1, l + 2):
            prev_a = a[i - 2] if i >= 2 else None  # a_0 = infinity
            b_i = b[i - 1] if i <= l else -1
            a_i = a[i - 1] if i <= l else None  # a_{l+1} = -infinity
            above = prev_a is None or prev_a > b_i + 2
            below = a_i is None or b_i + 2 > a_i
            if above and below:
                s_set.append(i)
        r_set = tuple(
            i
            for i in range(1, l + 1)
            if b[i - 1] + 2 > a[i - 1] > (b[i] if i < l else -1) + 2
        )
        return AsymIndexSets(r_set, tuple(s_set), True)
    raise ValueError("sign must be +1 or -1")


# ---------------------------------------------------------------------------
# Asymmetric up/down elements in Frobenius coordinates.

def _asym_up_from_choice(
    coords: FrobeniusCoords, idx: AsymIndexSets, sign: int, chosen: frozenset[int]
) -> Partition:
    """The nu in P^sign with lam < nu whose free choices take the larger value
    exactly at the indices in ``chosen`` (a subset of the S index set); lam
    is given by its Frobenius coordinates and index sets.

    Assumes the interlacing condition holds (idx.exists); under it every
    index is either free or forced to one of its two values, and the virtual
    index l+1 for sign -1 takes the value -1, meaning absent, unless chosen.
    """
    a, b = coords
    l = len(a)
    free = set(idx.s_indices)
    if sign == 1:
        cs = []
        for i in range(1, l + 1):
            if i in chosen:
                cs.append(b[i - 1])
            elif i in free:
                cs.append(b[i - 1] - 1)
            elif b[i - 1] == a[i - 1]:
                cs.append(b[i - 1])  # forced high
            else:
                cs.append(b[i - 1] - 1)  # forced low: b_i = a_{i-1}
        return from_frobenius(FrobeniusCoords(tuple(cs), tuple(c + 1 for c in cs)))
    cs = []
    for i in range(1, l + 2):
        b_i = b[i - 1] if i <= l else -1
        a_i = a[i - 1] if i <= l else None
        if i in chosen:
            cs.append(b_i + 1)
        elif i in free:
            cs.append(b_i)
        elif a_i is not None and b_i + 2 == a_i:
            cs.append(b_i + 1)  # forced high
        else:
            cs.append(b_i)  # forced low; at i = l+1 this means absent
    cs = [c for c in cs if c >= 0]
    return from_frobenius(FrobeniusCoords(tuple(c + 1 for c in cs), tuple(cs)))


def _asym_down_choice(
    coords: FrobeniusCoords, idx: AsymIndexSets, sign: int, mu: Partition
) -> frozenset[int]:
    """Which free indices of the R index set take the deeper removal in mu.

    Raises DomainError when mu is not a valid down-set element for lam; this is
    checked by reconstructing mu from the extracted choice set.
    """
    a = coords.arms
    l = len(a)
    da, db = frobenius(mu)
    if sign == 1:
        if tuple(x + 1 for x in da) != db:
            raise DomainError(f"{mu} is not +1-asymmetric")
        ds = list(da)
        deep_off = 1
    else:
        if tuple(x + 1 for x in db) != da:
            raise DomainError(f"{mu} is not -1-asymmetric")
        ds = list(db)
        deep_off = 2
    if len(ds) > l:
        raise DomainError(f"{mu} has too many Frobenius coordinates")
    ds += [-1] * (l - len(ds))
    chosen = frozenset(i for i in idx.r_indices if ds[i - 1] == a[i - 1] - deep_off)
    if _asym_down_from_choice(coords, idx, sign, chosen) != mu:
        raise DomainError(f"{mu} is not a {sign:+d}-asymmetric predecessor")
    return chosen


# ---------------------------------------------------------------------------
# Family set oracles.

def family_up_set(family: Family, lam: Partition, k: int) -> list[Partition]:
    """U_X(lam, k): brute force over horizontal strips above lam."""
    out = [
        nu
        for nu in horizontal_strips_over(lam, k)
        if size(nu) - size(lam) == k and member(nu, family)
    ]
    return sorted(out)


def family_down_set(family: Family, lam: Partition, k: int) -> list[Partition]:
    """D_X(lam, k), using vertical strips for the asymmetric families."""
    gen = (
        vertical_strips_under(lam, k)
        if family in (Family.ASYM_PLUS, Family.ASYM_MINUS)
        else horizontal_strips_under(lam, k)
    )
    out = [mu for mu in gen if size(lam) - size(mu) == k and member(mu, family)]
    return sorted(out)


def proj_domain(family: Family, lam: Partition, k: int) -> list[Partition]:
    """The exact down-side domain of proj_apply for the given target size k."""
    if family is Family.ALL:
        sizes = range(k + 1)
    elif family is Family.EVEN_ROWS:
        sizes = range(k % 2, k + 1, 2)
    elif family is Family.EVEN_COLS:
        sizes = [k] if k == odd_part_count(conjugate(lam)) else []
    elif family is Family.ASYM_PLUS:
        sizes = [k]
    else:
        sizes = [k, k - 2] if k >= 2 else [k]
    out: list[Partition] = []
    for s in sizes:
        if s >= 0:
            out.extend(family_down_set(family, lam, s))
    return sorted(out)


def proj_sets(family: Family, lam: Partition, k: int) -> tuple[list[Partition], list[Partition]]:
    """(down-side domain, up set) for the family at target size k."""
    return proj_domain(family, lam, k), family_up_set(family, lam, k)


# ---------------------------------------------------------------------------
# The halving bijection phi for even-row partitions.

def halves(lam: Partition) -> tuple[Partition, Partition]:
    """(floor(lam/2), ceil(lam/2)) componentwise."""
    return (
        partition(p // 2 for p in lam),
        partition((p + 1) // 2 for p in lam),
    )


def phi_double(mu: Partition) -> Partition:
    return tuple(2 * p for p in mu)


def phi_halve(mu: Partition) -> Partition:
    if any(p % 2 for p in mu):
        raise DomainError(f"{mu} has an odd part, cannot halve")
    return tuple(p // 2 for p in mu)


# ---------------------------------------------------------------------------
# The five projection maps.

def proj_apply(pf: ProjRule, lam: Partition, k: int, mu: Partition) -> Partition:
    """Apply the projection bijection; k is the target strip size |nu/lam|."""
    if k < 0:
        raise DomainError("k must be >= 0")
    fam = pf.family
    if fam is Family.ALL:
        return apply_rule(pf.base, lam, lam, k, mu)
    if fam is Family.EVEN_ROWS:
        odd = odd_part_count(lam)
        drop = size(lam) - size(mu)
        if (k - odd) % 2 or k < odd:
            raise DomainError(f"no even-row partners of {lam} at k = {k}")
        if (drop - odd) % 2 or drop > k:
            raise DomainError(f"{mu} is outside the even-row domain at k = {k}")
        lo, hi = halves(lam)
        nu_half = apply_rule(pf.base, lo, hi, (k - odd) // 2, phi_halve(mu))
        return phi_double(nu_half)
    if fam is Family.EVEN_COLS:
        conj = conjugate(lam)
        odd_cols = odd_part_count(conj)
        if k != odd_cols:
            raise DomainError(f"no even-column partners of {lam} at k = {k}")
        expect_mu = conjugate(partition(c - (c % 2) for c in conj))
        if mu != expect_mu:
            raise DomainError(f"{mu} is not the even-column partner of {lam}")
        return conjugate(partition(c + (c % 2) for c in conj))
    # asymmetric families
    sign = 1 if fam is Family.ASYM_PLUS else -1
    coords = frobenius(lam)
    idx = _index_sets(coords, sign)
    if not idx.exists:
        raise DomainError(f"{lam} admits no {sign:+d}-asymmetric partners")
    chosen = _asym_down_choice(coords, idx, sign, mu)
    ranks = sorted(idx.r_indices)
    sub = sorted(ranks.index(i) for i in chosen)  # 0-based ranks into R
    drop = size(lam) - size(mu)
    s_sorted = sorted(idx.s_indices)
    if sign == 1:
        if k != drop:
            raise DomainError(f"asym+1 projections preserve size; k = {k} != {drop}")
        s_chosen = {s_sorted[t] for t in sub}
    else:
        # s_sorted = (s_0, ..., s_n); row* pads with s_0, col* shifts down
        if pf.star is StarVariant.ROW_STAR:
            s_chosen = {s_sorted[t + 1] for t in sub}
            if k == drop + 2:
                s_chosen.add(s_sorted[0])
            elif k != drop:
                raise DomainError(f"k = {k} is not |lam/mu| or |lam/mu| + 2")
        else:
            s_chosen = {s_sorted[t] for t in sub}
            if k == drop + 2:
                s_chosen.add(s_sorted[-1])
            elif k != drop:
                raise DomainError(f"k = {k} is not |lam/mu| or |lam/mu| + 2")
    return _asym_up_from_choice(coords, idx, sign, frozenset(s_chosen))


def proj_unapply(pf: ProjRule, lam: Partition, nu: Partition) -> tuple[Partition, int]:
    """Invert proj_apply: returns (mu, c) with c = |nu/lam| - |lam/mu|."""
    if not is_horizontal_strip(lam, nu):
        raise DomainError(f"{nu}/{lam} is not a horizontal strip")
    if not member(nu, pf.family):
        raise DomainError(f"{nu} is not in family {pf.family.value}")
    k = size(nu) - size(lam)
    fam = pf.family
    if fam is Family.ALL:
        mu, a = unapply_rule(pf.base, lam, lam, nu)
        return mu, a
    if fam is Family.EVEN_ROWS:
        lo, hi = halves(lam)
        mu_half, _ = unapply_rule(pf.base, lo, hi, phi_halve(nu))
        mu = phi_double(mu_half)
        return mu, k - (size(lam) - size(mu))
    if fam is Family.EVEN_COLS:
        conj = conjugate(lam)
        expect_nu = conjugate(partition(c + (c % 2) for c in conj))
        if nu != expect_nu:
            raise DomainError(f"{nu} is not the even-column partner of {lam}")
        return conjugate(partition(c - (c % 2) for c in conj)), 0
    sign = 1 if fam is Family.ASYM_PLUS else -1
    coords = frobenius(lam)
    idx = _index_sets(coords, sign)
    if not idx.exists:
        raise DomainError(f"{lam} admits no {sign:+d}-asymmetric partners")
    s_sorted = sorted(idx.s_indices)
    s_chosen = _asym_up_choice(coords, idx, sign, nu)
    ranks = sorted(idx.r_indices)
    if sign == 1:
        sub = sorted(s_sorted.index(i) for i in s_chosen)
        c = 0
    elif pf.star is StarVariant.ROW_STAR:
        c = 2 if s_sorted and s_sorted[0] in s_chosen else 0
        sub = sorted(s_sorted.index(i) - 1 for i in s_chosen if i != s_sorted[0])
    else:
        c = 2 if s_sorted and s_sorted[-1] in s_chosen else 0
        sub = sorted(s_sorted.index(i) for i in s_chosen if i != s_sorted[-1])
    r_chosen = frozenset(ranks[t] for t in sub)
    return _asym_down_from_choice(coords, idx, sign, r_chosen), c


def _asym_up_choice(
    coords: FrobeniusCoords, idx: AsymIndexSets, sign: int, nu: Partition
) -> frozenset[int]:
    """Which free S indices take the larger coordinate in nu.

    Validated by reconstructing nu from the extracted choice set.
    """
    a, b = coords
    l = len(a)
    na, nb = frobenius(nu)
    if sign == 1:
        if tuple(x + 1 for x in na) != nb or len(na) != l:
            raise DomainError(f"{nu} is not a +1-asymmetric partner")
        cs = list(na)
        highs = [b[i] for i in range(l)]
    else:
        if tuple(x + 1 for x in nb) != na or len(na) not in (l, l + 1):
            raise DomainError(f"{nu} is not a -1-asymmetric partner")
        cs = list(nb) + [-1] * (l + 1 - len(nb))
        highs = [b[i] + 1 for i in range(l)] + [0]
    chosen = frozenset(i for i in idx.s_indices if cs[i - 1] == highs[i - 1])
    if _asym_up_from_choice(coords, idx, sign, chosen) != nu:
        raise DomainError(f"{nu} is not a {sign:+d}-asymmetric successor")
    return chosen


def _asym_down_from_choice(
    coords: FrobeniusCoords, idx: AsymIndexSets, sign: int, chosen: frozenset[int]
) -> Partition:
    """The mu below lam whose free choices take the deeper removal at ``chosen``."""
    a, b = coords
    l = len(a)
    free = set(idx.r_indices)
    ds = []
    for i in range(1, l + 1):
        b_i = b[i - 1]
        next_b = b[i] if i < l else -1
        if sign == 1:
            deep, shallow = a[i - 1] - 1, a[i - 1]
            forced_deep = a[i - 1] == b_i
            forced_shallow = a[i - 1] == next_b
        else:
            deep, shallow = a[i - 1] - 2, a[i - 1] - 1
            forced_deep = a[i - 1] == b_i + 2
            forced_shallow = a[i - 1] <= next_b + 2
        if i in chosen:
            ds.append(deep)
        elif i in free:
            ds.append(shallow)
        elif forced_deep:
            ds.append(deep)
        elif forced_shallow:
            ds.append(shallow)
        else:
            raise DomainError(f"{coords} admits no {sign:+d}-asymmetric partner below")
    ds = [d for d in ds if d >= 0]
    if sign == 1:
        return from_frobenius(FrobeniusCoords(tuple(ds), tuple(d + 1 for d in ds)))
    return from_frobenius(FrobeniusCoords(tuple(d + 1 for d in ds), tuple(ds)))
