import re

import pytest

from oracle import (
    AsymIndexSets,
    asym_indices,
    even_col_partners,
    family_down_set,
    family_up_set,
    proj_domain,
)
from growthdiagrams import (
    DomainError,
    Family,
    FrobeniusCoords,
    Rule,
    StarVariant,
    enumerate_partitions,
    frobenius,
    from_frobenius,
    halves,
    is_horizontal_strip,
    littlewood_variant,
    member,
    phi_double,
    phi_halve,
    proj_apply,
    proj_unapply,
    size,
    up_set,
    down_set,
)
from growthdiagrams.partitions import horizontal_strips_over, sub_partitions
from growthdiagrams.projections import LITTLEWOOD


def test_proj_sets_examples():
    # for the full family the sets coincide with the self-pair up/down sets
    lam = (3, 2)
    for k in range(4):
        down, up = proj_domain(Family.ALL, lam, k), family_up_set(Family.ALL, lam, k)
        assert up == up_set(lam, lam, k)
        assert sorted(set(down)) == sorted(
            {mu for i in range(k + 1) for mu in down_set(lam, lam, i)}
        )
    # even columns: nonempty only at k = number of odd columns
    for family, lam, k, expect in [(Family.EVEN_COLS, (2, 2), 0, [(2, 2)]),
                                   (Family.EVEN_COLS, (2, 2), 1, []),
                                   (Family.ASYM_PLUS, (), 0, [()])]:
        assert proj_domain(family, lam, k) == family_up_set(family, lam, k) == expect


def test_phi():
    assert halves((11, 6, 3)) == ((5, 3, 1), (6, 3, 2))
    assert phi_double((5, 3, 1)) == (10, 6, 2)
    assert phi_halve((10, 6, 2)) == (5, 3, 1)
    with pytest.raises(DomainError):
        phi_halve((3, 2))
    from growthdiagrams.partitions import odd_part_count

    assert odd_part_count((11, 6, 3)) == 2


def test_asym_indices_figures():
    lam = from_frobenius(FrobeniusCoords((7, 5, 3, 2, 0), (10, 7, 4, 2, 1)))
    idx = asym_indices(lam, 1)
    assert idx.exists
    assert idx.r_indices == (2, 3, 5)
    assert idx.s_indices == (1, 3, 5)
    lam = from_frobenius(FrobeniusCoords((7, 5, 3, 2), (8, 5, 2, 0)))
    idx = asym_indices(lam, -1)
    assert idx.exists
    assert idx.r_indices == (2, 3)
    assert idx.s_indices == (1, 3, 5)
    empty_plus = asym_indices((), 1)
    assert empty_plus.exists and empty_plus.r_indices == () and empty_plus.s_indices == ()
    assert asym_indices((), -1).s_indices == (1,)


def test_asym_indices_nonexistence():
    # (3,3,3) has Frobenius (2,1,0 | 2,1,0); vertical-strip -1-partners need
    # a_i <= b_i + 2 and a_i >= b_{i+1} + 2, which fails here
    idx = asym_indices((3, 3, 3), -1)
    assert not idx.exists and idx.r_indices == () and idx.s_indices == ()
    for lam in enumerate_partitions(8):
        for sign in (1, -1):
            idx = asym_indices(lam, sign)
            has_partner = bool(
                family_up_set(Family.ASYM_PLUS if sign == 1 else Family.ASYM_MINUS,
                              lam, 0)
                or any(
                    family_up_set(
                        Family.ASYM_PLUS if sign == 1 else Family.ASYM_MINUS, lam, k
                    )
                    for k in range(sum(lam) + 3)
                )
            )
            assert idx.exists == has_partner, (lam, sign)


def test_zigzag_counts():
    for lam in enumerate_partitions(10):
        plus = asym_indices(lam, 1)
        minus = asym_indices(lam, -1)
        if plus.exists:
            assert len(plus.s_indices) == len(plus.r_indices)
        if minus.exists:
            assert len(minus.s_indices) == len(minus.r_indices) + 1


def test_proj_apply_examples():
    # entry c = 0 adds as many cells as lam/mu has: |nu/lam| = |(3,2)/(2,1)| = 2
    assert proj_apply(littlewood_variant(Family.ALL, Rule.ROW), (3, 2), 0, (2, 1)) == (3, 3, 1)
    # even columns: (2,2,1,1)' = (4,2) has no odd column, the map is forced
    pf = littlewood_variant(Family.EVEN_COLS)
    assert proj_apply(pf, (2, 2, 1, 1), 0, (2, 2, 1, 1)) == (2, 2, 1, 1)
    assert proj_unapply(pf, (2, 2, 1, 1), (2, 2, 1, 1)) == ((2, 2, 1, 1), 0)
    # (3,1)' = (2,1,1): columns 2 and 3 are odd, so two cells move
    down, up = proj_domain(Family.EVEN_COLS, (3, 1), 2), family_up_set(Family.EVEN_COLS, (3, 1), 2)
    assert down == [(1, 1)] and up == [(3, 3)]
    assert proj_apply(pf, (3, 1), 0, (1, 1)) == (3, 3)


def test_proj_errors():
    # k = 1 at lam = (3,1), mu = (2,) is c = k - |lam/mu| = -1; at c = 0, mu is no partner
    cols = littlewood_variant(Family.EVEN_COLS)
    with pytest.raises(DomainError, match="c must be >= 0"):
        proj_apply(cols, (3, 1), -1, (2,))
    with pytest.raises(DomainError, match="not the even-column partner"):
        proj_apply(cols, (3, 1), 0, (2,))
    with pytest.raises(DomainError, match="even entry"):
        proj_apply(littlewood_variant(Family.EVEN_ROWS), (2, 2), 1, (2, 2))
    with pytest.raises(DomainError, match="admits no -1-asymmetric partners"):
        proj_apply(littlewood_variant(Family.ASYM_MINUS), (3, 3, 3), 0, (3, 3, 3))
    with pytest.raises(ValueError):
        littlewood_variant(Family.ASYM_PLUS, star=StarVariant.COL_STAR)
    with pytest.raises(ValueError):
        littlewood_variant(Family.ALL, Rule.DUAL_ROW)


def test_even_cols_match_partner_reference():
    """Even-cols' row-pair maps against the oracle's route through conjugation:
    at lam only the partner mu maps, at its one k, to the partner nu, and
    unapply takes nu back and refuses every other horizontal strip over lam."""
    pf = littlewood_variant(Family.EVEN_COLS)
    for lam in enumerate_partitions(14):
        mu_ref, nu_ref, k_ref = even_col_partners(lam)
        for mu in sub_partitions(lam):
            for k in range(7):
                expect = nu_ref if (mu, k) == (mu_ref, k_ref) else DomainError
                got = _outcome(proj_apply, pf, lam, k - size(lam) + size(mu), mu)
                assert got == expect, (lam, k, mu)
        assert proj_unapply(pf, lam, nu_ref) == (mu_ref, 0), lam
        for nu in horizontal_strips_over(lam, 6):
            expect = (mu_ref, 0) if nu == nu_ref else DomainError
            assert _outcome(proj_unapply, pf, lam, nu) == expect, (lam, nu)


@pytest.mark.parametrize(
    "family,variants",
    [
        (Family.ALL, [littlewood_variant(Family.ALL, Rule.ROW),
                      littlewood_variant(Family.ALL, Rule.COL)]),
        (Family.EVEN_ROWS, [littlewood_variant(Family.EVEN_ROWS, Rule.COL),
                            littlewood_variant(Family.EVEN_ROWS, Rule.ROW)]),
        (Family.EVEN_COLS, [littlewood_variant(Family.EVEN_COLS)]),
        (Family.ASYM_PLUS, [littlewood_variant(Family.ASYM_PLUS)]),
        (Family.ASYM_MINUS, [littlewood_variant(Family.ASYM_MINUS),
                             littlewood_variant(Family.ASYM_MINUS, star=StarVariant.COL_STAR)]),
    ],
)
def test_proj_bijectivity(family, variants):
    for lam in enumerate_partitions(8):
        for k in range(5):
            down, up = proj_domain(family, lam, k), family_up_set(family, lam, k)
            assert len(down) == len(up)
            for pf in variants:
                image = []
                for mu in down:
                    nu = proj_apply(pf, lam, k - size(lam) + size(mu), mu)
                    image.append(nu)
                    back, c = proj_unapply(pf, lam, nu)
                    assert back == mu
                    assert c == k - (size(lam) - size(mu))
                assert sorted(image) == up, (family, lam, k)


ALL_VARIANTS = [
    littlewood_variant(family, rule, star)
    for family, row in LITTLEWOOD.items()
    for rule in Rule if rule.dual == row.dual
    for star in row.stars
]


def _variant_id(v):
    return "-".join(x.value for x in (v.family, v.base_rule, v.star) if x)


@pytest.mark.parametrize("variant", ALL_VARIANTS, ids=_variant_id)
def test_unapply_refuses_every_non_member(variant):
    """Each family's own branch refuses a nu outside the family: the asym
    option tables, even-rows' halving, even-cols' forced partner."""
    shapes = enumerate_partitions(9)
    refused = 0
    for lam in shapes:
        for nu in shapes:
            if is_horizontal_strip(lam, nu) and not member(nu, variant.family):
                with pytest.raises(DomainError):
                    proj_unapply(variant, lam, nu)
                refused += 1
    assert refused or variant.family is Family.ALL


#: per family with a restricted diagonal, the entries c it refuses and the refusal's words
ENTRY_REFUSALS = {
    Family.EVEN_ROWS: (lambda c: c & 1, "even-row projections take an even entry"),
    Family.EVEN_COLS: (lambda c: c != 0, "even-column projections take entry 0"),
    Family.ASYM_PLUS: (lambda c: c != 0, "is not 0 or, for asym-1, 2"),
    Family.ASYM_MINUS: (lambda c: c not in (0, 2), "is not 0 or, for asym-1, 2"),
}


@pytest.mark.parametrize("variant", ALL_VARIANTS, ids=_variant_id)
def test_proj_apply_refuses_each_entry_outside_its_family(variant):
    """c < 0 for every family, an odd c for even-rows, c != 0 for even-cols and
    asym+1, c outside {0, 2} for asym-1; every mu below lam in the family takes
    every other entry."""
    refused, words = ENTRY_REFUSALS.get(variant.family, (lambda c: False, None))
    checked = 0
    for lam in enumerate_partitions(6):
        for mu in {mu for d in range(5) for mu in family_down_set(variant.family, lam, d)}:
            for c in range(-2, 5):
                if c < 0 or refused(c):
                    with pytest.raises(DomainError, match="c must be >= 0" if c < 0 else words):
                        proj_apply(variant, lam, c, mu)
                    checked += c >= 0
                else:
                    assert size(proj_apply(variant, lam, c, mu)) == 2 * size(lam) - size(mu) + c
    assert checked or variant.family is Family.ALL


@pytest.mark.parametrize("variant", ALL_VARIANTS, ids=_variant_id)
def test_proj_apply_and_unapply_are_exact_inverses(variant):
    """proj_apply(v, lam, c, mu) == nu exactly when proj_unapply(v, lam, nu) == (mu, c)."""
    shapes = enumerate_partitions(7)
    for lam in shapes:
        for mu in shapes:
            for c in range(4):
                nu = _outcome(proj_apply, variant, lam, c, mu)
                if nu is not DomainError:
                    assert proj_unapply(variant, lam, nu) == (mu, c), (lam, c, mu)
        for nu in shapes:
            back = _outcome(proj_unapply, variant, lam, nu)
            if back is not DomainError:
                mu, c = back
                assert proj_apply(variant, lam, c, mu) == nu, (lam, nu)


def test_projection_cardinality_laws():
    for lam in enumerate_partitions(8):
        for k in range(5):
            assert len(family_up_set(Family.ALL, lam, k)) == sum(
                len(family_down_set(Family.ALL, lam, i)) for i in range(k + 1)
            )
            assert len(family_up_set(Family.EVEN_ROWS, lam, k)) == sum(
                len(family_down_set(Family.EVEN_ROWS, lam, k - 2 * i))
                for i in range(k // 2 + 1)
            )
            assert len(family_up_set(Family.EVEN_COLS, lam, k)) == len(
                family_down_set(Family.EVEN_COLS, lam, k)
            )
            assert len(family_up_set(Family.ASYM_PLUS, lam, k)) == len(
                family_down_set(Family.ASYM_PLUS, lam, k)
            )
            expect = len(family_down_set(Family.ASYM_MINUS, lam, k))
            if k >= 2:
                expect += len(family_down_set(Family.ASYM_MINUS, lam, k - 2))
            assert len(family_up_set(Family.ASYM_MINUS, lam, k)) == expect


def test_asym_size_relations():
    """+1 transports preserve size; -1 transports change it by 0 or 2."""
    pf_plus = littlewood_variant(Family.ASYM_PLUS)
    for lam in enumerate_partitions(8):
        for k in range(5):
            for mu in proj_domain(Family.ASYM_PLUS, lam, k):
                nu = proj_apply(pf_plus, lam, k - size(lam) + size(mu), mu)
                assert size(nu) - size(lam) == size(lam) - size(mu)
            for mu in proj_domain(Family.ASYM_MINUS, lam, k):
                c = k - size(lam) + size(mu)
                nu = proj_apply(littlewood_variant(Family.ASYM_MINUS), lam, c, mu)
                assert (size(nu) - size(lam)) - (size(lam) - size(mu)) in (0, 2)


# ---------------------------------------------------------------------------
# Reference for the asymmetric projections: index-set transport written case
# by case (free and forced values per index, each choice read back and checked
# by rebuilding the partition).  The option-table implementation must be the
# same bijection, value for value and DomainError for DomainError.

def _ref_index_sets(coords, sign):
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


def _ref_up_from_choice(coords, idx, sign, chosen):
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


def _ref_down_choice(coords, idx, sign, mu):
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
    if _ref_down_from_choice(coords, idx, sign, chosen) != mu:
        raise DomainError(f"{mu} is not a {sign:+d}-asymmetric predecessor")
    return chosen


def _ref_up_choice(coords, idx, sign, nu):
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
    if _ref_up_from_choice(coords, idx, sign, chosen) != nu:
        raise DomainError(f"{nu} is not a {sign:+d}-asymmetric successor")
    return chosen


def _ref_down_from_choice(coords, idx, sign, chosen):
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


def _ref_apply(pf, lam, k, mu):
    if k < 0:
        raise DomainError("k must be >= 0")
    fam = pf.family
    sign = 1 if fam is Family.ASYM_PLUS else -1
    coords = frobenius(lam)
    idx = _ref_index_sets(coords, sign)
    if not idx.exists:
        raise DomainError(f"{lam} admits no {sign:+d}-asymmetric partners")
    chosen = _ref_down_choice(coords, idx, sign, mu)
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
    return _ref_up_from_choice(coords, idx, sign, frozenset(s_chosen))


def _ref_unapply(pf, lam, nu):
    if not is_horizontal_strip(lam, nu):
        raise DomainError(f"{nu}/{lam} is not a horizontal strip")
    if not member(nu, pf.family):
        raise DomainError(f"{nu} is not in family {pf.family.value}")
    fam = pf.family
    sign = 1 if fam is Family.ASYM_PLUS else -1
    coords = frobenius(lam)
    idx = _ref_index_sets(coords, sign)
    if not idx.exists:
        raise DomainError(f"{lam} admits no {sign:+d}-asymmetric partners")
    s_sorted = sorted(idx.s_indices)
    s_chosen = _ref_up_choice(coords, idx, sign, nu)
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
    return _ref_down_from_choice(coords, idx, sign, r_chosen), c


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DomainError:
        return DomainError


def test_asym_projections_match_index_set_reference():
    for lam in enumerate_partitions(12):
        for sign in (1, -1):
            assert asym_indices(lam, sign) == _ref_index_sets(frobenius(lam), sign), (lam, sign)
    rules = [
        littlewood_variant(Family.ASYM_PLUS),
        littlewood_variant(Family.ASYM_MINUS),
        littlewood_variant(Family.ASYM_MINUS, star=StarVariant.COL_STAR),
    ]
    # size 8 is the first with two free indices for asym+1: (3,2,2,1) = (2,0 | 3,1);
    # mu runs over the partitions no larger than lam, nu over those no smaller
    parts = enumerate_partitions(8)
    for pf in rules:
        for lam in parts:
            for other in parts:
                if size(other) <= size(lam):
                    for k in range(7):
                        c = k - size(lam) + size(other)
                        got = _outcome(proj_apply, pf, lam, c, other)
                        assert got == _outcome(_ref_apply, pf, lam, k, other), (pf, lam, k, other)
                if size(other) >= size(lam):
                    got = _outcome(proj_unapply, pf, lam, other)
                    assert got == _outcome(_ref_unapply, pf, lam, other), (pf, lam, other)


@pytest.mark.parametrize("family,star", [("asym+1", None), ("asym-1", "row*"), ("asym-1", "col*")])
def test_asym_refusals_name_the_first_fault(family, star):
    """Each asym refusal's message, for both maps, and their order: c < 0, then
    lam, then the target (its family, its coordinate count, its values), then c."""
    v = littlewood_variant(family, star=star)
    sign, lonely, many, below = (("+1", (2,), (1, 1), (2, 1, 1)) if family == "asym+1"
                                 else ("-1", (2, 2), (3, 3), (2,)))
    lam_fault = f"{lonely} admits no {sign}-asymmetric partners"
    cases = [
        (proj_apply, (lonely, -1, (1,)), "c must be >= 0"),
        (proj_apply, (lonely, 0, (1,)), lam_fault),
        (proj_unapply, (lonely, (1,)), lam_fault),
        (proj_apply, ((), 0, (2, 2)), f"(2, 2) is not {sign}-asymmetric"),
        (proj_unapply, ((), (2, 2)), f"(2, 2) is not {sign}-asymmetric"),
        (proj_apply, ((), 0, many), f"{many} has too many Frobenius coordinates"),
        (proj_unapply, ((), many), f"{many} has too many Frobenius coordinates"),
        (proj_apply, ((1, 1), 0, below), f"{below} is not a {sign}-asymmetric partner"),
        (proj_unapply, ((1, 1), ()), f"() is not a {sign}-asymmetric partner"),
        (proj_apply, ((), 1, (2, 2)), f"(2, 2) is not {sign}-asymmetric"),
        (proj_apply, ((), 1, ()), "c = 1 is not 0 or, for asym-1, 2"),
        (proj_apply, ((), 3, ()), "c = 3 is not 0 or, for asym-1, 2"),
    ]
    if family == "asym+1":
        cases.append((proj_apply, ((), 2, ()), "c = 2 is not 0 or, for asym-1, 2"))
    for fn, args, message in cases:
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            fn(v, *args)
