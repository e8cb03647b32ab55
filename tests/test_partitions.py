import re

from hypothesis import given, strategies as st
import pytest

import oracle
from growthdiagrams import (
    EMPTY,
    Family,
    FrobeniusCoords,
    conjugate,
    contains,
    enumerate_partitions,
    frobenius,
    from_frobenius,
    is_horizontal_strip,
    is_vertical_strip,
    join,
    meet,
    meet_join,
    member,
    partition,
    size,
)
from growthdiagrams.partitions import (
    horizontal_strips_over,
    horizontal_strips_under,
    partitions_of_size,
    sub_partitions,
    vertical_strips_over,
    vertical_strips_under,
)


@st.composite
def partitions(draw, max_part=6, max_rows=6):
    parts = draw(st.lists(st.integers(min_value=1, max_value=max_part), max_size=max_rows))
    return tuple(sorted(parts, reverse=True))


def test_partition_normalization():
    assert partition([3, 2, 0, 0]) == (3, 2)
    assert partition([]) == EMPTY
    with pytest.raises(ValueError):
        partition([1, 2])
    with pytest.raises(ValueError):
        partition([2, -1])
    for parts in ([2.7, 1], [True], ["2"]):
        with pytest.raises(ValueError, match="non-integer part"):
            partition(parts)


def test_conjugate_examples():
    assert conjugate((6, 5, 3, 3, 1)) == (5, 4, 4, 2, 2, 1)
    assert conjugate(EMPTY) == EMPTY
    assert conjugate((4,)) == (1, 1, 1, 1)


def test_frobenius_examples():
    assert frobenius((6, 5, 3, 3, 1)) == FrobeniusCoords((5, 3, 0), (4, 2, 1))
    assert frobenius((5, 4, 4, 2, 2, 1)) == FrobeniusCoords((4, 2, 1), (5, 3, 0))
    assert frobenius(EMPTY) == FrobeniusCoords((), ())
    assert from_frobenius(FrobeniusCoords((), ())) == EMPTY


def test_from_frobenius_validation():
    with pytest.raises(ValueError):
        from_frobenius(FrobeniusCoords((3, 3), (1, 0)))
    with pytest.raises(ValueError):
        from_frobenius(FrobeniusCoords((3,), (1, 0)))
    with pytest.raises(ValueError):
        from_frobenius(FrobeniusCoords((-1,), (0,)))


def test_frobenius_roundtrip_and_conjugation_swap():
    for lam in enumerate_partitions(12):
        assert from_frobenius(frobenius(lam)) == lam
        assert conjugate(conjugate(lam)) == lam
        arms, legs = frobenius(lam)
        assert frobenius(conjugate(lam)) == FrobeniusCoords(legs, arms)


def test_primitives_match_cell_oracle_exhaustively():
    """The O(rows) conjugate, Frobenius coordinates, row builder and family
    tests against the cell-set references, on every partition of size <= 16."""
    for lam in oracle.all_partitions(16):
        assert conjugate(lam) == oracle.conjugate(lam), lam
        coords = frobenius(lam)
        assert coords == oracle.frobenius(lam), lam
        assert from_frobenius(coords) == lam
        for family in Family:
            assert member(lam, family) == oracle.member(lam, family), (lam, family)


def test_meet_join_examples():
    assert meet_join((9, 7, 4, 4, 4), (7, 7, 5, 5, 2, 1)) == (
        (7, 7, 4, 4, 2),
        (9, 7, 5, 5, 4, 1),
    )
    assert meet_join((10, 5, 3, 2), (9, 7, 3, 3)) == ((9, 5, 3, 2), (10, 7, 3, 3))
    lam = (4, 2, 1)
    assert meet_join(lam, lam) == (lam, lam)


@given(partitions(), partitions())
def test_meet_join_laws(lam, rho):
    lo, hi = meet(lam, rho), join(lam, rho)
    assert contains(lo, lam) and contains(lo, rho)
    assert contains(lam, hi) and contains(rho, hi)
    assert size(lo) + size(hi) == size(lam) + size(rho)


def test_strip_examples():
    assert is_horizontal_strip((2,), (3, 2))
    assert not is_horizontal_strip((1,), (3, 2))
    # derived by counting cells per row/column of (3,3)/(2,2)
    assert oracle.vert_strip((2, 2), (3, 3)) and not oracle.horiz_strip((2, 2), (3, 3))
    assert is_vertical_strip((2, 2), (3, 3))
    assert not is_horizontal_strip((2, 2), (3, 3))
    assert not is_horizontal_strip((3, 2), (2,))  # mu not inside lam


@given(partitions(), partitions())
def test_strips_match_cell_oracle_and_conjugate_duality(mu, lam):
    assert is_horizontal_strip(mu, lam) == oracle.horiz_strip(mu, lam)
    assert is_vertical_strip(mu, lam) == oracle.vert_strip(mu, lam)
    assert is_horizontal_strip(mu, lam) == is_vertical_strip(conjugate(mu), conjugate(lam))


def test_strips_match_cell_oracle_exhaustively():
    shapes = enumerate_partitions(7)
    for mu in shapes:
        for lam in shapes:
            assert is_horizontal_strip(mu, lam) == oracle.horiz_strip(mu, lam), (mu, lam)
            assert is_vertical_strip(mu, lam) == oracle.vert_strip(mu, lam), (mu, lam)


def test_member():
    assert member((2, 2), Family.EVEN_COLS)
    assert not member((3, 2), Family.EVEN_ROWS)
    assert member((4, 2), Family.EVEN_ROWS)
    assert member((7, 7), Family.ALL)
    # (6,5,3,3,1) has Frobenius (5,3,0|4,2,1): arms - legs = (1,1,-1), so it is
    # not -1-asymmetric (the componentwise shift fails at the third coordinate)
    assert not member((6, 5, 3, 3, 1), Family.ASYM_MINUS)
    assert not member((6, 5, 3, 3, 1), Family.ASYM_PLUS)
    assert member((2,), Family.ASYM_MINUS)  # (1|0)
    assert member((1, 1), Family.ASYM_PLUS)  # (0|1)
    assert member(EMPTY, Family.ASYM_PLUS) and member(EMPTY, Family.ASYM_MINUS)


def test_member_accepts_family_names():
    for family in Family:
        for lam in (EMPTY, (2,), (1, 1), (2, 2), (3, 1), (4, 4, 2, 2)):
            assert member(lam, family.value) == member(lam, family), (lam, family)
    with pytest.raises(ValueError, match=re.escape("unknown family 'even-col'")):
        member((2, 2), "even-col")


def test_member_asym_conjugation():
    for lam in enumerate_partitions(10):
        assert member(lam, Family.ASYM_PLUS) == member(conjugate(lam), Family.ASYM_MINUS)
        assert member(lam, Family.EVEN_ROWS) == member(conjugate(lam), Family.EVEN_COLS)


def test_enumerators_match_cell_oracle_exhaustively():
    small = oracle.all_partitions(6)
    pool = oracle.all_partitions(10)
    for mu in small:
        n = sum(mu)
        for strip, over in ((oracle.horiz_strip, horizontal_strips_over),
                            (oracle.vert_strip, vertical_strips_over)):
            above = [nu for nu in pool if strip(mu, nu)]
            for b in range(5):
                want = [nu for nu in above if sum(nu) - n <= b]
                assert over(mu, b) == sorted(want), (mu, b)
        for strip, under in ((oracle.horiz_strip, horizontal_strips_under),
                             (oracle.vert_strip, vertical_strips_under)):
            below = [nu for nu in small if strip(nu, mu)]
            for b in [None, 0, 1, 2, 3, 4]:
                want = [nu for nu in below if b is None or n - sum(nu) <= b]
                assert under(mu, b) == sorted(want, reverse=True), (mu, b)
        inside = [nu for nu in small if oracle.contains(nu, mu)]
        assert sub_partitions(mu) == sorted(inside, reverse=True), mu
    for s in range(11):
        assert partitions_of_size(s) == list(oracle.partitions_of(s))


def test_strip_enumerators_match_interval_reference():
    """The row-by-row strip sets equal the oracle's recursive interval search
    list for list, order included, on every shape of size <= 9, and at budgets
    20, 40 and 60 on every shape of size <= 3."""
    pairs = ((horizontal_strips_over, oracle.interval_horizontal_strips_over),
             (vertical_strips_over, oracle.interval_vertical_strips_over),
             (horizontal_strips_under, oracle.interval_horizontal_strips_under),
             (vertical_strips_under, oracle.interval_vertical_strips_under))
    for mu in oracle.all_partitions(9):
        wide = (20, 40, 60) if sum(mu) <= 3 else ()
        for new, ref in pairs:
            for b in (*range(-1, 7), *wide):
                assert new(mu, b) == ref(mu, b), (new.__name__, mu, b)
        for new, ref in pairs[2:]:
            assert new(mu, None) == ref(mu, None) == new(mu), (new.__name__, mu)


def test_box_and_size_enumerators_match_interval_reference():
    """sub_partitions, enumerate_partitions and partitions_of_size list what the
    oracle's recursive interval search lists, order included: every shape of
    size <= 12, every size <= 12 in every box up to 6 x 6, and size 30 unboxed."""
    for mu in oracle.all_partitions(12):
        assert sub_partitions(mu) == oracle.interval_sub_partitions(mu), mu
    boxes = [None] + [(rows, cols) for rows in range(7) for cols in range(7)]
    for m in range(13):
        for box in boxes:
            assert enumerate_partitions(m, box) == oracle.interval_enumerate_partitions(m, box)
            assert partitions_of_size(m, box) == oracle.interval_partitions_of_size(m, box)
    assert enumerate_partitions(30) == oracle.interval_enumerate_partitions(30)
    assert partitions_of_size(30) == oracle.interval_partitions_of_size(30)


def test_deep_strips_need_no_recursion():
    """Strips 2,000 rows deep: a recursive search ran past Python's recursion limit."""
    column = (1,) * 2000
    assert vertical_strips_over(EMPTY, 2000) == [column[:j] for j in range(2001)]
    assert vertical_strips_under(column) == [column[:j] for j in range(2000, -1, -1)]
    assert len(horizontal_strips_under(column)) == 2
    rest, new_row = column[1:], (1,)  # rows 2..2000 stay 1; the new row is 0 or 1
    assert horizontal_strips_over(column, 3) == [
        column, column + new_row, (2,) + rest, (2,) + rest + new_row,
        (3,) + rest, (3,) + rest + new_row, (4,) + rest]


def test_deep_boxes_need_no_recursion():
    """A 2,000-row column and the box around it: the recursive interval search
    ran past Python's recursion limit on each of these."""
    column = (1,) * 2000
    below = [column[:j] for j in range(2000, -1, -1)]
    assert sub_partitions(column) == below
    assert enumerate_partitions(2000, (2000, 1)) == below[::-1]
    assert partitions_of_size(2000, (2000, 1)) == [column]


def test_enumerate_partitions():
    assert enumerate_partitions(2) == [EMPTY, (1,), (2,), (1, 1)]
    assert enumerate_partitions(0) == [EMPTY]
    # p(0..4) = 1,1,2,3,5
    assert len(enumerate_partitions(4)) == 12
    box = enumerate_partitions(25, (5, 5))
    assert len(box) == 252  # C(10,5)
    assert all(len(p) <= 5 and (not p or p[0] <= 5) for p in box)
    assert enumerate_partitions(3) == [
        EMPTY, (1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1),
    ]
    for rows, cols in ((3, 4), (0, 2), (2, 0), (9, 1), (1, 9)):
        graded = [p for s in range(11) for p in oracle.partitions_of(s)
                  if len(p) <= rows and (not p or p[0] <= cols)]
        assert enumerate_partitions(10, (rows, cols)) == graded, (rows, cols)
    with pytest.raises(ValueError):
        enumerate_partitions(-1)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: enumerate_partitions(-1), "max_size: expected a non-negative integer, got -1"),
        (lambda: enumerate_partitions(3, box=(-1, 2)),
         "rows: expected a non-negative integer, got -1"),
        (lambda: enumerate_partitions(2, box=(2, -5)),
         "cols: expected a non-negative integer, got -5"),
        (lambda: partitions_of_size(-2), "s: expected a non-negative integer, got -2"),
        (lambda: partitions_of_size(2, (1.5, 2)),
         "rows: expected a non-negative integer, got 1.5"),
    ],
    ids=["max-size", "box-rows", "box-cols", "size", "box-float"],
)
def test_enumerators_refuse_negative_counts(call, message):
    """A negative size or box side is refused by field name, not read as 0."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
