import pytest
from hypothesis import given, settings, strategies as st

import oracle
from growthdiagrams import (
    CapacityError,
    Direction,
    DomainError,
    INFINITE,
    ProfileKind,
    decode,
    down_set,
    encode,
    profile,
    up_set,
)
from growthdiagrams.interlacing import down_sets_through, up_sets_through
from growthdiagrams.partitions import enumerate_partitions


def entries(prof):
    return [(e.position, e.row, e.capacity) for e in prof.entries]


def test_profile_figure2():
    lam, rho = (10, 5, 3, 2), (9, 7, 3, 3)
    assert entries(profile(lam, rho, ProfileKind.REMOVABLE)) == [
        (1, 1, 2), (2, 2, 2), (3, 4, 2),
    ]
    assert entries(profile(lam, rho, ProfileKind.ADDABLE)) == [
        (0, 1, INFINITE), (1, 2, 2), (2, 3, 2), (3, 5, 2),
    ]


def test_profile_self_pair():
    # lam = rho: removable ribbons are the maximal horizontal inner ribbons
    lam = (3, 2)
    assert entries(profile(lam, lam, ProfileKind.REMOVABLE)) == [(1, 1, 1), (2, 2, 2)]
    assert entries(profile(lam, lam, ProfileKind.ADDABLE)) == [
        (0, 1, INFINITE), (1, 2, 1), (2, 3, 2),
    ]


def test_dual_profile_figure1():
    lam, rho = (9, 7, 4, 4, 4), (7, 7, 5, 5, 2, 1)
    assert entries(profile(lam, rho, ProfileKind.DUAL_REMOVABLE)) == [
        (1, 2, 1), (2, 5, 1),
    ]
    assert entries(profile(lam, rho, ProfileKind.DUAL_ADDABLE)) == [
        (0, 1, 1), (1, 5, 1), (2, 7, 1),
    ]


def test_up_down_set_examples():
    for k in (1, 2, 3):
        assert up_set((), (), k) == [(k,)]
    assert len(up_set((3, 2), (3, 2), 2)) == 5
    assert sum(len(down_set((3, 2), (3, 2), i)) for i in range(3)) == 5
    assert len(up_set((9, 7, 4, 4, 4), (7, 7, 5, 5, 2, 1), 1, dual=True)) == 3
    assert len(down_set((9, 7, 4, 4, 4), (7, 7, 5, 5, 2, 1), 1, dual=True)) == 2
    # down_set at k=0 is {lam ^ rho} exactly when the meet interlaces both
    assert down_set((3, 2), (2, 2), 0) == [(2, 2)]
    assert down_set((3, 3), (1,), 0) == []


@pytest.mark.parametrize("dual", [False, True])
def test_sets_match_cell_oracle(dual):
    pairs = oracle.all_partitions(5)
    for lam in pairs:
        for rho in pairs:
            for k in range(4):
                assert up_set(lam, rho, k, dual) == oracle.up_set(lam, rho, k, dual), (
                    lam, rho, k,
                )
                assert down_set(lam, rho, k, dual) == oracle.down_set(lam, rho, k, dual)


def test_batched_enumeration_consistency():
    """up_set and down_set cut their one size straight from the interval and
    list the same bucket as the batched enumerators: the 3x3 box, k <= 5."""
    box = enumerate_partitions(9, (3, 3))
    for lam, rho in [((4, 2, 1), (3, 3))] + [(lam, rho) for lam in box for rho in box]:
        for dual in (False, True):
            ups = up_sets_through(lam, rho, 5, dual)
            downs = down_sets_through(lam, rho, 5, dual)
            for k in range(6):
                assert ups[k] == up_set(lam, rho, k, dual)
                assert downs[k] == down_set(lam, rho, k, dual), (lam, rho, k, dual)


def test_sets_match_interval_reference():
    """Every up/down set and batch over the 3x3 box, k <= 4, in both dualities,
    equals the oracle's recursive interval search, order included."""
    box = enumerate_partitions(9, (3, 3))
    for lam in box:
        for rho in box:
            for dual in (False, True):
                case = (lam, rho, dual)
                assert up_sets_through(lam, rho, 4, dual) == oracle.interval_up_sets_through(
                    lam, rho, 4, dual), case
                assert down_sets_through(lam, rho, 4, dual) == (
                    oracle.interval_down_sets_through(lam, rho, 4, dual)), case
                for k in range(5):
                    assert up_set(lam, rho, k, dual) == oracle.interval_up_set(
                        lam, rho, k, dual), (case, k)
                    assert down_set(lam, rho, k, dual) == oracle.interval_down_set(
                        lam, rho, k, dual), (case, k)


def test_deep_columns_need_no_recursion():
    """Sets around a 2,000-row column: the recursive interval search ran past
    Python's recursion limit on each of these."""
    column = (1,) * 2000
    for dual in (False, True):
        assert up_set(column, column, 1, dual) == [column + (1,), (2,) + column[1:]]
        assert down_set(column, column, 1, dual) == [column[1:]]
        assert up_sets_through(column, column, 1, dual)[1] == up_set(column, column, 1, dual)
        assert down_sets_through(column, column, 1, dual) == [[column], [column[1:]]]


def test_down_set_cuts_a_huge_k_without_buckets():
    """k exceeds |lam ^ rho|, so the set is empty, and down_set finds that
    from its one size without building k + 1 buckets."""
    assert down_set((1,), (1,), 2**70) == []
    assert down_set((1,), (1,), 2**70, dual=True) == []


def test_cardinality_laws_small():
    parts = oracle.all_partitions(6)
    for lam in parts:
        for rho in parts:
            D = down_sets_through(lam, rho, 4)
            U = up_sets_through(lam, rho, 4)
            Ds = down_sets_through(lam, rho, 4, dual=True)
            Us = up_sets_through(lam, rho, 4, dual=True)
            acc = 0
            for k in range(5):
                acc += len(D[k])
                assert len(U[k]) == acc
                assert len(Us[k]) == len(Ds[k]) + (len(Ds[k - 1]) if k else 0)


def test_encode_examples():
    lam = (3, 2)
    assert encode((2, 1), lam, lam, Direction.DOWN) == {1: 1, 2: 1}
    assert decode({0: 2}, lam, lam, Direction.UP) == (5, 2)
    assert decode({}, lam, lam, Direction.DOWN) == (3, 2)
    assert encode((3, 2), lam, lam, Direction.DOWN) == {}


def test_encode_decode_errors():
    lam = (3, 2)
    with pytest.raises(DomainError):
        encode((1,), lam, lam, Direction.DOWN)  # (3,2)/(1) not a horizontal strip
    with pytest.raises(CapacityError):
        decode({1: 5}, lam, lam, Direction.DOWN)
    with pytest.raises(DomainError):
        decode({7: 1}, lam, lam, Direction.UP)
    with pytest.raises(DomainError):
        decode({}, (3, 3), (1,), Direction.DOWN)  # incompatible pair, empty sets


def test_encode_decode_roundtrip_exhaustive():
    parts = oracle.all_partitions(6)
    for lam in parts:
        for rho in parts:
            for dual in (False, True):
                for k in range(4):
                    for mu in down_set(lam, rho, k, dual):
                        counts = encode(mu, lam, rho, Direction.DOWN, dual)
                        assert sum(counts.values()) == k
                        assert decode(counts, lam, rho, Direction.DOWN, dual) == mu
                        if dual:
                            assert all(c == 1 for c in counts.values())
                    for nu in up_set(lam, rho, k, dual):
                        counts = encode(nu, lam, rho, Direction.UP, dual)
                        assert sum(counts.values()) == k
                        assert decode(counts, lam, rho, Direction.UP, dual) == nu


@st.composite
def partition_pairs(draw):
    mk = lambda: tuple(
        sorted(draw(st.lists(st.integers(1, 5), max_size=5)), reverse=True)
    )
    return mk(), mk()


@given(partition_pairs())
@settings(max_examples=60)
def test_profile_capacity_pairing(pair):
    """Addable capacity at position i equals removable capacity at position i,
    one row up; this is what makes the column-insertion pool well defined."""
    lam, rho = pair
    rem = profile(lam, rho, ProfileKind.REMOVABLE).entries
    add = profile(lam, rho, ProfileKind.ADDABLE).entries
    assert len(add) == len(rem) + 1
    assert add[0].position == 0 and add[0].row == 1 and add[0].capacity == INFINITE
    for r, a in zip(rem, add[1:]):
        assert a.position == r.position
        assert a.row == r.row + 1
        assert a.capacity == r.capacity


@given(partition_pairs())
@settings(max_examples=60)
def test_profile_d_matches_sets_on_compatible_pairs(pair):
    lam, rho = pair
    if down_set(lam, rho, 0):  # compatible pair
        d = len(profile(lam, rho, ProfileKind.REMOVABLE).entries)
        assert d == len(down_set(lam, rho, 1))
    if down_set(lam, rho, 0, dual=True):
        d = len(profile(lam, rho, ProfileKind.DUAL_REMOVABLE).entries)
        assert d == len(down_set(lam, rho, 1, dual=True))
        add = profile(lam, rho, ProfileKind.DUAL_ADDABLE).entries
        assert all(e.capacity == 1 for e in add)
