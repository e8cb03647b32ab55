import random
import re
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import oracle
from growthdiagrams import (
    EMPTY,
    DomainError,
    Family,
    Rule,
    StepKind,
    TableauChain,
    build_growth,
    build_triangular,
    enumerate_triangular_growths,
    extract_P,
    littlewood_insert,
    littlewood_inverse,
    littlewood_map,
    littlewood_variant,
    triangular_array,
    triangular_insert,
)
from growthdiagrams.partitions import member
from growthdiagrams.projections import StarVariant
from growthdiagrams.triangular import (
    LittlewoodVariant,
    TriangularArray,
    validate_entries,
)

C_EXAMPLE = triangular_array([[0, 0, 1], [1, 0], [0]])

DIAGONALS = {
    Family.EVEN_COLS: (0,),
    Family.ALL: (0, 1, 2),
    Family.EVEN_ROWS: (0, 2),
    Family.ASYM_PLUS: (0,),
    Family.ASYM_MINUS: (0, 2),
}


def arrays(n, offdiag, diag):
    cells = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    for vals in product(*[(diag if i == j else offdiag) for i, j in cells]):
        rows = [[0] * (n - i + 1) for i in range(1, n + 1)]
        for (i, j), v in zip(cells, vals):
            rows[i - 1][j - i] = v
        yield triangular_array(rows)


def test_enumerate_example():
    growths = enumerate_triangular_growths(C_EXAMPLE)
    assert len(growths) == 4
    final_shapes = sorted(g[-1][0] for g in growths)
    assert final_shapes == [(1, 1, 1), (2, 1), (2, 1), (3,)]
    # one of them reads P = [[1,2],[3]]
    ps = [
        TableauChain(tuple(g[i][len(g) - 1 - i] for i in range(len(g)))).to_rows()
        for g in growths
    ]
    assert [[1, 2], [3]] in ps


def test_enumerate_matches_oracle():
    """Every array with n <= 3, diagonal entries up to 2 and 0/1 off the
    diagonal: the same growths in the same order as the oracle."""
    count = 0
    for n in range(4):
        for arr in arrays(n, (0, 1), (0, 1, 2)):
            for dual in (False, True):
                count += 1
                assert enumerate_triangular_growths(arr, dual) == oracle.triangular_growths(
                    arr, dual
                ), (arr.rows, dual)
    assert count == 476


def test_deep_enumeration_needs_no_recursion():
    """A 45-row zero array has one growth on its 1,081 vertices; a recursive
    search over them ran past Python's recursion limit."""
    zero = triangular_array([[0] * (45 - i) for i in range(45)])
    assert enumerate_triangular_growths(zero) == [
        tuple((EMPTY,) * (46 - i) for i in range(46))
    ]


def test_dual_enumeration_refuses_entries_above_one():
    arr = triangular_array([[0, 1, 0], [0, 2], [0]])
    assert len(enumerate_triangular_growths(arr)) == 13
    with pytest.raises(ValueError, match=r"^entry c\[2\]\[3\] = 2 must be 0 or 1 for dual"):
        enumerate_triangular_growths(arr, dual=True)
    # the enumerator takes no family, so a diagonal entry 2 stays allowed
    assert enumerate_triangular_growths(triangular_array([[2]]), dual=True) == [
        ((EMPTY, EMPTY), ((2,),))
    ]


def test_rule_built_membership():
    growths = enumerate_triangular_growths(C_EXAMPLE)
    for base in (Rule.ROW, Rule.COL):
        grid = build_triangular(littlewood_variant(Family.ALL, base), C_EXAMPLE)
        assert any(grid.rows == g for g in growths)


def test_all_zero_array():
    zero = triangular_array([[0, 0, 0], [0, 0], [0]])
    for fam in Family:
        grid = build_triangular(littlewood_variant(fam), zero)
        assert all(p == EMPTY for row in grid.rows for p in row)
        assert extract_P(grid).shape == EMPTY


def test_size_law_every_vertex():
    rng = random.Random(5)
    for _ in range(20):
        rows = [[rng.randint(0, 2) for _ in range(3 - i)] for i in range(3)]
        arr = triangular_array(rows)
        grid = build_triangular(littlewood_variant(Family.ALL), arr)
        for i in range(4):
            for j in range(i, 4):
                assert sum(grid.vertex(i, j)) == oracle.triangular_size(arr, i, j)


def test_entry_domain_validation():
    v = littlewood_variant(Family.EVEN_COLS)
    with pytest.raises(ValueError):
        validate_entries(v, triangular_array([[1, 0], [0]]))  # diagonal must be 0
    v = littlewood_variant(Family.EVEN_ROWS)
    with pytest.raises(ValueError):
        validate_entries(v, triangular_array([[1, 0], [0]]))  # diagonal must be even
    v = littlewood_variant(Family.ASYM_PLUS)
    with pytest.raises(ValueError):
        validate_entries(v, triangular_array([[0, 2], [0]]))  # off-diagonal binary
    v = littlewood_variant(Family.ASYM_MINUS)
    with pytest.raises(ValueError):
        validate_entries(v, triangular_array([[1, 0], [0]]))  # diagonal in {0, 2}
    with pytest.raises(ValueError):
        littlewood_variant(Family.ASYM_PLUS, Rule.ROW)  # needs a dual rule
    with pytest.raises(ValueError):
        littlewood_variant(Family.ALL, Rule.DUAL_COL)


def test_variant_built_directly_checks_its_base_rule():
    with pytest.raises(ValueError, match=r"^all requires a non-dual rule$"):
        LittlewoodVariant(Family.ALL, Rule.DUAL_ROW)


def test_variants_take_names_and_name_the_wrong_star():
    array = triangular_array([[2, 1, 0, 1, 0], [0, 0, 1, 0], [2, 1, 1], [2, 1], [2]])
    row = littlewood_variant("asym-1", star="row*")
    assert row == littlewood_variant(Family.ASYM_MINUS, star=StarVariant.ROW_STAR)
    assert littlewood_map(row, array).chain[3:5] == ((5, 3, 2), (6, 5, 3, 2))
    col = littlewood_variant(Family.ASYM_MINUS, star=StarVariant.COL_STAR)
    assert littlewood_map(col, array).chain[3:5] == ((4, 4, 2), (6, 4, 4, 2))
    assert littlewood_variant(Family.ALL, "col") == littlewood_variant(Family.ALL, Rule.COL)
    assert littlewood_variant("even-rows", "row") == littlewood_variant(Family.EVEN_ROWS, Rule.ROW)
    with pytest.raises(ValueError, match="'bogus' is not a valid StarVariant"):
        littlewood_variant(Family.ASYM_MINUS, star="bogus")
    with pytest.raises(ValueError, match=r"^all projections take no star, not col\*$"):
        littlewood_variant(Family.ALL, star=StarVariant.COL_STAR)
    with pytest.raises(ValueError, match=r"^asym\+1 projections take row\*, not col\*$"):
        littlewood_variant("asym+1", star="col*")


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize(
    "call",
    [
        lambda v, a, p: build_triangular(v, a),
        lambda v, a, p: littlewood_map(v, a),
        lambda v, a, p: littlewood_inverse(v, p),
        lambda v, a, p: triangular_insert(v, TableauChain((EMPTY,)), a.column(1)),
        lambda v, a, p: littlewood_insert(v, a),
    ],
    ids=["build_triangular", "littlewood_map", "littlewood_inverse",
         "triangular_insert", "littlewood_insert"],
)
def test_entry_points_take_a_family_name(call, family):
    variant = littlewood_variant(family)
    array = triangular_array([[DIAGONALS[family][-1], 1], [0]])
    P = littlewood_map(variant, array)
    assert call(family.value, array, P) == call(variant, array, P)
    with pytest.raises(ValueError, match="'bogus' is not a valid Family"):
        call("bogus", array, P)


@pytest.mark.parametrize("rows", [[[1.5, 0], [0]], [["2"]], [[True]]])
def test_arrays_take_only_int_entries(rows):
    message = r"^rows\[0\]\[0\]: expected a non-negative integer$"
    with pytest.raises(ValueError, match=message):
        triangular_array(rows)
    with pytest.raises(ValueError, match=message):
        TriangularArray(len(rows), tuple(map(tuple, rows)))


def test_array_size_must_be_an_int():
    with pytest.raises(ValueError, match="^n: expected an integer$"):
        TriangularArray(True, ((0,),))


@pytest.mark.parametrize("family", list(Family))
def test_littlewood_roundtrip(family):
    variant = littlewood_variant(family)
    off = (0, 1) if variant.dual else (0, 1, 2)
    count = 0
    for arr in arrays(3, off, DIAGONALS[family]):
        p = littlewood_map(variant, arr)
        back, border = littlewood_inverse(variant, p)
        assert back.rows == arr.rows
        assert all(b == EMPTY for b in border.chain)
        # weight law: #i in P = row i sum plus the column sum above the diagonal
        w = p.weight()
        for i in range(1, 4):
            expect = sum(arr.entry(i, j) for j in range(i, 4)) + sum(
                arr.entry(k, i) for k in range(1, i)
            )
            assert w.get(i, 0) == expect
        count += 1
    assert count == {  # number of arrays with the variant's entry domains
        Family.EVEN_COLS: 27,
        Family.ALL: 729,
        Family.EVEN_ROWS: 216,
        Family.ASYM_PLUS: 8,
        Family.ASYM_MINUS: 64,
    }[family]


#: the five canonical variants and the three other base rules or stars
VARIANTS = [littlewood_variant(f) for f in Family] + [
    littlewood_variant(Family.ALL, Rule.COL),
    littlewood_variant(Family.EVEN_ROWS, Rule.ROW),
    littlewood_variant(Family.ASYM_MINUS, star=StarVariant.COL_STAR),
]


def diagonal_entries(family):
    domain = oracle.DIAGONAL_DOMAIN[family]
    if domain is not None:
        return st.sampled_from(domain)
    step = 2 if family is Family.EVEN_ROWS else 1
    return st.integers(0, 2).map(lambda v: step * v)


@st.composite
def variant_and_array(draw):
    variant = draw(st.sampled_from(VARIANTS))
    n = draw(st.integers(0, 8))
    off = st.integers(0, 1 if variant.dual else 2)
    rows = [
        [draw(diagonal_entries(variant.family))] + draw(st.lists(off, min_size=k, max_size=k))
        for k in range(n - 1, -1, -1)
    ]
    return variant, triangular_array(rows)


@given(variant_and_array())
@settings(derandomize=True, max_examples=300, deadline=None)
def test_littlewood_roundtrip_property(case):
    variant, arr = case
    p = littlewood_map(variant, arr)
    assert member(p.shape, variant.family)
    back, border = littlewood_inverse(variant, p)
    assert back == arr
    assert set(border.chain) == {EMPTY}


def test_insertion_equivalence():
    rng = random.Random(99)
    for fam in Family:
        variant = littlewood_variant(fam)
        hi = 1 if variant.dual else 2
        diag = DIAGONALS[fam]
        for _ in range(12):
            rows = [
                [
                    rng.choice(diag) if j == 0 else rng.randint(0, hi)
                    for j in range(4 - i)
                ]
                for i in range(4)
            ]
            arr = triangular_array(rows)
            assert littlewood_insert(variant, arr) == littlewood_map(variant, arr)


def test_triangular_insert_zero_column():
    variant = littlewood_variant(Family.ALL)
    t = littlewood_map(variant, triangular_array([[1, 1], [0]]))
    extended = triangular_insert(variant, t, (0, 0, 0))
    assert extended.chain[:-1] == t.chain
    assert extended.chain[-1] == t.shape  # zero diagonal adds nothing new


@pytest.mark.parametrize("family, entries, column, message", [
    ("all", ((), (1,)), [0, 0.5], r"^rows\[1\]\[0\]: expected a non-negative integer$"),
    ("all", ((),), ["1"], r"^rows\[0\]\[0\]: expected a non-negative integer$"),
    ("all", ((), (1,)), [-1, 0], r"^rows\[0\]\[1\]: expected a non-negative integer$"),
    ("even-rows", ((),), [1], r"^diagonal entry c\[1\]\[1\] = 1 outside the multiples of 2"),
    ("asym+1", ((), (1,)), [2, 0], r"^entry c\[1\]\[2\] = 2 must be 0 or 1 for dual variants$"),
], ids=["float", "str", "negative", "diagonal", "dual"])
def test_triangular_insert_checks_its_column_as_an_array(family, entries, column, message):
    """The column is checked as the last column of an array is: an entry that
    is not a non-negative int, a diagonal entry outside the family's domain or
    a dual entry above 1 is refused by name, as littlewood_map refuses it."""
    rows = [[0] * (len(column) - 1 - r) + [v] for r, v in enumerate(column)]
    if all(type(v) is int and v >= 0 for v in column):
        with pytest.raises(ValueError, match=message):
            littlewood_map(family, triangular_array(rows))
    with pytest.raises(ValueError, match=message):
        triangular_insert(family, TableauChain(entries), column)


def test_symmetric_matrix_equivalence():
    """For the full family, the triangular grid is the upper half of the
    rectangular growth of the symmetrized matrix."""
    for base in (Rule.ROW, Rule.COL):
        variant = littlewood_variant(Family.ALL, base)
        for arr in list(arrays(3, (0, 1, 2), (0, 1, 2)))[::17]:
            sym = [[arr.entry(min(i, j), max(i, j)) for j in range(1, 4)] for i in range(1, 4)]
            tri = build_triangular(variant, arr)
            rect = build_growth(base, sym)
            for i in range(4):
                for j in range(i, 4):
                    assert tri.vertex(i, j) == rect.vertices[i][j]
            listed = TriangularArray(arr.n, [list(row) for row in arr.rows])  # rows as lists
            assert build_triangular(variant, listed).rows == tri.rows


def test_skew_dual_example():
    """The skew triangular diagram over the -1-asymmetric family.

    The array is the one the displayed diagram satisfies (the printed array
    has its off-diagonal 1 in row 2 placed inconsistently with the diagram's
    size law).
    """
    S = TableauChain(((3, 1), (3, 2), (3, 3, 1), (4, 4, 1), (5, 4, 1)), StepKind.VERTICAL)
    arr = triangular_array([[0, 1, 0, 0], [0, 0, 0], [2, 0], [0]])
    variant = littlewood_variant(Family.ASYM_MINUS, Rule.DUAL_ROW)
    grid = build_triangular(variant, arr, S)
    assert grid.rows == (
        ((3, 1), (3, 2), (3, 3, 1), (4, 4, 1), (5, 4, 1)),
        ((3, 3), (4, 3, 1, 1), (4, 4, 2, 1), (5, 4, 2, 1)),
        ((5, 4, 2, 1), (5, 4, 3, 2), (5, 5, 3, 2)),
        ((6, 5, 4, 2, 1), (6, 5, 5, 2, 1)),
        ((6, 5, 5, 3, 1),),
    )
    p = extract_P(grid)
    assert p.chain == ((5, 4, 1), (5, 4, 2, 1), (5, 5, 3, 2), (6, 5, 5, 2, 1), (6, 5, 5, 3, 1))
    back, border = littlewood_inverse(variant, p)
    assert back.rows == arr.rows and border.chain == S.chain


def test_skew_roundtrip_with_borders():
    """Roundtrips over a fixed set of small skew borders for every variant."""
    cases = {
        Family.ALL: [TableauChain(((1,), (2,), (2, 1))), TableauChain(((2, 2), (2, 2), (3, 2)))],
        Family.EVEN_COLS: [TableauChain(((1, 1), (2, 1), (2, 2)))],
        Family.EVEN_ROWS: [TableauChain(((2,), (2, 1), (2, 2)))],
        Family.ASYM_PLUS: [
            TableauChain(((1, 1), (2, 2), (2, 2, 1)), StepKind.VERTICAL)
        ],
        Family.ASYM_MINUS: [
            TableauChain(((2,), (2, 1), (3, 2)), StepKind.VERTICAL)
        ],
    }
    from growthdiagrams import size

    for fam, borders in cases.items():
        variant = littlewood_variant(fam)
        off = (0, 1) if variant.dual else (0, 1, 2)
        for S in borders:
            for arr in arrays(2, off, DIAGONALS[fam]):
                p = littlewood_map(variant, arr, S)
                back, border = littlewood_inverse(variant, p)
                assert back.rows == arr.rows
                assert border.chain == S.chain
                # weight law with border contributions
                w = p.weight()
                for i in range(1, 3):
                    expect = (
                        size(S.chain[i]) - size(S.chain[i - 1])
                        + sum(arr.entry(i, j) for j in range(i, 3))
                        + sum(arr.entry(k, i) for k in range(1, i))
                    )
                    assert w.get(i, 0) == expect, (fam, arr.rows, i)


@pytest.mark.parametrize(
    "family,inside",
    [
        (Family.EVEN_ROWS, (2,)),
        (Family.EVEN_COLS, (1, 1)),
        (Family.ASYM_PLUS, (1, 1)),
        (Family.ASYM_MINUS, (2,)),
    ],
    ids=["even-rows", "even-cols", "asym+1", "asym-1"],
)
def test_n0_border_must_start_in_the_family(family, inside):
    """At n = 0 no diagonal square runs, so the border's inner shape is the
    only place an off-family image could come from: (1,) is refused, and an
    in-family one round trips."""
    variant = littlewood_variant(family)
    steps = StepKind.VERTICAL if variant.dual else StepKind.HORIZONTAL
    empty = TriangularArray(0, ())
    message = f"border: inner shape (1,) is not in family {family.value}"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        littlewood_map(variant, empty, TableauChain(((1,),), steps))
    S = TableauChain((inside,), steps)
    p = littlewood_map(variant, empty, S)
    assert p.chain == (inside,)
    assert littlewood_inverse(variant, p) == (empty, S)


def test_dual_enumeration_membership():
    """Rule-built dual triangular grids appear among all enumerated dual
    growths of their array."""
    for fam in (Family.ASYM_PLUS, Family.ASYM_MINUS):
        for arr in arrays(2, (0, 1), DIAGONALS[fam]):
            growths = enumerate_triangular_growths(arr, dual=True)
            grid = build_triangular(littlewood_variant(fam), arr)
            assert grid.rows in growths, (fam, arr.rows)


def test_n1_specialization():
    # n = 1, full family: the array (c) maps to the single-row tableau (c)
    variant = littlewood_variant(Family.ALL)
    for c in range(4):
        p = littlewood_map(variant, triangular_array([[c]]))
        assert p.shape == ((c,) if c else EMPTY)


def test_littlewood_surjectivity():
    """Every SSYT with shape in the family arises from some array: decode any
    such tableau and re-encode it."""
    from growthdiagrams import member

    n = 2
    for fam in Family:
        variant = littlewood_variant(fam)
        for shape in oracle.all_partitions(6):
            if len(shape) > n or not member(shape, fam):
                continue
            for filling in oracle.ssyt_fillings(shape, n):
                rows = [list(r) for r in filling]
                p = TableauChain.from_rows(rows, n)
                arr, border = littlewood_inverse(variant, p)
                assert all(b == EMPTY for b in border.chain)
                assert littlewood_map(variant, arr) == p


def test_even_cols_counting_identity():
    """For n = 2 the arrays with total cell count d biject onto the
    even-column SSYT with d cells, for d <= 8 (both sides enumerated)."""
    from growthdiagrams import conjugate, member

    variant = littlewood_variant(Family.EVEN_COLS)
    # diagonal entries are 0: an array is (c12); the image has 2*c12 cells
    by_cells = {}
    for c12 in range(5):
        p = littlewood_map(variant, triangular_array([[0, c12], [0]]))
        assert member(p.shape, Family.EVEN_COLS)
        by_cells[2 * c12] = by_cells.get(2 * c12, 0) + 1
    for d in range(9):
        shapes = [s for s in oracle.all_partitions(8) if sum(s) == d and len(s) <= 2
                  and all(v % 2 == 0 for v in conjugate(s))]
        ssyt_count = sum(len(oracle.ssyt_fillings(s, 2)) for s in shapes)
        assert by_cells.get(d, 0) == ssyt_count, d
