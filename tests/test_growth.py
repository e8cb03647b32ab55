import random
import re
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import oracle
from growthdiagrams import (
    EMPTY,
    DomainError,
    Rule,
    StepKind,
    TableauChain,
    build_growth,
    build_triangular,
    check_traceable,
    conjugate,
    count_syt,
    enumerate_growths,
    extract_PQ,
    insert,
    littlewood_map,
    pieri,
    pieri_inverse,
    rsk,
    rsk_inverse,
    schur,
    triangular_array,
    triangular_insert,
)
from growthdiagrams.jsonio import tableau_to_json

REF_A = [[0, 2, 1], [1, 1, 0], [2, 0, 0]]
SMALL_A = [[0, 1], [1, 0], [1, 1]]


def test_reference_rsk_example():
    p, q = rsk(Rule.ROW, REF_A)
    assert p.to_rows() == [[1, 1, 1], [2, 2, 3], [3]]
    assert q.to_rows() == [[1, 1, 1], [2, 2, 2], [3]]
    matrix, s, t = rsk_inverse(Rule.ROW, p, q)
    assert [list(r) for r in matrix] == REF_A
    assert s.chain == (EMPTY,) * 4 and t.chain == (EMPTY,) * 4


def test_reference_growth_grid():
    grid = build_growth(Rule.ROW, REF_A)
    assert grid.vertices == (
        (EMPTY, EMPTY, EMPTY, EMPTY),
        (EMPTY, EMPTY, (2,), (3,)),
        (EMPTY, (1,), (3, 1), (3, 2)),
        (EMPTY, (3,), (3, 3), (3, 3, 1)),
    )
    assert oracle.grid_size_law(grid)


def test_enumerate_growths_example():
    growths = enumerate_growths(SMALL_A)
    duals = enumerate_growths(SMALL_A, dual=True)
    assert len(growths) == 4
    assert len(duals) == 2
    for rule in (Rule.ROW, Rule.COL):
        g = build_growth(rule, SMALL_A)
        assert any(g.vertices == h.vertices for h in growths)
    for rule in (Rule.DUAL_ROW, Rule.DUAL_COL):
        g = build_growth(rule, SMALL_A)
        assert any(g.vertices == h.vertices for h in duals)
    for g in growths + duals:
        assert oracle.grid_size_law(g)


def _matrices(vals, max_cells):
    """Every matrix up to 3 x 3 with at most ``max_cells`` entries from ``vals``."""
    for n, m in product(range(1, 4), repeat=2):
        if n * m <= max_cells:
            for flat in product(vals, repeat=n * m):
                yield [list(flat[i * m:(i + 1) * m]) for i in range(n)]


def test_enumerate_growths_matches_oracle():
    """The up-set enumerator lists the same growths in the same order as the
    oracle's backtracking over every partition of each vertex's size."""
    cases = [(a, dual) for a in _matrices((0, 1), 9) for dual in (False, True)]
    cases += [(a, False) for a in _matrices((0, 1, 2), 6) if any(2 in r for r in a)]
    assert len(cases) == 2808
    for a, dual in cases:
        got = [g.vertices for g in enumerate_growths(a, dual)]
        assert got == oracle.growths(a, dual), (a, dual)


def test_deep_enumeration_needs_no_recursion():
    """A 1 x 1,100 zero matrix has one growth on its 2,202 vertices; a
    recursive search over them ran past Python's recursion limit."""
    (grid,) = enumerate_growths([[0] * 1100])
    assert grid.vertices == ((EMPTY,) * 1101,) * 2


def test_third_growth_tableaux():
    growths = enumerate_growths(SMALL_A)
    third = [
        g for g in growths if g.vertices[2][2] == (2,) and g.vertices[3][2] == (3, 1)
    ]
    assert len(third) == 1
    p, q = extract_PQ(third[0])
    assert p.to_rows() == [[1, 2, 3], [3]]
    assert q.to_rows() == [[1, 1, 2], [2]]


def test_identity_matrix():
    # row insertion of the identity biword appends along the first row; the
    # column rule stacks a single column (checked against the growth oracle)
    eye = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    growths = enumerate_growths(eye)
    p, q = rsk(Rule.ROW, eye)
    assert p.to_rows() == [[1, 2, 3]] and q.to_rows() == [[1, 2, 3]]
    assert any(build_growth(Rule.ROW, eye).vertices == g.vertices for g in growths)
    p, q = rsk(Rule.COL, eye)
    assert p.to_rows() == [[1], [2], [3]] and q.to_rows() == [[1], [2], [3]]
    assert any(build_growth(Rule.COL, eye).vertices == g.vertices for g in growths)


def test_dual_rsk_membership_and_roundtrip():
    duals = enumerate_growths(SMALL_A, dual=True)
    for rule in (Rule.DUAL_ROW, Rule.DUAL_COL):
        g = build_growth(rule, SMALL_A)
        assert any(g.vertices == h.vertices for h in duals)
        p, q = extract_PQ(g)
        assert q.steps is StepKind.VERTICAL
        matrix, _, _ = rsk_inverse(rule, p, q)
        assert [list(r) for r in matrix] == SMALL_A


def test_dual_rule_requires_binary():
    with pytest.raises(ValueError):
        build_growth(Rule.DUAL_ROW, [[2]])


def test_rsk_roundtrip_corpus():
    # all 2x2 matrices with entries <= 2, and all 3x3 binary matrices
    twos = [
        [[a, b], [c, d]]
        for a in range(3)
        for b in range(3)
        for c in range(3)
        for d in range(3)
    ]
    bins = [
        [[(v >> (3 * i + j)) & 1 for j in range(3)] for i in range(3)]
        for v in range(512)
    ]
    for matrix in twos:
        for rule in (Rule.ROW, Rule.COL):
            grid = build_growth(rule, matrix)
            assert oracle.grid_size_law(grid)
            p, q = extract_PQ(grid)
            back, _, _ = rsk_inverse(rule, p, q)
            assert [list(r) for r in back] == matrix
    for matrix in bins:
        for rule in Rule:
            grid = build_growth(rule, matrix)
            assert oracle.grid_size_law(grid)
            p, q = extract_PQ(grid)
            back, _, _ = rsk_inverse(rule, p, q)
            assert [list(r) for r in back] == matrix


@st.composite
def rule_and_matrix(draw):
    rule = draw(st.sampled_from(list(Rule)))
    n, m = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    entry = st.integers(0, 1 if rule.dual else 2)
    return rule, draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=n, max_size=n))


@given(rule_and_matrix())
@settings(derandomize=True, max_examples=200, deadline=None)
def test_rsk_roundtrip_property(case):
    rule, matrix = case
    grid = build_growth(rule, matrix)
    assert oracle.grid_size_law(grid)
    back, s, t = rsk_inverse(rule, *extract_PQ(grid))
    assert [list(r) for r in back] == matrix
    assert set(s.chain) == set(t.chain) == {EMPTY}


def test_rsk_symmetry():
    """Transposing A swaps P and Q under row and col.  Under the dual rules,
    every vertex of the dual-row growth of A is the conjugate of the transposed
    vertex of the dual-col growth of A^T, and the other way round."""
    bins = [
        [[(v >> (3 * i + j)) & 1 for j in range(3)] for i in range(3)]
        for v in range(512)
    ]
    for rule in (Rule.ROW, Rule.COL):
        for matrix in bins[:200]:
            p, q = rsk(rule, matrix)
            tp, tq = rsk(rule, [list(r) for r in zip(*matrix)])
            assert (tp, tq) == (q, p)
    rng = random.Random(12)
    sizes = [(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(150)]
    bins += [[[rng.randint(0, 1) for _ in range(m)] for _ in range(n)] for n, m in sizes]
    for rule, other in ((Rule.DUAL_ROW, Rule.DUAL_COL), (Rule.DUAL_COL, Rule.DUAL_ROW)):
        for matrix in bins:
            v = build_growth(rule, matrix).vertices
            w = build_growth(other, [list(r) for r in zip(*matrix)]).vertices
            assert v == tuple(zip(*(map(conjugate, row) for row in w))), (rule, matrix)


def test_permutation_bijection():
    import itertools

    n = 4
    images = set()
    for perm in itertools.permutations(range(n)):
        matrix = [[1 if perm[i] == j else 0 for j in range(n)] for i in range(n)]
        p, q = rsk(Rule.ROW, matrix)
        assert p.shape == q.shape
        # standard: weights are all ones
        assert sorted(p.weight().elements()) == list(range(1, n + 1))
        assert sorted(q.weight().elements()) == list(range(1, n + 1))
        images.add((p.chain, q.chain))
    assert len(images) == 24
    from growthdiagrams.partitions import partitions_of_size

    assert sum(count_syt(lam) ** 2 for lam in partitions_of_size(n)) == 24


def test_skew_growth_example():
    S = TableauChain(((2,), (2,), (3, 1), (3, 2)))
    T = TableauChain(((2,), (3,), (3, 1), (4, 1)))
    A = [[1, 0, 0], [0, 0, 2], [0, 1, 0]]
    grid = build_growth(Rule.ROW, A, S, T)
    assert grid.vertices == (
        ((2,), (3,), (3, 1), (4, 1)),
        ((2,), (4,), (4, 1), (4, 2)),
        ((3, 1), (4, 2), (4, 2, 1), (6, 2, 2)),
        ((3, 2), (4, 2, 1), (5, 2, 1, 1), (6, 3, 2, 1)),
    )
    assert oracle.grid_size_law(grid)
    p, q = extract_PQ(grid)
    assert grid.vertices[3][3] == (6, 3, 2, 1)
    matrix, s2, t2 = rsk_inverse(Rule.ROW, p, q)
    assert [list(r) for r in matrix] == A
    assert s2.chain == S.chain and t2.chain == T.chain


def _random_chain(rng, start, steps, kind):
    from growthdiagrams.partitions import horizontal_strips_over, vertical_strips_over

    gen = horizontal_strips_over if kind is StepKind.HORIZONTAL else vertical_strips_over
    chain = [start]
    for _ in range(steps):
        options = list(gen(chain[-1], rng.randint(0, 2)))
        chain.append(rng.choice(options))
    return TableauChain(tuple(chain), kind)


@pytest.mark.parametrize("rule", list(Rule))
def test_skew_roundtrip_randomized(rule):
    from growthdiagrams import size

    rng = random.Random(hash(rule.value) % 1000)
    qkind = StepKind.VERTICAL if rule.dual else StepKind.HORIZONTAL
    for _ in range(25):
        inner = tuple(sorted(rng.sample(range(1, 4), rng.randint(0, 2)), reverse=True))
        S = _random_chain(rng, inner, 3, StepKind.HORIZONTAL)
        T = _random_chain(rng, inner, 3, qkind)
        hi = 1 if rule.dual else 2
        matrix = [[rng.randint(0, hi) for _ in range(3)] for _ in range(3)]
        grid = build_growth(rule, matrix, S, T)
        assert oracle.grid_size_law(grid)
        p, q = extract_PQ(grid)
        back, s2, t2 = rsk_inverse(rule, p, q)
        assert [list(r) for r in back] == matrix
        assert s2 == S and t2 == T
        # weight preservation: P records row sums plus the S border steps,
        # Q records column sums plus the T border steps
        for i in range(1, 4):
            border = size(S.chain[i]) - size(S.chain[i - 1])
            assert p.weight().get(i, 0) == sum(matrix[i - 1]) + border
        for j in range(1, 4):
            border = size(T.chain[j]) - size(T.chain[j - 1])
            assert q.weight().get(j, 0) == sum(r[j - 1] for r in matrix) + border


def test_non_strip_chain_is_refused():
    with pytest.raises(ValueError, match="not a horizontal strip"):
        TableauChain(((1,), (2, 1, 1)))
    with pytest.raises(ValueError, match="not a vertical strip"):
        TableauChain(((1,), (3,)), StepKind.VERTICAL)


@pytest.mark.parametrize("steps", list(StepKind))
@pytest.mark.parametrize("chain,index", [
    (((1, 2),), 0), (((), (1.5,)), 1), (((), (True,)), 1), (((0,),), 0), (((-1,),), 0),
    (((), (1,), (2, 0)), 2), (((), 5), 1), (((), "1"), 1), (((1,), (1,), (1, 1.0)), 2),
    (((), [1]), 1), (([1], (1,), (2, "x")), 0), (((1.5,), [1]), 0),
])
def test_a_member_that_is_no_partition_is_refused_by_index(chain, index, steps):
    """Every member is checked, also in a chain of one, before any strip test."""
    with pytest.raises(ValueError, match=rf"^chain\[{index}\]: expected a partition, got "):
        TableauChain(chain, steps)


def test_a_vertical_member_out_of_order_is_refused_by_index():
    """A vertical strip does not order its ends: (1, 1) -> (1, 2) is one cell
    per row, so the member itself is refused (a horizontal strip test would be)."""
    with pytest.raises(ValueError, match=r"^chain\[2\]: expected a partition, got \(1, 2\)$"):
        TableauChain(((), (1, 1), (1, 2)), StepKind.VERTICAL)
    with pytest.raises(ValueError, match="not a horizontal strip"):
        TableauChain(((), (1,), (1, 2)))


def test_step_kinds_are_taken_by_name():
    """A chain's steps and schur's may be named: a chain keeps the member, so the
    chain checks accept it, and an unknown name is refused as ``steps``."""
    chain = TableauChain(((), (1,)), "vertical")
    assert chain.steps is StepKind.VERTICAL
    assert tableau_to_json(chain) == {"chain": [[], [1]], "steps": "vertical"}
    P, Q = rsk(Rule.DUAL_ROW, [[1, 0], [0, 1]])
    assert rsk_inverse(Rule.DUAL_ROW, P, TableauChain(Q.chain, "vertical")) == \
        rsk_inverse(Rule.DUAL_ROW, P, Q)
    array = triangular_array([[0, 1], [0]])
    border = ((), (1,), (1, 1))
    assert littlewood_map("asym+1", array, TableauChain(border, "vertical")) == \
        littlewood_map("asym+1", array, TableauChain(border, StepKind.VERTICAL))
    assert schur((1, 1), 2, 2, "vertical") == schur((1, 1), 2, 2, StepKind.VERTICAL)
    for steps in ("x", None, 1):
        with pytest.raises(ValueError, match=rf"^steps: unknown step kind {steps!r}$"):
            TableauChain(((), (1,)), steps)
        with pytest.raises(ValueError, match=rf"^steps: unknown step kind {steps!r}$"):
            schur((1,), 1, 1, steps=steps)
        with pytest.raises(ValueError, match=rf"^steps: unknown step kind {steps!r}$"):
            TableauChain.from_rows([[1, 1]], steps=steps)  # before any row is read


@pytest.mark.parametrize("rows,entries,message", [
    ([[2, 1]], None, r"rows\[0\]\[1\]: 1 is less than the entry before it"),
    ([[1, 1, 2], [2, 3, 2]], None, r"rows\[1\]\[2\]: 2 is less than the entry before it"),
    ([[True]], None, r"rows\[0\]\[0\]: expected a positive integer, got True"),
    ([[0, 1]], None, r"rows\[0\]\[0\]: expected a positive integer, got 0"),
    ([[1.0]], None, r"rows\[0\]\[0\]: expected a positive integer, got 1.0"),
    ([[-1]], None, r"rows\[0\]\[0\]: expected a positive integer, got -1"),
    ([[1, 1], [2, 3]], 2, r"rows\[1\]\[1\]: entry 3 exceeds 2"),
    ([[1], [2, 2]], None, r"rows\[1\]: 2 entries, more than the row below it"),
    ([[1], [1]], None, r"rows\[1\]\[0\]: 1 is not greater than the entry below it"),
    ([[1, 2], [3, 2]], None, r"rows\[1\]\[1\]: 2 is less than the entry before it"),
    ([[1, 2], []], None, r"rows\[1\]: expected at least one entry"),
    ([[]], 1, r"rows\[0\]: expected at least one entry"),
    ([[1, 1]], "vertical", r"rows\[0\]\[1\]: 1 is not greater than the entry before it"),
    ([[2], [1]], "vertical", r"rows\[1\]\[0\]: 1 is less than the entry below it"),
    ([[1, 2], [1, 1]], "vertical", r"rows\[1\]\[1\]: 1 is not greater than the entry before it"),
    ([[1, 3], [2, 2]], "vertical", r"rows\[1\]\[1\]: 2 is not greater than the entry before it"),
])
def test_from_rows_refuses_what_is_no_straight_filling(rows, entries, message):
    """``entries`` bounds the values; "vertical" in its place reads a dual filling,
    whose rows increase strictly and whose columns increase weakly."""
    kwargs = {"steps": entries} if entries == "vertical" else {"entries": entries}
    with pytest.raises(ValueError, match=f"^{message}$"):
        TableauChain.from_rows(rows, **kwargs)


def test_rows_and_weight_are_read_off_the_chain():
    """Every filling with entries <= 3 of a shape of size <= 6 in at most 3 rows
    comes back from its chain, with the oracle's weight; the dual fillings are
    the transposes of the conjugate shape's fillings."""
    cases = 0
    for shape in oracle.all_partitions(6):
        if len(shape) > 3:
            continue
        dual = [tuple(tuple(row[r] for row in f if len(row) > r) for r in range(len(shape)))
                for f in oracle.ssyt_fillings(conjugate(shape), 3)]
        for steps, fillings in (("horizontal", oracle.ssyt_fillings(shape, 3)), ("vertical", dual)):
            for f in fillings:
                t = TableauChain.from_rows(f, 3, steps)
                assert (t.shape, t.steps.value) == (shape, steps)
                assert t.to_rows() == [list(row) for row in f]
                assert t.weight() == oracle.ssyt_weight(f)
                cases += 1
    assert cases == 358


@pytest.mark.parametrize("rule", list(Rule))
def test_insertion_refuses_vertical_chains(rule):
    """The tableau that insertion reads and the image it returns are i-chains,
    horizontal in every diagram: a vertical one is refused by field name.  The
    traceability check takes a set, and refuses a value given twice before it
    inserts anything."""
    t = TableauChain(((), (1,), (1, 1)), StepKind.VERTICAL)
    calls = [
        lambda: insert(rule, t, [1]),
        lambda: pieri(rule, t, [1, 0]),
        lambda: check_traceable(rule, t, [1]),
        lambda: triangular_insert("all", t, [0, 0, 0]),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="^tableau: expected a horizontal-strip chain$"):
            call()
    with pytest.raises(ValueError, match="^hat: expected a horizontal-strip chain$"):
        pieri_inverse(rule, t, (1,))
    with pytest.raises(ValueError, match="^values: 1 given twice$"):
        check_traceable(rule, TableauChain(((), (), ())), [1, 1])


def test_border_validation():
    S = TableauChain(((1,), (1,)))
    T = TableauChain((EMPTY, EMPTY))
    with pytest.raises(ValueError):
        build_growth(Rule.ROW, [[0]], S, T)  # inner shapes disagree
    with pytest.raises(ValueError):
        build_growth(Rule.ROW, [[0], [0]], S, None)  # wrong border length
    with pytest.raises(ValueError):
        build_growth(Rule.DUAL_ROW, [[0]], None, TableauChain((EMPTY, EMPTY)))


def test_default_borders_are_labels_not_chains(monkeypatch):
    """A border that is not given is a row of labels, not a checked chain: rsk
    builds only P and Q, and a triangular build no chain at all."""
    built = []
    check = TableauChain.__post_init__
    monkeypatch.setattr(TableauChain, "__post_init__",
                        lambda self: (built.append(self), check(self)))
    rsk(Rule.ROW, [[1, 0], [0, 1]])
    assert len(built) == 2
    built.clear()
    build_triangular("all", triangular_array([[1, 0], [1]]))
    assert built == []


def test_generating_function_bookkeeping():
    """Summing monomial weights over all matrices equals summing over the
    images: the combinatorial shadow of the (dual) Cauchy identities."""
    from collections import Counter

    def weight(matrix, n, m):
        xs = tuple(sum(matrix[i]) for i in range(n))
        ys = tuple(sum(r[j] for r in matrix) for j in range(m))
        return xs + ys

    def pq_weight(p, q, n, m):
        w, v = p.weight(), q.weight()
        return tuple(w.get(i + 1, 0) for i in range(n)) + tuple(
            v.get(j + 1, 0) for j in range(m)
        )

    lhs, rhs = Counter(), Counter()
    for v in range(64):  # all 2x3 binary matrices
        matrix = [[(v >> (3 * i + j)) & 1 for j in range(3)] for i in range(2)]
        lhs[weight(matrix, 2, 3)] += 1
        p, q = rsk(Rule.DUAL_ROW, matrix)
        rhs[pq_weight(p, q, 2, 3)] += 1
    assert lhs == rhs
    lhs, rhs = Counter(), Counter()
    for a in range(3):
        for b in range(3):
            for c in range(3):
                for d in range(3):
                    matrix = [[a, b], [c, d]]
                    lhs[weight(matrix, 2, 2)] += 1
                    p, q = rsk(Rule.COL, matrix)
                    rhs[pq_weight(p, q, 2, 2)] += 1
    assert lhs == rhs


def test_rsk_surjectivity():
    """Every same-shape pair of small tableaux arises from a matrix."""
    n = m = 2
    for shape in oracle.all_partitions(4):
        if len(shape) > 2:
            continue
        ps = oracle.ssyt_fillings(shape, n)
        for fp in ps:
            for fq in ps:
                p = TableauChain.from_rows([list(r) for r in fp], n)
                q = TableauChain.from_rows([list(r) for r in fq], m)
                matrix, s, t = rsk_inverse(Rule.ROW, p, q)
                assert all(v >= 0 for row in matrix for v in row)
                assert rsk(Rule.ROW, [list(r) for r in matrix]) == (p, q)


def test_insert_examples():
    empty3 = TableauChain.trivial(EMPTY, 3)
    t = insert(Rule.ROW, empty3, [2])
    assert t.to_rows() == [[2]]
    assert insert(Rule.ROW, t, []) == t
    # stepwise construction of the insertion tableau, one letter at a time
    shown = [
        [[2]], [[2, 3]], [[2, 3, 3]], [[1, 3, 3], [2]],
        [[1, 1, 3], [2, 3]], [[1, 1, 2], [2, 3, 3]], [[1, 1, 1], [2, 2, 3], [3]],
    ]
    tab = empty3
    for v, expect in zip((2, 3, 3, 1, 1, 2, 1), shown):
        tab = insert(Rule.ROW, tab, [v])
        assert tab.to_rows() == expect


@pytest.mark.parametrize("rule", list(Rule))
def test_insert_equals_grid_columns(rule):
    rng = random.Random(20240 + hash(rule.value) % 97)
    hi = 1 if rule.dual else 2
    for _ in range(30):
        matrix = [[rng.randint(0, hi) for _ in range(4)] for _ in range(4)]
        grid = build_growth(rule, matrix)
        tab = TableauChain.trivial(EMPTY, 4)
        for j in range(4):
            tab = insert(rule, tab, {i + 1: matrix[i][j] for i in range(4)})
            assert tab.chain == tuple(grid.vertices[i][j + 1] for i in range(5))


def test_traceability():
    rng = random.Random(11)
    base = TableauChain.from_rows([[1, 1, 2], [2, 3]], 4)
    for _ in range(40):
        vals = sorted(rng.sample(range(1, 5), rng.randint(1, 4)))
        for rule in Rule:
            assert check_traceable(rule, base, vals)
    # singleton sets are trivially traceable in either order
    assert check_traceable(Rule.ROW, base, [3], reverse=True)
    # row insertion inserted descending does not always match the batch
    assert not check_traceable(Rule.ROW, TableauChain.trivial(EMPTY, 2), [1, 2], reverse=True)


def test_pieri_examples():
    t = TableauChain.from_rows([[1, 1], [2]], 2)
    assert pieri(Rule.ROW, t, (0, 0)) == t
    # lam=(1), n=2, k=1: 2 tableaux x 2 weight vectors onto SSYT of shapes (2), (1,1)
    images = []
    for rows in ([[1]], [[2]]):
        for a in ((1, 0), (0, 1)):
            src = TableauChain.from_rows(rows, 2)
            hat = pieri(Rule.ROW, src, a)
            back, back_a = pieri_inverse(Rule.ROW, hat, src.shape)
            assert (back, back_a) == (src, a)
            images.append(hat)
    assert len(set(images)) == 4
    assert sorted(im.shape for im in images) == [(1, 1), (2,), (2,), (2,)]
    assert len(oracle.ssyt_fillings((2,), 2)) + len(oracle.ssyt_fillings((1, 1), 2)) == 4


@pytest.mark.parametrize("rule", list(Rule))
def test_entry_points_accept_rule_names(rule):
    matrix = [[1, 0, 1], [0, 1, 1]] if rule.dual else REF_A
    P, Q = rsk(rule, matrix)
    assert build_growth(rule.value, matrix) == build_growth(rule, matrix)
    assert rsk(rule.value, matrix) == (P, Q)
    assert rsk_inverse(rule.value, P, Q) == rsk_inverse(rule, P, Q)
    t = TableauChain.from_rows([[1]], 2)
    assert insert(rule.value, t, [1, 2]) == insert(rule, t, [1, 2])
    assert check_traceable(rule.value, t, [1, 2]) == check_traceable(rule, t, [1, 2])
    hat = pieri(rule, t, (1, 1))
    assert pieri(rule.value, t, (1, 1)) == hat
    assert pieri_inverse(rule.value, hat, t.shape) == pieri_inverse(rule, hat, t.shape) == (t, (1, 1))


@pytest.mark.parametrize("shape", [(2, 1, 0), (1, 2), (2, -1), (2.0, 1), "x", None])
def test_pieri_inverse_refuses_a_shape_that_is_not_a_partition(shape):
    hat = pieri(Rule.ROW, TableauChain.trivial((2, 1), 2), [1, 1])
    with pytest.raises(ValueError, match=r"^shape: expected a partition, got "):
        pieri_inverse(Rule.ROW, hat, shape)
    assert pieri_inverse(Rule.ROW, hat, [2, 1]) == pieri_inverse(Rule.ROW, hat, (2, 1))


@pytest.mark.parametrize("shape,why", [
    ((5,), r"\(4, 1\) is not above both \(5,\) and \(3, 1\)"),
    ((), r"\(4, 1\) is not above both \(\) and \(3, 1\)"),
    ((2, 1, 1), r"\(4, 1\) is not above both \(2, 1, 1\) and \(3, 1\)"),
    ((1,), "inner shapes disagree after inversion"),
])
def test_pieri_inverse_refuses_a_shape_that_is_not_the_source(shape, why):
    hat = pieri(Rule.ROW, TableauChain.trivial((2, 1), 2), [1, 1])
    message = rf"^shape: {re.escape(str(shape))} is not the Pieri source of hat \({why}\)$"
    with pytest.raises(DomainError, match=message):
        pieri_inverse(Rule.ROW, hat, shape)


def test_entry_points_reject_unknown_rule_names():
    t = TableauChain.from_rows([[1]], 2)
    P, Q = rsk(Rule.ROW, REF_A)
    calls = [
        lambda name: build_growth(name, REF_A),
        lambda name: rsk(name, REF_A),
        lambda name: rsk_inverse(name, P, Q),
        lambda name: insert(name, t, [1]),
        lambda name: pieri(name, t, (1, 0)),
        lambda name: pieri_inverse(name, t, EMPTY),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="'bogus' is not a valid Rule"):
            call("bogus")


@pytest.mark.parametrize("flag", [True, False])
def test_multiplicities_refuse_bools(flag):
    t = TableauChain.trivial(EMPTY, 2)
    with pytest.raises(ValueError, match=f"^multiplicity of 1 must be an int, got {flag}$"):
        insert(Rule.ROW, t, {1: flag})
    with pytest.raises(ValueError, match=f"^multiplicity of 1 must be an int, got {flag}$"):
        pieri(Rule.ROW, t, (flag, 0))


def test_dual_pieri_example():
    # dual rule, lam=(1), n=2, k=2: shape forced to (2,1) or (1,1,1)
    images = set()
    for rows in ([[1]], [[2]]):
        src = TableauChain.from_rows(rows, 2)
        hat = pieri(Rule.DUAL_ROW, src, (1, 1))
        back, back_a = pieri_inverse(Rule.DUAL_ROW, hat, src.shape)
        assert (back, back_a) == (src, (1, 1))
        assert hat.shape in ((2, 1), (1, 1, 1))
        images.add(hat.chain)
    assert len(images) == 2
    with pytest.raises(ValueError):
        pieri(Rule.DUAL_ROW, TableauChain.from_rows([[1]], 2), (2, 0))


def test_pieri_exhaustive_counts():
    """The Pieri map is a bijection (T, a) -> T_hat for lam=(2,1), n=2, k=2."""
    from growthdiagrams import is_horizontal_strip, size

    lam = (2, 1)
    sources = [
        TableauChain.from_rows([[r1, r2], [r3]], 2)
        for r1 in (1, 2) for r2 in (1, 2) for r3 in (1, 2)
        if r2 >= r1 and r3 > r1
    ]
    weights = [(2, 0), (1, 1), (0, 2)]
    images = set()
    for t in sources:
        for a in weights:
            hat = pieri(Rule.ROW, t, a)
            assert size(hat.shape) - size(lam) == 2
            assert is_horizontal_strip(lam, hat.shape)
            images.add(hat.chain)
    assert len(images) == len(sources) * len(weights)


@pytest.mark.parametrize("values", [[True], [1.0], {True: 1}, {1.5: 0}],
                         ids=["bool", "float", "bool-key", "zero-count"])
def test_insert_refuses_values_that_are_not_ints(values):
    value = next(iter(values))
    with pytest.raises(ValueError, match=rf"^value {value!r} must be an int$"):
        insert(Rule.ROW, TableauChain.trivial(EMPTY, 2), values)
