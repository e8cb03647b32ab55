"""Acceptance criteria, one test per criterion.

Each test prints a PASS line with its elapsed time and asserts both the
mathematical content and the stated runtime bound.
"""

import itertools
import random
import time
from math import factorial

import pytest

import oracle
from growthdiagrams import (
    EMPTY,
    Family,
    Rule,
    StepKind,
    TableauChain,
    apply_rule,
    build_growth,
    build_triangular,
    check_traceable,
    count_syt,
    enumerate_growths,
    enumerate_partitions,
    extract_P,
    extract_PQ,
    insert,
    littlewood_inverse,
    littlewood_map,
    littlewood_variant,
    proj_apply,
    proj_unapply,
    rsk,
    rsk_inverse,
    size,
    triangular_array,
    unapply_rule,
    verify_identity,
)
from growthdiagrams.interlacing import down_sets_through, up_sets_through
from growthdiagrams.partitions import meet, partitions_of_size


def report(name, t0, bound):
    elapsed = time.time() - t0
    print(f"PASS {name} ({elapsed:.2f}s, bound {bound}s)")
    assert elapsed < bound, f"{name} exceeded its runtime bound"


def test_criterion_1_reference_rsk_example():
    t0 = time.time()
    matrix = [[0, 2, 1], [1, 1, 0], [2, 0, 0]]
    p, q = rsk(Rule.ROW, matrix)
    assert p.to_rows() == [[1, 1, 1], [2, 2, 3], [3]]
    assert q.to_rows() == [[1, 1, 1], [2, 2, 2], [3]]
    back, _, _ = rsk_inverse(Rule.ROW, p, q)
    assert [list(r) for r in back] == matrix
    report("criterion 1: reference RSK example", t0, 1)


def test_criterion_2_growth_enumeration():
    t0 = time.time()
    matrix = [[0, 1], [1, 0], [1, 1]]
    growths = enumerate_growths(matrix)
    duals = enumerate_growths(matrix, dual=True)
    assert len(growths) == 4
    assert len(duals) == 2
    for rule in Rule:
        grid = build_growth(rule, matrix)
        pool = duals if rule.dual else growths
        assert any(grid.vertices == g.vertices for g in pool), rule
    report("criterion 2: 4 growths / 2 dual growths", t0, 5)


def test_criterion_3_squarefree_cauchy():
    t0 = time.time()
    # (a) arithmetic for n <= 8
    for n in range(1, 9):
        total = sum(count_syt(p) ** 2 for p in partitions_of_size(n))
        assert total == factorial(n), n
    assert sum(count_syt(p) ** 2 for p in partitions_of_size(8)) == 40320
    # (b) bijectively on all permutation matrices for n <= 6
    for n in range(1, 7):
        images = set()
        for perm in itertools.permutations(range(n)):
            matrix = [[1 if perm[i] == j else 0 for j in range(n)] for i in range(n)]
            p, q = rsk(Rule.ROW, matrix)
            assert p.shape == q.shape
            assert sorted(p.weight().elements()) == list(range(1, n + 1))
            assert sorted(q.weight().elements()) == list(range(1, n + 1))
            images.add((p.chain, q.chain))
        assert len(images) == factorial(n)
        if n == 6:
            assert len(images) == 720
    report("criterion 3: sum of f_lambda^2 = n!", t0, 60)


def test_criterion_4_commutation_laws_and_bijectivity():
    t0 = time.time()
    box = enumerate_partitions(25, (5, 5))
    assert len(box) == 252
    kmax = 6
    for lam in box:
        for rho in box:
            D = down_sets_through(lam, rho, kmax)
            U = up_sets_through(lam, rho, kmax)
            Ds = down_sets_through(lam, rho, kmax, dual=True)
            Us = up_sets_through(lam, rho, kmax, dual=True)
            acc = 0
            dom = []
            base = size(meet(lam, rho))  # mu in D(lam, rho, j) has j = base - |mu|
            for k in range(kmax + 1):
                acc += len(D[k])
                assert len(U[k]) == acc, (lam, rho, k)
                assert len(Us[k]) == len(Ds[k]) + (len(Ds[k - 1]) if k else 0)
                dom.extend(D[k])
                ddom = Ds[k] + (Ds[k - 1] if k else [])
                for rule, els, target in (
                    (Rule.ROW, dom, U[k]),
                    (Rule.COL, dom, U[k]),
                    (Rule.DUAL_ROW, ddom, Us[k]),
                    (Rule.DUAL_COL, ddom, Us[k]),
                ):
                    image = []
                    for mu in els:
                        a = k - base + size(mu)  # F_{lam,rho,k} on mu: entry a = k - j
                        nu = apply_rule(rule, lam, rho, a, mu)
                        image.append(nu)
                        assert unapply_rule(rule, lam, rho, nu) == (mu, a)
                    assert sorted(image) == target, (rule, lam, rho, k)
    report("criterion 4: commutation laws, 5x5 box, k<=6", t0, 120)


def test_criterion_5_projection_laws():
    t0 = time.time()
    shapes = enumerate_partitions(10)
    variants = {
        Family.ALL: littlewood_variant(Family.ALL),
        Family.EVEN_ROWS: littlewood_variant(Family.EVEN_ROWS),
        Family.EVEN_COLS: littlewood_variant(Family.EVEN_COLS),
        Family.ASYM_PLUS: littlewood_variant(Family.ASYM_PLUS),
        Family.ASYM_MINUS: littlewood_variant(Family.ASYM_MINUS),
    }
    for lam in shapes:
        plus, minus = oracle.asym_indices(lam, 1), oracle.asym_indices(lam, -1)
        if plus.exists:
            assert len(plus.s_indices) == len(plus.r_indices)
        if minus.exists:
            assert len(minus.s_indices) == len(minus.r_indices) + 1
        for k in range(7):
            for fam, pf in variants.items():
                down, up = oracle.proj_domain(fam, lam, k), oracle.family_up_set(fam, lam, k)
                assert len(down) == len(up), (fam, lam, k)
                image = []
                for mu in down:
                    nu = proj_apply(pf, lam, k - size(lam) + size(mu), mu)
                    image.append(nu)
                    back, _ = proj_unapply(pf, lam, nu)
                    assert back == mu
                assert sorted(image) == up, (fam, lam, k)
    report("criterion 5: projection laws, |lam|<=10, k<=6", t0, 120)


def test_criterion_6_series_identities():
    t0 = time.time()
    checks = [
        ("cauchy", dict(n=3, m=3, cap=6)),
        ("dual-cauchy", dict(n=3, m=3, cap=6)),
    ]
    for lam, rho in (((2, 1), (1, 1)), ((3, 1), (2,))):
        checks.append(("skew-cauchy", dict(n=2, m=2, cap=6, lam=lam, rho=rho)))
        checks.append(("skew-dual-cauchy", dict(n=2, m=2, cap=6, lam=lam, rho=rho)))
    for fam in Family:
        checks.append((f"littlewood-{fam.value}", dict(n=3, cap=8)))
        checks.append((f"skew-littlewood-{fam.value}", dict(n=2, cap=6, lam=(2, 1))))
    for k in range(4):
        checks.append(("pieri", dict(n=3, cap=9, lam=(2, 1), k=k)))
        checks.append(("dual-pieri", dict(n=3, cap=9, lam=(2, 1), k=k)))
    for identity, kwargs in checks:
        rep = verify_identity(identity, **kwargs)
        assert rep.equal, (identity, kwargs, rep.details)
    report(f"criterion 6: {len(checks)} truncated-series identities", t0, 300)


def test_criterion_7_littlewood_roundtrips():
    t0 = time.time()
    diagonals = {
        Family.EVEN_COLS: (0,),
        Family.ALL: (0, 1, 2),
        Family.EVEN_ROWS: (0, 2),
        Family.ASYM_PLUS: (0,),
        Family.ASYM_MINUS: (0, 2),
    }
    total = 0
    for fam in Family:
        variant = littlewood_variant(fam)
        off = (0, 1) if variant.dual else (0, 1, 2)
        cells = [(i, j) for i in range(1, 4) for j in range(i, 4)]
        for vals in itertools.product(
            *[(diagonals[fam] if i == j else off) for i, j in cells]
        ):
            rows = [[0] * (4 - i) for i in range(1, 4)]
            for (i, j), v in zip(cells, vals):
                rows[i - 1][j - i] = v
            arr = triangular_array(rows)
            p = littlewood_map(variant, arr)
            back, border = littlewood_inverse(variant, p)
            assert back.rows == arr.rows
            assert all(b == EMPTY for b in border.chain)
            w = p.weight()
            for i in range(1, 4):
                expect = sum(arr.entry(i, j) for j in range(i, 4)) + sum(
                    arr.entry(k, i) for k in range(1, i)
                )
                assert w.get(i, 0) == expect, (fam, rows, i)
            total += 1
    assert total == 27 + 729 + 216 + 8 + 64
    report(f"criterion 7: littlewood roundtrips ({total} arrays)", t0, 120)


def test_criterion_8_symmetric_matrix_equivalence():
    t0 = time.time()
    cells = [(i, j) for i in range(1, 4) for j in range(i, 4)]
    for base in (Rule.ROW, Rule.COL):
        variant = littlewood_variant(Family.ALL, base)
        for vals in itertools.product(range(3), repeat=len(cells)):
            rows = [[0] * (4 - i) for i in range(1, 4)]
            for (i, j), v in zip(cells, vals):
                rows[i - 1][j - i] = v
            arr = triangular_array(rows)
            tri = build_triangular(variant, arr)
            sym = [
                [arr.entry(min(i, j), max(i, j)) for j in range(1, 4)]
                for i in range(1, 4)
            ]
            rect = build_growth(base, sym)
            for i in range(4):
                for j in range(i, 4):
                    assert tri.vertex(i, j) == rect.vertices[i][j], (base, rows, i, j)
    report("criterion 8: triangular = upper half of symmetric growth", t0, 60)


def test_criterion_9_skew_examples():
    t0 = time.time()
    # the skew Cauchy growth diagram
    S = TableauChain(((2,), (2,), (3, 1), (3, 2)))
    T = TableauChain(((2,), (3,), (3, 1), (4, 1)))
    A = [[1, 0, 0], [0, 0, 2], [0, 1, 0]]
    grid = build_growth(Rule.ROW, A, S, T)
    assert grid.vertices[3][3] == (6, 3, 2, 1)
    p, q = extract_PQ(grid)
    assert p.chain == ((4, 1), (4, 2), (6, 2, 2), (6, 3, 2, 1))
    assert q.chain == ((3, 2), (4, 2, 1), (5, 2, 1, 1), (6, 3, 2, 1))
    report("criterion 9a: skew Cauchy growth diagram", t0, 1)
    t0 = time.time()
    # the skew dual triangular diagram (array as the displayed diagram's size
    # law dictates; the printed array's off-diagonal 1 is misplaced)
    border = TableauChain(
        ((3, 1), (3, 2), (3, 3, 1), (4, 4, 1), (5, 4, 1)), StepKind.VERTICAL
    )
    arr = triangular_array([[0, 1, 0, 0], [0, 0, 0], [2, 0], [0]])
    variant = littlewood_variant(Family.ASYM_MINUS, Rule.DUAL_ROW)
    tri = build_triangular(variant, arr, border)
    assert tri.vertex(4, 4) == (6, 5, 5, 3, 1)
    assert extract_P(tri).chain == (
        (5, 4, 1), (5, 4, 2, 1), (5, 5, 3, 2), (6, 5, 5, 2, 1), (6, 5, 5, 3, 1),
    )
    report("criterion 9b: skew dual triangular diagram", t0, 1)


def test_criterion_10_insertion_equivalence():
    t0 = time.time()
    corpus = {rule: [[[0, 1], [1, 0], [1, 1]]] for rule in Rule}
    rng = random.Random(424242)
    for _ in range(100):
        for rule in Rule:
            hi = 1 if rule.dual else 2
            corpus[rule].append([[rng.randint(0, hi) for _ in range(4)] for _ in range(4)])
    for rule, matrices in corpus.items():
        for matrix in matrices:
            n, m = len(matrix), len(matrix[0])
            grid = build_growth(rule, matrix)
            tab = TableauChain.trivial(EMPTY, n)
            for j in range(m):
                tab = insert(rule, tab, {i + 1: matrix[i][j] for i in range(n)})
                assert tab.chain == tuple(grid.vertices[i][j + 1] for i in range(n + 1))
    # row insertion is traceable ascending, column insertion descending
    rng = random.Random(7)
    tableaux = [
        TableauChain.trivial(EMPTY, 4),
        TableauChain.from_rows([[1, 1, 3], [2, 4]], 4),
        TableauChain.from_rows([[1, 2, 2, 2], [2, 3], [4]], 4),
    ]
    for tab in tableaux:
        for _ in range(25):
            vals = sorted(rng.sample(range(1, 5), rng.randint(1, 4)))
            assert check_traceable(Rule.ROW, tab, vals, reverse=False)
            assert check_traceable(Rule.COL, tab, vals, reverse=True)
    report("criterion 10: insertion equivalence and traceability", t0, 60)
