import re
import time
from collections import Counter
from itertools import permutations
from math import factorial

import pytest

import oracle
from growthdiagrams import (
    EMPTY,
    Family,
    Report,
    StepKind,
    TruncatedPolynomial,
    conjugate,
    contains,
    count_syt,
    enumerate_partitions,
    member,
    product_side,
    schur,
    size,
    verify_identity,
)
from growthdiagrams import series
from growthdiagrams.partitions import sub_partitions
from growthdiagrams.series import IDENTITIES, _compare, _sweep


from hypothesis import given, strategies as st


@st.composite
def small_polys(draw):
    nterms = draw(st.integers(0, 5))
    terms = {}
    for _ in range(nterms):
        exps = tuple(draw(st.integers(0, 3)) for _ in range(2))
        terms[exps] = draw(st.integers(-4, 4))
    return TruncatedPolynomial(2, 5, terms)


def _sum(polys, nvars, cap):
    """The sum of polynomials, added as term dicts."""
    terms = Counter()
    for poly in polys:
        terms.update(poly.terms)
    return TruncatedPolynomial(nvars, cap, terms)


@given(small_polys(), small_polys(), small_polys())
def test_polynomial_ring_laws(a, b, c):
    assert a * b == b * a
    assert _sum([a, b], 2, 5) * c == _sum([a * c, b * c], 2, 5)
    assert (a * b) * c == a * (b * c)
    assert all(coeff != 0 for coeff in (a * b).terms.values())
    assert all(sum(e) <= 5 for e in (a * b).terms)


def test_polynomial_ring_basics():
    one = TruncatedPolynomial(2, 4, {(0, 0): 1})
    x = TruncatedPolynomial(2, 4, {(1, 0): 1})
    y = TruncatedPolynomial(2, 4, {(0, 1): 1})
    x_plus_y = _sum([x, y], 2, 4)
    assert x_plus_y * x_plus_y == _sum([x * x, x * y, y * x, y * y], 2, 4)
    # (x + y)(x - y): the cancelled xy coefficient is dropped
    x_minus_y = TruncatedPolynomial(2, 4, {(1, 0): 1, (0, 1): -1})
    assert (x_plus_y * x_minus_y).terms == {(2, 0): 1, (0, 2): -1}
    assert not TruncatedPolynomial(2, 4, {(1, 0): 0})
    # the cap drops products beyond total degree 4
    x2 = x * x
    assert x2 * x2 * x == TruncatedPolynomial(2, 4)
    assert one * x == x
    with pytest.raises(ValueError):
        x * TruncatedPolynomial(3, 4, {(0, 0, 0): 1})


def test_schur_small_examples():
    assert schur((1,), 2, 5).terms == {(1, 0): 1, (0, 1): 1}
    assert schur((2, 1), 2, 5).terms == {(2, 1): 1, (1, 2): 1}
    # the displayed tableau of weight x1 x2^3 x3^2 x4^2 x5^4 is a witness
    assert schur((5, 4, 2, 1), 5, 12).coefficient((1, 3, 2, 2, 4)) >= 1
    assert schur(EMPTY, 3, 2) == TruncatedPolynomial(3, 2, {(0, 0, 0): 1})


def test_schur_matches_filling_oracle():
    for lam in enumerate_partitions(6):
        for n in (2, 3):
            expect = oracle.schur_poly(lam, n)
            assert schur(lam, n, 8).terms == expect, (lam, n)


def test_skew_schur_matches_filling_oracle():
    for lam in [(3, 2), (2, 2, 1), (4, 1)]:
        for mu in sub_partitions(lam):
            expect = oracle.schur_poly(lam, 2, mu)
            assert schur(lam, 2, 8, mu=mu).terms == expect


def test_schur_sweep_matches_filling_oracle_on_box():
    # every lam inside (4,4,4), every mu inside lam, n <= 3, horizontal steps
    # and vertical ones (s_{lam'/mu'}, the conjugates' fillings): 2 x 1,470 cases
    cases = 0
    for lam in enumerate_partitions(12, (3, 4)):
        for mu in sub_partitions(lam):
            for n in (1, 2, 3):
                expect = oracle.schur_poly(lam, n, mu)
                assert schur(lam, n, 12, mu=mu).terms == expect, (lam, mu, n)
                expect = oracle.schur_poly(conjugate(lam), n, conjugate(mu))
                assert schur(lam, n, 12, StepKind.VERTICAL, mu).terms == expect, (lam, mu, n)
                cases += 2
    assert cases == 2940


def test_schur_conjugation():
    for lam in enumerate_partitions(6):
        dual = schur(lam, 3, 6, StepKind.VERTICAL)
        direct = schur(conjugate(lam), 3, 6)
        assert dual == direct, lam


def test_schur_symmetric_under_variable_permutation():
    for lam in [(3, 1), (2, 2), (4, 2, 1)]:
        p = schur(lam, 3, 7)
        for perm in permutations(range(3)):
            assert {tuple(e[i] for i in perm): c for e, c in p.terms.items()} == p.terms


def test_schur_takes_list_shapes():
    assert schur([2, 1], 2, 3) == schur((2, 1), 2, 3)
    skew = schur((2, 1), 2, 3, mu=(1,))
    assert schur((2, 1), 2, 3, mu=[1]) == schur([2, 1], 2, 3, mu=[1]) == skew
    assert skew.terms == {(2, 0): 1, (1, 1): 2, (0, 2): 1}


STRIPS = [series.horizontal_strips_over, series.vertical_strips_over,
          series.horizontal_strips_under, series.vertical_strips_under]


def test_sweep_keep_is_the_total_of_the_kept_states():
    """A sweep with ``keep`` returns what summing the full sweep's kept
    states gives, for every shape of size <= 5, n <= 4, budget <= 7, both
    ways of ``dominant``, every strip kind, each family and a two-shape set."""
    keeps = [lambda nu, f=f: member(nu, f) for f in Family] + [{(1,), (3, 2)}.__contains__]
    for shape in oracle.all_partitions(5):
        for n in range(5):
            for budget in range(8):
                for dominant in (False, True):
                    for strips in STRIPS:
                        states = _sweep(shape, n, budget, strips, dominant)
                        for keep in keeps:
                            assert _sweep(shape, n, budget, strips, dominant, keep) == \
                                oracle.total(states, keep), (shape, n, budget, dominant, strips)


def test_no_strip_list_outlives_its_sweep(monkeypatch):
    """Each sweep lists a (shape, room) once, and nothing is kept between
    calls: the same check asks the enumerators the same number of times."""
    asked = []
    for strips in STRIPS:
        def logged(sig, room, strips=strips):
            asked.append((strips.__name__, sig, room))
            return strips(sig, room)
        monkeypatch.setattr(series, strips.__name__, logged)
    monkeypatch.setattr(series, "_OVER", {k: getattr(series, f.__name__)
                                          for k, f in series._OVER.items()})
    monkeypatch.setattr(series, "_UNDER", {k: getattr(series, f.__name__)
                                           for k, f in series._UNDER.items()})
    counts = []
    for _ in range(2):
        asked.clear()
        assert verify_identity("littlewood-all", 4, 10).equal
        counts.append(len(asked))
    assert counts[0] == counts[1] > 0
    sweep, lists = series._sweep, []

    def one_sweep(*args, **kwargs):
        asked.clear()
        out = sweep(*args, **kwargs)
        assert len(set(asked)) == len(asked), args[:3]
        lists.append(len(asked))
        return out

    monkeypatch.setattr(series, "_sweep", one_sweep)
    for name, kwargs in (("littlewood-even-rows", dict(n=4, cap=10)),
                         ("skew-littlewood-asym-1", dict(n=3, cap=8, lam=(2, 1))),
                         ("skew-cauchy", dict(n=3, m=2, cap=8, lam=(2, 1), rho=(2,))),
                         ("skew-dual-cauchy", dict(n=3, m=2, cap=8, lam=(2, 1), rho=(2,))),
                         ("dual-pieri", dict(n=4, cap=6, k=2, lam=(3, 1)))):
        assert verify_identity(name, **kwargs).equal, name
    assert len(lists) > 10 and sum(lists) > 100


def test_schur_errors():
    with pytest.raises(ValueError):
        schur((1,), 2, 5, mu=(2,))


def test_product_side_examples():
    # single geometric series in (xy): four terms survive a joint cap of 6
    assert product_side("cauchy", 1, 1, 6).terms == {
        (0, 0): 1, (1, 1): 1, (2, 2): 1, (3, 3): 1,
    }
    # dual Cauchy keeps squarefree products of the x_i y_j
    p = product_side("dual-cauchy", 2, 2, 4)
    assert p.coefficient((0, 0, 0, 0)) == 1
    for i in range(2):
        for j in range(2):
            exps = [0, 0, 0, 0]
            exps[i] = 1
            exps[2 + j] = 1
            assert p.coefficient(tuple(exps)) == 1
    assert p.coefficient((1, 1, 1, 1)) == 2  # x1y1*x2y2 and x1y2*x2y1
    assert product_side("littlewood-all", 2, 0, 2).terms == {
        (0, 0): 1, (1, 0): 1, (0, 1): 1, (2, 0): 1, (0, 2): 1, (1, 1): 2,
    }


def _weight_counts(nvars, cells, cap):
    """Brute force: the number of fillings of each weight within the cap.  A
    cell (variables, values) holds one of the values, which it adds to the
    exponent of each of its variables."""
    counts = {}
    weight = [0] * nvars

    def fill(k, budget):
        if k == len(cells):
            counts[tuple(weight)] = counts.get(tuple(weight), 0) + 1
            return
        variables, values = cells[k]
        for v in values:
            if v * len(variables) > budget:
                break
            for t in variables:
                weight[t] += v
            fill(k + 1, budget - v * len(variables))
            for t in variables:
                weight[t] -= v

    fill(0, cap)
    return counts


def test_product_side_counts_arrays():
    """product_side counts arrays by weight.  Cauchy: n x m matrices weighted
    x^(row sums) y^(column sums), 0/1 entries when dual.  Littlewood:
    triangular arrays weighted as in criterion 7, with the diagonal domains
    below and 0/1 off-diagonal entries for the asymmetric families."""
    # single-variable factors 1/(1 - x) and 1 + x^2
    assert product_side("littlewood-all", 1, 0, 3).terms == {(0,): 1, (1,): 1, (2,): 1, (3,): 1}
    assert product_side("littlewood-asym-1", 1, 0, 3).terms == {(0,): 1, (2,): 1}
    cases = 0
    for cap in range(9):
        every = range(cap + 1)
        diagonals = {
            Family.ALL: every,
            Family.EVEN_ROWS: range(0, cap + 1, 2),
            Family.EVEN_COLS: (0,),
            Family.ASYM_PLUS: (0,),
            Family.ASYM_MINUS: (0, 2),
        }
        for n in range(4):
            for m in range(3):
                for kind, values in (("cauchy", every), ("dual-cauchy", (0, 1))):
                    cells = [((i, n + j), values) for i in range(n) for j in range(m)]
                    expect = _weight_counts(n + m, cells, cap)
                    assert product_side(kind, n, m, cap).terms == expect, (kind, n, m, cap)
                    cases += 1
            for f in Family:
                off = (0, 1) if f in (Family.ASYM_PLUS, Family.ASYM_MINUS) else every
                cells = [((i, j), off) for i in range(n) for j in range(i + 1, n)]
                cells += [((i,), diagonals[f]) for i in range(n)]
                expect = _weight_counts(n, cells, cap)
                assert product_side(f"littlewood-{f.value}", n, 0, cap).terms == expect, (f, n)
                cases += 1
    assert cases == 396


def test_count_syt():
    assert count_syt((2, 1)) == 2
    assert count_syt((7,)) == 1
    assert count_syt(EMPTY) == 1
    total = sum(count_syt(p) ** 2 for p in enumerate_partitions(4) if size(p) == 4)
    assert total == 24
    for lam in enumerate_partitions(8):
        assert count_syt(lam) == oracle.chain_count_syt(lam), lam
    # 2,000 cells: counting chains recursively ran past Python's recursion limit
    assert count_syt((2000,)) == 1


@pytest.mark.parametrize("lam", [(1, 2), (2, 0, 1), (0,), (-1,), (1.0,), "x"])
def test_count_syt_refuses_what_is_no_partition(lam):
    with pytest.raises(ValueError, match=rf"^lam: expected a partition, got {re.escape(str(lam))}$"):
        count_syt(lam)


@pytest.mark.parametrize(
    "identity,kwargs",
    [
        ("cauchy", dict(n=2, m=2, cap=6)),
        ("dual-cauchy", dict(n=2, m=2, cap=6)),
        ("skew-cauchy", dict(n=2, m=2, cap=6, lam=(2, 1), rho=(1, 1))),
        ("skew-dual-cauchy", dict(n=2, m=2, cap=6, lam=(2, 1), rho=(1, 1))),
        ("littlewood-all", dict(n=2, cap=7)),
        ("littlewood-even-cols", dict(n=2, cap=7)),
        ("littlewood-even-rows", dict(n=2, cap=7)),
        ("littlewood-asym+1", dict(n=3, cap=7)),
        ("littlewood-asym-1", dict(n=2, cap=7)),
        ("pieri", dict(n=2, cap=6, lam=(2, 1), k=2)),
        ("dual-pieri", dict(n=2, cap=6, lam=(2, 1), k=1)),
        # (3, 1) is not self-conjugate, so the asymmetric families' inner sum
        # over the conjugate shape is exercised
        *((f"skew-littlewood-{f.value}", dict(n=3, cap=6, lam=(3, 1)))
          for f in Family),
        *((f"littlewood-{f.value}", dict(n=5, cap=14)) for f in Family),
        ("pieri", dict(n=5, cap=8, lam=(3, 2), k=3)),
        ("dual-pieri", dict(n=5, cap=8, lam=(3, 2), k=3)),
    ],
)
def test_verify_identities_small(identity, kwargs):
    report = verify_identity(identity, **kwargs)
    assert report.equal, report
    assert report.checked_terms > 1


@pytest.mark.parametrize("identity,lam", [
    ("skew-littlewood-even-rows", (1, 1)),
    ("skew-littlewood-asym+1", (2,)),
])
def test_skew_littlewood_empty_inner_sum(identity, lam):
    # no family member under the inner shape reaches it with one variable, so
    # the inner sum is empty and both sides are zero
    report = verify_identity(identity, n=1, cap=6, lam=lam)
    assert report.equal, report
    assert report.checked_terms == 0


@pytest.mark.parametrize("identity,field,shape", [
    ("skew-littlewood-all", "lam", (1, 2)),
    ("skew-littlewood-all", "lam", (2, 0)),
    ("skew-littlewood-all", "lam", (-1,)),
    ("skew-littlewood-all", "lam", (1.5,)),
    ("pieri", "lam", (1, 3)),
    ("skew-cauchy", "rho", (0, 1)),
])
def test_verify_rejects_non_partitions(identity, field, shape):
    with pytest.raises(ValueError) as info:
        verify_identity(identity, n=2, cap=4, **{field: shape})
    assert str(info.value) == f"{field}: expected a partition, got {shape}"


@pytest.mark.parametrize("identity,kwargs,message", [
    ("cauchy", dict(n=1.5, cap=4), "n: expected a non-negative integer, got 1.5"),
    ("cauchy", dict(n=True, cap=4), "n: expected a non-negative integer, got True"),
    ("cauchy", dict(n=2, cap=4, m=1.0), "m: expected a non-negative integer, got 1.0"),
    ("littlewood-all", dict(n=2, cap=4.5), "degree: expected a non-negative integer, got 4.5"),
    ("pieri", dict(n=2, cap=4, lam=(1,), k=1.5), "k: expected a non-negative integer, got 1.5"),
    ("pieri", dict(n=2, cap=4, lam=5, k=1), "lam: expected a partition, got 5"),
    ("skew-cauchy", dict(n=2, cap=4, rho=None), "rho: expected a partition, got None"),
    ("insertion-agreement", dict(n=2, seed=1.5), "seed: expected an integer, got 1.5"),
    ("insertion-agreement", dict(n=2, seed=True), "seed: expected an integer, got True"),
])
def test_verify_rejects_counts_and_shapes_of_the_wrong_type(identity, kwargs, message):
    with pytest.raises(ValueError) as info:
        verify_identity(identity, **kwargs)
    assert str(info.value) == message


@pytest.mark.parametrize("identity,kwargs,field", [
    ("cauchy", dict(lam=(1,)), "lam"),
    ("dual-cauchy", dict(rho=[1]), "rho"),
    ("cauchy", dict(k=0), "k"),
    ("littlewood-all", dict(rho=(1,), k=3, m=5), "m"),
    ("littlewood-all", dict(k=3), "k"),
    ("skew-littlewood-even-rows", dict(rho=(2,)), "rho"),
    ("pieri", dict(lam=(1,), k=1, m=2), "m"),
    ("squarefree", dict(lam=(1,)), "lam"),
    ("squarefree", dict(), "degree"),
    ("cauchy", dict(seed=1), "seed"),
    ("littlewood-all", dict(seed=0), "seed"),
    ("insertion-agreement", dict(lam=(1,)), "lam"),
    ("insertion-agreement", dict(k=1), "k"),
    ("insertion-agreement", dict(), "degree"),
])
def test_verify_refuses_parameters_its_identity_does_not_take(identity, kwargs, field):
    with pytest.raises(ValueError) as info:
        verify_identity(identity, n=2, cap=4, **kwargs)
    assert str(info.value) == f"{field}: identity {identity!r} takes no {field}"


def test_verify_insertion_agreement_is_a_table_row():
    """The bijective check reports what the CLI prints for it."""
    assert verify_identity("insertion-agreement", 2, m=3, seed=4).to_dict() == {
        "identity": "insertion-agreement", "equal": True, "checked_terms": 240,
        "params": {"n": 2, "m": 3, "seed": 4},
    }
    assert verify_identity("insertion-agreement", 2).params == {"n": 2, "m": 2, "seed": 0}
    with pytest.raises(ValueError) as info:
        verify_identity("insertion-agreement", 0)
    assert str(info.value) == "n: expected a positive integer, got 0"


def test_verify_takes_empty_shapes_and_none_counts_as_not_given():
    for identity, cap in (("cauchy", 4), ("littlewood-all", 4), ("squarefree", None)):
        assert verify_identity(identity, n=2, cap=cap, lam=(), rho=[], m=None, k=None) == \
            verify_identity(identity, n=2, cap=cap)


def test_verify_defaults_the_degree_to_six():
    report = verify_identity("cauchy", 2)
    assert report.params["degree"] == 6 and report == verify_identity("cauchy", 2, 6)


@pytest.mark.parametrize("fn,args,kwargs,message", [
    (schur, ((1, 2), 2, 4), {}, "lam: expected a partition, got (1, 2)"),
    (schur, ((2,), 2, 4), {"mu": (0, 1)}, "mu: expected a partition, got (0, 1)"),
    (schur, ((1,), -1, 4), {}, "n: expected a non-negative integer, got -1"),
    (schur, ((1,), 2, True), {}, "cap: expected a non-negative integer, got True"),
    (product_side, ("cauchy", -1, 2, 4), {}, "n: expected a non-negative integer, got -1"),
    (product_side, ("dual-cauchy", 2, 1.0, 4), {}, "m: expected a non-negative integer, got 1.0"),
    (product_side, ("littlewood-all", 2, 0, -3), {},
     "cap: expected a non-negative integer, got -3"),
])
def test_schur_and_product_side_reject_bad_input(fn, args, kwargs, message):
    with pytest.raises(ValueError) as info:
        fn(*args, **kwargs)
    assert str(info.value) == message


@pytest.mark.parametrize("kind", ["littlewood-bogus", "littlewood-", "littlewood-ALL"])
def test_product_side_rejects_unknown_kinds(kind):
    with pytest.raises(ValueError) as info:
        product_side(kind, 2, 0, 4)
    assert str(info.value) == f"unknown product {kind!r}"


def test_verify_squarefree():
    report = verify_identity("squarefree", n=5)
    assert report.equal and report.details == {"lhs": 120, "rhs": 120}
    assert report.to_dict()["lhs"] == 120


def test_verify_mismatch_reporting():
    """A deliberately unequal comparison reports the first differing exponent."""
    a = TruncatedPolynomial(2, 4, {(1, 0): 1, (0, 2): 3})
    b = TruncatedPolynomial(2, 4, {(1, 0): 1, (0, 2): 4})
    equal, _, details = _compare(a.terms, b.terms, 1)  # x_1 and y_1: every key is dominant
    assert not equal
    assert details == {"mismatch": {"exponents": [0, 2], "lhs": 3, "rhs": 4}}


def test_verify_sides_are_term_dicts(monkeypatch):
    """The verify rows compare plain term dicts within the cap: a Littlewood
    check and a skew Cauchy check build no TruncatedPolynomial."""
    built = []
    init = TruncatedPolynomial.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(TruncatedPolynomial, "__init__", counting)
    for name, kwargs in (("littlewood-all", dict(n=3, cap=6)),
                         ("skew-cauchy", dict(n=2, m=2, cap=5, lam=(2, 1), rho=(1, 1)))):
        assert verify_identity(name, **kwargs).equal
        assert built == [], name


@pytest.mark.parametrize("name", ["skew-cauchy", "skew-dual-cauchy"])
def test_skew_cauchy_beyond_the_cap(name):
    """|lam| + |rho| = 19 > cap: the inner sweeps build no pair beyond the
    cap, and the report is the one a comparison that truncated them gave."""
    report = verify_identity(name, 4, 14, 4, (6, 5, 3, 1), (3, 1))
    assert report.to_dict() == {
        "identity": name, "equal": True, "checked_terms": 1484,
        "params": {"n": 4, "degree": 14, "m": 4, "lam": [6, 5, 3, 1], "rho": [3, 1]}}


def test_unknown_identity():
    with pytest.raises(ValueError):
        verify_identity("nope", n=1, cap=1)


# ---------------------------------------------------------------------------
# verify_identity computes only the dominant terms of both sides.  The
# reference below builds every monomial of both sides from schur and
# product_side, and oracle.compare compares them all.


def _embedded(poly, nvars, offset, cap):
    """poly's variables as variables offset.. of nvars."""
    pad = (0,) * (nvars - offset - poly.nvars)
    terms = {(0,) * offset + e + pad: c for e, c in poly.terms.items()}
    return TruncatedPolynomial(nvars, cap, terms)


def _schur_sum(pairs, n, cap, steps=StepKind.HORIZONTAL):
    """The sum of s_{outer/inner}(x_1..x_n) over the (outer, inner) pairs."""
    return _sum((schur(outer, n, cap, steps, inner) for outer, inner in pairs), n, cap)


#: The inner-sum family of the asymmetric families, whose inner sums run over lam'.
_INNER = {Family.ASYM_PLUS: Family.ASYM_MINUS, Family.ASYM_MINUS: Family.ASYM_PLUS}


def full_sides(name, n, cap, m=None, lam=EMPTY, rho=EMPTY, k=0):
    """Both sides of a polynomial identity with every monomial."""
    entry = IDENTITIES[name]
    if name.endswith("cauchy"):
        nv, top = n + m, (cap + size(lam) + size(rho)) // 2

        def pair_sum(pairs):
            return _sum((_embedded(schur(x_outer, n, cap, mu=x_inner), nv, 0, cap)
                         * _embedded(schur(y_outer, m, cap, entry.steps, y_inner), nv, n, cap)
                         for x_outer, x_inner, y_outer, y_inner in pairs), nv, cap)

        lhs = pair_sum((nu, rho, nu, lam) for nu in enumerate_partitions(top)
                       if contains(lam, nu) and contains(rho, nu))
        inner = pair_sum((lam, mu, rho, mu) for mu in sub_partitions(lam) if contains(mu, rho))
        kind = "dual-cauchy" if entry.steps is StepKind.VERTICAL else "cauchy"
        return lhs, product_side(kind, n, m, cap) * inner
    if entry.family is not None:
        family = _INNER.get(entry.family, entry.family)
        shape = conjugate(lam) if entry.family in _INNER else lam
        lhs = _schur_sum(((nu, lam) for nu in enumerate_partitions(size(lam) + cap)
                          if member(nu, entry.family) and contains(lam, nu)), n, cap)
        inner = _schur_sum(((shape, mu) for mu in sub_partitions(shape) if member(mu, family)),
                           n, cap)
        return lhs, product_side(f"littlewood-{entry.family.value}", n, 0, cap) * inner
    top = size(lam) + k
    cap = max(cap, top)
    strip = oracle.vert_strip if entry.steps is StepKind.VERTICAL else oracle.horiz_strip
    lhs = schur((k,) if k else EMPTY, n, cap, entry.steps) * schur(lam, n, cap)
    rhs = _schur_sum(((nu, EMPTY) for nu in enumerate_partitions(top)
                      if size(nu) == top and strip(lam, nu)), n, cap)
    return lhs, rhs


def _full_report(name, **kwargs):
    report = verify_identity(name, **kwargs)
    lhs, rhs = full_sides(name, **kwargs)
    return report, oracle.compare(name, report.params, lhs, rhs)


def _reference_cases():
    shapes = [EMPTY, (1,), (2,), (1, 1), (2, 1), (3, 1)]
    for name, entry in IDENTITIES.items():
        params = set(entry.params)
        if "seed" in params:  # the bijective check has no series sides
            continue
        if "m" in params:
            for n, m, cap in ((0, 2, 4), (2, 0, 4), (1, 2, 5), (2, 2, 6), (3, 2, 5)):
                for lam, rho in ([(EMPTY, EMPTY)] if "lam" not in params
                                 else [(a, b) for a in shapes[:5] for b in shapes[:5]]):
                    yield name, dict(n=n, m=m, cap=cap, lam=lam, rho=rho)
        elif "k" in params:
            for lam in shapes:
                for n, k in ((1, 2), (2, 0), (2, 3), (3, 2)):
                    yield name, dict(n=n, cap=5, lam=lam, k=k)
        elif "lam" in params:
            for lam in shapes:
                for n in (1, 2, 3):
                    yield name, dict(n=n, cap=5, lam=lam)
        elif entry.family is not None:
            for n in range(5):
                yield name, dict(n=n, cap=7)


def test_dominant_verification_matches_full_reference():
    """verify_identity's report equals the comparison of every monomial of
    both sides, for every polynomial identity in the table."""
    cases = 0
    for name, kwargs in _reference_cases():
        report, full = _full_report(name, **kwargs)
        assert full.equal, (name, kwargs)
        assert report.to_dict() == full.to_dict(), (name, kwargs)
        cases += 1
    assert {name for name, _ in _reference_cases()} == \
        set(IDENTITIES) - {"squarefree", "insertion-agreement"}
    assert cases == 423
    # squarefree compares two integers, not polynomials
    assert verify_identity("squarefree", n=4).to_dict() == {
        "identity": "squarefree", "equal": True, "checked_terms": 1,
        "params": {"n": 4}, "lhs": 24, "rhs": 24,
    }


def _dominant(poly, n):
    """The terms of poly that weakly decrease in x_1..x_n and in the rest."""
    down = lambda g: list(g) == sorted(g, reverse=True)
    terms = {e: c for e, c in poly.terms.items() if down(e[:n]) and down(e[n:])}
    return TruncatedPolynomial(poly.nvars, poly.cap, terms)


def _inject(poly, n, key):
    """poly plus every rearrangement of key within x_1..x_n and the rest."""
    terms = dict(poly.terms)
    for x in set(permutations(key[:n])):
        for y in set(permutations(key[n:])):
            terms[x + y] = terms.get(x + y, 0) + 1
    return TruncatedPolynomial(poly.nvars, poly.cap, terms)


@pytest.mark.parametrize("name,kwargs,keys,first", [
    # (2, 1, 0) sorts before (3, 0, 0), but its rearrangement (0, 1, 2) comes
    # after (0, 0, 3)
    ("littlewood-all", dict(n=3, cap=6), [(2, 1, 0), (3, 0, 0)], [0, 0, 3]),
    ("littlewood-asym-1", dict(n=3, cap=6), [(2, 2, 2)], [2, 2, 2]),
    ("littlewood-even-cols", dict(n=3, cap=6), [(1, 0, 0)], [0, 0, 1]),  # a key neither side has
    # each group is sorted on its own
    ("cauchy", dict(n=2, m=2, cap=6), [(1, 1, 2, 0), (2, 0, 1, 1)], [0, 2, 1, 1]),
    ("skew-dual-cauchy", dict(n=2, m=3, cap=5, lam=(1,), rho=(2, 1)), [(3, 0, 1, 1, 0)],
     [0, 3, 0, 1, 1]),
])
def test_dominant_mismatch_matches_full_reference(name, kwargs, keys, first):
    """A symmetric error on one side is reported the same way on dominant
    terms as on every monomial: the same checked terms and the same first
    mismatch."""
    n = kwargs["n"]
    lhs, rhs = full_sides(name, **kwargs)
    for key in keys:
        lhs = _inject(lhs, n, key)
    full = oracle.compare(name, {}, lhs, rhs)
    equal, checked, details = _compare(_dominant(lhs, n).terms, _dominant(rhs, n).terms, n)
    dominant = Report(name, equal, checked, {}, details)
    assert not full.equal and full.details["mismatch"]["exponents"] == first
    assert dominant.to_dict() == full.to_dict()


@pytest.mark.parametrize("family,checked", [
    ("all", 74613), ("even-rows", 43065), ("even-cols", 32769), ("asym+1", 4558), ("asym-1", 19221),
])
def test_littlewood_n6_degree16_within_bound(family, checked):
    t0 = time.perf_counter()
    report = verify_identity(f"littlewood-{family}", n=6, cap=16)
    elapsed = time.perf_counter() - t0
    assert report.equal and report.checked_terms == checked
    assert elapsed < 2, f"littlewood-{family} n=6 degree 16 took {elapsed:.2f}s"
