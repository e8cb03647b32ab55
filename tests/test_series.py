from itertools import permutations
from math import factorial

import pytest

import oracle
from growthdiagrams import (
    EMPTY,
    Family,
    StepKind,
    TruncatedPolynomial,
    conjugate,
    count_syt,
    enumerate_partitions,
    product_side,
    schur,
    size,
    verify_identity,
)
from growthdiagrams.partitions import sub_partitions
from growthdiagrams.series import geometric, one_plus


from hypothesis import given, strategies as st


@st.composite
def small_polys(draw):
    nterms = draw(st.integers(0, 5))
    terms = {}
    for _ in range(nterms):
        exps = tuple(draw(st.integers(0, 3)) for _ in range(2))
        terms[exps] = draw(st.integers(-4, 4))
    return TruncatedPolynomial(2, 5, terms)


@given(small_polys(), small_polys(), small_polys())
def test_polynomial_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a - a == TruncatedPolynomial.zero(2, 5)
    assert all(coeff != 0 for coeff in (a * b).terms.values())
    assert all(sum(e) <= 5 for e in (a * b).terms)


def test_polynomial_ring_basics():
    one = TruncatedPolynomial.one(2, 4)
    x = TruncatedPolynomial.monomial(2, 4, (1, 0))
    y = TruncatedPolynomial.monomial(2, 4, (0, 1))
    assert (x + y) * (x + y) == x * x + x * y.scaled(2) + y * y
    assert (x - x) == TruncatedPolynomial.zero(2, 4)
    assert not (x - x)
    # the cap drops products beyond total degree 4
    x2 = x * x
    assert x2 * x2 * x == TruncatedPolynomial.zero(2, 4)
    assert one * x == x
    assert geometric(1, 3, (1,)).terms == {(0,): 1, (1,): 1, (2,): 1, (3,): 1}
    assert one_plus(1, 3, (2,)).terms == {(0,): 1, (2,): 1}
    with pytest.raises(ValueError):
        x + TruncatedPolynomial.one(3, 4)


def test_schur_small_examples():
    assert schur((1,), 2, 5).terms == {(1, 0): 1, (0, 1): 1}
    assert schur((2, 1), 2, 5).terms == {(2, 1): 1, (1, 2): 1}
    # the displayed tableau of weight x1 x2^3 x3^2 x4^2 x5^4 is a witness
    assert schur((5, 4, 2, 1), 5, 12).coefficient((1, 3, 2, 2, 4)) >= 1
    assert schur(EMPTY, 3, 2) == TruncatedPolynomial.one(3, 2)


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
    # every lam inside (4,4,4), every mu inside lam, n <= 3: 1,470 cases
    cases = 0
    for lam in enumerate_partitions(12, (3, 4)):
        for mu in sub_partitions(lam):
            for n in (1, 2, 3):
                expect = oracle.schur_poly(lam, n, mu)
                assert schur(lam, n, 12, mu=mu).terms == expect, (lam, mu, n)
                cases += 1
    assert cases == 1470


def test_schur_conjugation():
    for lam in enumerate_partitions(6):
        dual = schur(lam, 3, 6, StepKind.VERTICAL)
        direct = schur(conjugate(lam), 3, 6)
        assert dual == direct, lam


def test_schur_symmetric_under_variable_permutation():
    for lam in [(3, 1), (2, 2), (4, 2, 1)]:
        p = schur(lam, 3, 7)
        for perm in permutations(range(3)):
            assert p.permuted(perm) == p


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


def test_count_syt():
    assert count_syt((2, 1)) == 2
    assert count_syt((7,)) == 1
    assert count_syt(EMPTY) == 1
    total = sum(count_syt(p) ** 2 for p in enumerate_partitions(4) if size(p) == 4)
    assert total == 24
    for lam in enumerate_partitions(8):
        assert count_syt(lam) == oracle.hook_count_syt(lam), lam


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
    ],
)
def test_verify_identities_small(identity, kwargs):
    report = verify_identity(identity, **kwargs)
    assert report.equal, report
    assert report.checked_terms > 1


def test_verify_squarefree():
    report = verify_identity("squarefree", n=5, cap=0)
    assert report.equal and report.lhs_value == report.rhs_value == 120
    assert report.to_dict()["lhs"] == 120


def test_verify_mismatch_reporting():
    """A deliberately unequal comparison reports the first differing exponent."""
    from growthdiagrams.series import _compare

    a = TruncatedPolynomial(2, 4, {(1, 0): 1, (0, 2): 3})
    b = TruncatedPolynomial(2, 4, {(1, 0): 1, (0, 2): 4})
    rep = _compare("test", {}, a, b)
    assert not rep.equal
    assert rep.mismatch == {"exponents": [0, 2], "lhs": 3, "rhs": 4}


def test_unknown_identity():
    with pytest.raises(ValueError):
        verify_identity("nope", n=1, cap=1)
