from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from growthdiagrams import (
    DomainError,
    Rule,
    apply_rule,
    build_growth,
    down_set,
    growth,
    littlewood_inverse,
    littlewood_map,
    littlewood_variant,
    rsk,
    rsk_inverse,
    size,
    triangular_array,
    unapply_rule,
    up_set,
)
from growthdiagrams.interlacing import (
    CapacityError,
    Direction,
    ProfileKind,
    _removable_rows,
    decode,
    down_sets_through,
    encode,
    multiset_size,
    profile,
    up_sets_through,
)
from growthdiagrams.partitions import enumerate_partitions, join, meet

# the worked insertion table for lam = rho = (3,2), k = 2
TABLE_ROW = {
    (3, 2): (5, 2),
    (2, 2): (4, 3),
    (3, 1): (4, 2, 1),
    (2, 1): (3, 3, 1),
    (3,): (3, 2, 2),
}
TABLE_COL = {
    (3, 2): (3, 2, 2),
    (2, 2): (4, 2, 1),
    (3, 1): (3, 3, 1),
    (2, 1): (5, 2),
    (3,): (4, 3),
}


@pytest.mark.parametrize("rule,table", [(Rule.ROW, TABLE_ROW), (Rule.COL, TABLE_COL)])
def test_worked_table(rule, table):
    lam = (3, 2)
    for mu, nu in table.items():  # k = 2 = |R(mu)| + a, |R(mu)| = |lam| - |mu|
        assert apply_rule(rule, lam, lam, 2 - size(lam) + size(mu), mu) == nu


def test_unapply_examples():
    lam = (3, 2)
    assert unapply_rule(Rule.ROW, lam, lam, (5, 2)) == ((3, 2), 2)
    # a = |nu| + |mu| - |lam| - |rho| = 7 + 3 - 10 = 0 here
    assert unapply_rule(Rule.COL, lam, lam, (5, 2)) == ((2, 1), 0)
    # k = 0 (a = 0 on a mu that removes nothing) forces the trivial square for every rule
    for rule in Rule:
        assert unapply_rule(rule, (2, 1), (2, 2), (2, 2)) == ((2, 1), 0)
        assert apply_rule(rule, (2, 1), (2, 2), 0, (2, 1)) == (2, 2)


def test_domain_errors():
    lam = (3, 2)
    with pytest.raises(DomainError, match=r"^a must be >= 0, got -1$"):
        apply_rule(Rule.ROW, lam, lam, -1, (3, 2))
    with pytest.raises(DomainError, match=r"^a must be 0 or 1, got 3$"):
        apply_rule(Rule.DUAL_ROW, lam, lam, 3, (3, 2))
    with pytest.raises(DomainError, match=r"^\(3, 3\) is not below both \(3, 2\) and"):
        apply_rule(Rule.ROW, lam, lam, 0, (3, 3))
    with pytest.raises(DomainError, match=r"^\(3, 2, 2, 1\) is not above both \(3, 2\) and"):
        unapply_rule(Rule.ROW, lam, lam, (3, 2, 2, 1))  # not in any up set


def test_apply_rule_and_unapply_are_exact_inverses():
    """unapply_rule(rule, lam, rho, apply_rule(rule, lam, rho, a, mu)) == (mu, a) for
    every lam, rho, mu in the 3x3 box and every allowed a (0 or 1 dual, 0..3 else)
    on which apply accepts mu; it refuses exactly the mu outside lam ^ rho's down
    sets, and a < 0 (dual: a not 0 or 1) by the entry's message before any mu."""
    box = enumerate_partitions(9, (3, 3))
    applied = 0
    for rule in Rule:
        entries = range(2) if rule.dual else range(4)
        bad = (-1, 2) if rule.dual else (-1,)
        for lam in box:
            for rho in box:
                downs = {mu for d in down_sets_through(lam, rho, 9, rule.dual) for mu in d}
                for mu in box:
                    for a in bad:
                        assert _refusal(apply_rule, rule, lam, rho, a, mu) == (
                            f"a must be {'0 or 1' if rule.dual else '>= 0'}, got {a}"
                        )
                    for a in entries:
                        if mu not in downs:
                            assert _refusal(apply_rule, rule, lam, rho, a, mu) == (
                                f"{mu} is not below both {lam} and {rho}"
                            )
                            continue
                        nu = apply_rule(rule, lam, rho, a, mu)
                        assert unapply_rule(rule, lam, rho, nu) == (mu, a), (rule, lam, rho, mu, a)
                        applied += 1
    assert applied == 4_936


def test_growth_engine_looks_up_apply_rule_once_per_square(monkeypatch):
    """The benchmark's tracer counts squares by wrapping growth.apply_rule."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return apply_rule(*args, **kwargs)

    monkeypatch.setattr(growth, "apply_rule", counted)
    build_growth(Rule.COL, [[(i + j) % 3 for j in range(5)] for i in range(4)])
    assert len(calls) == 20


@pytest.mark.parametrize("family", ["all", "even-rows", "even-cols", "asym+1", "asym-1"])
def test_growth_engine_looks_up_each_kernel_once_per_square(monkeypatch, family):
    """The tracer counts squares by wrapping the engine's globals: rsk_inverse
    unapplies the rule on each of its n*m squares, and a Littlewood map of
    size n runs the rule on its n(n-1)/2 full squares and the projection on its
    n half squares, in both directions."""
    calls = Counter()

    def counted(name):
        fn = getattr(growth, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    for name in ("apply_rule", "unapply_rule", "proj_apply", "proj_unapply"):
        monkeypatch.setattr(growth, name, counted(name))
    P, Q = rsk(Rule.COL, [[(i + j) % 3 for j in range(5)] for i in range(4)])
    rsk_inverse(Rule.COL, P, Q)
    assert calls == {"apply_rule": 20, "unapply_rule": 20}
    calls.clear()
    v = littlewood_variant(family)
    array = triangular_array([[0] + [(i + j) % 2 for j in range(5 - i)] for i in range(6)])
    littlewood_map(v, array)
    assert calls == {"apply_rule": 15, "proj_apply": 6}
    littlewood_inverse(v, littlewood_map(v, array))
    assert calls == {"apply_rule": 30, "proj_apply": 12, "unapply_rule": 15, "proj_unapply": 6}


def test_bijectivity_box():
    """Every rule maps its stated domain bijectively onto the up set, and
    unapply inverts elementwise; 3x3 box, k <= 4."""
    box = [p for p in enumerate_partitions(9, (3, 3))]
    for lam in box:
        for rho in box:
            D = down_sets_through(lam, rho, 4)
            U = up_sets_through(lam, rho, 4)
            Ds = down_sets_through(lam, rho, 4, dual=True)
            Us = up_sets_through(lam, rho, 4, dual=True)
            base = size(meet(lam, rho))  # mu in D(lam, rho, j) has j = base - |mu|
            dom = []
            for k in range(5):
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
                        assert a == size(nu) + size(mu) - size(lam) - size(rho)
                        assert a >= 0
                        if rule.dual:
                            assert a in (0, 1)
                    assert sorted(image) == target, (rule, lam, rho, k)


def test_symmetry():
    """Row and col rules are symmetric in (lam, rho)."""
    box = enumerate_partitions(6)
    for lam in box:
        for rho in box:
            for k in range(4):
                for mu in down_set(lam, rho, k):
                    for a in range(5 - k):  # k - j for j = k and k <= 4
                        for rule in (Rule.ROW, Rule.COL):
                            assert apply_rule(rule, lam, rho, a, mu) == apply_rule(
                                rule, rho, lam, a, mu
                            )


def test_degree_bookkeeping():
    lam, rho = (4, 2, 1), (3, 3)
    for k in range(2, 5):
        for mu in down_set(lam, rho, 2):
            nu = apply_rule(Rule.ROW, lam, rho, k - 2, mu)
            assert size(nu) - size(join(lam, rho)) == k
            assert (size(meet(lam, rho)) - size(mu)) + (
                size(nu) + size(mu) - size(lam) - size(rho)
            ) == k


# ---------------------------------------------------------------------------
# The rules as the paper states them: encode mu as a multiset R of removable
# ribbon positions, transform R into S, decode S as nu.  The package's rules
# act on part vectors; these references pin them to the position multisets.

def _reference_apply(rule, lam, rho, k, mu):
    if k < 0:
        raise DomainError("k must be >= 0")
    counts = encode(mu, lam, rho, Direction.DOWN, dual=rule.dual)
    j = multiset_size(counts)
    if rule.dual and j not in (k, k - 1) or not rule.dual and j > k:
        raise DomainError(f"|R(mu)| = {j} does not fit k = {k}")
    if rule is Rule.ROW:
        out = {**counts, 0: k - j} if k > j else counts
    elif rule is Rule.COL:
        out = _reference_col_forward(counts, k, _caps(lam, rho))
    elif rule is Rule.DUAL_ROW:
        out = {**counts, 0: 1} if j == k - 1 else counts
    else:
        d = len(profile(lam, rho, ProfileKind.DUAL_REMOVABLE).entries)
        out = {x - 1: 1 for x in counts}
        if j == k - 1:
            out[d] = 1
    return decode(out, lam, rho, Direction.UP, dual=rule.dual)


def _reference_unapply(rule, lam, rho, nu):
    s_counts = encode(nu, lam, rho, Direction.UP, dual=rule.dual)
    if rule is Rule.ROW or rule is Rule.DUAL_ROW:
        r_counts = {p: c for p, c in s_counts.items() if p != 0}
    elif rule is Rule.COL:
        r_counts = _reference_col_backward(s_counts, _caps(lam, rho))
    else:
        d = len(profile(lam, rho, ProfileKind.DUAL_REMOVABLE).entries)
        r_counts = {p + 1: 1 for p in s_counts if p != d}
    mu = decode(r_counts, lam, rho, Direction.DOWN, dual=rule.dual)
    return mu, size(nu) + size(mu) - size(lam) - size(rho)


def _caps(lam, rho):
    return [cap for _, cap in _removable_rows(lam, rho)]


def _reference_col_forward(counts, k, caps):
    """Drivers R + {inf^(k-j)} ascending each take the largest pool slot
    strictly below them (else slot 0); the pool is the addable slots minus R."""
    pool = [0] + [cap - counts.get(i, 0) for i, cap in enumerate(caps, 1)]
    if min(pool) < 0:
        raise CapacityError("removable multiplicity exceeds the addable capacity")
    drivers = sorted(p for p, c in counts.items() for _ in range(c))
    drivers += [len(caps) + 1] * (k - len(drivers))
    out = {}
    for x in drivers:
        y = max((i for i in range(1, x) if pool[i] > 0), default=0)
        pool[y] -= 1
        out[y] = out.get(y, 0) + 1
    return out


def _reference_col_backward(s_counts, caps):
    """S descending, each element takes the smallest unused removable
    position strictly above it; unmatched elements came from infinite drivers."""
    pool = [cap - s_counts.get(i, 0) for i, cap in enumerate(caps, 1)]
    if min(pool, default=0) < 0:
        raise DomainError("addable multiplicity exceeds the removable capacity")
    out = {}
    for s in sorted((p for p, c in s_counts.items() for _ in range(c)), reverse=True):
        r = next((i for i in range(s + 1, len(caps) + 1) if pool[i - 1] > 0), None)
        if r is not None:
            pool[r - 1] -= 1
            out[r] = out.get(r, 0) + 1
    return out


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DomainError:
        return DomainError


def test_rules_match_position_multiset_reference():
    """Value for value and DomainError for DomainError: apply over every mu in
    the 3x3 box with k <= 4, unapply over every nu in the 4x4 box."""
    box = enumerate_partitions(9, (3, 3))
    above = enumerate_partitions(16, (4, 4))
    cases = 0
    for rule in Rule:
        for lam in box:
            for rho in box:
                base = size(meet(lam, rho))
                for mu in box:
                    for k in range(5):
                        expect = _outcome(_reference_apply, rule, lam, rho, k, mu)
                        a = k - base + size(mu)
                        assert _outcome(apply_rule, rule, lam, rho, a, mu) == expect, (
                            rule, lam, rho, k, mu,
                        )
                        cases += 1
                for nu in above:
                    expect = _outcome(_reference_unapply, rule, lam, rho, nu)
                    assert _outcome(unapply_rule, rule, lam, rho, nu) == expect, (
                        rule, lam, rho, nu,
                    )
                    cases += 1
    assert cases == 272_000


def _refusal(fn, *args, **kwargs):
    """The message of the DomainError the call raises, or None."""
    try:
        fn(*args, **kwargs)
    except DomainError as e:
        return str(e)
    return None


def _apply_refusal(rule, lam, rho, mu, a, encoded):
    """The refusal apply_rule owes on entry a: the entry's own when a < 0 (dual: a
    not 0 or 1), else "not below both" when the encoding refuses mu."""
    if a < 0 or rule.dual and a > 1:
        return f"a must be {'0 or 1' if rule.dual else '>= 0'}, got {a}"
    return None if encoded else f"{mu} is not below both {lam} and {rho}"


def test_refusal_messages_name_their_reason():
    """Each refusal says why, with the caller's own tuples: "not below (above)
    both" exactly when the position-multiset encoding refuses the shape, unless
    apply's entry a is refused first.  Apply over the 3x3 box with a in -1..3,
    unapply over the 4x4 box; both boxes hold lam and rho whose lengths differ
    by 2 or 3, which the row/col passes refuse after their row loop."""
    box = enumerate_partitions(9, (3, 3))
    above = enumerate_partitions(16, (4, 4))
    apart = 0
    for rule in Rule:
        for lam in box:
            for rho in box:
                apart += abs(len(lam) - len(rho)) > 1
                for mu in box:
                    try:
                        encode(mu, lam, rho, Direction.DOWN, dual=rule.dual)
                        encoded = True
                    except DomainError:
                        encoded = False
                    for a in range(-1, 4):
                        assert _refusal(apply_rule, rule, lam, rho, a, mu) == (
                            _apply_refusal(rule, lam, rho, mu, a, encoded)
                        ), (rule, lam, rho, mu, a)
                for nu in above:
                    try:
                        encode(nu, lam, rho, Direction.UP, dual=rule.dual)
                        expect = None
                    except DomainError:
                        expect = f"{nu} is not above both {lam} and {rho}"
                    assert _refusal(unapply_rule, rule, lam, rho, nu) == expect, (lam, rho, nu)
    assert apart == 4 * 92  # of 4 * 400 (lam, rho) pairs


@pytest.mark.parametrize(
    "rule,count",
    [(Rule.ROW, 12_684), (Rule.COL, 12_684), (Rule.DUAL_ROW, 8_138), (Rule.DUAL_COL, 8_138)],
    ids=["row", "col", "dual-row", "dual-col"],
)
def test_rules_match_reference_on_4x4_box(rule, count):
    """Each rule's own passes (row's and col's with row n outside the loop,
    col's apply bottom-up; the dual ones with their row past lam and rho)
    against the rules as the paper states them, where col's matching passes
    up to four slots: every lam, rho in the 4x4 box, mu in
    D(lam, rho, j) for j <= 3 (dual: D*) and j <= k <= 3 (dual: k in
    {j, j+1}), applied and its image unapplied."""
    box = enumerate_partitions(16, (4, 4))
    cases = 0
    for lam in box:
        for rho in box:
            for j, downs in enumerate(down_sets_through(lam, rho, 3, rule.dual)):
                for mu in downs:
                    for k in (j, j + 1) if rule.dual else range(j, 4):
                        nu = apply_rule(rule, lam, rho, k - j, mu)
                        expect = _reference_apply(rule, lam, rho, k, mu)
                        assert nu == expect, (lam, rho, k, mu)
                        assert unapply_rule(rule, lam, rho, nu) == (
                            _reference_unapply(rule, lam, rho, nu)
                        ), (lam, rho, nu)
                        cases += 1
    assert cases == count


# Past the 3x3 box: partitions with up to 8 rows, where dual corners and slots
# sit high up and the row scans run long.  Inputs are drawn near the down and
# up sets, so about half are valid and the rest sit one cell outside.

@st.composite
def _nudged(draw, p, times):
    """p with up to ``times`` single cells added or removed, kept a partition."""
    v = [*p, 0]
    for _ in range(draw(st.integers(0, times))):
        r, d = draw(st.integers(0, len(v) - 1)), draw(st.sampled_from((-1, 1)))
        v[r] += d
        if v[r] < 0 or any(a < b for a, b in zip(v, v[1:])):
            v[r] -= d
        if v[-1]:
            v.append(0)
    return tuple(x for x in v if x)


_tall = st.lists(st.integers(1, 8), max_size=8).map(lambda v: tuple(sorted(v, reverse=True)))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(data=st.data())
def test_rules_match_reference_on_tall_partitions(data):
    rule = data.draw(st.sampled_from(list(Rule)))
    lam = data.draw(_tall)
    rho = data.draw(st.one_of(_tall, _nudged(lam, 6)))
    downs = [mu for d in down_sets_through(lam, rho, 4, rule.dual) for mu in d] or [meet(lam, rho)]
    mu = data.draw(st.sampled_from(downs).flatmap(lambda m: _nudged(m, 1)))
    a = data.draw(st.integers(-1, 2))
    assert _outcome(apply_rule, rule, lam, rho, a, mu) == _outcome(
        _reference_apply, rule, lam, rho, size(meet(lam, rho)) - size(mu) + a, mu
    )
    ups = [nu for u in up_sets_through(lam, rho, 4, rule.dual) for nu in u] or [join(lam, rho)]
    nu = data.draw(st.sampled_from(ups).flatmap(lambda n: _nudged(n, 1)))
    assert _outcome(unapply_rule, rule, lam, rho, nu) == _outcome(
        _reference_unapply, rule, lam, rho, nu
    )
