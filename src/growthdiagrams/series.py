"""Exact truncated polynomials and identity verification.

Polynomials are sparse maps from exponent vectors to exact ints, truncated at
a total-degree cap; products silently drop terms beyond the cap.  Schur and
skew Schur polynomials are weighted sums over strip chains, which one sweep
out of one shape enumerates for every shape it reaches: up sweeps add strips
for the sum sides, down sweeps remove them for the inner sums and for
``schur``.  A sweep summed over a set of final shapes (a Littlewood family,
the Pieri strips, ``schur``'s mu) ends in that one total.  ``IDENTITIES`` is
the table of every check ``verify_identity`` runs.  A series identity is
verified by computing both sides independently and comparing coefficients.
Both sides are symmetric in each group of variables (x, and y for Cauchy), so
a verification computes and compares only their dominant terms, whose
exponents weakly decrease within each group (the m_lambda basis).  The table
also holds the bijective check that column insertion, a one-column growth per
column, builds the same tableaux as the whole growth diagram.  Every check
reports ``equal``, ``checked_terms`` and ``params`` plus its own details.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache
from math import factorial, prod
from operator import add, ge, itemgetter
from typing import Callable, NamedTuple

from .growth import build_growth, insert
from .partitions import (
    EMPTY,
    Family,
    Partition,
    check_non_negative,
    check_partitions,
    conjugate,
    contains,
    horizontal_strips_over,
    horizontal_strips_under,
    member,
    partitions_of_size,
    size,
    vertical_strips_over,
    vertical_strips_under,
)
from .projections import LITTLEWOOD
from .rules import Rule
from .tableaux import StepKind, TableauChain, step_kind

Exponents = tuple[int, ...]


class TruncatedPolynomial:
    """Multivariate polynomial with integer coefficients, truncated at a total
    degree cap.  Immutable by convention; a product is a new value, and the
    constructor drops zero coefficients and terms beyond the cap.  The result
    type of ``schur`` and ``product_side``; the only arithmetic is ``*``.  The
    verify sides are plain term dicts within the cap."""

    __slots__ = ("nvars", "cap", "terms")

    def __init__(self, nvars: int, cap: int, terms: dict[Exponents, int] | None = None):
        self.nvars = nvars
        self.cap = cap
        self.terms: dict[Exponents, int] = {}
        if terms:
            for exps, coeff in terms.items():
                if coeff and sum(exps) <= cap:
                    self.terms[exps] = coeff

    def _compatible(self, other: "TruncatedPolynomial") -> None:
        if self.nvars != other.nvars or self.cap != other.cap:
            raise ValueError("operands live in different truncated rings")

    def __mul__(self, other: "TruncatedPolynomial") -> "TruncatedPolynomial":
        self._compatible(other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out: dict[Exponents, int] = {}
        cap = self.cap
        bdeg = [(e, sum(e), c) for e, c in b.items()]
        for ea, ca in a.items():
            da = sum(ea)
            for eb, db, cb in bdeg:
                if da + db > cap:
                    continue
                key = tuple(x + y for x, y in zip(ea, eb))
                out[key] = out.get(key, 0) + ca * cb
        return TruncatedPolynomial(self.nvars, self.cap, out)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TruncatedPolynomial)
            and self.nvars == other.nvars
            and self.cap == other.cap
            and self.terms == other.terms
        )

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self) -> str:
        return f"TruncatedPolynomial({self.nvars}, {self.cap}, {len(self.terms)} terms)"

    def coefficient(self, exps: Exponents) -> int:
        return self.terms.get(tuple(exps), 0)


# ---------------------------------------------------------------------------
# Schur polynomials via strip chains.

Terms = dict[Exponents, int]
States = dict[Partition, Terms]

_OVER = {StepKind.HORIZONTAL: horizontal_strips_over, StepKind.VERTICAL: vertical_strips_over}
_UNDER = {StepKind.HORIZONTAL: horizontal_strips_under, StepKind.VERTICAL: vertical_strips_under}


def _sweep(shape: Partition, n: int, budget: int,
           strips: Callable[[Partition, int], list[Partition]], dominant: bool = False,
           keep: Callable[[Partition], bool] | None = None) -> States | Terms:
    """All n-step strip chains out of one shape at once (the branching rule).

    ``strips`` enumerates the strips over a shape (an up sweep) or under it (a
    down sweep).  Each step adds or removes one strip at every shape reached,
    the chains move at most ``budget`` cells in all, and the strip's size is
    appended to every exponent tuple.  An up sweep ends at nu with
    s_{nu/shape}(x_1..x_n), or s_{nu'/shape'} for vertical strips.  A down
    sweep ends at mu with s_{shape/mu} in x_n..x_1; a skew Schur polynomial is
    symmetric, so its term dict is the same.  Each shape's strips are listed
    once per room within the call.

    With ``dominant`` only chains whose strips weakly shrink are kept, so the
    weakly decreasing terms alone remain: a step moves no strip larger than
    the previous step's strip of that term.

    With ``keep`` the last step adds the terms of the shapes that ``keep``
    accepts (asked once per shape) into the one term dict returned.
    """
    top = sum(shape)
    states: States = {shape: {(): 1}}
    listed: dict[tuple[Partition, int], list[Partition]] = {}
    kept = cache(keep) if keep is not None else None
    for step in range(n):
        prune = dominant and step > 0
        last = kept and step == n - 1
        nxt: States = {}
        for sig, terms in states.items():
            s = sum(sig)
            room = budget - abs(s - top)
            if prune:
                room = min(room, max(map(itemgetter(-1), terms)))
            taus = listed.get((sig, room))
            if taus is None:
                taus = listed[sig, room] = strips(sig, room)
            for tau in filter(kept, taus) if last else taus:
                d = abs(sum(tau) - s)
                acc = nxt.get(None if last else tau)  # None: the last step's one total
                if acc is None:
                    acc = nxt[None if last else tau] = {}
                for exps, coeff in terms.items():
                    if prune and exps[-1] < d:
                        continue
                    key = exps + (d,)
                    acc[key] = acc.get(key, 0) + coeff
        states = nxt
    if keep is None:
        return states
    return states.get(None, {}) if n else ({(): 1} if keep(shape) else {})


def schur(
    lam: Partition,
    n: int,
    cap: int,
    steps: StepKind = StepKind.HORIZONTAL,
    mu: Partition = EMPTY,
) -> TruncatedPolynomial:
    """The skew Schur polynomial s_{lam/mu}(x_1..x_n).

    It is the sum over chains mu = c_0 < c_1 < ... < c_n = lam of horizontal
    strips, x_i weighting c_i/c_{i-1}.  Chains of vertical strips give
    s_{lam'/mu'}.  The result is homogeneous of degree |lam/mu|, so it is zero
    beyond the cap.  It is read at mu off a down sweep from lam.
    """
    check_non_negative(n=n, cap=cap)
    lam, mu = check_partitions(lam=lam, mu=mu)
    if not contains(mu, lam):
        raise ValueError(f"{mu} is not contained in {lam}")
    budget = min(cap, size(lam) - size(mu))
    under = _UNDER[step_kind(steps)]
    return TruncatedPolynomial(n, cap, _sweep(lam, n, budget, under, keep=mu.__eq__))


def count_syt(lam: Partition) -> int:
    """Number of standard Young tableaux of shape lam, by the hook length formula."""
    (lam,) = check_partitions(lam=lam)
    conj = conjugate(lam)
    hooks = prod(p - c + conj[c] - r - 1 for r, p in enumerate(lam) for c in range(p))
    return factorial(size(lam)) // hooks


# ---------------------------------------------------------------------------
# Product sides.

#: The Littlewood products by name; their factors are read from ``LITTLEWOOD``.
_LITTLEWOOD_KINDS = {f"littlewood-{family.value}": family for family in Family}


def _factors(family: Family | None, n: int, m: int) -> list[list[Exponents]]:
    """The monomials of a product's factors in rows, one per x_i: for Cauchy
    (no family) x_i y_j for every j, for a Littlewood family x_i^p and then
    x_i x_j for j > i.  No later row touches x_i."""
    nv, p = (n + m, 0) if family is None else (n, LITTLEWOOD[family].power)
    rows = []
    for i in range(n):
        row = [tuple(p * (t == i) for t in range(nv))] if p else []
        first = n if family is None else i + 1
        rows.append(row + [tuple(int(t in (i, j)) for t in range(nv)) for j in range(first, nv)])
    return rows


def _decreasing(exps: Exponents) -> bool:
    """Whether the exponents weakly decrease, as a dominant key's do."""
    return all(map(ge, exps, exps[1:]))


def _times(terms: Terms, rows: list[list[Exponents]], dual: bool, cap: int,
           dominant: bool = False) -> Terms:
    """terms times the product over the monomials x^e of 1 + x^e when dual,
    else of 1/(1 - x^e), truncated at the cap.  Each factor shifts the terms:
    1 + x^e adds one copy by e, and 1/(1 - x^e) one copy per multiple of e.

    ``rows`` are the factors of ``_factors``, so after row i the exponent of
    x_i is final and those of the later x_j only grow.  With ``dominant`` the
    terms that can no longer weakly decrease in x_1..x_n are never kept: every
    factor of row i > 0 raises e_i, so its copies stop at e_i = e_{i-1}, and
    after row i the terms with e_j > e_i for some later j are dropped.
    """
    n = len(rows)
    for i, row in enumerate(rows):
        for e in row:
            d = sum(e)
            out = dict(terms)
            for exps, coeff in terms.items():
                copies = (cap - sum(exps)) // d
                if dominant and i and (exps[i - 1] - exps[i]) // e[i] < copies:
                    copies = (exps[i - 1] - exps[i]) // e[i]
                for _ in range(min(copies, 1) if dual else copies):
                    exps = tuple(map(add, exps, e))
                    out[exps] = out.get(exps, 0) + coeff
            terms = out
        if dominant:
            terms = {exps: coeff for exps, coeff in terms.items() if max(exps[i:n]) == exps[i]}
    return terms


def product_side(kind: str, n: int, m: int, cap: int) -> TruncatedPolynomial:
    """Expansion of the named product; variables are x_1..x_n then y_1..y_m for
    the Cauchy kinds and x_1..x_n for the Littlewood kinds."""
    if kind in ("cauchy", "dual-cauchy"):
        nv, family, dual = n + m, None, kind == "dual-cauchy"
    elif kind in _LITTLEWOOD_KINDS:
        family = _LITTLEWOOD_KINDS[kind]
        nv, dual = n, LITTLEWOOD[family].dual
    else:
        raise ValueError(f"unknown product {kind!r}")
    check_non_negative(n=n, m=m, cap=cap)
    return TruncatedPolynomial(nv, cap, _times({(0,) * nv: 1}, _factors(family, n, m), dual, cap))


# ---------------------------------------------------------------------------
# Identity verification.

@dataclass(frozen=True)
class Report:
    """The outcome of one check: whether it held, how many terms it checked,
    the request's parameters, and the details its identity reports (the
    first mismatch, the two counts, or the failing matrix)."""

    identity: str
    equal: bool
    checked_terms: int
    params: dict
    details: dict

    def to_dict(self) -> dict:
        return {"identity": self.identity, "equal": self.equal,
                "checked_terms": self.checked_terms, "params": self.params, **self.details}


def _rearrangements(exps: Exponents) -> int:
    """The number of distinct rearrangements of a sorted exponent tuple: after i
    entries, i! over the factorials of the lengths of its runs of equal entries."""
    count = run = 1
    for i in range(1, len(exps)):
        run = run + 1 if exps[i] == exps[i - 1] else 1
        count = count * (i + 1) // run
    return count


def _compare(lhs: Terms, rhs: Terms, n: int) -> tuple[bool, int, dict]:
    """Compare the sides on every key of either: whether they agree, the
    number of monomials checked, and the first mismatch in (degree, lex)
    order, if any.

    The sides are symmetric in x_1..x_n and in the variables after them, and
    hold only their dominant terms, sorted descending in each group.  Each key
    stands for its distinct rearrangements within the two groups, all counted
    as checked, and the first of them sorts each group ascending.
    """
    keys = set(lhs) | set(rhs)
    wrong = [e for e in keys if lhs.get(e, 0) != rhs.get(e, 0)]
    checked = sum(_rearrangements(e[:n]) * _rearrangements(e[n:]) for e in keys)
    if not wrong:
        return True, checked, {}
    first = {e: tuple(sorted(e[:n])) + tuple(sorted(e[n:])) for e in wrong}
    e = min(wrong, key=lambda e: (sum(e), first[e]))
    return False, checked, {"mismatch": {"exponents": list(first[e]), "lhs": lhs.get(e, 0),
                                         "rhs": rhs.get(e, 0)}}


def _pair(xs: States, ys: States) -> Terms:
    """The sum over shapes of xs[shape] ys[shape], x exponents before y ones."""
    out: Terms = {}
    for shape, xterms in xs.items():
        for ex, cx in xterms.items():
            for ey, cy in ys.get(shape, {}).items():
                key = ex + ey
                out[key] = out.get(key, 0) + cx * cy
    return out


def _cauchy(e: Identity, n: int, m: int, cap: int, lam: Partition, rho: Partition, **_):
    """sum_nu s_{nu/rho}(x) s_{nu/lam}(y) is the product of 1/(1 - x_i y_j)
    times sum_mu s_{lam/mu}(x) s_{rho/mu}(y).  The dual identity has vertical
    strips on the y side and the product of 1 + x_i y_j.  A pair at nu (at mu)
    has degree |nu/rho| + |nu/lam| (|lam/mu| + |rho/mu|), so the sweeps stop
    at |nu| <= top (|mu| >= low) and build no term beyond the cap."""
    top = (cap + size(lam) + size(rho)) // 2
    low = (size(lam) + size(rho) - cap + 1) // 2
    lhs = _pair(_sweep(rho, n, top - size(rho), horizontal_strips_over, dominant=True),
                _sweep(lam, m, top - size(lam), _OVER[e.steps], dominant=True))
    inner = _pair(_sweep(lam, n, size(lam) - low, horizontal_strips_under),
                  _sweep(rho, m, size(rho) - low, _UNDER[e.steps]))
    rhs = _times(inner, _factors(None, n, m), e.steps is StepKind.VERTICAL, cap, dominant=True)
    return _compare(lhs, {exps: coeff for exps, coeff in rhs.items() if _decreasing(exps[n:])}, n)


def _littlewood(e: Identity, n: int, cap: int, lam: Partition, **_):
    """The sum of s_{nu/lam}(x) over nu in the family is the product times the
    sum of s_{lam/mu}(x) over mu in the family; for the asymmetric families the
    inner sum is of s_{lam'/mu}(x) over mu in the opposite family."""
    row = LITTLEWOOD[e.family]
    shape = conjugate(lam) if row.dual else lam
    lhs = _sweep(lam, n, cap, horizontal_strips_over, dominant=True,
                 keep=lambda nu: member(nu, e.family))
    inner = _sweep(shape, n, cap, horizontal_strips_under, keep=lambda mu: member(mu, row.inner))
    return _compare(lhs, _times(inner, _factors(e.family, n, 0), row.dual, cap, dominant=True), n)


def _pieri(e: Identity, n: int, lam: Partition, k: int, **_):
    """h_k s_lam is the sum of s_nu over the horizontal k-strips nu over lam;
    the dual identity has e_k and vertical strips.  h_k (e_k) is the degree-k
    part of the product of 1/(1 - x_i) (of 1 + x_i), so the left side is
    s_lam times that product, read at degree |lam| + k."""
    top = size(lam) + k
    shapes = {nu for nu in _OVER[e.steps](lam, k) if size(nu) == top}
    units = [[tuple(int(t == i) for t in range(n))] for i in range(n)]
    lhs = _times(schur(lam, n, top).terms, units, e.steps is StepKind.VERTICAL, top, dominant=True)
    rhs = _sweep(EMPTY, n, top, horizontal_strips_over, dominant=True, keep=shapes.__contains__)
    return _compare({exps: coeff for exps, coeff in lhs.items() if sum(exps) == top}, rhs, n)


def _squarefree(e: Identity, n: int, **_):
    """The sum of f_lam^2 over the partitions of n is n!."""
    lhs, rhs = sum(count_syt(p) ** 2 for p in partitions_of_size(n)), factorial(n)
    return lhs == rhs, 1, {"lhs": lhs, "rhs": rhs}


def _insertion_agreement(e: Identity, n: int, m: int, seed: int, **_):
    """Seed-fixed random check that column insertion (a one-column growth per
    column) equals the whole-grid construction: 20 random n x m matrices per rule."""
    for field, count in (("n", n), ("m", m)):
        if count == 0:
            raise ValueError(f"{field}: expected a positive integer, got 0")
    rng = random.Random(seed)
    checked = 0
    for _ in range(20):
        for rule in Rule:
            hi = 1 if rule.dual else 2
            matrix = [[rng.randint(0, hi) for _ in range(m)] for _ in range(n)]
            grid = build_growth(rule, matrix)
            tab = TableauChain.trivial(EMPTY, n)
            for j in range(m):
                tab = insert(rule, tab, {i + 1: matrix[i][j] for i in range(n)})
                if tab.chain != tuple(grid.vertices[i][j + 1] for i in range(n + 1)):
                    return False, checked, {"matrix": matrix}
                checked += 1
    return True, checked, {}


class Identity(NamedTuple):
    """How to check an identity, the request fields its report lists, the
    strip kind of its dual side and its partition family.  ``check`` returns
    whether the identity held, the number of terms checked and the details
    its report adds."""

    check: Callable[..., tuple[bool, int, dict]]
    params: tuple[str, ...]
    steps: StepKind = StepKind.HORIZONTAL
    family: Family | None = None


_CAUCHY = ("n", "degree", "m")
_SKEW_CAUCHY = ("n", "degree", "m", "lam", "rho")
_PIERI = ("n", "degree", "k", "lam")

#: Every identity ``verify_identity`` checks, by name.  The plain Cauchy and
#: Littlewood identities are the skew ones with empty shapes; the last row is
#: the bijective check.
IDENTITIES: dict[str, Identity] = {
    "cauchy": Identity(_cauchy, _CAUCHY),
    "dual-cauchy": Identity(_cauchy, _CAUCHY, StepKind.VERTICAL),
    "skew-cauchy": Identity(_cauchy, _SKEW_CAUCHY),
    "skew-dual-cauchy": Identity(_cauchy, _SKEW_CAUCHY, StepKind.VERTICAL),
    **{f"littlewood-{f.value}": Identity(_littlewood, ("n", "degree"), family=f)
       for f in Family},
    **{f"skew-littlewood-{f.value}": Identity(_littlewood, ("n", "degree", "lam"), family=f)
       for f in Family},
    "pieri": Identity(_pieri, _PIERI),
    "dual-pieri": Identity(_pieri, _PIERI, StepKind.VERTICAL),
    "squarefree": Identity(_squarefree, ("n",)),
    "insertion-agreement": Identity(_insertion_agreement, ("n", "m", "seed")),
}


def verify_identity(
    identity: str,
    n: int,
    cap: int | None = None,
    m: int | None = None,
    lam: Partition = EMPTY,
    rho: Partition = EMPTY,
    k: int | None = None,
    seed: int | None = None,
) -> Report:
    """Run the named check; a series identity computes both sides exactly
    and compares them.

    The sum sides sweep every shape that can contribute a term of total
    degree at most the cap; this is a finite set because a (skew) Schur
    polynomial is homogeneous of the skew-shape size.  Both sides are
    symmetric, so only their dominant terms are computed and compared;
    ``checked_terms`` still counts every monomial of either side.  The cap
    (the report's degree) defaults to 6, and the seed to 0.  A parameter the
    identity does not take is refused when given, the cap included.
    """
    entry = IDENTITIES.get(identity)
    if entry is None:
        raise ValueError(f"unknown identity {identity!r}")
    check_non_negative(n=n, m=m, degree=cap, k=k)
    if seed is not None and type(seed) is not int:  # any int seeds the generator, negatives too
        raise ValueError(f"seed: expected an integer, got {seed}")
    given = {"m": m is not None, "k": k is not None, "lam": lam not in ((), []),
             "rho": rho not in ((), []), "degree": cap is not None, "seed": seed is not None}
    for field, is_given in given.items():
        if is_given and field not in entry.params:
            raise ValueError(f"{field}: identity {identity!r} takes no {field}")
    cap = 6 if cap is None else cap
    m = n if m is None else m
    k = 0 if k is None else k
    seed = 0 if seed is None else seed
    lam, rho = check_partitions(lam=lam, rho=rho)
    values = {"n": n, "degree": cap, "m": m, "k": k, "lam": list(lam), "rho": list(rho),
              "seed": seed}
    params = {name: values[name] for name in entry.params}
    equal, checked, details = entry.check(entry, n=n, m=m, cap=cap, lam=lam, rho=rho, k=k,
                                          seed=seed)
    return Report(identity, equal, checked, params, details)
