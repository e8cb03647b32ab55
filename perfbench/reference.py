"""Independent references for the benchmark's output checks.

Nothing here imports ``growthdiagrams``: classical row-insertion RSK, strip
and family tests on explicit part lists, and dict-based polynomial expansions
(skew Schur polynomials by filling tableaux cell by cell, products of the
identities' factors by repeated truncated multiplication).  A check built on
these agrees with the package only if both are right.
"""

from __future__ import annotations

from bisect import bisect_right

# ---------------------------------------------------------------------------
# Partitions as tuples of weakly decreasing positive parts.


def part(lam, r):
    """Part r, 0-based, zero beyond the last row."""
    return lam[r] if r < len(lam) else 0


def conjugate(lam):
    return tuple(sum(1 for p in lam if p > c) for c in range(lam[0])) if lam else ()


def is_horizontal_strip(mu, lam):
    """lam/mu has at most one cell per column: lam_1 >= mu_1 >= lam_2 >= ..."""
    rows = max(len(mu), len(lam))
    return all(part(lam, r) >= part(mu, r) >= part(lam, r + 1) for r in range(rows))


def is_vertical_strip(mu, lam):
    rows = max(len(mu), len(lam))
    return all(0 <= part(lam, r) - part(mu, r) <= 1 for r in range(rows))


def frobenius(lam):
    d = sum(1 for i, p in enumerate(lam) if p > i)
    conj = conjugate(lam)
    return [lam[i] - i - 1 for i in range(d)], [conj[i] - i - 1 for i in range(d)]


def in_family(lam, family):
    """Membership in the five Littlewood families, from the definitions."""
    if family == "all":
        return True
    if family == "even-rows":
        return all(p % 2 == 0 for p in lam)
    if family == "even-cols":
        return all(c % 2 == 0 for c in conjugate(lam))
    arms, legs = frobenius(lam)
    if family == "asym+1":
        return all(b == a + 1 for a, b in zip(arms, legs))
    if family == "asym-1":
        return all(a == b + 1 for a, b in zip(arms, legs))
    raise ValueError(f"unknown family {family!r}")


def chain_weight(chain):
    """Entry counts of a tableau chain: weight[i-1] = |chain[i]| - |chain[i-1]|."""
    sizes = [sum(p) for p in chain]
    return [b - a for a, b in zip(sizes, sizes[1:])]


def is_strip_chain(chain, vertical=False):
    ok = is_vertical_strip if vertical else is_horizontal_strip
    return all(ok(a, b) for a, b in zip(chain, chain[1:]))


def sub_partitions(lam):
    """Every partition contained in lam."""
    out = [()]
    for r, cap in enumerate(lam):
        nxt = []
        for mu in out:
            if len(mu) < r:
                continue
            hi = cap if r == 0 else min(cap, mu[-1])
            nxt.extend(mu + (v,) for v in range(1, hi + 1))
        out += nxt
    return out


# ---------------------------------------------------------------------------
# Classical RSK by row insertion.


def classical_rsk(matrix):
    """Row-insert the biword of ``matrix``: pairs (j, i) in lexicographic
    order, i inserted into P, j recorded in Q.  Returns the chains of P and
    Q (entries <= 0, 1, ..., n and 0, 1, ..., m)."""
    n, m = len(matrix), len(matrix[0])
    P: list[list[int]] = []
    Q: list[list[int]] = []
    for j in range(m):
        for i in range(n):
            for _ in range(matrix[i][j]):
                x, r = i + 1, 0
                while r < len(P):
                    row = P[r]
                    at = bisect_right(row, x)
                    if at == len(row):
                        break
                    row[at], x = x, row[at]
                    r += 1
                if r == len(P):
                    P.append([])
                    Q.append([])
                P[r].append(x)
                Q[r].append(j + 1)
    return rows_to_chain(P, n), rows_to_chain(Q, m)


def rows_to_chain(rows, entries):
    chain = []
    for k in range(entries + 1):
        shape = tuple(c for c in (sum(1 for v in row if v <= k) for row in rows) if c)
        chain.append(shape)
    return tuple(chain)


# ---------------------------------------------------------------------------
# Truncated polynomials as {exponent tuple: coefficient} dicts.


def poly_mul(a, b, cap):
    out: dict = {}
    for ea, ca in a.items():
        da = sum(ea)
        for eb, cb in b.items():
            if da + sum(eb) > cap:
                continue
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def poly_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def embed(poly, nvars, offset):
    """Place the variables of ``poly`` at positions offset, offset+1, ..."""
    out = {}
    for e, c in poly.items():
        key = [0] * nvars
        key[offset:offset + len(e)] = e
        out[tuple(key)] = c
    return out


def _factor(nvars, cap, positions, geometric):
    """1/(1 - x^e) (geometric) or 1 + x^e, with e the multiset ``positions``."""
    exps = [0] * nvars
    for p in positions:
        exps[p] += 1
    d = sum(exps)
    steps = range(cap // d + 1) if geometric else range(min(1, cap // d) + 1)
    return {tuple(t * e for e in exps): 1 for t in steps}


def product_expansion(factors, nvars, cap):
    out = {(0,) * nvars: 1}
    for positions, geometric in factors:
        out = poly_mul(out, _factor(nvars, cap, positions, geometric), cap)
    return out


def littlewood_product(family, n, cap):
    """The product side of the Littlewood identity for ``family``."""
    geometric = family in ("all", "even-rows", "even-cols")
    factors = [((i, j), geometric) for i in range(n) for j in range(i + 1, n)]
    if family == "all":
        factors += [((i,), True) for i in range(n)]
    elif family == "even-rows":
        factors += [((i, i), True) for i in range(n)]
    elif family == "asym-1":
        factors += [((i, i), False) for i in range(n)]
    return product_expansion(factors, n, cap)


def cauchy_product(n, m, cap, dual):
    factors = [((i, n + j), not dual) for i in range(n) for j in range(m)]
    return product_expansion(factors, n + m, cap)


def skew_schur(outer, inner, nvars, cap):
    """s_{outer/inner}(x_1..x_nvars) as a dict, by filling the skew diagram
    row by row with entries weakly increasing along rows and strictly
    increasing down columns (English convention, row 0 longest)."""
    if len(inner) > len(outer) or any(part(outer, r) < v for r, v in enumerate(inner)):
        return {}
    if sum(outer) - sum(inner) > cap:
        return {}
    cells = [(r, c) for r in range(len(outer)) for c in range(part(inner, r), outer[r])]
    fill: dict = {}
    out: dict = {}
    weight = [0] * nvars

    def rec(k):
        if k == len(cells):
            key = tuple(weight)
            out[key] = out.get(key, 0) + 1
            return
        r, c = cells[k]
        lo = max(fill.get((r, c - 1), 1), fill.get((r - 1, c), 0) + 1)
        for v in range(lo, nvars + 1):
            fill[(r, c)] = v
            weight[v - 1] += 1
            rec(k + 1)
            weight[v - 1] -= 1
        fill.pop((r, c), None)

    rec(0)
    return out


def elementary_or_complete(k, nvars, dual):
    """h_k (dual: e_k) in nvars variables."""
    return skew_schur((1,) * k if dual else ((k,) if k else ()), (), nvars, k)


# ---------------------------------------------------------------------------
# Nonzero-term counts of the side that verify_identity compares against.


def expected_terms(spec):
    """Nonzero terms of the product side of a verify_identity call.

    For the plain identities that is the product itself; for the skew ones it
    is the product times the finite skew-Schur sum; for Pieri it is h_k s_lam
    (e_k s_lam).  When the identity holds, the checked-term count reported by
    verify_identity must equal this number.
    """
    name, n, cap = spec["identity"], spec["n"], spec["cap"]
    m, lam, rho, k = spec.get("m"), tuple(spec.get("lam", ())), tuple(spec.get("rho", ())), spec.get("k")
    if name in ("cauchy", "dual-cauchy"):
        return len(cauchy_product(n, m, cap, name == "dual-cauchy"))
    if name.startswith("littlewood-"):
        return len(littlewood_product(name.removeprefix("littlewood-"), n, cap))
    if name in ("skew-cauchy", "skew-dual-cauchy"):
        dual = name == "skew-dual-cauchy"
        nv = n + m
        total: dict = {}
        meet = tuple(v for v in (min(a, b) for a, b in zip(lam, rho)) if v)
        for mu in sub_partitions(meet):
            sx = skew_schur(lam, mu, n, cap)
            if dual:
                sy = skew_schur(conjugate(rho), conjugate(mu), m, cap)
            else:
                sy = skew_schur(rho, mu, m, cap)
            total = poly_add(total, poly_mul(embed(sx, nv, 0), embed(sy, nv, n), cap))
        return len(poly_mul(cauchy_product(n, m, cap, dual), total, cap))
    if name.startswith("skew-littlewood-"):
        family = name.removeprefix("skew-littlewood-")
        if family in ("asym+1", "asym-1"):
            inner_family = "asym-1" if family == "asym+1" else "asym+1"
            shape = conjugate(lam)
        else:
            inner_family, shape = family, lam
        total = {}
        for mu in sub_partitions(shape):
            if in_family(mu, inner_family):
                total = poly_add(total, skew_schur(shape, mu, n, cap))
        return len(poly_mul(littlewood_product(family, n, cap), total, cap))
    if name in ("pieri", "dual-pieri"):
        full = max(cap, sum(lam) + k)
        hk = elementary_or_complete(k, n, name == "dual-pieri")
        return len(poly_mul(hk, skew_schur(lam, (), n, full), full))
    raise ValueError(f"no reference for {name!r}")
