"""The four benchmark workloads: input generators, operations and checks.

Each workload is a closed loop of one client: an operation starts only after
the previous one has returned and been checked.  Inputs come only from
``random.Random`` generators seeded by the benchmark's ``--seed``; they are
generated without the package, so the package import can be timed in a fresh
process.  A workload provides

    warmup_items(seed, workdir)       the warm-up pass timed as set-up
    pass_items(seed, index, workdir)  the items of timed pass ``index``
    prepare(items, gd)                untimed work after set-up (expected outputs)
    run(item, gd)                     one operation, returns its output
    check(item, output, gd)           True when the output is right

where ``gd`` is the imported ``growthdiagrams`` package.  Checks never use
the package as their own reference, except that the CLI's output is compared
with the direct library call it fronts.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout

import reference as ref

RULES = ("row", "col", "dual-row", "dual-col")
FAMILIES = ("all", "even-rows", "even-cols", "asym+1", "asym-1")
DUAL_FAMILIES = ("asym+1", "asym-1")

#: Littlewood variants: (family, base rule or None, star variant or None)
VARIANTS = (
    ("even-cols", None, None),
    ("all", None, None),
    ("even-rows", None, None),
    ("asym+1", None, None),
    ("asym-1", None, None),
    ("all", "col", None),
    ("even-rows", "row", None),
    ("asym-1", None, "col*"),
)

#: allowed diagonal entries of a triangular array per family
DIAGONAL = {
    "all": (0, 1, 2),
    "even-rows": (0, 2),
    "even-cols": (0,),
    "asym+1": (0,),
    "asym-1": (0, 2),
}


def _rng(seed, *salt):
    return random.Random(f"{seed}:" + ":".join(map(str, salt)))


def _matrix(rng, n, m, hi):
    return [[rng.randint(0, hi) for _ in range(m)] for _ in range(n)]


def _tri_rows(rng, n, family):
    hi = 1 if family in DUAL_FAMILIES else 2
    return [
        [rng.choice(DIAGONAL[family]) if j == i else rng.randint(0, hi) for j in range(i, n)]
        for i in range(n)
    ]


def _tri_weight(rows):
    """Entry i of the Littlewood tableau counts row i (diagonal included) plus
    the column above the diagonal: w_i = sum_l c[i][l] + sum_{k<i} c[k][i]."""
    n = len(rows)
    w = [sum(rows[i]) for i in range(n)]
    for k in range(n):
        for off, v in enumerate(rows[k][1:], start=1):
            w[k + off] += v
    return w


def _variant(gd, family, base, star):
    return gd.littlewood_variant(
        gd.Family(family),
        gd.Rule(base) if base else None,
        gd.StarVariant(star) if star else None,
    )


def _family_shape(rng, family, n, size):
    """A random partition of ``size`` in ``family`` with at most n rows."""
    box = (size,) * n
    return rng.choice([
        lam for lam in ref.sub_partitions(box) if sum(lam) == size and ref.in_family(lam, family)
    ])


def _random_ssyt_chain(rng, shape, n):
    """A random tableau of ``shape`` with entries <= n, as a chain built from
    the top: chain[i-1] interlaces chain[i] and has at most i-1 rows."""
    chain = [shape]
    for i in range(n, 0, -1):
        lam = chain[-1]
        mu = tuple(rng.randint(ref.part(lam, r + 1), lam[r]) for r in range(min(len(lam), i - 1)))
        chain.append(tuple(v for v in mu if v))
    return tuple(reversed(chain))


def _tableau_json(chain, steps="horizontal"):
    return {"chain": [list(p) for p in chain], "steps": steps}


class Workload:
    modules: tuple[str, ...] = ()  # package submodules imported during set-up

    def prepare(self, items, gd):
        pass


class RskRoundtrip(Workload):
    """``rsk`` then ``rsk_inverse`` on a random n x n matrix."""

    name = "rsk-roundtrip"
    sizes = (8, 12, 16, 20, 24, 28, 32)

    def _item(self, rng, rule, n):
        matrix = _matrix(rng, n, n, 1 if rule.startswith("dual") else 2)
        item = {"rule": rule, "matrix": matrix}
        if rule == "row":
            item["reference"] = ref.classical_rsk(matrix)
        return item

    def warmup_items(self, seed, workdir):
        rng = _rng(seed, self.name, "warmup")
        return [self._item(rng, rule, 8) for rule in RULES]

    def pass_items(self, seed, index, workdir):
        """Every rule at every size once, fresh matrices each pass."""
        rng = _rng(seed, self.name, index)
        items = [self._item(rng, rule, n) for n in self.sizes for rule in RULES]
        rng.shuffle(items)
        return items

    def run(self, item, gd):
        rule = gd.Rule(item["rule"])
        P, Q = gd.rsk(rule, item["matrix"])
        back, S, T = gd.rsk_inverse(rule, P, Q)
        return P, Q, back, S, T

    def check(self, item, out, gd):
        matrix, rule = item["matrix"], item["rule"]
        P, Q, back, S, T = out
        pc, qc = tuple(P.chain), tuple(Q.chain)
        return (
            [list(r) for r in back] == matrix
            and all(p == () for p in S.chain) and len(S.chain) == len(matrix) + 1
            and all(p == () for p in T.chain) and len(T.chain) == len(matrix[0]) + 1
            and pc[-1] == qc[-1]
            and ref.is_strip_chain(pc)
            and ref.is_strip_chain(qc, vertical=rule.startswith("dual"))
            and ref.chain_weight(pc) == [sum(r) for r in matrix]
            and ref.chain_weight(qc) == [sum(c) for c in zip(*matrix)]
            and (rule != "row" or (pc, qc) == item["reference"])
        )


class LittlewoodRoundtrip(Workload):
    """``littlewood_map`` then ``littlewood_inverse`` on a random triangular
    array, cycling through all eight variants."""

    name = "littlewood-roundtrip"
    sizes = (8, 10, 12, 14, 16)

    def _item(self, rng, variant, n):
        return {"variant": variant, "rows": _tri_rows(rng, n, variant[0])}

    def warmup_items(self, seed, workdir):
        rng = _rng(seed, self.name, "warmup")
        return [self._item(rng, v, 8) for v in VARIANTS]

    def pass_items(self, seed, index, workdir):
        rng = _rng(seed, self.name, index)
        items = [self._item(rng, v, n) for n in self.sizes for v in VARIANTS]
        rng.shuffle(items)
        return items

    def run(self, item, gd):
        variant = _variant(gd, *item["variant"])
        P = gd.littlewood_map(variant, gd.triangular_array(item["rows"]))
        back, border = gd.littlewood_inverse(variant, P)
        return P, back, border

    def check(self, item, out, gd):
        P, back, border = out
        rows = item["rows"]
        chain = tuple(P.chain)
        return (
            [list(r) for r in back.rows] == rows
            and all(p == () for p in border.chain) and len(border.chain) == len(rows) + 1
            and ref.is_strip_chain(chain)
            and ref.chain_weight(chain) == _tri_weight(rows)
            and ref.in_family(chain[-1], item["variant"][0])
        )


class SeriesVerify(Workload):
    """One ``verify_identity`` call per operation, from a fixed seeded list
    that is run again on every pass."""

    name = "series-verify"

    def _spec(self, identity, n, cap, **extra):
        spec = {"identity": identity, "n": n, "cap": cap, **extra}
        spec["expected_terms"] = ref.expected_terms(spec)
        return spec

    def warmup_items(self, seed, workdir):
        rng = _rng(seed, self.name, "warmup")
        items = [self._spec(f"littlewood-{f}", 3, 6) for f in FAMILIES]
        items += [
            self._spec("cauchy", 2, 4, m=2),
            self._spec("dual-cauchy", 2, 4, m=2),
            self._spec("skew-cauchy", 2, 4, m=2, lam=(1,), rho=(1,)),
            self._spec("skew-dual-cauchy", 2, 4, m=2, lam=(1,), rho=(1,)),
            self._spec(f"skew-littlewood-{rng.choice(FAMILIES)}", 2, 4, lam=(1,)),
            self._spec("pieri", 2, 4, lam=(1,), k=1),
            self._spec("dual-pieri", 2, 4, lam=(1,), k=1),
        ]
        return items

    def pass_items(self, seed, index, workdir):
        if index == 0:
            self._items = self._build(seed)
        return self._items

    def _build(self, seed):
        """The list is fixed, so that every seed weighs the same identities at
        the same sizes; the seed sets its order."""
        items = [
            self._spec(f"littlewood-{f}", n, cap)
            for f in FAMILIES for n in (3, 4) for cap in (8, 9, 10)
        ]
        items += [
            self._spec(identity, n, cap, m=n)
            for identity in ("cauchy", "dual-cauchy") for n in (2, 3) for cap in (6, 8)
        ]
        items += [
            self._spec(identity, n, 6, m=n, lam=(2, 1), rho=rho)
            for identity in ("skew-cauchy", "skew-dual-cauchy") for n, rho in ((2, (1, 1)), (3, (2,)))
        ]
        items += [self._spec(f"skew-littlewood-{f}", 3, 6, lam=(2,)) for f in FAMILIES]
        items += [
            self._spec(identity, n, 6, k=2, lam=lam)
            for identity in ("pieri", "dual-pieri") for n, lam in ((3, (2, 1)), (4, (3, 1)))
        ]
        _rng(seed, self.name).shuffle(items)
        return items

    def run(self, item, gd):
        return gd.verify_identity(
            item["identity"], item["n"], item["cap"], m=item.get("m"),
            lam=item.get("lam", ()), rho=item.get("rho", ()), k=item.get("k"),
        )

    def check(self, item, report, gd):
        return report.equal and report.checked_terms == item["expected_terms"]


def _labels(p):
    return ",".join(map(str, p)) if p else "∅"


class CliRequests(Workload):
    """One in-process ``cli.main(argv)`` call per operation on a small JSON
    input file, stdout captured; a fixed seeded list run again on every pass."""

    name = "cli-requests"
    modules = ("cli",)

    def __init__(self):
        self._files = 0

    def _write(self, workdir, data):
        self._files += 1
        path = workdir / f"in{self._files}.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        return str(path)

    def _rsk(self, rng, workdir, rule, n):
        matrix = _matrix(rng, n, n, 1 if rule.startswith("dual") else 2)
        return {"kind": "rsk", "rule": rule, "matrix": matrix,
                "argv": ["rsk", "--rule", rule, "--matrix", self._write(workdir, matrix)]}

    def _unrsk(self, rng, workdir, n):
        matrix = _matrix(rng, n, n, 2)
        P, Q = ref.classical_rsk(matrix)
        trivial = _tableau_json(((),) * (n + 1))
        return {"kind": "unrsk",
                "argv": ["unrsk", "--rule", "row", "--p", self._write(workdir, _tableau_json(P)),
                         "--q", self._write(workdir, _tableau_json(Q))],
                "expect": {"matrix": matrix, "S": trivial, "T": trivial}}

    def _encode(self, rng, workdir, family, rule, n):
        rows = _tri_rows(rng, n, family)
        argv = ["littlewood-encode", "--variant", family,
                "--array", self._write(workdir, {"n": n, "rows": rows})]
        return {"kind": "encode", "variant": (family, rule, None), "rows": rows,
                "argv": argv + (["--rule", rule] if rule else [])}

    def _decode(self, rng, workdir, family, rule, n):
        chain = _random_ssyt_chain(rng, _family_shape(rng, family, n, 6), n)
        argv = ["littlewood-decode", "--variant", family,
                "--tableau", self._write(workdir, _tableau_json(chain))]
        return {"kind": "decode", "variant": (family, rule, None), "chain": chain,
                "argv": argv + (["--rule", rule] if rule else [])}

    def _verify(self, identity, n, degree, family=None, shape=None, k=None):
        argv = ["verify", "--identity", identity, "--n", str(n), "--degree", str(degree)]
        call = {"identity": identity, "n": n, "cap": degree}
        if family is not None:
            call["identity"] = f"{identity}-{family}"
            argv += ["--variant", family]
        if shape is not None:
            call["lam"] = shape
            argv += ["--shape", json.dumps(list(shape))]
        if k is not None:
            call["k"] = k
            argv += ["--k", str(k)]
        return {"kind": "verify", "call": call, "argv": argv}

    def _render_matrix(self, rng, workdir, rule, n):
        matrix = _matrix(rng, n, n, 1 if rule.startswith("dual") else 2)
        return {"kind": "render-matrix", "rule": rule, "matrix": matrix,
                "argv": ["render", "--rule", rule, "--matrix", self._write(workdir, matrix)]}

    def _render_array(self, rng, workdir, family, n):
        rows = _tri_rows(rng, n, family)
        return {"kind": "render-array", "variant": (family, None, None), "rows": rows,
                "argv": ["render", "--variant", family,
                         "--array", self._write(workdir, {"n": n, "rows": rows})]}

    def warmup_items(self, seed, workdir):
        rng = _rng(seed, self.name, "warmup")
        return [
            self._rsk(rng, workdir, "row", 4),
            self._unrsk(rng, workdir, 4),
            self._encode(rng, workdir, "all", None, 3),
            self._decode(rng, workdir, "all", None, 3),
            self._verify("cauchy", 2, 3),
            self._render_matrix(rng, workdir, "row", 3),
        ]

    def pass_items(self, seed, index, workdir):
        if index == 0:
            self._items = self._build(seed, workdir)
        return self._items

    def _build(self, seed, workdir):
        """Every request has a fixed size, so that every seed weighs the same
        mix; the seed fills in the matrices, arrays and tableaux, and the order."""
        rng = _rng(seed, self.name)
        cli_variants = [(f, b) for f, b, star in VARIANTS if star is None]
        items = [self._rsk(rng, workdir, rule, n) for rule in RULES for n in (5, 8)]
        items += [self._unrsk(rng, workdir, n) for n in (4, 5, 6, 7)]
        items += [self._encode(rng, workdir, f, b, 4) for f, b in cli_variants]
        items += [self._decode(rng, workdir, f, b, 4) for f, b in cli_variants]
        items += [
            self._verify("cauchy", 2, 4),
            self._verify("dual-cauchy", 2, 4),
            self._verify("littlewood", 3, 4, family="all"),
            self._verify("littlewood", 3, 5, family="asym-1"),
            self._verify("pieri", 3, 4, shape=(2, 1), k=2),
            self._verify("skew-littlewood", 2, 4, family="even-rows", shape=(2,)),
        ]
        items += [self._render_matrix(rng, workdir, rule, 4) for rule in ("row", "dual-col")]
        items += [self._render_array(rng, workdir, f, 4) for f in ("all", "asym-1")]
        rng.shuffle(items)
        return items

    def prepare(self, items, gd):
        """Expected outputs from the direct library calls the CLI fronts."""
        for item in items:
            kind = item["kind"]
            if "expect" in item:
                continue
            if kind == "rsk":
                P, Q = gd.rsk(gd.Rule(item["rule"]), item["matrix"])
                qsteps = "vertical" if item["rule"].startswith("dual") else "horizontal"
                item["expect"] = {"P": _tableau_json(P.chain), "Q": _tableau_json(Q.chain, qsteps)}
            elif kind == "encode":
                P = gd.littlewood_map(_variant(gd, *item["variant"]), gd.triangular_array(item["rows"]))
                item["expect"] = {"P": _tableau_json(P.chain)}
            elif kind == "decode":
                variant = _variant(gd, *item["variant"])
                arr, border = gd.littlewood_inverse(variant, gd.TableauChain(item["chain"]))
                steps = "vertical" if item["variant"][0] in DUAL_FAMILIES else "horizontal"
                item["expect"] = {
                    "array": {"n": arr.n, "rows": [list(r) for r in arr.rows],
                              "variant": item["variant"][0]},
                    "border": _tableau_json(border.chain, steps),
                }
            elif kind == "verify":
                c = item["call"]
                item["expect"] = gd.verify_identity(
                    c["identity"], n=c["n"], cap=c["cap"], lam=c.get("lam", ()), k=c.get("k"),
                ).to_dict()
            elif kind == "render-matrix":
                grid = gd.build_growth(gd.Rule(item["rule"]), item["matrix"])
                item["expect"] = ([[_labels(p) for p in row] for row in grid.vertices],
                                  [[str(v) for v in row] for row in item["matrix"]])
            elif kind == "render-array":
                grid = gd.build_triangular(_variant(gd, *item["variant"]),
                                           gd.triangular_array(item["rows"]))
                item["expect"] = ([[_labels(p) for p in row] for row in grid.rows],
                                  [[str(v) for v in row] for row in item["rows"]])

    def run(self, item, gd):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = gd.cli.main(list(item["argv"]))
        return code, out.getvalue()

    def check(self, item, out, gd):
        code, text = out
        if code != 0:
            return False
        if item["kind"].startswith("render"):
            lines = text.splitlines()
            labels, entries = item["expect"]
            return (len(lines) == 2 * len(labels) - 1
                    and [line.split() for line in lines[0::2]] == labels
                    and [line.split() for line in lines[1::2]] == entries)
        return json.loads(text) == item["expect"]


WORKLOADS = {w.name: w for w in (RskRoundtrip, LittlewoodRoundtrip, SeriesVerify, CliRequests)}
