"""Microbenchmark: the package layer by layer, in-process.

    PYTHONPATH=src python tests/bench_layers.py --layer LAYER [--rounds 15]
        [--passes N] [--seed 1] [--baseline SRC]

A layer records the calls that its inputs (seeded by ``--seed`` and
``--passes``, or fixed) make to some package functions, by wrapping module
globals, and replays each group of calls in rounds, printing the median.
``--baseline SRC`` also replays them, in alternating rounds, on the package
under another checkout's ``src``; every contender's results and stdout must
be equal before any timing.  pytest does not collect this file.  The layers:

- strips: the partition-set enumerators and their ``oracle.interval_*``
  references (ref/pkg; none on the deep grid) on the grids of
  ``strips_rows``, ms per round;
- rules: ``apply_rule``/``unapply_rule`` in rsk round trips, ns per call;
  ``apply_rule``'s rows time the package only against a baseline whose
  ``apply_rule`` reads its fourth argument as k, not the square's entry a;
- projections: ``proj_apply``/``proj_unapply`` in Littlewood round trips, us;
  ``proj_apply``'s rows time the package only against a baseline whose
  ``proj_apply`` reads its third argument as the strip size k, not the entry c;
- builds: ``rsk``, ``rsk_inverse``, ``littlewood_map``, ``littlewood_inverse``
  on those round trips' inputs, us per call;
- series: ``_sweep``, ``_times`` and ``verify_identity`` on the series-verify
  checks, and ``verify_identity`` on ``series_grid``, us per call; ``_sweep``
  is private and its signature changes between checkouts, so its rows time
  the package only;
- tableaux: ``TableauChain.to_rows``, ``from_rows`` and ``weight`` on the
  standard (row by row) and flat fillings of the staircases of 1,035 and
  4,095 cells, both step kinds, ms per call;
- cli: ``cli.main`` on ``test_cli_golden.REQUESTS``, us per call; exit codes
  and stdout must equal ``cli_golden.json``.
"""

import argparse
import dataclasses
import functools
import importlib
import importlib.util
import inspect
import io
import json
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from enum import Enum
from itertools import accumulate
from pathlib import Path
from statistics import median
from time import perf_counter

import growthdiagrams as gd
import oracle
import test_cli_golden as golden
from growthdiagrams import cli, growth, series

RULES = ("row", "col", "dual-row", "dual-col")
KINDS = ("apply", "unapply")
FAMILIES = ("all", "even-rows", "even-cols", "asym+1", "asym-1")
#: (family, base rule or None, star or None), as littlewood-roundtrip cycles them
VARIANTS = (("even-cols", None, None), ("all", None, None), ("even-rows", None, None),
            ("asym+1", None, None), ("asym-1", None, None), ("all", "col", None),
            ("even-rows", "row", None), ("asym-1", None, "col*"))
DIAGONAL = {"all": (0, 1, 2), "even-rows": (0, 2), "even-cols": (0,), "asym+1": (0,), "asym-1": (0, 2)}
STRIPS = ("horizontal_strips_over", "vertical_strips_over",
          "horizontal_strips_under", "vertical_strips_under")
COLUMN = (1,) * 2000


def series_trips():
    """verify_identity over the series-verify workload's fixed check list."""
    checks = [(f"littlewood-{f}", n, cap, {})
              for f in FAMILIES for n in (3, 4) for cap in (8, 9, 10)]
    checks += [(identity, n, cap, {"m": n})
               for identity in ("cauchy", "dual-cauchy") for n in (2, 3) for cap in (6, 8)]
    checks += [(identity, n, 6, {"m": n, "lam": (2, 1), "rho": rho})
               for identity in ("skew-cauchy", "skew-dual-cauchy")
               for n, rho in ((2, (1, 1)), (3, (2,)))]
    checks += [(f"skew-littlewood-{f}", 3, 6, {"lam": (2,)}) for f in FAMILIES]
    checks += [(identity, n, 6, {"k": 2, "lam": lam})
               for identity in ("pieri", "dual-pieri") for n, lam in ((3, (2, 1)), (4, (3, 1)))]
    for identity, n, cap, extra in checks:
        assert series.verify_identity(identity, n, cap, **extra).equal, identity


def series_grid():
    """(identity, kwargs) of 2,736 verify_identity checks: littlewood-* at n
    0-5, degrees 0-11; (dual-)cauchy at n, m 0-3, degrees 0/3/6/8; skew-(dual-)
    cauchy over the 49 pairs of shapes of size <= 3 at 5 (n, m) and degrees
    4/7; skew-littlewood-* over 10 shapes of size 1-4 at n 1-3, degrees 5/8;
    (dual-)pieri over 8 shapes at k 0-4, n 1-4, degrees 2/5/8; squarefree n
    0-7."""
    small = oracle.all_partitions(3)
    cases = [(f"littlewood-{f}", {"n": n, "cap": cap})
             for f in FAMILIES for n in range(6) for cap in range(12)]
    cases += [(identity, {"n": n, "m": m, "cap": cap}) for identity in ("cauchy", "dual-cauchy")
              for n in range(4) for m in range(4) for cap in (0, 3, 6, 8)]
    cases += [(identity, {"n": n, "m": m, "cap": cap, "lam": lam, "rho": rho})
              for identity in ("skew-cauchy", "skew-dual-cauchy") for lam in small for rho in small
              for n, m in ((1, 1), (1, 2), (2, 1), (2, 2), (3, 2)) for cap in (4, 7)]
    cases += [(f"skew-littlewood-{f}", {"n": n, "cap": cap, "lam": lam})
              for f in FAMILIES for lam in oracle.all_partitions(4)[1:11]
              for n in (1, 2, 3) for cap in (5, 8)]
    cases += [(identity, {"n": n, "cap": cap, "k": k, "lam": lam})
              for identity in ("pieri", "dual-pieri") for lam in small + [(2, 2)]
              for k in range(5) for n in range(1, 5) for cap in (2, 5, 8)]
    return cases + [("squarefree", {"n": n}) for n in range(8)]


def rsk_trips(seed, passes):
    """rsk round trips on n = 8, 12, ..., 32 matrices, entries 0..2 (0/1 dual)."""
    for index in range(passes):
        rng = random.Random(f"{seed}:bench-rules:{index}")
        for n in range(8, 33, 4):
            for rule in RULES:
                hi = 1 if rule.startswith("dual") else 2
                matrix = [[rng.randint(0, hi) for _ in range(n)] for _ in range(n)]
                back, _, _ = gd.rsk_inverse(rule, *gd.rsk(rule, matrix))
                assert [list(r) for r in back] == matrix, rule


def littlewood_trips(seed, passes):
    """Littlewood round trips on littlewood-roundtrip's arrays of timed passes 0, 1, ..."""
    for index in range(passes):
        rng = random.Random(f"{seed}:littlewood-roundtrip:{index}")
        for n in range(8, 17, 2):
            for spec in VARIANTS:
                hi = 1 if spec[0].startswith("asym") else 2
                rows = [[rng.choice(DIAGONAL[spec[0]]) if j == i else rng.randint(0, hi)
                         for j in range(i, n)] for i in range(n)]
                v = gd.littlewood_variant(*spec)
                back, _ = gd.littlewood_inverse(v, gd.littlewood_map(v, gd.triangular_array(rows)))
                assert [list(r) for r in back.rows] == rows, spec


def record(targets, run):
    """{name: [(args, kwargs), ...]}: every call of the module globals
    ``targets`` (pairs of module and name) while ``run()`` runs."""
    calls = {name: [] for _, name in targets}
    saved = [(module, name, getattr(module, name)) for module, name in targets]

    def logged(name, fn):
        def call(*args, **kwargs):
            calls[name].append((args, kwargs))
            return fn(*args, **kwargs)
        return call

    for module, name, fn in saved:
        setattr(module, name, logged(name, fn))
    try:
        run()
    finally:
        for module, name, fn in saved:
            setattr(module, name, fn)
    return calls


def group(calls, key):
    """The calls by ``key(args)``, keys in the order first seen."""
    out = {}
    for call in calls:
        out.setdefault(key(call[0]), []).append(call)
    return out


def strip_grid(max_size, budgets):
    """{name: [(shape, budget), ...]} over every shape of size <= max_size."""
    shapes = oracle.all_partitions(max_size)
    over = [(mu, b) for mu in shapes for b in budgets]
    under = over + [(mu, None) for mu in shapes]
    return {name: over if name.endswith("_over") else under for name in STRIPS}


def strips_rows(seed, passes, workdir):
    """series: every strip call of the series-verify checks' sweeps; small,
    tiny-wide, wide: shapes of size <= 8, 3, 3 with budgets 0..6, 6..12,
    20..60 (and None under); shapes: size <= 9; boxes: sizes < 14 unboxed and
    in every box up to 5 x 5; size30: size 30; deep: the 2,000-row column (the
    strips under and the sub-partitions of it, 3 over it, the vertical strips
    over () at 2,000) and its (2000, 1) box, which the recursive references
    cannot list; box3: every pair in the 3 x 3 box, k <= 4, both dualities."""
    grids = {"series": {name: [] for name in STRIPS}}
    for args, kwargs in record([(series, "_sweep")], series_trips)["_sweep"]:
        def logged(sig, room, strips=args[3]):
            grids["series"][strips.__name__].append((sig, room))
            return strips(sig, room)
        series._sweep(*args[:3], logged, *args[4:], **kwargs)
    grids.update({"small": strip_grid(8, range(7)), "tiny-wide": strip_grid(3, range(6, 13)),
                  "wide": strip_grid(3, range(20, 61)),
                  "deep": {"horizontal_strips_over": [(COLUMN, 3)],
                           "vertical_strips_over": [((), 2000)],
                           "horizontal_strips_under": [(COLUMN, None)],
                           "vertical_strips_under": [(COLUMN, None)]}})
    rows = [((name, label), f"partitions.{name}", grid[name])
            for name in STRIPS for label, grid in grids.items() if grid[name]]
    rows.append((("sub_partitions", "shapes"), "partitions.sub_partitions",
                 [(mu,) for mu in oracle.all_partitions(9)]))
    rows.append((("sub_partitions", "deep"), "partitions.sub_partitions", [(COLUMN,)]))
    boxes = [None] + [(r, c) for r in range(6) for c in range(6)]
    for name in ("enumerate_partitions", "partitions_of_size"):
        rows.append(((name, "boxes"), f"partitions.{name}", [(m, b) for m in range(14) for b in boxes]))
        rows.append(((name, "size30"), f"partitions.{name}", [(30,)]))
        rows.append(((name, "deep"), f"partitions.{name}", [(2000, (2000, 1))]))
    box3 = [p for p in oracle.all_partitions(9) if len(p) <= 3 and (not p or p[0] <= 3)]
    pairs = [(lam, rho, dual) for lam in box3 for rho in box3 for dual in (False, True)]
    for name, ks in (("up_set", range(5)), ("down_set", range(5)),
                     ("up_sets_through", (4,)), ("down_sets_through", (4,))):
        rows.append(((name, "box3"), f"interlacing.{name}",
                     [(lam, rho, k, dual) for lam, rho, dual in pairs for k in ks]))
    return [(labels, path, [(args, {}) for args in calls]) for labels, path, calls in rows]


def rules_rows(seed, passes, workdir):
    calls = record([(growth, f"{kind}_rule") for kind in KINDS], lambda: rsk_trips(seed, passes))
    by = {kind: group(calls[f"{kind}_rule"], lambda a: a[0].value) for kind in KINDS}
    return [((rule, kind), f"growth.{kind}_rule", by[kind][rule]) for rule in RULES for kind in KINDS]


def projections_rows(seed, passes, workdir):
    calls = record([(growth, f"proj_{kind}") for kind in KINDS], lambda: littlewood_trips(seed, passes))
    by = {kind: group(calls[f"proj_{kind}"], lambda a: a[0].family.value) for kind in KINDS}
    return [((family, kind), f"growth.proj_{kind}", by[kind][family])
            for family in sorted(by["apply"]) for kind in KINDS]


def builds_rows(seed, passes, workdir):
    rule, family = (lambda a: gd.Rule(a[0]).value), (lambda a: a[0].family.value)
    keys = {"rsk": rule, "rsk_inverse": rule, "littlewood_map": family, "littlewood_inverse": family}
    calls = record([(gd, name) for name in keys],
                   lambda: (rsk_trips(seed, passes), littlewood_trips(seed, passes)))
    return [((name, label), name, group_calls)
            for name, key in keys.items() for label, group_calls in group(calls[name], key).items()]


def series_rows(seed, passes, workdir):
    keys = {"_sweep": lambda a: a[3].__name__, "_times": lambda a: "dual" if a[2] else "plain",
            "verify_identity": lambda a: a[0]}
    calls = record([(series, name) for name in keys], series_trips)
    rows = [((name, label), f"series.{name}", group_calls)
            for name, key in keys.items() for label, group_calls in group(calls[name], key).items()]
    grid = [((identity,), kwargs) for identity, kwargs in series_grid()]
    return rows + [(("verify_identity", "grid"), "series.verify_identity", grid)]


def staircase_fillings(k):
    """(name, steps, rows) of the staircase (k, k - 1, ..., 1): standard, filled
    row by row, for both step kinds; flat, row r all r + 1 (horizontal) or
    every column constant (vertical)."""
    starts = accumulate(range(k, 1, -1), initial=0)
    standard = [list(range(s + 1, s + k - r + 1)) for r, s in enumerate(starts)]
    return [(f"standard-{k}", "horizontal", standard), (f"standard-{k}", "vertical", standard),
            (f"flat-{k}", "horizontal", [[r + 1] * (k - r) for r in range(k)]),
            (f"flat-{k}", "vertical", [list(range(1, k - r + 1)) for r in range(k)])]


def tableaux_rows(seed, passes, workdir):
    """The three readouts on each staircase filling (fixed: no seed or passes)."""
    rows = []
    for name, steps, filling in staircase_fillings(45) + staircase_fillings(90):
        t = gd.TableauChain.from_rows(filling, None, steps)
        for method, args in (("to_rows", (t,)), ("from_rows", (filling, t.entries, t.steps)),
                             ("weight", (t,))):
            rows.append(((method, name, steps), f"tableaux.TableauChain.{method}", [(args, {})]))
    return rows


def cli_rows(seed, passes, workdir):
    """The golden requests by command, each checked against its recording."""
    paths = {"{%s}" % name: Path(workdir) / f"{name}.json" for name in golden.FILES}
    for name, data in golden.FILES.items():
        paths["{%s}" % name].write_text(json.dumps(data), encoding="utf-8")
    recorded = json.loads(golden.GOLDEN.read_text(encoding="utf-8"))
    calls = []
    for argv in golden.REQUESTS:
        calls.append((([str(paths.get(a, a)) for a in argv],), {}))
        want = recorded[" ".join(argv)]
        assert outcomes(cli.main, calls[-1:]) == ([want["code"]], want["stdout"]), argv
    return [((command,), "cli.main", group_calls)
            for command, group_calls in group(calls, lambda a: a[0][0]).items()]


#: functions whose arguments may differ in a baseline, timed for the package only:
#: the private ``series._sweep``
PACKAGE_ONLY = {"series._sweep"}

#: name: (label headers, unit, per call (else per round), digits, default passes, rows)
LAYERS = {
    "strips": (("function", "grid"), "ms", False, 2, 1, strips_rows),
    "rules": (("rule", "call"), "ns", True, 0, 2, rules_rows),
    "projections": (("family", "call"), "us", True, 2, 5, projections_rows),
    "builds": (("function", "input"), "us", True, 1, 2, builds_rows),
    "series": (("function", "group"), "us", True, 1, 1, series_rows),
    "tableaux": (("method", "filling", "steps"), "ms", True, 2, 1, tableaux_rows),
    "cli": (("command",), "us", True, 1, 1, cli_rows),
}


def load_baseline(src):
    """The growthdiagrams package under ``src``, imported as ``baseline_growthdiagrams``."""
    for name in [m for m in sys.modules if m.partition(".")[0] == "baseline_growthdiagrams"]:
        del sys.modules[name]  # a package loaded before, maybe from another src
    package = Path(src).resolve() / "growthdiagrams"
    spec = importlib.util.spec_from_file_location("baseline_growthdiagrams", package / "__init__.py",
                                                  submodule_search_locations=[str(package)])
    sys.modules[spec.name] = module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def package_only(baseline):
    """PACKAGE_ONLY, and ``proj_apply`` (``apply_rule``) when the baseline's reads
    its third (fourth) argument as k, as before it took the square's entry."""
    third = list(inspect.signature(baseline.proj_apply).parameters)[2]
    fourth = list(inspect.signature(baseline.apply_rule).parameters)[3]
    return PACKAGE_ONLY | ({"growth.proj_apply"} if third != "c" else set()) | (
        {"growth.apply_rule"} if fourth == "k" else set())


def resolve(package, path):
    """A package's function at ``module.name`` or ``module.Class.name`` (or a
    top-level name), or its oracle reference."""
    if package is oracle:
        return getattr(oracle, f"interval_{path.rpartition('.')[2]}")
    module, _, names = path.partition(".")
    if not names:
        return getattr(package, module)
    return functools.reduce(getattr, names.split("."),
                            importlib.import_module(f"{package.__name__}.{module}"))


def port(value, package=None):
    """The value with each enum, dataclass and function in its tuples and
    lists rebuilt from the package's own, or made plain (comparable across
    packages) when None.  Dicts are taken as they are."""
    if type(value) is tuple and all(type(v) is int for v in value):  # a partition
        return value
    name = type(value).__name__
    if isinstance(value, Enum):
        return value.value if package is None else getattr(package, name)(value.value)
    if dataclasses.is_dataclass(value):
        fields = [port(getattr(value, f.name), package) for f in dataclasses.fields(value)]
        return (name, *fields) if package is None else getattr(package, name)(*fields)
    if callable(value):
        path = f"{value.__module__.partition('.')[2]}.{value.__name__}"
        return path if package is None else resolve(package, path)
    if isinstance(value, (tuple, list)):
        return type(value)(port(v, package) for v in value)
    return value


def outcomes(fn, calls):
    """(plain results, stdout) of the calls."""
    with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()):
        values = [fn(*args, **kwargs) for args, kwargs in calls]
    return port(values), out.getvalue()


def time_calls(fn, calls):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        start = perf_counter()
        for args, kwargs in calls:
            fn(*args, **kwargs)
        return perf_counter() - start


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--layer", choices=LAYERS, required=True)
    parser.add_argument("--rounds", type=int, default=15)
    parser.add_argument("--passes", type=int, help="seeded passes of inputs (default per layer)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--baseline", metavar="SRC", help="also time the package under SRC")
    args = parser.parse_args(argv)
    headers, unit, per_call, digits, passes, rows = LAYERS[args.layer]
    baseline = args.baseline and load_baseline(args.baseline)
    contenders = ([("reference", oracle)] if args.layer == "strips" else []) + (
        [("baseline", baseline)] if baseline else []) + [("package", gd)]
    skip = package_only(baseline) if baseline else PACKAGE_ONLY
    with tempfile.TemporaryDirectory() as workdir:
        table = []
        for labels, path, calls in rows(args.seed, args.passes or passes, workdir):
            runs = [(resolve(package, path), port(calls, None if package is oracle else package))
                    if package is gd or path not in skip and (
                        package is not oracle or labels[-1] != "deep") else None
                    for _, package in contenders]
            results = [outcomes(*run) for run in runs if run]
            assert all(result == results[0] for result in results), labels
            table.append((labels, len(calls), runs))
        heads = [f"{title} {unit}" for title, _ in contenders]
        heads += [{"reference": "ref/pkg", "baseline": "base/pkg"}[t] for t, _ in contenders[:-1]]
        widths = [max(len(h), *(len(r[0][c]) for r in table)) + 1 for c, h in enumerate(headers)]

        def show(labels, count, cells):
            print(" ".join([f"{label:<{w}}" for label, w in zip(labels, widths)] + [f"{count:>6}"]
                           + [f"{cell:>{len(h) + 1}}" for cell, h in zip(cells, heads)]))

        show(headers, "calls", heads)
        scale = {"ms": 1e3, "us": 1e6, "ns": 1e9}[unit]
        for labels, count, runs in table:
            times = [[] if run else None for run in runs]
            for _ in range(args.rounds):
                for run, t in zip(runs, times):
                    if run:
                        t.append(time_calls(*run))
            med = [t and median(t) * scale / (count if per_call else 1) for t in times]
            show(labels, count, ["-" if m is None else f"{m:.{digits}f}" for m in med]
                 + ["-" if m is None else f"{m / med[-1]:.2f}" for m in med[:-1]])


if __name__ == "__main__":
    main()
