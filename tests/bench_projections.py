"""Microbenchmark: the projections' calls in the Littlewood round trip, per family.

Records once every ``proj_apply`` and ``proj_unapply`` call that
``littlewood_map`` and ``littlewood_inverse`` make on the benchmark's
littlewood-roundtrip arrays (the same seeded triangular arrays, n = 8..16, all
eight variants), by wrapping the engine's globals ``growth.proj_apply`` and
``growth.proj_unapply``.  Then it times those calls per family in rounds and
reports the median round as microseconds per call.  With ``--baseline SRC``
the package found in another checkout's ``src`` directory replays the same
calls in alternating rounds (baseline, package, baseline, ...), after one
check that both give the same results, and the ratio baseline / package is
reported too.  This is not a test (pytest does not collect the file name);
run it from the repository root:

    PYTHONPATH=src python tests/bench_projections.py [--rounds 15] [--passes 5]
        [--seed 1] [--baseline SRC]
"""

import argparse
import random
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_strips import load_baseline  # noqa: E402
import growthdiagrams as gd  # noqa: E402
from growthdiagrams import growth  # noqa: E402

#: (family, base rule or None, star or None), as the round-trip workload cycles them
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
DIAGONAL = {"all": (0, 1, 2), "even-rows": (0, 2), "even-cols": (0,), "asym+1": (0,),
            "asym-1": (0, 2)}
SIZES = (8, 10, 12, 14, 16)
NAME = "littlewood-roundtrip"


def arrays(seed, passes):
    """(variant, rows) for the timed passes 0..passes-1 of the workload at seed:
    each pass draws one array per size and variant from its own seeded stream."""
    out = []
    for index in range(passes):
        rng = random.Random(f"{seed}:{NAME}:{index}")
        for n in SIZES:
            for variant in VARIANTS:
                hi = 1 if variant[0].startswith("asym") else 2
                out.append((variant, [
                    [rng.choice(DIAGONAL[variant[0]]) if j == i else rng.randint(0, hi)
                     for j in range(i, n)]
                    for i in range(n)
                ]))
    return out


def record(items):
    """{(family, "apply" | "unapply"): [(variant spec, args), ...]}, every
    projection call of one round trip per item."""
    calls = {}
    apply, unapply = growth.proj_apply, growth.proj_unapply

    def logged(kind, fn):
        def call(v, *args):
            spec = (v.family.value, v.base_rule.value, v.star and v.star.value)
            calls.setdefault((spec[0], kind), []).append((spec, args))
            return fn(v, *args)
        return call

    growth.proj_apply, growth.proj_unapply = logged("apply", apply), logged("unapply", unapply)
    try:
        for spec, rows in items:
            v = gd.littlewood_variant(*spec)
            back, _ = gd.littlewood_inverse(v, gd.littlewood_map(v, gd.triangular_array(rows)))
            assert [list(r) for r in back.rows] == rows, spec
    finally:
        growth.proj_apply, growth.proj_unapply = apply, unapply
    return calls


def bound(package, kind, calls):
    """The calls as (function, variant, args) for one package."""
    fn = getattr(package, f"proj_{kind}")
    variants = {}
    out = []
    for spec, args in calls:
        if spec not in variants:
            variants[spec] = package.littlewood_variant(*spec)
        out.append((fn, variants[spec], args))
    return out


def time_calls(calls):
    start = perf_counter()
    for fn, v, args in calls:
        fn(v, *args)
    return perf_counter() - start


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=15)
    parser.add_argument("--passes", type=int, default=5,
                        help="timed passes of the workload whose arrays are recorded")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--baseline", metavar="SRC",
                        help="also time the package under this src directory")
    args = parser.parse_args(argv)
    packages = [gd]
    if args.baseline:
        packages.insert(0, sys.modules[load_baseline(args.baseline)])
    calls = record(arrays(args.seed, args.passes))
    head = f"{'family':<10} {'call':<8} {'calls':>6}"
    if args.baseline:
        head += f" {'baseline us':>12}"
    print(head + f" {'package us':>11}" + (f" {'base/pkg':>9}" if args.baseline else ""))
    for family, kind in sorted(calls):
        runs = [bound(p, kind, calls[family, kind]) for p in packages]
        for run in runs[1:]:
            assert all(fn(v, *a) == f0(v0, *a0) for (fn, v, a), (f0, v0, a0)
                       in zip(run, runs[0])), (family, kind)
        times = [[] for _ in runs]
        for _ in range(args.rounds):
            for run, t in zip(runs, times):
                t.append(time_calls(run))
        per_call = [median(t) / len(runs[0]) * 1e6 for t in times]
        line = f"{family:<10} {kind:<8} {len(runs[0]):>6} " + " ".join(
            f"{us:>{w}.2f}" for us, w in zip(per_call, (12, 11) if args.baseline else (11,)))
        if args.baseline:
            line += f" {per_call[0] / per_call[1]:>9.2f}"
        print(line)


if __name__ == "__main__":
    main()
