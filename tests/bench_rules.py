"""Microbenchmark: the local rules' calls in the rsk round trip, per rule.

Records once every ``apply_rule`` and ``unapply_rule`` call that ``rsk`` and
``rsk_inverse`` make on seeded square matrices like the benchmark's
rsk-roundtrip items (n = 8, 12, ..., 32, entries 0..2, or 0/1 for the dual
rules, all four rules), by wrapping the engine's globals ``growth.apply_rule``
and ``growth.unapply_rule``.  Then it times those calls per rule and direction
in rounds and reports the median round as nanoseconds per call.  With
``--baseline SRC`` the package found in another checkout's ``src`` directory
replays the same calls in alternating rounds (baseline, package, baseline,
...), after one check that both give the same results, and the ratio
baseline / package is reported too.  This is not a test (pytest does not
collect the file name); run it from the repository root:

    PYTHONPATH=src python tests/bench_rules.py [--rounds 15] [--passes 2]
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

RULES = ("row", "col", "dual-row", "dual-col")
SIZES = (8, 12, 16, 20, 24, 28, 32)


def matrices(seed, passes):
    """(rule, matrix) for every rule and size, one seeded stream per pass."""
    out = []
    for index in range(passes):
        rng = random.Random(f"{seed}:bench-rules:{index}")
        for n in SIZES:
            for rule in RULES:
                hi = 1 if rule.startswith("dual") else 2
                out.append((rule, [[rng.randint(0, hi) for _ in range(n)] for _ in range(n)]))
    return out


def record(items):
    """{(rule, "apply" | "unapply"): [(args, kwargs), ...]}, every rule call
    of one round trip per item, the rule passed by name."""
    calls = {}
    apply, unapply = growth.apply_rule, growth.unapply_rule

    def logged(kind, fn):
        def call(rule, *args, **kwargs):
            calls.setdefault((rule.value, kind), []).append((args, kwargs))
            return fn(rule, *args, **kwargs)
        return call

    growth.apply_rule, growth.unapply_rule = logged("apply", apply), logged("unapply", unapply)
    try:
        for rule, matrix in items:
            back, _, _ = gd.rsk_inverse(rule, *gd.rsk(rule, matrix))
            assert [list(r) for r in back] == matrix, rule
    finally:
        growth.apply_rule, growth.unapply_rule = apply, unapply
    return calls


def time_calls(fn, rule, calls):
    start = perf_counter()
    for args, kwargs in calls:
        fn(rule, *args, **kwargs)
    return perf_counter() - start


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=15)
    parser.add_argument("--passes", type=int, default=2,
                        help="seeded passes of matrices whose calls are recorded")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--baseline", metavar="SRC",
                        help="also time the package under this src directory")
    args = parser.parse_args(argv)
    packages = [gd]
    if args.baseline:
        packages.insert(0, sys.modules[load_baseline(args.baseline)])
    calls = record(matrices(args.seed, args.passes))
    head = f"{'rule':<9} {'call':<8} {'calls':>6}"
    if args.baseline:
        head += f" {'baseline ns':>12}"
    print(head + f" {'package ns':>11}" + (f" {'base/pkg':>9}" if args.baseline else ""))
    for rule in RULES:
        for kind in ("apply", "unapply"):
            recorded = calls[rule, kind]
            runs = [(getattr(p, f"{kind}_rule"), p.Rule(rule)) for p in packages]
            for fn, r in runs[1:]:
                f0, r0 = runs[0]
                assert all(fn(r, *a, **kw) == f0(r0, *a, **kw) for a, kw in recorded), (rule, kind)
            times = [[] for _ in runs]
            for _ in range(args.rounds):
                for (fn, r), t in zip(runs, times):
                    t.append(time_calls(fn, r, recorded))
            per_call = [median(t) / len(recorded) * 1e9 for t in times]
            line = f"{rule:<9} {kind:<8} {len(recorded):>6} " + " ".join(
                f"{ns:>{w}.0f}" for ns, w in zip(per_call, (12, 11) if args.baseline else (11,)))
            if args.baseline:
                line += f" {per_call[0] / per_call[1]:>9.2f}"
            print(line)


if __name__ == "__main__":
    main()
