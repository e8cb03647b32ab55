"""Microbenchmark: each strip enumerator against its interval reference.

Times the four strip enumerators of ``growthdiagrams.partitions``
(``horizontal_``/``vertical_strips_over`` and ``_under``, a direct row-by-row
product) against the same strip sets listed through ``partitions_between``
(``oracle.interval_*``, the earlier formulation), on three grids of calls:

- ``series``: every strip call that the benchmark's series-verify list of 51
  ``verify_identity`` checks makes, recorded once through ``series._sweep``;
- ``small``: every shape of size <= 8 with budgets 0..6 (and None under);
- ``tiny-wide``: every shape of size <= 3 with budgets 6..12 (and None under).

Each grid is timed in alternating rounds (reference, direct, reference, ...)
and the median round is reported, with the ratio reference / direct.  The
outputs are compared once before timing.  This is not a test (pytest does not
collect the file name); run it from the repository root:

    PYTHONPATH=src python tests/bench_strips.py [--rounds 15]
"""

import argparse
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402
from growthdiagrams import partitions, series  # noqa: E402

NAMES = ("horizontal_strips_over", "vertical_strips_over",
         "horizontal_strips_under", "vertical_strips_under")
FAMILIES = ("all", "even-rows", "even-cols", "asym+1", "asym-1")


def series_checks():
    """The series-verify workload's fixed list of checks, in list order."""
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
    return checks


def record_series_calls():
    """{name: [(shape, budget), ...]} for every strip call of one pass of the checks."""
    calls = {name: [] for name in NAMES}
    sweep = series._sweep

    def recording_sweep(shape, n, budget, strips, dominant=False):
        def logged(sig, room):
            calls[strips.__name__].append((sig, room))
            return strips(sig, room)
        return sweep(shape, n, budget, logged, dominant)

    series._sweep = recording_sweep
    try:
        for identity, n, cap, extra in series_checks():
            assert series.verify_identity(identity, n, cap, **extra).equal, identity
    finally:
        series._sweep = sweep
    return calls


def grid(max_size, budgets):
    """{name: [(shape, budget), ...]} over every shape of size <= max_size."""
    shapes = oracle.all_partitions(max_size)
    over = [(mu, b) for mu in shapes for b in budgets]
    under = over + [(mu, None) for mu in shapes]
    return {name: over if name.endswith("_over") else under for name in NAMES}


def time_calls(fn, calls):
    start = perf_counter()
    for shape, budget in calls:
        fn(shape, budget)
    return perf_counter() - start


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=15)
    args = parser.parse_args(argv)
    grids = {
        "series": record_series_calls(),
        "small": grid(8, range(7)),
        "tiny-wide": grid(3, range(6, 13)),
    }
    print(f"{'function':<24} {'grid':<10} {'calls':>6} {'reference ms':>13} "
          f"{'direct ms':>10} {'ratio':>6}")
    for name in NAMES:
        new, ref = getattr(partitions, name), getattr(oracle, f"interval_{name}")
        for label, calls in grids.items():
            calls = calls[name]
            if not calls:
                continue
            assert all(new(*c) == ref(*c) for c in calls), (name, label)
            old_t, new_t = [], []
            for _ in range(args.rounds):
                old_t.append(time_calls(ref, calls))
                new_t.append(time_calls(new, calls))
            o, d = median(old_t), median(new_t)
            print(f"{name:<24} {label:<10} {len(calls):>6} {o * 1e3:>13.2f} "
                  f"{d * 1e3:>10.2f} {o / d:>6.2f}")


if __name__ == "__main__":
    main()
