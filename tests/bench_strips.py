"""Microbenchmark: every partition-set enumerator against its interval reference.

Times the package's enumerators (the four strip sets, ``sub_partitions``,
``enumerate_partitions``, ``partitions_of_size`` and the up/down sets of
``interlacing``, all one row-by-row walk) against the same sets listed
through the oracle's recursive interval search (``oracle.interval_*``, the
earlier formulation), on these grids of calls:

- ``series``: every strip call that the benchmark's series-verify list of 51
  ``verify_identity`` checks makes, recorded once through ``series._sweep``;
- ``small``: every shape of size <= 8 with budgets 0..6 (and None under);
- ``tiny-wide``: every shape of size <= 3 with budgets 6..12 (and None under);
- ``wide``: every shape of size <= 3 with budgets 20..60, where most strips
  end in rows of 0 long before the last row;
- ``shapes``: ``sub_partitions`` of every shape of size <= 9;
- ``boxes``: ``enumerate_partitions`` and ``partitions_of_size`` of every
  size < 14, unboxed and in every box up to 5 x 5;
- ``size30``: the same two functions at size 30, unboxed;
- ``box3``: the up/down sets and batches over every pair in the 3 x 3 box,
  k <= 4, in both dualities.

Each grid is timed in alternating rounds (reference, package, reference, ...)
and the median round is reported, with the ratio reference / package.  With
``--baseline SRC`` the package found in another checkout's ``src`` directory
is timed in the same rounds, and the ratio baseline / package is reported too.
The outputs are compared once before timing.  This is not a test (pytest does
not collect the file name); run it from the repository root:

    PYTHONPATH=src python tests/bench_strips.py [--rounds 15] [--baseline SRC]
"""

import argparse
import importlib
import importlib.util
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402
from growthdiagrams import series  # noqa: E402

STRIPS = ("horizontal_strips_over", "vertical_strips_over",
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
    calls = {name: [] for name in STRIPS}
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


def strip_grid(max_size, budgets):
    """{name: [(shape, budget), ...]} over every shape of size <= max_size."""
    shapes = oracle.all_partitions(max_size)
    over = [(mu, b) for mu in shapes for b in budgets]
    under = over + [(mu, None) for mu in shapes]
    return {name: over if name.endswith("_over") else under for name in STRIPS}


def cases():
    """(grid, module, function, calls) for every timed grid."""
    strip_grids = {
        "series": record_series_calls(),
        "small": strip_grid(8, range(7)),
        "tiny-wide": strip_grid(3, range(6, 13)),
        "wide": strip_grid(3, range(20, 61)),
    }
    out = [(label, "partitions", name, calls[name])
           for name in STRIPS for label, calls in strip_grids.items() if calls[name]]
    out.append(("shapes", "partitions", "sub_partitions",
                [(mu,) for mu in oracle.all_partitions(9)]))
    boxes = [None] + [(rows, cols) for rows in range(6) for cols in range(6)]
    for name in ("enumerate_partitions", "partitions_of_size"):
        out.append(("boxes", "partitions", name, [(m, box) for m in range(14) for box in boxes]))
        out.append(("size30", "partitions", name, [(30,)]))
    box3 = [p for p in oracle.all_partitions(9) if len(p) <= 3 and (not p or p[0] <= 3)]
    pairs = [(lam, rho, dual) for lam in box3 for rho in box3 for dual in (False, True)]
    for name in ("up_set", "down_set"):
        out.append(("box3", "interlacing", name,
                    [(lam, rho, k, dual) for lam, rho, dual in pairs for k in range(5)]))
    for name in ("up_sets_through", "down_sets_through"):
        out.append(("box3", "interlacing", name, [(lam, rho, 4, dual) for lam, rho, dual in pairs]))
    return out


def load_baseline(src):
    """The growthdiagrams package under ``src``, imported as ``baseline_growthdiagrams``."""
    package = Path(src).resolve() / "growthdiagrams"
    spec = importlib.util.spec_from_file_location(
        "baseline_growthdiagrams", package / "__init__.py",
        submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return spec.name


def time_calls(fn, calls):
    start = perf_counter()
    for args in calls:
        fn(*args)
    return perf_counter() - start


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=15)
    parser.add_argument("--baseline", metavar="SRC",
                        help="also time the package under this src directory")
    args = parser.parse_args(argv)
    baseline = load_baseline(args.baseline) if args.baseline else None
    head = f"{'function':<24} {'grid':<10} {'calls':>6} {'reference ms':>13}"
    if baseline:
        head += f" {'baseline ms':>12}"
    head += f" {'package ms':>11} {'ref/pkg':>8}" + (f" {'base/pkg':>9}" if baseline else "")
    print(head)
    for label, module, name, calls in cases():
        fns = [getattr(oracle, f"interval_{name}"),
               getattr(importlib.import_module(f"growthdiagrams.{module}"), name)]
        if baseline:
            fns.insert(1, getattr(importlib.import_module(f"{baseline}.{module}"), name))
        assert all(fn(*c) == fns[0](*c) for c in calls for fn in fns[1:]), (name, label)
        times = [[] for _ in fns]
        for _ in range(args.rounds):
            for fn, t in zip(fns, times):
                t.append(time_calls(fn, calls))
        med = [median(t) for t in times]
        line = f"{name:<24} {label:<10} {len(calls):>6} " + " ".join(
            f"{m * 1e3:>{w}.2f}" for m, w in zip(med, (13, 12, 11) if baseline else (13, 11)))
        line += f" {med[0] / med[-1]:>8.2f}"
        if baseline:
            line += f" {med[1] / med[-1]:>9.2f}"
        print(line)


if __name__ == "__main__":
    main()
