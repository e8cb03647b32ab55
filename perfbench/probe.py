"""Set-up probe: the package import and one workload's warm-up pass, timed in
a fresh process.

    python3 perfbench/probe.py WORKLOAD SEED [SUBMODULE ...]

``run.py`` starts it between timed passes.  The package and the workload's
submodules are imported first, before the benchmark's own modules and before
any standard library module that the package also needs, so that their whole
import cost is measured.  Only then are the benchmark modules loaded, the
warm-up items generated and the warm-up pass timed.  Prints one JSON line with
the import seconds, the warm-up seconds and the speed scale measured around
them.
"""

import os
import sys
from time import perf_counter

PACKAGE = "growthdiagrams"
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def main():
    name, seed, *modules = sys.argv[1:]
    sys.path.insert(0, SRC)
    t0 = perf_counter()
    gd = __import__(PACKAGE)
    for module in modules:
        __import__(f"{PACKAGE}.{module}")
    import_s = perf_counter() - t0

    import json
    import shutil

    import run

    run.check_package(gd)
    workdir = run.OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        warmup_s, samples = run.warm_up(run.WORKLOADS[name](), int(seed), workdir, gd)[2:]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"import_s": import_s, "warmup_s": warmup_s,
                      "scale": run.speed_scale(samples)}))


if __name__ == "__main__":
    main()
