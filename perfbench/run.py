"""Benchmark for the growthdiagrams package.

Run from the repository root:

    python3 perfbench/run.py --workload rsk-roundtrip --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs the same loop
with the layer tracer installed and prints the per-layer metrics instead.
``--workload all`` runs every workload, each in its own process.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a readable
summary.  The package is imported from ``src/`` next to this directory.

Timing.  Each workload is one client in one process, without threads: an
operation starts only after the previous one has returned and been checked.
The timed window runs whole passes over the workload's seeded items until
``--seconds`` have passed and at least ``MIN_OPS`` operations were timed.
Every pass holds the same mix of items, so each metric is taken per pass and
the median over passes is reported.  Set-up (the package import plus the
warm-up pass) is measured in ``SETUP_PROBES`` fresh child processes started
between passes (``probe.py``), and the median is reported.

Calibration.  This kind of shared machine switches between speed modes about
1.8x apart, for spells of seconds to minutes, which no run length averages
out.  A fixed pure-Python kernel built from the benchmark's own reference code
(never the package) tracks those modes closely: correlation 0.99 with an rsk
operation timed beside it.  So the kernel is timed before every pass, after
every half-second stretch of it, and around every set-up, and each stretch's
times are scaled to the speed at which the kernel takes
``NOMINAL_CALIBRATION_S``: time * NOMINAL_CALIBRATION_S / median kernel time
around the stretch.  A change to the package cannot move the kernel.  The
summary lines also print the unscaled values and the speed factor.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import reference as ref
from tracer import LAYER_METRICS, PACKAGE, Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

SETUP_PROBES = 9
MIN_OPS = 100  # so that at least ten samples lie beyond the 90th percentile
RSS_AFTER_PASSES = 2  # every run makes at least two passes: no pass has 50 items
PROBE_TIMEOUT_S = 60
CALIBRATION_REPS = 3  # kernel runs at each calibration point
SETUP_CALIBRATION_REPS = 9  # kernel runs before and after a warm-up pass
CALIBRATION_INTERVAL_S = 0.5  # longest stretch of a pass between calibration points
KERNEL_WARMUP = 10  # untimed kernel runs once per process
NOMINAL_CALIBRATION_S = 0.004
_CALIBRATION_MATRIX = [[(3 * i + 5 * j) % 3 for j in range(12)] for i in range(12)]

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def calibration_kernel():
    """Classical RSK, a skew Schur expansion and a product expansion, all
    from ``reference``."""
    ref.classical_rsk(_CALIBRATION_MATRIX)
    ref.skew_schur((4, 3, 1), (1,), 4, 20)
    ref.littlewood_product("all", 3, 8)


def calibration_samples(reps=CALIBRATION_REPS):
    samples = []
    for _ in range(reps):
        t0 = perf_counter()
        calibration_kernel()
        samples.append(perf_counter() - t0)
    return samples


def speed_scale(samples):
    """Factor that takes a time measured now to the nominal machine speed."""
    return NOMINAL_CALIBRATION_S / statistics.median(samples)


def load_package(workload):
    """Import the package and the workload's submodules from ``src/``."""
    if not (SRC / PACKAGE / "__init__.py").is_file():
        raise BenchError(f"no package source at {SRC / PACKAGE}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    gd = importlib.import_module(PACKAGE)
    for module in workload.modules:
        importlib.import_module(f"{PACKAGE}.{module}")
    check_package(gd)
    return gd


def check_package(gd):
    if SRC not in Path(gd.__file__).resolve().parents:
        raise BenchError(f"imported {gd.__file__}, not the package under {SRC}")


def warm_up(workload, seed, workdir, gd):
    """Run the warm-up pass; returns its items, their outputs, the seconds it
    took and the calibration samples taken just before and after it."""
    items = workload.warmup_items(seed, workdir)
    for _ in range(KERNEL_WARMUP):  # the interpreter specialises code after a few runs
        calibration_kernel()
    before = calibration_samples(SETUP_CALIBRATION_REPS)
    t0 = perf_counter()
    outputs = [workload.run(item, gd) for item in items]
    elapsed = perf_counter() - t0
    return items, outputs, elapsed, before + calibration_samples(SETUP_CALIBRATION_REPS)


def probe_setup(workload, seed):
    """(import seconds, warm-up seconds, speed scale) from a fresh child
    process, see ``probe.py``."""
    cmd = [sys.executable, str(HERE / "probe.py"), workload.name, str(seed), *workload.modules]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    return probe["import_s"], probe["warmup_s"], probe["scale"]


def checked(workload, item, output, gd, errors):
    try:
        return bool(workload.check(item, output, gd))
    except Exception:
        errors.append(traceback.format_exc())
        return False


def timed_passes(workload, gd, seed, workdir, seconds, min_ops, first_pass, tracer=None,
                 after_pass=None):
    """Whole passes until ``seconds`` of window time and ``min_ops`` operations.

    The calibration kernel runs before a pass and after every stretch of at
    most ``CALIBRATION_INTERVAL_S`` of it; each stretch, and every operation
    in it, is scaled by the samples taken just before and after it.  The
    window counts the passes only: generating a pass's inputs, calibration
    and ``after_pass(passes, window)`` run outside it."""
    passes, errors = [], []
    window, index, ops = 0.0, first_pass, 0
    while window < seconds or ops < min_ops:
        items = workload.pass_items(seed, index, workdir)
        workload.prepare(items, gd)
        durations, scales, failed = [], [], 0
        elapsed = scaled = 0.0
        before = calibration_samples()
        stretch_start = perf_counter()
        for n, item in enumerate(items, start=1):
            if tracer is not None:
                tracer.begin_op(ops + len(durations))
            t0 = perf_counter()
            try:
                output = workload.run(item, gd)
                ok = True
            except Exception:
                errors.append(traceback.format_exc())
                ok = False
            t1 = perf_counter()
            if tracer is not None:
                tracer.end_op()
            durations.append(t1 - t0)
            if not (ok and checked(workload, item, output, gd, errors)):
                failed += 1
            stretch = perf_counter() - stretch_start
            if n == len(items) or stretch >= CALIBRATION_INTERVAL_S:
                after = calibration_samples()
                scale = speed_scale(before + after)
                scales += [scale] * (len(durations) - len(scales))
                elapsed += stretch
                scaled += stretch * scale
                before = after
                stretch_start = perf_counter()
        passes.append({"durations": durations, "failed": failed, "seconds": elapsed,
                       "scaled_durations": [d * k for d, k in zip(durations, scales)],
                       "scaled_seconds": scaled})
        window += elapsed
        ops += len(durations)
        index += 1
        if after_pass is not None:
            after_pass(len(passes), window)
    return {"passes": passes, "window": window, "next_pass": index, "errors": errors,
            "durations": [d for p in passes for d in p["durations"]],
            "failed": sum(p["failed"] for p in passes)}


def end_to_end(workload, gd, seed, seconds, workdir):
    """Each metric is taken per pass, every pass having the same mix of items,
    and the median over passes is reported; set-up probes run between passes,
    spread over the window, so that both ride out the machine's slow and fast
    spells instead of averaging them in."""
    setups = []
    rss = []

    def after_pass(done, window):
        if done == RSS_AFTER_PASSES:
            rss.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        if len(setups) < SETUP_PROBES and window >= seconds * len(setups) / SETUP_PROBES:
            setups.append(probe_setup(workload, seed))

    run = timed_passes(workload, gd, seed, workdir, seconds, MIN_OPS, 0, after_pass=after_pass)
    while len(setups) < SETUP_PROBES:
        setups.append(probe_setup(workload, seed))
    passes = run["passes"]

    def per_pass(scaled):
        times, spent = ("scaled_durations", "scaled_seconds") if scaled else ("durations", "seconds")
        return {
            "ops_per_s": statistics.median(
                (len(p[times]) - p["failed"]) / p[spent] for p in passes),
            "op_p50_ms": 1000 * statistics.median(statistics.median(p[times]) for p in passes),
            "op_p90_ms": 1000 * statistics.median(
                statistics.quantiles(p[times], n=10)[8] for p in passes),
            "setup_s": statistics.median(
                (i + w) * (k if scaled else 1.0) for i, w, k in setups),
        }

    metrics = per_pass(scaled=True)
    metrics["peak_rss_mb"] = rss[0]
    raw = per_pass(scaled=False)
    p90 = metrics["op_p90_ms"] / 1000
    beyond = sum(1 for p in passes for d in p["scaled_durations"] if d > p90)
    notes = [
        f"{len(run['durations'])} ops in {len(passes)} passes of {len(passes[0]['durations'])}, "
        f"{run['window']:.2f} s window, {beyond} samples beyond p90",
        "speed scale per pass " + ", ".join(
            f"{p['scaled_seconds'] / p['seconds']:.3f}" for p in passes),
        "unscaled " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()),
        "setup_s samples (import + warm-up) x scale: " + ", ".join(
            f"({i:.4f} + {w:.4f}) x {k:.3f}" for i, w, k in setups),
        f"peak RSS after {RSS_AFTER_PASSES} passes",
    ]
    return run, metrics, END_TO_END, notes


def per_layer(name, workload, gd, seed, seconds, workdir):
    base = timed_passes(workload, gd, seed, workdir, seconds / 3, 1, 0)
    tracer = Tracer()
    tracer.install()
    try:
        traced = timed_passes(workload, gd, seed, workdir, 2 * seconds / 3, 1,
                              base["next_pass"], tracer)
    finally:
        tracer.uninstall()
    per_op = [
        sum(sum(p["scaled_durations"]) for p in r["passes"]) / len(r["durations"])
        for r in (base, traced)
    ]
    metrics = tracer.layer_metrics(len(traced["durations"]), per_op[1] / per_op[0])
    scale = statistics.median(p["scaled_seconds"] / p["seconds"] for p in traced["passes"])
    for key, unit in LAYER_METRICS.items():
        if unit == "s/op":
            metrics[key] *= scale
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{name}-seed{seed}.jsonl"
    tracer.write_spans(spans_path)
    unrestored = tracer.unrestored()
    run = {
        "durations": base["durations"] + traced["durations"],
        "failed": base["failed"] + traced["failed"] + len(unrestored),
        "errors": base["errors"] + traced["errors"] + [f"not restored: {a}" for a in unrestored],
    }
    notes = [
        f"{len(base['durations'])} untraced ops, {len(traced['durations'])} traced ops "
        f"in {len(traced['passes'])} passes; per-layer values are per traced op, "
        f"times scaled by {scale:.3f}",
        f"{tracer.patched_count} attributes patched, all restored: {not unrestored}",
        "absent from the package: " + (", ".join(tracer.absent) or "none"),
        f"{len(tracer.spans)} spans written to {spans_path.relative_to(HERE.parent)}",
    ]
    return run, metrics, LAYER_METRICS, notes


def run_workload(name, seed, seconds, trace):
    workload = WORKLOADS[name]()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        gd = load_package(workload)
        items, outputs = warm_up(workload, seed, workdir, gd)[:2]
        workload.prepare(items, gd)
        errors: list[str] = []
        warm_ok = all(checked(workload, i, o, gd, errors) for i, o in zip(items, outputs))
        if trace:
            run, metrics, units, notes = per_layer(name, workload, gd, seed, seconds, workdir)
        else:
            run, metrics, units, notes = end_to_end(workload, gd, seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted, failed = len(run["durations"]), run["failed"]
    for err in (errors + run["errors"])[:3]:
        sys.stderr.write(err + "\n")
    print(f"workload {name}, seed {seed}, trace {int(trace)}: " + "; ".join(notes))
    for key, unit in units.items():
        print(f"  {name} {key:<28} {metrics[key]:>14.6g} {unit}")
    print(f"  {name} fail_ratio {failed / attempted:g} ({failed} failed of {attempted} attempted;"
          f" warm-up checks {'passed' if warm_ok else 'FAILED'})")
    return {
        "correct": warm_ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def run_all(seed, seconds, trace):
    """Every workload in its own process; metric names get the workload prefix."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise BenchError(f"workload {name} exited with {proc.returncode}")
        *summary, last = proc.stdout.strip().splitlines()
        print("\n".join(summary))
        result = json.loads(last)
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    return total


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            result = run_all(args.seed, args.seconds, args.trace)
        else:
            result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
