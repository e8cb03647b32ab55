"""Run the benchmark over several seeds and summarise the run-to-run spread.

    python3 perfbench/collect.py --workloads all --seeds 1-10 --seconds 15
    python3 perfbench/collect.py --workloads series-verify --seeds 1-5 --trace 1

Runs are sequential, one process at a time.  For every metric it prints the
median, the first and third quartiles (``statistics.quantiles(values, n=4)``)
and the spread (q3 - q1) / median, and compares the spread with the metric's
bound in BENCHMARK.json.  ``--out FILE`` also writes every run's result and
the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="all")
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = list(WORKLOADS) if args.workloads == "all" else args.workloads.split(",")
    report = {"seconds": seconds, "trace": args.trace, "seeds": args.seeds, "workloads": {}}
    for name in names:
        runs, walls = [], []
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(args.trace)]
            start = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
            walls.append(time.perf_counter() - start)
            if proc.returncode != 0:
                sys.exit(f"{name} seed {seed} exited with {proc.returncode}:\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                sys.exit(f"{name} seed {seed} failed its checks:\n{proc.stdout}{proc.stderr}")
            runs.append(result)
        metrics = {
            key: summarise([r["metrics"][key]["value"] for r in runs])
            for key in runs[0]["metrics"]
        }
        report["workloads"][name] = {
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "wall_s": walls,
            "metrics": metrics,
        }
        print(f"{name}: attempted {report['workloads'][name]['attempted']}, "
              f"wall seconds per run {min(walls):.1f}-{max(walls):.1f}")
        for key, s in metrics.items():
            bound = bounds.get(key)
            flag = ""
            if bound is not None:
                flag = "ok" if s["spread"] < bound / 3 else ("WITHIN" if s["spread"] <= bound else "OVER")
            print(f"  {key:<30} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g}"
                  f" spread {s['spread']:.4f} bound {bound} {flag}")
        sys.stdout.flush()
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
