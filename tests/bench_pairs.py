"""Paired end-to-end benchmark runs: this checkout against a baseline checkout.

    python tests/bench_pairs.py --baseline DIR --seeds A-B [--seconds 20]
        --out BENCH_<slug>.json [--claim rsk-roundtrip.ops_per_s]
        [--trace-seed S] [--what TEXT]

For each seed S in A..B this runs ``perfbench/run.py --workload all --seed S
--seconds T --trace 0`` once in DIR (the parent) and once in this checkout
(the change), the parent first on even pairs (the first pair is pair 0), the
change first on odd ones.  It refuses to start unless both ``perfbench/``
trees are byte-identical (``out/`` and ``__pycache__/`` aside), since the
benchmark must measure the package and not itself.  ``--trace-seed`` adds one
``--trace 1`` run per side.  pytest does not collect this file.

The output holds, per workload and end-to-end metric: each side's runs, their
quartiles, the change's wins, the ratio of the medians (change over parent),
whether that ratio lies within the metric's bound in ``BENCHMARK.json``, and
the failed operations per side; then the raw result lines and a claim block.
The claim holds when the change wins at least nine tenths of the pairs and
its median beats the parent's by more than the parent's interquartile range.
"""

import argparse
import filecmp
import json
import math
import os
import platform
import re
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parents[1]
SKIP = {"out", "__pycache__"}
FAIL_LINE = re.compile(r"^\s*(\S+) fail_ratio \S+ \((\d+) failed of (\d+) attempted")


def tree_differences(a, b):
    """Relative paths that differ between the trees a and b, or exist in one only."""
    cmp = filecmp.dircmp(a, b, ignore=sorted(SKIP))
    out = [*cmp.left_only, *cmp.right_only, *cmp.funny_files]
    out += [f for f in cmp.common_files if not filecmp.cmp(Path(a, f), Path(b, f), shallow=False)]
    for sub in cmp.common_dirs:
        out += [f"{sub}/{f}" for f in tree_differences(Path(a, sub), Path(b, sub))]
    return sorted(out)


def parse(stdout):
    """A run's last line (its JSON result) with ``workloads``: {name: {attempted,
    failed}} read off the summary lines."""
    *summary, last = stdout.strip().splitlines()
    result = json.loads(last)
    result["workloads"] = {m[1]: {"attempted": int(m[3]), "failed": int(m[2])}
                           for m in map(FAIL_LINE.match, summary) if m}
    return result


def run(checkout, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"{checkout}: {' '.join(cmd[1:])} exited with {proc.returncode}:\n"
                         f"{proc.stderr}")
    return parse(proc.stdout)


def quartiles(values):
    q1, mid, q3 = quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"q1": q1, "median": mid, "q3": q3}


def summarize(parent, change, seeds, bounds, claim):
    """The paired summary of two equally long lists of parsed results (pair i is
    ``parent[i]``, ``change[i]``).  ``bounds``: {metric: (better, bound)} as in
    BENCHMARK.json; ``claim``: (workload, metric) or None."""
    assert len(parent) == len(change) == len(seeds) > 0
    workloads = sorted({key.partition(".")[0] for r in parent for key in r["metrics"]})
    out = {}
    for workload in workloads:
        block = {"change_wins": {}, "median_ratio_change_over_parent": {}, "quartiles": {},
                 "runs": {}, "within_bound": {}, "seeds": list(seeds)}
        for metric, (better, bound) in bounds.items():
            key = f"{workload}.{metric}"
            if not all(key in r["metrics"] for r in parent + change):
                continue
            runs = {side: [r["metrics"][key]["value"] for r in results]
                    for side, results in (("parent", parent), ("change", change))}
            sign = 1 if better == "higher" else -1
            ratio = median(runs["change"]) / median(runs["parent"])
            block["runs"][metric] = runs
            block["quartiles"][metric] = {side: quartiles(v) for side, v in runs.items()}
            block["change_wins"][metric] = sum(sign * (c - p) > 0 for p, c in zip(*runs.values()))
            block["median_ratio_change_over_parent"][metric] = ratio
            block["within_bound"][metric] = ratio >= 1 - bound if sign > 0 else ratio <= 1 + bound
        block["failed"] = {side: sum(r["workloads"].get(workload, {}).get("failed", 0) for r in results)
                           for side, results in (("parent", parent), ("change", change))}
        out[f"{workload.replace('-', '_')}_pairs"] = block
    if claim:
        workload, metric = claim
        runs = out[f"{workload.replace('-', '_')}_pairs"]["runs"][metric]
        q = quartiles(runs["parent"])
        wins = out[f"{workload.replace('-', '_')}_pairs"]["change_wins"][metric]
        gap = median(runs["change"]) - q["median"]
        better = bounds[metric][0] == "higher"
        out["claim"] = {
            "workload": workload, "metric": metric, "pairs": len(seeds), "change_wins": wins,
            "parent_median": q["median"], "change_median": median(runs["change"]),
            "parent_iqr": q["q3"] - q["q1"],
            "holds": wins >= math.ceil(0.9 * len(seeds))
            and (gap if better else -gap) > q["q3"] - q["q1"],
        }
    return out


def seed_range(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True, metavar="DIR", help="the parent's checkout")
    parser.add_argument("--seeds", required=True, type=seed_range, metavar="A-B")
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--out", required=True, metavar="BENCH_<slug>.json")
    parser.add_argument("--claim", default="rsk-roundtrip.ops_per_s", metavar="WORKLOAD.METRIC",
                        help="the claimed metric, or 'none'")
    parser.add_argument("--trace-seed", type=int, metavar="S", help="also one --trace 1 run per side")
    parser.add_argument("--what", default="", help="what the change does, for the record")
    args = parser.parse_args(argv)
    baseline = Path(args.baseline).resolve()
    differ = tree_differences(ROOT / "perfbench", baseline / "perfbench")
    if differ:
        raise SystemExit(f"perfbench/ differs from {baseline}/perfbench: {', '.join(differ)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    claim = None if args.claim == "none" else tuple(args.claim.split("."))
    sides = {"parent": [], "change": []}
    for i, seed in enumerate(args.seeds):
        order = [("parent", baseline), ("change", ROOT)][::1 if i % 2 == 0 else -1]
        for side, checkout in order:
            sides[side].append(run(checkout, seed, args.seconds, 0))
            print(f"pair {i} seed {seed} {side}: " + ", ".join(
                f"{k.partition('.')[0]} {v['value']:.1f}" for k, v in sides[side][-1]["metrics"].items()
                if k.endswith(".ops_per_s")), flush=True)
    command = (f"python3 perfbench/run.py --workload all --seed S --seconds {args.seconds:g} "
               f"--trace 0, seeds {args.seeds[0]}-{args.seeds[-1]}")
    out = {"what": args.what,
           "machine": f"{os.cpu_count()}-core {platform.machine()} box, Python "
                      f"{platform.python_version()}; times scaled by the benchmark's calibration kernel"}
    out.update(summarize(sides["parent"], sides["change"], args.seeds, bounds, claim))
    for key, block in out.items():
        if key.endswith("_pairs"):
            block["command"] = command
            block["note"] = (f"{len(args.seeds)} pairs, order alternating: even pairs (from 0) ran "
                             "the parent first; every pair is one --workload all run per side")
    out["result_lines"] = {"command": command, **sides}
    if args.trace_seed is not None:
        out[f"trace_seed{args.trace_seed}"] = {
            "command": f"python3 perfbench/run.py --workload all --seed {args.trace_seed} "
                       f"--seconds {args.seconds:g} --trace 1",
            **{side: run(checkout, args.trace_seed, args.seconds, 1)
               for side, checkout in (("parent", baseline), ("change", ROOT))}}
    Path(args.out).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    if claim:
        print("claim:", json.dumps(out["claim"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
