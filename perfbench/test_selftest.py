"""Self-test of the benchmark: a short smoke pass of every workload.

    python3 -m pytest -q perfbench/test_selftest.py

Not part of the package's test suite (``testpaths`` is ``tests``); it takes
under a minute on two cores.
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tracer as tracer_module
from tracer import PACKAGE, Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE_SECONDS = "0.5"

#: per-layer counts predicted to be exactly zero on a workload
PREDICTED_ZERO = {
    "rsk-roundtrip": ("projections.apply_calls", "projections.unapply_calls",
                      "series.schur_calls", "jsonio.parse_self_s", "jsonio.dump_self_s",
                      "cli.self_s"),
    "littlewood-roundtrip": ("series.schur_calls", "jsonio.parse_self_s", "jsonio.dump_self_s",
                             "cli.self_s"),
    "series-verify": ("rules.apply_calls", "rules.unapply_calls", "projections.apply_calls",
                      "projections.unapply_calls", "jsonio.parse_self_s", "jsonio.dump_self_s",
                      "cli.self_s"),
    "cli-requests": (),
}


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result, lines[:-1]


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == tracer_module.LAYER_METRICS


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_end_to_end_smoke(workload):
    result, summary = result_of(
        bench("--workload", workload, "--seed", "7", "--seconds", SMOKE_SECONDS, "--trace", "0"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 100
    expected = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert any(f"{workload} fail_ratio 0 (0 failed of" in line for line in summary)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_per_layer_smoke(workload):
    result, summary = result_of(
        bench("--workload", workload, "--seed", "7", "--seconds", SMOKE_SECONDS, "--trace", "1"))
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    for name in PREDICTED_ZERO[workload]:
        assert metrics[name]["value"] == 0, name
    assert metrics["trace.overhead_ratio"]["value"] > 0
    assert any("all restored: True" in line for line in summary)
    assert any("absent from the package: none" in line for line in summary)


def namespace_snapshot():
    mods = {n: m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")}
    snap = {(n, k): v for n, m in mods.items() for k, v in vars(m).items()}
    gd = mods[PACKAGE]
    for cls in (gd.TableauChain, gd.TruncatedPolynomial):
        snap.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    return snap


def test_tracer_restores_every_patched_attribute(tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    gd = importlib.import_module(PACKAGE)
    importlib.import_module(f"{PACKAGE}.cli")
    before = namespace_snapshot()
    tracer = Tracer()
    tracer.install()
    try:
        assert gd.growth.apply_rule is not before[(f"{PACKAGE}.growth", "apply_rule")]
        for name, cls in WORKLOADS.items():
            workload = cls()
            items = workload.warmup_items(3, tmp_path)
            workload.prepare(items, gd)
            tracer.begin_op(0)
            output = workload.run(items[0], gd)
            tracer.end_op()
            assert workload.check(items[0], output, gd), name
    finally:
        tracer.uninstall()
    after = namespace_snapshot()
    assert tracer.patched_count > 0 and tracer.absent == []
    assert tracer.unrestored() == []
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert tracer.stats["rules.apply"][0] > 0 and tracer.stats["cli.main"][0] > 0


def test_missing_names_are_absent_not_errors(monkeypatch):
    sys.path.insert(0, str(ROOT / "src"))
    monkeypatch.setattr(tracer_module, "TABLE", tracer_module.TABLE + (
        ("rules", "no_such_rule_function", "rules.apply", False),
        ("no_such_module", "anything", "rules.apply", False),
    ))
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["rules.no_such_rule_function", "no_such_module.anything"]
    assert tracer.unrestored() == []


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "rsk-roundtrip", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
