"""The benchmark's workloads run against the package as it stands.

``perfbench/workloads.py`` drives the package through its public names.  Each
workload's warm-up pass runs here in-process and every output must pass the
workload's own check, so a change that breaks a name or a signature the
benchmark uses fails in Tier-1 rather than in a benchmark run.
"""

import importlib
import sys
from pathlib import Path

import pytest

import growthdiagrams

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
NAMES = ("rsk-roundtrip", "littlewood-roundtrip", "series-verify", "cli-requests")
MODULES = ("workloads", "reference")  # perfbench's top-level modules


@pytest.fixture(scope="module")
def workloads():
    saved = {name: sys.modules.pop(name) for name in MODULES if name in sys.modules}
    sys.path.insert(0, PERFBENCH)
    try:
        yield importlib.import_module("workloads")
    finally:
        sys.path.remove(PERFBENCH)
        for name in MODULES:
            sys.modules.pop(name, None)
        sys.modules.update(saved)


def test_every_workload_is_covered(workloads):
    assert sorted(workloads.WORKLOADS) == sorted(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_warmup_pass_checks(workloads, name, tmp_path):
    workload = workloads.WORKLOADS[name]()
    for module in workload.modules:
        importlib.import_module(f"growthdiagrams.{module}")
    items = workload.warmup_items(1, tmp_path)
    workload.prepare(items, growthdiagrams)
    assert items
    for item in items:
        output = workload.run(item, growthdiagrams)
        assert workload.check(item, output, growthdiagrams), item
