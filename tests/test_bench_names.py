"""Every package name the benchmark's tracer wraps must exist.

``perfbench/tracer.py`` lists the functions it wraps in ``TABLE`` and records a
missing one in ``absent`` instead of failing, so a rename inside the package
would silently drop it from the per-layer metrics.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_finds_every_name_it_wraps():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tracer = module.Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
        assert tracer.patched_count > 0
    finally:
        tracer.uninstall()
    assert tracer.unrestored() == []
