"""The layer bench runs: every layer for one round against a baseline.

``bench_layers.py`` is a tool, not a test, so nothing else would notice when
a change to the package breaks it.  Each layer here records one pass of its
inputs, checks the results against the same package loaded as a baseline and
times one round; a baseline that answers differently, or a CLI output that
differs from its recording, must stop the tool before it times anything.
"""

import shutil
from pathlib import Path

import pytest

import bench_layers
from growthdiagrams import cli

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("layer", list(bench_layers.LAYERS))
def test_every_layer_runs(layer, capsys):
    bench_layers.main(["--layer", layer, "--rounds", "1", "--passes", "1", "--baseline", str(SRC)])
    head, *rows = capsys.readouterr().out.splitlines()
    headers, unit = bench_layers.LAYERS[layer][:2]
    assert head.split()[:len(headers) + 1] == [*headers, "calls"]
    assert f"baseline {unit}" in head and f"package {unit}" in head and head.endswith("base/pkg")
    assert rows and all(int(row.split()[len(headers)]) > 0 for row in rows)


def test_a_baseline_that_differs_stops_before_timing(tmp_path, capsys):
    shutil.copytree(SRC / "growthdiagrams", tmp_path / "growthdiagrams")
    with open(tmp_path / "growthdiagrams" / "__init__.py", "a", encoding="utf-8") as init:
        init.write("\n_rsk = rsk\n\n\ndef rsk(rule, matrix):\n"
                   "    P, Q = _rsk(rule, matrix)\n    return Q, P\n")
    with pytest.raises(AssertionError):
        bench_layers.main(["--layer", "builds", "--rounds", "1", "--passes", "1",
                           "--baseline", str(tmp_path)])
    assert capsys.readouterr().out == ""


def test_a_cli_output_that_differs_from_its_recording_stops_before_timing(monkeypatch, capsys):
    monkeypatch.setattr(cli, "main", lambda argv: 0)
    with pytest.raises(AssertionError):
        bench_layers.main(["--layer", "cli", "--rounds", "1"])
    assert capsys.readouterr().out == ""
