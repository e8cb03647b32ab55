"""CLI output must stay byte-identical.

Each request below runs ``cli.main`` in-process on small JSON inputs and is
compared with the stdout and exit code recorded in ``cli_golden.json``: every
identity ``verify`` checks (a skew case of each kind, the default degree and a
refused flag), ``rsk``/``unrsk`` under all four rules, ``littlewood-encode
--grid`` for every Littlewood variant and ``render`` of a matrix and of an
array.  A change that alters any of these outputs fails here; the recording
is only ever replaced on purpose, together with the change that explains it.
"""

import json
from pathlib import Path

import pytest

from growthdiagrams import cli

GOLDEN = Path(__file__).resolve().parent / "cli_golden.json"

#: Input files by name; ``{name}`` in an argv stands for the file's path.  The
#: unrsk tableaux are the rsk images of A (row, col) and D (dual rules).
FILES = {
    "A": [[0, 2, 1], [1, 1, 0], [2, 0, 0]],
    "D": [[1, 0, 1], [0, 1, 1], [1, 1, 0]],
    "P_row": {"chain": [[], [3], [3, 2], [3, 3, 1]]},
    "Q_row": {"chain": [[], [3], [3, 3], [3, 3, 1]]},
    "P_col": {"chain": [[], [3], [5], [7]]},
    "Q_col": {"chain": [[], [3], [6], [7]]},
    "P_dual-row": {"chain": [[], [2], [3, 1], [3, 2, 1]]},
    "Q_dual-row": {"chain": [[], [1, 1], [2, 2], [3, 2, 1]], "steps": "vertical"},
    "P_dual-col": {"chain": [[], [2], [2, 2], [3, 2, 1]]},
    "Q_dual-col": {"chain": [[], [1, 1], [2, 1, 1], [3, 2, 1]], "steps": "vertical"},
    "T_all": {"n": 3, "rows": [[2, 0, 1], [1, 1], [3]]},
    "T_even_rows": {"n": 3, "rows": [[2, 1, 0], [0, 2], [4]]},
    "T_zero_diagonal": {"n": 3, "rows": [[0, 1, 1], [0, 1], [0]]},
    "T_asym_minus": {"n": 3, "rows": [[2, 1, 0], [0, 1], [2]]},
}

_VERIFY = [
    ["--identity", "cauchy", "--n", "2", "--m", "2", "--degree", "6"],
    ["--identity", "dual-cauchy", "--n", "2", "--m", "3", "--degree", "5"],
    ["--identity", "skew-cauchy", "--n", "2", "--m", "2", "--degree", "5",
     "--shape", "[2,1]", "--rho", "[1,1]"],
    ["--identity", "skew-dual-cauchy", "--n", "2", "--m", "2", "--degree", "5",
     "--shape", "[1]", "--rho", "[2,1]"],
    *(["--identity", "littlewood", "--variant", f, "--n", "3", "--degree", "7"]
      for f in ("all", "even-rows", "even-cols", "asym+1", "asym-1")),
    *(["--identity", "skew-littlewood", "--variant", f, "--n", "3", "--degree", "5",
       "--shape", "[3,1]"] for f in ("all", "even-rows", "even-cols", "asym+1", "asym-1")),
    ["--identity", "pieri", "--n", "3", "--degree", "6", "--shape", "[2,1]", "--k", "2"],
    ["--identity", "dual-pieri", "--n", "3", "--degree", "6", "--shape", "[2,1]", "--k", "2"],
    ["--identity", "squarefree", "--n", "5"],
    ["--identity", "insertion-agreement", "--n", "2", "--m", "3", "--seed", "4"],
    ["--identity", "cauchy", "--n", "1"],
    ["--identity", "squarefree", "--n", "3", "--degree", "9"],
]

_ENCODE = [
    ("all", [], "T_all"),
    ("all", ["--rule", "col"], "T_all"),
    ("even-rows", [], "T_even_rows"),
    ("even-rows", ["--rule", "row"], "T_even_rows"),
    ("even-cols", [], "T_zero_diagonal"),
    ("asym+1", [], "T_zero_diagonal"),
    ("asym-1", [], "T_asym_minus"),
    ("asym-1", ["--star", "col"], "T_asym_minus"),
]

REQUESTS = [
    *(["verify", *argv] for argv in _VERIFY),
    *(["rsk", "--rule", rule, "--matrix", matrix]
      for rule, matrix in (("row", "{A}"), ("col", "{A}"), ("dual-row", "{D}"),
                           ("dual-col", "{D}"))),
    *(["unrsk", "--rule", rule, "--p", "{P_%s}" % rule, "--q", "{Q_%s}" % rule]
      for rule in ("row", "col", "dual-row", "dual-col")),
    *(["littlewood-encode", "--variant", family, *extra, "--array", "{%s}" % array, "--grid"]
      for family, extra, array in _ENCODE),
    ["render", "--rule", "row", "--matrix", "{A}"],
    ["render", "--rule", "dual-col", "--matrix", "{D}"],
    ["render", "--variant", "even-rows", "--array", "{T_even_rows}"],
]


def _key(argv):
    return " ".join(argv)


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    out = {}
    for name, data in FILES.items():
        path = root / f"{name}.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        out["{%s}" % name] = str(path)
    return out


def run(argv, paths, capsys):
    code = cli.main([paths.get(arg, arg) for arg in argv])
    return {"code": code, "stdout": capsys.readouterr().out}


def test_recording_covers_every_request():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert list(golden) == [_key(argv) for argv in REQUESTS]


@pytest.mark.parametrize("argv", REQUESTS, ids=[f"{i:02d}-{a[0]}" for i, a in enumerate(REQUESTS)])
def test_cli_output_is_unchanged(argv, paths, capsys):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert run(argv, paths, capsys) == golden[_key(argv)]
