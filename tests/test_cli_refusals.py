"""CLI refusals must keep their exit code and their message.

Each malformed request below runs ``cli.main`` in-process and is compared with
the exit code and stderr recorded in ``cli_refusals.json``; stdout must stay
empty.  The requests cover malformed matrices for ``rsk``, ``render`` and
``enumerate --growths``, malformed triangular arrays for ``littlewood-encode``
and ``render --array``, malformed or mismatched borders (``--border-s``,
``--border-t``, ``--border``), ``unrsk`` tableaux, ``littlewood-decode``
tableaux, partitions with a zero part in every field that reads one, and
requests with two faults, where the recording pins which one is reported.  A
change that alters a refusal fails here; the recording is only ever replaced
on purpose, together with the change that explains it.
"""

import json
from pathlib import Path

import pytest

from growthdiagrams import cli

RECORDING = Path(__file__).resolve().parent / "cli_refusals.json"

_H = "horizontal"
_V = "vertical"

#: Input files by name, written as given (strings verbatim, anything else as
#: JSON); ``{name}`` in an argv stands for the file's path.
FILES = {
    # well-formed inputs that the malformed ones are paired with
    "A": [[1], [0]],
    "D": [[1, 0], [0, 1]],
    "T1": {"n": 1, "rows": [[0]]},
    "T0": {"n": 0, "rows": []},
    "H1": {"chain": [[], [1]]},
    "V1": {"chain": [[], [1]], "steps": _V},
    # matrices
    "M_bad_json": "[[1, 2",
    "M_scalar": 5,
    "M_empty": [],
    "M_rows_not_arrays": [1, 2],
    "M_mixed_rows": [[1], 2],
    "M_ragged": [[1], [2, 3]],
    "M_ragged_late": [[1, 0], [0, 1], [1]],
    "M_empty_then_full": [[], [1]],
    "M_negative": [[1, -2]],
    "M_bool": [[1, True], [0, 1]],
    "M_float": [[1.5]],
    "M_string": [["1"]],
    "M_null": [[None]],
    "M_two": [[0, 2], [1, 0]],
    "M_two_then_ragged": [[2], [0, 0]],
    "M_two_then_negative": [[0, 2], [-1, 0]],
    "M_two_then_bool": [[2, True]],
    "M_ragged_then_two": [[0], [2, 0]],
    # triangular arrays
    "T_bad_json": '{"rows": ',
    "T_list": [1],
    "T_no_rows": {"n": 1},
    "T_rows_scalar": {"rows": 5},
    "T_rows_not_arrays": {"rows": [1]},
    "T_n_mismatch": {"n": 3, "rows": [[0, 0], [0]]},
    "T_n_missing_rows": {"n": 1, "rows": []},
    "T_n_bool": {"n": True, "rows": [[0]]},
    "T_n_string": {"n": "1", "rows": [[0]]},
    "T_n_float": {"n": 1.0, "rows": [[0]]},
    "T_short_row": {"rows": [[0], [0]]},
    "T_long_row": {"rows": [[0, 0, 0], [0]]},
    "T_negative": {"rows": [[0, -1], [0]]},
    "T_bool": {"rows": [[False]]},
    "T_float": {"rows": [[1.5, 0], [0]]},
    "T_string": {"rows": [["2"]]},
    "T_negative_and_short": {"rows": [[-1], [0]]},
    "T_short_then_negative": {"rows": [[0], [-1]]},
    "T_n_mismatch_and_negative": {"n": 2, "rows": [[-1]]},
    "T_odd_diagonal": {"rows": [[1]]},
    "T_dual_two": {"rows": [[0, 2], [0]]},
    # tableaux
    "B_bad_json": '{"chain": [[]',
    "B_list": [1],
    "B_no_chain": {"steps": _H},
    "B_steps": {"chain": [[1]], "steps": "diagonal"},
    "B_empty_chain": {"chain": []},
    "B_chain_scalar": {"chain": 5},
    "B_not_partition": {"chain": [[], [1, 2]]},
    "B_bool_part": {"chain": [[True]]},
    "B_not_a_strip": {"chain": [[], [1, 1]]},
    "B_not_a_vertical_strip": {"chain": [[], [2]], "steps": _V},
    "B_decreasing": {"chain": [[2], [1]]},
    "H0": {"chain": [[]]},
    "H2": {"chain": [[], [1], [1]]},
    "V2": {"chain": [[], [1], [1]], "steps": _V},
    "H_inner": {"chain": [[1], [2]]},
    "H0_off_family": {"chain": [[1]]},
    "V0_off_family": {"chain": [[1]], "steps": _V},
    "P_vertical": {"chain": [[], [1]], "steps": _V},
    "Q_two": {"chain": [[], [2]]},
    "P_one_one": {"chain": [[], [1], [1, 1]]},
    "B_zero_part": {"chain": [[], [1, 0]]},
}

_MATRIX_FAULTS = ("M_bad_json", "M_scalar", "M_empty", "M_rows_not_arrays", "M_mixed_rows",
                  "M_ragged", "M_ragged_late", "M_empty_then_full", "M_negative", "M_bool",
                  "M_float", "M_string", "M_null")
_DUAL_FAULTS = ("M_two", "M_two_then_ragged", "M_two_then_negative", "M_two_then_bool",
                "M_ragged_then_two")
_ARRAY_FAULTS = ("T_bad_json", "T_list", "T_no_rows", "T_rows_scalar", "T_rows_not_arrays",
                 "T_n_mismatch", "T_n_missing_rows", "T_n_bool", "T_n_string", "T_n_float",
                 "T_short_row", "T_long_row", "T_negative", "T_bool", "T_float", "T_string",
                 "T_negative_and_short", "T_short_then_negative", "T_n_mismatch_and_negative")
_CHAIN_FAULTS = ("B_bad_json", "B_list", "B_no_chain", "B_steps", "B_empty_chain",
                 "B_chain_scalar", "B_not_partition", "B_bool_part", "B_not_a_strip",
                 "B_decreasing")


def _rsk(matrix, *extra, rule="row"):
    return ["rsk", "--rule", rule, "--matrix", "{%s}" % matrix, *extra]


def _encode(array, *extra, variant="all"):
    return ["littlewood-encode", "--variant", variant, "--array", "{%s}" % array, *extra]


def _unrsk(p, q, rule="row"):
    return ["unrsk", "--rule", rule, "--p", "{%s}" % p, "--q", "{%s}" % q]


def _decode(tableau, variant="all"):
    return ["littlewood-decode", "--variant", variant, "--tableau", "{%s}" % tableau]


REQUESTS = [
    # matrices, under every command that reads one
    *(_rsk(m) for m in _MATRIX_FAULTS),
    *(["render", "--matrix", "{%s}" % m] for m in ("M_empty", "M_ragged", "M_negative",
                                                    "M_bool")),
    *(["enumerate", "--growths", "{%s}" % m] for m in ("M_scalar", "M_ragged", "M_float")),
    # a 2 under a dual rule, alone and before or after a second fault
    *(_rsk(m, rule=rule) for m in _DUAL_FAULTS for rule in ("dual-row", "dual-col")),
    ["render", "--rule", "dual-col", "--matrix", "{M_two}"],
    ["render", "--rule", "dual-row", "--matrix", "{M_two_then_ragged}"],
    ["enumerate", "--growths", "{M_two}", "--dual"],
    ["enumerate", "--growths", "{M_two_then_negative}", "--dual"],
    # triangular arrays
    *(_encode(t) for t in _ARRAY_FAULTS),
    *(["render", "--array", "{%s}" % t] for t in ("T_list", "T_n_mismatch", "T_short_row",
                                                  "T_bool")),
    _encode("T_odd_diagonal", variant="even-rows"),
    _encode("T_dual_two", variant="asym+1"),
    ["render", "--variant", "asym-1", "--array", "{T_dual_two}"],
    # borders of rsk
    *(_rsk("A", "--border-s", "{%s}" % b) for b in _CHAIN_FAULTS),
    *(_rsk("A", "--border-t", "{%s}" % b) for b in ("B_bad_json", "B_steps", "B_not_a_strip")),
    _rsk("A", "--border-s", "{V2}"),
    _rsk("A", "--border-s", "{H1}"),
    _rsk("A", "--border-t", "{V1}"),
    _rsk("D", "--border-t", "{H2}", rule="dual-row"),
    _rsk("A", "--border-t", "{H2}"),
    _rsk("A", "--border-t", "{H_inner}"),
    _rsk("D", "--border-t", "{B_not_a_vertical_strip}", rule="dual-col"),
    # a malformed matrix together with a malformed or mismatched border
    _rsk("M_negative", "--border-s", "{B_bad_json}"),
    _rsk("M_ragged", "--border-s", "{B_list}"),
    _rsk("M_bool", "--border-t", "{B_not_a_strip}"),
    _rsk("M_scalar", "--border-s", "{B_bad_json}"),
    _rsk("M_negative", "--border-s", "{V2}"),
    _rsk("M_two", "--border-t", "{H2}", rule="dual-row"),
    # borders of the Littlewood maps
    *(_encode("T1", "--border", "{%s}" % b) for b in ("B_bad_json", "B_list", "B_steps",
                                                      "B_not_a_strip", "H0", "H2")),
    _encode("T1", "--border", "{H1}", variant="asym+1"),
    _encode("T0", "--border", "{H0_off_family}", variant="even-rows"),
    _encode("T0", "--border", "{V0_off_family}", variant="asym-1"),
    _encode("T_negative", "--border", "{B_bad_json}"),
    # unrsk tableaux
    *(_unrsk(b, "H1") for b in _CHAIN_FAULTS),
    _unrsk("H1", "B_not_a_strip"),
    _unrsk("P_vertical", "H1"),
    _unrsk("H1", "V1"),
    _unrsk("H1", "H1", rule="dual-col"),
    _unrsk("P_vertical", "V1", rule="dual-row"),
    _unrsk("P_vertical", "Q_two"),
    _unrsk("H1", "Q_two"),
    _unrsk("P_one_one", "Q_two"),
    _unrsk("H1", "B_not_a_vertical_strip", rule="dual-row"),
    # littlewood-decode tableaux
    *(_decode(b) for b in ("B_bad_json", "B_list", "B_steps", "B_empty_chain", "B_not_a_strip")),
    _decode("P_vertical"),
    _decode("H1", variant="even-rows"),
    _decode("P_one_one", variant="asym-1"),
    _decode("H1", variant="asym+1"),
    _decode("P_vertical", variant="even-rows"),
    # a zero part, in every field that reads a partition
    ["verify", "--identity", "pieri", "--n", "2", "--k", "1", "--shape", "[1,0]"],
    ["verify", "--identity", "skew-cauchy", "--n", "2", "--shape", "[1]", "--rho", "[0]"],
    _rsk("A", "--border-s", "{B_zero_part}"),
    _rsk("A", "--border-t", "{B_zero_part}"),
    _unrsk("B_zero_part", "H1"),
    _unrsk("H1", "B_zero_part"),
    _encode("T1", "--border", "{B_zero_part}"),
    _decode("B_zero_part"),
    # a border of the wrong length beside one of the wrong strip kind: S is checked first
    _rsk("A", "--border-s", "{H1}", "--border-t", "{H2}", rule="dual-row"),
]


def _key(argv):
    return " ".join(argv)


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("refusals")
    out = {}
    for name, data in FILES.items():
        path = root / f"{name}.json"
        path.write_text(data if isinstance(data, str) else json.dumps(data), encoding="utf-8")
        out["{%s}" % name] = str(path)
    return out


def run(argv, paths, capsys):
    code = cli.main([paths.get(arg, arg) for arg in argv])
    captured = capsys.readouterr()
    assert captured.out == ""
    return {"code": code, "stderr": captured.err}


def test_recording_covers_every_request():
    recording = json.loads(RECORDING.read_text(encoding="utf-8"))
    assert list(recording) == [_key(argv) for argv in REQUESTS]
    assert all(entry["code"] == 1 for entry in recording.values())


@pytest.mark.parametrize("argv", REQUESTS,
                         ids=[f"{i:03d}-{a[0]}" for i, a in enumerate(REQUESTS)])
def test_cli_refusal_is_unchanged(argv, paths, capsys):
    recording = json.loads(RECORDING.read_text(encoding="utf-8"))
    assert run(argv, paths, capsys) == recording[_key(argv)]
