import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from growthdiagrams import cli, growth, series
from growthdiagrams.jsonio import (
    FormatError,
    dumps,
    partition_from_json,
    tableau_from_json,
    tableau_to_json,
    triarray_from_json,
)
from growthdiagrams import (
    Family,
    Rule,
    TableauChain,
    build_growth,
    build_triangular,
    littlewood_variant,
    triangular_array,
)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def demo_matrix(tmp_path):
    path = tmp_path / "A.json"
    path.write_text("[[0,2,1],[1,1,0],[2,0,0]]")
    return str(path)


def test_json_codecs_roundtrip():
    assert partition_from_json([6, 5, 3, 3, 1]) == (6, 5, 3, 3, 1)
    assert partition_from_json([]) == ()
    with pytest.raises(FormatError):
        partition_from_json([1, 2])
    with pytest.raises(FormatError):
        partition_from_json("nope")
    t = TableauChain(((1,), (2, 1)))
    assert tableau_from_json(tableau_to_json(t)) == t
    with pytest.raises(FormatError):
        tableau_from_json({"chain": [[2], [1]]})
    with pytest.raises(ValueError, match=r"^matrix\[1\]: expected 1 entries, got 2$"):
        growth.matrix_dims([[1], [2, 3]])
    with pytest.raises(FormatError):
        triarray_from_json({"rows": [[0, 1], [0], [0]]})


def test_json_booleans_are_not_integers(capsys, tmp_path):
    for bad in ([1, True], [False]):
        with pytest.raises(FormatError, match="partition"):
            partition_from_json(bad)
    with pytest.raises(ValueError, match=r"^matrix\[0\]\[1\]: expected a non-negative integer$"):
        growth.matrix_dims([[1, True], [0, 1]])
    with pytest.raises(FormatError, match=r"array.rows\[0\]\[0\]"):
        triarray_from_json({"rows": [[False]]})
    with pytest.raises(FormatError, match="array.n"):
        triarray_from_json({"n": True, "rows": [[0]]})
    with pytest.raises(ValueError, match=r"^matrix\[0\]\[1\]: expected a non-negative integer$"):
        build_growth(Rule.ROW, [[1, True], [0, 1]])
    path = tmp_path / "A.json"
    path.write_text("[[1,true],[0,1]]")
    code, out, err = run_cli(capsys, "rsk", "--matrix", str(path))
    assert code == 1 and out == "" and "matrix[0][1]" in err


def test_rsk_cli_roundtrip(capsys, tmp_path, demo_matrix):
    code, out, _ = run_cli(capsys, "rsk", "--rule", "row", "--matrix", demo_matrix)
    assert code == 0
    data = json.loads(out)
    assert data["P"]["chain"] == [[], [3], [3, 2], [3, 3, 1]]
    assert data["Q"]["chain"] == [[], [3], [3, 3], [3, 3, 1]]
    p_path, q_path = tmp_path / "p.json", tmp_path / "q.json"
    p_path.write_text(json.dumps(data["P"]))
    q_path.write_text(json.dumps(data["Q"]))
    code, out, _ = run_cli(capsys, "unrsk", "--rule", "row", "--p", str(p_path), "--q", str(q_path))
    assert code == 0
    assert json.loads(out)["matrix"] == [[0, 2, 1], [1, 1, 0], [2, 0, 0]]


def test_cli_byte_identical(capsys, demo_matrix):
    _, out1, _ = run_cli(capsys, "rsk", "--matrix", demo_matrix)
    _, out2, _ = run_cli(capsys, "rsk", "--matrix", demo_matrix)
    assert out1 == out2


def test_cli_malformed_json(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("[[1, 2")
    code, out, err = run_cli(capsys, "rsk", "--matrix", str(bad))
    assert code == 1
    assert "matrix" in err
    bad.write_text("[[1, -2]]")
    code, _, err = run_cli(capsys, "rsk", "--matrix", str(bad))
    assert code == 1 and "matrix[0][1]" in err


def test_verify_cli(capsys):
    code, out, _ = run_cli(capsys, "verify", "--identity", "squarefree", "--n", "6")
    assert code == 0
    data = json.loads(out)
    assert data["equal"] and data["lhs"] == data["rhs"] == 720
    code, out, _ = run_cli(
        capsys, "verify", "--identity", "littlewood", "--variant", "even-rows",
        "--n", "2", "--degree", "6",
    )
    assert code == 0 and json.loads(out)["equal"]
    code, out, _ = run_cli(
        capsys, "verify", "--identity", "insertion-agreement", "--n", "3", "--seed", "1",
    )
    assert code == 0 and json.loads(out)["equal"]


def test_verify_defaults_degree_and_seed(capsys):
    code, out, _ = run_cli(capsys, "verify", "--identity", "cauchy", "--n", "1")
    assert code == 0 and json.loads(out)["params"]["degree"] == 6
    code, out, _ = run_cli(capsys, "verify", "--identity", "insertion-agreement", "--n", "2")
    assert code == 0 and json.loads(out)["params"]["seed"] == 0


def test_verify_identities_listed_once():
    assert cli.VERIFY_IDENTITIES == (
        "cauchy",
        "dual-cauchy",
        "skew-cauchy",
        "skew-dual-cauchy",
        "littlewood",
        "skew-littlewood",
        "pieri",
        "dual-pieri",
        "squarefree",
        "insertion-agreement",
    )


@pytest.mark.parametrize(
    "argv,field",
    [
        (["--identity", "littlewood", "--variant", "all", "--n", "-1"], "n"),
        (["--identity", "cauchy", "--n", "-1"], "n"),
        (["--identity", "cauchy", "--n", "2", "--m", "-1"], "m"),
        (["--identity", "pieri", "--n", "2", "--shape", "[2,1]", "--k", "-1"], "k"),
        (["--identity", "littlewood", "--variant", "all", "--n", "2", "--degree", "-1"],
         "degree"),
        (["--identity", "insertion-agreement", "--n", "-1"], "n"),
        (["--identity", "insertion-agreement", "--n", "2", "--m", "-1"], "m"),
    ],
    ids=["littlewood-n", "cauchy-n", "m", "k", "degree", "insertion-n", "insertion-m"],
)
def test_verify_rejects_negative_inputs(capsys, argv, field):
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 1 and out == ""
    assert err == f"error: {field}: expected a non-negative integer, got -1\n"


def test_insertion_agreement_sizes(capsys):
    code, out, err = run_cli(capsys, "verify", "--identity", "insertion-agreement", "--n", "0")
    assert code == 1 and out == "" and err == "error: n: expected a positive integer, got 0\n"
    code, out, err = run_cli(
        capsys, "verify", "--identity", "insertion-agreement", "--n", "2", "--m", "0",
    )
    assert code == 1 and out == "" and err == "error: m: expected a positive integer, got 0\n"


def _patch_count_syt(monkeypatch):
    monkeypatch.setattr(series, "count_syt", lambda lam: 0)


def _patch_times(monkeypatch):
    """Add 1 to the coefficient of the product's largest key in (degree, lex) order."""
    times = series._times

    def wrong(*args, **kwargs):
        terms = times(*args, **kwargs)
        key = max(terms, key=lambda e: (sum(e), e))
        return {**terms, key: terms[key] + 1}

    monkeypatch.setattr(series, "_times", wrong)


def _patch_insert(monkeypatch):
    """The column insertion the check compares puts each value i at level n + 1 - i."""
    insert = series.insert
    monkeypatch.setattr(series, "insert", lambda rule, tab, values: insert(
        rule, tab, {tab.entries + 1 - i: c for i, c in values.items()}))


@pytest.mark.parametrize(
    "patch,argv,expected",
    [
        (_patch_count_syt, ["--identity", "squarefree", "--n", "3"],
         '{"checked_terms":1,"equal":false,"identity":"squarefree","lhs":0,"params":{"n":3},'
         '"rhs":6}'),
        (_patch_times, ["--identity", "littlewood", "--variant", "all", "--n", "2",
                        "--degree", "4"],
         '{"checked_terms":15,"equal":false,"identity":"littlewood-all","mismatch":'
         '{"exponents":[0,4],"lhs":1,"rhs":2},"params":{"degree":4,"n":2}}'),
        (_patch_times, ["--identity", "cauchy", "--n", "2", "--degree", "4"],
         '{"checked_terms":14,"equal":false,"identity":"cauchy","mismatch":'
         '{"exponents":[0,2,0,2],"lhs":1,"rhs":2},"params":{"degree":4,"m":2,"n":2}}'),
        (_patch_insert, ["--identity", "insertion-agreement", "--n", "2", "--m", "3"],
         '{"checked_terms":1,"equal":false,"identity":"insertion-agreement",'
         '"matrix":[[1,1,0],[1,2,1]],"params":{"m":3,"n":2,"seed":0}}'),
    ],
    ids=["squarefree", "littlewood-all", "cauchy", "insertion-agreement"],
)
def test_verify_failure_reports(capsys, monkeypatch, patch, argv, expected):
    """A broken side is reported with exit code 2 and the identity's details."""
    patch(monkeypatch)
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 2 and err == "" and out == expected + "\n"


def test_verify_rejects_unknown_variant(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--identity", "littlewood", "--variant", "bogus", "--n", "2",
    )
    assert code == 1 and out == "" and err == "error: variant: unknown variant 'bogus'\n"


@pytest.mark.parametrize(
    "identity,argv,flag",
    [
        ("cauchy", ["--degree", "3", "--shape", "[2,1]"], "shape"),
        ("cauchy", ["--k", "1"], "k"),
        ("cauchy", ["--variant", "all"], "variant"),
        ("littlewood", ["--variant", "all", "--m", "3"], "m"),
        ("pieri", ["--shape", "[1]", "--rho", "[1]"], "rho"),
        ("squarefree", ["--shape", "[1]"], "shape"),
        ("insertion-agreement", ["--shape", "[1]"], "shape"),
        ("insertion-agreement", ["--k", "1"], "k"),
        ("insertion-agreement", ["--variant", "all"], "variant"),
        ("squarefree", ["--degree", "9"], "degree"),
        ("insertion-agreement", ["--degree", "3"], "degree"),
        ("cauchy", ["--degree", "2", "--seed", "5"], "seed"),
        ("littlewood", ["--variant", "all", "--seed", "0"], "seed"),
        ("squarefree", ["--seed", "1"], "seed"),
    ],
    ids=["cauchy-shape", "cauchy-k", "cauchy-variant", "littlewood-m", "pieri-rho",
         "squarefree-shape", "insertion-shape", "insertion-k", "insertion-variant",
         "squarefree-degree", "insertion-degree", "cauchy-seed", "littlewood-seed",
         "squarefree-seed"],
)
def test_verify_rejects_flags_the_identity_ignores(capsys, identity, argv, flag):
    code, out, err = run_cli(capsys, "verify", "--identity", identity, "--n", "2", *argv)
    assert code == 1 and out == ""
    assert err == f"error: {flag}: identity {identity!r} takes no {flag}\n"


@pytest.mark.parametrize(
    "argv,field",
    [
        (["--partitions", "-1"], "partitions"),
        (["--partitions", "3", "--rows", "-1"], "rows"),
        (["--partitions", "3", "--cols", "-1"], "cols"),
    ],
    ids=["partitions", "rows", "cols"],
)
def test_enumerate_rejects_negative_sizes(capsys, argv, field):
    code, out, err = run_cli(capsys, "enumerate", *argv)
    assert code == 1 and out == ""
    assert err == f"error: {field}: expected a non-negative integer, got -1\n"


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--partitions", "2", "--dual"], "dual: enumerate --partitions takes no dual"),
        (["--growths", "{A}", "--rows", "1"], "rows: enumerate --growths takes no rows"),
        (["--growths", "{A}", "--cols", "1"], "cols: enumerate --growths takes no cols"),
        (["--growths", "{A}", "--partitions", "1"],
         "partitions: enumerate --growths takes no partitions"),
        (["--growths", "", "--partitions", "1"],
         "partitions: enumerate --growths takes no partitions"),
    ],
    ids=["partitions-dual", "growths-rows", "growths-cols", "growths-partitions",
         "empty-growths-partitions"],
)
def test_enumerate_rejects_the_other_modes_flags(capsys, demo_matrix, argv, message):
    argv = [demo_matrix if arg == "{A}" else arg for arg in argv]
    code, out, err = run_cli(capsys, "enumerate", *argv)
    assert code == 1 and out == "" and err == f"error: {message}\n"


def test_enumerate_cli(capsys, tmp_path):
    b = tmp_path / "B.json"
    b.write_text("[[0,1],[1,0],[1,1]]")
    code, out, _ = run_cli(capsys, "enumerate", "--growths", str(b))
    assert code == 0 and json.loads(out)["count"] == 4
    code, out, _ = run_cli(capsys, "enumerate", "--growths", str(b), "--dual")
    assert code == 0 and json.loads(out)["count"] == 2
    code, out, _ = run_cli(capsys, "enumerate", "--partitions", "2")
    assert json.loads(out)["partitions"] == [[], [1], [2], [1, 1]]


def test_enumerate_growths_huge_entry(capsys, tmp_path):
    """A 1 x 1 matrix has one growth however large its entry: the vertex's
    up set is cut to one size, not listed from every partition of it."""
    path = tmp_path / "A.json"
    path.write_text(json.dumps([[2**70]]))
    code, out, err = run_cli(capsys, "enumerate", "--growths", str(path))
    assert code == 0 and err == ""
    result = json.loads(out)
    assert result["count"] == 1
    assert result["growths"][0]["vertices"][1][1] == [2**70]


def test_enumerate_deep_requests(capsys, tmp_path):
    """Requests 1,100 rows or vertices deep print their result with exit 0;
    the recursive searches they ran before ended in a RecursionError."""
    path = tmp_path / "A.json"
    path.write_text(json.dumps([[0] * 1100]))
    code, out, err = run_cli(capsys, "enumerate", "--growths", str(path))
    assert code == 0 and err == "" and json.loads(out)["count"] == 1
    code, out, err = run_cli(capsys, "enumerate", "--partitions", "1100", "--rows", "1100",
                             "--cols", "1")
    assert code == 0 and err == ""
    assert json.loads(out)["partitions"] == [[1] * j for j in range(1101)]


def test_littlewood_cli_roundtrip(capsys, tmp_path):
    c = tmp_path / "C.json"
    c.write_text(json.dumps({"n": 3, "rows": [[0, 0, 1], [1, 0], [0]]}))
    code, out, _ = run_cli(
        capsys, "littlewood-encode", "--variant", "all", "--array", str(c), "--grid"
    )
    assert code == 0
    assert json.loads(out)["grid"]["array"]["rows"] == [[0, 0, 1], [1, 0], [0]]
    code, out, _ = run_cli(capsys, "littlewood-encode", "--variant", "all", "--array", str(c))
    assert code == 0
    p_path = tmp_path / "P.json"
    p_path.write_text(json.dumps(json.loads(out)["P"]))
    code, out, _ = run_cli(
        capsys, "littlewood-decode", "--variant", "all", "--tableau", str(p_path)
    )
    assert code == 0
    assert json.loads(out)["array"]["rows"] == [[0, 0, 1], [1, 0], [0]]


def test_render_cli(capsys, demo_matrix):
    code, out, _ = run_cli(capsys, "render", "--rule", "row", "--matrix", demo_matrix)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("∅")
    assert "3,3,1" in lines[-1]


def test_render_array_honours_rule(capsys, tmp_path):
    rows = [[2, 1, 0, 1], [2, 1, 1], [2, 1], [0]]
    path = tmp_path / "C.json"
    path.write_text(json.dumps({"n": 4, "rows": rows}))
    outs = {}
    for rule in ("row", "col", None):
        extra = ["--rule", rule] if rule else []
        code, outs[rule], _ = run_cli(
            capsys, "render", "--variant", "even-rows", *extra, "--array", str(path)
        )
        assert code == 0
    arr = triangular_array(rows)
    row_grid = build_triangular(littlewood_variant(Family.EVEN_ROWS, Rule.ROW), arr)
    col_grid = build_triangular(littlewood_variant(Family.EVEN_ROWS, Rule.COL), arr)
    assert row_grid.rows != col_grid.rows
    assert outs["row"] != outs["col"]
    assert outs[None] == outs["col"]  # the canonical rule for even rows
    labels = [line.split() for line in outs["row"].splitlines()[::2]]
    assert labels == [
        [",".join(map(str, p)) if p else "∅" for p in row] for row in row_grid.rows
    ]


def test_star_reaches_the_asym_minus_col_projection(capsys, tmp_path):
    rows = [[2, 0, 1], [0, 1], [0]]
    path = tmp_path / "C.json"
    path.write_text(json.dumps({"n": 3, "rows": rows}))
    encoded = {}
    for star in ("row", "col", None):
        extra = ["--star", star] if star else []
        code, out, err = run_cli(
            capsys, "littlewood-encode", "--variant", "asym-1", *extra, "--array", str(path)
        )
        assert code == 0 and err == ""
        encoded[star] = json.loads(out)["P"]
    assert encoded["row"]["chain"] == [[], [3], [3, 1], [3, 3]]
    assert encoded["col"]["chain"] == [[], [3], [3, 1], [4, 1, 1]]
    assert encoded[None] == encoded["row"]  # row* stays the default
    for star in ("row", "col"):
        p_path = tmp_path / f"P_{star}.json"
        p_path.write_text(json.dumps(encoded[star]))
        code, out, _ = run_cli(
            capsys, "littlewood-decode", "--variant", "asym-1", "--star", star,
            "--tableau", str(p_path),
        )
        assert code == 0 and json.loads(out)["array"]["rows"] == rows
    renders = {}
    for star in ("row", "col"):
        code, renders[star], _ = run_cli(
            capsys, "render", "--variant", "asym-1", "--star", star, "--array", str(path)
        )
        assert code == 0
    assert "4,1,1" in renders["col"] and "4,1,1" not in renders["row"]


@pytest.mark.parametrize(
    "argv,message",
    [
        (["littlewood-encode", "--variant", "asym+1", "--star", "row", "--array"],
         "star: variant 'asym+1' takes no star"),
        (["littlewood-decode", "--variant", "all", "--star", "col", "--tableau"],
         "star: variant 'all' takes no star"),
        (["render", "--variant", "asym-1", "--star", "diag", "--array"],
         "star: unknown star 'diag'"),
        (["render", "--star", "col", "--matrix"], "star: render --matrix takes no star"),
    ],
    ids=["encode-asym+1", "decode-all", "render-unknown", "render-matrix"],
)
def test_star_rejected_outside_asym_minus(capsys, demo_matrix, argv, message):
    code, out, err = run_cli(capsys, *argv, demo_matrix)
    assert code == 1 and out == "" and err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv,message",
    [
        (["littlewood-encode", "--variant", "asym+1", "--rule", "row", "--array"],
         "rule: asym+1 requires a dual rule"),
        (["littlewood-decode", "--variant", "asym-1", "--rule", "col", "--tableau"],
         "rule: asym-1 requires a dual rule"),
        (["render", "--variant", "asym+1", "--rule", "row", "--array"],
         "rule: asym+1 requires a dual rule"),
        (["littlewood-encode", "--variant", "even-rows", "--rule", "dual-row", "--array"],
         "rule: even-rows requires a non-dual rule"),
    ],
    ids=["encode-asym+1", "decode-asym-1", "render-asym+1", "encode-even-rows"],
)
def test_rule_of_the_wrong_duality_is_a_rule_error(capsys, demo_matrix, argv, message):
    code, out, err = run_cli(capsys, *argv, demo_matrix)
    assert code == 1 and out == "" and err == f"error: {message}\n"


_H1 = '{"chain": [[], [1]], "steps": "horizontal"}'
_V1 = '{"chain": [[], [1]], "steps": "vertical"}'


@pytest.mark.parametrize(
    "argv,content,message",
    [
        (["verify", "--identity", "littlewood", "--n", "2"], None,
         "identity: --variant is required for littlewood checks"),
        (["rsk", "--rule", "bogus", "--matrix", "{F}"], "[[1]]", "rule: unknown rule 'bogus'"),
        (["enumerate"], None, "enumerate: pass --growths FILE or --partitions N"),
        (["render"], None, "render: pass --matrix FILE or --array FILE"),
        (["rsk", "--matrix", "{F}"], "5", "matrix: expected a non-empty array of arrays"),
        (["unrsk", "--p", "{F}", "--q", "{F}"], "[1]",
         'P: expected {"chain": [...], "steps": ...}'),
        (["unrsk", "--p", "{F}", "--q", "{F}"], '{"chain": [[1]], "steps": "diagonal"}',
         "P.steps: unknown step kind 'diagonal'"),
        (["unrsk", "--p", "{F}", "--q", "{F}"], '{"chain": []}',
         "P.chain: expected a non-empty array of partitions"),
        (["littlewood-encode", "--variant", "all", "--array", "{F}"], "[1]",
         'array: expected {"n": ..., "rows": [...]}'),
        (["littlewood-encode", "--variant", "all", "--array", "{F}"], '{"rows": 5}',
         "array.rows: expected an array of arrays"),
        (["littlewood-encode", "--variant", "all", "--array", "{F}"],
         '{"n": 3, "rows": [[0, 0], [0]]}', "array.n: 3 does not match 2 rows"),
        (["rsk", "--rule", "dual-row", "--matrix", "{F}"], "[[1, 2]]",
         "matrix[0][1]: expected 0 or 1 for a dual rule"),
        (["unrsk", "--p", "{F}", "--q", "{F}"], _V1, "P: expected a horizontal-strip chain"),
        (["unrsk", "--p", "{F}", "--q", "{G}"], {"F": _H1, "G": _V1},
         "Q: expected a horizontal-strip chain"),
        (["unrsk", "--rule", "dual-row", "--p", "{F}", "--q", "{F}"], _H1,
         "Q: expected a vertical-strip chain"),
        (["unrsk", "--p", "{F}", "--q", "{G}"], {"F": _H1, "G": '{"chain": [[], [2]]}'},
         "Q: expected final shape (1,), got (2,)"),
        (["littlewood-decode", "--variant", "all", "--tableau", "{F}"], _V1,
         "tableau: expected a horizontal-strip chain"),
        (["littlewood-decode", "--variant", "even-rows", "--tableau", "{F}"], _H1,
         "tableau: shape (1,) is not in family even-rows"),
    ],
    ids=["verify-no-variant", "rsk-unknown-rule", "enumerate-bare", "render-bare",
         "matrix-not-array", "P-not-object", "P-steps", "P-empty-chain", "array-not-object",
         "array-rows", "array-n", "matrix-dual-entry", "P-vertical", "Q-vertical",
         "Q-horizontal-dual", "Q-final-shape", "tableau-vertical", "tableau-family"],
)
def test_refusals_name_their_field(capsys, tmp_path, argv, content, message):
    """``content`` is the text of the input file F, or a dict of texts by file name."""
    files = content if isinstance(content, dict) else {"F": content}
    for name, text in files.items():
        if text is not None:
            (tmp_path / name).write_text(text)
    code, out, err = run_cli(capsys, *(arg.format(**{k: tmp_path / k for k in files})
                                       for arg in argv))
    assert code == 1 and out == "" and err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv,border,message",
    [
        (["rsk", "--matrix", "{A}", "--border-s", "{B}"], '{"chain": [[], [1], [1]], '
         '"steps": "vertical"}', "border-s: expected a horizontal-strip chain"),
        (["rsk", "--matrix", "{A}", "--border-t", "{B}"],
         '{"chain": [[], [1]], "steps": "vertical"}',
         "border-t: expected a horizontal-strip chain"),
        (["rsk", "--rule", "dual-row", "--matrix", "{A}", "--border-t", "{B}"], _H1,
         "border-t: expected a vertical-strip chain"),
        (["rsk", "--matrix", "{A}", "--border-s", "{B}"], _H1, "border-s: expected 2 steps, got 1"),
        (["rsk", "--matrix", "{A}", "--border-t", "{B}"], '{"chain": [[], [1], [2]]}',
         "border-t: expected 1 steps, got 2"),
        (["rsk", "--matrix", "{A}", "--border-t", "{B}"], '{"chain": [[1], [2]]}',
         "border-t: borders must start at the same partition"),
        (["littlewood-encode", "--variant", "asym+1", "--array", "{T}", "--border", "{B}"], _H1,
         "border: expected a vertical-strip chain"),
        (["littlewood-encode", "--variant", "all", "--array", "{T}", "--border", "{B}"],
         '{"chain": [[]]}', "border: expected 1 steps, got 0"),
    ],
    ids=["s-steps", "t-steps", "t-steps-dual", "s-length", "t-length", "t-inner",
         "triangular-steps", "triangular-length"],
)
def test_border_refusals_name_their_field(capsys, tmp_path, argv, border, message):
    files = {"A": "[[1], [0]]", "T": '{"n": 1, "rows": [[0]]}', "B": border}
    for name, content in files.items():
        (tmp_path / name).write_text(content)
    code, out, err = run_cli(capsys, *(arg.format(**{k: tmp_path / k for k in files})
                                       for arg in argv))
    assert code == 1 and out == "" and err == f"error: {message}\n"


def test_enumerate_partitions_in_a_box(capsys):
    code, out, err = run_cli(capsys, "enumerate", "--partitions", "4", "--rows", "2",
                             "--cols", "3")
    assert code == 0 and err == ""
    assert out == '{"partitions":[[],[1],[2],[1,1],[3],[2,1],[3,1],[2,2]]}\n'


@pytest.mark.parametrize("variant", ["asym-1", "all", "bogus"])
def test_render_matrix_rejects_variant(capsys, demo_matrix, variant):
    code, out, err = run_cli(capsys, "render", "--matrix", demo_matrix, "--variant", variant)
    assert code == 1 and out == "" and err == "error: variant: render --matrix takes no variant\n"


def test_render_array_variant_defaults_to_all(capsys, tmp_path):
    path = tmp_path / "C.json"
    path.write_text(json.dumps({"n": 3, "rows": [[2, 0, 1], [0, 1], [1]]}))
    code, default, _ = run_cli(capsys, "render", "--array", str(path))
    assert code == 0
    assert run_cli(capsys, "render", "--variant", "all", "--array", str(path)) == (0, default, "")


def test_python_m_runs_the_cli():
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-m", "growthdiagrams", "--help"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: growthdiagrams")


@pytest.mark.parametrize(
    "argv,message",
    [
        (["verify", "--identity", "cauchy", "--n", "abc"], "argument --n: invalid int value: 'abc'"),
        (["verify", "--identity", "bogus", "--n", "2"], "argument --identity: invalid choice: 'bogus'"),
        (["rsk"], "the following arguments are required: --matrix"),
        (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
    ],
    ids=["verify-n-abc", "verify-identity-bogus", "rsk-no-matrix", "unknown-command"],
)
def test_usage_errors_exit_1(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == "" and err.startswith(f"error: {message}")
    assert err.count("\n") == 1


def test_help_exits_0_on_every_call(capsys):
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            cli.main(["rsk", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: growthdiagrams rsk")


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_importing_the_cli_builds_no_parser():
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = "from growthdiagrams import cli; print(cli.build_parser.cache_info().currsize)"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=60)
    assert (done.returncode, done.stdout) == (0, "0\n"), done.stderr


def _fresh(capsys, argv):
    """The request's result from a parser built for it alone."""
    cli.build_parser.cache_clear()
    return run_cli(capsys, *argv)


@pytest.mark.parametrize(
    "first,second",
    [
        (["littlewood-encode", "--variant", "asym-1", "--array", "{C}", "--grid"],
         ["littlewood-encode", "--variant", "asym-1", "--array", "{C}"]),
        (["enumerate", "--growths", "{B}", "--dual"], ["enumerate", "--growths", "{B}"]),
        (["littlewood-encode", "--variant", "asym-1", "--star", "col", "--array", "{C}"],
         ["littlewood-encode", "--variant", "asym-1", "--array", "{C}"]),
    ],
    ids=["grid", "dual", "star"],
)
def test_shared_parser_carries_nothing_between_calls(capsys, tmp_path, first, second):
    b, c = tmp_path / "B.json", tmp_path / "C.json"
    b.write_text("[[0,1],[1,0],[1,1]]")
    c.write_text(json.dumps({"n": 3, "rows": [[2, 0, 1], [0, 1], [0]]}))
    files = {"B": str(b), "C": str(c)}
    first, second = ([arg.format(**files) for arg in argv] for argv in (first, second))
    expected = _fresh(capsys, second)
    assert _fresh(capsys, first)[0] == 0
    assert run_cli(capsys, *second) == expected
    assert expected[0] == 0 and expected[1] != run_cli(capsys, *first)[1]
    assert "grid" not in json.loads(expected[1])


def test_dumps_deterministic():
    assert dumps({"b": 1, "a": [2]}) == '{"a":[2],"b":1}\n'
