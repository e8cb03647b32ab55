"""JSON codecs for the wire formats.

Partitions are arrays of positive integers ([] is empty, and a zero part is
refused); matrices are arrays of arrays; tableaux are {"chain": [[...], ...],
"steps": "horizontal"}; the other shapes are documented on their codec.  Dumps
are deterministic: sorted keys, fixed separators.
"""

from __future__ import annotations

import json
from typing import Any

from .growth import GrowthGrid
from .partitions import Partition, partition
from .tableaux import StepKind, TableauChain
from .triangular import TriangularArray, TriGrid


class FormatError(ValueError):
    """Malformed JSON input; the message names the offending field."""


def dumps(data: Any) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"


def loads(text: str, what: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{what}: invalid JSON ({exc.msg} at char {exc.pos})") from exc


def partition_from_json(data: Any, field: str = "partition") -> Partition:
    if not isinstance(data, list):
        raise FormatError(f"{field}: expected an array of integers")
    try:
        p = partition(data)
    except ValueError as exc:
        raise FormatError(f"{field}: {exc}") from exc
    if len(p) != len(data):  # partition drops trailing zeros
        raise FormatError(f"{field}: zero part in {tuple(data)!r}")
    return p


def matrix_from_json(data: Any, field: str = "matrix") -> list[list[int]]:
    if not isinstance(data, list) or not data or not all(isinstance(r, list) for r in data):
        raise FormatError(f"{field}: expected a non-empty array of arrays")
    return data  # its rows and entries are checked by growth.matrix_dims


def tableau_to_json(t: TableauChain) -> dict:
    return {"chain": [list(p) for p in t.chain], "steps": t.steps.value}


def tableau_from_json(data: Any, field: str = "tableau") -> TableauChain:
    if not isinstance(data, dict) or "chain" not in data:
        raise FormatError(f'{field}: expected {{"chain": [...], "steps": ...}}')
    steps_raw = data.get("steps", "horizontal")
    try:
        steps = StepKind(steps_raw)
    except ValueError as exc:
        raise FormatError(f"{field}.steps: unknown step kind {steps_raw!r}") from exc
    if not isinstance(data["chain"], list) or not data["chain"]:
        raise FormatError(f"{field}.chain: expected a non-empty array of partitions")
    chain = tuple(
        partition_from_json(p, f"{field}.chain[{i}]") for i, p in enumerate(data["chain"])
    )
    try:
        return TableauChain(chain, steps)
    except ValueError as exc:
        raise FormatError(f"{field}: {exc}") from exc


def grid_to_json(grid: GrowthGrid) -> dict:
    return {
        "vertices": [[list(p) for p in row] for row in grid.vertices],
        "matrix": [list(r) for r in grid.matrix],
        "dual": grid.dual,
    }


def triarray_to_json(arr: TriangularArray, variant: str | None = None) -> dict:
    out: dict = {"n": arr.n, "rows": [list(r) for r in arr.rows]}
    if variant is not None:
        out["variant"] = variant
    return out


def triarray_from_json(data: Any, field: str = "array") -> TriangularArray:
    if not isinstance(data, dict) or "rows" not in data:
        raise FormatError(f'{field}: expected {{"n": ..., "rows": [...]}}')
    rows = data["rows"]
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise FormatError(f"{field}.rows: expected an array of arrays")
    try:
        return TriangularArray(data.get("n", len(rows)), tuple(map(tuple, rows)))
    except ValueError as exc:
        raise FormatError(f"{field}.{exc}") from exc


def trigrid_to_json(grid: TriGrid) -> dict:
    return {
        "vertices": [[list(p) for p in row] for row in grid.rows],
        "array": triarray_to_json(grid.array, grid.variant.family.value),
    }
