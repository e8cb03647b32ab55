"""Per-layer tracer that wraps the package's public functions from outside.

The layers are the package modules.  ``TABLE`` names each traced attribute,
the statistic it feeds and whether each call is also recorded as a span.
``Tracer.install`` replaces the attribute in every package module namespace
that binds the same function object (so ``growth.apply_rule``,
``triangular.apply_rule`` and ``projections.apply_rule`` are all caught) and
patches ``Class.method`` entries on the class.  ``Tracer.uninstall`` puts every
original back.  A name the package no longer has is listed in ``absent``
instead of raising, so a refactor cannot break the benchmark.

Every wrapped call adds to a count and to a self time: its wall time minus
the time of the wrapped calls nested inside it.  Span entries (operations,
growth/triangular builds and inverses, series, jsonio and cli calls) are also
kept in memory as (name, start, end, parent, op) and written out at the end.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from time import perf_counter

PACKAGE = "growthdiagrams"

_PARTITION_PRIMITIVES = (
    "partition", "part", "size", "contains", "conjugate", "conj_part", "durfee",
    "frobenius", "from_frobenius", "meet", "join", "meet_join", "odd_part_count",
    "member", "enumerate_partitions", "partitions_of_size", "horizontal_strips_over",
    "vertical_strips_over", "horizontal_strips_under", "vertical_strips_under",
    "sub_partitions",
)
_INTERLACING_OTHER = (
    "profile", "up_set", "down_set", "up_sets_through", "down_sets_through", "multiset_size",
)
_JSON_PARSE = (
    "loads", "partition_from_json", "matrix_from_json", "tableau_from_json", "triarray_from_json",
)
_JSON_DUMP = (
    "dumps", "tableau_to_json", "triarray_to_json", "trigrid_to_json", "grid_to_json",
)

#: (module, attribute, statistic, recorded as a span)
TABLE = (
    ("partitions", "is_horizontal_strip", "partitions.strip", False),
    ("partitions", "is_vertical_strip", "partitions.strip", False),
    *(("partitions", name, "partitions.other", False) for name in _PARTITION_PRIMITIVES),
    ("interlacing", "encode", "interlacing.encode", False),
    ("interlacing", "decode", "interlacing.decode", False),
    *(("interlacing", name, "interlacing.other", False) for name in _INTERLACING_OTHER),
    ("rules", "apply_rule", "rules.apply", False),
    ("rules", "unapply_rule", "rules.unapply", False),
    ("projections", "proj_apply", "projections.apply", False),
    ("projections", "proj_unapply", "projections.unapply", False),
    ("tableaux", "TableauChain.__post_init__", "tableaux.chain", False),
    ("growth", "build_growth", "growth.build", True),
    ("growth", "rsk_inverse", "growth.inverse", True),
    ("triangular", "build_triangular", "triangular.build", True),
    ("triangular", "littlewood_inverse", "triangular.inverse", True),
    ("series", "verify_identity", "series.verify", True),
    ("series", "schur", "series.schur", True),
    ("series", "product_side", "series.product_side", True),
    ("series", "TruncatedPolynomial.__mul__", "series.poly_mul", False),
    *(("jsonio", name, "jsonio.parse", True) for name in _JSON_PARSE),
    *(("jsonio", name, "jsonio.dump", True) for name in _JSON_DUMP),
    ("cli", "main", "cli.main", True),
)

#: lru caches whose hit ratio is reported, read through ``cache_info()``
CACHES = (
    ("interlacing", "_removable_rows"),
    ("interlacing", "_dual_removable_rows"),
    ("interlacing", "_dual_addable_rows"),
)

#: per-layer metrics: name -> unit.  Counts and times are per traced operation.
LAYER_METRICS = {
    "partitions.strip_tests": "1/op",
    "partitions.strip_self_s": "s/op",
    "partitions.calls": "1/op",
    "partitions.self_s": "s/op",
    "interlacing.encode_calls": "1/op",
    "interlacing.decode_calls": "1/op",
    "interlacing.self_s": "s/op",
    "interlacing.cache_hit_ratio": "ratio",
    "interlacing.cache_lookups": "1/op",
    "rules.apply_calls": "1/op",
    "rules.apply_self_s": "s/op",
    "rules.unapply_calls": "1/op",
    "rules.unapply_self_s": "s/op",
    "rules.domain_errors": "1/op",
    "projections.apply_calls": "1/op",
    "projections.apply_self_s": "s/op",
    "projections.unapply_calls": "1/op",
    "projections.unapply_self_s": "s/op",
    "tableaux.chains_built": "1/op",
    "tableaux.self_s": "s/op",
    "growth.build_self_s": "s/op",
    "growth.inverse_self_s": "s/op",
    "triangular.build_self_s": "s/op",
    "triangular.inverse_self_s": "s/op",
    "series.schur_calls": "1/op",
    "series.schur_self_s": "s/op",
    "series.product_side_self_s": "s/op",
    "series.poly_mul_calls": "1/op",
    "series.poly_mul_self_s": "s/op",
    "series.checked_terms": "1/op",
    "jsonio.parse_self_s": "s/op",
    "jsonio.dump_self_s": "s/op",
    "cli.self_s": "s/op",
    "trace.overhead_ratio": "ratio",
}


class Tracer:
    """Counts, self times and spans for the calls named in ``TABLE``."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # statistic -> [calls, self seconds, exceptions]
        self.spans: list = []  # (name, start, end, parent span, op id)
        self.checked_terms = 0
        self.absent: list[str] = []
        self._stack: list[list[float]] = [[0.0]]  # child seconds of each open call
        self._open_spans: list[int] = []
        self._op: list = [None]
        self._patched: list = []  # (owner, attribute, original)
        self._cache_start = self._cache_end = (0, 0)

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        homes = {}
        for module in {entry[0] for entry in TABLE}:
            try:
                homes[module] = importlib.import_module(f"{PACKAGE}.{module}")
            except ImportError:
                homes[module] = None
        importlib.import_module(PACKAGE)
        namespaces = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for module, attr, stat, span in TABLE:
            home = homes[module]
            owner_name, _, name = attr.rpartition(".")
            owner = getattr(home, owner_name, None) if owner_name else home
            original = vars(owner).get(name) if owner is not None else None
            if not callable(original):
                self.absent.append(f"{module}.{attr}")
                continue
            wrapper = self._wrap(original, stat, span)
            if owner_name:
                self._patch(owner, name, original, wrapper)
                continue
            for namespace in namespaces:
                if vars(namespace).get(name) is original:
                    self._patch(namespace, name, original, wrapper)
        self._cache_start = self.cache_counts()

    def _patch(self, owner, name, original, wrapper) -> None:
        setattr(owner, name, wrapper)
        self._patched.append((owner, name, original))

    def uninstall(self) -> None:
        self._cache_end = self.cache_counts()
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)

    def unrestored(self) -> list[str]:
        """Patched attributes that do not hold their original any more."""
        return [
            f"{getattr(owner, '__name__', owner)}.{name}"
            for owner, name, original in self._patched
            if vars(owner).get(name) is not original
        ]

    @property
    def patched_count(self) -> int:
        return len(self._patched)

    # -- timing -------------------------------------------------------------

    def _wrap(self, original, stat_name: str, span: bool):
        stat = self.stats.setdefault(stat_name, [0, 0.0, 0])
        stack, spans, open_spans, op = self._stack, self.spans, self._open_spans, self._op
        record_terms = stat_name == "series.verify"
        tracer = self

        if inspect.isgeneratorfunction(original):
            def generator(*args, **kwargs):
                stat[0] += 1
                it = original(*args, **kwargs)
                while True:
                    frame = [0.0]
                    stack.append(frame)
                    t0 = perf_counter()
                    try:
                        value = next(it)
                    except StopIteration:
                        return
                    finally:
                        elapsed = perf_counter() - t0
                        stack.pop()
                        stat[1] += elapsed - frame[0]
                        stack[-1][0] += elapsed
                    yield value

            return generator

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            if span:
                sid = len(spans)
                spans.append(None)
                parent = open_spans[-1] if open_spans else None
                open_spans.append(sid)
            t0 = perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                stat[2] += 1
                raise
            finally:
                t1 = perf_counter()
                elapsed = t1 - t0
                stack.pop()
                stat[0] += 1
                stat[1] += elapsed - frame[0]
                stack[-1][0] += elapsed
                if span:
                    open_spans.pop()
                    spans[sid] = (stat_name, t0, t1, parent, op[0])
            if record_terms:
                tracer.checked_terms += getattr(result, "checked_terms", 0)
            return result

        return wrapper

    def begin_op(self, op_id: int) -> None:
        self._op[0] = op_id
        self._stack.append([0.0])
        self._open_spans.append(len(self.spans))
        self.spans.append(None)
        self._op_start = perf_counter()

    def end_op(self) -> None:
        t1 = perf_counter()
        self._stack.pop()
        sid = self._open_spans.pop()
        self.spans[sid] = ("op", self._op_start, t1, None, self._op[0])
        self._op[0] = None

    # -- results ------------------------------------------------------------

    def cache_counts(self) -> tuple[int, int]:
        hits = misses = 0
        for module, name in CACHES:
            try:
                info = getattr(importlib.import_module(f"{PACKAGE}.{module}"), name).cache_info()
            except (ImportError, AttributeError):
                continue
            hits += info.hits
            misses += info.misses
        return hits, misses

    def layer_metrics(self, ops: int, overhead_ratio: float) -> dict[str, float]:
        def total(index, *names):
            return sum(self.stats.get(n, (0, 0.0, 0))[index] for n in names)

        def layer(index, prefix):
            return sum(v[index] for k, v in self.stats.items() if k.startswith(prefix))

        hits = self._cache_end[0] - self._cache_start[0]
        lookups = hits + self._cache_end[1] - self._cache_start[1]
        values = {
            "partitions.strip_tests": total(0, "partitions.strip"),
            "partitions.strip_self_s": total(1, "partitions.strip"),
            "partitions.calls": layer(0, "partitions."),
            "partitions.self_s": layer(1, "partitions."),
            "interlacing.encode_calls": total(0, "interlacing.encode"),
            "interlacing.decode_calls": total(0, "interlacing.decode"),
            "interlacing.self_s": layer(1, "interlacing."),
            "interlacing.cache_lookups": lookups,
            "rules.apply_calls": total(0, "rules.apply"),
            "rules.apply_self_s": total(1, "rules.apply"),
            "rules.unapply_calls": total(0, "rules.unapply"),
            "rules.unapply_self_s": total(1, "rules.unapply"),
            "rules.domain_errors": total(2, "rules.apply", "rules.unapply"),
            "projections.apply_calls": total(0, "projections.apply"),
            "projections.apply_self_s": total(1, "projections.apply"),
            "projections.unapply_calls": total(0, "projections.unapply"),
            "projections.unapply_self_s": total(1, "projections.unapply"),
            "tableaux.chains_built": total(0, "tableaux.chain"),
            "tableaux.self_s": layer(1, "tableaux."),
            "growth.build_self_s": total(1, "growth.build"),
            "growth.inverse_self_s": total(1, "growth.inverse"),
            "triangular.build_self_s": total(1, "triangular.build"),
            "triangular.inverse_self_s": total(1, "triangular.inverse"),
            "series.schur_calls": total(0, "series.schur"),
            "series.schur_self_s": total(1, "series.schur"),
            "series.product_side_self_s": total(1, "series.product_side"),
            "series.poly_mul_calls": total(0, "series.poly_mul"),
            "series.poly_mul_self_s": total(1, "series.poly_mul"),
            "series.checked_terms": self.checked_terms,
            "jsonio.parse_self_s": total(1, "jsonio.parse"),
            "jsonio.dump_self_s": total(1, "jsonio.dump"),
            "cli.self_s": total(1, "cli.main"),
        }
        out = {name: value / ops for name, value in values.items()}
        out["interlacing.cache_hit_ratio"] = hits / lookups if lookups else 0.0
        out["trace.overhead_ratio"] = overhead_ratio
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, span in enumerate(self.spans):
                if span is None:
                    continue
                name, start, end, parent, op = span
                fh.write(json.dumps(
                    {"id": sid, "name": name, "start": start, "end": end, "parent": parent, "op": op}
                ) + "\n")
