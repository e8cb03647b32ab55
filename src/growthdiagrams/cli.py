"""Command-line front end.

Exit codes: 0 on success and for --help, 1 on usage, domain or format errors,
2 only when a verification reports a mismatch.  All structured input is JSON,
from a file or '-' (stdin); all output is deterministic (sorted keys, stable
orders).  The parser is built once per process; ``main`` may run repeatedly.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .growth import build_growth, enumerate_growths, rsk, rsk_inverse
from .jsonio import (
    FormatError,
    dumps,
    grid_to_json,
    loads,
    matrix_from_json,
    partition_from_json,
    tableau_from_json,
    tableau_to_json,
    triarray_from_json,
    triarray_to_json,
    trigrid_to_json,
)
from .partitions import EMPTY, Family, check_non_negative, enumerate_partitions
from .projections import LITTLEWOOD, StarVariant, littlewood_variant
from .rules import Rule
from .series import IDENTITIES, verify_identity
from .triangular import build_triangular, extract_P, littlewood_inverse


def _cli_name(identity: str) -> str:
    """The library name without its family suffix, which --variant supplies."""
    family = IDENTITIES[identity].family
    return identity.removesuffix(f"-{family.value}") if family else identity


VERIFY_IDENTITIES = tuple(dict.fromkeys(map(_cli_name, IDENTITIES)))


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _parse_partition_arg(text: str, field: str):
    return partition_from_json(loads(text, field), field)


def _rule(name: str) -> Rule:
    try:
        return Rule(name)
    except ValueError:
        raise FormatError(f"rule: unknown rule {name!r}") from None


def _family(name: str) -> Family:
    try:
        return Family(name)
    except ValueError:
        raise FormatError(f"variant: unknown variant {name!r}") from None


def _variant(args: argparse.Namespace):
    base = _rule(args.rule) if args.rule else None
    family = _family("all" if args.variant is None else args.variant)  # render --array's default
    star = None
    if args.star is not None:
        if len(LITTLEWOOD[family].stars) < 2:
            raise FormatError(f"star: variant {family.value!r} takes no star")
        if args.star not in ("row", "col"):
            raise FormatError(f"star: unknown star {args.star!r}")
        star = StarVariant(f"{args.star}*")
    try:
        return littlewood_variant(family, base, star)
    except ValueError as exc:  # the star is checked above: only the rule's duality is left
        raise FormatError(f"rule: {exc}") from None


def cmd_rsk(args: argparse.Namespace) -> int:
    rule = _rule(args.rule)
    matrix = matrix_from_json(loads(_read(args.matrix), "matrix"))
    S = tableau_from_json(loads(_read(args.border_s), "border-s"), "border-s") if args.border_s else None
    T = tableau_from_json(loads(_read(args.border_t), "border-t"), "border-t") if args.border_t else None
    p, q = rsk(rule, matrix, S, T)
    sys.stdout.write(dumps({"P": tableau_to_json(p), "Q": tableau_to_json(q)}))
    return 0


def cmd_unrsk(args: argparse.Namespace) -> int:
    rule = _rule(args.rule)
    p = tableau_from_json(loads(_read(args.p), "P"), "P")
    q = tableau_from_json(loads(_read(args.q), "Q"), "Q")
    matrix, s, t = rsk_inverse(rule, p, q)
    sys.stdout.write(
        dumps(
            {
                "matrix": [list(r) for r in matrix],
                "S": tableau_to_json(s),
                "T": tableau_to_json(t),
            }
        )
    )
    return 0


def cmd_littlewood_encode(args: argparse.Namespace) -> int:
    variant = _variant(args)
    arr = triarray_from_json(loads(_read(args.array), "array"))
    border = (
        tableau_from_json(loads(_read(args.border), "border"), "border")
        if args.border
        else None
    )
    grid = build_triangular(variant, arr, border)
    out = {"P": tableau_to_json(extract_P(grid))}
    if args.grid:
        out["grid"] = trigrid_to_json(grid)
    sys.stdout.write(dumps(out))
    return 0


def cmd_littlewood_decode(args: argparse.Namespace) -> int:
    variant = _variant(args)
    p = tableau_from_json(loads(_read(args.tableau), "tableau"), "tableau")
    arr, border = littlewood_inverse(variant, p)
    sys.stdout.write(
        dumps(
            {
                "array": triarray_to_json(arr, variant.family.value),
                "border": tableau_to_json(border),
            }
        )
    )
    return 0


#: Optional verify flags and the identity parameter each one sets.
_VERIFY_FLAGS = (("shape", "lam"), ("rho", "rho"), ("k", "k"), ("m", "m"),
                 ("degree", "degree"), ("seed", "seed"))


def cmd_verify(args: argparse.Namespace) -> int:
    name = args.identity
    if name not in IDENTITIES:
        if not args.variant:
            raise FormatError("identity: --variant is required for littlewood checks")
        name = f"{name}-{_family(args.variant).value}"
    entry = IDENTITIES[name]
    for flag, param in _VERIFY_FLAGS:
        if getattr(args, flag) is not None and param not in entry.params:
            raise FormatError(f"{flag}: identity {args.identity!r} takes no {flag}")
    if args.variant is not None and entry.family is None:
        raise FormatError(f"variant: identity {args.identity!r} takes no variant")
    lam = _parse_partition_arg(args.shape, "shape") if args.shape else EMPTY
    rho = _parse_partition_arg(args.rho, "rho") if args.rho else EMPTY
    report = verify_identity(name, n=args.n, cap=args.degree, m=args.m, lam=lam, rho=rho,
                             k=args.k, seed=args.seed)
    sys.stdout.write(dumps(report.to_dict()))
    return 0 if report.equal else 2


def cmd_enumerate(args: argparse.Namespace) -> int:
    if args.growths is not None:
        for flag in ("partitions", "rows", "cols"):
            if getattr(args, flag) is not None:
                raise FormatError(f"{flag}: enumerate --growths takes no {flag}")
        matrix = matrix_from_json(loads(_read(args.growths), "matrix"))
        grids = enumerate_growths(matrix, dual=args.dual)
        sys.stdout.write(
            dumps({"count": len(grids), "growths": [grid_to_json(g) for g in grids]})
        )
        return 0
    if args.partitions is not None:
        if args.dual:
            raise FormatError("dual: enumerate --partitions takes no dual")
        check_non_negative(partitions=args.partitions, rows=args.rows, cols=args.cols)
        box = None
        if args.rows is not None or args.cols is not None:
            box = (args.rows if args.rows is not None else args.partitions,
                   args.cols if args.cols is not None else args.partitions)
        out = enumerate_partitions(args.partitions, box)
        sys.stdout.write(dumps({"partitions": [list(p) for p in out]}))
        return 0
    raise FormatError("enumerate: pass --growths FILE or --partitions N")


def _part_str(p) -> str:
    if p is None:
        return ""
    return "∅" if not p else ",".join(str(v) for v in p)


def render_grid_ascii(vertices, matrix) -> str:
    """Vertices interleaved with matrix entries; partitions are part lists
    (bottom row first), empty rendered as the empty-set sign, None as blank."""
    labels = [[_part_str(p) for p in row] for row in vertices]
    widths = [
        max(len(labels[i][j]) for i in range(len(labels)))
        for j in range(len(labels[0]))
    ]
    lines = []
    for i, row in enumerate(labels):
        lines.append("   ".join(lab.ljust(widths[j]) for j, lab in enumerate(row)).rstrip())
        if i < len(labels) - 1 and matrix is not None:
            cells = []
            for j in range(len(row) - 1):
                gap = widths[j] + 3
                cells.append(" " * (gap - 1) + str(matrix[i][j]))
            lines.append("".join(cells).rstrip())
    return "\n".join(lines) + "\n"


def cmd_render(args: argparse.Namespace) -> int:
    if args.matrix:
        if args.star is not None:
            raise FormatError("star: render --matrix takes no star")
        if args.variant is not None:
            raise FormatError("variant: render --matrix takes no variant")
        rule = _rule(args.rule or "row")
        matrix = matrix_from_json(loads(_read(args.matrix), "matrix"))
        grid = build_growth(rule, matrix)
        sys.stdout.write(render_grid_ascii(grid.vertices, grid.matrix))
        return 0
    if args.array:
        variant = _variant(args)
        arr = triarray_from_json(loads(_read(args.array), "array"))
        grid = build_triangular(variant, arr)
        padded = [[None] * i + list(row) for i, row in enumerate(grid.rows)]
        tri_matrix = [[" "] * i + list(row) for i, row in enumerate(arr.rows)]
        sys.stdout.write(render_grid_ascii(padded, tri_matrix))
        return 0
    raise FormatError("render: pass --matrix FILE or --array FILE")


class _Parser(argparse.ArgumentParser):
    """Usage errors raise FormatError, so that ``main`` returns 1 for them."""

    def error(self, message: str):
        raise FormatError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="growthdiagrams")
    sub = parser.add_subparsers(dest="command", required=True)

    p_rsk = sub.add_parser("rsk", help="matrix -> (P, Q) via a growth diagram")
    p_rsk.add_argument("--rule", default="row")
    p_rsk.add_argument("--matrix", required=True)
    p_rsk.add_argument("--border-s", dest="border_s")
    p_rsk.add_argument("--border-t", dest="border_t")
    p_rsk.set_defaults(fn=cmd_rsk)

    p_un = sub.add_parser("unrsk", help="(P, Q) -> matrix and borders")
    p_un.add_argument("--rule", default="row")
    p_un.add_argument("--p", required=True)
    p_un.add_argument("--q", required=True)
    p_un.set_defaults(fn=cmd_unrsk)

    p_enc = sub.add_parser("littlewood-encode", help="triangular array -> tableau")
    p_enc.add_argument("--variant", required=True)
    p_enc.add_argument("--rule")
    p_enc.add_argument("--array", required=True)
    p_enc.add_argument("--border")
    p_enc.add_argument("--star", help="asym-1 projection: row (default) or col")
    p_enc.add_argument("--grid", action="store_true", help="include the full diagram")
    p_enc.set_defaults(fn=cmd_littlewood_encode)

    p_dec = sub.add_parser("littlewood-decode", help="tableau -> triangular array")
    p_dec.add_argument("--variant", required=True)
    p_dec.add_argument("--rule")
    p_dec.add_argument("--tableau", required=True)
    p_dec.add_argument("--star", help="asym-1 projection: row (default) or col")
    p_dec.set_defaults(fn=cmd_littlewood_decode)

    p_ver = sub.add_parser("verify", help="check an identity by truncated expansion")
    p_ver.add_argument("--identity", required=True, choices=VERIFY_IDENTITIES)
    p_ver.add_argument("--n", type=int, required=True)
    p_ver.add_argument("--m", type=int)
    p_ver.add_argument("--degree", type=int)
    p_ver.add_argument("--variant")
    p_ver.add_argument("--shape", help="partition as JSON, e.g. [2,1]")
    p_ver.add_argument("--rho", help="partition as JSON")
    p_ver.add_argument("--k", type=int)
    p_ver.add_argument("--seed", type=int)
    p_ver.set_defaults(fn=cmd_verify)

    p_enum = sub.add_parser("enumerate", help="growths of a matrix, or partitions")
    p_enum.add_argument("--growths", help="matrix file")
    p_enum.add_argument("--dual", action="store_true")
    p_enum.add_argument("--partitions", type=int, help="max size")
    p_enum.add_argument("--rows", type=int)
    p_enum.add_argument("--cols", type=int)
    p_enum.set_defaults(fn=cmd_enumerate)

    p_ren = sub.add_parser("render", help="ASCII growth diagram")
    p_ren.add_argument("--rule")
    p_ren.add_argument("--variant", help="triangular variant for --array (default all)")
    p_ren.add_argument("--matrix")
    p_ren.add_argument("--array")
    p_ren.add_argument("--star", help="asym-1 projection: row (default) or col")
    p_ren.set_defaults(fn=cmd_render)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (ValueError, OSError) as exc:  # FormatError and DomainError among them
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
