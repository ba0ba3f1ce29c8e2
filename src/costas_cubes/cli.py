"""Command-line interface.

Commands: verify, construct, enumerate, tables, sd-set, classify,
project, import.  tables prints Table 1 or Table 2 with the published
rows (reference.TABLE1/TABLE2) and flags each row that differs.  Array
files are read as one value matrix; import drops duplicate lines.
Exit codes: 0 success / everything verified, 1 verification failure
(including a tables row that differs from the published one, or an
import whose arrays fail a check, such as a closed database short of
the published total), 2 usage or parse error, or a path that cannot be
read or written.  Commands raise ValueError or OSError for exit 2; only
main prints those errors, so an exit-2 run prints nothing on stdout.

Each command but import builds its one result, a JSON document and its
text lines, and prints it once with _emit, the only reader of --format.
Error lines go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .construct import (
    Family,
    catalog,
    cube_g2x3,
    cube_g3_variant_i,
    cube_g3_variant_ii,
    cube_w2w2g2,
    g2,
    g3,
    table2,
    w1,
    w2,
)
from .core import CostasCube, costas_violations, distinct_rows, is_costas_cube, projections
from .enumeration import ClassReport, _text, class_report, costas_values, table1, total_mismatch
from .files import array_line_numbers, emit_array_file, emit_cube_file, parse_array_file, parse_cube_file
from .gf import format_element, parse_element, parse_field_spec
from .reference import TABLE1, TABLE2
from .symmetry import least_image, planar_images, projection_set


def _emit(args, doc, lines) -> None:
    """Print a command's one result: doc as one JSON line under --format
    machine, else its text lines, which only text output reads."""
    print(json.dumps(doc, sort_keys=True) if args.format == "machine" else "\n".join(lines))


def _read(path: str) -> str:
    return Path(path).read_text()


def _judged(values: np.ndarray, *judges) -> list[tuple]:
    """(row, violation, *judged) for each row of a zero-padded value matrix,
    in row order: the row cut to its order n, its costas_violations row and
    its item of each judge's list, one call each per order's (rows, n) matrix."""
    orders = np.count_nonzero(values, axis=1)
    items = []
    for n in np.unique(orders).tolist():
        block = values[orders == n, :n]
        items += zip(block.tolist(), costas_violations(block).tolist(), *(judge(block) for judge in judges))
    # The items are grouped by order, each group in row order.
    return [items[i] for i in np.argsort(np.argsort(orders, kind="stable")).tolist()]


def _labels(values: np.ndarray) -> list[list[str]]:
    """The catalog labels of each row of an (N, n) value matrix."""
    cat = catalog(values.shape[1])
    return [sorted(cat.get(key, ())) for key in map(tuple, least_image(planar_images(values)).tolist())]


# -- verify -------------------------------------------------------------


def cmd_verify(args) -> int:
    text = _read(args.input)
    if args.target == "array":
        doc, lines = [], []
        for idx, (row, (d, diff)) in enumerate(_judged(parse_array_file(text)), start=1):
            doc.append({"index": idx, "values": row, "costas": not d, "repeated_vector": [d, diff] if d else None})
            lines.append(f"{idx}: {_text(row)} " + (f"FAIL repeated vector {(d, diff)}" if d else "costas"))
        _emit(args, doc, lines)
        return 0 if all(entry["costas"] for entry in doc) else 1

    cube = parse_cube_file(text)
    values = projections(cube)
    named = dict(zip("ABC", values.tolist()))
    verdicts = {name: not d for name, (d, _) in zip("ABC", costas_violations(values).tolist())}
    ok = all(verdicts.values())
    _emit(args, {
        "order": cube.order,
        "triples": [list(x) for x in cube.triples()],
        "projections": named,
        "projection_costas": verdicts,
        "costas_cube": ok,
    }, [*(f"projection {name}: {_text(row)} {'costas' if verdicts[name] else 'NOT costas'}"
          for name, row in named.items()),
        f"costas cube: {'yes' if ok else 'NO'}"])
    return 0 if ok else 1


# -- construct ----------------------------------------------------------

# Family name: (constructor, parameter names, prime fields only).  The
# prime-only constructors take the prime p in place of the field.
_FAMILIES = {
    "w1": (w1, ("phi",), True),
    "g2": (g2, ("phi", "rho"), False),
    "w2": (w2, ("phi",), True),
    "g3": (g3, ("phi",), False),
    "cube-g2x3": (cube_g2x3, ("phi", "rho", "psi"), False),
    "cube-w2w2g2": (cube_w2w2g2, ("phi", "psi"), True),
    "cube-g3-i": (cube_g3_variant_i, ("phi",), False),
    "cube-g3-ii": (cube_g3_variant_ii, ("phi",), False),
}


def cmd_construct(args) -> int:
    build, needs, prime_only = _FAMILIES[args.family]
    field = parse_field_spec(args.field)
    if prime_only and field.m != 1:
        raise ValueError(f"family {args.family} needs a prime field")
    missing = [n for n in needs if getattr(args, n) is None]
    if missing:
        raise ValueError(f"family {args.family} requires --" + " --".join(missing))
    takes = needs + (("c",) if args.family == "w1" else ())
    extra = [n for n in ("rho", "psi", "c") if n not in takes and getattr(args, n) is not None]
    if extra:
        raise ValueError(f"family {args.family} does not take --" + " --".join(extra))
    elems = [parse_element(field, getattr(args, n)) for n in needs]
    params = {n: format_element(field, e) for n, e in zip(needs, elems)}
    if args.family == "w1":
        c = args.c or 0
        elems.append(c)
        params["c"] = str(c)
    obj = build(field.p if prime_only else field, *elems)
    # A cube is judged by its projections, an array by its one value row.
    values = projections(obj) if isinstance(obj, CostasCube) else np.array([obj])
    verified = not costas_violations(values).any()

    doc = {"family": args.family, "field": args.field, "parameters": params, "order": values.shape[1]}
    stamp = f"{args.family} over GF({field.q}) " + " ".join(f"{k}={v}" for k, v in params.items())
    if isinstance(obj, CostasCube):
        named = dict(zip("ABC", values.tolist()))
        doc.update(triples=[list(x) for x in obj.triples()], projections=named, costas_cube=verified)
        text = emit_cube_file(obj, comments=[
            stamp, f"costas cube: {'yes' if verified else 'NO'}",
            *(f"projection {name}: {' '.join(map(str, row))}" for name, row in named.items())])
    else:
        doc.update(values=list(obj), costas=verified)
        text = emit_array_file([obj], comments=[stamp, f"costas: {'yes' if verified else 'NO'}"])
    _emit(args, doc, text.splitlines())
    return 0 if verified else 1


# -- enumerate ----------------------------------------------------------


def _counts(report: ClassReport) -> dict:
    return {"order": report.order, "cube_classes": report.cube_classes,
            "projection_array_classes": report.projection_array_classes,
            "total_array_classes": report.total_array_classes}


def cmd_enumerate(args) -> int:
    if args.arrays_file:
        arrays = parse_array_file(_read(args.arrays_file))
    else:
        arrays = costas_values(args.order)
    report = class_report(args.order, arrays)
    doc = _counts(report)
    summary = ("order {order}: cube classes {cube_classes}, "
               "projection array classes {projection_array_classes}, "
               "total array classes {total_array_classes}").format(**doc)
    reps = report.representatives if args.emit_representatives else ()
    if args.emit_representatives:
        doc["representatives"] = [[[i, j, k] for i, (j, k) in enumerate(c.rows, 1)] for c in reps]
    # Lazy: machine output never formats a representative as text.
    _emit(args, doc, itertools.chain([summary], map(str, reps)))
    return 0


# -- tables -------------------------------------------------------------


_TABLE1_COLUMNS = ("cubes", "projection_arrays", "total_arrays")


def cmd_tables(args) -> int:
    differs = False
    if args.table == 1:
        rows = table1(args.max_order)
        doc = [_counts(r) for r in rows]
        lines = ["order  cubes  projection_arrays  total_arrays    published"]
        for r in rows:
            got = (r.cube_classes, r.projection_array_classes, r.total_array_classes)
            known = TABLE1[r.order]
            names = [name for name, g, k in zip(_TABLE1_COLUMNS, got, known) if g != k]
            flag = "  <-- differs from published " + ", ".join(names) if names else ""
            differs |= bool(flag)
            published = " ".join(map(str, known))
            lines.append(f"{r.order:>5}  {got[0]:>5}  {got[1]:>17}  {got[2]:>12}  {published:>11}{flag}")
    else:
        rows = table2(args.max_order)
        doc = [asdict(r) for r in rows]
        lines = ["order  g2x3  w2w2g2  g3 (i/ii)  total_known"]
        for r in rows:
            got, published = (r.g2x3, r.w2w2g2, r.g3), TABLE2.get(r.order, (0, 0, 0))
            flag = "  <-- differs from published " + " ".join(map(str, published)) if got != published else ""
            differs |= bool(flag)
            if flag or any(got):
                g3_cell = f"{r.g3} ({r.g3_variant_i}/{r.g3_variant_ii})" if r.g3 else "-"
                lines.append(f"{r.order:>5}  {r.g2x3 or '-':>4}  {r.w2w2g2 or '-':>6}  {g3_cell:>9}  "
                             f"{r.total_known:>11}{flag}")
    _emit(args, doc, lines)
    return 1 if differs else 0


# -- sd-set -------------------------------------------------------------


def cmd_sd_set(args) -> int:
    cube = parse_cube_file(_read(args.input))
    if not is_costas_cube(cube):
        print("error: not a Costas cube", file=sys.stderr)
        return 1
    members = projection_set(cube)
    groups: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for key, values in zip(least_image(planar_images(members)).tolist(), members.tolist()):
        groups.setdefault(tuple(key), []).append(tuple(values))
    classes = sorted((key, sorted(vals)) for key, vals in groups.items())
    note = " (degenerate order <= 2)" if cube.order <= 2 else ""
    _emit(args, {
        "order": cube.order,
        "size": len(members),
        "degenerate": cube.order <= 2,
        "classes": {" ".join(map(str, k)): [list(v) for v in vs] for k, vs in classes},
    }, [f"|S(D)| = {len(members)}{note}",
        *(f"class {_text(k)}: " + " ".join(map(_text, vs)) for k, vs in classes)])
    return 0


# -- classify -----------------------------------------------------------


def cmd_classify(args) -> int:
    text = _read(args.input)
    if args.target == "array":
        doc, lines = [], []
        for idx, (row, (d, _), labels) in enumerate(_judged(parse_array_file(text), _labels), start=1):
            doc.append({"index": idx, "values": row, "costas": not d, "labels": labels})
            lines.append(f"{idx}: {_text(row)} {','.join(labels) or 'unlabeled'}")
        _emit(args, doc, lines)
        return 0
    values = projections(parse_cube_file(text))
    doc, lines = {}, []
    for name, row, labels in zip("ABC", values.tolist(), _labels(values)):
        doc[name] = {"values": row, "labels": labels}
        lines.append(f"projection {name}: {_text(row)} {','.join(labels) or 'unlabeled'}")
    _emit(args, doc, lines)
    return 0


# -- project ------------------------------------------------------------


def cmd_project(args) -> int:
    named = dict(zip("ABC", projections(parse_cube_file(_read(args.input))).tolist()))
    _emit(args, named,
          [line for name, row in named.items() for line in (f"# projection {name}", " ".join(map(str, row)))])
    return 0


# -- import -------------------------------------------------------------


def cmd_import(args) -> int:
    text = _read(args.input)
    values = parse_array_file(text)
    orders = np.unique(np.count_nonzero(values, axis=1))
    if len(orders) > 1:
        print(f"error: mixed orders {orders.tolist()} in one file", file=sys.stderr)
        return 1
    order = values.shape[1]
    if args.expect_order is not None and order != args.expect_order:
        print(f"error: file has order {order}, expected {args.expect_order}", file=sys.stderr)
        return 1
    found = costas_violations(values)
    if found.any():
        bad = int(np.argmax(found[:, 0] > 0))
        no = array_line_numbers(text)[bad]
        print(f"error: line {no}: {_text(values[bad])} is not a Costas array "
              f"(repeated vector {tuple(found[bad].tolist())})", file=sys.stderr)
        return 1

    values = distinct_rows(values)
    images = planar_images(values)
    classes = len(distinct_rows(least_image(images)))
    orbits = distinct_rows(images.reshape(-1, order))
    # A list's images include its rows: it is closed when they add none.
    if len(orbits) > len(values):
        if args.expand:
            values = orbits
            print(f"note: expanded to full square-symmetry orbits ({len(values)} arrays)")
        else:
            print("warning: file is not closed under the square symmetries; "
                  "it may hold class representatives only (rerun with --expand)")
    mismatch = total_mismatch(order, len(values)) if len(values) == len(orbits) else None
    if mismatch:
        print(f"error: {mismatch}", file=sys.stderr)
        return 1

    out_path = Path(args.output) if args.output else Path(args.input).with_suffix(
        Path(args.input).suffix + ".normalized"
    )
    out_path.write_text(emit_array_file(
        values.tolist(), comments=[f"order {order}", f"arrays {len(values)}", f"classes {classes}"]
    ))
    print(f"order {order}: {len(values)} arrays, {classes} classes; normalized copy: {out_path}")
    return 0


# -- parser --------------------------------------------------------------


def _add_format(sub) -> None:
    sub.add_argument("--format", choices=("text", "machine"), default="text")


# Parsing leaves the parser unchanged, so one parser serves every call.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="costas-cubes",
        description="Verify, construct, enumerate, and classify Costas arrays and Costas cubes.",
    )
    subs = parser.add_subparsers(dest="command")

    s = subs.add_parser("verify", help="check the Costas property of arrays or a cube")
    s.add_argument("target", choices=("array", "cube"))
    s.add_argument("input")
    _add_format(s)
    s.set_defaults(func=cmd_verify)

    s = subs.add_parser("construct", help="run one finite-field construction")
    s.add_argument("family", choices=sorted(_FAMILIES))
    s.add_argument("--field", required=True,
                   help='field spec "p^m:c0,...,cm" or prime shorthand, e.g. 2^4:1,0,0,1,1 or 13')
    s.add_argument("--phi", default=None, help='element as encoding or polynomial, e.g. 11 or "1+2x^2"')
    s.add_argument("--rho", default=None)
    s.add_argument("--psi", default=None)
    s.add_argument("--c", type=int, default=None, help="column shift for w1 (default 0)")
    _add_format(s)
    s.set_defaults(func=cmd_construct)

    s = subs.add_parser("enumerate", help="count cube and array classes of one order")
    s.add_argument("--order", type=int, required=True)
    s.add_argument("--arrays-file", default=None,
                   help="complete Costas array database for this order")
    s.add_argument("--emit-representatives", action="store_true")
    _add_format(s)
    s.set_defaults(func=cmd_enumerate)

    s = subs.add_parser("tables", help="order-by-order class count tables")
    s.add_argument("--table", type=int, choices=(1, 2), required=True)
    s.add_argument("--max-order", type=int, required=True)
    _add_format(s)
    s.set_defaults(func=cmd_tables)

    s = subs.add_parser("sd-set", help="distinct Costas arrays projected by a cube's orbit")
    s.add_argument("input")
    _add_format(s)
    s.set_defaults(func=cmd_sd_set)

    s = subs.add_parser("classify", help="label arrays or cube projections by construction family")
    s.add_argument("target", choices=("array", "cube"))
    s.add_argument("input")
    _add_format(s)
    s.set_defaults(func=cmd_classify)

    s = subs.add_parser("project", help="emit the three projections of a cube")
    s.add_argument("input")
    _add_format(s)
    s.set_defaults(func=cmd_project)

    s = subs.add_parser("import", help="validate and normalize an array database file")
    s.add_argument("input")
    s.add_argument("--expect-order", type=int, default=None)
    s.add_argument("--expand", action="store_true",
                   help="expand class representatives to full orbits")
    s.add_argument("--output", default=None)
    s.set_defaults(func=cmd_import)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help()
        return 2
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
