#!/usr/bin/env python3
"""Recompute the cube/projection/array class counts per order from scratch.

Orders up to 11 finish in about a second, up to 12 in a few seconds and
up to 13 in under twenty seconds, on one core.  The published row
(reference.TABLE1) is shown next to each recomputed row; the exit status
is 1 when any column of any row differs from its published value, else 0.
"""

import argparse
import time

from costas_cubes.enumeration import table1
from costas_cubes.reference import TABLE1

COLUMNS = ("cubes", "projection_arrays", "total_arrays")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-order", type=int, default=10)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    try:
        rows = table1(args.max_order)
    except ValueError as exc:
        parser.error(str(exc))
    print("order  cubes  projection_arrays  total_arrays    published")
    differs = False
    for row in rows:
        got = (row.cube_classes, row.projection_array_classes, row.total_array_classes)
        known = TABLE1.get(row.order)
        flag = ""
        if known is not None and got != known:
            names = [name for name, g, k in zip(COLUMNS, got, known) if g != k]
            flag = "  <-- differs from published " + ", ".join(names)
            differs = True
        published = " ".join(map(str, known)) if known else "?"
        print(f"{row.order:>5}  {got[0]:>5}  {got[1]:>17}  {got[2]:>12}  {published:>11}{flag}")
    print(f"elapsed: {time.perf_counter() - start:.1f}s")
    return 1 if differs else 0


if __name__ == "__main__":
    raise SystemExit(main())
