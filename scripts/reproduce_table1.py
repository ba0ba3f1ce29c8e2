#!/usr/bin/env python3
"""Recompute the cube/projection/array class counts per order from scratch.

Orders up to 11 finish in about a second, up to 12 in a few seconds and
up to 13 in under twenty seconds, on one core.  Known published cube
counts are shown next to each recomputed row; the exit status is 1 when
any row differs from its published count, else 0.
"""

import argparse
import time

from costas_cubes.enumeration import table1
from costas_cubes.reference import CUBE_CLASS_COUNTS


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-order", type=int, default=10)
    parser.add_argument("--threads", type=int, default=1)
    args = parser.parse_args(argv)

    print("order  cubes  projection_arrays  total_arrays  known_cubes")
    start = time.perf_counter()
    differs = False
    for row in table1(args.max_order, threads=args.threads):
        known = CUBE_CLASS_COUNTS.get(row.order, "?")
        flag = ""
        if known not in ("?", row.cube_classes):
            flag = "  <-- differs from published count"
            differs = True
        print(
            f"{row.order:>5}  {row.cube_classes:>5}  {row.projection_array_classes:>17}  "
            f"{row.total_array_classes:>12}  {known:>11}{flag}"
        )
    print(f"elapsed: {time.perf_counter() - start:.1f}s")
    return 1 if differs else 0


if __name__ == "__main__":
    raise SystemExit(main())
