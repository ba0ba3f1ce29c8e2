#!/usr/bin/env python3
"""Sweep every admissible parameter tuple of the four cube constructions
and count the inequivalent cubes each family yields per order.

Each row's G2x3, W2W2G2 and pooled G3 counts are compared with the
published Table 2 (reference.TABLE2); the exit status is 1 when any of
them differs, else 0.
"""

import argparse
import time

from costas_cubes.construct import table2
from costas_cubes.reference import TABLE2


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-order", type=int, default=29)
    parser.add_argument("--all-orders", action="store_true",
                        help="also print orders where no family constructs anything")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    try:
        rows = table2(args.max_order)
    except ValueError as exc:
        parser.error(str(exc))
    print("order  g2x3  w2w2g2  g3 (i/ii)  total_known")
    differs = False
    for r in rows:
        published = TABLE2.get(r.order, (0, 0, 0))
        flag = ""
        if (r.g2x3, r.w2w2g2, r.g3) != published:
            flag = "  <-- differs from published " + " ".join(map(str, published))
            differs = True
        if not (args.all_orders or flag or r.g2x3 or r.w2w2g2 or r.g3):
            continue
        g3_cell = f"{r.g3} ({r.g3_variant_i}/{r.g3_variant_ii})" if r.g3 else "-"
        print(
            f"{r.order:>5}  {r.g2x3 or '-':>4}  {r.w2w2g2 or '-':>6}  {g3_cell:>9}  "
            f"{r.total_known if r.total_known is not None else '?':>11}{flag}"
        )
    print(f"elapsed: {time.perf_counter() - start:.1f}s")
    return 1 if differs else 0


if __name__ == "__main__":
    raise SystemExit(main())
