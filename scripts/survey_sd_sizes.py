#!/usr/bin/env python3
"""Survey the sizes of the projection sets S(D) over all inequivalent
Costas cubes of one order (at order 6 every value in {4,8,...,24} occurs).
An order that cannot be surveyed in-process (below 1, or above the
enumeration limit) prints an error line on stderr and exits 2."""

import argparse
import sys
from collections import Counter

from costas_cubes.enumeration import class_report, costas_values
from costas_cubes.symmetry import projection_set


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--order", type=int, default=6)
    args = parser.parse_args()

    try:
        values = costas_values(args.order)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    cubes = class_report(args.order, values).representatives
    sizes = Counter(len(projection_set(cube)) for cube in cubes)
    print(f"order {args.order}: {len(cubes)} cube classes")
    for size in sorted(sizes):
        print(f"|S(D)| = {size:>2}: {sizes[size]} classes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
