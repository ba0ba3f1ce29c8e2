#!/usr/bin/env python3
"""Survey the sizes of the projection sets S(D) over all inequivalent
Costas cubes of one order (at order 6 every value in {4,8,...,24} occurs)."""

import argparse
from collections import Counter

from costas_cubes.enumeration import class_report, costas_values
from costas_cubes.symmetry import projection_set


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--order", type=int, default=6)
    args = parser.parse_args()

    cubes = class_report(args.order, costas_values(args.order)).representatives
    sizes = Counter(len(projection_set(cube)) for cube in cubes)
    print(f"order {args.order}: {len(cubes)} cube classes")
    for size in sorted(sizes):
        print(f"|S(D)| = {size:>2}: {sizes[size]} classes")


if __name__ == "__main__":
    main()
