"""Write the order-11 Costas array database used by the join_o11 workload.

The arrays come from the benchmark's own backtracking in oracle.py, not
from costas_cubes, so the database is an input the program under test
had no part in making.  Run from the repository root:

    python3 perfbench/make_db.py
"""

from __future__ import annotations

from pathlib import Path

import oracle

ORDER = 11
DB_PATH = Path(__file__).resolve().parent / "data" / f"costas_order{ORDER}.txt"


def main() -> None:
    arrays = oracle.costas_arrays(ORDER)
    if len(arrays) != oracle.ARRAY_TOTALS[ORDER]:
        raise SystemExit(f"found {len(arrays)} arrays, published total is {oracle.ARRAY_TOTALS[ORDER]}")
    lines = [f"# all {len(arrays)} Costas arrays of order {ORDER}, lexicographic"]
    lines += [" ".join(map(str, a)) for a in arrays]
    DB_PATH.write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
