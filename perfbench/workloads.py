"""The benchmark workloads: seeded inputs, the program call, output checks.

Each workload drives one module stack of costas_cubes hard and leaves the
others nearly idle:

* arrays_o11 -- backtracking (enumerate_costas_arrays) plus canonical_array;
* join_o11 -- the CLI pair-join over a supplied order-11 database: scan,
  membership test, completeness check and canonical_cube on few hits;
* table2_o29 -- the four finite-field sweeps: gf, construct, and
  canonical_cube on many cubes of orders 2 to 29.

Every check uses published totals, reference.CUBE_CLASS_COUNTS, numbers
recorded at commit c06b31e, and oracle.py; none calls the code under test.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from costas_cubes import cli, construct, enumeration, gf, reference

import oracle

DATA = Path(__file__).resolve().parent / "data"

# Projection array classes per order, as the pair-join reported them at
# commit c06b31e (the Table 1 test fixtures hold the same numbers).
PROJECTION_CLASSES = {8: 44, 11: 126}

# The extension fields the sweeps up to order 29 use, as q: (p, m).
EXTENSION_FIELDS = {4: (2, 2), 8: (2, 3), 9: (3, 2), 16: (2, 4), 25: (5, 2), 27: (3, 3), 32: (2, 5)}


@dataclass
class Case:
    """A prepared input: run() calls the program, check() lists what is
    wrong with its output, render() gives the output as bytes."""

    run: Callable[[], object]
    check: Callable[[object], list[str]]
    render: Callable[[object], bytes]


# -- arrays_o11 ---------------------------------------------------------


def arrays_case(n: int) -> Case:
    def run():
        arrays = enumeration.enumerate_costas_arrays(n)
        return arrays, enumeration.array_classes(arrays)

    def check(output) -> list[str]:
        arrays = [p.values for p in output[0]]
        classes = [p.values for p in output[1]]
        problems = []
        if len(arrays) != oracle.ARRAY_TOTALS[n]:
            problems.append(f"{len(arrays)} arrays, published {oracle.ARRAY_TOTALS[n]}")
        if len(set(arrays)) != len(arrays):
            problems.append("duplicate arrays")
        if not all(len(a) == n and oracle.is_costas(a) for a in arrays):
            problems.append("an array is not Costas of order n")
        if len(classes) != oracle.ARRAY_CLASS_TOTALS[n]:
            problems.append(f"{len(classes)} classes, published {oracle.ARRAY_CLASS_TOTALS[n]}")
        if not set(classes) <= set(arrays):
            problems.append("a class representative is not among the arrays")
        if len({oracle.array_class_key(c) for c in classes}) != len(classes):
            problems.append("two class representatives are equivalent")
        return problems

    def render(output) -> bytes:
        return repr([[p.values for p in part] for part in output]).encode()

    return Case(run, check, render)


# -- join_o11 -----------------------------------------------------------


def load_database(n: int) -> list[tuple[int, ...]]:
    """The stored order-n database, checked against the published total."""
    arrays = []
    for line in (DATA / f"costas_order{n}.txt").read_text().splitlines():
        if line and not line.startswith("#"):
            arrays.append(tuple(int(tok) for tok in line.split()))
    if len(arrays) != oracle.ARRAY_TOTALS[n] or len(set(arrays)) != len(arrays):
        raise ValueError(f"order-{n} database does not hold the {oracle.ARRAY_TOTALS[n]} published arrays")
    if not all(len(a) == n and oracle.is_costas(a) for a in arrays):
        raise ValueError(f"order-{n} database holds an array that is not Costas of order {n}")
    return arrays


def join_case(n: int, arrays: list[tuple[int, ...]], seed: int, work_dir: Path) -> Case:
    """The CLI pair-join over the arrays, written in a seeded line order."""
    lines = [" ".join(map(str, a)) for a in arrays]
    random.Random(seed).shuffle(lines)
    db_path = work_dir / f"join_o{n}_input.txt"
    db_path.write_text("\n".join(lines) + "\n")
    argv = ["enumerate", "--order", str(n), "--arrays-file", str(db_path),
            "--format", "machine", "--emit-representatives"]

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    def check(output) -> list[str]:
        code, text = output
        if code != 0:
            return [f"exit code {code}"]
        try:
            doc = json.loads(text.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            return ["output is not one JSON line"]
        want = {"order": n, "cube_classes": reference.CUBE_CLASS_COUNTS[n],
                "projection_array_classes": PROJECTION_CLASSES[n],
                "total_array_classes": oracle.ARRAY_CLASS_TOTALS[n]}
        problems = [f"{key} {doc.get(key)}, expected {value}"
                    for key, value in want.items() if doc.get(key) != value]
        reps = doc.get("representatives", [])
        if len(reps) != want["cube_classes"]:
            problems.append(f"{len(reps)} representatives, expected {want['cube_classes']}")
        rows = []
        for triples in reps:
            if [t[0] for t in triples] != list(range(1, n + 1)):
                problems.append(f"representative {triples} is not one triple per i in order")
                continue
            rows.append(tuple((j, k) for _, j, k in triples))
        if not all(oracle.is_costas_cube(r) for r in rows):
            problems.append("a representative is not a Costas cube")
        if len({oracle.cube_class_key(r) for r in rows}) != len(rows):
            problems.append("two representatives are equivalent")
        return problems

    def render(output) -> bytes:
        return repr(output).encode()

    return Case(run, check, render)


def without_one_class(arrays: list[tuple[int, ...]], seed: int) -> list[tuple[int, ...]]:
    """The arrays less one whole D4 class, chosen by the seed: a database
    that is closed under the square symmetries yet incomplete."""
    victim = oracle.array_class_key(random.Random(seed).choice(arrays))
    return [a for a in arrays if oracle.array_class_key(a) != victim]


# -- table2_o29 ---------------------------------------------------------


def pick_moduli(seed: int) -> dict[int, tuple[int, ...]]:
    """One seeded irreducible modulus per extension field, among the monic
    ones field_new accepts."""
    rng = random.Random(seed)
    moduli = {}
    for q, (p, m) in sorted(EXTENSION_FIELDS.items()):
        accepted = []
        for enc in range(p**m):
            coeffs = tuple((enc // p**t) % p for t in range(m)) + (1,)
            try:
                gf.field_new(p, m, coeffs)
            except ValueError:
                continue
            accepted.append(coeffs)
        moduli[q] = rng.choice(accepted)
    return moduli


def expected_table2(max_order: int) -> list[list[int | None]]:
    doc = json.loads((DATA / "table2_rows.json").read_text())
    return [row for row in doc["rows"] if row[0] <= max_order]


def table2_case(max_order: int, seed: int) -> Case:
    moduli = pick_moduli(seed)
    want = expected_table2(max_order)

    def run():
        return construct.table2(max_order, moduli=moduli)

    def as_list(row) -> list[int | None]:
        return [row.order, row.g2x3, row.w2w2g2, row.g3, row.g3_variant_i,
                row.g3_variant_ii, row.total_known]

    def check(output) -> list[str]:
        got = [as_list(row) for row in output]
        problems = [f"row {g} differs from recorded {w}" for g, w in zip(got, want) if g != w]
        if len(got) != len(want):
            problems.append(f"{len(got)} rows, expected {len(want)}")
        # Families can reach the same class (order 3: one class, from both
        # G2x3 and W2W2G2), so the sum of the columns may exceed the total;
        # each column may not.
        for order, g2x3, w2w2g2, g3, g3_i, g3_ii, total in got:
            if total != reference.CUBE_CLASS_COUNTS.get(order):
                problems.append(f"order {order}: total_known {total} is not the reference count")
            elif total is not None and max(g2x3, w2w2g2, g3) > total:
                problems.append(f"order {order}: a family constructs more classes than total_known")
            if not max(g3_i, g3_ii) <= g3 <= g3_i + g3_ii:
                problems.append(f"order {order}: pooled G3 count {g3} is not the union of its variants")
        return problems

    def render(output) -> bytes:
        return json.dumps([as_list(row) for row in output]).encode()

    return Case(run, check, render)


# -- the benchmarked workloads ------------------------------------------


def make_case(name: str, seed: int, work_dir: Path) -> Case:
    if name == "arrays_o11":
        return arrays_case(11)
    if name == "join_o11":
        return join_case(11, load_database(11), seed, work_dir)
    if name == "table2_o29":
        return table2_case(29, seed)
    raise ValueError(f"unknown workload {name!r}")
