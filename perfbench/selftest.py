"""Self-tests of the benchmark, on reduced sizes where the workload allows.

    python3 perfbench/selftest.py

* smoke: each workload's check passes at a reduced size (arrays and the
  pair-join at order 8, table2 up to order 9), and a traced run gives
  byte-identical output;
* negative control: the join_o11 check fails on the order-11 database
  with one whole D4 class removed, a database the library accepts;
* identity: tracing leaves the sweep witnesses, which the program keys
  on constructor functions, unchanged.

Prints one line per test and exits 1 if any fails.
"""

from __future__ import annotations

import sys

import oracle
import probe
import run
import spans

run.load_program()

import workloads  # noqa: E402  (needs the program on the path)
from costas_cubes import construct  # noqa: E402


def smoke(case) -> list[str]:
    with probe.SpeedProbe() as speed:
        _, _, output, problems = run.timed_run(case, speed)
        _, _, traced, traced_problems = run.timed_run(case, speed, spans.Tracer())
    if output is not None and traced is not None and case.render(output) != case.render(traced):
        problems.append("traced output differs")
    return problems + traced_problems


def negative_control() -> list[str]:
    arrays = workloads.without_one_class(workloads.load_database(11), seed=0)
    case = workloads.join_case(11, arrays, seed=0, work_dir=run.WORK)
    with probe.SpeedProbe() as speed:
        _, _, _, problems = run.timed_run(case, speed)
    return [] if problems else ["the check accepted a database missing a class"]


def witnesses_unchanged() -> list[str]:
    def witnesses():
        out = {}
        for family in (construct.Family.CUBE_G3, construct.Family.CUBE_G2X3):
            report = construct.sweep(family, 9)
            out[family] = {order: sorted((c.rows, w.describe()) for c, w in classes.items())
                           for order, classes in report.classes.items()}
        return out

    plain = witnesses()
    with spans.Tracer():
        traced = witnesses()
    return [] if plain == traced else ["traced sweep witnesses differ"]


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    small_db = oracle.costas_arrays(8)
    tests = {
        "smoke arrays order 8": lambda: smoke(workloads.arrays_case(8)),
        "smoke join order 8": lambda: smoke(workloads.join_case(8, small_db, seed=1, work_dir=run.WORK)),
        "smoke table2 to order 9": lambda: smoke(workloads.table2_case(9, seed=1)),
        "negative control join_o11 missing one class": negative_control,
        "tracing keeps sweep witnesses": witnesses_unchanged,
    }
    failures = 0
    for name, test in tests.items():
        problems = test()
        failures += bool(problems)
        print(f"{'FAIL' if problems else 'ok  '} {name}" + "".join(f"\n     {p}" for p in problems))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
