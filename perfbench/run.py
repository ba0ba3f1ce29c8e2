"""Run one benchmark workload of costas_cubes and print its metrics.

    python3 perfbench/run.py --workload join_o11 --seed 1 --seconds 20 --trace 0

Run from any directory; the program is imported from the src/ directory
next to perfbench/.  The workload repeats, one run after another in this
process, until --seconds have passed (at least once), and each run's
output is checked.  The last line of stdout is one JSON object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics: the median time of one run,
nominal work per second at that median, the median import time of
costas_cubes in a fresh interpreter, and the process's peak RSS.  Times
are in seconds at reference speed (see probe.py): the host's speed drifts
by a third from minute to minute, and a probe measured alongside each
run takes that drift out.  Raw wall times go to stderr.
--trace 1 alternates untraced and traced runs and reports per-layer
metrics from the spans (medians over the traced runs, times at reference
speed) together with the tracing overhead; it fails a run whose traced
output differs from the untraced output by a single byte.  Spans go to
.bench_work/.  Medians, quartiles and run counts go to stderr.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import probe
import spans
from oracle import ARRAY_TOTALS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Workload name -> nominal work items in one run, counted from the input:
# arrays found, ordered pairs the join scans, parameter tuples the sweeps
# construct (7,152 CUBE_G2x3, 448 CUBE_W2W2G2, 50 per G3 variant).
NOMINAL_WORK = {
    "arrays_o11": ARRAY_TOTALS[11],
    "join_o11": ARRAY_TOTALS[11] ** 2,
    "table2_o29": 7700,
}

# Fresh interpreters timed per run for setup_s; an extra first one, not
# counted, writes the bytecode cache.
SETUP_IMPORTS = 15
# Times the import, with the speed probe run just before and after it
# (its first calls in a fresh interpreter are warm-up and not used).
_IMPORT_TIMER = """
import statistics, sys, time
sys.path[:0] = sys.argv[1:3]
import probe
before = [probe.probe_once() for _ in range(8)][3:]
start = time.perf_counter()
import costas_cubes
seconds = time.perf_counter() - start
after = [probe.probe_once() for _ in range(5)]
print(seconds, seconds * probe.REFERENCE_S / statistics.mean(before + after))
"""


def load_program() -> None:
    """Put src/ first on the path and make sure costas_cubes comes from it."""
    package = SRC / "costas_cubes"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: {package} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import costas_cubes

    if Path(costas_cubes.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: costas_cubes imported from {costas_cubes.__file__}, not {package}")


def setup_seconds() -> tuple[list[float], list[float]]:
    """Import times of costas_cubes, each in a fresh interpreter: raw
    and at reference speed."""
    raw, reference = [], []
    for _ in range(SETUP_IMPORTS + 1):
        done = subprocess.run([sys.executable, "-c", _IMPORT_TIMER, str(SRC), str(HERE)],
                              cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
        seconds, at_reference = map(float, done.stdout.split())
        raw.append(seconds)
        reference.append(at_reference)
    return raw[1:], reference[1:]


def timed_run(case, speed, tracer=None):
    """One run of the workload: (wall seconds, seconds at reference
    speed, output or None, problems)."""
    start = time.perf_counter()
    output, problems = None, ["raised"]
    try:
        if tracer is None:
            output = case.run()
        else:
            with tracer:
                output = case.run()
    except Exception:
        traceback.print_exc()
    end = time.perf_counter()
    if output is not None:
        try:
            problems = case.check(output)
        except Exception:
            traceback.print_exc()
            problems = ["the output check raised"]
    return end - start, speed.reference_seconds(start, end), output, problems


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"median {values[0]:.6g} N=1"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"median {statistics.median(values):.6g} q1 {q1:.6g} q3 {q3:.6g} N={len(values)}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(NOMINAL_WORK), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_program()
    import workloads

    WORK.mkdir(exist_ok=True)
    case = workloads.make_case(args.workload, args.seed, WORK)
    log = sys.stderr
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}", file=log)
    if args.trace == 0:
        setup_raw, setup = setup_seconds()

    attempted = failed = 0
    raw: list[float] = []
    walls: list[float] = []
    traced_walls: list[float] = []
    tracers: list[spans.Tracer] = []
    layers: list[dict] = []
    start = time.perf_counter()
    with probe.SpeedProbe() as speed:
        while not walls or time.perf_counter() - start < args.seconds:
            raw_s, wall, output, problems = timed_run(case, speed)
            raw.append(raw_s)
            walls.append(wall)
            attempted += 1
            failed += bool(problems)
            for problem in problems:
                print(f"run failed its check: {problem}", file=log)
            if args.trace == 0:
                output = None  # so that it is freed before the next run
                continue
            tracer = spans.Tracer()
            raw_s, wall, traced, problems = timed_run(case, speed, tracer)
            traced_walls.append(wall)
            tracers.append(tracer)
            layers.append({name: (value * wall / raw_s if unit == "s" else value, unit)
                           for name, (value, unit) in spans.layer_metrics(tracer).items()})
            if output is not None and traced is not None and case.render(traced) != case.render(output):
                problems.append("traced output differs from untraced output")
            attempted += 1
            failed += bool(problems)
            for problem in problems:
                print(f"traced run failed its check: {problem}", file=log)
            output = traced = None
    print(f"raw wall_s {spread(raw)}", file=log)
    print(f"wall_s {spread(walls)}", file=log)

    median_wall = statistics.median(walls)
    if args.trace == 0:
        print(f"raw setup_s {spread(setup_raw)}", file=log)
        print(f"setup_s {spread(setup)}", file=log)
        metrics = {
            "wall_s": (median_wall, "s"),
            "work_per_s": (NOMINAL_WORK[args.workload] / median_wall, "1/s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        print(f"traced wall_s {spread(traced_walls)}", file=log)
        metrics = {name: (statistics.median(run[name][0] for run in layers), unit)
                   for name, (_, unit) in layers[0].items()}
        metrics["trace.overhead_s"] = (statistics.median(traced_walls) - median_wall, "s")
        for name in tracers[0].absent:
            print(f"absent: {name} is not defined by costas_cubes; its metrics read 0", file=log)
        with (WORK / f"spans_{args.workload}.tsv").open("w") as out:
            out.write("run\tid\tparent\tname\tstart\tend\n")
            for number, tracer in enumerate(tracers, start=1):
                tracer.write(out, str(number))

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
