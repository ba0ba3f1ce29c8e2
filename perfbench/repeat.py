"""Run one workload under several seeds and summarise each metric.

    python3 perfbench/repeat.py --workload join_o11 --seeds 1-10 --seconds 20 [--out FILE]

Each seed is one fresh `run.py` process.  For every metric the summary
gives the median, the quartiles (statistics.quantiles, n=4) and the
spread, the distance between the quartiles as a share of the median.
--out writes the per-seed results, the summary and the machine facts
as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def machine() -> dict:
    """Core count, CPU model, cache sizes, Python and numpy versions."""
    facts = {"nproc": os.cpu_count(), "python": platform.python_version()}
    try:
        import numpy
        facts["numpy"] = numpy.__version__
    except ImportError:
        facts["numpy"] = None
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        models = [line.split(":", 1)[1].strip() for line in cpuinfo.read_text().splitlines()
                  if line.startswith("model name")]
        facts["cpu"] = models[0] if models else None
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = (index / "level").read_text().strip()
        kind = (index / "type").read_text().strip()
        if kind != "Instruction":
            facts[f"L{level}"] = (index / "size").read_text().strip()
    return facts


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    results = []
    for seed in args.seeds:
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900, check=True)
        result = json.loads(done.stdout.splitlines()[-1])
        results.append({"seed": seed, "elapsed_s": time.perf_counter() - start, **result})
        print(f"seed {seed} ({results[-1]['elapsed_s']:.0f} s): correct {result['correct']} attempted {result['attempted']} "
              f"failed {result['failed']} " + " ".join(
                  f"{name}={m['value']:.6g}" for name, m in result["metrics"].items()), flush=True)

    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        summary[name] = {"median": median, "q1": q1, "q3": q3, "n": len(values),
                         "spread": (q3 - q1) / median if median else None,
                         "unit": results[0]["metrics"][name]["unit"]}
        spread = summary[name]["spread"]
        print(f"{name}: median {median:.6g} q1 {q1:.6g} q3 {q3:.6g} "
              f"spread {'n/a' if spread is None else f'{spread:.4f}'} N={len(values)}")
    if args.out:
        args.out.write_text(json.dumps({"workload": args.workload, "seconds": args.seconds,
                                        "trace": args.trace, "machine": machine(),
                                        "runs": results, "summary": summary}, indent=1) + "\n")
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
