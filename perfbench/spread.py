#!/usr/bin/env python3
"""Run the benchmark over several seeds and print every metric per workload.

    python3 perfbench/spread.py                  # seed 1, every workload
    python3 perfbench/spread.py --seeds 10       # the steadiness check
    python3 perfbench/spread.py --trace 1        # the per-layer metrics

Seeds 1 to ``--seeds`` run on every workload of ``BENCHMARK.json`` for its
``run_seconds``.  For each workload and metric it prints the median over
the seeds, the distance between the first and third quartile as a share
of the median, and, for end-to-end metrics, the bound and the spread of
the same figure from raw wall time, which the run reports in its details
line.  A spread of a third of the bound or more is flagged ``WIDE`` and
makes the exit code 1.  Runs are sequential, one process at a time, from
the checkout root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=1, help="number of seeds per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    seconds = bench["run_seconds"]
    all_ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        values: dict[str, list[float]] = {m["name"]: [] for m in specs}
        raw: dict[str, list[float]] = {m["name"]: [] for m in specs}
        for seed in range(1, args.seeds + 1):
            cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=False)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            lines = [json.loads(line) for line in proc.stdout.splitlines()]
            result = lines[-1]
            if not result["correct"]:
                all_ok = False
                print(f"{workload} seed {seed}: {result['failed']}/{result['attempted']} failed", file=sys.stderr)
            details = next(line["details"] for line in lines if "details" in line)
            for name in values:
                values[name].append(result["metrics"][name]["value"])
                if name in details.get("raw", {}):
                    raw[name].append(details["raw"][name])
        print(f"{workload} ({args.seeds} seeds, {seconds} s, trace {args.trace})")
        for m in specs:
            s = spread(values[m["name"]])
            line = f"  {m['name']:30s} {statistics.median(values[m['name']]):14.6g} {m['unit']:12s} spread {s:7.2%}"
            if "bound" in m:
                wide = s >= m["bound"] / 3
                all_ok &= not wide
                line += f"  bound {m['bound']:.0%}" + ("  WIDE" if wide else "    ")
                if raw[m["name"]]:
                    line += f"  raw spread {spread(raw[m['name']]):7.2%}"
            print(line, flush=True)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
