"""Re-prove the benchmark steady on this machine.

    python3 bench/steady.py [--workload NAME ...]

Runs ``run.py`` (untraced, ``run_seconds`` of BENCHMARK.json) ten times
per workload, each with another seed, and does that twice over the same
code. For every end-to-end metric in BENCHMARK.json it prints, per set,
the spread (the distance between the first and third quartile as a share
of the median) and how much worse the second set's median is than the
first's; both are compared with the metric's bound. Exits 1 when anything
is out of bounds.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUNS = 10
SETS = 2


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs are not correct")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worsening(first, later, better):
    """How much worse ``later`` is than ``first``, as a share of it."""
    change = (later - first) / first
    return -change if better == "higher" else change


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        help="default: every workload in BENCHMARK.json")
    args = parser.parse_args(argv)
    names = args.workload or [w["name"] for w in bench["workloads"]]
    values = {}  # (set, workload) -> list of metric dicts
    for s in range(SETS):
        for workload in names:
            runs = values[s, workload] = []
            for i in range(RUNS):
                seed = 1000 * (s + 1) + i
                runs.append(run_once(workload, seed, bench["run_seconds"]))
                print(f"set {s + 1} {workload} seed {seed}: " + ", ".join(
                    f"{k}={v:.5g}" for k, v in runs[-1].items()), flush=True)
    ok = True
    for workload in names:
        print(f"\n{workload}")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            cells = []
            for s in range(SETS):
                series = [r[name] for r in values[s, workload]]
                medians.append(statistics.median(series))
                sp = spread(series)
                ok &= sp <= bound
                cells.append(f"spread {sp:6.2%}")
                if s:
                    w = worsening(medians[0], medians[s], metric["better"])
                    ok &= w <= bound
                    cells.append(f"worse {w:+6.2%}")
            print(f"  {name:<20} bound {bound:5.0%}  median "
                  f"{medians[0]:<11.5g} " + "  ".join(cells))
    print("steady" if ok else "NOT steady: a value is out of its bound")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
