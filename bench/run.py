"""Benchmark of tropchow's exact kernels; see README.md in this directory.

    python3 bench/run.py --workload blowup2 --seed 1 --seconds 38 --trace 0

With ``--trace 0`` it repeats passes over the seeded instance set for the
given seconds and prints the end-to-end metrics; with ``--trace 1`` it
makes one untraced and one traced pass and prints the per-layer metrics.
Without the package's source in ``src/`` beside this directory it exits
with an error and prints no result.
Every output is checked outside the timed region. The last line of stdout
is one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import cProfile
import gc
import json
import math
import os
import pstats
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")
SETUP_PROBES = 15         # fresh interpreters timed for setup_s
# setup_s is given in seconds of a machine on which setup_probe.py's
# reference imports take this long (about their median where it was tuned)
REFERENCE_IMPORT_SECONDS = 0.05
REF_CALLS = 3             # reference-kernel calls between two instances
LINE_BLOWUP_REFUSALS = ("does not factor", "cone contains a line")
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)

sys.path[:0] = [SRC_DIR, BENCH_DIR]

from refkernel import DETERMINANT, ref_kernel  # noqa: E402


def _import_workloads():
    """Import the package from this checkout's src/, or exit with an error."""
    try:
        import tropchow
        import workloads
    except ImportError as e:
        sys.exit(f"error: cannot import tropchow from {SRC_DIR}: {e}")
    if not os.path.abspath(tropchow.__file__).startswith(SRC_DIR + os.sep):
        sys.exit(f"error: tropchow imported from {tropchow.__file__}, "
                 f"not from {SRC_DIR}")
    return workloads


def setup_seconds(workload, seed):
    """Set-up time, ``import tropchow`` plus the seeded inputs, in fresh
    interpreters. Each probe is divided by the reference imports timed in
    the same interpreter; the median ratio is given in seconds at
    REFERENCE_IMPORT_SECONDS. Returns that and the median raw seconds."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "setup_probe.py"),
           workload, str(seed)]
    raw, ratios = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.exit(f"error: setup probe failed: {proc.stderr.strip()}")
        setup, reference = map(float, proc.stdout.split())
        raw.append(setup)
        ratios.append(setup / reference)
    return (statistics.median(ratios) * REFERENCE_IMPORT_SECONDS,
            statistics.median(raw))


def _ref_samples():
    out = []
    for _ in range(REF_CALLS):
        t0 = time.perf_counter()
        ref_kernel()
        out.append(time.perf_counter() - t0)
    return out


class Outcomes:
    """Executions, failures and check results over a run. Every output is
    compared with its recorded digest; the oracle runs on an instance's
    first output, which later outputs must then equal."""

    def __init__(self, workloads, expected):
        self.workloads = workloads
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.errors = {}
        self.oracle_done = set()

    def record(self, inst, out, error):
        self.attempted += 1
        if error is None:
            first = inst.name not in self.oracle_done
            self.oracle_done.add(inst.name)
            try:
                self.workloads.check(inst, out, self.expected, first)
            except Exception as e:  # a check that cannot run is a failure
                error = e
        if error is not None:
            self.failed += 1
            self.errors.setdefault(inst.name, f"{type(error).__name__}: "
                                               f"{error}")


def _execute(inst):
    try:
        return inst.run(), None
    except Exception as e:  # counted and reported, never dropped
        return None, e


def timed_passes(instances, outcomes, seconds):
    """Whole passes until the next one would overrun ``seconds``. Each
    execution's time is divided by the median of the reference-kernel
    calls right before and right after it. Per instance, returns the
    median over passes of that ratio, of its seconds and of the
    reference seconds."""
    samples = [[] for _ in instances]  # (ratio, seconds, ref) per pass
    start = time.perf_counter()
    passes = 0
    before = _ref_samples()
    while True:
        t_pass = time.perf_counter()
        for i, inst in enumerate(instances):
            t0 = time.perf_counter()
            out, error = _execute(inst)
            elapsed = time.perf_counter() - t0
            after = _ref_samples()
            ref = statistics.median(before + after)
            samples[i].append((elapsed / ref, elapsed, ref))
            outcomes.record(inst, out, error)
            del out
            gc.collect()
            before = _ref_samples()
        passes += 1
        now = time.perf_counter()
        if now + (now - t_pass) > start + seconds:
            break
    return [tuple(map(statistics.median, zip(*s))) for s in samples], passes


def tail_percentile(values):
    """Highest percentile of TAIL_PERCENTILES with at least ten values
    above it (nearest rank): (percentile, value)."""
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return 50, ordered[math.ceil(n / 2) - 1]


def end_to_end(workload, seed, seconds, instances, outcomes):
    setup_s, setup_raw = setup_seconds(workload, seed)
    per_instance, passes = timed_passes(instances, outcomes, seconds)
    norm = [x for x, _, _ in per_instance]
    families = {}
    print(f"{'instance (medians over passes)':<72} {'seconds':>9} "
          f"{'ref_s':>9} {'ref':>9}")
    for inst, (x, b, r) in zip(instances, per_instance):
        print(f"{inst.name[:72]:<72} {b:9.4f} {r:9.6f} {x:9.1f}")
        fam = families.setdefault(inst.family, [0, 0.0, 0.0])
        fam[0] += 1
        fam[1] += b
        fam[2] += x
    for name, (count, secs, units) in families.items():
        print(f"family {name}: {count} instances, {secs:.3f} s, "
              f"{units:.1f} ref")
    p, tail = tail_percentile(norm)
    above = sum(x > tail for x in norm)
    print(f"passes {passes}; reference kernel median "
          f"{statistics.median(r for _, _, r in per_instance):.6f} s; "
          f"raw pass {sum(b for _, b, _ in per_instance):.3f} s; "
          f"raw setup {setup_raw:.4f} s")
    print(f"instance_ref_tail is p{p:g} of {len(norm)} instances, "
          f"{above} above it")
    return {
        "solve_ref": (sum(norm), "ref"),
        "instance_ref_p50": (statistics.median(norm), "ref"),
        "instance_ref_tail": (tail, "ref"),
        "setup_s": (setup_s, "s"),
    }


def per_layer(instances, outcomes):
    """One untraced pass, then one pass under cProfile and the wrappers."""
    import layers
    untraced = 0.0
    for inst in instances:
        t0 = time.perf_counter()
        out, error = _execute(inst)
        untraced += time.perf_counter() - t0
        outcomes.record(inst, out, error)
        del out
        gc.collect()
    rec = layers.Recorder()
    prof = cProfile.Profile()
    undo = layers.install(rec)
    traced = 0.0
    try:
        for i, inst in enumerate(instances):
            rec.instance = i
            rec.active = True
            t0 = time.perf_counter()
            prof.enable()
            out, error = _execute(inst)
            prof.disable()
            traced += time.perf_counter() - t0
            rec.active = False
            outcomes.record(inst, out, error)
            del out
            gc.collect()
    finally:
        layers.uninstall(undo)
    metrics = layers.layer_profile(pstats.Stats(prof).stats)
    metrics.update(layers.recorder_metrics(rec))
    metrics["trace.overhead_ratio"] = (traced / untraced, "1")
    print(f"untraced pass {untraced:.3f} s, traced pass {traced:.3f} s")
    for label in sorted(rec.calls):
        print(f"wrapped {label}: {rec.calls[label]} calls, "
              f"{rec.seconds[label]:.3f} s inclusive")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=38)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workloads = _import_workloads()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {workloads.WORKLOADS}")
    if ref_kernel() != DETERMINANT:
        sys.exit("error: reference kernel gives a wrong determinant")
    instances = workloads.instances(args.workload, args.seed)
    outcomes = Outcomes(workloads, workloads.load_expected()[args.workload])
    if args.trace:
        metrics = per_layer(instances, outcomes)
    else:
        metrics = end_to_end(args.workload, args.seed, args.seconds,
                             instances, outcomes)
        metrics["peak_rss_mib"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
    if args.workload == "rank3":
        report_line_blowups(workloads, args.seed, outcomes)
    for name, error in outcomes.errors.items():
        print(f"FAILED {name}: {error}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": outcomes.failed == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


def report_line_blowups(workloads, seed, outcomes):
    """The rank-3 line blowups that the stellar-tower defect refuses are
    run once, after the metrics are taken, and reported here. A refusal
    is the ValueError of that defect; any other exception, and an answer
    that fails its oracle, counts as a failed execution."""
    refused = 0
    probes = workloads.line_blowup_probes(seed)
    for inst in probes:
        out, error = _execute(inst)
        if (isinstance(error, ValueError)
                and any(m in str(error) for m in LINE_BLOWUP_REFUSALS)):
            refused += 1
            print(f"line blowup refused (known defect): {inst.name}: {error}")
            continue
        outcomes.attempted += 1
        if error is None:
            try:
                inst.oracle(out)
                print(f"line blowup verified: {inst.name}")
                continue
            except Exception as e:  # a check that cannot run is a failure
                error = e
        outcomes.failed += 1
        outcomes.errors[inst.name] = f"{type(error).__name__}: {error}"
    print(f"known defect: {refused} of {len(probes)} line blowups refused")


if __name__ == "__main__":
    sys.exit(main())
