"""One set-up probe, run by run.py in a fresh interpreter.

    python3 bench/setup_probe.py WORKLOAD SEED

Times ``import tropchow`` plus building the seeded inputs, then, in the
same interpreter, the import of a fixed set of stdlib modules that
tropchow does not use. Prints both times in seconds. The second one is the
yardstick run.py divides the first by: both are the same kind of work in
the same process, so the machine's speed at that moment cancels.
Nothing but importlib, os, sys and time is imported before the timer
starts, so no module tropchow needs is loaded ahead of it.
"""
import importlib
import os
import sys
import time

REFERENCE_IMPORTS = ("email.parser", "http.client", "xml.dom.minidom",
                     "unittest", "logging", "configparser", "csv",
                     "calendar")


def main(workload, seed):
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    sys.path[:0] = [os.path.join(os.path.dirname(bench_dir), "src"),
                    bench_dir]
    t0 = time.perf_counter()
    import workloads
    workloads.instances(workload, seed)
    setup = time.perf_counter() - t0
    t0 = time.perf_counter()
    for name in REFERENCE_IMPORTS:
        importlib.import_module(name)
    reference = time.perf_counter() - t0
    print(repr(setup), repr(reference), flush=True)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
