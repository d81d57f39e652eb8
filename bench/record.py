"""Record the digest of every output any seed can draw into expected.json.

    python3 bench/record.py

Run it only on a commit whose outputs are known to be right: every later
run compares its outputs against this table. Each pooled instance must
also pass its oracle, or nothing is written.
"""
import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH_DIR), "src"), BENCH_DIR]

import workloads  # noqa: E402


def main():
    table = {}
    for name in workloads.WORKLOADS:
        digests = table[name] = {}
        for inst in workloads.pool(name):
            out = inst.run()
            inst.oracle(out)
            digests[inst.digest_key] = workloads.digest(inst.document(out))
        print(f"{name}: {len(digests)} digests", flush=True)
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
