#!/usr/bin/env python3
"""The benchmark's own test of its input generator: one seed gives
byte-identical inputs on every run, and another seed gives other inputs.

    python3 perfbench/test_inputs.py

Exits 0 when every workload passes.
"""
import filecmp
import os
import shutil
import subprocess
import sys

import run

SEED = 7


def generate(perfbench, workload, seed, directory):
    """Generates into directory/workload; returns its inputs.txt rows."""
    shutil.rmtree(directory, ignore_errors=True)
    subprocess.run([perfbench, "generate", "--workload", workload, "--seed",
                    str(seed), "--dir", directory], check=True,
                   stdout=subprocess.DEVNULL)
    with open(os.path.join(directory, workload, "inputs.txt")) as manifest:
        return [line.split() for line in manifest]


def main():
    binaries = run.build()
    if binaries is None:
        return 2
    perfbench = binaries[0]
    base = os.path.join(run.BUILD_ROOT, "work", "test_inputs-%d" % os.getpid())
    failures = 0
    try:
        for workload in run.WORKLOADS:
            first = generate(perfbench, workload, SEED, os.path.join(base, "a"))
            again = generate(perfbench, workload, SEED, os.path.join(base, "b"))
            other = generate(perfbench, workload, SEED + 1, os.path.join(base, "c"))
            names = [entry[0] for entry in first]
            _, mismatch, errors = filecmp.cmpfiles(
                os.path.join(base, "a", workload), os.path.join(base, "b", workload),
                names, shallow=False)
            same = first == again and not mismatch and not errors
            differs = [e[2] for e in first] != [e[2] for e in other]
            print("%-15s %d files  same seed identical: %s  other seed differs: %s"
                  % (workload, len(first), same, differs))
            failures += (not same) + (not differs)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
