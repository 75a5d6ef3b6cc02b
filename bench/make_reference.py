"""Record the reference outputs the benchmark compares against.

Usage, from the root of a checkout:

    python3 bench/make_reference.py

Runs every workload once at each size through the same child process the
benchmark uses, and copies the CSV outputs into bench/reference/<size>/.
tree_ensemble is recorded for every seed of its pool at the full size, and
for seed 0 at the tiny size. Rerun only when a change is meant to move the
numbers, and say in the change which numbers moved and by how much.
"""

import os
import shutil
import sys
import tempfile

from run import OUT_BASE, execute
from workloads import TREE_SEED_POOL, WORKLOADS, reference_dir


def record(workload, seed, size):
    os.makedirs(OUT_BASE, exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix="ref-", dir=OUT_BASE)
    try:
        _, proc, child = execute(workload, seed, size, False, out_dir)
        if child is None or any(code != 0 for code in child["codes"]):
            raise SystemExit("%s seed %d (%s) failed:\n%s"
                             % (workload, seed, size, proc.stderr))
        dest = reference_dir(workload, seed, size)
        os.makedirs(dest, exist_ok=True)
        for name in sorted(os.listdir(out_dir)):
            if name.endswith(".csv"):
                shutil.copyfile(os.path.join(out_dir, name),
                                os.path.join(dest, name))
        print("recorded %s" % os.path.relpath(dest))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def main():
    for size in ("full", "tiny"):
        for workload in WORKLOADS:
            seeds = range(TREE_SEED_POOL) if (
                workload == "tree_ensemble" and size == "full") else (0,)
            for seed in seeds:
                record(workload, seed, size)
    return 0


if __name__ == "__main__":
    sys.exit(main())
