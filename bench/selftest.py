"""Self-test of the benchmark at tiny sizes.

Usage, from the root of a checkout (about a minute):

    python3 bench/selftest.py

Checks that
- every workload runs, and its outputs pass the checker with no failure;
- traced runs give the expected per-layer counts, identical across
  repetitions;
- a deliberately perturbed reference value, and an output that breaks an
  invariant, each count as failed operations;
- the benchmark refuses to run, printing no result, in a directory that
  holds only BENCHMARK.json and the benchmark's files.
"""

import csv
import json
import os
import shutil
import subprocess
import sys
import tempfile

from check import LOSS_FILE, check_outputs
from run import OUT_BASE, ROOT, execute, run_workload
from tracing import LAYER_UNITS
from workloads import BENCH_DIR, WORKLOADS, operations, reference_dir

# Exact per-layer counts of one traced tiny repetition.
EXPECTED_COUNTS = {
    "fmo_surface": {"dynamics.integrated_state_calls": 6 * (1 + 4),
                    "sweep.tasks": 6 * (1 + 4), "sweep.failed": 0},
    "tree_ensemble": {"tree.optimal_dephasing_calls": 2 * 2 * 1,
                      "tree.eta_evals_per_opt": 57, "sweep.failed": 0},
    "trajectory": {"dynamics.propagate_samples": 20 + 400,
                   "sweep.tasks": 5 + 1},
}

failures = []


def expect(condition, message):
    print("%s  %s" % ("ok  " if condition else "FAIL", message))
    if not condition:
        failures.append(message)


def test_workloads_pass_the_checker():
    for workload in WORKLOADS:
        rec = run_workload(workload, 0, 0, 0, size="tiny", min_reps=1)
        expect(rec["correct"] and rec["failed"] == 0
               and rec["attempted"] == operations(workload, "tiny"),
               "%s: %d of %d operations failed %s" % (
                   workload, rec["failed"], rec["attempted"],
                   rec["reps"][0]["problems"][:3]))


def test_traced_counts_repeat():
    for workload, expected in EXPECTED_COUNTS.items():
        rec = run_workload(workload, 0, 0, 1, size="tiny")
        layers = [r["layers"] for r in rec["reps"] if r["traced"]]
        counts = [{k: v for k, v in lay.items() if LAYER_UNITS[k] != "s"}
                  for lay in layers]
        expect(len(counts) >= 2 and all(c == counts[0] for c in counts),
               "%s: traced counts repeat across %d repetitions"
               % (workload, len(counts)))
        for name, value in expected.items():
            expect(layers[0][name] == value, "%s: %s = %r (expected %r)" % (
                workload, name, layers[0][name], value))
        expect(set(rec["metrics"]) == set(LAYER_UNITS),
               "%s: traced run reports every per-layer metric" % workload)


def _perturb_csv(path, row_index, column, factor):
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        header, rows = reader.fieldnames, list(reader)
    rows[row_index][column] = repr(float(rows[row_index][column]) * factor)
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=header, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def test_checker_flags_perturbations():
    os.makedirs(OUT_BASE, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="selftest-", dir=OUT_BASE)
    try:
        out_fmo = os.path.join(scratch, "fmo")
        os.makedirs(out_fmo)
        execute("fmo_surface", 0, "tiny", False, out_fmo)
        ref = os.path.join(scratch, "ref_fmo")
        shutil.copytree(reference_dir("fmo_surface", 0, "tiny"), ref)
        failed, _ = check_outputs("fmo_surface", out_fmo, ref)
        expect(failed == 0, "unperturbed fmo_surface reference passes")
        _perturb_csv(os.path.join(ref, "fmo_sweep.csv"), 2, "eta", 1.0 + 1e-4)
        failed, problems = check_outputs("fmo_surface", out_fmo, ref)
        expect(failed == 1, "eta perturbed by 1e-4 in one reference row "
               "counts as one failed operation: %s" % problems[:1])

        out_traj = os.path.join(scratch, "traj")
        os.makedirs(out_traj)
        execute("trajectory", 0, "tiny", False, out_traj)
        ref = reference_dir("trajectory", 0, "tiny")
        failed, _ = check_outputs("trajectory", out_traj, ref)
        expect(failed == 0, "trajectory outputs pass before tampering")
        loss_path = os.path.join(out_traj, LOSS_FILE)
        with open(loss_path) as f:
            loss = json.load(f)
        loss[5] += 1e-5
        with open(loss_path, "w") as f:
            json.dump(loss, f)
        failed, problems = check_outputs("trajectory", out_traj, ref)
        expect(failed == 1, "broken trace + loss_integral = 1 on one sample "
               "counts as one failed operation: %s" % problems[:1])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def test_refuses_without_sources():
    os.makedirs(OUT_BASE, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=OUT_BASE)
    try:
        shutil.copytree(BENCH_DIR, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        manifest = os.path.join(ROOT, "BENCHMARK.json")
        if os.path.exists(manifest):
            shutil.copy(manifest, bare)
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "fmo_surface",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               "without sources: exit %d, stdout %r"
               % (proc.returncode, proc.stdout[-200:]))
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    test_workloads_pass_the_checker()
    test_traced_counts_repeat()
    test_checker_flags_perturbations()
    test_refuses_without_sources()
    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
