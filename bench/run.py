"""enaqt benchmark: one workload, measured for a fixed time.

Usage, from the root of a checkout:

    python3 bench/run.py --workload fmo_surface --seed 1 --seconds 40 --trace 0

Each repetition runs the workload's `enaqt` CLI commands in a fresh
interpreter (bench/child.py), checks every output row (bench/check.py),
and records its timings. Repetitions follow one another (a closed loop
with one client) until the next one would overrun --seconds; the metrics
are medians over repetitions.

--trace 0 reports the end-to-end metrics: cpu_s (user + system CPU time of
the CLI calls, all threads and reaped child processes), ops_per_cpu_s,
setup_s (interpreter start to the first CLI call) and peak_rss_mib (peak
resident memory of the process plus that of its largest reaped child
process, so work moved into worker processes still counts). It
also prints wall_s (wall time of the CLI calls) and ops_per_s, and the
error rate, which is the result's failed / attempted.
--trace 1 alternates untraced and traced repetitions and prints the
per-layer metrics of the traced ones (bench/tracing.py), plus
trace.overhead_s, the traced minus the untraced median cpu_s.

The last line of standard output is one JSON object; the lines before it
show every metric with its unit. A full record, with the machine block,
goes to .bench_out/results/.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from check import check_outputs
from tracing import LAYER_UNITS, layer_metrics
from workloads import (BENCH_DIR, FMO_SYSTEM_DOC, SIZES, WORKLOADS, commands,
                       operations, reference_dir)

ROOT = os.path.dirname(BENCH_DIR)
CHILD = os.path.join(BENCH_DIR, "child.py")
OUT_BASE = os.path.join(ROOT, ".bench_out")
CHILD_TIMEOUT_S = 120

END_TO_END = (("cpu_s", "s"), ("ops_per_cpu_s", "1/s"), ("setup_s", "s"),
               ("peak_rss_mib", "MiB"))
# Printed and recorded, but not in the result line's metrics: on a VM whose
# host takes CPU time away (steal), wall time moved by up to 2x between
# runs while CPU time stayed within a few percent (bench/README.md).
WALL_CLOCK = (("wall_s", "s"), ("ops_per_s", "1/s"))


class BenchmarkError(Exception):
    pass


def _git_commit(root):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def machine_block(root, versions, loadavg_start):
    """Where and how the run happened; thread settings are recorded, not set.
    versions are the numpy, scipy and BLAS versions the warm-up child saw."""
    block = {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "num_threads_env": {k: v for k, v in sorted(os.environ.items())
                            if k.endswith("_NUM_THREADS")},
        "git_commit": _git_commit(root),
        "loadavg_start": loadavg_start,
    }
    block.update(versions)
    return block


def _run_child(spec, work_dir):
    spec_path = os.path.join(work_dir, "spec.json")
    with open(spec_path, "w") as f:
        json.dump(spec, f)
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, CHILD, spec_path],
                          capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    return t0, proc


def execute(workload, seed, size, traced, out_dir):
    """Run one repetition's CLI commands in a fresh interpreter, writing
    into out_dir. Returns (start time, process, child report or None)."""
    spec = {"src": os.path.join(ROOT, "src"), "out_dir": out_dir,
            "trace": traced,
            "commands": commands(workload, seed, size, out_dir),
            "system_doc": FMO_SYSTEM_DOC if workload == "trajectory" else None}
    t0, proc = _run_child(spec, out_dir)
    try:
        with open(os.path.join(out_dir, "child.json")) as f:
            return t0, proc, json.load(f)
    except (OSError, ValueError):
        return t0, proc, None


def run_rep(workload, seed, size, traced, work_base):
    """One repetition: run, time, check. Returns a record of it."""
    out_dir = tempfile.mkdtemp(prefix="rep-", dir=work_base)
    ops = operations(workload, size)
    rep = {"traced": traced, "ops": ops}
    try:
        try:
            t0, proc, child = execute(workload, seed, size, traced, out_dir)
        except subprocess.TimeoutExpired:
            rep.update(failed=ops, problems=["timed out after %d s"
                                             % CHILD_TIMEOUT_S])
            return rep
        if child is None:
            rep.update(failed=ops, problems=["child exited %d: %s" % (
                proc.returncode, proc.stderr.strip()[-2000:])])
            return rep
        wall = child["t_end"] - child["t_call"]
        rep.update(setup_s=child["t_call"] - t0, wall_s=wall,
                   ops_per_s=ops / wall,
                   peak_rss_mib=(child["maxrss_kib"]
                                 + child["maxrss_children_kib"]) / 1024.0,
                   cpu_s=child["cpu_s"],
                   ops_per_cpu_s=ops / child["cpu_s"],
                   cli_codes=child["codes"])
        failed, problems = check_outputs(
            workload, out_dir, reference_dir(workload, seed, size),
            samples=SIZES[size]["tree_ensemble"]["samples"])
        if any(code != 0 for code in child["codes"]):
            failed = ops
            problems.insert(0, "CLI exit codes %s: %s" % (
                child["codes"], proc.stderr.strip()[-2000:]))
        rep.update(failed=min(failed, ops), problems=problems[:20])
        if traced:
            csv_bytes = sum(os.path.getsize(os.path.join(out_dir, n))
                            for n in os.listdir(out_dir) if n.endswith(".csv"))
            with open(os.path.join(out_dir, "spans.json")) as f:
                rep["layers"] = layer_metrics(json.load(f), csv_bytes)
        return rep
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarize(reps, trace):
    """Median metrics over repetitions, with quartiles for the record."""
    timed = [r for r in reps if "wall_s" in r]
    if not timed:
        raise BenchmarkError("no repetition produced timings: %s"
                             % reps[-1]["problems"])
    plain = [r for r in timed if not r["traced"]]
    traced = [r for r in timed if r["traced"]]
    if not trace:
        names = [n for n, _ in END_TO_END + WALL_CLOCK]
        return {n: statistics.median(r[n] for r in plain) for n in names}, \
            {n: _quartiles([r[n] for r in plain]) for n in names}
    if not (plain and traced):
        raise BenchmarkError("traced run needs traced and untraced timings")
    names = list(traced[0]["layers"])
    metrics = {n: statistics.median(r["layers"][n] for r in traced)
               for n in names}
    metrics["trace.overhead_s"] = (statistics.median(r["cpu_s"] for r in traced)
                                   - statistics.median(r["cpu_s"] for r in plain))
    spread = {n: _quartiles([r["layers"][n] for r in traced]) for n in names}
    return metrics, spread


def run_workload(workload, seed, seconds, trace, size="full", min_reps=3):
    """Measure one workload for about `seconds`; returns the full record."""
    if not os.path.isfile(os.path.join(ROOT, "src", "enaqt", "cli.py")):
        raise BenchmarkError("no enaqt sources under %s" % os.path.join(ROOT, "src"))
    loadavg = list(os.getloadavg())
    work_base = os.path.join(OUT_BASE, "work")
    os.makedirs(work_base, exist_ok=True)
    if trace:
        min_reps = max(min_reps, 4)

    # Warm-up: byte-compile and page in the package before timing.
    warm_dir = tempfile.mkdtemp(prefix="warm-", dir=work_base)
    try:
        _, proc = _run_child({"src": os.path.join(ROOT, "src"), "warmup": True},
                             warm_dir)
    finally:
        shutil.rmtree(warm_dir, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchmarkError("cannot import enaqt: %s" % proc.stderr.strip())
    machine = machine_block(ROOT, json.loads(proc.stdout), loadavg)

    reps = []
    start = time.monotonic()
    while True:
        traced = bool(trace) and len(reps) % 2 == 1
        reps.append(run_rep(workload, seed, size, traced, work_base))
        elapsed = time.monotonic() - start
        if "wall_s" not in reps[-1]:
            break
        enough = len(reps) >= min_reps and (not trace or len(reps) % 2 == 0)
        if enough and elapsed * (len(reps) + 1) / len(reps) > seconds:
            break

    metrics, quartiles = summarize(reps, trace)
    attempted = sum(r["ops"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": int(bool(trace)), "size": size, "machine": machine,
            "measured_s": elapsed, "repetitions": len(reps),
            "attempted": attempted, "failed": failed,
            "error_rate": failed / attempted, "correct": failed == 0,
            "metrics": metrics, "quartiles": quartiles, "reps": reps}


def write_record(record):
    results = os.path.join(OUT_BASE, "results")
    os.makedirs(results, exist_ok=True)
    path = os.path.join(results, "%s-seed%d-trace%d-%s-%d.json" % (
        record["workload"], record["seed"], record["trace"],
        time.strftime("%Y%m%dT%H%M%S"), os.getpid()))
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
    return path


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except BenchmarkError as exc:
        print("benchmark error: %s" % exc, file=sys.stderr)
        return 2
    path = write_record(record)

    units = dict(END_TO_END + WALL_CLOCK, **LAYER_UNITS)
    reported = LAYER_UNITS if record["trace"] else dict(END_TO_END)
    print("workload %s  seed %d  %d repetitions in %.1f s  (record: %s)" % (
        record["workload"], record["seed"], record["repetitions"],
        record["measured_s"], os.path.relpath(path, ROOT)))
    for name, value in record["metrics"].items():
        unit = units[name]
        q = record["quartiles"].get(name)
        extra = "  (q1 %.6g, q3 %.6g)" % tuple(q) if q else ""
        print("  %-40s %.6g %s%s" % (name, value, unit, extra))
    print("  %-40s %.6g  (%d of %d operations failed)" % (
        "error_rate", record["error_rate"], record["failed"],
        record["attempted"]))
    for rep in record["reps"]:
        for problem in rep["problems"][:5]:
            print("  check: %s" % problem)
    print(json.dumps({
        "correct": record["correct"], "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value,
                           "unit": units[name]}
                    for name, value in record["metrics"].items()
                    if name in reported}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
