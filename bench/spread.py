"""Run the benchmark over several seeds and summarise each metric.

Usage, from the root of a checkout:

    python3 bench/spread.py --workloads fmo_surface trajectory --seeds 1-10

Each run measures for BENCHMARK.json's run_seconds, with --trace 0. For
every workload and end-to-end metric it prints the median, the first and
third quartiles (statistics.quantiles(values, n=4)) and the spread,
(q3 - q1) / median, over the seeds' results. Runs are sequential, one at
a time.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(BENCH_DIR, "run.py")
BENCHMARK_JSON = os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit("%s seed %d failed:\n%s" % (workload, seed, proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(results):
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        summary[name] = {"unit": results[0]["metrics"][name]["unit"],
                         "median": statistics.median(values), "q1": q1,
                         "q3": q3, "spread": (q3 - q1) / median if median else None}
    return summary


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", default="1-10", help="lo-hi, inclusive")
    args = parser.parse_args()
    with open(BENCHMARK_JSON) as f:
        seconds = json.load(f)["run_seconds"]
    for workload in args.workloads:
        results = [run_once(workload, seed, seconds)
                   for seed in parse_seeds(args.seeds)]
        bad = [r for r in results if not r["correct"]]
        print("%s: %d runs, %d incorrect" % (workload, len(results), len(bad)))
        for name, s in summarise(results).items():
            spread = "%.4f" % s["spread"] if s["spread"] is not None else "-"
            print("  %-38s median %-12.6g q1 %-12.6g q3 %-12.6g spread %s %s"
                  % (name, s["median"], s["q1"], s["q3"], spread, s["unit"]))
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
