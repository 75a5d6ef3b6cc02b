"""Workload definitions: the CLI commands each workload runs, at two sizes.

Every workload is a closed loop with one client: one `enaqt` CLI run at a
time, each in a fresh interpreter. `full` is what the benchmark measures;
`tiny` is what the self-test runs. Why each workload exists is in
bench/README.md.
"""

import os

WORKLOADS = ("fmo_surface", "tree_ensemble", "trajectory")

# tree-ensemble reference outputs are stored for master seeds 0..15; the
# benchmark seed picks one of them (seed mod 16), so every row of every run
# is compared against a recorded output of the reference commit.
TREE_SEED_POOL = 16

SIZES = {
    "full": {
        "fmo_surface": {"gamma_points": 56, "kappa_points": 28},
        "tree_ensemble": {"deltas": 3, "samples": 2},
        "trajectory": {"t_final": 3.0, "samples": 500, "gamma_points": 40},
    },
    "tiny": {
        "fmo_surface": {"gamma_points": 6, "kappa_points": 4},
        "tree_ensemble": {"deltas": 2, "samples": 1},
        "trajectory": {"t_final": 1.0, "samples": 20, "gamma_points": 5},
    },
}

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(BENCH_DIR, "reference")

# Written by the workload's set-up step (the bundled FMO system with
# gamma_phi = 0) and read back by `enaqt propagate`.
FMO_SYSTEM_DOC = "fmo_gamma0_system.json"


def tree_seed(seed):
    return int(seed) % TREE_SEED_POOL


def commands(workload, seed, size, out_dir):
    """CLI argv lists for one repetition, run in order in one process."""
    p = SIZES[size][workload]
    if workload == "fmo_surface":
        return [["fmo-sweep", "--surface", "--width", "2",
                 "--gamma-points", str(p["gamma_points"]),
                 "--surface-kappa-points", str(p["kappa_points"]),
                 "--out-dir", out_dir]]
    if workload == "tree_ensemble":
        return [["tree-ensemble", "--generation", "4", "--kind", "both",
                 "--width", "1", "--delta-grid", "0:4:%d" % p["deltas"],
                 "--samples", str(p["samples"]),
                 "--seed", str(tree_seed(seed)), "--out-dir", out_dir]]
    if workload == "trajectory":
        return [["propagate", "--system", os.path.join(out_dir, FMO_SYSTEM_DOC),
                 "--init", "mixture:1,6", "--samples", str(p["samples"]),
                 "--out-dir", out_dir, "--t-final", repr(p["t_final"])],
                ["two-level", "--gamma-points", str(p["gamma_points"]),
                 "--out-dir", out_dir]]
    raise ValueError("unknown workload %r" % (workload,))


def operations(workload, size):
    """Operations one repetition attempts: grid points for fmo_surface,
    realisations for tree_ensemble, output sample rows for trajectory."""
    p = SIZES[size][workload]
    if workload == "fmo_surface":
        return p["gamma_points"] * (1 + p["kappa_points"])
    if workload == "tree_ensemble":
        return 2 * p["deltas"] * p["samples"]
    if workload == "trajectory":
        # propagate rows + two-level oracle rows (fixed at 400 by the CLI)
        # + two-level sweep rows (gamma = 0 plus the log grid).
        return p["samples"] + 400 + p["gamma_points"] + 1
    raise ValueError("unknown workload %r" % (workload,))


def reference_dir(workload, seed, size):
    parts = [REFERENCE_DIR, size, workload]
    if workload == "tree_ensemble":
        parts.append("seed_%02d" % tree_seed(seed))
    return os.path.join(*parts)
