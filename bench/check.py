"""Correctness check of one repetition's CLI outputs.

Every output row is compared with the reference row recorded from the
reference commit (bench/reference/), and invariants are checked that hold
for any correct run. A row that breaks either counts as failed
operations: one per row, except that a tree-ensemble row stands for
`samples` realisations.

Columns an output adds beyond the reference's are not checked. The
tolerances allow the <= 1e-9 drift that a restructured moment solver or an
exact propagator may introduce, and catch a 1e-4 relative change of any
eta, tau or loss:
- moment-based numbers (eta, tau, loss, ensemble eta means and stds):
  relative 1e-6, absolute 1e-9;
- grid coordinates: relative 1e-12;
- optimal dephasing rates: 1% of the row's mean optimum; the golden-section
  search that finds them stops at a relative bracket of 1e-3, so a
  near-tie decided differently can move them by about that much;
- sampled populations, traces and coherences of trajectories: absolute
  1e-6, well above the error of the RK4 integrator at its default rtol.
"""

import csv
import json
import math
import os

MOMENT = ("rel", 1e-6, 1e-9)
GRID = ("rel", 1e-12, 0.0)
SAMPLED = ("rel", 0.0, 1e-6)
GAMMA_OPT = ("row", 1e-2, "gamma_opt_mean_ps")
EXACT = ("exact",)
UNCHECKED = ("skip",)

ETA_LOSS_TOL = 1e-8          # |eta + loss - 1| on sweep rows
TRACE_LOSS_TOL = 1e-7        # |trace + loss_integral - 1| on trajectory rows
TWO_LEVEL_ABS_ERROR_MAX = 1e-7   # closed form vs propagated P2, today <= 1e-10

# Written by the benchmark's child process: the loss integral of the
# `propagate` trajectory, one value per trajectory.csv row.
LOSS_FILE = "trajectory_loss.json"


SWEEP_COLUMNS = {"gamma_phi_ps^-1": GRID, "eta": MOMENT, "tau_ps": MOMENT,
                 "loss": MOMENT}
TREE_COLUMNS = {"delta_over_V": GRID, "kind": EXACT, "n_ok": EXACT,
                "eta_quantum_mean": MOMENT, "eta_quantum_std": MOMENT,
                "eta_opt_mean": MOMENT, "eta_opt_std": MOMENT,
                "gamma_opt_mean_ps": GAMMA_OPT, "gamma_opt_std_ps": GAMMA_OPT}


def _sweep_invariants(row, ctx):
    eta, loss = float(row["eta"]), float(row["loss"])
    tau = float(row["tau_ps"])
    if not 0.0 <= eta <= 1.0:
        return "eta %r outside [0, 1]" % eta
    if abs(eta + loss - 1.0) > ETA_LOSS_TOL:
        return "eta + loss - 1 = %.3e" % (eta + loss - 1.0)
    if not (math.isfinite(tau) and tau > 0.0):
        return "tau %r not finite and positive" % tau
    return None


def _surface_invariants(row, ctx):
    tau = float(row["tau_ps"])
    if not (math.isfinite(tau) and tau > 0.0):
        return "tau %r not finite and positive" % tau
    return None


def _tree_invariants(row, ctx):
    if int(row["n_ok"]) != ctx["samples"]:
        return "n_ok %s of %d samples" % (row["n_ok"], ctx["samples"])
    eta_q, eta_o = float(row["eta_quantum_mean"]), float(row["eta_opt_mean"])
    if not (0.0 <= eta_q <= 1.0 and 0.0 <= eta_o <= 1.0):
        return "ensemble eta outside [0, 1]"
    if eta_o < eta_q - 1e-12:
        return "optimised eta %r below coherent eta %r" % (eta_o, eta_q)
    return None


def _trajectory_invariants(row, ctx):
    loss = ctx["loss"]
    if loss is None or ctx["index"] >= len(loss):
        return "no loss integral recorded for this sample"
    budget = float(row["trace"]) + loss[ctx["index"]]
    if abs(budget - 1.0) > TRACE_LOSS_TOL:
        return "trace + loss_integral - 1 = %.3e" % (budget - 1.0)
    return None


def _oracle_invariants(row, ctx):
    err = float(row["abs_error"])
    if not err <= TWO_LEVEL_ABS_ERROR_MAX:
        return "two-level abs_error %r above %g" % (err, TWO_LEVEL_ABS_ERROR_MAX)
    return None


def _trajectory_columns(header):
    return {col: (GRID if col == "t_ps" else SAMPLED) for col in header}


# file -> (column rules, or a function of the header; invariant check;
#          operations per row)
FILES = {
    "fmo_surface": {
        "fmo_sweep.csv": (SWEEP_COLUMNS, _sweep_invariants, 1),
        "fmo_surface.csv": ({"gamma_phi": GRID, "kappa_3": GRID,
                             "tau_ps": MOMENT}, _surface_invariants, 1),
    },
    "tree_ensemble": {
        "tree_ensemble_coherent.csv": (TREE_COLUMNS, _tree_invariants,
                                       "samples"),
        "tree_ensemble_mixture.csv": (TREE_COLUMNS, _tree_invariants,
                                      "samples"),
    },
    "trajectory": {
        "trajectory.csv": (_trajectory_columns, _trajectory_invariants, 1),
        "two_level_oracle.csv": ({"t_ps": GRID, "p2_oracle": MOMENT,
                                  "p2_propagated": SAMPLED,
                                  "abs_error": UNCHECKED},
                                 _oracle_invariants, 1),
        "two_level_enaqt.csv": (SWEEP_COLUMNS, _sweep_invariants, 1),
    },
}


def _read_csv(path):
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        return reader.fieldnames or [], list(reader)


def _value_problem(rule, col, got, ref, ref_row):
    kind = rule[0]
    if kind == "skip":
        return None
    if kind == "exact":
        return None if got == ref else "%s: %r != reference %r" % (col, got, ref)
    g, r = float(got), float(ref)
    if kind == "rel":
        tol = rule[2] + rule[1] * abs(r)
    else:
        tol = rule[1] * abs(float(ref_row[rule[2]]))
    if not abs(g - r) <= tol:
        return "%s: %r vs reference %r (tolerance %.3g)" % (col, g, r, tol)
    return None


def _load_loss(out_dir):
    path = os.path.join(out_dir, LOSS_FILE)
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f)


def check_outputs(workload, out_dir, ref_dir, samples=1):
    """Check one repetition. Returns (failed_operations, problems), where
    problems lists one message per failing row."""
    loss = _load_loss(out_dir) if workload == "trajectory" else None
    failed = 0
    problems = []
    for name, (columns, invariant, weight) in FILES[workload].items():
        per_row = samples if weight == "samples" else weight
        ref_header, ref_rows = _read_csv(os.path.join(ref_dir, name))
        out_path = os.path.join(out_dir, name)
        if not os.path.exists(out_path):
            failed += per_row * len(ref_rows)
            problems.append("%s: missing" % name)
            continue
        header, rows = _read_csv(out_path)
        missing = [col for col in ref_header if col not in header]
        if missing:
            failed += per_row * len(ref_rows)
            problems.append("%s: columns %s missing" % (name, missing))
            continue
        rules = columns(ref_header) if callable(columns) else columns
        n_unmatched = abs(len(rows) - len(ref_rows))
        if n_unmatched:
            failed += per_row * n_unmatched
            problems.append("%s: %d rows, reference has %d"
                            % (name, len(rows), len(ref_rows)))
        for i, (row, ref_row) in enumerate(zip(rows, ref_rows)):
            try:
                problem = next((p for p in (
                    _value_problem(rules[col], col, row[col], ref_row[col],
                                   ref_row) for col in ref_header) if p), None)
                if problem is None:
                    problem = invariant(row, {"samples": samples, "index": i,
                                              "loss": loss})
            except (KeyError, ValueError, TypeError) as exc:
                problem = "unreadable row: %s" % exc
            if problem:
                failed += per_row
                problems.append("%s row %d: %s" % (name, i + 1, problem))
    return failed, problems
