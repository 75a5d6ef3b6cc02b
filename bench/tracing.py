"""Traced-run support: spans recorded from outside the program.

`Tracer.install` wraps public functions of each enaqt module where the
caller looks the name up (for example `enaqt.fmo.transport_result`), so no
file of the package changes. Spans (id, name, start, end, parent) are kept
in memory and written out when the run ends; `layer_metrics` turns them
into the per-layer numbers. A span's self time is its duration minus the
part of its interval that its child spans cover.

Tasks that `run_sweep` hands to pool threads adopt the `run_sweep` span as
their parent, so per-task work is attributed across threads.
"""

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict

# (object holding the name, attribute, span name). Each entry is the place
# a caller looks the function up, so the wrapper sees every call.
SPANS = (
    ("enaqt.cli", "load_fmo_model", "fmo.load_fmo_model"),
    ("enaqt.cli", "dephasing_sweep", "fmo.dephasing_sweep"),
    ("enaqt.cli", "trap_dephasing_surface", "fmo.trap_dephasing_surface"),
    ("enaqt.cli", "disorder_ensemble", "tree.disorder_ensemble"),
    ("enaqt.cli", "propagate", "dynamics.propagate"),
    ("enaqt.cli", "transport_result", "observables.transport_result"),
    ("enaqt.cli", "write_sweep_csv", "cli.write_csv"),
    ("enaqt.cli", "write_surface_csv", "cli.write_csv"),
    ("enaqt.tree:DisorderEnsembleReport", "write_csv", "cli.write_csv"),
    ("enaqt.dynamics:Trajectory", "write_csv", "cli.write_csv"),
    ("enaqt.fmo", "transport_result", "observables.transport_result"),
    ("enaqt.observables", "integrated_state", "dynamics.integrated_state"),
    ("enaqt.observables", "efficiency", "observables.efficiency"),
    ("enaqt.dynamics", "build_liouvillian", "dynamics.build_liouvillian"),
    ("enaqt.tree", "generate_tree", "tree.generate_tree"),
    ("enaqt.tree", "optimal_dephasing", "tree.optimal_dephasing"),
    ("enaqt.tree", "efficiency", "tree.efficiency"),
    ("enaqt.model:TransportSystem", "__post_init__", "model.post_init"),
)
SWEEP_CALLERS = ("enaqt.cli", "enaqt.fmo", "enaqt.tree")

# Per-layer metrics of a traced run, with their units. Durations are sums
# over every call, including calls running concurrently on pool threads.
LAYER_UNITS = {
    "dynamics.integrated_state_calls": "count",
    "dynamics.integrated_state_self_s": "s",
    "dynamics.build_liouvillian_s": "s",
    "dynamics.dense_solve_computed_gflop": "GFLOP",
    "dynamics.propagate_s": "s",
    "dynamics.propagate_samples": "count",
    "tree.optimal_dephasing_calls": "count",
    "tree.optimal_dephasing_self_s": "s",
    "tree.eta_evals_per_opt": "count",
    "tree.dense_solve_computed_gflop": "GFLOP",
    "tree.generate_tree_s": "s",
    "model.systems_built": "count",
    "model.post_init_s": "s",
    "observables.transport_result_self_s": "s",
    "observables.efficiency_calls": "count",
    "sweep.run_sweep_self_s": "s",
    "sweep.tasks": "count",
    "sweep.failed": "count",
    "fmo.load_fmo_model_s": "s",
    "cli.write_s": "s",
    "cli.csv_bytes": "bytes",
    "trace.overhead_s": "s",
}


def _dense_solve_flop_x3(n_sites):
    """3x the flop count of one dense complex LU of the N^2 x N^2
    Liouvillian, (8/3)(N^2)^3, kept as an integer so sums are exact."""
    return 8 * (n_sites * n_sites) ** 3


def _resolve(target):
    module, _, attr = target.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, attr) if attr else obj


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = defaultdict(int)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name, fn, args, kwargs, adopt=None):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter()
        try:
            if adopt is not None:
                args, kwargs = adopt(sid, args, kwargs)
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append((sid, name, start, end, parent))

    def count(self, key, value=1):
        with self._lock:
            self.counters[key] += value

    def wrap(self, name, fn, after=None, adopt=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self._record(name, fn, args, kwargs, adopt)
            if after is not None:
                after(result, *args, **kwargs)
            return result
        return traced

    def span(self, name, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span of the given name."""
        return self._record(name, fn, args, kwargs)

    def _adopting(self, parent, task_fn):
        """task_fn run with `parent` as the open span of whatever thread
        executes it."""
        def task(arg):
            saved = getattr(self._local, "stack", None)
            self._local.stack = [parent]
            try:
                return task_fn(arg)
            finally:
                self._local.stack = saved
        return task

    def install(self):
        after = {
            "dynamics.propagate": lambda traj, *a, **k: self.count(
                "dynamics.propagate_samples", len(traj.times)),
            "dynamics.integrated_state": lambda res, sys, *a, **k: self.count(
                "dynamics.dense_solve_flop_x3",
                _dense_solve_flop_x3(sys.n_sites)),
            "tree.efficiency": lambda res, sys, *a, **k: self.count(
                "tree.dense_solve_flop_x3", _dense_solve_flop_x3(sys.n_sites)),
        }
        for target, attr, name in SPANS:
            owner = _resolve(target)
            setattr(owner, attr,
                    self.wrap(name, getattr(owner, attr), after.get(name)))

        def adopt(sid, args, kwargs):
            plan, task_fn = args[0], args[1]
            return (plan, self._adopting(sid, task_fn)) + tuple(args[2:]), kwargs

        def sweep_counts(results, plan, *a, **k):
            self.count("sweep.tasks", len(plan.tasks))
            self.count("sweep.failed", sum(1 for r in results if not r.ok))

        for module in SWEEP_CALLERS:
            owner = _resolve(module)
            owner.run_sweep = self.wrap("sweep.run_sweep", owner.run_sweep,
                                        after=sweep_counts, adopt=adopt)

    def dump(self, path):
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "counters": dict(self.counters)}, f)


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def span_stats(spans):
    """Per-name call count, total duration and total self time, plus the
    number of tree.efficiency calls made directly inside
    tree.optimal_dephasing."""
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    for sid, _, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    stats = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    evals_in_opt = 0
    for sid, name, start, end, parent in spans:
        st = stats[name]
        st["calls"] += 1
        st["total_s"] += end - start
        st["self_s"] += (end - start) - _covered(children.get(sid, ()),
                                                 start, end)
        if (name == "tree.efficiency" and parent in by_id
                and by_id[parent][1] == "tree.optimal_dephasing"):
            evals_in_opt += 1
    return stats, evals_in_opt


def layer_metrics(trace_doc, csv_bytes):
    """Per-layer metrics of one traced repetition.

    trace_doc is what Tracer.dump wrote. It holds a `cli.main` span for
    each CLI call, which the child process records with Tracer.span.
    """
    stats, evals_in_opt = span_stats(trace_doc["spans"])
    c = trace_doc["counters"]

    def get(name, field):
        return stats[name][field] if name in stats else 0

    opt_calls = get("tree.optimal_dephasing", "calls")
    return {
        "dynamics.integrated_state_calls": get("dynamics.integrated_state", "calls"),
        "dynamics.integrated_state_self_s": get("dynamics.integrated_state", "self_s"),
        "dynamics.build_liouvillian_s": get("dynamics.build_liouvillian", "total_s"),
        "dynamics.dense_solve_computed_gflop":
            c.get("dynamics.dense_solve_flop_x3", 0) / 3e9,
        "dynamics.propagate_s": get("dynamics.propagate", "total_s"),
        "dynamics.propagate_samples": c.get("dynamics.propagate_samples", 0),
        "tree.optimal_dephasing_calls": opt_calls,
        "tree.optimal_dephasing_self_s": get("tree.optimal_dephasing", "self_s"),
        "tree.eta_evals_per_opt": evals_in_opt / opt_calls if opt_calls else 0,
        "tree.dense_solve_computed_gflop":
            c.get("tree.dense_solve_flop_x3", 0) / 3e9,
        "tree.generate_tree_s": get("tree.generate_tree", "total_s"),
        "model.systems_built": get("model.post_init", "calls"),
        "model.post_init_s": get("model.post_init", "total_s"),
        "observables.transport_result_self_s":
            get("observables.transport_result", "self_s"),
        "observables.efficiency_calls": get("observables.efficiency", "calls"),
        "sweep.run_sweep_self_s": get("sweep.run_sweep", "self_s"),
        "sweep.tasks": c.get("sweep.tasks", 0),
        "sweep.failed": c.get("sweep.failed", 0),
        "fmo.load_fmo_model_s": get("fmo.load_fmo_model", "total_s"),
        "cli.write_s": get("cli.write_csv", "total_s") + get("cli.main", "self_s"),
        "cli.csv_bytes": csv_bytes,
    }
