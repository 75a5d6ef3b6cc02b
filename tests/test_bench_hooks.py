"""The benchmark tracer's hooks still resolve against the package, and a
traced run still works.

bench/tracing.py wraps functions by (owner, attribute) from outside the
package, so renaming or deleting one of them breaks traced benchmark runs.
This imports the tracer as it is, without installing it, and checks every
name it will look up. It then installs the tracer in a child interpreter,
as bench/child.py does, runs small CLI commands under it and checks the
per-layer counts the run reports against the grid and sample sizes.
"""

import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

from enaqt import tree
from enaqt.model import TransportSystem, save_system

ROOT = pathlib.Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize("target, attr, name", tracing.SPANS,
                         ids=["%s.%s" % span[:2] for span in tracing.SPANS])
def test_every_traced_span_resolves(target, attr, name):
    assert callable(getattr(tracing._resolve(target), attr))


@pytest.mark.parametrize("module", tracing.SWEEP_CALLERS)
def test_every_sweep_caller_has_run_sweep(module):
    assert callable(getattr(tracing._resolve(module), "run_sweep"))


# Installs the tracer, runs the CLI argv lists given as JSON in argv[1]
# under a cli.main span each, as bench/child.py does, and writes the spans
# to argv[2].
TRACED_RUN = """
import json, sys
import enaqt.cli as cli
from tracing import Tracer
tracer = Tracer()
tracer.install()
for argv in json.loads(sys.argv[1]):
    if tracer.span("cli.main", cli.main, argv) != 0:
        sys.exit("%r failed" % (argv,))
tracer.dump(sys.argv[2])
"""


def traced_run(tmp_path, argv):
    """(per-layer metrics, {span name: calls}) of one traced CLI run."""
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "bench")]))
    subprocess.run([sys.executable, "-c", TRACED_RUN, json.dumps([argv]),
                    str(spans)], check=True, env=env, cwd=tmp_path)
    doc = json.loads(spans.read_text())
    stats, _ = tracing.span_stats(doc["spans"])
    return (tracing.layer_metrics(doc, 0),
            {name: st["calls"] for name, st in stats.items()})


def test_a_traced_fmo_surface_run_counts_its_grid(tmp_path):
    """4 dephasing rates, and a surface of 4 rates by 3 trap rates: one
    sweep task and one moment solve per grid point, and one dense
    Liouvillian build for the sweep and one per trap rate."""
    metrics, calls = traced_run(tmp_path, [
        "fmo-sweep", "--surface", "--gamma-points", "4",
        "--surface-kappa-points", "3", "--out-dir", str(tmp_path)])
    assert metrics["sweep.failed"] == 0
    assert metrics["sweep.tasks"] == 4 + 4 * 3
    assert metrics["dynamics.integrated_state_calls"] == 4 + 4 * 3
    assert metrics["dynamics.build_liouvillian_s"] > 0.0
    assert calls["dynamics.build_liouvillian"] == 1 + 3


def test_a_traced_propagate_run_counts_its_samples(tmp_path):
    """propagate of a three-site system document reports every sample it
    wrote and the one Liouvillian it built."""
    doc = tmp_path / "system.json"
    save_system(TransportSystem(
        n_sites=3, site_energies=[0.0, 50.0, -20.0],
        couplings=[[0.0, 30.0, 0.0], [30.0, 0.0, 40.0], [0.0, 40.0, 0.0]],
        trap_rates=[0.0, 0.0, 1.0], recomb_rate=0.001, dephasing_rate=2.0),
        str(doc))
    metrics, calls = traced_run(tmp_path, [
        "propagate", "--system", str(doc), "--init", "coherent:1,2",
        "--samples", "9", "--t-final", "1.5", "--out-dir", str(tmp_path)])
    assert metrics["dynamics.propagate_samples"] == 9
    assert metrics["dynamics.propagate_s"] > 0.0
    assert metrics["dynamics.build_liouvillian_s"] > 0.0
    assert calls["dynamics.build_liouvillian"] == 1


def test_a_traced_tree_ensemble_run_counts_its_searches(tmp_path,
                                                        monkeypatch):
    """2 disorder strengths by 2 samples: one sweep task and one search per
    tree, serving both kinds, whose efficiency evaluations per search are
    those the same ensemble makes untraced in this process."""
    metrics, _ = traced_run(tmp_path, [
        "tree-ensemble", "--generation", "4", "--kind", "both",
        "--delta-grid", "0:2:2", "--samples", "2", "--out-dir",
        str(tmp_path)])
    evaluations = []
    real = tree.efficiency

    def counting(solver, trapped, rho0):
        evaluations.append(solver.n_sites)
        return real(solver, trapped, rho0)

    monkeypatch.setattr(tree, "efficiency", counting)
    tree.disorder_ensemble(tree.TreeSpec(generation=4, coupling_cm1=100.0,
                                         rng_seed=2718),
                           [0.0, 2.0], n_samples=2,
                           kinds=("coherent", "mixture"))
    assert metrics["sweep.failed"] == 0
    assert metrics["sweep.tasks"] == 2 * 2
    assert metrics["tree.optimal_dephasing_calls"] == 2 * 2
    assert metrics["tree.eta_evals_per_opt"] == len(evaluations) / (2 * 2)
    # gamma = 0 and the grid, for each of the two kinds, at least.
    assert len(evaluations) >= 2 * 2 * 2 * (1 + tree.SEARCH_GRID_POINTS)


def test_a_traced_two_level_run_counts_its_sweep(tmp_path):
    """two-level's dephasing sweep, gamma = 0 and 5 grid rates: one sweep
    task and one moment solve per rate, and two dense Liouvillian builds,
    one for the propagated oracle and one for the sweep's solver."""
    metrics, calls = traced_run(tmp_path, [
        "two-level", "--gamma-points", "5", "--out-dir", str(tmp_path)])
    assert metrics["sweep.tasks"] == 6
    assert metrics["sweep.failed"] == 0
    assert metrics["dynamics.integrated_state_calls"] == 6
    assert calls["dynamics.build_liouvillian"] == 2
