"""Shared fixtures.

The heavyweight computations (the default FMO sweep and surface, the
binary-tree disorder ensembles) are session-scoped so the acceptance tests
share one solve. The acceptance tests each append a one-line verdict to
ACCEPTANCE_LINES before asserting; the terminal-summary hook prints the
collected lines at the end of the run whether or not the assertions held.
"""

import time

import pytest

from enaqt import cli, dynamics, fmo
from enaqt.fmo import dephasing_sweep, load_fmo_model, trap_dephasing_surface
from enaqt.tree import TreeSpec, disorder_ensemble

ACCEPTANCE_LINES = []

ENSEMBLE_SPEC = TreeSpec(generation=4, coupling_cm1=100.0, rng_seed=20240817)
ENSEMBLE_SAMPLES = 100


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


@pytest.fixture
def expm_calls(monkeypatch):
    """Count the matrix exponentials propagate computes: returns a list
    whose length is the number of dynamics.expm calls made so far."""
    calls = []
    real = dynamics.expm

    def counting(a):
        calls.append(a.shape)
        return real(a)

    monkeypatch.setattr(dynamics, "expm", counting)
    return calls


@pytest.fixture
def solver_builds(monkeypatch):
    """Count the MomentSolvers the sweeps build: returns a list whose length
    is the number of MomentSolver constructions by enaqt.fmo and enaqt.cli
    so far."""
    builds = []
    real = dynamics.MomentSolver

    def counting(sys, rho0):
        builds.append(sys.n_sites)
        return real(sys, rho0)

    for module in (fmo, cli):
        monkeypatch.setattr(module, "MomentSolver", counting)
    return builds


@pytest.fixture
def pair_product_builds(monkeypatch):
    """Count the eigenbasis routes that build their capacitance pair
    products: returns a list with one entry per build so far."""
    builds = []
    products = vars(dynamics._Eigenbasis)["_pair_products"]
    real = products.func

    def counting(eigen):
        builds.append(eigen)
        return real(eigen)

    monkeypatch.setattr(products, "func", counting)
    return builds


@pytest.fixture(scope="session")
def fmo_model():
    return load_fmo_model()


@pytest.fixture(scope="session")
def fmo_sweep_results(fmo_model):
    """The default 60-point dephasing sweep, (gamma, TransportResult) pairs."""
    return dephasing_sweep(fmo_model)


@pytest.fixture(scope="session")
def fmo_surface(fmo_model):
    """The default 60 x 25 transfer-time surface."""
    return trap_dephasing_surface(fmo_model)


@pytest.fixture(scope="session")
def tree_reports():
    """Generation-4 disorder ensembles for both initial-state kinds, from
    one call that solves each tree once for both.

    Returns ({kind: DisorderEnsembleReport}, elapsed_seconds); the elapsed
    time feeds the runtime acceptance bound.
    """
    t0 = time.perf_counter()
    reports = disorder_ensemble(ENSEMBLE_SPEC, n_samples=ENSEMBLE_SAMPLES,
                                kinds=("mixture", "coherent"))
    return reports, time.perf_counter() - t0
