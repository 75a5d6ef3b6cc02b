import logging

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from enaqt.dynamics import MomentSolver, integrated_state
from enaqt.errors import NumericalConsistencyError
from enaqt.fmo import default_gamma_grid, load_fmo_model
from enaqt.model import InitialState, TransportSystem, initial_density_matrix
from enaqt.observables import (efficiency, loss_probability, transfer_time,
                               transport_result)
from enaqt.tree import TreeSpec, generate_tree, leaf_initial_state
from enaqt.twolevel import TwoLevelParams, to_transport_system

from oracles import (ANGULAR_PER_CM1, hopping_limit, quadrature_integrals,
                     random_density_matrix, random_transport_system)


def synthetic_system(kappa, gamma):
    return TransportSystem(n_sites=2, site_energies=[0.0, 0.0],
                           couplings=[[0.0, 5.0], [5.0, 0.0]],
                           trap_rates=kappa, recomb_rate=gamma,
                           dephasing_rate=0.0)


def test_metric_formulas_on_crafted_moments():
    sys = synthetic_system(kappa=[0.0, 0.5], gamma=0.1)
    s1 = np.diag([0.3, 0.7]).astype(complex)
    s2 = np.diag([0.1, 0.4]).astype(complex)
    eta = efficiency(sys, s1)
    assert eta == pytest.approx(2.0 * 0.5 * 0.7)
    assert loss_probability(sys, s1) == pytest.approx(2.0 * 0.1 * 1.0)
    assert transfer_time(sys, s2, eta) == pytest.approx(
        (2.0 / eta) * 0.5 * 0.4)


def test_tiny_excursions_are_clamped_with_a_warning(caplog):
    sys = synthetic_system(kappa=[0.0, 0.5], gamma=0.0)
    s1 = np.diag([0.0, 1.0 + 4e-9]).astype(complex)
    with caplog.at_level(logging.WARNING):
        assert efficiency(sys, s1) == 1.0
    assert "clamping" in caplog.text
    s1_neg = np.diag([0.0, -4e-9]).astype(complex)
    assert efficiency(sys, s1_neg) == 0.0


def test_large_excursions_raise():
    sys = synthetic_system(kappa=[0.0, 0.5], gamma=0.0)
    s1 = np.diag([0.0, 1.0 + 1e-6]).astype(complex)
    with pytest.raises(NumericalConsistencyError):
        efficiency(sys, s1)


def test_a_nan_moment_raises_rather_than_passing_the_clamp():
    """NaN compares false with both bounds, so a clamp written as
    `value < lo or value > hi` would let it through as the result."""
    sys = synthetic_system(kappa=[0.0, 0.5], gamma=0.1)
    s1 = np.diag([np.nan, 0.2]).astype(complex)
    with pytest.raises(NumericalConsistencyError):
        efficiency(sys, s1)
    with pytest.raises(NumericalConsistencyError):
        loss_probability(sys, s1)


def test_transfer_time_is_infinite_at_zero_efficiency():
    sys = synthetic_system(kappa=[0.0, 0.5], gamma=0.0)
    s2 = np.eye(2, dtype=complex)
    for eta in (0.0, 1e-12):
        assert transfer_time(sys, s2, eta) == float("inf")


def test_untrapped_systems_report_infinite_transfer_time():
    sys = synthetic_system(kappa=[0.0, 0.0], gamma=0.2)
    rho0 = initial_density_matrix(InitialState("site", (1,)), 2)
    res = transport_result(MomentSolver(sys, rho0), sys.dephasing_rate)
    assert res.efficiency == 0.0
    assert res.transfer_time_ps == float("inf")
    assert res.loss_probability == pytest.approx(1.0, abs=1e-10)


def test_efficiency_and_loss_partition_unity():
    rng = np.random.default_rng(21)
    for _ in range(10):
        sys = random_transport_system(rng)
        rho0 = random_density_matrix(rng, sys.n_sites)
        res = transport_result(MomentSolver(sys, rho0), sys.dephasing_rate)
        assert res.efficiency + res.loss_probability == pytest.approx(
            1.0, abs=1e-10)
        assert res.transfer_time_ps > 0.0


def check_exit_time_identities(solver, gamma):
    """At dephasing rate gamma, for solver's system: recombination is uniform, so the loss channel integrates the whole
    trace: loss = 2 Gamma Tr S1, where Tr S1 = E[T_exit] is the mean time
    to leave by either channel, and eta = 1 - 2 Gamma Tr S1. Splitting
    E[T_exit] by channel gives Tr S1 = eta tau + 2 Gamma Tr S2, so the
    mean exit time is at least the trapped residence eta tau."""
    sys = solver.system
    s1, s2 = integrated_state(solver, gamma)
    res = transport_result(solver, gamma)
    mean_exit = float(np.trace(s1).real)
    lost_residence = 2.0 * sys.recomb_rate * float(np.trace(s2).real)
    trapped_residence = res.efficiency * res.transfer_time_ps
    assert abs(res.efficiency
               - (1.0 - 2.0 * sys.recomb_rate * mean_exit)) <= 1e-12
    assert trapped_residence + lost_residence == pytest.approx(mean_exit,
                                                               rel=1e-11)
    assert lost_residence >= 0.0
    assert mean_exit >= trapped_residence


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_exit_time_identities_on_random_systems(seed):
    rng = np.random.default_rng(seed)
    sys = random_transport_system(rng)
    solver = MomentSolver(sys, random_density_matrix(rng, sys.n_sites))
    check_exit_time_identities(solver, sys.dephasing_rate)


def test_exit_time_identities_across_the_fmo_sweep():
    """Every point of the default FMO sweep, the efficiency peak included."""
    model = load_fmo_model()
    solver = MomentSolver(model.system, model.initial_density_matrix())
    for gamma in default_gamma_grid():
        check_exit_time_identities(solver, gamma)


def test_metrics_match_the_quadrature_oracle():
    """eta and tau recomputed from independently integrated moments."""
    rng = np.random.default_rng(23)
    sys = random_transport_system(rng, n=4)
    rho0 = random_density_matrix(rng, 4)
    res = transport_result(MomentSolver(sys, rho0), sys.dephasing_rate)
    q1, q2 = quadrature_integrals(sys, rho0)
    eta_ref = 2.0 * float(sys.trap_rates @ np.real(np.diag(q1)))
    tau_ref = (2.0 / eta_ref) * float(sys.trap_rates @ np.real(np.diag(q2)))
    assert res.efficiency == pytest.approx(eta_ref, rel=1e-7)
    assert res.transfer_time_ps == pytest.approx(tau_ref, rel=1e-7)


def zeno_tolerance(sys, gamma, intermediates):
    """The relative gap that hopping_limit leaves at dephasing rate gamma.

    The rate equation is the leading order in E / gamma, with E the
    spectral norm of the Hamiltonian less its mean site energy (angular
    ps^-1). The first-order correction to a coherence is in phase with it
    and moves no population, so each hopping rate is off by (E / gamma)^2,
    taken here with unit coefficient: the bound falls 100x per decade.
    The rate equation also drops superexchange, the hop across an
    intermediate site at about k^2 / gamma. That route is not drained at
    the intermediate site, so where hops are slower than 2 Gamma its share
    of eta is about 2 Gamma / gamma for each intermediate site on the way:
    first order, with a small coefficient, 1e-3 ps^-1 per site on FMO but
    0.19 ps^-1 per site on a tree (Gamma = 0.005 V), where it dominates
    from gamma ~ 1e4 ps^-1 on."""
    h = (np.diag(sys.site_energies) + sys.couplings) * ANGULAR_PER_CM1
    spread = np.linalg.norm(h - np.mean(sys.site_energies) * ANGULAR_PER_CM1
                            * np.eye(sys.n_sites), 2)
    superexchange = intermediates * 2.0 * sys.recomb_rate / gamma
    return (spread / gamma) ** 2 + superexchange


@pytest.mark.parametrize("gamma", [1e3, 1e4, 1e5])
def test_the_fmo_zeno_end_matches_the_hopping_limit(gamma):
    """At the default sweep's Zeno end (1e5 ps^-1) and two decades below
    it, eta, tau and the loss agree with the rate equation. A route
    between sites of FMO has at most N - 2 = 5 intermediate sites."""
    model = load_fmo_model()
    sys, rho0 = model.system, model.initial_density_matrix()
    got = transport_result(MomentSolver(sys, rho0), gamma)
    eta, tau, loss = hopping_limit(sys, rho0, gamma)
    tol = zeno_tolerance(sys, gamma, sys.n_sites - 2)
    assert abs(eta - got.efficiency) <= tol * got.efficiency
    assert abs(tau - got.transfer_time_ps) <= tol * got.transfer_time_ps
    assert abs(loss - got.loss_probability) <= tol * got.loss_probability


@pytest.mark.parametrize("generation, delta, seed", [(3, 0.0, 2), (4, 1.0, 1),
                                                     (5, 2.0, 3)])
@pytest.mark.parametrize("gamma", [1e3, 1e4, 1e5])
def test_the_tree_zeno_end_matches_the_hopping_limit(generation, delta, seed,
                                                     gamma):
    """On trees eta falls as (k / 2 Gamma)^(g - 1) through the Zeno end,
    to 2e-3 at 1e4 ps^-1 on the generation-5 tree, and the superexchange
    term keeps its relative gap near 2e-6 from there on. The absolute eta
    gap is held to eta times the bound of the g - 2 intermediate sites
    between a leaf and the root."""
    spec = TreeSpec(generation=generation, coupling_cm1=100.0, rng_seed=seed,
                    disorder_cm1=100.0 * delta)
    sys = generate_tree(spec)
    rho0 = initial_density_matrix(leaf_initial_state(spec, "mixture"),
                                  sys.n_sites)
    got = transport_result(MomentSolver(sys, rho0), gamma)
    eta, _, loss = hopping_limit(sys, rho0, gamma)
    tol = zeno_tolerance(sys, gamma, generation - 2)
    assert abs(eta - got.efficiency) <= tol * got.efficiency
    assert abs(loss - got.loss_probability) <= tol * got.efficiency


def test_raising_the_trap_rate_never_hurts_on_the_symmetric_dimer():
    """Regression guard on a fixed grid. This is not a theorem: pushing
    kappa far beyond the coupling eventually suppresses capture (the
    overdamped trap decouples), so the grid deliberately stays below the
    turnover of this configuration."""
    params = TwoLevelParams(0.0, 100.0)
    rho0 = initial_density_matrix(InitialState("site", (1,)), 2)
    etas = []
    for kappa in np.logspace(-1, 1, 9):
        sys = to_transport_system(params, trap_rate_2=kappa, recomb_rate=0.01)
        etas.append(transport_result(MomentSolver(sys, rho0), 1.0).efficiency)
    assert np.all(np.diff(etas) > 0.0)
