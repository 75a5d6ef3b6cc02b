import logging

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from enaqt.dynamics import MomentSolver, integrated_state
from enaqt.errors import NumericalConsistencyError, UndefinedTransferTimeError
from enaqt.fmo import default_gamma_grid, load_fmo_model
from enaqt.model import InitialState, TransportSystem, initial_density_matrix
from enaqt.observables import (efficiency, loss_probability, transfer_time,
                               transport_result)
from enaqt.twolevel import TwoLevelParams, to_transport_system

from oracles import (quadrature_integrals, random_density_matrix,
                     random_transport_system)


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


def test_transfer_time_is_undefined_at_zero_efficiency():
    sys = synthetic_system(kappa=[0.0, 0.5], gamma=0.0)
    with pytest.raises(UndefinedTransferTimeError):
        transfer_time(sys, np.zeros((2, 2), dtype=complex), 0.0)


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
