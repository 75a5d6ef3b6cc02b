import io

import numpy as np
import pytest

from enaqt.errors import ConfigurationError
from enaqt.model import TransportSystem, initial_density_matrix
from enaqt.observables import transport_result
from enaqt.tree import (DEFAULT_DELTA_GRID, SearchConfig, TreeSpec,
                        disorder_ensemble, generate_tree, leaf_initial_state,
                        leaf_sites, normal_draws, optimal_dephasing)
from enaqt.units import cm1_to_angular

from oracles import bright_chain_efficiency


def test_spec_validation_and_derived_rates():
    spec = TreeSpec(generation=3, coupling_cm1=100.0)
    assert spec.n_sites == 7
    v_ang = cm1_to_angular(100.0)
    assert spec.trap_rate_ps == pytest.approx(2.0 * v_ang)
    assert spec.recomb_rate_ps == pytest.approx(0.005 * v_ang)
    explicit = TreeSpec(generation=3, coupling_cm1=100.0, trap_rate_ps=1.5,
                        recomb_rate_ps=0.001)
    assert explicit.trap_rate_ps == 1.5
    assert explicit.recomb_rate_ps == 0.001
    with pytest.raises(ConfigurationError):
        TreeSpec(generation=1, coupling_cm1=100.0)
    with pytest.raises(ConfigurationError):
        TreeSpec(generation=3, coupling_cm1=0.0)
    with pytest.raises(ConfigurationError):
        TreeSpec(generation=3, coupling_cm1=100.0, disorder_cm1=-1.0)


def test_normal_draws_are_pinned():
    """Frozen values: the Box-Muller-on-Philox stream defines every
    disorder realization, so these must never drift."""
    got = normal_draws(0, 4)
    np.testing.assert_array_equal(got, [0.1165565154909856,
                                        -0.6835324004378501,
                                        0.09819597806605489,
                                        -0.29281076280112783])
    np.testing.assert_array_equal(normal_draws(0, 3), got[:3])


def test_normal_draws_are_standard_normal_in_bulk():
    z = normal_draws(12345, 100000)
    assert abs(z.mean()) < 0.02
    assert abs(z.std(ddof=1) - 1.0) < 0.02


def test_tree_topology_generation_3():
    spec = TreeSpec(generation=3, coupling_cm1=80.0)
    sys = generate_tree(spec)
    assert sys.n_sites == 7
    edges = {(1, 2), (1, 3), (2, 4), (2, 5), (3, 6), (3, 7)}
    for m in range(1, 8):
        for n in range(m + 1, 8):
            want = 80.0 if (m, n) in edges else 0.0
            assert sys.couplings[m - 1, n - 1] == want
            assert sys.couplings[n - 1, m - 1] == want
    assert sys.trap_rates[0] == spec.trap_rate_ps
    assert np.all(sys.trap_rates[1:] == 0.0)
    assert sys.recomb_rate == spec.recomb_rate_ps


def test_disorder_perturbs_energies_reproducibly():
    spec = TreeSpec(generation=3, coupling_cm1=100.0, disorder_cm1=50.0,
                    mean_energy_cm1=10.0, rng_seed=99)
    sys = generate_tree(spec)
    want = 10.0 + 50.0 * normal_draws(99, 7)
    np.testing.assert_array_equal(sys.site_energies, want)
    again = generate_tree(spec)
    np.testing.assert_array_equal(again.site_energies, sys.site_energies)


def test_ordered_tree_has_uniform_energies():
    sys = generate_tree(TreeSpec(generation=4, coupling_cm1=100.0))
    assert np.all(sys.site_energies == 0.0)


def test_large_trees_need_explicit_consent():
    spec = TreeSpec(generation=8, coupling_cm1=100.0)
    with pytest.raises(ConfigurationError, match="allow_large"):
        generate_tree(spec)
    sys = generate_tree(spec, allow_large=True)
    assert sys.n_sites == 255


def test_leaf_sites_and_states():
    spec = TreeSpec(generation=3, coupling_cm1=100.0)
    assert leaf_sites(spec) == (4, 5, 6, 7)
    mix = leaf_initial_state(spec, "mixture")
    rho = initial_density_matrix(mix, 7)
    np.testing.assert_allclose(np.diag(rho)[3:], 0.25)
    coh = leaf_initial_state(spec, "coherent")
    rho_c = initial_density_matrix(coh, 7)
    assert rho_c[3, 6] == pytest.approx(0.25)
    with pytest.raises(ConfigurationError):
        leaf_initial_state(spec, "site")


@pytest.mark.parametrize("generation", [3, 4, 5])
def test_ordered_tree_transport_runs_through_the_bright_chain(generation):
    """At delta = 0 only the generation-uniform chain reaches the trap.

    The coherent leaf state lives entirely in that chain, so it transfers
    as well as the chain does; the leaf mixture holds weight 2^-(g-1) in
    it and the rest in an exact dark subspace, whatever kappa, Gamma and V.
    """
    spec = TreeSpec(generation=generation, coupling_cm1=100.0)
    sys = generate_tree(spec)
    eta_chain = bright_chain_efficiency(spec)
    etas = {}
    for kind in ("coherent", "mixture"):
        rho0 = initial_density_matrix(leaf_initial_state(spec, kind),
                                      sys.n_sites)
        etas[kind] = transport_result(sys, rho0).efficiency
    assert abs(etas["coherent"] - eta_chain) <= 1e-12
    assert abs(etas["mixture"] - eta_chain / 2 ** (generation - 1)) <= 1e-12


def test_optimal_dephasing_beats_or_matches_the_coherent_limit():
    spec = TreeSpec(generation=3, coupling_cm1=100.0, disorder_cm1=200.0,
                    rng_seed=7)
    sys = generate_tree(spec)
    rho0 = initial_density_matrix(leaf_initial_state(spec, "mixture"), 7)
    eta_coherent = transport_result(sys, rho0).efficiency
    gamma_star, eta_star = optimal_dephasing(sys, rho0)
    assert eta_star >= eta_coherent - 1e-12
    assert gamma_star > 0.0
    # Strong disorder localizes the coherent dynamics, so the assisted
    # optimum should be a real improvement, not a tie.
    assert eta_star > eta_coherent + 0.05


def test_optimal_dephasing_result_is_self_consistent():
    spec = TreeSpec(generation=3, coupling_cm1=100.0, disorder_cm1=100.0,
                    rng_seed=3)
    sys = generate_tree(spec)
    rho0 = initial_density_matrix(leaf_initial_state(spec, "mixture"), 7)
    gamma_star, eta_star = optimal_dephasing(sys, rho0)
    recomputed = transport_result(sys.with_dephasing(gamma_star),
                                  rho0).efficiency
    assert recomputed == pytest.approx(eta_star, abs=1e-9)
    # No grid point of the search may beat the reported optimum.
    for gamma in np.logspace(-2, 3, 12):
        eta = transport_result(sys.with_dephasing(gamma), rho0).efficiency
        assert eta <= eta_star + 1e-9


def test_optimal_dephasing_requires_couplings():
    uncoupled = TransportSystem(n_sites=3, site_energies=[0.0, 0.0, 0.0],
                                couplings=np.zeros((3, 3)),
                                trap_rates=[1.0, 0.0, 0.0], recomb_rate=0.01,
                                dephasing_rate=0.0)
    rho0 = np.diag([0.0, 0.5, 0.5]).astype(complex)
    with pytest.raises(ConfigurationError):
        optimal_dephasing(uncoupled, rho0)


def test_default_delta_grid():
    grid = np.asarray(DEFAULT_DELTA_GRID)
    assert len(grid) == 20
    assert grid[0] == 0.0
    assert grid[-1] == 4.0


def test_small_ensemble_statistics():
    spec = TreeSpec(generation=3, coupling_cm1=100.0)
    report = disorder_ensemble(spec, delta_grid=[0.0, 1.0, 2.0], n_samples=4,
                               kind="mixture", master_seed=11)
    assert report.kind == "mixture"
    assert report.n_samples == 4
    assert len(report.records) == 3
    for rec in report.records:
        assert rec.n_ok == 4
        assert rec.n_failed == 0
        assert 0.0 < rec.eta_quantum_mean < 1.0
        assert rec.eta_opt_mean >= rec.eta_quantum_mean - 1e-12
    # delta = 0 gives four identical realizations, so zero spread.
    assert report.records[0].eta_quantum_std == 0.0


def test_ensembles_are_deterministic_and_width_independent():
    spec = TreeSpec(generation=3, coupling_cm1=100.0)
    kwargs = dict(delta_grid=[0.0, 2.0], n_samples=3, kind="coherent",
                  master_seed=5)
    a = disorder_ensemble(spec, **kwargs)
    b = disorder_ensemble(spec, **kwargs)
    assert a == b


def test_ensemble_validation():
    spec = TreeSpec(generation=3, coupling_cm1=100.0)
    with pytest.raises(ConfigurationError):
        disorder_ensemble(spec, n_samples=0)
    with pytest.raises(ConfigurationError):
        disorder_ensemble(spec, kind="thermal")
    with pytest.raises(ConfigurationError):
        disorder_ensemble(spec, delta_grid=[-0.5, 1.0])


def test_report_csv_layout():
    spec = TreeSpec(generation=3, coupling_cm1=100.0)
    report = disorder_ensemble(spec, delta_grid=[0.0, 1.0], n_samples=2,
                               kind="mixture", master_seed=1,
                               search_cfg=SearchConfig(grid_points=10))
    buf = io.StringIO()
    report.write_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == ("delta_over_V,kind,n_ok,eta_quantum_mean,"
                        "eta_quantum_std,eta_opt_mean,eta_opt_std,"
                        "gamma_opt_mean_ps,gamma_opt_std_ps,n_failed")
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "0.0"
    assert first[1] == "mixture"
    assert first[2] == "2"
    assert first[9] == "0"
