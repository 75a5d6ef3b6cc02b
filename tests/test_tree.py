import io
import math

import numpy as np
import pytest

from enaqt import tree
from enaqt.dynamics import MomentSolver
from enaqt.errors import (ConfigurationError, NonConvergentIntegralError,
                          SweepFailureError)
from enaqt.model import TransportSystem, initial_density_matrix
from enaqt.observables import efficiency, transport_result
from enaqt.tree import (DEFAULT_DELTA_GRID, MAX_GENERATION, TreeSpec,
                        disorder_ensemble, generate_tree, leaf_initial_state,
                        leaf_sites, normal_draws, optimal_dephasing,
                        trapping_solver)
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


@pytest.mark.parametrize("overrides", [
    dict(coupling_cm1=float("nan")),
    dict(coupling_cm1=float("inf")),
    dict(disorder_cm1=float("nan")),
    dict(disorder_cm1=float("inf")),
    dict(trap_rate_ps=-1.0),
    dict(trap_rate_ps=float("nan")),
    dict(trap_rate_ps=float("inf")),
    dict(recomb_rate_ps=-1.0),
    dict(recomb_rate_ps=float("nan")),
    dict(trap_rate_ps=0.0, recomb_rate_ps=0.0),
    dict(generation=3.7),
    dict(generation=3.0),
    dict(generation="x"),
    dict(generation=True),
    dict(rng_seed=1.5),
    dict(rng_seed=True),
    dict(coupling_cm1="100"),
    dict(coupling_cm1=None),
    dict(coupling_cm1=True),
    dict(disorder_cm1="10"),
    dict(disorder_cm1=[10.0]),
    dict(trap_rate_ps="1"),
    dict(recomb_rate_ps="0.1"),
    dict(recomb_rate_ps=1j),
])
def test_spec_rejects_inputs_every_sample_would_fail_on(overrides):
    fields = dict(generation=3, coupling_cm1=100.0)
    fields.update(overrides)
    with pytest.raises(ConfigurationError):
        TreeSpec(**fields)


def test_spec_takes_numpy_integers_as_ints():
    spec = TreeSpec(generation=np.int64(3), coupling_cm1=100.0,
                    rng_seed=np.uint64(5))
    assert type(spec.generation) is int and spec.generation == 3
    assert type(spec.rng_seed) is int and spec.rng_seed == 5


@pytest.mark.parametrize("seed", [-1, 2 ** 128])
def test_a_tree_seed_outside_the_philox_keys_generates_no_tree(seed):
    """generate_tree refuses such a seed by name; a negative one is still
    a master seed for an ensemble, whose derived seeds are all >= 0."""
    spec = TreeSpec(generation=3, coupling_cm1=100.0, disorder_cm1=10.0,
                    rng_seed=seed)
    with pytest.raises(ConfigurationError, match="outside"):
        generate_tree(spec)
    if seed < 0:
        report = disorder_ensemble(spec, [0.5], n_samples=2)["mixture"]
        assert report.records[0].n_ok == 2


@pytest.mark.parametrize("deltas", [
    [0.0, float("nan")], [0.0, float("inf")], [0.0, -0.5], [0.0, "1.5"],
    [0.0, True], [[0.0, 1.0]], 0.5,
], ids=["nan", "inf", "-0.5", "str", "True", "2-d", "scalar"])
def test_ensemble_rejects_a_bad_disorder_value(deltas):
    spec = TreeSpec(generation=3, coupling_cm1=100.0)
    with pytest.raises(ConfigurationError, match="disorder values"):
        disorder_ensemble(spec, deltas, n_samples=1)


def test_large_trees_need_explicit_consent():
    """Trees above MAX_GENERATION are refused when the spec is built, with
    no override; the largest allowed tree still generates."""
    assert MAX_GENERATION == 7
    with pytest.raises(ConfigurationError, match="exceeds"):
        TreeSpec(generation=8, coupling_cm1=100.0)
    spec = TreeSpec(generation=7, coupling_cm1=100.0)
    assert spec.n_sites == 127
    assert generate_tree(spec).n_sites == 127


def test_normal_draws_are_pinned():
    """Frozen values: the Box-Muller-on-Philox stream defines every
    disorder realization, so these must never drift."""
    got = normal_draws(0, 4)
    np.testing.assert_array_equal(got, [0.1165565154909856,
                                        -0.6835324004378501,
                                        0.09819597806605489,
                                        -0.29281076280112783])
    np.testing.assert_array_equal(normal_draws(0, 3), got[:3])


@pytest.mark.parametrize("seed, n", [(2.7, 3), (True, 2), (2, 3.9)])
def test_normal_draws_refuse_arguments_that_are_not_integers(seed, n):
    with pytest.raises(ConfigurationError, match="must be an integer"):
        normal_draws(seed, n)


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
                    rng_seed=99)
    sys = generate_tree(spec)
    want = 50.0 * normal_draws(99, 7)
    np.testing.assert_array_equal(sys.site_energies, want)
    again = generate_tree(spec)
    np.testing.assert_array_equal(again.site_energies, sys.site_energies)


def test_ordered_tree_has_uniform_energies():
    sys = generate_tree(TreeSpec(generation=4, coupling_cm1=100.0))
    assert np.all(sys.site_energies == 0.0)


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


@pytest.mark.parametrize("generation", [3, 4, 5, 6, 7])
def test_ordered_tree_transport_runs_through_the_bright_chain(generation):
    """At delta = 0 only the generation-uniform chain reaches the trap.

    The coherent leaf state lives entirely in that chain, so it transfers
    as well as the chain does; the leaf mixture holds weight 2^-(g-1) in
    it and the rest in an exact dark subspace, whatever kappa, Gamma and V.
    Generations 6 and 7 (63 and 127 sites) are beyond the dense solver's
    reach, so they check the eigenbasis route where no dense oracle can.
    """
    spec = TreeSpec(generation=generation, coupling_cm1=100.0)
    sys = generate_tree(spec)
    eta_chain = bright_chain_efficiency(spec)
    etas = {}
    for kind in ("coherent", "mixture"):
        rho0 = initial_density_matrix(leaf_initial_state(spec, kind),
                                      sys.n_sites)
        etas[kind] = transport_result(MomentSolver(sys, rho0), 0.0).efficiency
    assert abs(etas["coherent"] - eta_chain) <= 1e-12
    assert abs(etas["mixture"] - eta_chain / 2 ** (generation - 1)) <= 1e-12


def _search(sys, rho0):
    """optimal_dephasing's (gamma*, eta*, eta(0)) for one initial state."""
    (result,) = optimal_dephasing(trapping_solver(sys), [rho0])
    return result


def _forward_etas(sys, rho0, gammas):
    """eta at each rate from the forward moment S1 of rho0, by
    observables.efficiency: a route of its own to the search's etas."""
    s1, _ = MomentSolver(sys, rho0).first_moments(gammas)
    return np.array([efficiency(sys, x) for x in s1])


def _search_grid(sys):
    """The grid optimal_dephasing scans, worked out here from the
    SEARCH_* constants."""
    v_ang = cm1_to_angular(float(np.max(np.abs(sys.couplings))))
    return np.exp(np.linspace(math.log(tree.SEARCH_SPAN[0] * v_ang),
                              math.log(tree.SEARCH_SPAN[1] * v_ang),
                              tree.SEARCH_GRID_POINTS))


@pytest.mark.parametrize("generation", [3, 4, 5])
def test_the_trapped_observable_gives_the_efficiency_of_every_start(
        generation):
    """E, the first moment of trapping_solver, gives eta = Re tr(E rho0)
    for both leaf kinds as the forward moment S1 of each gives it, and
    E_mm is the efficiency from site m alone, on the dense route
    (generation 3) and the eigenbasis route, at gamma = 0 and at grid
    rates. E is Hermitian and 0 <= E <= I, since every eta lies in [0, 1]:
    all to roundoff."""
    spec = TreeSpec(generation=generation, coupling_cm1=100.0,
                    disorder_cm1=150.0, rng_seed=8)
    sys = generate_tree(spec)
    n = sys.n_sites
    gammas = np.r_[0.0, _search_grid(sys)[::3]]
    solver = trapping_solver(sys)
    trapped, _ = solver.first_moments(gammas)
    route = "eigenbasis" if n >= 9 else "dense"
    assert solver.route_counts[route] == len(gammas)
    for kind in ("coherent", "mixture"):
        rho0 = initial_density_matrix(leaf_initial_state(spec, kind), n)
        got = [tree.efficiency(solver, e, rho0) for e in trapped]
        np.testing.assert_allclose(got, _forward_etas(sys, rho0, gammas),
                                   rtol=0.0, atol=1e-12)
    for m in range(n):
        site = np.zeros((n, n))
        site[m, m] = 1.0
        np.testing.assert_allclose(trapped[:, m, m].real,
                                   _forward_etas(sys, site, gammas),
                                   rtol=0.0, atol=1e-12)
    for e in trapped:
        assert np.abs(e - e.conj().T).max() <= 1e-13
        spectrum = np.linalg.eigvalsh((e + e.conj().T) / 2.0)
        assert spectrum.min() >= -1e-12 and spectrum.max() <= 1.0 + 1e-12


def test_optimal_dephasing_beats_or_matches_the_coherent_limit():
    spec = TreeSpec(generation=3, coupling_cm1=100.0, disorder_cm1=200.0,
                    rng_seed=7)
    sys = generate_tree(spec)
    rho0 = initial_density_matrix(leaf_initial_state(spec, "mixture"), 7)
    eta_coherent = transport_result(MomentSolver(sys, rho0), 0.0).efficiency
    gamma_star, eta_star, eta_zero = _search(sys, rho0)
    assert eta_zero == pytest.approx(eta_coherent, rel=0.0, abs=1e-14)
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
    solver = MomentSolver(sys, rho0)
    gamma_star, eta_star, _ = _search(sys, rho0)
    recomputed = transport_result(solver, gamma_star).efficiency
    assert recomputed == pytest.approx(eta_star, abs=1e-9)
    # No grid point of the search may beat the reported optimum.
    for gamma in np.logspace(-2, 3, 12):
        eta = transport_result(solver, gamma).efficiency
        assert eta <= eta_star + 1e-9


def _one_rate_at_a_time(first_moments):
    """first_moments replaced by stacking its result for each rate alone."""
    def looped(self, gammas):
        alone = [first_moments(self, [gamma]) for gamma in gammas]
        return tuple(np.concatenate(stack) for stack in zip(*alone))
    return looped


@pytest.mark.parametrize("delta_over_v, seed", [(1.0, 11), (2.0, 12),
                                                 (3.5, 13)])
def test_optimal_dephasing_equals_a_search_with_one_solve_per_rate(
        delta_over_v, seed, monkeypatch):
    """The search solves gamma = 0 and its grid in one first_moments call,
    then the rates of each round in one more; it must return exactly what
    it returns when every rate is solved on its own, with one efficiency
    call per rate solved and the same rates."""
    spec = TreeSpec(generation=4, coupling_cm1=100.0,
                    disorder_cm1=100.0 * delta_over_v, rng_seed=seed)
    sys = generate_tree(spec)
    rho0 = initial_density_matrix(leaf_initial_state(spec, "mixture"), 15)
    calls = []
    real_efficiency = tree.efficiency
    stacked = []
    first_moments = MomentSolver.first_moments

    def counting(solver, trapped, rho):
        calls.append(trapped.shape)
        return real_efficiency(solver, trapped, rho)

    def counting_stacked(self, gammas):
        stacked.append(np.array(gammas))
        return first_moments(self, gammas)

    monkeypatch.setattr(tree, "efficiency", counting)
    monkeypatch.setattr(MomentSolver, "first_moments", counting_stacked)
    got = _search(sys, rho0)
    np.testing.assert_array_equal(stacked[0], np.r_[0.0, _search_grid(sys)])
    assert len(stacked) >= 2
    rates = np.concatenate(stacked)
    assert calls == [(15, 15)] * len(rates)

    calls.clear()
    monkeypatch.setattr(MomentSolver, "first_moments",
                        _one_rate_at_a_time(counting_stacked))
    stacked.clear()
    want = _search(sys, rho0)
    np.testing.assert_array_equal(np.concatenate(stacked), rates)
    assert len(calls) == len(rates)
    assert got == want
    assert 0.0 < got[0]


def test_a_search_falling_from_the_first_grid_rate_makes_one_solve_call(
        monkeypatch):
    """The coherent leaf state of a mildly disordered tree loses
    efficiency to dephasing at every grid rate (its slope is negative
    at each), so no cell brackets a maximum, the first grid rate does not
    beat gamma = 0, and the search ends with its first first_moments
    call, at gamma* = 0."""
    spec = TreeSpec(generation=4, coupling_cm1=100.0, disorder_cm1=50.0,
                    rng_seed=1)
    sys = generate_tree(spec)
    rho0 = initial_density_matrix(leaf_initial_state(spec, "coherent"), 15)
    grid = _search_grid(sys)
    _, slopes = trapping_solver(sys).first_moments(grid)
    assert all(g * np.vdot(rho0, d).real < 0.0 for g, d in zip(grid, slopes))
    stacked = []
    first_moments = MomentSolver.first_moments

    def counting_stacked(self, gammas):
        stacked.append(np.array(gammas))
        return first_moments(self, gammas)

    monkeypatch.setattr(MomentSolver, "first_moments", counting_stacked)
    gamma_star, eta_star, eta_zero = _search(sys, rho0)
    assert len(stacked) == 1
    assert gamma_star == 0.0 and eta_star == eta_zero


def _search_bracket(sys, rho0):
    """The grid, the index of its best rate by forward etas, and the cell
    on either side of that rate (extended one grid cell at the edges)."""
    grid = _search_grid(sys)
    i = int(np.argmax(_forward_etas(sys, rho0, grid)))
    cell = grid[1] / grid[0]
    lo = grid[i - 1] if i > 0 else grid[0] / cell
    hi = grid[i + 1] if i < len(grid) - 1 else grid[-1] * cell
    return grid, i, lo, hi


def _assert_beats_a_fine_scan(sys, rho0, lo, hi):
    gamma_star, eta_star, _ = _search(sys, rho0)
    scan = _forward_etas(sys, rho0, np.geomspace(lo, hi, 256))
    assert eta_star >= scan.max() - 1e-10
    return gamma_star


@pytest.mark.parametrize("kind", ["coherent", "mixture"])
@pytest.mark.parametrize("delta_over_v", [0.5, 1.0, 2.0, 4.0])
def test_the_refinement_beats_a_fine_scan_of_its_bracket(kind, delta_over_v):
    """Oracle for the bracketed search: no rate of a 256-point scan, by
    forward moments, of the two grid cells around the best grid rate may
    beat eta*."""
    spec = TreeSpec(generation=4, coupling_cm1=100.0,
                    disorder_cm1=100.0 * delta_over_v, rng_seed=21)
    sys = generate_tree(spec)
    rho0 = initial_density_matrix(leaf_initial_state(spec, kind), 15)
    _, _, lo, hi = _search_bracket(sys, rho0)
    gamma_star = _assert_beats_a_fine_scan(sys, rho0, lo, hi)
    assert gamma_star == 0.0 or lo <= gamma_star <= hi


@pytest.mark.parametrize("edge", ["first", "last"])
def test_the_refinement_searches_the_extended_cell_at_a_grid_edge(
        edge, monkeypatch):
    """With SEARCH_SPAN moved so that the optimum sits half a grid cell
    beyond the grid, the best grid rate is the first (or last), and the
    search must still find the optimum in the cell it adds at that edge:
    above the grid when the slope is positive at the top rate, below it
    when the slope is negative at the bottom rate whose eta beats
    eta(0)."""
    spec = TreeSpec(generation=4, coupling_cm1=100.0, disorder_cm1=200.0,
                    rng_seed=21)
    sys = generate_tree(spec)
    rho0 = initial_density_matrix(leaf_initial_state(spec, "mixture"), 15)
    gamma_free, _, _ = _search(sys, rho0)
    ratio = gamma_free / cm1_to_angular(100.0)
    span = tree.SEARCH_SPAN[1] / tree.SEARCH_SPAN[0]
    half_cell = span ** (0.5 / (tree.SEARCH_GRID_POINTS - 1))
    start = (ratio * half_cell if edge == "first"
             else ratio / half_cell / span)
    monkeypatch.setattr(tree, "SEARCH_SPAN", (start, start * span))
    grid, i, lo, hi = _search_bracket(sys, rho0)
    assert i == (0 if edge == "first" else len(grid) - 1)
    gamma_star = _assert_beats_a_fine_scan(sys, rho0, lo, hi)
    assert gamma_star == pytest.approx(gamma_free, rel=1e-5)
    if edge == "first":
        assert lo <= gamma_star < grid[0]
    else:
        assert grid[-1] < gamma_star <= hi


def test_optimal_dephasing_requires_couplings():
    uncoupled = TransportSystem(n_sites=3, site_energies=[0.0, 0.0, 0.0],
                                couplings=np.zeros((3, 3)),
                                trap_rates=[1.0, 0.0, 0.0], recomb_rate=0.01,
                                dephasing_rate=0.0)
    rho0 = np.diag([0.0, 0.5, 0.5]).astype(complex)
    with pytest.raises(ConfigurationError):
        optimal_dephasing(trapping_solver(uncoupled), [rho0])


def test_optimal_dephasing_refuses_a_weakly_coupled_dark_site():
    """Site 3 hangs on the trapped pair by 1e-2 cm^-1 and has no decay of
    its own, so at gamma_phi = 0 its population lingers for ~1e5 ps. The
    search must fail on the moment solver's conditioning guard, which names
    the cause, not later on an efficiency outside [0, 1]."""
    couplings = np.zeros((3, 3))
    couplings[0, 1] = couplings[1, 0] = 10.0
    couplings[1, 2] = couplings[2, 1] = 1e-2
    sys = TransportSystem(n_sites=3, site_energies=[0.0, 0.0, 0.0],
                          couplings=couplings, trap_rates=[0.0, 1.0, 0.0],
                          recomb_rate=0.0, dephasing_rate=0.0)
    rho0 = np.diag([0.5, 0.0, 0.5]).astype(complex)
    with pytest.raises(NonConvergentIntegralError, match="condition estimate"):
        optimal_dephasing(trapping_solver(sys), [rho0])


def test_default_delta_grid():
    grid = np.asarray(DEFAULT_DELTA_GRID)
    assert len(grid) == 20
    assert grid[0] == 0.0
    assert grid[-1] == 4.0


def test_small_ensemble_statistics():
    spec = TreeSpec(generation=3, coupling_cm1=100.0, rng_seed=11)
    report = disorder_ensemble(spec, delta_grid=[0.0, 1.0, 2.0],
                               n_samples=4)["mixture"]
    assert report.kind == "mixture"
    assert len(report.records) == 3
    for rec in report.records:
        assert rec.n_ok == 4
        assert rec.n_failed == 0
        assert 0.0 < rec.eta_quantum_mean < 1.0
        assert rec.eta_opt_mean >= rec.eta_quantum_mean - 1e-12
    # delta = 0 gives four identical realizations, so zero spread.
    assert report.records[0].eta_quantum_std == 0.0


def test_ensembles_are_deterministic_and_width_independent():
    spec = TreeSpec(generation=3, coupling_cm1=100.0, rng_seed=5)
    kwargs = dict(delta_grid=[0.0, 2.0], n_samples=3, kinds=("coherent",))
    a = disorder_ensemble(spec, **kwargs)
    b = disorder_ensemble(spec, **kwargs)
    assert a == b


def _failing_once(monkeypatch, n_fail):
    """Make optimal_dephasing raise on the first n_fail trees it sees."""
    real_search = tree.optimal_dephasing
    seen = []

    def search(solver, rho0s):
        if len(seen) < n_fail:
            seen.append(solver)
            raise NonConvergentIntegralError("injected failure")
        return real_search(solver, rho0s)

    monkeypatch.setattr(tree, "optimal_dephasing", search)


def test_a_failed_search_fails_its_tree_for_every_kind(monkeypatch):
    """One search serves every kind of a tree, so a failure counts
    against each kind once, and the other trees are those of a run
    without it."""
    spec = TreeSpec(generation=3, coupling_cm1=100.0, rng_seed=4)
    kwargs = dict(delta_grid=[1.0], n_samples=20,
                  kinds=("coherent", "mixture"))
    clean = disorder_ensemble(spec, **kwargs)
    _failing_once(monkeypatch, 1)
    got = disorder_ensemble(spec, **kwargs)
    for kind in kwargs["kinds"]:
        (record,) = got[kind].records
        assert (record.n_ok, record.n_failed) == (19, 1)
        assert record.eta_opt_mean != clean[kind].records[0].eta_opt_mean


def test_a_kind_failing_too_often_aborts_the_ensemble(monkeypatch):
    """2 failed trees of 20 at the first delta are 10 % of its samples,
    above the 5 % threshold, though only 5 % of the run's 40 trees. 3 are
    7.5 % of the run, and the error still names the delta: the rule is
    checked per delta only."""
    spec = TreeSpec(generation=3, coupling_cm1=100.0, rng_seed=4)
    for n_fail in (2, 3):
        with monkeypatch.context() as patch:
            _failing_once(patch, n_fail)
            with pytest.raises(SweepFailureError,
                               match="%d of 20 samples failed at "
                                     "delta/V = 1(.|\n)*injected" % n_fail):
                disorder_ensemble(spec, delta_grid=[1.0, 2.0], n_samples=20,
                                  kinds=("mixture", "coherent"))


def test_ensemble_validation():
    spec = TreeSpec(generation=3, coupling_cm1=100.0)
    with pytest.raises(ConfigurationError):
        disorder_ensemble(spec, n_samples=0)
    for bad in (2.5, 2.0, True, "2", None):
        with pytest.raises(ConfigurationError, match="n_samples"):
            disorder_ensemble(spec, n_samples=bad)
    with pytest.raises(ConfigurationError):
        disorder_ensemble(spec, kinds=("thermal",))
    with pytest.raises(ConfigurationError):
        disorder_ensemble(spec, kinds=())
    with pytest.raises(ConfigurationError):
        disorder_ensemble(spec, kinds=("mixture", "mixture"))
    with pytest.raises(ConfigurationError):
        disorder_ensemble(spec, delta_grid=[-0.5, 1.0])


def test_a_both_kinds_search_builds_the_pair_products_once_per_tree(
        pair_product_builds):
    """One trapping solver serves both kinds of a tree, so the
    capacitance pair products are built once for each of the 4 trees."""
    spec = TreeSpec(generation=4, coupling_cm1=100.0, rng_seed=3)
    disorder_ensemble(spec, [0.5, 1.0], n_samples=2,
                      kinds=("mixture", "coherent"))
    assert len(pair_product_builds) == 4
    assert len(set(map(id, pair_product_builds))) == 4


@pytest.mark.parametrize("generation", [3, 4])
def test_each_kind_of_a_both_kinds_ensemble_equals_that_kind_alone(
        generation):
    """The kinds share each tree's search, on the dense route
    (generation 3) and the eigenbasis one, and each kind's report is bit
    for bit that of an ensemble for that kind alone."""
    spec = TreeSpec(generation=generation, coupling_cm1=100.0, rng_seed=7)
    kwargs = dict(delta_grid=[0.5, 2.0], n_samples=3)
    both = disorder_ensemble(spec, kinds=("mixture", "coherent"), **kwargs)
    for kind in ("mixture", "coherent"):
        alone = disorder_ensemble(spec, kinds=(kind,), **kwargs)[kind]
        assert both[kind] == alone


def test_report_csv_layout():
    spec = TreeSpec(generation=3, coupling_cm1=100.0, rng_seed=1)
    report = disorder_ensemble(spec, delta_grid=[0.0, 1.0],
                               n_samples=2)["mixture"]
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
