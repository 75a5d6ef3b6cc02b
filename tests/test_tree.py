import io
import math

import numpy as np
import pytest

from enaqt import dynamics, tree
from enaqt.dynamics import MomentSolver
from enaqt.errors import (ConfigurationError, NonConvergentIntegralError,
                          SweepFailureError)
from enaqt.model import TransportSystem, initial_density_matrix
from enaqt.observables import transport_result
from enaqt.tree import (DEFAULT_DELTA_GRID, MAX_GENERATION, TreeSpec,
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


def test_optimal_dephasing_beats_or_matches_the_coherent_limit():
    spec = TreeSpec(generation=3, coupling_cm1=100.0, disorder_cm1=200.0,
                    rng_seed=7)
    sys = generate_tree(spec)
    rho0 = initial_density_matrix(leaf_initial_state(spec, "mixture"), 7)
    solver = MomentSolver(sys, rho0)
    eta_coherent = transport_result(solver, 0.0).efficiency
    gamma_star, eta_star, eta_zero = optimal_dephasing(solver)
    assert eta_zero == eta_coherent
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
    gamma_star, eta_star, _ = optimal_dephasing(solver)
    recomputed = transport_result(solver, gamma_star).efficiency
    assert recomputed == pytest.approx(eta_star, abs=1e-9)
    # No grid point of the search may beat the reported optimum.
    for gamma in np.logspace(-2, 3, 12):
        eta = transport_result(solver, gamma).efficiency
        assert eta <= eta_star + 1e-9


@pytest.mark.parametrize("delta_over_v, seed", [(1.0, 11), (2.0, 12),
                                                 (3.5, 13)])
def test_optimal_dephasing_equals_a_search_with_one_solve_per_rate(
        delta_over_v, seed, monkeypatch):
    """The scan solves gamma = 0 and its 40 grid rates in one stacked
    first_moments call; the search must return exactly what it returns
    when every rate is solved on its own, with the same efficiency calls:
    gamma = 0 and the grid (41), plus one per refinement step, each of
    which solves its own rate by first_moment."""
    spec = TreeSpec(generation=4, coupling_cm1=100.0,
                    disorder_cm1=100.0 * delta_over_v, rng_seed=seed)
    sys = generate_tree(spec)
    rho0 = initial_density_matrix(leaf_initial_state(spec, "mixture"), 15)
    calls = []
    efficiency = tree.efficiency
    single = []
    first_moment = MomentSolver.first_moment
    stacked = []
    first_moments = MomentSolver.first_moments

    def counting(sys, s1):
        calls.append(s1.shape)
        return efficiency(sys, s1)

    def counting_single(self, gamma):
        single.append(gamma)
        return first_moment(self, gamma)

    def counting_stacked(self, gammas):
        stacked.append(np.array(gammas))
        return first_moments(self, gammas)

    monkeypatch.setattr(tree, "efficiency", counting)
    monkeypatch.setattr(MomentSolver, "first_moment", counting_single)
    monkeypatch.setattr(MomentSolver, "first_moments", counting_stacked)
    got = optimal_dephasing(MomentSolver(sys, rho0))
    assert len(stacked) == 1
    np.testing.assert_array_equal(stacked[0], np.r_[0.0, _search_grid(sys)])
    refinement = len(single)
    assert 0.0 not in single
    assert 1 <= refinement <= tree.SEARCH_MAX_REFINE
    assert calls == [(15, 15)] * (41 + refinement)

    calls.clear()
    monkeypatch.setattr(MomentSolver, "first_moments", lambda self, gammas: [
        self.first_moment(g) for g in gammas])
    want = optimal_dephasing(MomentSolver(sys, rho0))
    assert len(calls) == 41 + refinement
    assert got == want
    assert 0.0 < got[0]


def _search_grid(sys):
    """The grid optimal_dephasing scans, worked out here from the
    SEARCH_* constants."""
    v_ang = cm1_to_angular(float(np.max(np.abs(sys.couplings))))
    return np.logspace(math.log10(tree.SEARCH_SPAN[0] * v_ang),
                       math.log10(tree.SEARCH_SPAN[1] * v_ang),
                       tree.SEARCH_GRID_POINTS)


def _search_bracket(sys, solver):
    """The grid, its efficiencies and the bracket optimal_dephasing
    refines."""
    grid = _search_grid(sys)
    etas = [tree.efficiency(sys, s1) for s1 in solver.first_moments(grid)]
    i = int(np.argmax(etas))
    cell = grid[1] / grid[0]
    lo = grid[i - 1] if i > 0 else grid[0] / cell
    hi = grid[i + 1] if i < len(grid) - 1 else grid[-1] * cell
    return grid, i, lo, hi


def _assert_beats_a_fine_scan(sys, solver, lo, hi):
    gamma_star, eta_star, _ = optimal_dephasing(solver)
    scan = [tree.efficiency(sys, s1)
            for s1 in solver.first_moments(np.geomspace(lo, hi, 256))]
    assert eta_star >= max(scan) - 1e-10
    return gamma_star


@pytest.mark.parametrize("kind", ["coherent", "mixture"])
@pytest.mark.parametrize("delta_over_v", [0.5, 1.0, 2.0, 4.0])
def test_the_refinement_beats_a_fine_scan_of_its_bracket(kind, delta_over_v):
    """Oracle for the seeded Brent refinement: no rate of a 256-point
    stacked scan of the bracket around the grid winner may beat eta*."""
    spec = TreeSpec(generation=4, coupling_cm1=100.0,
                    disorder_cm1=100.0 * delta_over_v, rng_seed=21)
    sys = generate_tree(spec)
    rho0 = initial_density_matrix(leaf_initial_state(spec, kind), 15)
    solver = MomentSolver(sys, rho0)
    _, _, lo, hi = _search_bracket(sys, solver)
    gamma_star = _assert_beats_a_fine_scan(sys, solver, lo, hi)
    assert gamma_star == 0.0 or lo <= gamma_star <= hi


@pytest.mark.parametrize("edge", ["first", "last"])
def test_the_refinement_searches_the_extended_cell_at_a_grid_edge(
        edge, monkeypatch):
    """With SEARCH_SPAN moved so that the optimum sits half a grid cell
    beyond the grid, the winner is the first (or last) grid rate, and the
    refinement must still find the optimum in the extra cell its bracket
    takes at that edge."""
    spec = TreeSpec(generation=4, coupling_cm1=100.0, disorder_cm1=200.0,
                    rng_seed=21)
    sys = generate_tree(spec)
    rho0 = initial_density_matrix(leaf_initial_state(spec, "mixture"), 15)
    solver = MomentSolver(sys, rho0)
    gamma_free, _, _ = optimal_dephasing(solver)
    ratio = gamma_free / cm1_to_angular(100.0)
    span = tree.SEARCH_SPAN[1] / tree.SEARCH_SPAN[0]
    half_cell = span ** (0.5 / (tree.SEARCH_GRID_POINTS - 1))
    start = (ratio * half_cell if edge == "first"
             else ratio / half_cell / span)
    monkeypatch.setattr(tree, "SEARCH_SPAN", (start, start * span))
    grid, i, lo, hi = _search_bracket(sys, solver)
    assert i == (0 if edge == "first" else len(grid) - 1)
    gamma_star = _assert_beats_a_fine_scan(sys, solver, lo, hi)
    assert gamma_star == pytest.approx(gamma_free, rel=1e-3)
    if edge == "first":
        assert lo <= gamma_star < grid[0]
    else:
        assert grid[-1] < gamma_star <= hi


def test_a_second_kind_factors_only_its_own_refinement_rates(
        factored_rates, monkeypatch):
    """A second kind's search shares the first one's scan, on the dense
    route (generation 3) and on the eigenbasis one (generation 6, one
    rate per stack), and factors each of its own refinement rates once
    and nothing else. That holds however many steps the first search
    took: here its tolerance is made too fine to reach and its cap is
    raised, so it runs past the default SEARCH_MAX_REFINE."""
    default_cap = tree.SEARCH_MAX_REFINE
    monkeypatch.setattr(tree, "SEARCH_MAX_REFINE", 1000)
    single = []
    first_moment = MomentSolver.first_moment

    def counting_single(self, gamma):
        single.append(gamma)
        return first_moment(self, gamma)

    monkeypatch.setattr(MomentSolver, "first_moment", counting_single)
    for generation in (3, 6):
        spec = TreeSpec(generation=generation, coupling_cm1=100.0,
                        disorder_cm1=100.0, rng_seed=3)
        sys = generate_tree(spec)
        rho0s = [initial_density_matrix(leaf_initial_state(spec, kind),
                                        sys.n_sites)
                 for kind in ("mixture", "coherent")]
        with monkeypatch.context() as m:
            m.setattr(tree, "SEARCH_REL_TOL", 1e-12)
            solver = MomentSolver(sys, rho0s[0])
            factored_rates.clear()
            single.clear()
            optimal_dephasing(solver)
        assert len(single) > default_cap
        assert factored_rates == [0.0, *_search_grid(sys), *single]

        factored_rates.clear()
        single.clear()
        optimal_dephasing(solver.with_initial_state(rho0s[1]))
        assert single
        assert factored_rates == single


def test_optimal_dephasing_requires_couplings():
    uncoupled = TransportSystem(n_sites=3, site_energies=[0.0, 0.0, 0.0],
                                couplings=np.zeros((3, 3)),
                                trap_rates=[1.0, 0.0, 0.0], recomb_rate=0.01,
                                dephasing_rate=0.0)
    rho0 = np.diag([0.0, 0.5, 0.5]).astype(complex)
    with pytest.raises(ConfigurationError):
        optimal_dephasing(MomentSolver(uncoupled, rho0))


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
        optimal_dephasing(MomentSolver(sys, rho0))


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
    """Make optimal_dephasing raise for the coherent kind on the first
    n_fail trees it sees. The kind searched is the one whose initial state
    the ensemble built last."""
    real_search, real_state = tree.optimal_dephasing, tree.leaf_initial_state
    kinds, seen = [], []

    def state(spec, kind):
        kinds.append(kind)
        return real_state(spec, kind)

    def search(solver):
        if kinds[-1] == "coherent" and len(seen) < n_fail:
            seen.append(solver)
            raise NonConvergentIntegralError("injected failure")
        return real_search(solver)

    monkeypatch.setattr(tree, "leaf_initial_state", state)
    monkeypatch.setattr(tree, "optimal_dephasing", search)


def test_a_failed_search_counts_against_its_kind_only(monkeypatch):
    spec = TreeSpec(generation=3, coupling_cm1=100.0, rng_seed=4)
    kwargs = dict(delta_grid=[1.0], n_samples=20)
    want = disorder_ensemble(spec, kinds=("mixture",), **kwargs)["mixture"]
    _failing_once(monkeypatch, 1)
    got = disorder_ensemble(spec, kinds=("coherent", "mixture"), **kwargs)
    (coherent,) = got["coherent"].records
    assert (coherent.n_ok, coherent.n_failed) == (19, 1)
    assert got["mixture"] == want


def test_a_kind_failing_too_often_aborts_the_ensemble(monkeypatch):
    spec = TreeSpec(generation=3, coupling_cm1=100.0, rng_seed=4)
    _failing_once(monkeypatch, 2)
    with pytest.raises(SweepFailureError,
                       match="2 of 20 coherent samples(.|\n)*injected"):
        disorder_ensemble(spec, delta_grid=[1.0], n_samples=20,
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
    """The two kinds' solvers share one eigenbasis route per tree, so the
    capacitance pair products are built once for each of the 4 trees."""
    spec = TreeSpec(generation=4, coupling_cm1=100.0, rng_seed=3)
    disorder_ensemble(spec, [0.5, 1.0], n_samples=2,
                      kinds=("mixture", "coherent"))
    assert len(pair_product_builds) == 4
    assert len(set(map(id, pair_product_builds))) == 4


@pytest.mark.parametrize("generation", [3, 4])
def test_each_kind_of_a_both_kinds_ensemble_equals_that_kind_alone(
        generation):
    """The kinds share each tree's scan factorisations, on the dense
    route (generation 3) and the eigenbasis one, and each kind's report
    is bit for bit that of an ensemble for that kind alone."""
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
