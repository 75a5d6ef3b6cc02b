import io

import numpy as np
import pytest
from scipy.linalg import expm

from enaqt import dynamics
from enaqt.dynamics import (HORIZON_CAP_PS, MomentSolver, Trajectory,
                            build_liouvillian, coordinates, default_horizon,
                            from_coordinates, integrated_state, propagate)
from enaqt.errors import (ConfigurationError, NonConvergentIntegralError,
                          NumericalConsistencyError)
from enaqt.fmo import load_fmo_model
from enaqt.model import (InitialState, TransportSystem, effective_hamiltonian,
                         initial_density_matrix)
from enaqt.tree import TreeSpec, generate_tree, leaf_initial_state
from enaqt.units import CM1_TO_PS_ANGULAR

from oracles import (eigen_integrals, quadrature_integrals,
                     quadrature_trajectory, random_density_matrix,
                     random_transport_system, reference_liouvillian,
                     reference_rhs)


def _vec(rho):
    """Column stacking, the convention of oracles.reference_liouvillian."""
    return np.asarray(rho, dtype=complex).flatten(order="F")


def _unvec(v, n):
    return v.reshape((n, n), order="F")


def test_rhs_matches_the_textbook_form():
    """The oracles' column-stacked superoperator reproduces their textbook
    right-hand side on arbitrary complex matrices, so the checks below
    that take it as their reference cannot use a transposed one."""
    rng = np.random.default_rng(7)
    for _ in range(8):
        sys = random_transport_system(rng)
        n = sys.n_sites
        x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        np.testing.assert_allclose(
            _unvec(reference_liouvillian(sys) @ _vec(x), n),
            reference_rhs(sys, x), rtol=0.0, atol=1e-13)


def test_coordinates_are_orthonormal_and_invert():
    """The real inner product of two Hermitian matrices is the dot product
    of their coordinates, and from_coordinates undoes coordinates, one
    matrix or a stack of them."""
    rng = np.random.default_rng(8)
    a, b = (random_density_matrix(rng, 4) for _ in range(2))
    ya, yb = coordinates(a), coordinates(b)
    assert ya.dtype == float and ya.shape == (16,)
    assert np.dot(ya, yb) == pytest.approx(np.trace(a.conj().T @ b).real,
                                           rel=1e-14)
    np.testing.assert_allclose(from_coordinates(ya), a, rtol=0.0, atol=1e-16)
    np.testing.assert_allclose(from_coordinates(np.array([ya, yb])),
                               [a, b], rtol=0.0, atol=1e-16)


def test_liouvillian_reproduces_the_rhs_on_random_states():
    """build_liouvillian's real matrix, acting on the coordinates of a
    state, and the oracles' textbook right-hand side are two independent
    code paths; they must agree to roundoff."""
    rng = np.random.default_rng(10)
    for _ in range(5):
        sys = random_transport_system(rng)
        liou = build_liouvillian(sys)
        assert liou.dtype == float and liou.shape == (sys.n_sites ** 2,) * 2
        for _ in range(4):
            rho = random_density_matrix(rng, sys.n_sites)
            np.testing.assert_allclose(from_coordinates(liou @ coordinates(rho)),
                                       reference_rhs(sys, rho),
                                       rtol=0.0, atol=1e-12)


def test_pure_dephasing_damps_coherences_and_keeps_populations():
    """Without a Hamiltonian or decay, L is -gamma_phi on the coherence
    coordinates and zero everywhere else."""
    sys = TransportSystem(n_sites=2, site_energies=[0.0, 0.0],
                          couplings=np.zeros((2, 2)), trap_rates=[0.0, 0.0],
                          recomb_rate=0.0, dephasing_rate=1.7)
    liou = build_liouvillian(sys)
    np.testing.assert_array_equal(liou, np.diag([0.0, 0.0, -1.7, -1.7]))
    rho = np.array([[0.6, 0.2 - 0.1j], [0.2 + 0.1j, 0.4]])
    out = from_coordinates(liou @ coordinates(rho))
    np.testing.assert_allclose(np.diag(out), [0.0, 0.0], atol=1e-16)
    np.testing.assert_allclose(out[0, 1], -1.7 * rho[0, 1], rtol=1e-15)


def test_propagate_matches_the_matrix_exponential():
    rng = np.random.default_rng(11)
    sys = random_transport_system(rng, n=3)
    rho0 = random_density_matrix(rng, 3)
    liou = reference_liouvillian(sys)
    times = [0.0, 0.7, 1.9, 4.0]
    traj = propagate(sys, rho0, times)
    for i, t in enumerate(times):
        exact = expm(liou * t) @ rho0.flatten(order="F")
        np.testing.assert_allclose(traj.states[i],
                                   exact.reshape((3, 3), order="F"),
                                   rtol=0.0, atol=1e-8)


def test_propagated_states_stay_hermitian_with_decreasing_trace():
    """Every state is rebuilt from real coordinates, so it is Hermitian
    exactly, not just to roundoff."""
    rng = np.random.default_rng(12)
    sys = random_transport_system(rng, n=4)
    rho0 = random_density_matrix(rng, 4)
    traj = propagate(sys, rho0, np.linspace(0.0, 5.0, 21))
    for state in traj.states:
        np.testing.assert_array_equal(state, state.conj().T)
    tr = traj.trace()
    assert np.all(np.diff(tr) <= 1e-12)
    assert tr[0] == pytest.approx(1.0, abs=1e-14)


def test_trace_plus_bled_probability_is_conserved():
    """The co-integrated bleed accounts for everything the trace loses,
    so their sum stays at 1 to integrator accuracy."""
    rng = np.random.default_rng(13)
    sys = random_transport_system(rng, n=3)
    rho0 = random_density_matrix(rng, 3)
    traj = propagate(sys, rho0, np.linspace(0.0, 8.0, 17))
    budget = traj.trace() + traj.loss_integral
    np.testing.assert_allclose(budget, np.ones_like(budget), atol=1e-9)


def test_the_trajectory_holds_exactly_the_given_times():
    rng = np.random.default_rng(14)
    sys = random_transport_system(rng, n=2)
    rho0 = random_density_matrix(rng, 2)
    times = [0.0, 0.5, 1.0, 2.0]
    traj = propagate(sys, rho0, times)
    np.testing.assert_array_equal(traj.times, times)
    assert traj.states.shape == (4, 2, 2)
    np.testing.assert_array_equal(traj.states[0], rho0)


def test_reused_exponentials_equal_one_exponential_per_step():
    """Ten distinct steps, each used three times in shuffled order, so the
    eight-entry cache both hits and evicts. Multiples of 1/16 ps keep the
    sample times exact, so np.diff returns the steps themselves."""
    rng = np.random.default_rng(30)
    sys = random_transport_system(rng, n=3)
    rho0 = random_density_matrix(rng, 3)
    steps = rng.permutation(np.repeat(np.arange(1, 11) / 16.0, 3))
    times = np.concatenate([[0.0], np.cumsum(steps)])
    np.testing.assert_array_equal(np.diff(times), steps)

    traj = propagate(sys, rho0, times)

    # The Liouvillian bordered by the row that accumulates the bleed rate
    # from the population coordinates.
    gen = np.zeros((10, 10))
    gen[:9, :9] = build_liouvillian(sys)
    gen[9, :3] = 2.0 * (sys.recomb_rate + sys.trap_rates)
    y = np.concatenate([coordinates(rho0), [0.0]])
    ys = [y]
    for dt in np.diff(times):
        y = expm(gen * dt) @ y
        ys.append(y)
    ys = np.array(ys)
    np.testing.assert_array_equal(traj.states[0], rho0)
    np.testing.assert_array_equal(traj.states[1:],
                                  from_coordinates(ys[1:, :9]))
    np.testing.assert_array_equal(traj.loss_integral, ys[:, 9])


def test_propagate_computes_one_exponential_per_distinct_step(expm_calls):
    rng = np.random.default_rng(31)
    sys = random_transport_system(rng, n=3)
    rho0 = random_density_matrix(rng, 3)

    times = np.linspace(0.0, 7.0, 500)
    propagate(sys, rho0, times)
    assert len(expm_calls) == np.unique(np.diff(times)).size < 20

    # All steps distinct: one exponential per step, as without a cache.
    del expm_calls[:]
    times = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 7.0, 60))])
    assert np.unique(np.diff(times)).size == 60
    propagate(sys, rho0, times)
    assert len(expm_calls) == 60


def _assert_matches_quadrature(sys, rho0, times):
    traj = propagate(sys, rho0, times)
    states, loss = quadrature_trajectory(sys, rho0, times)
    np.testing.assert_allclose(traj.states, states, rtol=0.0, atol=1e-8)
    np.testing.assert_allclose(traj.loss_integral, loss, rtol=0.0, atol=1e-8)


def test_propagate_matches_the_quadrature_oracle_on_dephased_systems():
    rng = np.random.default_rng(20)
    for _ in range(4):
        sys = random_transport_system(rng, dephasing=float(rng.uniform(0.5, 5.0)))
        rho0 = random_density_matrix(rng, sys.n_sites)
        times = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 6.0, size=8))])
        _assert_matches_quadrature(sys, rho0, times)


@pytest.mark.parametrize("gamma_phi", [0.0, 0.8])
def test_propagate_matches_the_quadrature_oracle_at_the_exceptional_point(
        gamma_phi):
    """A trapped dimer with kappa = 2|V| (angular units) has a defective
    H_eff: its two eigenvalues and eigenvectors coalesce, so no eigenbasis
    route applies. The matrix exponential must still be exact there."""
    v_cm1 = 10.0
    kappa = 2.0 * v_cm1 * CM1_TO_PS_ANGULAR
    sys = TransportSystem(n_sites=2, site_energies=[0.0, 0.0],
                          couplings=[[0.0, v_cm1], [v_cm1, 0.0]],
                          trap_rates=[0.0, kappa], recomb_rate=0.0,
                          dephasing_rate=gamma_phi)
    heff = np.diag([0.0, -1j * kappa]) + v_cm1 * CM1_TO_PS_ANGULAR * np.array(
        [[0.0, 1.0], [1.0, 0.0]])
    lam = np.linalg.eigvals(heff)
    assert abs(lam[0] - lam[1]) < 1e-6
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    _assert_matches_quadrature(sys, rho0, np.linspace(0.0, 5.0, 11))


@pytest.mark.parametrize("bad_kwargs", [
    dict(times=[0.0, 0.0]),
    dict(times=[0.0, -1.0]),
    dict(times=[-0.5, 1.0]),
    dict(times=[0.5, 1.0]),
    dict(times=[0.0, np.inf]),
    dict(times=[np.nan, 1.0]),
    dict(times=[0.0, 0.5, np.nan]),
    dict(times=[np.nan]),
    dict(times=[0.0, 1.0, 1.0, 2.0]),
    dict(times=[0.0, 2.0, 1.0]),
    dict(times=[]),
    dict(times=[[0.0, 1.0]]),
    dict(times=0.0),
])
def test_propagate_rejects_bad_time_arguments(bad_kwargs):
    """times must be a 1-D array of finite values, strictly increasing
    from a first entry of exactly 0."""
    rng = np.random.default_rng(16)
    sys = random_transport_system(rng, n=2)
    rho0 = random_density_matrix(rng, 2)
    with pytest.raises(ConfigurationError, match="times must be"):
        propagate(sys, rho0, **bad_kwargs)


def test_propagate_rejects_mismatched_initial_state():
    rng = np.random.default_rng(17)
    sys = random_transport_system(rng, n=3)
    with pytest.raises(ConfigurationError):
        propagate(sys, np.eye(2), [0.0, 1.0])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_propagate_rejects_a_non_finite_initial_state(bad):
    rng = np.random.default_rng(17)
    sys = random_transport_system(rng, n=3)
    rho0 = random_density_matrix(rng, 3)
    rho0[0, 1] = bad
    with pytest.raises(ConfigurationError, match="non-finite"):
        propagate(sys, rho0, [0.0, 1.0])


def test_propagate_refuses_a_state_that_is_not_finite():
    """A step of 1e50 ps overflows the matrix exponential of the FMO
    generator into NaN, which is refused; at 1e30 ps everything has decayed
    and the state is finite."""
    model = load_fmo_model()
    rho0 = model.initial_density_matrix()
    traj = propagate(model.system, rho0, [0.0, 1e30])
    assert np.all(np.isfinite(traj.states))
    assert traj.loss_integral[-1] == pytest.approx(1.0)
    with pytest.raises(NumericalConsistencyError,
                       match=r"not finite at t = 1e\+50 ps"):
        propagate(model.system, rho0, [0.0, 1e50])


def test_default_horizon_tracks_the_slowest_decay_channel():
    sys = TransportSystem(n_sites=2, site_energies=[0.0, 0.0],
                          couplings=np.zeros((2, 2)),
                          trap_rates=[0.0, 0.5], recomb_rate=0.25,
                          dephasing_rate=0.0)
    assert default_horizon(sys) == pytest.approx(10.0 / (2 * 0.25 + 0.5))
    no_decay = sys.with_rates(trap_rates=[0.0, 0.0], recomb_rate=0.0)
    assert default_horizon(no_decay) == HORIZON_CAP_PS == 1000.0


def test_integrated_state_matches_the_quadrature_oracle():
    rng = np.random.default_rng(18)
    sys = random_transport_system(rng, n=4)
    rho0 = random_density_matrix(rng, 4)
    s1, s2 = integrated_state(MomentSolver(sys, rho0), sys.dephasing_rate)
    q1, q2 = quadrature_integrals(sys, rho0)
    np.testing.assert_allclose(s1, q1, rtol=1e-8, atol=1e-10)
    np.testing.assert_allclose(s2, q2, rtol=1e-8, atol=1e-10)


def test_integrated_state_refuses_systems_without_decay():
    sys = TransportSystem(n_sites=2, site_energies=[0.0, 10.0],
                          couplings=[[0.0, 5.0], [5.0, 0.0]],
                          trap_rates=[0.0, 0.0], recomb_rate=0.0,
                          dephasing_rate=1.0)
    with pytest.raises(NonConvergentIntegralError):
        integrated_state(MomentSolver(
            sys, np.diag([1.0, 0.0]).astype(complex)), sys.dephasing_rate)


def test_integrated_state_detects_unreachable_population():
    """A site decoupled from every decay channel holds its population
    forever; the moments diverge and the solver must refuse."""
    couplings = np.zeros((3, 3))
    couplings[0, 1] = couplings[1, 0] = 10.0
    sys = TransportSystem(n_sites=3, site_energies=[0.0, 0.0, 0.0],
                          couplings=couplings, trap_rates=[0.0, 1.0, 0.0],
                          recomb_rate=0.0, dephasing_rate=0.5)
    rho0 = np.diag([0.5, 0.0, 0.5]).astype(complex)
    with pytest.raises(NonConvergentIntegralError):
        integrated_state(MomentSolver(sys, rho0), sys.dephasing_rate)


def test_integrated_state_rejects_wrong_shape():
    rng = np.random.default_rng(19)
    sys = random_transport_system(rng, n=3)
    with pytest.raises(ConfigurationError):
        integrated_state(MomentSolver(sys, np.eye(2)), sys.dephasing_rate)


def test_moment_solver_equals_integrated_state_at_every_rate():
    """One solver built per system serves every dephasing rate with the
    same numbers integrated_state gives from a solver built at that rate."""
    rng = np.random.default_rng(20)
    for _ in range(6):
        sys = random_transport_system(rng)
        rho0 = random_density_matrix(rng, sys.n_sites)
        solver = MomentSolver(sys, rho0)
        for gamma in (0.0, 1e-3, 0.7, 25.0, 4e3):
            s1, s2 = solver(gamma)
            dephased = sys.with_dephasing(gamma)
            w1, w2 = integrated_state(MomentSolver(dephased, rho0), gamma)
            np.testing.assert_array_equal(s1, w1)
            np.testing.assert_array_equal(s2, w2)


def test_integrated_state_keeps_its_own_copy_of_rho0():
    """A MomentSolver keeps no reference to the caller's array, on either
    route: changing the array after the build changes no result. It keeps
    its system at gamma_phi = 0, and with_initial_state shares it."""
    rng = np.random.default_rng(67)
    for n in (4, 9):
        sys = random_transport_system(rng, n=n)
        rho0 = random_density_matrix(rng, n)
        want = MomentSolver(sys, rho0.copy())
        solver = MomentSolver(sys, rho0)
        sibling = want.with_initial_state(rho0)
        assert sys.dephasing_rate > 0.0
        assert want.system.dephasing_rate == 0.0
        assert want.system.trap_rates is sys.trap_rates
        assert sibling.system is want.system
        rho0[0, 0] += 0.25
        rho0[0, 1] = rho0[1, 0] = 0.0
        for gamma in (0.0, 3.0):
            got = integrated_state(solver, gamma)
            np.testing.assert_array_equal(got[0], want(gamma)[0])
            np.testing.assert_array_equal(got[1], want(gamma)[1])
            np.testing.assert_array_equal(sibling.first_moment(gamma),
                                          want(gamma)[0])


def _dense_moments(sys, rho0):
    """S1 and S2 from a direct dense solve of the oracles' complex
    column-stacked Liouvillian."""
    n = sys.n_sites
    liou = reference_liouvillian(sys)
    s1 = np.linalg.solve(liou, -_vec(rho0))
    s2 = np.linalg.solve(liou, -s1)
    return _unvec(s1, n), _unvec(s2, n)


def _relative_gap(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


@pytest.mark.parametrize("n", [9, 10, 11, 12])
def test_eigenbasis_route_matches_a_dense_solve(n):
    """Systems of 9 sites and up take the eigenbasis + Woodbury route; its
    moments must equal a direct dense solve at every dephasing rate, from
    the coherent limit to deep in the Zeno regime."""
    rng = np.random.default_rng(100 + n)
    for _ in range(3):
        sys = random_transport_system(rng, n=n)
        rho0 = random_density_matrix(rng, n)
        solver = MomentSolver(sys, rho0)
        gammas = (0.0, 1e-3, 0.7, 25.0, 4e3)
        for gamma in gammas:
            s1, s2 = solver(gamma)
            w1, w2 = _dense_moments(sys.with_dephasing(gamma), rho0)
            assert _relative_gap(s1, w1) <= 1e-10
            assert _relative_gap(s2, w2) <= 1e-10
        assert solver.route_counts == {"eigenbasis": len(gammas), "dense": 0}


@pytest.mark.parametrize("n", [4, 10])
def test_first_moment_equals_the_first_of_both_moments(n):
    rng = np.random.default_rng(30 + n)
    sys = random_transport_system(rng, n=n)
    solver = MomentSolver(sys, random_density_matrix(rng, n))
    for gamma in (0.0, 0.7, 4e3):
        np.testing.assert_array_equal(solver.first_moment(gamma),
                                      solver(gamma)[0])


def _exceptional_point_system(gamma_phi):
    """Nine sites: the trapped dimer at kappa = 2|V| (angular), whose H_eff
    block is defective, beside an uncoupled random seven-site block with a
    trap of its own. Every site recombines."""
    rng = np.random.default_rng(40)
    v_cm1 = 10.0
    kappa = 2.0 * v_cm1 * CM1_TO_PS_ANGULAR
    couplings = np.zeros((9, 9))
    couplings[0, 1] = couplings[1, 0] = v_cm1
    block = np.triu(rng.uniform(-10.0, 10.0, size=(7, 7)), k=1)
    couplings[2:, 2:] = block + block.T
    trap = np.zeros(9)
    trap[1] = kappa
    trap[4] = 0.6
    return TransportSystem(n_sites=9,
                           site_energies=np.concatenate(
                               [[0.0, 0.0], rng.uniform(-20.0, 20.0, 7)]),
                           couplings=couplings, trap_rates=trap,
                           recomb_rate=0.2, dephasing_rate=gamma_phi)


@pytest.mark.parametrize("gamma_phi", [0.0, 0.8])
def test_moments_match_the_quadrature_oracle_at_the_exceptional_point(
        gamma_phi):
    """A defective H_eff has no eigenbasis, so the solver must take the
    dense fallback there, and still agree with DOP853 quadrature."""
    sys = _exceptional_point_system(gamma_phi)
    rho0 = np.zeros((9, 9), dtype=complex)
    rho0[0, 0] = rho0[5, 5] = 0.5
    solver = MomentSolver(sys, rho0)
    s1, s2 = solver(gamma_phi)
    assert solver.route_counts == {"eigenbasis": 0, "dense": 1}
    q1, q2 = quadrature_integrals(sys, rho0)
    np.testing.assert_allclose(s1, q1, rtol=1e-8, atol=1e-10)
    np.testing.assert_allclose(s2, q2, rtol=1e-8, atol=1e-10)


def _dark_site_system():
    """Nine random sites of which site 9 is uncoupled and has no decay of
    its own, so its population never leaves at any dephasing rate."""
    rng = np.random.default_rng(41)
    sys = random_transport_system(rng, n=9, dephasing=0.0)
    couplings = sys.couplings.copy()
    couplings[8, :] = couplings[:, 8] = 0.0
    trap = sys.trap_rates.copy()
    trap[8] = 0.0
    return TransportSystem(n_sites=9, site_energies=sys.site_energies,
                           couplings=couplings, trap_rates=trap,
                           recomb_rate=0.0, dephasing_rate=0.0)


def test_a_dark_mode_falls_back_to_the_dense_guard():
    """Site 9's mode is dark at gamma_phi = 0: the eigenbasis route steps
    aside and the dense solve's conditioning guard names the cause."""
    solver = MomentSolver(_dark_site_system(), np.eye(9, dtype=complex) / 9.0)
    with pytest.raises(NonConvergentIntegralError):
        solver(0.0)
    assert solver.route_counts == {"eigenbasis": 0, "dense": 1}


def test_a_dense_fallback_above_one_gibibyte_is_refused():
    """91 sites would need a 1.1 GB dense Liouvillian. With 90 dark sites
    the eigenbasis route steps aside, and the fallback refuses by name
    instead of allocating it."""
    n = 91
    trap = np.zeros(n)
    trap[0] = 1.0
    sys = TransportSystem(n_sites=n, site_energies=np.zeros(n),
                          couplings=np.zeros((n, n)), trap_rates=trap,
                          recomb_rate=0.0, dephasing_rate=0.0)
    solver = MomentSolver(sys, np.eye(n, dtype=complex) / n)
    with pytest.raises(NonConvergentIntegralError, match="above the 1 GiB"):
        solver.first_moment(0.0)


@pytest.mark.parametrize("gamma", [
    -1e-9, -1.0, float("nan"), float("inf"), float("-inf"), True,
    pytest.param("1.5", id="str"), pytest.param(10 ** 400, id="10**400"),
])
def test_moment_solver_rejects_bad_dephasing_rates(gamma):
    rng = np.random.default_rng(21)
    sys = random_transport_system(rng, n=3)
    solver = MomentSolver(sys, random_density_matrix(rng, 3))
    with pytest.raises(ConfigurationError):
        solver(gamma)


@pytest.mark.parametrize("case", ["random7", "gen4"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_moment_solver_rejects_a_non_finite_initial_state(case, bad):
    """On the dense route (7 sites) and the eigenbasis route (a 15-site
    tree), for a new solver and for another initial state of one."""
    sys, rho0 = _stacking_case(case)
    broken = rho0.copy()
    broken[1, 1] = bad
    with pytest.raises(ConfigurationError, match="non-finite"):
        MomentSolver(sys, broken)
    with pytest.raises(ConfigurationError, match="non-finite"):
        MomentSolver(sys, rho0).with_initial_state(broken)


@pytest.mark.parametrize("case", ["random7", "gen4"])
def test_moment_solver_rejects_a_non_hermitian_initial_state(case):
    """rho0 = |1><2| on the dense route (7 sites) and the eigenbasis route
    (a 15-site tree), for a new solver, for another initial state of one
    and for propagate, all with the same message. Its Hermitian part is
    accepted by each."""
    sys, rho0 = _stacking_case(case)
    broken = np.zeros_like(rho0)
    broken[0, 1] = 1.0
    message = r"not exactly Hermitian; pass \(rho \+ rho\^dag\) / 2"
    with pytest.raises(ConfigurationError, match=message):
        MomentSolver(sys, broken)
    with pytest.raises(ConfigurationError, match=message):
        MomentSolver(sys, rho0).with_initial_state(broken)
    with pytest.raises(ConfigurationError, match=message):
        propagate(sys, broken, [0.0, 1.0])
    hermitian = (broken + broken.conj().T) / 2.0
    MomentSolver(sys, rho0).with_initial_state(hermitian)(0.7)
    propagate(sys, hermitian, [0.0, 1.0])


@pytest.mark.parametrize("kind, sites", [("site", (3,)),
                                         ("mixture", (1, 6)),
                                         ("coherent", (1, 2, 6))])
@pytest.mark.parametrize("n", [7, 15])
def test_every_built_initial_state_passes_the_hermitian_check(kind, sites, n):
    """Site, mixture and coherent states from initial_density_matrix are
    exactly Hermitian, so propagate and both moment routes take them."""
    rng = np.random.default_rng(90 + n)
    sys = random_transport_system(rng, n=n)
    rho0 = initial_density_matrix(InitialState(kind, sites), n)
    np.testing.assert_array_equal(rho0, rho0.conj().T)
    traj = propagate(sys, rho0, [0.0, 0.5])
    np.testing.assert_array_equal(traj.states[0], rho0)
    solver = MomentSolver(sys, rho0)
    solver.first_moment(0.7)
    route = "eigenbasis" if n >= 9 else "dense"
    assert solver.route_counts[route] == 1


@pytest.mark.parametrize("n", [2, 3, 7])
def test_dense_moments_of_a_hermitian_state_are_exactly_hermitian(n):
    rng = np.random.default_rng(80 + n)
    sys = random_transport_system(rng, n=n)
    solver = MomentSolver(sys, random_density_matrix(rng, n))
    for gamma in (0.0, 1e-3, 1.0, 1e3):
        for moment in solver(gamma):
            np.testing.assert_array_equal(moment, moment.conj().T)
    assert solver.route_counts == {"eigenbasis": 0, "dense": 4}


STACKED_RATES = np.logspace(-3, 5, 40)


def _stacking_case(case):
    """(system, rho0) for the first_moments tests: disordered binary trees
    of generation 4 and 5 (15 and 31 sites, so 9 rates per stack and one),
    and random systems of 10 sites (eigenbasis) and 4 (dense only)."""
    if case.startswith("gen"):
        spec = TreeSpec(generation=int(case[3:]), coupling_cm1=100.0,
                        disorder_cm1=150.0, rng_seed=5)
        sys = generate_tree(spec)
        return sys, initial_density_matrix(leaf_initial_state(spec, "coherent"),
                                           sys.n_sites)
    n = int(case[len("random"):])
    rng = np.random.default_rng(50 + n)
    return random_transport_system(rng, n=n), random_density_matrix(rng, n)


@pytest.mark.parametrize("case", ["gen4", "gen5", "random10", "random4"])
def test_first_moments_equal_a_loop_of_first_moment(case):
    """The stack is bit for bit a loop of first_moment and counts one
    solve per rate, as a Python int. Both are also checked against a dense
    solve at the ends of the grid, where the Zeno end needs the refinement
    step, so a fault the two share cannot hide."""
    sys, rho0 = _stacking_case(case)
    solver = MomentSolver(sys, rho0)
    solver.first_moment(0.5)
    before = solver.route_counts
    got = solver.first_moments(STACKED_RATES)
    route = "eigenbasis" if sys.n_sites >= 9 else "dense"
    grown = {k: solver.route_counts[k] - before[k] for k in before}
    assert grown == {"eigenbasis": 0, "dense": 0, route: len(STACKED_RATES)}
    assert all(type(v) is int for v in solver.route_counts.values())
    looped = MomentSolver(sys, rho0)
    assert got.shape == (len(STACKED_RATES), sys.n_sites, sys.n_sites)
    for gamma, s1 in zip(STACKED_RATES, got):
        np.testing.assert_array_equal(s1, looped.first_moment(gamma))
    for k in (0, len(STACKED_RATES) - 1):
        liou = reference_liouvillian(sys.with_dephasing(STACKED_RATES[k]))
        want = _unvec(np.linalg.solve(liou, -_vec(rho0)), sys.n_sites)
        assert _relative_gap(got[k], want) <= 1e-12


@pytest.mark.parametrize("case", ["gen4", "gen5"])
def test_first_moments_stack_gamma_zero_with_positive_rates(case):
    """gamma = 0 is one more rate of a stack, whose capacitance matrix is
    then the identity: the stack is bit for bit a loop of first_moment,
    and its gamma = 0 slice matches the eigen-formula oracle."""
    sys, rho0 = _stacking_case(case)
    gammas = np.r_[0.3, 0.0, STACKED_RATES]
    solver = MomentSolver(sys, rho0)
    got = solver.first_moments(gammas)
    assert solver.route_counts == {"eigenbasis": len(gammas), "dense": 0}
    looped = MomentSolver(sys, rho0)
    for gamma, s1 in zip(gammas, got):
        np.testing.assert_array_equal(s1, looped.first_moment(gamma))
    assert _relative_gap(got[1], eigen_integrals(sys, rho0)[0]) <= 1e-10


def test_a_coherent_solver_never_builds_the_pair_products(
        pair_product_builds):
    """gamma = 0 needs no capacitance matrix, so a solver asked only for
    it, one rate or a stack, builds none of the O(N^3) pair products
    behind one. The first positive rate builds them, once."""
    sys, rho0 = _stacking_case("gen5")
    solver = MomentSolver(sys, rho0)
    solver(0.0)
    solver.first_moments([0.0, 0.0])
    assert pair_product_builds == []
    solver.first_moment(0.7)
    solver.first_moments(STACKED_RATES)
    assert pair_product_builds == [solver._eigen]


@pytest.mark.parametrize("case", ["gen3", "gen4", "gen5"])
def test_a_solver_for_another_initial_state_shares_the_factorisations(
        case, factored_rates):
    """with_initial_state shares the factorisations of the last
    first_moments scan, on the dense route (gen3) and the eigenbasis
    route: a sibling's scan of the same rates factors nothing, made
    before or after that scan. A single-rate solve is never shared, and a
    scan of other rates replaces the shared one. Each solver's moments are
    bit for bit those of a solver of its own."""
    sys, rho0 = _stacking_case(case)
    other = np.diag(np.diag(rho0))
    first = MomentSolver(sys, rho0)
    early = first.with_initial_state(other)
    first.first_moments(STACKED_RATES)
    first.first_moment(0.0)
    assert factored_rates == [*STACKED_RATES, 0.0]
    late = first.with_initial_state(rho0)
    factored_rates.clear()
    got = early.first_moments(STACKED_RATES)
    np.testing.assert_array_equal(late.first_moments(STACKED_RATES),
                                  first.first_moments(STACKED_RATES))
    assert factored_rates == []
    zero = early.first_moment(0.0)
    assert factored_rates == [0.0]
    factored_rates.clear()
    late.first_moments(STACKED_RATES[:3])
    early.first_moments(STACKED_RATES)
    assert factored_rates == [*STACKED_RATES[:3], *STACKED_RATES]
    route = "eigenbasis" if sys.n_sites >= 9 else "dense"
    assert early.route_counts == {"eigenbasis": 0, "dense": 0,
                                  route: 2 * len(STACKED_RATES) + 1}
    alone = MomentSolver(sys, other)
    np.testing.assert_array_equal(got, alone.first_moments(STACKED_RATES))
    np.testing.assert_array_equal(zero, alone.first_moment(0.0))


def test_a_dense_solver_for_another_initial_state_shares_the_liouvillian(
        monkeypatch):
    """On a 7-site tree, which takes the dense route, with_initial_state
    reuses the coherent Liouvillian its sibling built, by one call of
    build_liouvillian at gamma_phi = 0, and its moments, from its own
    right-hand side, are bit for bit those of a solver of its own."""
    sys, rho0 = _stacking_case("gen3")
    other = np.diag(np.diag(rho0))
    builds = []
    real = dynamics.build_liouvillian

    def counting(system):
        builds.append(system.dephasing_rate)
        return real(system)

    monkeypatch.setattr(dynamics, "build_liouvillian", counting)
    first = MomentSolver(sys, rho0)
    second = first.with_initial_state(other)
    first.first_moments(STACKED_RATES)
    both = first(0.7)
    assert builds == [0.0]
    got = second.first_moments(STACKED_RATES)
    got_both = second(0.7)
    assert builds == [0.0]
    assert second.route_counts == {"eigenbasis": 0,
                                   "dense": len(STACKED_RATES) + 1}
    alone = MomentSolver(sys, other)
    np.testing.assert_array_equal(got, alone.first_moments(STACKED_RATES))
    for got_moment, want, sibling in zip(got_both, alone(0.7), both):
        np.testing.assert_array_equal(got_moment, want)
        assert not np.array_equal(got_moment, sibling)


def _dense_capacitance(sys, gamma):
    """E^T A^-1 E with A = L(0) - gamma I, from a dense solve of the
    oracles' column-stacked Liouvillian refined once against a long-double
    residual, so that its own error stays near roundoff at cond(A) ~ 1e3."""
    n = sys.n_sites
    a = reference_liouvillian(sys) - gamma * np.eye(n * n)
    pops = (n + 1) * np.arange(n)
    e = np.zeros((n * n, n))
    e[pops, np.arange(n)] = 1.0
    x = np.linalg.solve(a, e)
    residual = e - a.astype(np.clongdouble) @ x.astype(np.clongdouble)
    x += np.linalg.solve(a, residual.astype(complex))
    return x[pops]


@pytest.mark.parametrize("case", ["random9", "gen4", "gen5"])
def test_the_folded_capacitance_matches_a_dense_solve(case):
    """G is real, and the build that folds the (j, k) and (k, j) pairs
    into one real product matches E^T A^-1 E from the dense Liouvillian
    to 1e-13 in norm, over the span of rates the tree search scans."""
    if case == "random9":
        sys = random_transport_system(np.random.default_rng(7), n=9,
                                      dephasing=0.0)
    else:
        sys, _ = _stacking_case(case)
    eigen = dynamics._Eigenbasis.of(effective_hamiltonian(sys))
    v = CM1_TO_PS_ANGULAR * np.max(np.abs(sys.couplings))
    gammas = v * np.array([1e-3, 3e-2, 1.0, 1e3])
    got = eigen.capacitance(1.0 / (eigen._rinv0 - gammas[:, None, None]))
    assert got.dtype == float
    for gamma, g in zip(gammas, got):
        want = _dense_capacitance(sys, gamma)
        assert np.linalg.norm(want.imag) <= 1e-13 * np.linalg.norm(want)
        assert np.linalg.norm(g - want) <= 1e-13 * np.linalg.norm(want)


def test_first_moments_take_the_dense_route_at_the_exceptional_point():
    """No rate may use the eigenbasis of a defective H_eff, stacked or not."""
    sys = _exceptional_point_system(0.0)
    rho0 = np.zeros((9, 9), dtype=complex)
    rho0[0, 0] = rho0[5, 5] = 0.5
    gammas = np.logspace(-3, 5, 9)
    solver = MomentSolver(sys, rho0)
    got = solver.first_moments(gammas)
    assert solver.route_counts == {"eigenbasis": 0, "dense": len(gammas)}
    looped = MomentSolver(sys, rho0)
    for gamma, s1 in zip(gammas, got):
        np.testing.assert_array_equal(s1, looped.first_moment(gamma))


@pytest.mark.parametrize("gammas", [[0.5, 2.0], [0.0, 2.0]])
def test_first_moments_keep_the_guards_of_each_rate(gammas):
    """Site 9 of the dark-site system never decays. At gamma > 0 the
    capacitance guard trips, and at gamma = 0 the dark-mode guard: either
    way the rate falls back to the dense solve, which refuses it."""
    solver = MomentSolver(_dark_site_system(), np.eye(9, dtype=complex) / 9.0)
    with pytest.raises(NonConvergentIntegralError):
        solver.first_moments(gammas)
    assert solver.route_counts == {"eigenbasis": 0, "dense": 1}


@pytest.mark.parametrize("bad", [-1e-9, -1.0, float("nan"), float("inf"),
                                 float("-inf")])
def test_first_moments_check_every_rate_before_solving(bad):
    sys, rho0 = _stacking_case("random10")
    solver = MomentSolver(sys, rho0)
    with pytest.raises(ConfigurationError):
        solver.first_moments([0.5, 1.0, bad, 2.0])
    with pytest.raises(ConfigurationError):
        solver.first_moments([[0.5, 1.0]])
    assert solver.route_counts == {"eigenbasis": 0, "dense": 0}


def test_trajectory_csv_layout():
    times = np.array([0.0, 1.0])
    states = np.array([np.diag([1.0, 0.0]),
                       [[0.5, 0.25j], [-0.25j, 0.25]]]).astype(complex)
    traj = Trajectory(times=times, states=states,
                      loss_integral=np.array([0.0, 0.25]))
    buf = io.StringIO()
    traj.write_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "t_ps,p_1,p_2,trace,coherence_l1"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert float(first[1]) == 1.0
    second = lines[2].split(",")
    assert float(second[3]) == pytest.approx(0.75)
    assert float(second[4]) == pytest.approx(0.5)


def test_coherence_l1_sums_off_diagonal_magnitudes():
    state = np.array([[[0.5, 0.3 - 0.4j], [0.3 + 0.4j, 0.5]]])
    traj = Trajectory(times=np.array([0.0]), states=state.astype(complex),
                      loss_integral=np.zeros(1))
    assert traj.coherence_l1()[0] == pytest.approx(1.0)
