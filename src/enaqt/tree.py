"""Disordered binary-tree transport systems.

A generation-g tree has 2^g - 1 sites labeled 1..2^g - 1 with site m
coupled to its children 2m and 2m + 1 at uniform strength V. Excitation
starts on the outermost branch (the 2^(g-1) leaves), either as a uniform
coherent superposition or as a statistical mixture, and is trapped at the
root (site 1). Static disorder sets the site energies to i.i.d. normal
draws of mean zero and standard deviation delta, naturally measured in
units of V.

The ensemble study asks, per disorder strength: how efficient is fully
coherent transport (gamma_phi = 0), and how efficient can dephasing make
it (gamma_phi optimized per realization)? Disorder localizes the coherent
dynamics, and dephasing recovers much of the loss, increasingly so the
stronger the disorder. Both initial-state kinds see the same trees, so
disorder_ensemble searches each tree once for every kind it is asked for.
The search works with the "trapped eventually" observable E of the tree,
the first moment of its adjoint system started from 2K = 2 diag kappa
(trapping_solver): eta = Re tr(E rho0) for every initial state, and
d eta/d gamma = Re tr(dE/dgamma rho0), where first_moments solves dE/dgamma
with the factorisations of E. One first_moments call solves gamma = 0 and
the SEARCH_GRID_POINTS grid rates; each grid cell where d eta/d ln gamma
falls through zero brackets a maximum, and every bracket of every kind
closes together by Illinois steps, one stacked first_moments call per
round, to SEARCH_LOG_TOL in ln gamma. Over the 2000 trees of a
100-sample, 20-delta generation-4 ensemble for both kinds, a tree took 6
rounds after the first call at the median and at most 14, and 23 rates
in all at the median (at most 35). Each kind's numbers are bit for bit
those of a run for that kind alone. The solver's conditioning guards
fail the tree, for every kind, rather than let an ill-posed realization
through. The search (SEARCH_* constants) and the ensemble's 5 % failure
threshold are fixed, and a TreeSpec above MAX_GENERATION = 7 is refused
when it is built.

Reproducibility contract: site energies come from Box-Muller applied to a
counter-based Philox stream keyed by a hash of (the template spec's
rng_seed, delta index, sample index), so any sample can be regenerated
in isolation and results are bitwise independent of execution order.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import MomentSolver
from .errors import ConfigurationError, SweepFailureError
from .model import (InitialState, TransportSystem, as_integer, as_rate,
                    as_rate_grid, as_real, initial_density_matrix)
from .observables import clamped_probability
from .sweep import SweepPlan, derive_seed, run_sweep, sample_mean_std
from .units import cm1_to_angular

# 127 sites; TreeSpec refuses larger trees. The moment solver's eigenbasis
# route handles any tree up to this size; the limit guards its dense
# fallback, whose Liouvillian grows as 4^g (4.2 GB at g = 7, where the
# fallback already refuses anything above 1 GiB).
MAX_GENERATION = 7

# Ensemble defaults, rates in units of the coupling (angular frequency).
RECOMB_OVER_V = 0.005
TRAP_OVER_V = 2.0
DEFAULT_DELTA_GRID = tuple(np.linspace(0.0, 4.0, 20))
DEFAULT_COUPLING_CM1 = 100.0
# An ensemble aborts when more than this fraction of the samples at any
# one disorder strength fail.
FAILURE_THRESHOLD = 0.05

# Dephasing search: SEARCH_GRID_POINTS log-spaced rates over SEARCH_SPAN
# times V (the largest coupling, angular), plus the exact gamma_phi = 0
# endpoint; each bracketed maximum is then closed to SEARCH_LOG_TOL in
# ln gamma (see optimal_dephasing).
SEARCH_GRID_POINTS = 10
SEARCH_SPAN = (1e-3, 1e3)
SEARCH_LOG_TOL = 1e-6


@dataclass(frozen=True)
class TreeSpec:
    """Parameters of one disordered-tree realization."""

    generation: int
    coupling_cm1: float
    disorder_cm1: float = 0.0
    trap_rate_ps: float = None
    recomb_rate_ps: float = None
    rng_seed: int = 0

    def __post_init__(self):
        for name in ("generation", "rng_seed"):
            object.__setattr__(self, name, as_integer(name, getattr(self, name)))
        for name in ("coupling_cm1", "disorder_cm1"):
            object.__setattr__(self, name, as_real(name, getattr(self, name)))
        if self.generation < 2:
            raise ConfigurationError("tree generation must be >= 2")
        if self.generation > MAX_GENERATION:
            raise ConfigurationError(
                "tree generation %d exceeds the limit of %d (%d sites): the "
                "moment solver's dense fallback grows as 4^g"
                % (self.generation, MAX_GENERATION, 2 ** MAX_GENERATION - 1))
        if not (math.isfinite(self.disorder_cm1) and self.disorder_cm1 >= 0.0):
            raise ConfigurationError("disorder must be finite and >= 0")
        if not (math.isfinite(self.coupling_cm1) and self.coupling_cm1 != 0.0):
            raise ConfigurationError("tree coupling must be finite and nonzero")
        # Default rates scale with the coupling: kappa = 2V, Gamma = 0.005V
        # (V as an angular frequency, hbar = 1).
        v_ang = abs(cm1_to_angular(self.coupling_cm1))
        if self.trap_rate_ps is None:
            object.__setattr__(self, "trap_rate_ps", TRAP_OVER_V * v_ang)
        if self.recomb_rate_ps is None:
            object.__setattr__(self, "recomb_rate_ps", RECOMB_OVER_V * v_ang)
        for name in ("trap_rate_ps", "recomb_rate_ps"):
            object.__setattr__(self, name, as_rate(name, getattr(self, name)))
        if self.trap_rate_ps == 0.0 and self.recomb_rate_ps == 0.0:
            raise ConfigurationError(
                "trap_rate_ps and recomb_rate_ps are both 0: the tree has no "
                "decay channel")

    @property
    def n_sites(self):
        return 2 ** self.generation - 1


def normal_draws(seed, n):
    """n standard-normal draws by Box-Muller on a Philox stream.

    Philox is counter-based, so equal seeds give equal streams on every
    platform; Box-Muller is pinned here (rather than whatever the numpy
    default happens to be) so the draws are stable across numpy versions.
    """
    gen = np.random.Generator(np.random.Philox(key=int(seed)))
    m = (int(n) + 1) // 2
    u1 = gen.random(m)
    u2 = gen.random(m)
    # random() yields [0, 1); use 1 - u1 in (0, 1] so the log is finite.
    r = np.sqrt(-2.0 * np.log1p(-u1))
    phase = 2.0 * math.pi * u2
    z = np.concatenate([r * np.cos(phase), r * np.sin(phase)])
    return z[:int(n)]


def generate_tree(spec):
    """TransportSystem for one seeded tree realization.

    Site energies are delta * normal_draws(seed); the trap sits on site 1
    and recombination acts everywhere.
    """
    if not 0 <= spec.rng_seed < 2 ** 128:
        raise ConfigurationError("tree seed %d is outside [0, 2^128), the "
                                 "keys of a Philox stream" % spec.rng_seed)
    n = spec.n_sites
    energies = spec.disorder_cm1 * normal_draws(spec.rng_seed, n)
    couplings = np.zeros((n, n))
    for m in range(1, 2 ** (spec.generation - 1)):
        for child in (2 * m, 2 * m + 1):
            couplings[m - 1, child - 1] = spec.coupling_cm1
            couplings[child - 1, m - 1] = spec.coupling_cm1
    kappa = np.zeros(n)
    kappa[0] = spec.trap_rate_ps
    return TransportSystem(
        n_sites=n,
        site_energies=energies,
        couplings=couplings,
        trap_rates=kappa,
        recomb_rate=spec.recomb_rate_ps,
        dephasing_rate=0.0,
    )


def leaf_sites(spec):
    """The outermost branch: sites 2^(g-1) .. 2^g - 1."""
    return tuple(range(2 ** (spec.generation - 1), 2 ** spec.generation))


def leaf_initial_state(spec, kind):
    """Uniform coherent superposition or statistical mixture over the leaves."""
    if kind not in ("coherent", "mixture"):
        raise ConfigurationError(
            "initial-state kind must be 'coherent' or 'mixture', got %r" % (kind,))
    return InitialState(kind=kind, sites=leaf_sites(spec))


# ---------------------------------------------------------------------------
# Dephasing optimization


def trapping_solver(sys):
    """The MomentSolver whose first moment is the "trapped eventually"
    observable E of sys: the first moment of sys.adjoint() started from
    2K = 2 diag kappa, which solves L^dag E = -2K. The efficiency from any
    initial state is then eta = Re tr(E rho0), so one solve per rate
    serves every initial state, and one more with the same factors gives
    dE/dgamma and so d eta/d gamma."""
    return MomentSolver(sys.adjoint(), np.diag(2.0 * sys.trap_rates))


def efficiency(solver, trapped, rho0):
    """eta = Re tr(E rho0) from the trapped-eventually observable E
    (trapped) of trapping_solver, clamped to [0, 1] within roundoff as
    observables.efficiency clamps. solver is the trapping solver E came
    from; only bench/tracing.py reads it (its n_sites)."""
    return clamped_probability(float(np.vdot(rho0, trapped).real),
                               "efficiency")


class _Search:
    """The dephasing search of one initial state rho0, on x = ln gamma.
    seen holds every (x, eta) measured, grid the grid's (x, eta, s), and
    brackets the open ones as [a, s(a), b, s(b), side], with
    s(a) > 0 > s(b) for the slope s = gamma d eta/d gamma = d eta/dx and
    side the end the last step moved (+1 for a, -1 for b, 0 before any)."""

    def __init__(self, rho0):
        self.rho0 = rho0
        self.seen = []
        self.grid = []
        self.brackets = []

    def measure(self, solver, x, trapped, d_trapped):
        """(x, eta, s) at x from E and dE/dgamma there; eta is seen."""
        eta = efficiency(solver, trapped, self.rho0)
        self.seen.append((x, eta))
        return x, eta, math.exp(x) * np.vdot(self.rho0, d_trapped).real

    def open(self, points):
        """A bracket on each cell of the (x, eta, s) points, in increasing
        x, where s goes from > 0 to < 0."""
        for (a, _, sa), (b, _, sb) in zip(points, points[1:]):
            if sa > 0.0 > sb:
                self.brackets.append([a, sa, b, sb, 0])

    def steps(self):
        """(bracket, x) for the next rate of each open bracket: the
        regula falsi point, or the midpoint when roundoff puts that
        outside (a, b)."""
        for bracket in self.brackets:
            a, sa, b, sb, _ = bracket
            x = (a * sb - b * sa) / (sb - sa)
            yield bracket, (x if a < x < b else 0.5 * (a + b))

    def advance(self, bracket, x, s):
        """Move the end of bracket whose slope has the sign of s to x.
        When the same end moves twice in a row, the other end's slope is
        halved (the Illinois rule), so that the next step moves it. The
        bracket closes once it is narrower than SEARCH_LOG_TOL, or when
        s is exactly 0."""
        a, sa, b, sb, side = bracket
        if s > 0.0:
            bracket[:] = x, s, b, (0.5 * sb if side == 1 else sb), 1
        else:
            bracket[:] = a, (0.5 * sa if side == -1 else sa), x, s, -1
        if s == 0.0 or bracket[2] - bracket[0] < SEARCH_LOG_TOL:
            self.brackets.remove(bracket)

    def result(self, eta0):
        """(gamma*, eta*, eta(0)) from the best rate seen, or gamma* = 0
        when eta(0) is at least as good."""
        x, eta = max(self.seen, key=lambda p: p[1])
        return (0.0, eta0, eta0) if eta0 >= eta else (math.exp(x), eta, eta0)


def optimal_dephasing(solver, rho0s):
    """Maximize transfer efficiency over the dephasing rate for each
    initial state of rho0s, returning one (gamma*, eta*, eta(0)) per state.

    solver is trapping_solver(sys) of the system to search. Each eta comes
    from efficiency(solver, E, rho0), and each slope
    s = gamma d eta/d gamma = Re tr(gamma dE/dgamma rho0) from the
    derivative first_moments returns with E, so one first_moments call
    per round serves every state. The first call solves gamma = 0 and
    SEARCH_GRID_POINTS log-spaced rates over SEARCH_SPAN times V (the
    largest coupling, angular). Each grid cell where s goes from > 0 to
    < 0 brackets a maximum in ln gamma. At the grid's edges, one more
    rate a grid cell out is solved when s > 0 at the top rate, or when
    s < 0 at the bottom rate while eta there beats eta(0), and brackets
    its cell in the same way. Then every open bracket of every state
    takes one Illinois step per round, all in one stacked call, until it
    is narrower than SEARCH_LOG_TOL in ln gamma.

    eta* is the best eta the state has seen, and gamma = 0 wins when
    eta(0) >= eta*; a state whose slope is negative at every grid rate
    thus takes nothing beyond the first call. A state's rates depend on
    its own etas and slopes alone, and a stack's moments equal those of
    each rate alone bit for bit, so each state's result is that of a
    search for it alone.
    """
    sys = solver.system
    vmax = float(np.max(np.abs(sys.couplings)))
    if vmax == 0.0:
        raise ConfigurationError(
            "system has no couplings; dephasing cannot create transport")
    v_ang = cm1_to_angular(vmax)
    xs = np.linspace(*(math.log(edge * v_ang) for edge in SEARCH_SPAN),
                     SEARCH_GRID_POINTS)
    cell = xs[1] - xs[0]
    trapped, d_trapped = solver.first_moments(np.r_[0.0, np.exp(xs)])
    searches = [_Search(rho0) for rho0 in rho0s]
    eta0 = [efficiency(solver, trapped[0], search.rho0)
            for search in searches]
    # The first round's edge rates, as (search, None, x); a bracket's
    # steps follow as (search, bracket, x).
    edges = []
    for search, e0 in zip(searches, eta0):
        search.grid = [search.measure(solver, *args) for args in
                       zip(xs, trapped[1:], d_trapped[1:])]
        search.open(search.grid)
        bottom, top = search.grid[0], search.grid[-1]
        if top[2] > 0.0:
            edges.append((search, None, top[0] + cell))
        if bottom[2] < 0.0 and bottom[1] > e0:
            edges.append((search, None, bottom[0] - cell))
    requests = edges + [(search, *step) for search in searches
                        for step in search.steps()]
    while requests:
        trapped, d_trapped = solver.first_moments(
            np.exp([x for _, _, x in requests]))
        for (search, bracket, x), e, de in zip(requests, trapped, d_trapped):
            point = search.measure(solver, x, e, de)
            if bracket is not None:
                search.advance(bracket, x, point[2])
            elif x > xs[-1]:
                search.open([search.grid[-1], point])
            else:
                search.open([point, search.grid[0]])
        requests = [(search, *step) for search in searches
                    for step in search.steps()]
    return [search.result(e0) for search, e0 in zip(searches, eta0)]


# ---------------------------------------------------------------------------
# Disorder ensembles


@dataclass(frozen=True)
class DeltaRecord:
    """Aggregate statistics at one disorder strength."""

    delta_over_v: float
    n_ok: int
    n_failed: int
    eta_quantum_mean: float
    eta_quantum_std: float
    eta_opt_mean: float
    eta_opt_std: float
    gamma_opt_mean_ps: float
    gamma_opt_std_ps: float


@dataclass(frozen=True)
class DisorderEnsembleReport:
    kind: str
    records: tuple

    def write_csv(self, f):
        f.write("delta_over_V,kind,n_ok,eta_quantum_mean,eta_quantum_std,"
                "eta_opt_mean,eta_opt_std,gamma_opt_mean_ps,gamma_opt_std_ps,"
                "n_failed\n")
        for r in self.records:
            f.write("%r,%s,%d,%r,%r,%r,%r,%r,%r,%d\n" % (
                float(r.delta_over_v), self.kind, r.n_ok,
                float(r.eta_quantum_mean), float(r.eta_quantum_std),
                float(r.eta_opt_mean), float(r.eta_opt_std),
                float(r.gamma_opt_mean_ps), float(r.gamma_opt_std_ps),
                r.n_failed))


def _solve_sample(task):
    """optimal_dephasing's (gamma*, eta*, eta(0)) for each kind of one
    tree, in the order of kinds, from one search with one trapping solver
    that serves every kind; a failure fails the tree for every kind."""
    spec, kinds = task
    sys = generate_tree(spec)
    rho0s = [initial_density_matrix(leaf_initial_state(spec, kind),
                                    sys.n_sites) for kind in kinds]
    return optimal_dephasing(trapping_solver(sys), rho0s)


def disorder_ensemble(spec_template, delta_grid=None, n_samples=100,
                      kinds=("mixture",)):
    """Ensemble statistics of eta(gamma_phi = 0) and the dephasing optimum
    per disorder strength, as {kind: DisorderEnsembleReport} in the order
    of kinds.

    delta_grid is in units of V (default 20 points over [0, 4]). Each
    (delta, sample) pair gets its own seed, derived from
    spec_template.rng_seed and the same for every kind, so each tree is
    generated, diagonalized and searched once for all kinds. A failed
    sample is recorded for every kind and excluded; any delta with more
    than FAILURE_THRESHOLD (5 %) of its samples failing aborts the
    ensemble.
    """
    n_samples = as_integer("n_samples", n_samples)
    if n_samples < 1:
        raise ConfigurationError("n_samples must be >= 1")
    kinds = tuple(kinds)
    if (not kinds or len(set(kinds)) < len(kinds)
            or any(k not in ("coherent", "mixture") for k in kinds)):
        raise ConfigurationError(
            "kinds must be distinct, each 'coherent' or 'mixture', got %r"
            % (kinds,))
    deltas = as_rate_grid("disorder values", DEFAULT_DELTA_GRID
                          if delta_grid is None else delta_grid)
    seed = spec_template.rng_seed
    v = abs(spec_template.coupling_cm1)

    tasks = []
    for di, delta in enumerate(deltas):
        for si in range(n_samples):
            spec = replace(spec_template, disorder_cm1=float(delta) * v,
                           rng_seed=derive_seed(seed, di, si))
            tasks.append((spec, kinds))

    # The 5 % rule holds per delta, checked below; 1.0 never fires here.
    results = run_sweep(SweepPlan(tasks=tuple(tasks)), _solve_sample,
                        failure_threshold=1.0)

    blocks = [results[di * n_samples:(di + 1) * n_samples]
              for di in range(len(deltas))]
    for delta, block in zip(deltas, blocks):
        errors = [r.error for r in block if not r.ok]
        if len(errors) > FAILURE_THRESHOLD * n_samples:
            raise SweepFailureError(
                "%d of %d samples failed at delta/V = %g; first failure: %s"
                % (len(errors), n_samples, delta, errors[0]))
    reports = {}
    for ki, kind in enumerate(kinds):
        records = []
        for delta, block in zip(deltas, blocks):
            ok = [r.value[ki] for r in block if r.ok]
            gamma_mean, gamma_std = sample_mean_std(v[0] for v in ok)
            eta_o_mean, eta_o_std = sample_mean_std(v[1] for v in ok)
            eta_q_mean, eta_q_std = sample_mean_std(v[2] for v in ok)
            records.append(DeltaRecord(
                delta_over_v=float(delta), n_ok=len(ok),
                n_failed=n_samples - len(ok),
                eta_quantum_mean=eta_q_mean, eta_quantum_std=eta_q_std,
                eta_opt_mean=eta_o_mean, eta_opt_std=eta_o_std,
                gamma_opt_mean_ps=gamma_mean, gamma_opt_std_ps=gamma_std))
        reports[kind] = DisorderEnsembleReport(kind=kind,
                                               records=tuple(records))
    return reports
