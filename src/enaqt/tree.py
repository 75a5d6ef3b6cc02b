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
disorder_ensemble solves each tree once for every kind it is asked for.
A search solves S1 for gamma = 0 and the 40 grid rates in one
first_moments scan, then its refinement's rates one at a time. Each
kind's dynamics.MomentSolver (the second made by with_initial_state)
shares the tree's routes and the factorisations of that scan, so each
kind factors only its own refinement rates, and its numbers are bit for
bit those of a run for that kind alone.
The refinement is a Brent search on log gamma seeded with the grid winner
and its neighbors; over the 4000 searches of a 100-sample, 20-delta
generation-4 ensemble for both kinds it took 5 evaluations at the median
and at most 16 (SEARCH_MAX_REFINE caps it at 23). Its conditioning guards
fail the sample, for that kind only, rather than let an ill-posed
realization through. The search for the optimal rate (SEARCH_* constants)
and the ensemble's 5 % failure threshold are fixed, and a TreeSpec above
MAX_GENERATION = 7 is refused when it is built.

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
from .observables import efficiency
from .sweep import (SweepPlan, derive_seed, run_sweep, run_task,
                    sample_mean_std)
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
# endpoint; a Brent search on log gamma, seeded with the grid winner and
# its neighbors, then shrinks the bracket to SEARCH_REL_TOL in gamma: 41
# efficiency evaluations plus at most SEARCH_MAX_REFINE for the refinement.
SEARCH_GRID_POINTS = 40
SEARCH_SPAN = (1e-3, 1e3)
SEARCH_REL_TOL = 1e-3
SEARCH_MAX_REFINE = 23


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


def _brent_max(f, a, b, seed, tol, max_evals):
    """Maximize f on [a, b] by Brent's method (Brent 1973, ch. 5): a
    parabola through the three best points when it steps well inside the
    bracket, a golden-section step into the larger side otherwise.

    seed holds two or three points of [a, b] already evaluated, as
    (x, f(x)), best first: the best point x, the second best w and the
    third v (w again when there are two), so the first parabola can be
    fitted through them. Steps are at least tol long. The search stops
    once the bracket around the best point is at most 4 tol wide, or after
    max_evals evaluations of f, and returns the best point found as
    (x, f(x)).
    """
    cgold = (3.0 - math.sqrt(5.0)) / 2.0
    (x, fx), (w, fw) = seed[0], seed[1]
    v, fv = seed[-1]
    # Count the bracket's width as the last two steps, so the first
    # parabola is tried; a later one must move less than half the step
    # before last.
    d = e = b - a
    for _ in range(max_evals):
        m = 0.5 * (a + b)
        if abs(x - m) <= 2.0 * tol - 0.5 * (b - a):
            break
        parabolic = abs(e) > tol
        if parabolic:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            e_prev, e = e, d
            parabolic = (abs(p) < abs(0.5 * q * e_prev)
                         and q * (a - x) < p < q * (b - x))
        if parabolic:
            d = p / q
            if min(x + d - a, b - x - d) < 2.0 * tol:
                d = math.copysign(tol, m - x)
        else:
            e = (a if x >= m else b) - x
            d = cgold * e
        u = x + (d if abs(d) >= tol else math.copysign(tol, d))
        fu = f(u)
        if fu >= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu >= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu >= fv or v == x or v == w:
                v, fv = u, fu
    return x, fx


def optimal_dephasing(solver):
    """Maximize transfer efficiency over the dephasing rate.

    Scans a logarithmic grid (plus the exact zero endpoint), then refines
    around the grid winner by Brent's method on log gamma, starting from
    the winner and its neighbors in the bracket with the efficiencies the
    grid already has. The refinement assumes local unimodality; if it
    happens to regress, the grid winner is kept, and the zero endpoint
    always participates, so eta* >= eta(0) is guaranteed.

    The S1 of the zero endpoint and the grid come from one
    MomentSolver.first_moments call, whose stack equals one first_moment
    per rate bit for bit; the refinement's steps solve one rate at a time.
    The efficiency is evaluated once per rate: 41 times for gamma = 0 and
    the grid, plus once per refinement step, of which there are at most
    SEARCH_MAX_REFINE (about 5 for most trees). solver is the
    MomentSolver of the system (solver.system) and initial state to search
    from: disorder_ensemble passes one per initial-state kind, all sharing
    the factorisations of one tree's scan.

    Returns (gamma_star, eta_star, eta(0)).
    """
    sys = solver.system
    vmax = float(np.max(np.abs(sys.couplings)))
    if vmax == 0.0:
        raise ConfigurationError(
            "system has no couplings; dephasing cannot create transport")
    v_ang = cm1_to_angular(vmax)
    grid = np.logspace(math.log10(SEARCH_SPAN[0] * v_ang),
                       math.log10(SEARCH_SPAN[1] * v_ang), SEARCH_GRID_POINTS)
    eta0, *etas = (efficiency(sys, s1)
                   for s1 in solver.first_moments(np.r_[0.0, grid]))
    i = int(np.argmax(etas))
    best_gamma, best_eta = float(grid[i]), float(etas[i])

    # Bracket the winner with its neighbors (extending one grid cell at the
    # edges) and refine, seeded with the winner and its neighbors in the
    # bracket, best first.
    cell = grid[1] / grid[0]
    lo = grid[i - 1] if i > 0 else grid[0] / cell
    hi = grid[i + 1] if i < len(grid) - 1 else grid[-1] * cell
    seed = sorted(((math.log(grid[j]), float(etas[j])) for j in (i - 1, i + 1)
                   if 0 <= j < len(grid)), key=lambda p: p[1], reverse=True)
    # Steps of at least log1p(SEARCH_REL_TOL) / 12 close the bracket to a
    # third of SEARCH_REL_TOL, as scipy's fminbound does for xatol =
    # log1p(SEARCH_REL_TOL) / 4. Over 4000 generation-4 searches eta* then
    # came out at most 1.1e-10 below a golden-section search that closes
    # the bracket to SEARCH_REL_TOL (and up to 1.8e-9 above it).
    x_ref, eta_ref = _brent_max(
        lambda x: efficiency(sys, solver.first_moment(math.exp(x))),
        math.log(lo), math.log(hi),
        [(math.log(best_gamma), best_eta)] + seed,
        math.log1p(SEARCH_REL_TOL) / 12.0, SEARCH_MAX_REFINE)
    if eta_ref > best_eta:
        best_gamma, best_eta = math.exp(x_ref), eta_ref
    if eta0 >= best_eta:
        return 0.0, eta0, eta0
    return best_gamma, best_eta, eta0


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
    """One TaskResult per kind for one tree, holding optimal_dephasing's
    (gamma*, eta*, eta(0)) or the error of that kind's search alone. The
    kinds' solvers share the tree's eigenbasis (on the dense route, its
    Liouvillian) and the factorisations of the search's scan."""
    spec, kinds = task
    sys = generate_tree(spec)
    solver = None
    results = []
    for kind in kinds:
        rho0 = initial_density_matrix(leaf_initial_state(spec, kind),
                                      sys.n_sites)
        solver = (MomentSolver(sys, rho0) if solver is None
                  else solver.with_initial_state(rho0))
        results.append(run_task(solver, optimal_dephasing))
    return results


def disorder_ensemble(spec_template, delta_grid=None, n_samples=100,
                      kinds=("mixture",)):
    """Ensemble statistics of eta(gamma_phi = 0) and the dephasing optimum
    per disorder strength, as {kind: DisorderEnsembleReport} in the order
    of kinds.

    delta_grid is in units of V (default 20 points over [0, 4]). Each
    (delta, sample) pair gets its own seed, derived from
    spec_template.rng_seed and the same for every kind, so each tree is
    generated, diagonalized and factored once for all kinds. Per-sample
    failures are recorded per kind and excluded; any delta with more than
    FAILURE_THRESHOLD (5 %) of a kind's samples failing aborts the
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

    results = run_sweep(SweepPlan(tasks=tuple(tasks)), _solve_sample,
                        failure_threshold=FAILURE_THRESHOLD)

    reports = {}
    for ki, kind in enumerate(kinds):
        records = []
        for di, delta in enumerate(deltas):
            # A tree that failed before its searches fails every kind.
            block = [r.value[ki] if r.ok else r
                     for r in results[di * n_samples:(di + 1) * n_samples]]
            ok = [r.value for r in block if r.ok]
            n_failed = n_samples - len(ok)
            if n_failed > FAILURE_THRESHOLD * n_samples:
                raise SweepFailureError(
                    "%d of %d %s samples failed at delta/V = %g; first "
                    "failure: %s" % (n_failed, n_samples, kind, delta,
                                       next(r.error for r in block
                                            if not r.ok)))
            gamma_mean, gamma_std = sample_mean_std(v[0] for v in ok)
            eta_o_mean, eta_o_std = sample_mean_std(v[1] for v in ok)
            eta_q_mean, eta_q_std = sample_mean_std(v[2] for v in ok)
            records.append(DeltaRecord(
                delta_over_v=float(delta), n_ok=len(ok), n_failed=n_failed,
                eta_quantum_mean=eta_q_mean, eta_quantum_std=eta_q_std,
                eta_opt_mean=eta_o_mean, eta_opt_std=eta_o_std,
                gamma_opt_mean_ps=gamma_mean, gamma_opt_std_ps=gamma_std))
        reports[kind] = DisorderEnsembleReport(kind=kind,
                                               records=tuple(records))
    return reports
