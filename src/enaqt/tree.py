"""Disordered binary-tree transport systems.

A generation-g tree has 2^g - 1 sites labeled 1..2^g - 1 with site m
coupled to its children 2m and 2m + 1 at uniform strength V. Excitation
starts on the outermost branch (the 2^(g-1) leaves), either as a uniform
coherent superposition or as a statistical mixture, and is trapped at the
root (site 1). Static disorder perturbs the site energies with i.i.d.
normal draws of standard deviation delta about a common mean; the mean is
physically irrelevant (global phase), so it defaults to zero and delta is
naturally measured in units of V.

The ensemble study asks, per disorder strength: how efficient is fully
coherent transport (gamma_phi = 0), and how efficient can dephasing make
it (gamma_phi optimized per realization)? Disorder localizes the coherent
dynamics, and dephasing recovers much of the loss, increasingly so the
stronger the disorder.

Reproducibility contract: site energies come from Box-Muller applied to a
counter-based Philox stream keyed by a hash of (master seed, delta index,
sample index), so any sample can be regenerated in isolation and results
are bitwise independent of execution order.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import _coherent_liouvillian, _dephasing_diagonal, _vec
from .errors import ConfigurationError, SweepFailureError
from .model import (InitialState, TransportSystem, effective_hamiltonian,
                    initial_density_matrix)
from .observables import efficiency
from .sweep import SweepPlan, derive_seed, run_sweep, sample_mean_std
from .units import cm1_to_angular

MAX_GENERATION = 7  # 127 sites, a 16129^2 dense Liouvillian; guard above this

# Ensemble defaults, rates in units of the coupling (angular frequency).
RECOMB_OVER_V = 0.005
TRAP_OVER_V = 2.0
DEFAULT_DELTA_GRID = tuple(np.linspace(0.0, 4.0, 20))
DEFAULT_COUPLING_CM1 = 100.0


@dataclass(frozen=True)
class TreeSpec:
    """Parameters of one disordered-tree realization."""

    generation: int
    coupling_cm1: float
    disorder_cm1: float = 0.0
    mean_energy_cm1: float = 0.0
    trap_rate_ps: float = None
    recomb_rate_ps: float = None
    rng_seed: int = 0

    def __post_init__(self):
        if int(self.generation) < 2:
            raise ConfigurationError("tree generation must be >= 2")
        if self.disorder_cm1 < 0.0:
            raise ConfigurationError("disorder must be >= 0")
        if self.coupling_cm1 == 0.0:
            raise ConfigurationError("tree coupling must be nonzero")
        object.__setattr__(self, "generation", int(self.generation))
        # Default rates scale with the coupling: kappa = 2V, Gamma = 0.005V
        # (V as an angular frequency, hbar = 1).
        v_ang = abs(cm1_to_angular(self.coupling_cm1))
        if self.trap_rate_ps is None:
            object.__setattr__(self, "trap_rate_ps", TRAP_OVER_V * v_ang)
        if self.recomb_rate_ps is None:
            object.__setattr__(self, "recomb_rate_ps", RECOMB_OVER_V * v_ang)

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


def generate_tree(spec, allow_large=False):
    """TransportSystem for one seeded tree realization.

    Site energies are mean + delta * normal_draws(seed); the trap sits on
    site 1 and recombination acts everywhere. Trees beyond generation 7
    are refused unless allow_large is set, because the dense Liouvillian
    grows as 2^(2g).
    """
    if spec.generation > MAX_GENERATION and not allow_large:
        raise ConfigurationError(
            "generation %d exceeds the dense-solver guard (max %d, %d sites); "
            "pass allow_large=True to override"
            % (spec.generation, MAX_GENERATION, 2 ** MAX_GENERATION - 1))
    n = spec.n_sites
    energies = spec.mean_energy_cm1 + spec.disorder_cm1 * normal_draws(
        spec.rng_seed, n)
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


@dataclass(frozen=True)
class SearchConfig:
    """Grid-then-refine search for the optimal dephasing rate.

    The grid spans [span_low * V, span_high * V] in angular units, where V
    is the largest coupling of the system, with grid_points log-spaced
    values plus the exact gamma_phi = 0 endpoint. Golden-section refinement
    then shrinks the bracketing interval to rel_tol in gamma.
    """

    grid_points: int = 40
    span_low: float = 1e-3
    span_high: float = 1e3
    rel_tol: float = 1e-3


class _EtaEvaluator:
    """eta(gamma_phi) with the gamma-independent work hoisted out.

    The dephasing superoperator is diagonal, so L(gamma) differs from the
    coherent part only on its diagonal; each evaluation is one dense solve
    for S1. This is the hot loop of the ensemble study (tens of solves per
    realization, thousands of realizations).
    """

    def __init__(self, sys, rho0):
        self.sys = sys
        heff = effective_hamiltonian(sys)
        self.L0 = _coherent_liouvillian(heff)
        self.deph = _dephasing_diagonal(sys.n_sites)
        self.rhs = -_vec(np.asarray(rho0, dtype=complex))
        self.n = sys.n_sites
        self.diag_idx = np.arange(self.n * self.n)

    def __call__(self, gamma):
        L = self.L0.copy()
        if gamma != 0.0:
            L[self.diag_idx, self.diag_idx] += gamma * self.deph
        s1 = np.linalg.solve(L, self.rhs)
        # vec index of (m, m) is m*N + m; grab the diagonal directly.
        diag = s1[(self.n + 1) * np.arange(self.n)]
        return efficiency(self.sys, np.diag(diag))


def _golden_max(f, lo, hi, rel_tol):
    """Golden-section maximization on a log-gamma interval."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = math.log(lo), math.log(hi)
    tol = math.log1p(rel_tol)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(math.exp(c)), f(math.exp(d))
    while (b - a) > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(math.exp(c))
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(math.exp(d))
    if fc >= fd:
        return math.exp(c), fc
    return math.exp(d), fd


def optimal_dephasing(sys, rho0, search_cfg=None):
    """Maximize transfer efficiency over the dephasing rate.

    Scans a logarithmic grid (plus the exact zero endpoint), then refines
    around the grid winner by golden-section search on log gamma. The
    refinement assumes local unimodality; if it happens to regress, the
    grid winner is kept, and the zero endpoint always participates, so
    eta* >= eta(0) is guaranteed.

    Returns (gamma_star, eta_star).
    """
    cfg = search_cfg or SearchConfig()
    vmax = float(np.max(np.abs(sys.couplings)))
    if vmax == 0.0:
        raise ConfigurationError(
            "system has no couplings; dephasing cannot create transport")
    v_ang = cm1_to_angular(vmax)
    grid = np.logspace(math.log10(cfg.span_low * v_ang),
                       math.log10(cfg.span_high * v_ang), cfg.grid_points)

    evaluate = _EtaEvaluator(sys.with_dephasing(0.0), rho0)
    eta0 = evaluate(0.0)
    etas = np.array([evaluate(g) for g in grid])
    i = int(np.argmax(etas))
    best_gamma, best_eta = float(grid[i]), float(etas[i])

    # Bracket the winner with its neighbors (extending one grid cell at the
    # edges) and refine.
    cell = grid[1] / grid[0]
    lo = grid[i - 1] if i > 0 else grid[0] / cell
    hi = grid[i + 1] if i < len(grid) - 1 else grid[-1] * cell
    g_ref, eta_ref = _golden_max(evaluate, lo, hi, cfg.rel_tol)
    if eta_ref > best_eta:
        best_gamma, best_eta = g_ref, eta_ref
    if eta0 >= best_eta:
        return 0.0, eta0
    return best_gamma, best_eta


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
    master_seed: int
    n_samples: int
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
    spec, kind, search_cfg = task
    sys = generate_tree(spec)
    rho0 = initial_density_matrix(leaf_initial_state(spec, kind), sys.n_sites)
    eta_q = _EtaEvaluator(sys, rho0)(0.0)
    gamma_star, eta_star = optimal_dephasing(sys, rho0, search_cfg)
    return eta_q, gamma_star, eta_star


def disorder_ensemble(spec_template, delta_grid=None, n_samples=100,
                      kind="mixture", master_seed=None, search_cfg=None,
                      failure_threshold=0.05):
    """Ensemble statistics of eta(gamma_phi = 0) and the dephasing optimum
    per disorder strength.

    delta_grid is in units of V (default 20 points over [0, 4]). Each
    (delta, sample) pair gets its own derived seed. Per-sample failures are
    recorded and excluded; any delta with more than failure_threshold of
    its samples failing aborts the ensemble.
    """
    if n_samples < 1:
        raise ConfigurationError("n_samples must be >= 1")
    if kind not in ("coherent", "mixture"):
        raise ConfigurationError("kind must be 'coherent' or 'mixture'")
    deltas = np.asarray(DEFAULT_DELTA_GRID if delta_grid is None else delta_grid,
                        dtype=float)
    if np.any(deltas < 0.0):
        raise ConfigurationError("disorder values must be >= 0")
    seed = spec_template.rng_seed if master_seed is None else int(master_seed)
    v = abs(spec_template.coupling_cm1)

    tasks = []
    for di, delta in enumerate(deltas):
        for si in range(n_samples):
            spec = replace(spec_template, disorder_cm1=float(delta) * v,
                           rng_seed=derive_seed(seed, di, si))
            tasks.append((spec, kind, search_cfg))

    results = run_sweep(SweepPlan(tasks=tuple(tasks)), _solve_sample,
                        failure_threshold=failure_threshold)

    records = []
    for di, delta in enumerate(deltas):
        block = results[di * n_samples:(di + 1) * n_samples]
        ok = [r.value for r in block if r.ok]
        n_failed = n_samples - len(ok)
        if n_failed > failure_threshold * n_samples:
            raise SweepFailureError(
                "%d of %d samples failed at delta/V = %g"
                % (n_failed, n_samples, delta))
        eta_q_mean, eta_q_std = sample_mean_std(v[0] for v in ok)
        gamma_mean, gamma_std = sample_mean_std(v[1] for v in ok)
        eta_o_mean, eta_o_std = sample_mean_std(v[2] for v in ok)
        records.append(DeltaRecord(
            delta_over_v=float(delta), n_ok=len(ok), n_failed=n_failed,
            eta_quantum_mean=eta_q_mean, eta_quantum_std=eta_q_std,
            eta_opt_mean=eta_o_mean, eta_opt_std=eta_o_std,
            gamma_opt_mean_ps=gamma_mean, gamma_opt_std_ps=gamma_std))

    return DisorderEnsembleReport(kind=kind, master_seed=seed,
                                  n_samples=n_samples, records=tuple(records))
