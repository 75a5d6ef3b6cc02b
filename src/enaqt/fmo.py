"""The seven-site FMO transport problem.

The Fenna-Matthews-Olson monomer is modeled as seven coupled sites with
the bundled effective Hamiltonian (see data/fmo_cho2005.txt for the source
and transcription notes). Excitation enters as a statistical mixture of
sites 1 and 6 (the sites facing the baseplate), is trapped at site 3 (the
site facing the reaction center) with kappa_3 = 1 ps^-1, and recombines
everywhere at Gamma = 0.0005 ps^-1, i.e. a 1 ns population lifetime since
populations decay at 2*Gamma.

dephasing_sweep() maps transfer efficiency and transfer time over a
logarithmic grid of pure-dephasing rates, which exhibits the three
transport regimes (coherent/localized at small gamma_phi, assisted in the
middle, Zeno-suppressed at large gamma_phi). trap_dephasing_surface() maps
the transfer time over a (gamma_phi, kappa_3) grid.
"""

import hashlib
import importlib.resources
import pathlib
from dataclasses import dataclass

import numpy as np

from .dynamics import integrated_state
from .errors import ConfigurationError, DataIntegrityError
from .model import InitialState, TransportSystem, initial_density_matrix
from .observables import transport_result
from .sweep import SweepPlan, run_sweep

N_SITES = 7
DEFAULT_TRAP_SITE = 3
DEFAULT_TRAP_RATE = 1.0        # ps^-1, kappa_3
DEFAULT_RECOMB_RATE = 0.0005   # ps^-1, population lifetime 1 ns
DEFAULT_INITIAL_STATE = InitialState(kind="mixture", sites=(1, 6))

# Default dephasing grid: 60 log-spaced points covering all three regimes.
GAMMA_GRID_DEFAULT = (1e-3, 1e5, 60)

# Default trapping-rate grid for the surface: two decades either side of
# the kappa_3 = 1 ps^-1 operating point (25 points include 1.0 exactly).
KAPPA_GRID_DEFAULT = (1e-2, 1e2, 25)


def _bundled_data_path():
    return importlib.resources.files("enaqt") / "data" / "fmo_cho2005.txt"


def data_checksum(data_path=None):
    """SHA-256 of the Hamiltonian data file (hex)."""
    path = _bundled_data_path() if data_path is None else data_path
    with open(str(path), "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _expected_checksum(data_path=None):
    if data_path is None:
        sidecar = importlib.resources.files("enaqt") / "data" \
            / "fmo_cho2005.txt.sha256"
    else:
        sidecar = pathlib.Path(str(data_path) + ".sha256")
    try:
        text = sidecar.read_text()
    except OSError:
        return None
    return text.split()[0] if text.split() else None


def _parse_hamiltonian(text, path):
    values = []
    unit_seen = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if not unit_seen:
            if stripped.replace(" ", "") != "unitcm-1":
                raise DataIntegrityError(
                    "%s:%d: expected the unit header line 'unit cm-1', got %r"
                    % (path, lineno, stripped))
            unit_seen = True
            continue
        try:
            values.extend(float(tok) for tok in stripped.split())
        except ValueError as exc:
            raise DataIntegrityError(
                "%s:%d: non-numeric entry: %s" % (path, lineno, exc)) from exc
    if not unit_seen:
        raise DataIntegrityError("%s: missing 'unit cm-1' header line" % path)
    expected = N_SITES + N_SITES * (N_SITES - 1) // 2
    if len(values) != expected:
        raise DataIntegrityError(
            "%s: found %d numbers, expected %d (7 energies + 21 couplings)"
            % (path, len(values), expected))
    energies = np.array(values[:N_SITES])
    couplings = np.zeros((N_SITES, N_SITES))
    k = N_SITES
    for m in range(N_SITES):
        for n in range(m + 1, N_SITES):
            couplings[m, n] = couplings[n, m] = values[k]
            k += 1
    return energies, couplings


@dataclass(frozen=True)
class FmoModel:
    """A ready-to-solve FMO problem: the system plus its initial state."""

    system: TransportSystem
    initial_state: InitialState
    trap_site: int = DEFAULT_TRAP_SITE

    def initial_density_matrix(self):
        return initial_density_matrix(self.initial_state, self.system.n_sites)


def load_fmo_model(data_path=None, trap_rate=None, recomb_rate=None,
                   dephasing_rate=None, initial_state=None, trap_site=None,
                   verify_checksum=True):
    """Load the bundled (or a user-supplied) FMO Hamiltonian and assemble
    the default transport problem. Keyword overrides replace kappa at the
    trap site, Gamma, gamma_phi, the trap site, or the initial state.

    The data file is verified against its recorded SHA-256 sidecar; a
    mismatch raises DataIntegrityError quoting the expected digest.
    """
    path = _bundled_data_path() if data_path is None \
        else pathlib.Path(data_path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise DataIntegrityError("cannot read FMO data file %s: %s"
                                 % (path, exc)) from exc
    if verify_checksum:
        expected = _expected_checksum(data_path)
        if expected is None:
            raise DataIntegrityError(
                "no .sha256 sidecar found for %s; refusing to load "
                "unverified data (pass verify_checksum=False to override)"
                % path)
        actual = hashlib.sha256(text.encode()).hexdigest()
        if actual != expected:
            raise DataIntegrityError(
                "FMO data file %s fails its checksum: expected %s, got %s"
                % (path, expected, actual))

    energies, couplings = _parse_hamiltonian(text, path)
    site = DEFAULT_TRAP_SITE if trap_site is None else int(trap_site)
    if not 1 <= site <= N_SITES:
        raise ConfigurationError("trap site must be in 1..%d" % N_SITES)
    kappa = np.zeros(N_SITES)
    kappa[site - 1] = DEFAULT_TRAP_RATE if trap_rate is None else float(trap_rate)
    system = TransportSystem(
        n_sites=N_SITES,
        site_energies=energies,
        couplings=couplings,
        trap_rates=kappa,
        recomb_rate=DEFAULT_RECOMB_RATE if recomb_rate is None else recomb_rate,
        dephasing_rate=0.0 if dephasing_rate is None else dephasing_rate,
    )
    state = DEFAULT_INITIAL_STATE if initial_state is None else initial_state
    # Validate the site set against N now rather than at first solve.
    initial_density_matrix(state, N_SITES)
    return FmoModel(system=system, initial_state=state, trap_site=site)


def default_gamma_grid():
    lo, hi, num = GAMMA_GRID_DEFAULT
    return np.logspace(np.log10(lo), np.log10(hi), num)


def default_kappa_grid():
    lo, hi, num = KAPPA_GRID_DEFAULT
    return np.logspace(np.log10(lo), np.log10(hi), num)


def dephasing_sweep(model, gamma_grid=None):
    """TransportResult at each dephasing rate of the grid.

    Returns a list of (gamma_phi, TransportResult) in grid order; any point
    failing to solve fails the sweep.
    """
    grid = default_gamma_grid() if gamma_grid is None else np.asarray(
        gamma_grid, dtype=float)
    if np.any(grid < 0.0) or not np.all(np.isfinite(grid)):
        raise ConfigurationError("dephasing grid must be finite and >= 0")
    rho0 = model.initial_density_matrix()

    def solve(gamma):
        return transport_result(model.system.with_dephasing(gamma), rho0)

    plan = SweepPlan(tasks=tuple(float(g) for g in grid))
    results = run_sweep(plan, solve, failure_threshold=0.0)
    return [(plan.tasks[r.index], r.value) for r in results]


def trap_dephasing_surface(model, gamma_grid=None, kappa_grid=None):
    """Transfer time tau over the (gamma_phi, kappa_trap) grid.

    Returns (gamma_grid, kappa_grid, tau) with tau[i, j] for gamma_grid[i]
    and kappa_grid[j], suitable for a log-log-log surface plot.
    """
    gammas = default_gamma_grid() if gamma_grid is None else np.asarray(
        gamma_grid, dtype=float)
    kappas = default_kappa_grid() if kappa_grid is None else np.asarray(
        kappa_grid, dtype=float)
    if not (np.all(np.isfinite(gammas)) and np.all(np.isfinite(kappas))) \
            or np.any(gammas < 0.0) or np.any(kappas <= 0.0):
        raise ConfigurationError("surface grids must be finite, with "
                                 "gamma_phi >= 0 and kappa > 0")
    rho0 = model.initial_density_matrix()
    base = model.system

    def solve(task):
        gamma, kappa = task
        kap = np.zeros(base.n_sites)
        kap[model.trap_site - 1] = kappa
        sys = base.with_rates(trap_rates=kap, dephasing_rate=gamma)
        return transport_result(sys, rho0).transfer_time_ps

    tasks = tuple((float(g), float(k)) for g in gammas for k in kappas)
    results = run_sweep(SweepPlan(tasks=tasks), solve, failure_threshold=0.0)
    tau = np.array([r.value for r in results]).reshape(len(gammas), len(kappas))
    return gammas, kappas, tau


def quantum_limit_result(model, gamma_floor=1e-3):
    """Convenience: the low-dephasing operating point (gamma_phi at the
    bottom of the default grid)."""
    sys = model.system.with_dephasing(gamma_floor)
    rho0 = model.initial_density_matrix()
    return transport_result(sys, rho0, moments=integrated_state(sys, rho0))


def write_sweep_csv(results, f):
    """`gamma_phi_ps^-1,eta,tau_ps,loss` rows in grid order."""
    f.write("gamma_phi_ps^-1,eta,tau_ps,loss\n")
    for gamma, res in results:
        f.write("%r,%r,%r,%r\n" % (float(gamma), float(res.efficiency),
                                   float(res.transfer_time_ps),
                                   float(res.loss_probability)))


def write_surface_csv(gammas, kappas, tau, f):
    """Long-format `gamma_phi,kappa_3,tau_ps` rows, gamma-major order."""
    f.write("gamma_phi,kappa_3,tau_ps\n")
    for i, g in enumerate(gammas):
        for j, k in enumerate(kappas):
            f.write("%r,%r,%r\n" % (float(g), float(k), float(tau[i, j])))
