"""The seven-site FMO transport problem.

The Fenna-Matthews-Olson monomer is modeled as seven coupled sites with
the bundled effective Hamiltonian (see data/fmo_cho2005.txt for the source
and transcription notes). Excitation enters as a statistical mixture of
sites 1 and 6 (the sites facing the baseplate), is trapped at site 3 (the
site facing the reaction center) with kappa_3 = 1 ps^-1, and recombines
everywhere at Gamma = 0.0005 ps^-1, i.e. a 1 ns population lifetime since
populations decay at 2*Gamma. load_fmo_model() reads the data file once
and refuses it unless the SHA-256 of its bytes matches the digest in the
`.sha256` sidecar next to it; manifests quote that digest.

dephasing_sweep() maps transfer efficiency and transfer time over a
logarithmic grid of pure-dephasing rates, which exhibits the three
transport regimes (coherent/localized at small gamma_phi, assisted in the
middle, Zeno-suppressed at large gamma_phi). trap_dephasing_surface() maps
the transfer time over a (gamma_phi, kappa_3) grid as one dephasing sweep
per kappa_3. Each sweep builds one dynamics.MomentSolver and solves every
point with it through observables.transport_result.
"""

import hashlib
import importlib.resources
import pathlib
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import MomentSolver
from .errors import DataIntegrityError
from .model import (InitialState, TransportSystem, as_rate_grid,
                    initial_density_matrix)
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


def _expected_checksum(path):
    """First word of the `<file>.sha256` sidecar next to path.

    A missing, unreadable or empty sidecar raises DataIntegrityError, each
    with its own message."""
    sidecar = path.parent / (path.name + ".sha256")
    try:
        words = sidecar.read_bytes().decode("utf-8", "replace").split()
    except FileNotFoundError:
        raise DataIntegrityError(
            "no .sha256 sidecar found for %s; refusing to load unverified "
            "data (write its SHA-256 to %s, e.g. with sha256sum)"
            % (path, sidecar)) from None
    except OSError as exc:
        raise DataIntegrityError("cannot read the .sha256 sidecar %s: %s"
                                 % (sidecar, exc)) from exc
    if not words:
        raise DataIntegrityError(
            "the .sha256 sidecar %s is empty; refusing to load unverified "
            "data (write the SHA-256 of %s to it, e.g. with sha256sum)"
            % (sidecar, path))
    return words[0]


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
    """A ready-to-solve FMO problem: the system, trapped at DEFAULT_TRAP_SITE,
    and the SHA-256 (hex) of the data file bytes the Hamiltonian was parsed
    from."""

    system: TransportSystem
    data_sha256: str

    def initial_density_matrix(self):
        """DEFAULT_INITIAL_STATE, the mixture of sites 1 and 6."""
        return initial_density_matrix(DEFAULT_INITIAL_STATE,
                                      self.system.n_sites)


def load_fmo_model(data_path=None, trap_rate=None, recomb_rate=None):
    """Load the bundled (or a user-supplied) FMO Hamiltonian and assemble
    the default transport problem at gamma_phi = 0. Keyword overrides
    replace kappa at the trap site and Gamma.

    The file is read once. The SHA-256 of its bytes must match the digest
    in the `<file>.sha256` sidecar, and a missing or empty sidecar or a
    mismatch raises DataIntegrityError. The verified bytes are then parsed
    as UTF-8 text, and their digest is kept as FmoModel.data_sha256.
    """
    path = importlib.resources.files("enaqt") / "data" / "fmo_cho2005.txt" \
        if data_path is None else pathlib.Path(data_path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise DataIntegrityError("cannot read FMO data file %s: %s"
                                 % (path, exc)) from exc
    expected = _expected_checksum(path)
    actual = hashlib.sha256(raw).hexdigest()
    if actual != expected:
        raise DataIntegrityError(
            "FMO data file %s fails its checksum: expected %s, got %s"
            % (path, expected, actual))
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataIntegrityError("FMO data file %s is not UTF-8 text: %s"
                                 % (path, exc)) from exc

    energies, couplings = _parse_hamiltonian(text, path)
    kappa = [0.0] * N_SITES
    kappa[DEFAULT_TRAP_SITE - 1] = \
        DEFAULT_TRAP_RATE if trap_rate is None else trap_rate
    system = TransportSystem(
        n_sites=N_SITES,
        site_energies=energies,
        couplings=couplings,
        trap_rates=kappa,
        recomb_rate=DEFAULT_RECOMB_RATE if recomb_rate is None else recomb_rate,
        dephasing_rate=0.0,
    )
    return FmoModel(system=system, data_sha256=actual)


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
    return _sweep(model, as_rate_grid("dephasing grid", default_gamma_grid()
                                      if gamma_grid is None else gamma_grid))


def _sweep(model, grid):
    """dephasing_sweep over a grid that as_rate_grid has already taken."""
    solver = MomentSolver(model.system, model.initial_density_matrix())
    plan = SweepPlan(tasks=tuple(float(g) for g in grid))
    results = run_sweep(plan, lambda gamma: transport_result(solver, gamma),
                        failure_threshold=0.0)
    return [(gamma, r.value) for gamma, r in zip(plan.tasks, results)]


def trap_dephasing_surface(model, gamma_grid=None, kappa_grid=None):
    """Transfer time tau over the (gamma_phi, kappa_trap) grid.

    Returns (gamma_grid, kappa_grid, tau) with tau[i, j] for gamma_grid[i]
    and kappa_grid[j], suitable for a log-log-log surface plot. Column j
    is the dephasing_sweep of the model whose only trap is kappa_grid[j]
    at DEFAULT_TRAP_SITE.
    """
    gammas = as_rate_grid("dephasing grid", default_gamma_grid()
                          if gamma_grid is None else gamma_grid)
    kappas = as_rate_grid("trap-rate grid", default_kappa_grid()
                          if kappa_grid is None else kappa_grid, positive=True)
    tau = np.empty((len(gammas), len(kappas)))
    for j, kappa in enumerate(kappas):
        trap_rates = np.zeros(model.system.n_sites)
        trap_rates[DEFAULT_TRAP_SITE - 1] = kappa
        trapped = replace(
            model, system=replace(model.system, trap_rates=trap_rates))
        sweep = _sweep(trapped, gammas)
        tau[:, j] = [result.transfer_time_ps for _, result in sweep]
    return gammas, kappas, tau


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
