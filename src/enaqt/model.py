"""Transport problem definition.

A TransportSystem holds the tight-binding Hamiltonian (site energies and
couplings, in cm^-1) together with the dissipative rates (trapping kappa_m,
recombination Gamma, pure dephasing gamma_phi, all in ps^-1). The system
Hamiltonian is

    H_S = sum_m eps_m |m><m| + sum_{m<n} V_mn (|m><n| + |n><m|)

and the trapping/recombination channels enter as anti-Hermitian diagonal
terms of the effective Hamiltonian,

    H_eff = H_S - i Gamma sum_m |m><m| - i sum_m kappa_m |m><m|

(hbar = 1, angular ps^-1 units). A site population subject only to these
terms decays as exp(-2 (Gamma + kappa_m) t).

Site indices are 1-based in every user-facing interface, matching the usual
chromophore numbering; internal arrays are 0-based.
"""

import json
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .units import cm1_to_angular


def as_integer(name, value):
    """value as an int; a bool, or anything but an int or a numpy integer
    (a float such as 3.7 among them), raises ConfigurationError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigurationError("%s must be an integer, got %r"
                                 % (name, value))
    return int(value)


def as_real(name, value):
    """value as a float; a bool, anything but a real number (a string such
    as "1.5" among them) or an integer beyond the float range raises
    ConfigurationError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigurationError("%s must be a real number, got %r"
                                 % (name, value))
    try:
        return float(value)
    except OverflowError:
        raise ConfigurationError("%s is too large for a float" % name) \
            from None


def as_rate(name, value):
    """value by as_real, refused unless finite and >= 0."""
    rate = as_real(name, value)
    if not 0.0 <= rate < np.inf:
        raise ConfigurationError("%s must be finite and >= 0, got %r"
                                 % (name, value))
    return rate


def _real_array(name, value):
    """value as a read-only float array, each entry taken by as_real, so a
    bool, a string or a ragged nesting raises ConfigurationError."""
    entries = np.array(value, dtype=object)
    a = np.array([as_real(name + " entry", v)
                  for v in entries.flat]).reshape(entries.shape)
    a.setflags(write=False)
    return a


def as_rate_grid(name, values, positive=False):
    """values as a read-only 1-d array of finite rates >= 0 (> 0 when
    positive), each entry taken by as_real, or ConfigurationError."""
    a = _real_array(name, values)
    if a.ndim != 1:
        raise ConfigurationError("%s must be a 1-d array, got shape %s"
                                 % (name, a.shape))
    if not np.all(np.isfinite(a)) or np.any(a <= 0.0 if positive else a < 0.0):
        raise ConfigurationError("%s must be finite and %s 0"
                                 % (name, ">" if positive else ">="))
    return a


@dataclass(frozen=True, eq=False)
class TransportSystem:
    """Immutable description of a transport problem.

    Fields
    ------
    n_sites : int
    site_energies : (N,) array, cm^-1
    couplings : (N, N) symmetric array with zero diagonal, cm^-1
    trap_rates : (N,) array of kappa_m >= 0, ps^-1
    recomb_rate : Gamma >= 0, ps^-1
    dephasing_rate : gamma_phi >= 0, ps^-1
    """

    n_sites: int
    site_energies: np.ndarray
    couplings: np.ndarray
    trap_rates: np.ndarray
    recomb_rate: float
    dephasing_rate: float

    def __post_init__(self):
        n = as_integer("n_sites", self.n_sites)
        if n < 1:
            raise ConfigurationError("n_sites must be >= 1, got %d" % n)
        eps = _real_array("site_energies", self.site_energies)
        V = _real_array("couplings", self.couplings)
        kap = _real_array("trap_rates", self.trap_rates)
        gam = as_rate("recomb_rate", self.recomb_rate)
        dep = as_rate("dephasing_rate", self.dephasing_rate)
        for name, a, shape in (("site_energies", eps, (n,)),
                               ("couplings", V, (n, n)),
                               ("trap_rates", kap, (n,))):
            if a.shape != shape:
                raise ConfigurationError("%s has shape %s, expected %s"
                                         % (name, a.shape, shape))
        if not (np.all(np.isfinite(eps)) and np.all(np.isfinite(V))
                and np.all(np.isfinite(kap))):
            raise ConfigurationError("non-finite entries in system arrays")
        if np.any(np.diag(V) != 0.0):
            raise ConfigurationError("couplings must have a zero diagonal")
        if np.any(V != V.T):
            raise ConfigurationError("couplings must be symmetric")
        if np.any(kap < 0.0):
            raise ConfigurationError("trap rates must be non-negative")
        object.__setattr__(self, "n_sites", n)
        object.__setattr__(self, "site_energies", eps)
        object.__setattr__(self, "couplings", V)
        object.__setattr__(self, "trap_rates", kap)
        object.__setattr__(self, "recomb_rate", gam)
        object.__setattr__(self, "dephasing_rate", dep)

    def with_dephasing(self, gamma_phi):
        """Copy of this system with a different pure-dephasing rate.

        Only the new rate is checked: the copy shares this system's arrays,
        which were validated when it was built and are read-only."""
        dep = as_rate("dephasing_rate", gamma_phi)
        other = object.__new__(type(self))
        vars(other).update(vars(self), dephasing_rate=dep)
        return other

    def with_rates(self, trap_rates=None, recomb_rate=None, dephasing_rate=None):
        """Copy with any of the dissipative rates replaced."""
        return TransportSystem(
            self.n_sites,
            self.site_energies,
            self.couplings,
            self.trap_rates if trap_rates is None else trap_rates,
            self.recomb_rate if recomb_rate is None else recomb_rate,
            self.dephasing_rate if dephasing_rate is None else dephasing_rate,
        )

    def hamiltonian_angular(self):
        """Hermitian system Hamiltonian in angular ps^-1 units."""
        return cm1_to_angular(np.diag(self.site_energies) + self.couplings)


def effective_hamiltonian(sys):
    """Non-Hermitian effective Hamiltonian in angular ps^-1 units (hbar = 1).

    Hermitian part is the converted tight-binding Hamiltonian; the
    anti-Hermitian part is diagonal with entries -(Gamma + kappa_m), so that
    an isolated site population decays at rate 2(Gamma + kappa_m).
    """
    H = sys.hamiltonian_angular().astype(complex)
    H -= 1j * np.diag(sys.recomb_rate + sys.trap_rates)
    return H


VALID_STATE_KINDS = ("site", "mixture", "coherent")


@dataclass(frozen=True)
class InitialState:
    """Initial excitation: a single site, a uniform statistical mixture over
    a site set, or a uniform coherent superposition over a site set.

    Sites use 1-based labels.
    """

    kind: str
    sites: tuple

    def __post_init__(self):
        if self.kind not in VALID_STATE_KINDS:
            raise ConfigurationError(
                "initial state kind must be one of %s, got %r"
                % (VALID_STATE_KINDS, self.kind))
        sites = tuple(as_integer("initial state site", s) for s in self.sites)
        if len(sites) == 0:
            raise ConfigurationError("initial state needs a non-empty site set")
        if len(set(sites)) != len(sites):
            raise ConfigurationError("initial state sites must be distinct")
        if self.kind == "site" and len(sites) != 1:
            raise ConfigurationError("kind 'site' takes exactly one site")
        object.__setattr__(self, "sites", sites)


def initial_density_matrix(state, n_sites):
    """Build the N x N density matrix for an InitialState. Trace is exactly 1."""
    n = int(n_sites)
    for s in state.sites:
        if not 1 <= s <= n:
            raise ConfigurationError(
                "initial site %d outside the valid range 1..%d" % (s, n))
    idx = [s - 1 for s in state.sites]
    rho = np.zeros((n, n), dtype=complex)
    if state.kind in ("site", "mixture"):
        rho[idx, idx] = 1.0 / len(idx)
    else:
        psi = np.zeros(n, dtype=complex)
        psi[idx] = 1.0 / np.sqrt(len(idx))
        rho = np.outer(psi, psi.conj())
    return rho


# ---------------------------------------------------------------------------
# Serialization. A system is stored as a JSON document with explicit unit
# tags so a file can't silently be read in the wrong convention.

_UNIT_TAGS = {
    "site_energies": "cm-1",
    "couplings": "cm-1",
    "trap_rates": "ps-1",
    "recomb_rate": "ps-1",
    "dephasing_rate": "ps-1",
}


def system_to_document(sys):
    """Represent a TransportSystem as a plain dict suitable for JSON."""
    doc = {"n_sites": sys.n_sites}
    values = {
        "site_energies": sys.site_energies.tolist(),
        "couplings": sys.couplings.tolist(),
        "trap_rates": sys.trap_rates.tolist(),
        "recomb_rate": sys.recomb_rate,
        "dephasing_rate": sys.dephasing_rate,
    }
    for key, unit in _UNIT_TAGS.items():
        doc[key] = {"unit": unit, "value": values[key]}
    return doc


def system_from_document(doc):
    """Inverse of system_to_document. Unknown keys and wrong unit tags are
    rejected rather than ignored."""
    if not isinstance(doc, dict):
        raise ConfigurationError("system document must be a mapping")
    expected = {"n_sites"} | set(_UNIT_TAGS)
    unknown = set(doc) - expected
    if unknown:
        raise ConfigurationError("unknown keys in system document: %s"
                                 % ", ".join(sorted(unknown)))
    missing = expected - set(doc)
    if missing:
        raise ConfigurationError("missing keys in system document: %s"
                                 % ", ".join(sorted(missing)))
    fields = {"n_sites": doc["n_sites"]}
    for key, unit in _UNIT_TAGS.items():
        entry = doc[key]
        if not isinstance(entry, dict) or set(entry) != {"unit", "value"}:
            raise ConfigurationError(
                "field %r must be an object with 'unit' and 'value'" % key)
        if entry["unit"] != unit:
            raise ConfigurationError(
                "field %r has unit %r, expected %r" % (key, entry["unit"], unit))
        fields[key] = entry["value"]
    return TransportSystem(**fields)


def save_system(sys, path):
    with open(path, "w") as f:
        json.dump(system_to_document(sys), f, indent=2)
        f.write("\n")


def load_system(path):
    try:
        f = open(path)
    except OSError as exc:
        raise ConfigurationError(
            "cannot read system file %s: %s" % (path, exc)) from exc
    with f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                "could not parse system file %s: line %d column %d: %s"
                % (path, exc.lineno, exc.colno, exc.msg)) from exc
    return system_from_document(doc)
