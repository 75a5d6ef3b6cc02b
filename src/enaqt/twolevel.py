"""Closed-form two-site system.

The two-site Hamiltonian is taken in the symmetric form

    H = (eps/2) sigma_z + (V/2) sigma_x

so the full energy mismatch between the sites is eps and the gap is
hbar * Omega = sqrt(eps^2 + V^2) (the Larmor frequency of the equivalent
spin). Note the general N-site model builds H from site energies and
couplings literally, without the factors of 1/2; to_transport_system()
applies the halved convention explicitly so the formulas here are exact
for the system it returns.

Starting from site 1 with no dephasing, direct diagonalization gives

    P2(t) = (V^2 / (eps^2 + V^2)) sin^2(Omega t / 2)

with maximum sin^2(theta), theta = arcsin(V / hbar Omega).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .model import TransportSystem, as_real
from .units import cm1_to_angular


@dataclass(frozen=True)
class TwoLevelParams:
    """Energy mismatch eps and coupling V in cm^-1."""

    energy_mismatch_cm1: float
    coupling_cm1: float

    def __post_init__(self):
        for name in ("energy_mismatch_cm1", "coupling_cm1"):
            object.__setattr__(self, name, as_real(name, getattr(self, name)))
        eps, v = self.energy_mismatch_cm1, self.coupling_cm1
        if not math.isfinite(eps * eps + v * v):
            raise ConfigurationError("eps, V and eps^2 + V^2 must be finite, "
                                     "got eps = %r, V = %r cm^-1" % (eps, v))


def larmor_frequency(p):
    """Omega = sqrt(eps^2 + V^2) / hbar in angular ps^-1."""
    return cm1_to_angular(math.hypot(p.energy_mismatch_cm1, p.coupling_cm1))


def coherent_population_2(p, t):
    """P2(t) for gamma_phi = 0, starting in site 1. t in ps (scalar or array)."""
    eps2 = p.energy_mismatch_cm1 ** 2
    v2 = p.coupling_cm1 ** 2
    if eps2 + v2 == 0.0:
        return np.zeros_like(np.asarray(t, dtype=float)) + 0.0
    omega = larmor_frequency(p)
    amp = v2 / (eps2 + v2)
    return amp * np.sin(0.5 * omega * np.asarray(t, dtype=float)) ** 2


def to_transport_system(p, trap_rate_2=0.0, recomb_rate=0.0):
    """TransportSystem at gamma_phi = 0 with site energies +-eps/2 and
    coupling V/2, so the closed forms above apply exactly. Optional trap on
    site 2; with_dephasing() gives the dephased dimer."""
    e = 0.5 * p.energy_mismatch_cm1
    v = 0.5 * p.coupling_cm1
    return TransportSystem(
        n_sites=2,
        site_energies=[e, -e],
        couplings=[[0.0, v], [v, 0.0]],
        trap_rates=[0.0, float(trap_rate_2)],
        recomb_rate=float(recomb_rate),
        dephasing_rate=0.0,
    )
