"""Ohmic bath model: temperature to pure-dephasing rate.

The bath is characterized by an Ohmic spectral density with exponential
cutoff,

    J(omega) = (E_R / omega_c) * omega * exp(-omega / omega_c),

normalized so that E_R is the reorganization energy and the maximum sits
at omega = omega_c. In the high-temperature (Markovian) limit the
pure-dephasing rate is set by the zero-frequency slope of J,

    gamma_phi(T) = 2 pi * kT * dJ/domega|_0 = 2 pi * kT * E_R / omega_c,

linear in T. With kT in cm^-1 the rate comes out in cm^-1; the engine
needs it in angular ps^-1, so both are returned.
"""

import math
from dataclasses import dataclass

from .errors import ConfigurationError
from .model import as_real
from .units import BOLTZMANN_CM1_PER_K, cm1_to_angular


@dataclass(frozen=True)
class OhmicBath:
    reorganization_energy_cm1: float = 35.0
    cutoff_cm1: float = 150.0

    def __post_init__(self):
        for name in ("reorganization_energy_cm1", "cutoff_cm1"):
            object.__setattr__(self, name, as_real(name, getattr(self, name)))
        if not 0.0 < self.reorganization_energy_cm1 < math.inf:
            raise ConfigurationError("reorganization energy must be > 0 and "
                                     "finite")
        if not 0.0 < self.cutoff_cm1 < math.inf:
            raise ConfigurationError("cutoff frequency must be > 0 and finite")


@dataclass(frozen=True)
class DephasingRate:
    """gamma_phi expressed in both unit systems."""

    gamma_cm1: float
    gamma_ps: float


def dephasing_rate(bath, temperature_k):
    """gamma_phi(T) = 2 pi * (kT in cm^-1) * E_R / omega_c.

    Returns the rate in cm^-1 together with its angular ps^-1 equivalent.
    """
    temperature_k = as_real("temperature_k", temperature_k)
    if not 0.0 < temperature_k < math.inf:
        raise ConfigurationError("temperature must be > 0 K and finite")
    kt_cm1 = BOLTZMANN_CM1_PER_K * temperature_k
    gamma_cm1 = 2.0 * math.pi * kt_cm1 * bath.reorganization_energy_cm1 \
        / bath.cutoff_cm1
    return DephasingRate(gamma_cm1=gamma_cm1, gamma_ps=cm1_to_angular(gamma_cm1))
