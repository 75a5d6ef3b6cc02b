"""Unit conventions.

Internally everything runs with hbar = 1 and time in picoseconds, so
energies and rates are both angular frequencies in ps^-1. Model input
energies are quoted in wavenumbers (cm^-1) as is conventional for
excitonic Hamiltonians; they are converted once at construction time.

The single conversion constant is

    E[ps^-1, angular] = 2 * pi * c * E[cm^-1]

with c in cm/ps, so 1 cm^-1 = 0.18836... rad/ps. Dissipative rates
(trapping, recombination, dephasing) are specified directly in ps^-1 and
are never converted. These module constants are the only conventions the
engine uses; run manifests echo them as constant.* lines.
"""

import math

# Speed of light in cm per picosecond (CODATA, exact by SI definition).
SPEED_OF_LIGHT_CM_PER_PS = 2.99792458e-2

# Angular frequency per wavenumber: 2*pi*c, about 0.188365 ps^-1 per cm^-1.
CM1_TO_PS_ANGULAR = 2.0 * math.pi * SPEED_OF_LIGHT_CM_PER_PS

# Boltzmann constant in cm^-1 per kelvin (CODATA-derived).
BOLTZMANN_CM1_PER_K = 0.695035


def cm1_to_angular(energy_cm1):
    """Convert an energy in cm^-1 to angular frequency in ps^-1."""
    return energy_cm1 * CM1_TO_PS_ANGULAR
