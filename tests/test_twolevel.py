import math

import numpy as np
import pytest

from enaqt.dynamics import propagate
from enaqt.errors import ConfigurationError
from enaqt.model import InitialState, initial_density_matrix
from enaqt.twolevel import (TwoLevelParams, coherent_population_2,
                            larmor_frequency, to_transport_system)
from enaqt.units import CM1_TO_PS_ANGULAR

SITE1 = initial_density_matrix(InitialState("site", (1,)), 2)


def test_larmor_frequency_is_the_converted_gap():
    p = TwoLevelParams(30.0, 40.0)
    assert larmor_frequency(p) == pytest.approx(50.0 * CM1_TO_PS_ANGULAR)


def test_oscillation_amplitude_and_period():
    p = TwoLevelParams(30.0, 40.0)
    omega = larmor_frequency(p)
    t_top = math.pi / omega
    assert coherent_population_2(p, t_top) == pytest.approx(
        40.0 ** 2 / (30.0 ** 2 + 40.0 ** 2))
    assert coherent_population_2(p, 2.0 * t_top) == pytest.approx(0.0,
                                                                  abs=1e-12)
    assert coherent_population_2(p, 0.0) == 0.0


def test_halved_convention_of_the_exported_system():
    """The closed forms assume H = (eps/2) sigma_z + (V/2) sigma_x, so the
    exported site basis carries half the mismatch and half the coupling."""
    sys = to_transport_system(TwoLevelParams(100.0, 30.0), trap_rate_2=0.7,
                              recomb_rate=0.02)
    np.testing.assert_array_equal(sys.site_energies, [50.0, -50.0])
    assert sys.couplings[0, 1] == 15.0
    np.testing.assert_array_equal(sys.trap_rates, [0.0, 0.7])
    assert sys.recomb_rate == 0.02


@pytest.mark.parametrize("overrides", [dict(trap_rate_2=True),
                                       dict(trap_rate_2="0.7"),
                                       dict(recomb_rate=True),
                                       dict(recomb_rate="0.5")])
def test_rates_that_are_not_real_numbers_are_refused(overrides):
    with pytest.raises(ConfigurationError, match="real number"):
        to_transport_system(TwoLevelParams(100.0, 30.0), **overrides)


def test_propagation_reproduces_the_closed_form():
    p = TwoLevelParams(35.0, 20.0)
    omega = larmor_frequency(p)
    t_final = 3.0 * 2.0 * math.pi / omega
    times = np.linspace(0.0, t_final, 60)
    traj = propagate(to_transport_system(p), SITE1, times)
    want = coherent_population_2(p, traj.times)
    np.testing.assert_allclose(traj.populations()[:, 1], want, atol=1e-8)


def test_resonant_pi_pulse_fully_transfers():
    v = 2.0 * math.pi / CM1_TO_PS_ANGULAR
    p = TwoLevelParams(0.0, v)
    traj = propagate(to_transport_system(p), SITE1, [0.0, 0.5])
    assert traj.populations()[-1, 1] == pytest.approx(1.0, abs=1e-9)


def test_dephased_dimer_reaches_the_maximally_mixed_state():
    """Fifty diffusion times out, the state is I/2 to solver accuracy.

    The random-walk diffusion time is (pi / theta)^2 / gamma_phi with the
    mixing angle theta = arcsin(V / hbar Omega) = arcsin(0.8) here, about
    5.74 ps at gamma_phi = 2 ps^-1."""
    gamma_phi = 2.0
    horizon = 50.0 * (math.pi / math.asin(0.8)) ** 2 / gamma_phi
    sys = to_transport_system(TwoLevelParams(3.0, 4.0)).with_dephasing(
        gamma_phi)
    traj = propagate(sys, SITE1, [0.0, horizon])
    np.testing.assert_allclose(traj.states[-1], 0.5 * np.eye(2), atol=1e-6)


def test_equilibration_is_unbiased_even_for_large_mismatch():
    """eps = 10 V and strong dephasing: the populations still settle at
    one half each, just slowly (the mixing rate scales as 1/eps^2)."""
    sys = to_transport_system(TwoLevelParams(10.0, 1.0)).with_dephasing(10.0)
    traj = propagate(sys, SITE1, [0.0, 2800.0])
    assert traj.populations()[-1, 1] == pytest.approx(0.5, abs=1e-4)


def test_parameter_validation():
    with pytest.raises(ConfigurationError):
        TwoLevelParams(float("nan"), 1.0)
    with pytest.raises(ConfigurationError):
        TwoLevelParams(1.0, float("inf"))
    for bad in ("100", True, None):
        with pytest.raises(ConfigurationError, match="real number"):
            TwoLevelParams(bad, 10.0)
        with pytest.raises(ConfigurationError, match="real number"):
            TwoLevelParams(100.0, bad)
    # eps^2 + V^2 must be finite too, or the closed form overflows.
    for eps, v in ((1e200, 10.0), (100.0, 1e200), (1e154, 1e154)):
        with pytest.raises(ConfigurationError, match=r"eps\^2 \+ V\^2"):
            TwoLevelParams(eps, v)
    TwoLevelParams(1e150, 1e150)
    p = TwoLevelParams(100, np.float32(10.0))
    assert type(p.energy_mismatch_cm1) is type(p.coupling_cm1) is float
