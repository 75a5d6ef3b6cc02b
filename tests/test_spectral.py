import math

import pytest

from enaqt.errors import ConfigurationError
from enaqt.spectral import DephasingRate, OhmicBath, dephasing_rate
from enaqt.units import BOLTZMANN_CM1_PER_K, cm1_to_angular


def test_bath_defaults_and_validation():
    bath = OhmicBath()
    assert bath.reorganization_energy_cm1 == 35.0
    assert bath.cutoff_cm1 == 150.0
    with pytest.raises(ConfigurationError):
        OhmicBath(reorganization_energy_cm1=0.0)
    with pytest.raises(ConfigurationError):
        OhmicBath(cutoff_cm1=-1.0)
    for field in ("reorganization_energy_cm1", "cutoff_cm1"):
        for bad in (math.inf, math.nan):
            with pytest.raises(ConfigurationError, match="finite"):
                OhmicBath(**{field: bad})
        for bad in ("35", True, None):
            with pytest.raises(ConfigurationError, match="real number"):
                OhmicBath(**{field: bad})
    assert type(OhmicBath(35).reorganization_energy_cm1) is float


def test_dephasing_rate_formula():
    bath = OhmicBath()
    rate = dephasing_rate(bath, 300.0)
    want_cm1 = 2.0 * math.pi * BOLTZMANN_CM1_PER_K * 300.0 * 35.0 / 150.0
    assert isinstance(rate, DephasingRate)
    assert rate.gamma_cm1 == pytest.approx(want_cm1, rel=1e-14)
    assert rate.gamma_ps == pytest.approx(cm1_to_angular(want_cm1), rel=1e-14)
    # The physiological value lands near 306 wavenumbers.
    assert 300.0 < rate.gamma_cm1 < 312.0


def test_dephasing_rate_is_linear_in_temperature():
    bath = OhmicBath()
    assert dephasing_rate(bath, 600.0).gamma_cm1 == pytest.approx(
        2.0 * dephasing_rate(bath, 300.0).gamma_cm1, rel=1e-14)


def test_dephasing_rate_rejects_nonpositive_temperature():
    with pytest.raises(ConfigurationError):
        dephasing_rate(OhmicBath(), 0.0)
    with pytest.raises(ConfigurationError):
        dephasing_rate(OhmicBath(), -10.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ConfigurationError, match="finite"):
            dephasing_rate(OhmicBath(), bad)
    for bad in ("300", True, None):
        with pytest.raises(ConfigurationError, match="real number"):
            dephasing_rate(OhmicBath(), bad)
