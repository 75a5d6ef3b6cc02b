import math

import numpy as np

from enaqt.units import (BOLTZMANN_CM1_PER_K, CM1_TO_PS_ANGULAR,
                         SPEED_OF_LIGHT_CM_PER_PS, cm1_to_angular)


def test_conversion_constant_is_two_pi_c():
    assert SPEED_OF_LIGHT_CM_PER_PS == 2.99792458e-2
    assert CM1_TO_PS_ANGULAR == 2.0 * math.pi * 2.99792458e-2
    assert abs(CM1_TO_PS_ANGULAR - 0.18836515673088532) < 1e-16


def test_boltzmann_constant_value():
    assert BOLTZMANN_CM1_PER_K == 0.695035


def test_scalar_conversion():
    assert cm1_to_angular(1.0) == CM1_TO_PS_ANGULAR
    assert cm1_to_angular(0.0) == 0.0


def test_array_conversion():
    x = np.array([0.0, 1.0, 100.0, -35.0])
    np.testing.assert_allclose(cm1_to_angular(x), x * CM1_TO_PS_ANGULAR,
                               rtol=0.0, atol=0.0)

