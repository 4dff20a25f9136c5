"""Physical constants, thermal occupation, zero-point motion, enhanced coupling."""

import math

import numpy as np
import pytest
import scipy.constants
from hypothesis import given, settings
from hypothesis import strategies as st

from emcavity.constants import EPSILON_0, HBAR, K_BOLTZMANN, TWO_PI
from emcavity.core import thermal_occupation, zero_point_fluctuation
from emcavity.errors import DomainError
from emcavity.params import CouplingParams


def test_constants_are_scipys_codata_values():
    # the literals are the reprs of scipy.constants (CODATA 2022)
    assert HBAR == scipy.constants.hbar
    assert K_BOLTZMANN == scipy.constants.k
    assert EPSILON_0 == scipy.constants.epsilon_0


# Bose-Einstein occupations frozen from an independent mpmath evaluation of
# 1/(exp(hbar*w/kT) - 1) at the tabulated operating points.
THERMAL_CASES = [
    (300e3, 7e-3, 485.68795124373277),
    (4e6, 7e-3, 35.966368813362568),
    (10e9, 4.0, 7.8446436794583426),
    (10e9, 300.0, 624.59870739513891),
    (10e9, 7e-3, 1.6768843164564075e-30),
]


@pytest.mark.parametrize("f_hz, temp, expected", THERMAL_CASES)
def test_thermal_occupation_reference_points(f_hz, temp, expected):
    n = thermal_occupation(TWO_PI * f_hz, temp)
    assert n == pytest.approx(expected, rel=1e-9)


def test_thermal_occupation_zero_temperature():
    assert thermal_occupation(TWO_PI * 10e9, 0.0) == 0.0


def test_thermal_occupation_classical_limit():
    # kT/hbar w >> 1: n -> kT/hbar w - 1/2 + O(hbar w/kT)
    omega = TWO_PI * 1e3
    temp = 1.0
    x = HBAR * omega / (K_BOLTZMANN * temp)
    n = thermal_occupation(omega, temp)
    assert n == pytest.approx(1.0 / x - 0.5, abs=x)


def test_thermal_occupation_rejects_negatives():
    with pytest.raises(DomainError):
        thermal_occupation(-1.0, 1.0)
    with pytest.raises(DomainError):
        thermal_occupation(1.0, -1.0)


@given(
    f_hz=st.floats(1e3, 1e12),
    temp=st.floats(1e-6, 1e3),
)
@settings(max_examples=200, deadline=None)
def test_thermal_occupation_monotone(f_hz, temp):
    n = thermal_occupation(TWO_PI * f_hz, temp)
    assert n >= 0.0
    assert thermal_occupation(TWO_PI * f_hz, 2.0 * temp) >= n
    assert thermal_occupation(TWO_PI * 2.0 * f_hz, temp) <= n


# x_zpf = sqrt(hbar / 2 m w) at the two fabricated-device design points,
# frozen from a direct high-precision evaluation.
ZPF_CASES = [
    (2.06e-15, TWO_PI * 3.85e6, 3.2528884724978852e-14),
    (2.64e-15, TWO_PI * 8.28e6, 1.9593680252839569e-14),
]


@pytest.mark.parametrize("mass, omega, expected", ZPF_CASES)
def test_zero_point_fluctuation_design_points(mass, omega, expected):
    assert zero_point_fluctuation(mass, omega) == pytest.approx(expected, rel=1e-9)


@given(mass=st.floats(1e-18, 1e-9), f_hz=st.floats(1e3, 1e10))
@settings(max_examples=100, deadline=None)
def test_zero_point_fluctuation_scaling(mass, f_hz):
    omega = TWO_PI * f_hz
    x = zero_point_fluctuation(mass, omega)
    assert x > 0
    # quartering the mass doubles nothing -- x scales as 1/sqrt(m w)
    assert zero_point_fluctuation(4.0 * mass, omega) == pytest.approx(x / 2.0, rel=1e-12)
    assert zero_point_fluctuation(mass, 4.0 * omega) == pytest.approx(x / 2.0, rel=1e-12)


@pytest.mark.parametrize("mass, omega", [(0.0, 1.0), (1.0, -1.0), (math.inf, 1.0), (1.0, math.inf),
                                         (math.nan, 1.0), (1.0, math.nan)])
def test_zero_point_fluctuation_rejects_outside_the_domain(mass, omega):
    # a non-finite mass or frequency would give x_zpf = 0 or NaN
    with pytest.raises(DomainError, match="^m_eff and omega_m must be positive and finite$"):
        zero_point_fluctuation(mass, omega)


def test_enhanced_coupling_sqrt_photon_number():
    cp = CouplingParams(g0=TWO_PI * 100.0, n_cavity=1e6)
    assert cp.g == pytest.approx(TWO_PI * 100.0 * 1e3, rel=1e-12)
