"""Thermal occupation, zero-point motion, photon number, cooperativity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emcavity.constants import HBAR, K_BOLTZMANN, TWO_PI
from emcavity.core import (
    cooperativity,
    intracavity_photon_number,
    thermal_occupation,
    zero_point_fluctuation,
)
from emcavity.errors import DomainError
from emcavity.params import CavityParams, CouplingParams, MechParams, PumpParams

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


def test_intracavity_photon_number_on_resonance():
    cav = CavityParams(omega_c=TWO_PI * 10e9, kappa_in=TWO_PI * 0.5e6, kappa_ex=TWO_PI * 1.5e6)
    pump = PumpParams(omega_p=cav.omega_c, power=1e-12)
    n = intracavity_photon_number(cav, pump)
    # Lorentzian peak: n = kappa_ex P / (hbar w (kappa/2)^2)
    expected = cav.kappa_ex * pump.power / (HBAR * pump.omega_p * (cav.kappa / 2.0) ** 2)
    assert n == pytest.approx(expected, rel=1e-12)


def test_intracavity_photon_number_needs_the_pump_power():
    cav = CavityParams(omega_c=TWO_PI * 10e9, kappa_in=TWO_PI * 0.5e6, kappa_ex=TWO_PI * 1.5e6)
    with pytest.raises(DomainError, match="power"):
        intracavity_photon_number(cav, PumpParams(omega_p=cav.omega_c))


def test_intracavity_photon_number_detuned_half():
    cav = CavityParams(omega_c=TWO_PI * 10e9, kappa_in=TWO_PI * 0.5e6, kappa_ex=TWO_PI * 1.5e6)
    on = intracavity_photon_number(cav, PumpParams(omega_p=cav.omega_c, power=1e-12))
    half = intracavity_photon_number(
        cav, PumpParams(omega_p=cav.omega_c + cav.kappa / 2.0, power=1e-12)
    )
    # Lorentzian halves; the photon-energy prefactor shifts with the pump
    ratio = cav.omega_c / (cav.omega_c + cav.kappa / 2.0)
    assert half == pytest.approx(on / 2.0 * ratio, rel=1e-12)


def test_enhanced_coupling_sqrt_photon_number():
    cp = CouplingParams(g0=TWO_PI * 100.0, n_cavity=1e6)
    assert cp.g == pytest.approx(TWO_PI * 100.0 * 1e3, rel=1e-12)


def test_cooperativity_conventions():
    g, kappa, gamma = TWO_PI * 1e5, TWO_PI * 2e6, TWO_PI * 100.0
    full = cooperativity(g, kappa, gamma)
    assert full == pytest.approx(2.0 * g**2 / (kappa * gamma), rel=1e-12)
    assert cooperativity(g, kappa, gamma, convention="half") == pytest.approx(full / 2.0)
    with pytest.raises(ValueError):
        cooperativity(g, kappa, gamma, convention="bogus")
