"""Elementary scalar formulas: thermal occupation, zero-point motion."""

from __future__ import annotations

import math

from .constants import HBAR, K_BOLTZMANN
from .errors import DomainError, NumericalError


def thermal_occupation(frequency: float, temperature: float) -> float:
    """Bose-Einstein occupation 1/(exp(hbar w / kB T) - 1) at the angular
    `frequency` w (rad/s); T = 0 returns 0 by an explicit branch."""
    if frequency <= 0:
        raise DomainError("frequency must be positive")
    if temperature < 0:
        raise DomainError("temperature must be non-negative")
    if temperature == 0:
        return 0.0
    x = HBAR * float(frequency) / (K_BOLTZMANN * temperature)
    # large x: the occupation underflows to 0 well before exp overflows
    return math.exp(-x) if x > 700 else 1.0 / math.expm1(x)


def zero_point_fluctuation(m_eff: float, omega_m: float) -> float:
    """x_zpf = sqrt(hbar / (2 m_eff Omega)); NumericalError unless a positive finite float."""
    if not (0 < m_eff < math.inf and 0 < omega_m < math.inf):
        raise DomainError("m_eff and omega_m must be positive and finite")
    product = 2.0 * m_eff * omega_m
    x_zpf = math.sqrt(HBAR / product) if product else math.inf
    if not 0 < x_zpf < math.inf:
        raise NumericalError(f"x_zpf is not a positive finite float at 2 m_eff Omega = {product:g} kg/s")
    return x_zpf

