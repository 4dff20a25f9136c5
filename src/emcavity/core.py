"""Elementary scalar formulas: thermal occupation, zero-point motion."""

from __future__ import annotations

import math

from .constants import HBAR, K_BOLTZMANN
from .errors import DomainError


def thermal_occupation(frequency: float, temperature: float) -> float:
    """Bose-Einstein occupation 1/(exp(hbar w / kB T) - 1).

    `frequency` is angular (rad/s).  T = 0 returns 0 by an explicit branch.
    """
    if frequency <= 0:
        raise DomainError("frequency must be positive")
    if temperature < 0:
        raise DomainError("temperature must be non-negative")
    if temperature == 0:
        return 0.0
    x = HBAR * float(frequency) / (K_BOLTZMANN * temperature)
    # large-x guard: occupation underflows to 0 well before exp overflows
    if x > 700:
        return math.exp(-x)
    return 1.0 / math.expm1(x)


def zero_point_fluctuation(m_eff: float, omega_m: float) -> float:
    """x_zpf = sqrt(hbar / (2 m_eff Omega))."""
    if m_eff <= 0 or omega_m <= 0:
        raise DomainError("m_eff and omega_m must be positive")
    return math.sqrt(HBAR / (2.0 * m_eff * omega_m))

