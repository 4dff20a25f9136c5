"""Elementary scalar formulas: thermal occupation, zero-point motion."""

from __future__ import annotations

import math
import sys

from .constants import HBAR, K_BOLTZMANN
from .errors import DomainError, NumericalError


def thermal_occupation(frequency: float, temperature: float) -> float:
    """Bose-Einstein occupation 1/(exp(hbar w / kB T) - 1).

    `frequency` is angular (rad/s).  T = 0 returns 0 by an explicit branch;
    an occupation beyond the float range is a NumericalError.
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
    if not x * sys.float_info.max > 1.0:  # 1/expm1(x) ~ 1/x would overflow
        raise NumericalError(f"thermal occupation out of float range: hbar w / kB T = {x:.3e}")
    return 1.0 / math.expm1(x)


def zero_point_fluctuation(m_eff: float, omega_m: float) -> float:
    """x_zpf = sqrt(hbar / (2 m_eff Omega))."""
    if not (0 < m_eff < math.inf and 0 < omega_m < math.inf):
        raise DomainError("m_eff and omega_m must be positive and finite")
    return math.sqrt(HBAR / (2.0 * m_eff * omega_m))

