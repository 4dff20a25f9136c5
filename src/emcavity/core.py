"""Elementary scalar formulas: thermal occupation, zero-point motion,
intracavity photon number, cooperativity.
"""

from __future__ import annotations

import math

import numpy as np

from .constants import HBAR, K_BOLTZMANN
from .errors import DomainError
from .params import CavityParams, PumpParams


def thermal_occupation(frequency: float, temperature: float) -> float:
    """Bose-Einstein occupation 1/(exp(hbar w / kB T) - 1).

    `frequency` is angular (rad/s).  T = 0 returns 0 by an explicit branch.
    """
    frequency = np.asarray(frequency, dtype=float)
    if np.any(frequency <= 0):
        raise DomainError("frequency must be positive")
    if np.any(np.asarray(temperature) < 0):
        raise DomainError("temperature must be non-negative")
    if np.ndim(frequency) == 0:
        if temperature == 0:
            return 0.0
        x = HBAR * float(frequency) / (K_BOLTZMANN * temperature)
        # large-x guard: occupation underflows to 0 well before exp overflows
        if x > 700:
            return math.exp(-x)
        return 1.0 / math.expm1(x)
    if temperature == 0:
        return np.zeros_like(frequency)
    x = HBAR * frequency / (K_BOLTZMANN * temperature)
    out = np.where(x > 700, np.exp(-np.minimum(x, 745)), 1.0 / np.expm1(np.minimum(x, 700)))
    return out


def zero_point_fluctuation(m_eff: float, omega_m: float) -> float:
    """x_zpf = sqrt(hbar / (2 m_eff Omega))."""
    if m_eff <= 0 or omega_m <= 0:
        raise DomainError("m_eff and omega_m must be positive")
    return math.sqrt(HBAR / (2.0 * m_eff * omega_m))


def intracavity_photon_number(cavity: CavityParams, pump: PumpParams) -> float:
    """Steady-state photon number driven by an external pump.

    n_c = kappa_ex * (P / hbar w_p) / ((w_p - w_c)^2 + kappa^2/4)
    """
    if pump.power is None:
        raise DomainError("power of the pump must be given")
    flux = pump.power / (HBAR * pump.omega_p)
    det2 = (pump.omega_p - cavity.omega_c) ** 2
    return cavity.kappa_ex * flux / (det2 + cavity.kappa**2 / 4.0)


def cooperativity(g: float, kappa: float, gamma: float, convention: str = "full") -> float:
    """Electromechanical cooperativity.

    convention="full" gives 2 g^2 / (kappa gamma) (the resolved-sideband
    derivation); convention="half" gives g^2 / (kappa gamma) (the alternate
    symbol-list definition).  Both appear in the literature; neither is
    chosen silently.
    """
    if kappa <= 0 or gamma <= 0:
        raise DomainError("kappa and gamma must be positive")
    if convention == "full":
        return 2.0 * g * g / (kappa * gamma)
    if convention == "half":
        return g * g / (kappa * gamma)
    raise ValueError(f"unknown cooperativity convention: {convention!r}")
