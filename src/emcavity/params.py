"""Parameter containers for the cavity / mechanics / magnon / pump system.

All frequencies and rates are angular (rad/s).  Conversion from ordinary
frequency (Hz) happens at the external interfaces only (see config.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import DomainError


@dataclass(frozen=True)
class CavityParams:
    """One-sided microwave cavity: resonance and damping rates."""

    omega_c: float  # rad/s
    kappa_in: float  # rad/s, intrinsic loss
    kappa_ex: float  # rad/s, external (measurement line) coupling

    def __post_init__(self):
        if self.omega_c <= 0:
            raise DomainError("omega_c must be positive")
        if self.kappa_in < 0 or self.kappa_ex < 0:
            raise DomainError("damping rates must be non-negative")

    @property
    def kappa(self) -> float:
        return self.kappa_in + self.kappa_ex


@dataclass(frozen=True)
class MechParams:
    """Mechanical mode: frequency, damping, effective mass."""

    omega_m: float  # rad/s
    gamma: float  # rad/s
    m_eff: float  # kg

    def __post_init__(self):
        if self.omega_m <= 0:
            raise DomainError("omega_m must be positive")
        if self.gamma < 0:
            raise DomainError("gamma must be non-negative")
        if self.m_eff <= 0:
            raise DomainError("m_eff must be positive")


@dataclass(frozen=True)
class PumpParams:
    """External pump tone applied to the cavity."""

    omega_p: float  # rad/s
    power: float  # W

    def __post_init__(self):
        if self.power < 0:
            raise DomainError("pump power must be non-negative")

    def detuning(self, cavity: CavityParams) -> float:
        """Delta = omega_c - omega_p."""
        return cavity.omega_c - self.omega_p


@dataclass(frozen=True)
class CouplingParams:
    """Single-photon coupling and pump-enhanced coupling."""

    g0: float  # rad/s; sign allowed, magnitude enters spectra
    n_cavity: float  # intracavity photon number

    def __post_init__(self):
        if self.n_cavity < 0:
            raise DomainError("n_cavity must be non-negative")

    @property
    def g(self) -> float:
        return self.g0 * math.sqrt(self.n_cavity)


@dataclass(frozen=True)
class Occupations:
    """Thermal occupations of the five input baths of the tripartite model."""

    n_a_in: float = 0.0
    n_a_ex: float = 0.0
    n_b_in: float = 0.0
    n_c_in: float = 0.0
    n_c_ex: float = 0.0

    def __post_init__(self):
        for name in ("n_a_in", "n_a_ex", "n_b_in", "n_c_in", "n_c_ex"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise DomainError(f"{name} must be finite and non-negative")

    def as_tuple(self):
        return (self.n_a_in, self.n_a_ex, self.n_b_in, self.n_c_in, self.n_c_ex)


@dataclass(frozen=True)
class TripartiteParams:
    """Electro-magno-mechanical system in the frame rotating at the pumps."""

    delta_a: float  # rad/s, microwave detuning
    delta_c: float  # rad/s, magnon detuning
    omega_m: float  # rad/s, mechanical frequency
    g_b: float  # rad/s, electromechanical coupling
    g_c: float  # rad/s, electromagnonic coupling
    kappa_a_in: float
    kappa_a_ex: float
    kappa_c_in: float
    kappa_c_ex: float
    gamma: float
    occupations: Occupations = field(default_factory=Occupations)

    def __post_init__(self):
        for name in ("delta_a", "delta_c", "omega_m", "g_b", "g_c"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite")
        for name in ("kappa_a_in", "kappa_a_ex", "kappa_c_in", "kappa_c_ex", "gamma"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise DomainError(f"{name} must be finite and non-negative")

    @property
    def kappa_a(self) -> float:
        return self.kappa_a_in + self.kappa_a_ex

    @property
    def kappa_c(self) -> float:
        return self.kappa_c_in + self.kappa_c_ex
