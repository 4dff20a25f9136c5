"""Parameter containers for the cavity / mechanics / magnon / pump system.

All frequencies and rates are angular (rad/s).  Conversion from ordinary
frequency (Hz) happens at the external interfaces only (see config.py).
Each field's bound is declared once, in its metadata, and enforced by
`Checked`; config.py reads the same metadata.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from .errors import DomainError

# a field's bound against 0; a field without one need only be finite
POSITIVE = {"bound": ">"}
NON_NEGATIVE = {"bound": ">="}


def meets(value: float, bound: str | None) -> bool:
    """Whether a number meets a field's declared bound against 0."""
    return bound is None or (value > 0.0 if bound == ">" else value >= 0.0)


class Checked:
    """Base of the frozen parameter records: on construction every number
    must be finite and meet its field's bound.  A nested record has checked
    itself, and None marks an optional field left out."""

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None or isinstance(value, Checked):
                continue
            bound = f.metadata.get("bound")
            if not (math.isfinite(value) and meets(value, bound)):
                rule = "finite" if bound is None else f"finite and {bound} 0"
                raise DomainError(f"{f.name} must be {rule}, got {value}")


@dataclass(frozen=True)
class CavityParams(Checked):
    """One-sided microwave cavity: resonance and damping rates."""

    omega_c: float = field(metadata=POSITIVE)  # rad/s
    kappa_in: float = field(metadata=NON_NEGATIVE)  # rad/s, intrinsic loss
    kappa_ex: float = field(metadata=NON_NEGATIVE)  # rad/s, external (measurement line) coupling

    @property
    def kappa(self) -> float:
        return self.kappa_in + self.kappa_ex


@dataclass(frozen=True)
class MechParams(Checked):
    """Mechanical mode: frequency, damping and, optionally, effective mass."""

    omega_m: float = field(metadata=POSITIVE)  # rad/s
    gamma: float = field(metadata=NON_NEGATIVE)  # rad/s
    m_eff: float | None = field(default=None, metadata=POSITIVE)  # kg


@dataclass(frozen=True)
class PumpParams(Checked):
    """External pump tone applied to the cavity."""

    omega_p: float = field(metadata=POSITIVE)  # rad/s
    power: float = field(metadata=NON_NEGATIVE)  # W

    def detuning(self, cavity: CavityParams) -> float:
        """Delta = omega_c - omega_p."""
        return cavity.omega_c - self.omega_p


@dataclass(frozen=True)
class CouplingParams(Checked):
    """Single-photon coupling and pump-enhanced coupling."""

    g0: float  # rad/s; sign allowed, magnitude enters spectra
    n_cavity: float = field(metadata=NON_NEGATIVE)  # intracavity photon number

    @property
    def g(self) -> float:
        """g = g0 sqrt(n_c)."""
        return self.g0 * math.sqrt(self.n_cavity)


@dataclass(frozen=True)
class Occupations(Checked):
    """Thermal occupations of the five input baths of the tripartite model."""

    n_a_in: float = field(default=0.0, metadata=NON_NEGATIVE)
    n_a_ex: float = field(default=0.0, metadata=NON_NEGATIVE)
    n_b_in: float = field(default=0.0, metadata=NON_NEGATIVE)
    n_c_in: float = field(default=0.0, metadata=NON_NEGATIVE)
    n_c_ex: float = field(default=0.0, metadata=NON_NEGATIVE)

    def as_tuple(self):
        return (self.n_a_in, self.n_a_ex, self.n_b_in, self.n_c_in, self.n_c_ex)


@dataclass(frozen=True)
class TripartiteParams(Checked):
    """Electro-magno-mechanical system in the frame rotating at the pumps."""

    delta_a: float  # rad/s, microwave detuning
    delta_c: float  # rad/s, magnon detuning
    omega_m: float = field(metadata=POSITIVE)  # rad/s, mechanical frequency
    g_b: float  # rad/s, electromechanical coupling
    g_c: float  # rad/s, electromagnonic coupling
    kappa_a_in: float = field(metadata=NON_NEGATIVE)
    kappa_a_ex: float = field(metadata=NON_NEGATIVE)
    kappa_c_in: float = field(metadata=NON_NEGATIVE)
    kappa_c_ex: float = field(metadata=NON_NEGATIVE)
    gamma: float = field(metadata=NON_NEGATIVE)
    occupations: Occupations = field(default_factory=Occupations)

    @property
    def kappa_a(self) -> float:
        return self.kappa_a_in + self.kappa_a_ex

    @property
    def kappa_c(self) -> float:
        return self.kappa_c_in + self.kappa_c_ex
