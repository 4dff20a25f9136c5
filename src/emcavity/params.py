"""Parameter containers for the cavity / mechanics / magnon / pump system.

All frequencies and rates are angular (rad/s).  Conversion from ordinary
frequency (Hz) happens at the external interfaces only (see config.py).
Each field's bound and JSON key are declared once, in its metadata; the
bound is enforced by `Checked`, and on sample arrays by `CheckedArrays`;
config.py reads both.

Every float that enters (config.py, tables.py, cli.py) obeys `in_range`, and a
product of three such floats is a normal float.  The records do not apply the
rule: a computed value, such as a fit's trial point, may break it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DataError, DomainError

# a field's bound against 0; a field without one need only be finite
POSITIVE = {"bound": ">"}
NON_NEGATIVE = {"bound": ">="}
RULE = "0 or 1e-100 <= |v| <= 1e100"


def in_range(value):
    """Whether a number, or each element of an array, obeys RULE; NaN does not."""
    a = abs(value)
    return (a <= 1e100) & ((a >= 1e-100) | (a == 0))


def key(name: str, **meta) -> dict:
    """Field metadata of a record field written to JSON under `name` rather
    than its own name, plus any bound.  A key ending in `_hz` holds
    ordinary frequency; the field holds it in rad/s."""
    return {"key": name, **meta}


def meets(value, bound: str | None):
    """Whether a number (or, elementwise, an array) meets a field's
    declared bound against 0."""
    return bound is None or (value > 0.0 if bound == ">" else value >= 0.0)


def violation(name: str, value, bound: str | None) -> str:
    """The message for a field value that is not finite or breaks its bound."""
    rule = "finite" if bound is None else f"finite and {bound} 0"
    return f"{name} must be {rule}, got {value}"


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
                raise DomainError(violation(f.name, value, bound))


class CheckedArrays:
    """Base of the frozen sample records, the array analogue of `Checked`:
    on construction every field becomes a float array, all of one non-zero
    length, whose values are finite and meet the field's declared bound."""

    def __post_init__(self):
        n = None
        for f in fields(self):
            arr = np.asarray(getattr(self, f.name), dtype=float)
            length = len(arr) if arr.ndim else 0
            n = length if n is None else n
            if length != n or n == 0:
                raise DataError(f"sample arrays must share one non-zero length; {f.name} has {length}")
            bound = f.metadata.get("bound")
            ok = np.isfinite(arr) & meets(arr, bound)
            if not ok.all():
                first = np.argwhere(~ok)[0]  # its sample, then its column
                raise DataError(violation(f.name, arr[tuple(first)], bound), row=int(first[0]))
            object.__setattr__(self, f.name, arr)


@dataclass(frozen=True)
class CavityParams(Checked):
    """One-sided microwave cavity: resonance and damping rates."""

    omega_c: float = field(metadata=key("f_c_hz", **POSITIVE))
    kappa_in: float = field(metadata=key("kappa_in_hz", **NON_NEGATIVE))  # intrinsic loss
    kappa_ex: float = field(metadata=key("kappa_ex_hz", **NON_NEGATIVE))  # measurement line

    @property
    def kappa(self) -> float:
        return self.kappa_in + self.kappa_ex


@dataclass(frozen=True)
class MechParams(Checked):
    """Mechanical mode: frequency, damping and, optionally, effective mass."""

    omega_m: float = field(metadata=key("f_m_hz", **POSITIVE))
    gamma: float = field(metadata=key("gamma_hz", **NON_NEGATIVE))
    m_eff: float | None = field(default=None, metadata=key("m_eff_kg", **POSITIVE))


@dataclass(frozen=True)
class PumpParams(Checked):
    """External pump tone applied to the cavity; its power is optional."""

    omega_p: float = field(metadata=key("f_p_hz", **POSITIVE))
    power: float | None = field(default=None, metadata=key("power_w", **NON_NEGATIVE))

    def detuning(self, cavity: CavityParams) -> float:
        """Delta = omega_c - omega_p."""
        return cavity.omega_c - self.omega_p


@dataclass(frozen=True)
class CouplingParams(Checked):
    """Single-photon coupling and pump-enhanced coupling."""

    g0: float = field(metadata=key("g0_hz"))  # sign allowed, magnitude enters spectra
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


@dataclass(frozen=True)
class TripartiteParams(Checked):
    """Electro-magno-mechanical system in the frame rotating at the pumps."""

    delta_a: float = field(metadata=key("delta_a_hz"))  # microwave detuning
    delta_c: float = field(metadata=key("delta_c_hz"))  # magnon detuning
    omega_m: float = field(metadata=key("f_m_hz", **POSITIVE))  # mechanical frequency
    g_b: float = field(metadata=key("g_b_hz"))  # electromechanical coupling
    g_c: float = field(metadata=key("g_c_hz"))  # electromagnonic coupling
    kappa_a_in: float = field(metadata=key("kappa_a_in_hz", **NON_NEGATIVE))
    kappa_a_ex: float = field(metadata=key("kappa_a_ex_hz", **NON_NEGATIVE))
    kappa_c_in: float = field(metadata=key("kappa_c_in_hz", **NON_NEGATIVE))
    kappa_c_ex: float = field(metadata=key("kappa_c_ex_hz", **NON_NEGATIVE))
    gamma: float = field(metadata=key("gamma_hz", **NON_NEGATIVE))
    occupations: Occupations = field(default_factory=Occupations, metadata={"record": Occupations})
