"""Frequency-domain observables of a single cavity + mechanical mode:
bare and OMIT reflection from one kernel, optomechanical damping.

All formulas are complex throughout; magnitude/phase belong to the
presentation layer.  Frequencies are angular (rad/s).
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .params import CavityParams, MechParams


def mechanical_self_energy(omega, g: float, gamma: float, omega_m: float):
    """Self-energy of a mechanical mode coupled at enhanced rate g:
    Sigma = g^2 / (-i(w - Omega_m) + gamma/2)."""
    return g * g / (-1j * (np.asarray(omega) - omega_m) + gamma / 2.0)


def reflection_terms(omega, center, kappa_in, kappa_ex, tilt=0.0, self_energy=0.0):
    """Reflection r0 of a one-sided cavity, the kernel of every spectrum
    and fit model, with its denominator D:

    r0 = -(d + (k_in - k_ex)/2 + i tilt + Sigma) / D,
    D = d + (k_in + k_ex)/2 + Sigma,   d = -i(w - center).

    The bare cavity has Sigma = 0 and center = omega_c.  OMIT adds
    mechanical_self_energy and is written in the frame rotating at the
    pump, where the cavity sits at the detuning Delta; valid physics
    assumes a red-detuned pump in the resolved sideband.
    """
    d = -1j * (np.asarray(omega) - center)
    num = d + (kappa_in - kappa_ex) / 2.0 + 1j * tilt + self_energy
    den = d + (kappa_in + kappa_ex) / 2.0 + self_energy
    return -num / den, den


def reflection(omega, center, kappa_in, kappa_ex, tilt=0.0, self_energy=0.0):
    """The kernel r0 of reflection_terms alone."""
    return reflection_terms(omega, center, kappa_in, kappa_ex, tilt, self_energy)[0]


def optomechanical_damping(detuning, g: float, kappa: float, omega_m: float):
    """Optomechanical damping rate at mechanical resonance: what the pump
    adds to the mechanical energy damping rate, so that the mechanical
    linewidth is gamma + gamma_opt.

    gamma_opt(D) = g^2 k * (1/((O - D)^2 + k^2/4) - 1/((O + D)^2 + k^2/4))

    with D = omega_c - omega_p and g the enhanced coupling (Aspelmeyer,
    Kippenberg & Marquardt, RMP 86, 1391 (2014), whose detuning is -D).
    Positive at D = +Omega (cooling), where it tends to 4 g^2 / k in the
    resolved-sideband limit; negative at D = -Omega (gain); odd in D.  The
    drift eigenvalues of tripartite give the same rate, and the linewidth
    of the OMIT kernel, which keeps only the red sideband, its limit.
    """
    if kappa <= 0:
        raise DomainError("kappa must be positive")
    d = np.asarray(detuning)
    k24 = kappa * kappa / 4.0
    return (g * g * kappa) * (
        1.0 / ((omega_m - d) ** 2 + k24) - 1.0 / ((omega_m + d) ** 2 + k24)
    )


def spectrum(omega, cavity: CavityParams, mech: MechParams | None = None, g=0.0, detuning=0.0):
    """Complex reflection at each probe of omega, element by element: OMIT
    at the detuning, with enhanced coupling g, when mechanical parameters
    are given; the bare cavity at omega_c otherwise.  DomainError for a
    lossless bare cavity (a pole) and for any non-finite value."""
    w = np.asarray(omega, dtype=float)
    if mech is None and cavity.kappa == 0:
        raise DomainError("kappa_in + kappa_ex must be positive (pole)")
    with np.errstate(divide="ignore", invalid="ignore"):  # a pole is refused below
        if mech is None:
            center, self_energy = cavity.omega_c, 0.0
        else:
            center, self_energy = detuning, mechanical_self_energy(w, g, mech.gamma, mech.omega_m)
        values = reflection(w, center, cavity.kappa_in, cavity.kappa_ex, self_energy=self_energy)
    if not np.all(np.isfinite(values)):
        raise DomainError("spectrum values must be finite")
    return values
