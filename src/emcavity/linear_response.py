"""Frequency-domain observables of a single cavity + mechanical mode:
the reflection kernel of the bare and OMIT fit models (fitting.py), the
checked evaluation of a spectrum, optomechanical damping.

All formulas are complex throughout; magnitude/phase belong to the
presentation layer.  Frequencies are angular (rad/s).
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError


def mechanical_self_energy(omega, g: float, gamma: float, omega_m: float):
    """Self-energy of a mechanical mode coupled at enhanced rate g:
    Sigma = g^2 / (-i(w - Omega_m) + gamma/2)."""
    return g * g / (-1j * (np.asarray(omega) - omega_m) + gamma / 2.0)


def reflection_terms(omega, center, kappa_in, kappa_ex, tilt=0.0, self_energy=0.0):
    """Reflection r0 of a one-sided cavity, the kernel of the two fit models
    and so of every spectrum, with its denominator D:

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


def optomechanical_damping(detuning, g: float, kappa: float, omega_m: float):
    """Optomechanical damping rate at mechanical resonance: what the pump
    adds to the mechanical energy damping rate, so that the mechanical
    linewidth is gamma + gamma_opt.

    gamma_opt(D) = g^2 k * (1/((O - D)^2 + k^2/4) - 1/((O + D)^2 + k^2/4))
                 = g^2 k * 4 O D / (((O - D)^2 + k^2/4) ((O + D)^2 + k^2/4))

    with D = omega_c - omega_p and g the enhanced coupling (Aspelmeyer,
    Kippenberg & Marquardt, RMP 86, 1391 (2014), whose detuning is -D).
    The one fraction is exact to rounding at any detuning; 4 O D over the
    larger denominator is at most 1 in size, so no partial overflows where
    the two-term form's do not.
    Positive at D = +Omega (cooling), where it tends to 4 g^2 / k in the
    resolved-sideband limit; negative at D = -Omega (gain); odd in D.  The
    drift eigenvalues of tripartite give the same rate, and the linewidth
    of the OMIT kernel, which keeps only the red sideband, its limit.
    DomainError for kappa <= 0 and for any non-finite rate.
    """
    if kappa <= 0:
        raise DomainError("kappa must be positive")
    d = np.asarray(detuning)
    k24 = kappa * kappa / 4.0
    with np.errstate(all="ignore"):  # a rate past the float range is refused below
        a, b = (omega_m - d) ** 2 + k24, (omega_m + d) ** 2 + k24
        rate = (g * g * kappa) * (4.0 * omega_m / np.maximum(a, b) * d / np.minimum(a, b))
    if not np.all(np.isfinite(rate)):
        raise DomainError("damping rate must be finite")
    return rate


def spectrum(model, omega):
    """The spectrum model(omega) of a fit model, evaluated element by element
    at probes in any order or shape.  DomainError for any non-finite value,
    such as one at a pole."""
    with np.errstate(divide="ignore", invalid="ignore"):  # a pole is refused below
        values = model(omega)
    if not np.all(np.isfinite(values)):
        raise DomainError("spectrum values must be finite")
    return values
