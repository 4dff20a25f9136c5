"""Reflection spectra, OMIT feature evolution, optomechanical damping."""

from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from emcavity.config import load_config
from emcavity.constants import TWO_PI
from emcavity.errors import DomainError
from emcavity.fitting import OmitModelParams, ReflectionModelParams, omit_model, reflection_model
from emcavity.linear_response import (
    mechanical_self_energy,
    optomechanical_damping,
    reflection_terms,
    spectrum,
)
from emcavity.params import CavityParams, MechParams
from emcavity.tripartite import drift_matrices, resolve

from conftest import kappa_a

REFERENCE_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "tripartite_sec63.json"


def make_cavity(kappa_in_hz=0.41e6, kappa_ex_hz=1.45e6, f_c_hz=10.29184e9):
    return CavityParams(
        omega_c=TWO_PI * f_c_hz,
        kappa_in=TWO_PI * kappa_in_hz,
        kappa_ex=TWO_PI * kappa_ex_hz,
    )


MECH = MechParams(omega_m=TWO_PI * 4e6, gamma=TWO_PI * 100.0, m_eff=2.0e-15)


def omit(w, cav, g):
    """OMIT kernel with the pump on the red sideband: the cavity sits at Omega_m."""
    sigma = mechanical_self_energy(w, g, MECH.gamma, MECH.omega_m)
    return reflection_terms(w, MECH.omega_m, cav.kappa_in, cav.kappa_ex, self_energy=sigma)[0]


class TestBareReflection:
    def test_on_resonance_value(self):
        cav = make_cavity()
        r = reflection_terms(cav.omega_c, cav.omega_c, cav.kappa_in, cav.kappa_ex)[0]
        expected = -(cav.kappa_in - cav.kappa_ex) / cav.kappa
        assert r == pytest.approx(expected, rel=1e-12)

    def test_far_detuned_is_full_reflection(self):
        cav = make_cavity()
        r = reflection_terms(cav.omega_c + 1e4 * cav.kappa, cav.omega_c, cav.kappa_in, cav.kappa_ex)[0]
        assert abs(r) == pytest.approx(1.0, abs=1e-6)

    def test_critical_coupling_gives_zero(self):
        cav = make_cavity(kappa_in_hz=1.0e6, kappa_ex_hz=1.0e6)
        assert abs(reflection_terms(cav.omega_c, cav.omega_c, cav.kappa_in, cav.kappa_ex)[0]) < 1e-15

    @given(
        kin=st.floats(1e4, 1e7),
        kex=st.floats(1e4, 1e7),
        off=st.floats(-50.0, 50.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_passive_and_symmetric(self, kin, kex, off):
        cav = make_cavity(kappa_in_hz=kin, kappa_ex_hz=kex)
        w = cav.omega_c + off * 1e5
        r = reflection_terms(w, cav.omega_c, cav.kappa_in, cav.kappa_ex)[0]
        # passive one-port: never gains, and |R| is even in the detuning
        assert abs(r) <= 1.0 + 1e-12
        r_mirror = reflection_terms(2.0 * cav.omega_c - w, cav.omega_c, cav.kappa_in, cav.kappa_ex)[0]
        assert abs(r_mirror) == pytest.approx(abs(r), rel=1e-10)


class TestOmit:
    def test_reduces_to_bare_at_zero_coupling(self):
        cav = make_cavity()
        w = np.linspace(-TWO_PI * 6e6, TWO_PI * 6e6, 101) + MECH.omega_m
        r_omit = omit(w, cav, 0.0)
        r_bare = reflection_terms(w, MECH.omega_m, cav.kappa_in, cav.kappa_ex)[0]
        assert np.allclose(r_omit, r_bare, rtol=1e-12)

    def test_feature_dip_to_peak_evolution(self):
        # overcoupled cavity, pump on the red sideband: the narrow feature at
        # w = Omega evolves from local dip to local peak as g grows.  The
        # sweep starts at the matched point Gamma_omit = kappa_ex - kappa_in
        # (below it the center magnitude still falls toward zero), after
        # which |R(Omega)| rises monotonically toward full reflection.
        cav = make_cavity(kappa_in_hz=0.4e6, kappa_ex_hz=1.6e6)
        w_probe = MECH.omega_m
        w_side = MECH.omega_m + 5.0 * MECH.gamma
        g_min = np.sqrt((cav.kappa_ex - cav.kappa_in) * MECH.gamma / 4.0)
        mags = []
        contrast = []
        for g in g_min * np.logspace(0, 2, 13):  # 4 decades in photon number
            center = abs(omit(w_probe, cav, g))
            side = abs(omit(w_side, cav, g))
            mags.append(center)
            contrast.append(center - side)
        assert all(b >= a - 1e-12 for a, b in zip(mags, mags[1:]))
        assert contrast[0] < 0 < contrast[-1]

    def test_strong_coupling_restores_full_reflection(self):
        cav = make_cavity(kappa_in_hz=0.4e6, kappa_ex_hz=1.6e6)
        g = TWO_PI * 1e6  # C >> 1
        r = omit(MECH.omega_m, cav, g)
        assert abs(r) == pytest.approx(1.0, abs=1e-3)

    def test_self_energy_resonance_and_symmetry(self):
        # on resonance Sigma is the real induced loss 2 g^2 / gamma; it is
        # conjugate-symmetric about Omega_m
        g, x = TWO_PI * 2e3, TWO_PI * np.linspace(1.0, 300.0, 7)
        sigma = mechanical_self_energy(MECH.omega_m, g, MECH.gamma, MECH.omega_m)
        assert sigma == pytest.approx(2.0 * g * g / MECH.gamma, rel=1e-12)
        above = mechanical_self_energy(MECH.omega_m + x, g, MECH.gamma, MECH.omega_m)
        below = mechanical_self_energy(MECH.omega_m - x, g, MECH.gamma, MECH.omega_m)
        assert np.allclose(below, np.conj(above), rtol=1e-9)


class TestDamping:
    def test_odd_in_detuning(self):
        g, kappa, om = TWO_PI * 1e5, TWO_PI * 1e6, TWO_PI * 4e6
        d = np.linspace(-2.0 * om, 2.0 * om, 201)
        d = d[np.abs(d) > 0]
        lhs = optomechanical_damping(d, g, kappa, om)
        rhs = -optomechanical_damping(-d, g, kappa, om)
        assert np.allclose(lhs, rhs, rtol=1e-12)

    def test_resolved_sideband_limit(self):
        # at D = Omega with 4*Omega/kappa = 40 the peak rate approaches
        # 4 g^2 / kappa up to (kappa/4 Omega)^2 corrections
        om = TWO_PI * 4e6
        kappa = 4.0 * om / 40.0
        g = TWO_PI * 1e4
        rate = optomechanical_damping(om, g, kappa, om)
        limit = 4.0 * g * g / kappa
        assert rate == pytest.approx(limit, rel=2.0 * (kappa / (4.0 * om)) ** 2)

    @pytest.mark.parametrize("g_hz", [1e4, 1e5])
    @pytest.mark.parametrize("delta_hz", [-4e6, -2e6, 2e6, 4e6])
    def test_matches_drift_eigenvalues(self, g_hz, delta_hz):
        # an independent oracle: with the magnon decoupled, the weakest-damped
        # eigenvalue of the linearized dynamics is the mechanical mode's, and
        # its amplitude decays at (gamma + gamma_opt) / 2; the closed form is
        # first order in (g / kappa)^2
        p = replace(load_config(REFERENCE_CONFIG)[0].tripartite, g_c=0.0)
        g, delta = TWO_PI * g_hz, TWO_PI * delta_hz
        A = drift_matrices(resolve(p, {"delta_a": np.array([delta]), "g_b": np.array([g])}))[0]
        drift_rate = -2.0 * np.max(np.linalg.eigvals(A).real) - p.gamma
        rate = optomechanical_damping(delta, g, kappa_a(p), p.omega_m)
        assert abs(drift_rate - rate) < 10.0 * (g / kappa_a(p)) ** 2 * abs(rate)

    def test_zero_at_zero_detuning(self):
        assert optomechanical_damping(0.0, TWO_PI * 1e5, TWO_PI * 1e6, TWO_PI * 4e6) == 0.0

    @pytest.mark.parametrize("detuning, g, kappa, om", [
        *[(s * TWO_PI * f, TWO_PI * 2e3, TWO_PI * 1.86e6, TWO_PI * 4e6)
          for f in (0.0, 1e3, 4e6, 1e9, 1e15, 1e50, 1e100) for s in (1.0, -1.0)],
        # on the red sideband with kappa far below Omega, where a finite rate
        # has partials past the float range: 4 O D / a / b at the first,
        # D / ((O - D)^2 + k^2/4) at the other two
        (TWO_PI * 1e100, TWO_PI * 1e-50, TWO_PI * 1e-100, TWO_PI * 1e100),
        (TWO_PI * 1e100, TWO_PI * 1e-50, TWO_PI * 1e-105, TWO_PI * 1e100),
        (1e3, 1.0, 1e-153, 1e3),
    ])
    def test_exact_to_rounding(self, detuning, g, kappa, om):
        # the exact rate of the same floats, in rationals: the two Lorentzians'
        # difference lost 8 digits at 1e15 Hz and all of them at 1e50 Hz
        d, g, k, om = (Fraction(x) for x in (detuning, g, kappa, om))
        exact = g * g * k * (1 / ((om - d) ** 2 + k * k / 4) - 1 / ((om + d) ** 2 + k * k / 4))
        rate = optomechanical_damping(detuning, float(g), float(k), float(om))
        assert abs(Fraction(float(rate)) - exact) <= Fraction(4e-16) * abs(exact)


def models(cav, g=TWO_PI * 2e3):
    """The bare and OMIT fit models of cav at the unit background, the
    OMIT one in the pump frame with the pump on the red sideband."""
    bare = ReflectionModelParams(amplitude=1.0, tau=0.0, phi=0.0, omega_c=cav.omega_c,
                                 kappa_in=cav.kappa_in, kappa_ex=cav.kappa_ex, delta=0.0)
    mech = OmitModelParams(g=g, gamma=MECH.gamma, omega_m=MECH.omega_m, detuning=MECH.omega_m)
    return lambda w: reflection_model(w, bare), lambda w: omit_model(w, bare, mech)


class TestSpectrum:
    def test_non_finite_values_are_refused(self):
        # a non-finite probe, and a lossless cavity probed at its pole,
        # where 0/0 is refused without a numpy warning
        for grid, cav in (([1.0, np.inf], make_cavity()), ([TWO_PI * 1e9], make_cavity(0.0, 0.0, 1e9))):
            with pytest.raises(DomainError) as info:
                spectrum(models(cav)[0], np.array(grid))
            assert str(info.value) == "spectrum values must be finite"

    @pytest.mark.parametrize("grid", [[2.0, 1.0, 3.0], [1.0, 1.0], [], [[1.0, 2.0]]],
                             ids=["unsorted", "repeated", "empty", "2-D"])
    def test_any_array_is_evaluated_element_by_element(self, grid):
        # the models work element by element, so any array of probes is
        # their value bit for bit, in its own shape: bare and OMIT
        cav = make_cavity()
        for model, w in zip(models(cav), (cav.omega_c + np.array(grid) * cav.kappa,
                                          MECH.omega_m + np.array(grid) * MECH.gamma)):
            got, want = spectrum(model, w), model(w)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_bare_matches_pointwise(self):
        cav = make_cavity()
        grid = cav.omega_c + np.linspace(-5, 5, 101) * cav.kappa
        spec = spectrum(models(cav)[0], grid)
        assert isinstance(spec, np.ndarray) and spec.dtype == complex
        bare = reflection_terms(grid, cav.omega_c, cav.kappa_in, cav.kappa_ex)[0]
        assert np.allclose(spec, bare, rtol=1e-14)

    def test_one_point_grid_is_the_model(self):
        # a single probe is a grid: its value is the model's, bit for bit
        cav = make_cavity()
        bare, omit_ = models(cav)
        for w in (cav.omega_c - 0.3 * cav.kappa, cav.omega_c, MECH.omega_m + 0.7 * MECH.gamma):
            one = np.array([w])
            assert spectrum(bare, one).tobytes() == bare(one).tobytes()
            assert spectrum(omit_, one).tobytes() == omit_(one).tobytes()

    def test_unit_background_is_the_kernel(self):
        # at the unit background the models are the kernel r0, equal as
        # values; only the sign of an exact zero may differ
        cav, g = make_cavity(), TWO_PI * 2e3
        bare, omit_ = models(cav, g)
        grid = cav.omega_c + np.linspace(-5, 5, 101) * cav.kappa
        assert np.array_equal(spectrum(bare, grid), reflection_terms(grid, cav.omega_c, cav.kappa_in, cav.kappa_ex)[0])
        grid = MECH.omega_m + np.linspace(-5, 5, 101) * MECH.gamma
        assert np.array_equal(spectrum(omit_, grid), omit(grid, cav, g))


RATE = st.one_of(st.just(0.0), st.floats(1.0, TWO_PI * 1e8))
FREQ = st.floats(-TWO_PI * 2e10, TWO_PI * 2e10)


class TestPassivity:
    @given(
        w=FREQ, center=FREQ, k_in=RATE, k_ex=RATE,
        g=st.floats(0.0, TWO_PI * 1e7), gamma=st.floats(1.0, TWO_PI * 1e6), omega_m=FREQ,
    )
    @settings(max_examples=300, deadline=None)
    def test_reflection_never_exceeds_unity(self, w, center, k_in, k_ex, g, gamma, omega_m):
        """|r0| <= 1 with tilt 0: Re D = (k_in + k_ex)/2 + Re Sigma bounds
        |Re N| = |(k_in - k_ex)/2 + Re Sigma| whenever Re Sigma >= 0, which
        the mechanical self-energy guarantees for gamma > 0."""
        assume(k_in + k_ex > 0)
        assert abs(reflection_terms(w, center, k_in, k_ex)[0]) <= 1.0 + 1e-12
        sigma = mechanical_self_energy(w, g, gamma, omega_m)
        assert sigma.real >= 0.0
        assert abs(reflection_terms(w, center, k_in, k_ex, self_energy=sigma)[0]) <= 1.0 + 1e-12
