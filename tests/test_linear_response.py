"""Reflection spectra, OMIT feature evolution, optomechanical damping."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from emcavity.config import load_config
from emcavity.constants import TWO_PI
from emcavity.errors import DomainError
from emcavity.linear_response import (
    mechanical_self_energy,
    optomechanical_damping,
    reflection,
    reflection_terms,
    spectrum,
)
from emcavity.params import CavityParams, MechParams
from emcavity.tripartite import drift_matrices, resolve

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
    return reflection(w, MECH.omega_m, cav.kappa_in, cav.kappa_ex, self_energy=sigma)


class TestBareReflection:
    def test_on_resonance_value(self):
        cav = make_cavity()
        r = reflection(cav.omega_c, cav.omega_c, cav.kappa_in, cav.kappa_ex)
        expected = -(cav.kappa_in - cav.kappa_ex) / cav.kappa
        assert r == pytest.approx(expected, rel=1e-12)

    def test_far_detuned_is_full_reflection(self):
        cav = make_cavity()
        r = reflection(cav.omega_c + 1e4 * cav.kappa, cav.omega_c, cav.kappa_in, cav.kappa_ex)
        assert abs(r) == pytest.approx(1.0, abs=1e-6)

    def test_critical_coupling_gives_zero(self):
        cav = make_cavity(kappa_in_hz=1.0e6, kappa_ex_hz=1.0e6)
        assert abs(reflection(cav.omega_c, cav.omega_c, cav.kappa_in, cav.kappa_ex)) < 1e-15

    @given(
        kin=st.floats(1e4, 1e7),
        kex=st.floats(1e4, 1e7),
        off=st.floats(-50.0, 50.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_passive_and_symmetric(self, kin, kex, off):
        cav = make_cavity(kappa_in_hz=kin, kappa_ex_hz=kex)
        w = cav.omega_c + off * 1e5
        r = reflection(w, cav.omega_c, cav.kappa_in, cav.kappa_ex)
        # passive one-port: never gains, and |R| is even in the detuning
        assert abs(r) <= 1.0 + 1e-12
        r_mirror = reflection(2.0 * cav.omega_c - w, cav.omega_c, cav.kappa_in, cav.kappa_ex)
        assert abs(r_mirror) == pytest.approx(abs(r), rel=1e-10)


class TestOmit:
    def test_reduces_to_bare_at_zero_coupling(self):
        cav = make_cavity()
        w = np.linspace(-TWO_PI * 6e6, TWO_PI * 6e6, 101) + MECH.omega_m
        r_omit = omit(w, cav, 0.0)
        r_bare = reflection(w, MECH.omega_m, cav.kappa_in, cav.kappa_ex)
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
        rate = optomechanical_damping(delta, g, p.kappa_a, p.omega_m)
        assert abs(drift_rate - rate) < 10.0 * (g / p.kappa_a) ** 2 * abs(rate)

    def test_zero_at_zero_detuning(self):
        assert optomechanical_damping(0.0, TWO_PI * 1e5, TWO_PI * 1e6, TWO_PI * 4e6) == 0.0


class TestSpectrum:
    def test_refusals(self):
        cases = [
            ([1.0, 2.0], make_cavity(0.0, 0.0), "kappa_in + kappa_ex must be positive (pole)"),
            ([1.0, np.inf], make_cavity(), "spectrum values must be finite"),
        ]
        for grid, cavity, message in cases:
            with pytest.raises(DomainError) as info:
                spectrum(np.array(grid), cavity)
            assert str(info.value) == message

    @pytest.mark.parametrize("grid", [[2.0, 1.0, 3.0], [1.0, 1.0], [], [[1.0, 2.0]]],
                             ids=["unsorted", "repeated", "empty", "2-D"])
    def test_any_array_is_evaluated_element_by_element(self, grid):
        # the kernel works element by element, so any array of probes is
        # its value bit for bit, in its own shape: bare and OMIT
        cav, g = make_cavity(), TWO_PI * 2e3
        w = np.array(grid) * cav.kappa
        bare = spectrum(cav.omega_c + w, cav)
        want = reflection_terms(cav.omega_c + w, cav.omega_c, cav.kappa_in, cav.kappa_ex)[0]
        assert bare.shape == want.shape and bare.tobytes() == want.tobytes()
        w = MECH.omega_m + np.array(grid) * MECH.gamma
        sigma = mechanical_self_energy(w, g, MECH.gamma, MECH.omega_m)
        got = spectrum(w, cav, MECH, g, MECH.omega_m)
        want = reflection_terms(w, MECH.omega_m, cav.kappa_in, cav.kappa_ex, self_energy=sigma)[0]
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_bare_matches_pointwise(self):
        cav = make_cavity()
        grid = cav.omega_c + np.linspace(-5, 5, 101) * cav.kappa
        spec = spectrum(grid, cav)
        assert isinstance(spec, np.ndarray) and spec.dtype == complex
        bare = reflection(grid, cav.omega_c, cav.kappa_in, cav.kappa_ex)
        assert np.allclose(spec, bare, rtol=1e-14)

    def test_one_point_grid_is_the_kernel(self):
        # a single probe is a grid: its value is the kernel's, bit for bit
        cav, g = make_cavity(), TWO_PI * 2e3
        for w in (cav.omega_c - 0.3 * cav.kappa, cav.omega_c, MECH.omega_m + 0.7 * MECH.gamma):
            one = np.array([w])
            bare = reflection(one, cav.omega_c, cav.kappa_in, cav.kappa_ex)
            assert spectrum(one, cav).tobytes() == bare.tobytes()
            assert spectrum(one, cav, MECH, g, MECH.omega_m).tobytes() == omit(one, cav, g).tobytes()

    def test_omit_selected_by_mech(self):
        cav = make_cavity()
        g, grid = TWO_PI * 2e3, MECH.omega_m + np.linspace(-5, 5, 101) * MECH.gamma
        assert np.array_equal(spectrum(grid, cav, MECH, g, MECH.omega_m), omit(grid, cav, g))


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
        assert abs(reflection(w, center, k_in, k_ex)) <= 1.0 + 1e-12
        sigma = mechanical_self_energy(w, g, gamma, omega_m)
        assert sigma.real >= 0.0
        assert abs(reflection(w, center, k_in, k_ex, self_energy=sigma)) <= 1.0 + 1e-12
