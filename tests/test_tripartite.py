"""Drift matrix structure, stability, scattering, entanglement measures."""

import re
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from emcavity import tripartite
from emcavity.constants import TWO_PI
from emcavity.errors import DomainError, NumericalError
from emcavity.config import load_config
from emcavity.linear_response import mechanical_self_energy, reflection
from emcavity.params import Occupations, TripartiteParams
from emcavity.tripartite import (
    _ladder,
    critical_coupling,
    drift_matrices,
    evaluate_point,
    input_matrix,
    log_negativity,
    output_covariance,
    resolve,
    scattering,
    stability,
    sweep,
    symplectic_eigenvalue_min,
)

from conftest import (
    kappa_a,
    kappa_c,
    mean_dynamics_decay_oracle,
    quadrature_scattering,
    random_tripartite,
    reference_point,
    traced_peak,
)

REFERENCE_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "tripartite_sec63.json"

# 4x4 symplectic form for two modes in (X1, Y1, X2, Y2) ordering
OMEGA_SYMPLECTIC = np.kron(np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]))

# Output covariance at w = 0 for the entangling working point (vacuum
# inputs), frozen after cross-validation of the Hermitian and literal
# transpose evaluations (agreement at machine precision).
GOLDEN_V = np.array(
    [
        [1764.6269984084524, 1042.5513220416672, 3063.350082340784, 910.0637295967842],
        [1042.5513220416672, 616.5016906069852, 1810.3124043243881, 537.6446165696317],
        [3063.350082340784, 1810.3124043243881, 5319.892522212399, 1580.2290593983546],
        [910.0637295967842, 537.6446165696317, 1580.2290593983546, 469.7064562860945],
    ]
)
GOLDEN_ZETA = 0.3341755382405177


def drift(p: TripartiteParams, **grid) -> np.ndarray:
    """The drift stack of `p` with `grid`'s columns in place of their fields."""
    return drift_matrices(resolve(p, grid))


def covariance(omega: float, p: TripartiteParams, **grid):
    """`output_covariance` at the points of `p` and `grid`."""
    x = resolve(p, {"omega": omega, **grid})
    return output_covariance(drift_matrices(x), x)


def port_matrices(p: TripartiteParams):
    """The input-output relations a_out = sqrt(kappa_a_ex) a - a_ex, c_out =
    sqrt(kappa_c_ex) c - c_ex as dense matrices: C (4x6) reads the ports off
    (a, a+, b, b+, c, c+), D (4x10) picks the drives out of the inputs."""
    C = np.kron([[np.sqrt(p.kappa_a_ex), 0.0, 0.0], [0.0, 0.0, np.sqrt(p.kappa_c_ex)]], np.eye(2))
    D = np.kron([[0.0, 1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0, 1.0]], np.eye(2))
    return C, D


def noise_diagonal(p: TripartiteParams) -> np.ndarray:
    """10x10 input noise matrix: n + 1/2 per bath, per quadrature."""
    occ = [p.occupations.n_a_in, p.occupations.n_a_ex, p.occupations.n_b_in,
           p.occupations.n_c_in, p.occupations.n_c_ex]
    return np.kron(np.diag(np.array(occ) + 0.5), np.eye(2))


def oracle_zeta(V: np.ndarray) -> float:
    """Partial-transpose eigenvalue oracle for the smallest symplectic
    eigenvalue: flip the second mode's momentum, then take the smallest
    |eigenvalue| of i Omega V_pt."""
    lam = np.diag([1.0, 1.0, 1.0, -1.0])
    vpt = lam @ V @ lam
    ev = np.linalg.eigvals(1j * OMEGA_SYMPLECTIC @ vpt)
    return float(np.min(np.abs(ev)))


def tmsv_covariance(r: float) -> np.ndarray:
    """Two-mode squeezed vacuum, vacuum variance 1/2 convention."""
    c, s = np.cosh(2.0 * r), np.sinh(2.0 * r)
    z = np.diag([1.0, -1.0])
    top = np.hstack([c * np.eye(2), s * z])
    bot = np.hstack([s * z, c * np.eye(2)])
    return 0.5 * np.vstack([top, bot])


class TestDriftMatrix:
    def test_conjugation_pair_symmetry(self, reference_tripartite):
        A = _ladder(drift(reference_tripartite))[0]
        for i in range(3):
            for j in range(3):
                blk = A[2 * i : 2 * i + 2, 2 * j : 2 * j + 2]
                assert blk[1, 1] == np.conj(blk[0, 0])
                assert blk[1, 0] == np.conj(blk[0, 1])

    def test_trace_is_total_dissipation(self, reference_tripartite):
        p = reference_tripartite
        A = _ladder(drift(p))[0]
        assert np.trace(A) == pytest.approx(-(kappa_a(p) + kappa_c(p) + p.gamma), rel=1e-12)

    def test_magnon_coupling_is_beam_splitter(self, reference_tripartite):
        # a <-> c exchange: both off-diagonal entries -i g_c, and no
        # cross-conjugate (two-mode-squeezing) entries between a and c
        A = _ladder(drift(reference_tripartite))[0]
        gc = reference_tripartite.g_c
        assert A[0, 4] == pytest.approx(-1j * gc)
        assert A[4, 0] == pytest.approx(-1j * gc)
        assert A[0, 5] == 0 and A[4, 1] == 0

    def test_mechanical_coupling_has_both_terms(self, reference_tripartite):
        # b couples to a + a^+ (position coupling): squeezing terms present
        A = _ladder(drift(reference_tripartite))[0]
        gb = reference_tripartite.g_b
        assert A[0, 2] == pytest.approx(-1j * gb)
        assert A[0, 3] == pytest.approx(-1j * gb)
        assert A[2, 0] == pytest.approx(-1j * gb)
        assert A[2, 1] == pytest.approx(-1j * gb)


class TestStability:
    def test_reference_point_is_stable(self, reference_tripartite):
        (ok,), (max_re,) = stability(drift(reference_tripartite))
        assert ok and max_re < 0

    def test_strong_coupling_unstable(self, reference_tripartite):
        p = replace(reference_tripartite, g_b=TWO_PI * 3.6e6)
        (ok,), (max_re,) = stability(drift(p))
        assert not ok and max_re > 0

    def test_decoupled_is_stable(self, reference_tripartite):
        p = replace(reference_tripartite, g_b=0.0, g_c=0.0)
        assert stability(drift(p))[0][0]

    def test_decay_oracle_agreement_sample(self):
        rng = np.random.default_rng(11)
        verdicts = set()
        for _ in range(10):
            p = random_tripartite(rng)
            (ok,), (max_re,) = stability(drift(p))
            if abs(max_re) < 1e-12 * kappa_a(p):
                continue
            horizon = 10.0 / abs(max_re)
            y0 = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            assert mean_dynamics_decay_oracle(drift(p)[0], y0, horizon) == ok
            verdicts.add(ok)
        assert len(verdicts) == 2

    def test_margin_unit_is_kappa_a(self, reference_tripartite):
        # uncoupled mechanics decaying at gamma/2 = 0.5e-12 kappa_a lies in
        # the marginal band, in `stability` and in `sweep` alike
        p = replace(reference_tripartite, g_b=0.0, gamma=1e-12 * kappa_a(reference_tripartite))
        (ok,), (max_re,) = stability(drift(p))
        assert not ok and max_re == pytest.approx(-0.5e-12 * kappa_a(p), rel=1e-2)
        assert not sweep(p, {"g_b": np.array([0.0])})["stable"][0]

    def test_marginal_counts_as_unstable(self, reference_tripartite):
        # undamped, uncoupled mechanics oscillates forever
        p = replace(reference_tripartite, g_b=0.0, gamma=0.0)
        (ok,), _ = stability(drift(p))
        assert not ok


class TestScattering:
    def test_decoupled_port_matches_bare_reflection(self, reference_tripartite):
        # with g_b = g_c = 0 the microwave port is a bare one-sided cavity
        # centered at its detuning
        p = replace(reference_tripartite, g_b=0.0, g_c=0.0)
        # shift into the lab frame so the cavity center is positive
        shift = TWO_PI * 1e9 - p.delta_a
        for w in [0.0, TWO_PI * 1e6, -TWO_PI * 2.5e6]:
            (s,), poles = scattering(drift(p), resolve(p, {"omega": w}))
            assert not poles
            bare = reflection(w + shift, TWO_PI * 1e9, p.kappa_a_in, p.kappa_a_ex)
            assert s[0, 2] == pytest.approx(bare, rel=1e-12)
            # no cross-port leakage
            assert abs(s[0, 8]) < 1e-15

    def test_electromechanical_port_matches_omit_kernel(self):
        # with the magnon decoupled, a weak g_b and the cavity at +Omega in
        # the pump frame, S(a_out <- a_ex) near Omega is the OMIT kernel:
        # the reflection with the mechanical self-energy.  What is left is
        # the counter-rotating term the kernel drops, of order g^2/(2 Omega
        # gamma), well below 1 % of the OMIT feature
        p = replace(load_config(REFERENCE_CONFIG)[0].tripartite, g_c=0.0,
                    delta_a=TWO_PI * 4e6, g_b=TWO_PI * 1e3)
        w = p.omega_m + np.linspace(-5.0, 5.0, 41) * p.gamma
        s = np.array([scattering(drift(p), resolve(p, {"omega": x}))[0][0, 0, 2] for x in w])
        sigma = mechanical_self_energy(w, p.g_b, p.gamma, p.omega_m)
        r = reflection(w, p.delta_a, p.kappa_a_in, p.kappa_a_ex, self_energy=sigma)
        feature = np.max(np.abs(r - reflection(w, p.delta_a, p.kappa_a_in, p.kappa_a_ex)))
        assert feature > 1e-2
        assert np.max(np.abs(s - r)) < 1e-2 * feature

    def test_near_pole_raises(self):
        # undamped, uncoupled mechanical mode: exact pole at w = -Omega
        p = TripartiteParams(
            delta_a=0.0,
            delta_c=0.0,
            omega_m=TWO_PI * 4e6,
            g_b=0.0,
            g_c=0.0,
            kappa_a_in=TWO_PI * 1e6,
            kappa_a_ex=TWO_PI * 1e6,
            kappa_c_in=TWO_PI * 1e6,
            kappa_c_ex=TWO_PI * 1e6,
            gamma=0.0,
            occupations=Occupations(),
        )
        reason = scattering(drift(p), resolve(p, {"omega": -p.omega_m}))[1][0]
        assert reason.startswith(f"resolvent nearly singular at omega={-p.omega_m:.6e} rad/s (condition ")

    def test_quadrature_map_is_real_for_vacuum_covariance(self, reference_tripartite):
        p = reference_tripartite
        sq = quadrature_scattering(scattering(drift(p), resolve(p, {}))[0][0])
        V = sq @ noise_diagonal(p) @ sq.conj().T
        assert np.max(np.abs(V.imag)) < 1e-10 * np.max(np.abs(V.real))

    def test_exact_pole_fails_only_its_row(self, reference_tripartite):
        # undamped, uncoupled mechanics: at w = -Omega the g_b = 0 resolvent
        # is exactly singular, and must not fail the rest of the stack
        p = replace(reference_tripartite, gamma=0.0)
        g_b = TWO_PI * np.array([0.0, 1e6, 2e6])
        w = -p.omega_m
        V, poles = covariance(w, p, g_b=g_b)
        assert list(poles) == [0] and poles[0].startswith("resolvent nearly singular at omega=")
        for i in (1, 2):
            q = replace(p, g_b=float(g_b[i]))
            (single,), single_poles = covariance(w, q)
            assert not single_poles
            assert np.allclose(V[i], single, rtol=1e-12, atol=0.0)

    def test_near_pole_point_fails_alone_in_sweep(self, reference_tripartite):
        # a barely damped, uncoupled mechanical mode is stable but probed at
        # its pole; the coupled points around it are ordinary
        p = replace(reference_tripartite, gamma=TWO_PI * 1e-5)
        w = -p.omega_m
        res = sweep(p, {"omega": w, "g_b": TWO_PI * np.array([0.0, 0.5e6, 1e6, 2e6])})
        assert res["stable"].all()
        assert res["error"][0].startswith("resolvent nearly singular")
        assert np.isnan(res["zeta_minus"][0]) and np.isnan(res["log_negativity"][0])
        assert all(e is None for e in res["error"][1:])
        assert np.isfinite(res["zeta_minus"][1:]).all()

    def test_an_omega_column_equals_scalar_omega_sweeps(self, reference_tripartite):
        # w is one more column of the point: a mesh of K values of it by the
        # g_b column above, the near pole w = -Omega_m among them, equals K
        # sweeps of that g_b column each at one w, bit for bit, `error`
        # texts included; thermal baths put every weight in play
        p = replace(reference_tripartite, gamma=TWO_PI * 1e-5, occupations=Occupations(0.2, 0.1, 80.0, 0.3, 0.05))
        g_b = TWO_PI * np.array([0.0, 0.5e6, 1e6, 2e6, 3.6e6])
        omegas = [-p.omega_m, 0.0, TWO_PI * 0.3e6, -TWO_PI * 2.5e6]
        res = sweep(p, {"omega": np.repeat(omegas, len(g_b)), "g_b": np.tile(g_b, len(omegas))})
        for k, w in enumerate(omegas):
            rows = slice(k * len(g_b), (k + 1) * len(g_b))
            one = sweep(p, {"omega": w, "g_b": g_b})
            for name, column in res.items():
                assert np.array_equal(column[rows], one[name], equal_nan=name != "error"), (name, w)
        assert res["error"][0].startswith("resolvent nearly singular at omega=-2.513274e+07 rad/s")
        assert sum(e is not None for e in res["error"]) == 1
        assert not res["stable"].all() and res["stable"].any()

    def test_pole_conditions(self, reference_tripartite):
        # the screen's 1-norm condition: inf at the exact pole, finite but
        # above 1e12 at the near pole of the two tests above
        p = replace(reference_tripartite, gamma=0.0)
        _, poles = covariance(-p.omega_m, p, g_b=np.array([0.0]))
        assert poles[0].endswith("(condition estimate inf)")
        p = replace(reference_tripartite, gamma=TWO_PI * 1e-5)
        _, poles = covariance(-p.omega_m, p, g_b=np.array([0.0]))
        condition = float(re.fullmatch(r".*\(condition estimate (\S+)\)", poles[0])[1])
        assert np.isfinite(condition) and condition > 1e12

    def test_screen_keeps_two_norm_verdicts_off_the_threshold(self, reference_tripartite):
        # cond_1 / cond_2 lies within [1/6, 6] for 6x6 matrices, so a row
        # well below the threshold under the 2-norm stays unflagged, and
        # one well above stays flagged
        p = replace(reference_tripartite, g_b=0.0)
        w = -p.omega_m
        x = resolve(p, {"omega": w, "gamma": TWO_PI * np.logspace(-8, 0, 33)})
        Aq = drift_matrices(x)
        cond2 = np.linalg.cond(-1j * w * np.eye(6) - _ladder(Aq))
        flagged = np.isin(np.arange(len(Aq)), list(scattering(Aq, x)[1]))
        assert (cond2 < 1e11).sum() > 5 and (cond2 > 1e13).sum() > 5
        assert not flagged[cond2 < 1e11].any()
        assert flagged[cond2 > 1e13].all()

    @pytest.mark.parametrize("w_hz", [0.0, 3e5, -2.5e6])
    def test_scattering_is_solved_not_inverted(self, w_hz):
        # S must come from the same `solve` bit for bit: zeta- magnifies the
        # last-bit noise of inv(M) @ B up to 1e8-fold
        rng = np.random.default_rng(17)
        w, checked = TWO_PI * w_hz, 0
        while checked < 10:
            p = random_tripartite(rng)
            Aq = drift(p)
            if not stability(Aq)[0][0]:
                continue
            M = -1j * w * np.eye(6) - _ladder(Aq)[0]
            C, D = port_matrices(p)
            x = resolve(p, {"omega": w})
            s = C @ np.linalg.solve(M, input_matrix(x)[0]) - D
            assert np.array_equal(scattering(Aq, x)[0][0], s)
            checked += 1

    def test_matrix_shapes(self, reference_tripartite):
        # every number of a point, w included, is an (N,) column, so every
        # stage is a stack of N rows, also where no rate is a column
        p = reference_tripartite
        x = resolve(p, {})
        assert list(x) == list(tripartite.SWEEP_AXES) and "omega" in x
        assert all(v.shape == (1,) for v in x.values()) and x["omega"][0] == 0.0
        B = input_matrix(x)
        assert B.shape == (1, 6, 10)
        assert scattering(drift(p), x)[0].shape == (1, 4, 10)
        same = input_matrix(resolve(p, {"g_b": np.zeros(3), "n_b_in": np.ones(3)}))
        assert same.shape == (3, 6, 10) and (same == B).all()
        stacked = input_matrix(resolve(p, {"gamma": np.array([0.0, p.gamma, 4.0 * p.gamma])}))
        assert stacked.shape == (3, 6, 10) and np.array_equal(stacked[1], B[0])


class TestCovariance:
    @pytest.mark.parametrize("w_hz", [0.0, 1.3e6])
    def test_covariance_weights_each_bath(self, w_hz):
        # V from the n + 1/2 column weights must be Re[S_q N S_q^dagger],
        # symmetrized, bit for bit, on thermal points
        rng = np.random.default_rng(23)
        w, checked = TWO_PI * w_hz, 0
        while checked < 10:
            p = random_tripartite(rng)
            Aq = drift(p)
            if not stability(Aq)[0][0]:
                continue
            x = resolve(p, {"omega": w})
            sq = quadrature_scattering(scattering(Aq, x)[0])
            V = np.real(sq @ noise_diagonal(p) @ sq.conj().transpose(0, 2, 1))
            (got,), poles = output_covariance(Aq, x)
            assert not poles
            assert np.array_equal(got, (0.5 * (V + V.transpose(0, 2, 1)))[0])
            checked += 1

    def test_golden_covariance(self, reference_tripartite):
        (V,), poles = covariance(0.0, reference_tripartite)
        assert not poles
        assert np.allclose(V, GOLDEN_V, rtol=1e-10)

    def test_decoupled_ports_give_vacuum(self, reference_tripartite):
        p = replace(reference_tripartite, g_b=0.0, g_c=0.0)
        (V,), poles = covariance(0.0, p)
        assert not poles
        assert np.allclose(V, 0.5 * np.eye(4), atol=1e-12)

    def test_asymmetric_matrix_rejected(self):
        bad = np.eye(4)
        bad[0, 1] = 1.0
        assert symplectic_eigenvalue_min(bad[None])[1][0] == "covariance not symmetric"

    def test_non_finite_matrix_rejected(self):
        # NaN passes the symmetry test, and the closed form names the row
        # without a warning from `det`
        for value in (np.nan, np.inf):
            bad = 0.5 * np.eye(4)
            bad[1, 1] = value
            assert symplectic_eigenvalue_min(bad[None])[1][0] == "covariance has non-finite entries"

    @given(seed=st.integers(0, 2**32 - 1), w_hz=st.floats(-5e6, 5e6))
    @settings(max_examples=50, deadline=None)
    def test_uncertainty_relation(self, seed, w_hz):
        # V + i Omega / 2 >= 0 at every stable point and probe frequency.
        # The seed's generator draws until its point is stable (about a
        # third of draws are), so no example is filtered out
        rng = np.random.default_rng(seed)
        p = random_tripartite(rng)
        while not stability(drift(p))[0][0]:
            p = random_tripartite(rng)
        (V,), poles = covariance(TWO_PI * w_hz, p)
        assert not poles
        lowest = np.linalg.eigvalsh(V + 0.5j * OMEGA_SYMPLECTIC)[0]
        assert lowest >= -1e-10 * np.max(np.abs(V))


class TestSymplecticEigenvalue:
    def test_golden_zeta(self, reference_tripartite):
        V, poles = covariance(0.0, reference_tripartite)
        (zeta,), errors = symplectic_eigenvalue_min(V)
        assert not poles and not errors
        assert zeta == pytest.approx(GOLDEN_ZETA, rel=1e-10)

    def test_vacuum_is_half(self):
        v = 0.5 * np.eye(4)
        zeta, errors = symplectic_eigenvalue_min(v[None])
        assert not errors
        assert zeta[0] == pytest.approx(0.5, rel=1e-12)
        assert log_negativity(zeta)[0] == 0.0

    @pytest.mark.parametrize("r", [0.1, 0.5, 1.0, 2.0])
    def test_two_mode_squeezed_closed_form(self, r):
        v = tmsv_covariance(r)
        zeta, errors = symplectic_eigenvalue_min(v[None])
        assert not errors
        assert zeta[0] == pytest.approx(0.5 * np.exp(-2.0 * r), rel=1e-9)
        assert log_negativity(zeta)[0] == pytest.approx(2.0 * r, rel=1e-9)

    def test_unphysical_covariance_reasons(self):
        sigma2_below_4det = [
            [-1.0, 0.5, 0.0, 0.5],
            [0.5, 2.0, 1.5, 1.5],
            [0.0, 1.5, 2.0, 1.0],
            [0.5, 1.5, 1.0, -1.0],
        ]
        cases = [
            (sigma2_below_4det, r"Sigma\^2 - 4 det V = -5\.188e\+00 < 0"),
            (np.diag([1.0, 1.0, 1.0, -1.0]), "negative symplectic square"),
            (np.zeros((4, 4)), "degenerate covariance: zeta- = 0"),
        ]
        for V, reason in cases:
            assert re.search(reason, symplectic_eigenvalue_min(np.array(V)[None])[1][0])

    def test_closed_form_matches_eigenvalue_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            m = rng.standard_normal((4, 4))
            V = m @ m.T + 0.5 * np.eye(4)
            (zeta,), errors = symplectic_eigenvalue_min(V[None])
            assert not errors
            assert zeta == pytest.approx(oracle_zeta(V), rel=1e-9)

    @given(scale=st.floats(1e-3, 1e3))
    @settings(max_examples=50, deadline=None)
    def test_rate_rescaling_invariance(self, scale):
        # rescaling every rate and the probe frequency by a common factor
        # leaves the dimensionless outputs unchanged
        p = TripartiteParams(
            delta_a=-TWO_PI * 4e6,
            delta_c=-TWO_PI * 4e6,
            omega_m=TWO_PI * 4e6,
            g_b=TWO_PI * 2.5e6,
            g_c=TWO_PI * 6.43e6,
            kappa_a_in=TWO_PI * 0.8e6,
            kappa_a_ex=TWO_PI * 1.2e6,
            kappa_c_in=TWO_PI * 0.8e6,
            kappa_c_ex=TWO_PI * 1.2e6,
            gamma=TWO_PI * 100.0,
            occupations=Occupations(),
        )
        fields = (
            "delta_a", "delta_c", "omega_m", "g_b", "g_c",
            "kappa_a_in", "kappa_a_ex", "kappa_c_in", "kappa_c_ex", "gamma",
        )
        q = replace(p, **{f: scale * getattr(p, f) for f in fields})
        w = TWO_PI * 0.3e6
        (z1,), errors1 = symplectic_eigenvalue_min(covariance(w, p)[0])
        (z2,), errors2 = symplectic_eigenvalue_min(covariance(scale * w, q)[0])
        assert not errors1 and not errors2
        assert z2 == pytest.approx(z1, rel=1e-8)


class TestEntanglementWorkflow:
    def test_reference_point_is_entangled(self, reference_tripartite):
        res = evaluate_point(reference_tripartite)
        assert res["stable"]
        assert res["zeta_minus"] == pytest.approx(GOLDEN_ZETA, rel=1e-10)
        assert res["log_negativity"] == pytest.approx(-np.log(2.0 * GOLDEN_ZETA), rel=1e-10)

    def test_no_entanglement_without_mechanics(self, reference_tripartite):
        # beam-splitter coupling alone cannot entangle vacuum inputs
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = random_tripartite(rng, g_b_max_hz=0.0)
            res = evaluate_point(p)
            assert res["stable"]
            assert res["zeta_minus"] >= 0.5 - 1e-9
            assert res["log_negativity"] <= 2e-9

    def test_unstable_point_reports_none(self, reference_tripartite):
        p = replace(reference_tripartite, g_b=TWO_PI * 3.6e6)
        res = evaluate_point(p)
        assert not res["stable"]
        assert np.isnan(res["zeta_minus"]) and np.isnan(res["log_negativity"])

    def test_sweep_evaluates_the_given_columns_in_order(self, reference_tripartite):
        # `sweep` meshes nothing: row i is the point (g_b[i], g_c), unsorted
        # and repeated points included, and the length-1 g_c column
        # broadcasts; each row is `evaluate_point`'s at its point
        gb = TWO_PI * np.array([2e6, 0.0, 3.6e6, 1e6, 0.0])
        gc = TWO_PI * np.array([6.43e6])
        res = sweep(reference_tripartite, {"g_b": gb, "g_c": gc, "omega": 0.0})
        assert set(res) == {"stable", "max_re", "zeta_minus", "log_negativity", "error"}
        assert [len(v) for v in res.values()] == [5] * 5
        for i, b in enumerate(gb.tolist()):
            row = evaluate_point(replace(reference_tripartite, g_b=b, g_c=float(gc[0])))
            for k in ("stable", "max_re", "error"):
                assert res[k][i] == row[k]
            for k in ("zeta_minus", "log_negativity"):
                assert np.array_equal(res[k][i], row[k], equal_nan=True)
        assert res["stable"].tolist() == [True, True, False, True, True]

    @pytest.mark.parametrize("omega", [0.0, TWO_PI * 0.3e6])
    @pytest.mark.parametrize("thermal", [False, True])
    @pytest.mark.parametrize("axes", [("g_b", "g_c"), ("delta_a", "delta_c")])
    def test_sweep_matches_ladder_reference(self, reference_tripartite, axes, thermal, omega):
        p = reference_tripartite
        if thermal:
            p = replace(p, occupations=Occupations(0.2, 0.1, 80.0, 0.3, 0.05))
        grids = {
            "g_b": TWO_PI * np.linspace(0.0, 6e6, 13),
            "g_c": TWO_PI * np.linspace(0.0, 10e6, 14),
            "delta_a": TWO_PI * np.linspace(-12e6, 4e6, 13),
            "delta_c": TWO_PI * np.linspace(-12e6, 4e6, 14),
        }
        points = dict(zip(axes, (g.ravel() for g in np.meshgrid(*(grids[a] for a in axes), indexing="ij"))))
        res = sweep(p, {**points, "omega": omega})
        assert len(res["stable"]) == 13 * 14
        verdicts = set()
        for i in range(13 * 14):
            point = replace(p, **{a: float(points[a][i]) for a in axes})
            stable, max_re, zeta, en, error = reference_point(omega, point)
            verdicts.add(stable)
            assert res["stable"][i] == stable
            assert abs(res["max_re"][i] - max_re) <= 1e-12 * kappa_a(p)
            assert res["error"][i] == error
            if zeta is None:
                assert np.isnan(res["zeta_minus"][i]) and np.isnan(res["log_negativity"][i])
            else:
                assert res["zeta_minus"][i] == pytest.approx(zeta, rel=1e-12, abs=0.0)
                assert res["log_negativity"][i] == pytest.approx(en, rel=1e-12, abs=0.0)
        assert verdicts == {True, False}

    def test_hot_occupations_fail_by_row_without_warnings(self, reference_tripartite):
        # occupations of 1e100, the largest the magnitude rule lets in,
        # overflow det V: every stable row fails with its reason, and numpy
        # warns nothing
        p = replace(reference_tripartite, occupations=Occupations(n_a_in=1e100, n_c_in=1e100))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = sweep(p, {"g_b": TWO_PI * np.linspace(0.0, 3e6, 4)})
            row = evaluate_point(p)
        assert res["stable"].sum() == 3
        assert all(e == "covariance determinants outside the float range: zeta- = nan"
                   for e in res["error"][res["stable"]])
        assert np.isnan(res["zeta_minus"]).all() and np.isnan(res["log_negativity"]).all()
        assert row["stable"] and row["error"] is not None and np.isnan(row["zeta_minus"])

    def test_sweep_error_texts(self, reference_tripartite, monkeypatch):
        # the `error` text of each kind of failed row, word for word: a near
        # pole, a covariance that overflows (occupations past the magnitude
        # rule, which a direct call takes), one whose determinants overflow
        # and (V faked) an unphysical one; numpy warns nothing
        g_b = {"g_b": TWO_PI * np.array([2e6])}
        p = replace(reference_tripartite, gamma=TWO_PI * 1e-5)
        hot, warm = (replace(reference_tripartite, occupations=Occupations(n, 0.0, n, n, 0.0))
                     for n in (1.7e308, 1e100))
        V = np.array([[-1.0, 0.5, 0.0, 0.5], [0.5, 2.0, 1.5, 1.5], [0.0, 1.5, 2.0, 1.0], [0.5, 1.5, 1.0, -1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            errors = [sweep(p, {"g_b": np.array([0.0]), "omega": -p.omega_m})["error"][0],
                      sweep(hot, g_b)["error"][0], sweep(warm, g_b)["error"][0]]
            monkeypatch.setattr(tripartite, "output_covariance", lambda Aq, x: (V[None], {}))
            errors.append(sweep(reference_tripartite, g_b)["error"][0])
        assert errors == [
            "resolvent nearly singular at omega=-2.513274e+07 rad/s (condition estimate 2.898e+12)",
            "covariance has non-finite entries",
            "covariance determinants outside the float range: zeta- = nan",
            "covariance not physical: Sigma^2 - 4 det V = -5.188e+00 < 0",
        ]

    def test_stages_are_called_through_module_globals(self, reference_tripartite, monkeypatch):
        # perfbench's tracer replaces the module attributes, so it sees a
        # stage only if `sweep` and `critical_coupling` look it up there
        stages = ("stability", "scattering", "output_covariance", "symplectic_eigenvalue_min", "log_negativity")
        calls = dict.fromkeys(stages, 0)

        def counted(name, fn):
            def stage(*args):
                calls[name] += 1
                return fn(*args)
            return stage

        for name in stages:
            monkeypatch.setattr(tripartite, name, counted(name, getattr(tripartite, name)))
        sweep(reference_tripartite, {"g_b": TWO_PI * np.linspace(0.0, 3e6, 4)})
        assert calls == dict.fromkeys(stages, 1)
        # past one output block of stable rows, the output stages run once a
        # block, and the whole-grid stages still once
        calls.update(dict.fromkeys(stages, 0))
        stable = sweep(reference_tripartite, {"g_b": TWO_PI * np.linspace(0.0, 3e6, 768)})["stable"]
        blocks = -(-int(stable.sum()) // tripartite._OUTPUT_BLOCK)
        assert blocks > 2
        assert calls == {"stability": 1, "scattering": blocks, "output_covariance": blocks,
                         "symplectic_eigenvalue_min": blocks, "log_negativity": 1}
        # the bisection asks `stability` alone, once for both ends and once per step
        calls.update(dict.fromkeys(stages, 0))
        critical_coupling(reference_tripartite, "g_b", (0.0, TWO_PI * 5e6))
        assert calls == {**dict.fromkeys(stages, 0), "stability": calls["stability"]}
        assert calls["stability"] > 2

    @pytest.mark.parametrize("field", ["delta_a", "g_c", "g_b", "delta_c"])
    def test_sweep_refuses_the_largest_values_beside_losses(self, reference_tripartite, field):
        # 2 pi 1e100 rad/s, the largest value the magnitude rule lets in (in
        # Hz), swamps the reference point's losses: one DomainError naming
        # the field, and numpy warns nothing
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reason = f"^{field} must keep every drift entry within 2\\*\\*52 times"
            with pytest.raises(DomainError, match=reason):
                sweep(reference_tripartite, {field: TWO_PI * np.array([0.0, -1e100])})

    def test_largest_drift_values_pass(self, reference_tripartite):
        # without losses, which no entry can swamp, the largest values the
        # magnitude rule lets in give a finite drift stack, in both bases,
        # and a sweep that warns nothing
        lossless = replace(reference_tripartite, kappa_a_in=0.0, kappa_a_ex=0.0, kappa_c_in=0.0,
                           kappa_c_ex=0.0, gamma=0.0, occupations=Occupations(*[1e100] * 5))
        top = TWO_PI * 1e100
        axes = {"delta_a": np.array([-top, top]), "g_c": np.array([top]), "g_b": np.array([-top])}
        A = drift(lossless, **axes)
        assert np.isfinite(A).all() and np.isfinite(_ladder(A)).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert len(sweep(lossless, {**axes, "omega": top})["stable"]) == 2

    @pytest.mark.parametrize("field, entry, edit", [
        ("delta_c", 1.0, {}),
        ("g_b", 2.0, {}),  # a coupling enters the drift as 2 g_b
        ("delta_a", 1.0, {"gamma": 0.0}),  # a lossless mode leaves kappa / 2 the smallest
    ])
    def test_drift_entries_stay_above_the_loss_round_off(self, reference_tripartite, field, entry, edit):
        # eigvals resolves a loss rate only above ~2**-52 of the largest
        # entry: up to 2**52 times the smallest nonzero half loss rate an
        # entry passes, one ulp more is a DomainError naming the field, and
        # numpy warns nothing
        p = replace(reference_tripartite, **edit)
        half = min(rate / 2.0 for rate in (kappa_a(p), p.gamma, kappa_c(p)) if rate)
        limit = half * 2.0**52 / entry
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            drift(p, **{field: np.array([0.0, -limit])})
            reason = (f"^{field} must keep every drift entry within "
                      f"2\\*\\*52 times the smallest nonzero half loss rate$")
            with pytest.raises(DomainError, match=reason):
                sweep(p, {field: np.array([0.0, np.nextafter(limit, np.inf)])})

    def test_sweep_rejects_unknown_axis(self, reference_tripartite):
        # kappa_a is a sum of two fields, not a field
        with pytest.raises(ValueError, match="^cannot sweep parameter 'kappa_a'$"):
            sweep(reference_tripartite, {"kappa_a": np.array([1.0, 2.0])})

    @pytest.mark.parametrize("field, column, message", [
        ("g_b", [0.0, np.nan], "g_b must be finite, got nan"),
        ("delta_c", [np.inf], "delta_c must be finite, got inf"),
        ("gamma", [1.0, -1.0], "gamma must be finite and >= 0, got -1.0"),
        ("omega_m", [1.0, 0.0], "omega_m must be finite and > 0, got 0.0"),
        ("n_b_in", [-0.5], "n_b_in must be finite and >= 0, got -0.5"),
    ])
    def test_a_column_meets_its_fields_bound(self, reference_tripartite, field, column, message):
        # a coordinate that no record could hold is malformed input, refused
        # for the whole grid with the message `Checked` gives
        record = reference_tripartite if hasattr(reference_tripartite, field) else reference_tripartite.occupations
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            sweep(reference_tripartite, {field: np.array(column)})
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            replace(record, **{field: column[-1]})

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_omega_is_refused(self, reference_tripartite, value):
        # w is a record field whose only bound is finiteness, as it is signed
        # in the frame of the pumps: `resolve` refuses it for the whole grid,
        # and the record refuses it on construction
        message = f"^omega must be finite, got {value}$"
        with pytest.raises(DomainError, match=message):
            resolve(reference_tripartite, {"g_b": np.zeros(2), "omega": np.array([0.0, value])})
        with pytest.raises(DomainError, match=message):
            replace(reference_tripartite, omega=value)
        assert evaluate_point(replace(reference_tripartite, omega=-TWO_PI * 4e6))["stable"]

    @pytest.mark.parametrize("field", tripartite.SWEEP_AXES)
    def test_a_column_equals_the_replaced_field(self, reference_tripartite, field):
        # every number of a point can be a column: 16 seeded rows of it, with
        # g_b alongside, equal `sweep` of the point built with
        # dataclasses.replace, bit for bit and failures included
        rng = np.random.default_rng(36)
        p = replace(reference_tripartite, omega=TWO_PI * 0.2e6, occupations=Occupations(0.2, 0.1, 80.0, 0.3, 0.05))
        record = p if hasattr(p, field) else p.occupations
        value = getattr(record, field)
        column = value * rng.uniform(0.5, 1.5, 16)
        if tripartite._BOUNDS[field] == ">=":
            column[0] = 0.0
        grid = {"g_b": TWO_PI * rng.uniform(0.0, 3.6e6, 16), field: column}
        res = sweep(p, grid)
        for i in range(16):
            edit = {k: float(v[i]) for k, v in grid.items()}
            if record is not p:
                edit = {"g_b": edit["g_b"], "occupations": replace(p.occupations, **{field: edit[field]})}
            row = sweep(replace(p, **edit), {})
            for k, v in res.items():
                assert np.array_equal(v[i : i + 1], row[k], equal_nan=k != "error"), (k, i)
        assert res["stable"].any()

    @pytest.mark.parametrize("field", [f.name for f in fields(Occupations)])
    def test_a_hotter_bath_never_adds_entanglement(self, reference_tripartite, field):
        # more noise adds a positive semidefinite term to V, and so to its
        # partial transpose: zeta- cannot fall (Bhatia & Jain, JMP 56,
        # 112201 (2015)), and E_N cannot rise
        res = sweep(reference_tripartite, {field: np.linspace(0.0, 200.0, 21)})
        assert len(res["stable"]) == 21
        assert res["stable"].all() and all(e is None for e in res["error"])
        assert (np.diff(res["zeta_minus"]) >= 0.0).all()
        assert (np.diff(res["log_negativity"]) <= 0.0).all()

    def test_critical_coupling_straddles_the_boundary(self, reference_tripartite):
        lo, hi = TWO_PI * 2.0e6, TWO_PI * 5.0e6
        g_star = critical_coupling(reference_tripartite, "g_b", (lo, hi))
        assert lo < g_star < hi
        eps = 1e-5 * g_star
        stable, _ = stability(drift(reference_tripartite, g_b=g_star + np.array([-eps, eps])))
        assert stable[0] and not stable[1]

    @pytest.mark.parametrize("bracket", [(0.0, TWO_PI * 1e6), (TWO_PI * 1e6, 0.0)])
    def test_critical_coupling_bad_bracket(self, reference_tripartite, bracket):
        with pytest.raises(DomainError, match="^stability verdict identical"):
            critical_coupling(reference_tripartite, "g_b", bracket)

    def test_critical_coupling_matches_brentq(self, reference_tripartite, monkeypatch):
        # 50 seeded working points like the benchmark's stability_boundary:
        # g_c 1-8 MHz, delta_a -6 to -2 MHz, g_b bracket 0-10 MHz
        calls = []
        monkeypatch.setattr(tripartite, "stability", lambda Aq: calls.append(Aq) or stability(Aq))
        rng = np.random.default_rng(11)
        bracket = (0.0, TWO_PI * 10e6)
        ours = []
        while len(ours) < 50:
            p = replace(reference_tripartite, g_c=TWO_PI * rng.uniform(1e6, 8e6),
                        delta_a=TWO_PI * rng.uniform(-6e6, -2e6))
            ends, _ = stability(drift(p, g_b=np.array(bracket)))
            if not ends[0] or ends[1]:
                continue
            calls.clear()
            g_star = critical_coupling(p, "g_b", bracket)
            ours.append(len(calls))
            calls.clear()

            def margin(g):
                q = replace(p, g_b=g)
                return tripartite.stability(drift(q))[1][0] + 1e-12 * kappa_a(p)

            assert g_star == pytest.approx(brentq(margin, *bracket, rtol=1e-6), rel=1e-6)
            stable, _ = stability(drift(p, g_b=g_star * np.array([1 - 1e-5, 1 + 1e-5])))
            assert stable[0] and not stable[1]
            # two ends, then one call per halving down to the width rtol g*
            # (brentq needs a median of 20; this, 30.5)
            assert ours[-1] <= 3 + np.log2(1.001 * bracket[1] / (1e-6 * g_star))

    def test_critical_coupling_matches_replace_reference(self, reference_tripartite, monkeypatch):
        # each margin enters as a grid column through `resolve`; a reference that builds
        # a new TripartiteParams per trial with dataclasses.replace gives the
        # same root bit for bit, or the same DomainError, on 200 random
        # working points: g_c 0-6 MHz, delta_a -6 to -1 MHz, bracket 0-10 MHz
        rng = np.random.default_rng(26)
        points = [replace(reference_tripartite, g_c=TWO_PI * rng.uniform(0.0, 6e6),
                          delta_a=TWO_PI * rng.uniform(-6e6, -1e6)) for _ in range(200)]

        def search(p):
            try:
                return critical_coupling(p, "g_b", (0.0, TWO_PI * 10e6)).hex()
            except DomainError as exc:
                return str(exc)

        ours = [search(p) for p in points]

        def by_replace(p, grid):
            # each point of the stack (both bracket ends, or one midpoint) by
            # replace, the rows stacked
            ((axis, column),) = grid.items()
            rows = [resolve(replace(p, **{axis: float(g)}), {}) for g in column]
            return {k: np.concatenate([np.atleast_1d(r[k]) for r in rows]) for k in rows[0]}

        monkeypatch.setattr(tripartite, "resolve", by_replace)
        assert ours == [search(p) for p in points]
        assert sum(not r.startswith("stability") for r in ours) >= 100

    def test_critical_coupling_judges_both_ends_in_one_call(self, reference_tripartite, monkeypatch):
        # one `stability` call on the stack (lo, hi), then one per bisection
        # step on its midpoint: replaying the verdicts gives the root, and
        # the search ends at the first width within brentq's rule
        calls = []

        def counted(Aq):
            stable, max_re = stability(Aq)
            calls.append((-Aq[:, 1, 2] / 2.0, stable))  # the entry -2 g_b gives g_b exactly
            return stable, max_re

        monkeypatch.setattr(tripartite, "stability", counted)
        lo, hi = TWO_PI * 2.0e6, TWO_PI * 5.0e6
        g_star = critical_coupling(reference_tripartite, "g_b", (hi, lo))
        (ends, (stable_lo, stable_hi)), *steps = calls
        assert ends.tolist() == [lo, hi] and stable_lo != stable_hi
        for g, stable in steps:
            assert hi - lo > 2e-12 + 1e-6 * abs(g_star)
            assert g.tolist() == [lo / 2.0 + hi / 2.0]
            lo, hi = (g[0], hi) if stable[0] == stable_lo else (lo, g[0])
        assert g_star == lo / 2.0 + hi / 2.0 and hi - lo <= 2e-12 + 1e-6 * abs(g_star)
        assert len(steps) > 10

    def test_critical_coupling_refuses_a_detuning_axis(self, reference_tripartite):
        with pytest.raises(ValueError, match="^axis must be g_b or g_c, got 'delta_a'$"):
            critical_coupling(reference_tripartite, "delta_a", (0.0, TWO_PI * 5e6))

    def test_eigen_solver_failure_is_a_numerical_error(self, reference_tripartite):
        # no resolved point holds a NaN, but a stack handed to `stability`
        # may, and LAPACK refuses it
        A = drift(reference_tripartite, g_b=np.array([0.0, 1.0]))
        A[1, 1, 2] = np.nan
        with pytest.raises(NumericalError, match="^eigen-solver failed: Array must not contain infs or NaNs$"):
            stability(A)

    def test_critical_coupling_reversed_bracket(self, reference_tripartite):
        lo, hi = TWO_PI * 2.0e6, TWO_PI * 9.0e6
        g_star = critical_coupling(reference_tripartite, "g_c", (lo, hi))
        assert critical_coupling(reference_tripartite, "g_c", (hi, lo)) == g_star
        assert lo < g_star < hi

    @pytest.mark.parametrize("shape", [lambda g: g, lambda g: g + g**3 / 1e12, np.sinh, np.cbrt])
    def test_critical_coupling_ends_on_a_root_at_zero(self, reference_tripartite, monkeypatch, shape):
        # a width test relative to |g| alone would never end here: the
        # verdict turns at g_b = 0, where the fake largest real part
        # `shape` crosses zero
        def verdict(Aq):
            max_re = shape(-Aq[:, 1, 2] / 2 / 1e6)
            return max_re < 0, max_re

        monkeypatch.setattr(tripartite, "stability", verdict)
        assert abs(critical_coupling(reference_tripartite, "g_b", (-1e6, 3e6))) <= 2e-12

    def test_critical_coupling_lossless_verdict_keeps_the_stability_rule(self, reference_tripartite, monkeypatch):
        # a lossless cavity's stability unit is its largest ladder |diagonal|,
        # |-loss/2 + i detuning|: a largest real part of -0.5e-12 of it is
        # unstable by `stability`'s rule, so a bracket from there to a
        # positive one straddles no verdict change
        p = replace(reference_tripartite, kappa_a_in=0.0, kappa_a_ex=0.0)
        unit = max(abs(p.delta_a), np.hypot(p.gamma / 2, p.omega_m), np.hypot(kappa_c(p) / 2, p.delta_c))
        max_re = {0.0: -0.5e-12 * unit, 1e6: 1.0}
        monkeypatch.setattr(np.linalg, "eigvals", lambda Aq: np.array([np.full(6, max_re[-a[1, 2] / 2]) for a in Aq]))
        with pytest.raises(DomainError, match="stability verdict identical"):
            critical_coupling(p, "g_b", (0.0, 1e6))

    def test_non_finite_params_rejected(self, reference_tripartite):
        with pytest.raises(DomainError, match="g_b"):
            replace(reference_tripartite, g_b=float("nan"))
        with pytest.raises(DomainError, match="kappa_a_in"):
            replace(reference_tripartite, kappa_a_in=float("inf"))
        with pytest.raises(DomainError, match="n_b_in"):
            Occupations(n_b_in=float("nan"))


def assert_rows_equal(whole: dict, parts: list[dict]):
    """`sweep`'s `whole` result is its `parts` concatenated, bit for bit."""
    for k, v in whole.items():
        joined = np.concatenate([part[k] for part in parts])
        assert joined.dtype == v.dtype, k
        assert joined.tolist() == v.tolist() if k == "error" else joined.tobytes() == v.tobytes(), k


class TestPointsAreIndependent:
    """The 2**52 drift rule, like every stage, judges each point alone: a
    point's row does not depend on the rest of its grid."""

    def test_output_blocks_equal_one_chain_over_every_stable_row(self):
        # stable rows over three output blocks, unstable rows among them, and
        # a near pole (barely damped mechanics at g_b = 0, probed at w =
        # -Omega_m) in the second block and in the last: the sweep's zeta-,
        # E_N and `error` equal the stage chain run on all stable rows at
        # once, bit for bit, each reason at its row
        p = replace(load_config(REFERENCE_CONFIG)[0].tripartite, gamma=TWO_PI * 1e-5)
        g_b = TWO_PI * np.random.default_rng(3).permutation(np.linspace(0.0, 4e6, 1024))
        omega = np.full(len(g_b), TWO_PI * 0.3e6)
        x = resolve(p, {"g_b": g_b, "omega": omega})
        idx = np.flatnonzero(stability(drift_matrices(x))[0])
        poles = idx[[tripartite._OUTPUT_BLOCK + 5, -1]]
        g_b[poles], omega[poles] = 0.0, -p.omega_m

        x = resolve(p, {"g_b": g_b, "omega": omega})
        A = drift_matrices(x)
        stable = stability(A)[0]
        assert np.array_equal(np.flatnonzero(stable), idx) and not stable.all()
        assert len(idx) > 2 * tripartite._OUTPUT_BLOCK
        V, pole_reasons = output_covariance(A[idx], {k: v[idx] for k, v in x.items()})
        zeta, errors = symplectic_eigenvalue_min(V)
        errors.update(pole_reasons)
        zeta[list(errors)] = np.nan

        res = sweep(p, {"g_b": g_b, "omega": omega})
        assert res["zeta_minus"][idx].tobytes() == zeta.tobytes()
        assert res["log_negativity"][idx].tobytes() == log_negativity(zeta).tobytes()
        assert np.isnan(res["zeta_minus"][~stable]).all() and np.isnan(res["log_negativity"][~stable]).all()
        assert {int(i): e for i, e in enumerate(res["error"]) if e is not None} == {
            int(idx[i]): e for i, e in errors.items()}
        assert sorted(errors) == [tripartite._OUTPUT_BLOCK + 5, len(idx) - 1]
        assert all(e.startswith("resolvent nearly singular at omega=-2.513274e+07 rad/s") for e in errors.values())

    def test_sweep_memory_stops_growing_with_the_grid(self):
        # only the whole-grid stages (the columns, the drift stack and its
        # eigenvalues) grow with a 100x101 (g_b, delta_a) map, 0.56 KB a
        # point; the output stage on every stable row at once would hold 3.9 KB
        p = load_config(REFERENCE_CONFIG)[0].tripartite
        g_b, delta_a = np.meshgrid(TWO_PI * np.linspace(0.0, 3e6, 100), TWO_PI * np.linspace(-6e6, -2e6, 101),
                                   indexing="ij")
        points = {"g_b": g_b.ravel(), "delta_a": delta_a.ravel()}
        assert traced_peak(lambda: sweep(p, points)) / g_b.size < 800.0

    def test_a_grid_passes_where_each_point_does(self):
        # a loss of 1e-8 Hz beside a detuning of 1e18 Hz breaks the rule
        # against one grid-wide loss scale, yet each point keeps its own
        # losses above the round-off of its own entries
        p = load_config(REFERENCE_CONFIG)[0].tripartite
        grid = {"gamma": TWO_PI * np.array([1e-8, 1e6]), "delta_a": TWO_PI * np.array([-4e6, 1e18])}
        res = sweep(p, grid)
        assert res["stable"].all()
        rows = [sweep(replace(p, gamma=float(gamma), delta_a=float(delta_a)), {})
                for gamma, delta_a in zip(grid["gamma"], grid["delta_a"])]
        assert_rows_equal(res, rows)

    @given(data=st.data(), n=st.integers(1, 40), base=st.sampled_from(["lossy", "kappa_a_ex", "lossless"]))
    @settings(max_examples=150, deadline=None)
    def test_a_split_grid_sweeps_as_the_whole(self, data, n, base):
        # random grids over two rates, a detuning and an occupation, zero
        # rates and rates over 20 decades included, cut at random: the
        # whole is refused iff a part is, with the first refused part's
        # message, and otherwise its rows are the parts' rows
        p = load_config(REFERENCE_CONFIG)[0].tripartite
        if base != "lossy":
            p = replace(p, kappa_a_ex=0.0)
        if base == "lossless":
            p = replace(p, kappa_c_in=0.0, kappa_c_ex=0.0)
        decades = st.floats(-6.0, 14.0).map(lambda e: TWO_PI * 10.0**e)
        rate = st.one_of(st.just(0.0), decades)

        def column(cells):
            return np.array(data.draw(st.lists(cells, min_size=n, max_size=n)))

        grid = {"gamma": column(rate), "kappa_a_in": column(rate),
                "delta_a": column(st.one_of(decades, decades.map(lambda v: -v))),
                "n_b_in": column(st.floats(0.0, 1e3))}
        cuts = sorted(data.draw(st.sets(st.integers(1, n - 1), max_size=n - 1)) if n > 1 else [])
        bounds = list(zip([0, *cuts], [*cuts, n]))

        def outcome(points):
            try:
                return sweep(p, points)
            except DomainError as exc:
                return str(exc)

        whole = outcome(grid)
        parts = [outcome({k: v[a:b] for k, v in grid.items()}) for a, b in bounds]
        refused = [part for part in parts if isinstance(part, str)]
        if refused:
            assert whole == refused[0]
        else:
            assert not isinstance(whole, str), whole
            assert_rows_equal(whole, parts)
