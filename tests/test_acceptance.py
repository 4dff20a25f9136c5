"""Top-level acceptance checks.

Each test covers one release criterion and prints a single PASS/FAIL line
(with its runtime) to the real stdout so the verdicts stay visible under
pytest capture.  Budgets are wall-clock seconds.
"""

import sys
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from emcavity.config import load_config
from emcavity.constants import TWO_PI
from emcavity.core import thermal_occupation, zero_point_fluctuation
from emcavity.device import (
    capacitance_from_energy,
    effective_mass,
    fractional_capacitance_derivative,
    participation_ratio,
)
from emcavity.fitting import (
    ReflectionModelParams,
    fit_reflection,
    reflection_model,
    synthesize_trace,
)
from emcavity.linear_response import mechanical_self_energy, optomechanical_damping, reflection
from emcavity.params import CavityParams, MechParams
from emcavity.tripartite import (
    drift_matrices,
    evaluate_point,
    resolve,
    stability,
    symplectic_eigenvalue_min,
    sweep,
)

from conftest import kappa_a, mean_dynamics_decay_oracle, random_tripartite
from test_device import parallel_plate, rigid_block, sine_string
from test_fitting import DEVICE, PARAM_NAMES, device_trace, rel_err
from test_tripartite import oracle_zeta, tmsv_covariance

REFERENCE_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "tripartite_sec63.json"


@contextmanager
def criterion(label: str, budget_s: float):
    start = time.perf_counter()
    status = "FAIL"
    try:
        yield
        status = "PASS"
    finally:
        elapsed = time.perf_counter() - start
        print(f"[acceptance] {label}: {status} ({elapsed:.2f}s)", file=sys.__stdout__)
        if status == "PASS":
            assert elapsed < budget_s, f"{label}: runtime {elapsed:.2f}s over {budget_s}s budget"


def test_criterion_01_thermal_occupation_table():
    with criterion("01 thermal-occupation-table", 1.0):
        table = [
            (300e3, 7e-3, 4.9e2),
            (4e6, 7e-3, 3.6e1),
            (10e9, 4.0, 7.9),
            (10e9, 300.0, 6.3e2),
        ]
        for f_hz, t_k, expected in table:
            n = thermal_occupation(TWO_PI * f_hz, t_k)
            assert rel_err(n, expected) < 0.03, (f_hz, t_k)
        assert thermal_occupation(TWO_PI * 10e9, 7e-3) < 1e-20


def test_criterion_02_design_table_cross_checks():
    with criterion("02 design-table-cross-checks", 1.0):
        assert rel_err(zero_point_fluctuation(2.06e-15, TWO_PI * 3.85e6), 32.49e-15) < 0.005
        assert rel_err(zero_point_fluctuation(2.64e-15, TWO_PI * 8.28e6), 19.58e-15) < 0.005
        assert rel_err(participation_ratio(1.78e-15, 10.97e-15), 0.140) < 0.005
        assert rel_err(participation_ratio(1.51e-15, 10.97e-15), 0.121) < 0.005


def test_criterion_03_fit_round_trip():
    with criterion("03 fit-round-trip", 10.0):
        clean = fit_reflection(device_trace())
        assert clean.converged
        for name in PARAM_NAMES:
            assert rel_err(getattr(clean.params, name), getattr(DEVICE, name)) < 1e-6, name
        errs = {"omega_c": [], "kappa_in": [], "kappa_ex": []}
        for seed in range(50):
            res = fit_reflection(device_trace(snr_db=40.0, seed=seed))
            assert res.converged, seed
            for name in errs:
                errs[name].append(rel_err(getattr(res.params, name), getattr(DEVICE, name)))
        assert np.median(errs["omega_c"]) < 1e-6
        assert np.median(errs["kappa_in"]) < 0.02
        assert np.median(errs["kappa_ex"]) < 0.02


def test_criterion_04_omit_evolution():
    with criterion("04 omit-evolution", 5.0):
        cavity = CavityParams(
            omega_c=TWO_PI * 10e9, kappa_in=TWO_PI * 0.4e6, kappa_ex=TWO_PI * 1.6e6
        )
        mech = MechParams(omega_m=TWO_PI * 4e6, gamma=TWO_PI * 100.0, m_eff=2e-15)
        g0 = TWO_PI * 100.0

        def magnitude(w, g):
            # pump on the red sideband: the cavity sits at the detuning Omega
            sigma = mechanical_self_energy(w, g, mech.gamma, mech.omega_m)
            r = reflection(w, mech.omega_m, cavity.kappa_in, cavity.kappa_ex, self_energy=sigma)
            return np.abs(r)

        # photon-number sweep covering 4 decades, starting at the matched
        # point where the induced loss equals kappa_ex - kappa_in
        n_min = (cavity.kappa_ex - cavity.kappa_in) * mech.gamma / (4.0 * g0 * g0)
        rng = np.random.default_rng(0)
        for _ in range(20):
            decades = rng.uniform(4.0, 6.0)
            n_bar = n_min * np.logspace(0.0, decades, 25)
            g = g0 * np.sqrt(n_bar)
            center = magnitude(mech.omega_m, g)
            side = magnitude(mech.omega_m + 5.0 * mech.gamma, g)
            assert np.all(np.diff(center) >= -1e-12)
            contrast = center - side
            assert contrast[0] < 0 < contrast[-1]


def test_criterion_05_entanglement_null():
    with criterion("05 entanglement-null", 10.0):
        rng = np.random.default_rng(42)
        for _ in range(100):
            p = random_tripartite(rng, g_b_max_hz=0.0)
            res = evaluate_point(0.0, p)
            assert res["stable"]
            assert res["zeta_minus"] >= 0.5 - 1e-9
            assert res["log_negativity"] <= 1e-8


def test_criterion_06_symplectic_oracle():
    with criterion("06 symplectic-oracle", 10.0):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            m = rng.standard_normal((4, 4))
            V = m @ m.T + 0.5 * np.eye(4)
            (zeta,), errors = symplectic_eigenvalue_min(V[None])
            assert not errors
            assert rel_err(zeta, oracle_zeta(V)) < 1e-9
        for r in np.linspace(0.05, 1.5, 100):
            V = tmsv_covariance(r)
            (zeta,), errors = symplectic_eigenvalue_min(V[None])
            assert not errors
            assert rel_err(zeta, 0.5 * np.exp(-2.0 * r)) < 1e-9
            assert rel_err(zeta, oracle_zeta(V)) < 1e-9


def test_criterion_07_stability_dual_check():
    with criterion("07 stability-dual-check", 30.0):
        rng = np.random.default_rng(7)
        verdicts = set()
        for _ in range(100):
            p = random_tripartite(rng)
            (ok,), (max_re,) = stability(drift_matrices(resolve(p, {})))
            if abs(max_re) < 1e-12 * kappa_a(p):
                continue  # marginal: the decay verdict is ill-posed here
            horizon = 10.0 / abs(max_re)
            y0 = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            assert mean_dynamics_decay_oracle(drift_matrices(resolve(p, {}))[0], y0, horizon) == ok
            verdicts.add(ok)
        assert verdicts == {True, False}


def test_criterion_08_qualitative_reproduction():
    with criterion("08 qualitative-reproduction", 30.0):
        p = load_config(REFERENCE_CONFIG)[0].tripartite
        assert p.delta_a == pytest.approx(-p.omega_m)
        assert p.delta_c == pytest.approx(-p.omega_m)
        assert p.g_c == pytest.approx(TWO_PI * 6.43e6)
        g_grid = TWO_PI * np.linspace(0.0, 5e6, 51)
        res = sweep(p, {"g_b": g_grid}, omega=0.0)
        en = np.where(res["stable"], res["log_negativity"], np.nan)
        assert en[0] <= 1e-8  # no entanglement without the mechanical link
        assert np.nanmax(en) > 0.1  # entangled window at intermediate g_b
        assert np.isnan(en[-1])  # strong coupling drives instability
        first_unstable = int(np.argmax(np.isnan(en)))
        assert np.all(np.isnan(en[first_unstable:]))  # single unstable region


def test_criterion_09_device_integral_oracles():
    with criterion("09 device-integral-oracles", 5.0):
        rigid = rigid_block()
        total = float(np.sum(rigid.weight * rigid.rho))
        assert rel_err(effective_mass(rigid), total) < 1e-12
        string = sine_string(n=10**4)
        total = float(np.sum(string.weight * string.rho))
        assert rel_err(effective_mass(string), total / 2.0) < 1e-6
        from emcavity.constants import EPSILON_0

        gap, area = 100e-9, 1e-8
        vol, surf = parallel_plate(gap=gap, area=area)
        assert rel_err(capacitance_from_energy(vol), EPSILON_0 * area / gap) < 1e-12
        frac = fractional_capacitance_derivative([surf], vol)
        h = 1e-4 * gap
        vol2, _ = parallel_plate(gap=gap - h)
        fd = (capacitance_from_energy(vol2) - capacitance_from_energy(vol)) / (
            h * capacitance_from_energy(vol)
        )
        assert rel_err(frac, fd) < 0.01


def test_criterion_10_damping_identities():
    with criterion("10 damping-identities", 1.0):
        om = TWO_PI * 4e6
        kappa = 4.0 * om / 40.0
        g = TWO_PI * 1e4
        d = np.linspace(0.1 * om, 2.0 * om, 100)
        lhs = optomechanical_damping(d, g, kappa, om)
        rhs = -optomechanical_damping(-d, g, kappa, om)
        assert np.max(np.abs(lhs - rhs) / np.abs(rhs)) < 1e-12
        peak = optomechanical_damping(om, g, kappa, om)
        assert rel_err(peak, 4.0 * g * g / kappa) < 2.0 * (kappa / (4.0 * om)) ** 2
