"""Complex S11 fitting: model, Jacobian, initial guess, LM round trips."""

import functools
import urllib.request
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from emcavity import fitting
from emcavity.constants import TWO_PI
from emcavity.errors import DataError, GuessError, NumericalError
from emcavity.linear_response import mechanical_self_energy, reflection_terms
from emcavity.params import RULE
from emcavity.fitting import (
    ComplexTrace,
    OmitModelParams,
    ReflectionModelParams,
    _fit,
    _levenberg_marquardt,
    fit_omit,
    fit_reflection,
    initial_guess,
    load_trace,
    omit_model,
    reflection_model,
    save_trace,
    synthesize_trace,
)

from conftest import reference_table, traced_peak

# reference device working point used throughout
DEVICE = ReflectionModelParams(
    amplitude=0.168,
    tau=63.51e-9,
    phi=1.20,
    omega_c=TWO_PI * 10.29184e9,
    kappa_in=TWO_PI * 0.41e6,
    kappa_ex=TWO_PI * 1.45e6,
    delta=-TWO_PI * 20.36e-3,
)

PARAM_NAMES = ("amplitude", "tau", "phi", "omega_c", "kappa_in", "kappa_ex", "delta")


def device_grid(n=2001, halfwidth=10.0):
    kappa = DEVICE.kappa_in + DEVICE.kappa_ex
    w = DEVICE.omega_c + np.linspace(-halfwidth, halfwidth, n) * kappa
    return w / TWO_PI


def device_trace(snr_db=None, seed=None, n=2001):
    return synthesize_trace(
        lambda w: reflection_model(w, DEVICE), device_grid(n), snr_db=snr_db, seed=seed
    )


def reflection_jacobian(omega, p):
    """The Jacobian columns of reflection_model at p, stacked on the last axis."""
    return np.stack(list(reflection_model(omega, p, jacobian=True)[1]()), axis=-1)


def omit_jacobian(omega, cavity, p):
    """The Jacobian columns of omit_model at p, stacked on the last axis."""
    return np.stack(list(omit_model(omega, cavity, p, jacobian=True)[1]()), axis=-1)


def rel_err(a, b):
    return abs(a - b) / abs(b)


def pulls(res, truth):
    """|fit - truth| / sigma per parameter, phi compared modulo 2 pi."""
    out = {}
    for name in PARAM_NAMES:
        diff = getattr(res.params, name) - getattr(truth, name)
        if name == "phi":
            diff = np.angle(np.exp(1j * diff))
        out[name] = abs(diff) / res.param_uncertainties[name]
    return out


def random_box_trace(draw, snr_db, seed, n=801):
    """(truth, trace): the benchmark's device box with any coupling ratio."""
    kappa_hz, ratio, f_c, amplitude, tau, phi, tilt = draw
    kappa = TWO_PI * kappa_hz
    truth = ReflectionModelParams(
        amplitude=amplitude, tau=tau, phi=phi, omega_c=TWO_PI * f_c,
        kappa_in=(1.0 - ratio) * kappa, kappa_ex=ratio * kappa, delta=TWO_PI * tilt * kappa_hz,
    )
    f = (truth.omega_c + np.linspace(-10.0, 10.0, n) * kappa) / TWO_PI
    return truth, synthesize_trace(lambda w: reflection_model(w, truth), f, snr_db, seed)


class TestModel:
    def test_reduces_to_bare_cavity(self):
        p = replace(DEVICE, amplitude=1.0, tau=0.0, phi=0.0, delta=0.0)
        r = reflection_model(p.omega_c, p)
        assert r == pytest.approx(-(p.kappa_in - p.kappa_ex) / (p.kappa_in + p.kappa_ex))

    def test_background_scales_and_rotates(self):
        w = DEVICE.omega_c + 3.0 * DEVICE.kappa_ex
        base = reflection_model(w, replace(DEVICE, amplitude=1.0, tau=0.0, phi=0.0))
        full = reflection_model(w, replace(DEVICE, amplitude=0.5, tau=0.0, phi=0.7))
        assert full == pytest.approx(0.5 * np.exp(-0.7j) * base, rel=1e-12)

    def test_jacobian_matches_finite_differences(self):
        w = device_grid(41) * TWO_PI
        J = reflection_jacobian(w, DEVICE)
        # FD in the same internal coordinates (log for A and the kappas)
        # phi/tau steps stay coarse: the accumulated phase w*tau ~ 4e3 rad
        # makes finer central differences roundoff-limited
        steps = {
            "amplitude": 1e-7,
            "tau": 1e-7 * DEVICE.tau,
            "phi": 1e-5,
            "omega_c": 1e3,  # must stay representable against omega_c ~ 6e10
            "kappa_in": 1e-7,
            "kappa_ex": 1e-7,
            "delta": 10.0,  # model is linear in delta; large step beats roundoff
        }
        logged = {"amplitude", "kappa_in", "kappa_ex"}
        # (name, analytic column, model, params, step)
        cases = [
            (name, J[:, k], lambda p: reflection_model(w, p), DEVICE, steps[name])
            for k, name in enumerate(PARAM_NAMES)
        ]
        # OMIT columns on the grid dense across the mechanical feature;
        # omega_m and detuning steps are in rad/s against values ~ 2.5e7
        w_omit = omit_grid() * TWO_PI
        J_omit = omit_jacobian(w_omit, OMIT_CAVITY, OMIT_TRUE)
        omit_steps = {
            "g": 1e-5 * OMIT_TRUE.g,
            "gamma": 1e-5 * OMIT_TRUE.gamma,
            "omega_m": 3e-2,
            "detuning": 1.0,
        }
        cases += [
            (name, J_omit[:, k], lambda p: omit_model(w_omit, OMIT_CAVITY, p), OMIT_TRUE, h)
            for k, (name, h) in enumerate(omit_steps.items())
        ]
        for name, column, model, p, h in cases:
            if name in logged:
                hi = replace(p, **{name: getattr(p, name) * np.exp(h)})
                lo = replace(p, **{name: getattr(p, name) * np.exp(-h)})
            else:
                hi = replace(p, **{name: getattr(p, name) + h})
                lo = replace(p, **{name: getattr(p, name) - h})
            fd = (model(hi) - model(lo)) / (2.0 * h)
            scale = np.max(np.abs(fd)) or 1.0
            assert np.max(np.abs(column - fd)) < 1e-6 * scale, name

    @pytest.mark.parametrize("n", [201, 20001])
    def test_products_keep_their_operand_order(self, n):
        # above 256 KiB numpy computes pre * (a temporary) in the
        # temporary's buffer, as temporary * pre, and complex products are
        # not bitwise commutative: each kernel column is pre * d, bit for
        # bit, times its chain-rule factor, at 20001 points as at 201
        w = TWO_PI * np.linspace(10.27e9, 10.31e9, n)
        pre = fitting._background(w, DEVICE)
        r0, den = reflection_terms(w, DEVICE.omega_c, DEVICE.kappa_in, DEVICE.kappa_ex, DEVICE.delta)
        a = (1.0 + r0) / den
        want = [np.multiply(pre, -1j * a), np.multiply(pre, -0.5 * a) * DEVICE.kappa_in,
                np.multiply(pre, (1.0 - r0) / (2.0 * den)) * DEVICE.kappa_ex, np.multiply(pre, -1j / den)]
        got = list(reflection_model(w, DEVICE, jacobian=True)[1]())[3:]
        p = OMIT_TRUE
        w = TWO_PI * (4e6 + np.linspace(-4.0, 4.0, n) * 2e6)
        pre = fitting._background(w, OMIT_CAVITY)
        chi = mechanical_self_energy(w, 1.0, p.gamma, p.omega_m)
        r0, den = reflection_terms(w, p.detuning, OMIT_CAVITY.kappa_in, OMIT_CAVITY.kappa_ex,
                                   OMIT_CAVITY.delta, p.g * p.g * chi)
        a = (1.0 + r0) / den
        d_sigma, g2chi2 = np.multiply(pre, -a), p.g * p.g * chi * chi
        want += [d_sigma * (2.0 * p.g * chi), d_sigma * (-0.5 * g2chi2), d_sigma * (-1j * g2chi2),
                 np.multiply(pre, -1j * a)]
        got += list(omit_model(w, OMIT_CAVITY, p, jacobian=True)[1]())
        assert len(got) == len(want) == 8
        for k, (col, d) in enumerate(zip(got, want)):
            assert col.tobytes() == d.tobytes(), k


class TestInitialGuess:
    def test_close_to_truth_on_clean_trace(self):
        g = initial_guess(device_trace())
        assert rel_err(g.omega_c, DEVICE.omega_c) < 1e-7
        assert rel_err(g.kappa_in + g.kappa_ex, DEVICE.kappa_in + DEVICE.kappa_ex) < 0.5
        assert rel_err(g.tau, DEVICE.tau) < 0.2
        assert rel_err(g.amplitude, DEVICE.amplitude) < 0.5

    def test_coupling_branch_overcoupled(self):
        g = initial_guess(device_trace())
        assert g.kappa_ex > g.kappa_in

    def test_coupling_branch_undercoupled(self):
        under = replace(DEVICE, kappa_in=DEVICE.kappa_ex, kappa_ex=DEVICE.kappa_in)
        trace = synthesize_trace(lambda w: reflection_model(w, under), device_grid())
        g = initial_guess(trace)
        assert g.kappa_in > g.kappa_ex

    def test_flat_trace_raises(self):
        f = device_grid(101)
        flat = ComplexTrace(f_hz=f, re=np.full(len(f), 0.3), im=np.zeros(len(f)))
        with pytest.raises(GuessError):
            initial_guess(flat)

    @pytest.mark.parametrize("scale", [1e-200, 1e160], ids=["underflow", "overflow"])
    def test_circle_past_the_float_range_raises(self, scale):
        # a finite trace whose squares x^2 + y^2 underflow to 0 or overflow:
        # the circle fit's squared radius is 0 or NaN, and no circle is found
        trace = device_trace(n=201)
        scaled = ComplexTrace(f_hz=trace.f_hz, re=scale * trace.re, im=scale * trace.im)
        with pytest.raises(GuessError, match="^no resonance circle found in trace$"):
            initial_guess(scaled)

    @pytest.mark.parametrize("snr_db", [None, 40.0])
    @pytest.mark.parametrize("points", [101, 201, 399, 501])
    def test_dip_on_edge_raises(self, points, snr_db):
        # with the resonance on the first sample, the delay's own start
        # explains less of the trace than zero does; at 101-399 points it
        # was once taken anyway, and the fit ran to converged: false with
        # kappa about 4 times the truth
        kappa = DEVICE.kappa_in + DEVICE.kappa_ex
        f = (DEVICE.omega_c + np.linspace(0.0, 20.0, points) * kappa) / TWO_PI
        trace = synthesize_trace(lambda w: reflection_model(w, DEVICE), f, snr_db, seed=1)
        with pytest.raises(GuessError):
            initial_guess(trace)


class TestReflectionFit:
    def test_noiseless_round_trip(self):
        res = fit_reflection(device_trace())
        assert res.converged
        for name in PARAM_NAMES:
            assert rel_err(getattr(res.params, name), getattr(DEVICE, name)) < 1e-6, name

    def test_noisy_round_trip_statistics(self):
        errs = {"omega_c": [], "kappa_in": [], "kappa_ex": []}
        for seed in range(10):
            res = fit_reflection(device_trace(snr_db=40.0, seed=seed))
            assert res.converged
            for name in errs:
                errs[name].append(rel_err(getattr(res.params, name), getattr(DEVICE, name)))
        assert np.median(errs["omega_c"]) < 1e-6
        assert np.median(errs["kappa_in"]) < 0.02
        assert np.median(errs["kappa_ex"]) < 0.02

    def test_uncertainties_cover_truth(self):
        res = fit_reflection(device_trace(snr_db=40.0, seed=123))
        sig = res.param_uncertainties
        for name in ("omega_c", "kappa_in", "kappa_ex", "tau", "amplitude"):
            pull = abs(getattr(res.params, name) - getattr(DEVICE, name)) / sig[name]
            assert pull < 5.0, name

    @given(
        kappa_hz=st.floats(0.5e6, 3e6), ratio=st.floats(0.15, 0.85), f_c=st.floats(4e9, 8e9),
        amplitude=st.floats(0.1, 1.0), tau=st.floats(20e-9, 80e-9), phi=st.floats(-3.0, 3.0),
        tilt=st.floats(-0.05, 0.05), snr_db=st.floats(20.0, 60.0), seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_round_trip_over_coupling_box(
        self, kappa_hz, ratio, f_c, amplitude, tau, phi, tilt, snr_db, seed
    ):
        # over- (ratio > 1/2) and under-coupled cavities alike
        draw = (kappa_hz, ratio, f_c, amplitude, tau, phi, tilt)
        truth, trace = random_box_trace(draw, snr_db, seed)
        res = fit_reflection(trace)
        assert res.converged
        assert max(pulls(res, truth).values()) < 5.0

    def test_frequency_shift_equivariance(self):
        # translating the grid and the resonance together shifts omega_c only
        shift_hz = 2.0e9
        shifted = replace(DEVICE, omega_c=DEVICE.omega_c + TWO_PI * shift_hz)
        trace = synthesize_trace(
            lambda w: reflection_model(w, shifted), device_grid() + shift_hz
        )
        res = fit_reflection(trace)
        assert rel_err(res.params.omega_c, shifted.omega_c) < 1e-9
        assert rel_err(res.params.kappa_ex, DEVICE.kappa_ex) < 1e-6

    def test_no_acceptable_step(self):
        # the residual is finite at the start only and inf at every trial
        # point, even one that rounds back to the start: every step is
        # rejected, and the driver stops without claiming convergence
        calls = []

        def evaluate(theta):
            calls.append(theta)
            r = np.array([1.0, 2.0]) if len(calls) == 1 else np.full(2, np.inf)
            return r, lambda: np.ones((2, 1))

        theta, r, _, _, converged, _, message = _levenberg_marquardt(evaluate, [0.5])
        assert not converged
        assert message == "no acceptable step found"
        assert theta.tolist() == [0.5] and r.tolist() == [1.0, 2.0]

    @pytest.mark.parametrize("rise, trials, converged, message", [
        (1e-13, 1, True, "cost rise at round-off"),
        (1e-6, 60, False, "no acceptable step found"),
    ])
    def test_cost_rise_at_round_off_stops(self, rise, trials, converged, message):
        # every trial raises the cost by `rise` relative: a rise within
        # _FTOL is round-off, so the first trial ends the fit at the start
        # point, converged; a larger one is rejected with more damping until
        # the driver gives up
        calls = []

        def evaluate(theta):
            calls.append(theta)
            r = np.array([1.0, 2.0]) * (1.0 if len(calls) == 1 else np.sqrt(1.0 + rise))
            return r, lambda: np.ones((2, 1))

        theta, r, _, iterations, ok, _, why = _levenberg_marquardt(evaluate, [0.5])
        assert (len(calls) - 1, iterations, ok, why) == (trials, 1, converged, message)
        assert theta.tolist() == [0.5] and r.tolist() == [1.0, 2.0]

    def test_singular_step_falls_back_to_lstsq(self, monkeypatch):
        # where `solve` refuses the damped normal equations, the step comes
        # from lstsq, the fit is flagged rank deficient, and it converges
        solve, refused = np.linalg.solve, []

        def solve_once(*args):
            if not refused:
                refused.append(True)
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(*args)

        monkeypatch.setattr(np.linalg, "solve", solve_once)
        res = fit_reflection(device_trace(n=201))
        assert refused and res.rank_deficient and res.converged
        for name in PARAM_NAMES:
            assert rel_err(getattr(res.params, name), getattr(DEVICE, name)) < 1e-6, name

    def test_start_not_finite_stops_at_once(self):
        # a start whose cost is not finite is returned after 0 iterations,
        # and no Jacobian is built
        def evaluate(theta):
            return np.array([1.0, np.inf]), None

        theta, r, jacobian, iterations, converged, _, _ = _levenberg_marquardt(evaluate, [0.5])
        assert theta.tolist() == [0.5] and iterations == 0 and not converged
        assert r.tolist() == [1.0, np.inf] and jacobian is None

    def test_amplitude_at_floor_gives_no_sigma(self):
        # a subnormal amplitude leaves every column of J below the float
        # range: the fit stops at once, and no sigma is finite
        model = functools.partial(reflection_model, jacobian=True)
        start = replace(DEVICE, amplitude=1e-317)
        res = _fit(device_trace(n=201), model, start, PARAM_NAMES)
        assert not res.converged
        assert "amplitude underflowed to 0" in res.message
        assert not any(np.isfinite(list(res.param_uncertainties.values())))


def low_snr_fits(snr_db):
    """(truth, fit) for 60 random devices at 801 points: per device kappa/2pi
    ~ U(0.5, 3) MHz, k_ex/k ~ U(0.15, 0.85), f_c ~ U(4, 8) GHz, A ~ U(0.1, 1),
    tau ~ U(20, 80) ns, phi ~ U(-3, 3), delta/kappa ~ U(-0.05, 0.05), then
    one noise seed for 10 dB and one for 15 dB."""
    rng = np.random.default_rng(12345)
    out = []
    for _ in range(60):
        draw = [rng.uniform(0.5e6, 3e6), rng.uniform(0.15, 0.85), rng.uniform(4e9, 8e9),
                rng.uniform(0.1, 1.0), rng.uniform(20e-9, 80e-9), rng.uniform(-3.0, 3.0),
                rng.uniform(-0.05, 0.05)]
        seeds = {10.0: int(rng.integers(2**31)), 15.0: int(rng.integers(2**31))}
        truth, trace = random_box_trace(draw, snr_db, seeds[snr_db])
        out.append((truth, fit_reflection(trace)))
    return out


class TestLowSnr:
    def test_10_db_never_converges_at_a_floor(self):
        # every start is found (no GuessError or DomainError); a magnitude-dip
        # start sent devices 10, 14, 45 and 51 to k_ex -> 0 with sigma 0 and
        # reported them converged
        for i, (truth, res) in enumerate(low_snr_fits(10.0)):
            sig = res.param_uncertainties
            if res.converged:
                assert all(0 < sig[n] < np.inf for n in PARAM_NAMES), i
                assert res.params.kappa_ex > 0 and res.params.kappa_in > 0, i

    def test_15_db_within_5_sigma(self):
        for i, (truth, res) in enumerate(low_snr_fits(15.0)):
            assert res.converged, i
            assert max(pulls(res, truth).values()) < 5.0, i

    @pytest.mark.parametrize("snr_db, points, seeds, max_refused", [
        (3.0, 201, 60, 7), (6.0, 201, 60, 0),
        (3.0, 2001, 60, 0), (6.0, 2001, 60, 0),
        (3.0, 20001, 30, 0), (6.0, 20001, 30, 0),
    ])
    def test_delay_alias_seeds(self, snr_db, points, seeds, max_refused):
        # the CLI test cavity on `synth`'s default grid: at 201 points, with
        # the delay taken at tau only, 19 of 60 seeds were refused at 3 dB
        # and 3 at 6 dB.  Where the delay came from each raw edge sample's
        # phase, 2001 and 20001 points gave more refusals than 201 (14 and
        # 21 of 30 at 3 dB) and, at 20001, converged fits with tau off by
        # hundreds of sigma.  No converged fit may put any parameter beyond
        # 5 sigma
        truth = ReflectionModelParams(amplitude=0.2, tau=6.0e-8, phi=0.8, omega_c=TWO_PI * 10.29184e9,
                                      kappa_in=TWO_PI * 0.41e6, kappa_ex=TWO_PI * 1.45e6, delta=0.0)
        f_c, span = truth.omega_c / TWO_PI, 10.0 * (truth.kappa_in + truth.kappa_ex) / TWO_PI
        grid = np.linspace(f_c - span, f_c + span, points)
        refused, wrong = [], []
        for seed in range(seeds):
            trace = synthesize_trace(lambda w: reflection_model(w, truth), grid, snr_db, seed)
            try:
                res = fit_reflection(trace)
            except (GuessError, NumericalError):
                refused.append(seed)
                continue
            if not res.converged:
                refused.append(seed)
            elif max(pulls(res, truth).values()) > 5.0:
                wrong.append(seed)
        assert len(refused) <= max_refused, refused
        assert wrong == []

    @pytest.mark.parametrize("points, snr_db", [(2001, 40.0), (20001, 20.0)])
    def test_long_delay_over_a_wide_span(self, points, snr_db):
        # an 80 ns cable over a 2.5 GHz span turns an edge's phase by 40 pi,
        # 2 pi a block of 20: those block means alias, and seeds 0-4 were
        # each refused, unconverged or off by more than 5 sigma.  The block
        # count follows the samples' own slope, and every fit converges to
        # the truth
        truth = ReflectionModelParams(amplitude=0.5, tau=80e-9, phi=0.3, omega_c=TWO_PI * 6e9,
                                      kappa_in=TWO_PI * 40e6, kappa_ex=TWO_PI * 85e6, delta=0.01)
        grid = np.linspace(4.75e9, 7.25e9, points)
        for seed in range(5):
            res = fit_reflection(synthesize_trace(lambda w: reflection_model(w, truth), grid, snr_db, seed))
            assert res.converged, seed
            assert max(pulls(res, truth).values()) < 5.0, seed


OMIT_CAVITY = ReflectionModelParams(
    amplitude=0.2,
    tau=60e-9,
    phi=0.8,
    omega_c=TWO_PI * 4.0e6,  # rotating frame: cavity sits at the detuning
    kappa_in=TWO_PI * 0.4e6,
    kappa_ex=TWO_PI * 1.6e6,
    delta=0.0,
)
OMIT_TRUE = OmitModelParams(
    g=TWO_PI * 2.0e3,
    gamma=TWO_PI * 100.0,
    omega_m=TWO_PI * 4.0e6,
    detuning=TWO_PI * 4.0e6,
)


def omit_grid():
    """Non-uniform grid: dense across the mechanical feature, sparse wings."""
    fine = OMIT_TRUE.omega_m / TWO_PI + np.linspace(-40.0, 40.0, 801) * (
        OMIT_TRUE.gamma / TWO_PI
    )
    coarse = OMIT_TRUE.detuning / TWO_PI + np.linspace(-4.0, 4.0, 401) * (
        (OMIT_CAVITY.kappa_in + OMIT_CAVITY.kappa_ex) / TWO_PI
    )
    return np.unique(np.concatenate([fine, coarse]))


def omit_trace(p=OMIT_TRUE, snr_db=None, seed=None):
    return synthesize_trace(
        lambda w: omit_model(w, OMIT_CAVITY, p), omit_grid(), snr_db=snr_db, seed=seed
    )


class TestOmitFit:
    def test_round_trip(self):
        guess = OmitModelParams(
            g=TWO_PI * 1.4e3,
            gamma=TWO_PI * 140.0,
            omega_m=TWO_PI * 4.00002e6,
            detuning=OMIT_TRUE.detuning,
        )
        res = fit_omit(omit_trace(snr_db=40.0, seed=2), OMIT_CAVITY, guess)
        assert res.converged
        assert rel_err(res.params.g, OMIT_TRUE.g) < 0.02
        assert rel_err(res.params.gamma, OMIT_TRUE.gamma) < 0.02
        assert rel_err(res.params.omega_m, OMIT_TRUE.omega_m) < 1e-6

    def test_zero_coupling_consistent_with_zero(self):
        # with no mechanical feature the identifiable quantity is g^2; the
        # fitted value must be statistically consistent with zero
        p0 = replace(OMIT_TRUE, g=0.0)
        guess = OmitModelParams(
            g=TWO_PI * 1.5e3,
            gamma=TWO_PI * 100.0,
            omega_m=OMIT_TRUE.omega_m,
            detuning=OMIT_TRUE.detuning,
        )
        res = fit_omit(omit_trace(p=p0, snr_db=40.0, seed=7), OMIT_CAVITY, guess)
        g2 = res.params.g ** 2
        assert g2 < 3.0 * res.param_uncertainties["g_squared"] + 1e-30

    def test_fit_detuning_flag(self):
        guess = OmitModelParams(
            g=TWO_PI * 1.5e3,
            gamma=TWO_PI * 120.0,
            omega_m=TWO_PI * 4.00001e6,
            detuning=TWO_PI * 3.98e6,
        )
        res = fit_omit(omit_trace(), OMIT_CAVITY, guess, fit_detuning=True)
        assert res.converged
        assert rel_err(res.params.detuning, OMIT_TRUE.detuning) < 1e-6
        assert rel_err(res.params.g, OMIT_TRUE.g) < 1e-4


def record_driver(monkeypatch):
    """Wrap the LM driver's evaluate: record the sum of squares of each
    residual it evaluates, in order, and (theta, J) at each Jacobian built,
    the sigmas' one included.  J is recorded as a copy, since the sigmas
    scale it in place."""
    jacobians, costs = [], []
    driver = fitting._levenberg_marquardt

    def recording(evaluate, theta0):
        def recorded(theta):
            r, jacobian = evaluate(theta)
            costs.append(fitting._sum_squares(r))

            def recorded_jacobian():
                J = jacobian()
                jacobians.append((theta.copy(), J.copy()))
                return J

            return r, recorded_jacobian

        return driver(recorded, theta0)

    monkeypatch.setattr(fitting, "_levenberg_marquardt", recording)
    return jacobians, costs


def at_theta(start, names, theta):
    """start with the fields `names` at the fit coordinates theta, as _fit
    builds them."""
    logged = {f.name for f in fields(start) if f.metadata.get("fit") == "log"}
    return replace(start, **{n: float(np.exp(t) if n in logged else t) for n, t in zip(names, theta)})


def rejected_trials(costs):
    """The driver's rejected trials, from the sums of squares it evaluated:
    a trial is accepted when finite and no larger than the current one."""
    current, rejected = costs[0], 0
    for cost in costs[1:]:
        if np.isfinite(cost) and cost <= current:
            current = cost
        else:
            rejected += 1
    return rejected


OMIT_GUESS = OmitModelParams(
    g=TWO_PI * 1.5e3, gamma=TWO_PI * 120.0, omega_m=TWO_PI * 4.00001e6, detuning=TWO_PI * 3.98e6
)


class TestSharedEvaluation:
    """Each Jacobian is built from the model evaluation of the accepted trial."""

    def test_columns_from_trial_terms_match_jacobians(self, monkeypatch):
        jacobians, _ = record_driver(monkeypatch)
        trace = device_trace(snr_db=40.0, seed=3, n=201)
        fit_reflection(trace)
        cases = [(trace, DEVICE, PARAM_NAMES, reflection_jacobian, list(jacobians))]
        omit = omit_trace(snr_db=40.0, seed=2)
        omit_stack = functools.partial(omit_jacobian, cavity=OMIT_CAVITY)
        for names in (("g", "gamma", "omega_m"), ("g", "gamma", "omega_m", "detuning")):
            jacobians.clear()
            fit_omit(omit, OMIT_CAVITY, OMIT_GUESS, fit_detuning=len(names) == 4)
            cases.append((omit, OMIT_GUESS, names, omit_stack, list(jacobians)))
        for trace, start, names, jacobian, seen in cases:
            assert len(seen) >= 4
            for theta, J in seen:
                Jc = jacobian(trace.omega, p=at_theta(start, names, theta))[:, : len(names)]
                assert np.array_equal(J, np.concatenate([Jc.real, Jc.imag]))

    @pytest.mark.parametrize("fit_detuning", [False, True])
    def test_unfitted_column_is_never_built(self, monkeypatch, fit_detuning):
        built = []
        model = fitting.omit_model

        def counting(*args, **kwargs):
            m, columns = model(*args, **kwargs)

            def counted():
                for column in columns():
                    built.append(column)
                    yield column
            return m, counted

        monkeypatch.setattr(fitting, "omit_model", counting)
        res = fit_omit(omit_trace(snr_db=40.0, seed=2), OMIT_CAVITY, OMIT_GUESS, fit_detuning)
        # one Jacobian at the start, one per accepted step, one for the sigmas
        assert len(built) == (3 + fit_detuning) * (res.iterations + 1)

    def test_fit_memory_per_point(self):
        # each Jacobian column is written into J as it is made, the last
        # iteration's J is released before the next is built, and the
        # sigmas scale J in place: 328 B per point measured, set by the
        # sigmas' QR copy of J; a start evaluation kept alive for the whole
        # fit takes it to 409 B, and a list of the columns, two live
        # Jacobians and a scaled copy to 512 B
        trace = device_trace(snr_db=40.0, seed=7, n=20001)
        assert traced_peak(lambda: fit_reflection(trace)) / 20001 < 380.0

    @pytest.mark.parametrize("case", ["40 dB", "3 dB", "omit", "omit detuning"])
    def test_one_model_evaluation_per_trial_point(self, monkeypatch, case):
        _, costs = record_driver(monkeypatch)
        calls = []

        def counting(model):
            def wrapper(*args, **kwargs):
                calls.append(kwargs.get("jacobian"))
                return model(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(fitting, "reflection_model", counting(fitting.reflection_model))
        monkeypatch.setattr(fitting, "omit_model", counting(fitting.omit_model))
        if case.startswith("omit"):
            res = fit_omit(omit_trace(snr_db=40.0, seed=2), OMIT_CAVITY, OMIT_GUESS, case != "omit")
        else:  # at 3 dB some trials are rejected
            snr_db, seed = (40.0, 3) if case == "40 dB" else (3.0, 4)
            res = fit_reflection(device_trace(snr_db=snr_db, seed=seed, n=201))
        fit_calls = calls.count(True)  # initial_guess ranks its starts without a Jacobian
        assert fit_calls <= res.iterations + rejected_trials(costs) + 1
        if case == "3 dB":
            assert rejected_trials(costs) > 0


class TestTraceIO:
    def test_validation(self):
        with pytest.raises(DataError):
            ComplexTrace(f_hz=np.arange(5.0), re=np.zeros(5), im=np.zeros(5))
        with pytest.raises(DataError):
            ComplexTrace(f_hz=np.zeros(9), re=np.zeros(9), im=np.zeros(9))

    def test_save_load_round_trip(self, tmp_path):
        trace = device_trace(snr_db=30.0, seed=5, n=51)
        path = tmp_path / "trace.csv"
        save_trace(trace, path)
        back = load_trace(path)
        assert np.array_equal(back.f_hz, trace.f_hz)
        assert np.array_equal(back.re, trace.re)
        assert np.array_equal(back.im, trace.im)

    def test_load_db_phase(self, tmp_path):
        path = tmp_path / "trace_db.csv"
        f = np.linspace(1e9, 2e9, 9)
        vals = 0.5 * np.exp(1j * np.linspace(-1, 1, 9))
        with open(path, "w") as fh:
            fh.write("f_hz,mag_db,phase_rad\n")
            for fi, v in zip(f, vals):
                fh.write(f"{float(fi)!r},{float(20*np.log10(abs(v)))!r},{float(np.angle(v))!r}\n")
        back = load_trace(path, fmt="db_phase")
        assert np.allclose(back.values, vals, rtol=1e-12)

    def test_load_unknown_format(self, tmp_path):
        with pytest.raises(ValueError, match="^unknown trace format: 'db'$"):
            load_trace(tmp_path / "trace.csv", fmt="db")

    def test_load_reports_bad_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        lines = ["f_hz,re,im"] + [f"{i}.0,0.1,0.2" for i in range(8)]
        lines[4] = "3.0,oops,0.2"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=":5"):
            load_trace(path)

    def test_noise_determinism(self):
        a = device_trace(snr_db=40.0, seed=9, n=101)
        b = device_trace(snr_db=40.0, seed=9, n=101)
        c = device_trace(snr_db=40.0, seed=10, n=101)
        assert np.array_equal(a.re, b.re)
        assert not np.array_equal(a.re, c.re)

    def test_noisy_requires_seed(self):
        with pytest.raises(DataError):
            device_trace(snr_db=40.0, seed=None, n=101)

    @given(snr=st.floats(20.0, 80.0))
    @settings(max_examples=20, deadline=None)
    def test_noise_level_tracks_snr(self, snr):
        clean = device_trace(n=401)
        noisy = device_trace(snr_db=snr, seed=1, n=401)
        resid = noisy.values - clean.values
        rms = np.sqrt(np.mean(np.abs(clean.values) ** 2))
        measured = np.sqrt(np.mean(np.abs(resid) ** 2)) / rms
        assert measured == pytest.approx(10 ** (-snr / 20.0), rel=0.2)


TRACE_ROWS = [f"{i}.0,0.{i + 1},0.2" for i in range(8)]


def trace_text(rows, header="f_hz,re,im", eol="\n"):
    return eol.join([header, *rows]) + eol


def replaced(i, *new):
    """TRACE_ROWS with row i (file line i + 2) replaced by `new` lines."""
    return TRACE_ROWS[:i] + list(new) + TRACE_ROWS[i + 1 :]


class TestTraceDiagnostics:
    """Every accepted trace and every message is pinned: the first bad row
    (header = line 1) is named, whatever is wrong with it."""

    @pytest.mark.parametrize(
        "text, message",
        [
            (trace_text(replaced(3, "3.5,0.1")), "{path}:5: expected 3 columns, got 2"),
            (trace_text(replaced(3, "3.0,oops,0.2")),
             "{path}:5: could not convert string to float: 'oops'"),
            # float() syntax that loadtxt refuses
            (trace_text([r.replace(".0", "_0") for r in TRACE_ROWS]),
             "{path}:2: could not convert string to float: '0_0'"),
            (trace_text(replaced(4, "4.0,nan,0.2")), f"{{path}}:6: re: expected {RULE}, got nan"),
            (trace_text(replaced(4, "4.0,0.1,NaN")), f"{{path}}:6: im: expected {RULE}, got nan"),
            (trace_text(replaced(5, "5.0,inf,0.2")), f"{{path}}:7: re: expected {RULE}, got inf"),
            (trace_text(replaced(7, "-Infinity,0.1,0.2")), f"{{path}}:9: f_hz: expected {RULE}, got -inf"),
            (trace_text(replaced(5, "5.0,1e200,0.2")), f"{{path}}:7: re: expected {RULE}, got 1e+200"),
            (trace_text(replaced(5, "5.0,0.1,-1e-300")), f"{{path}}:7: im: expected {RULE}, got -1e-300"),
            (trace_text(replaced(2, "2.0,0.1,nan", "3.0,x,0")), f"{{path}}:4: im: expected {RULE}, got nan"),
            (trace_text(replaced(2, "2.0,x,0", "3.0,0.1,nan")),
             "{path}:4: could not convert string to float: 'x'"),
            (trace_text(replaced(2, "", "  ", "2.5,0.1,nan")), f"{{path}}:6: im: expected {RULE}, got nan"),
            (trace_text(replaced(4, "# note", TRACE_ROWS[4])), "{path}:6: expected 3 columns, got 1"),
            (trace_text(replaced(4, "2.0,0.1,0.2")),
             "{path}:6: trace frequency must be strictly increasing"),
            (trace_text(replaced(4, "", "  ", "2.0,0.1,0.2")),
             "{path}:8: trace frequency must be strictly increasing"),
            # a quoted cell spanning lines 5-6 is one row; the next starts on line 7
            (trace_text(replaced(3, '3.0,0.1,0.2,"x', 'y"', "2.0,0.1,0.2")),
             "{path}:7: trace frequency must be strictly increasing"),
            (trace_text(replaced(3, '3.0,0.1,0.2,"x', 'y"', "3.5,nan,0")), f"{{path}}:7: re: expected {RULE}, got nan"),
            ("f_hz,re,im\n", "{path}: no data rows"),
            ("f_hz,re,im\n\n\n", "{path}: no data rows"),
            ("", "{path}: empty file"),
        ],
    )
    def test_errors(self, tmp_path, text, message):
        path = tmp_path / "trace.csv"
        path.write_text(text, newline="")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a header-only file warns nothing
            with pytest.raises(DataError) as info:
                load_trace(path)
        assert type(info.value) is DataError
        assert str(info.value) == message.format(path=path)

    def test_db_phase_non_finite(self, tmp_path):
        path = tmp_path / "trace.csv"
        rows = [f"{i}.0,-{i}.5,0.{i}" for i in range(9)] + ["10,nan,0"]
        path.write_text(trace_text(rows, "f_hz,mag_db,phase_rad"))
        with pytest.raises(DataError) as info:
            load_trace(path, fmt="db_phase")
        assert str(info.value) == f"{path}:11: mag_db: expected {RULE}, got nan"

    @pytest.mark.parametrize(
        "text",
        [
            trace_text(replaced(3, "3.0,0.4,0.2,9,9")),  # long row
            trace_text(replaced(4, "   ", TRACE_ROWS[4])),  # whitespace-only line
            trace_text(replaced(4, "", TRACE_ROWS[4])),  # blank line
            trace_text(replaced(4, '"4.0","0.5",0.2')),  # quoted numbers
            trace_text(TRACE_ROWS, eol="\r\n"),  # CRLF
            trace_text([r + ",abc" for r in TRACE_ROWS], "f_hz,re,im,note"),  # fourth column
            trace_text([r + (",1,2" if i % 2 else "") for i, r in enumerate(TRACE_ROWS)]),
            # a quoted fourth cell spanning two lines is one row, as csv reads it
            trace_text(replaced(3, '3.0,0.1,0.2,"x', '3.5,0.1,0.2,"')),
            trace_text([r + ',"a,b"' for r in TRACE_ROWS]),
            trace_text(TRACE_ROWS, header='"f\nhz";anything'),  # any header
            trace_text([" " + r.replace(",", " , ") + " " for r in TRACE_ROWS]),
        ],
    )
    def test_accepted_variants(self, tmp_path, text):
        path = tmp_path / "trace.csv"
        path.write_text(text, newline="")
        back = load_trace(path)
        got = np.stack([back.f_hz, back.re, back.im], axis=1)
        want = reference_table(path, ncols=3)
        assert want.shape == (8, 3)
        assert got.tobytes() == want.tobytes()


    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_plain_text_with_a_compressed_suffix(self, tmp_path, suffix):
        path = tmp_path / f"trace.csv{suffix}"
        path.write_text(trace_text(TRACE_ROWS), encoding="utf-8")
        back = load_trace(path)
        got = np.stack([back.f_hz, back.re, back.im], axis=1)
        assert got.tobytes() == reference_table(path, ncols=3).tobytes()

    def test_url_like_relative_path_reads_the_local_file(self, tmp_path, monkeypatch):
        def no_urls(*args, **kwargs):
            raise AssertionError(f"opened a URL: {args}")

        monkeypatch.setattr(urllib.request, "urlopen", no_urls)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "http:" / "x").mkdir(parents=True)
        (tmp_path / "http:" / "x" / "trace.csv").write_text(trace_text(TRACE_ROWS), encoding="utf-8")
        back = load_trace("http://x/trace.csv")
        got = np.stack([back.f_hz, back.re, back.im], axis=1)
        assert got.tobytes() == reference_table("http:/x/trace.csv", ncols=3).tobytes()


FINITE = st.floats(allow_nan=False, allow_infinity=False)
EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7e308, -1.7e308,
            1.7976931348623157e308]
# the cells the magnitude rule lets in, and its extremes
RULED = st.one_of(st.just(0.0), st.floats(1e-100, 1e100), st.floats(-1e100, -1e-100))
RULED_EXTREMES = [0.0, -0.0, 1e-100, -1e-100, np.nextafter(1e-100, 1.0), 1e100, -1e100,
                  np.nextafter(1e100, 0.0)]


@st.composite
def trace_columns(draw, cells=FINITE):
    """Strictly increasing frequencies and arbitrary samples, all drawn
    from `cells`."""
    f = np.sort(np.array(draw(st.lists(cells, min_size=7, max_size=30, unique=True))))
    re, im = (np.array(draw(st.lists(cells, min_size=len(f), max_size=len(f)))) for _ in "ri")
    return f, re, im


@given(cols=trace_columns(RULED))
@example(cols=(np.array(sorted(RULED_EXTREMES[1:])), np.array(RULED_EXTREMES[:7]),
               np.array(RULED_EXTREMES[1:])))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_save_load_trace_bit_exact(tmp_path, cols):
    path = tmp_path / "trace.csv"
    save_trace(ComplexTrace(*cols), path)
    back = load_trace(path)
    for want, got in zip(cols, (back.f_hz, back.re, back.im)):
        assert got.tobytes() == want.tobytes()


@given(cols=trace_columns())
@example(cols=(np.array(sorted(EXTREMES[1:])), np.array(EXTREMES[:7]), np.array(EXTREMES[1:])))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_trace_cells_parse_back_bit_exact(tmp_path, cols):
    # "%.17e" cells with LF ends, which np.loadtxt, like load_trace, reads
    # back bit for bit
    path = tmp_path / "trace.csv"
    save_trace(ComplexTrace(*cols), path)
    rows = zip(*(c.tolist() for c in cols))
    assert path.read_bytes() == ("f_hz,re,im\n" + "".join("%.17e,%.17e,%.17e\n" % r for r in rows)).encode()
    back = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2).T
    for want, got in zip(cols, back):
        assert got.tobytes() == want.tobytes()
