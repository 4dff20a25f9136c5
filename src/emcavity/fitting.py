"""Nonlinear least-squares fitting of complex reflection traces.

The extended one-sided-cavity model

    R(w) = A exp(-i(w tau + phi)) r0(w; center=w_c, k_in, k_ex, tilt=delta)

wraps the reflection kernel r0 of linear_response in a background
prefactor.  It is fitted to the real and imaginary parts of the data
jointly, by damped Gauss-Newton with Levenberg-style damping, from the
closed-form circle-fit start of initial_guess.  The amplitude and damping
rates are fitted in log space, which keeps them within the bounds their
field metadata declares.  A trial step with invalid parameters
or a non-finite residual is rejected; a fit whose log-fitted rate
underflowed to 0, or whose sigma is 0 or not finite, is not converged.
The OMIT model reuses the same prefactor and tilt and adds the mechanical
self-energy to the kernel.  Both analytic Jacobians come from the
kernel's partials.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .device import CheckedArrays, data_rows, read_table
from .errors import DataError, DomainError, GuessError
from .linear_response import mechanical_self_energy, reflection, reflection_partials
from .params import NON_NEGATIVE, POSITIVE, Checked


@dataclass(frozen=True)
class ComplexTrace(CheckedArrays):
    """Frequency grid (Hz) with complex reflection samples."""

    f_hz: np.ndarray
    re: np.ndarray
    im: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        if len(self.f_hz) < 7:
            raise DataError("trace needs at least 7 samples (7-parameter model)")
        if not np.all(np.diff(self.f_hz) > 0):
            raise DataError("trace frequency must be strictly increasing")

    @property
    def omega(self) -> np.ndarray:
        return 2.0 * np.pi * self.f_hz

    @property
    def values(self) -> np.ndarray:
        return self.re + 1j * self.im


# How the fit moves a parameter: _LOG fits log(x), which keeps it positive;
# _ANGLE is reported at its principal value; an unmarked field is linear.
_LOG = {"fit": "log"}
_ANGLE = {"fit": "angle"}


@dataclass(frozen=True)
class ReflectionModelParams(Checked):
    """Parameters of the extended reflection model."""

    amplitude: float = field(metadata={**_LOG, **POSITIVE})  # A, dimensionless
    tau: float  # s, cable delay
    phi: float = field(metadata=_ANGLE)  # rad, constant phase
    omega_c: float  # rad/s
    kappa_in: float = field(metadata={**_LOG, **NON_NEGATIVE})  # rad/s
    kappa_ex: float = field(metadata={**_LOG, **NON_NEGATIVE})  # rad/s
    delta: float  # rad/s, baseline tilt


@dataclass(frozen=True)
class FitResult:
    params: object
    residual_norm: float
    iterations: int
    converged: bool
    param_uncertainties: dict
    rank_deficient: bool
    message: str


def _background(w, p: ReflectionModelParams):
    """Background prefactor A exp(-i(w tau + phi))."""
    return p.amplitude * np.exp(-1j * (w * p.tau + p.phi))


def reflection_model(omega, p: ReflectionModelParams):
    """Evaluate the extended reflection model at angular frequency omega."""
    w = np.asarray(omega)
    return _background(w, p) * reflection(w, p.omega_c, p.kappa_in, p.kappa_ex, p.delta)


def _reflection_jacobian(omega, p: ReflectionModelParams):
    """Analytic complex derivatives of the model w.r.t. the fitted fields in
    order: (log A, tau, phi, omega_c, log kappa_in, log kappa_ex, delta)."""
    w = np.asarray(omega)
    pre = _background(w, p)
    r0, (d_wc, d_kin, d_kex, d_delta, _) = reflection_partials(
        w, p.omega_c, p.kappa_in, p.kappa_ex, p.delta
    )
    r = pre * r0
    cols = [r, -1j * w * r, -1j * r, pre * d_wc]
    cols += [pre * d_kin * p.kappa_in, pre * d_kex * p.kappa_ex, pre * d_delta]
    return np.stack(cols, axis=-1)


_MAX_ITER = 500
_XTOL = 1e-10
_LAM0 = 1e-3


def _levenberg_marquardt(residual_fn, jacobian_fn, theta0: np.ndarray):
    """Damped Gauss-Newton on real residuals.

    Damping lambda starts at _LAM0 and scales diag(J^T J); x10 on rejected
    steps, /10 on accepted ones.  Convergence when the scaled relative step
    drops below _XTOL or the gradient norm below 1e-12 * residual norm.
    """
    theta = np.asarray(theta0, dtype=float).copy()
    r = residual_fn(theta)
    cost = float(r @ r)
    lam = _LAM0
    rank_deficient = False
    converged = False
    message = "max iterations reached"
    it = 0
    for it in range(1, _MAX_ITER + 1):
        J = jacobian_fn(theta)
        g = J.T @ r
        if np.linalg.norm(g) <= 1e-12 * max(np.sqrt(cost), 1e-300):
            converged, message = True, "gradient below tolerance"
            break
        JtJ = J.T @ J
        diag = np.diag(JtJ).copy()
        if np.any(diag <= 0):
            rank_deficient = True
            diag[diag <= 0] = max(diag.max(), 1.0) * 1e-14
        accepted = False
        for _ in range(60):
            try:
                step = np.linalg.solve(JtJ + lam * np.diag(diag), -g)
            except np.linalg.LinAlgError:
                rank_deficient = True
                step = np.linalg.lstsq(JtJ + lam * np.diag(diag), -g, rcond=None)[0]
            r_new = residual_fn(theta + step)
            cost_new = float(r_new @ r_new)
            if np.isfinite(cost_new) and cost_new <= cost:
                accepted = True
                break
            lam *= 10.0
        if not accepted:
            message = "no acceptable step found"
            break
        scale = np.sqrt(diag)
        rel_step = np.linalg.norm(scale * step) / max(np.linalg.norm(scale * theta), 1e-300)
        theta = theta + step
        r, cost = r_new, cost_new
        lam = max(lam / 10.0, 1e-15)
        if rel_step < _XTOL:
            converged, message = True, "relative step below tolerance"
            break
    return theta, np.sqrt(cost), it, converged, rank_deficient, message


def _uncertainties(J: np.ndarray, r: np.ndarray, names) -> dict:
    """1-sigma estimates from the local quadratic model.

    Columns are rescaled to unit norm before the SVD so that wildly
    different parameter magnitudes (rad/s vs dimensionless) do not poison
    the pseudo-inverse; directions below 1e-12 of the largest singular
    value are dropped.
    """
    m, n = J.shape
    s2 = float(r @ r) / max(m - n, 1)
    scale = np.linalg.norm(J, axis=0)
    scale[scale == 0] = 1.0
    _, sv, vt = np.linalg.svd(J / scale, full_matrices=False)
    inv2 = np.divide(1.0, sv * sv, out=np.zeros_like(sv), where=sv > 1e-12 * sv[0])
    var = np.einsum("ki,k,ki->i", vt, inv2, vt) * s2
    return {name: float(np.sqrt(v) / c) for name, v, c in zip(names, var, scale)}


def _fit(trace: ComplexTrace, model, jacobian, start, names) -> FitResult:
    """Fit the fields `names` of the dataclass `start` to the real and
    imaginary parts of the trace; every other field keeps its start value.

    model(w, p) is the complex model and jacobian(w, p) its derivatives with
    respect to the fitted coordinates, one column per name in order; later
    columns are dropped.  Each field's metadata gives its coordinate.
    """
    w = trace.omega
    data = np.concatenate([trace.re, trace.im])
    meta = {f.name: f.metadata.get("fit") for f in fields(start)}
    kind = [meta[n] for n in names]

    def params(theta):
        return replace(start, **{
            n: float(np.exp(t) if k == "log" else t) for n, k, t in zip(names, kind, theta)
        })

    def residual(theta):
        try:
            m = model(w, params(theta))
        except DomainError:  # e.g. exp(log A) underflowed: reject the step
            return np.full(data.shape, np.inf)
        return np.concatenate([m.real, m.imag]) - data

    def jac(theta):
        Jc = jacobian(w, params(theta))[:, : len(names)]
        return np.concatenate([Jc.real, Jc.imag], axis=0)

    start_values = [getattr(start, n) for n in names]
    theta0 = [np.log(v) if k == "log" else v for k, v in zip(kind, start_values)]
    # trial steps and a degenerate end point may overflow: a non-finite
    # residual rejects a step, a non-finite sigma fails the check below
    with np.errstate(all="ignore"):
        theta, rnorm, iters, converged, rankdef, message = _levenberg_marquardt(residual, jac, theta0)
        # an angle is only defined modulo 2 pi; wrap it before the final J and sigma
        for i, k in enumerate(kind):
            if k == "angle":
                theta[i] = np.angle(np.exp(1j * theta[i]))
        p = params(theta)
        sig = _uncertainties(jac(theta), residual(theta), names)
        for n, k in zip(names, kind):
            if k == "log":  # chain rule back from the log coordinate
                sig[n] *= getattr(p, n)
    # a rate at its floor or a flat direction is no minimum to report
    floor = [n for n, k in zip(names, kind) if k == "log" and getattr(p, n) < np.finfo(float).tiny]
    flat = [n for n in names if not 0 < sig[n] < np.inf]
    faults = [f"{', '.join(floor)} underflowed to 0"] if floor else []
    faults += [f"sigma of {', '.join(flat)} is 0 or not finite"] if flat else []
    if faults:
        converged, message = False, "; ".join([message, *faults])
    return FitResult(p, rnorm, iters, converged, sig, rankdef, message)


def initial_guess(trace: ComplexTrace) -> ReflectionModelParams:
    """Closed-form start for fit_reflection (Probst et al., Rev. Sci.
    Instrum. 86, 024706, 2015).

    1. Delay tau from the phase slopes of the off-resonant edges, refined
       by the wrapped phase step between their means (r0 -> -1 on both).
    2. Without the delay the data z = A exp(-i phi) r0 lie on a circle,
       fitted by linear least squares (Kasa): x^2 + y^2 + Dx + Ey + F = 0.
    3. Its point farthest from the origin, P = c (1 + R/|c|), is the
       off-resonant point -A exp(-i phi); k_ex/k = R/A, with no branch.
    4. The angle theta about the centre, measured from P, obeys
       -cot(theta/2) = 2(w - w_c)/k.  Times 1 - cos(theta) this line reads
       (w - w_c)(1 - cos theta) + (k/2) sin theta = 0: linear in (w_c, k),
       equally sensitive to every sample's angle noise, and weighted by
       (1 - cos theta)^2, so the half circle nearest resonance sets it.

    GuessError when no circle is found or w_c +/- k is not between the edges.
    """
    w, vals = trace.omega, trace.values
    n = len(w)
    m = max(n // 10, 2)  # samples per off-resonant edge
    edges = (slice(0, m), slice(n - m, n))
    tau = -float(np.mean([np.polyfit(w[s], np.unwrap(np.angle(vals[s])), 1)[0] for s in edges]))
    left, right = (np.mean(vals[s] * np.exp(1j * w[s] * tau)) for s in edges)
    tau -= float(np.angle(right / left) / (np.mean(w[n - m:]) - np.mean(w[:m])))
    z = vals * np.exp(1j * w * tau)
    x, y = z.real, z.imag
    (d, e, f), *_ = np.linalg.lstsq(np.stack([x, y, np.ones(n)], axis=1), -(x * x + y * y), rcond=None)
    center = -(d + 1j * e) / 2.0
    if not abs(center) ** 2 - f > 0:
        raise GuessError("no resonance circle found in trace")
    radius = np.sqrt(abs(center) ** 2 - f)
    p = center * (1.0 + radius / abs(center))
    u = (z - center) / (p - center)
    cos, sin = u.real / abs(u), u.imag / abs(u)
    w0 = float(np.mean(w))
    rows = np.stack([1.0 - cos, -sin], axis=1)
    (shift, half_kappa), *_ = np.linalg.lstsq(rows, (w - w0) * (1.0 - cos), rcond=None)
    omega_c, kappa = w0 + shift, 2.0 * half_kappa
    if not (kappa > 0 and w[m - 1] < omega_c - kappa and omega_c + kappa < w[n - m]):
        raise GuessError("no resonance circle found inside the span")
    ratio = radius / abs(p)
    return ReflectionModelParams(
        amplitude=float(abs(p)),
        tau=tau,
        phi=-float(np.angle(-p)),
        omega_c=float(omega_c),
        kappa_in=float(kappa * (1.0 - ratio)),
        kappa_ex=float(kappa * ratio),
        delta=0.0,
    )


def fit_reflection(trace: ComplexTrace, guess: ReflectionModelParams | None = None) -> FitResult:
    """Fit the extended reflection model to the real and imaginary parts."""
    if guess is None:
        guess = initial_guess(trace)
    names = [f.name for f in fields(guess)]
    return _fit(trace, reflection_model, _reflection_jacobian, guess, names)


@dataclass(frozen=True)
class OmitModelParams(Checked):
    """Mechanical parameters fitted on top of fixed cavity background."""

    g: float  # rad/s
    gamma: float  # rad/s
    omega_m: float  # rad/s
    detuning: float  # rad/s


def omit_model(omega, cavity: ReflectionModelParams, p: OmitModelParams):
    """OMIT reflection wrapped in the fitted cavity background.

    Frequencies are in the frame rotating at the pump: the cavity Lorentzian
    sits at the detuning, the mechanical feature at Omega.
    """
    w = np.asarray(omega)
    sigma = mechanical_self_energy(w, p.g, p.gamma, p.omega_m)
    r0 = reflection(w, p.detuning, cavity.kappa_in, cavity.kappa_ex, cavity.delta, sigma)
    return _background(w, cavity) * r0


def _omit_jacobian(omega, cavity: ReflectionModelParams, p: OmitModelParams):
    """Analytic complex derivatives of omit_model w.r.t.
    (g, gamma, omega_m, detuning)."""
    w = np.asarray(omega)
    # at unit coupling the self-energy is the mechanical susceptibility chi,
    # and Sigma = g^2 chi stays differentiable through g = 0
    chi = mechanical_self_energy(w, 1.0, p.gamma, p.omega_m)
    g2chi2 = p.g * p.g * chi * chi
    pre = _background(w, cavity)
    _, (d_center, _, _, _, d_sigma) = reflection_partials(
        w, p.detuning, cavity.kappa_in, cavity.kappa_ex, cavity.delta, p.g * p.g * chi
    )
    d_sigma = pre * d_sigma
    cols = [d_sigma * (2.0 * p.g * chi), d_sigma * (-0.5 * g2chi2), d_sigma * (-1j * g2chi2)]
    return np.stack(cols + [pre * d_center], axis=-1)


def fit_omit(
    trace: ComplexTrace,
    cavity: ReflectionModelParams,
    guess: OmitModelParams,
    fit_detuning: bool = False,
) -> FitResult:
    """Fit {g, gamma, Omega} (optionally Delta) with cavity parameters fixed.

    Follows the two-stage workflow: the cavity background is established by
    fit_reflection first and held fixed here.
    """
    names = ("g", "gamma", "omega_m") + (("detuning",) if fit_detuning else ())
    res = _fit(trace, lambda w, p: omit_model(w, cavity, p),
               lambda w, p: _omit_jacobian(w, cavity, p), guess, names)
    # the model depends on g only through g^2, so near g = 0 the
    # identifiable quantity is g^2; report its uncertainty too
    sig = res.param_uncertainties
    sig["g_squared"] = 2.0 * abs(res.params.g) * sig["g"]
    return res


def load_trace(path, fmt: str = "re_im") -> ComplexTrace:
    """Load a trace CSV; fmt 're_im' (f_hz, re, im) or 'db_phase'
    (f_hz, mag_db, phase_rad)."""
    if fmt not in ("re_im", "db_phase"):
        raise ValueError(f"unknown trace format: {fmt!r}")
    f, re, im = read_table(path).T
    if not np.all(np.diff(f) > 0):
        bad = int(np.argmax(np.diff(f) <= 0)) + 1
        with open(path, newline="", encoding="utf-8") as fh:
            line = [n for n, _ in data_rows(csv.reader(fh))][bad]
        raise DataError(f"{path}: frequency not strictly increasing near line {line}")
    if fmt == "db_phase":
        c = 10.0 ** (re / 20.0) * np.exp(1j * im)
        re, im = c.real, c.imag
    return ComplexTrace(f_hz=f, re=re, im=im)


def save_trace(trace: ComplexTrace, path) -> None:
    """Write a trace as re_im CSV: repr (round-trip) cells, CRLF line ends."""
    cells = np.stack([trace.f_hz, trace.re, trace.im], axis=1).ravel().tolist()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("f_hz,re,im\r\n")
        fh.write("%r,%r,%r\r\n" * len(trace.f_hz) % tuple(cells))


def synthesize_trace(
    model_fn,
    f_hz: np.ndarray,
    snr_db: float | None = None,
    seed: int | None = None,
) -> ComplexTrace:
    """Evaluate model_fn(omega) on the grid and add complex Gaussian noise.

    Per-sample noise std is |R|_rms * 10^(-snr_db/20), split evenly between
    quadratures.  snr_db=None yields a noiseless trace; otherwise a seed is
    required for determinism.
    """
    f_hz = np.asarray(f_hz, dtype=float)
    clean = np.asarray(model_fn(2.0 * np.pi * f_hz), dtype=complex)
    if snr_db is None:
        noisy = clean
    else:
        if seed is None:
            raise DataError("seed is required when synthesizing noisy traces")
        rng = np.random.default_rng(seed)
        sigma = float(np.sqrt(np.mean(np.abs(clean) ** 2))) * 10.0 ** (-snr_db / 20.0)
        noise = (rng.standard_normal(len(f_hz)) + 1j * rng.standard_normal(len(f_hz))) * (
            sigma / np.sqrt(2.0)
        )
        noisy = clean + noise
    return ComplexTrace(f_hz=f_hz, re=noisy.real, im=noisy.imag)
