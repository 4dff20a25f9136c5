"""Nonlinear least-squares fitting of complex reflection traces.

The extended one-sided-cavity model

    R(w) = A exp(-i(w tau + phi)) r0(w; center=w_c, k_in, k_ex, tilt=delta)

wraps the reflection kernel r0 of linear_response in a background
prefactor.  It is fitted to the real and imaginary parts of the data
jointly, by damped Gauss-Newton with Levenberg-style damping, from the
closed-form circle-fit start of initial_guess.  Only the reflection model
fits in log space, its amplitude and damping rates, which keeps them within
their declared bounds.  A trial step outside a field's bound or with a
non-finite residual is rejected; a fit whose log-fitted rate underflowed
to 0, or whose sigma is 0 or not finite, is not converged.
The OMIT model reuses the same prefactor and tilt and adds the mechanical
self-energy to the kernel.  Each model, asked for its Jacobian, returns
with its value a function that yields that evaluation's derivative
columns, so the fit evaluates each model once per point it visits.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

import numpy as np

from .errors import DataError, DomainError, GuessError, NumericalError
from .linear_response import mechanical_self_energy, reflection_terms
from .params import NON_NEGATIVE, POSITIVE, Checked, CheckedArrays, key
from .tables import read_table, write_table


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
        rising = np.diff(self.f_hz) > 0
        if not rising.all():
            raise DataError("trace frequency must be strictly increasing", row=int(np.argmin(rising)) + 1)

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
    tau: float = field(metadata=key("tau_s"))  # cable delay
    phi: float = field(metadata=key("phi_rad", **_ANGLE))  # constant phase
    omega_c: float = field(metadata=key("f_c_hz"))
    kappa_in: float = field(metadata=key("kappa_in_hz", **_LOG, **NON_NEGATIVE))
    kappa_ex: float = field(metadata=key("kappa_ex_hz", **_LOG, **NON_NEGATIVE))
    delta: float = field(metadata=key("delta_hz"))  # baseline tilt


@dataclass(frozen=True)
class FitResult:
    """The fit JSON's members in its order; convergence is the driver's record with _fit's faults added."""

    params: object
    residual_norm: float
    convergence: dict
    param_uncertainties: dict


def _background(w, p: ReflectionModelParams):
    """Background prefactor A exp(-i(w tau + phi))."""
    return p.amplitude * np.exp(-1j * (w * p.tau + p.phi))


def _times(pre, d):
    """pre * d.  d is named: numpy computes pre * (a temporary) in the
    temporary's buffer, as temporary * pre, and complex products are not
    bitwise commutative.  The partial d is freed on return."""
    return pre * d


def reflection_model(omega, p: ReflectionModelParams, jacobian=False):
    """Evaluate the extended reflection model at angular frequency omega.

    With jacobian, return (model, columns): columns() yields the model's
    complex derivatives w.r.t. (log A, tau, phi, omega_c, log kappa_in,
    log kappa_ex, delta), one at a time, from this evaluation.  With
    a = (1 + r0)/D, dr0/dw_c = -i a, dr0/dk_in = -a/2,
    dr0/dk_ex = (1 - r0)/(2D) and dr0/ddelta = -i/D.
    """
    w = np.asarray(omega)
    pre = _background(w, p)
    r0, den = reflection_terms(w, p.omega_c, p.kappa_in, p.kappa_ex, p.delta)
    m = pre * r0
    if not jacobian:
        return m

    def columns():
        yield m
        yield -1j * w * m
        yield -1j * m
        a = (1.0 + r0) / den
        yield _times(pre, -1j * a)
        yield _times(pre, -0.5 * a) * p.kappa_in
        yield _times(pre, (1.0 - r0) / (2.0 * den)) * p.kappa_ex
        yield _times(pre, -1j / den)

    return m, columns


_MAX_ITER = 500
_XTOL = 1e-10
_FTOL = 1e-10  # a cost rise this small relative to the cost is round-off
_LAM0 = 1e-9


def _sum_squares(r: np.ndarray) -> float:
    """r . r by numpy's pairwise sum.  r @ r is a BLAS ddot, which OpenBLAS
    splits over threads for long vectors, so its last bit would depend on
    the BLAS thread count."""
    return float(np.sum(r * r))


def _levenberg_marquardt(evaluate, theta0: np.ndarray):
    """Damped Gauss-Newton on real residuals.

    evaluate(theta) returns (r, jacobian): the residual at theta and a
    function that builds the Jacobian there.  Damping lambda starts at
    _LAM0 and scales diag(J^T J); x10 on rejected steps, /10 on accepted
    ones.  A start near the minimum, such as the closed-form one of
    fit_reflection, thus takes nearly Gauss-Newton steps from the first; a
    poor one is damped by the rejections.  Convergence when the scaled
    relative step drops below _XTOL, the gradient norm below 1e-12 *
    residual norm, or when a trial raises the cost by no more than _FTOL
    of it: that rise is round-off, the trial is not taken, and more
    damping would only retry the noise.  A trial whose cost is not finite
    is never taken.  A start whose cost is not finite is returned at once,
    after 0 iterations.  Returns the last accepted point with its r and
    jacobian, and the fit JSON's convergence record.
    """
    theta = np.asarray(theta0, dtype=float).copy()
    r, jacobian = evaluate(theta)
    cost = _sum_squares(r)
    lam = _LAM0
    convergence = {"converged": False, "iterations": 0, "rank_deficient": False,
                   "message": "max iterations reached"}
    if not np.isfinite(cost):
        convergence["message"] = "start not finite"
        return theta, r, jacobian, convergence
    for it in range(1, _MAX_ITER + 1):
        convergence["iterations"] = it
        J = jacobian()
        g, JtJ = J.T @ r, J.T @ J
        del J  # the next Jacobian is built without this one alive
        if np.linalg.norm(g) <= 1e-12 * max(np.sqrt(cost), 1e-300):
            convergence.update(converged=True, message="gradient below tolerance")
            break
        diag = np.diag(JtJ).copy()
        if np.any(diag <= 0):
            convergence["rank_deficient"] = True
            diag[diag <= 0] = max(diag.max(), 1.0) * 1e-14
        for _ in range(60):
            try:
                step = np.linalg.solve(JtJ + lam * np.diag(diag), -g)
            except np.linalg.LinAlgError:
                convergence["rank_deficient"] = True
                step = np.linalg.lstsq(JtJ + lam * np.diag(diag), -g, rcond=None)[0]
            trial = theta + step
            r_new, jacobian_new = evaluate(trial)
            cost_new = _sum_squares(r_new)
            if cost_new - cost <= _FTOL * cost:  # False where cost_new is not finite
                break
            lam *= 10.0
        else:
            convergence["message"] = "no acceptable step found"
            break
        if cost_new > cost:  # a rise at round-off
            convergence.update(converged=True, message="cost rise at round-off")
            break
        scale = np.sqrt(diag)
        rel_step = np.linalg.norm(scale * step) / max(np.linalg.norm(scale * theta), 1e-300)
        theta, r, jacobian, cost = trial, r_new, jacobian_new, cost_new
        lam = max(lam / 10.0, 1e-15)
        if rel_step < _XTOL:
            convergence.update(converged=True, message="relative step below tolerance")
            break
    return theta, r, jacobian, convergence


def _uncertainties(J: np.ndarray, r: np.ndarray, names) -> dict:
    """1-sigma estimates from the local quadratic model.

    Columns are rescaled to unit norm before the SVD so that wildly
    different parameter magnitudes (rad/s vs dimensionless) do not poison
    the pseudo-inverse; directions below 1e-12 of the largest singular
    value are dropped.  The SVD is taken of the (k, k) R factor of J, which
    has J's singular values and right vectors.  A QR or SVD that fails
    gives NaN sigmas.  J is scaled in place, so it must be a fresh one.
    """
    m, n = J.shape
    s2 = _sum_squares(r) / max(m - n, 1)
    scale = np.linalg.norm(J, axis=0)
    scale[scale == 0] = 1.0
    J /= scale
    try:
        _, sv, vt = np.linalg.svd(np.linalg.qr(J, mode="r"))
    except np.linalg.LinAlgError:
        return dict.fromkeys(names, np.nan)
    inv2 = np.divide(1.0, sv * sv, out=np.zeros_like(sv), where=sv > 1e-12 * sv[0])
    var = np.einsum("ki,k,ki->i", vt, inv2, vt) * s2
    return {name: float(np.sqrt(v) / c) for name, v, c in zip(names, var, scale)}


def _fit(trace: ComplexTrace, model, start, names) -> FitResult:
    """Fit the fields `names` of the dataclass `start` to the real and
    imaginary parts of the trace; every other field keeps its start value.

    model(w, p) returns the complex model with a function columns() that
    yields its derivatives with respect to the fitted coordinates, one per
    name in order; the columns after the last name are never built.  Each
    field's metadata gives its coordinate.  evaluate(theta) evaluates the
    model once and returns the residual with a function that builds the
    Jacobian from that same evaluation, so each point the driver visits
    costs one model evaluation, and the sigmas come from the driver's last
    accepted point.
    """
    w = trace.omega
    data = np.concatenate([trace.re, trace.im])
    meta = {f.name: f.metadata.get("fit") for f in fields(start)}
    kind = [meta[n] for n in names]

    def params(theta):
        return replace(start, **{
            n: float(np.exp(t) if k == "log" else t) for n, k, t in zip(names, kind, theta)
        })

    def evaluate(theta):
        try:
            p = params(theta)
            m, columns = model(w, p)
        except DomainError:  # e.g. exp(log A) underflowed: reject the step
            return np.full(data.shape, np.inf), None

        def jacobian():
            J = np.empty((len(data), len(names)), order="F")  # each column written as it is made
            for j, (_, col) in enumerate(zip(names, columns())):
                J[: len(w), j], J[len(w) :, j] = col.real, col.imag
            return J

        return np.concatenate([m.real, m.imag]) - data, jacobian

    start_values = [getattr(start, n) for n in names]
    theta0 = [np.log(v) if k == "log" else v for k, v in zip(kind, start_values)]
    # trial steps and a degenerate end point may overflow: a non-finite
    # residual rejects a step, a non-finite sigma fails the check below
    with np.errstate(all="ignore"):
        theta, r, jacobian, convergence = _levenberg_marquardt(evaluate, theta0)
        rnorm = np.sqrt(_sum_squares(r))
        # a start at a pole of the model, or one so far off that the cost
        # overflows, has no descent direction: the driver stops at once
        if not np.isfinite(rnorm):
            bad = np.count_nonzero(~np.isfinite((r.reshape(2, -1) ** 2).sum(axis=0)))
            raise NumericalError(f"fit start: residual not finite at {bad} of {len(w)} samples")
        sig = _uncertainties(jacobian(), r, names)
        # an angle is only defined modulo 2 pi; report its principal value
        for i, k in enumerate(kind):
            if k == "angle":
                theta[i] = np.angle(np.exp(1j * theta[i]))
        p = params(theta)
        for n, k in zip(names, kind):
            if k == "log":  # chain rule back from the log coordinate
                sig[n] *= getattr(p, n)
    # a rate at its floor or a flat direction is no minimum to report
    floor = [n for n, k in zip(names, kind) if k == "log" and getattr(p, n) < np.finfo(float).tiny]
    flat = [n for n in names if not 0 < sig[n] < np.inf]
    faults = [f"{', '.join(floor)} underflowed to 0"] if floor else []
    faults += [f"sigma of {', '.join(flat)} is 0 or not finite"] if flat else []
    if faults:
        convergence.update(converged=False, message="; ".join([convergence["message"], *faults]))
    return FitResult(p, rnorm, convergence, sig)


# a degenerate trace divides by zero on the way; the GuessError checks refuse it
@np.errstate(all="ignore")
def initial_guess(trace: ComplexTrace) -> ReflectionModelParams:
    """Closed-form start for fit_reflection (Probst et al., Rev. Sci.
    Instrum. 86, 024706, 2015).

    1. Delay tau from the phase slopes of the off-resonant edges, refined
       by the wrapped phase step between their means (r0 -> -1 on both).
       Each edge is fitted by its means over blocks (`_edge_phase`).
       That step is known only modulo 2 pi, so tau only modulo 2 pi / dw,
       dw the distance between the edge means: steps 2-4 run at tau and at
       its aliases tau -/+ 2 pi / dw.  Of the starts found, the one whose
       full model is nearest the data in the sum of squares wins.  A start
       counts only if it is nearer than zero: at an alias a flat trace
       winds into a circle that explains none of it, and so does tau's
       own circle on a resonance at the trace's edge.
    2. Without the delay the data z = A exp(-i phi) r0 lie on a circle,
       fitted by linear least squares (Kasa): x^2 + y^2 + Dx + Ey + F = 0.
    3. Its point farthest from the origin, P = c (1 + R/|c|), is the
       off-resonant point -A exp(-i phi); k_ex/k = R/A, with no branch.
    4. The angle theta about the centre, measured from P, obeys
       -cot(theta/2) = 2(w - w_c)/k.  Times 1 - cos(theta) this line reads
       (w - w_c)(1 - cos theta) + (k/2) sin theta = 0: linear in (w_c, k),
       equally sensitive to every sample's angle noise, and weighted by
       (1 - cos theta)^2, so the half circle nearest resonance sets it.

    GuessError, that of tau itself, when no delay gives a circle with
    w_c +/- k between the edges, and one that says so when no start counts.
    """
    w, vals = trace.omega, trace.values
    n = len(w)
    m = max(n // 10, 2)  # samples per off-resonant edge
    edges = (slice(0, m), slice(n - m, n))
    tau = -float(np.mean([np.polyfit(*_edge_phase(w[s], vals[s]), 1)[0] for s in edges]))
    left, right = (np.mean(vals[s] * np.exp(1j * w[s] * tau)) for s in edges)
    dw = float(np.mean(w[n - m:]) - np.mean(w[:m]))
    tau -= float(np.angle(right / left) / dw)
    z = vals * np.exp(1j * w * tau)
    turn = np.exp(2j * np.pi * w / dw)  # the delay's phase ramp from one alias to the next
    starts, errors = {}, []  # messages: a kept exception would tie up its frame's arrays in a cycle
    for k, zk in ((0, z), (-1, z * turn.conj()), (1, z * turn)):
        try:
            starts[k] = _circle_start(w, zk, tau + 2.0 * np.pi * k / dw, m)
        except GuessError as exc:
            errors.append(str(exc))
    if not starts:
        raise GuessError(errors[0])
    cost = {k: float(np.sum(np.abs(reflection_model(w, p) - vals) ** 2)) for k, p in starts.items()}
    kept = [k for k in starts if cost[k] < float(np.sum(np.abs(vals) ** 2))]
    if not kept:
        raise GuessError("no start explains the trace better than zero")
    return starts[min(kept, key=cost.get)]


def _edge_phase(w, z):
    """(w, unwrapped phase) of the means of z over k blocks equal but for one sample: noisy samples unwrap
    in random 2 pi steps.  k >= 20 keeps the raw slope under pi / 2 a block (means alias at pi), k <= len(w)."""
    turn = abs(np.polyfit(w, np.unwrap(np.angle(z)), 1)[0]) * (w[-1] - w[0])
    k = int(min(len(w), max(20, np.ceil(turn / (np.pi / 2)))))
    starts = len(w) * np.arange(k) // k
    w, z = (np.add.reduceat(x, starts) / np.diff(starts, append=len(w)) for x in (w, z))
    return w, np.unwrap(np.angle(z))


def _circle_start(w, z, tau, m) -> ReflectionModelParams:
    """Steps 2-4 of initial_guess on the samples z with the delay tau taken
    out, with m samples per edge."""
    n = len(w)
    if not np.isfinite(z).all():  # e.g. an all-zero trace, whose tau is NaN
        raise GuessError("no resonance circle found in trace")
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


def fit_reflection(trace: ComplexTrace) -> FitResult:
    """Fit the extended reflection model, from initial_guess, to the real and imaginary parts."""
    guess = initial_guess(trace)
    names = [f.name for f in fields(guess)]
    return _fit(trace, lambda w, p: reflection_model(w, p, jacobian=True), guess, names)


@dataclass(frozen=True)
class OmitModelParams(Checked):
    """Mechanical parameters fitted on top of fixed cavity background."""

    g: float = field(metadata=key("g_hz"))
    gamma: float = field(metadata=key("gamma_hz", **NON_NEGATIVE))
    omega_m: float = field(metadata=key("f_m_hz", **POSITIVE))
    detuning: float = field(metadata=key("detuning_hz"))


def omit_model(omega, cavity: ReflectionModelParams, p: OmitModelParams, jacobian=False):
    """OMIT reflection wrapped in the fitted cavity background.

    Frequencies are in the frame rotating at the pump: the cavity Lorentzian
    sits at the detuning, the mechanical feature at Omega.  With jacobian,
    return (model, columns) as reflection_model does, the columns w.r.t.
    (g, gamma, omega_m, detuning): with a = (1 + r0)/D, dr0/dSigma = -a and
    dr0/dDelta = -i a.
    """
    w = np.asarray(omega)
    pre = _background(w, cavity)
    sigma = mechanical_self_energy(w, p.g, p.gamma, p.omega_m)
    r0, den = reflection_terms(w, p.detuning, cavity.kappa_in, cavity.kappa_ex, cavity.delta, sigma)
    m = pre * r0
    if not jacobian:
        return m

    def columns():
        # at unit coupling the self-energy is the mechanical susceptibility
        # chi, and Sigma = g^2 chi stays differentiable through g = 0
        chi = mechanical_self_energy(w, 1.0, p.gamma, p.omega_m)
        g2chi2 = p.g * p.g * chi * chi
        a = (1.0 + r0) / den
        d_sigma = _times(pre, -a)
        yield d_sigma * (2.0 * p.g * chi)
        yield d_sigma * (-0.5 * g2chi2)
        yield d_sigma * (-1j * g2chi2)
        yield _times(pre, -1j * a)

    return m, columns


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
    res = _fit(trace, lambda w, p: omit_model(w, cavity, p, jacobian=True), guess, names)
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
    with read_table(path) as arr:
        f, re, im = arr.T
        if fmt == "db_phase":
            with np.errstate(over="ignore"):
                mag = 10.0 ** (re / 20.0)
            if not np.isfinite(mag).all():
                bad = int(np.argmin(np.isfinite(mag)))
                raise DataError(f"mag_db out of range, got {re[bad]}", row=bad)
            c = mag * np.exp(1j * im)
            re, im = c.real, c.imag
        return ComplexTrace(f_hz=f, re=re, im=im)


def save_trace(trace: ComplexTrace, path) -> None:
    """Write a trace as re_im CSV: "%.17e" cells, which read back bit for
    bit, and LF line ends."""
    write_table(path, ["f_hz", "re", "im"], [trace.f_hz, trace.re, trace.im])


def synthesize_trace(
    model_fn,
    f_hz: np.ndarray,
    snr_db: float | None = None,
    seed: int | None = None,
) -> ComplexTrace:
    """Evaluate model_fn(omega) on the grid and add complex Gaussian noise.

    Per-sample noise std is |R|_rms * 10^(-snr_db/20), split evenly between
    quadratures; noise beyond the float range is a NumericalError.
    snr_db=None yields a noiseless trace; otherwise a seed is required for
    determinism.
    """
    f_hz = np.asarray(f_hz, dtype=float)
    clean = np.asarray(model_fn(2.0 * np.pi * f_hz), dtype=complex)
    if snr_db is None:
        noisy = clean
    else:
        if seed is None:
            raise DataError("seed is required when synthesizing noisy traces")
        rng = np.random.default_rng(seed)
        with np.errstate(over="ignore", invalid="ignore"):  # non-finite noise is refused below
            try:  # a float power past the range raises
                sigma = float(np.sqrt(np.mean(np.abs(clean) ** 2))) * 10.0 ** (-snr_db / 20.0)
            except OverflowError:
                sigma = np.inf
            noise = (rng.standard_normal(len(f_hz)) + 1j * rng.standard_normal(len(f_hz))) * (
                sigma / np.sqrt(2.0)
            )
        if not np.isfinite(noise).all():
            raise NumericalError(f"noise at snr_db = {snr_db!r} is out of float range")
        noisy = clean + noise
    return ComplexTrace(f_hz=f_hz, re=noisy.real, im=noisy.imag)
