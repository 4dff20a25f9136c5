"""Electro-magno-mechanical Gaussian engine.

Linearized Langevin dynamics of a microwave mode a, mechanical mode b and
magnon mode c in the frame rotating at the pumps:

    eta_dot = A eta + B eta_in,      eta = [a, a+, b, b+, c, c+]

with input vector eta_in = [a_in, a_in+, a_ex, a_ex+, b_in, b_in+,
c_in, c_in+, c_ex, c_ex+].  The two measurable ports give out what leaks
through their external rate less the reflected drive, a_out = sqrt(kappa_a_ex)
a - a_ex and c_out = sqrt(kappa_c_ex) c - c_ex, so the frequency-domain
scattering S(w) is the a, a+, c, c+ rows of (-i w I - A)^{-1} B times
sqrt(kappa_ex), less 1 at a_ex and c_ex.  On it the output quadrature
covariance, each bath weighted by n + 1/2, the smallest symplectic
eigenvalue of the photon-magnon partial transpose, and the logarithmic
negativity are built.

Every stage runs over a stack of N points and takes what the one before
returns: `drift_matrices` (one broadcast) -> `stability` (one `eigvals`)
-> `output_covariance`, over `scattering` (one `solve`) ->
`symplectic_eigenvalue_min` -> `log_negativity`.  A failed point gets a
reason and fails alone.  `sweep` chains the stages over the points it is
given, and `evaluate_point` is its row for one point.
"""

from __future__ import annotations

from dataclasses import astuple

import numpy as np

from .errors import BracketError, DomainError, NumericalError
from .params import TripartiteParams

# the parameters `sweep` can put on an axis
SWEEP_AXES = ("g_b", "g_c", "delta_a", "delta_c")


def drift_matrices(p: TripartiteParams, grid: dict) -> np.ndarray:
    """(N, 6, 6) real drift matrices in the quadrature basis (X_a, Y_a, X_b,
    Y_b, X_c, Y_c), (X, Y) = u (a, a+); `grid` maps sweepable names to (N,)
    or broadcastable arrays replacing the values in `p`.  DomainError,
    naming the field, where the largest entry is over 2**52 times the
    smallest nonzero half loss rate: `eigvals` would lose that rate to
    round-off (a lossless mode has none to lose)."""
    if not set(grid) <= set(SWEEP_AXES):
        raise ValueError(f"cannot sweep parameter {min(set(grid) - set(SWEEP_AXES))!r}")
    names = ("delta_a", "delta_c", "g_b", "g_c", "omega_m")
    da, dc, gb, gc, om = (np.asarray(grid.get(k, getattr(p, k))) for k in names)
    entries = {k: np.abs(grid[k]).max(initial=0.0) if k in grid else abs(getattr(p, k)) for k in names}
    entries.update({"g_b": 2.0 * entries["g_b"], "kappa_a_in + kappa_a_ex": p.kappa_a / 2.0,
                    "kappa_c_in + kappa_c_ex": p.kappa_c / 2.0, "gamma": p.gamma / 2.0})
    top = max(entries, key=entries.get)
    halves = [rate / 2.0 for rate in (p.kappa_a, p.gamma, p.kappa_c) if rate]
    if halves and entries[top] * 2.0**-52 > min(halves):
        raise DomainError(f"{top} must keep every drift entry within 2**52 times the smallest "
                          "nonzero half loss rate")
    A = np.zeros((np.broadcast(da, dc, gb, gc, om).size, 6, 6))
    for i, (detuning, loss) in enumerate(((da, p.kappa_a), (om, p.gamma), (dc, p.kappa_c))):
        A[:, 2 * i, 2 * i] = A[:, 2 * i + 1, 2 * i + 1] = -loss / 2.0
        A[:, 2 * i, 2 * i + 1], A[:, 2 * i + 1, 2 * i] = detuning, -detuning
    A[:, 1, 2] = A[:, 3, 0] = -2.0 * gb  # X_b pushes Y_a and X_a pushes Y_b
    A[:, 0, 5] = A[:, 4, 1] = gc  # beam splitter between a and c
    A[:, 1, 4] = A[:, 5, 0] = -gc
    return A


def _ladder(Aq: np.ndarray) -> np.ndarray:
    """The drift stack in the (a, a+, b, b+, c, c+) basis, exactly: each
    quadrature block [[w, x], [y, z]] becomes [[d, o], [o*, d*]]."""
    w, x, y, z = Aq[:, ::2, ::2], Aq[:, ::2, 1::2], Aq[:, 1::2, ::2], Aq[:, 1::2, 1::2]
    A = np.empty(Aq.shape, dtype=complex)
    A[:, ::2, ::2] = d = (w + z) / 2.0 + 1j * ((y - x) / 2.0)
    A[:, ::2, 1::2] = o = (w - z) / 2.0 + 1j * ((y + x) / 2.0)
    A[:, 1::2, ::2], A[:, 1::2, 1::2] = o.conj(), d.conj()
    return A


def input_matrix(p: TripartiteParams) -> np.ndarray:
    """6x10 noise/drive input matrix with sqrt-rate entries."""
    rates = np.zeros((3, 5))  # modes a, b, c by baths a_in, a_ex, b_in, c_in, c_ex
    rates[0, :2] = p.kappa_a_in, p.kappa_a_ex
    rates[1, 2] = p.gamma
    rates[2, 3:] = p.kappa_c_in, p.kappa_c_ex
    return np.kron(np.sqrt(rates), np.eye(2))


def _stability_unit(p: TripartiteParams, Aq: np.ndarray):
    """The unit of `stability`'s threshold, per row of a quadrature drift
    stack: kappa_a, or for a lossless cavity the largest ladder-basis
    |diagonal|, |loss/2 + i detuning|."""
    if p.kappa_a:
        return np.full(len(Aq), p.kappa_a)
    i = np.arange(0, 6, 2)
    return np.abs(Aq[:, i, i] + 1j * Aq[:, i, i + 1]).max(axis=1)


def stability(p: TripartiteParams, Aq: np.ndarray):
    """Stability verdicts and largest real eigenvalue parts of a quadrature
    drift stack: stable iff every eigenvalue has real part below -1e-12
    `_stability_unit`, so a margin within that of zero counts as unstable."""
    try:
        max_re = np.linalg.eigvals(Aq).real.max(axis=-1)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigen-solver failed: {exc}") from exc
    return max_re < -1e-12 * _stability_unit(p, Aq), max_re


def scattering(omega: float, p: TripartiteParams, Aq: np.ndarray):
    """S(w) (N, 4, 10) of a quadrature drift stack in the ladder basis,
    outputs (a_out, a_out+, c_out, c_out+): the port rows of X = (-i w I -
    A)^{-1} B times sqrt(kappa_ex), less the reflected drive; and {row:
    reason} where the resolvent's 1-norm condition number, from the
    explicit inverse, is above 1e12 or not finite (solved against I)."""
    M = -1j * omega * np.eye(6) - _ladder(Aq)
    cond = np.linalg.cond(M, 1)
    poles = {int(i): f"resolvent nearly singular at omega={omega:.6e} rad/s (condition estimate {cond[i]:.3e})"
             for i in np.flatnonzero(~(cond <= 1e12))}
    M[list(poles)] = np.eye(6)
    X = np.linalg.solve(M, input_matrix(p))
    S = X[:, [0, 1, 4, 5]] * np.sqrt([[p.kappa_a_ex], [p.kappa_a_ex], [p.kappa_c_ex], [p.kappa_c_ex]])
    S[:, [0, 1, 2, 3], [2, 3, 8, 9]] -= 1.0  # a_ex, a_ex+, c_ex, c_ex+
    return S, poles


# quadrature rotation u: (X, Y) = u (a, a+)
_U = np.array([[1.0, 1.0], [-1.0j, 1.0j]]) / np.sqrt(2.0)
_R2 = np.kron(np.eye(2), _U)
_R5 = np.kron(np.eye(5), _U)


def output_covariance(omega: float, p: TripartiteParams, Aq: np.ndarray):
    """Real, symmetric output-quadrature covariances V = Re[(S_q W)
    S_q^dagger] (N, 4, 4) at w in the (X_a, Y_a, X_c, Y_c) basis, W
    weighting each input quadrature's column of S_q by its bath's n + 1/2,
    with `scattering`'s near-pole rows.  S is solved in the ladder basis:
    zeta- magnifies roundoff in V up to 1e8-fold."""
    s, poles = scattering(omega, p, Aq)
    sq = _R2 @ s @ _R5.conj().T
    weight = np.repeat(np.asarray(astuple(p.occupations)) + 0.5, 2)
    with np.errstate(over="ignore", invalid="ignore"):  # such a row fails in `symplectic_eigenvalue_min`
        V = np.real((sq * weight) @ sq.conj().transpose(0, 2, 1))
        return 0.5 * (V + V.transpose(0, 2, 1)), poles


def symplectic_eigenvalue_min(V: np.ndarray):
    """Smallest symplectic eigenvalue of each partially transposed (4, 4)
    covariance in V: zeta- = sqrt((Sigma - sqrt(Sigma^2 - 4 det V)) / 2),
    Sigma = det V_a + det V_c - 2 det V_ac; with {row: reason} for the non-finite,
    asymmetric, unphysical or degenerate rows (an overflow gives such a row, not a warning)."""
    with np.errstate(all="ignore"):
        det_v = np.linalg.det(V)
        sigma = np.linalg.det(V[:, :2, :2]) + np.linalg.det(V[:, 2:, 2:]) - 2.0 * np.linalg.det(V[:, :2, 2:])
        disc = sigma * sigma - 4.0 * det_v
        inner = (sigma - np.sqrt(np.maximum(disc, 0.0))) / 2.0
        zeta = np.sqrt(np.maximum(inner, 0.0))
        scale = np.maximum(np.abs(V).max(axis=(1, 2)), 1.0)
        asymmetric = np.abs(V - V.transpose(0, 2, 1)).max(axis=(1, 2)) > 1e-10 * scale
        unphysical = disc < -1e-9 * sigma * sigma
    errors = {}
    for i in np.flatnonzero(unphysical | asymmetric | ~(zeta > 0)):
        if not np.isfinite(V[i]).all():
            reason = "covariance has non-finite entries"
        elif asymmetric[i]:
            reason = "covariance not symmetric"
        elif unphysical[i]:
            reason = f"covariance not physical: Sigma^2 - 4 det V = {disc[i]:.3e} < 0"
        elif inner[i] < -1e-9 * abs(sigma[i]):
            reason = "covariance not physical: negative symplectic square"
        elif np.isnan(zeta[i]):  # V is finite, so a determinant overflowed
            reason = "covariance determinants outside the float range: zeta- = nan"
        else:
            reason = f"degenerate covariance: zeta- = {zeta[i]:g}"
        errors[int(i)] = reason
    return zeta, errors


def log_negativity(zeta):
    """E_N = max(0, -ln 2 zeta-) per point, natural log; NaN stays NaN."""
    return np.maximum(-np.log(2.0 * zeta), 0.0)


def evaluate_point(omega: float, p: TripartiteParams) -> dict:
    """`sweep`'s row for the point `p` at frequency omega: `stable`,
    `max_re`, `zeta_minus` and `log_negativity` (NaN when unstable or
    failed) and `error`."""
    return {k: v[0] for k, v in sweep(p, {}, omega).items()}


def sweep(p: TripartiteParams, points: dict[str, np.ndarray], omega: float = 0.0) -> dict:
    """Evaluate the points whose coordinates `points` maps from any subset of
    {g_b, g_c, delta_a, delta_c} to equal-length or broadcastable columns,
    as `drift_matrices` takes them; a grid is meshed by the caller.

    Returns per point, in the order given, `stable`, `max_re`, `zeta_minus`
    and `log_negativity` (NaN when unstable or failed) and `error` (why a
    stable point failed, else None).
    """
    A = drift_matrices(p, points)
    stable, max_re = stability(p, A)
    idx = np.flatnonzero(stable)
    V, poles = output_covariance(omega, p, A[idx])
    zeta, errors = symplectic_eigenvalue_min(V)
    errors.update(poles)  # a near pole is the first failure
    zeta[list(errors)] = np.nan
    zeta_minus = np.full(len(stable), np.nan)
    zeta_minus[idx] = zeta
    error = np.full(len(stable), None, dtype=object)
    error[idx[list(errors)]] = list(errors.values())
    return {"stable": stable, "max_re": max_re, "zeta_minus": zeta_minus,
            "log_negativity": log_negativity(zeta_minus), "error": error}


_CRITICAL_RTOL = 1e-6
_CRITICAL_MAX_STEPS = 100


def critical_coupling(p: TripartiteParams, axis: str, bracket: tuple[float, float]) -> float:
    """Stability boundary along g_b or g_c, with the bracket in either order,
    to a bracket width of 2e-12 + _CRITICAL_RTOL |g| (brentq's stopping rule).

    The root of the margin max Re(eig) + 1e-12 `_stability_unit`, which is
    continuous in the coupling (the unit holds none) and whose sign is the
    `stability` verdict, is found by an Illinois regula falsi (Dowell &
    Jarratt, BIT 11, 168, 1971): when the same end is kept twice, its
    margin is halved.  The margin is small at a stable end (-gamma/2 at
    g = 0) and large at an unstable one (~1e7 s^-1 at 10 MHz), so plain
    interpolation lands next to the stable end and crawls; past the first
    step each trial point keeps (hi - lo)/32 from either end."""
    if axis not in ("g_b", "g_c"):
        raise ValueError(f"axis must be g_b or g_c, got {axis!r}")

    def margin(g: float) -> float:
        A = drift_matrices(p, {axis: np.array([g])})
        return float(stability(p, A)[1][0] + 1e-12 * _stability_unit(p, A)[0])

    lo, hi = sorted(bracket)
    f_lo, f_hi = margin(lo), margin(hi)
    if (f_lo < 0) == (f_hi < 0):
        raise BracketError(
            f"stability verdict identical at both bracket endpoints "
            f"({axis}={lo:.6e} -> {f_lo:.3e}, {axis}={hi:.6e} -> {f_hi:.3e})"
        )
    kept = 0  # the end kept by the last step: -1 lo, +1 hi
    for step in range(_CRITICAL_MAX_STEPS):
        g = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)  # returned once the bracket is narrow
        if hi - lo <= 2e-12 + _CRITICAL_RTOL * abs(g):
            return g
        if step:
            pad = max((hi - lo) / 32.0, 0.4 * _CRITICAL_RTOL * abs(g))
            g = min(max(g, lo + pad), hi - pad)
        f = margin(g)
        if (f < 0) == (f_lo < 0):
            lo, f_lo, f_hi = g, f, f_hi / 2.0 if kept == 1 else f_hi
            kept = 1
        else:
            hi, f_hi, f_lo = g, f, f_lo / 2.0 if kept == -1 else f_lo
            kept = -1
    raise NumericalError(f"no {axis} boundary to rtol {_CRITICAL_RTOL:g} in {_CRITICAL_MAX_STEPS} steps")
