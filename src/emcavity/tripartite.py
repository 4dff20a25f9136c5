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
returns: `resolve` (each point's numbers, w among them) -> `drift_matrices` (one
broadcast) -> `stability` (one `eigvals`) -> `output_covariance`, over
`scattering` (one `solve`) -> `symplectic_eigenvalue_min` -> `log_negativity`.
A failed point gets a reason and fails alone.  `sweep` chains the stages
over the points it is given, and `evaluate_point` is its row for one point.
`resolve`, `drift_matrices` and `stability` run on the whole grid, about
0.5 KB a point; `output_covariance` -> `symplectic_eigenvalue_min` run on at
most 256 stable rows at a time, so a 200x200 `tripartite sweep` peaks near
58 MB RSS.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np

from .errors import DomainError, NumericalError
from .params import Occupations, TripartiteParams, meets, violation

# every number of a point, each a field an axis can sweep, with its bound
_BOUNDS = {f.name: f.metadata.get("bound") for cls in (TripartiteParams, Occupations)
           for f in fields(cls) if "record" not in f.metadata}
SWEEP_AXES = tuple(_BOUNDS)
# the drift entries the 2**52 rule compares, the last three the half loss rates
_TERMS = ("delta_a", "delta_c", "g_b", "g_c", "omega_m", "kappa_a_in + kappa_a_ex", "kappa_c_in + kappa_c_ex", "gamma")


def resolve(p: TripartiteParams, grid: dict) -> dict:
    """{name: (N,) float column} of SWEEP_AXES: its `grid` column, or its value in `p`,
    broadcast to the grid's length N (1 if empty).  A column must be finite and
    meet its field's bound, as `Checked` requires (DomainError); another name is a ValueError."""
    if not grid.keys() <= _BOUNDS.keys():
        raise ValueError(f"cannot sweep parameter {min(grid.keys() - _BOUNDS.keys())!r}")
    given = {**vars(p), **vars(p.occupations), **grid}
    x = dict(zip(_BOUNDS, np.empty((len(_BOUNDS),) + np.broadcast_shapes((1,), *map(np.shape, grid.values())))))
    for k, column in x.items():
        column[...] = given[k]
    for name in grid:
        bad = ~(np.isfinite(x[name]) & meets(x[name], _BOUNDS[name]))
        if bad.any():
            raise DomainError(violation(name, x[name][bad][0], _BOUNDS[name]))
    return x


def drift_matrices(x: dict) -> np.ndarray:
    """(N, 6, 6) real drift matrices in the quadrature basis (X_a, Y_a, X_b,
    Y_b, X_c, Y_c), (X, Y) = u (a, a+), of `resolve`'s values `x`, one per
    point of its columns.  DomainError, naming the largest term of the first
    point at fault, where a point's largest entry is over 2**52 times its own
    smallest nonzero half loss rate: `eigvals` would lose that rate to
    round-off (a lossless mode has none to lose); no row depends on another."""
    da, dc, gb, gc, om, gamma = (x[k] for k in ("delta_a", "delta_c", "g_b", "g_c", "omega_m", "gamma"))
    ka, kc = x["kappa_a_in"] + x["kappa_a_ex"], x["kappa_c_in"] + x["kappa_c_ex"]
    entries = np.abs([da, dc, 2.0 * gb, gc, om, ka / 2.0, kc / 2.0, gamma / 2.0])
    halves = entries[5:]
    bad = entries.max(axis=0) * 2.0**-52 > np.min(halves, axis=0, where=halves > 0.0, initial=np.inf)
    if bad.any():
        top = int(np.argmax(entries[:, np.argmax(bad)]))  # on a tie, the first in _TERMS
        raise DomainError(f"{_TERMS[top]} must keep every drift entry within 2**52 times the smallest "
                          "nonzero half loss rate")
    A = np.zeros((len(da), 6, 6))
    for i, (detuning, loss) in enumerate(((da, ka), (om, gamma), (dc, kc))):
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


def input_matrix(x: dict) -> np.ndarray:
    """(N, 6, 10) noise/drive input matrices with sqrt-rate entries of
    `resolve`'s values `x`, one per point."""
    names = ("kappa_a_in", "kappa_a_ex", "gamma", "kappa_c_in", "kappa_c_ex")  # baths a_in, a_ex, b_in, c_in, c_ex
    rates = np.array([x[k] for k in names]).T
    B = np.zeros((len(rates), 6, 10))
    B[:, [0, 1, 0, 1, 2, 3, 4, 5, 4, 5], np.arange(10)] = np.sqrt(np.repeat(rates, 2, axis=-1))  # into its mode
    return B


def stability(Aq: np.ndarray):
    """Stability verdicts and largest real eigenvalue parts of a quadrature
    drift stack: stable iff every eigenvalue has real part below -1e-12 times the
    row's kappa_a, -2 A[0, 0] (if 0, its largest ladder-basis |loss/2 + i detuning|)."""
    try:
        max_re = np.linalg.eigvals(Aq).real.max(axis=-1)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigen-solver failed: {exc}") from exc
    i, kappa_a = np.arange(0, 6, 2), -2.0 * Aq[:, 0, 0]
    unit = np.where(kappa_a > 0.0, kappa_a, np.abs(Aq[:, i, i] + 1j * Aq[:, i, i + 1]).max(axis=1))
    return max_re < -1e-12 * unit, max_re


def scattering(Aq: np.ndarray, x: dict):
    """S(w) (N, 4, 10) of a quadrature drift stack and `resolve`'s values `x` at
    its points, each at its w, in the ladder basis, outputs (a_out, a_out+,
    c_out, c_out+): the port rows of X = (-i w I - A)^{-1} B (`input_matrix`)
    times sqrt(kappa_ex), read off B, less the reflected drive; and {row:
    reason} where the resolvent's 1-norm condition number, from the explicit
    inverse, is above 1e12 or not finite (solved against I)."""
    w, B = x["omega"], input_matrix(x)
    M = -1j * w[:, None, None] * np.eye(6) - _ladder(Aq)
    cond = np.linalg.cond(M, 1)
    poles = {int(i): f"resolvent nearly singular at omega={w[i]:.6e} rad/s (condition estimate {cond[i]:.3e})"
             for i in np.flatnonzero(~(cond <= 1e12))}
    M[list(poles)] = np.eye(6)
    X = np.linalg.solve(M, B)
    S = X[:, [0, 1, 4, 5]] * B[..., [0, 1, 4, 5], [2, 3, 8, 9], None]  # sqrt(kappa_a_ex), sqrt(kappa_c_ex)
    S[:, [0, 1, 2, 3], [2, 3, 8, 9]] -= 1.0  # a_ex, a_ex+, c_ex, c_ex+
    return S, poles


# quadrature rotation u: (X, Y) = u (a, a+)
_U = np.array([[1.0, 1.0], [-1.0j, 1.0j]]) / np.sqrt(2.0)
_R2 = np.kron(np.eye(2), _U)
_R5 = np.kron(np.eye(5), _U)


def output_covariance(Aq: np.ndarray, x: dict):
    """Real, symmetric output-quadrature covariances V = Re[(S_q W) S_q^dagger]
    (N, 4, 4) in the (X_a, Y_a, X_c, Y_c) basis of a drift stack and
    `resolve`'s values `x` at its points, each at its w, W (N, 10) weighting
    each input quadrature's column of S_q by its bath's n + 1/2, with
    `scattering`'s near-pole rows.  S is solved in the ladder basis: zeta-
    magnifies roundoff in V up to 1e8-fold."""
    s, poles = scattering(Aq, x)
    sq = _R2 @ s @ _R5.conj().T
    weight = np.repeat(np.array([x[f.name] for f in fields(Occupations)]).T + 0.5, 2, axis=-1)
    with np.errstate(over="ignore", invalid="ignore"):  # such a row fails in `symplectic_eigenvalue_min`
        V = np.real((sq * weight[:, None, :]) @ sq.conj().transpose(0, 2, 1))
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


def evaluate_point(p: TripartiteParams) -> dict:
    """`sweep`'s row for the point `p`, at its output frequency `p.omega`: `stable`,
    `max_re`, `zeta_minus`, `log_negativity` and `error`."""
    return {k: v[0] for k, v in sweep(p, {}).items()}


# stable rows per output block: `output_covariance` -> `symplectic_eigenvalue_min` hold
# ~3.8 KB of temporaries a row, so a block of them stays near 1 MB, inside a 2 MB L2 cache
_OUTPUT_BLOCK = 256


def sweep(p: TripartiteParams, points: dict[str, np.ndarray]) -> dict:
    """Evaluate the points whose coordinates `points` maps from any subset of
    SWEEP_AXES to equal-length or broadcastable columns, each checked by
    `resolve` in place of its field; a grid is meshed by the caller.

    Returns per point, in the order given, `stable`, `max_re`, `zeta_minus`
    and `log_negativity` (NaN when unstable or failed) and `error` (why a
    stable point failed, else None).  The output stage runs on _OUTPUT_BLOCK
    stable rows at a time; no row depends on another, so the blocks change no
    value.
    """
    x = resolve(p, points)
    A = drift_matrices(x)
    stable, max_re = stability(A)
    zeta_minus = np.full(len(stable), np.nan)
    error = np.full(len(stable), None, dtype=object)
    idx = np.flatnonzero(stable)
    for start in range(0, max(len(idx), 1), _OUTPUT_BLOCK):  # once where no row is stable
        rows = idx[start:start + _OUTPUT_BLOCK]
        V, poles = output_covariance(A[rows], {k: v[rows] for k, v in x.items()})
        zeta, errors = symplectic_eigenvalue_min(V)
        errors.update(poles)  # a near pole is the first failure
        zeta[list(errors)] = np.nan
        zeta_minus[rows] = zeta
        error[rows[list(errors)]] = list(errors.values())
    return {"stable": stable, "max_re": max_re, "zeta_minus": zeta_minus,
            "log_negativity": log_negativity(zeta_minus), "error": error}


_CRITICAL_RTOL = 1e-6


def critical_coupling(p: TripartiteParams, axis: str, bracket: tuple[float, float]) -> float:
    """Stability boundary along g_b or g_c, with the bracket in either order:
    the bracket is bisected on the `stability` verdict, and its midpoint is
    returned once its width is at most 2e-12 + _CRITICAL_RTOL |g|
    (brentq's stopping rule).  DomainError where both ends share a verdict."""
    if axis not in ("g_b", "g_c"):
        raise ValueError(f"axis must be g_b or g_c, got {axis!r}")

    def verdicts(*g: float):
        return stability(drift_matrices(resolve(p, {axis: np.array(g)})))

    lo, hi = sorted(bracket)
    stable, max_re = verdicts(lo, hi)  # both ends in one stack
    if stable[0] == stable[1]:
        raise DomainError(
            f"stability verdict identical at both bracket endpoints "
            f"({axis}={lo:.6e} -> {max_re[0]:.3e}, {axis}={hi:.6e} -> {max_re[1]:.3e})"
        )
    while True:
        g = lo / 2.0 + hi / 2.0  # (lo + hi) / 2 may overflow
        if hi - lo <= 2e-12 + _CRITICAL_RTOL * abs(g):
            return g
        if verdicts(g)[0][0] == stable[0]:
            lo = g
        else:
            hi = g
