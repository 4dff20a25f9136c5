"""Electro-magno-mechanical Gaussian engine.

Linearized Langevin dynamics of a microwave mode a, mechanical mode b and
magnon mode c in the frame rotating at the pumps:

    eta_dot = A eta + B eta_in,      eta = [a, a+, b, b+, c, c+]

with input vector eta_in = [a_in, a_in+, a_ex, a_ex+, b_in, b_in+,
c_in, c_in+, c_ex, c_ex+].  The output fields of the two measurable ports
follow from input-output relations, giving the frequency-domain scattering

    S(w) = C (-i w I - A)^{-1} B - D

on which the output quadrature covariance, the smallest symplectic
eigenvalue of the photon-magnon partial transpose, and the logarithmic
negativity are built.

It runs over stacks of N points: one broadcast builds the real (N, 6, 6)
quadrature-basis drift matrices, one `eigvals` gives stability, one `solve`
the stable points' resolvents, and zeta- and E_N follow in closed form, with
a reason for each failed point.  The scalar functions are the N = 1 case.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import BracketError, DomainError, NearPoleError, NumericalError
from .params import TripartiteParams

# the parameters `sweep` can put on an axis
SWEEP_AXES = ("g_b", "g_c", "delta_a", "delta_c")


def drift_matrices(p: TripartiteParams, grid: dict) -> np.ndarray:
    """(N, 6, 6) real drift matrices in the quadrature basis (X_a, Y_a, X_b,
    Y_b, X_c, Y_c), (X, Y) = u (a, a+); `grid` maps sweepable names to (N,)
    arrays replacing the values in `p`."""
    names = ("delta_a", "delta_c", "g_b", "g_c", "omega_m")
    da, dc, gb, gc, om = (np.asarray(grid.get(k, getattr(p, k))) for k in names)
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


def drift_matrix(p: TripartiteParams) -> np.ndarray:
    """6x6 drift matrix in the (a, a+, b, b+, c, c+) basis."""
    return _ladder(drift_matrices(p, {}))[0]


def input_matrix(p: TripartiteParams) -> np.ndarray:
    """6x10 noise/drive input matrix with sqrt-rate entries."""
    rates = np.zeros((3, 5))  # modes a, b, c by baths a_in, a_ex, b_in, c_in, c_ex
    rates[0, :2] = p.kappa_a_in, p.kappa_a_ex
    rates[1, 2] = p.gamma
    rates[2, 3:] = p.kappa_c_in, p.kappa_c_ex
    return np.kron(np.sqrt(rates), np.eye(2))


def output_matrix(p: TripartiteParams) -> np.ndarray:
    """4x6 map from intracavity operators to the two output ports."""
    return np.kron([[np.sqrt(p.kappa_a_ex), 0.0, 0.0], [0.0, 0.0, np.sqrt(p.kappa_c_ex)]], np.eye(2))


def feedthrough_matrix() -> np.ndarray:
    """4x10 selector of the externally applied inputs a_ex and c_ex."""
    return np.kron([[0.0, 1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0, 1.0]], np.eye(2))


def _single(values, errors: dict):
    """The N = 1 case of a batched result: its value, or its failure raised."""
    if errors:
        raise errors[0]
    return values[0]


def is_stable(A: np.ndarray, scale) -> tuple:
    """Stability verdicts and largest real eigenvalue parts of a matrix or a
    stack of them: stable iff every eigenvalue has real part below
    -1e-12*scale, so a margin within that of zero counts as unstable."""
    try:
        max_re = np.linalg.eigvals(A).real.max(axis=-1)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigen-solver failed: {exc}") from exc
    return max_re < -1e-12 * scale, max_re


def _stability(p: TripartiteParams, Aq: np.ndarray):
    """is_stable for a drift stack; the margin unit is kappa_a, or for a
    lossless cavity the largest |diagonal| in the ladder basis."""
    return is_stable(Aq, p.kappa_a or np.abs(np.diagonal(_ladder(Aq), axis1=1, axis2=2)).max(axis=1))


def stability(p: TripartiteParams) -> tuple[bool, float]:
    """Stability verdict and largest real eigenvalue part for one point."""
    stable, max_re = _stability(p, drift_matrices(p, {}))
    return bool(stable[0]), float(max_re[0])


def _scattering(omega: float, p: TripartiteParams, A: np.ndarray):
    """S(w) (N, 4, 10) of a drift stack, and {row: NearPoleError} where the
    resolvent's condition number is above 1e12 or not finite (those rows
    are solved against the identity, so they cannot fail the stack)."""
    M = -1j * omega * np.eye(6) - A
    cond = np.linalg.cond(M)
    poles = {int(i): NearPoleError(omega, cond[i]) for i in np.flatnonzero(~(cond <= 1e12))}
    M[list(poles)] = np.eye(6)
    return output_matrix(p) @ np.linalg.solve(M, input_matrix(p)) - feedthrough_matrix(), poles


def scattering(omega: float, p: TripartiteParams) -> np.ndarray:
    """4x10 scattering S(w) = C (-i w I - A)^{-1} B - D in the ladder basis;
    outputs (a_out, a_out+, c_out, c_out+)."""
    return _single(*_scattering(omega, p, drift_matrix(p)[None]))


def noise_matrix(p: TripartiteParams) -> np.ndarray:
    """10x10 diagonal input noise matrix (n + 1/2 per bath, per quadrature)."""
    occ = np.asarray(p.occupations.as_tuple())
    return np.kron(np.diag(occ + 0.5), np.eye(2))


# quadrature rotation u: (X, Y) = u (a, a+)
_U = np.array([[1.0, 1.0], [-1.0j, 1.0j]]) / np.sqrt(2.0)
_R2 = np.kron(np.eye(2), _U)
_R5 = np.kron(np.eye(5), _U)


def _covariances(omega: float, p: TripartiteParams, Aq: np.ndarray):
    """Output-quadrature covariances V = Re[S_q N S_q^dagger] (N, 4, 4) of a
    quadrature-basis drift stack, with `_scattering`'s near-pole rows.  S is
    solved in the ladder basis: zeta- magnifies roundoff in V up to 1e8-fold."""
    s, poles = _scattering(omega, p, _ladder(Aq))
    sq = _R2 @ s @ _R5.conj().T
    V = np.real(sq @ noise_matrix(p) @ sq.conj().transpose(0, 2, 1))
    return 0.5 * (V + V.transpose(0, 2, 1)), poles


@dataclass(frozen=True)
class CovarianceMatrix:
    """4x4 real output covariance in the (X_a, Y_a, X_c, Y_c) basis."""

    entries: np.ndarray

    def __post_init__(self):
        V = np.asarray(self.entries, dtype=float)
        if not np.isfinite(V).all():
            raise NumericalError("covariance has non-finite entries")
        scale = max(np.max(np.abs(V)), 1.0)
        if np.max(np.abs(V - V.T)) > 1e-10 * scale:
            raise NumericalError("covariance not symmetric")
        object.__setattr__(self, "entries", V)


def output_covariance(omega: float, p: TripartiteParams) -> CovarianceMatrix:
    """Real, symmetric output-quadrature covariance Re[S_q N S_q^dagger] at w."""
    return CovarianceMatrix(entries=_single(*_covariances(omega, p, drift_matrices(p, {}))))


def _zeta_minus(V: np.ndarray):
    """Smallest symplectic eigenvalue of each partially transposed covariance.

    zeta- = sqrt((Sigma - sqrt(Sigma^2 - 4 det V)) / 2),
    Sigma = det V_a + det V_c - 2 det V_ac; with {row: NumericalError} for
    the unphysical or degenerate rows."""
    det_v = np.linalg.det(V)
    sigma = np.linalg.det(V[:, :2, :2]) + np.linalg.det(V[:, 2:, 2:]) - 2.0 * np.linalg.det(V[:, :2, 2:])
    disc = sigma * sigma - 4.0 * det_v
    inner = (sigma - np.sqrt(np.maximum(disc, 0.0))) / 2.0
    zeta = np.sqrt(np.maximum(inner, 0.0))
    errors = {}
    for i in np.flatnonzero((disc < -1e-9 * sigma * sigma) | ~(zeta > 0)):
        if not np.isfinite(V[i]).all():
            reason = "covariance has non-finite entries"
        elif disc[i] < -1e-9 * sigma[i] * sigma[i]:
            reason = f"covariance not physical: Sigma^2 - 4 det V = {disc[i]:.3e} < 0"
        elif inner[i] < -1e-9 * abs(sigma[i]):
            reason = "covariance not physical: negative symplectic square"
        else:
            reason = f"degenerate covariance: zeta- = {zeta[i]:g}"
        errors[int(i)] = NumericalError(reason)
    return zeta, errors


def symplectic_eigenvalue_min(v: CovarianceMatrix) -> float:
    """Smallest symplectic eigenvalue of the partially transposed covariance."""
    return float(_single(*_zeta_minus(v.entries[None])))


def _log_negativity(zeta):
    """E_N = max(0, -ln 2 zeta-) per point; NaN stays NaN."""
    return np.maximum(-np.log(2.0 * zeta), 0.0)


def log_negativity(v: CovarianceMatrix) -> float:
    """E_N = max(0, -ln 2 zeta-), natural log."""
    return float(_log_negativity(symplectic_eigenvalue_min(v)))


@dataclass(frozen=True)
class EntanglementResult:
    zeta_minus: float | None
    log_negativity: float | None
    stable: bool
    max_re_eigenvalue: float
    error: str | None = None


def evaluate_point(omega: float, p: TripartiteParams) -> EntanglementResult:
    """Stability plus entanglement at one frequency; formal values suppressed
    when unstable."""
    col = {k: v[0] for k, v in sweep(p, {}, omega).items()}
    zeta, en = float(col["zeta_minus"]), float(col["log_negativity"])
    if np.isnan(zeta):
        zeta = en = None
    return EntanglementResult(zeta, en, bool(col["stable"]), float(col["max_re"]), col["error"])


def sweep(p: TripartiteParams, axes: dict[str, np.ndarray], omega: float = 0.0) -> dict:
    """Grid sweep over any subset of {g_b, g_c, delta_a, delta_c}.

    Returns columns: one array per axis, the grid flattened in lexicographic
    order over the axes as given, then per point `stable`, `max_re`,
    `zeta_minus` and `log_negativity` (NaN when unstable or failed) and
    `error` (why a stable point failed, else None).
    """
    grids = np.meshgrid(*(np.asarray(axes[n], dtype=float) for n in axes), indexing="ij")
    columns = {n: g.ravel() for n, g in zip(axes, grids)}
    for name, values in columns.items():
        if name not in SWEEP_AXES:
            raise ValueError(f"cannot sweep parameter {name!r}")
        if not np.isfinite(values).all():
            raise DomainError(f"{name} must be finite")
    A = drift_matrices(p, columns)
    stable, max_re = _stability(p, A)
    idx = np.flatnonzero(stable)
    V, poles = _covariances(omega, p, A[idx])
    zeta, errors = _zeta_minus(V)
    errors.update(poles)  # a near pole is the first failure
    zeta[list(errors)] = np.nan
    zeta_minus = np.full(len(stable), np.nan)
    zeta_minus[idx] = zeta
    error = np.full(len(stable), None, dtype=object)
    error[idx[list(errors)]] = [str(exc) for exc in errors.values()]
    return {**columns, "stable": stable, "max_re": max_re, "zeta_minus": zeta_minus,
            "log_negativity": _log_negativity(zeta_minus), "error": error}


def critical_coupling(
    p: TripartiteParams,
    axis: str,
    bracket: tuple[float, float],
    rel_tol: float = 1e-6,
) -> float:
    """Stability boundary along g_b or g_c: Brent's method on the margin
    max Re(eig) + 1e-12 kappa_a, which is continuous in the coupling and
    whose sign is the `stability` verdict."""
    # imported here: scipy.optimize adds tens of MB to every CLI process
    from scipy.optimize import brentq

    if axis not in ("g_b", "g_c"):
        raise ValueError(f"axis must be g_b or g_c, got {axis!r}")

    def margin(g: float) -> float:
        return stability(replace(p, **{axis: g}))[1] + 1e-12 * p.kappa_a

    lo, hi = bracket
    f_lo, f_hi = margin(lo), margin(hi)
    if (f_lo < 0) == (f_hi < 0):
        raise BracketError(
            f"stability verdict identical at both bracket endpoints "
            f"({axis}={lo:.6e} -> {f_lo:.3e}, {axis}={hi:.6e} -> {f_hi:.3e})"
        )
    return brentq(margin, lo, hi, rtol=rel_tol)
