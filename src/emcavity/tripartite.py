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
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import BracketError, DomainError, NearPoleError, NumericalError
from .params import TripartiteParams

# quadrature rotation u: (X, Y) = u (a, a+)
_U = np.array([[1.0, 1.0], [-1.0j, 1.0j]]) / np.sqrt(2.0)
_R2 = np.kron(np.eye(2), _U)
_R5 = np.kron(np.eye(5), _U)


def drift_matrix(p: TripartiteParams) -> np.ndarray:
    """6x6 drift matrix in the (a, a+, b, b+, c, c+) basis."""
    da, dc, om = p.delta_a, p.delta_c, p.omega_m
    gb, gc = p.g_b, p.g_c
    ka2, kc2, g2 = p.kappa_a / 2.0, p.kappa_c / 2.0, p.gamma / 2.0
    A = np.array(
        [
            [-1j * da - ka2, 0, -1j * gb, -1j * gb, -1j * gc, 0],
            [0, 1j * da - ka2, 1j * gb, 1j * gb, 0, 1j * gc],
            [-1j * gb, -1j * gb, -1j * om - g2, 0, 0, 0],
            [1j * gb, 1j * gb, 0, 1j * om - g2, 0, 0],
            [-1j * gc, 0, 0, 0, -1j * dc - kc2, 0],
            [0, 1j * gc, 0, 0, 0, 1j * dc - kc2],
        ],
        dtype=complex,
    )
    return A


def input_matrix(p: TripartiteParams) -> np.ndarray:
    """6x10 noise/drive input matrix with sqrt-rate entries."""
    B = np.zeros((6, 10))
    sa_in, sa_ex = np.sqrt(p.kappa_a_in), np.sqrt(p.kappa_a_ex)
    sg = np.sqrt(p.gamma)
    sc_in, sc_ex = np.sqrt(p.kappa_c_in), np.sqrt(p.kappa_c_ex)
    B[0, 0] = B[1, 1] = sa_in
    B[0, 2] = B[1, 3] = sa_ex
    B[2, 4] = B[3, 5] = sg
    B[4, 6] = B[5, 7] = sc_in
    B[4, 8] = B[5, 9] = sc_ex
    return B


def output_matrix(p: TripartiteParams) -> np.ndarray:
    """4x6 map from intracavity operators to the two output ports."""
    C = np.zeros((4, 6))
    C[0, 0] = C[1, 1] = np.sqrt(p.kappa_a_ex)
    C[2, 4] = C[3, 5] = np.sqrt(p.kappa_c_ex)
    return C


def feedthrough_matrix() -> np.ndarray:
    """4x10 selector of the externally applied inputs."""
    D = np.zeros((4, 10))
    D[0, 2] = D[1, 3] = 1.0
    D[2, 8] = D[3, 9] = 1.0
    return D


def is_stable(A: np.ndarray, scale: float | None = None) -> tuple[bool, float]:
    """Stability verdict from the drift-matrix spectrum.

    Stable iff every eigenvalue has negative real part.  A margin within
    1e-12*scale of zero classifies as unstable (marginal); scale defaults
    to the largest |diagonal| of A.
    """
    try:
        eigvals = np.linalg.eigvals(np.asarray(A, dtype=complex))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigen-solver failed: {exc}") from exc
    max_re = float(np.max(eigvals.real))
    if scale is None:
        scale = float(np.max(np.abs(np.diag(A)))) or 1.0
    return max_re < -1e-12 * scale, max_re


def stability(p: TripartiteParams) -> tuple[bool, float]:
    """is_stable for a parameter set, with the margin scale set by kappa_a."""
    return is_stable(drift_matrix(p), scale=p.kappa_a or None)


def scattering(omega: float, p: TripartiteParams) -> np.ndarray:
    """4x10 scattering S(w) = C (-i w I - A)^{-1} B - D via column-wise
    linear solves; outputs (a_out, a_out+, c_out, c_out+)."""
    A = drift_matrix(p)
    M = -1j * omega * np.eye(6) - A
    cond = np.linalg.cond(M)
    if not np.isfinite(cond) or cond > 1e12:
        raise NearPoleError(omega, cond)
    X = np.linalg.solve(M, input_matrix(p).astype(complex))
    return output_matrix(p) @ X - feedthrough_matrix()


def quadrature_scattering(s: np.ndarray) -> np.ndarray:
    """S_q = R2 S R5^{-1} mapping input quadratures to output quadratures."""
    return _R2 @ s @ _R5.conj().T


def noise_matrix(p: TripartiteParams) -> np.ndarray:
    """10x10 diagonal input noise matrix (n + 1/2 per bath, per quadrature)."""
    occ = np.asarray(p.occupations.as_tuple())
    return np.kron(np.diag(occ + 0.5), np.eye(2))


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

    @property
    def block_a(self) -> np.ndarray:
        return self.entries[:2, :2]

    @property
    def block_c(self) -> np.ndarray:
        return self.entries[2:, 2:]

    @property
    def block_ac(self) -> np.ndarray:
        return self.entries[:2, 2:]


def output_covariance(omega: float, p: TripartiteParams) -> CovarianceMatrix:
    """Output-quadrature covariance V = Re[S_q N S_q^dagger] at frequency w,
    real and symmetric at every frequency."""
    sq = quadrature_scattering(scattering(omega, p))
    V = np.real(sq @ noise_matrix(p) @ sq.conj().T)
    V = 0.5 * (V + V.T)
    return CovarianceMatrix(entries=V)


def symplectic_eigenvalue_min(v: CovarianceMatrix) -> float:
    """Smallest symplectic eigenvalue of the partially transposed covariance.

    zeta- = sqrt((Sigma - sqrt(Sigma^2 - 4 det V)) / 2),
    Sigma = det V_a + det V_c - 2 det V_ac.
    """
    V = v.entries
    det_v = float(np.linalg.det(V))
    sigma = (
        float(np.linalg.det(v.block_a))
        + float(np.linalg.det(v.block_c))
        - 2.0 * float(np.linalg.det(v.block_ac))
    )
    disc = sigma * sigma - 4.0 * det_v
    if disc < 0:
        if disc < -1e-9 * sigma * sigma:
            raise NumericalError(
                f"covariance not physical: Sigma^2 - 4 det V = {disc:.3e} < 0"
            )
        disc = 0.0
    inner = (sigma - np.sqrt(disc)) / 2.0
    if inner < 0:
        if inner < -1e-9 * abs(sigma):
            raise NumericalError("covariance not physical: negative symplectic square")
        inner = 0.0
    zeta = float(np.sqrt(inner))
    if zeta <= 0:
        raise NumericalError("degenerate covariance: zeta- = 0")
    return zeta


def log_negativity(v: CovarianceMatrix, base: str = "e") -> float:
    """E_N = max(0, -log 2 zeta-); natural log by default, base-2 by flag."""
    zeta = symplectic_eigenvalue_min(v)
    val = -np.log(2.0 * zeta)
    if base == "2":
        val /= np.log(2.0)
    elif base != "e":
        raise ValueError(f"unknown log base: {base!r}")
    return max(0.0, float(val))


@dataclass(frozen=True)
class EntanglementResult:
    zeta_minus: float | None
    log_negativity: float | None
    stable: bool
    max_re_eigenvalue: float
    error: str | None = None


def evaluate_point(omega: float, p: TripartiteParams, base: str = "e") -> EntanglementResult:
    """Stability plus entanglement at one frequency; formal values suppressed
    when unstable."""
    stable, max_re = stability(p)
    if not stable:
        return EntanglementResult(None, None, False, max_re)
    try:
        v = output_covariance(omega, p)
        zeta = symplectic_eigenvalue_min(v)
        en = log_negativity(v, base=base)
    except (NumericalError, DomainError) as exc:
        return EntanglementResult(None, None, True, max_re, error=str(exc))
    return EntanglementResult(zeta, en, True, max_re)


_SWEEPABLE = ("g_b", "g_c", "delta_a", "delta_c")


def sweep(p: TripartiteParams, axes: dict[str, np.ndarray], omega: float = 0.0):
    """Grid sweep over any subset of {g_b, g_c, delta_a, delta_c}.

    Returns a list of (overrides, EntanglementResult) rows in lexicographic
    order over the axes as given.  Per-point errors are recorded in-row.
    """
    from dataclasses import replace

    for name in axes:
        if name not in _SWEEPABLE:
            raise ValueError(f"cannot sweep parameter {name!r}")
    names = list(axes)
    rows = []
    for values in product(*(np.asarray(axes[n], dtype=float) for n in names)):
        overrides = dict(zip(names, (float(v) for v in values)))
        point = replace(p, **overrides)
        rows.append((overrides, evaluate_point(omega, point)))
    return rows


def critical_coupling(
    p: TripartiteParams,
    axis: str,
    bracket: tuple[float, float],
    rel_tol: float = 1e-6,
) -> float:
    """Bisection on the stability boundary along g_b or g_c."""
    from dataclasses import replace

    if axis not in ("g_b", "g_c"):
        raise ValueError(f"axis must be g_b or g_c, got {axis!r}")

    def margin(g: float) -> float:
        return stability(replace(p, **{axis: g}))[1]

    lo, hi = bracket
    f_lo, f_hi = margin(lo), margin(hi)
    if (f_lo < 0) == (f_hi < 0):
        raise BracketError(
            f"stability verdict identical at both bracket endpoints "
            f"({axis}={lo:.6e} -> {f_lo:.3e}, {axis}={hi:.6e} -> {f_hi:.3e})"
        )
    if f_lo > f_hi:
        lo, hi = hi, lo
        f_lo, f_hi = f_hi, f_lo
    # invariant: margin(lo) < 0 <= margin(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if abs(hi - lo) <= rel_tol * max(abs(lo), abs(hi), 1e-300):
            break
        if margin(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
