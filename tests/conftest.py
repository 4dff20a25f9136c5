import csv
import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from emcavity.constants import TWO_PI
from emcavity.params import CavityParams, Occupations, TripartiteParams


@pytest.fixture
def reference_cavity():
    """One-sided microwave cavity at the fitted device working point."""
    return CavityParams(
        omega_c=TWO_PI * 10.29184e9,
        kappa_in=TWO_PI * 0.41e6,
        kappa_ex=TWO_PI * 1.45e6,
    )


@pytest.fixture
def reference_tripartite():
    """Entangling working point: both pumps on the lower sideband."""
    return TripartiteParams(
        delta_a=-TWO_PI * 4.0e6,
        delta_c=-TWO_PI * 4.0e6,
        omega_m=TWO_PI * 4.0e6,
        g_b=TWO_PI * 2.78e6,
        g_c=TWO_PI * 6.43e6,
        kappa_a_in=TWO_PI * 0.8e6,
        kappa_a_ex=TWO_PI * 1.2e6,
        kappa_c_in=TWO_PI * 0.8e6,
        kappa_c_ex=TWO_PI * 1.2e6,
        gamma=TWO_PI * 100.0,
        occupations=Occupations(),
    )


def random_tripartite(rng: np.random.Generator, g_b_max_hz=5e6) -> TripartiteParams:
    """Random draw over the experimentally sensible parameter box."""
    return TripartiteParams(
        delta_a=TWO_PI * rng.uniform(-8e6, 8e6),
        delta_c=TWO_PI * rng.uniform(-8e6, 8e6),
        omega_m=TWO_PI * rng.uniform(1e6, 8e6),
        g_b=TWO_PI * rng.uniform(0.0, g_b_max_hz),
        g_c=TWO_PI * rng.uniform(0.0, 8e6),
        kappa_a_in=TWO_PI * rng.uniform(1e5, 2e6),
        kappa_a_ex=TWO_PI * rng.uniform(1e5, 2e6),
        kappa_c_in=TWO_PI * rng.uniform(1e5, 2e6),
        kappa_c_ex=TWO_PI * rng.uniform(1e5, 2e6),
        gamma=TWO_PI * rng.uniform(1e4, 1e5),
        occupations=Occupations(
            n_a_in=rng.uniform(0.0, 2.0),
            n_a_ex=rng.uniform(0.0, 2.0),
            n_b_in=rng.uniform(0.0, 50.0),
            n_c_in=rng.uniform(0.0, 2.0),
            n_c_ex=rng.uniform(0.0, 2.0),
        ),
    )


def mean_dynamics_decay_oracle(A: np.ndarray, initial, horizon: float) -> bool:
    """Propagate the noise-free mean dynamics and test norm decay.

    Returns True when ||eta(horizon)|| < 1e-3 ||eta(0)||, with the exact
    propagator eta(T) = expm(A T) eta(0).  Pade scaling and squaring does
    not use the eigendecomposition, so this stays independent of the
    spectrum `stability` reads.  Test oracle only; not part of any production
    path.
    """
    y0 = np.asarray(initial, dtype=complex)
    y = expm(np.asarray(A, dtype=complex) * horizon) @ y0
    return np.linalg.norm(y) < 1e-3 * np.linalg.norm(y0)


# Ladder-basis reference for the batched tripartite engine: the scalar,
# per-point formula it replaced, written against the physics and not the
# package.  Stability from the complex (a, a+, b, b+, c, c+) drift
# spectrum, the resolvent solved in that basis and rotated to quadratures.
_U = np.array([[1.0, 1.0], [-1.0j, 1.0j]]) / np.sqrt(2.0)
_R2 = np.kron(np.eye(2), _U)
_R5 = np.kron(np.eye(5), _U)


def quadrature_scattering(s: np.ndarray) -> np.ndarray:
    """S_q = R2 S R5^{-1} mapping input quadratures to output quadratures."""
    return _R2 @ s @ _R5.conj().T


def reference_point(omega: float, p: TripartiteParams):
    """(stable, max_re, zeta-, E_N, error) of one point; zeta- and E_N are
    None when unstable or failed, error is the reason a stable point failed."""
    da, dc, om, gb, gc = p.delta_a, p.delta_c, p.omega_m, p.g_b, p.g_c
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
    max_re = float(np.max(np.linalg.eigvals(A).real))
    if not max_re < -1e-12 * (p.kappa_a or float(np.max(np.abs(np.diag(A))))):
        return False, max_re, None, None, None
    M = -1j * omega * np.eye(6) - A
    cond = np.linalg.cond(M)
    if not np.isfinite(cond) or cond > 1e12:
        reason = f"resolvent nearly singular at omega={omega:.6e} rad/s (condition estimate {cond:.3e})"
        return True, max_re, None, None, reason
    B = np.zeros((6, 10))
    B[0, 0] = B[1, 1] = np.sqrt(p.kappa_a_in)
    B[0, 2] = B[1, 3] = np.sqrt(p.kappa_a_ex)
    B[2, 4] = B[3, 5] = np.sqrt(p.gamma)
    B[4, 6] = B[5, 7] = np.sqrt(p.kappa_c_in)
    B[4, 8] = B[5, 9] = np.sqrt(p.kappa_c_ex)
    C = np.zeros((4, 6))
    C[0, 0] = C[1, 1] = np.sqrt(p.kappa_a_ex)
    C[2, 4] = C[3, 5] = np.sqrt(p.kappa_c_ex)
    D = np.zeros((4, 10))
    D[0, 2] = D[1, 3] = D[2, 8] = D[3, 9] = 1.0
    sq = quadrature_scattering(C @ np.linalg.solve(M, B.astype(complex)) - D)
    noise = np.kron(np.diag(np.asarray(dataclasses.astuple(p.occupations)) + 0.5), np.eye(2))
    V = np.real(sq @ noise @ sq.conj().T)
    V = 0.5 * (V + V.T)
    if not np.isfinite(V).all():
        return True, max_re, None, None, "covariance has non-finite entries"
    det_v = float(np.linalg.det(V))
    sigma = (
        float(np.linalg.det(V[:2, :2]))
        + float(np.linalg.det(V[2:, 2:]))
        - 2.0 * float(np.linalg.det(V[:2, 2:]))
    )
    disc = sigma * sigma - 4.0 * det_v
    if disc < -1e-9 * sigma * sigma:
        return True, max_re, None, None, f"covariance not physical: Sigma^2 - 4 det V = {disc:.3e} < 0"
    inner = (sigma - np.sqrt(max(disc, 0.0))) / 2.0
    if inner < -1e-9 * abs(sigma):
        return True, max_re, None, None, "covariance not physical: negative symplectic square"
    zeta = float(np.sqrt(max(inner, 0.0)))
    if zeta <= 0:
        return True, max_re, None, None, "degenerate covariance: zeta- = 0"
    return True, max_re, zeta, max(0.0, float(-np.log(2.0 * zeta))), None


def reference_table(path, ncols=None, start=0) -> np.ndarray:
    """Plain csv.reader + float parse of a numeric CSV (cells `start` up to
    `ncols` of each row, all by default): the header row is dropped and
    blank rows are skipped.  Test oracle for the bulk reader."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    return np.array(
        [[float(c) for c in row[start:ncols]] for row in rows if any(c.strip() for c in row)]
    )


def traced_peak(fn) -> int:
    """Peak bytes that Python and numpy allocate while fn() runs, above
    what was allocated when it started (tracemalloc)."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
