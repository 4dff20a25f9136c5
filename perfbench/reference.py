"""Independent reference numerics for the benchmark's output checks.

Everything here is written against the physics, not against the package:
it imports nothing from `emcavity`, so a change to the program cannot
change the answers it is checked against.  The tripartite reference is a
batched (N, 6, 6) evaluation; the package evaluates point by point, so the
two agree only if both are right.  All frequencies are angular (rad/s)
unless a name ends in `_hz`.
"""

from __future__ import annotations

import numpy as np
from scipy.constants import epsilon_0 as EPSILON_0
from scipy.constants import hbar as HBAR

TWO_PI = 2.0 * np.pi

# the package marks a point unstable when max Re(eig) >= -MARGIN * kappa_a
MARGIN = 1e-12
# resolvent condition number above which the package reports a near-pole
COND_LIMIT = 1e12

_U = np.array([[1.0, 1.0], [-1.0j, 1.0j]]) / np.sqrt(2.0)
_R2 = np.kron(np.eye(2), _U)
_R5H = np.kron(np.eye(5), _U).conj().T
_OMEGA2 = np.kron(np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]))
_FLIP_YC = np.diag([1.0, 1.0, 1.0, -1.0])

OCC_KEYS = ("n_a_in", "n_a_ex", "n_b_in", "n_c_in", "n_c_ex")


def drift_matrices(p: dict) -> np.ndarray:
    """(N, 6, 6) drift matrices in the (a, a+, b, b+, c, c+) basis.

    `p` maps the tripartite parameter names (rad/s) to scalars or (N,)
    arrays; occupations are not needed here.
    """
    n = np.broadcast(*(np.asarray(v) for k, v in p.items() if k != "occ")).size
    full = {k: np.broadcast_to(np.asarray(v, dtype=float), (n,)) for k, v in p.items() if k != "occ"}
    da, dc, om = full["delta_a"], full["delta_c"], full["omega_m"]
    gb, gc = full["g_b"], full["g_c"]
    ka2 = (full["kappa_a_in"] + full["kappa_a_ex"]) / 2.0
    kc2 = (full["kappa_c_in"] + full["kappa_c_ex"]) / 2.0
    g2 = full["gamma"] / 2.0
    A = np.zeros((n, 6, 6), dtype=complex)
    A[:, 0, 0] = -1j * da - ka2
    A[:, 1, 1] = 1j * da - ka2
    A[:, 2, 2] = -1j * om - g2
    A[:, 3, 3] = 1j * om - g2
    A[:, 4, 4] = -1j * dc - kc2
    A[:, 5, 5] = 1j * dc - kc2
    # beam-splitter plus two-mode-squeezing coupling of a to b, and
    # beam-splitter coupling of a to c
    A[:, 0, 2] = A[:, 0, 3] = A[:, 2, 0] = A[:, 2, 1] = -1j * gb
    A[:, 1, 2] = A[:, 1, 3] = A[:, 3, 0] = A[:, 3, 1] = 1j * gb
    A[:, 0, 4] = A[:, 4, 0] = -1j * gc
    A[:, 1, 5] = A[:, 5, 1] = 1j * gc
    return A


def max_real_eigenvalue(p: dict) -> np.ndarray:
    """Largest real part of the drift spectrum, per point (rad/s)."""
    return np.linalg.eigvals(drift_matrices(p)).real.max(axis=1)


def stable(p: dict, max_re: np.ndarray) -> np.ndarray:
    kappa_a = np.asarray(p["kappa_a_in"]) + np.asarray(p["kappa_a_ex"])
    return max_re < -MARGIN * kappa_a


def output_covariances(p: dict, omega: float = 0.0):
    """Output-quadrature covariances V (N, 4, 4) and a near-pole mask.

    V = Re[S_q N S_q^dagger] with S = C (-i w - A)^{-1} B - D, in the
    (X_a, Y_a, X_c, Y_c) basis with vacuum variance 1/2.
    """
    A = drift_matrices(p)
    n = A.shape[0]
    M = -1j * omega * np.eye(6) - A
    cond = np.linalg.cond(M)
    near_pole = ~np.isfinite(cond) | (cond > COND_LIMIT)
    M[near_pole] = np.eye(6)  # placeholder; these rows are reported as errors
    sa_in, sa_ex = np.sqrt(p["kappa_a_in"]), np.sqrt(p["kappa_a_ex"])
    sc_in, sc_ex = np.sqrt(p["kappa_c_in"]), np.sqrt(p["kappa_c_ex"])
    B = np.zeros((6, 10), dtype=complex)
    B[0, 0] = B[1, 1] = sa_in
    B[0, 2] = B[1, 3] = sa_ex
    B[2, 4] = B[3, 5] = np.sqrt(p["gamma"])
    B[4, 6] = B[5, 7] = sc_in
    B[4, 8] = B[5, 9] = sc_ex
    C = np.zeros((4, 6))
    C[0, 0] = C[1, 1] = sa_ex
    C[2, 4] = C[3, 5] = sc_ex
    D = np.zeros((4, 10))
    D[0, 2] = D[1, 3] = D[2, 8] = D[3, 9] = 1.0
    S = C @ np.linalg.solve(M, np.broadcast_to(B, (n, 6, 10))) - D
    Sq = _R2 @ S @ _R5H
    occ = np.repeat(np.asarray([p["occ"][k] for k in OCC_KEYS], dtype=float) + 0.5, 2)
    V = np.real((Sq * occ) @ Sq.conj().transpose(0, 2, 1))
    V = 0.5 * (V + V.transpose(0, 2, 1))
    return V, near_pole


def zeta_minus(V: np.ndarray) -> np.ndarray:
    """Smallest symplectic eigenvalue of the partial transpose (closed form).

    NaN where the covariance is unphysical or degenerate, as the package
    reports those points with blank columns.
    """
    det_v = np.linalg.det(V)
    sigma = (
        np.linalg.det(V[:, :2, :2]) + np.linalg.det(V[:, 2:, 2:]) - 2.0 * np.linalg.det(V[:, :2, 2:])
    )
    disc = sigma * sigma - 4.0 * det_v
    bad = disc < -1e-9 * sigma * sigma
    disc = np.maximum(disc, 0.0)
    inner = (sigma - np.sqrt(disc)) / 2.0
    bad |= inner < -1e-9 * np.abs(sigma)
    zeta = np.sqrt(np.maximum(inner, 0.0))
    bad |= zeta <= 0
    return np.where(bad, np.nan, zeta)


def zeta_partial_transpose(V: np.ndarray) -> np.ndarray:
    """Oracle for zeta_minus: smallest |eig(i Omega V_pt)|, where V_pt flips
    the magnon momentum quadrature."""
    vpt = _FLIP_YC @ V @ _FLIP_YC
    return np.abs(np.linalg.eigvals(1j * _OMEGA2 @ vpt)).min(axis=1)


def log_negativity(zeta: np.ndarray) -> np.ndarray:
    return np.maximum(0.0, -np.log(2.0 * zeta))


def reflection(omega, kappa_in, kappa_ex, center, self_energy=0.0, amplitude=1.0, tau=0.0,
               phi=0.0, delta=0.0):
    """One-sided cavity reflection with optional background and mechanical
    self-energy:  A e^{-i(w tau + phi)} * -(d + (k_in - k_ex)/2 + i delta + S)
    / (d + (k_in + k_ex)/2 + S),  d = -i (w - center)."""
    w = np.asarray(omega, dtype=float)
    d = -1j * (w - center)
    num = d + (kappa_in - kappa_ex) / 2.0 + 1j * delta + self_energy
    den = d + (kappa_in + kappa_ex) / 2.0 + self_energy
    return amplitude * np.exp(-1j * (w * tau + phi)) * (-num / den)


def mechanical_self_energy(omega, g, gamma, omega_m):
    return g * g / (-1j * (np.asarray(omega, dtype=float) - omega_m) + gamma / 2.0)


def parallel_plate(gap, gap_volume, plate_volume, plate_area, rho, f_m_hz, inductance, stray_c):
    """Closed forms for a vacuum-gap capacitor whose conductor plate moves
    rigidly into the gap, from the summed quadrature weights.

    m_eff is the plate mass; C_m = eps0 V_gap / gap^2; the moving-boundary
    (1/C) dC/dalpha = A_plate / V_gap, i.e. 1/gap when A_plate gap = V_gap
    (times 1 - 1e-12 from the eps_rel = 1e12 conductor model).
    """
    m_eff = rho * plate_volume
    c_m = EPSILON_0 * gap_volume / gap**2
    eta = c_m / (stray_c + c_m)
    omega_c = 1.0 / np.sqrt(inductance * (stray_c + c_m))
    x_zpf = np.sqrt(HBAR / (2.0 * m_eff * TWO_PI * f_m_hz))
    frac = (1.0 - 1e-12) * plate_area / gap_volume
    g0 = -x_zpf * eta * (omega_c / 2.0) * frac
    return {
        "m_eff_kg": float(m_eff),
        "x_zpf_m": float(x_zpf),
        "c_m_f": float(c_m),
        "eta": float(eta),
        "f_c_hz": float(omega_c / TWO_PI),
        "g0_hz": float(g0 / TWO_PI),
    }


def close(a: float, b: float, rel: float, abs_tol: float = 0.0) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b)) + abs_tol
