import numpy as np
import pytest
from scipy.integrate import solve_ivp

from emcavity.constants import TWO_PI
from emcavity.errors import NumericalError
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
    """Integrate the noise-free mean dynamics and test norm decay.

    Returns True when ||eta(horizon)|| < 1e-3 ||eta(0)||.  Test oracle for
    is_stable only; not part of any production path.
    """
    y0 = np.asarray(initial, dtype=complex)
    A = np.asarray(A, dtype=complex)
    sol = solve_ivp(
        lambda t, y: A @ y,
        (0.0, horizon),
        y0,
        method="DOP853",
        rtol=1e-8,
        atol=1e-10 * np.linalg.norm(y0),
    )
    if not sol.success:
        raise NumericalError(f"ODE integration failed: {sol.message}")
    return np.linalg.norm(sol.y[:, -1]) < 1e-3 * np.linalg.norm(y0)
