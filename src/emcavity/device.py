"""Design integrals over discretized field samples.

Sample sets carry explicit quadrature weights; no mesh topology or FEM is
involved.  Conductors are represented as eps_rel = 1e12 dielectrics so the
permittivity-difference terms of the moving-boundary integral stay finite.
The integrals run with numpy's float warnings off: a result that leaves the
float range is refused as a NumericalError naming the quantity.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .constants import EPSILON_0
from .errors import DataError, DomainError, NumericalError
from .params import NON_NEGATIVE, POSITIVE, Checked, CheckedArrays, key
from .tables import read_table


def columns(*names: str, **meta) -> dict:
    """Field metadata of a sample array: the CSV columns it is read from, in
    file order (one name: an (n,) array, several: (n, k)), plus any bound."""
    return {"columns": names, **meta}


@dataclass(frozen=True)
class VolumeSampleSet(CheckedArrays):
    """Quadrature-weighted volume samples of permittivity, field, density
    and mechanical displacement; fields in file column order.  The two
    sums that several design quantities share are taken on first use and
    kept, so a `device g0` request reads each column once."""

    weight: np.ndarray = field(metadata=columns("w_m3", **POSITIVE))
    eps_rel: np.ndarray = field(metadata=columns("eps_rel"))
    e_field: np.ndarray = field(metadata=columns("ex_vpm", "ey_vpm", "ez_vpm"))
    rho: np.ndarray = field(metadata=columns("rho_kgpm3"))
    q: np.ndarray = field(metadata=columns("qx_m", "qy_m", "qz_m"))

    @cached_property
    @np.errstate(all="ignore")
    def mode_sums(self):
        """(alpha, integral rho |Q|^2 dV) from one pass over Q: the mode
        normalization, the largest |Q|, and the mass before it is divided
        by alpha^2.  alpha = sqrt(max |Q|^2); sqrt is correctly rounded and
        monotone, so this is the largest |Q| bit for bit."""
        q2 = _rowdot(self.q, self.q)
        alpha = float(np.sqrt(np.max(q2)))
        if alpha == 0:
            raise DomainError("degenerate mode: displacement field is zero everywhere")
        q2 *= self.weight * self.rho  # in place: (w rho) |Q|^2
        return alpha, np.sum(q2)

    @cached_property
    @np.errstate(all="ignore")
    def field_energy2(self) -> float:
        """integral eps |E|^2 dV: twice the stored electric energy."""
        e2 = _rowdot(self.e_field, self.e_field)
        eps_w = self.weight * EPSILON_0
        eps_w *= self.eps_rel
        e2 *= eps_w  # ((w eps_0) eps_rel) |E|^2
        return float(np.sum(e2))


@dataclass(frozen=True)
class SurfaceSampleSet(CheckedArrays):
    """Interface samples; material 1 sits on the +normal side.  The electric
    field is evaluated per the interface convention."""

    area: np.ndarray = field(metadata=columns("a_m2", **POSITIVE))
    normal: np.ndarray = field(metadata=columns("nx", "ny", "nz"))
    q: np.ndarray = field(metadata=columns("qx_m", "qy_m", "qz_m"))
    e_field: np.ndarray = field(metadata=columns("ex_vpm", "ey_vpm", "ez_vpm"))
    d_field: np.ndarray = field(metadata=columns("dx_cpm2", "dy_cpm2", "dz_cpm2"))
    eps1_rel: np.ndarray = field(metadata=columns("eps1_rel"))
    eps2_rel: np.ndarray = field(metadata=columns("eps2_rel"))

    def __post_init__(self):
        super().__post_init__()
        bad = np.abs(np.sqrt(_rowdot(self.normal, self.normal)) - 1.0) > 1e-9
        if bad.any():
            raise DataError("normals must be unit vectors", row=int(np.argmax(bad)))


# rows per block of _rowdot: a block of parsed records (75 or 123 bytes
# each) stays in cache while its columns are read
_BLOCK = 4096


def _rowdot(a, b):
    """Per-sample a . b of two (n, 3) arrays, one column at a time: the
    additions of np.sum(a * b, axis=1) in its order, from its start 0.0,
    with no (n, 3) temporary.  The columns are strided views into the
    parsed records, so the rows go in blocks that stay in cache, and a . a
    reads each column once (np.square(x) is x * x)."""

    def product(x, y, col, out):
        if x is y:
            return np.square(x[:, col], out=out)
        return np.multiply(x[:, col], y[:, col], out=out)

    out = np.empty(len(a))
    term = np.empty(min(len(a), _BLOCK))
    for start in range(0, len(a), _BLOCK):
        x = a[start : start + _BLOCK]
        y = x if b is a else b[start : start + _BLOCK]
        o = out[start : start + _BLOCK]
        t = term[: len(o)]
        product(x, y, 0, o)
        o += 0.0  # as np.sum starts: a -0.0 first product sums to 0.0
        o += product(x, y, 1, t)
        o += product(x, y, 2, t)
    return out


def max_displacement(v: VolumeSampleSet) -> float:
    """Mode normalization alpha: the largest |Q| over the samples."""
    return v.mode_sums[0]


@np.errstate(all="ignore")
def effective_mass(v: VolumeSampleSet) -> float:
    """m_eff = integral rho |Q/alpha|^2 dV on the sample quadrature."""
    alpha, mass = v.mode_sums
    m_eff = float(mass / alpha**2)
    if not np.isfinite(m_eff):
        raise NumericalError("m_eff is not a finite float")
    return m_eff


def capacitance_from_energy(v: VolumeSampleSet, applied_voltage: float = 1.0) -> float:
    """C_m = (integral eps |E|^2 dV) / V^2 (twice the stored energy over V^2)."""
    if applied_voltage <= 0:
        raise DomainError("applied voltage must be positive")
    try:  # V^2 past the float range raises, or underflows to 0 and E / 0 raises
        c_m = v.field_energy2 / applied_voltage**2
    except ArithmeticError:
        c_m = 0.0
    if not 0 < c_m < np.inf:  # also a zero or negative field energy
        raise NumericalError(f"C_m is not a positive finite float at {applied_voltage} V")
    return c_m


def participation_ratio(c_m: float, c_s: float) -> float:
    """eta = C_m / (C_s + C_m)."""
    if c_m <= 0:
        raise DomainError("C_m must be positive")
    if c_s < 0:
        raise DomainError("C_s must be non-negative")
    return c_m / (c_s + c_m)


@dataclass(frozen=True)
class ResonatorLumped(Checked):
    inductance: float = field(metadata=key("inductance_h", **POSITIVE))
    stray_capacitance: float = field(metadata=key("stray_capacitance_f", **NON_NEGATIVE))


@np.errstate(all="ignore")
def lc_frequency(r: ResonatorLumped, c_m: float) -> float:
    """omega_c = 1/sqrt(L (C_s + C_m)), the dimensionally consistent form;
    NumericalError unless a positive finite float."""
    total_c = r.stray_capacitance + c_m
    if total_c <= 0:
        raise DomainError("total capacitance must be positive")
    product = r.inductance * total_c
    omega_c = 1.0 / np.sqrt(product)
    if not 0 < omega_c < np.inf:
        raise NumericalError(f"omega_c is not a positive finite float at L (C_s + C_m) = {product:g} s^2")
    return omega_c


@np.errstate(all="ignore")
def _surface_sum(s: SurfaceSampleSet, alpha: float) -> float:
    """Contribution of one interface to the moving-boundary numerator."""
    qn = _rowdot(s.q, s.normal) / alpha
    e_perp = _rowdot(s.e_field, s.normal)
    e_par2 = _rowdot(s.e_field, s.e_field) - e_perp**2
    d_perp2 = _rowdot(s.d_field, s.normal) ** 2
    eps1 = EPSILON_0 * s.eps1_rel
    eps2 = EPSILON_0 * s.eps2_rel
    d_eps = eps1 - eps2
    d_eps_inv = 1.0 / eps1 - 1.0 / eps2
    return float(np.sum(s.area * qn * (d_eps * e_par2 - d_eps_inv * d_perp2)))


def fractional_capacitance_derivative(
    surfaces: list[SurfaceSampleSet], volume: VolumeSampleSet
) -> float:
    """(1/C_m) dC_m/dalpha from the moving-boundary surface integrals."""
    alpha = max_displacement(volume)
    denom = volume.field_energy2
    if denom == 0:
        raise DomainError("degenerate field: zero stored energy")
    ratio = sum(_surface_sum(s, alpha) for s in surfaces) / denom
    if not (np.isfinite(ratio) and np.isfinite(denom)):  # x / inf is 0, not the ratio
        raise NumericalError("(1/C_m) dC_m/dalpha is not a finite float")
    return ratio


@np.errstate(all="ignore")
def coupling_rate_moving_boundary(surfaces: list[SurfaceSampleSet], volume: VolumeSampleSet,
                                  eta: float, omega_c: float, x_zpf: float) -> float:
    """Single-photon coupling g0 = -x_zpf * eta * (omega_c/2) * (1/C) dC/dalpha."""
    g0 = -x_zpf * eta * (omega_c / 2.0) * fractional_capacitance_derivative(surfaces, volume)
    if not np.isfinite(g0):
        raise NumericalError("g0 is not a finite float")
    return g0


def load_samples(cls, path):
    """Read a sample-set CSV whose header is x_m,y_m,z_m (never parsed: no
    integral reads where a sample sits), then cls's field columns in order;
    a record that fails its checks names the line of the sample at fault."""
    layout = [f.metadata["columns"] for f in fields(cls)]
    with read_table(path, ["x_m", "y_m", "z_m", *(c for cols in layout for c in cols)], skip=3) as arr:
        parts = np.split(arr, np.cumsum([len(cols) for cols in layout])[:-1], axis=1)
        return cls(*(p[:, 0] if p.shape[1] == 1 else p for p in parts))


def load_volume_csv(path) -> VolumeSampleSet:
    return load_samples(VolumeSampleSet, path)


def load_surface_csv(path) -> SurfaceSampleSet:
    return load_samples(SurfaceSampleSet, path)
