"""Design integrals over discretized field samples.

Sample sets carry explicit quadrature weights; no mesh topology or FEM is
involved.  Conductors are represented as eps_rel = 1e12 dielectrics so the
permittivity-difference terms of the moving-boundary integral stay finite.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field

import numpy as np

from .constants import EPSILON_0
from .errors import DataError, DomainError
from .params import NON_NEGATIVE, POSITIVE, Checked


@dataclass(frozen=True)
class VolumeSampleSet:
    """Quadrature-weighted volume samples of permittivity, field, density
    and mechanical displacement."""

    position: np.ndarray  # (n, 3) m
    weight: np.ndarray  # (n,) m^3
    eps_rel: np.ndarray  # (n,)
    e_field: np.ndarray  # (n, 3) V/m
    rho: np.ndarray  # (n,) kg/m^3
    q: np.ndarray  # (n, 3) m

    def __post_init__(self):
        n = len(self.weight)
        if n == 0:
            raise DomainError("sample set must be non-empty")
        for name in ("position", "weight", "eps_rel", "e_field", "rho", "q"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if len(arr) != n or not np.all(np.isfinite(arr)):
                raise DomainError(f"bad {name} array in volume sample set")
            object.__setattr__(self, name, arr)
        if np.any(self.weight <= 0):
            raise DomainError("quadrature weights must be positive")


@dataclass(frozen=True)
class SurfaceSampleSet:
    """Interface samples; material 1 sits on the +normal side."""

    position: np.ndarray  # (n, 3)
    area: np.ndarray  # (n,) m^2
    normal: np.ndarray  # (n, 3) unit
    q: np.ndarray  # (n, 3) m
    e_field: np.ndarray  # (n, 3) V/m, evaluated per the interface convention
    d_field: np.ndarray  # (n, 3) C/m^2
    eps1_rel: np.ndarray  # (n,)
    eps2_rel: np.ndarray  # (n,)

    def __post_init__(self):
        n = len(self.area)
        if n == 0:
            raise DomainError("sample set must be non-empty")
        for name in ("position", "area", "normal", "q", "e_field", "d_field", "eps1_rel", "eps2_rel"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if len(arr) != n or not np.all(np.isfinite(arr)):
                raise DomainError(f"bad {name} array in surface sample set")
            object.__setattr__(self, name, arr)
        if np.any(self.area <= 0):
            raise DomainError("areas must be positive")
        norms = np.linalg.norm(self.normal, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-9):
            raise DomainError("normals must be unit vectors")


def max_displacement(v: VolumeSampleSet) -> float:
    """Mode normalization alpha: the largest |Q| over the samples."""
    alpha = float(np.max(np.linalg.norm(v.q, axis=1)))
    if alpha == 0:
        raise DomainError("degenerate mode: displacement field is zero everywhere")
    return alpha


def effective_mass(v: VolumeSampleSet) -> float:
    """m_eff = integral rho |Q/alpha|^2 dV on the sample quadrature."""
    alpha = max_displacement(v)
    q2 = np.sum(v.q * v.q, axis=1)
    return float(np.sum(v.weight * v.rho * q2) / alpha**2)


def capacitance_from_energy(v: VolumeSampleSet, applied_voltage: float = 1.0) -> float:
    """C_m = (integral eps |E|^2 dV) / V^2 (twice the stored energy over V^2)."""
    if applied_voltage <= 0:
        raise DomainError("applied voltage must be positive")
    e2 = np.sum(v.e_field * v.e_field, axis=1)
    energy2 = float(np.sum(v.weight * EPSILON_0 * v.eps_rel * e2))
    return energy2 / applied_voltage**2


def participation_ratio(c_m: float, c_s: float) -> float:
    """eta = C_m / (C_s + C_m)."""
    if c_m <= 0:
        raise DomainError("C_m must be positive")
    if c_s < 0:
        raise DomainError("C_s must be non-negative")
    return c_m / (c_s + c_m)


@dataclass(frozen=True)
class ResonatorLumped(Checked):
    inductance: float = field(metadata=POSITIVE)  # H
    stray_capacitance: float = field(metadata=NON_NEGATIVE)  # F


def lc_frequency(r: ResonatorLumped, c_m: float) -> float:
    """omega_c = 1/sqrt(L (C_s + C_m)), the dimensionally consistent form."""
    total_c = r.stray_capacitance + c_m
    if total_c <= 0:
        raise DomainError("total capacitance must be positive")
    return 1.0 / np.sqrt(r.inductance * total_c)


def _surface_sum(s: SurfaceSampleSet, alpha: float) -> float:
    """Contribution of one interface to the moving-boundary numerator."""
    qn = np.sum(s.q * s.normal, axis=1) / alpha
    e_perp = np.sum(s.e_field * s.normal, axis=1)
    e_par2 = np.sum(s.e_field * s.e_field, axis=1) - e_perp**2
    d_perp2 = np.sum(s.d_field * s.normal, axis=1) ** 2
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
    e2 = np.sum(volume.e_field * volume.e_field, axis=1)
    denom = float(np.sum(volume.weight * EPSILON_0 * volume.eps_rel * e2))
    if denom == 0:
        raise DomainError("degenerate field: zero stored energy")
    return sum(_surface_sum(s, alpha) for s in surfaces) / denom


def coupling_rate_moving_boundary(
    surfaces: list[SurfaceSampleSet],
    volume: VolumeSampleSet,
    eta: float,
    omega_c: float,
    x_zpf: float,
) -> float:
    """Single-photon coupling g0 = -x_zpf * eta * (omega_c/2) * (1/C) dC/dalpha."""
    return -x_zpf * eta * (omega_c / 2.0) * fractional_capacitance_derivative(surfaces, volume)


_VOLUME_COLS = [
    "x_m", "y_m", "z_m", "w_m3", "eps_rel",
    "ex_vpm", "ey_vpm", "ez_vpm", "rho_kgpm3", "qx_m", "qy_m", "qz_m",
]
_SURFACE_COLS = [
    "x_m", "y_m", "z_m", "a_m2", "nx", "ny", "nz",
    "qx_m", "qy_m", "qz_m", "ex_vpm", "ey_vpm", "ez_vpm",
    "dx_cpm2", "dy_cpm2", "dz_cpm2", "eps1_rel", "eps2_rel",
]


def read_table(path, columns=None) -> np.ndarray:
    """Parse a numeric CSV body in bulk into an (n, k) float array.

    With `columns` (sample sets) the stripped header must equal it and rows
    hold exactly that many cells; without (traces) any header passes and
    the first three cells of each row are read and must be finite.  Blank
    rows are skipped; a bad row raises DataError("path:line: ...").
    """
    ncols = len(columns) if columns else 3
    try:
        with open(path, newline="") as fh:
            header = next(csv.reader(fh), None)
            if columns and (header is None or [c.strip() for c in header] != columns):
                raise DataError(f"{path}: expected header {','.join(columns)}")
            if header is None:
                raise DataError(f"{path}: empty file")
            try:
                with warnings.catch_warnings():  # a header-only file is reported below
                    warnings.simplefilter("ignore", UserWarning)
                    arr = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None, quotechar='"',
                                     usecols=None if columns else (0, 1, 2))
                ok = arr.shape[1] == ncols if columns else np.isfinite(arr).all()
            except ValueError:
                ok = False
            if not ok:  # name the first bad row, or read the rows loadtxt refuses
                fh.seek(0)
                arr = _parse_rows(path, csv.reader(fh), ncols, exact=bool(columns))
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if not len(arr):
        raise DataError(f"{path}: no data rows")
    return arr


def data_rows(reader):
    """(file line, cells) of each row after the header that is not blank:
    the rows read_table keeps.  A row's line is the one it starts on."""
    next(reader, None)
    start = reader.line_num + 1
    for row in reader:
        if any(c.strip() for c in row):
            yield start, row
        start = reader.line_num + 1


def _parse_rows(path, reader, ncols, exact):
    """Row-by-row csv.reader + float parse that raises at the first bad row."""
    rows = []
    for lineno, row in data_rows(reader):
        if len(row) != ncols and (exact or len(row) < ncols):
            got = "" if exact else f", got {len(row)}"
            raise DataError(f"{path}:{lineno}: expected {ncols} columns{got}")
        try:
            values = [float(c) for c in row[:ncols]]
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from exc
        if not (exact or np.isfinite(values).all()):
            raise DataError(f"{path}:{lineno}: non-finite sample")
        rows.append(values)
    return np.asarray(rows)


def load_volume_csv(path) -> VolumeSampleSet:
    arr = read_table(path, _VOLUME_COLS)
    return VolumeSampleSet(
        position=arr[:, 0:3],
        weight=arr[:, 3],
        eps_rel=arr[:, 4],
        e_field=arr[:, 5:8],
        rho=arr[:, 8],
        q=arr[:, 9:12],
    )


def load_surface_csv(path) -> SurfaceSampleSet:
    arr = read_table(path, _SURFACE_COLS)
    return SurfaceSampleSet(
        position=arr[:, 0:3],
        area=arr[:, 3],
        normal=arr[:, 4:7],
        q=arr[:, 7:10],
        e_field=arr[:, 10:13],
        d_field=arr[:, 13:16],
        eps1_rel=arr[:, 16],
        eps2_rel=arr[:, 17],
    )

