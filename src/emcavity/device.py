"""Design integrals over discretized field samples.

Sample sets carry explicit quadrature weights; no mesh topology or FEM is
involved.  Conductors are represented as eps_rel = 1e12 dielectrics so the
permittivity-difference terms of the moving-boundary integral stay finite.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from .constants import EPSILON_0
from .errors import DataError, DomainError
from .params import NON_NEGATIVE, POSITIVE, Checked, meets, violation


def columns(*names: str, **meta) -> dict:
    """Field metadata of a sample array: the CSV columns it is read from, in
    file order (one name: an (n,) array, several: (n, k)), plus any bound."""
    return {"columns": names, **meta}


class CheckedArrays:
    """Base of the frozen sample records, the array analogue of `Checked`:
    on construction every field becomes a float array, all of one non-zero
    length, whose values are finite and meet the field's declared bound."""

    def __post_init__(self):
        n = None
        for f in fields(self):
            arr = np.asarray(getattr(self, f.name), dtype=float)
            length = len(arr) if arr.ndim else 0
            n = length if n is None else n
            if length != n or n == 0:
                raise DataError(f"sample arrays must share one non-zero length; {f.name} has {length}")
            bound = f.metadata.get("bound")
            ok = np.isfinite(arr) & meets(arr, bound)
            if not ok.all():
                raise DataError(violation(f.name, arr[~ok][0], bound))
            object.__setattr__(self, f.name, arr)


@dataclass(frozen=True)
class VolumeSampleSet(CheckedArrays):
    """Quadrature-weighted volume samples of permittivity, field, density
    and mechanical displacement; fields in file column order."""

    position: np.ndarray = field(metadata=columns("x_m", "y_m", "z_m"))
    weight: np.ndarray = field(metadata=columns("w_m3", **POSITIVE))
    eps_rel: np.ndarray = field(metadata=columns("eps_rel"))
    e_field: np.ndarray = field(metadata=columns("ex_vpm", "ey_vpm", "ez_vpm"))
    rho: np.ndarray = field(metadata=columns("rho_kgpm3"))
    q: np.ndarray = field(metadata=columns("qx_m", "qy_m", "qz_m"))


@dataclass(frozen=True)
class SurfaceSampleSet(CheckedArrays):
    """Interface samples; material 1 sits on the +normal side.  The electric
    field is evaluated per the interface convention."""

    position: np.ndarray = field(metadata=columns("x_m", "y_m", "z_m"))
    area: np.ndarray = field(metadata=columns("a_m2", **POSITIVE))
    normal: np.ndarray = field(metadata=columns("nx", "ny", "nz"))
    q: np.ndarray = field(metadata=columns("qx_m", "qy_m", "qz_m"))
    e_field: np.ndarray = field(metadata=columns("ex_vpm", "ey_vpm", "ez_vpm"))
    d_field: np.ndarray = field(metadata=columns("dx_cpm2", "dy_cpm2", "dz_cpm2"))
    eps1_rel: np.ndarray = field(metadata=columns("eps1_rel"))
    eps2_rel: np.ndarray = field(metadata=columns("eps2_rel"))

    def __post_init__(self):
        super().__post_init__()
        norms = np.linalg.norm(self.normal, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-9):
            raise DataError("normals must be unit vectors")


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


def _field_energy2(v: VolumeSampleSet) -> float:
    """integral eps |E|^2 dV: twice the stored electric energy."""
    e2 = np.sum(v.e_field * v.e_field, axis=1)
    return float(np.sum(v.weight * EPSILON_0 * v.eps_rel * e2))


def capacitance_from_energy(v: VolumeSampleSet, applied_voltage: float = 1.0) -> float:
    """C_m = (integral eps |E|^2 dV) / V^2 (twice the stored energy over V^2)."""
    if applied_voltage <= 0:
        raise DomainError("applied voltage must be positive")
    return _field_energy2(v) / applied_voltage**2


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
    denom = _field_energy2(volume)
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


def read_table(path, columns=None) -> np.ndarray:
    """Parse a UTF-8 numeric CSV body in bulk into an (n, k) float array.

    With `columns` (sample sets) the stripped header must equal it and rows
    hold exactly that many cells; without (traces) any header passes and
    the first three cells of each row are read.  Every cell read must be
    finite.  Blank rows are skipped; a bad row raises
    DataError("path:line: ...").
    """
    ncols = len(columns) if columns else 3
    try:
        with open(path, newline="", encoding="utf-8") as fh:
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
                ok = arr.shape[1] == ncols and np.isfinite(arr).all()
            except ValueError:  # UnicodeDecodeError too: the pass below re-raises it
                ok = False
            if not ok:  # name the first bad row, or read the rows loadtxt refuses
                fh.seek(0)
                arr = _parse_rows(path, csv.reader(fh), ncols, exact=bool(columns))
    except (OSError, UnicodeDecodeError) as exc:
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
        if not np.isfinite(values).all():
            raise DataError(f"{path}:{lineno}: non-finite sample")
        rows.append(values)
    return np.asarray(rows)


def load_samples(cls, path):
    """Read a sample-set CSV whose header is the columns of cls's fields, in
    field order; a record that fails its checks is a DataError naming the
    file."""
    layout = [f.metadata["columns"] for f in fields(cls)]
    arr = read_table(path, [c for cols in layout for c in cols])
    parts = np.split(arr, np.cumsum([len(cols) for cols in layout])[:-1], axis=1)
    try:
        return cls(*(p[:, 0] if p.shape[1] == 1 else p for p in parts))
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


def load_volume_csv(path) -> VolumeSampleSet:
    return load_samples(VolumeSampleSet, path)


def load_surface_csv(path) -> SurfaceSampleSet:
    return load_samples(SurfaceSampleSet, path)
