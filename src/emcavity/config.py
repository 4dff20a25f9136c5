"""External JSON records: system configs, fit results and lumped circuits.

External interfaces use ordinary frequency (Hz) with keys suffixed `_hz`;
everything internal is angular (rad/s).  Each record is declared once, as a
table from JSON key to dataclass field, and read by `parse_block` and
written by `to_record` through it.  Unknown keys, missing required keys and
values that are not finite numbers within their fields' declared bounds are
rejected with the offending field path.  A config may leave out any block.
"""

from __future__ import annotations

import json
import sys
from dataclasses import MISSING, dataclass, field, fields

from .constants import TWO_PI
from .device import ResonatorLumped
from .errors import ConfigError
from .fitting import OmitModelParams, ReflectionModelParams
from .params import (
    POSITIVE,
    CavityParams,
    Checked,
    CouplingParams,
    MechParams,
    Occupations,
    PumpParams,
    TripartiteParams,
    meets,
)


@dataclass(frozen=True)
class Background(Checked):
    """Trace background for synthesis: prefactor and baseline tilt."""

    amplitude: float = field(default=1.0, metadata=POSITIVE)
    tau: float = 0.0  # s
    phi: float = 0.0  # rad
    delta: float = 0.0  # rad/s


@dataclass
class SystemParams:
    """Normalized config: any subset of blocks may be present."""

    cavity: CavityParams | None = None
    mech: MechParams | None = None
    pump: PumpParams | None = None
    coupling: CouplingParams | None = None
    background: Background | None = None
    tripartite: TripartiteParams | None = None


# A record is (dataclass, {JSON key: (field, value in Hz scaled by 2 pi)});
# keys are written in table order.  A field is required unless the
# dataclass gives it a default, and its bound is the one its metadata
# declares.  A nested record takes the place of the Hz flag.
OCCUPATIONS = (
    Occupations, {k: (k, False) for k in ("n_a_in", "n_a_ex", "n_b_in", "n_c_in", "n_c_ex")}
)
BLOCKS = {
    "cavity": (CavityParams, {
        "f_c_hz": ("omega_c", True),
        "kappa_in_hz": ("kappa_in", True),
        "kappa_ex_hz": ("kappa_ex", True),
    }),
    "mech": (MechParams, {
        "f_m_hz": ("omega_m", True),
        "gamma_hz": ("gamma", True),
        "m_eff_kg": ("m_eff", False),
    }),
    "pump": (PumpParams, {
        "f_p_hz": ("omega_p", True),
        "power_w": ("power", False),
    }),
    "coupling": (CouplingParams, {
        "g0_hz": ("g0", True),
        "n_cavity": ("n_cavity", False),
    }),
    "background": (Background, {
        "amplitude": ("amplitude", False),
        "tau_s": ("tau", False),
        "phi_rad": ("phi", False),
        "delta_hz": ("delta", True),
    }),
    "tripartite": (TripartiteParams, {
        "delta_a_hz": ("delta_a", True),
        "delta_c_hz": ("delta_c", True),
        "f_m_hz": ("omega_m", True),
        "g_b_hz": ("g_b", True),
        "g_c_hz": ("g_c", True),
        "kappa_a_in_hz": ("kappa_a_in", True),
        "kappa_a_ex_hz": ("kappa_a_ex", True),
        "kappa_c_in_hz": ("kappa_c_in", True),
        "kappa_c_ex_hz": ("kappa_c_ex", True),
        "gamma_hz": ("gamma", True),
        "occupations": ("occupations", OCCUPATIONS),
    }),
}
# the `params` object of the `fit reflect` and `fit omit` JSON
REFLECTION_FIT = (ReflectionModelParams, {
    "amplitude": ("amplitude", False),
    "tau_s": ("tau", False),
    "phi_rad": ("phi", False),
    "f_c_hz": ("omega_c", True),
    "kappa_in_hz": ("kappa_in", True),
    "kappa_ex_hz": ("kappa_ex", True),
    "delta_hz": ("delta", True),
})
OMIT_FIT = (OmitModelParams, {
    "g_hz": ("g", True),
    "gamma_hz": ("gamma", True),
    "f_m_hz": ("omega_m", True),
    "detuning_hz": ("detuning", True),
})
# the `device g0 --lumped` circuit
LUMPED = (ResonatorLumped, {
    "inductance_h": ("inductance", False),
    "stray_capacitance_f": ("stray_capacitance", False),
})


def _number(val, path: str, bound, scale: float) -> float:
    if not isinstance(val, (int, float)) or isinstance(val, bool):
        raise ConfigError(f"{path}: expected a number, got {val!r}")
    # Python's json reads NaN, Infinity and integers past the float range;
    # a finite value in Hz may still overflow in rad/s
    if not (abs(val) <= sys.float_info.max and abs(scale * val) <= sys.float_info.max):
        raise ConfigError(f"{path}: expected a finite number, got {val!r}")
    val = float(val)
    if not meets(val, bound):
        raise ConfigError(f"{path}: must be {bound} 0.0, got {val}")
    return scale * val


def parse_block(record, data, name: str):
    """Check a JSON object against a record table and build its dataclass."""
    cls, table = record
    if not isinstance(data, dict):
        raise ConfigError(f"{name}: expected an object")
    unknown = set(data) - set(table)
    if unknown:
        raise ConfigError(f"{name}.{sorted(unknown)[0]}: unknown key")
    required = {f.name for f in fields(cls) if f.default is f.default_factory is MISSING}
    bounds = {f.name: f.metadata.get("bound") for f in fields(cls)}
    for key, (fld, _) in table.items():
        if key not in data and fld in required:
            raise ConfigError(f"{name}.{key}: missing required field")
    values = {}
    for key, (fld, hz) in table.items():
        if key not in data:
            continue
        if isinstance(hz, tuple):
            values[fld] = parse_block(hz, data[key], f"{name}.{key}")
        else:
            values[fld] = _number(data[key], f"{name}.{key}", bounds[fld], TWO_PI if hz else 1.0)
    return cls(**values)


def to_record(record, obj) -> dict:
    """The JSON object of a flat record's dataclass, in table order."""
    return {key: getattr(obj, fld) / TWO_PI if hz else getattr(obj, fld)
            for key, (fld, hz) in record[1].items()}


def parse_config(data: dict) -> SystemParams:
    if not isinstance(data, dict):
        raise ConfigError("top level: expected an object")
    unknown = set(data) - set(BLOCKS)
    if unknown:
        raise ConfigError(f"{sorted(unknown)[0]}: unknown top-level block")
    return SystemParams(**{name: parse_block(record, data[name], name)
                           for name, record in BLOCKS.items() if name in data})


def load_config(path) -> SystemParams:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    return parse_config(data)
