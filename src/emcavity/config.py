"""JSON system configs: schema validation and Hz -> rad/s normalization.

External interfaces use ordinary frequency (Hz) with keys suffixed `_hz`;
everything internal is angular (rad/s).  Unknown keys are rejected with the
offending field path; missing optional blocks are defaulted with a warning.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .constants import TWO_PI
from .errors import ConfigError
from .params import (
    CavityParams,
    CouplingParams,
    MechParams,
    Occupations,
    PumpParams,
    TripartiteParams,
)


@dataclass(frozen=True)
class Background:
    """Trace background for synthesis: prefactor and baseline tilt."""

    amplitude: float = 1.0
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
    warnings: list = field(default_factory=list)


_SCHEMA = {
    "cavity": {"f_c_hz", "kappa_in_hz", "kappa_ex_hz"},
    "mech": {"f_m_hz", "gamma_hz", "m_eff_kg"},
    "pump": {"f_p_hz", "power_w"},
    "coupling": {"g0_hz", "n_cavity"},
    "background": {"amplitude", "tau_s", "phi_rad", "delta_hz"},
    "tripartite": {
        "delta_a_hz",
        "delta_c_hz",
        "f_m_hz",
        "g_b_hz",
        "g_c_hz",
        "kappa_a_in_hz",
        "kappa_a_ex_hz",
        "kappa_c_in_hz",
        "kappa_c_ex_hz",
        "gamma_hz",
        "occupations",
    },
}
_OCC_KEYS = {"n_a_in", "n_a_ex", "n_b_in", "n_c_in", "n_c_ex"}


def _number(block: dict, block_name: str, key: str, minimum=None, strict=False, default=None):
    if key not in block:
        if default is not None:
            return default
        raise ConfigError(f"{block_name}.{key}: missing required field")
    val = block[key]
    if not isinstance(val, (int, float)) or isinstance(val, bool):
        raise ConfigError(f"{block_name}.{key}: expected a number, got {val!r}")
    val = float(val)
    # Python's json accepts NaN and Infinity
    if not math.isfinite(val):
        raise ConfigError(f"{block_name}.{key}: expected a finite number, got {val!r}")
    if minimum is not None:
        if strict and val <= minimum:
            raise ConfigError(f"{block_name}.{key}: must be > {minimum}, got {val}")
        if not strict and val < minimum:
            raise ConfigError(f"{block_name}.{key}: must be >= {minimum}, got {val}")
    return val


def _check_keys(block: dict, name: str):
    if not isinstance(block, dict):
        raise ConfigError(f"{name}: expected an object")
    unknown = set(block) - _SCHEMA[name]
    if unknown:
        raise ConfigError(f"{name}.{sorted(unknown)[0]}: unknown key")


def parse_config(data: dict) -> SystemParams:
    if not isinstance(data, dict):
        raise ConfigError("top level: expected an object")
    unknown = set(data) - set(_SCHEMA)
    if unknown:
        raise ConfigError(f"{sorted(unknown)[0]}: unknown top-level block")
    out = SystemParams()
    for name in _SCHEMA:
        if name not in data:
            out.warnings.append(f"block '{name}' missing; left unset")
    if "cavity" in data:
        b = data["cavity"]
        _check_keys(b, "cavity")
        out.cavity = CavityParams(
            omega_c=TWO_PI * _number(b, "cavity", "f_c_hz", 0.0, strict=True),
            kappa_in=TWO_PI * _number(b, "cavity", "kappa_in_hz", 0.0),
            kappa_ex=TWO_PI * _number(b, "cavity", "kappa_ex_hz", 0.0),
        )
    if "mech" in data:
        b = data["mech"]
        _check_keys(b, "mech")
        out.mech = MechParams(
            omega_m=TWO_PI * _number(b, "mech", "f_m_hz", 0.0, strict=True),
            gamma=TWO_PI * _number(b, "mech", "gamma_hz", 0.0),
            m_eff=_number(b, "mech", "m_eff_kg", 0.0, strict=True),
        )
    if "pump" in data:
        b = data["pump"]
        _check_keys(b, "pump")
        out.pump = PumpParams(
            omega_p=TWO_PI * _number(b, "pump", "f_p_hz", 0.0, strict=True),
            power=_number(b, "pump", "power_w", 0.0),
        )
    if "coupling" in data:
        b = data["coupling"]
        _check_keys(b, "coupling")
        out.coupling = CouplingParams(
            g0=TWO_PI * _number(b, "coupling", "g0_hz"),
            n_cavity=_number(b, "coupling", "n_cavity", 0.0),
        )
    if "background" in data:
        b = data["background"]
        _check_keys(b, "background")
        out.background = Background(
            amplitude=_number(b, "background", "amplitude", 0.0, strict=True, default=1.0),
            tau=_number(b, "background", "tau_s", default=0.0),
            phi=_number(b, "background", "phi_rad", default=0.0),
            delta=TWO_PI * _number(b, "background", "delta_hz", default=0.0),
        )
    if "tripartite" in data:
        b = data["tripartite"]
        _check_keys(b, "tripartite")
        occ = Occupations()
        if "occupations" in b:
            ob = b["occupations"]
            if not isinstance(ob, dict):
                raise ConfigError("tripartite.occupations: expected an object")
            unknown = set(ob) - _OCC_KEYS
            if unknown:
                raise ConfigError(f"tripartite.occupations.{sorted(unknown)[0]}: unknown key")
            occ = Occupations(
                **{k: _number(ob, "tripartite.occupations", k, 0.0, default=0.0) for k in _OCC_KEYS}
            )
        out.tripartite = TripartiteParams(
            delta_a=TWO_PI * _number(b, "tripartite", "delta_a_hz"),
            delta_c=TWO_PI * _number(b, "tripartite", "delta_c_hz"),
            omega_m=TWO_PI * _number(b, "tripartite", "f_m_hz", 0.0, strict=True),
            g_b=TWO_PI * _number(b, "tripartite", "g_b_hz"),
            g_c=TWO_PI * _number(b, "tripartite", "g_c_hz"),
            kappa_a_in=TWO_PI * _number(b, "tripartite", "kappa_a_in_hz", 0.0),
            kappa_a_ex=TWO_PI * _number(b, "tripartite", "kappa_a_ex_hz", 0.0),
            kappa_c_in=TWO_PI * _number(b, "tripartite", "kappa_c_in_hz", 0.0),
            kappa_c_ex=TWO_PI * _number(b, "tripartite", "kappa_c_ex_hz", 0.0),
            gamma=TWO_PI * _number(b, "tripartite", "gamma_hz", 0.0),
            occupations=occ,
        )
    return out


def load_config(path) -> SystemParams:
    try:
        with open(path) as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    try:
        return parse_config(data)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
