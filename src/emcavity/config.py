"""External JSON records: system configs, fit results and lumped circuits.

A record is a dataclass read by `parse_block` and written by `to_record`.
Each field is stored under the JSON key its metadata declares (`key`), or
under its own name if it declares none, and in field order.  A key ending
in `_hz` holds ordinary frequency (Hz) and its field angular (rad/s); every
other value is stored as is.  A field marked `{"record": cls}` holds a
nested record.  Unknown keys, missing required keys and values that are not
numbers within `params.in_range` and their fields' declared bounds are
rejected with the offending field path.  A config may leave out any block.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import MISSING, dataclass, field, fields

from .constants import TWO_PI
from .errors import ConfigError
from .params import (
    POSITIVE,
    RULE,
    CavityParams,
    Checked,
    CouplingParams,
    MechParams,
    PumpParams,
    TripartiteParams,
    in_range,
    key,
    meets,
)


@dataclass(frozen=True)
class Background(Checked):
    """Trace background for synthesis: prefactor and baseline tilt."""

    amplitude: float = field(default=1.0, metadata=POSITIVE)
    tau: float = field(default=0.0, metadata=key("tau_s"))
    phi: float = field(default=0.0, metadata=key("phi_rad"))
    delta: float = field(default=0.0, metadata=key("delta_hz"))  # rad/s


@dataclass
class SystemParams:
    """Normalized config: any subset of blocks may be present."""

    cavity: CavityParams | None = field(default=None, metadata={"record": CavityParams})
    mech: MechParams | None = field(default=None, metadata={"record": MechParams})
    pump: PumpParams | None = field(default=None, metadata={"record": PumpParams})
    coupling: CouplingParams | None = field(default=None, metadata={"record": CouplingParams})
    background: Background | None = field(default=None, metadata={"record": Background})
    tripartite: TripartiteParams | None = field(default=None, metadata={"record": TripartiteParams})


def _keyed(cls) -> dict:
    """{JSON key: field} of a record, in field order."""
    return {f.metadata.get("key", f.name): f for f in fields(cls)}


def hz_scale(key: str) -> float:
    """A field over the value stored under its JSON key: 2 pi for `_hz`, else 1."""
    return TWO_PI if key.endswith("_hz") else 1.0


def _number(val, path: str, bound) -> float:
    if not isinstance(val, (int, float)) or isinstance(val, bool):
        raise ConfigError(f"{path}: expected a number, got {val!r}")
    if not in_range(val):  # also NaN, Infinity and integers past the float range, which json reads
        raise ConfigError(f"{path}: expected {RULE}, got {val!r}")
    if not meets(val, bound):
        raise ConfigError(f"{path}: must be {bound} 0.0, got {float(val)}")
    return float(val)


def parse_block(cls, data, name: str):
    """Check a JSON object against a record's fields and build it.  A field
    is required unless the dataclass gives it a default."""
    if not isinstance(data, dict):
        raise ConfigError(f"{name}: expected an object")
    keyed = _keyed(cls)
    unknown = set(data) - set(keyed)
    if unknown:
        raise ConfigError(f"{name}.{sorted(unknown)[0]}: unknown key")
    for k, f in keyed.items():
        if k not in data and f.default is f.default_factory is MISSING:
            raise ConfigError(f"{name}.{k}: missing required field")
    values = {}
    for k, f in keyed.items():
        if k not in data:
            continue
        record = f.metadata.get("record")
        if record:
            values[f.name] = parse_block(record, data[k], f"{name}.{k}")
        else:
            values[f.name] = hz_scale(k) * _number(data[k], f"{name}.{k}", f.metadata.get("bound"))
    return cls(**values)


def to_record(obj) -> dict:
    """The JSON object of a flat record, in field order, each number over `hz_scale`."""
    values = {k: getattr(obj, f.name) for k, f in _keyed(type(obj)).items()}
    return {k: v / hz_scale(k) if isinstance(v, (int, float)) else v for k, v in values.items()}


def parse_config(data: dict) -> SystemParams:
    if not isinstance(data, dict):
        raise ConfigError("top level: expected an object")
    unknown = set(data) - set(_keyed(SystemParams))
    if unknown:
        raise ConfigError(f"{sorted(unknown)[0]}: unknown top-level block")
    return SystemParams(**{f.name: parse_block(f.metadata["record"], data[f.name], f.name)
                           for f in fields(SystemParams) if f.name in data})


def load_config(path) -> tuple[SystemParams, str]:
    """The config at `path`, read once, so a pipe or FIFO works too, and the
    SHA-256 hex digest of the bytes read."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        # the text a text-mode open() reads: UTF-8, universal newlines
        text = raw.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    return parse_config(data), hashlib.sha256(raw).hexdigest()
