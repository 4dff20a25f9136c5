"""Config schema: key validation, unit normalization, defaulting."""

import copy
import json
import math
from dataclasses import MISSING, fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from emcavity.config import (
    Background,
    ConfigError,
    SystemParams,
    load_config,
    parse_block,
    parse_config,
    to_record,
)
from emcavity.constants import TWO_PI
from emcavity.device import ResonatorLumped
from emcavity.errors import DomainError
from emcavity.fitting import OmitModelParams, ReflectionModelParams
from emcavity.params import (
    CavityParams,
    CouplingParams,
    MechParams,
    Occupations,
    PumpParams,
    TripartiteParams,
    in_range,
)

GOOD = {
    "cavity": {"f_c_hz": 10.29184e9, "kappa_in_hz": 0.41e6, "kappa_ex_hz": 1.45e6},
    "mech": {"f_m_hz": 4.0e6, "gamma_hz": 100.0, "m_eff_kg": 2.0e-15},
    "pump": {"f_p_hz": 10.28784e9, "power_w": 1e-12},
    "coupling": {"g0_hz": 100.0, "n_cavity": 1e6},
}
# GOOD plus the optional blocks, each with every field given
VALID = {
    **GOOD,
    "background": {"amplitude": 0.2, "tau_s": 6.0e-8, "phi_rad": 0.8, "delta_hz": 0.0},
    "tripartite": {
        "delta_a_hz": -4e6,
        "delta_c_hz": -4e6,
        "f_m_hz": 4e6,
        "g_b_hz": 2.78e6,
        "g_c_hz": 6.43e6,
        "kappa_a_in_hz": 0.8e6,
        "kappa_a_ex_hz": 1.2e6,
        "kappa_c_in_hz": 0.8e6,
        "kappa_c_ex_hz": 1.2e6,
        "gamma_hz": 100.0,
    },
}


def test_units_normalized_to_angular():
    params = parse_config(GOOD)
    assert params.cavity.omega_c == pytest.approx(TWO_PI * 10.29184e9)
    assert params.mech.gamma == pytest.approx(TWO_PI * 100.0)
    assert params.coupling.g0 == pytest.approx(TWO_PI * 100.0)


def test_missing_blocks_warn_but_parse():
    params = parse_config({"cavity": GOOD["cavity"]})
    assert params.mech is None


def test_unknown_top_level_block_rejected():
    with pytest.raises(ConfigError, match="extras"):
        parse_config({**GOOD, "extras": {}})


def test_unknown_key_rejected_with_path():
    bad = {"cavity": {**GOOD["cavity"], "q_factor": 1e5}}
    with pytest.raises(ConfigError, match=r"cavity\.q_factor"):
        parse_config(bad)


def test_missing_required_field():
    bad = {"cavity": {"f_c_hz": 1e9, "kappa_in_hz": 1e5}}
    with pytest.raises(ConfigError, match=r"cavity\.kappa_ex_hz"):
        parse_config(bad)


def test_non_numeric_value_rejected():
    # Python's json reads NaN, Infinity and integers past the float range,
    # so they reach the schema; finite values outside the magnitude rule
    # are refused with them
    cases = [
        ("cavity", "f_c_hz", "ten"),
        ("cavity", "f_c_hz", float("nan")),
        ("cavity", "f_c_hz", 10**400),
        ("cavity", "f_c_hz", 10**101),
        ("cavity", "f_c_hz", 1e308),
        ("tripartite", "g_b_hz", -1e308),
        ("tripartite", "g_b_hz", 9.9e-101),
        ("tripartite", "g_c_hz", -1.0000000000000002e100),
        ("tripartite", "g_c_hz", float("inf")),
        ("tripartite", "delta_a_hz", -float("inf")),
        ("background", "delta_hz", float("nan")),
        ("background", "tau_s", True),
        ("background", "phi_rad", "x"),
    ]
    for block, key, value in cases:
        bad = {block: {**VALID[block], key: value}}
        with pytest.raises(ConfigError, match=rf"{block}\.{key}: "):
            parse_config(bad)
    for value in (float("nan"), float("inf"), "12.5", False):
        bad = {"tripartite": {**VALID["tripartite"], "occupations": {"n_b_in": value}}}
        with pytest.raises(ConfigError, match=r"tripartite\.occupations\.n_b_in: "):
            parse_config(bad)


def test_magnitude_rule():
    # 0 and 1e-100 <= |v| <= 1e100 pass, scalar or elementwise; the records
    # keep only finiteness and sign, so a computed value outside the rule,
    # such as a fit's trial point, still builds one
    passes = [0.0, -0.0, 1e-100, -1e-100, 1e100, -1e100, 1.0, 10**99]
    refused = [9.9e-101, -9.9e-101, 1.0000000000000002e100, 5e-324, 1e308, math.nan, math.inf, -math.inf, 10**400]
    assert all(in_range(v) for v in passes) and not any(in_range(v) for v in refused)
    assert in_range(np.array(passes, dtype=float)).all()
    assert not in_range(np.array(refused[:-1])).any()
    assert CavityParams(omega_c=1e300, kappa_in=1e-300, kappa_ex=0.0).omega_c == 1e300


def test_negative_rate_rejected():
    bad = {"cavity": {**GOOD["cavity"], "kappa_in_hz": -1.0}}
    with pytest.raises(ConfigError):
        parse_config(bad)


def test_tripartite_occupations():
    data = {"tripartite": {**VALID["tripartite"], "occupations": {"n_b_in": 12.5}}}
    p = parse_config(data).tripartite
    assert p.occupations.n_b_in == 12.5
    assert p.occupations.n_a_in == 0.0
    assert p.delta_a == pytest.approx(-TWO_PI * 4e6)
    with pytest.raises(ConfigError, match="n_bogus"):
        data["tripartite"]["occupations"]["n_bogus"] = 1.0
        parse_config(data)


def test_bundled_reference_config_loads():
    from pathlib import Path

    ref = Path(__file__).resolve().parents[1] / "configs" / "tripartite_sec63.json"
    p = load_config(ref)[0].tripartite
    assert p.g_c == pytest.approx(TWO_PI * 6.43e6)
    assert p.delta_a == pytest.approx(-p.omega_m)


def test_load_config_file_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(bad)
    bad.write_text('{"cavity": {"f_c_hz": NaN, "kappa_in_hz": 1e5, "kappa_ex_hz": 1e5}}')
    with pytest.raises(ConfigError, match=r"cavity\.f_c_hz: "):
        load_config(bad)


def test_mech_effective_mass_is_optional():
    mech = {k: v for k, v in GOOD["mech"].items() if k != "m_eff_kg"}
    assert parse_config({"mech": mech}).mech.m_eff is None
    assert parse_config(GOOD).mech.m_eff == 2.0e-15


def test_pump_power_is_optional():
    pump = {k: v for k, v in GOOD["pump"].items() if k != "power_w"}
    assert parse_config({"pump": pump}).pump.power is None
    assert parse_config(GOOD).pump.power == 1e-12


def test_non_utf8_config_is_config_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"cavity": \xff}')
    with pytest.raises(ConfigError) as info:
        load_config(bad)
    assert str(info.value) == (
        f"cannot read config {bad}: 'utf-8' codec can't decode byte 0xff in position 11: "
        "invalid start byte"
    )


# the config blocks and their record classes
BLOCKS = {f.name: f.metadata["record"] for f in fields(SystemParams)}
OCCUPATION_KEYS = ["n_a_in", "n_a_ex", "n_b_in", "n_c_in", "n_c_ex"]
# every record class with a valid object, and the bound each key must obey
RECORDS = [
    *((BLOCKS[name], VALID[name], name) for name in BLOCKS),
    (Occupations, {k: 0.5 for k in OCCUPATION_KEYS}, "tripartite.occupations"),
    (ReflectionModelParams, {"amplitude": 0.2, "tau_s": 6e-8, "phi_rad": 0.8, "f_c_hz": 1e10,
                             "kappa_in_hz": 4e5, "kappa_ex_hz": 1.5e6, "delta_hz": 0.0}, "params"),
    (OmitModelParams, {"g_hz": 2e3, "gamma_hz": 100.0, "f_m_hz": 4e6, "detuning_hz": 4e6}, "params"),
    (ResonatorLumped, {"inductance_h": 2e-9, "stray_capacitance_f": 1e-14}, "lumped"),
]
BOUNDS = {
    "cavity.f_c_hz": ">", "cavity.kappa_in_hz": ">=", "cavity.kappa_ex_hz": ">=",
    "mech.f_m_hz": ">", "mech.gamma_hz": ">=", "mech.m_eff_kg": ">",
    "pump.f_p_hz": ">", "pump.power_w": ">=", "coupling.n_cavity": ">=",
    "background.amplitude": ">", "tripartite.f_m_hz": ">",
    **{f"tripartite.{k}_hz": ">=" for k in ("kappa_a_in", "kappa_a_ex", "kappa_c_in", "kappa_c_ex", "gamma")},
    **{f"tripartite.occupations.{k}": ">=" for k in OCCUPATION_KEYS},
    "params.amplitude": ">", "params.kappa_in_hz": ">=", "params.kappa_ex_hz": ">=",
    "lumped.inductance_h": ">", "lumped.stray_capacitance_f": ">=",
}


def test_bounds_agree_between_config_and_construction():
    # one declaration serves both doors: a value the config refuses under
    # <block>.<key> is refused, in rad/s, by the dataclass under its field
    seen = {}
    for cls, valid, name in RECORDS:
        obj = parse_block(cls, valid, name)
        for f in fields(cls):
            if "record" in f.metadata:
                continue
            key, fld, bound = f.metadata.get("key", f.name), f.name, f.metadata.get("bound")
            if bound:
                seen[f"{name}.{key}"] = bound
            bad = [math.nan, math.inf, -math.inf]
            bad += [-1.0, 0.0] if bound == ">" else [-1.0] if bound == ">=" else []
            for value in bad:
                with pytest.raises(ConfigError, match=rf"^{name}\.{key}: "):
                    parse_block(cls, {**valid, key: value}, name)
                with pytest.raises(DomainError, match=rf"^{fld} must be finite"):
                    replace(obj, **{fld: TWO_PI * value if key.endswith("_hz") else value})
            if bound == ">=":
                assert getattr(parse_block(cls, {**valid, key: 0.0}, name), fld) == 0.0
    assert seen == BOUNDS


# every record's JSON keys in order, declared a second time here: the keys
# of the field metadata must match them on both doors
KEYS = {
    CavityParams: ["f_c_hz", "kappa_in_hz", "kappa_ex_hz"],
    MechParams: ["f_m_hz", "gamma_hz", "m_eff_kg"],
    PumpParams: ["f_p_hz", "power_w"],
    CouplingParams: ["g0_hz", "n_cavity"],
    Background: ["amplitude", "tau_s", "phi_rad", "delta_hz"],
    TripartiteParams: ["delta_a_hz", "delta_c_hz", "f_m_hz", "g_b_hz", "g_c_hz", "kappa_a_in_hz",
                       "kappa_a_ex_hz", "kappa_c_in_hz", "kappa_c_ex_hz", "gamma_hz", "occupations"],
    Occupations: OCCUPATION_KEYS,
    ReflectionModelParams: ["amplitude", "tau_s", "phi_rad", "f_c_hz", "kappa_in_hz",
                            "kappa_ex_hz", "delta_hz"],
    OmitModelParams: ["g_hz", "gamma_hz", "f_m_hz", "detuning_hz"],
    ResonatorLumped: ["inductance_h", "stray_capacitance_f"],
}


def test_record_keys():
    assert list(to_record(parse_config(VALID))) == list(BLOCKS) == [
        "cavity", "mech", "pump", "coupling", "background", "tripartite",
    ]
    assert {cls for cls, _, _ in RECORDS} == set(KEYS)
    for cls, valid, name in RECORDS:
        keys = KEYS[cls]
        assert list(to_record(parse_block(cls, valid, name))) == keys
        for key in keys:
            with pytest.raises(ConfigError, match=rf"^{name}\.{key}: expected an? (number|object)"):
                parse_block(cls, {**valid, key: "x"}, name)
        # the library's field names are no keys where a key is declared
        for f in fields(cls):
            if f.name not in keys:
                with pytest.raises(ConfigError, match=rf"^{name}\.{f.name}: unknown key$"):
                    parse_block(cls, {**valid, f.name: 1.0}, name)
    for cls, keys in KEYS.items():
        required = [f.metadata.get("key", f.name) for f in fields(cls) if f.default is MISSING
                    and f.default_factory is MISSING]
        for key in required:
            data = dict.fromkeys(keys, 1.0)
            del data[key]
            with pytest.raises(ConfigError, match=rf"^r\.{key}: missing required field$"):
                parse_block(cls, data, "r")


def json_values():
    scalars = (st.none() | st.booleans() | st.integers() | st.just(10**400) | st.floats()
               | st.text(max_size=4))
    return st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
        max_leaves=6,
    )


# (block,), (block, key) or (block, "occupations", key): where a value goes
PATHS = [(name,) for name in BLOCKS]
PATHS += [(name, key) for name, cls in BLOCKS.items() for key in KEYS[cls]]
PATHS += [("tripartite", "occupations", key) for key in OCCUPATION_KEYS]


@given(path=st.sampled_from(PATHS), value=json_values())
@example(path=("tripartite", "f_m_hz"), value=1e308)
@settings(max_examples=200, deadline=None)
def test_any_json_value_in_any_field_raises_only_config_error(path, value):
    data = copy.deepcopy({**VALID, "tripartite": {**VALID["tripartite"], "occupations": {}}})
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    try:
        parse_config(data)
    except ConfigError:
        pass
