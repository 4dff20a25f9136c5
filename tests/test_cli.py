"""End-to-end CLI: exit codes, file outputs, manifests, determinism."""

import csv
import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from emcavity import cli
from emcavity.cli import _write_spectrum_csv, main
from emcavity.config import load_config
from emcavity.constants import TWO_PI
from emcavity.core import thermal_occupation
from emcavity.fitting import (
    OmitModelParams,
    ReflectionModelParams,
    fit_reflection,
    omit_model,
    save_trace,
    synthesize_trace,
)

from conftest import reference_point

REFERENCE_CONFIG = str(Path(__file__).resolve().parents[1] / "configs" / "tripartite_sec63.json")

CAVITY_CONFIG = {
    "cavity": {"f_c_hz": 10.29184e9, "kappa_in_hz": 0.41e6, "kappa_ex_hz": 1.45e6},
    "mech": {"f_m_hz": 4.0e6, "gamma_hz": 100.0, "m_eff_kg": 2.0e-15},
    "pump": {"f_p_hz": 10.29184e9 - 4.0e6, "power_w": 1e-12},
    "coupling": {"g0_hz": 100.0, "n_cavity": 4.0e2},
    "background": {"amplitude": 0.2, "tau_s": 6.0e-8, "phi_rad": 0.8, "delta_hz": 0.0},
}


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "system.json"
    path.write_text(json.dumps(CAVITY_CONFIG))
    return str(path)


def run(args):
    return main(list(args))


class TestThermal:
    def test_value_and_exit_code(self, capsys):
        assert run(["thermal", "--f-hz", "10e9", "--t-k", "4.0"]) == 0
        out = capsys.readouterr().out.strip()
        assert float(out) == pytest.approx(thermal_occupation(TWO_PI * 10e9, 4.0), rel=1e-15)

    def test_negative_frequency_is_numerical_error(self):
        assert run(["thermal", "--f-hz", "-1.0", "--t-k", "4.0"]) == 3

    def test_missing_option_is_usage_error(self):
        assert run(["thermal", "--f-hz", "1e9"]) == 1


class TestReflect:
    def test_writes_csv_and_manifest(self, config_file, tmp_path, capsys):
        out = tmp_path / "spectrum.csv"
        code = run(
            [
                "reflect",
                "--config", config_file,
                "--f-start-hz", "10.27184e9",
                "--f-stop-hz", "10.31184e9",
                "--points", "101",
                "--out", str(out),
            ]
        )
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 101
        assert set(rows[0]) == {"f_hz", "re", "im", "mag_db", "phase_rad"}
        mags = [10 ** (float(r["mag_db"]) / 20.0) for r in rows]
        # dip floor (kappa_ex - kappa_in)/kappa ~ 0.559, wings near 1
        assert min(mags) < 0.6
        assert max(mags) > 0.95
        manifest = json.loads((tmp_path / "spectrum.csv.manifest.json").read_text())
        assert manifest["tool_version"]
        assert manifest["config_sha256"]
        assert str(out) in manifest["outputs"]

    def test_missing_config_is_data_error(self, tmp_path):
        code = run(
            [
                "reflect",
                "--config", str(tmp_path / "nope.json"),
                "--f-start-hz", "1e9",
                "--f-stop-hz", "2e9",
                "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert code == 1  # unreadable config is a config error

    def test_bad_grid_is_usage_error(self, config_file, tmp_path):
        code = run(
            [
                "reflect",
                "--config", config_file,
                "--f-start-hz", "2e9",
                "--f-stop-hz", "1e9",
                "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert code == 1

    def test_config_without_cavity_block(self, tmp_path):
        path = tmp_path / "mech_only.json"
        path.write_text(json.dumps({"mech": CAVITY_CONFIG["mech"]}))
        code = run(
            [
                "reflect",
                "--config", str(path),
                "--f-start-hz", "1e9",
                "--f-stop-hz", "2e9",
                "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert code == 1


class TestOmitAndDamping:
    def test_omit_single_point(self, config_file, capsys):
        f_probe = CAVITY_CONFIG["pump"]["f_p_hz"] + 4.0e6
        assert run(["omit", "--config", config_file, "--f-hz", str(f_probe)]) == 0
        out = capsys.readouterr().out
        assert "re=" in out and "mag_db=" in out

    def test_damping_sign_flips_with_detuning(self, config_file, capsys):
        assert run(["damping", "--config", config_file, "--detuning-hz", "4e6"]) == 0
        cooling = float(capsys.readouterr().out.strip())
        assert run(["damping", "--config", config_file, "--detuning-hz", "-4e6"]) == 0
        heating = float(capsys.readouterr().out.strip())
        assert cooling > 0 > heating
        assert cooling == pytest.approx(-heating, rel=1e-12)


class TestTripartite:
    def test_sweep_csv(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = run(
            [
                "tripartite", "sweep",
                "--config", REFERENCE_CONFIG,
                "--axis", "g_b_hz=0:4e6:9",
                "--out", str(out),
            ]
        )
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 9
        assert rows[0]["stable"] == "true"
        assert float(rows[0]["log_negativity"]) <= 1e-9  # g_b = 0
        assert rows[-1]["stable"] == "false" and rows[-1]["zeta_minus"] == ""
        mid = [float(r["log_negativity"]) for r in rows if r["stable"] == "true"][1:]
        assert max(mid) > 0.1

    def test_sweep_at_nonzero_frequency(self, tmp_path):
        # the benchmark sweeps only at w = 0: the probe frequency must reach
        # the covariance and leave the stability columns alone
        p = load_config(REFERENCE_CONFIG).tripartite
        rows = {}
        for f_hz in ("0", "3e5"):
            out = tmp_path / f"w{f_hz}.csv"
            args = ["--axis", "g_b_hz=0:4e6:9", "--omega-hz", f_hz, "--out", str(out)]
            assert run(["tripartite", "sweep", "--config", REFERENCE_CONFIG] + args) == 0
            with open(out) as fh:
                rows[f_hz] = list(csv.DictReader(fh))
        for g_b, r0, r in zip(TWO_PI * np.linspace(0.0, 4e6, 9), rows["0"], rows["3e5"]):
            assert (r["stable"], r["max_re_eig_hz"]) == (r0["stable"], r0["max_re_eig_hz"])
            stable, _, zeta, en, _ = reference_point(TWO_PI * 3e5, replace(p, g_b=float(g_b)))
            assert r["stable"] == ("true" if stable else "false")
            if zeta is None:
                assert r["zeta_minus"] == r["log_negativity"] == ""
            else:
                assert float(r["zeta_minus"]) == pytest.approx(zeta, rel=1e-12, abs=0.0)
                assert float(r["log_negativity"]) == pytest.approx(en, rel=1e-12, abs=0.0)
        assert any(r["zeta_minus"] != r0["zeta_minus"] for r0, r in zip(rows["0"], rows["3e5"]))

    def test_sweep_axis_parsing_errors(self, tmp_path):
        base = [
            "tripartite", "sweep", "--config", REFERENCE_CONFIG,
            "--out", str(tmp_path / "x.csv"),
        ]
        assert run(base + ["--axis", "g_b=0:1e6:5"]) == 1  # missing _hz
        assert run(base + ["--axis", "gamma_hz=0:1e6:5"]) == 1  # not sweepable
        assert run(base + ["--axis", "g_b_hz=0:1e6"]) == 1  # malformed range

    def test_two_axis_sweep_row_count(self, tmp_path):
        out = tmp_path / "grid.csv"
        code = run(
            [
                "tripartite", "sweep",
                "--config", REFERENCE_CONFIG,
                "--axis", "g_b_hz=0:3e6:4",
                "--axis2", "g_c_hz=5e6:7e6:3",
                "--out", str(out),
            ]
        )
        assert code == 0
        rows = out.read_text().strip().splitlines()
        assert len(rows) == 1 + 12
        assert rows[0].startswith("g_b_hz,g_c_hz,")

    def test_non_finite_config_is_config_error(self, tmp_path, capsys):
        # Python's json reads NaN and Infinity; a NaN occupation used to
        # write zeta_minus=nan, log_negativity=0 ("not entangled") and exit 0
        reference = json.loads(Path(REFERENCE_CONFIG).read_text())
        cases = [
            ("tripartite", "tripartite.occupations.n_b_in",
             {"occupations": {"n_b_in": float("nan")}}),
            ("tripartite", "tripartite.g_c_hz", {"g_c_hz": float("inf")}),
            ("synth", "background.delta_hz", {"delta_hz": float("nan")}),
            ("synth", "background.tau_s", {"tau_s": True}),
            ("synth", "background.phi_rad", {"phi_rad": "x"}),
        ]
        for command, field, bad in cases:
            config = tmp_path / "bad.json"
            if command == "tripartite":
                config.write_text(json.dumps({"tripartite": {**reference["tripartite"], **bad}}))
                args = ["tripartite", "sweep", "--axis", "g_b_hz=0:4e6:3"]
            else:
                config.write_text(json.dumps({**CAVITY_CONFIG, "background": bad}))
                args = ["synth", "--points", "11"]
            args += ["--config", str(config), "--out", str(tmp_path / "x.csv")]
            assert run(args) == 1, field
            assert f"config error: {field}: " in capsys.readouterr().err, field

    def test_critical_coupling(self, capsys):
        code = run(
            [
                "tripartite", "critical",
                "--config", REFERENCE_CONFIG,
                "--axis", "g_b",
                "--bracket-hz", "2e6,5e6",
            ]
        )
        assert code == 0
        g_crit = float(capsys.readouterr().out.strip())
        assert 2.7e6 < g_crit < 3.0e6

    def test_critical_bad_bracket_is_numerical_error(self):
        code = run(
            [
                "tripartite", "critical",
                "--config", REFERENCE_CONFIG,
                "--axis", "g_b",
                "--bracket-hz", "0,1e6",
            ]
        )
        assert code == 3


class TestSynthFitPipeline:
    def test_synth_deterministic(self, config_file, tmp_path):
        a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
        for path, seed in ((a, "7"), (b, "7"), (c, "8")):
            code = run(
                [
                    "synth", "--config", config_file,
                    "--snr-db", "40", "--seed", seed,
                    "--points", "201", "--out", str(path),
                ]
            )
            assert code == 0
        assert a.read_text() == b.read_text()
        assert a.read_text() != c.read_text()
        manifest = json.loads((tmp_path / "a.csv.manifest.json").read_text())
        assert manifest["seed"] == 7

    def test_synth_noise_requires_seed(self, config_file, tmp_path):
        code = run(
            [
                "synth", "--config", config_file,
                "--snr-db", "40", "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert code == 1

    def test_synth_then_fit_recovers_config(self, config_file, tmp_path):
        trace = tmp_path / "trace.csv"
        fitjson = tmp_path / "fit.json"
        assert run(["synth", "--config", config_file, "--out", str(trace)]) == 0
        assert run(["fit", "reflect", "--in", str(trace), "--out", str(fitjson)]) == 0
        doc = json.loads(fitjson.read_text())
        assert doc["convergence"]["converged"]
        p = doc["params"]
        assert p["f_c_hz"] == pytest.approx(CAVITY_CONFIG["cavity"]["f_c_hz"], rel=1e-9)
        assert p["kappa_in_hz"] == pytest.approx(CAVITY_CONFIG["cavity"]["kappa_in_hz"], rel=1e-5)
        assert p["kappa_ex_hz"] == pytest.approx(CAVITY_CONFIG["cavity"]["kappa_ex_hz"], rel=1e-5)
        assert p["amplitude"] == pytest.approx(0.2, rel=1e-5)

    def test_fit_on_garbage_is_data_error(self, tmp_path):
        bad = tmp_path / "garbage.csv"
        bad.write_text("f_hz,re,im\n1.0,2.0\n")
        code = run(["fit", "reflect", "--in", str(bad), "--out", str(tmp_path / "f.json")])
        assert code == 2

    def test_non_utf8_input(self, config_file, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_bytes(b'{"cavity": \xff}')
        capsys.readouterr()
        assert run(["omit", "--config", str(config), "--f-hz", "1e9"]) == 1
        assert capsys.readouterr().err.startswith(
            f"config error: cannot read config {config}: 'utf-8' codec can't decode byte 0xff"
        )
        trace = tmp_path / "trace.csv"
        assert run(["synth", "--config", config_file, "--points", "21", "--out", str(trace)]) == 0
        trace.write_bytes(trace.read_bytes().replace(b"e", b"\xff", 1))
        capsys.readouterr()
        assert run(["fit", "reflect", "--in", str(trace), "--out", str(tmp_path / "f.json")]) == 2
        assert capsys.readouterr().err.startswith(
            f"data error: cannot read {trace}: 'utf-8' codec can't decode byte 0xff"
        )

    def test_fit_missing_input_is_data_error(self, tmp_path):
        code = run(
            ["fit", "reflect", "--in", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "f.json")]
        )
        assert code == 2


class TestDevice:
    @pytest.fixture
    def device_files(self, tmp_path):
        gap, area, volts, n = 100e-9, 1e-8, 1.0, 50
        z = (np.arange(n) + 0.5) * gap / n
        vol = tmp_path / "vol.csv"
        with open(vol, "w") as fh:
            fh.write("x_m,y_m,z_m,w_m3,eps_rel,ex_vpm,ey_vpm,ez_vpm,rho_kgpm3,qx_m,qy_m,qz_m\n")
            for zi in z:
                fh.write(
                    f"0,0,{float(zi)!r},{area*gap/n!r},1.0,0,0,{volts/gap!r},2329.0,0,0,1e-9\n"
                )
        surf = tmp_path / "surf.csv"
        from emcavity.constants import EPSILON_0 as eps0
        with open(surf, "w") as fh:
            fh.write(
                "x_m,y_m,z_m,a_m2,nx,ny,nz,qx_m,qy_m,qz_m,ex_vpm,ey_vpm,ez_vpm,"
                "dx_cpm2,dy_cpm2,dz_cpm2,eps1_rel,eps2_rel\n"
            )
            fh.write(
                f"0,0,{gap!r},{area!r},0,0,-1,0,0,-1e-9,0,0,{volts/gap!r},"
                f"0,0,{eps0*volts/gap!r},1e12,1.0\n"
            )
        lumped = tmp_path / "lumped.json"
        lumped.write_text('{"inductance_h": 2e-9, "stray_capacitance_f": 1.0e-14}')
        return vol, surf, lumped

    def test_meff_and_cap(self, device_files, capsys):
        vol, _, _ = device_files
        assert run(["device", "meff", "--volume", str(vol)]) == 0
        m_eff = float(capsys.readouterr().out.strip())
        assert m_eff == pytest.approx(2329.0 * 1e-8 * 100e-9, rel=1e-9)
        assert run(["device", "cap", "--volume", str(vol)]) == 0
        c_m = float(capsys.readouterr().out.strip())
        from emcavity.constants import EPSILON_0

        assert c_m == pytest.approx(EPSILON_0 * 1e-8 / 100e-9, rel=1e-9)

    def test_g0_pipeline(self, device_files, capsys):
        vol, surf, lumped = device_files
        code = run(
            [
                "device", "g0",
                "--volume", str(vol),
                "--surface", str(surf),
                "--lumped", str(lumped),
                "--f-m-hz", "4e6",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["g0_hz"] < 0  # plate closing the gap lowers the LC frequency
        assert 0 < doc["eta"] < 1
        assert doc["f_c_hz"] > 0
        # cross-check g0 against the scalar chain
        expected = (
            -doc["x_zpf_m"] * doc["eta"] * (TWO_PI * doc["f_c_hz"] / 2.0) * (1.0 / 100e-9)
        )
        assert doc["g0_hz"] * TWO_PI == pytest.approx(expected, rel=1e-6)

    def g0(self, device_files, lumped):
        vol, surf, _ = device_files
        return run(["device", "g0", "--volume", str(vol), "--surface", str(surf),
                    "--lumped", str(lumped), "--f-m-hz", "4e6"])

    def test_lumped_record(self, device_files, tmp_path, capsys):
        lumped = tmp_path / "lc.json"
        lumped.write_text('{"inductance_h": 2e-9, "stray_capacitance_f": 1.097e-14}')
        assert self.g0(device_files, lumped) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["f_c_hz"] == 1.0 / np.sqrt(2e-9 * (1.097e-14 + doc["c_m_f"])) / TWO_PI

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"inductance_h": NaN, "stray_capacitance_f": 1e-14}',
             "lumped.inductance_h: expected a finite number, got nan"),
            ('{"inductance_h": true, "stray_capacitance_f": 1e-14}',
             "lumped.inductance_h: expected a number, got True"),
            ('{"inductance_h": "2e-9", "stray_capacitance_f": 1e-14}',
             "lumped.inductance_h: expected a number, got '2e-9'"),
            ('{"inductance_h": 2e-9, "stray_capacitance_f": 1e-14, "r_ohm": 0.1}',
             "lumped.r_ohm: unknown key"),
            ('{"inductance_h": 2e-9}', "lumped.stray_capacitance_f: missing required field"),
            ('{"inductance_h": 0, "stray_capacitance_f": 1e-14}',
             "lumped.inductance_h: must be > 0.0, got 0.0"),
            ('{"inductance_h": 2e-9, "stray_capacitance_f": -1e-15}',
             "lumped.stray_capacitance_f: must be >= 0.0, got -1e-15"),
            ('[2e-9, 1e-14]', "lumped: expected an object"),
        ],
        ids=["nan", "bool", "string", "unknown_key", "missing_key", "zero", "negative", "array"],
    )
    def test_bad_lumped_record_is_data_error(self, device_files, tmp_path, capsys, text, message):
        lumped = tmp_path / "lc.json"
        lumped.write_text(text)
        capsys.readouterr()
        assert self.g0(device_files, lumped) == 2
        assert capsys.readouterr().err == f"data error: cannot read lumped circuit {lumped}: {message}\n"

    def test_device_missing_file_is_data_error(self, tmp_path):
        assert run(["device", "meff", "--volume", str(tmp_path / "no.csv")]) == 2

    @pytest.mark.parametrize(
        "name, line, column, cell, message",
        [
            ("vol", 3, "ez_vpm", "nan", "{path}:3: non-finite sample"),
            ("vol", 3, "rho_kgpm3", "inf", "{path}:3: non-finite sample"),
            ("vol", 3, "w_m3", "0", "{path}: weight must be finite and > 0, got 0.0"),
            ("vol", 3, "w_m3", "-2e-23", "{path}: weight must be finite and > 0, got -2e-23"),
            ("surf", 2, "dz_cpm2", "NaN", "{path}:2: non-finite sample"),
            ("surf", 2, "eps1_rel", "-inf", "{path}:2: non-finite sample"),
            ("surf", 2, "a_m2", "0", "{path}: area must be finite and > 0, got 0.0"),
            ("surf", 2, "a_m2", "-1e-8", "{path}: area must be finite and > 0, got -1e-08"),
            ("surf", 2, "nz", "-0.5", "{path}: normals must be unit vectors"),
        ],
    )
    def test_bad_sample_is_data_error(self, device_files, capsys, name, line, column, cell, message):
        vol, surf, lumped = device_files
        path = {"vol": vol, "surf": surf}[name]
        lines = path.read_text().split("\n")
        cells = lines[line - 1].split(",")
        cells[lines[0].split(",").index(column)] = cell
        lines[line - 1] = ",".join(cells)
        path.write_text("\n".join(lines))
        capsys.readouterr()
        assert self.g0(device_files, lumped) == 2
        assert capsys.readouterr().err == f"data error: {message.format(path=path)}\n"

    @pytest.mark.parametrize("name", ["vol", "lumped"])
    def test_non_utf8_file_is_data_error(self, device_files, capsys, name):
        vol, surf, lumped = device_files
        path = {"vol": vol, "lumped": lumped}[name]
        what = {"vol": "", "lumped": "lumped circuit "}[name]
        path.write_bytes(path.read_bytes() + b"\xff\n")
        capsys.readouterr()
        assert self.g0(device_files, lumped) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: cannot read {what}{path}: 'utf-8' codec can't decode byte 0xff")


# one float option per command, given a non-finite value; {config} and {tmp}
# are filled in by the test
NON_FINITE = {
    "thermal": (["thermal", "--f-hz", "nan", "--t-k", "4.0"], "--f-hz"),
    "reflect": (["reflect", "--config", "{config}", "--f-start-hz", "1e10", "--f-stop-hz", "inf",
                 "--out", "{tmp}/out.csv"], "--f-stop-hz"),
    "omit": (["omit", "--config", "{config}", "--f-hz", "nan"], "--f-hz"),
    "damping": (["damping", "--config", "{config}", "--detuning-hz", "inf"], "--detuning-hz"),
    "tripartite_sweep": (["tripartite", "sweep", "--config", REFERENCE_CONFIG,
                          "--axis", "g_b_hz=0:nan:3", "--out", "{tmp}/out.csv"], "--axis"),
    "tripartite_critical": (["tripartite", "critical", "--config", REFERENCE_CONFIG,
                             "--axis", "g_b", "--bracket-hz", "2e6,-inf"], "--bracket-hz"),
    "fit_omit": (["fit", "omit", "--in", "{tmp}/trace.csv", "--cavity", "{tmp}/cavity.json",
                  "--f-m-hz", "nan", "--out", "{tmp}/out.json"], "--f-m-hz"),
    "synth": (["synth", "--config", "{config}", "--snr-db", "inf", "--seed", "1",
               "--out", "{tmp}/out.csv"], "--snr-db"),
    "device_cap": (["device", "cap", "--volume", "{tmp}/vol.csv", "--voltage-v", "nan"], "--voltage-v"),
    "device_g0": (["device", "g0", "--volume", "{tmp}/vol.csv", "--surface", "{tmp}/surf.csv",
                   "--lumped", "{tmp}/lc.json", "--f-m-hz", "inf"], "--f-m-hz"),
}


@pytest.mark.parametrize("args, option", NON_FINITE.values(), ids=list(NON_FINITE))
def test_non_finite_float_option_is_usage_error(config_file, tmp_path, capsys, args, option):
    assert run([a.format(config=config_file, tmp=tmp_path) for a in args]) == 1
    assert f"Invalid value for '{option}': " in capsys.readouterr().err
    assert not list(tmp_path.glob("out*"))


def test_cli_import_leaves_out_heavy_scipy():
    # scipy.optimize, .integrate and .linalg cost every CLI process tens of
    # MB and start-up time; the code that needs them imports them late
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, emcavity.cli; print(*sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    loaded = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True, timeout=60).stdout.split()
    assert "emcavity.cli" in loaded
    assert not {"scipy.optimize", "scipy.integrate", "scipy.linalg"} & set(loaded)


class TestTopLevel:
    def test_version(self, capsys):
        assert run(["--version"]) == 0
        assert "emcavity" in capsys.readouterr().out

    def test_unknown_command(self):
        assert run(["frobnicate"]) == 1

    def test_threads_option_removed(self):
        # the global --threads option did nothing and is gone: a usage error
        assert run(["--threads", "2", "thermal", "--f-hz", "1e9", "--t-k", "1.0"]) == 1


# sha256 of the data files written for CAVITY_CONFIG.  Traces are repr
# cells with CRLF line ends (the csv-module default), spectra "%.17e" cells
# with LF; any change to a writer or to the numbers shows here.
GOLDEN = {
    "synth": (
        ["synth", "--snr-db", "40", "--seed", "7", "--points", "201"],
        b"f_hz,re,im\r\n",
        "66a7e175b902558731d0b7ae65c7cd2df1a9b4747e76ca4d88cf5a9e229201f7",
    ),
    "reflect": (
        ["reflect", "--f-start-hz", "10.27184e9", "--f-stop-hz", "10.31184e9", "--points", "101"],
        b"f_hz,re,im,mag_db,phase_rad\n",
        "30c0aded7b091e9ea2df14dddec12e5a947b8408f9d0ce4ab2f88f6b2117c65c",
    ),
    "reflect_omit": (
        ["reflect", "--model", "omit", "--f-start-hz", "10.29183e9", "--f-stop-hz", "10.29185e9",
         "--points", "101"],
        b"f_hz,re,im,mag_db,phase_rad\n",
        "579f8c169de6297848bd64600f4406ea81713f4a5f54466d68e7629179aaa8a9",
    ),
}


class TestGoldenOutputs:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_output_bytes(self, config_file, tmp_path, name):
        (command, *args), header, digest = GOLDEN[name]
        out = tmp_path / f"{name}.csv"
        assert run([command, "--config", config_file, *args, "--out", str(out)]) == 0
        data = out.read_bytes()
        assert data.startswith(header)
        assert hashlib.sha256(data).hexdigest() == digest

    @given(
        parts=st.lists(
            st.tuples(*[st.floats(-1e300, 1e300, allow_nan=False)] * 3), min_size=1, max_size=20
        )
    )
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_spectrum_cells_parse_back_bit_exact(self, tmp_path, parts):
        f, re, im = (np.array(col) for col in zip(*parts))
        values = np.array(re, dtype=complex)
        values.imag = im  # re + 1j * im would turn an imaginary -0.0 into +0.0
        path = tmp_path / "spec.csv"
        _write_spectrum_csv(path, f, values)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["f_hz", "re", "im", "mag_db", "phase_rad"]
        back = np.array([[float(c) for c in row] for row in rows[1:]])
        with np.errstate(divide="ignore"):
            mag_db = 20.0 * np.log10(np.abs(values))
        want = np.stack([f, re, im, mag_db, np.angle(values)], axis=1)
        assert back.tobytes() == want.tobytes()


# sha256 of the fit JSON written by the round trip below: CAVITY_CONFIG's
# noiseless trace through `fit reflect`, then a rotating-frame OMIT trace
# through `fit omit --cavity` with that fit, with and without
# `--fit-detuning`.  Pins the numbers, the record keys and their order.
# The trace is noiseless because a noisy fit's phase offset, correlated
# with the cable delay at 10 GHz, is off by ~0.5 rad in the rotating frame.
FIT_GOLDEN = {
    "reflect": "dfe645e84e473b697722db98c5279e37f16491a24d74b810ac497ff4e8362fdb",
    "omit": "5bca50c2059b2d89e1d426e615c5d3c3c998fe648b78387864eed23d99c89da3",
    "omit_fixed_detuning": "5e39d5867a5f14f318da6a3ecb074e09e89ba3c6a580b176fc1b099fc7392ac9",
}
OMIT_ARGS = ["--f-m-hz", "4.00002e6", "--g-hz", "1.5e3", "--gamma-hz", "130"]


@pytest.fixture
def fit_inputs(config_file, tmp_path):
    """(fit reflect JSON, OMIT trace in the frame rotating at the pump)."""
    trace, cavity, omit = (tmp_path / n for n in ("trace.csv", "cavity.json", "omit.csv"))
    args = ["--points", "201", "--out", str(trace)]
    assert run(["synth", "--config", config_file, *args]) == 0
    assert run(["fit", "reflect", "--in", str(trace), "--out", str(cavity)]) == 0
    c, bg = CAVITY_CONFIG["cavity"], CAVITY_CONFIG["background"]
    truth = ReflectionModelParams(
        amplitude=bg["amplitude"], tau=bg["tau_s"], phi=bg["phi_rad"],
        omega_c=TWO_PI * c["f_c_hz"], kappa_in=TWO_PI * c["kappa_in_hz"],
        kappa_ex=TWO_PI * c["kappa_ex_hz"], delta=0.0,
    )
    mech = OmitModelParams(
        g=TWO_PI * 2e3, gamma=TWO_PI * 100.0, omega_m=TWO_PI * 4e6, detuning=TWO_PI * 4e6
    )
    f = np.unique(np.concatenate([
        4e6 + np.linspace(-20.0, 20.0, 201) * 100.0, 4e6 + np.linspace(-3.0, 3.0, 61) * 1.86e6,
    ]))
    save_trace(synthesize_trace(lambda w: omit_model(w, truth, mech), f, snr_db=40.0, seed=7), omit)
    return cavity, omit


def fit_omit_args(omit, cavity, out, *extra):
    return ["fit", "omit", "--in", str(omit), "--cavity", str(cavity), *OMIT_ARGS, *extra,
            "--out", str(out)]


class TestFitRecords:
    def test_round_trip_bytes(self, fit_inputs, tmp_path):
        cavity, omit = fit_inputs
        out = tmp_path / "omit.json"
        assert run(fit_omit_args(omit, cavity, out, "--fit-detuning")) == 0
        assert list(json.loads(cavity.read_text())["params"]) == [
            "amplitude", "tau_s", "phi_rad", "f_c_hz", "kappa_in_hz", "kappa_ex_hz", "delta_hz",
        ]
        assert list(json.loads(out.read_text())["params"]) == [
            "g_hz", "gamma_hz", "f_m_hz", "detuning_hz",
        ]
        for name, path in (("reflect", cavity), ("omit", out)):
            assert hashlib.sha256(path.read_bytes()).hexdigest() == FIT_GOLDEN[name], name

    def test_fixed_detuning_bytes(self, fit_inputs, tmp_path):
        # without --fit-detuning the detuning stays at its guess, f_m_hz
        cavity, omit = fit_inputs
        out = tmp_path / "omit.json"
        assert run(fit_omit_args(omit, cavity, out)) == 0
        assert json.loads(out.read_text())["params"]["detuning_hz"] == TWO_PI * 4.00002e6 / TWO_PI
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == FIT_GOLDEN["omit_fixed_detuning"]

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda p: {**p, "kappa_in_hz": float("nan")},
             "params.kappa_in_hz: expected a finite number, got nan"),
            (lambda p: {**p, "amplitude": float("nan")},
             "params.amplitude: expected a finite number, got nan"),
            (lambda p: {**p, "f_c_hz": float("inf")}, "params.f_c_hz: expected a finite number, got inf"),
            (lambda p: {**p, "kappa_ex_hz": True}, "params.kappa_ex_hz: expected a number, got True"),
            (lambda p: {**p, "phi_rad": "0.8"}, "params.phi_rad: expected a number, got '0.8'"),
            (lambda p: {k: v for k, v in p.items() if k != "delta_hz"},
             "params.delta_hz: missing required field"),
            (lambda p: {**p, "q_factor": 1e5}, "params.q_factor: unknown key"),
            (lambda p: {**p, "amplitude": 0.0}, "params.amplitude: must be > 0.0, got 0.0"),
            (lambda p: {**p, "amplitude": -0.2}, "params.amplitude: must be > 0.0, got -0.2"),
            (lambda p: {**p, "kappa_in_hz": -1.0}, "params.kappa_in_hz: must be >= 0.0, got -1.0"),
            (lambda p: [p], "params: expected an object"),
        ],
    )
    def test_bad_cavity_record_is_data_error(self, fit_inputs, tmp_path, capsys, edit, message):
        cavity, omit = fit_inputs
        doc = json.loads(cavity.read_text())
        doc["params"] = edit(doc["params"])
        cavity.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(fit_omit_args(omit, cavity, tmp_path / "omit.json")) == 2
        assert capsys.readouterr().err == f"data error: cannot read cavity fit {cavity}: {message}\n"


    def test_non_utf8_cavity_record_is_data_error(self, fit_inputs, tmp_path, capsys):
        cavity, omit = fit_inputs
        cavity.write_bytes(cavity.read_bytes().replace(b"params", b"p\xfframs"))
        capsys.readouterr()
        assert run(fit_omit_args(omit, cavity, tmp_path / "omit.json")) == 2
        assert capsys.readouterr().err.startswith(
            f"data error: cannot read cavity fit {cavity}: 'utf-8' codec can't decode byte 0xff"
        )


# Starts that a magnitude-dip heuristic gave on 3-dB CAVITY_CONFIG traces
# (201 points, seeds 2 and 3).  From them the rates run to 0, trial steps
# underflow exp(log A), and the end point is degenerate.
DIP_STARTS = {
    2: ReflectionModelParams(0.19867008025128294, 7.68977523416564e-08, -1.7012424016330663,
                             64754356979.34544, 3933265.1873071687, 4575342.214022619, 0.0),
    3: ReflectionModelParams(0.2318668641829002, 4.251763394119316e-08, -3.1155431757380154,
                             64555682659.93243, 2623463.0695550414, 3513650.4975722497, 0.0),
}


class TestDegenerateFit:
    @pytest.mark.parametrize("seed", [2, 3])
    def test_rates_at_floor_are_reported_not_converged(self, config_file, tmp_path, monkeypatch, seed):
        trace, out = tmp_path / "trace.csv", tmp_path / "fit.json"
        args = ["--snr-db", "3", "--seed", str(seed), "--points", "201", "--out", str(trace)]
        assert run(["synth", "--config", config_file, *args]) == 0
        monkeypatch.setattr(cli, "fit_reflection", lambda tr: fit_reflection(tr, DIP_STARTS[seed]))
        assert run(["fit", "reflect", "--in", str(trace), "--out", str(out)]) == 0
        doc = json.loads(out.read_text(), parse_constant=pytest.fail)  # strict JSON only
        assert not doc["convergence"]["converged"]
        assert "kappa_in, kappa_ex underflowed to 0" in doc["convergence"]["message"]
        sig = doc["param_uncertainties"]
        if seed == 2:  # the amplitude underflowed too: no sigma is finite
            assert list(sig.values()) == [None] * 7
        else:
            assert sig["kappa_in"] == sig["kappa_ex"] == 0.0
