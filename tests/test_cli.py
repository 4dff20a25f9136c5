"""End-to-end CLI: exit codes, file outputs, manifests, determinism."""

import csv
import hashlib
import json
import os
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from emcavity import cli, fitting
from emcavity.cli import _write_spectrum_csv, main
from emcavity.config import load_config
from emcavity.constants import TWO_PI
from emcavity.core import thermal_occupation
from emcavity.fitting import (
    OmitModelParams,
    ReflectionModelParams,
    omit_model,
    save_trace,
    synthesize_trace,
)
from emcavity.params import RULE
from emcavity.tripartite import sweep

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


def tripartite_config(path, **edit):
    """Write the reference config with `edit` applied to its tripartite block; its path."""
    block = json.loads(Path(REFERENCE_CONFIG).read_text(encoding="utf-8"))["tripartite"]
    path.write_text(json.dumps({"tripartite": {**block, **edit}}), encoding="utf-8")
    return str(path)


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

    def test_manifest_records_the_command_that_ran(self, config_file, tmp_path, monkeypatch):
        out = tmp_path / "spectrum.csv"
        args = ["reflect", "--config", config_file, "--f-start-hz", "10.2e9",
                "--f-stop-hz", "10.3e9", "--points", "3", "--out", str(out)]
        monkeypatch.setattr(sys, "argv", ["host", "--sentinel"])
        assert main(args) == 0
        command_line = json.loads((tmp_path / "spectrum.csv.manifest.json").read_text())["command_line"]
        assert command_line == ["emcavity", *args]
        # run as a program, main reads and records the process's own argv
        monkeypatch.setattr(sys, "argv", ["/usr/bin/emcavity", *args])
        assert main() == 0
        command_line = json.loads((tmp_path / "spectrum.csv.manifest.json").read_text())["command_line"]
        assert command_line == ["/usr/bin/emcavity", *args]

    def test_unwritable_output_is_data_error(self, config_file, tmp_path, capsys):
        # an --out that is a directory, and a manifest path that is one
        out = tmp_path / "spectrum.csv"
        args = ["reflect", "--config", config_file, "--f-start-hz", "10.2e9", "--f-stop-hz", "10.3e9"]
        out.mkdir()
        capsys.readouterr()
        assert run([*args, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.endswith(f"{str(out)!r}\n")
        out.rmdir()
        (tmp_path / "spectrum.csv.manifest.json").mkdir()
        assert run([*args, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.endswith(f"{str(out) + '.manifest.json'!r}\n")
        assert len(out.read_text().splitlines()) == 2002  # the table came first

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

    def test_bad_grid_is_usage_error(self, config_file, tmp_path, capsys):
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
        # synth refuses the same grid the same way: no data file is involved
        capsys.readouterr()
        args = ["--f-start-hz", "10.3e9", "--f-stop-hz", "10.2e9", "--out", str(tmp_path / "t.csv")]
        assert run(["synth", "--config", config_file, *args]) == 1
        assert "need points >= 2 and f_stop_hz > f_start_hz" in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("command, kappa_hz, message", [
        ("reflect", 1.45e6, "--f-start-hz 1000000000.0 and --f-stop-hz 1000000000.0000002 are too close "
                            "for 2001 points to rise at float resolution"),
        ("synth", 1.45e6, "--f-start-hz 1000000000.0 and --f-stop-hz 1000000000.0000002 are too close "
                          "for 2001 points to rise at float resolution"),
        ("synth", 1e-8, "the default grid f_c +/- 10 kappa (f_c = 1000000000.0 Hz, kappa = 2e-08 Hz) does not "
                        "rise over 2001 points at float resolution; give --f-start-hz and --f-stop-hz"),
        ("synth", 1e-100, "the default grid f_c +/- 10 kappa (f_c = 1000000000.0 Hz, kappa = 2e-100 Hz) does "
                          "not rise over 2001 points at float resolution; give --f-start-hz and --f-stop-hz"),
    ], ids=["reflect", "synth", "synth_default", "synth_default_1e-100"])
    def test_collapsed_grid_is_usage_error(self, tmp_path, capsys, command, kappa_hz, message):
        # a grid finer than float resolution names the options, or f_c and
        # kappa for synth's default grid.  It once exited 3 (reflect), 2
        # (synth) or, at kappa 2e-100 Hz, 1 naming options never given
        config = tmp_path / "system.json"
        cavity = {"f_c_hz": 1e9, "kappa_in_hz": kappa_hz, "kappa_ex_hz": kappa_hz}
        config.write_text(json.dumps({**CAVITY_CONFIG, "cavity": cavity}))
        args = [command, "--config", str(config), "--out", str(tmp_path / "out.csv")]
        if kappa_hz > 1.0:
            args += ["--f-start-hz", "1e9", "--f-stop-hz", "1.0000000000000002e9"]
        assert run(args) == 1
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == f"Error: {message}" and err.count("Error") == 1
        assert "Warning" not in err
        assert not list(tmp_path.glob("out*"))

    @pytest.mark.parametrize("model", ["bare", "omit"])
    def test_grid_that_rises_in_hz_is_evaluated_as_given(self, tmp_path, capsys, model):
        # 1.63812593e9 Hz and the next float up rise in Hz, but 2 pi f (and
        # 2 pi f - omega_p) rounds them to one value: both probes are
        # evaluated there, and their cells agree.  It once exited 3
        config = str(Path(__file__).resolve().parents[1] / "configs" / "cavity_omit.json")
        f_hz = [1.63812593e9, 1638125930.0000002]
        out = tmp_path / "spec.csv"
        args = ["--f-start-hz", repr(f_hz[0]), "--f-stop-hz", repr(f_hz[1]), "--points", "2"]
        assert run(["reflect", "--model", model, "--config", config, *args, "--out", str(out)]) == 0
        assert "Warning" not in capsys.readouterr().err
        with open(out, encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["f_hz"]) for r in rows] == f_hz
        assert (rows[0]["re"], rows[0]["im"]) == (rows[1]["re"], rows[1]["im"])

    def test_config_without_cavity_block(self, tmp_path, capsys):
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
        path.write_text("[]")
        capsys.readouterr()
        args = ["--f-start-hz", "1e9", "--f-stop-hz", "2e9", "--out", str(tmp_path / "x.csv")]
        assert run(["reflect", "--config", str(path), *args]) == 1
        assert capsys.readouterr().err == "config error: top level: expected an object\n"


class TestOmitAndDamping:
    def test_omit_single_point(self, config_file, capsys):
        f_probe = CAVITY_CONFIG["pump"]["f_p_hz"] + 4.0e6
        assert run(["omit", "--config", config_file, "--f-hz", str(f_probe)]) == 0
        out = capsys.readouterr().out
        assert "re=" in out and "mag_db=" in out

    @pytest.mark.parametrize("points", [2, 3, 2001])
    def test_omit_prints_the_reflect_cells(self, config_file, tmp_path, capsys, points):
        # at this probe numpy's scalar and array arithmetic differ in the
        # last bit; the probe is the first row of one grid, the last of another
        probe = "10.2918401e9"
        assert run(["omit", "--config", config_file, "--f-hz", probe]) == 0
        cells = [kv.split("=")[1] for kv in capsys.readouterr().out.split()]
        for ends, row in ((["--f-start-hz", probe, "--f-stop-hz", "10.2919e9"], 1),
                          (["--f-start-hz", "10.2918e9", "--f-stop-hz", probe], -1)):
            out = tmp_path / "omit.csv"
            args = ["--model", "omit", "--config", config_file, *ends, "--points", str(points)]
            assert run(["reflect", *args, "--out", str(out)]) == 0
            assert out.read_text().splitlines()[row].split(",")[1:] == cells

    def test_damping_sign_flips_with_detuning(self, config_file, tmp_path, capsys):
        assert run(["damping", "--config", config_file, "--detuning-hz", "4e6"]) == 0
        cooling = float(capsys.readouterr().out.strip())
        assert run(["damping", "--config", config_file, "--detuning-hz", "-4e6"]) == 0
        heating = float(capsys.readouterr().out.strip())
        assert cooling > 0 > heating
        assert cooling == pytest.approx(-heating, rel=1e-12)
        # a lossless cavity has no damping rate to give
        lossless = tmp_path / "lossless.json"
        cavity = {**CAVITY_CONFIG["cavity"], "kappa_in_hz": 0.0, "kappa_ex_hz": 0.0}
        lossless.write_text(json.dumps({**CAVITY_CONFIG, "cavity": cavity}))
        assert run(["damping", "--config", str(lossless), "--detuning-hz", "4e6"]) == 3
        assert capsys.readouterr().err == "numerical error: kappa must be positive\n"

    @pytest.mark.parametrize("detuning_hz", ["4e6", "1e100"])
    def test_damping_past_the_float_range(self, tmp_path, capsys, detuning_hz):
        # within the magnitude rule, g0 = n_cavity = 1e100 make g^2 kappa
        # overflow: the rate, once printed as inf (or, after a numpy warning,
        # nan) with exit 0, is refused in one line
        config = tmp_path / "loud.json"
        coupling = {"g0_hz": 1e100, "n_cavity": 1e100}
        config.write_text(json.dumps({**CAVITY_CONFIG, "coupling": coupling}), encoding="utf-8")
        assert run(["damping", "--config", str(config), "--detuning-hz", detuning_hz]) == 3
        assert capsys.readouterr() == ("", "numerical error: damping rate must be finite\n")

    def test_exact_pole_is_numerical_error(self, tmp_path, capsys):
        # lossless cavity, no coupling, probed at f_c: the OMIT reflection
        # divides 0 by 0, which is refused without a numpy warning
        config = tmp_path / "pole.json"
        cavity = {**CAVITY_CONFIG["cavity"], "kappa_in_hz": 0.0, "kappa_ex_hz": 0.0}
        coupling = {"g0_hz": 0.0, "n_cavity": 1.0}
        config.write_text(json.dumps({**CAVITY_CONFIG, "cavity": cavity, "coupling": coupling}))
        f_c = str(cavity["f_c_hz"])
        assert run(["omit", "--config", str(config), "--f-hz", f_c]) == 3
        assert capsys.readouterr().err == "numerical error: spectrum values must be finite\n"
        args = ["--model", "omit", "--f-start-hz", f_c, "--f-stop-hz", "10.3e9"]
        assert run(["reflect", "--config", str(config), *args, "--out", str(tmp_path / "r.csv")]) == 3
        assert capsys.readouterr().err == "numerical error: spectrum values must be finite\n"


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
        p = load_config(REFERENCE_CONFIG)[0].tripartite
        rows = {}
        for f_hz in ("0", "3e5"):
            out = tmp_path / f"w{f_hz}.csv"
            config = tripartite_config(tmp_path / f"w{f_hz}.json", omega_hz=float(f_hz))
            assert run(["tripartite", "sweep", "--config", config, "--axis", "g_b_hz=0:4e6:9", "--out", str(out)]) == 0
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

    def test_omega_axis_equals_the_config_key(self, tmp_path):
        # w/2pi is a key of the tripartite block, so it is an axis: each
        # omega_hz block of an (omega_hz, g_b_hz) map is, byte for byte in
        # the shared columns, the g_b_hz sweep of a config setting that key
        out, one = tmp_path / "map.csv", tmp_path / "one.csv"
        args = ["--axis", "omega_hz=-1e6:1e6:5", "--axis2", "g_b_hz=0:4e6:9", "--out", str(out)]
        assert run(["tripartite", "sweep", "--config", REFERENCE_CONFIG, *args]) == 0
        header, *lines = out.read_bytes().split(b"\n")[:-1]
        assert header == b"omega_hz,g_b_hz,stable,max_re_eig_hz,zeta_minus,log_negativity"
        for i, f_hz in enumerate(np.linspace(-1e6, 1e6, 5).tolist()):
            config = tripartite_config(tmp_path / "w.json", omega_hz=f_hz)
            assert run(["tripartite", "sweep", "--config", config, "--axis", "g_b_hz=0:4e6:9", "--out", str(one)]) == 0
            block = [line.split(b",", 1) for line in lines[9 * i : 9 * (i + 1)]]
            assert {cell for cell, _ in block} == {b"%.17e" % f_hz}
            assert [rest for _, rest in block] == one.read_bytes().split(b"\n")[1:-1]
        assert len(lines) == 45

    def test_blank_stable_rows_are_named_on_stderr(self, tmp_path, capsys):
        # a stable row written blank (here at a pole of the resolvent) is
        # counted on the one stderr line, with the CSV line and reason of the
        # first; exit 0, and a sweep with none keeps the plain line
        out = tmp_path / "pole.csv"
        config = tripartite_config(tmp_path / "pole.json", gamma_hz=1e-5)
        args = ["--axis", "g_b_hz=0:2e6:5", "--axis2", "omega_hz=-4e6:-4e6:1", "--out", str(out)]
        assert run(["tripartite", "sweep", "--config", config, *args]) == 0
        reason = "resolvent nearly singular at omega=-2.513274e+07 rad/s (condition estimate 2.898e+12)"
        assert capsys.readouterr().err == f"wrote {out} (5 rows); 1 stable row blank, first at line 2: {reason}\n"
        line = "0.00000000000000000e+00,-4.00000000000000000e+06,true,-5.00000000000000041e-06,,"
        assert out.read_text(encoding="utf-8").splitlines()[1] == line
        assert run(["tripartite", "sweep", "--config", config, *args[:2], "--out", str(out)]) == 0
        assert capsys.readouterr().err == f"wrote {out} (5 rows)\n"

    def test_sweep_axis_parsing_errors(self, tmp_path, capsys):
        base = [
            "tripartite", "sweep", "--config", REFERENCE_CONFIG,
            "--out", str(tmp_path / "x.csv"),
        ]
        assert run(base + ["--axis", "g_b=0:1e6:5"]) == 1  # missing _hz
        assert run(base + ["--axis", "kappa_a_hz=0:1e6:5"]) == 1  # a sum of two keys, not a key
        assert run(base + ["--axis", "g_b_hz=0:1e6"]) == 1  # malformed range
        capsys.readouterr()
        assert run(base + ["--axis", "g_b_hz=0:1e6:3", "--omega-hz", "3e5"]) == 1  # w/2pi is a config key
        assert "No such option" in capsys.readouterr().err
        assert run(base + ["--axis", "g_b_hz=0:1e6:0"]) == 1
        assert "Error: axis needs at least 1 point\n" in capsys.readouterr().err
        assert run(base + ["--axis", "g_b_hz=0:1e6:3", "--axis2", "g_b_hz=0:1:2"]) == 1
        assert "Error: axis2 must differ from axis\n" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_sweep_axis_is_a_config_key(self, tmp_path):
        # any number of the tripartite block or of its occupations is an axis,
        # named by its config key: the header holds the keys, the cells the
        # grid as given, and the rows are `sweep`'s, where only a `_hz` key
        # is scaled by 2 pi
        out = tmp_path / "grid.csv"
        args = ["--axis", "n_b_in=0:200:3", "--axis2", "f_m_hz=3e6:5e6:2", "--out", str(out)]
        assert run(["tripartite", "sweep", "--config", REFERENCE_CONFIG, *args]) == 0
        with open(out, encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == ["n_b_in", "f_m_hz", "stable", "max_re_eig_hz", "zeta_minus", "log_negativity"]
        n, f = (g.ravel() for g in np.meshgrid(np.linspace(0.0, 200.0, 3), [3e6, 5e6], indexing="ij"))
        res = sweep(load_config(REFERENCE_CONFIG)[0].tripartite, {"n_b_in": n, "omega_m": TWO_PI * f})
        assert [[float(r[0]), float(r[1]), r[2], float(r[3])] for r in rows] == [
            [a, b, "true" if s else "false", m / TWO_PI] for a, b, s, m in zip(n, f, res["stable"], res["max_re"])]

    @pytest.mark.parametrize("axis, message", [
        ("kappa_a_in_hz=-1:5:3", "kappa_a_in_hz must be finite and >= 0, got -1.0"),
        ("gamma_hz=0:-5:3", "gamma_hz must be finite and >= 0, got -5.0"),
        ("n_c_ex=-1e-3:1:2", "n_c_ex must be finite and >= 0, got -0.001"),
        ("f_m_hz=0:4e6:3", "f_m_hz must be finite and > 0, got 0.0"),
        ("omega_m=1:2:2", "cannot sweep 'omega_m': not a key of the tripartite block or its occupations"),
        ("occupations=0:1:2", "cannot sweep 'occupations': not a key of the tripartite block or its occupations"),
    ])
    def test_sweep_axis_is_checked_where_it_enters(self, tmp_path, capsys, axis, message):
        # a field name, a record or an end outside the key's bound is a
        # usage error naming the key, before any config is read
        out = tmp_path / "x.csv"
        assert run(["tripartite", "sweep", "--config", REFERENCE_CONFIG, "--axis", axis, "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines()[-1] == f"Error: {message}"
        assert not out.exists()

    @pytest.mark.parametrize("exc, line", [
        (MemoryError("Unable to allocate 745. GiB for an array"),
         "numerical error: out of memory: Unable to allocate 745. GiB for an array\n"),
        (MemoryError(), "numerical error: out of memory\n"),
    ])
    def test_out_of_memory_is_one_line(self, tmp_path, capsys, monkeypatch, exc, line):
        # a grid too large to allocate ends with exit 3 and one stderr line,
        # not a traceback; nothing is allocated for real
        def sweep(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "_sweep", sweep)
        out = tmp_path / "x.csv"
        code = run(["tripartite", "sweep", "--config", REFERENCE_CONFIG,
                    "--axis", "g_b_hz=0:3e6:4", "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err == line
        assert not out.exists()

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

    @pytest.mark.parametrize("axis1, axis2", [
        ("g_b_hz=0:3e6:4", "g_c_hz=5e6:7e6:3"),
        ("delta_a_hz=-5e6:-3e6:1", "g_c_hz=5e6:7e6:5"),
        ("g_c_hz=4e6:8e6:5", "delta_c_hz=-4e6:-4e6:1"),
    ])
    def test_sweep_axis_cells_follow_the_rows(self, tmp_path, axis1, axis2):
        # each axis value is formatted once and repeated: the file must equal
        # a row-by-row %.17e writer over the requested Hz grids, meshed in
        # lexicographic order, and sweep's columns at 2 pi times that mesh,
        # so a transposed or mis-repeated axis column fails
        out = tmp_path / "grid.csv"
        args = ["--config", REFERENCE_CONFIG, "--axis", axis1, "--axis2", axis2, "--out", str(out)]
        assert run(["tripartite", "sweep", *args]) == 0
        axes = {}
        for spec in (axis1, axis2):
            name, grid = spec.split("=")
            start, stop, n = grid.split(":")
            axes[name[: -len("_hz")]] = np.linspace(float(start), float(stop), int(n))
        hz = dict(zip(axes, (g.ravel() for g in np.meshgrid(*axes.values(), indexing="ij"))))
        res = sweep(load_config(REFERENCE_CONFIG)[0].tripartite, {n: TWO_PI * g for n, g in hz.items()})
        lines = [",".join(f"{n}_hz" for n in axes) + ",stable,max_re_eig_hz,zeta_minus,log_negativity"]
        for i in range(len(res["stable"])):
            cells = ["%.17e" % hz[n][i] for n in axes]
            cells += ["true" if res["stable"][i] else "false", "%.17e" % (res["max_re"][i] / TWO_PI)]
            cells += ["" if np.isnan(res[k][i]) else "%.17e" % res[k][i] for k in ("zeta_minus", "log_negativity")]
            lines.append(",".join(cells))
        assert out.read_text(encoding="utf-8") == "\n".join(lines) + "\n"

    def test_sweep_axis_cells_are_the_requested_grid(self, tmp_path):
        # the axis cells are np.linspace's Hz values bit for bit, where
        # (2 pi f) / 2 pi misses some by an ulp
        rng, moved = np.random.default_rng(5), 0
        out = tmp_path / "x.csv"
        for _ in range(100):
            a, b = rng.uniform(-1e7, 1e7, 2).tolist()
            n = int(rng.integers(1, 39))
            args = ["--config", REFERENCE_CONFIG, "--axis", f"delta_a_hz={a!r}:{b!r}:{n}", "--out", str(out)]
            assert run(["tripartite", "sweep", *args]) == 0
            want = np.linspace(a, b, n)
            got = np.loadtxt(out, delimiter=",", skiprows=1, usecols=0, ndmin=1)
            assert got.tobytes() == want.tobytes()
            moved += int(np.sum(TWO_PI * want / TWO_PI != want))
        assert moved > 0

    def test_sweep_refuses_a_detuning_that_swamps_the_losses(self, tmp_path, capsys):
        # 1e100 Hz passes the magnitude rule, but the loss rates would vanish
        # in eigvals' round-off: exit 3, one stderr line naming the field, no
        # warning (an error under this suite's filterwarnings) and no file
        out = tmp_path / "x.csv"
        args = ["--config", REFERENCE_CONFIG, "--axis", "delta_c_hz=0:1e100:3", "--out", str(out)]
        assert run(["tripartite", "sweep", *args]) == 3
        captured = capsys.readouterr()
        reason = "delta_c must keep every drift entry within 2**52 times the smallest nonzero half loss rate"
        assert (captured.err, captured.out) == (f"numerical error: {reason}\n", "")
        assert not out.exists()

    def test_hot_occupations_leave_stable_rows_blank(self, tmp_path, capsys):
        # occupations of 1e100, within the magnitude rule, overflow det V:
        # exit 0, each stable row's zeta- and E_N cells are blank, and
        # stderr counts them and gives the first one's reason
        reference = json.loads(Path(REFERENCE_CONFIG).read_text(encoding="utf-8"))["tripartite"]
        occupations = {**reference["occupations"], "n_a_in": 1e100, "n_c_in": 1e100}
        config, out = tmp_path / "hot.json", tmp_path / "sweep.csv"
        config.write_text(json.dumps({"tripartite": {**reference, "occupations": occupations}}), encoding="utf-8")
        args = ["--config", str(config), "--axis", "g_b_hz=0:3e6:4", "--out", str(out)]
        assert run(["tripartite", "sweep", *args]) == 0
        reason = "covariance determinants outside the float range: zeta- = nan"
        assert capsys.readouterr().err == f"wrote {out} (4 rows); 3 stable rows blank, first at line 2: {reason}\n"
        with open(out, encoding="utf-8") as fh:
            stable = [r for r in csv.DictReader(fh) if r["stable"] == "true"]
        assert len(stable) == 3 and all(r["zeta_minus"] == r["log_negativity"] == "" for r in stable)

    def test_non_finite_config_is_config_error(self, tmp_path, capsys):
        # Python's json reads NaN and Infinity; a NaN occupation used to
        # write zeta_minus=nan, log_negativity=0 ("not entangled") and exit 0
        reference = json.loads(Path(REFERENCE_CONFIG).read_text())
        cases = [
            ("tripartite", "tripartite.occupations.n_b_in",
             {"occupations": {"n_b_in": float("nan")}}),
            ("tripartite", "tripartite.g_c_hz", {"g_c_hz": float("inf")}),
            # w/2pi is signed in the frame of the pumps: no bound beyond the number rule
            ("tripartite", "tripartite.omega_hz", {"omega_hz": float("nan")}),
            ("tripartite", "tripartite.omega_hz", {"omega_hz": "x"}),
            ("tripartite", "tripartite.omega_hz", {"omega_hz": 1e308}),
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

    @pytest.mark.parametrize("edit, args, message", [
        ({"f_m_hz": 2.8e307}, ["sweep", "--axis", "g_c_hz=0:1e6:2"],
         f"config error: tripartite.f_m_hz: expected {RULE}, got 2.8e+307"),
        ({"kappa_a_in_hz": 2e307, "kappa_a_ex_hz": 2e307}, ["sweep", "--axis", "g_c_hz=0:1e6:2"],
         f"config error: tripartite.kappa_a_in_hz: expected {RULE}, got 2e+307"),
        ({}, ["sweep", "--axis", "g_b_hz=0:2.8e307:3"],
         f"Error: Invalid value for '--axis': expected {RULE}, got '2.8e307'"),
        ({}, ["sweep", "--axis", "delta_a_hz=0:2.8e307:3"],
         f"Error: Invalid value for '--axis': expected {RULE}, got '2.8e307'"),
        ({}, ["sweep", "--axis", "delta_c_hz=0:1.4e307:3"],
         f"Error: Invalid value for '--axis': expected {RULE}, got '1.4e307'"),
        ({}, ["critical", "--axis", "g_b", "--bracket-hz", "0,2.8e307"],
         f"Error: Invalid value for '--bracket-hz': expected {RULE}, got '2.8e307'"),
        ({"occupations": {"n_a_in": 1e300, "n_c_in": 1e300}}, ["sweep", "--axis", "g_b_hz=0:3e6:4"],
         f"config error: tripartite.occupations.n_a_in: expected {RULE}, got 1e+300"),
    ], ids=["config", "config_loss_sum", "axis_g_b", "axis_delta_a", "axis_delta_c", "bracket", "occupations"])
    def test_drift_overflow_is_one_line(self, tmp_path, capsys, edit, args, message):
        # an input whose drift entry, ladder sum or covariance would overflow
        # breaks the magnitude rule: refused where it enters, naming the
        # field or the option, with exit 1, one stderr line, and no
        # RuntimeWarning (an error under this suite's filterwarnings)
        config = tmp_path / "config.json"
        reference = json.loads(Path(REFERENCE_CONFIG).read_text(encoding="utf-8"))
        config.write_text(json.dumps({"tripartite": {**reference["tripartite"], **edit}}), encoding="utf-8")
        out = tmp_path / "x.csv"
        extra = ["--out", str(out)] if args[0] == "sweep" else []
        assert run(["tripartite", args[0], "--config", str(config), *args[1:], *extra]) == 1
        captured = capsys.readouterr()
        assert captured.err.endswith(f"\n{message}\n") or captured.err == f"{message}\n"
        assert captured.out == "" and "Warning" not in captured.err
        assert not out.exists()

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

    def test_critical_bad_bracket_is_numerical_error(self, capsys):
        code = run(
            [
                "tripartite", "critical",
                "--config", REFERENCE_CONFIG,
                "--axis", "g_b",
                "--bracket-hz", "0,1e6",
            ]
        )
        assert code == 3
        # a bracket that is not a pair is a usage error
        capsys.readouterr()
        args = ["--config", REFERENCE_CONFIG, "--axis", "g_b", "--bracket-hz", "0,1,2"]
        assert run(["tripartite", "critical", *args]) == 1
        assert "Error: --bracket-hz must be two comma-separated numbers\n" in capsys.readouterr().err


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

    @pytest.mark.parametrize("grid", [[], ["--f-start-hz", "10.2e9", "--f-stop-hz", "10.3e9"]])
    def test_synth_lossless_cavity_is_numerical_error(self, tmp_path, capsys, grid):
        # refused as `reflect` refuses it, whether or not the grid is given
        config = tmp_path / "lossless.json"
        cavity = {**CAVITY_CONFIG["cavity"], "kappa_in_hz": 0.0, "kappa_ex_hz": 0.0}
        config.write_text(json.dumps({"cavity": cavity}))
        out = tmp_path / "t.csv"
        assert run(["synth", "--config", str(config), *grid, "--out", str(out)]) == 3
        assert capsys.readouterr().err == "numerical error: kappa_in + kappa_ex must be positive (pole)\n"
        assert not out.exists()

    def test_synth_noise_requires_seed(self, config_file, tmp_path, capsys):
        # and a seed requires noise: a noiseless trace draws none
        out = tmp_path / "x.csv"
        for noise, message in [(["--snr-db", "40"], "--seed is required when --snr-db is given"),
                               (["--seed", "7"], "--seed needs --snr-db: a noiseless trace draws no noise")]:
            assert run(["synth", "--config", config_file, *noise, "--out", str(out)]) == 1
            assert capsys.readouterr().err.splitlines()[-1] == f"Error: {message}"
            assert not out.exists()

    def test_negative_seed_is_usage_error(self, config_file, tmp_path, capsys):
        # once an uncaught ValueError from np.random.default_rng
        out = tmp_path / "x.csv"
        assert run(["synth", "--config", config_file, "--snr-db", "10", "--seed", "-5", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == "Error: Invalid value for '--seed': -5 is not in the range x>=0."
        assert err.count("Error") == 1 and not out.exists()

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

    def test_short_trace_names_its_file(self, tmp_path, capsys):
        short = tmp_path / "short.csv"
        short.write_text("f_hz,re,im\n1.0,0.5,0.0\n2.0,0.5,0.1\n3.0,0.5,0.2\n")
        capsys.readouterr()
        assert run(["fit", "reflect", "--in", str(short), "--out", str(tmp_path / "f.json")]) == 2
        message = "trace needs at least 7 samples (7-parameter model)"
        assert capsys.readouterr().err == f"data error: {short}: {message}\n"

    def test_synth_short_grid_is_usage_error(self, config_file, tmp_path, capsys):
        # nothing is fitted, but a trace of fewer than 7 samples is no trace
        out = tmp_path / "t.csv"
        capsys.readouterr()
        assert run(["synth", "--config", config_file, "--points", "5", "--out", str(out)]) == 1
        assert "Error: --points must be at least 7 (7-parameter model), got 5\n" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value, message", [
        ("0,0", "no resonance circle found in trace"),
        ("1e100,-1e100", "no resonance circle found inside the span"),
    ], ids=["zero", "huge"])
    def test_degenerate_trace_is_data_error(self, tmp_path, capfd, value, message):
        # no delay or no circle: refused without a warning or LAPACK's own
        # complaint on stderr
        trace, out = tmp_path / "trace.csv", tmp_path / "f.json"
        rows = "".join(f"{f!r},{value}\n" for f in np.linspace(10.2e9, 10.3e9, 201).tolist())
        trace.write_text("f_hz,re,im\n" + rows)
        capfd.readouterr()
        assert run(["fit", "reflect", "--in", str(trace), "--out", str(out)]) == 2
        assert capfd.readouterr() == ("", f"data error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("points", [201, 399])
    def test_dip_on_edge_is_data_error(self, config_file, tmp_path, capfd, points):
        # the resonance on the first sample: no start explains the trace
        # better than zero.  These traces once ran 98 and 182 iterations to
        # converged: false, with exit 0
        trace, out = tmp_path / "trace.csv", tmp_path / "f.json"
        grid = ["--f-start-hz", "10.29184e9", "--f-stop-hz", "10.32904e9", "--points", str(points)]
        assert run(["synth", "--config", config_file, *grid, "--out", str(trace)]) == 0
        capfd.readouterr()
        assert run(["fit", "reflect", "--in", str(trace), "--out", str(out)]) == 2
        assert capfd.readouterr() == ("", "data error: no start explains the trace better than zero\n")
        assert not out.exists()

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

    def test_db_phase_overflow_is_data_error(self, tmp_path, capsys):
        # 10^(7000/20) overflows: a data error naming the cell, not a warning
        trace = tmp_path / "trace.csv"
        rows = [f"{i}.0,-{i}.5,0.{i}" for i in range(9)] + ["10.0,7000,0.1"]
        trace.write_text("f_hz,mag_db,phase_rad\n" + "\n".join(rows) + "\n")
        out = tmp_path / "f.json"
        capsys.readouterr()
        assert run(["fit", "reflect", "--format", "db_phase", "--in", str(trace), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"data error: {trace}:11: mag_db out of range, got 7000.0\n"
        assert not out.exists()

    def test_fit_missing_input_is_data_error(self, tmp_path):
        code = run(
            ["fit", "reflect", "--in", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "f.json")]
        )
        assert code == 2


def run_with_fifo(tmp_path, data: bytes, args):
    """Run the CLI in a child process on args, with "{fifo}" in them a FIFO
    fed `data` by a writer thread; (exit code, stderr with the FIFO's path
    written as {fifo})."""
    fifo = tmp_path / "fifo.csv"
    os.mkfifo(fifo)

    def write():
        try:
            with open(fifo, "wb") as fh:
                fh.write(data)
        except BrokenPipeError:  # the reader left early
            pass

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    argv = [a.format(fifo=fifo) for a in args]
    code = f"import sys\nfrom emcavity.cli import main\nsys.exit(main({argv!r}))\n"
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    try:
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                              timeout=60)
    finally:
        os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))  # frees a writer still waiting
        writer.join(timeout=10)
        fifo.unlink()
    assert not writer.is_alive()
    return proc.returncode, proc.stderr.replace(str(fifo), "{fifo}")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
class TestPipeInput:
    """A trace that is not a regular file is read once: a FIFO gives the
    file's fit and the file's messages, and never waits for a second
    writer."""

    def test_fit_bytes_equal_the_file_fit(self, config_file, tmp_path):
        trace, want, got = tmp_path / "trace.csv", tmp_path / "want.json", tmp_path / "got.json"
        args = ["--snr-db", "40", "--seed", "7", "--out", str(trace)]
        assert run(["synth", "--config", config_file, *args]) == 0
        assert run(["fit", "reflect", "--in", str(trace), "--out", str(want)]) == 0
        args = ["fit", "reflect", "--in", "{fifo}", "--out", str(got)]
        assert run_with_fifo(tmp_path, trace.read_bytes(), args) == (0, f"wrote {got}\n")
        assert got.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize(
        "fmt, text, message",
        [
            ("re_im", "f_hz,re,im\n1,0,0\n2,0,0\n1.5,0,0\n"
             + "".join(f"{k},0.1,0.2\n" for k in range(3, 12)),
             "{path}:4: trace frequency must be strictly increasing"),
            ("re_im", "f_hz,re,im\n1,2,3\n4,5\n", "{path}:3: expected 3 columns, got 2"),
            ("db_phase", "f_hz,mag_db,phase_rad\n"
             + "".join(f"{k},{7000 if k == 5 else -3},0.1\n" for k in range(1, 12)),
             "{path}:6: mag_db out of range, got 7000.0"),
        ],
        ids=["not_increasing", "short_row", "mag_db_out_of_range"],
    )
    def test_errors_equal_the_file_errors(self, tmp_path, capsys, fmt, text, message):
        trace, out = tmp_path / "trace.csv", str(tmp_path / "f.json")
        trace.write_text(text, encoding="utf-8")
        capsys.readouterr()
        assert run(["fit", "reflect", "--format", fmt, "--in", str(trace), "--out", out]) == 2
        assert capsys.readouterr().err == f"data error: {message.format(path=trace)}\n"
        args = ["fit", "reflect", "--format", fmt, "--in", "{fifo}", "--out", out]
        want = f"data error: {message.format(path='{fifo}')}\n"
        assert run_with_fifo(tmp_path, text.encode(), args) == (2, want)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
class TestConfigReadOnce:
    """--config is read once: a pipe or a FIFO gives the manifest the hash of
    the bytes it held, and the command never waits for a second writer."""

    ARGS = ["reflect", "--f-start-hz", "10.2e9", "--f-stop-hz", "10.3e9", "--points", "3"]

    def config_sha256(self, out):
        with open(f"{out}.manifest.json", encoding="utf-8") as fh:
            return json.load(fh)["config_sha256"]

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_pipe_config_hash(self, config_file, tmp_path):
        # the read end of a filled, closed pipe, as a shell's <(cat file) passes it
        data, out = Path(config_file).read_bytes(), tmp_path / "spectrum.csv"
        r, w = os.pipe()
        os.write(w, data)
        os.close(w)
        try:
            assert run([*self.ARGS, "--config", f"/dev/fd/{r}", "--out", str(out)]) == 0
        finally:
            os.close(r)
        assert self.config_sha256(out) == hashlib.sha256(data).hexdigest()

    def test_fifo_config_does_not_wait(self, config_file, tmp_path):
        data, out, fifo = Path(config_file).read_bytes(), tmp_path / "spectrum.csv", tmp_path / "config.fifo"
        os.mkfifo(fifo)

        def write():
            try:
                with open(fifo, "wb") as fh:
                    fh.write(data)
            except BrokenPipeError:  # the reader left early
                pass

        codes = []
        writer = threading.Thread(target=write, daemon=True)
        command = threading.Thread(daemon=True, target=lambda: codes.append(
            run([*self.ARGS, "--config", str(fifo), "--out", str(out)])))
        writer.start()
        command.start()
        command.join(timeout=20)
        waited = command.is_alive()
        if waited:  # end the reader's wait for a second writer
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
            command.join(timeout=10)
        os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))  # frees a writer still waiting
        writer.join(timeout=10)
        assert not waited and not writer.is_alive() and codes == [0]
        assert self.config_sha256(out) == hashlib.sha256(data).hexdigest()


@pytest.fixture
def device_files(tmp_path):
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


def set_cell(path, line, column, cell):
    """Write `cell` into `column` of the 1-based `line` of a CSV file."""
    lines = path.read_text().split("\n")
    cells = lines[line - 1].split(",")
    cells[lines[0].split(",").index(column)] = cell
    lines[line - 1] = ",".join(cells)
    path.write_text("\n".join(lines))


class TestDevice:
    def test_meff_and_cap(self, device_files, capsys):
        vol, _, _ = device_files
        assert run(["device", "meff", "--volume", str(vol)]) == 0
        m_eff = float(capsys.readouterr().out.strip())
        assert m_eff == pytest.approx(2329.0 * 1e-8 * 100e-9, rel=1e-9)
        assert run(["device", "cap", "--volume", str(vol)]) == 0
        c_m = float(capsys.readouterr().out.strip())
        from emcavity.constants import EPSILON_0

        assert c_m == pytest.approx(EPSILON_0 * 1e-8 / 100e-9, rel=1e-9)
        assert run(["device", "cap", "--volume", str(vol), "--voltage-v", "0"]) == 3
        assert capsys.readouterr().err == "numerical error: applied voltage must be positive\n"

    def test_meff_and_cap_print_g0s_values(self, device_files, capsys):
        vol, surf, lumped = device_files
        volts = ["--voltage-v", "1.5"]
        args = ["--surface", str(surf), "--lumped", str(lumped), "--f-m-hz", "4e6", *volts]
        assert run(["device", "g0", "--volume", str(vol), *args]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert run(["device", "meff", "--volume", str(vol)]) == 0
        assert float(capsys.readouterr().out) == doc["m_eff_kg"]
        assert run(["device", "cap", "--volume", str(vol), *volts]) == 0
        assert float(capsys.readouterr().out) == doc["c_m_f"]

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

    # sha256 of stdout for the sample sets above
    DEVICE_GOLDEN = {
        "meff": (["meff"], "1d87527bfa2e67f5aede41ab23e3e8d1598346db8d46b7722e3b4039397e7a64"),
        "cap": (["cap", "--voltage-v", "2.5"],
                "1dc71934ee60b786444bc88509283427e4b28f39264bce84ede9a80f22835a71"),
        "g0": (["g0", "--surface", "{surf}", "--lumped", "{lumped}", "--f-m-hz", "4e6"],
               "b8611951ab68de3dcfddf91037cf976ba5c11f13e8d51e368cb4f5b707161ae6"),
    }

    @pytest.mark.parametrize("name", sorted(DEVICE_GOLDEN))
    def test_stdout_bytes(self, device_files, capsys, name):
        vol, surf, lumped = device_files
        command, *args = self.DEVICE_GOLDEN[name][0]
        args = [a.format(surf=surf, lumped=lumped) for a in args]
        capsys.readouterr()
        assert run(["device", command, "--volume", str(vol), *args]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == self.DEVICE_GOLDEN[name][1]

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
             f"lumped.inductance_h: expected {RULE}, got nan"),
            ('{"inductance_h": 1e-320, "stray_capacitance_f": 1e-14}',
             f"lumped.inductance_h: expected {RULE}, got 1e-320"),
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
        ids=["nan", "tiny", "bool", "string", "unknown_key", "missing_key", "zero", "negative", "array"],
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
            ("vol", 3, "ez_vpm", "nan", f"{{path}}:3: ez_vpm: expected {RULE}, got nan"),
            ("vol", 3, "rho_kgpm3", "inf", f"{{path}}:3: rho_kgpm3: expected {RULE}, got inf"),
            ("vol", 3, "w_m3", "0", "{path}:3: weight must be finite and > 0, got 0.0"),
            ("vol", 3, "w_m3", "-2e-23", "{path}:3: weight must be finite and > 0, got -2e-23"),
            ("surf", 2, "dz_cpm2", "NaN", f"{{path}}:2: dz_cpm2: expected {RULE}, got nan"),
            ("surf", 2, "eps1_rel", "-inf", f"{{path}}:2: eps1_rel: expected {RULE}, got -inf"),
            ("surf", 2, "a_m2", "0", "{path}:2: area must be finite and > 0, got 0.0"),
            ("surf", 2, "a_m2", "-1e-8", "{path}:2: area must be finite and > 0, got -1e-08"),
            ("surf", 2, "nz", "-0.5", "{path}:2: normals must be unit vectors"),
            # a density may be 0 (no moving mass there), a permittivity not
            ("vol", 3, "rho_kgpm3", "-2329", "{path}:3: rho must be finite and >= 0, got -2329.0"),
            ("vol", 3, "eps_rel", "-1", "{path}:3: eps_rel must be finite and > 0, got -1.0"),
            ("surf", 2, "eps1_rel", "0", "{path}:2: eps1_rel must be finite and > 0, got 0.0"),
            ("surf", 2, "eps2_rel", "-1e12", "{path}:2: eps2_rel must be finite and > 0, got -1000000000000.0"),
        ],
    )
    def test_bad_sample_is_data_error(self, device_files, capsys, name, line, column, cell, message):
        vol, surf, lumped = device_files
        path = {"vol": vol, "surf": surf}[name]
        set_cell(path, line, column, cell)
        capsys.readouterr()
        assert self.g0(device_files, lumped) == 2
        assert capsys.readouterr().err == f"data error: {message.format(path=path)}\n"

    @pytest.mark.parametrize(
        "name, column, command",
        [("surf", "nz", "g0"), ("vol", "qz_m", "meff"), ("vol", "ez_vpm", "cap"), ("surf", "ez_vpm", "g0")],
        ids=["normal", "meff_volume_q", "cap_volume_e", "g0_surface_e"],
    )
    def test_overflowing_sample_is_refused(self, device_files, capsys, name, column, command):
        # a cell of 1e200, whose square leaves the float range, breaks the
        # magnitude rule: a data error naming its line and column, one
        # line, and no warning (RuntimeWarnings are errors here)
        vol, surf, lumped = device_files
        path = {"vol": vol, "surf": surf}[name]
        line = 3 if name == "vol" else 2
        set_cell(path, line, column, "1e200")
        args = ["--surface", str(surf), "--lumped", str(lumped), "--f-m-hz", "4e6"] if command == "g0" else []
        capsys.readouterr()
        assert run(["device", command, "--volume", str(vol), *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"data error: {path}:{line}: {column}: expected {RULE}, got 1e+200\n"

    @pytest.mark.parametrize(
        "name, cells, command, code, message",
        [
            ("surf", {"nz": "-1e100"}, "g0", 2, "data error: {path}:2: normals must be unit vectors"),
            ("vol", {"w_m3": "1e100", "rho_kgpm3": "1e100", "qz_m": "1e100"}, "meff", 3,
             "numerical error: m_eff is not a positive finite float"),
            ("vol", {"w_m3": "1e100", "eps_rel": "1e100", "ez_vpm": "1e100"}, "cap", 3,
             "numerical error: C_m is not a positive finite float at 1.0 V"),
            ("surf", {"a_m2": "1e100", "dz_cpm2": "1e100"}, "g0", 3,
             "numerical error: (1/C_m) dC_m/dalpha is not a finite float"),
        ],
        ids=["normal", "meff", "cap", "g0_surface"],
    )
    def test_integral_past_the_float_range(self, device_files, capsys, name, cells, command, code, message):
        # cells within the magnitude rule whose products leave the float
        # range: the backstop on the computed quantity refuses it, in one
        # line and with no warning
        vol, surf, lumped = device_files
        path = {"vol": vol, "surf": surf}[name]
        for column, cell in cells.items():
            set_cell(path, 3 if name == "vol" else 2, column, cell)
        args = ["--surface", str(surf), "--lumped", str(lumped), "--f-m-hz", "4e6"] if command == "g0" else []
        capsys.readouterr()
        assert run(["device", command, "--volume", str(vol), *args]) == code
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"{message.format(path=path)}\n"

    def test_a_set_with_no_moving_mass_is_refused(self, device_files, capsys):
        # every density 0 passes its bound, but the mode moves no mass:
        # m_eff = 0 would divide x_zpf, so `device meff` refuses it, one line
        vol, _, _ = device_files
        for line in range(2, len(vol.read_text().splitlines()) + 1):
            set_cell(vol, line, "rho_kgpm3", "0")
        capsys.readouterr()
        assert run(["device", "meff", "--volume", str(vol)]) == 3
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "numerical error: m_eff is not a positive finite float\n")

    def test_lc_frequency_past_the_float_range(self, device_files, tmp_path, capsys):
        # within the magnitude rule, omega_c = 1/sqrt(L (C_s + C_m)) reaches
        # 1.7e155 Hz at L = 1e-100 H and 1e100 V, and a large D cell makes
        # (1/C_m) dC_m/dalpha large: their product, g0, is infinite
        vol, surf, _ = device_files
        set_cell(surf, 2, "dz_cpm2", "1e50")
        lumped = tmp_path / "lc.json"
        lumped.write_text('{"inductance_h": 1e-100, "stray_capacitance_f": 0}')
        capsys.readouterr()
        args = ["--volume", str(vol), "--surface", str(surf), "--lumped", str(lumped),
                "--f-m-hz", "1e-100", "--voltage-v", "1e100"]
        assert run(["device", "g0", *args]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "numerical error: g0 is not a finite float\n"

    @pytest.mark.parametrize("row, lumped, volts, product", [
        ("0,0,5e-8,1e50,1,0,0,1e100,2329,0,0,1e-9", '{"inductance_h": 1e60, "stray_capacitance_f": 1e-14}',
         "1e-10", "inf"),
        ("0,0,5e-8,1e-100,1,0,0,1e-20,2329,0,0,1e-9", '{"inductance_h": 1e-100, "stray_capacitance_f": 0}',
         "1e50", "0"),
    ], ids=["overflow", "underflow"])
    def test_omega_c_past_the_float_range(self, device_files, tmp_path, capsys, row, lumped, volts, product):
        # every cell within the magnitude rule, but L (C_s + C_m) is past the
        # float range (C_m = 8.9e258 F at 1e60 H) or below it (8.9e-252 F at
        # 1e-100 H): omega_c is refused by name, not printed as f_c = 0
        _, surf, _ = device_files
        vol, lc = tmp_path / "one.csv", tmp_path / "lc.json"
        vol.write_text(f"x_m,y_m,z_m,w_m3,eps_rel,ex_vpm,ey_vpm,ez_vpm,rho_kgpm3,qx_m,qy_m,qz_m\n{row}\n")
        lc.write_text(lumped)
        capsys.readouterr()
        args = ["--volume", str(vol), "--surface", str(surf), "--lumped", str(lc), "--f-m-hz", "4e6",
                "--voltage-v", volts]
        assert run(["device", "g0", *args]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"numerical error: omega_c is not a positive finite float at "
                                f"L (C_s + C_m) = {product} s^2\n")

    def test_zero_point_motion_past_the_float_range(self, device_files, tmp_path, capsys):
        # every cell within the magnitude rule, but m_eff is a computed
        # 1e-300 kg (row 1 sets |Q| = 1 with no mass; row 2 has w = rho =
        # 1e-100 and qz = 1e-50), so 2 m_eff Omega underflows to 0 at
        # 1e-100 Hz: x_zpf is refused by name, not a ZeroDivisionError
        _, surf, lumped = device_files
        vol = tmp_path / "zpf.csv"
        vol.write_text("x_m,y_m,z_m,w_m3,eps_rel,ex_vpm,ey_vpm,ez_vpm,rho_kgpm3,qx_m,qy_m,qz_m\n"
                       "0,0,0,1,1,0,0,1,0,0,0,1\n0,0,0,1e-100,1,0,0,1,1e-100,0,0,1e-50\n")
        capsys.readouterr()
        assert run(["device", "meff", "--volume", str(vol)]) == 0
        assert capsys.readouterr().out == "1.00000000000000003e-300\n"
        args = ["--volume", str(vol), "--surface", str(surf), "--lumped", str(lumped), "--f-m-hz", "1e-100"]
        assert run(["device", "g0", *args]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "numerical error: x_zpf is not a positive finite float at 2 m_eff Omega = 0 kg/s\n"

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    @pytest.mark.parametrize("blank", ["   ", ",,,,,,,,,,,", '""'])
    @pytest.mark.parametrize("where", ["middle", "end"])
    def test_blank_rows_give_the_clean_g0(self, device_files, tmp_path, capsys, blank, where):
        # a blank volume row, read from a file or from a pipe, prints the
        # clean file's g0 JSON byte for byte
        vol, surf, lumped = device_files
        args = ["--surface", str(surf), "--lumped", str(lumped), "--f-m-hz", "4e6"]
        capsys.readouterr()
        assert run(["device", "g0", "--volume", str(vol), *args]) == 0
        want = capsys.readouterr()
        lines = vol.read_text().splitlines(keepends=True)
        lines.insert(len(lines) // 2 if where == "middle" else len(lines), blank + "\n")
        data = "".join(lines).encode()
        blank_vol = tmp_path / "blank.csv"
        blank_vol.write_bytes(data)
        assert run(["device", "g0", "--volume", str(blank_vol), *args]) == 0
        assert capsys.readouterr() == want
        r, w = os.pipe()
        try:
            os.write(w, data)
            os.close(w)
            assert run(["device", "g0", "--volume", f"/dev/fd/{r}", *args]) == 0
        finally:
            os.close(r)
        assert capsys.readouterr() == want

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
    @pytest.mark.parametrize("cell, reason", [
        ("nan", f"qz_m: expected {RULE}, got nan"),
        ("x", "could not convert string to float: 'x'"),
    ], ids=["nan", "x"])
    def test_bad_last_row_of_a_long_set(self, tmp_path, capsys, cell, reason):
        # the last of 3000 rows, behind two whole blocks of the row walk,
        # read from the file or from a FIFO: exit 2, naming its line
        row = "0,0,1e-9,1e-24,1,0,0,1e7,2329,0,0,1e-9\n"
        vol = tmp_path / "vol.csv"
        vol.write_text("x_m,y_m,z_m,w_m3,eps_rel,ex_vpm,ey_vpm,ez_vpm,rho_kgpm3,qx_m,qy_m,qz_m\n"
                       + row * 2999 + row.replace("1e-9\n", f"{cell}\n"), encoding="utf-8")
        capsys.readouterr()
        assert run(["device", "meff", "--volume", str(vol)]) == 2
        assert capsys.readouterr() == ("", f"data error: {vol}:3001: {reason}\n")
        args = ["device", "meff", "--volume", "{fifo}"]
        assert run_with_fifo(tmp_path, vol.read_bytes(), args) == (2, f"data error: {{fifo}}:3001: {reason}\n")

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


# finite float options whose result leaves the float range, and the quantity
# each refusal names; {config} and {tmp} are filled in by the test
DEVICE_ARGS = ["--volume", "{tmp}/vol.csv"]
G0_ARGS = ["--surface", "{tmp}/surf.csv", "--lumped", "{tmp}/lumped.json", "--f-m-hz", "4e6"]
OUT_OF_RANGE = {
    "synth_noise": (["synth", "--config", "{config}", "--snr-db", "-1e100", "--seed", "1",
                     "--out", "{tmp}/out.csv"], "noise"),
}


@pytest.mark.parametrize("args, quantity", OUT_OF_RANGE.values(), ids=list(OUT_OF_RANGE))
def test_out_of_range_result_is_numerical_error(config_file, device_files, tmp_path, capsys, args,
                                                quantity):
    assert run([a.format(config=config_file, tmp=tmp_path) for a in args]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical error: ") and captured.err.count("\n") == 1
    assert quantity in captured.err
    assert not list(tmp_path.glob("out*"))


def test_synth_signal_past_the_float_range(tmp_path, capsys):
    # within the magnitude rule, a 1e100 amplitude on a 1e100 Hz tilt over
    # 1e-100 Hz linewidths makes |R|^2 overflow: the noise is refused, in
    # one line and with no warning (RuntimeWarnings are errors here)
    config = tmp_path / "loud.json"
    config.write_text(json.dumps({"cavity": {"f_c_hz": 1e9, "kappa_in_hz": 1e-100, "kappa_ex_hz": 1e-100},
                                  "background": {"amplitude": 1e100, "delta_hz": 1e100}}))
    args = ["synth", "--config", str(config), "--snr-db", "10", "--seed", "1", "--points", "11",
            "--f-start-hz", "0.9e9", "--f-stop-hz", "1.1e9", "--out", str(tmp_path / "out.csv")]
    assert run(args) == 3
    assert capsys.readouterr().err == "numerical error: noise at snr_db = 10.0 is out of float range\n"
    assert not (tmp_path / "out.csv").exists()


# finite float options outside the magnitude rule, and the option each
# refusal names: until the rule, each was refused further in, by the check
# of its result, grid or angular frequency
OUT_OF_RULE = {
    "thermal_zero_ratio": (["thermal", "--f-hz", "1e-300", "--t-k", "1e300"], "--f-hz"),
    "thermal_overflow": (["thermal", "--f-hz", "1", "--t-k", "1e300"], "--t-k"),
    "cap_tiny_voltage": (["device", "cap", *DEVICE_ARGS, "--voltage-v", "1e-200"], "--voltage-v"),
    "cap_huge_voltage": (["device", "cap", *DEVICE_ARGS, "--voltage-v", "1e200"], "--voltage-v"),
    "g0_tiny_voltage": (["device", "g0", *DEVICE_ARGS, *G0_ARGS, "--voltage-v", "1e-200"], "--voltage-v"),
    "g0_huge_voltage": (["device", "g0", *DEVICE_ARGS, *G0_ARGS, "--voltage-v", "1e200"], "--voltage-v"),
    "synth_noise": (["synth", "--config", "{config}", "--snr-db", "-1e308", "--seed", "1",
                     "--out", "{tmp}/out.csv"], "--snr-db"),
    "omit": (["omit", "--config", "{config}", "--f-hz", "1e308"], "--f-hz"),
    "reflect": (["reflect", "--config", "{config}", "--f-start-hz", "-1e308", "--f-stop-hz", "1e308",
                 "--points", "3", "--out", "{tmp}/out.csv"], "--f-start-hz"),
    "synth": (["synth", "--config", "{config}", "--f-start-hz", "-1e308", "--f-stop-hz", "1e308",
               "--out", "{tmp}/out.csv"], "--f-start-hz"),
    "reflect_2pi_f": (["reflect", "--model", "omit", "--config", "{config}", "--f-start-hz", "1e307",
                       "--f-stop-hz", "3e307", "--out", "{tmp}/out.csv"], "--f-start-hz"),
    "sweep_omega": (["tripartite", "sweep", "--config", REFERENCE_CONFIG, "--axis", "g_b_hz=0:3e6:4",
                     "--axis2", "omega_hz=1e308:1e308:1", "--out", "{tmp}/out.csv"], "--axis2"),
    "sweep_axis": (["tripartite", "sweep", "--config", REFERENCE_CONFIG, "--axis", "g_b_hz=0:1e308:3",
                    "--out", "{tmp}/out.csv"], "--axis"),
    "g0_f_m": (["device", "g0", *DEVICE_ARGS, "--surface", "{tmp}/surf.csv", "--lumped", "{tmp}/lumped.json",
                "--f-m-hz", "1e308"], "--f-m-hz"),
    "sweep_axis_span": (["tripartite", "sweep", "--config", REFERENCE_CONFIG, "--axis", "g_b_hz=0:3e6:3",
                         "--axis2", "g_c_hz=-1.7e308:1.7e308:3", "--out", "{tmp}/out.csv"], "--axis2"),
}


@pytest.mark.parametrize("args, option", OUT_OF_RULE.values(), ids=list(OUT_OF_RULE))
def test_float_option_outside_the_rule(config_file, device_files, tmp_path, capsys, args, option):
    # a usage error naming the option and the value, in one line with no
    # warning (RuntimeWarnings are errors here), and no file written
    assert run([a.format(config=config_file, tmp=tmp_path) for a in args]) == 1
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith(f"Error: Invalid value for '{option}': expected {RULE}, got ")
    assert "Warning" not in err
    assert not list(tmp_path.glob("out*"))


RULE_PASSES = ["0", "1e-100", "-1e-100", "1e100", "-1e100"]
RULE_REFUSED = ["9.9e-101", "1.0000000000000002e100", "nan", "inf"]
RULE_KINDS = ["config", "fit_record", "lumped", "volume", "surface", "trace", "option", "axis"]


def db_phase_trace(config_file, path):
    """A 201-point, 40-dB `synth` trace of the config, rewritten as f_hz,
    mag_db, phase_rad."""
    assert run(["synth", "--config", config_file, "--points", "201", "--snr-db", "40", "--seed", "1",
                "--out", str(path)]) == 0
    f, re, im = np.loadtxt(path, delimiter=",", skiprows=1, unpack=True)
    z = re + 1j * im
    table = np.stack([f, 20.0 * np.log10(np.abs(z)), np.angle(z)], axis=1)
    np.savetxt(path, table, fmt="%.17g", delimiter=",", header="f_hz,mag_db,phase_rad", comments="")


class TestMagnitudeRule:
    """Every float that enters, in each kind of entry, is 0 or has 1e-100 <=
    |v| <= 1e100: anything else is refused where it enters, naming the
    field, the cell or the option, with the entry's documented exit code."""

    def entry(self, kind, value, tmp_path, config_file, device_files, fit_inputs):
        """(args, exit code of a refusal, its message) of a run that takes
        `value` through one entry of `kind`.  A bounded field gets |value|."""
        x = float(value)
        vol, surf, lumped = device_files
        g0 = ["device", "g0", "--volume", str(vol), "--surface", str(surf), "--lumped", str(lumped),
              "--f-m-hz", "4e6"]
        rule = f"expected {RULE}, got "
        if kind == "config":
            config = tmp_path / "rule.json"
            config.write_text(json.dumps({**CAVITY_CONFIG, "background": {"phi_rad": x}}))
            args = ["synth", "--config", str(config), "--points", "11", "--out", str(tmp_path / "t.csv")]
            return args, 1, f"config error: background.phi_rad: {rule}{x!r}"
        if kind == "fit_record":
            cavity, omit = fit_inputs
            doc = json.loads(cavity.read_text())
            doc["params"]["phi_rad"] = x
            cavity.write_text(json.dumps(doc))
            message = f"data error: cannot read cavity fit {cavity}: params.phi_rad: {rule}{x!r}"
            return fit_omit_args(omit, cavity, tmp_path / "omit.json"), 2, message
        if kind == "lumped":
            lumped.write_text(json.dumps({"inductance_h": 2e-9, "stray_capacitance_f": abs(x)}))
            message = f"data error: cannot read lumped circuit {lumped}: lumped.stray_capacitance_f: {rule}{abs(x)!r}"
            return g0, 2, message
        if kind in ("volume", "surface"):
            path, column = (vol, "ex_vpm") if kind == "volume" else (surf, "dx_cpm2")
            set_cell(path, 2, column, value)
            return g0, 2, f"data error: {path}:2: {column}: {rule}{x!r}"
        if kind == "trace":
            trace = tmp_path / "trace.csv"
            db_phase_trace(config_file, trace)
            set_cell(trace, 6, "phase_rad", value)
            args = ["fit", "reflect", "--format", "db_phase", "--in", str(trace), "--out", str(tmp_path / "f.json")]
            return args, 2, f"data error: {trace}:6: phase_rad: {rule}{x!r}"
        if kind == "option":
            args = ["damping", "--config", config_file, "--detuning-hz", value]
            return args, 1, f"Error: Invalid value for '--detuning-hz': {rule}{value!r}"
        lossless = tmp_path / "lossless.json"
        reference = json.loads(Path(REFERENCE_CONFIG).read_text(encoding="utf-8"))["tripartite"]
        rates = ("kappa_a_in_hz", "kappa_a_ex_hz", "kappa_c_in_hz", "kappa_c_ex_hz", "gamma_hz")
        lossless.write_text(json.dumps({"tripartite": {**reference, **dict.fromkeys(rates, 0.0)}}))
        args = ["tripartite", "sweep", "--config", str(lossless), "--axis", f"g_b_hz=0:{value}:3",
                "--out", str(tmp_path / "sweep.csv")]
        return args, 1, f"Error: Invalid value for '--axis': {rule}{value!r}"

    @pytest.mark.parametrize("value", RULE_PASSES)
    @pytest.mark.parametrize("kind", RULE_KINDS)
    def test_the_range_passes(self, tmp_path, config_file, device_files, fit_inputs, capsys, kind, value):
        args, _, _ = self.entry(kind, value, tmp_path, config_file, device_files, fit_inputs)
        capsys.readouterr()
        assert run(args) == 0
        assert RULE not in capsys.readouterr().err

    @pytest.mark.parametrize("value", RULE_REFUSED)
    @pytest.mark.parametrize("kind", RULE_KINDS)
    def test_outside_the_range_is_refused(self, tmp_path, config_file, device_files, fit_inputs, capsys,
                                          kind, value):
        args, code, message = self.entry(kind, value, tmp_path, config_file, device_files, fit_inputs)
        capsys.readouterr()
        assert run(args) == code
        captured = capsys.readouterr()
        assert captured.err.splitlines()[-1] == message and "Warning" not in captured.err
        assert not list(tmp_path.glob("sweep.csv*")) and not list(tmp_path.glob("omit.json*"))


def test_largest_grid_still_runs(config_file, tmp_path):
    # the widest grids the magnitude rule lets through are evaluated and
    # written
    args = ["--config", config_file, "--f-start-hz", "-1e100", "--f-stop-hz", "1e100", "--points", "7"]
    for command in (["reflect"], ["reflect", "--model", "omit"], ["synth"]):
        assert run([*command, *args, "--out", str(tmp_path / "wide.csv")]) == 0, command


def test_thermal_extremes_within_the_rule(capsys):
    # hbar w / kB T is at least 4.8e-211 within the magnitude rule, so the
    # occupation, about 1 / x, stays a finite float
    assert run(["thermal", "--f-hz", "1e-100", "--t-k", "1e100"]) == 0
    assert capsys.readouterr().out == "%.17e\n" % thermal_occupation(TWO_PI * 1e-100, 1e100)
    assert run(["thermal", "--f-hz", "1e100", "--t-k", "1e-100"]) == 0
    assert capsys.readouterr().out == "0.00000000000000000e+00\n"


def test_readme_examples_run(tmp_path, monkeypatch, capsys):
    # the README's CLI examples, as written, in a directory that holds only
    # configs/: all but the two that read files the repository does not ship
    root = Path(__file__).resolve().parents[1]
    text = (root / "README.md").read_text(encoding="utf-8")
    lines = text.split("## CLI\n\n```sh\n", 1)[1].split("```", 1)[0].splitlines()
    (tmp_path / "configs").symlink_to(root / "configs")
    monkeypatch.chdir(tmp_path)
    ran = [line for line in lines if "omit_trace.csv" not in line and "vol.csv" not in line]
    for line in ran:
        prog, *argv = line.split()
        assert prog == "emcavity" and run(argv) == 0, line
    assert len(ran) == 8
    with open("fit.json", encoding="utf-8") as fh:
        assert json.load(fh)["convergence"]["converged"]
    # configs/cavity_omit.json is this file's test cavity, less the two keys
    # nothing reads
    want = json.loads(json.dumps(CAVITY_CONFIG))
    del want["mech"]["m_eff_kg"], want["pump"]["power_w"]
    with open(root / "configs" / "cavity_omit.json", encoding="utf-8") as fh:
        assert json.load(fh) == want


def test_cli_runs_without_scipy(config_file, device_files, fit_inputs, tmp_path):
    # scipy is a test dependency only: with every scipy import made to fail,
    # each of the 12 subcommands still runs.  The spectrum formatter's
    # power-of-ten table is built without the fractions module, which costs
    # ~3 ms to import
    vol, surf, lumped = (str(p) for p in device_files)
    cavity, omit = fit_inputs
    trace, fit = str(tmp_path / "synth.csv"), str(tmp_path / "synth.json")
    grid = ["--f-start-hz", "10.27e9", "--f-stop-hz", "10.31e9", "--points", "11"]
    commands = [
        ["thermal", "--f-hz", "10e9", "--t-k", "4.0"],
        ["reflect", "--config", config_file, *grid, "--out", str(tmp_path / "spec.csv")],
        ["omit", "--config", config_file, "--f-hz", "10.29184e9"],
        ["damping", "--config", config_file, "--detuning-hz", "4e6"],
        ["tripartite", "sweep", "--config", REFERENCE_CONFIG, "--axis", "g_b_hz=0:3e6:4",
         "--axis2", "n_b_in=0:100:3", "--out", str(tmp_path / "sweep.csv")],
        ["tripartite", "critical", "--config", REFERENCE_CONFIG, "--axis", "g_c", "--bracket-hz", "2e6,9e6"],
        ["synth", "--config", config_file, "--snr-db", "40", "--seed", "7", "--points", "201", "--out", trace],
        ["fit", "reflect", "--in", trace, "--out", fit],
        fit_omit_args(omit, cavity, tmp_path / "omit.json"),
        ["device", "meff", "--volume", vol],
        ["device", "cap", "--volume", vol],
        ["device", "g0", "--volume", vol, "--surface", surf, "--lumped", lumped, "--f-m-hz", "4e6"],
    ]
    groups = {n: c.commands for n, c in cli.cli.commands.items() if hasattr(c, "commands")}
    leaves = {(n,) for n in cli.cli.commands if n not in groups} | {(n, s) for n in groups for s in groups[n]}
    assert {tuple(c[: 1 + (c[0] in groups)]) for c in commands} == leaves
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from emcavity.cli import main\n"
        "assert 'fractions' not in sys.modules, 'emcavity.cli imported fractions'\n"
        f"codes = [main(argv) for argv in {commands!r}]\n"
        f"sys.exit(0 if codes == [0] * {len(commands)} else f'exit codes {{codes}}')\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


class TestTopLevel:
    def test_version(self, capsys):
        assert run(["--version"]) == 0
        assert "emcavity" in capsys.readouterr().out

    def test_unknown_command(self):
        assert run(["frobnicate"]) == 1

    def test_threads_option_removed(self):
        # the global --threads option did nothing and is gone: a usage error
        assert run(["--threads", "2", "thermal", "--f-hz", "1e9", "--t-k", "1.0"]) == 1


# sha256 of the data files written for CAVITY_CONFIG.  Traces and spectra
# alike are "%.17e" cells with LF line ends; any change to the writer or to
# the numbers shows here.
GOLDEN = {
    "synth": (
        ["synth", "--snr-db", "40", "--seed", "7", "--points", "201"],
        b"f_hz,re,im\n",
        "b16bd0f920d1fe7cd696f2770a87ac49ee7d05c31ed6826b01afba903b65be4c",
    ),
    "synth_20001": (
        ["synth", "--snr-db", "40", "--seed", "7", "--points", "20001"],
        b"f_hz,re,im\n",
        "1f9238c1cdd639c0f3f040a5a497c4e6cdba7297b62b1fdb6f6cc1b10d4a0aa5",
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
    # pinned from the per-cell "%.17e" writer, before the vectorized one
    "reflect_omit_20001": (
        ["reflect", "--model", "omit", "--f-start-hz", "10.29182e9", "--f-stop-hz", "10.29186e9",
         "--points", "20001"],
        b"f_hz,re,im,mag_db,phase_rad\n",
        "7233088ad818ec57728c25c89c76ca1044363f33d23debebd4f0bb9088dce447",
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


# CAVITY_CONFIG with kappa_in = kappa_ex and g0 = 0: probed at f_c, r is
# exactly 0, and `omit` prints mag_db=-inf
CRITICAL_CONFIG = {
    **CAVITY_CONFIG,
    "cavity": {"f_c_hz": 10.29184e9, "kappa_in_hz": 1.0e6, "kappa_ex_hz": 1.0e6},
    "coupling": {"g0_hz": 0.0, "n_cavity": 4.0e2},
}
# sha256 of stdout of the commands that print their result.  {config} is
# CAVITY_CONFIG, {critical} CRITICAL_CONFIG.
STDOUT_GOLDEN = {
    "thermal": (["thermal", "--f-hz", "10e9", "--t-k", "4.0"],
                "5c6a69275b785a678eff5ad7d73eb702bdd338be6c7c9503438faa1b9977c9be"),
    "omit": (["omit", "--config", "{config}", "--f-hz", "10.29184e9"],
             "62c0e40499db083c8314fff98d335fe04acb8648358d4668a7043254b46d5fed"),
    "omit_sideband": (["omit", "--config", "{config}", "--f-hz", "10.29185e9"],
                      "e6b6ce326f4e5b7a8df2a6a328dbf7d811014c03a5e4c2402c868c0b30fec995"),
    # here numpy's scalar and array complex arithmetic differ in the last bit
    "omit_last_bit": (["omit", "--config", "{config}", "--f-hz", "10.2918401e9"],
                      "52c3884732af1f7f3794343ce959317f85928a49e7b3717ed4fca27bced7b96f"),
    "omit_zero": (["omit", "--config", "{critical}", "--f-hz", "10.29184e9"],
                  "614f45a6df1f64aa0889da30e3a78837fd1723dc42075dc18075aa8a11c1c6b2"),
    # 8.48745059976354099e+00: gamma_opt / 2pi with the peak 4 g^2 / kappa at
    # the red sideband, as in Aspelmeyer et al., RMP 86, 1391 (2014)
    "damping": (["damping", "--config", "{config}", "--detuning-hz", "4e6"],
                "0b1a91a0da4fafc53cad5563c2c060bd55376dede5ff47cee608e6e2482e63ff"),
    # 6.41022276878357027e+06; brentq at the same rtol gave 6.41022340200626943e+06
    "tripartite_critical": (["tripartite", "critical", "--config", REFERENCE_CONFIG,
                             "--axis", "g_c", "--bracket-hz", "2e6,9e6"],
                            "33da0348c8bff59c0a35c5a84a2321c56cd82409ccf274fbd5a9b78062155e63"),
}
# sha256 of `tripartite sweep` CSVs on the reference config, its tripartite
# block edited as given
SWEEP_GOLDEN = {
    "g_b": ({}, ["--axis", "g_b_hz=0:4e6:9"],
            "0e4e1cfca55692077780d0d6ab6264b00a945b0bfa4a0eab736316dca27fa564"),
    "g_b_g_c": ({}, ["--axis", "g_b_hz=0:3e6:4", "--axis2", "g_c_hz=5e6:7e6:3"],
                "05a073c6e3b354255d10c7c2ba95b75e4e1d76eb858495c55e423773b24b848e"),
    "g_b_omega": ({"omega_hz": 3e5}, ["--axis", "g_b_hz=0:4e6:9"],
                  "8578d952669e7386fcd2023228bd422ec23e22d9abc47dfd0fe19153e9f155b3"),
    "omega_g_b": ({}, ["--axis", "omega_hz=-1e6:1e6:5", "--axis2", "g_b_hz=0:4e6:9"],
                  "e8321ce4c204def1f3617770d717917e1a6179b87fce134c554bc421161d34e7"),
}


class TestGoldenStdout:
    @pytest.mark.parametrize("name", sorted(STDOUT_GOLDEN))
    def test_stdout_bytes(self, config_file, tmp_path, capsys, name):
        # RuntimeWarnings are errors under pytest: r = 0 must not warn
        critical = tmp_path / "critical.json"
        critical.write_text(json.dumps(CRITICAL_CONFIG))
        args, digest = STDOUT_GOLDEN[name]
        capsys.readouterr()
        assert run([a.format(config=config_file, critical=critical) for a in args]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("name", sorted(SWEEP_GOLDEN))
    def test_sweep_bytes(self, tmp_path, name):
        edit, args, digest = SWEEP_GOLDEN[name]
        out, config = tmp_path / "sweep.csv", tripartite_config(tmp_path / "config.json", **edit)
        assert run(["tripartite", "sweep", "--config", config, *args, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# sha256 of the fit JSON written by the round trip below: CAVITY_CONFIG's
# noiseless trace through `fit reflect`, then a rotating-frame OMIT trace
# through `fit omit --cavity` with that fit, with and without
# `--fit-detuning`.  Pins the numbers, the record keys and their order.
# The trace is noiseless because a noisy fit's phase offset, correlated
# with the cable delay at 10 GHz, is off by ~0.5 rad in the rotating frame.
FIT_GOLDEN = {
    "reflect": "5597e12f43b82e2210daa3ee53e810b1380225875db3d724c1f8614831aaf0d5",
    "omit": "952665d746fca8d8438104223e505c05fefaeec6abe183b8570d26f4d9472bfd",
    "omit_fixed_detuning": "a37485d0c68a5731be62fdfa5a92305474abb701d031d81ba727dbafe99a7c64",
    # 20001-point traces, whose arrays are past numpy's 256 KiB elision
    # threshold: there the operand order of each Jacobian product sets its
    # last bits (`synth --points 20001 --snr-db 40 --seed 7`, `--snr-db 3
    # --seed 4`)
    "reflect_20001_40db": "0e1337392a2987723fed81bd81e37c5c7478a649572f6e4dac5bfe418a335337",
    "reflect_20001_3db": "6e2a70f3cc02cd217c6d7ef90e6ea2046c8bb50eea401f4f3d524ecad6c6fe36",
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

    @pytest.mark.parametrize("snr_db, seed", [("40", "7"), ("3", "4")])
    def test_long_trace_bytes(self, config_file, tmp_path, snr_db, seed):
        trace, out = tmp_path / "trace.csv", tmp_path / "fit.json"
        args = ["--points", "20001", "--snr-db", snr_db, "--seed", seed, "--out", str(trace)]
        assert run(["synth", "--config", config_file, *args]) == 0
        assert run(["fit", "reflect", "--in", str(trace), "--out", str(out)]) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == FIT_GOLDEN[f"reflect_20001_{snr_db}db"]

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda p: {**p, "kappa_in_hz": float("nan")}, f"params.kappa_in_hz: expected {RULE}, got nan"),
            (lambda p: {**p, "amplitude": float("nan")}, f"params.amplitude: expected {RULE}, got nan"),
            (lambda p: {**p, "f_c_hz": float("inf")}, f"params.f_c_hz: expected {RULE}, got inf"),
            (lambda p: {**p, "f_c_hz": 1e308}, f"params.f_c_hz: expected {RULE}, got 1e+308"),
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

    @pytest.mark.parametrize("doc", [CAVITY_CONFIG, [{"params": {}}]], ids=["config", "array"])
    def test_cavity_record_without_params_is_data_error(self, fit_inputs, tmp_path, capsys, doc):
        # a system config passed as --cavity has no params member
        cavity, omit = fit_inputs
        cavity.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(fit_omit_args(omit, cavity, tmp_path / "omit.json")) == 2
        assert capsys.readouterr().err == f"data error: cannot read cavity fit {cavity}: missing member 'params'\n"

    def test_non_finite_start_is_numerical_error(self, fit_inputs, tmp_path, capsys):
        # an undamped start self-energy is infinite at the sample at f_m
        cavity, omit = fit_inputs
        n = len(omit.read_text().splitlines()) - 1
        out = tmp_path / "omit.json"
        args = ["fit", "omit", "--in", str(omit), "--cavity", str(cavity),
                "--f-m-hz", "4e6", "--gamma-hz", "0", "--out", str(out)]
        capsys.readouterr()
        assert run(args) == 3
        message = f"numerical error: fit start: residual not finite at 1 of {n} samples\n"
        assert capsys.readouterr().err == message
        assert not out.exists()

    @pytest.mark.parametrize("guess, message", [
        (["--f-m-hz", "-4e6", "--g-hz", "1.5e3"], f"omega_m must be finite and > 0, got {TWO_PI * -4e6}"),
        (["--f-m-hz", "4e6", "--gamma-hz", "-100"], f"gamma must be finite and >= 0, got {TWO_PI * -100.0}"),
    ], ids=["f_m_hz", "gamma_hz"])
    def test_unphysical_guess_is_numerical_error(self, fit_inputs, tmp_path, capsys, guess, message):
        # the OMIT record keeps the signs `MechParams` declares: a negative
        # mechanical frequency or damping guess is refused, not fitted
        cavity, omit = fit_inputs
        out = tmp_path / "omit.json"
        capsys.readouterr()
        assert run(["fit", "omit", "--in", str(omit), "--cavity", str(cavity), *guess, "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"numerical error: {message}\n"
        assert not out.exists()

    def test_non_utf8_cavity_record_is_data_error(self, fit_inputs, tmp_path, capsys):
        cavity, omit = fit_inputs
        cavity.write_bytes(cavity.read_bytes().replace(b"params", b"p\xfframs"))
        capsys.readouterr()
        assert run(fit_omit_args(omit, cavity, tmp_path / "omit.json")) == 2
        assert capsys.readouterr().err.startswith(
            f"data error: cannot read cavity fit {cavity}: 'utf-8' codec can't decode byte 0xff"
        )


# Starts that a magnitude-dip heuristic gave on 3-dB CAVITY_CONFIG traces
# (201 points, seeds 2 and 3).  From start 3 the rates run to 0; from
# start 2 kappa_ex runs to ~2e237, where the model no longer depends on
# omega_c, the rates or delta.  Either end point is degenerate.
DIP_STARTS = {
    2: ReflectionModelParams(0.19867008025128294, 7.68977523416564e-08, -1.7012424016330663,
                             64754356979.34544, 3933265.1873071687, 4575342.214022619, 0.0),
    3: ReflectionModelParams(0.2318668641829002, 4.251763394119316e-08, -3.1155431757380154,
                             64555682659.93243, 2623463.0695550414, 3513650.4975722497, 0.0),
}


DIP_FAULTS = {
    2: "sigma of omega_c, kappa_in, kappa_ex, delta is 0 or not finite",
    3: "kappa_in, kappa_ex underflowed to 0",
}


class TestDegenerateFit:
    @pytest.mark.parametrize("seed", [2, 3])
    def test_rates_at_floor_are_reported_not_converged(self, config_file, tmp_path, monkeypatch, seed):
        trace, out = tmp_path / "trace.csv", tmp_path / "fit.json"
        args = ["--snr-db", "3", "--seed", str(seed), "--points", "201", "--out", str(trace)]
        assert run(["synth", "--config", config_file, *args]) == 0
        monkeypatch.setattr(fitting, "initial_guess", lambda tr: DIP_STARTS[seed])
        assert run(["fit", "reflect", "--in", str(trace), "--out", str(out)]) == 0
        doc = json.loads(out.read_text(), parse_constant=pytest.fail)  # strict JSON only
        assert not doc["convergence"]["converged"]
        assert DIP_FAULTS[seed] in doc["convergence"]["message"]
        sig = doc["param_uncertainties"]
        flat = ("omega_c", "kappa_in", "kappa_ex", "delta") if seed == 2 else ("kappa_in", "kappa_ex")
        assert [sig[name] for name in flat] == [0.0] * len(flat)

    def test_failed_svd_gives_null_sigmas(self, config_file, tmp_path, monkeypatch):
        trace, out = tmp_path / "trace.csv", tmp_path / "fit.json"
        assert run(["synth", "--config", config_file, "--points", "201", "--out", str(trace)]) == 0

        def svd(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(fitting.np.linalg, "svd", svd)
        assert run(["fit", "reflect", "--in", str(trace), "--out", str(out)]) == 0
        doc = json.loads(out.read_text(), parse_constant=pytest.fail)  # strict JSON only
        assert not doc["convergence"]["converged"]
        assert list(doc["param_uncertainties"].values()) == [None] * 7


class TestFitIterations:
    @pytest.mark.parametrize("points", [201, 20001])
    def test_closed_form_start_is_in_the_basin(self, config_file, tmp_path, points):
        # from the circle-fit start at 40 dB the damping starts nearly
        # Gauss-Newton: 5 and 4 iterations (9 and 9 with a start of 1e-3)
        trace, out = tmp_path / "trace.csv", tmp_path / "fit.json"
        args = ["--snr-db", "40", "--seed", "7", "--points", str(points), "--out", str(trace)]
        assert run(["synth", "--config", config_file, *args]) == 0
        assert run(["fit", "reflect", "--in", str(trace), "--out", str(out)]) == 0
        convergence = json.loads(out.read_text(encoding="utf-8"))["convergence"]
        assert convergence["converged"] and convergence["iterations"] <= 6


def test_fit_bytes_independent_of_blas_threads(config_file, tmp_path):
    # OpenBLAS splits a long dot product over its threads, so a cost summed
    # by BLAS moves the last digit of residual_norm and of sigmas at 20001
    # points
    trace = tmp_path / "trace.csv"
    args = ["--snr-db", "40", "--seed", "7", "--points", "20001", "--out", str(trace)]
    assert run(["synth", "--config", config_file, *args]) == 0
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"fit{threads}.json"
        argv = ["fit", "reflect", "--in", str(trace), "--out", str(out)]
        code = f"import sys\nfrom emcavity.cli import main\nsys.exit(main({argv!r}))\n"
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"),
               "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
