"""The runnable experiments in scripts/ still run against the package."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_scripts_run(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    runs = [
        (["entanglement_sweep.py", "--points", "5"], "entanglement_sweep.csv"),
        (["fit_demo.py", "--points", "201"], None),  # prints its table only
        (["omit_evolution.py", "--points", "5"], "omit_evolution.csv"),
    ]
    for (script, *args), output in runs:
        proc = subprocess.run(
            # an open() without an encoding fails the script
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
             str(ROOT / "scripts" / script), *args],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, f"{script}: {proc.stderr}"
        if output is None:
            assert "converged: True" in proc.stdout, script
        else:
            assert (tmp_path / output).is_file(), script
