"""The runnable experiments in scripts/ still run against the package."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# sha256 of the CSVs the scripts write at --points 5; any change to the
# numbers or to the writers shows here
SCRIPT_GOLDEN = {
    "entanglement_sweep.csv": "d3b6684d4bbe1c45a9e06306fb97b284f242ae8e0dac024fa73a9ec8a163cc15",
    "omit_evolution.csv": "28ab354d63b0c149405474f5ba83b61141657ca06b4594943e1f70b6b0c16d95",
}


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
            digest = hashlib.sha256((tmp_path / output).read_bytes()).hexdigest()
            assert digest == SCRIPT_GOLDEN[output], script
