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
    "omit_evolution.csv": "28ab354d63b0c149405474f5ba83b61141657ca06b4594943e1f70b6b0c16d95",
}


def test_scripts_run(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        # an open() without an encoding fails the script
        [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
         str(ROOT / "scripts" / "omit_evolution.py"), "--points", "5"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    for output, digest in SCRIPT_GOLDEN.items():
        assert hashlib.sha256((tmp_path / output).read_bytes()).hexdigest() == digest, output
