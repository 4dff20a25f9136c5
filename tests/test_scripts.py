"""The runnable experiments in scripts/ still run against the package."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

from emcavity.tables import format_e17, read_table

ROOT = Path(__file__).resolve().parents[1]

# sha256 of the CSVs the scripts write at --points 5; any change to the
# numbers or to the writers shows here
SCRIPT_GOLDEN = {
    "omit_evolution.csv": "dcf7eea86b2e7861b7dfb224c3c15713b4e45f1d8f70c83d1e067c0500e09fd8",
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
    # the table reads back bit for bit: rewriting what read_table returns
    # gives the file's bytes
    path = tmp_path / "omit_evolution.csv"
    header = ["n_bar", "g_hz", "center_mag", "side_mag"]
    with read_table(path, columns=header) as table:
        assert table.shape == (5, 4)
        slots, keep = format_e17(table)
        assert path.read_bytes() == (",".join(header) + "\n").encode() + slots[keep].tobytes()
