#!/usr/bin/env python3
"""Photon-magnon entanglement versus electromechanical coupling.

Loads the bundled reference configuration, sweeps g_b from zero through
the instability threshold, and reports log-negativity plus the stability
boundary found by root finding.
"""

import argparse
import csv
from pathlib import Path

import numpy as np

from emcavity.config import load_config
from emcavity.constants import TWO_PI
from emcavity.tripartite import critical_coupling, sweep

DEFAULT_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "tripartite_sec63.json"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default=str(DEFAULT_CONFIG))
    ap.add_argument("--g-b-max-hz", type=float, default=4e6)
    ap.add_argument("--points", type=int, default=101)
    ap.add_argument("--out", default="entanglement_sweep.csv")
    args = ap.parse_args()

    p = load_config(args.config).tripartite
    grid = TWO_PI * np.linspace(0.0, args.g_b_max_hz, args.points)
    res = sweep(p, {"g_b": grid}, omega=0.0)

    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["g_b_hz", "stable", "zeta_minus", "log_negativity"])
        for g, stable, zeta, en in zip(res["g_b"], res["stable"], res["zeta_minus"], res["log_negativity"]):
            writer.writerow(
                [
                    f"{g / TWO_PI:.6e}",
                    bool(stable),
                    "" if np.isnan(zeta) else f"{zeta:.8f}",
                    "" if np.isnan(en) else f"{en:.8f}",
                ]
            )

    best = np.nanmax(res["log_negativity"])
    g_crit = critical_coupling(p, "g_b", (0.0, TWO_PI * args.g_b_max_hz))
    print(f"wrote {args.out}")
    print(f"peak log-negativity: {best:.4f}")
    print(f"stability boundary: g_b/2pi = {g_crit / TWO_PI:.4e} Hz")


if __name__ == "__main__":
    main()
