#!/usr/bin/env python3
"""Trace the OMIT center feature from narrow dip to narrow peak.

Sweeps the intracavity photon number over several decades at fixed
single-photon coupling and writes the center/side reflection magnitudes
to CSV for plotting; the center is a peak where center_mag > side_mag.
"""

import argparse

import numpy as np

from emcavity.constants import TWO_PI
from emcavity.linear_response import spectrum
from emcavity.params import CavityParams, MechParams
from emcavity.tables import write_table


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--g0-hz", type=float, default=100.0)
    ap.add_argument("--decades", type=float, default=5.0)
    ap.add_argument("--points", type=int, default=61)
    ap.add_argument("--out", default="omit_evolution.csv")
    args = ap.parse_args()

    cavity = CavityParams(
        omega_c=TWO_PI * 10.29184e9, kappa_in=TWO_PI * 0.41e6, kappa_ex=TWO_PI * 1.45e6
    )
    mech = MechParams(omega_m=TWO_PI * 4e6, gamma=TWO_PI * 100.0)
    g0 = TWO_PI * args.g0_hz

    # start the sweep at the matched point where the mechanically induced
    # loss 4 g^2 / gamma equals kappa_ex - kappa_in
    n_min = (cavity.kappa_ex - cavity.kappa_in) * mech.gamma / (4.0 * g0 * g0)
    n_bar = n_min * np.logspace(0.0, args.decades, args.points)
    # |R| at the mechanical resonance and 5 gamma above it, pump detuned by Omega_m
    probes = np.array([mech.omega_m, mech.omega_m + 5 * mech.gamma])

    g = g0 * np.sqrt(n_bar)
    center, side = np.abs([spectrum(probes, cavity, mech, gi, mech.omega_m) for gi in g]).T
    write_table(args.out, ["n_bar", "g_hz", "center_mag", "side_mag"], [n_bar, g / TWO_PI, center, side])
    print(f"wrote {args.out} ({args.points} rows)")


if __name__ == "__main__":
    main()
