"""Seeded input generators and output checks for the workloads.

Each generator writes its inputs (configs, traces, field-sample CSVs) into
a work directory and returns the requests to issue, as `emcavity` argv
lists.  The program sees only those files.  Each request carries a check
that reads the program's output and compares it with the independent
numerics in `reference.py`; checks run outside the timed region.

Input generation uses numpy and the reference only, never `emcavity`.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

TWO_PI = ref.TWO_PI


@dataclass
class Result:
    """What one in-process `emcavity` call returned."""

    rc: int
    seconds: float
    stdout: str
    stderr: str


@dataclass
class Request:
    """One `emcavity` call and how to judge its output.

    `check(result)` returns (error message or None, facts); facts feed the
    per-layer ratios (rows, stable rows, fit iterations, ...).  `outputs`
    are the data files whose bytes, with stdout, identify the output.
    """

    kind: str
    argv: list
    items: int
    check: Callable
    outputs: list = field(default_factory=list)


# Working point of configs/tripartite_sec63.json (Hz).
SEC63 = {
    "delta_a": -4.0e6,
    "delta_c": -4.0e6,
    "f_m": 4.0e6,
    "g_b": 2.78e6,
    "g_c": 6.43e6,
    "kappa_a_in": 0.8e6,
    "kappa_a_ex": 1.2e6,
    "kappa_c_in": 0.8e6,
    "kappa_c_ex": 1.2e6,
    "gamma": 100.0,
}
ZERO_OCC = dict.fromkeys(ref.OCC_KEYS, 0.0)

# relative tolerances of the output checks
REF_REL = 1e-9  # program vs. reference, same closed form
ORACLE_REL = 1e-7  # closed-form zeta- vs. partial-transpose eigenvalues
SPECTRUM_ABS = 1e-7  # |R| <= 1; the rotating-frame shift loses ~8 digits
FIT_SIGMAS = 5.0


def _write_json(path: Path, doc) -> str:
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return str(path)


def _write_csv(path: Path, header, *blocks) -> str:
    """Write row blocks; each block is a list of columns (arrays or scalars).

    Values keep full precision (repr); each distinct value is converted
    once, which keeps set-up short for the large pooled sample sets.
    """

    def cells(col, n):
        if not isinstance(col, np.ndarray):
            return [repr(float(col))] * n
        values, index = np.unique(col, return_inverse=True)
        text = list(map(repr, values.tolist()))
        return [text[i] for i in index.tolist()]

    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for columns in blocks:
            n = max(len(c) for c in columns if isinstance(c, np.ndarray))
            fh.writelines(",".join(row) + "\n" for row in zip(*(cells(c, n) for c in columns)))
    return str(path)


def _read_rows(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _tripartite_params(hz: dict, occ: dict) -> dict:
    p = {k: TWO_PI * v for k, v in hz.items() if k != "f_m"}
    p["omega_m"] = TWO_PI * hz["f_m"]
    p["occ"] = occ
    return p


def _tripartite_config(hz: dict, occ: dict) -> dict:
    return {"tripartite": {**{f"{k}_hz": v for k, v in hz.items()}, "occupations": occ}}


# ----------------------------------------------------------------------------
# entanglement_map


# axis pair -> four windows (Hz) around the working point, one per quarter of the maps
_MAP_WINDOWS = {
    ("g_b", "g_c"): [((0.0, 6.0e6), (0.0, 10.0e6)), ((0.0, 3.0e6), (4.0e6, 10.0e6)),
                     ((0.0, 4.5e6), (2.0e6, 10.0e6)), ((1.0e6, 5.0e6), (3.0e6, 9.0e6))],
    ("delta_a", "delta_c"): [((-12e6, 4e6), (-12e6, 4e6)), ((-8e6, 8e6), (-8e6, 8e6)),
                             ((-7e6, -1e6), (-7e6, -1e6)), ((-10e6, 2e6), (-6e6, 6e6))],
}


def entanglement_map(rng, work: Path, tiny: bool):
    """2-D `tripartite sweep` maps: two axis pairs x zero/thermal occupation
    x four windows.  Map sides grow in even steps over the 16 maps, so that
    request latencies form a continuum and their quantiles do not sit on a
    gap between size classes."""
    sides = iter([4, 5, 5, 6] * 4 if tiny else np.rint(np.linspace(14, 36, 16)).astype(int))
    requests = []
    for k in range(4):
        for pair, windows in _MAP_WINDOWS.items():
            for thermal in (False, True):
                occ = ZERO_OCC
                if thermal:
                    occ = {
                        "n_a_in": rng.uniform(0.05, 0.5),
                        "n_a_ex": rng.uniform(0.0, 0.2),
                        "n_b_in": rng.uniform(20.0, 200.0),
                        "n_c_in": rng.uniform(0.05, 0.5),
                        "n_c_ex": rng.uniform(0.0, 0.2),
                    }
                n1 = int(next(sides))
                n2 = n1 + 1  # not square, so a transposed map cannot pass
                jitter = rng.uniform(0.97, 1.03, size=4)
                (a0, a1), (b0, b1) = windows[k]
                grid1 = np.linspace(a0 * jitter[0], a1 * jitter[1], n1)
                grid2 = np.linspace(b0 * jitter[2], b1 * jitter[3], n2)
                tag = f"map{len(requests):02d}"
                cfg = _write_json(work / f"{tag}.json", _tripartite_config(SEC63, occ))
                out = str(work / f"{tag}.csv")
                argv = [
                    "tripartite", "sweep", "--config", cfg,
                    "--axis", f"{pair[0]}_hz={float(grid1[0])!r}:{float(grid1[-1])!r}:{n1}",
                    "--axis2", f"{pair[1]}_hz={float(grid2[0])!r}:{float(grid2[-1])!r}:{n2}",
                    "--out", out,
                ]
                sample_seed = int(rng.integers(2**31))
                check = _map_check(out, pair, grid1, grid2, occ, sample_seed)
                requests.append(Request("sweep", argv, n1 * n2, check, [out]))
    return requests


def _map_check(out, pair, grid1, grid2, occ, sample_seed):
    def check(res: Result):
        if res.rc != 0:
            return f"exit {res.rc}: {res.stderr.strip()[-200:]}", {}
        header, rows = _read_rows(out)
        want = [f"{pair[0]}_hz", f"{pair[1]}_hz", "stable", "max_re_eig_hz", "zeta_minus",
                "log_negativity"]
        if header != want or len(rows) != len(grid1) * len(grid2):
            return f"{out}: header {header} / {len(rows)} rows", {}
        a, b = np.meshgrid(grid1, grid2, indexing="ij")
        hz = dict(SEC63)
        hz[pair[0]], hz[pair[1]] = a.ravel(), b.ravel()
        p = _tripartite_params(hz, occ)
        max_re = ref.max_real_eigenvalue(p)
        st = ref.stable(p, max_re)
        V, near_pole = ref.output_covariances(p)
        zeta = ref.zeta_minus(V)
        zeta[near_pole] = np.nan
        scale = TWO_PI * (SEC63["kappa_a_in"] + SEC63["kappa_a_ex"])
        ambiguous = np.abs(max_re) <= 1e-8 * scale
        stable_rows = errored = 0
        for i, row in enumerate(rows):
            x, y = float(row[0]), float(row[1])
            if not (ref.close(x, a.flat[i], 1e-12) and ref.close(y, b.flat[i], 1e-12)):
                return f"{out}:{i + 2}: grid point ({x}, {y})", {}
            verdict = row[2] == "true"
            stable_rows += verdict
            if ambiguous[i]:
                continue
            if verdict != st[i]:
                return f"{out}:{i + 2}: stable={row[2]}, reference {bool(st[i])}", {}
            if not ref.close(float(row[3]), max_re[i] / TWO_PI, REF_REL, 1e-9 * scale):
                return f"{out}:{i + 2}: max_re {row[3]} vs {max_re[i] / TWO_PI!r}", {}
            if not verdict:
                if row[4] or row[5]:
                    return f"{out}:{i + 2}: unstable point reports entanglement", {}
                continue
            if not row[4]:
                errored += 1
                if np.isfinite(zeta[i]):
                    return f"{out}:{i + 2}: blank zeta, reference {zeta[i]!r}", {}
                continue
            z, en = float(row[4]), float(row[5])
            if not ref.close(z, zeta[i], REF_REL):
                return f"{out}:{i + 2}: zeta {z!r} vs reference {zeta[i]!r}", {}
            if not ref.close(en, ref.log_negativity(zeta[i]), REF_REL, 1e-12):
                return f"{out}:{i + 2}: E_N {en!r} vs reference", {}
        # oracle: closed-form zeta- against partial-transpose eigenvalues
        good = np.flatnonzero(st & np.isfinite(zeta) & ~ambiguous)
        pick = np.random.default_rng(sample_seed).choice(good, size=min(8, len(good)), replace=False)
        oracle = ref.zeta_partial_transpose(V[pick])
        for i, z_pt in zip(pick, oracle):
            if not ref.close(float(rows[i][4]), z_pt, ORACLE_REL):
                return f"{out}:{i + 2}: zeta {rows[i][4]} vs partial transpose {z_pt!r}", {}
        return None, {"rows": len(rows), "stable": stable_rows, "errored": errored}

    return check


# ----------------------------------------------------------------------------
# stability_boundary

G_B_BRACKET_HZ = (0.0, 10.0e6)


def stability_boundary(rng, work: Path, tiny: bool):
    """`tripartite critical` along g_b, one request per seeded working point
    (g_c, delta_a); points whose bracket does not straddle the boundary are
    redrawn, since the program rightly refuses them."""
    count = 8 if tiny else 160
    requests = []
    while len(requests) < count:
        hz = dict(SEC63, g_c=rng.uniform(1.0e6, 8.0e6), delta_a=rng.uniform(-6.0e6, -2.0e6))
        ends = {}
        for end in G_B_BRACKET_HZ:
            p = _tripartite_params(dict(hz, g_b=end), ZERO_OCC)
            ends[end] = bool(ref.stable(p, ref.max_real_eigenvalue(p))[0])
        if not (ends[G_B_BRACKET_HZ[0]] and not ends[G_B_BRACKET_HZ[1]]):
            continue
        cfg = _write_json(work / f"point{len(requests):03d}.json", _tripartite_config(hz, ZERO_OCC))
        argv = [
            "tripartite", "critical", "--config", cfg, "--axis", "g_b",
            "--bracket-hz", ",".join(repr(x) for x in G_B_BRACKET_HZ),
        ]
        requests.append(Request("critical", argv, 1, _critical_check(hz)))
    return requests


def _critical_check(hz):
    def check(res: Result):
        if res.rc != 0:
            return f"exit {res.rc}: {res.stderr.strip()[-200:]}", {}
        try:
            g_star = float(res.stdout.strip())
        except ValueError:
            return f"unparsable g*: {res.stdout!r}", {}
        if not G_B_BRACKET_HZ[0] < g_star < G_B_BRACKET_HZ[1]:
            return f"g* = {g_star!r} outside the bracket", {}
        p = _tripartite_params(dict(hz, g_b=np.array([g_star * (1 - 1e-5), g_star * (1 + 1e-5)])),
                               ZERO_OCC)
        below, above = ref.stable(p, ref.max_real_eigenvalue(p))
        if not below or above:
            return f"g* = {g_star!r}: stable below {below}, stable above {above}", {}
        return None, {}

    return check


# ----------------------------------------------------------------------------
# trace_fitting

_REFLECT_KEYS = {  # fit.json key -> (uncertainty key, rad/s -> Hz)
    "amplitude": ("amplitude", False),
    "tau_s": ("tau", False),
    "phi_rad": ("phi", False),
    "f_c_hz": ("omega_c", True),
    "kappa_in_hz": ("kappa_in", True),
    "kappa_ex_hz": ("kappa_ex", True),
    "delta_hz": ("delta", True),
}
_OMIT_KEYS = {"g_hz": "g", "gamma_hz": "gamma", "f_m_hz": "omega_m"}


def trace_fitting(rng, work: Path, tiny: bool):
    """Per device: synth, fit reflect, reflect --model omit, fit omit.

    Devices alternate over- and under-coupled cavities; trace lengths are
    log-spaced over 801-20001 points and SNRs spaced over 20-60 dB.  The
    OMIT trace is synthesized here from the reference model; `fit omit`
    receives the cavity that generated it, because its uncertainties treat
    the cavity as exact.
    """
    count = 2 if tiny else 12
    # fixed sizes, so that seeds change values but not the amount of work;
    # a fixed shuffle (7 is coprime to 12) decorrelates SNR from length
    lengths = np.rint(np.geomspace(801, 2001 if tiny else 20001, count))
    snrs = np.linspace(20.0, 60.0, count)[(7 * np.arange(count)) % count]
    requests = []
    for i in range(count):
        tag = f"dev{i:02d}"
        kappa = rng.uniform(0.5e6, 3.0e6)
        r = rng.uniform(0.15, 0.4)
        over = i % 2 == 0
        kin, kex = (r * kappa, (1 - r) * kappa) if over else ((1 - r) * kappa, r * kappa)
        f_c = rng.uniform(4.0e9, 8.0e9)
        bg = {
            "amplitude": rng.uniform(0.1, 1.0),
            "tau_s": rng.uniform(20e-9, 80e-9),
            "phi_rad": rng.uniform(-3.0, 3.0),
            "delta_hz": rng.uniform(-0.05, 0.05) * kappa,
        }
        f_m = rng.uniform(2.0e6, 6.0e6)
        gamma = rng.uniform(50.0, 300.0)
        g = math.sqrt(rng.uniform(0.5, 5.0) * kappa * gamma / 4.0)  # cooperativity 0.5-5
        n_cav = 1.0e4
        cfg_doc = {
            "cavity": {"f_c_hz": f_c, "kappa_in_hz": kin, "kappa_ex_hz": kex},
            "background": bg,
            "mech": {"f_m_hz": f_m, "gamma_hz": gamma, "m_eff_kg": 1.0e-15},
            "pump": {"f_p_hz": f_c - f_m, "power_w": 1.0e-6},
            "coupling": {"g0_hz": g / math.sqrt(n_cav), "n_cavity": n_cav},
        }
        cfg = _write_json(work / f"{tag}.json", cfg_doc)
        truth = {"f_c_hz": f_c, "kappa_in_hz": kin, "kappa_ex_hz": kex, **bg}
        cavity_json = _write_json(work / f"{tag}_cavity.json", {"params": truth})

        omit_trace = str(work / f"{tag}_omit.csv")
        f = np.unique(np.concatenate([
            f_m + np.linspace(-40.0, 40.0, 801) * gamma,
            f_m + np.linspace(-4.0, 4.0, 401) * kappa,
        ]))
        w = TWO_PI * f
        clean = ref.reflection(
            w, TWO_PI * kin, TWO_PI * kex, TWO_PI * f_m,
            ref.mechanical_self_energy(w, TWO_PI * g, TWO_PI * gamma, TWO_PI * f_m),
            bg["amplitude"], bg["tau_s"], bg["phi_rad"], TWO_PI * bg["delta_hz"],
        )
        sigma = math.sqrt(np.mean(np.abs(clean) ** 2)) * 10.0 ** (-snrs[i] / 20.0)
        noisy = clean + (rng.standard_normal(len(f)) + 1j * rng.standard_normal(len(f))) * (
            sigma / math.sqrt(2.0)
        )
        _write_csv(Path(omit_trace), ["f_hz", "re", "im"], [f, noisy.real, noisy.imag])

        n = int(lengths[i])
        trace, fit_out = str(work / f"{tag}_trace.csv"), str(work / f"{tag}_fit.json")
        spec, omit_out = str(work / f"{tag}_omit_spec.csv"), str(work / f"{tag}_omit_fit.json")
        synth_seed = int(rng.integers(2**31))
        requests += [
            Request("synth", ["synth", "--config", cfg, "--snr-db", repr(float(snrs[i])),
                              "--seed", str(synth_seed), "--points", str(n), "--out", trace],
                    0, _synth_check(trace, cfg_doc, float(snrs[i]), n), [trace]),
            Request("fit_reflect", ["fit", "reflect", "--in", trace, "--out", fit_out],
                    1, _reflect_fit_check(fit_out, truth), [fit_out]),
            Request("reflect_omit", ["reflect", "--config", cfg, "--model", "omit",
                                     "--f-start-hz", repr(f_c - 3 * kappa),
                                     "--f-stop-hz", repr(f_c + 3 * kappa),
                                     "--points", str(n), "--out", spec],
                    0, _spectrum_check(spec, cfg_doc, n), [spec]),
            Request("fit_omit", ["fit", "omit", "--in", omit_trace, "--cavity", cavity_json,
                                 "--f-m-hz", repr(f_m + rng.uniform(-0.2, 0.2) * gamma),
                                 "--g-hz", repr(g * rng.uniform(0.7, 1.3)),
                                 "--gamma-hz", repr(gamma * rng.uniform(0.7, 1.3)),
                                 "--out", omit_out],
                    1, _omit_fit_check(omit_out, {"g_hz": g, "gamma_hz": gamma, "f_m_hz": f_m}),
                    [omit_out]),
        ]
    return requests


def _cavity_model(doc, w):
    c, bg = doc["cavity"], doc["background"]
    return ref.reflection(
        w, TWO_PI * c["kappa_in_hz"], TWO_PI * c["kappa_ex_hz"], TWO_PI * c["f_c_hz"],
        0.0, bg["amplitude"], bg["tau_s"], bg["phi_rad"], TWO_PI * bg["delta_hz"],
    )


def _synth_check(path, doc, snr_db, n):
    """Grid spans f_c +/- 10 kappa; residual against the noiseless model has
    the requested SNR (rms within 20 %: > 10 standard errors at n = 801)."""

    def check(res: Result):
        if res.rc != 0:
            return f"exit {res.rc}: {res.stderr.strip()[-200:]}", {}
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        c = doc["cavity"]
        span = 10.0 * (c["kappa_in_hz"] + c["kappa_ex_hz"])
        grid = np.linspace(c["f_c_hz"] - span, c["f_c_hz"] + span, n)
        if data.shape != (n, 3) or np.max(np.abs(data[:, 0] - grid)) > 1e-12 * c["f_c_hz"]:
            return f"{path}: shape {data.shape} or grid differs", {}
        clean = _cavity_model(doc, TWO_PI * data[:, 0])
        want = math.sqrt(np.mean(np.abs(clean) ** 2)) * 10.0 ** (-snr_db / 20.0)
        got = math.sqrt(np.mean(np.abs(data[:, 1] + 1j * data[:, 2] - clean) ** 2))
        if not 0.8 < got / want < 1.25:
            return f"{path}: noise rms {got:.3e}, expected {want:.3e}", {}
        return None, {}

    return check


def _fit_doc(path, res: Result, fn: str):
    """The fit JSON, an error (or None) and the fit's facts."""
    if res.rc != 0:
        return None, f"exit {res.rc}: {res.stderr.strip()[-200:]}", {}
    with open(path) as fh:
        doc = json.load(fh)
    conv = doc["convergence"]
    facts = {"fit": fn, "iterations": conv["iterations"], "converged": bool(conv["converged"])}
    if not conv["converged"]:
        return None, f"{path}: not converged ({conv['message']})", facts
    return doc, None, facts


def _reflect_fit_check(path, truth):
    def check(res: Result):
        doc, err, facts = _fit_doc(path, res, "fit_reflection")
        if err:
            return err, facts
        for key, (sig_key, angular) in _REFLECT_KEYS.items():
            diff = doc["params"][key] - truth[key]
            if key == "phi_rad":
                diff = (diff + math.pi) % (2 * math.pi) - math.pi
            sigma = doc["param_uncertainties"][sig_key] / (TWO_PI if angular else 1.0)
            if not abs(diff) <= FIT_SIGMAS * sigma:
                return f"{path}: {key} off by {abs(diff) / sigma:.1f} sigma", facts
        return None, facts

    return check


def _omit_fit_check(path, truth):
    def check(res: Result):
        doc, err, facts = _fit_doc(path, res, "fit_omit")
        if err:
            return err, facts
        for key, sig_key in _OMIT_KEYS.items():
            # the model depends on g only through g^2
            diff = abs(doc["params"][key]) - truth[key]
            sigma = doc["param_uncertainties"][sig_key] / TWO_PI
            if not abs(diff) <= FIT_SIGMAS * sigma:
                return f"{path}: {key} off by {abs(diff) / sigma:.1f} sigma", facts
        return None, facts

    return check


def _spectrum_check(path, doc, n):
    """Noiseless OMIT reflection in the pump frame, no background."""

    def check(res: Result):
        if res.rc != 0:
            return f"exit {res.rc}: {res.stderr.strip()[-200:]}", {}
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        if data.shape != (n, 5):
            return f"{path}: shape {data.shape}", {}
        c, m = doc["cavity"], doc["mech"]
        f_p = doc["pump"]["f_p_hz"]
        g = doc["coupling"]["g0_hz"] * math.sqrt(doc["coupling"]["n_cavity"])
        w = TWO_PI * data[:, 0] - TWO_PI * f_p
        want = ref.reflection(
            w, TWO_PI * c["kappa_in_hz"], TWO_PI * c["kappa_ex_hz"], TWO_PI * (c["f_c_hz"] - f_p),
            ref.mechanical_self_energy(w, TWO_PI * g, TWO_PI * m["gamma_hz"], TWO_PI * m["f_m_hz"]),
        )
        err = np.max(np.abs(data[:, 1] + 1j * data[:, 2] - want))
        if not err <= SPECTRUM_ABS:
            return f"{path}: reflection off by {err:.2e}", {}
        return None, {}

    return check


# ----------------------------------------------------------------------------
# device_g0

_VOLUME_COLS = ["x_m", "y_m", "z_m", "w_m3", "eps_rel", "ex_vpm", "ey_vpm", "ez_vpm",
                "rho_kgpm3", "qx_m", "qy_m", "qz_m"]
_SURFACE_COLS = ["x_m", "y_m", "z_m", "a_m2", "nx", "ny", "nz", "qx_m", "qy_m", "qz_m",
                 "ex_vpm", "ey_vpm", "ez_vpm", "dx_cpm2", "dy_cpm2", "dz_cpm2",
                 "eps1_rel", "eps2_rel"]
CONDUCTOR_EPS = 1e12


POOL = 4096


def _pooled(rng, lo, hi, n):
    """n full-precision values drawn from a pool of POOL uniform values."""
    return rng.uniform(lo, hi, POOL)[rng.integers(POOL, size=n)]


def device_g0(rng, work: Path, tiny: bool):
    """`device g0`, `meff` and `cap` on parallel-plate sample sets.

    Volume sets span 1e3-1e5 rows, skewed to small sets: half the rows
    sample the vacuum gap, half the moving conductor plate.  Surface sets
    sample the plate face with a tenth as many rows, split over two files
    on every other set.  Weights and areas vary per sample; the closed forms
    use their sums.  Every set gets `g0`; sets below 1e4 rows also get the
    single-integral queries `meff` and `cap`, which keeps a pass short
    enough to repeat several times in a run.
    """
    count = 2 if tiny else 12
    hi = 2e3 if tiny else 1e5
    volume_rows = np.rint(1e3 * (hi / 1e3) ** (np.linspace(0.0, 1.0, count) ** 3)).astype(int)
    requests = []
    for i, n_v in enumerate(volume_rows.tolist()):
        tag = f"plate{i:02d}"
        gap, area = rng.uniform(50e-9, 500e-9), rng.uniform(1e-9, 1e-7)
        thick, rho = rng.uniform(50e-9, 300e-9), rng.uniform(2000.0, 4000.0)
        q_amp, volts = rng.uniform(0.5e-9, 2e-9), rng.uniform(0.5, 5.0)
        f_m = rng.uniform(1e6, 10e6)
        lumped = {"inductance_h": rng.uniform(1e-9, 5e-9),
                  "stray_capacitance_f": rng.uniform(5e-15, 20e-15)}
        side, e_gap = math.sqrt(area), volts / gap
        n_gap = n_v // 2
        n_plate = n_v - n_gap
        w_gap = _pooled(rng, 0.5, 1.5, n_gap) * (area * gap / n_gap)
        w_plate = _pooled(rng, 0.5, 1.5, n_plate) * (area * thick / n_plate)
        volume = _write_csv(
            work / f"{tag}_volume.csv", _VOLUME_COLS,
            [_pooled(rng, 0, side, n_gap), _pooled(rng, 0, side, n_gap),
             _pooled(rng, 0, gap, n_gap), w_gap, 1.0, 0.0, 0.0, e_gap, 0.0, 0.0, 0.0, 0.0],
            [_pooled(rng, 0, side, n_plate), _pooled(rng, 0, side, n_plate),
             _pooled(rng, gap, gap + thick, n_plate), w_plate, CONDUCTOR_EPS, 0.0, 0.0, 0.0,
             rho, 0.0, 0.0, -q_amp],
        )
        n_s = int(min(max(n_v // 10, 10), 10_000))
        areas = _pooled(rng, 0.5, 1.5, n_s) * (area / n_s)
        surfaces = []
        for k, part in enumerate(np.array_split(areas, 2 if i % 2 else 1)):
            m = len(part)
            surfaces.append(_write_csv(
                work / f"{tag}_surface{k}.csv", _SURFACE_COLS,
                [_pooled(rng, 0, side, m), _pooled(rng, 0, side, m), gap, part,
                 0.0, 0.0, -1.0, 0.0, 0.0, -q_amp, 0.0, 0.0, e_gap,
                 0.0, 0.0, ref.EPSILON_0 * e_gap, CONDUCTOR_EPS, 1.0],
            ))
        lumped_path = _write_json(work / f"{tag}_lumped.json", lumped)
        want = ref.parallel_plate(gap, float(w_gap.sum()), float(w_plate.sum()), float(areas.sum()),
                                  rho, f_m, lumped["inductance_h"], lumped["stray_capacitance_f"])
        g0_argv = ["device", "g0", "--volume", volume]
        for path in surfaces:
            g0_argv += ["--surface", path]
        g0_argv += ["--lumped", lumped_path, "--f-m-hz", repr(f_m), "--voltage-v", repr(volts)]
        requests.append(Request("g0", g0_argv, n_v + n_s, _device_check(want, None)))
        if n_v < 10_000:
            requests += [
                Request("meff", ["device", "meff", "--volume", volume], n_v,
                        _device_check(want, "m_eff_kg")),
                Request("cap", ["device", "cap", "--volume", volume, "--voltage-v", repr(volts)],
                        n_v, _device_check(want, "c_m_f")),
            ]
    return requests


def _device_check(want, key):
    """`key` None: the g0 JSON document; otherwise one printed number."""

    def check(res: Result):
        if res.rc != 0:
            return f"exit {res.rc}: {res.stderr.strip()[-200:]}", {}
        try:
            got = json.loads(res.stdout) if key is None else {key: float(res.stdout)}
        except ValueError:
            return f"unparsable output {res.stdout[:200]!r}", {}
        for k in want if key is None else [key]:
            if not ref.close(got.get(k, math.nan), want[k], REF_REL):
                return f"{k} = {got.get(k)!r}, closed form {want[k]!r}", {}
        return None, {}

    return check


# ----------------------------------------------------------------------------
# characterisation


def characterisation(rng, work: Path, tiny: bool):
    """`device_g0` then `trace_fitting` in one pass: a device's g0 from its
    field samples beside the fits of its S11 and OMIT traces.  One workload
    covers the device, fitting and linear-response layers, so each run can
    be long enough to settle on a shared host."""
    return device_g0(rng, work, tiny) + trace_fitting(rng, work, tiny)


GENERATORS = {
    "entanglement_map": entanglement_map,
    "stability_boundary": stability_boundary,
    "trace_fitting": trace_fitting,
    "device_g0": device_g0,
    "characterisation": characterisation,
}


def build(name: str, seed: int, work: Path, tiny: bool = False):
    return GENERATORS[name](np.random.default_rng(seed), work, tiny)
