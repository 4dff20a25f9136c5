"""`emcavity` command line interface.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 numerical
error or out of memory.  Diagnostics go to stderr; data goes to files or
stdout only.
Every file-writing subcommand also emits `<out>.manifest.json` recording
the command line, config hash, seed, version and timestamp.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import asdict

import click
import numpy as np

from . import __version__
from .config import Background, _keyed, hz_scale, load_config, parse_block, to_record
from .constants import TWO_PI
from .core import thermal_occupation, zero_point_fluctuation
from .errors import ConfigError, DataError, DomainError, NumericalError
from .fitting import (
    OmitModelParams,
    ReflectionModelParams,
    fit_omit,
    fit_reflection,
    load_trace,
    reflection_model,
    save_trace,
    synthesize_trace,
)
from .linear_response import optomechanical_damping, spectrum
from .params import RULE, Occupations, TripartiteParams, in_range, meets, violation
from .tables import write_table
from .tripartite import SWEEP_AXES
from .tripartite import critical_coupling as _critical_coupling
from .tripartite import sweep as _sweep
from . import device as dev

def _fmt(x) -> str:
    return "%.17e" % float(x)


def _write_manifest(out_path: str, config_sha256: str | None, seed: int | None):
    entry = {
        "command_line": click.get_current_context().obj,
        "config_sha256": config_sha256,
        "seed": seed,
        "tool_version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "outputs": [out_path],
    }
    with open(out_path + ".manifest.json", "w", encoding="utf-8") as fh:
        json.dump(entry, fh, indent=2)
        fh.write("\n")


class _RuledFloat(click.types.FloatParamType):
    """A float under the magnitude rule of params.py; any other is a usage error."""

    def convert(self, value, param, ctx):
        x = super().convert(value, param, ctx)
        if not in_range(x):
            self.fail(f"expected {RULE}, got {value!r}", param, ctx)
        return x


_FLOAT = _RuledFloat()
# {config key: field} of each number `tripartite sweep` can put on an axis
_AXES = {k: f for cls in (TripartiteParams, Occupations) for k, f in _keyed(cls).items() if f.name in SWEEP_AXES}


def _require(params, block: str):
    value = getattr(params, block)
    if value is None:
        raise ConfigError(f"{block}: block required by this subcommand")
    return value


@click.group()
@click.version_option(version=__version__, prog_name="emcavity")
def cli():
    """Cavity-electromechanics toolkit: spectra, entanglement, fitting,
    device integrals."""


@cli.command()
@click.option("--f-hz", type=_FLOAT, required=True, help="Mode frequency in Hz.")
@click.option("--t-k", type=_FLOAT, required=True, help="Bath temperature in K.")
def thermal(f_hz, t_k):
    """Bose-Einstein thermal occupation of a mode."""
    n = thermal_occupation(TWO_PI * f_hz, t_k)
    click.echo(_fmt(n))


@cli.command()
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--f-start-hz", type=_FLOAT, required=True)
@click.option("--f-stop-hz", type=_FLOAT, required=True)
@click.option("--points", type=int, default=2001, show_default=True)
@click.option("--model", type=click.Choice(["bare", "omit"]), default="bare", show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path())
def reflect(config_path, f_start_hz, f_stop_hz, points, model, out_path):
    """Reflection spectrum over a lab-frame frequency grid.

    The bare model is evaluated at the absolute frequency; the omit model
    is evaluated in the frame rotating at the pump (grid minus f_p).
    """
    f_grid = _grid_hz(f_start_hz, f_stop_hz, points)
    params, config_sha256 = load_config(config_path)
    if model == "omit":
        values = _omit_spectrum(params, f_grid)
    else:
        values = spectrum(TWO_PI * f_grid, _require(params, "cavity"))
    _write_spectrum_csv(out_path, f_grid, values)
    _write_manifest(out_path, config_sha256, None)
    click.echo(f"wrote {out_path}", err=True)


def _grid_hz(f_start_hz, f_stop_hz, points, default=None):
    """The evenly spaced probe grid in Hz.  A short or reversed grid, or one
    whose samples do not rise at float resolution, is a usage error naming
    the options; for a grid whose ends no option gave, the text `default`."""
    if points < 2 or (f_stop_hz <= f_start_hz and default is None):
        raise click.UsageError("need points >= 2 and f_stop_hz > f_start_hz")
    grid = np.linspace(f_start_hz, f_stop_hz, points)
    if not np.all(np.diff(grid) > 0):
        raise click.UsageError(default or f"--f-start-hz {f_start_hz!r} and --f-stop-hz {f_stop_hz!r} "
                               f"are too close for {points} points to rise at float resolution")
    return grid


def _omit_spectrum(params, f_hz):
    """OMIT reflection at the lab-frame probes f_hz, evaluated in the frame
    rotating at the pump."""
    cavity = _require(params, "cavity")
    mech = _require(params, "mech")
    pump = _require(params, "pump")
    g = _require(params, "coupling").g
    return spectrum(TWO_PI * f_hz - pump.omega_p, cavity, mech, g, pump.detuning(cavity))


def _mag_db_phase(values):
    """20 log10|r|, -inf where r = 0, and arg r."""
    with np.errstate(divide="ignore"):
        return 20.0 * np.log10(np.abs(values)), np.angle(values)


def _write_spectrum_csv(path, f_hz, values):
    write_table(path, ["f_hz", "re", "im", "mag_db", "phase_rad"],
                [f_hz, values.real, values.imag, *_mag_db_phase(values)])


@cli.command()
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--f-hz", type=_FLOAT, required=True, help="Probe frequency in Hz (lab frame).")
def omit(config_path, f_hz):
    """OMIT reflection at a single probe frequency."""
    r = _omit_spectrum(load_config(config_path)[0], np.array([f_hz]))
    re, im, mag_db, phase = (_fmt(x[0]) for x in (r.real, r.imag, *_mag_db_phase(r)))
    click.echo(f"re={re} im={im} mag_db={mag_db} phase_rad={phase}")


@cli.command()
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--detuning-hz", type=_FLOAT, required=True,
              help="Pump detuning Delta/2pi = (f_c - f_p) in Hz; positive is red.")
def damping(config_path, detuning_hz):
    """Optomechanical damping rate gamma_opt/2pi at the given detuning.

    gamma_opt is the pump's addition to the mechanical energy damping
    rate: the mechanical linewidth is gamma + gamma_opt, and the rate tends
    to 4 g^2 / kappa at Delta = +Omega in the resolved-sideband limit.
    """
    params, _ = load_config(config_path)
    cavity = _require(params, "cavity")
    mech = _require(params, "mech")
    g = _require(params, "coupling").g
    rate = optomechanical_damping(TWO_PI * detuning_hz, g, cavity.kappa, mech.omega_m)
    click.echo(_fmt(rate / TWO_PI))


@cli.group()
def tripartite():
    """Electro-magno-mechanical entanglement engine."""


def _parse_axis(ctx, param, spec_str):
    """--axis/--axis2 callback: (key, grid) from KEY=START:STOP:POINTS, KEY a key of
    the config's tripartite block or of its occupations, whose bound both ends meet."""
    if spec_str is None:
        return None
    try:
        key, rng = spec_str.split("=", 1)
        start, stop, count = rng.split(":")
        count = int(count)
    except ValueError:
        raise click.UsageError(
            f"axis must look like g_b_hz=START:STOP:POINTS, got {spec_str!r}"
        )
    start, stop = (_FLOAT.convert(x, param, ctx) for x in (start, stop))
    if key not in _AXES:
        raise click.UsageError(f"cannot sweep {key!r}: not a key of the tripartite block or its occupations")
    bound = _AXES[key].metadata.get("bound")
    for end in (start, stop):
        if not meets(end, bound):
            raise click.UsageError(violation(key, end, bound))
    if count < 1:
        raise click.UsageError("axis needs at least 1 point")
    return key, np.linspace(start, stop, count)


@tripartite.command("sweep")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--axis", "axis1", required=True, callback=_parse_axis, help="e.g. g_b_hz=0:5e6:200 or n_b_in=0:200:21")
@click.option("--axis2", default=None, callback=_parse_axis, help="Optional second axis.")
@click.option("--out", "out_path", required=True, type=click.Path())
def tripartite_sweep(config_path, axis1, axis2, out_path):
    """Sweep any number of the tripartite block; per-point stability and entanglement."""
    params, config_sha256 = load_config(config_path)
    p = _require(params, "tripartite")
    if axis2 is not None and axis2[0] == axis1[0]:
        raise click.UsageError("axis2 must differ from axis")
    axes = dict(a for a in (axis1, axis2) if a is not None)
    # the one mesh of the grid: written as given, swept in rad/s where the key is in Hz
    mesh = dict(zip(axes, (g.ravel() for g in np.meshgrid(*axes.values(), indexing="ij"))))
    res = _sweep(p, {_AXES[k].name: hz_scale(k) * c for k, c in mesh.items()})
    res["max_re"] /= TWO_PI  # in Hz, in place; zeta- and E_N are NaN, written blank, where unstable or failed
    write_table(out_path, [*mesh, "stable", "max_re_eig_hz", "zeta_minus", "log_negativity"],
                [*mesh.values(), res["stable"], res["max_re"], res["zeta_minus"], res["log_negativity"]])
    _write_manifest(out_path, config_sha256, None)
    failed = [f"line {i + 2}: {e}" for i, e in enumerate(res["error"]) if e]  # each stable row written blank
    blank = f"; {len(failed)} stable row{'s' * (len(failed) > 1)} blank, first at {failed[0]}" if failed else ""
    click.echo(f"wrote {out_path} ({len(res['stable'])} rows){blank}", err=True)


def _parse_bracket(ctx, param, value):
    """--bracket-hz callback: the pair LO,HI in Hz."""
    pair = value.split(",")
    if len(pair) != 2:
        raise click.UsageError("--bracket-hz must be two comma-separated numbers")
    return tuple(_FLOAT.convert(x, param, ctx) for x in pair)


@tripartite.command("critical")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--axis", type=click.Choice(["g_b", "g_c"]), required=True)
@click.option("--bracket-hz", required=True, callback=_parse_bracket,
              help="Comma-separated pair, e.g. 0,5e6")
def tripartite_critical(config_path, axis, bracket_hz):
    """Locate the stability boundary along one coupling axis."""
    lo, hi = bracket_hz
    params, _ = load_config(config_path)
    p = _require(params, "tripartite")
    g_crit = _critical_coupling(p, axis, (TWO_PI * lo, TWO_PI * hi))
    click.echo(_fmt(g_crit / TWO_PI))


@cli.group()
def fit():
    """Nonlinear least-squares fits of reflection traces."""


def _read_record(path, what: str, cls, name: str, key: str | None = None):
    """Read a record from a JSON file, the whole file or its `key` member;
    any failure is a data error naming the file and field."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        if key is not None:
            if not isinstance(data, dict) or key not in data:
                raise ConfigError(f"missing member {key!r}")
            data = data[key]
        return parse_block(cls, data, name)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, ConfigError) as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc


def _write_fit(result, out_path):
    doc = {
        "params": to_record(result.params),
        "residual_norm": result.residual_norm,
        "convergence": {
            "converged": result.converged,
            "iterations": result.iterations,
            "rank_deficient": result.rank_deficient,
            "message": result.message,
        },
        "param_uncertainties": {
            name: sigma if np.isfinite(sigma) else None
            for name, sigma in result.param_uncertainties.items()
        },
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, allow_nan=False)
        fh.write("\n")
    _write_manifest(out_path, None, None)
    click.echo(f"wrote {out_path}", err=True)


@fit.command("reflect")
@click.option("--in", "in_path", required=True, type=click.Path())
@click.option(
    "--format", "fmt", type=click.Choice(["re_im", "db_phase"]), default="re_im", show_default=True
)
@click.option("--out", "out_path", required=True, type=click.Path())
def fit_reflect_cmd(in_path, fmt, out_path):
    """Fit the extended one-sided-cavity model to a complex trace."""
    _write_fit(fit_reflection(load_trace(in_path, fmt)), out_path)


@fit.command("omit")
@click.option("--in", "in_path", required=True, type=click.Path())
@click.option(
    "--format", "fmt", type=click.Choice(["re_im", "db_phase"]), default="re_im", show_default=True
)
@click.option("--cavity", "cavity_path", required=True, type=click.Path(), help="fit.json from fit reflect")
@click.option("--f-m-hz", type=_FLOAT, required=True, help="Mechanical frequency guess in Hz.")
@click.option("--g-hz", type=_FLOAT, default=1e3, show_default=True, help="Coupling guess in Hz.")
@click.option("--gamma-hz", type=_FLOAT, default=100.0, show_default=True)
@click.option("--detuning-hz", type=_FLOAT, default=None, help="Pump detuning; default f_m_hz.")
@click.option("--fit-detuning", is_flag=True, default=False)
@click.option("--out", "out_path", required=True, type=click.Path())
def fit_omit_cmd(in_path, fmt, cavity_path, f_m_hz, g_hz, gamma_hz, detuning_hz, fit_detuning, out_path):
    """Fit the OMIT model with cavity parameters held fixed.

    The trace frequency column is the probe-pump detuning (rotating frame).
    """
    trace = load_trace(in_path, fmt)
    cavity = _read_record(cavity_path, "cavity fit", ReflectionModelParams, "params", key="params")
    detuning_hz = f_m_hz if detuning_hz is None else detuning_hz
    guess = OmitModelParams(g=TWO_PI * g_hz, gamma=TWO_PI * gamma_hz, omega_m=TWO_PI * f_m_hz,
                            detuning=TWO_PI * detuning_hz)
    _write_fit(fit_omit(trace, cavity, guess, fit_detuning=fit_detuning), out_path)


@cli.command()
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--snr-db", type=_FLOAT, default=None, help="Omit for a noiseless trace.")
@click.option("--seed", type=click.IntRange(min=0), default=None, help="Required with --snr-db; refused without it.")
@click.option("--f-start-hz", type=_FLOAT, default=None)
@click.option("--f-stop-hz", type=_FLOAT, default=None)
@click.option("--points", type=int, default=2001, show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path())
def synth(config_path, snr_db, seed, f_start_hz, f_stop_hz, points, out_path):
    """Synthesize a reflection trace (cavity + background model).

    The default grid spans omega_c +/- 10 kappa with 2001 points; a trace
    needs at least 7, as many as the reflection model has parameters.
    """
    if snr_db is not None and seed is None:
        raise click.UsageError("--seed is required when --snr-db is given")
    if seed is not None and snr_db is None:
        raise click.UsageError("--seed needs --snr-db: a noiseless trace draws no noise")
    if points < 7:
        raise click.UsageError(f"--points must be at least 7 (7-parameter model), got {points}")
    params, config_sha256 = load_config(config_path)
    cavity = _require(params, "cavity")
    if cavity.kappa == 0:
        raise DomainError("kappa_in + kappa_ex must be positive (pole)")
    bg = params.background or Background()
    default = None
    if f_start_hz is None or f_stop_hz is None:
        f_c = cavity.omega_c / TWO_PI
        span = 10.0 * cavity.kappa / TWO_PI
        f_start_hz = f_c - span if f_start_hz is None else f_start_hz
        f_stop_hz = f_c + span if f_stop_hz is None else f_stop_hz
        default = (f"the default grid f_c +/- 10 kappa (f_c = {f_c!r} Hz, kappa = {cavity.kappa / TWO_PI!r} Hz) "
                   f"does not rise over {points} points at float resolution; give --f-start-hz and --f-stop-hz")
    model = ReflectionModelParams(
        **asdict(bg), omega_c=cavity.omega_c, kappa_in=cavity.kappa_in, kappa_ex=cavity.kappa_ex
    )
    trace = synthesize_trace(lambda w: reflection_model(w, model), _grid_hz(f_start_hz, f_stop_hz, points, default),
                             snr_db=snr_db, seed=seed)
    save_trace(trace, out_path)
    _write_manifest(out_path, config_sha256, seed)
    click.echo(f"wrote {out_path}", err=True)


@cli.group()
def device():
    """Design integrals over exported field samples."""


@device.command("meff")
@click.option("--volume", "volume_path", required=True, type=click.Path())
def device_meff(volume_path):
    """Effective mass of the sampled mechanical mode (kg)."""
    vol = dev.load_volume_csv(volume_path)
    click.echo(_fmt(dev.effective_mass(vol)))


@device.command("cap")
@click.option("--volume", "volume_path", required=True, type=click.Path())
@click.option("--voltage-v", type=_FLOAT, default=1.0, show_default=True)
def device_cap(volume_path, voltage_v):
    """Motional capacitance from the stored field energy (F)."""
    vol = dev.load_volume_csv(volume_path)
    click.echo(_fmt(dev.capacitance_from_energy(vol, voltage_v)))


@device.command("g0")
@click.option("--volume", "volume_path", required=True, type=click.Path())
@click.option("--surface", "surface_paths", multiple=True, required=True, type=click.Path())
@click.option("--lumped", "lumped_path", required=True, type=click.Path())
@click.option("--f-m-hz", type=_FLOAT, required=True, help="Mechanical mode frequency in Hz.")
@click.option("--voltage-v", type=_FLOAT, default=1.0, show_default=True)
def device_g0(volume_path, surface_paths, lumped_path, f_m_hz, voltage_v):
    """Moving-boundary single-photon coupling rate.

    Resonator frequency comes from the lumped LC model with the motional
    capacitance, omega_c = 1/sqrt(L (C_s + C_m)).
    """
    vol = dev.load_volume_csv(volume_path)
    surfaces = [dev.load_surface_csv(p) for p in surface_paths]
    lumped = _read_record(lumped_path, "lumped circuit", dev.ResonatorLumped, "lumped")
    m_eff = dev.effective_mass(vol)
    c_m = dev.capacitance_from_energy(vol, voltage_v)
    eta = dev.participation_ratio(c_m, lumped.stray_capacitance)
    omega_c = dev.lc_frequency(lumped, c_m)
    x_zpf = zero_point_fluctuation(m_eff, TWO_PI * f_m_hz)
    g0 = dev.coupling_rate_moving_boundary(surfaces, vol, eta, omega_c, x_zpf)
    doc = {
        "m_eff_kg": m_eff,
        "x_zpf_m": x_zpf,
        "c_m_f": c_m,
        "eta": eta,
        "f_c_hz": omega_c / TWO_PI,
        "g0_hz": g0 / TWO_PI,
    }
    click.echo(json.dumps(doc, indent=2))


def main(argv=None) -> int:
    """Dispatch with the documented exit-code contract."""
    command_line = sys.argv if argv is None else ["emcavity", *argv]  # what manifests record
    try:
        cli.main(args=argv, standalone_mode=False, obj=command_line)
    except click.ClickException as exc:
        exc.show(file=sys.stderr)
        return 1
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        return 1
    except (DataError, OSError) as exc:
        click.echo(f"data error: {exc}", err=True)
        return 2
    except (NumericalError, DomainError) as exc:
        click.echo(f"numerical error: {exc}", err=True)
        return 3
    except MemoryError as exc:  # e.g. an --axis grid too large to allocate
        click.echo(f"numerical error: out of memory{f': {exc}' if str(exc) else ''}", err=True)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
