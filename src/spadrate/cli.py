"""Command-line front end: simulate, hist, fit, infer, tabulate.

All physical quantities are plain SI (seconds, hertz); scientific
notation is accepted everywhere.  Each command writes a run manifest
next to its primary output so that any result can be traced back to the
exact configuration, and a simulation can be reproduced bit-for-bit by
passing the manifest back via --config (under the same sampler, which the
simulate manifest records).

Exit codes follow the exception type: 0 success, 2 usage or configuration
error (any ValueError not listed for 3), 3 a malformed input file, a numeric
or fit failure, or running out of memory, 4 I/O failure.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from pathlib import Path

import click
import numpy as np

from . import __version__, er, inference, io, nhpp, paralyzing, simulate
from .exceptions import DegenerateDataError, FitError, IntegrationError, SaturationError

_OUTDIR_ENV = "SPADRATE_OUTDIR"


def _out_path(name: str | None, default: str) -> Path:
    base = Path(os.environ.get(_OUTDIR_ENV, "."))
    return Path(name) if name else base / default


def _write_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def _write_manifest(primary: Path, inputs: list[str], outputs: list[str], **extra) -> None:
    """Write and echo the running command's ``<primary stem>.manifest.json``.

    Its config is every parameter but the output paths, in declaration
    order, so the bytes do not depend on the order of the flags.
    """
    ctx = click.get_current_context()
    config = {param.name: ctx.params[param.name] for param in ctx.command.params
              if param.name in ctx.params and param.name not in ("out", "curve")}
    path = primary.with_suffix(".manifest.json")
    _write_json(path, {
        "command": ctx.info_name,
        "config": config,
        "inputs": inputs,
        "outputs": outputs,
        "seed": config.get("seed"),
        "version": __version__,
        **extra,
    })
    click.echo(f"manifest: {path}")


def _config_defaults(ctx: click.Context, param: click.Parameter, config_path: str | None) -> None:
    """Make a JSON config, or a manifest's "config", the defaults of the other flags.

    Explicit flags win.  Values go in as strings so that each passes through
    its option's type (click's INT would truncate the float 1.5 to 1); null
    is allowed only where the default is None.
    """
    if not config_path:
        return
    try:
        with open(config_path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise click.UsageError(f"cannot read config {config_path}: {exc}")
    if not isinstance(data, dict):
        raise click.UsageError(f"config {config_path} must hold a JSON object")
    if "config" in data and isinstance(data["config"], dict):
        data = data["config"]
    options = {option.name: option for option in ctx.command.params if option.expose_value}
    unknown = set(data) - set(options)
    if unknown:
        raise click.UsageError(f"unknown config keys: {sorted(unknown)}")
    for key, val in data.items():
        if val is None and options[key].default is not None:
            raise click.BadParameter("may not be null", ctx=ctx, param=options[key])
    ctx.default_map = {key: str(val) for key, val in data.items() if val is not None}


def _handle_errors(f):
    """Give each exception type its exit code; any other ValueError is a usage error."""
    @functools.wraps(f)
    def wrapper(*args, **kwargs):
        try:
            return f(*args, **kwargs)
        except (SaturationError, FitError, IntegrationError, DegenerateDataError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(3)
        except ValueError as exc:
            raise click.UsageError(str(exc))
        except MemoryError as exc:
            click.echo(f"error: out of memory: {exc}", err=True)
            sys.exit(3)
        except OSError as exc:
            click.echo(f"i/o error: {exc}", err=True)
            sys.exit(4)

    return wrapper


class _FiniteFloat(click.FloatRange):
    """A float flag that must be finite and inside the given range (else exit 2)."""

    name = "float"

    def convert(self, value, param, ctx):
        number = super().convert(value, param, ctx)
        if not np.isfinite(number):
            self.fail(f"{value!r} is not a finite number", param, ctx)
        return number


_FINITE = _FiniteFloat()
_NON_NEGATIVE = _FiniteFloat(min=0)
_POSITIVE = _FiniteFloat(min=0, min_open=True)


def _detector_options(f):
    f = click.option("--tau-r", type=float, default=112.5e-9, show_default=True,
                     help="Efficiency recovery time constant [s].")(f)
    f = click.option("--tau-d", type=float, default=80.09205e-6, show_default=True,
                     help="Dead-time window [s].")(f)
    f = click.option("--eta0", type=float, default=0.19117, show_default=True,
                     help="Asymptotic quantum efficiency.")(f)
    return f


@click.group()
@click.version_option(version=__version__, prog_name="spadrate")
def cli():
    """Count-rate toolkit for dead-time-limited single-photon detectors.

    Simulate timestamp streams, histogram inter-detection intervals, fit
    the recovery model, invert rate equations, and tabulate model curves.
    """


@cli.command(name="simulate")
@_detector_options
@click.option("--ri", type=float, help="Impinging photon rate [1/s].")
@click.option("--dark", type=float, default=0.0, show_default=True,
              help="A priori dark-count rate [1/s].")
@click.option("--tau-p1", type=float, default=0.0, show_default=True,
              help="Paralyzable-time window [s]; 0 disables paralyzing dynamics.")
@click.option("--tau-p2", type=float, default=0.0, show_default=True,
              help="Dead-time extension per paralyzation event [s].")
@click.option("--events", type=float, default=None, help="Target number of detections.")
@click.option("--duration", type=float, default=None, help="Target duration [s].")
@click.option("--seed", type=int, default=0, show_default=True, help="RNG seed.")
@click.option("--format", "fmt", type=click.Choice(["csv", "bin"]), default="csv",
              show_default=True, help="Timestamp file format.")
@click.option("--out", "out", type=click.Path(), default=None,
              help="Output path [default: timestamps.<fmt> in $SPADRATE_OUTDIR or cwd].")
@click.option("--config", type=click.Path(), default=None, is_eager=True, expose_value=False,
              callback=_config_defaults,
              help="JSON config (or manifest) supplying defaults for any flag.")
@_handle_errors
def cmd_simulate(**kw):
    """Generate a seeded Monte Carlo timestamp stream."""
    if kw["ri"] is None:
        raise click.UsageError("--ri is required (directly or via --config)")
    if (kw["events"] is None) == (kw["duration"] is None):
        raise click.UsageError("specify exactly one of --events or --duration")
    events = kw["events"]
    if events is not None and not (events.is_integer() and 1 <= events <= inference.MAX_ARRAY_LENGTH):
        raise click.UsageError(f"--events must be a count from 1 to {inference.MAX_ARRAY_LENGTH}, "
                               "the most float64 values one array can hold")

    config = simulate.SimConfig(
        er=er.ErParams(eta0=kw["eta0"], tau_d=kw["tau_d"], tau_r=kw["tau_r"]),
        source=er.SourceParams(photon_rate=kw["ri"], dark_apriori=kw["dark"]),
        paralyzing=paralyzing.ParalyzingParams(tau_p1=kw["tau_p1"], tau_p2=kw["tau_p2"]),
        n_events=int(events) if events is not None else None,
        duration=kw["duration"],
        seed=kw["seed"],
    )
    series = simulate.simulate(config)

    out = _out_path(kw["out"], f"timestamps.{kw['fmt']}")
    if kw["fmt"] == "csv":
        io.write_timestamps_csv(out, series)
    else:
        io.write_timestamps_binary(out, series)
    click.echo(f"wrote {series.times.size} timestamps to {out}")
    _write_manifest(out, [], [str(out)], sampler=series.metadata["sampler"])


@cli.command(name="hist")
@click.argument("timestamps", type=click.Path())
@click.option("--bin-width", type=_POSITIVE, default=1e-9, show_default=True,
              help="Histogram bin width [s].")
@click.option("--range", "bounds", type=_FINITE, nargs=2, default=None,
              help="Keep intervals in [LO, HI); outside goes to the overflow tally.")
@click.option("--out", type=click.Path(), default=None,
              help="Output CSV path [default: histogram.csv].")
@_handle_errors
def cmd_hist(timestamps, bin_width, bounds, out):
    """Bin inter-detection intervals from a timestamp file."""
    times = io.read_timestamps(timestamps)
    if times.size == 0:
        raise DegenerateDataError(f"no timestamps in {timestamps}")
    bad = np.flatnonzero(~np.isfinite(times))
    if bad.size:
        raise DegenerateDataError(f"{timestamps}: timestamp at row {bad[0] + 1} is not finite")
    with np.errstate(over="ignore"):
        gaps = simulate.intervals(times)
    del times  # binning needs only the gaps
    bad = np.flatnonzero((gaps < 0) | (gaps == np.inf))
    if bad.size:
        what = "decrease" if gaps[bad[0]] < 0 else "lie too far apart for a float interval"
        raise DegenerateDataError(f"{timestamps}: timestamps {what} at row {bad[0] + 2}")
    hist = inference.build_histogram(gaps, bin_width, bounds=tuple(bounds) if bounds else None)
    out = _out_path(out, "histogram.csv")
    io.write_histogram(out, hist)
    click.echo(f"wrote {hist.n_bins} bins ({hist.total} intervals, "
               f"{hist.overflow} overflow) to {out}")
    _write_manifest(out, [str(timestamps)], [str(out)])


def _parse_assignments(pairs, what: str) -> dict[str, float]:
    out: dict[str, float] = {}
    for pair in pairs:
        if "=" not in pair:
            raise click.UsageError(f"--{what} expects name=value, got {pair!r}")
        name, _, value = pair.partition("=")
        try:
            number = float(value)
        except ValueError:
            raise click.UsageError(f"--{what} {name}: not a number: {value!r}")
        if not np.isfinite(number):
            raise click.UsageError(f"--{what} {name}: not a finite number: {value!r}")
        out[name.strip()] = number
    return out


@cli.command(name="fit")
@click.argument("histogram", type=click.Path())
@click.option("--fix", "fix", multiple=True, metavar="NAME=VALUE",
              help="Hold a parameter fixed (r_star, tau_d, tau_r, scale); repeatable.")
@click.option("--init", "init", multiple=True, metavar="NAME=VALUE",
              help="Override an initial guess; repeatable.")
@click.option("--ri", type=_POSITIVE, default=None,
              help="Calibrated photon rate [1/s]; enables eta0 recovery.")
@click.option("--dark", type=_NON_NEGATIVE, default=0.0, show_default=True,
              help="A priori dark-count rate [1/s], subtracted before eta0 recovery.")
@click.option("--out", type=click.Path(), default=None,
              help="Fit result JSON [default: fit.json].")
@click.option("--curve", type=click.Path(), default=None,
              help="Model-curve CSV for plotting [default: <out stem>_curve.csv].")
@_handle_errors
def cmd_fit(histogram, fix, init, ri, dark, out, curve):
    """Fit the recovery model to an interval histogram."""
    hist = io.read_histogram(histogram)
    result = inference.fit_er_histogram(
        hist,
        init=_parse_assignments(init, "init") or None,
        fixed=_parse_assignments(fix, "fix"),
        photon_rate=ri,
        dark_apriori=dark,
    )
    out = _out_path(out, "fit.json")
    _write_json(out, result.to_dict())

    curve_path = Path(curve) if curve else Path(out).with_name(Path(out).stem + "_curve.csv")
    expected = inference.expected_counts(hist, result.r_star, result.tau_d, result.tau_r,
                                         result.scale, populated=True)
    centers = hist.origin + hist.bin_width * hist.index + 0.5 * hist.bin_width
    io.write_table(curve_path, "bin_center_s,count,expected_count",
                   "{:.17g},{},{:.10g}", centers, hist.tally, expected)

    click.echo(f"r_star = {result.r_star:.6e} /s")
    click.echo(f"tau_d  = {result.tau_d:.6e} s")
    click.echo(f"tau_r  = {result.tau_r:.6e} s")
    click.echo(f"scale  = {result.scale:.6f}")
    if result.eta0 is not None:
        click.echo(f"eta0   = {result.eta0:.6f}")
    click.echo(f"goodness/dof = {result.goodness:.4f}, iterations = {result.iterations}")
    click.echo(f"wrote {out} and {curve_path}")
    _write_manifest(out, [str(histogram)], [str(out), str(curve_path)])


@cli.command(name="infer")
@_detector_options
@click.option("--rate", type=_POSITIVE, required=True, help="Measured detection rate [1/s].")
@click.option("--model", type=click.Choice(tuple(inference._RATE_MODELS)),
              default="er", show_default=True, help="Rate equation to invert.")
@click.option("--dark", type=_NON_NEGATIVE, default=0.0, show_default=True,
              help="A priori dark-count rate [1/s] to subtract.")
@click.option("--out", type=click.Path(), default=None,
              help="Report JSON [default: infer.json].")
@_handle_errors
def cmd_infer(eta0, tau_d, tau_r, rate, model, dark, out):
    """Infer the a priori detection rate from a measured rate."""
    params = er.ErParams(eta0=eta0, tau_d=tau_d, tau_r=tau_r)
    result = inference.infer_apriori_rate(rate, params, dark_apriori=dark, model=model)
    out = _out_path(out, "infer.json")
    report = {
        "measured_rate_hz": result.measured,
        "model": result.model,
        "dark_apriori_hz": dark,
        "total_apriori_hz": result.total_apriori,
        "photon_apriori_hz": result.photon_apriori,
        "clipped": result.clipped,
    }
    _write_json(out, report)
    click.echo(f"measured rate      : {result.measured:.6e} /s")
    click.echo(f"model              : {result.model}")
    click.echo(f"a priori (total)   : {result.total_apriori:.6e} /s")
    click.echo(f"a priori (photons) : {result.photon_apriori:.6e} /s")
    if result.clipped:
        click.echo("warning: photon rate clipped at zero (dark counts exceed inferred total)")
    click.echo(f"wrote {out}")
    _write_manifest(out, [], [str(out)])


@cli.command(name="tabulate")
@_detector_options
@click.option("--from", "sweep_from", type=_POSITIVE, required=True,
              help="Sweep start: a priori rate [1/s].")
@click.option("--to", "sweep_to", type=_POSITIVE, required=True,
              help="Sweep end: a priori rate [1/s].")
@click.option("--points", type=int, default=25, show_default=True,
              help="Number of log-spaced sweep points.")
@click.option("--model", type=click.Choice(tuple(inference._RATE_MODELS)),
              default="er", show_default=True, help="Mean-on-time model.")
@click.option("--tau-p1", type=float, default=0.0, show_default=True,
              help="Paralyzable-time window [s]; >0 adds paralyzing prolongation (er model only).")
@click.option("--tau-p2", type=float, default=0.0, show_default=True,
              help="Dead-time extension per paralyzation event [s].")
@click.option("--out", type=click.Path(), default=None,
              help="Sweep CSV [default: sweep.csv].")
@_handle_errors
def cmd_tabulate(eta0, tau_d, tau_r, sweep_from, sweep_to, points, model,
                 tau_p1, tau_p2, out):
    """Tabulate (a priori rate, mean on-time, measured rate) curves."""
    if sweep_to < sweep_from:
        raise click.UsageError("sweep bounds must satisfy from <= to")
    if points < 1:
        raise click.UsageError("--points must be at least 1")
    if (tau_p1 > 0 or tau_p2 > 0) and model != "er":
        raise click.UsageError("paralyzing prolongation applies to the er model only")
    er.ErParams(eta0=eta0, tau_d=tau_d, tau_r=tau_r)  # checks the detector flags
    par = paralyzing.ParalyzingParams(tau_p1=tau_p1, tau_p2=tau_p2)
    if points == 1:
        grid = np.array([sweep_from])
    else:
        grid = np.logspace(np.log10(sweep_from), np.log10(sweep_to), points)
    _, mean_of, _ = inference._RATE_MODELS[model]
    if par.tau_p1 > 0:
        mean_of = functools.partial(paralyzing.paralyzing_mean_on_time, par)
    means = [mean_of(r_star, tau_r) for r_star in grid.tolist()]
    for r_star, mean in zip(grid.tolist(), means):
        if not np.isfinite(mean):
            raise ValueError(f"{model} mean on-time is not finite at r_star = {r_star:g}")
    measured = [nhpp.rate_forward(mean, tau_d) for mean in means]
    out = _out_path(out, "sweep.csv")
    io.write_table(out, "r_star_hz,mean_on_time_s,rate_hz", "{:.10g},{:.12g},{:.12g}",
                   grid, means, measured)
    click.echo(f"wrote {len(grid)} rows to {out}")
    _write_manifest(out, [], [str(out)])


def main():
    cli()


if __name__ == "__main__":
    main()
