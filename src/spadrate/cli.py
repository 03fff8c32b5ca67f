"""Command-line front end: simulate, hist, fit, infer, tabulate.

All physical quantities are plain SI (seconds, hertz); scientific
notation is accepted everywhere.  Each command writes a run manifest
next to its primary output so that any result can be traced back to the
exact configuration, and a simulation can be reproduced bit-for-bit by
passing the manifest back via --config (under the same sampler, which the
simulate manifest records).

Exit codes: 0 success, 2 usage or configuration error, 3 numeric, data
or fit failure (also running out of memory), 4 I/O failure.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from pathlib import Path

import click
import numpy as np

from . import __version__, er, inference, nhpp, paralyzing, simulate
from .exceptions import DegenerateDataError, FitError, IntegrationError, SaturationError

_OUTDIR_ENV = "SPADRATE_OUTDIR"
_MODELS = ("simple", "er", "low", "high")


def _out_path(name: str | None, default: str) -> Path:
    base = Path(os.environ.get(_OUTDIR_ENV, "."))
    return Path(name) if name else base / default


def _write_manifest(primary: Path, command: str, config: dict, inputs: list[str],
                    outputs: list[str], seed: int | None = None, **extra) -> Path:
    manifest = {
        "command": command,
        "config": config,
        "inputs": inputs,
        "outputs": outputs,
        "seed": seed,
        "version": __version__,
        **extra,
    }
    path = primary.with_suffix(".manifest.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return path


def _load_config(ctx: click.Context, config_path: str | None, values: dict) -> dict:
    """Overlay JSON config onto defaulted parameters (explicit flags win).

    Accepts either a bare config object or a manifest with a "config" key,
    so a previous run's manifest reproduces it directly.  Values go through
    their option's click type; null is allowed only where the default is None.
    """
    if not config_path:
        return values
    try:
        with open(config_path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise click.UsageError(f"cannot read config {config_path}: {exc}")
    if isinstance(data, dict) and "config" in data and isinstance(data["config"], dict):
        data = data["config"]
    unknown = set(data) - set(values)
    if unknown:
        raise click.UsageError(f"unknown config keys: {sorted(unknown)}")
    options = {param.name: param for param in ctx.command.params}
    for key, val in data.items():
        if ctx.get_parameter_source(key) not in (click.core.ParameterSource.DEFAULT, None):
            continue
        option = options[key]
        if val is None and option.default is not None:
            raise click.BadParameter("may not be null", ctx=ctx, param=option)
        # via str: click's INT would silently truncate the float 1.5 to 1
        values[key] = None if val is None else option.type_cast_value(ctx, str(val))
    return values


def _handle_errors(f):
    @functools.wraps(f)
    def wrapper(*args, **kwargs):
        try:
            return f(*args, **kwargs)
        except (SaturationError, FitError, IntegrationError, DegenerateDataError, ValueError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(3)
        except MemoryError as exc:
            click.echo(f"error: out of memory: {exc}", err=True)
            sys.exit(3)
        except OSError as exc:
            click.echo(f"i/o error: {exc}", err=True)
            sys.exit(4)

    return wrapper


def _validated(builder, *args, **kwargs):
    """Invalid arguments are configuration errors (exit 2); degenerate data stays exit 3."""
    try:
        return builder(*args, **kwargs)
    except DegenerateDataError:
        raise
    except ValueError as exc:
        raise click.UsageError(str(exc))


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
@click.option("--config", "config_path", type=click.Path(), default=None,
              help="JSON config (or manifest) supplying defaults for any flag.")
@click.pass_context
@_handle_errors
def cmd_simulate(ctx, **kw):
    """Generate a seeded Monte Carlo timestamp stream."""
    kw = _load_config(ctx, kw.pop("config_path"), kw)
    if kw["ri"] is None:
        raise click.UsageError("--ri is required (directly or via --config)")
    if (kw["events"] is None) == (kw["duration"] is None):
        raise click.UsageError("specify exactly one of --events or --duration")
    if kw["events"] is not None and not 1 <= kw["events"] <= inference.MAX_ARRAY_LENGTH:
        raise click.UsageError(f"--events must be a count from 1 to {inference.MAX_ARRAY_LENGTH}, "
                               "the most float64 values one array can hold")

    params = _validated(er.ErParams, eta0=kw["eta0"], tau_d=kw["tau_d"], tau_r=kw["tau_r"])
    source = _validated(er.SourceParams, photon_rate=kw["ri"], dark_apriori=kw["dark"])
    par = None
    if kw["tau_p1"] != 0 or kw["tau_p2"] != 0:
        par = _validated(paralyzing.ParalyzingParams, tau_p1=kw["tau_p1"], tau_p2=kw["tau_p2"])
    config = _validated(
        simulate.SimConfig,
        er=params,
        source=source,
        paralyzing=par,
        n_events=int(kw["events"]) if kw["events"] is not None else None,
        duration=kw["duration"],
        seed=kw["seed"],
    )
    series = _validated(simulate.simulate, config)

    out = _out_path(kw["out"], f"timestamps.{kw['fmt']}")
    if kw["fmt"] == "csv":
        simulate.write_timestamps_csv(out, series)
    else:
        simulate.write_timestamps_binary(out, series)
    flat = {k: kw[k] for k in ("eta0", "tau_d", "tau_r", "ri", "dark", "tau_p1",
                               "tau_p2", "events", "duration", "seed", "fmt")}
    manifest = _write_manifest(out, "simulate", flat, [], [str(out)], seed=kw["seed"],
                               sampler=series.metadata["sampler"])
    click.echo(f"wrote {series.times.size} timestamps to {out}")
    click.echo(f"manifest: {manifest}")


@cli.command(name="hist")
@click.argument("timestamps", type=click.Path())
@click.option("--bin-width", type=_POSITIVE, default=1e-9, show_default=True,
              help="Histogram bin width [s].")
@click.option("--range", "bounds", type=_FINITE, nargs=2, default=None,
              help="Keep intervals in [LO, HI); outside goes to the overflow tally.")
@click.option("--out", type=click.Path(), default=None,
              help="Output CSV path [default: histogram.csv].")
@click.pass_context
@_handle_errors
def cmd_hist(ctx, timestamps, bin_width, bounds, out):
    """Bin inter-detection intervals from a timestamp file."""
    if str(timestamps).endswith(".bin"):
        times = simulate.read_timestamps_binary(timestamps)
    else:
        times = simulate.read_timestamps_csv(timestamps)
    if times.size == 0:
        raise DegenerateDataError(f"no timestamps in {timestamps}")
    bad = np.flatnonzero(~np.isfinite(times))
    if bad.size:
        raise DegenerateDataError(f"{timestamps}: timestamp at row {bad[0] + 1} is not finite")
    gaps = simulate.intervals(times)
    down = np.flatnonzero(gaps < 0)
    if down.size:
        raise DegenerateDataError(f"{timestamps}: timestamps decrease at row {down[0] + 2}")
    hist = _validated(
        inference.build_histogram, gaps, bin_width, bounds=tuple(bounds) if bounds else None,
    )
    out = _out_path(out, "histogram.csv")
    hist.to_csv(out)
    config = {"timestamps": str(timestamps), "bin_width": bin_width,
              "range": list(bounds) if bounds else None}
    manifest = _write_manifest(Path(out), "hist", config, [str(timestamps)], [str(out)])
    click.echo(f"wrote {hist.counts.size} bins ({hist.total} intervals, "
               f"{hist.overflow} overflow) to {out}")
    click.echo(f"manifest: {manifest}")


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
@click.pass_context
@_handle_errors
def cmd_fit(ctx, histogram, fix, init, ri, dark, out, curve):
    """Fit the recovery model to an interval histogram."""
    hist = inference.IntervalHistogram.from_csv(histogram)
    result = _validated(
        inference.fit_er_histogram,
        hist,
        init=_parse_assignments(init, "init") or None,
        fixed=_parse_assignments(fix, "fix"),
        photon_rate=ri,
        dark_apriori=dark,
    )
    out = _out_path(out, "fit.json")
    with open(out, "w") as fh:
        json.dump(result.to_dict(), fh, indent=2)
        fh.write("\n")

    curve_path = Path(curve) if curve else Path(out).with_name(Path(out).stem + "_curve.csv")
    expected = inference.expected_counts(hist, result.r_star, result.tau_d, result.tau_r,
                                         result.scale)
    inference.write_table(curve_path, "bin_center_s,count,expected_count",
                          "{:.17g},{},{:.10g}", hist.bin_centers, hist.counts, expected)

    config = {"histogram": str(histogram), "fix": list(fix), "init": list(init),
              "ri": ri, "dark": dark}
    manifest = _write_manifest(Path(out), "fit", config, [str(histogram)],
                               [str(out), str(curve_path)])
    click.echo(f"r_star = {result.r_star:.6e} /s")
    click.echo(f"tau_d  = {result.tau_d:.6e} s")
    click.echo(f"tau_r  = {result.tau_r:.6e} s")
    click.echo(f"scale  = {result.scale:.6f}")
    if result.eta0 is not None:
        click.echo(f"eta0   = {result.eta0:.6f}")
    click.echo(f"goodness/dof = {result.goodness:.4f}, iterations = {result.iterations}")
    click.echo(f"wrote {out} and {curve_path}")
    click.echo(f"manifest: {manifest}")


@cli.command(name="infer")
@_detector_options
@click.option("--rate", type=_POSITIVE, required=True, help="Measured detection rate [1/s].")
@click.option("--model", type=click.Choice(_MODELS),
              default="er", show_default=True, help="Rate equation to invert.")
@click.option("--dark", type=_NON_NEGATIVE, default=0.0, show_default=True,
              help="A priori dark-count rate [1/s] to subtract.")
@click.option("--out", type=click.Path(), default=None,
              help="Report JSON [default: infer.json].")
@click.pass_context
@_handle_errors
def cmd_infer(ctx, eta0, tau_d, tau_r, rate, model, dark, out):
    """Infer the a priori detection rate from a measured rate."""
    params = _validated(er.ErParams, eta0=eta0, tau_d=tau_d, tau_r=tau_r)
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
    with open(out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    config = {"eta0": eta0, "tau_d": tau_d, "tau_r": tau_r, "rate": rate,
              "model": model, "dark": dark}
    manifest = _write_manifest(Path(out), "infer", config, [], [str(out)])
    click.echo(f"measured rate      : {result.measured:.6e} /s")
    click.echo(f"model              : {result.model}")
    click.echo(f"a priori (total)   : {result.total_apriori:.6e} /s")
    click.echo(f"a priori (photons) : {result.photon_apriori:.6e} /s")
    if result.clipped:
        click.echo("warning: photon rate clipped at zero (dark counts exceed inferred total)")
    click.echo(f"wrote {out}")
    click.echo(f"manifest: {manifest}")


@cli.command(name="tabulate")
@_detector_options
@click.option("--from", "sweep_from", type=_POSITIVE, required=True,
              help="Sweep start: a priori rate [1/s].")
@click.option("--to", "sweep_to", type=_POSITIVE, required=True,
              help="Sweep end: a priori rate [1/s].")
@click.option("--points", type=int, default=25, show_default=True,
              help="Number of log-spaced sweep points.")
@click.option("--model", type=click.Choice(_MODELS),
              default="er", show_default=True, help="Mean-on-time model.")
@click.option("--tau-p1", type=float, default=0.0, show_default=True,
              help="Paralyzable-time window [s]; >0 adds paralyzing prolongation (er model only).")
@click.option("--tau-p2", type=float, default=0.0, show_default=True,
              help="Dead-time extension per paralyzation event [s].")
@click.option("--out", type=click.Path(), default=None,
              help="Sweep CSV [default: sweep.csv].")
@click.pass_context
@_handle_errors
def cmd_tabulate(ctx, eta0, tau_d, tau_r, sweep_from, sweep_to, points, model,
                 tau_p1, tau_p2, out):
    """Tabulate (a priori rate, mean on-time, measured rate) curves."""
    if sweep_to < sweep_from:
        raise click.UsageError("sweep bounds must satisfy from <= to")
    if points < 1:
        raise click.UsageError("--points must be at least 1")
    if (tau_p1 > 0 or tau_p2 > 0) and model != "er":
        raise click.UsageError("paralyzing prolongation applies to the er model only")
    params = _validated(er.ErParams, eta0=eta0, tau_d=tau_d, tau_r=tau_r)
    par = _validated(paralyzing.ParalyzingParams, tau_p1=tau_p1, tau_p2=tau_p2)
    if points == 1:
        grid = np.array([sweep_from])
    else:
        grid = np.logspace(np.log10(sweep_from), np.log10(sweep_to), points)
    _, mean_of, _ = inference._RATE_MODELS[model]
    if par.tau_p1 > 0:
        mean_of = functools.partial(paralyzing.paralyzing_mean_on_time, par)
    means = [mean_of(r_star, tau_r) for r_star in grid.tolist()]
    measured = [nhpp.rate_forward(mean, tau_d) for mean in means]
    out = _out_path(out, "sweep.csv")
    inference.write_table(out, "r_star_hz,mean_on_time_s,rate_hz", "{:.10g},{:.12g},{:.12g}",
                          grid, means, measured)
    config = {"eta0": eta0, "tau_d": tau_d, "tau_r": tau_r, "from": sweep_from,
              "to": sweep_to, "points": points, "model": model,
              "tau_p1": tau_p1, "tau_p2": tau_p2}
    manifest = _write_manifest(Path(out), "tabulate", config, [], [str(out)])
    click.echo(f"wrote {len(grid)} rows to {out}")
    click.echo(f"manifest: {manifest}")


def main():
    cli()


if __name__ == "__main__":
    main()
