"""Block-by-block simulate -> file -> hist: the whole arrays' bytes, in constant memory."""

import contextlib
import dataclasses
import io as _io
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner

from spadrate import er, inference, io, simulate
from spadrate.cli import cli
from spadrate.paralyzing import ParalyzingParams

_PARALYZING = ParalyzingParams(tau_p1=15e-9, tau_p2=27e-9)


@pytest.fixture
def runner():
    return CliRunner()


def _simulate_cli(runner, out, stop, extra=()):
    args = ["simulate", "--ri", "5.23e8", "--seed", "5", "--out", str(out), *stop, *extra]
    result = runner.invoke(cli, args)
    assert result.exit_code == 0, result.output
    return result


@pytest.mark.parametrize("fmt", ["csv", "bin"])
@pytest.mark.parametrize("stop, kwargs", [
    (["--events", "40000"], {"n_events": 40000}),
    (["--duration", "0.05"], {"duration": 0.05}),
], ids=["events", "duration"])
@pytest.mark.parametrize("paralysed", [False, True], ids=["plain", "paralysed"])
def test_simulate_cli_bytes_match_the_whole_series(runner, tmp_path, paralysed, stop, kwargs, fmt):
    extra = ["--tau-p1", "15e-9", "--tau-p2", "27e-9"] if paralysed else []
    out = tmp_path / f"ts.{fmt}"
    _simulate_cli(runner, out, stop, ["--format", fmt, *extra])
    config = simulate.SimConfig(
        er=er.ErParams(eta0=0.19117, tau_d=80.09205e-6, tau_r=112.5e-9),
        source=er.SourceParams(photon_rate=5.23e8), seed=5,
        paralyzing=_PARALYZING if paralysed else ParalyzingParams(), **kwargs)
    series = simulate.simulate(config)
    want = tmp_path / f"want.{fmt}"
    (io.write_timestamps_csv if fmt == "csv" else io.write_timestamps_binary)(want, series)
    assert out.read_bytes() == want.read_bytes()


def _hist(runner, path, out, extra=()):
    result = runner.invoke(cli, ["hist", str(path), "--bin-width", "1e-9", *extra,
                                 "--out", str(out)])
    assert result.exit_code == 0, result.output
    return io.read_histogram(out)


def _same(got, want):
    assert (got.bin_width, got.origin, got.n_bins, got.overflow) == (
        want.bin_width, want.origin, want.n_bins, want.overflow)
    np.testing.assert_array_equal(got.index, want.index)
    np.testing.assert_array_equal(got.tally, want.tally)


@pytest.mark.parametrize("name", ["ts.csv", "ts.bin", "late_miss.csv"])
@pytest.mark.parametrize("bounds", [None, (80e-6, 81e-6)], ids=["unbounded", "range"])
def test_hist_over_small_reads_matches_the_whole_array(runner, tmp_path, monkeypatch, name,
                                                       bounds):
    # reads of 1 KiB: every read carries a partial line, and the README stream's
    # first reads change layout inside a read
    monkeypatch.setattr(io, "_READ", 2**10)
    path = tmp_path / name
    _simulate_cli(runner, path, ["--events", "5000"],
                  ["--format", "bin"] if name.endswith(".bin") else [])
    times = io.read_timestamps(path)
    if name == "late_miss.csv":  # a line np.loadtxt alone reads, many reads in
        with open(path, "ab") as fh:
            fh.write(b"%r \n" % (float(times[-1]) + 1e-4))  # the space leaves the grammar
        times = np.append(times, times[-1] + 1e-4)
        with open(path, "rb") as fh:
            reads = list(io._parse_csv(fh))
        assert reads[-1] is None and len(reads) > 50
    extra = ["--range", *map(repr, bounds)] if bounds else []
    got = _hist(runner, path, tmp_path / "h.csv", extra)
    _same(got, inference.build_histogram(simulate.intervals(times), 1e-9, bounds=bounds))
    np.testing.assert_array_equal(io.read_timestamps(path), times)


@pytest.mark.parametrize("content, row, what", [
    # a decrease in the first read, a nan in a later one: the nan is reported
    (b"3e-4\n1e-4\n" + b"".join(b"%d\n" % k for k in range(2, 400)) + b"nan\n", 401,
     "is not finite"),
    # a decrease in the first read, a line np.loadtxt cannot read in a later one
    (b"3e-4\n1e-4\n" + b"".join(b"%d\n" % k for k in range(2, 400)) + b"abc\n", None,
     "could not convert"),
    # the first decrease in a later read, after a jump too far for a float interval there
    (b"".join(b"%d\n" % k for k in range(1, 400)) + b"-1.5e308\n1.5e308\n0\n", 400,
     "decrease"),
], ids=["nan_after_decrease", "reader_after_decrease", "first_fault_row"])
def test_hist_reports_faults_in_order_across_reads(runner, tmp_path, monkeypatch, content, row,
                                                  what):
    monkeypatch.setattr(io, "_READ", 2**8)
    path = tmp_path / "ts.csv"
    path.write_bytes(content)
    result = runner.invoke(cli, ["hist", str(path), "--range", "1", "0",
                                 "--out", str(tmp_path / "h.csv")])
    assert result.exit_code == 3, result.output
    assert what in result.output and str(path) in result.output
    if row is not None:
        assert f"row {row} " in result.output or result.output.rstrip().endswith(f"row {row}")
    assert not (tmp_path / "h.csv").exists()


def test_simulate_past_the_float_range_mid_stream_leaves_no_file(runner, tmp_path, monkeypatch):
    # ~5e305 s on-times: the running sum passes the float range in the third block of 8
    monkeypatch.setattr(simulate, "_BLOCK", 8)
    out = tmp_path / "far.csv"
    result = runner.invoke(cli, ["simulate", "--ri", "1e-305", "--tau-r", "1", "--events", "1000",
                                 "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert "pass the float range of timestamps" in result.output
    assert not out.exists()
    assert not (tmp_path / "far.manifest.json").exists()


def test_simulate_that_cannot_fit_on_its_disk_exits_4(runner, tmp_path):
    out = tmp_path / "huge.bin"
    events = 10**17
    result = runner.invoke(cli, ["simulate", "--ri", "5.23e8", "--events", str(events),
                                 "--format", "bin", "--out", str(out)])
    assert result.exit_code == 4, result.output
    assert f"{16 + 8 * events} bytes" in result.output and "free" in result.output
    assert not out.exists()


def _traced_peak(args):
    """The peak of memory traced over one in-process CLI command."""
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(_io.StringIO()):
            cli.main(args, standalone_mode=False)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_hist_memory_does_not_grow_with_the_stream(runner, tmp_path):
    peaks = []
    for n in (100_000, 400_000):
        path = tmp_path / f"ts{n}.csv"
        _simulate_cli(runner, path, ["--events", str(n)])
        peaks.append(_traced_peak(["hist", str(path), "--bin-width", "1e-9",
                                   "--out", str(tmp_path / "h.csv")]))
    assert abs(peaks[1] - peaks[0]) < 2**20, peaks


# ~1e5 and ~4e5 detections each: the README point detects ~12,400 a second
@pytest.mark.parametrize("stops", [
    (["--events", "100000"], ["--events", "400000"]),
    (["--duration", "8"], ["--duration", "32"]),
], ids=["events", "duration"])
def test_simulate_memory_does_not_grow_with_the_stream(tmp_path, stops):
    # the first command run in a process also traces ~0.7 MiB of first-call setup
    _, *peaks = [_traced_peak(["simulate", "--ri", "5.23e8", "--seed", "5", *stop, "--format",
                               "bin", "--out", str(tmp_path / "ts.bin")])
                 for stop in (stops[0], *stops)]
    assert abs(peaks[1] - peaks[0]) < 2**20, peaks


def test_paralysed_stream_holds_a_few_blocks():
    # 2e5 detections at ~3.4 paralysed segments each: holding 24 bytes per detection
    # of the run would trace 4.8 MB; the streamed sampler holds a few blocks of 2**14
    tau_r = 112.5e-9
    config = simulate.SimConfig(
        er=er.ErParams(eta0=1.0, tau_d=80.09205e-6, tau_r=tau_r),
        source=er.SourceParams(photon_rate=10.0 / tau_r),
        paralyzing=ParalyzingParams(tau_p1=0.6 * tau_r, tau_p2=27e-9),
        n_events=200_000, seed=3)
    for _ in simulate._stamp_blocks(dataclasses.replace(config, n_events=1000)):
        pass  # first-call setup, untraced
    tracemalloc.start()
    try:
        blocks = sum(1 for _ in simulate._stamp_blocks(config))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert blocks == 13
    assert peak < 24 * 8 * simulate._BLOCK, peak
