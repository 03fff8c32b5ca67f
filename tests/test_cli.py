import csv
import hashlib
import json
import struct
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import helpers
from spadrate import inference, io, simulate
from spadrate.cli import cli

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture
def runner():
    return CliRunner()


def _simulate_args(out, events=5000, seed=7, extra=()):
    return [
        "simulate", "--eta0", "0.19117", "--tau-d", "80.09205e-6", "--tau-r",
        "112.5e-9", "--ri", "5.23e8", "--events", str(events), "--seed", str(seed),
        "--out", str(out), *extra,
    ]


def test_simulate_writes_output_and_manifest(runner, tmp_path):
    out = tmp_path / "ts.csv"
    result = runner.invoke(cli, _simulate_args(out))
    assert result.exit_code == 0, result.output
    times = np.loadtxt(out)
    assert times.size == 5000
    manifest = json.loads((tmp_path / "ts.manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["seed"] == 7
    assert manifest["config"]["ri"] == 5.23e8


def test_simulate_same_seed_identical_files(runner, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert runner.invoke(cli, _simulate_args(a)).exit_code == 0
    assert runner.invoke(cli, _simulate_args(b)).exit_code == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_reproducible_from_manifest(runner, tmp_path):
    first = tmp_path / "first.csv"
    assert runner.invoke(cli, _simulate_args(first)).exit_code == 0
    second = tmp_path / "second.csv"
    result = runner.invoke(
        cli,
        ["simulate", "--config", str(tmp_path / "first.manifest.json"),
         "--out", str(second)],
    )
    assert result.exit_code == 0, result.output
    assert first.read_bytes() == second.read_bytes()


def test_simulate_zero_events_is_usage_error(runner, tmp_path):
    result = runner.invoke(cli, _simulate_args(tmp_path / "x.csv", events=0))
    assert result.exit_code == 2


@pytest.mark.parametrize("flag, value", [
    ("--ri", "nan"), ("--ri", "inf"), ("--dark", "nan"), ("--tau-d", "nan"),
    ("--tau-r", "inf"), ("--tau-p1", "nan"), ("--events", "nan"), ("--events", "inf"),
])
def test_simulate_non_finite_input_is_usage_error(runner, tmp_path, flag, value):
    result = runner.invoke(cli, _simulate_args(tmp_path / "x.csv", extra=[flag, value]))
    assert result.exit_code == 2, result.output


def test_simulate_non_finite_duration_is_usage_error(runner, tmp_path):
    result = runner.invoke(
        cli, ["simulate", "--ri", "5.23e8", "--duration", "nan", "--out", str(tmp_path / "x.csv")]
    )
    assert result.exit_code == 2, result.output


def test_simulate_requires_one_stop(runner, tmp_path):
    args = _simulate_args(tmp_path / "x.csv", extra=["--duration", "1.0"])
    assert runner.invoke(cli, args).exit_code == 2
    result = runner.invoke(
        cli, ["simulate", "--ri", "1e6", "--out", str(tmp_path / "y.csv")]
    )
    assert result.exit_code == 2


def test_simulate_binary_format(runner, tmp_path):
    out = tmp_path / "ts.bin"
    args = _simulate_args(out, extra=["--format", "bin"])
    assert runner.invoke(cli, args).exit_code == 0
    assert out.read_bytes()[:4] == b"SPTS"


def test_hist_command(runner, tmp_path):
    ts = tmp_path / "ts.csv"
    assert runner.invoke(cli, _simulate_args(ts, events=20000)).exit_code == 0
    out = tmp_path / "h.csv"
    result = runner.invoke(cli, ["hist", str(ts), "--bin-width", "1e-9", "--out", str(out)])
    assert result.exit_code == 0, result.output
    # file v2: a header of exact repr values, then the populated bins only
    ref = inference.build_histogram(simulate.intervals(np.loadtxt(ts)), 1e-9)
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[:6] == [["# spadrate interval histogram v2"], ["# bin_width=1e-09"],
                        ["# origin=0.0"], [f"# n_bins={ref.n_bins}"], ["# overflow=0"],
                        ["bin_index", "count"]]
    assert [int(r[0]) for r in rows[6:]] == ref.index.tolist()
    assert sum(int(r[1]) for r in rows[6:]) == 19999
    assert (tmp_path / "h.manifest.json").exists()


def test_hist_missing_input_is_io_error(runner, tmp_path):
    result = runner.invoke(cli, ["hist", str(tmp_path / "nope.csv")])
    assert result.exit_code == 4


def test_fit_command(runner, tmp_path):
    ts = tmp_path / "ts.csv"
    assert runner.invoke(cli, _simulate_args(ts, events=50000)).exit_code == 0
    hist = tmp_path / "h.csv"
    assert runner.invoke(
        cli,
        ["hist", str(ts), "--out", str(hist), "--range", "80.0e-6", "84e-6"],
    ).exit_code == 0
    out = tmp_path / "fit.json"
    curve = tmp_path / "curve.csv"
    result = runner.invoke(
        cli,
        ["fit", str(hist), "--fix", "tau_d=80.09205e-6", "--ri", "5.23e8",
         "--out", str(out), "--curve", str(curve)],
    )
    assert result.exit_code == 0, result.output
    report = json.loads(out.read_text())
    assert report["fixed"] == ["tau_d"]
    true_r_star = 0.19117 * 5.23e8
    assert report["params"]["r_star"] == pytest.approx(true_r_star, rel=0.05)
    assert report["params"]["eta0"] == pytest.approx(0.19117, rel=0.05)
    with open(curve) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["bin_center_s", "count", "expected_count"]
    assert len(rows) > 100


@pytest.mark.parametrize("row", ["0", "1e-9,1.5", "1e-9,x", "1e-9,-2"],
                         ids=["short", "float", "text", "negative"])
def test_fit_malformed_histogram_row_is_data_error(runner, tmp_path, row):
    hist = tmp_path / "h.csv"
    hist.write_text(f"bin_left_s,count\n0,1\n{row}\n2e-9,3\n")
    result = runner.invoke(cli, ["fit", str(hist), "--out", str(tmp_path / "fit.json")])
    assert result.exit_code == 3, result.output
    assert str(hist) in result.output


def test_fit_non_utf8_histogram_names_file(runner, tmp_path):
    hist = tmp_path / "h.csv"
    hist.write_bytes(b"\xff\xfebin_left_s,count\n0,1\n1e-9,2\n")
    result = runner.invoke(cli, ["fit", str(hist), "--out", str(tmp_path / "fit.json")])
    assert result.exit_code == 3, result.output
    assert f"error: {hist}: 'utf-8' codec can't decode" in result.output


_V2_HEADER = "# spadrate interval histogram v2\n# bin_width=1e-09\n# origin=0.0\n"


@pytest.mark.parametrize("content", [
    _V2_HEADER + "# n_bins=5\n# overflow=0\nbin_index,count\n1,3\n1,2\n",
    _V2_HEADER + "# n_bins=5\n# overflow=0\nbin_index,count\n3,3\n5,2\n",
    _V2_HEADER + "# n_bins=5\n# overflow=0\nbin_index,count\n-1,3\n2,2\n",
    _V2_HEADER + "# n_bins=5\n# overflow=0\nbin_index,count\n1.5,3\n2,2\n",
    _V2_HEADER + "# n_bins=1e30\n# overflow=0\nbin_index,count\n1,3\n2,2\n",
    _V2_HEADER + f"# n_bins={10**30}\n# overflow=0\nbin_index,count\n1,3\n2,2\n",
    _V2_HEADER + "# n_bins=5\n# overflow=-1\nbin_index,count\n1,3\n2,2\n",
    _V2_HEADER + "# overflow=0\n# n_bins=5\nbin_index,count\n1,3\n2,2\n",
    _V2_HEADER + "# n_bins=5\n# overflow=0\n",
], ids=["repeated", "past_n_bins", "negative", "float", "float_n_bins", "huge_n_bins",
        "negative_overflow", "key_order", "no_rows_line"])
def test_fit_malformed_v2_histogram_is_data_error(runner, tmp_path, content):
    hist = tmp_path / "h.csv"
    hist.write_text(content)
    result = runner.invoke(cli, ["fit", str(hist), "--out", str(tmp_path / "fit.json")])
    assert result.exit_code == 3, result.output
    assert str(hist) in result.output


@pytest.mark.parametrize("content, message", [
    ("bin_left_s,count\n", "histogram is empty"),
    ("bin_left_s,count\n0,5\n", "cannot infer bin width from a single bin"),
    ("bin_left_s,count\n0,1\n1e-9,2\n3e-9,3\n", "bins are not uniform"),
], ids=["header_only", "one_row", "non_uniform"])
def test_fit_degenerate_v1_histogram_is_data_error(runner, tmp_path, content, message):
    hist = tmp_path / "h.csv"
    hist.write_text(content)
    result = runner.invoke(cli, ["fit", str(hist), "--out", str(tmp_path / "fit.json")])
    assert result.exit_code == 3, result.output
    assert message in result.output


def test_fit_bad_assignment_is_usage_error(runner, tmp_path):
    hist = tmp_path / "h.csv"
    hist.write_text("bin_left_s,count\n0,1\n1e-9,2\n")
    result = runner.invoke(cli, ["fit", str(hist), "--fix", "tau_d"])
    assert result.exit_code == 2


def test_fit_non_finite_assignment_is_usage_error(runner, tmp_path):
    hist = tmp_path / "h.csv"
    hist.write_text("bin_left_s,count\n0,1\n1e-9,2\n")
    result = runner.invoke(cli, ["fit", str(hist), "--fix", "tau_d=nan"])
    assert result.exit_code == 2


@pytest.mark.parametrize("args", [
    ["--fix", "foo=1"],
    ["--init", "tau_r=-1"],
    ["--fix", "tau_r=0"],
    ["--fix", "r_star=1e8", "--fix", "tau_d=0", "--fix", "tau_r=1e-7", "--fix", "scale=1"],
], ids="_".join)
def test_fit_argument_error_is_usage_error(runner, tmp_path, args):
    hist = tmp_path / "h.csv"
    hist.write_text("bin_left_s,count\n0,1\n1e-9,2\n")
    result = runner.invoke(cli, ["fit", str(hist), *args, "--out", str(tmp_path / "fit.json")])
    assert result.exit_code == 2, result.output


def test_fit_single_bin_histogram_is_fit_error(runner, tmp_path):
    hist = tmp_path / "h.csv"
    hist.write_text("bin_left_s,count\n0,0\n1e-9,5\n")
    result = runner.invoke(cli, ["fit", str(hist), "--out", str(tmp_path / "fit.json")])
    assert result.exit_code == 3, result.output


def test_simulate_manifest_records_sampler(runner, tmp_path):
    out = tmp_path / "ts.bin"
    result = runner.invoke(cli, _simulate_args(out, events=10, extra=["--format", "bin"]))
    assert result.exit_code == 0, result.output
    manifest = json.loads((tmp_path / "ts.manifest.json").read_text())
    assert manifest["sampler"] == "inverse-hazard"


@pytest.mark.parametrize("args", [
    ["--eta0", "0.2", "--ri", "5e9", "--tau-p1", "100e-9", "--tau-p2", "27e-9"],
    ["--ri", "0"],
], ids=["blinded", "zero_rate"])
def test_simulate_unreachable_event_count_is_usage_error(runner, tmp_path, args):
    # blinded: H(tau_p1) = 33.75, about 4.5e14 paralyzations per detection
    start = time.perf_counter()
    result = runner.invoke(cli, ["simulate", *args, "--events", "10",
                                 "--out", str(tmp_path / "x.csv")])
    assert result.exit_code == 2, result.output
    assert time.perf_counter() - start < 1.0


def test_simulate_event_count_beyond_array_limit_is_usage_error(runner, tmp_path, monkeypatch):
    def never(config):
        raise AssertionError("simulate must not start")

    monkeypatch.setattr(simulate, "_stamp_blocks", never)
    result = runner.invoke(cli, _simulate_args(tmp_path / "x.csv", events="1e19"))
    assert result.exit_code == 2, result.output
    assert "--events" in result.output
    assert str(np.iinfo(np.intp).max // 8) in result.output
    assert not (tmp_path / "x.csv").exists()


def test_hist_reversed_range_is_usage_error(runner, tmp_path):
    ts = tmp_path / "ts.csv"
    assert runner.invoke(cli, _simulate_args(ts, events=100)).exit_code == 0
    result = runner.invoke(cli, ["hist", str(ts), "--range", "1", "0",
                                 "--out", str(tmp_path / "h.csv")])
    assert result.exit_code == 2, result.output


@pytest.mark.parametrize("name", ["empty.csv", "empty.bin"])
def test_hist_without_timestamps_is_data_error(runner, tmp_path, name):
    ts = tmp_path / name
    if name.endswith(".bin"):
        io.write_timestamps_binary(ts, simulate.TimestampSeries(times=np.empty(0)))
    else:
        ts.write_text("")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = runner.invoke(cli, ["hist", str(ts), "--out", str(tmp_path / "h.csv")])
    assert result.exit_code == 3, result.output
    assert f"no timestamps in {ts}" in result.output


@pytest.mark.parametrize("name, content, row", [
    ("text.csv", b"1e-4\nabc\n", None),
    ("down.csv", b"3e-4\n1e-4\n2e-4\n", 2),
    ("down.bin", b"SPTS" + struct.pack("<IQ", 1, 3) + np.array([3e-4, 1e-4, 2e-4]).tobytes(), 2),
    ("nan.csv", b"1e-4\nnan\n3e-4\n4e-4\n", 2),
    ("inf.csv", b"1e-4\n2e-4\ninf\n", 3),
    ("nan.bin", b"SPTS" + struct.pack("<IQ", 1, 3) + np.array([1e-4, np.nan, 3e-4]).tobytes(), 2),
    ("overflow.csv", b"-1.5e308\n1.5e308\n", 2),
], ids=["text", "decreasing_csv", "decreasing_bin", "nan_csv", "inf_csv", "nan_bin",
        "interval_overflow_csv"])
def test_hist_untrusted_timestamps_is_data_error(runner, tmp_path, name, content, row):
    ts = tmp_path / name
    ts.write_bytes(content)
    result = runner.invoke(cli, ["hist", str(ts), "--out", str(tmp_path / "h.csv")])
    assert result.exit_code == 3, result.output
    assert str(ts) in result.output
    if row is not None:
        assert f"row {row}" in result.output
    assert not (tmp_path / "h.csv").exists()


@pytest.mark.parametrize("extra", [[], ["--range", "0", "1e-3"]], ids=["unbounded", "range"])
def test_hist_more_bins_than_one_array_is_usage_error(runner, tmp_path, monkeypatch, extra):
    def never(*args, **kwargs):
        raise AssertionError("no bin array may be allocated")

    ts = tmp_path / "ts.csv"
    ts.write_bytes(b"1e-4\n2e-4\n3e-4\n")
    monkeypatch.setattr(np, "bincount", never)
    result = runner.invoke(cli, ["hist", str(ts), "--bin-width", "1e-25", *extra,
                                 "--out", str(tmp_path / "h.csv")])
    assert result.exit_code == 2, result.output
    assert "bin_width" in result.output
    assert not (tmp_path / "h.csv").exists()


def test_hist_bin_index_past_float_range_is_usage_error(runner, tmp_path):
    # 1e10 / 1e-300 is past the float range: no warning, only the bin-count limit
    ts = tmp_path / "ts.csv"
    ts.write_bytes(b"0\n1e10\n2e10\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = runner.invoke(cli, ["hist", str(ts), "--bin-width", "1e-300",
                                     "--out", str(tmp_path / "h.csv")])
    assert result.exit_code == 2, result.output
    assert "bin_width" in result.output
    assert not (tmp_path / "h.csv").exists()


def test_one_bin_histogram_file_round_trips_and_fit_is_data_error(runner, tmp_path):
    hist = inference.IntervalHistogram(bin_width=0.1 + 0.2, counts=[0, 0, 7, 0],
                                       origin=80e-6 / 3, overflow=5)
    path = tmp_path / "h.csv"
    io.write_histogram(path, hist)
    back = io.read_histogram(path)
    assert (back.bin_width, back.origin, back.n_bins, back.overflow) == (
        hist.bin_width, hist.origin, 4, 5)
    np.testing.assert_array_equal(back.counts, [0, 0, 7, 0])
    result = runner.invoke(cli, ["fit", str(path), "--out", str(tmp_path / "fit.json")])
    assert result.exit_code == 3, result.output
    assert "error: all counts fall in a single bin; model is unidentifiable" in result.output


@pytest.mark.parametrize("extra, digest", [
    (["--ri", "5.23e8"], "f2a0532495ec249208efffb217d8db0824a1cfe189f85b911f9126384886ffb3"),
    # the first block holds stamps below 1e-6 and goes through the f-string
    (["--ri", "5e9", "--tau-d", "1e-6", "--tau-p1", "15e-9", "--tau-p2", "27e-9"],
     "7ab7e22e5ce737093ef3e9e6965d80c960e1d90f11c2576bac758e32d4e17ec5"),
], ids=["readme", "fallback_block"])
def test_simulate_csv_golden_bytes(runner, tmp_path, extra, digest):
    ts = tmp_path / "ts.csv"
    result = runner.invoke(cli, ["simulate", *extra, "--events", "20000", "--seed", "0",
                                 "--out", str(ts)])
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(ts.read_bytes()).hexdigest() == digest


def test_simulate_heavy_paralysis_golden_bytes(runner, tmp_path):
    # the top blinding rung, r_star ~ 6e9 /s: ~311 paralysed segments per
    # detection, ~38 sampler blocks, detections straddling block edges
    ts = tmp_path / "ts.bin"
    result = runner.invoke(cli, ["simulate", "--ri", "3.1386e10", "--tau-d", "1e-6",
                                 "--tau-p1", "15e-9", "--tau-p2", "27e-9", "--events", "2000",
                                 "--seed", "0", "--format", "bin", "--out", str(ts)])
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(ts.read_bytes()).hexdigest() == (
        "8ec86b03bc8b9fe4496e2273cb1725ea3e35c7228c8b14e23b4ba9d92c38ea5b")


def test_simulate_fractional_event_count_is_usage_error(runner, tmp_path):
    result = runner.invoke(cli, _simulate_args(tmp_path / "x.csv", events="2.7"))
    assert result.exit_code == 2, result.output
    assert "--events" in result.output
    assert not (tmp_path / "x.csv").exists()


def test_simulate_out_of_memory_is_data_error(runner, tmp_path, monkeypatch):
    def exhausted(config):
        raise MemoryError("Unable to allocate 6.94 EiB for an array")

    monkeypatch.setattr(simulate, "_stamp_blocks", exhausted)
    result = runner.invoke(cli, _simulate_args(tmp_path / "x.csv", events="1e18"))
    assert result.exit_code == 3, result.output
    assert "error: out of memory: Unable to allocate 6.94 EiB" in result.output
    assert not (tmp_path / "x.csv").exists()


def test_import_loads_no_quadrature_or_optimiser():
    code = (f"import sys; sys.path.insert(0, {SRC!r}); import spadrate.cli; "
            "print([m for m in ('scipy.integrate', 'scipy.optimize') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_import_infer_and_tabulate_load_no_special_functions(tmp_path):
    # the mean on-time, the Gauss-Legendre rule and the paralyzing window end
    # (reached past ~5e10 /s) are computed without scipy.special
    steps = [[], ["infer", "--rate", "12.4e3", "--model", "er", "--out", str(tmp_path / "i.json")],
             ["tabulate", "--from", "3e7", "--to", "3e11", "--points", "12", "--tau-p1", "15e-9",
              "--tau-p2", "27e-9", "--out", str(tmp_path / "t.csv")]]
    code = (f"import sys; sys.path.insert(0, {SRC!r}); from spadrate.cli import cli\n"
            f"for args in {steps!r}:\n"
            "    if args: cli(args, standalone_mode=False)\n"
            "    print('special loaded:', 'scipy.special' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    loaded = [line for line in out.stdout.splitlines() if line.startswith("special loaded:")]
    assert loaded == ["special loaded: False"] * 3
    assert (tmp_path / "t.csv").exists()


def test_infer_er_loads_no_quadrature_or_optimiser(tmp_path):
    # the ER rate inverse has its own solver: a CLI inversion needs neither module
    code = (f"import sys; sys.path.insert(0, {SRC!r}); from spadrate.cli import cli; "
            f"cli(['infer', '--rate', '12.4e3', '--model', 'er', '--out', "
            f"{str(tmp_path / 'infer.json')!r}], standalone_mode=False); "
            "print([m for m in ('scipy.integrate', 'scipy.optimize') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip().splitlines()[-1] == "[]"
    assert json.loads((tmp_path / "infer.json").read_text())["total_apriori_hz"] > 12.4e3


def test_table_file_formats(runner, tmp_path):
    # histogram file v2: a header of exact repr values, then "%d,%d" rows
    # of the populated bins; every line ends in "\r\n"
    hist = helpers.multinomial_interval_hist(1e8, helpers.PAPER, 20_000, seed=1)
    populated = np.flatnonzero(hist.counts)
    path = tmp_path / "h.csv"
    io.write_histogram(path, hist)
    header = ("# spadrate interval histogram v2\r\n# bin_width=1e-09\r\n# origin=0.0\r\n"
              f"# n_bins={hist.counts.size}\r\n# overflow=0\r\nbin_index,count\r\n")
    rows = "".join("%d,%d\r\n" % (j, hist.counts[j]) for j in populated)
    assert path.read_bytes() == (header + rows).encode()
    back = io.read_histogram(path)
    np.testing.assert_array_equal(back.counts, hist.counts)
    assert (back.origin, back.bin_width) == (hist.origin, hist.bin_width)
    shifted = inference.IntervalHistogram(bin_width=2.0**-30, counts=[1, 0, 2], origin=80e-6)
    io.write_histogram(tmp_path / "s.csv", shifted)
    assert (tmp_path / "s.csv").read_bytes() == (
        b"# spadrate interval histogram v2\r\n# bin_width=9.313225746154785e-10\r\n"
        b"# origin=8e-05\r\n# n_bins=3\r\n# overflow=0\r\nbin_index,count\r\n0,1\r\n2,2\r\n")
    back = io.read_histogram(tmp_path / "s.csv")
    assert (back.origin, back.bin_width) == (shifted.origin, shifted.bin_width)
    np.testing.assert_array_equal(back.counts, shifted.counts)
    # a dense v1 file, "%.17g,%d" rows of every bin's left edge, is still read
    v1 = tmp_path / "v1.csv"
    v1.write_bytes(("bin_left_s,count\r\n" + "".join(
        "%.17g,%d\r\n" % row for row in zip(hist.bin_edges[:-1], hist.counts))).encode())
    back = io.read_histogram(v1)
    np.testing.assert_array_equal(back.counts, hist.counts)
    assert (back.origin, back.bin_width) == (hist.origin, hist.bin_width)

    # the curve holds the populated bins only, with the dense model's values
    out = tmp_path / "fit.json"
    result = runner.invoke(cli, ["fit", str(path), "--fix", "tau_d=80.09205e-6",
                                 "--out", str(out)])
    assert result.exit_code == 0, result.output
    p = json.loads(out.read_text())["params"]
    mu = inference.expected_counts(hist, p["r_star"], p["tau_d"], p["tau_r"], p["scale"])
    rows = "".join("%.17g,%d,%.10g\r\n" % (hist.bin_centers[j], hist.counts[j], mu[j])
                   for j in populated)
    expected = "bin_center_s,count,expected_count\r\n" + rows
    assert (tmp_path / "fit_curve.csv").read_bytes() == expected.encode()


def test_fit_dead_time_above_populated_bins_is_fit_error(runner, tmp_path):
    hist = tmp_path / "h.csv"
    io.write_histogram(hist, helpers.multinomial_interval_hist(1e8, helpers.PAPER, 20_000, seed=1))
    result = runner.invoke(
        cli, ["fit", str(hist), "--fix", "tau_d=90e-6", "--out", str(tmp_path / "fit.json")]
    )
    assert result.exit_code == 3
    assert "zero expected count" in result.output


def test_infer_command(runner, tmp_path):
    out = tmp_path / "infer.json"
    result = runner.invoke(
        cli, ["infer", "--rate", "9e3", "--model", "er", "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    report = json.loads(out.read_text())
    assert report["model"] == "er"
    assert report["total_apriori_hz"] > 9e3
    assert "a priori" in result.output


def test_infer_clips_photon_rate_below_dark_rate(runner, tmp_path):
    out = tmp_path / "infer.json"
    result = runner.invoke(cli, ["infer", "--rate", "1e3", "--dark", "1e6", "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert "warning: photon rate clipped at zero" in result.output
    report = json.loads(out.read_text())
    assert report["clipped"] is True
    assert report["photon_apriori_hz"] == 0.0


def test_infer_saturation_exit_code(runner, tmp_path):
    result = runner.invoke(
        cli, ["infer", "--rate", "1e9", "--out", str(tmp_path / "x.json")]
    )
    assert result.exit_code == 3


@pytest.mark.parametrize("args", [
    ["infer", "--rate", "1e3", "--dark", "nan"],
    ["infer", "--rate", "1e3", "--dark", "inf"],
    ["infer", "--rate", "1e3", "--dark", "-5"],
    ["infer", "--rate", "nan"],
    ["infer", "--rate", "-1e3"],
    ["tabulate", "--from", "1e3", "--to", "inf"],
    ["tabulate", "--from", "nan", "--to", "1e6"],
    ["fit", "h.csv", "--ri", "5.23e8", "--dark", "nan"],
    ["fit", "h.csv", "--ri", "nan"],
    ["fit", "h.csv", "--ri", "-1"],
    ["hist", "ts.csv", "--bin-width", "nan"],
    ["hist", "ts.csv", "--bin-width", "inf"],
    ["hist", "ts.csv", "--range", "0", "nan"],
    ["tabulate", "--from", "1e7", "--to", "1e6"],
    ["tabulate", "--from", "1e6", "--to", "1e7", "--points", "0"],
    ["simulate", "--events", "10"],
], ids="_".join)
def test_non_finite_or_out_of_domain_flag_is_usage_error(runner, tmp_path, args):
    result = runner.invoke(cli, [*args, "--out", str(tmp_path / "x.out")])
    assert result.exit_code == 2, result.output


def test_invalid_detector_parameters_are_usage_errors(runner, tmp_path):
    result = runner.invoke(
        cli, ["infer", "--eta0", "2.0", "--rate", "1e3", "--out", str(tmp_path / "x.json")]
    )
    assert result.exit_code == 2


def test_config_with_unknown_keys_is_usage_error(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"bogus_flag": 1}')
    result = runner.invoke(
        cli, ["simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]
    )
    assert result.exit_code == 2


@pytest.mark.parametrize("content", [None, "{not json"], ids=["missing", "malformed"])
def test_unreadable_config_is_usage_error(runner, tmp_path, content):
    cfg = tmp_path / "cfg.json"
    if content is not None:
        cfg.write_text(content)
    result = runner.invoke(
        cli, ["simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]
    )
    assert result.exit_code == 2, result.output
    assert f"cannot read config {cfg}" in result.output


@pytest.mark.parametrize("content", ["[]", "5", '"abc"', "null"])
def test_config_that_is_not_an_object_is_usage_error(runner, tmp_path, content):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(content)
    result = runner.invoke(
        cli, ["simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]
    )
    assert result.exit_code == 2, result.output
    assert f"config {cfg} must hold a JSON object" in result.output


@pytest.mark.parametrize(
    "override, exit_code",
    [
        ({"seed": 1.5}, 2),
        ({"fmt": "xml"}, 2),
        ({"tau_r": None}, 2),
        ({"ri": "5e8"}, 0),
        ({"events": "100"}, 0),
        ({"duration": None}, 0),
    ],
)
def test_config_values_go_through_option_types(runner, tmp_path, override, exit_code):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"ri": 5.23e8, "events": 200, "seed": 3, **override}))
    out = tmp_path / "x.csv"
    result = runner.invoke(cli, ["simulate", "--config", str(cfg), "--out", str(out)])
    assert result.exit_code == exit_code, result.output
    if exit_code == 0:
        expected = int(float(override.get("events", 200)))
        assert np.loadtxt(out).size == expected


@pytest.mark.parametrize("flag_first", [False, True])
def test_explicit_flag_beats_config_value(runner, tmp_path, flag_first):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"ri": 5.23e8, "events": 200, "seed": 3}))
    overlay, plain, seed3 = tmp_path / "overlay.csv", tmp_path / "plain.csv", tmp_path / "seed3.csv"
    flags = [["--seed", "4"], ["--config", str(cfg)]]
    args = [token for flag in (flags if flag_first else flags[::-1]) for token in flag]
    result = runner.invoke(cli, ["simulate", *args, "--out", str(overlay)])
    assert result.exit_code == 0, result.output
    for seed, out in (("4", plain), ("3", seed3)):
        result = runner.invoke(cli, ["simulate", "--ri", "5.23e8", "--events", "200",
                                     "--seed", seed, "--out", str(out)])
        assert result.exit_code == 0, result.output
    assert overlay.read_bytes() == plain.read_bytes() != seed3.read_bytes()
    assert json.loads((tmp_path / "overlay.manifest.json").read_text())["seed"] == 4


def test_manifest_config_lists_parameters_in_declaration_order(runner, tmp_path):
    ts, hist, fit = tmp_path / "ts.csv", tmp_path / "h.csv", tmp_path / "fit.json"
    # each command: its flags (one group each) and the config keys its manifest must list
    commands = [
        ("simulate", ts, [["--events", "20000"], ["--ri", "5.23e8"], ["--seed", "7"],
                          ["--tau-p2", "27e-9"], ["--eta0", "0.19117"], ["--out", str(ts)]],
         ["eta0", "tau_d", "tau_r", "ri", "dark", "tau_p1", "tau_p2", "events", "duration",
          "seed", "fmt"]),
        ("hist", hist, [["--range", "80e-6", "84e-6"], [str(ts)], ["--bin-width", "1e-9"],
                        ["--out", str(hist)]],
         ["timestamps", "bin_width", "bounds"]),
        ("fit", fit, [["--ri", "5.23e8"], ["--fix", "tau_d=80.09205e-6"], [str(hist)],
                      ["--init", "tau_r=1e-7"], ["--dark", "100"], ["--out", str(fit)]],
         ["histogram", "fix", "init", "ri", "dark"]),
        ("infer", tmp_path / "infer.json", [["--rate", "12.4e3"], ["--dark", "858"],
                                            ["--model", "low"], ["--tau-r", "1e-7"],
                                            ["--out", str(tmp_path / "infer.json")]],
         ["eta0", "tau_d", "tau_r", "rate", "model", "dark"]),
        ("tabulate", tmp_path / "sweep.csv", [["--to", "1e9"], ["--points", "3"],
                                              ["--from", "1e6"], ["--tau-p1", "15e-9"],
                                              ["--out", str(tmp_path / "sweep.csv")]],
         ["eta0", "tau_d", "tau_r", "sweep_from", "sweep_to", "points", "model", "tau_p1",
          "tau_p2"]),
    ]
    for command, primary, flags, keys in commands:
        manifest = primary.with_suffix(".manifest.json")
        written = []
        for order in (flags, flags[::-1]):
            result = runner.invoke(cli, [command, *[token for flag in order for token in flag]])
            assert result.exit_code == 0, (command, result.output)
            written.append(manifest.read_bytes())
        assert written[0] == written[1], command
        record = json.loads(written[0])
        assert record["command"] == command
        assert list(record["config"]) == keys, command
        assert record["seed"] == (7 if command == "simulate" else None)
    assert json.loads(written[0])["config"]["sweep_from"] == 1e6


def test_infer_simple_vs_er_gap(runner, tmp_path):
    out_simple = tmp_path / "s.json"
    out_er = tmp_path / "e.json"
    for model, out in (("simple", out_simple), ("er", out_er)):
        assert runner.invoke(
            cli, ["infer", "--rate", "12.4e3", "--model", model, "--out", str(out)]
        ).exit_code == 0
    simple = json.loads(out_simple.read_text())["total_apriori_hz"]
    er_val = json.loads(out_er.read_text())["total_apriori_hz"]
    assert er_val > simple


def _read_sweep(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["r_star_hz", "mean_on_time_s", "rate_hz"]
    return np.array([[float(x) for x in row] for row in rows[1:]])


def test_tabulate_single_point(runner, tmp_path):
    out = tmp_path / "one.csv"
    result = runner.invoke(
        cli, ["tabulate", "--from", "1e6", "--to", "1e6", "--points", "1",
              "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    assert _read_sweep(out).shape == (1, 3)


@pytest.mark.parametrize("model", ["simple", "er", "low", "high"])
def test_tabulate_then_infer_round_trips(runner, tmp_path, model):
    sweep, report = tmp_path / "sweep.csv", tmp_path / "infer.json"
    result = runner.invoke(cli, ["tabulate", "--from", "1e8", "--to", "1e8", "--points", "1",
                                 "--model", model, "--out", str(sweep)])
    assert result.exit_code == 0, result.output
    rate = sweep.read_text().splitlines()[1].split(",")[2]
    result = runner.invoke(cli, ["infer", "--rate", rate, "--model", model,
                                 "--out", str(report)])
    assert result.exit_code == 0, result.output
    assert json.loads(report.read_text())["total_apriori_hz"] == pytest.approx(1e8, rel=1e-7)


def test_tabulate_slope_transition(runner, tmp_path):
    out = tmp_path / "sweep.csv"
    result = runner.invoke(
        cli,
        ["tabulate", "--from", "8.889e3", "--to", "8.889e9", "--points", "25",
         "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    data = _read_sweep(out)
    logs = np.log(data[:, :2])
    slopes = np.diff(logs[:, 1]) / np.diff(logs[:, 0])
    assert slopes[0] == pytest.approx(-1.0, abs=0.05)
    assert slopes[-1] == pytest.approx(-0.5, abs=0.05)


def test_tabulate_paralyzing_rollover(runner, tmp_path):
    out = tmp_path / "par.csv"
    result = runner.invoke(
        cli,
        ["tabulate", "--from", "3e7", "--to", "3e10", "--points", "19",
         "--tau-p1", "15e-9", "--tau-p2", "27e-9", "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    rates = _read_sweep(out)[:, 2]
    imax = int(np.argmax(rates))
    assert 0 < imax < rates.size - 1
    assert rates[-1] < rates[imax]


def test_tabulate_window_past_float_range_over_tau_r(runner, tmp_path):
    # tau_p1 / tau_r = 2e308 passes the float range, yet H(tau_p1) = r_star tau_p1 = 4.5:
    # the detector is not fully paralysed, and the mean is (e^4.5 - 4.5) / r_star
    mpmath = pytest.importorskip("mpmath")
    out = tmp_path / "far.csv"
    result = runner.invoke(cli, ["tabulate", "--from", "2.25e-298", "--to", "2.25e-298",
                                 "--points", "1", "--tau-r", "1e-10", "--tau-d", "0",
                                 "--tau-p1", "2e298", "--tau-p2", "0", "--out", str(out)])
    assert result.exit_code == 0, result.output
    with mpmath.workdps(40):
        want = float((mpmath.e ** 4.5 - 4.5) / mpmath.mpf(2.25e-298))
    assert _read_sweep(out)[0, 1] == pytest.approx(want, rel=1e-11)


@pytest.mark.parametrize("args", [
    ["tabulate", "--from", "1e300", "--to", "1.7e308", "--points", "3", "--tau-r", "1e10"],
    ["tabulate", "--from", "1e-300", "--to", "1e-299", "--points", "2", "--tau-r", "1e-10"],
    ["infer", "--rate", "1e-310"],
    ["simulate", "--ri", "1e300", "--tau-r", "1e10", "--events", "5"],
    ["tabulate", "--from", "2e-309", "--to", "3e-309", "--points", "2", "--tau-r", "50"],
], ids=["tabulate_overflow", "tabulate_subnormal", "infer_subnormal", "simulate_overflow",
        "tabulate_mean_overflow"])
def test_rate_product_outside_normal_range_is_usage_error(runner, tmp_path, args):
    # the closed-form mean on-time is NaN there, and the sampler's hazard scale too
    out = tmp_path / "out"
    result = runner.invoke(cli, [*args, "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert "r_star*tau_r" in result.output
    assert not out.exists()


@pytest.mark.parametrize("stop", [["--events", "10"], ["--duration", "1"]],
                         ids=["events", "duration"])
def test_simulate_rate_product_too_small_to_sample_is_usage_error(runner, tmp_path, stop):
    # r_star*tau_r ~ 2.9e-308 is a normal double the sampler cannot divide a draw by
    out = tmp_path / "ts.bin"
    result = runner.invoke(cli, ["simulate", "--ri", "1e-300", "--tau-r", "1.5e-7", *stop,
                                 "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert "r_star*tau_r = 2.86755e-308 is too small to sample" in result.output
    assert "Traceback" not in result.output
    assert not out.exists()


@pytest.mark.parametrize("args", [["--ri", "1e-307", "--tau-r", "100", "--events", "100"],
                                  ["--ri", "1e-305", "--tau-r", "1", "--events", "1000"]],
                         ids=["on_time", "running_sum"])
def test_simulate_stamps_past_the_float_range_are_usage_error(runner, tmp_path, args):
    # an on-time (first case) or the running sum (second) overflows a float
    out = tmp_path / "ts.csv"
    result = runner.invoke(cli, ["simulate", *args, "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert "pass the float range of timestamps" in result.output
    assert "Traceback" not in result.output
    assert not out.exists()


def test_simulate_duration_near_the_float_maximum_writes_its_stamps(runner, tmp_path):
    # 1.2 * duration is inf, so the first chunk size divides by the mean first
    out = tmp_path / "ts.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = runner.invoke(cli, ["simulate", "--ri", "1e-305", "--tau-r", "1",
                                     "--duration", "1.7e308", "--out", str(out)])
    assert result.exit_code == 0, result.output
    times = io.read_timestamps(out)
    assert times.size > 1 and np.all(np.isfinite(times)) and np.all(np.diff(times) > 0)
    assert times[-1] <= 1.7e308


@pytest.mark.parametrize("duration, count", [("1.7e308", "inf"), ("1e300", "1.88e+302")],
                         ids=["count_overflows", "count_past_array_limit"])
def test_simulate_duration_past_the_array_limit_is_usage_error(runner, tmp_path, duration, count):
    # ~190 detections a second: the first chunk's count passes what one array can hold
    out = tmp_path / "ts.bin"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = runner.invoke(cli, ["simulate", "--ri", "1e3", "--duration", duration,
                                     "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert f"expects {count} detections" in result.output
    assert f"the {inference.MAX_ARRAY_LENGTH} one array can hold" in result.output
    assert "Traceback" not in result.output
    assert not out.exists()


@pytest.mark.parametrize("model", ["simple", "high"])
def test_tabulate_at_subnormal_rate_is_usage_error(runner, tmp_path, model):
    # the mean 1/r_star overflows; a row of inf and a measured rate of 0 is no answer
    out = tmp_path / "sweep.csv"
    result = runner.invoke(cli, ["tabulate", "--model", model, "--from", "1e-310", "--to",
                                 "1e-309", "--points", "2", "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert "not finite" in result.output
    assert not out.exists()


def test_infer_low_model_past_square_overflow(runner, tmp_path):
    # eps = 2 tau_r / (1/r - tau_d) = 2e304: its square overflows, eps itself does not
    out = tmp_path / "infer.json"
    result = runner.invoke(cli, ["infer", "--rate", "1e4", "--model", "low", "--tau-d", "0",
                                 "--tau-r", "1e300", "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert json.loads(out.read_text())["total_apriori_hz"] == pytest.approx(2e4, rel=1e-15)
    # eps itself past the float range
    result = runner.invoke(cli, ["infer", "--rate", "1e4", "--model", "low", "--tau-d", "0",
                                 "--tau-r", "1e305", "--out", str(out.with_name("x.json"))])
    assert result.exit_code == 2, result.output
    assert "overflows a float" in result.output
    assert not out.with_name("x.json").exists()


def test_infer_high_model_past_float_range_is_usage_error(runner, tmp_path):
    # s = r_star**-0.5 underflows its square, so the approximate inverse 1 / s**2 is inf
    out = tmp_path / "infer.json"
    result = runner.invoke(cli, ["infer", "--rate", "1e4", "--model", "high", "--tau-d", "0",
                                 "--tau-r", "1e308", "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert "not a finite float" in result.output
    assert not out.exists()


def test_tabulate_paralyzing_rate_product_underflow_is_usage_error(runner, tmp_path):
    # r_star * tau_r = 1e-330 underflows to 0, which the paralyzing window
    # would divide by: it is refused as a usage error, not a traceback
    out = tmp_path / "sweep.csv"
    result = runner.invoke(cli, ["tabulate", "--from", "1e-300", "--to", "1e-299", "--points", "1",
                                 "--tau-r", "1e-30", "--model", "er", "--tau-p1", "1e-8",
                                 "--tau-p2", "1e-9", "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert "r_star*tau_r" in result.output
    assert not out.exists()


def test_tabulate_paralyzing_requires_er_model(runner, tmp_path):
    result = runner.invoke(
        cli,
        ["tabulate", "--from", "1e6", "--to", "1e7", "--model", "simple",
         "--tau-p1", "15e-9", "--out", str(tmp_path / "x.csv")],
    )
    assert result.exit_code == 2


@pytest.mark.parametrize("args, message", [
    (["tabulate", "--model", "er", "--from", "1e6", "--to", "1e12", "--points", "4",
      "--tau-p1", "1e-6"], "full paralysis"),
    (["simulate", "--ri", "5e10", "--events", "10", "--tau-p1", "1e-6"], "expected per detection"),
    (["simulate", "--ri", "5e10", "--duration", "1e-3", "--tau-p1", "1e-6"],
     "expected per detection"),
    # tau_p1 / tau_r, or the window numerator, past the float range
    (["tabulate", "--from", "1", "--to", "1", "--points", "1", "--tau-r", "1e-12",
      "--tau-p1", "1.7e308"], "full paralysis"),
    (["tabulate", "--from", "1.7e308", "--to", "1.7e308", "--points", "1", "--tau-r", "1e-300",
      "--tau-d", "1", "--tau-p1", "1"], "full paralysis"),
    (["tabulate", "--from", "1e-310", "--to", "1e-300", "--points", "1", "--tau-r", "1.7e308",
      "--tau-d", "1", "--tau-p1", "1.7e308"], "overflows a float"),
], ids=["tabulate", "simulate_events", "simulate_duration", "window_over_tau_r_overflows",
        "numerator_underflows", "numerator_overflows"])
def test_full_paralysis_is_usage_error(runner, tmp_path, args, message):
    # H(tau_p1) ~ 9e3 at 1e10 /s and at 5e10 photons/s: e^H overflows a float,
    # which must not surface as an overflow warning
    out = tmp_path / "out.csv"
    result = runner.invoke(cli, [*args, "--tau-p2", "27e-9", "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert message in result.output
    assert not out.exists()


def test_default_output_directory_env(runner, tmp_path, monkeypatch):
    outdir = tmp_path / "results"
    outdir.mkdir()
    monkeypatch.setenv("SPADRATE_OUTDIR", str(outdir))
    result = runner.invoke(
        cli, ["tabulate", "--from", "1e6", "--to", "1e6", "--points", "1"]
    )
    assert result.exit_code == 0, result.output
    assert (outdir / "sweep.csv").exists()
    assert (outdir / "sweep.manifest.json").exists()
