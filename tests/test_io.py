import re

import numpy as np
import pytest

from spadrate import io
from spadrate.exceptions import DegenerateDataError
from spadrate.simulate import TimestampSeries


def test_read_timestamps_picks_the_reader_by_suffix(tmp_path):
    series = TimestampSeries(times=np.array([1e-7, 2.5e-6, 3.0]))
    io.write_timestamps_binary(tmp_path / "ts.bin", series)
    io.write_timestamps_csv(tmp_path / "ts.csv", series)
    for name in ("ts.bin", "ts.csv"):
        np.testing.assert_array_equal(io.read_timestamps(tmp_path / name), series.times)
    # binary bytes under any other suffix go to the CSV reader, which rejects them
    (tmp_path / "ts.dat").write_bytes((tmp_path / "ts.bin").read_bytes())
    with pytest.raises(DegenerateDataError, match=re.escape(str(tmp_path / "ts.dat"))):
        io.read_timestamps(tmp_path / "ts.dat")


def test_read_timestamps_matches_the_bin_suffix_in_any_case(tmp_path):
    series = TimestampSeries(times=np.array([1e-7, 2.5e-6, 3.0]))
    for name in ("ts.BIN", "ts.Bin"):
        io.write_timestamps_binary(tmp_path / name, series)
        np.testing.assert_array_equal(io.read_timestamps(tmp_path / name), series.times)
        np.testing.assert_array_equal(io.read_timestamps(str(tmp_path / name)), series.times)


def _significant_digits(t):
    """Decimal exponent and significant digit count of the ``%.17g`` line of t."""
    mantissa, exponent = f"{t:.16e}".split("e")  # the same 17 digits, rounded alike
    return int(exponent), len(mantissa.replace(".", "").rstrip("0"))


def test_line_kernel_strips_short_lines():
    """Lines of 1-16 significant digits, at every exponent of the kernel, are the f-string's."""
    rng = np.random.default_rng(5)
    values = [float(f"{m}e{e - nd + 1}") for e in range(-6, 17) for nd in range(1, 17)
              for m in rng.integers(10 ** (nd - 1), 10 ** nd, 40).tolist()]
    values += [float(d * 10 ** k) for d in range(1, 10) for k in range(17)]  # 10, 1e15: no dot
    values += np.round(rng.uniform(1e-6, 1e-3, 2000), 7).tolist()
    values += [float(f"{d}e-{n}") for d in range(1, 10) for n in (5, 6)]
    powers = np.array([10.0 ** e for e in range(-5, 17)])  # decades: nextafter(10, 0), ...
    values = np.concatenate([values, powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])
    values = values[values > 1e-6]  # the kernel's range: 1e-6 itself goes to the f-string
    assert values.max() < 1e17

    # every class but the one-digit exponential lines: a line 1e-05 or 3e-06 needs a double
    # within half a unit of the 17th digit of it, and the nearest ones, all in values, miss
    classes = {_significant_digits(t) for t in values.tolist()}
    assert {(e, nd) for e in range(-6, 17) for nd in range(1, 17)} - classes == {(-6, 1), (-5, 1)}

    exponent = np.array([_significant_digits(t)[0] for t in values.tolist()])
    # sorted blocks of one exponent, as timestamp blocks mostly are, then mixed ones
    blocks = [np.sort(values[exponent == e]) for e in range(-6, 17)]
    rng.shuffle(values)
    for block in blocks + np.array_split(values, 16):
        got = io._format_lines(block)
        assert got == "".join(f"{t:.17g}\n" for t in block.tolist()).encode()
        assert b"\0" not in got
