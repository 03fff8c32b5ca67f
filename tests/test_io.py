import math
import re
import struct
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from helpers import sim_config as _config
from spadrate import io, simulate
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


def test_csv_round_trip(paper_params, tmp_path):
    series = simulate.simulate(_config(paper_params, 1e6, n_events=500, seed=19))
    path = tmp_path / "ts.csv"
    io.write_timestamps_csv(path, series)
    back = io.read_timestamps_csv(path)
    np.testing.assert_array_equal(back, series.times)


def _parsed_whole(path):
    """Whether io._parse_csv, not the np.loadtxt fallback, reads every line of path."""
    with open(path, "rb") as fh:
        return all(times is not None for times in io._parse_csv(fh))


def test_csv_reader_parses_short_lines_read_by_read(tmp_path):
    # lines of 2-7 bytes, ~20k to a read
    times = np.arange(1.0, 300_001.0)
    path = tmp_path / "ts.csv"
    io.write_timestamps_csv(path, simulate.TimestampSeries(times))
    with open(path, "rb") as fh:
        reads = list(io._parse_csv(fh))
    assert len(reads) > 1 and all(read is not None for read in reads)
    back = np.concatenate(reads)
    np.testing.assert_array_equal(back.view(np.int64), times.view(np.int64))


def _g17_lines(x):
    return "".join(f"{t:.17g}\n" for t in x.tolist()).encode()


def _halfway_values(rng, per_exponent=2000):
    """Values t with E = floor(log10 t) whose t * 10**(16 - E) ends in exactly 1/2."""
    out = []
    for e in range(-6, 16):
        scale = 2.0 ** (17 - e)  # odd / 2**(17 - e) times 10**(16 - e) is odd * 5**(16 - e) / 2
        lo, hi = 10.0 ** e * scale, min(10.0 ** (e + 1) * scale, 2.0 ** 53)
        out.append((rng.integers(lo // 2, hi // 2, per_exponent) * 2 + 1) / scale)
    return np.concatenate(out)


def test_line_kernel_matches_fstring():
    rng = np.random.default_rng(23)
    powers = np.array([float(f"1e{e}") for e in range(-6, 18)])
    grid = np.array([float(f"{d}e{e - 16}") for d, e in zip(
        rng.integers(10 ** 16, 10 ** 17, 20_000).tolist(), rng.integers(-6, 17, 20_000).tolist())])
    values = np.concatenate([
        powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf),
        grid, np.nextafter(grid, 0), np.nextafter(grid, np.inf),
        _halfway_values(rng),
        10 ** rng.uniform(-6, 17, 100_000),
    ])
    exact = values[(values > 1e-6) & (values < 1e17)]
    assert exact.size > 0.99 * values.size
    assert io._format_lines(exact).split(b"\n") == _g17_lines(exact).split(b"\n")
    # sorted blocks mostly hold one decimal exponent, as timestamp blocks do
    for block in np.array_split(np.sort(exact), 200):
        assert io._format_lines(block) == _g17_lines(block)
    # one value outside (1e-6, 1e17) sends the block through the f-string
    mixed = np.concatenate([[0.0, 5e-7, 1e-6, 1e17, 3e20, -1.5], exact[:1000]])
    assert io._format_lines(mixed) == _g17_lines(mixed)


def _loadtxt(path):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # an empty file
        return np.loadtxt(path, dtype=float, ndmin=1)


def _read_both_ways(path):
    """read_timestamps_csv of path, checked bit for bit against np.loadtxt."""
    back = io.read_timestamps_csv(path)
    assert back.shape == _loadtxt(path).shape
    assert np.array_equal(back.view(np.int64), _loadtxt(path).view(np.int64))
    return back


def _decimal_line(digits, e):
    """%.17g's layout of the decimal digits[0].digits[1:] * 10**e, for -6 <= e <= 16."""
    digits = digits.rstrip("0") or "0"
    if e >= 0:
        whole, fraction = digits[:e + 1].ljust(e + 1, "0"), digits[e + 1:]
        return whole + ("." + fraction if fraction else "")
    if e >= -4:
        return "0." + "0" * (-e - 1) + digits
    return digits[0] + ("." + digits[1:] if digits[1:] else "") + f"e-0{-e}"


def _midpoint_lines(rng, per_exponent):
    """17-digit decimals at and within one unit of midpoints between adjacent doubles."""
    lines = []
    for e in range(-6, 17):
        for x in 10 ** rng.uniform(e, e + 1, per_exponent):
            if not 10.0 ** e <= x < 10.0 ** (e + 1):
                continue
            mid = (Fraction(x) + Fraction(np.nextafter(x, np.inf))) / 2
            closest = round(mid * Fraction(10) ** (16 - e))
            lines += [_decimal_line(str(d), e) for d in (closest - 1, closest, closest + 1)
                      if 10 ** 16 <= d < 10 ** 17]
    # integers that are exact midpoints: odd above 2**53, 2 mod 4 above 2**54, ...
    for j in range(4):
        low, high = 2 ** (53 + j), min(2 ** (54 + j), 10 ** 17)
        step = 2 ** (j + 1)
        lines += [str(d) for d in (rng.integers(low // step, high // step, per_exponent) * step
                                   + step // 2).tolist()]
    # D / 10**k in [2**e, 2**(e+1)) a distance |d| / (2 * 5**k) ulp, down to 2**-52 ulp, from a
    # midpoint: D * 2**n = odd * 10**k + 2**k * d with n = 53 - e, solved modulo 5**k
    for k in range(10, 23):
        for e in range(math.ceil((16 - k) * math.log2(10)), math.floor((17 - k) * math.log2(10))):
            n = 53 - e
            for d in (1, -1, 3, -3, 1000):
                first = -(-10 ** k // 2 ** -e) if e < 0 else 2 ** e * 10 ** k
                first += (d * pow(2 ** (n - k), -1, 5 ** k) - first) % 5 ** k
                odd = [D for D in range(first, first + 2 * 5 ** k, 5 ** k)
                       if (D * 2 ** n - 2 ** k * d) // 10 ** k % 2]
                lines += [_decimal_line(str(D), 16 - k) for D in odd[:1]
                          if 10 ** 16 <= D < 10 ** 17 and D * 2 ** n < 2 ** 54 * 10 ** k]
    return lines


def test_csv_reader_is_exact_on_the_writer_lines(tmp_path):
    rng = np.random.default_rng(29)
    powers = np.array([float(f"1e{e}") for e in range(-5, 17)])
    values = np.concatenate([
        _halfway_values(rng),
        powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf),
        np.sort(10 ** rng.uniform(-6, 17, 200_000)),
    ])
    values = values[(values > 1e-6) & (values < 1e17)]
    path = tmp_path / "ts.csv"
    path.write_bytes(b"".join(io._format_lines(block)
                              for block in np.array_split(values, 100)))
    assert _parsed_whole(path)  # the parser, not the fallback, read it
    assert np.array_equal(_read_both_ways(path).view(np.int64), values.view(np.int64))


def test_csv_reader_rounds_near_midpoints_correctly(tmp_path):
    lines = _midpoint_lines(np.random.default_rng(31), 500)
    path = tmp_path / "mid.csv"
    path.write_text("".join(line + "\n" for line in lines))
    assert _parsed_whole(path)
    expected = np.array([float(line) for line in lines])
    assert np.array_equal(_read_both_ways(path).view(np.int64), expected.view(np.int64))


def _one_layout(lines, cut=""):
    """io._parse_one_layout on one read of lines and the start of a line it cut: None, or
    its values and which are not redone."""
    data = "".join(line + "\n" for line in lines).encode()
    buf = np.frombuffer(data + cut.encode() + b"\n" * io._ROW, dtype=np.uint8)  # the slack
    ends = np.flatnonzero(buf[:len(data)] == ord("\n"))
    length = np.diff(ends, prepend=-1) - 1
    parsed = io._parse_one_layout(buf, ends - length, length)
    if parsed is None:
        return None
    t, redo = parsed
    exact = np.ones(t.size, dtype=bool)
    exact[redo] = False
    return t, exact


def _one_layout_blocks(rng):
    """Sorted blocks of lines with the dot at column c, for c = 1..16."""
    blocks = {}
    for c in range(1, 17):
        lines = []
        for zeros in range(17 - c):  # the trailing zeros a line drops: none to all but one decimal
            head = rng.integers(10 ** 15, 10 ** 16, 200) // 10 ** zeros
            lines += [str(d) for d in (head * 10 + rng.integers(1, 10, 200)).tolist()]
        lines = [d[:c] + "." + d[c:] for d in lines]
        edges = [10.0 ** (c - 1), 10.0 ** c,
                 *(2.0 ** e for e in range(54) if 10 ** (c - 1) <= 2 ** e < 10 ** c)]
        for x in edges:
            lines += [f"{y:.17g}" for y in (np.nextafter(x, 0), x, np.nextafter(x, np.inf))]
        blocks[c] = [line for line in lines if line.find(".") == c and len(line) <= 18]
    for line in _midpoint_lines(rng, 50):
        if 1 <= line.find(".") <= 16 and len(line) <= 18:
            blocks[line.find(".")].append(line)
    return {c: sorted(lines, key=float) for c, lines in blocks.items()}


def test_one_layout_kernel_is_exact_at_every_dot_column():
    for c, lines in _one_layout_blocks(np.random.default_rng(37)).items():
        parsed = _one_layout(lines)
        assert parsed is not None, c  # the kernel took the block
        t, exact = parsed
        expected = np.array([float(line) for line in lines])
        assert np.array_equal(t[exact].view(np.int64), expected[exact].view(np.int64)), c


@pytest.mark.parametrize("line", ["12.34.5678", "+1.5", "-1.5", "12.3456789012345678", "12",
                                  "1234", "1.5", "123.5", "12.5e-05"],
                         ids=["second_dot", "plus", "minus", "19_bytes", "no_dot", "no_dot_long",
                              "dot_before", "dot_after", "exponent"])
def test_one_layout_kernel_declines_a_line_off_the_layout(tmp_path, line):
    lines = [f"{x:.17g}" for x in np.sort(np.random.default_rng(41).uniform(10, 100, 1001))]
    lines[500] = line
    assert _one_layout(lines[:500] + lines[501:]) is not None
    assert _one_layout(lines) is None
    path = tmp_path / "ts.csv"
    path.write_text("".join(x + "\n" for x in lines))
    if line.count(".") > 1:
        with pytest.raises(DegenerateDataError):
            io.read_timestamps_csv(path)
    else:
        _read_both_ways(path)


def test_one_layout_kernel_declines_a_line_shorter_than_its_dot_column():
    # the byte at column 2 of the last line, "1", is a dot, but of the line the read cut
    assert _one_layout(["12.25"] * 6 + ["1"], cut=".5") is None


def _new_layout_blocks(rng):
    """Sorted blocks of the layouts other than a dot within 18 bytes: "0." and z zeros in lines
    of up to 19 + z bytes, dotless lines of each length and d.ddd lines ending in e-05 or e-06."""
    blocks = {}
    for z in range(4):
        x = 10 ** rng.uniform(-z - 1, -z, 2000)
        blocks[f"zeros_{z}"] = [f"{t:.17g}" for t in x.tolist()]
    for n in range(1, 18):
        digits = rng.integers(10 ** (n - 1), 10 ** n, 500)
        blocks[f"dotless_{n}"] = [str(d) for d in digits.tolist()]
    for power in (5, 6):
        x = 10 ** rng.uniform(-power, 1 - power, 2000)
        blocks[f"exponent_{power}"] = [f"{t:.17g}" for t in x.tolist()]
    layout = {f"zeros_{z}": re.compile(r"0\.0{%d}[1-9]\d*" % z) for z in range(4)}
    layout.update({f"dotless_{n}": re.compile(r"[1-9]\d{%d}" % (n - 1)) for n in range(1, 18)})
    layout.update({f"exponent_{p}": re.compile(r"\d\.\d+e-0%d" % p) for p in (5, 6)})
    for line in _midpoint_lines(rng, 50):
        for name, pattern in layout.items():
            if pattern.fullmatch(line):
                blocks[name].append(line)
    return {name: sorted(lines, key=float) for name, lines in blocks.items()}


def test_one_layout_kernel_takes_each_new_layout():
    blocks = _new_layout_blocks(np.random.default_rng(43))
    for z in range(4):  # lines of 19 + z bytes, 17 digits after the skipped zeros
        assert {len(line) for line in blocks[f"zeros_{z}"]} >= {19 + z}
    for name, lines in blocks.items():
        parsed = _one_layout(lines)
        assert parsed is not None, name  # the kernel took the block
        t, exact = parsed
        expected = np.array([float(line) for line in lines])
        assert np.array_equal(t[exact].view(np.int64), expected[exact].view(np.int64)), name


@pytest.mark.parametrize("name, line", [
    ("zeros_1", "0.12345678901234567"),
    ("zeros_1", "0.0012345678901234567"),
    ("zeros_1", "1.2345678901234567"),
    ("dotless_12", "12345678901"),
    ("dotless_12", "1234567890123"),
    ("dotless_12", "123456789012.5"),
    ("exponent_5", "1.2345678901234567"),
    ("exponent_5", "1.2345678901234567e-06"),
    ("exponent_5", "12345678901234567e-05"),
], ids=["other_zeros", "more_zeros", "no_prefix", "shorter", "longer", "dot", "no_suffix",
        "other_suffix", "no_dot"])
def test_one_layout_kernel_declines_a_line_off_a_new_layout(tmp_path, name, line):
    lines = _new_layout_blocks(np.random.default_rng(47))[name]
    lines[len(lines) // 2] = line
    assert _one_layout(lines) is None
    # the read splits by layout, and each part is the kernel's
    path = tmp_path / "ts.csv"
    path.write_text("".join(x + "\n" for x in lines))
    assert _parsed_whole(path)
    _read_both_ways(path)


def test_one_layout_kernel_declines_18_digit_dotless_lines():
    lines = [str(d) for d in range(10 ** 17, 10 ** 17 + 50)]
    assert _one_layout(lines[:1]) is None
    assert _one_layout(lines) is None


def _decimal(line):
    """The 17 significant digits M of a line and k with M / 10**k its value, exactly."""
    _, digits, exponent = Decimal(line).as_tuple()
    m = int("".join(map(str, digits)))
    pad = 17 - len(str(m))
    return m * 10 ** pad, pad - exponent


def test_divide_flags_every_line_near_a_midpoint():
    """The lines within 2**-41 ulp of a midpoint between doubles, where the Dekker quotient
    may round the wrong way, are returned for float; every other value is exact."""
    lines = _midpoint_lines(np.random.default_rng(31), 500)
    by_k = {}
    for line in lines:
        m, k = _decimal(line)
        by_k.setdefault(k, []).append((m, line))
    near = 0
    for k, group in by_k.items():
        t, redo = io._divide(np.array([m for m, _ in group], dtype=np.int64), io._POW10[k])
        flagged = np.zeros(t.size, dtype=bool)
        flagged[redo] = True
        for j, (m, line) in enumerate(group):
            x = float(line)
            halves = [(Fraction(x) + Fraction(math.nextafter(x, y))) / 2 for y in (0, math.inf)]
            distance = min(abs(Fraction(m, 10 ** k) - h) for h in halves) / Fraction(math.ulp(x))
            if distance < Fraction(1, 2 ** 41):
                near += 1
                assert flagged[j], line
            elif not flagged[j]:
                assert t[j] == x, line
    assert near > 1000


@pytest.mark.parametrize("content", [
    b"1.5\nnan\n2.5\n",
    b"1.5\ninf\n-inf\n",
    b"1.5\r\n2.5\r\n",
    b"1.5\n2.5",
    b"# header\n1.5\n2.5 # note\n",
    b"1.5\n\n2.5\n",
    b"-1.5\n+2.5\n",
    b" 1.5\n2.5 \n",
    b"0\n1e+17\n9.9999999999999995e-07\n",
    b"1e5\n1E-05\n1.5e-05\n",
    b"123456789012345678\n",
    b"0.000000000000000000000012345\n",
], ids=["nan", "inf", "crlf", "no_final_newline", "comments", "blank_line", "signs", "spaces",
        "fstring_lines", "other_exponents", "18_digits", "long_line"])
def test_csv_reader_falls_back_to_loadtxt(tmp_path, content):
    path = tmp_path / "ts.csv"
    path.write_bytes(content)
    assert not _parsed_whole(path)
    assert _read_both_ways(path).size > 0


def test_csv_reader_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_bytes(b"")
    assert _read_both_ways(path).size == 0


def test_binary_round_trip(paper_params, tmp_path):
    series = simulate.simulate(_config(paper_params, 1e6, n_events=500, seed=20))
    path = tmp_path / "ts.bin"
    io.write_timestamps_binary(path, series)
    back = io.read_timestamps_binary(path)
    np.testing.assert_array_equal(back, series.times)


def test_binary_rejects_corruption(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 12)
    with pytest.raises(ValueError):
        io.read_timestamps_binary(path)
    path.write_bytes(b"\x01")
    with pytest.raises(ValueError):
        io.read_timestamps_binary(path)


@pytest.mark.parametrize("name, content", [
    ("text.csv", b"1e-4\nabc\n"),
    ("columns.csv", b"1e-4 2e-4\n3e-4 4e-4\n"),
    ("one_line.csv", b"1 2"),
    ("magic.bin", b"NOPE" + struct.pack("<IQ", 1, 0)),
    ("header.bin", b"SPTS"),
    ("payload.bin", b"SPTS" + struct.pack("<IQ", 1, 3) + np.zeros(2).tobytes()),
    ("version.bin", b"SPTS" + struct.pack("<IQ", 2, 0)),
    ("count.bin", b"SPTS" + struct.pack("<IQ", 1, 2**63) + np.zeros(2).tobytes()),
], ids=["text_row", "two_columns", "one_line_two_columns", "bad_magic", "truncated_header",
        "truncated_payload", "bad_version", "count_past_memory"])
def test_malformed_timestamp_file_is_degenerate_data(tmp_path, name, content):
    # the CLI maps DegenerateDataError to exit 3 and any other ValueError to exit 2
    path = tmp_path / name
    path.write_bytes(content)
    with pytest.raises(DegenerateDataError, match=re.escape(str(path))):
        io.read_timestamps(path)
    with pytest.raises(ValueError):
        io.read_timestamps(path)
