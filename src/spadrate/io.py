"""File formats: timestamp streams, interval histograms and result tables.

Timestamps are CSV, one exact ``%.17g`` line each, formed from integer
digits by numpy word arithmetic (``_format_lines``), or binary: a 16-byte
header (magic, version, count), then little-endian float64 values.
Histograms are v2 CSV, or dense v1 when read.  A malformed file raises
:class:`DegenerateDataError` naming the path.
"""

from __future__ import annotations

import os
import struct
import warnings

import numpy as np

from .exceptions import DegenerateDataError
from .inference import IntervalHistogram
from .simulate import TimestampSeries

__all__ = ["read_timestamps", "write_timestamps_csv", "read_timestamps_csv",
           "write_timestamps_binary", "read_timestamps_binary", "write_histogram",
           "read_histogram", "write_table"]

# Timestamps the CSV writer formats at a time: 2**13 wrote 1e6 stamps in about
# the same time, 2**15 ~5% and 2**16 ~40% slower (one pinned x86 vCPU)
_BLOCK = 1 << 14
_BINARY_MAGIC = b"SPTS"
_BINARY_VERSION = 1
_HEADER = struct.Struct("<4sIQ")  # magic, version, count: 16 bytes
# The CSV kernels work on uint64 words, and every constant they meet is a
# uint64 too: numpy 1.x turns uint64 mixed with int64 into float64.
_U = np.uint64


def _line_templates() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Byte sources of the ``%.17g`` lines, their widths and the words OR'd into their rows.

    A line is gathered from a row of 24 bytes: ``.0e-N``, a NUL, the newline,
    then the 17 digits as bytes 0-9.  ``template[E - _E_MIN]`` lists the row
    positions of the line of a value with decimal exponent E showing all 17
    digits, ``width[E - _E_MIN]`` long, then NUL padding.  ``add[E - _E_MIN, nd]``
    is OR'd into the row of a value with nd significant digits: the literals,
    '0' onto each digit the line shows, and the dot only if digits follow it.
    A trailing zero and a bare dot thus stay NUL bytes, deleted with the padding.
    """
    dot, zero, letter_e, minus, power, nul, newline = range(7)  # power: the 5 of e-05
    digit = list(range(7, 24))
    template = np.full((_E_MAX - _E_MIN + 1, 23), nul, dtype=np.intp)
    add = np.zeros((_E_MAX - _E_MIN + 1, 18, 24), dtype=np.uint8)
    nd = np.arange(18)
    for e in range(_E_MIN, _E_MAX + 1):
        i = e - _E_MIN
        if e >= 0:  # fixed: all integer digits, then any fraction
            line, fraction = [*digit[:e + 1], dot, *digit[e + 1:], newline], e + 1
        elif e >= -4:  # fixed: 0.000ddd
            line, fraction = [zero, dot, *[zero] * (-e - 1), *digit, newline], 0
        else:  # exponential: d.ddde-05
            line, fraction = [digit[0], dot, *digit[1:], letter_e, minus, zero, power, newline], 1
        template[i, :len(line)] = line
        add[i, :, :7] = np.frombuffer(b".0e-%d\0\n" % max(-e, 0), dtype=np.uint8)
        add[i, nd <= fraction, 0] = 0
        add[i, :, 7:] = np.where(np.arange(17) < np.maximum(nd[:, None], e + 1), ord("0"), 0)
    return template, (template != nul).sum(axis=1), add.view(_U)


# Exact range of the line kernel: 10**(16 - E) is an exact double for E >= -6.
_E_MIN, _E_MAX = -6, 16
_POW10 = np.array([float(10 ** k) for k in range(16 - _E_MIN + 1)])
_SPLITTER = 2.0 ** 27 + 1.0  # Veltkamp: splits a double into two 26-bit halves
_TEMPLATE, _WIDTH, _ADD = _line_templates()

_ROW = 24  # bytes the reader takes in before each newline; the writer's lines have at most 22
# Bytes per read of the CSV reader, ~7k lines of ~19 bytes.  Its
# temporaries, ~150 bytes a line, stay on the heap after the read: 2**18
# read 1e6 lines ~6% faster alone, not in `characterize`, whose peak RSS
# it raised by ~0.7 MiB; 2**16 was ~12% slower.
_READ = 1 << 17
_DOTS = _U(0x2E2E2E2E2E2E2E2E)
_ZEROS = _U(0x3030303030303030)
_SEVENTY_SIXES = _U(0x7676767676767676)
_LOW_BITS = _U(0x7F7F7F7F7F7F7F7F)
_HIGH_BITS = _U(0x8080808080808080)
_EXPONENT = _U(0x7FF0000000000000)
_MANTISSA = _U((1 << 52) - 1)
# Byte b of word w times these, top byte: the dot's distance s from the row end.
_DOT_POSITION = np.array([[0x1817161514131211], [0x100F0E0D0C0B0A09], [0x0807060504030201]],
                         dtype=_U)


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c = _SPLITTER * a
    high = c - (c - a)
    return high, a - high


def _two_product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's product: p = fl(a*b) and the error e with p + e = a*b exactly."""
    p = a * b
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _split(b)
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _format_lines(x: np.ndarray) -> bytes:
    """The bytes of ``f"{t:.17g}\\n"`` for every t of a float64 block.

    Exact for 1e-6 < t < 1e17; a block holding any other value (zero,
    negative, non-finite or out of range) is formatted by the f-string.
    With E = floor(log10 t) and k = 16 - E (0 <= k <= 22), 10**k is an exact
    double, and Dekker's two-product gives t * 10**k = p + e exactly with no
    FMA.  p is an integer in [1e16, 1e17], so the 17 significant digits are
    the integer p + floor(e) rounded half to even on e - floor(e), which is
    exact, as Python's correctly rounded formatting does.  A first E from
    log10 is corrected by one where the exact product falls outside
    [1e16, 1e17), and a rounding carry to 10**17 becomes 10**16 at E + 1.
    Each half of the last 16 digits becomes one word of bytes (``_digit_bytes``),
    laid out by ``_line_templates`` in ``%g``'s fixed form for -4 <= E < 17 and its
    exponential form below; the zeros and bare dot a line drops are NULs, deleted at once.
    """
    bounds = np.array([x.min(), x.max()])
    if not (1e-6 < bounds[0] and bounds[1] < 1e17):  # nan fails too
        return "".join(f"{t:.17g}\n" for t in x.tolist()).encode()
    e = np.floor(np.log10(bounds))  # one E for the block if its ends share one
    e = np.clip(e[0] if e[0] == e[1] else np.floor(np.log10(x)), _E_MIN, _E_MAX).astype(np.int64)
    p, err = _two_product(x, _POW10[16 - e])
    shift = ((p > 1e17) | ((p == 1e17) & (err >= 0))).astype(np.int64)
    shift -= (p < 1e16) | ((p == 1e16) & (err < 0))
    redo = np.flatnonzero(shift)
    if redo.size:
        e = e + shift
        p[redo], err[redo] = _two_product(x[redo], _POW10[16 - e[redo]])
    below = np.floor(err)
    digits = p.astype(np.int64) + below.astype(np.int64)
    frac = err - below
    digits += (frac > 0.5) | ((frac == 0.5) & (digits & 1 == 1))
    carry = digits == 10 ** 17
    digits[carry] = 10 ** 16
    e = e + carry

    high = digits // 10 ** 8
    lead = high // 10 ** 8
    mid, mid_digits = _digit_bytes(high - lead * 10 ** 8)
    low, low_digits = _digit_bytes(digits - high * 10 ** 8)
    del p, err, below, frac, shift, digits, high
    n_digits = np.maximum(np.maximum(mid_digits + 1, low_digits + 9), 1)
    i = e - _E_MIN
    if i.min() == i.max():  # one exponent, as in most blocks of sorted timestamps
        row = _ADD[i[0]].take(n_digits, axis=0)
        line = slice(None), _TEMPLATE[i[0], :_WIDTH[i[0]]]
    else:
        row = _ADD[i, n_digits]
        line = np.arange(x.size)[:, None], _TEMPLATE[i]
    row[:, 0] |= (lead << 56).view(_U)
    row[:, 1] |= mid
    row[:, 2] |= low
    return row.view(np.uint8)[line].tobytes().replace(b"\0", b"")


def _digit_bytes(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 8 digits of each 0 <= v < 10**8 as bytes 0-9 of a word w, first digit lowest, and
    the count of digits up to its last nonzero one (negative for v = 0).

    SWAR: 4-digit lanes of 32 bits are split by L // 100 = L * 5243 >> 19, then
    L // 10 = L * 103 >> 10.  The count is (w's float exponent - 1015) >> 3.
    """
    high = v // 10 ** 4
    x = (v - high * 10 ** 4 << 32 | high).view(_U)
    q = x * _U(5243) >> _U(19) & _U(0x0000007F0000007F)
    x = (x << _U(16)) - q * _U((100 << 16) - 1)
    q = x * _U(103) >> _U(10) & _U(0x000F000F000F000F)
    x = (x << _U(8)) - q * _U((10 << 8) - 1)
    return x, (x.view(np.int64).astype(float).view(np.int64) >> 52) - 1015 >> 3


def write_timestamps_csv(path, series: TimestampSeries) -> None:
    """One ``%.17g`` line per timestamp, ``\\n`` line ends on every platform."""
    times = series.times
    with open(path, "wb") as fh:
        for start in range(0, times.size, _BLOCK):
            fh.write(_format_lines(times[start:start + _BLOCK]))


def _row_masks() -> tuple[np.ndarray, ...]:
    """Byte masks of the CSV reader, as three little-endian words each.

    A row is the ``_ROW`` bytes before a line's newline, so a line of L
    bytes fills its last L.  ``content[:, L]`` flags those bytes with 0x80.
    ``left``, ``right`` and ``fill`` are indexed by (_ROW + 2) * L + s,
    where the line's dot is s bytes from its end (s = 0: no dot).  ``left``
    and ``right`` keep the line's bytes before and after the dot; shifting
    the left ones one byte on closes the gap, and ``fill`` puts ASCII zeros
    in front of the digits.  A dot outside the line, or a line left without
    digits, gets a fill of 0xFF bytes, which no digit test passes.
    """
    length = np.arange(_ROW + 1)[:, None, None]
    s = np.arange(_ROW + 2)[:, None]
    col = np.arange(_ROW)
    inline = col >= _ROW - length
    dot = np.where(s > 0, _ROW - s, -1)
    n_digits = length - (s > 0)

    def words(mask):
        mask = np.broadcast_to(mask, inline.shape[:1] + s.shape[:1] + col.shape)
        return np.moveaxis((mask * np.uint8(0xFF)).view("<u8"), -1, 0).reshape(3, -1)

    fill = words(col < _ROW - n_digits) & _ZEROS
    fill[:, ((s > length) | (n_digits < 1)).ravel()] = ~_U(0)
    content = words(inline)[:, ::_ROW + 2] & _HIGH_BITS
    return words(inline & (col < dot) & (s > 0)), words(inline & (col > dot)), fill, content


_LEFT, _RIGHT, _FILL, _CONTENT = _row_masks()
_WORD_OFFSETS = np.arange(-_ROW, 0, 8)[:, None]  # from a newline to its row's three words


def _dot_offsets(x: np.ndarray, length: np.ndarray) -> np.ndarray:
    """Distance s of each line's dot from its end, 0 for none, from SWAR zero-byte tests."""
    y = x ^ _DOTS
    dots = y & _LOW_BITS
    dots += _LOW_BITS
    dots |= y
    np.invert(dots, out=dots)
    dots &= _CONTENT.take(length, axis=1)  # 0x80 where a byte of the line is "."
    dots >>= _U(7)
    dots *= _DOT_POSITION
    dots >>= _U(56)
    s = dots[0] + dots[1] + dots[2]  # several dots leave s wrong, caught by the digit test
    return np.minimum(s, _U(_ROW + 1)).astype(np.intp)


def _mantissas(x: np.ndarray, i: np.ndarray) -> np.ndarray | None:
    """The digits of each row with its dot closed up, as an integer below 10**17, or None.

    Overwrites the words x.  ``i`` indexes the row masks of ``_row_masks``.
    """
    left = x & _LEFT.take(i, axis=1)
    x &= _RIGHT.take(i, axis=1)
    x |= _FILL.take(i, axis=1)
    x[1:] |= left[:-1] >> _U(56)
    left <<= _U(8)
    x |= left
    x ^= _ZEROS  # digits become bytes 0-9; adding 0x76 sets the high bit of any other byte
    y = x + _SEVENTY_SIXES
    y |= x
    if np.any(y & _HIGH_BITS):
        return None
    y = x >> _U(8)  # Lemire's eight digits at once, the first in the low byte
    x *= _U(10)
    x += y
    group = (x & _U(0x000000FF000000FF)) * _U(100 + (1_000_000 << 32))
    group += ((x >> _U(16)) & _U(0x000000FF000000FF)) * _U(1 + (10_000 << 32))
    group >>= _U(32)
    if group[0].max() > 9:  # more than 17 digits
        return None
    return (group[0] * _U(10 ** 16) + group[1] * _U(10 ** 8) + group[2]).view(np.int64)


def _parse_rows(x: np.ndarray, length: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Values of the lines whose rows are the columns of x, or None if one is outside the grammar.

    The grammar is the writer's: digits with at most one dot, optionally
    followed by ``e-0N``, at most 17 significant digits and 22 decimals.
    The line is checked and its digits M found with SWAR tests on the
    words; then t = M / 10**k as in _format_lines, run backwards.  With
    Mh + Ml = M exactly and P = 10**k, q1 = Mh / P leaves a remainder
    Mh - q1 * P that Dekker's product makes exact, and q1 plus the
    remainder (with Ml) over P is t correctly rounded unless t lies within
    ~2**-51 ulp of a rounding midpoint.  Lines within 2**-40 ulp of one, or
    at a power of two where the ulp changes, are returned for ``float``.
    """
    suffix = x[2] >> _U(32)
    exp = np.flatnonzero((suffix & _U(0xFFFFFF)) == _U(0x302D65))  # "e-0", ends the row
    k = np.zeros(length.size, dtype=np.intp)
    if exp.size:  # drop the exponent: the mantissa ends the row
        digit = (suffix[exp] >> _U(24)) - _U(ord("0"))
        if digit.max() > _U(9):
            return None
        k[exp] = digit
        length = length.copy()
        length[exp] -= 4
        rows = x[:, exp]
        x[:, exp] = rows << _U(32)
        x[1:, exp] |= rows[:-1] >> _U(32)
    del suffix
    s = _dot_offsets(x, length)
    m = _mantissas(x, (_ROW + 2) * length + s)
    k += s - (s > 0)
    if m is None or k.max() > 16 - _E_MIN:
        return None
    mh = m.astype(float)
    ml = (m - mh.astype(np.int64)).astype(float)
    del m
    p10 = _POW10.take(k)
    q1 = mh / p10
    p, e = _two_product(q1, p10)
    correction = mh - p
    correction -= e
    correction += ml
    correction /= p10
    del mh, ml, p, e, p10
    t = q1 + correction
    ulp = (t.view(np.uint64) & _EXPONENT).view(float) * 2.0 ** -52
    redo = np.abs(2 * np.abs((q1 - t) + correction) - ulp) < 2.0 ** -39 * ulp
    redo |= ((t.view(np.uint64) & _MANTISSA) == 0) | ((q1.view(np.uint64) & _MANTISSA) == 0)
    return t, np.flatnonzero(redo)


def _parse_csv(fh) -> np.ndarray | None:
    """Timestamps of an open CSV file in the writer's grammar, or None for any other file.

    Reads ``_READ`` bytes at a time after a carry of the last partial line;
    every line ends in a newline and is at most ``_ROW`` bytes long.  The
    result is allocated at a guess of 16 bytes per line, one large block
    rather than a heap block grown from nothing, and resized in place to
    the line count that the bytes read so far predict.
    """
    unread = os.fstat(fh.fileno()).st_size
    buf = np.full(2 * _ROW + _READ, ord("\n"), dtype=np.uint8)
    # the unaligned little-endian word at every byte offset of buf
    words = np.ndarray((buf.size - 7,), dtype="<u8", buffer=buf, strides=(1,))
    times = np.empty(unread // 16 + 1)
    n = 0
    carry = 0
    while got := fh.readinto(memoryview(buf)[_ROW + carry:]):
        unread -= got
        end = _ROW + carry + got
        ends = np.flatnonzero(buf[_ROW:end] == ord("\n"))
        if ends.size == 0:
            return None
        ends += _ROW
        length = np.diff(ends, prepend=_ROW - 1)
        length -= 1
        if length.min() < 1 or length.max() > _ROW:
            return None
        parsed = _parse_rows(words[ends + _WORD_OFFSETS], length)
        if parsed is None:
            return None
        t, redo = parsed
        for j in redo.tolist():
            t[j] = float(buf[ends[j] - length[j]:ends[j]].tobytes())
        if n + t.size > times.size:
            times.resize(n + t.size + max(unread, 0) * t.size // got + 1, refcheck=False)
        times[n:n + t.size] = t
        n += t.size
        carry = end - ends[-1] - 1
        if carry > _ROW:
            return None
        buf[_ROW:_ROW + carry] = buf[ends[-1] + 1:end]
    if carry:
        return None
    times.resize(n, refcheck=False)
    return times


def read_timestamps_csv(path) -> np.ndarray:
    """Timestamps of a CSV file; an empty file gives an empty array.

    The writer's lines are parsed by ``_parse_csv``; a file with any other
    line, including one without its final newline, is read whole by
    ``np.loadtxt``.  Both give the correctly rounded value of every line.
    A malformed file raises :class:`DegenerateDataError` naming the path.
    """
    try:
        fh = open(os.fspath(path), "rb")
    except (OSError, TypeError):  # loadtxt reads file objects and reports what cannot open
        times = None
    else:
        with fh:
            times = _parse_csv(fh)
    if times is not None:
        return times
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            return np.loadtxt(path, dtype=float, ndmin=1)
        except ValueError as exc:
            raise DegenerateDataError(f"{path}: {exc}") from None


def write_timestamps_binary(path, series: TimestampSeries) -> None:
    times = np.ascontiguousarray(series.times, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_BINARY_MAGIC, _BINARY_VERSION, times.size))
        fh.write(times.tobytes())


def read_timestamps_binary(path) -> np.ndarray:
    """Timestamps of a binary file; a malformed one raises :class:`DegenerateDataError`."""
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise DegenerateDataError(f"{path}: truncated header")
        magic, version, count = _HEADER.unpack(header)
        if magic != _BINARY_MAGIC:
            raise DegenerateDataError(f"{path}: bad magic {magic!r}")
        if version != _BINARY_VERSION:
            raise DegenerateDataError(f"{path}: unsupported version {version}")
        # checked before reading: the header's count may ask for any size up to 2**67 bytes
        if 8 * count > os.fstat(fh.fileno()).st_size - _HEADER.size:
            raise DegenerateDataError(f"{path}: truncated payload")
        return np.fromfile(fh, dtype="<f8", count=count).astype(float, copy=False)


def read_timestamps(path) -> np.ndarray:
    """Timestamps of a binary file for a ``.bin`` path in any case, of a CSV file otherwise."""
    if str(path).lower().endswith(".bin"):
        return read_timestamps_binary(path)
    return read_timestamps_csv(path)


_V2_KEYS = ("bin_width", "origin", "n_bins", "overflow")
_V2_LAYOUT = ["# spadrate interval histogram v2", *(f"# {key}" for key in _V2_KEYS),
              "bin_index,count"]


def write_histogram(path, hist: IntervalHistogram) -> None:
    """Write file v2: exact ``repr`` header values, then one row per populated bin."""
    meta = [f"# {key}={getattr(hist, key)!r}" for key in _V2_KEYS]
    write_table(path, "\r\n".join([_V2_LAYOUT[0], *meta, _V2_LAYOUT[-1]]), "{},{}",
                hist.index, hist.tally)


def read_histogram(path) -> IntervalHistogram:
    """Read a ``write_histogram`` file, or a dense v1 file of ``bin_left_s,count`` rows.

    A malformed file raises :class:`DegenerateDataError` naming the path.
    """
    with open(path) as fh:
        try:
            first = fh.readline().strip()
            v1 = [h.strip() for h in first.split(",")[:2]] == ["bin_left_s", "count"]
            lines = [] if v1 else [fh.readline().strip() for _ in _V2_LAYOUT[1:]]
            if not v1 and [first, *(line.partition("=")[0] for line in lines)] != _V2_LAYOUT:
                raise ValueError("expected a v2 header or 'bin_left_s,count'")
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                        UserWarning)
                rows = np.loadtxt(fh, delimiter=",", usecols=(0, 1), ndmin=1,
                                  dtype=[("bin", float if v1 else np.int64),
                                         ("count", np.int64)])
            if not v1:
                bin_width, origin, n_bins, overflow = (x.partition("=")[2] for x in lines[:-1])
                return IntervalHistogram(float(bin_width), rows["count"], float(origin),
                                         int(overflow), index=rows["bin"], n_bins=int(n_bins))
            if rows.size == 0:
                return IntervalHistogram(bin_width=1.0, counts=np.zeros(0, dtype=np.int64))
            if rows.size == 1:
                raise ValueError("cannot infer bin width from a single bin")
            widths = np.diff(rows["bin"])
            if not np.allclose(widths, widths[0], rtol=1e-6, atol=0):
                raise ValueError("bins are not uniform")
            return IntervalHistogram(float(widths[0]), rows["count"], origin=float(rows["bin"][0]))
        except ValueError as exc:
            raise DegenerateDataError(f"{path}: {exc}") from None


def write_table(path, header: str, row_format: str, *columns) -> None:
    """Write a header line, then ``row_format`` filled from each row of ``columns``.

    Every line ends in ``\\r\\n``: the table files have always used that
    line end, and keep it so that they stay byte-compatible.
    """
    rows = map((row_format + "\r\n").format, *(np.asarray(c).tolist() for c in columns))
    with open(path, "w", newline="") as fh:
        fh.write(header + "\r\n")
        fh.writelines(rows)
