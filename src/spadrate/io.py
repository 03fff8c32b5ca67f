"""File formats: timestamp streams, interval histograms and result tables.

Timestamps are CSV, one exact ``%.17g`` line each, or binary: a 16-byte
header (magic, version, count), then little-endian float64 values.  Both
are streamed: the writers take a series or any iterable of blocks, and
``read_timestamp_blocks`` gives one array per read, so a file in these
formats is written and read in constant memory.  CSV lines are formed by
numpy word arithmetic, a block at a time, and parsed by one kernel of
constant shifts and masks over lines of one layout: a whole read of a
sorted stream, or each layout of a read in turn.
Histograms are v2 CSV, or dense v1 when read.  A malformed file raises
:class:`DegenerateDataError` naming the path.
"""

from __future__ import annotations

import contextlib
import os
import stat
import struct
import warnings
from collections.abc import Iterable, Iterator

import numpy as np

from .exceptions import DegenerateDataError
from .inference import IntervalHistogram
from .simulate import TimestampSeries

__all__ = ["read_timestamps", "read_timestamp_blocks", "write_timestamps_csv",
           "read_timestamps_csv", "write_timestamps_binary", "read_timestamps_binary",
           "write_histogram", "read_histogram", "write_table"]

# Timestamps the CSV writer formats at a time: 2**13 wrote 1e6 stamps in about
# the same time, 2**15 ~5% and 2**16 ~40% slower (one pinned x86 vCPU)
_BLOCK = 1 << 14
_BINARY_MAGIC = b"SPTS"
_BINARY_VERSION = 1
_HEADER = struct.Struct("<4sIQ")  # magic, version, count: 16 bytes
# The CSV kernels work on uint64 words, and every constant they meet is a
# uint64 too: numpy 1.x turns uint64 mixed with int64 into float64.
_U = np.uint64

# glibc hands the top of its heap back to the OS whenever a free leaves more there
# than twice the largest mmapped block freed so far (at first 128 KiB), and the next
# block of stamps faults it in again: with 1-3 MiB of scratch a block, writing 1e6
# stamps took ~32,000 minor page faults and reading them ~8,000.  Freeing one
# untouched 4 MiB block raises that bound to 8 MiB for the process, at no resident
# memory; any other allocator just frees it.
np.empty(1 << 22, dtype=np.uint8)


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

_ROW = 24  # bytes gathered from each line, and the longest line read; the writer's have 22
# Bytes per read of the CSV reader, ~14k lines of ~19 bytes, and so the block
# that `hist` checks and bins at a time; the temporaries are ~110-145 bytes a line.
# Against 2**17, `hist` of 1e6 lines took ~8% less time (one pinned x86 vCPU).
_READ = 1 << 18
_ZEROS = _U(0x3030303030303030)
_SEVENTY_SIXES = _U(0x7676767676767676)
_HIGH_BITS = _U(0x8080808080808080)
_EXPONENT = _U(0x7FF0000000000000)
_MANTISSA = _U((1 << 52) - 1)


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
    exponential form below, one run of lines of one E at a time, so a block
    spanning decades needs no more scratch than one within a decade; the
    zeros and bare dot a line drops are NULs, deleted at once.
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
    # runs of one exponent: one for most blocks of sorted timestamps, at most 23 for any sorted
    # block; an unsorted block is correct but slow, a run of ~1 line per ~10 us
    cuts = (np.flatnonzero(i[1:] != i[:-1]) + 1).tolist()
    lines = []
    for a, b in zip([0, *cuts], [*cuts, x.size]):
        k = i[a]
        row = _ADD[k].take(n_digits[a:b], axis=0)
        row[:, 0] |= (lead[a:b] << 56).view(_U)
        row[:, 1] |= mid[a:b]
        row[:, 2] |= low[a:b]
        lines.append(row.view(np.uint8)[:, _TEMPLATE[k, :_WIDTH[k]]].tobytes())
    return b"".join(lines).replace(b"\0", b"")


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


_KEEP = np.array([(1 << 8 * n) - 1 for n in range(9)], dtype=_U)  # a word's low n bytes
# Column n: the bytes of each of three words that hold the first n of their 24 bytes
_DIGITS_KEPT = _KEEP.take(np.clip(np.arange(_ROW + 1) - np.arange(0, _ROW, 8)[:, None], 0, 8))


def _eight_digits(x: np.ndarray) -> None:
    """Lemire's eight digits at once: each word x of bytes 0-9, first lowest, becomes its value."""
    y = x >> _U(8)
    x *= _U(10)
    x += y
    np.right_shift(x, _U(16), out=y)
    y &= _U(0x000000FF000000FF)
    y *= _U(1 + (10_000 << 32))
    x &= _U(0x000000FF000000FF)
    x *= _U(100 + (1_000_000 << 32))
    x += y
    x >>= _U(32)


def _divide(m: np.ndarray, p10: float) -> tuple[np.ndarray, np.ndarray]:
    """t = m / p10 for integers 0 <= m < 10**17 and a power of ten p10 <= 1e22, and the t to redo.

    This is _format_lines run backwards.  With mh + ml = m exactly, q1 = mh / p10
    leaves a remainder mh - q1 * p10 that Dekker's product makes exact, and q1
    plus the remainder (with ml) over p10 is t correctly rounded unless t lies
    within ~2**-51 ulp of a rounding midpoint.  The t within 2**-40 ulp of one,
    or at a power of two where the ulp changes, are returned for ``float``.
    """
    mh = m.astype(float)
    ml = (m - mh.astype(np.int64)).astype(float)
    q1 = mh / p10
    p, e = _two_product(q1, p10)
    correction = mh - p
    correction -= e
    correction += ml
    correction /= p10
    del mh, ml, p, e
    t = q1 + correction
    ulp = (t.view(np.uint64) & _EXPONENT).view(float) * 2.0 ** -52
    redo = np.abs(2 * np.abs((q1 - t) + correction) - ulp) < 2.0 ** -39 * ulp
    redo |= ((t.view(np.uint64) & _MANTISSA) == 0) | ((q1.view(np.uint64) & _MANTISSA) == 0)
    return t, np.flatnonzero(redo)


def _parse_one_layout(buf: np.ndarray, starts: np.ndarray,
                      length: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Values of the lines at ``starts`` in buf and which to redo (``_divide``), or None
    unless every line has the layout inferred from the first.

    A layout is 1-17 digits: with a dot at one column c >= 1, without a dot in lines
    of one length, or after ``0.`` and z zeros, skipped if a line is longer than 18
    bytes; then nothing or one suffix ``e-0N``.  Every line is checked for these.
    Gathered from after the skipped bytes, all lines close the dot gap by the same
    shifts; the bytes after their digits, cleared to digit 0, pad them to 17 digits
    M = t * 10**k, divided by one scalar 10**k <= 1e22.
    """
    shortest, longest = length.min(), length.max()
    first = buf[starts[0]:starts[0] + length[0]].tobytes()
    mantissa, exponent, power = first.partition(b"e-0")
    c = mantissa.find(b".")
    skip = 0
    if mantissa[:2] == b"0." and longest > 18:
        skip = len(mantissa) - len(mantissa[2:].lstrip(b"0"))
        c, low, high, k = -1, 0, 17, 15 + skip
    elif c > 0:
        low, high, k = c, 17, 17 - c
    elif c < 0 and mantissa:
        low, high, k = len(mantissa), len(mantissa), 17 - len(mantissa)
    else:
        return None
    if exponent and not (len(power) == 1 and power.isdigit()):
        return None
    k += int(power or 0)
    fixed = len(first) - len(mantissa) + skip + (c > 0)  # the bytes of a line but its digits
    if not (0 <= k <= 22 and low <= shortest - fixed and longest - fixed <= high):
        return None
    if c > 0 and not np.all(buf.take(starts + c) == ord(".")):
        return None
    words = np.ndarray((buf.size - 7,), dtype="<u8", buffer=buf, strides=(1,))
    suffix = starts + length - 4 if exponent else None
    for at, text in ((starts, first[:skip]), (suffix, first[len(mantissa):])):
        if text and np.any((words[at] & _KEEP[len(text)]) != _U(int.from_bytes(text, "little"))):
            return None
    # the 24 bytes from each line's digits on: one record each, copied faster than three words
    rows = np.ndarray((buf.size - 23,), dtype="V24", buffer=buf, strides=(1,))
    x = rows[starts + skip].view(_U).reshape(-1, 3).T.copy()
    if c > 0:  # the c bytes before the dot stay; the rest move down one
        after = x >> _U(8)
        after[:2] |= x[1:] << _U(56)
        after ^= x
        after &= ~_DIGITS_KEPT[:, c:c + 1]
        x ^= after
        del after
    x ^= _ZEROS
    x &= _DIGITS_KEPT.take(length - fixed, axis=1)
    if np.any((x + _SEVENTY_SIXES | x) & _HIGH_BITS):  # a byte other than a digit
        return None
    _eight_digits(x[:2])
    return _divide((x[0] * _U(10 ** 9) + x[1] * _U(10) + x[2]).view(np.int64), _POW10[k])


def _parse_layouts(buf: np.ndarray, starts: np.ndarray,
                   length: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """``_parse_one_layout`` on each layout of a read in turn, or None if it declines one.

    A line's key is its dot column, or its length if it has no dot; how many of
    its first bytes match ``0.000000``; and the last byte of an ``e-0N`` suffix.
    Lines of one key share the layout that ``_parse_one_layout`` infers.
    """
    ends = starts + length
    words = np.ndarray((buf.size - 7,), dtype="<u8", buffer=buf, strides=(1,))
    head = words[starts] ^ _U(int.from_bytes(b"0.000000", "little")) | _U(1 << 63)
    head &= -head  # the lowest bit of the first byte that differs
    zeros = (head.astype(float).view(np.int64) >> 52) - 1023 >> 3
    suffix = np.where(buf.take(ends - 4) == ord("e"), buf.take(ends - 1) & 31, 0)
    column = length + 32
    dots = np.flatnonzero(buf[starts[0]:ends[-1]] == ord(".")) + starts[0]
    line = np.searchsorted(ends, dots)
    column[line] = dots - starts[line]
    key = (column << 8 | zeros << 5 | suffix).astype(np.uint16)
    del ends, head, zeros, suffix, column, dots, line
    order = np.argsort(key, kind="stable")
    t = np.empty(starts.size)
    redo = []
    for lines in np.split(order, np.flatnonzero(np.diff(key[order])) + 1):
        parsed = _parse_one_layout(buf, starts[lines], length[lines])
        if parsed is None:
            return None
        t[lines] = parsed[0]
        redo.append(lines[parsed[1]])
    return t, np.concatenate(redo)


def _parse_csv(fh) -> Iterator[np.ndarray | None]:
    """Timestamps of each read of an open CSV file in the writer's grammar, then None
    at the first read holding any other line, or ending without a newline.

    Reads ``_READ`` bytes at a time after a carry of the last partial line,
    with ``_ROW`` bytes to spare after them for the bytes gathered from the last line;
    every line ends in a newline and is at most ``_ROW`` bytes long.  A read
    goes to ``_parse_one_layout`` whole, as most reads of a sorted stream
    share one layout, and otherwise split by ``_parse_layouts``.
    """
    buf = np.full(3 * _ROW + _READ, ord("\n"), dtype=np.uint8)
    carry = 0
    while got := fh.readinto(memoryview(buf)[_ROW + carry:-_ROW]):
        end = _ROW + carry + got
        ends = np.flatnonzero(buf[_ROW:end] == ord("\n")) + _ROW
        if ends.size == 0:
            break
        length = np.diff(ends, prepend=_ROW - 1) - 1
        if length.min() < 1 or length.max() > _ROW:
            break
        parsed = (_parse_one_layout(buf, ends - length, length)
                  or _parse_layouts(buf, ends - length, length))
        if parsed is None:
            break
        t, redo = parsed
        for j in redo.tolist():
            t[j] = float(buf[ends[j] - length[j]:ends[j]].tobytes())
        carry = end - ends[-1] - 1
        if carry > _ROW:
            break
        buf[_ROW:_ROW + carry] = buf[ends[-1] + 1:end]
        yield t
    else:
        if not carry:
            return
    yield None


def _csv_blocks(path) -> Iterator[np.ndarray]:
    """Timestamps of a CSV file, one array per read; an empty file gives none.

    The writer's lines are parsed by ``_parse_csv``.  From the first read
    holding any other line, including a last line without its newline, the
    file is read whole by ``np.loadtxt`` and the values after those already
    given follow as one array.  Both give the correctly rounded value of
    every line.  A malformed file raises :class:`DegenerateDataError` naming the path.
    """
    given = 0
    try:
        fh = open(os.fspath(path), "rb")
    except (OSError, TypeError):  # loadtxt reads file objects and reports what cannot open
        pass
    else:
        with fh:
            for times in _parse_csv(fh):
                if times is None:
                    break
                given += times.size
                yield times
            else:
                return
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            times = np.loadtxt(path, dtype=float, ndmin=2)  # one line of two values: (1, 2)
        except ValueError as exc:
            raise DegenerateDataError(f"{path}: {exc}") from None
    if times.shape[1] != 1:
        raise DegenerateDataError(f"{path}: {times.shape[1]} values a line, expected one")
    yield times[given:, 0]


def _binary_blocks(path) -> Iterator[np.ndarray]:
    """Timestamps of a binary file, ``_READ`` bytes at a time; a malformed file raises
    :class:`DegenerateDataError` before the first."""
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
        step = _READ // 8
        for start in range(0, count, step):
            yield np.fromfile(fh, dtype="<f8", count=min(step, count - start)).astype(
                float, copy=False)


def read_timestamp_blocks(path) -> Iterator[np.ndarray]:
    """Timestamps of a file in blocks: binary for a ``.bin`` path in any case, CSV otherwise.

    A block is one read of the file, so a file in the writers' formats is read
    in constant memory.
    """
    if str(path).lower().endswith(".bin"):
        return _binary_blocks(path)
    return _csv_blocks(path)


def _join(blocks) -> np.ndarray:
    return np.concatenate([np.empty(0), *blocks])


def read_timestamps_csv(path) -> np.ndarray:
    """Timestamps of a CSV file (see ``_csv_blocks``); an empty file gives an empty array."""
    return _join(_csv_blocks(path))


def read_timestamps_binary(path) -> np.ndarray:
    """Timestamps of a binary file; a malformed one raises :class:`DegenerateDataError`."""
    return _join(_binary_blocks(path))


def read_timestamps(path) -> np.ndarray:
    """Timestamps of a binary file for a ``.bin`` path in any case, of a CSV file otherwise."""
    return _join(read_timestamp_blocks(path))


@contextlib.contextmanager
def _created(path):
    """The file at path opened for writing, and removed again if writing it does not finish.

    Only the file opened is removed: not a device or a symbolic link.
    """
    fh = open(path, "wb")
    opened = os.fstat(fh.fileno())
    try:
        with fh:
            yield fh
    except BaseException:
        with contextlib.suppress(OSError):
            if stat.S_ISREG(opened.st_mode) and os.path.samestat(opened, os.lstat(path)):
                os.remove(path)
        raise


def _blocks(stamps) -> Iterable[np.ndarray]:
    return (stamps.times,) if isinstance(stamps, TimestampSeries) else stamps


def write_timestamps_csv(path, stamps) -> int:
    """One ``%.17g`` line per timestamp, ``\\n`` line ends on every platform; returns the count.

    ``stamps`` is a :class:`TimestampSeries` or an iterable of arrays, the
    blocks of an increasing stream, formatted ``_BLOCK`` stamps at a time.
    """
    count = 0
    with _created(path) as fh:
        for block in _blocks(stamps):
            for start in range(0, block.size, _BLOCK):
                fh.write(_format_lines(block[start:start + _BLOCK]))
            count += block.size
    return count


def write_timestamps_binary(path, stamps, count: int | None = None) -> int:
    """The header, then each timestamp as a little-endian float64; returns the count.

    ``stamps`` is a :class:`TimestampSeries` or an iterable of arrays.  The
    header takes the series' size or ``count``; if neither is known, or the
    stamps written differ from it, it is patched at the end, which needs a
    seekable file.
    """
    if isinstance(stamps, TimestampSeries):
        count = stamps.times.size
    written = 0
    with _created(path) as fh:
        fh.write(_HEADER.pack(_BINARY_MAGIC, _BINARY_VERSION, count or 0))
        for block in _blocks(stamps):
            fh.write(np.ascontiguousarray(block, dtype="<f8").data)
            written += block.size
        if written != count:
            fh.seek(0)
            fh.write(_HEADER.pack(_BINARY_MAGIC, _BINARY_VERSION, written))
    return written


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
