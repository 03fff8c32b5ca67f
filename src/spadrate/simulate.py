"""Seeded Monte Carlo generation of detection timestamps.

Detector-on times are drawn exactly by inverting the integrated hazard
H(t) = r_star * tau_r * (x + expm1(-x)), x = t / tau_r, at a unit
exponential: x + expm1(-x) = E / (r_star * tau_r) is solved by its
reversion series below x = 0.1 and by a fixed three Newton steps above,
accurate to a few ulp at every rate.

With paralyzing dynamics enabled, an avalanche earlier than tau_p1 after
recovery start produces no timestamp: it adds its own delay plus tau_p2
to the running insensitive period and recovery restarts from zero
efficiency.  This micro-dynamic reading of the mean-level extension
treats the quench as recharging the excess bias from scratch.  With
H1 = H(tau_p1), the number of paralyzations before a detection is
geometric with success probability exp(-H1), each paralysed segment is
H's inverse at a unit exponential truncated to [0, H1], and the detected
segment is H's inverse at H1 + E, so no draw is ever rejected.

Runs are reproducible: a fixed seed yields byte-identical timestamps.
The generator (numpy's PCG64) and the sampler are recorded in the series
metadata; a different sampler gives a different stream for the same seed.
"""

from __future__ import annotations

import os
import struct
import warnings
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .er import (ErParams, SourceParams, _rate_product, er_cumulative_hazard,
                 er_mean_on_time)
from .exceptions import DegenerateDataError
from .paralyzing import ParalyzingParams

__all__ = [
    "SimConfig",
    "TimestampSeries",
    "simulate",
    "intervals",
    "write_timestamps_csv",
    "read_timestamps_csv",
    "write_timestamps_binary",
    "read_timestamps_binary",
]

_RNG_NAME = "numpy.random.PCG64"
_SAMPLER = "inverse-hazard"
# Draws per block: bounds the sampler's scratch memory whatever the number
# of paralyzations per detection; larger blocks were both slower and bigger.
# The CSV writer formats timestamps in blocks of the same size; the reader
# parses the lines of each ``_READ`` bytes it reads instead.
_BLOCK = 1 << 14
# Paralysed segments one call may draw: ~25 s at 0.022-0.033 us per draw
# (30,000 events at 6e9 /s) on a 2-vCPU x86 VM.
_MAX_PARALYZED_DRAWS = 1e9
_BINARY_MAGIC = b"SPTS"
_BINARY_VERSION = 1
_HEADER = struct.Struct("<4sIQ")  # magic, version, count: 16 bytes


@dataclass(frozen=True)
class SimConfig:
    """A simulation run; the default ``ParalyzingParams()``, tau_p1 = 0, has no paralyzing."""

    er: ErParams
    source: SourceParams
    paralyzing: ParalyzingParams = ParalyzingParams()
    n_events: int | None = None
    duration: float | None = None
    seed: int = 0

    def __post_init__(self):
        if (self.n_events is None) == (self.duration is None):
            raise ValueError("specify exactly one of n_events or duration")
        if self.n_events is not None and self.n_events <= 0:
            raise ValueError(f"n_events must be positive, got {self.n_events}")
        if self.duration is not None and not 0 < self.duration < np.inf:
            raise ValueError(f"duration must be finite and positive, got {self.duration}")

    def apriori_rate(self) -> float:
        return self.source.apriori_rate(self.er)


@dataclass(frozen=True)
class TimestampSeries:
    """Strictly increasing detection times plus provenance metadata."""

    times: np.ndarray
    metadata: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        object.__setattr__(self, "times", times)
        if times.ndim != 1:
            raise ValueError("times must be one-dimensional")
        if not np.all(times[1:] > times[:-1]):
            raise ValueError("timestamps must be strictly increasing")


def _mean_on_time(r_star: float, tau_r: float, paralyzing: ParalyzingParams) -> float:
    """Exact mean of the sampled on-time, e^H1 <t>_er + expm1(H1) tau_p2, H1 = H(tau_p1).

    inf where e^H1 overflows: the detector is fully paralysed.
    """
    h1 = er_cumulative_hazard(paralyzing.tau_p1, r_star, tau_r)
    with np.errstate(over="ignore"):
        scale, count = np.exp(h1), np.expm1(h1)
    if count == np.inf:
        return np.inf
    return scale * er_mean_on_time(r_star, tau_r) + count * paralyzing.tau_p2


# x + expm1(-x) at x = 0.1, where the direct form starts losing digits.
_G_SERIES = 0.1 + np.expm1(-0.1)
# x + expm1(-x) = g inverts as x = s + s^2 R(s), s = sqrt(2g): R's coefficients,
# highest first, are those of s^10 down to s^2 in the exact reversion of the
# Taylor series; the first term left out is < 7e-18 of x below _G_SERIES.
_REVERSION = (281 / 1515591000, -571 / 2351462400, -1 / 204120, -139 / 5443200,
              -1 / 17010, 1 / 4320, 1 / 270, 1 / 36, 1 / 6)


def _inverse_hazard(g: np.ndarray) -> np.ndarray:
    """The x >= 0 with x + expm1(-x) = g, by :func:`_reversion` or :func:`_newton`.

    The reversion series takes g below ``_G_SERIES``, Newton the rest.  One
    regime runs over the whole array, its input clamped to its own side of
    ``_G_SERIES`` (unclamped, the series overflows near g = 1e300 and Newton
    divides 0 by 0 at g = 0); the other then overwrites its own values,
    gathered by index.  A Newton value costs ~3x a series value, so the
    series goes first unless at most a quarter of the array is below
    ``_G_SERIES``.  Every value gets the same operations as when inverted
    alone; the sampler passes one block of its draws at a time.
    """
    series = g < _G_SERIES
    if 4 * np.count_nonzero(series) > g.size:
        x = _reversion(np.minimum(g, _G_SERIES))
        rest = np.flatnonzero(~series)
        x[rest] = _newton(g[rest])
    else:
        x = _newton(np.maximum(g, _G_SERIES))
        rest = np.flatnonzero(series)
        x[rest] = _reversion(g[rest])
    return x


def _reversion(g: np.ndarray) -> np.ndarray:
    """The root below ``_G_SERIES`` (x < 0.1), s + s^2 R(s) with s = sqrt(2g), to 1 ulp."""
    # in place: with one more 128 KiB temporary per sampler block, glibc's heap
    # shrank and refaulted every block (~50k page faults at 6e9 /s, 30,000 events)
    s = 2.0 * g
    np.sqrt(s, out=s)
    y = s * _REVERSION[0]
    for c in _REVERSION[1:]:
        y += c
        y *= s
    y *= s
    y += s
    return y


def _newton(g: np.ndarray) -> np.ndarray:
    """The root from ``_G_SERIES`` up (x >= 0.1), by three Newton steps from a closed-form start."""
    x = g + 1.0
    small = g < 2.0
    s = np.sqrt(2.0 * g[small])
    x[small] = s * (1.0 + s * (1.0 / 6.0 + s / 72.0))
    for _ in range(3):
        m = np.expm1(-x)
        x -= (x + m - g) / -m
    return x


def _sample_on_times(
    rng: np.random.Generator,
    n: int,
    r_star: float,
    tau_r: float,
    paralyzing: ParalyzingParams,
) -> np.ndarray:
    """Draw n independent detector-on times by inverting the integrated hazard.

    Every draw goes through blocks of ``_BLOCK``, so scratch memory stays
    O(n + block) however many paralyzations a detection has.
    """
    a = _rate_product(r_star, tau_r)
    h1 = er_cumulative_hazard(paralyzing.tau_p1, r_star, tau_r)
    with np.errstate(over="ignore"):
        per_detection = np.expm1(h1)
    if n * per_detection > _MAX_PARALYZED_DRAWS:
        raise ValueError(
            f"paralyzing configuration out of reach: {per_detection:.3g} paralyzations "
            f"expected per detection, {n * per_detection:.3g} for {n} detections "
            f"(limit {_MAX_PARALYZED_DRAWS:.0e})"
        )
    # (h1 + E) / a must stay finite: numpy's exponentials E <= 7.697 - log(2**-53) = 44.43
    lowest = (h1 + 45.0) / np.finfo(float).max
    if a < lowest:
        raise ValueError(f"r_star*tau_r = {a:g} is too small to sample: the on-time draws "
                         f"overflow a float below r_star*tau_r = {lowest:.3g}")
    out = np.zeros(n)
    if h1 > 0:
        count = rng.geometric(np.exp(-h1), n) - 1
        ends = np.cumsum(count)
        np.multiply(count, paralyzing.tau_p2, out=out)
        p = -np.expm1(-h1)
        for start in range(0, int(ends[-1]), _BLOCK):
            stop = min(start + _BLOCK, int(ends[-1]))
            # segment start + i belongs to detection first + owner[i], where
            # owner[i] counts the detections first..last - 1 ended by then
            first, last = np.searchsorted(ends, [start, stop - 1], side="right")
            owner = np.cumsum(np.bincount(ends[first:last] - start, minlength=stop - start))
            seg = _inverse_hazard(-np.log1p(-p * rng.random(stop - start)) / a)
            out[first:last + 1] += tau_r * np.bincount(owner, weights=seg)
    for start in range(0, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        e = rng.standard_exponential(stop - start)
        out[start:stop] += tau_r * _inverse_hazard((h1 + e) / a)
    return out


def simulate(config: SimConfig) -> TimestampSeries:
    """Generate a timestamp series under the configured model.

    Inter-detection intervals are independent draws of tau_d plus a
    detector-on time; timestamps are the running sum of those intervals
    (an unrecorded detection is imagined at t = 0).
    """
    rng = np.random.default_rng(config.seed)
    r_star = config.apriori_rate()
    tau_d = config.er.tau_d
    tau_r = config.er.tau_r
    metadata = {
        "generator": _RNG_NAME,
        "seed": config.seed,
        "sampler": _SAMPLER,
    }

    if config.n_events is not None:
        if r_star <= 0:
            raise ValueError(
                "cannot reach the target event count: a priori rate is zero"
            )
        on = _sample_on_times(rng, config.n_events, r_star, tau_r, config.paralyzing)
        on += tau_d
        np.cumsum(on, out=on)
        return TimestampSeries(times=on, metadata=metadata)

    # Duration stop: draw in chunks until the clock passes the target.
    if r_star <= 0:
        return TimestampSeries(times=np.empty(0), metadata=metadata)
    chunks: list[np.ndarray] = []
    elapsed = 0.0
    mean_interval = tau_d + _mean_on_time(r_star, tau_r, config.paralyzing)
    while True:
        chunk_n = max(1024, int(1.2 * (config.duration - elapsed) / mean_interval))
        on = _sample_on_times(rng, chunk_n, r_star, tau_r, config.paralyzing)
        on += tau_d
        chunks.append(on)
        elapsed += float(on.sum())
        if elapsed >= config.duration:
            break
    times = np.cumsum(np.concatenate(chunks))
    times = times[times <= config.duration]
    return TimestampSeries(times=times, metadata=metadata)


def intervals(series) -> np.ndarray:
    """Consecutive differences of a series; empty for fewer than 2 stamps."""
    times = series.times if isinstance(series, TimestampSeries) else np.asarray(series, dtype=float)
    return np.diff(times)


def _line_templates() -> tuple[np.ndarray, np.ndarray]:
    """Byte sources of the ``%.17g`` lines and the bytes each line keeps.

    A line is gathered from a row of the 17 digits followed by the bytes of
    ``_LITERALS``.  ``template[E - _E_MIN]`` lists the row positions of the
    line of a value with decimal exponent E showing all 17 digits, padded to
    one width, with its suffix (the newline, after ``e-05`` in the
    exponential form) in the last columns.  ``keep[18 * (E - _E_MIN) + nd]``
    marks the columns left when the value has nd significant digits: the
    trailing zeros, a bare decimal point and the padding are dropped.
    """
    lit = {chr(c): 17 + i for i, c in enumerate(_LITERALS)}
    width = 23  # the longest line, 0.000 and 17 digits, and its newline
    template = np.full((_E_MAX - _E_MIN + 1, width), lit["\n"], dtype=np.intp)
    cut = np.zeros((_E_MAX - _E_MIN + 1, 18), dtype=np.intp)
    suffix = np.full(_E_MAX - _E_MIN + 1, width - 1, dtype=np.intp)
    nd = np.arange(18)
    for e in range(_E_MIN, _E_MAX + 1):
        i = e - _E_MIN
        if e >= 0:  # fixed: all integer digits, then any fraction
            body = [*range(e + 1), lit["."], *range(e + 1, 17)]
            cut[i] = np.where(nd > e + 1, nd + 1, e + 1)
        elif e >= -4:  # fixed: 0.000ddd
            body = [lit["0"], lit["."], *[lit["0"]] * (-e - 1), *range(17)]
            cut[i] = 1 - e + nd
        else:  # exponential: d.ddde-05
            body = [0, lit["."], *range(1, 17)]
            cut[i] = np.where(nd > 1, nd + 1, 1)
            suffix[i] = width - 5
            template[i, suffix[i]:-1] = [lit["e"], lit["-"], lit["0"], lit[str(-e)]]
        template[i, :len(body)] = body
    cols = np.arange(width)
    keep = (cols < cut[:, :, None]) | (cols >= suffix[:, None, None])
    return template, keep.reshape(-1, width)


# Exact range of the line kernel: 10**(16 - E) is an exact double for E >= -6.
_E_MIN, _E_MAX = -6, 16
_LITERALS = b".0e-56\n"
_POW10 = np.array([float(10 ** k) for k in range(16 - _E_MIN + 1)])
_SPLITTER = 2.0 ** 27 + 1.0  # Veltkamp: splits a double into two 26-bit halves
# The four ASCII digits of 0..9999, one uint32 each, in memory order.  Built
# in uint16 to keep its temporaries small.
_DIGITS4 = (np.arange(10_000, dtype=np.uint16)[:, None]
            // np.array([1000, 100, 10, 1], dtype=np.uint16) % 10
            + ord("0")).astype(np.uint8).view(np.uint32).ravel()
_TEMPLATE, _KEEP = _line_templates()

# The CSV reader works on uint64 words, and every constant they meet is a
# uint64 too: numpy 1.x turns uint64 mixed with int64 into float64.
_U = np.uint64
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
    The digits are laid out in ``%g``'s fixed form for -4 <= E < 17 and its
    exponential form below, trailing zeros stripped.
    """
    if not np.all((x > 1e-6) & (x < 1e17)):
        return "".join(f"{t:.17g}\n" for t in x.tolist()).encode()
    e = np.clip(np.floor(np.log10(x)).astype(np.int64), _E_MIN, _E_MAX)
    p, err = _two_product(x, _POW10[16 - e])
    shift = ((p > 1e17) | ((p == 1e17) & (err >= 0))).astype(np.int64)
    shift -= (p < 1e16) | ((p == 1e16) & (err < 0))
    redo = np.flatnonzero(shift)
    if redo.size:
        e[redo] += shift[redo]
        p[redo], err[redo] = _two_product(x[redo], _POW10[16 - e[redo]])
    below = np.floor(err)
    digits = p.astype(np.int64) + below.astype(np.int64)
    frac = err - below
    digits += (frac > 0.5) | ((frac == 0.5) & (digits % 2 == 1))
    carry = digits == 10 ** 17
    digits[carry] = 10 ** 16
    e += carry

    high = digits // 10 ** 8  # the first 9 digits; both halves fit int32
    low = (digits - high * 10 ** 8).astype(np.int32)
    high = high.astype(np.int32)
    lead = high // 10 ** 8
    mid = high - lead * 10 ** 8
    groups = np.stack([mid // 10 ** 4, mid % 10 ** 4, low // 10 ** 4, low % 10 ** 4], axis=1)
    source = np.empty((x.size, 17 + len(_LITERALS)), dtype=np.uint8)
    source[:, 0] = lead + ord("0")
    source[:, 1:17] = _DIGITS4[groups].view(np.uint8)
    source[:, 17:] = np.frombuffer(_LITERALS, dtype=np.uint8)
    n_digits = 17 - np.argmax(source[:, 16::-1] != ord("0"), axis=1)
    row = e - _E_MIN
    if row.min() == row.max():  # one exponent, as in most blocks of sorted timestamps
        lines = source[:, _TEMPLATE[row[0]]]
    else:
        lines = np.take_along_axis(source, _TEMPLATE[row], axis=1)
    return lines[_KEEP.take(18 * row + n_digits, axis=0)].tobytes()


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
