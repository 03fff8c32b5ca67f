"""Seeded Monte Carlo generation of detection timestamps.

Detector-on times are drawn exactly by inverting the integrated hazard
H(t) = r_star * tau_r * (x + expm1(-x)), x = t / tau_r, at a unit
exponential: x + expm1(-x) = E / (r_star * tau_r) is solved by a fixed
three Newton steps, accurate to a few ulp at every rate.

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

from .er import (_SERIES, ErParams, SourceParams, _rate_product, er_cumulative_hazard,
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
# The CSV writer formats timestamps in blocks of the same size.
_BLOCK = 1 << 14
# Paralysed segments one call may draw: ~1.5 minutes at ~0.07-0.10 us per
# draw on a 2-vCPU x86 VM.
_MAX_PARALYZED_DRAWS = 1e9
# x + expm1(-x) at x = 0.1, where the direct form starts losing digits.
_G_SERIES = 0.1 + np.expm1(-0.1)
# Values per Newton pass of _inverse_hazard: 2^13 was faster than both 2^12
# and a whole block of 2^14 on the same VM.
_CHUNK = 1 << 13
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
        if times.size > 1 and not np.all(np.diff(times) > 0):
            raise ValueError("timestamps must be strictly increasing")


def _mean_on_time(r_star: float, tau_r: float, paralyzing: ParalyzingParams) -> float:
    """Exact mean of the sampled on-time, e^H1 <t>_er + expm1(H1) tau_p2, H1 = H(tau_p1)."""
    h1 = er_cumulative_hazard(paralyzing.tau_p1, r_star, tau_r)
    return np.exp(h1) * er_mean_on_time(r_star, tau_r) + np.expm1(h1) * paralyzing.tau_p2


def _inverse_hazard(g: np.ndarray) -> np.ndarray:
    """The x >= 0 with x + expm1(-x) = g, by three Newton steps.

    Starts from the small-g series s + s^2/6 + s^3/72 (s = sqrt(2g)) below
    g = 2 and from g + 1 above.  Where the root is below x = 0.1 the left
    side is the ten-term series of ``er._SERIES``; g = 0 gives 0.  Each
    regime of each chunk of ``_CHUNK`` values is iterated as one compact
    array, and every value gets the same operations as when inverted alone.
    """
    x = np.empty_like(g)
    for start in range(0, g.size, _CHUNK):
        gc, xc = g[start:start + _CHUNK], x[start:start + _CHUNK]
        series = gc < _G_SERIES
        if series.all() or not series.any():
            xc[:] = _newton(gc, series[0])
        else:
            xc[series] = _newton(gc[series], True)
            xc[~series] = _newton(gc[~series], False)
    return x


def _newton(g: np.ndarray, series: bool) -> np.ndarray:
    """``_inverse_hazard`` on values of one regime: all below ``_G_SERIES`` or none."""
    x = g + 1.0
    small = g < 2.0
    s = np.sqrt(2.0 * g[small])
    x[small] = s * (1.0 + s * (1.0 / 6.0 + s / 72.0))
    for _ in range(3):
        m = np.expm1(-x)
        if series:  # (x*x) * np.polyval(_SERIES, x), in polyval's order
            f = np.full(x.size, _SERIES[0])
            for c in _SERIES[1:]:
                f *= x
                f += c
            f *= x * x
        else:
            f = x + m
        x -= (f - g) / np.maximum(-m, np.finfo(float).tiny)  # 0/0 at g = 0
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
    out = np.zeros(n)
    if h1 > 0:
        per_detection = np.expm1(h1)
        if n * per_detection > _MAX_PARALYZED_DRAWS:
            raise ValueError(
                f"paralyzing configuration out of reach: {per_detection:.3g} paralyzations "
                f"expected per detection, {n * per_detection:.3g} for {n} detections "
                f"(limit {_MAX_PARALYZED_DRAWS:.0e})"
            )
        count = rng.geometric(np.exp(-h1), n) - 1
        ends = np.cumsum(count)
        out = count * paralyzing.tau_p2
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
        times = np.cumsum(on + tau_d)
        return TimestampSeries(times=times, metadata=metadata)

    # Duration stop: draw in chunks until the clock passes the target.
    if r_star <= 0:
        return TimestampSeries(times=np.empty(0), metadata=metadata)
    chunks: list[np.ndarray] = []
    elapsed = 0.0
    mean_interval = tau_d + _mean_on_time(r_star, tau_r, config.paralyzing)
    while True:
        chunk_n = max(1024, int(1.2 * (config.duration - elapsed) / mean_interval))
        on = _sample_on_times(rng, chunk_n, r_star, tau_r, config.paralyzing)
        chunks.append(on + tau_d)
        elapsed += float(chunks[-1].sum())
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


def read_timestamps_csv(path) -> np.ndarray:
    """Timestamps of a CSV file; an empty file gives an empty array.

    A malformed file raises :class:`DegenerateDataError` naming the path.
    """
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
        payload = fh.read(8 * count)
    return np.frombuffer(payload, dtype="<f8").astype(float)
