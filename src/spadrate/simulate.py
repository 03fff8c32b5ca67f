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

The stamps come in strictly increasing blocks (``_stamp_blocks``), which
``simulate`` joins and the CLI writes as they come: an event stop holds
one block of ``_BLOCK`` stamps at a time, but with paralysis every
detection's paralysed sum is drawn first (O(n)), and a duration stop
draws chunks sized to the detections it expects (O(n)).

Runs are reproducible: a fixed seed yields byte-identical timestamps.
The generator (numpy's PCG64) and the sampler are recorded in the series
metadata; a different sampler gives a different stream for the same seed.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .er import (ErParams, SourceParams, _rate_product, er_cumulative_hazard,
                 er_mean_on_time)
from .inference import MAX_ARRAY_LENGTH
from .paralyzing import ParalyzingParams

__all__ = [
    "SimConfig",
    "TimestampSeries",
    "simulate",
    "intervals",
]

_RNG_NAME = "numpy.random.PCG64"
_SAMPLER = "inverse-hazard"
# Draws per block: bounds scratch memory at any paralysis (larger blocks were slower and
# bigger).  Each detection's paralysed sum is added block by block, so the size fixes the bytes.
_BLOCK = 1 << 14
# Paralysed segments one call may draw: ~15-20 s at 0.014-0.019 us per draw
# (30,000 events at 6e9 /s) on a 2-vCPU x86 VM.
_MAX_PARALYZED_DRAWS = 1e9


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
    gathered by index.  Over a whole block a Newton value costs ~3.5x a series
    value, and the two orders cost the same near a quarter of the array below
    ``_G_SERIES``, so the series goes first unless at most a quarter is below.
    Every value gets the same operations as when inverted alone, block by block.
    """
    series = g < _G_SERIES
    if 4 * np.count_nonzero(series) > g.size:
        x = _reversion(g)
        rest = np.flatnonzero(~series)
        x[rest] = _newton(g[rest])
    else:
        x = _newton(np.maximum(g, _G_SERIES))
        rest = np.flatnonzero(series)
        x[rest] = _reversion(g[rest])
    return x


def _reversion(g: np.ndarray) -> np.ndarray:
    """The root below ``_G_SERIES`` (x < 0.1), s + s^2 R(s) with s = sqrt(2g), to 1 ulp."""
    # clamped and in place: with one more 128 KiB temporary per sampler block, glibc's
    # heap shrank and refaulted every block (~50k page faults at 6e9 /s, 30,000 events)
    s = np.minimum(g, _G_SERIES)
    s *= 2.0
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
    m, step = np.empty_like(g), np.empty_like(g)
    for _ in range(3):  # x -= (x + m - g) / -m with m = expm1(-x), in place
        np.expm1(np.negative(x, out=m), out=m)
        np.add(x, m, out=step)
        step -= g
        step /= m
        x += step
    return x


def _reach(n: int, r_star: float, tau_r: float,
           paralyzing: ParalyzingParams) -> tuple[float, float]:
    """r_star * tau_r and H(tau_p1) for n draws, or ValueError if the draws are out of reach."""
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
    return a, h1


def _paralysed_sums(rng: np.random.Generator, n: int, a: float, h1: float, tau_r: float,
                    paralyzing: ParalyzingParams, draws: np.ndarray) -> np.ndarray:
    """Each of n detections' paralysed time: its count times tau_p2 plus its segments.

    The segments go through blocks of ``_BLOCK`` draws, so scratch memory stays
    O(n + block) however many paralyzations a detection has.
    """
    count = rng.geometric(np.exp(-h1), n) - 1
    ends = np.cumsum(count)
    out = np.multiply(count, paralyzing.tau_p2)
    p = -np.expm1(-h1)
    for start in range(0, int(ends[-1]), _BLOCK):
        stop = min(start + _BLOCK, int(ends[-1]))
        # held: the detections of first..last with segments here, at most _BLOCK of them,
        # in runs of their counts with the end runs clipped; bincount sums each from 0.0
        first, last = np.searchsorted(ends, [start, stop - 1], side="right")
        held = first + np.flatnonzero(count[first:last + 1])
        runs = count[held]
        runs[0] = ends[first] - start
        runs[-1] -= ends[last] - stop
        u = rng.random(out=draws[:stop - start])
        np.log1p(np.multiply(u, -p, out=u), out=u)  # -log1p(-p u) / a as log1p(-p u) / -a
        u /= -a
        seg = _inverse_hazard(u)  # then the labels, in scratch it freed (see _reversion)
        owner = np.repeat(np.arange(runs.size), runs)
        sums = np.bincount(owner, weights=seg)
        sums *= tau_r
        out[held] += sums
    return out


def _on_time_blocks(rng: np.random.Generator, n: int, a: float, h1: float, tau_r: float,
                    paralyzing: ParalyzingParams) -> Iterator[np.ndarray]:
    """n independent detector-on times, in blocks of ``_BLOCK``, by inverting the integrated hazard.

    With paralysis (h1 > 0) the generator draws every paralysed segment before
    the first detected one, so each detection's paralysed sum is held for all n
    detections before the first block: O(n) memory.  Without, O(block).
    """
    draws = np.empty(_BLOCK)  # refilled by rng.random and rng.standard_exponential
    paralysed = None
    if h1 > 0:
        with np.errstate(over="ignore"):  # past the float range an on-time becomes inf
            paralysed = _paralysed_sums(rng, n, a, h1, tau_r, paralyzing, draws)
    for start in range(0, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        e = rng.standard_exponential(out=draws[:stop - start])
        with np.errstate(over="ignore"):
            e += h1
            e /= a
            x = _inverse_hazard(e)
            x *= tau_r  # in place: one more 128 KiB temporary made glibc refault the heap per block
            if paralysed is not None:
                x += paralysed[start:stop]
        yield x


def _sample_on_times(
    rng: np.random.Generator,
    n: int,
    r_star: float,
    tau_r: float,
    paralyzing: ParalyzingParams,
) -> np.ndarray:
    """Draw n independent detector-on times: the blocks of :func:`_on_time_blocks` in one array."""
    a, h1 = _reach(n, r_star, tau_r, paralyzing)
    out = np.empty(n)
    for start, x in zip(range(0, n, _BLOCK), _on_time_blocks(rng, n, a, h1, tau_r, paralyzing)):
        out[start:start + x.size] = x
    return out


def _check_increasing(block: np.ndarray, last: float) -> None:
    if not (block[0] > last and np.all(block[1:] > block[:-1])):
        raise ValueError("timestamps must be strictly increasing")


def _event_stamps(config: SimConfig, r_star: float, a: float, h1: float) -> Iterator[np.ndarray]:
    """The stamps of an event stop, one block of on-times at a time.

    Each block of intervals (tau_d plus an on-time) is summed on from the
    previous block's last stamp: numpy's running sum adds in order, so the
    blocks repeat the running sum over all n intervals bit for bit.
    """
    n, tau_r = config.n_events, config.er.tau_r
    carry, last = 0.0, -np.inf
    for on in _on_time_blocks(np.random.default_rng(config.seed), n, a, h1, tau_r,
                              config.paralyzing):
        with np.errstate(over="ignore"):  # past the float range a stamp becomes inf
            on += config.er.tau_d
            on[0] += carry
            np.cumsum(on, out=on)
        if not np.isfinite(on[-1]):
            raise ValueError(
                f"{n} detections pass the float range of timestamps "
                f"({np.finfo(float).max:.3g} s) at a mean on-time of "
                f"{_mean_on_time(r_star, tau_r, config.paralyzing):.3g} s"
            )
        _check_increasing(on, last)
        carry = last = on[-1]
        yield on


def _duration_stamps(config: SimConfig, r_star: float) -> Iterator[np.ndarray]:
    """The stamps of a duration stop: chunks of on-times until their sum passes the duration.

    Each chunk is drawn whole, sized at 1.2 times the detections expected in
    the time left, so memory is O(chunk) and the first chunk is about the
    whole run.  A stamp past the duration, or past the float range (inf), is
    dropped.
    """
    rng = np.random.default_rng(config.seed)
    tau_d, tau_r = config.er.tau_d, config.er.tau_r
    mean_interval = tau_d + _mean_on_time(r_star, tau_r, config.paralyzing)
    elapsed, carry, last = 0.0, 0.0, -np.inf
    while elapsed < config.duration:
        with np.errstate(over="ignore"):
            remaining = config.duration - elapsed
            expected = 1.2 * remaining / mean_interval
            if expected == np.inf:  # 1.2 * remaining passed the float range: divide first
                expected = 1.2 * (remaining / mean_interval)
        if expected > MAX_ARRAY_LENGTH:  # inf where the count passes the float range
            raise ValueError(f"duration {config.duration:g} s expects {expected / 1.2:.3g} "
                             f"detections, more than the {MAX_ARRAY_LENGTH} one array can hold")
        on = _sample_on_times(rng, max(1024, int(expected)), r_star, tau_r, config.paralyzing)
        with np.errstate(over="ignore"):
            on += tau_d
            elapsed += float(on.sum())
            on[0] += carry
            np.cumsum(on, out=on)
        carry = on[-1]
        on = on[on <= config.duration]
        if on.size:
            _check_increasing(on, last)
            last = on[-1]
            yield on


def _stamp_blocks(config: SimConfig) -> Iterator[np.ndarray]:
    """The stamps of a run in strictly increasing blocks, from a configuration checked at once.

    An event stop yields blocks of ``_BLOCK`` stamps and holds O(block)
    memory, O(n) with paralysis (:func:`_on_time_blocks`); a duration stop
    yields its chunks (:func:`_duration_stamps`).  A stream that passes the
    float range or stops increasing raises ValueError at the block where it does.
    """
    r_star = config.apriori_rate()
    if config.n_events is not None:
        if r_star <= 0:
            raise ValueError(
                "cannot reach the target event count: a priori rate is zero"
            )
        a, h1 = _reach(config.n_events, r_star, config.er.tau_r, config.paralyzing)
        return _event_stamps(config, r_star, a, h1)
    if r_star <= 0:
        return iter(())
    return _duration_stamps(config, r_star)


def simulate(config: SimConfig) -> TimestampSeries:
    """Generate a timestamp series under the configured model.

    Inter-detection intervals are independent draws of tau_d plus a
    detector-on time; timestamps are the running sum of those intervals
    (an unrecorded detection is imagined at t = 0).  The series joins the
    blocks of :func:`_stamp_blocks`.
    """
    times = np.concatenate([np.empty(0), *_stamp_blocks(config)])
    return TimestampSeries(times=times, metadata={
        "generator": _RNG_NAME,
        "seed": config.seed,
        "sampler": _SAMPLER,
    })


def intervals(series) -> np.ndarray:
    """Consecutive differences of a series; empty for fewer than 2 stamps."""
    times = series.times if isinstance(series, TimestampSeries) else np.asarray(series, dtype=float)
    return np.diff(times)
