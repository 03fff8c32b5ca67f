"""Seeded Monte Carlo generation of detection timestamps.

Detector-on times are sampled by thinning: candidate arrivals are drawn
at the constant majorant rate r_star and each candidate at elapsed time t
since recovery start is accepted with probability eta(t)/eta0
= 1 - exp(-t/tau_r).  This is exact for any efficiency bounded by eta0
and needs no per-sample root finding.

With paralyzing dynamics enabled, an accepted avalanche earlier than
tau_p1 after recovery start produces no timestamp: it adds its own delay
plus tau_p2 to the running insensitive period and recovery restarts from
zero efficiency.  This micro-dynamic reading of the mean-level extension
treats the quench as recharging the excess bias from scratch.

Runs are reproducible: a fixed seed yields byte-identical timestamps.
The generator is numpy's PCG64, recorded in the series metadata.
"""

from __future__ import annotations

import struct
from dataclasses import asdict, dataclass, field
from typing import Any

import numpy as np

from .er import ErParams, SourceParams
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
_BINARY_MAGIC = b"SPTS"
_BINARY_VERSION = 1
_HEADER = struct.Struct("<4sIQ")  # magic, version, count: 16 bytes


@dataclass(frozen=True)
class SimConfig:
    er: ErParams
    source: SourceParams
    paralyzing: ParalyzingParams | None = None
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

    def to_dict(self) -> dict[str, Any]:
        out = asdict(self)
        return out


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


def _sample_on_times(
    rng: np.random.Generator,
    n: int,
    r_star: float,
    tau_r: float,
    paralyzing: ParalyzingParams | None,
) -> np.ndarray:
    """Draw n independent detector-on times by vectorised thinning."""
    scale = 1.0 / r_star
    t_local = np.zeros(n)  # elapsed time since current recovery start
    prolong = np.zeros(n)  # accumulated paralyzation prolongations
    out = np.empty(n)
    active = np.arange(n)
    par = paralyzing if paralyzing is not None and paralyzing.tau_p1 > 0 else None
    while active.size:
        tl = t_local[active] + rng.exponential(scale, active.size)
        accept = rng.random(active.size) < -np.expm1(-tl / tau_r)
        if par is not None:
            paralyzed = accept & (tl < par.tau_p1)
            detected = accept & ~paralyzed
            prolong[active[paralyzed]] += tl[paralyzed] + par.tau_p2
            tl = np.where(paralyzed, 0.0, tl)
        else:
            detected = accept
        t_local[active] = tl
        idx = active[detected]
        out[idx] = prolong[idx] + tl[detected]
        active = active[~detected]
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
        "config": config.to_dict(),
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
    rough_interval = tau_d + 1.0 / r_star
    while True:
        chunk_n = max(1024, int(1.2 * (config.duration - elapsed) / rough_interval))
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


def write_timestamps_csv(path, series: TimestampSeries) -> None:
    times = series.times
    with open(path, "w") as fh:
        for t in times:
            fh.write(f"{t:.17g}\n")


def read_timestamps_csv(path) -> np.ndarray:
    data = np.loadtxt(path, dtype=float, ndmin=1)
    return data


def write_timestamps_binary(path, series: TimestampSeries) -> None:
    times = np.ascontiguousarray(series.times, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_BINARY_MAGIC, _BINARY_VERSION, times.size))
        fh.write(times.tobytes())


def read_timestamps_binary(path) -> np.ndarray:
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise ValueError(f"{path}: truncated header")
        magic, version, count = _HEADER.unpack(header)
        if magic != _BINARY_MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        if version != _BINARY_VERSION:
            raise ValueError(f"{path}: unsupported version {version}")
        payload = fh.read(8 * count)
    if len(payload) != 8 * count:
        raise ValueError(f"{path}: truncated payload")
    return np.frombuffer(payload, dtype="<f8").astype(float)
