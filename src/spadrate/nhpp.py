"""Non-homogeneous Poisson process machinery for dead-time-limited detectors.

A detector that recovers after each dead-time window is described by a
time-dependent efficiency eta(t), with t measured from the end of the
dead-time.  Photon arrivals at rate r_i then trigger detections as a
non-homogeneous Poisson process with intensity lambda(t) = r_i * eta(t),
so the probability of surviving undetected until t is

    ccdf(t) = exp(-r_i * integral_0^t eta) ,

the detector-on time has density r_i * eta(t) * ccdf(t), and the measured
rate follows from the mean detector-on time via rate = 1/(<t> + tau_d).

Everything here is generic over the recovery shape; the exponential
specialisation lives in :mod:`spadrate.er`.  :func:`invert_rate` is the
generic rate inverse (bracket expansion, then bisection in log rate); the
exponential-recovery inverse ``er.er_rate_inverse`` has its own solver and
does not call it.  The module runs on numpy alone: its integrals sum one
48-point Gauss-Legendre rule per panel, exact for polynomials of degree 95,
so they hold for efficiencies smooth within each panel and, unlike adaptive
quadrature, make no convergence check.  The panels lie on one halving grid,
end * 2^-60 ... end, so a recovery knee anywhere below the end lies in a
panel [u, 2u].  Through the closed-form or the numeric cumulative, the
exponential-recovery mean is within 1e-15 of ``er.er_mean_on_time`` for
r_i * tau_r in [1e-8, 1e8].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .exceptions import IntegrationError, SaturationError

__all__ = [
    "EfficiencyProfile",
    "constant_profile",
    "profile_from_efficiency",
    "nhpp_ccdf",
    "nhpp_pdf",
    "mean_on_time",
    "rate_forward",
    "simple_rate_inverse",
    "invert_rate",
]

# Survival mass dropped beyond the end of the mean's integral:
# exp(-45) ~ 2.9e-20, negligible against the rule's ~1e-16.
_MAX_HAZARD = 45.0
# Breakpoints t * 2^-60 ... t: a recovery knee anywhere below t lies in a panel [u, 2u].
_HALVINGS = 2.0 ** np.arange(-60, 1)
_GL_X, _GL_W = np.polynomial.legendre.leggauss(48)


def _weighted_nodes(f: Callable, points) -> np.ndarray:
    """Weighted terms of one 48-point rule per panel; f gets the (panels, 48) nodes."""
    points = np.asarray(points, dtype=float)
    half = 0.5 * np.diff(points)[:, None]
    t = points[:-1, None] + half * (_GL_X + 1.0)
    return half * _GL_W * f(t)


def _gauss_legendre(f: Callable, points) -> float:
    """Sum of one 48-point Gauss-Legendre rule per panel; f gets a (panels, 48) array."""
    return float(np.sum(_weighted_nodes(f, points)))


@dataclass(frozen=True)
class EfficiencyProfile:
    """Time-dependent detector efficiency with its exact running integral.

    ``efficiency(t)`` must lie in [0, 1] for t >= 0 and ``cumulative(t)``
    must equal the integral of the efficiency from 0 to t (closed form
    where available, quadrature otherwise).  Both callables are expected
    to broadcast over numpy arrays.
    """

    efficiency: Callable
    cumulative: Callable


def constant_profile(eta0: float) -> EfficiencyProfile:
    """Instantaneous recovery: eta(t) = eta0 for all t."""
    if not 0 < eta0 <= 1:
        raise ValueError(f"eta0 must be in (0, 1], got {eta0}")
    return EfficiencyProfile(
        efficiency=lambda t: np.asarray(t, dtype=float) * 0.0 + eta0,
        cumulative=lambda t: eta0 * np.asarray(t, dtype=float),
    )


def profile_from_efficiency(efficiency: Callable) -> EfficiencyProfile:
    """Wrap a bare efficiency function, integrating it numerically.

    The cumulative integrates every requested time in one pass: panels on
    0, the halving grid max(t) * 2^-60 ... max(t) and the requested times
    themselves, one efficiency call on all their nodes, and a running sum
    of the panel integrals read off at each time.  No convergence check
    (module docstring); the mean of the exponential recovery through this
    cumulative is within 1e-15 of ``er.er_mean_on_time``.
    """
    def cumulative(t):
        arr = np.asarray(t, dtype=float)
        top = arr.max(initial=0.0, where=np.isfinite(arr))
        points, index = np.unique(np.concatenate((arr.ravel(), [0.0], top * _HALVINGS)),
                                  return_inverse=True)
        running = np.cumsum(_weighted_nodes(efficiency, points).sum(axis=1))
        out = np.append(0.0, running)[index[:arr.size]]
        return np.reshape(out, arr.shape)[()]  # a scalar for a scalar t

    return EfficiencyProfile(efficiency=efficiency, cumulative=cumulative)


def _check_domain(t, r_i: float) -> None:
    if r_i < 0:
        raise ValueError(f"rate must be non-negative, got {r_i}")
    if np.any(np.asarray(t) < 0):
        raise ValueError("time must be non-negative")


def nhpp_ccdf(profile: EfficiencyProfile, r_i: float, t):
    """Probability of no detection in [0, t] since the recovery start.

    Equals exp(-r_i * cumulative(t)); always in (0, 1].
    """
    _check_domain(t, r_i)
    return np.exp(-r_i * profile.cumulative(t))


def nhpp_pdf(profile: EfficiencyProfile, r_i: float, t):
    """Density of the detector-on time: r_i * eta(t) * ccdf(t)."""
    _check_domain(t, r_i)
    return r_i * profile.efficiency(t) * np.exp(-r_i * profile.cumulative(t))


def _bisect(f: Callable, lo: float, hi: float, width: float) -> float:
    """Midpoint of a bracket of the root of increasing f, halved down to width.

    At most 100 halvings, so a bracket that cannot shrink that far ends too.
    """
    for _ in range(100):
        if hi - lo <= width:
            break
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def mean_on_time(profile: EfficiencyProfile, r_i: float) -> float:
    """Mean detector-on time, integral of t * pdf(t) over [0, inf).

    The integral ends where the hazard r_i * cumulative(t) first reaches 45
    on the doubling ladder 45 / r_i * 2^k (eta <= 1, so not sooner), which
    drops a tail below exp(-45); it sums Gauss-Legendre panels halving from
    that end towards 0.  Within 1e-15 of ``er.er_mean_on_time`` for
    r_i * tau_r in [1e-8, 1e8].  A density that rises and falls within a
    small fraction of its distance from 0 (a long delay, then a sharp
    recovery at a high rate) falls inside one panel and is not resolved.
    """
    if r_i <= 0:
        raise ValueError("mean detector-on time diverges for non-positive rate")
    end = _MAX_HAZARD / r_i
    for _ in range(600):
        if r_i * profile.cumulative(end) >= _MAX_HAZARD:
            break
        end *= 2.0
    else:
        raise IntegrationError(
            "cumulative efficiency integral does not appear to diverge; "
            f"hazard still below {_MAX_HAZARD:g} at t = {end:.3e} s"
        )
    f = lambda t: t * r_i * profile.efficiency(t) * np.exp(-r_i * profile.cumulative(t))
    return _gauss_legendre(f, np.append(0.0, end * _HALVINGS))


def rate_forward(mean_on: float, tau_d: float) -> float:
    """Measured detection rate 1 / (<t> + tau_d)."""
    if mean_on <= 0:
        raise ValueError(f"mean detector-on time must be positive, got {mean_on}")
    if tau_d < 0:
        raise ValueError(f"dead-time must be non-negative, got {tau_d}")
    return 1.0 / (mean_on + tau_d)


def simple_rate_inverse(r: float, tau_d: float) -> float:
    """A priori rate for the instantaneous-recovery model: 1 / (1/r - tau_d)."""
    if not 0 < r < np.inf:
        raise ValueError(f"measured rate must be finite and positive, got {r}")
    if not 0 <= tau_d < np.inf:
        raise ValueError(f"dead-time must be finite and non-negative, got {tau_d}")
    # just below 1/tau_d, 1/r can round to tau_d: that r saturates as well
    if tau_d > 0 and (r >= 1.0 / tau_d or 1.0 / r <= tau_d):
        raise SaturationError(
            f"measured rate {r:.6g} /s is at or above the dead-time "
            f"saturation limit 1/tau_d = {1.0 / tau_d:.6g} /s"
        )
    return 1.0 / (1.0 / r - tau_d)


def invert_rate(
    forward_map: Callable[[float], float],
    r: float,
    *,
    bracket: tuple[float, float] | None = None,
    saturation: float | None = None,
) -> float:
    """Invert a strictly increasing a-priori-to-measured rate map.

    The bracket is expanded geometrically until it straddles ``r``; the
    root is then bisected in log rate to 1e-12 relative.
    """
    if r <= 0:
        raise ValueError(f"measured rate must be positive, got {r}")
    if saturation is not None and r >= saturation:
        raise SaturationError(
            f"measured rate {r:.6g} /s is not attainable; "
            f"the forward map saturates at {saturation:.6g} /s"
        )
    lo, hi = bracket if bracket is not None else (r, 2.0 * r)
    for _ in range(600):
        if forward_map(lo) <= r:
            break
        hi, lo = lo, lo / 10.0
    else:
        raise ValueError(
            f"measured rate {r:.6g} /s lies below the attainable range of the forward map"
        )
    for _ in range(600):
        if forward_map(hi) >= r:
            break
        lo, hi = hi, hi * 10.0
    else:
        raise SaturationError(
            f"measured rate {r:.6g} /s not reached by the forward map "
            f"even at an a priori rate of {hi:.3e} /s"
        )
    lo = max(lo, 5e-324)  # a given bracket may start at 0, which has no log
    return math.exp(_bisect(lambda u: forward_map(math.exp(u)) - r,
                            math.log(lo), math.log(hi), 1e-12))
