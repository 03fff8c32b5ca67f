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
quadrature, make no convergence check.
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

# Survival mass kept beyond the outermost integration breakpoint:
# exp(-45) ~ 2.9e-20, negligible against the rule's ~1e-16.
_MAX_HAZARD = 45.0
_HAZARD_KNOTS = (0.05, 0.25, 1.0, 3.0, 8.0, 16.0, 30.0, _MAX_HAZARD)
# Breakpoints t * 2^-60 ... t: a recovery knee anywhere below t lies in a panel [u, 2u].
_HALVINGS = 2.0 ** np.arange(-60, 1)
_GL_X, _GL_W = np.polynomial.legendre.leggauss(48)


def _gauss_legendre(f: Callable, points) -> float:
    """Sum of one 48-point Gauss-Legendre rule per panel; f gets a (panels, 48) array."""
    points = np.asarray(points, dtype=float)
    half = 0.5 * np.diff(points)[:, None]
    t = points[:-1, None] + half * (_GL_X + 1.0)
    return float(np.sum(half * _GL_W * f(t)))


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

    The cumulative on [0, t] sums Gauss-Legendre panels that halve from t
    towards 0, with no convergence check (module docstring); prefer a
    closed-form cumulative for anything performance-sensitive.
    """
    def cumulative(t):
        arr = np.asarray(t, dtype=float)
        out = [_gauss_legendre(efficiency, np.append(0.0, x * _HALVINGS)) for x in arr.flat]
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


def _hazard_quantile(profile: EfficiencyProfile, r_i: float, target: float,
                     t_lo: float, t_hi_seed: float) -> float:
    """Solve r_i * cumulative(t) = target for t to 1e-14 relative, expanding the bracket up."""
    hazard = lambda t: r_i * profile.cumulative(t) - target
    t_hi = t_hi_seed
    for _ in range(600):
        if hazard(t_hi) >= 0.0:
            break
        t_lo, t_hi = t_hi, t_hi * 2.0
    else:
        raise IntegrationError(
            "cumulative efficiency integral does not appear to diverge; "
            f"hazard still below {target} at t = {t_hi:.3e} s"
        )
    return _bisect(hazard, t_lo, t_hi, 1e-14 * t_hi)


def _integration_breakpoints(profile: EfficiencyProfile, r_i: float) -> list[float]:
    """Times at which the survival probability crosses fixed decades.

    Quantile-based breakpoints keep the panels on the density when it is
    concentrated far below the overall integration span (the high-rate
    regime, where the bulk sits near sqrt(tau_r / r_star)).
    """
    points = [0.0]
    # eta <= 1 implies hazard(t) <= r_i * t, so t = target / r_i is a lower
    # bound for each quantile and a safe expansion seed.
    for target in _HAZARD_KNOTS:
        seed = max(points[-1], target / r_i)
        points.append(_hazard_quantile(profile, r_i, target, points[-1], seed))
    return points


def mean_on_time(profile: EfficiencyProfile, r_i: float) -> float:
    """Mean detector-on time, integral of t * pdf(t) over [0, inf).

    Gauss-Legendre panels between survival-quantile breakpoints, halving
    towards 0 below the first, with the tail beyond hazard 45 dropped:
    within 1e-15 of ``er.er_mean_on_time`` for r_i * tau_r in [1e-8, 1e8].
    """
    if r_i <= 0:
        raise ValueError("mean detector-on time diverges for non-positive rate")
    points = _integration_breakpoints(profile, r_i)
    points = np.concatenate(([0.0], points[1] * _HALVINGS[:-1], points[1:]))
    f = lambda t: t * r_i * profile.efficiency(t) * np.exp(-r_i * profile.cumulative(t))
    return _gauss_legendre(f, points)


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
