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
generic rate inverse (bracket expansion, then Brent's method); the
exponential-recovery inverse ``er.er_rate_inverse`` has its own solver and
does not call it.  scipy's integrate and optimize load inside the functions
that use them, so no CLI command imports them.
"""

from __future__ import annotations

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
# exp(-45) ~ 2.9e-20, negligible against a 1e-9 relative target.
_MAX_HAZARD = 45.0
_HAZARD_KNOTS = (0.05, 0.25, 1.0, 3.0, 8.0, 16.0, 30.0, _MAX_HAZARD)


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

    The cumulative integral is evaluated by adaptive quadrature on every
    call, which is accurate but slow; prefer a closed-form cumulative for
    anything performance-sensitive.
    """
    from scipy import integrate
    def cumulative(t):
        def one(upper: float) -> float:
            if upper == 0.0:
                return 0.0
            val, err = integrate.quad(
                efficiency, 0.0, upper, epsabs=0.0, epsrel=1e-12, limit=200
            )
            if err > max(1e-10 * abs(val), 1e-300):
                raise IntegrationError(
                    f"cumulative efficiency integral on [0, {upper}] "
                    f"converged only to {err:.3e}"
                )
            return val

        arr = np.asarray(t, dtype=float)
        if arr.ndim == 0:
            return one(float(arr))
        return np.array([one(float(x)) for x in arr.ravel()]).reshape(arr.shape)

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


def _hazard_quantile(profile: EfficiencyProfile, r_i: float, target: float,
                     t_lo: float, t_hi_seed: float) -> float:
    """Solve r_i * cumulative(t) = target for t, expanding the bracket upward."""
    from scipy import optimize
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
    return float(optimize.brentq(hazard, t_lo, t_hi, rtol=1e-14, maxiter=200))


def _integration_breakpoints(profile: EfficiencyProfile, r_i: float) -> list[float]:
    """Times at which the survival probability crosses fixed decades.

    Quantile-based breakpoints keep adaptive quadrature honest when the
    density is concentrated far below the overall integration span (the
    high-rate regime, where the bulk sits near sqrt(tau_r / r_star)).
    """
    points = [0.0]
    # eta <= 1 implies hazard(t) <= r_i * t, so t = target / r_i is a lower
    # bound for each quantile and a safe expansion seed.
    for target in _HAZARD_KNOTS:
        seed = max(points[-1], target / r_i)
        points.append(_hazard_quantile(profile, r_i, target, points[-1], seed))
    return points


def _quad_segments(f: Callable, points: list[float], epsrel: float) -> float:
    from scipy import integrate
    total = 0.0
    for a, b in zip(points[:-1], points[1:]):
        out = integrate.quad(
            f, a, b, epsabs=0.0, epsrel=epsrel, limit=200, full_output=True
        )
        val, err = out[0], out[1]
        if len(out) > 3:  # quadpack appended a warning message
            raise IntegrationError(
                f"quadrature on [{a:.3e}, {b:.3e}] did not converge: "
                f"{out[3]} (estimate {val:.6e}, error {err:.3e})"
            )
        total += val
    return total


def mean_on_time(profile: EfficiencyProfile, r_i: float) -> float:
    """Mean detector-on time, integral of t * pdf(t) over [0, inf), to ~1e-9 relative.

    Integrated piecewise between survival-quantile breakpoints with the
    tail beyond hazard 45 dropped (bounded well below the target).
    """
    if r_i <= 0:
        raise ValueError("mean detector-on time diverges for non-positive rate")
    points = _integration_breakpoints(profile, r_i)
    f = lambda t: t * r_i * profile.efficiency(t) * np.exp(-r_i * profile.cumulative(t))
    # per-segment relative errors add up over the quantile segments, so
    # integrate each one an order tighter than the overall target
    return _quad_segments(f, points, epsrel=1e-10)


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
    root is then polished by Brent's method (bisection with secant /
    inverse-quadratic acceleration).
    """
    from scipy import optimize
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
    root = optimize.brentq(
        lambda x: forward_map(x) - r,
        lo,
        hi,
        xtol=np.finfo(float).tiny,
        rtol=1e-12,
        maxiter=300,
    )
    return float(root)
