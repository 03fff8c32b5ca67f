"""Mean-level paralyzing extension of the exponential-recovery model.

At very high flux an avalanche may fire while the excess bias is still too
low to trip the latching circuit.  Such an event produces no timestamp but
still quenches the diode, extending the insensitive period.  The extension
is modeled at mean level only: no probability density is claimed for the
paralyzing case.

The mean needs one integral, the conditional numerator N of t * pdf(t)
over [0, tau_p1], taken with a fixed Gauss-Legendre rule.  With H the
hazard over the window, the mean is <t>_er + e^H * N + expm1(H) * tau_p2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import optimize, special

from . import er
from .exceptions import FitError

__all__ = [
    "ParalyzingParams",
    "ParalyzingFit",
    "paralyzation_prob",
    "mean_conditional_on_time",
    "mean_single_prolongation",
    "paralyzing_mean_on_time",
    "fit_paralyzing",
]


@dataclass(frozen=True)
class ParalyzingParams:
    """Paralyzable-time window and per-event dead-time extension, both in s."""

    tau_p1: float = 0.0
    tau_p2: float = 0.0

    def __post_init__(self):
        if not (0 <= self.tau_p1 < np.inf and 0 <= self.tau_p2 < np.inf):
            raise ValueError("paralyzing time constants must be finite and non-negative")


def paralyzation_prob(pp: ParalyzingParams, r_star: float, tau_r: float) -> float:
    """Probability that an avalanche fires within tau_p1 of recovery start."""
    if pp.tau_p1 == 0.0:
        return 0.0
    return float(er.er_cdf(pp.tau_p1, r_star, tau_r))


_GL_X, _GL_W = special.roots_legendre(48)


def _conditional_numerator(tau_p1: float, r_star: float, tau_r: float) -> float:
    """Integral of t * pdf(t) over [0, tau_p1] by 48-point Gauss-Legendre panels.

    The window ends where the hazard reaches 50, x50 = c + W0(-e^-c) with
    c = 1 + 50 / (r_star * tau_r) in units of tau_r, dropping below
    (end/<t> + 1) e^-50 of the mass.  Panels split at 40 tau_r resolve the
    recovery knee however long the window is.
    """
    c = 1.0 + 50.0 / (r_star * tau_r)
    end = min(tau_p1, tau_r * (c + special.lambertw(-np.exp(-c)).real))
    knee = min(end, 40.0 * tau_r)
    half = 0.5 * np.array([[knee], [end - knee]])
    t = np.array([[0.0], [knee]]) + half * (_GL_X + 1.0)
    return float(np.sum(half * _GL_W * t * er.er_pdf(t, r_star, tau_r)))


def mean_conditional_on_time(pp: ParalyzingParams, r_star: float, tau_r: float) -> float:
    """Mean avalanche time given that it happened before tau_p1, N / p.

    Always strictly below tau_p1; approaches (2/3) tau_p1 when the hazard
    accumulated over the window is small (linear-density limit).
    """
    p = paralyzation_prob(pp, r_star, tau_r)
    if p <= 0.0:
        raise ValueError("conditional on-time undefined: paralyzation probability is zero")
    return _conditional_numerator(pp.tau_p1, r_star, tau_r) / p


def mean_single_prolongation(pp: ParalyzingParams, r_star: float, tau_r: float) -> float:
    """Average dead-time extension per paralyzation event."""
    return mean_conditional_on_time(pp, r_star, tau_r) + pp.tau_p2


def paralyzing_mean_on_time(pp: ParalyzingParams, r_star: float, tau_r: float) -> float:
    """Mean time between dead-time end and the next registered detection."""
    base = er.er_mean_on_time(r_star, tau_r)
    hazard = er.er_cumulative_hazard(pp.tau_p1, r_star, tau_r)
    # expm1(H) = p/(1-p) prolongations of N/p + tau_p2 each; expm1(H)/p = e^H,
    # so neither p nor 1 - p (which loses digits as p -> 1) is formed
    numerator = _conditional_numerator(pp.tau_p1, r_star, tau_r)
    return base + float(np.exp(hazard) * numerator + np.expm1(hazard) * pp.tau_p2)


@dataclass(frozen=True)
class ParalyzingFit:
    params: ParalyzingParams
    stderr: tuple[float, float]
    cost: float
    n_points: int


def fit_paralyzing(
    points,
    params: er.ErParams,
    *,
    init: ParalyzingParams | None = None,
) -> ParalyzingFit:
    """Weighted least squares for (tau_p1, tau_p2) on mean on-time data.

    ``points`` is a sequence of (r_star, mean_on_time) pairs spanning the
    detection-rate rollover.  Each point is weighted by 1/r^3 with r the
    measured rate 1/(mean + tau_d) at that point.  Uncertainties are the
    1-sigma values from the Jacobian at the solution.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 3:
        raise ValueError("need at least 3 (r_star, mean_on_time) points")
    r_stars = pts[:, 0]
    means = pts[:, 1]
    rates = 1.0 / (means + params.tau_d)
    weights = rates**-3
    weights = weights / weights.max()
    sqrt_w = np.sqrt(weights)

    # Fitted in units of tau_r: in seconds the bound-scaled gradient test
    # fires while the gradient is still far from zero, short of the minimum.
    tau_r = params.tau_r

    def residuals(y):
        pp = ParalyzingParams(tau_p1=y[0] * tau_r, tau_p2=y[1] * tau_r)
        model = np.array([paralyzing_mean_on_time(pp, rs, tau_r) for rs in r_stars])
        return sqrt_w * (model - means) / tau_r

    x0 = (
        np.array([init.tau_p1, init.tau_p2])
        if init is not None
        else np.array([tau_r / 10.0, tau_r / 10.0])
    )
    res = optimize.least_squares(
        residuals,
        x0 / tau_r,
        bounds=(np.zeros(2), np.full(2, np.inf)),
        method="trf",
        xtol=1e-14,
        ftol=1e-14,
        gtol=1e-14,
    )
    tau_p = res.x * tau_r
    if not res.success:
        raise FitError(
            f"paralyzing fit did not converge: {res.message}",
            details={"residuals": (res.fun * tau_r).tolist(), "x": tau_p.tolist()},
        )
    dof = max(len(means) - 2, 1)
    s2 = 2.0 * res.cost / dof
    try:
        cov = np.linalg.inv(res.jac.T @ res.jac) * s2
        stderr = tau_r * np.sqrt(np.maximum(np.diag(cov), 0.0))
    except np.linalg.LinAlgError:
        stderr = (np.nan, np.nan)
    return ParalyzingFit(
        params=ParalyzingParams(tau_p1=float(tau_p[0]), tau_p2=float(tau_p[1])),
        stderr=(float(stderr[0]), float(stderr[1])),
        cost=float(res.cost * tau_r**2),
        n_points=len(means),
    )
