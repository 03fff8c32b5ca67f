"""Mean-level paralyzing extension of the exponential-recovery model.

At very high flux an avalanche may fire while the excess bias is still too
low to trip the latching circuit.  Such an event produces no timestamp but
still quenches the diode, extending the insensitive period.  The extension
is modeled at mean level only: no probability density is claimed for the
paralyzing case.

The mean needs one integral, the conditional numerator N of t * pdf(t)
over [0, tau_p1], taken with a fixed 48-point Gauss-Legendre rule per
panel.  The window ends early once the hazard passes 50, at tau_r * x_b
with x_b the closed-form root of x^2 / (2 + x) = 50 / (r_star * tau_r):
x^2 / (2 + x) is a lower bound of x + expm1(-x), the hazard in units of
r_star * tau_r, so no solver is needed.  Nodes and the r_star-free parts
of pdf(t) are cached per window, a zero-width panel dropped.  With H the
hazard over the window, the mean is <t>_er + e^H * N + expm1(H) * tau_p2;
past H = 709.8 e^H overflows (full paralysis) and the mean raises ValueError.
It is linear in tau_p2, so the fit solves tau_p2 in closed form for each
tau_p1 and scores log tau_p1 alone (variable projection).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import er, nhpp
from .exceptions import FitError
from .inference import _fisher_scoring

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
    return float(er.er_cdf(pp.tau_p1, r_star, tau_r))


@functools.lru_cache(maxsize=16)
def _window_nodes(knee: float, end: float, tau_r: float):
    """Read-only t, x + expm1(-x), 1 - e^-x, half * w and x = inf (None if nowhere) at the
    nodes, x = t/tau_r; a zero-width panel, whose terms were exact zeros, is dropped."""
    points = np.array([0.0, knee, end] if knee < end else [0.0, knee])
    half = 0.5 * np.diff(points)[:, None]
    t = points[:-1, None] + half * (nhpp._GL_X + 1.0)
    er._check_times(t)
    with np.errstate(over="ignore"):
        x = t / tau_r
    nodes = (t, er._x_plus_expm1(x), er._one_minus_exp(x), half * nhpp._GL_W, np.isinf(x))
    for a in nodes:
        a.flags.writeable = False
    return nodes[:4] + (nodes[4] if nodes[4].any() else None,)


def _conditional_numerator(tau_p1: float, r_star: float, tau_r: float) -> float:
    """Integral of t * pdf(t) over [0, tau_p1] by 48-point Gauss-Legendre panels.

    The window ends at tau_r * x_b if sooner: x_b solves x^2/(2 + x) = 50/a, a = r_star *
    tau_r, and x^2/(2 + x) <= x + expm1(-x) (below x = 2 as artanh(x/2) >= x/2), so the
    hazard there is 50 to 57 and the cut drops below (end/<t> + 1) e^-50 of the mass.
    Panels split at 40 tau_r resolve the recovery knee however long the window is.  The
    pdf takes ``er.er_pdf``'s operations in order on nodes shared per window.
    Raises ValueError unless a is a normal double.
    """
    c = 50.0 / er._rate_product(r_star, tau_r)
    product = c * (c + 8.0)  # inf past c ~ 1.3e154, where the root is split
    root = math.sqrt(product) if product < math.inf else math.sqrt(c) * math.sqrt(c + 8.0)
    end = min(tau_p1, tau_r * 0.5 * (c + root))
    knee = min(end, 40.0 * tau_r)
    t, g, q, weights, far = _window_nodes(knee, end, tau_r)
    hazard = r_star * tau_r * g
    if far is not None:
        with np.errstate(over="ignore"):
            hazard = np.where(far, r_star * t, hazard)
    return float((weights * (t * (r_star * q * np.exp(-hazard)))).sum())


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


def _prolongation_terms(tau_p1: float, r_star: float, tau_r: float) -> tuple[float, float]:
    """(e^H * N, expm1(H)) of the mean <t>_er + e^H * N + expm1(H) * tau_p2.

    expm1(H) = p/(1-p) prolongations of N/p + tau_p2 each; expm1(H)/p = e^H,
    so neither p nor 1 - p (which loses digits as p -> 1) is formed.
    """
    # past H ~ 709.8 both are inf, the detector fully paralysed; a window or
    # time scale past the float range gives inf or nan, never a warning
    with np.errstate(over="ignore", invalid="ignore"):
        hazard = er.er_cumulative_hazard(tau_p1, r_star, tau_r)
        numerator = _conditional_numerator(tau_p1, r_star, tau_r)
        return float(np.exp(hazard) * numerator), float(np.expm1(hazard))


def paralyzing_mean_on_time(pp: ParalyzingParams, r_star: float, tau_r: float) -> float:
    """Mean time between dead-time end and the next registered detection.

    Raises ValueError when the mean is not finite, as under full paralysis.
    """
    extra, count = _prolongation_terms(pp.tau_p1, r_star, tau_r)
    mean = er.er_mean_on_time(r_star, tau_r) + extra + count * pp.tau_p2
    if not mean < np.inf:
        with np.errstate(over="ignore"):
            hazard = float(er.er_cumulative_hazard(pp.tau_p1, r_star, tau_r))
        raise ValueError(
            f"paralyzing mean on-time is not finite at r_star = {r_star:g}: H(tau_p1) = "
            f"{hazard:.4g}, {count:.3g} paralyzations per detection (full paralysis past 709.8)"
        )
    return mean


@dataclass(frozen=True)
class ParalyzingFit:
    params: ParalyzingParams
    stderr: tuple[float, float]
    cost: float
    n_points: int


def fit_paralyzing(points, params: er.ErParams) -> ParalyzingFit:
    """Weighted least squares for (tau_p1, tau_p2) on mean on-time data.

    ``points`` is a sequence of (r_star, mean_on_time) pairs spanning the
    detection-rate rollover.  Each point is weighted by 1/r^3 with r the
    measured rate 1/(mean + tau_d) at that point.  For each tau_p1, tau_p2
    is its least-squares value clipped at zero (variable projection), and
    log tau_p1 is fitted from tau_r / 10 by Fisher scoring on the profile
    likelihood.  Uncertainties are the 1-sigma values from the analytic
    Jacobian at the solution.  Raises :class:`FitError` when scoring fails
    or tau_p1 is not resolved, as when the means show no paralyzation.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 3:
        raise ValueError("need at least 3 (r_star, mean_on_time) points")
    r_stars = pts[:, 0]
    means = pts[:, 1]
    rates = 1.0 / (means + params.tau_d)
    weights = rates**-3
    weights = weights / weights.max()
    tau_r = params.tau_r
    base = np.array([er.er_mean_on_time(rs, tau_r) for rs in r_stars])
    dof = max(len(means) - 2, 1)
    # an exact fit leaves only rounding in the residuals; below this SSR it has converged
    floor = (4.0 * np.finfo(float).eps) ** 2 * (weights @ means**2)

    def profile(x):
        """tau_p1 = e^x, its tau_p2, the residuals, their (x, tau_p2)-Jacobian and SSR."""
        tau_p1 = float(np.exp(x[0]))
        extra, count = np.array([_prolongation_terms(tau_p1, rs, tau_r) for rs in r_stars]).T
        w_count = weights * count
        tau_p2 = max(0.0, float(w_count @ (means - base - extra) / (w_count @ count)))
        residuals = base + extra + count * tau_p2 - means
        # d(e^H N)/d tau_p1 = rate * (e^H N + tau_p1) and d expm1(H)/d tau_p1 = rate * e^H
        rate = r_stars * -np.expm1(-tau_p1 / tau_r)
        jac = np.stack([tau_p1 * rate * (extra + tau_p1 + (1.0 + count) * tau_p2), count])
        return tau_p1, tau_p2, residuals, jac, max(weights @ residuals**2, floor)

    def projected(a, b):
        """``a`` less its w-projection on ``b``."""
        return a - b * ((weights * b) @ a) / ((weights * b) @ b)

    def objective(x):
        # (dof/2) log SSR, the profile Gaussian negative log-likelihood; its information
        # is that of log tau_p1 with tau_p2 free, the x-column projected off tau_p2's
        _, tau_p2, residuals, jac, ssr = profile(x)
        column = projected(*jac)
        s2 = ssr / dof
        # while tau_p2 > 0 the residuals are w-orthogonal to its column, and
        # the projected column keeps that column's rounding out of the gradient
        slope = column if tau_p2 > 0.0 else jac[0]
        grad = (weights * slope) @ residuals / s2 if ssr > floor else 0.0
        information = (weights * column) @ column / s2
        return 0.5 * dof * np.log(ssr), np.array([grad]), np.array([[information]])

    def failure(message, x):
        if not objective(x)[2][0, 0] > 1.0:
            message = ("tau_p1 is not resolved: its 1-sigma error exceeds its value, as when "
                       "the means show no paralyzation beyond the exponential-recovery model")
        tau_p1 = float(np.exp(x[0]))
        return FitError(f"paralyzing fit: {message} (tau_p1 ended at {tau_p1:.6g})",
                        details={"tau_p1": tau_p1})

    x = np.array([np.log(tau_r / 10.0)])
    x, _, information, _ = _fisher_scoring(objective, x, objective(x), failure)
    if not information[0, 0] > 1.0:
        raise failure("tau_p1 is not resolved", x)
    tau_p1, tau_p2, residuals, jac, ssr = profile(x)
    # the diagonal of s^2 (J^T w J)^-1, J in (tau_p1, tau_p2), one Schur complement at a time
    jac[0] /= tau_p1
    columns = (projected(*jac), projected(*jac[::-1]))
    stderr = [np.sqrt(ssr / dof / ((weights * c) @ c)) for c in columns]
    return ParalyzingFit(
        params=ParalyzingParams(tau_p1=tau_p1, tau_p2=tau_p2),
        stderr=(float(stderr[0]), float(stderr[1])),
        cost=float(0.5 * weights @ residuals**2),
        n_points=len(means),
    )
