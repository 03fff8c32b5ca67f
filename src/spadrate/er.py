"""Exponential-recovery detector model.

After each dead-time window the quantum efficiency recharges as

    eta(t) = eta0 * (1 - exp(-t / tau_r)) ,

which yields a closed-form integrated hazard for an a priori detection
rate r_star = eta0 * photon_rate + dark rate:

    hazard(t) = r_star * (t - tau_r * (1 - exp(-t / tau_r)))

and the detector-on time density

    pdf(t) = r_star * (1 - exp(-t / tau_r)) * exp(-hazard(t)) .

The density is always evaluated through the hazard, never through the
textbook factorisation pdf = [exp(r_star*tau_r*(1-e^{-t/tau_r})) * ...]
* r_star * e^{-r_star*t}, whose first factor overflows doubles once
r_star * tau_r exceeds ~709.

The mean detector-on time is an incomplete-gamma closed form (see
:func:`er_mean_on_time`); low-rate and high-rate expansions are provided
alongside it and are never silently substituted for it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from . import nhpp

__all__ = [
    "ErParams",
    "SourceParams",
    "er_efficiency",
    "er_profile",
    "er_cumulative_hazard",
    "er_ccdf",
    "er_cdf",
    "er_pdf",
    "er_interval_pdf",
    "er_interval_cdf",
    "er_mean_on_time",
    "er_rate_forward",
    "er_rate_inverse",
    "approx_low_pdf",
    "approx_low_mean",
    "approx_low_forward",
    "approx_low_inverse",
    "approx_high_pdf",
    "approx_high_mean",
    "approx_high_forward",
    "approx_high_inverse",
]


@dataclass(frozen=True)
class ErParams:
    """Detector triple: asymptotic efficiency, dead-time, recovery constant.

    ``tau_d = 0`` is accepted as a degenerate case (pure recovery-limited
    process), which is convenient in tests.
    """

    eta0: float
    tau_d: float
    tau_r: float

    def __post_init__(self):
        if not 0 < self.eta0 <= 1:
            raise ValueError(f"eta0 must be in (0, 1], got {self.eta0}")
        if not 0 <= self.tau_d < np.inf:
            raise ValueError(f"tau_d must be finite and non-negative, got {self.tau_d}")
        if not 0 < self.tau_r < np.inf:
            raise ValueError(f"tau_r must be finite and positive, got {self.tau_r}")


@dataclass(frozen=True)
class SourceParams:
    """Impinging photon rate plus the a priori dark-count rate."""

    photon_rate: float
    dark_apriori: float = 0.0

    def __post_init__(self):
        if not 0 <= self.photon_rate < np.inf:
            raise ValueError(f"photon rate must be finite and non-negative, got {self.photon_rate}")
        if not 0 <= self.dark_apriori < np.inf:
            raise ValueError(f"dark rate must be finite and non-negative, got {self.dark_apriori}")

    def apriori_rate(self, params: ErParams) -> float:
        """Combined a priori detection rate eta0 * photon_rate + dark."""
        return params.eta0 * self.photon_rate + self.dark_apriori


def _one_minus_exp(x):
    # 1 - exp(-x) without cancellation for small x
    return -np.expm1(-x)


# Taylor coefficients (-1)^j / (j + 2)! of (x + expm1(-x)) / x^2, j = 9 down to 0
_SERIES = (-1.0) ** np.arange(9, -1, -1) / special.factorial(np.arange(11, 1, -1))


def _x_plus_expm1(x):
    """x + expm1(-x), i.e. x - (1 - e^-x), accurate down to x -> 0.

    Direct evaluation loses ~2 eps/x relative, so below x = 0.1 a ten-term
    Taylor series (truncated below 1e-18) takes over; both are within 1.2e-15.
    """
    x = np.asarray(x, dtype=float)
    small = x < 0.1
    xs = np.where(small, x, 0.0)
    series = xs * xs * np.polyval(_SERIES, xs)
    with np.errstate(invalid="ignore"):
        direct = x + np.expm1(-x)
    out = np.where(small, series, direct)
    return out if out.ndim else float(out)


def _check_times(t):
    if np.any(np.asarray(t) < 0):
        raise ValueError("time must be non-negative")


def er_efficiency(t, params: ErParams):
    """eta0 * (1 - exp(-t / tau_r)); zero at t = 0, saturating at eta0."""
    _check_times(t)
    return params.eta0 * _one_minus_exp(np.asarray(t, dtype=float) / params.tau_r)


def er_profile(eta0: float, tau_r: float) -> nhpp.EfficiencyProfile:
    """Exponential-recovery profile with its closed-form cumulative integral."""
    params = ErParams(eta0=eta0, tau_d=0.0, tau_r=tau_r)
    return nhpp.EfficiencyProfile(
        efficiency=lambda t: er_efficiency(t, params),
        cumulative=lambda t: eta0 * tau_r * _x_plus_expm1(np.asarray(t, dtype=float) / tau_r),
    )


def er_cumulative_hazard(t, r_star: float, tau_r: float):
    """Integrated detection hazard r_star * (t - tau_r * (1 - exp(-t/tau_r)))."""
    _check_times(t)
    return r_star * tau_r * _x_plus_expm1(np.asarray(t, dtype=float) / tau_r)


def er_ccdf(t, r_star: float, tau_r: float):
    """Probability of no detection up to t after recovery start."""
    return np.exp(-er_cumulative_hazard(t, r_star, tau_r))


def er_cdf(t, r_star: float, tau_r: float):
    """Probability of a detection within [0, t] after recovery start."""
    return _one_minus_exp(er_cumulative_hazard(t, r_star, tau_r))


def er_pdf(t, r_star: float, tau_r: float):
    """Detector-on time density of the exponential-recovery model."""
    _check_times(t)
    if r_star <= 0:
        raise ValueError(f"r_star must be positive, got {r_star}")
    t = np.asarray(t, dtype=float)
    return r_star * _one_minus_exp(t / tau_r) * np.exp(-er_cumulative_hazard(t, r_star, tau_r))


def er_interval_pdf(delta, params: ErParams, source: SourceParams):
    """Density of the measured inter-detection interval.

    The interval is the dead-time plus the detector-on time, so the
    density is the on-time density shifted by tau_d and zero below it.
    """
    shifted = np.maximum(np.asarray(delta, dtype=float) - params.tau_d, 0.0)
    out = er_pdf(shifted, source.apriori_rate(params), params.tau_r)
    return out if out.ndim else float(out)


def er_interval_cdf(delta, params: ErParams, source: SourceParams):
    """CDF companion of :func:`er_interval_pdf` (useful for exact binning)."""
    shifted = np.maximum(np.asarray(delta, dtype=float) - params.tau_d, 0.0)
    out = er_cdf(shifted, source.apriori_rate(params), params.tau_r)
    return out if out.ndim else float(out)


_TINY = np.finfo(float).tiny


def _rate_product(r_star: float, tau_r: float) -> float:
    """a = r_star * tau_r; ValueError unless a is a normal double, as the closed forms need."""
    a = r_star * tau_r
    if not _TINY <= a < np.inf:
        raise ValueError(f"r_star*tau_r = {r_star:g}*{tau_r:g} = {a:g} lies outside the "
                         f"normal float range [{_TINY:g}, inf)")
    return a


def er_mean_on_time(r_star: float, tau_r: float) -> float:
    """Mean detector-on time, in closed form.

    Substituting u = exp(-t/tau_r) in the integral of the survival
    function gives, with a = r_star * tau_r,

        <t> = tau_r * e^a a^-a Gamma(a) * P(a, a) ,

    where P is the regularized lower incomplete gamma function (DLMF 8.2).
    Raises ValueError unless a is a normal double: below, the prefactor
    ~1/a overflows; at inf the form is NaN.
    """
    if not (0 < r_star < np.inf and 0 < tau_r < np.inf):
        raise ValueError(f"r_star and tau_r must be finite and positive, got {r_star}, {tau_r}")
    a = _rate_product(r_star, tau_r)
    if a < 20.0:
        prefactor = np.exp(a - a * np.log(a) + special.gammaln(a))
    else:
        # a - a log a + gammaln(a) cancels as a grows (7e-10 relative at
        # a = 1e6); the Stirling series for log Gamma(a) - (a - 1/2) log a + a
        # - log sqrt(2 pi) has no cancellation and is good to ~1e-15 from a = 20
        inv = 1.0 / a
        series = inv / 12 - inv**3 / 360 + inv**5 / 1260 - inv**7 / 1680 + inv**9 / 1188
        prefactor = np.sqrt(2.0 * np.pi * inv) * np.exp(series)
    return float(tau_r * prefactor * special.gammainc(a, a))


def er_rate_forward(r_star: float, params: ErParams) -> float:
    """Measured rate for a given a priori rate: 1 / (<t>(r_star) + tau_d)."""
    return nhpp.rate_forward(er_mean_on_time(r_star, params.tau_r), params.tau_d)


def er_rate_inverse(r: float, params: ErParams) -> float:
    """A priori rate producing the measured rate ``r`` (numeric inversion).

    Raises :class:`SaturationError` for r at or above 1/tau_d.
    """
    if not 0 < r < np.inf:
        raise ValueError(f"measured rate must be finite and positive, got {r}")
    # The recovery always slows the detector down, so the instantaneous-
    # recovery inverse (which raises at saturation) is a lower bound for
    # the true a priori rate.
    hi_seed = 10.0 * nhpp.simple_rate_inverse(r, params.tau_d)
    return nhpp.invert_rate(lambda x: er_rate_forward(x, params), r, bracket=(r, hi_seed))


# ---------------------------------------------------------------------------
# Low-rate closed forms (valid for r_star * tau_r << 1, not enforced)

def approx_low_pdf(t, r_star: float, tau_r: float):
    """First-order expansion of the recovery correction factor."""
    _check_times(t)
    t = np.asarray(t, dtype=float)
    q = _one_minus_exp(t / tau_r)
    return (1.0 + r_star * tau_r) * q * r_star * np.exp(-r_star * t)


def approx_low_mean(r_star: float, tau_r: float) -> float:
    """1/r_star + tau_r / (1 + tau_r * r_star)."""
    return 1.0 / r_star + tau_r / (1.0 + tau_r * r_star)


def approx_low_forward(r_star: float, params: ErParams) -> float:
    """Rate equation 1 / (<t> + tau_d) of the low-rate mean :func:`approx_low_mean`."""
    return nhpp.rate_forward(approx_low_mean(r_star, params.tau_r), params.tau_d)


def approx_low_inverse(r: float, params: ErParams) -> float:
    """Exact algebraic inverse of :func:`approx_low_forward`."""
    u = 1.0 / nhpp.simple_rate_inverse(r, params.tau_d)  # 1/r - tau_d, validated
    eps = 2.0 * params.tau_r / u
    if eps == np.inf:
        raise ValueError(f"2*tau_r/(1/r - tau_d) = 2*{params.tau_r:g}/{u:g} overflows a float")
    # sqrt(1 + eps^2) - 1 rewritten to avoid cancellation for small eps
    correction = eps * (eps / (1.0 + np.hypot(1.0, eps))) / (2.0 * params.tau_r)
    return 1.0 / u + correction


# ---------------------------------------------------------------------------
# High-rate closed forms (valid for r_star * tau_r >> 1, not enforced)

def approx_high_pdf(t, r_star: float, tau_r: float):
    """Quadratic-hazard expansion with the first-order cubic correction."""
    _check_times(t)
    t = np.asarray(t, dtype=float)
    x = t / tau_r
    lam2 = r_star * (x - 0.5 * x * x)
    gauss = np.exp(-r_star * t * t / (2.0 * tau_r))
    return lam2 * gauss * (1.0 + r_star * t**3 / (6.0 * tau_r**2))


def approx_high_mean(r_star: float, tau_r: float) -> float:
    """Two-term expansion sqrt(pi*tau_r / 2 r_star) + 1/(3 r_star)."""
    return np.sqrt(np.pi * tau_r / (2.0 * r_star)) + 1.0 / (3.0 * r_star)


def approx_high_forward(r_star: float, params: ErParams) -> float:
    """Rate equation 1 / (<t> + tau_d) of the two-term mean :func:`approx_high_mean`."""
    return nhpp.rate_forward(approx_high_mean(r_star, params.tau_r), params.tau_d)


def approx_high_inverse(r: float, params: ErParams) -> float:
    """Exact algebraic inverse of :func:`approx_high_forward`, in closed form.

    With s = r_star^-1/2 and c = sqrt(pi*tau_r/2) the mean is c*s + s^2/3,
    so s is the positive root of s^2/3 + c*s = 1/r - tau_d.
    """
    u = 1.0 / nhpp.simple_rate_inverse(r, params.tau_d)  # 1/r - tau_d, validated
    c = np.sqrt(np.pi * params.tau_r / 2.0)
    s = 2.0 * u / (c + np.sqrt(c * c + 4.0 * u / 3.0))  # the root without cancellation
    return 1.0 / (s * s)
