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
:func:`er_mean_on_time`), evaluated without special-function libraries:
by its series of positive terms (DLMF 8.7.1) below r_star * tau_r = 10
and by Temme's uniform expansion of P(a, a) (DLMF 8.12) above.  Low-rate
and high-rate expansions are provided alongside it and are never
silently substituted for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import nhpp
from .exceptions import IntegrationError

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
_SERIES = tuple((-1.0) ** j / math.factorial(j + 2) for j in range(9, -1, -1))


def _series(x):
    """x + expm1(-x) by the ten-term series, as (x*x) * np.polyval(_SERIES, x).

    The same operations in the same order on an array or a Python float.
    """
    f = x * _SERIES[0] + _SERIES[1]
    for c in _SERIES[2:]:
        f *= x
        f += c
    f *= x * x
    return f


def _x_plus_expm1(x):
    """x + expm1(-x), i.e. x - (1 - e^-x), accurate down to x -> 0.

    Direct evaluation loses ~2 eps/x relative, so below x = 0.1 a ten-term
    Taylor series (truncated below 1e-18) takes over; both are within 1.2e-15.
    A 0-d input returns a float with the bits an array entry would get.
    """
    x = np.asarray(x, dtype=float)
    if not x.ndim:
        x = float(x)
        # np.expm1, not math.expm1: the two differ in the last bit on some CPUs
        return _series(x) if x < 0.1 else float(x + np.expm1(-x))
    out = x + np.expm1(-x)
    small = x < 0.1
    if small.any():
        out[small] = _series(x[small])
    return out


def _check_times(t):
    if (t < 0) if isinstance(t, float) else np.any(np.asarray(t) < 0):
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
    """Integrated detection hazard r_star * (t - tau_r * (1 - exp(-t/tau_r))).

    Floats (tau_r != 0) take Python floats, with the bits an array entry gets."""
    _check_times(t)
    if isinstance(t, float) and isinstance(r_star, float) and isinstance(tau_r, float) and tau_r:
        t, r_star, tau_r = float(t), float(r_star), float(tau_r)
        x = t / tau_r
        return r_star * t if math.isinf(x) else r_star * tau_r * _x_plus_expm1(x)
    t = np.asarray(t, dtype=float)
    with np.errstate(over="ignore"):  # past x ~ 1e16, x + expm1(-x) is x: H -> r_star t
        x = t / tau_r
        return np.where(np.isinf(x), r_star * t, r_star * tau_r * _x_plus_expm1(x))[()]


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


# Temme's coefficients C_k of P(a, a) = 1/2 + (2 pi a)^-1/2 sum_k C_k a^-k
# (DLMF 8.12.8 at eta = 0; Temme, SIAM J. Math. Anal. 10 (1979) 757), for
# k = 12 down to 0: C_k = -d_{k,0} of DLMF 8.12.12, from its recursion run
# once in 50-digit mpmath.
_TEMME = (
    0.004072512119514016, -0.001579727660730835, -0.0013324454494800656,
    0.0005967612901927463, 0.0006526239185953094, -0.00034436760689237765,
    -0.0005313079364639922, 0.00033679855336635813, 0.0008618882909167117,
    -0.0006494341563786008, -0.004133597883597883, 0.001851851851851852,
    0.3333333333333333,
)
# Stirling's coefficients B_2k / (2k (2k - 1)) of log Gamma(a) - (a - 1/2) log a
# + a - log sqrt(2 pi) = sum_k B_2k / (2k (2k - 1)) a^(1 - 2k), k = 7 down to 1.
_STIRLING = (1 / 156, -691 / 360360, 1 / 1188, -1 / 1680, 1 / 1260, -1 / 360, 1 / 12)
# From _A0 up, both truncated series are good to 7e-17 of the mean; below
# it the series of positive terms takes at most ~40 terms.
_A0 = 10.0


def er_mean_on_time(r_star: float, tau_r: float) -> float:
    """Mean detector-on time, in closed form.

    Substituting u = exp(-t/tau_r) in the integral of the survival
    function gives, with a = r_star * tau_r,

        <t> = tau_r * e^a a^-a gamma(a, a) = tau_r * e^a a^-a Gamma(a) * P(a, a) ,

    where gamma is the lower incomplete gamma function and P its regularized
    form (DLMF 8.2).  Below a = 10, e^a a^-a gamma(a, a) is summed as the
    series sum_n a^n / (a (a + 1) ... (a + n)) of positive terms (DLMF 8.7.1).
    From a = 10 up, Stirling's series gives e^a a^-a Gamma(a) and Temme's
    expansion 1/2 + (2 pi a)^-1/2 sum_k C_k a^-k gives P(a, a) (DLMF 8.12).
    Both are within 2e-15 of the exact mean.  Raises ValueError unless a is a
    normal double (below, the leading term 1/a overflows; at inf the form is
    NaN) and when the mean overflows.
    """
    if not (0 < r_star < np.inf and 0 < tau_r < np.inf):
        raise ValueError(f"r_star and tau_r must be finite and positive, got {r_star}, {tau_r}")
    a = _rate_product(r_star, tau_r)
    if a < _A0:
        # stop at the first term that no longer changes the sum; the ones
        # after it fall at least as fast as a geometric series of ratio a/(a + n)
        term = total = 1.0 / a
        n = 1.0
        while True:
            term *= a / (a + n)
            if total + term == total:
                break
            total += term
            n += 1.0
    else:
        # e^a a^-a Gamma(a) P(a, a) = e^stirling (sqrt(pi/2a) + sum_k C_k a^-k-1), with
        # Stirling's series free of the cancellation in a - a log a + log Gamma(a)
        inv = 1.0 / a
        inv2 = inv * inv
        stirling = temme = 0.0
        for c in _STIRLING:
            stirling = stirling * inv2 + c
        for c in _TEMME:
            temme = temme * inv + c
        total = math.exp(stirling * inv) * (_SQRT_HALF_PI / math.sqrt(a) + temme * inv)
    mean = tau_r * total
    if mean == np.inf:
        raise ValueError(f"the mean on-time at r_star*tau_r = {a:g} (tau_r = {tau_r:g} s) "
                         "overflows a float")
    return mean


def er_rate_forward(r_star: float, params: ErParams) -> float:
    """Measured rate for a given a priori rate: 1 / (<t>(r_star) + tau_d)."""
    return nhpp.rate_forward(er_mean_on_time(r_star, params.tau_r), params.tau_d)


# er_rate_inverse solves tau_r * M(a) = 1/r - tau_d for a = r_star * tau_r.
# M = 1/a + 1/(1 + a) at low rate and sqrt(pi/2a) + 1/(3a) at high rate.
# Each closed-form root lies below the true one, the low root by ~a^2/2 in
# log a and the high root by ~1/(6a); the larger root times
# exp(1/(2/a^2 + 6a)) is within 0.02 of the true a in log a everywhere, and
# within 1e-10 below a = 1e-4 and above a = 1e6.  d log M / d log a runs
# from -1 to -1/2; the seed slope blends the two models' slopes.
_SQRT_HALF_PI = math.sqrt(math.pi / 2.0)
_LOG_STEP_TOL = 1e-13
_MAX_STEPS = 100


def _roots(m: float) -> tuple[float, float]:
    """(low-rate, high-rate) closed-form a with M(a) = m; inf past the float range."""
    # low rate: a is the positive root of m*a^2 + (m - 2)*a - 1 = 0
    a_low = (1.0 + 2.0 / (math.hypot(m, 2.0) + m)) / m
    # high rate: s = a^-1/2 is the positive root of s^2/3 + c*s = m, c = sqrt(pi/2)
    half_c = 0.5 * _SQRT_HALF_PI
    inv_s = (half_c + math.sqrt(half_c * half_c + m / 3.0)) / m
    return a_low, inv_s * inv_s


def _on_time_ratio(r: float, params: ErParams) -> tuple[float, float]:
    """(u, m): the on-time u = 1/r - tau_d that r implies and m = u/tau_r, a positive float."""
    nhpp.simple_rate_inverse(r, params.tau_d)  # validates r and saturation
    u = 1.0 / r - params.tau_d
    m = u / params.tau_r
    if not 0.0 < m < np.inf:
        raise ValueError(f"(1/r - tau_d)/tau_r = {u:g}/{params.tau_r:g} is not a positive float, "
                         "so r_star*tau_r lies outside the normal float range")
    return float(u), float(m)  # plain floats: past the float range they give inf, not a warning


def _inverse_seed(m: float) -> tuple[float, float]:
    """(a, d log M / d log a) near the root of M(a) = m, in closed form."""
    a = max(_roots(m))  # inf past the float range
    a *= math.exp(1.0 / (2.0 / a / a + 6.0 * a))
    q, h, w_low = a / (1.0 + a), _SQRT_HALF_PI * math.sqrt(a), 1.0 / (1.0 + a * a)
    slope_low = -(1.0 + q * q) / (1.0 + q)
    slope_high = -(0.5 * h + 1.0 / 3.0) / (h + 1.0 / 3.0)
    return a, w_low * slope_low + (1.0 - w_low) * slope_high


def er_rate_inverse(r: float, params: ErParams) -> float:
    """A priori rate producing the measured rate ``r``, to ~1e-13 relative.

    Solves log <t>(r_star) = log(1/r - tau_d) by a secant in log r_star,
    seeded by :func:`_inverse_seed` with the model's slope and kept inside
    a sign bracket (a step that leaves it bisects it instead).  It makes
    1-5 calls of :func:`er_mean_on_time` over a = 1e-300..1e300 and stops
    at a step below 1e-13 in log r_star.  Raises :class:`SaturationError`
    for r at or above 1/tau_d, and ValueError when r_star*tau_r is not a
    normal double.
    """
    u, m = _on_time_ratio(r, params)
    a, slope = _inverse_seed(m)
    r_star = a / params.tau_r  # inf past the float range, which er_mean_on_time refuses
    lo, hi, last = 0.0, np.inf, None
    for _ in range(_MAX_STEPS):
        # looked up per call, so wrappers of er_mean_on_time see it
        f = math.log(er_mean_on_time(r_star, params.tau_r) / u)
        if f > 0.0:  # on-time too long: the root lies above
            lo = r_star
        else:
            hi = r_star
        if hi - lo <= _LOG_STEP_TOL * lo:  # within tolerance; bisecting on could repeat a point
            return r_star
        if last is not None:
            secant = (f - last[1]) / math.log(r_star / last[0])
            slope = min(max(secant, -1.0), -0.5)
        last = (r_star, f)
        step = -f / slope
        ahead = r_star * math.exp(step)
        if abs(step) <= _LOG_STEP_TOL:
            return ahead
        r_star = ahead if lo < ahead < hi else math.sqrt(lo) * math.sqrt(hi)
    raise IntegrationError(f"rate inverse for a measured {r:g} /s did not converge in "
                           f"{_MAX_STEPS} steps (bracket {lo:.17g}..{hi:.17g} /s)")


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
    a = _roots(_on_time_ratio(r, params)[1])[0]
    if a == np.inf:
        raise ValueError(f"r_star*tau_r ~ 2*tau_r/(1/r - tau_d) at r = {r:g} /s, "
                         f"tau_d = {params.tau_d:g} s, tau_r = {params.tau_r:g} s overflows a float")
    return a / params.tau_r


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
    """Exact algebraic inverse of :func:`approx_high_forward`; inf past the float range."""
    return _roots(_on_time_ratio(r, params)[1])[1] / params.tau_r
