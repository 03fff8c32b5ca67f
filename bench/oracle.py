"""Reference values at 40 significant digits, independent of spadrate.

The exponential-recovery mean on-time has the closed form (u = e^{-t/tau_r})

    <t> = tau_r * e^a * a^{-a} * gamma(a, a),   a = r_star * tau_r,

with gamma the lower incomplete gamma function.  mpmath's default
``gammainc`` does not converge near a = 1e8, so callers stay at a <= 1e6.
"""

from __future__ import annotations

import mpmath

DPS = 40


def mean_on_time(r_star, tau_r):
    """Mean detector-on time of the exponential-recovery model (mpf)."""
    with mpmath.workdps(DPS):
        tau_r = mpmath.mpf(tau_r)
        a = mpmath.mpf(r_star) * tau_r
        return +(tau_r * mpmath.exp(a) * a ** (-a) * mpmath.gammainc(a, 0, a))


def measured_rate(r_star, tau_r, tau_d) -> float:
    """Measured rate 1 / (<t> + tau_d), rounded once to double."""
    with mpmath.workdps(DPS):
        return float(1 / (mean_on_time(r_star, tau_r) + mpmath.mpf(tau_d)))


def apriori_rate(r_measured, tau_r, tau_d) -> float:
    """A priori rate whose measured rate is ``r_measured`` (root in log r_star)."""
    with mpmath.workdps(DPS):
        target = 1 / mpmath.mpf(r_measured) - mpmath.mpf(tau_d)
        # <t> > 1/r_star always, so the instantaneous-recovery rate is a lower bound
        x0 = -mpmath.log(target)
        root = mpmath.findroot(
            lambda x: mpmath.log(mean_on_time(mpmath.exp(x), tau_r) / target),
            (x0, x0 + 1),
            tol=mpmath.mpf(10) ** (-30),
        )
        return float(mpmath.exp(root))


def paralyzing_mean_on_time(r_star, tau_r, tau_p1, tau_p2) -> float:
    """Recovery mean plus p/(1-p) prolongations of (conditional time + tau_p2).

    The conditional numerator uses int_0^p1 t f(t) dt = int_0^p1 S(t) dt
    - p1 S(p1), so only the survival function S is integrated.
    """
    with mpmath.workdps(DPS):
        r, tr, p1, p2 = (mpmath.mpf(v) for v in (r_star, tau_r, tau_p1, tau_p2))

        def survival(t):
            return mpmath.exp(-r * (t + tr * mpmath.expm1(-t / tr)))

        s1 = survival(p1)
        p = 1 - s1
        conditional = (mpmath.quad(survival, [0, p1]) - p1 * s1) / p
        return float(mean_on_time(r, tr) + p / (1 - p) * (conditional + p2))
