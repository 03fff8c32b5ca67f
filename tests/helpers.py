"""Shared oracles for the test suite.

Everything here is deliberately independent of the library's own
integration paths: quantile inversion by bracketed root find on the
closed-form hazard, means via the survival function, and histogram
synthesis by exact CDF differences plus a multinomial draw.
"""

import numpy as np
from scipy import integrate, optimize

from spadrate import er
from spadrate.inference import IntervalHistogram

PAPER = er.ErParams(eta0=0.19117, tau_d=80.09205e-6, tau_r=112.5e-9)


def hazard_time(r_star: float, tau_r: float, hazard: float) -> float:
    """Time at which the ER integrated hazard reaches the given value."""
    f = lambda t: er.er_cumulative_hazard(t, r_star, tau_r) - hazard
    hi = max(hazard / r_star, 1e-30)
    while f(hi) < 0:
        hi *= 2.0
    return float(optimize.brentq(f, 0.0, hi, rtol=1e-14, maxiter=200))


def er_quantile(r_star: float, tau_r: float, q: float) -> float:
    """Detector-on time at which the ER CDF reaches q."""
    return hazard_time(r_star, tau_r, -np.log1p(-q))


def mean_via_survival(r_star: float, tau_r: float) -> float:
    """Mean on-time through integral of the survival function.

    Independent route from the library's integral of t * pdf(t).
    """
    points = [0.0] + [hazard_time(r_star, tau_r, h)
                      for h in (0.05, 0.25, 1.0, 3.0, 8.0, 16.0, 30.0, 45.0)]
    total = 0.0
    for a, b in zip(points[:-1], points[1:]):
        val, _ = integrate.quad(
            lambda t: er.er_ccdf(t, r_star, tau_r), a, b,
            epsabs=0.0, epsrel=1e-12, limit=200,
        )
        total += val
    return total


def mp_mean_on_time(r_star: float, tau_r: float, dps: int = 40) -> float:
    """Mean on-time tau_r e^a a^-a gamma(a, a), a = r_star * tau_r, in mpmath.

    Callers skip unless mpmath is installed; its gammainc does not
    converge near a = 1e8, so stay at a <= 1e6.
    """
    import mpmath

    with mpmath.workdps(dps):
        tau_r = mpmath.mpf(tau_r)
        a = mpmath.mpf(r_star) * tau_r
        return float(tau_r * mpmath.exp(a) * a ** (-a) * mpmath.gammainc(a, 0, a))


def mp_er_law(r_star: float, tau_r: float, t: float, dps: int = 40) -> tuple[float, float, float]:
    """Hazard, pdf and cdf of the ER on-time at t, in mpmath.

    Callers skip unless mpmath is installed.
    """
    import mpmath

    with mpmath.workdps(dps):
        r_star, tau_r, t = mpmath.mpf(r_star), mpmath.mpf(tau_r), mpmath.mpf(t)
        recovered = -mpmath.expm1(-t / tau_r)
        hazard = r_star * (t - tau_r * recovered)
        pdf = r_star * recovered * mpmath.exp(-hazard)
        return float(hazard), float(pdf), float(-mpmath.expm1(-hazard))


def _window_points(r_star: float, tau_r: float, tau_p1: float) -> list[float]:
    """Breakpoints on [0, tau_p1] at hazard levels and at decades of tau_r.

    Without the hazard levels mpmath.quad misjudges windows holding a
    large hazard.  The window is cut at hazard 120, beyond which the mass
    (e^-120 ~ 8e-53) is below 40 digits.
    """
    levels = (0.05, 0.25, 1.0, 3.0, 8.0, 16.0, 30.0, 45.0, 70.0, 120.0)
    knots = [hazard_time(r_star, tau_r, h) for h in levels]
    end = min(tau_p1, knots[-1])
    knots += [tau_r * 10.0**k for k in range(-2, 5)]
    return [0.0] + sorted(t for t in set(knots) if t < end) + [end]


def paralyzing_micro_mean(r_star: float, tau_r: float, tau_p1: float, tau_p2: float) -> float:
    """Exact mean on-time of the simulator's paralyzing micro-dynamics.

    A geometric number of paralyzations, expm1(H1) on average with
    H1 = H(tau_p1), each lasting its conditional time plus tau_p2, then a
    detected segment conditioned on t >= tau_p1.  The conditional means
    collapse because expm1(H1)/p = e^H1 (p = 1 - e^-H1), leaving
    e^H1 <t>_er + expm1(H1) tau_p2.  This is not the paper's mean-level
    extension, which does not condition the final segment.
    """
    h1 = float(er.er_cumulative_hazard(tau_p1, r_star, tau_r))
    return np.exp(h1) * mean_via_survival(r_star, tau_r) + np.expm1(h1) * tau_p2


def mp_inverse_hazard(g: float, dps: int = 40) -> float:
    """The x >= 0 with x + expm1(-x) = g, by Newton's method in mpmath.

    Starts at g + 1, right of the root of a convex increasing function,
    so the iterates fall monotonically onto it.
    """
    import mpmath

    with mpmath.workdps(dps):
        g = mpmath.mpf(g)
        x = g + 1
        for _ in range(300):
            step = (x + mpmath.expm1(-x) - g) / -mpmath.expm1(-x)
            x -= step
            if abs(step) <= x * mpmath.mpf(10) ** (5 - dps):
                return float(x)
    raise RuntimeError(f"no convergence at g = {g}")


def mp_paralyzing_mean_on_time(r_star: float, tau_r: float, tau_p1: float, tau_p2: float,
                               dps: int = 40) -> float:
    """Recovery mean plus p/(1-p) prolongations of (conditional time + tau_p2), in mpmath.

    The conditional numerator is int_0^p1 S - p1 S(p1), so only the
    survival function S is integrated.  p/(1-p) is taken as expm1(H(p1)):
    1 - p underflows at 40 digits once H(p1) exceeds ~90.
    """
    import mpmath

    with mpmath.workdps(dps):
        r, tr, p1, p2 = (mpmath.mpf(v) for v in (r_star, tau_r, tau_p1, tau_p2))

        def hazard(t):
            return r * (t + tr * mpmath.expm1(-t / tr))

        points = [mpmath.mpf(t) for t in _window_points(r_star, tau_r, tau_p1)]
        s1 = mpmath.exp(-hazard(p1))
        conditional = (mpmath.quad(lambda t: mpmath.exp(-hazard(t)), points) - p1 * s1) / (1 - s1)
        prolongation = float(mpmath.expm1(hazard(p1)) * (conditional + p2))
    return mp_mean_on_time(r_star, tau_r, dps) + prolongation


def mp_conditional_mean(r_star: float, tau_r: float, tau_p1: float, dps: int = 40) -> float:
    """Mean avalanche time given one before tau_p1, int_0^p1 t pdf(t) dt / p, in mpmath.

    Integrates t * pdf itself: the survival form of the numerator cancels
    when the window holds little hazard.
    """
    import mpmath

    with mpmath.workdps(dps):
        r, tr, p1 = (mpmath.mpf(v) for v in (r_star, tau_r, tau_p1))

        def hazard(t):
            return r * (t + tr * mpmath.expm1(-t / tr))

        def t_pdf(t):
            return t * r * -mpmath.expm1(-t / tr) * mpmath.exp(-hazard(t))

        points = [mpmath.mpf(t) for t in _window_points(r_star, tau_r, tau_p1)]
        return float(mpmath.quad(t_pdf, points) / -mpmath.expm1(-hazard(p1)))


def integrate_pdf(r_star: float, tau_r: float) -> float:
    """Total probability mass of the ER pdf, with the tail taken from the ccdf."""
    points = [0.0] + [hazard_time(r_star, tau_r, h)
                      for h in (0.05, 0.25, 1.0, 3.0, 8.0, 16.0, 30.0, 45.0)]
    total = 0.0
    for a, b in zip(points[:-1], points[1:]):
        val, _ = integrate.quad(
            lambda t: er.er_pdf(t, r_star, tau_r), a, b,
            epsabs=0.0, epsrel=1e-12, limit=200,
        )
        total += val
    return total + float(er.er_ccdf(points[-1], r_star, tau_r))


def argmax_er_pdf(r_star: float, tau_r: float) -> float:
    """Location of the pdf maximum: log-grid search plus bounded refinement."""
    grid = np.logspace(-14, np.log10(hazard_time(r_star, tau_r, 10.0)), 4000)
    i = int(np.argmax(er.er_pdf(grid, r_star, tau_r)))
    lo, hi = grid[max(i - 2, 0)], grid[min(i + 2, grid.size - 1)]
    res = optimize.minimize_scalar(
        lambda t: -er.er_pdf(t, r_star, tau_r),
        bounds=(lo, hi), method="bounded", options={"xatol": lo * 1e-10},
    )
    return float(res.x)


def multinomial_interval_hist(
    r_star: float,
    params: er.ErParams,
    n_events: int,
    seed: int,
    bin_width: float = 1e-9,
) -> IntervalHistogram:
    """Histogram drawn multinomially from exact per-bin interval probabilities."""
    source = er.SourceParams(photon_rate=r_star / params.eta0)
    t_max = hazard_time(r_star, params.tau_r, 30.0)
    lo_bin = int(np.floor(params.tau_d / bin_width))
    hi_bin = int(np.ceil((params.tau_d + t_max) / bin_width)) + 1
    edges = np.arange(lo_bin, hi_bin + 1) * bin_width
    probs = np.clip(np.diff(er.er_interval_cdf(edges, params, source)), 0.0, None)
    probs /= probs.sum()
    counts = np.random.default_rng(seed).multinomial(n_events, probs)
    full = np.zeros(hi_bin, dtype=np.int64)
    full[lo_bin:] = counts
    return IntervalHistogram(bin_width=bin_width, counts=full)
