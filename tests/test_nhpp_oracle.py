"""The generic nhpp oracle on numpy alone: accuracy, termination, no scipy."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spadrate import er, nhpp
from spadrate.exceptions import IntegrationError

SRC = str(Path(__file__).resolve().parents[1] / "src")
TAU_R = 112.5e-9


def test_nhpp_runs_without_scipy():
    # scipy is a test dependency only: with it unimportable every module loads
    # and the numeric cumulative, the mean and the generic inverse all run
    code = (
        f"import sys; sys.path.insert(0, {SRC!r}); sys.modules['scipy'] = None\n"
        "import importlib, pkgutil, numpy as np, spadrate\n"
        "for info in pkgutil.iter_modules(spadrate.__path__):\n"
        "    importlib.import_module('spadrate.' + info.name)\n"
        "from spadrate import nhpp\n"
        "prof = nhpp.profile_from_efficiency(lambda t: -np.expm1(-t))\n"
        "print(nhpp.nhpp_ccdf(prof, 2.0, 1.0), nhpp.mean_on_time(prof, 2.0),\n"
        "      nhpp.invert_rate(lambda x: 1.0 / (1.0 / x + 1e-3), 500.0))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    ccdf, mean, inverse = map(float, out.stdout.split())
    assert ccdf == pytest.approx(np.exp(-2.0 * np.exp(-1.0)), rel=1e-14)
    assert mean == pytest.approx(er.er_mean_on_time(2.0, 1.0), rel=1e-14)
    assert inverse == pytest.approx(1000.0, rel=1e-12)


@pytest.mark.parametrize("k", range(-16, 17))
def test_mean_on_time_matches_the_er_closed_form(k):
    # a = 1e-8 ... 1e8: the halving panels below the first quantile resolve the
    # recovery knee however far below the bulk of the density it lies
    a = 10.0 ** (k / 2)
    mean = nhpp.mean_on_time(er.er_profile(1.0, TAU_R), a / TAU_R)
    assert mean == pytest.approx(er.er_mean_on_time(a / TAU_R, TAU_R), rel=1e-14, abs=0)


def test_numeric_cumulative_matches_the_closed_form_far_past_the_knee():
    prof = er.er_profile(1.0, TAU_R)
    t = 1e6 * TAU_R
    numeric = nhpp.profile_from_efficiency(prof.efficiency).cumulative(t)
    assert numeric == pytest.approx(prof.cumulative(t), rel=1e-12, abs=0)


@pytest.mark.parametrize("k", range(-16, 17))
def test_mean_on_time_through_the_numeric_cumulative_matches_the_er_closed_form(k):
    a = 10.0 ** (k / 2)
    prof = nhpp.profile_from_efficiency(er.er_profile(1.0, TAU_R).efficiency)
    mean = nhpp.mean_on_time(prof, a / TAU_R)
    assert mean == pytest.approx(er.er_mean_on_time(a / TAU_R, TAU_R), rel=1e-14, abs=0)


def test_numeric_cumulative_of_an_array_matches_the_closed_form():
    # unsorted, with repeats and a 0: one pass serves every time, in place
    prof = er.er_profile(1.0, TAU_R)
    numeric = nhpp.profile_from_efficiency(prof.efficiency).cumulative
    t = TAU_R * np.array([[3.0, 0.0, 1e-6], [3.0, 1e4, 0.5], [1e-6, 0.0, 40.0]])
    out = numeric(t)
    assert out.shape == t.shape
    np.testing.assert_allclose(out, prof.cumulative(t), rtol=1e-14, atol=0)
    # a nan is nan alone: the halving grid still spans the largest finite time
    far, nan = numeric(np.array([1e4 * TAU_R, np.nan]))
    assert far == pytest.approx(prof.cumulative(1e4 * TAU_R), rel=1e-14, abs=0)
    assert np.isnan(nan)
    scalar = numeric(np.float64(TAU_R))
    assert isinstance(scalar, float)
    assert scalar == pytest.approx(prof.cumulative(TAU_R), rel=1e-14, abs=0)


def test_mean_on_time_raises_where_the_hazard_stays_bounded():
    # eta(t) = exp(-t) integrates to 1: at r_i = 0.01 the hazard never reaches 45
    bounded = nhpp.EfficiencyProfile(efficiency=lambda t: np.exp(-t),
                                     cumulative=lambda t: -np.expm1(-np.asarray(t, dtype=float)))
    with pytest.raises(IntegrationError, match="hazard still below 45"):
        nhpp.mean_on_time(bounded, 0.01)


def _kappa_efficiency(t):
    # ROADMAP item 6's saturating recovery at kappa = 1, eta0 = 1
    return np.expm1(np.expm1(-t / TAU_R)) / np.expm1(-1.0)


def _mp_kappa_mean(a, dps=40):
    """Integral of the survival function, the kappa = 1 cumulative by its series."""
    import mpmath

    with mpmath.workdps(dps):
        c = 1 / mpmath.expm1(1)
        weights = [1 / (n * mpmath.factorial(n)) for n in range(1, 45)]

        def survival(x):
            q, qn, s = mpmath.exp(-x), 1, 0
            for w in weights:
                qn *= q
                s += w * (1 - qn)
            return mpmath.exp(-a * (x - c * s))

        points = [0] + [mpmath.mpf(10) ** k for k in range(-3, 6)] + [mpmath.inf]
        return float(TAU_R * mpmath.quad(survival, points))


@pytest.mark.parametrize("a", [1e-3, 1.0, 1e3])
def test_mean_on_time_of_a_non_exponential_recovery_matches_mpmath(a):
    pytest.importorskip("mpmath")
    prof = nhpp.profile_from_efficiency(_kappa_efficiency)
    mean = nhpp.mean_on_time(prof, a / TAU_R)
    assert mean == pytest.approx(_mp_kappa_mean(a), rel=1e-12, abs=0)


@pytest.mark.parametrize("a", [1e-3, 1.0, 1e3])
def test_kappa_mean_evaluates_the_efficiency_at_fewer_than_a_million_points(a):
    # a cumulative that loops over the requested times in Python needs ~1.07e7
    points = []

    def efficiency(t):
        points.append(np.size(t))
        return _kappa_efficiency(t)

    nhpp.mean_on_time(nhpp.profile_from_efficiency(efficiency), a / TAU_R)
    assert sum(points) < 1e6


@pytest.mark.parametrize("r", [3e-300, 1e300])
def test_invert_rate_identity_across_the_float_range(r):
    assert nhpp.invert_rate(lambda x: x, r) == pytest.approx(r, rel=1e-12, abs=0)


def test_invert_rate_takes_a_bracket_from_zero():
    forward = lambda x: 1.0 / (1.0 / x + 1e-3) if x > 0 else 0.0
    assert nhpp.invert_rate(forward, 500.0, bracket=(0.0, 1e4)) == pytest.approx(
        1000.0, rel=1e-12, abs=0)


def test_invert_rate_ends_on_a_subnormal_rate():
    # a relative width of 1e-12 is finer than the subnormal spacing
    r = 1e-320
    assert abs(nhpp.invert_rate(lambda x: x, r) - r) <= 2 * np.spacing(r)


def test_mean_on_time_ends_on_subnormal_quantiles():
    # the first quantiles, near 0.05 / r_i, are subnormal times
    r_i = 1.7e308
    assert nhpp.mean_on_time(nhpp.constant_profile(1.0), r_i) == pytest.approx(
        1.0 / r_i, rel=1e-13, abs=0)
