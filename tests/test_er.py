import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate

import helpers
from spadrate import er, nhpp, simulate
from spadrate.exceptions import SaturationError

TAU_R = 112.5e-9


def test_params_validation():
    with pytest.raises(ValueError):
        er.ErParams(eta0=0.0, tau_d=1e-6, tau_r=1e-7)
    with pytest.raises(ValueError):
        er.ErParams(eta0=1.5, tau_d=1e-6, tau_r=1e-7)
    with pytest.raises(ValueError):
        er.ErParams(eta0=0.2, tau_d=-1e-6, tau_r=1e-7)
    with pytest.raises(ValueError):
        er.ErParams(eta0=0.2, tau_d=1e-6, tau_r=0.0)
    er.ErParams(eta0=0.2, tau_d=0.0, tau_r=1e-7)  # degenerate dead-time allowed


def test_source_params_combined_rate(paper_params):
    src = er.SourceParams(photon_rate=5.23e7, dark_apriori=858.0)
    assert src.apriori_rate(paper_params) == pytest.approx(
        0.19117 * 5.23e7 + 858.0, rel=1e-15
    )


def test_efficiency_values(paper_params):
    assert er.er_efficiency(0.0, paper_params) == 0.0
    assert er.er_efficiency(paper_params.tau_r, paper_params) == pytest.approx(
        paper_params.eta0 * (1 - np.exp(-1)), rel=1e-14
    )
    assert er.er_efficiency(10 * paper_params.tau_r, paper_params) == pytest.approx(
        0.19117 * (1 - np.exp(-10)), rel=1e-14
    )
    with pytest.raises(ValueError):
        er.er_efficiency(-1e-9, paper_params)


def test_efficiency_strictly_increasing_below_eta0(paper_params):
    # strictness is only representable while 1 - exp(-t/tau_r) < 1 in doubles
    t = np.geomspace(1e-12, 25 * paper_params.tau_r, 200)
    values = er.er_efficiency(t, paper_params)
    assert np.all(np.diff(values) > 0)
    assert np.all(values < paper_params.eta0)


def test_hazard_at_zero():
    assert er.er_cumulative_hazard(0.0, 5e7, TAU_R) == 0.0


def test_hazard_small_time_expansion():
    # hazard = r*t^2/(2 tau_r) * (1 - t/(3 tau_r) + ...) for t << tau_r
    r_star = 5e7
    t = TAU_R * 1e-4
    lead = r_star * t * t / (2 * TAU_R)
    assert er.er_cumulative_hazard(t, r_star, TAU_R) == pytest.approx(lead, rel=1e-4)
    two_terms = lead * (1 - t / (3 * TAU_R))
    assert er.er_cumulative_hazard(t, r_star, TAU_R) == pytest.approx(two_terms, rel=1e-8)


def test_hazard_matches_quadrature():
    r_star, t = 5e7, 500e-9
    val, _ = integrate.quad(
        lambda s: r_star * (1 - np.exp(-s / TAU_R)), 0.0, t, epsabs=0.0, epsrel=1e-13
    )
    assert er.er_cumulative_hazard(t, r_star, TAU_R) == pytest.approx(val, rel=1e-12)


def test_hazard_linear_asymptote():
    r_star = 5e7
    t = 50 * TAU_R
    assert er.er_cumulative_hazard(t, r_star, TAU_R) == pytest.approx(
        r_star * (t - TAU_R), rel=1e-12
    )


def test_pdf_zero_at_zero():
    assert er.er_pdf(0.0, 5e7, TAU_R) == 0.0


def test_pdf_instantaneous_recovery_limit():
    # tau_r -> 0 collapses to the plain exponential density
    r_star = 5e7
    t = np.geomspace(1e-9, 1e-6, 50)
    # residual deviation is the exact r_star * tau_r hazard offset, ~5e-11
    np.testing.assert_allclose(
        er.er_pdf(t, r_star, 1e-18), r_star * np.exp(-r_star * t), rtol=1e-9
    )


def test_pdf_matches_generic_nhpp(paper_params):
    r_i = 5.23e7
    r_star = paper_params.eta0 * r_i
    prof = er.er_profile(paper_params.eta0, paper_params.tau_r)
    t = np.geomspace(paper_params.tau_r / 1000, 30 / r_star, 200)
    np.testing.assert_allclose(
        er.er_pdf(t, r_star, paper_params.tau_r),
        nhpp.nhpp_pdf(prof, r_i, t),
        rtol=1e-10,
    )


def test_pdf_hazard_factorisation(paper_params):
    # pdf must equal r_star * eta(t)/eta0 * exp(-hazard)
    r_star = 5.23e7
    t = np.geomspace(1e-10, 2e-6, 100)
    eta_ratio = er.er_efficiency(t, paper_params) / paper_params.eta0
    expected = r_star * eta_ratio * np.exp(
        -er.er_cumulative_hazard(t, r_star, paper_params.tau_r)
    )
    np.testing.assert_allclose(er.er_pdf(t, r_star, paper_params.tau_r), expected, rtol=1e-12)


def test_pdf_no_overflow_at_extreme_rate():
    r_star = 1e4 / TAU_R  # naive correction factor would overflow e^709
    vals = er.er_pdf(np.geomspace(1e-13, 1e-6, 200), r_star, TAU_R)
    assert np.all(np.isfinite(vals))
    assert np.all(vals >= 0)


def test_interval_pdf_dead_time_shift(paper_params):
    src = er.SourceParams(photon_rate=5.23e7)
    r_star = src.apriori_rate(paper_params)
    tau_d = paper_params.tau_d
    assert er.er_interval_pdf(tau_d / 2, paper_params, src) == 0.0
    assert er.er_interval_pdf(tau_d, paper_params, src) == 0.0
    delta = tau_d + 150e-9
    # exact identity with the float-subtracted shift, tight against the target
    assert er.er_interval_pdf(delta, paper_params, src) == er.er_pdf(
        delta - tau_d, r_star, paper_params.tau_r
    )
    assert er.er_interval_pdf(delta, paper_params, src) == pytest.approx(
        er.er_pdf(150e-9, r_star, paper_params.tau_r), rel=1e-9
    )


def test_interval_law_propagates_nan(paper_params):
    src = er.SourceParams(photon_rate=5.23e7)
    assert np.isnan(er.er_interval_pdf(np.nan, paper_params, src))
    assert np.isnan(er.er_interval_cdf(np.nan, paper_params, src))


def test_interval_pdf_dark_rate_is_additive(paper_params):
    src = er.SourceParams(photon_rate=5.23e7, dark_apriori=858.0)
    delta = paper_params.tau_d + 90e-9
    combined = paper_params.eta0 * 5.23e7 + 858.0
    assert er.er_interval_pdf(delta, paper_params, src) == er.er_pdf(
        delta - paper_params.tau_d, combined, paper_params.tau_r
    )


def test_mean_low_rate_is_simple_limit():
    r_star = 1e-6 / TAU_R
    assert er.er_mean_on_time(r_star, TAU_R) == pytest.approx(1.0 / r_star, rel=1e-5)


def test_mean_against_monte_carlo(paper_params):
    # Independent oracle: 1e7 simulated intervals at r_star * tau_r = 1.
    r_star = 1.0 / paper_params.tau_r
    config = simulate.SimConfig(
        er=paper_params,
        source=er.SourceParams(photon_rate=r_star / paper_params.eta0),
        n_events=10_000_000,
        seed=20240711,
    )
    on_times = simulate.intervals(simulate.simulate(config)) - paper_params.tau_d
    se = on_times.std(ddof=1) / np.sqrt(on_times.size)
    assert abs(on_times.mean() - er.er_mean_on_time(r_star, paper_params.tau_r)) < 4 * se


def test_mean_high_rate_first_term():
    r_star = 1e4 / TAU_R
    assert er.er_mean_on_time(r_star, TAU_R) == pytest.approx(
        np.sqrt(np.pi * TAU_R / (2 * r_star)), rel=1e-2
    )


def test_mean_always_exceeds_simple_model():
    for rt in [1e-3, 1e-1, 1.0, 1e1, 1e3]:
        r_star = rt / TAU_R
        assert er.er_mean_on_time(r_star, TAU_R) > 1.0 / r_star


def test_mean_loglog_slopes():
    h = np.sqrt(10.0)

    def slope(rt):
        r = rt / TAU_R
        lo = er.er_mean_on_time(r / h, TAU_R)
        hi = er.er_mean_on_time(r * h, TAU_R)
        return (np.log(hi) - np.log(lo)) / (2 * np.log(h))

    assert slope(1e-3) == pytest.approx(-1.0, abs=0.05)
    assert slope(1e3) == pytest.approx(-0.5, abs=0.05)


def test_argmax_positive_and_decreasing_in_rate():
    # The peak sits at positive t (unlike instantaneous recovery, which
    # peaks at zero) and moves towards zero as the rate grows.
    locations = [helpers.argmax_er_pdf(rt / TAU_R, TAU_R) for rt in (0.5, 1.0, 2.0, 5.0, 10.0)]
    assert all(loc > 0 for loc in locations)
    assert all(a > b for a, b in zip(locations, locations[1:]))


def test_pdf_against_simple_model_crossover():
    for rt in (1e-4, 1e-3, 1e-2):
        r_star = rt / TAU_R
        t = np.geomspace(10 * TAU_R, 40 * TAU_R, 64)
        simple = r_star * np.exp(-r_star * t)
        ratio = er.er_pdf(t, r_star, TAU_R) / simple
        # beyond ten recovery constants the deviation is bounded by the
        # residual correction factor exp(rt) - 1 plus the efficiency deficit
        assert np.all(np.abs(ratio - 1.0) <= 1.1 * rt + 1.1 * np.exp(-10))
        # well inside the recovery window the ER density is suppressed
        assert er.er_pdf(0.1 * TAU_R, r_star, TAU_R) < r_star * np.exp(-r_star * 0.1 * TAU_R)
    # at rt = 1e-4 the 1e-3 relative agreement claim holds outright
    r_star = 1e-4 / TAU_R
    t = np.geomspace(10 * TAU_R, 40 * TAU_R, 64)
    ratio = er.er_pdf(t, r_star, TAU_R) / (r_star * np.exp(-r_star * t))
    assert np.all(np.abs(ratio - 1.0) < 1e-3)


@pytest.mark.parametrize("a", [10.0**k for k in np.arange(-8.0, 6.5, 0.5)]
                         + [19.99, 20.0, 20.01])
def test_mean_matches_mpmath_oracle(a):
    pytest.importorskip("mpmath")
    r_star = a / TAU_R
    exact = helpers.mp_mean_on_time(r_star, TAU_R)
    assert abs(er.er_mean_on_time(r_star, TAU_R) / exact - 1) < 1e-13


@settings(max_examples=60, deadline=None)
@given(log_rt=st.floats(min_value=-8, max_value=6))
def test_mean_matches_mpmath_oracle_property(log_rt):
    pytest.importorskip("mpmath")
    r_star = 10.0**log_rt / TAU_R
    exact = helpers.mp_mean_on_time(r_star, TAU_R)
    assert abs(er.er_mean_on_time(r_star, TAU_R) / exact - 1) <= 1e-13


@settings(max_examples=400, deadline=None)
@given(log_rt=st.floats(min_value=-8, max_value=8), log_x=st.floats(min_value=-10, max_value=11))
def test_pdf_and_cdf_match_mpmath_oracle_property(log_rt, log_x):
    # exp(-H) turns the hazard's rounding into a pdf error growing with H
    pytest.importorskip("mpmath")
    r_star, t = 10.0**log_rt / TAU_R, 10.0**log_x * TAU_R
    hazard, pdf, cdf = helpers.mp_er_law(r_star, TAU_R, t)
    assume(hazard <= 600)
    assert abs(er.er_pdf(t, r_star, TAU_R) / pdf - 1) <= 1e-14 * max(1.0, hazard)
    assert abs(er.er_cdf(t, r_star, TAU_R) / cdf - 1) <= 1e-14


@pytest.mark.parametrize("a", [1e7, 1e8])
def test_mean_beyond_oracle_range_follows_high_rate_expansion(a):
    # the two-term expansion's relative error is O(1/a)
    r_star = a / TAU_R
    assert abs(er.er_mean_on_time(r_star, TAU_R) / er.approx_high_mean(r_star, TAU_R) - 1) < 1 / a


@pytest.mark.parametrize("r_star", [0.0, -1.0, np.nan, np.inf])
def test_mean_rejects_non_positive_or_non_finite_rate(r_star):
    with pytest.raises(ValueError):
        er.er_mean_on_time(r_star, TAU_R)


def test_er_rate_forward_low_rate(paper_params):
    assert er.er_rate_forward(1.0, paper_params) == pytest.approx(1.0, rel=1e-3)


def test_er_rate_forward_saturates_below_inverse_dead_time(paper_params):
    r = er.er_rate_forward(1e12, paper_params)
    assert r < 1.0 / paper_params.tau_d
    assert r == pytest.approx(1.0 / paper_params.tau_d, rel=1e-3)


def test_er_rate_forward_against_monte_carlo(paper_params):
    r_star = 47.1e6
    config = simulate.SimConfig(
        er=paper_params,
        source=er.SourceParams(photon_rate=r_star / paper_params.eta0),
        n_events=1_000_000,
        seed=4711,
    )
    iv = simulate.intervals(simulate.simulate(config))
    mc_rate = 1.0 / iv.mean()
    assert er.er_rate_forward(r_star, paper_params) == pytest.approx(mc_rate, rel=5e-3)


def test_er_rate_inverse_round_trip(paper_params):
    r = 0.999 / paper_params.tau_d
    r_star = er.er_rate_inverse(r, paper_params)
    assert np.isfinite(r_star)
    assert er.er_rate_forward(r_star, paper_params) == pytest.approx(r, rel=1e-8)


@pytest.mark.parametrize("a", np.logspace(-8, 8, 17))
def test_er_rate_inverse_round_trip_over_full_range(paper_params, a):
    r_star = a / paper_params.tau_r
    r = er.er_rate_forward(r_star, paper_params)
    assert er.er_rate_inverse(r, paper_params) == pytest.approx(r_star, rel=1e-8)


@pytest.mark.parametrize("r", [0.0, -1.0, np.nan, np.inf])
def test_er_rate_inverse_rejects_non_positive_or_non_finite_rate(paper_params, r):
    with pytest.raises(ValueError):
        er.er_rate_inverse(r, paper_params)


def test_er_rate_inverse_matches_simple_at_low_rate(paper_params):
    r_star = 1e-3 / paper_params.tau_r  # well inside the simple regime
    r = er.er_rate_forward(r_star, paper_params)
    simple = nhpp.simple_rate_inverse(r, paper_params.tau_d)
    assert er.er_rate_inverse(r, paper_params) == pytest.approx(simple, rel=1e-3)


def test_er_rate_inverse_saturation(paper_params):
    with pytest.raises(SaturationError):
        er.er_rate_inverse(1.0 / paper_params.tau_d, paper_params)


def test_er_rate_inverse_recovers_simulated_rate(paper_params):
    r_star = 47e6
    config = simulate.SimConfig(
        er=paper_params,
        source=er.SourceParams(photon_rate=r_star / paper_params.eta0),
        n_events=1_000_000,
        seed=99,
    )
    iv = simulate.intervals(simulate.simulate(config))
    recovered = er.er_rate_inverse(1.0 / iv.mean(), paper_params)
    assert recovered == pytest.approx(r_star, rel=1e-2)


def test_approx_low_mean_at_vanishing_rate_product():
    tau_r = 1e-12
    r_star = 1.0
    assert er.approx_low_mean(r_star, tau_r) == pytest.approx(1.0 / r_star + tau_r, rel=1e-11)


def test_approx_low_mean_vs_numeric():
    r_star = 0.01 / TAU_R
    exact = er.er_mean_on_time(r_star, TAU_R)
    assert abs(er.approx_low_mean(r_star, TAU_R) / exact - 1) < 5e-3


def test_approx_low_pdf_formula():
    r_star, t = 5e4, 3e-7
    expected = (1 + r_star * TAU_R) * (1 - np.exp(-t / TAU_R)) * r_star * np.exp(-r_star * t)
    assert er.approx_low_pdf(t, r_star, TAU_R) == pytest.approx(expected, rel=1e-12)


def test_approx_low_round_trip(paper_params):
    # the published inverse is the exact algebraic inverse of the forward
    for rt in (1e-4, 1e-3, 1e-2):
        r_star = rt / paper_params.tau_r
        r = er.approx_low_forward(r_star, paper_params)
        assert er.approx_low_inverse(r, paper_params) == pytest.approx(r_star, rel=1e-11)


def test_approx_high_mean_vs_numeric():
    r_star = 1e4 / TAU_R
    exact = er.er_mean_on_time(r_star, TAU_R)
    assert abs(er.approx_high_mean(r_star, TAU_R) / exact - 1) < 1e-2


def test_approx_high_round_trip(paper_params):
    for rt in (1e2, 1e3, 1e4):
        r_star = rt / paper_params.tau_r
        r = er.approx_high_forward(r_star, paper_params)
        assert er.approx_high_inverse(r, paper_params) == pytest.approx(r_star, rel=1e-11)


@pytest.mark.parametrize("rt, tol", [(1e2, 2e-3), (1e4, 2e-5)])
def test_approx_high_inverse_of_exact_rate(paper_params, rt, tol):
    # the inverse solves the two-term mean, whose relative error falls as 1/rt
    r_star = rt / paper_params.tau_r
    r = er.er_rate_forward(r_star, paper_params)
    assert er.approx_high_inverse(r, paper_params) == pytest.approx(r_star, rel=tol)


def test_approx_high_pdf_peak_location():
    # stationary point of the Gaussian-like factor: t* -> sqrt(tau_r / r_star)
    for rt, tol in ((1e2, 1e-2), (1e4, 1e-3)):
        r_star = rt / TAU_R
        assert helpers.argmax_er_pdf(r_star, TAU_R) == pytest.approx(
            np.sqrt(TAU_R / r_star), rel=tol
        )


@pytest.mark.parametrize("rt, tol", [(1e4, 1e-2), (1e6, 1e-4)])
def test_approx_high_pdf_vs_exact(rt, tol):
    # the expansion's error shrinks with r_star * tau_r over the bulk of the density
    r_star = rt / TAU_R
    t = np.linspace(0.01, 4.0, 400) * np.sqrt(TAU_R / r_star)
    rel = er.approx_high_pdf(t, r_star, TAU_R) / er.er_pdf(t, r_star, TAU_R) - 1
    assert np.max(np.abs(rel)) < tol


@settings(max_examples=30, deadline=None)
@given(rt=st.floats(min_value=-3, max_value=3), x=st.floats(min_value=-4, max_value=2))
def test_pdf_nonnegative_property(rt, x):
    r_star = 10.0**rt / TAU_R
    t = 10.0**x * TAU_R
    assert er.er_pdf(t, r_star, TAU_R) >= 0.0


@settings(max_examples=30, deadline=None)
@given(x=st.floats(min_value=-8, max_value=2))
def test_hazard_consistency_property(x):
    # cumulative hazard equals tau_r-scaled x + expm1(-x) identity
    r_star = 3.3e6
    t = 10.0**x * TAU_R
    direct = r_star * (t - TAU_R * (1 - np.exp(-t / TAU_R)))
    val = er.er_cumulative_hazard(t, r_star, TAU_R)
    assert val >= 0.0
    if t / TAU_R > 1e-2:  # direct form only trustworthy away from cancellation
        assert val == pytest.approx(direct, rel=1e-9)
