import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from spadrate import nhpp
from spadrate.er import er_ccdf, er_efficiency, er_profile
from spadrate.exceptions import SaturationError


def test_ccdf_zero_rate_is_one():
    prof = nhpp.constant_profile(0.5)
    assert nhpp.nhpp_ccdf(prof, 0.0, 1.0) == 1.0


def test_ccdf_constant_profile_is_homogeneous_poisson():
    eta0, r_i, t = 0.37, 2.1e5, 3.7e-6
    prof = nhpp.constant_profile(eta0)
    assert nhpp.nhpp_ccdf(prof, r_i, t) == pytest.approx(np.exp(-eta0 * r_i * t), rel=1e-14)


def test_ccdf_rejects_negative_inputs():
    prof = nhpp.constant_profile(0.5)
    with pytest.raises(ValueError):
        nhpp.nhpp_ccdf(prof, -1.0, 1.0)
    with pytest.raises(ValueError):
        nhpp.nhpp_ccdf(prof, 1.0, -1.0)


def test_ccdf_quadrature_profile_matches_closed_form(paper_params):
    # Integrating the bare efficiency numerically must reproduce the
    # closed-form hazard route to well below 1e-10.
    r_i, t = 5.23e7, 200e-9
    quad_prof = nhpp.profile_from_efficiency(
        lambda s: er_efficiency(s, paper_params)
    )
    via_quad = nhpp.nhpp_ccdf(quad_prof, r_i, t)
    closed = er_ccdf(t, paper_params.eta0 * r_i, paper_params.tau_r)
    assert via_quad == pytest.approx(closed, rel=1e-10)


def test_pdf_vanishes_where_efficiency_does(paper_params):
    prof = er_profile(paper_params.eta0, paper_params.tau_r)
    assert nhpp.nhpp_pdf(prof, 5.23e7, 0.0) == 0.0


def test_pdf_constant_profile_is_exponential():
    eta0, r_i = 0.19117, 5.23e7
    prof = nhpp.constant_profile(eta0)
    t = np.array([0.0, 1e-8, 3e-7])
    expected = eta0 * r_i * np.exp(-eta0 * r_i * t)
    np.testing.assert_allclose(nhpp.nhpp_pdf(prof, r_i, t), expected, rtol=1e-14)


def test_pdf_is_derivative_of_cdf(paper_params):
    prof = er_profile(paper_params.eta0, paper_params.tau_r)
    r_i = 5.23e7
    r_star = paper_params.eta0 * r_i
    t = np.geomspace(paper_params.tau_r / 100, 20.0 / r_star, 40)
    h = t * 1e-6
    numeric = (nhpp.nhpp_ccdf(prof, r_i, t - h) - nhpp.nhpp_ccdf(prof, r_i, t + h)) / (2 * h)
    np.testing.assert_allclose(nhpp.nhpp_pdf(prof, r_i, t), numeric, rtol=1e-6)


@pytest.mark.parametrize("rt", [1e-2, 1.0, 1e2])
def test_pdf_normalization(rt):
    tau_r = 112.5e-9
    assert helpers.integrate_pdf(rt / tau_r, tau_r) == pytest.approx(1.0, abs=1e-9)


def test_mean_on_time_constant_profile():
    eta0, r_i = 0.42, 8.5e4
    prof = nhpp.constant_profile(eta0)
    assert nhpp.mean_on_time(prof, r_i) == pytest.approx(1.0 / (eta0 * r_i), rel=1e-10)


def test_mean_on_time_er_low_rate_limit():
    tau_r = 112.5e-9
    r_star = 1e-4 / tau_r
    m = nhpp.mean_on_time(er_profile(1.0, tau_r), r_star)
    assert m == pytest.approx(1.0 / r_star, rel=5e-4)


def test_mean_on_time_er_high_rate_first_term():
    tau_r = 112.5e-9
    r_star = 1e4 / tau_r
    m = nhpp.mean_on_time(er_profile(1.0, tau_r), r_star)
    assert m == pytest.approx(np.sqrt(np.pi * tau_r / (2 * r_star)), rel=1e-2)


def test_mean_on_time_zero_rate_raises():
    with pytest.raises(ValueError):
        nhpp.mean_on_time(nhpp.constant_profile(0.5), 0.0)


@pytest.mark.parametrize("rt", [1e-3, 1.0, 1e3])
def test_mean_on_time_matches_survival_route(rt):
    # Independent oracle: <t> also equals the integral of the ccdf.
    tau_r = 112.5e-9
    r_star = rt / tau_r
    via_pdf = nhpp.mean_on_time(er_profile(1.0, tau_r), r_star)
    assert via_pdf == pytest.approx(helpers.mean_via_survival(r_star, tau_r), rel=1e-9)


def test_rate_forward_simple_relation():
    r_star, tau_d = 5e4, 80.092e-6
    assert nhpp.rate_forward(1.0 / r_star, tau_d) == 1.0 / (1.0 / r_star + tau_d)
    assert nhpp.rate_forward(tau_d, tau_d) == pytest.approx(1.0 / (2 * tau_d), rel=1e-15)
    # saturation: mean on-time -> 0
    assert nhpp.rate_forward(1e-15, tau_d) == pytest.approx(1.0 / tau_d, rel=1e-9)


def test_rate_forward_rejects_bad_mean():
    with pytest.raises(ValueError):
        nhpp.rate_forward(0.0, 1e-6)


def test_simple_rate_inverse_halfway_point():
    tau_d = 80.092e-6
    assert nhpp.simple_rate_inverse(1.0 / (2 * tau_d), tau_d) == pytest.approx(1.0 / tau_d, rel=1e-12)


def test_simple_rate_inverse_low_rate_asymptote():
    tau_d = 80.092e-6
    r = 1e-3
    assert nhpp.simple_rate_inverse(r, tau_d) == pytest.approx(r, rel=1e-6)


def test_simple_rate_inverse_round_trip():
    r, tau_d = 12.3e3, 80.092e-6
    r_star = nhpp.simple_rate_inverse(r, tau_d)
    assert nhpp.rate_forward(1.0 / r_star, tau_d) == pytest.approx(r, rel=1e-12)


def test_simple_rate_inverse_saturation():
    tau_d = 80.092e-6
    with pytest.raises(SaturationError):
        nhpp.simple_rate_inverse(1.0 / tau_d, tau_d)


@pytest.mark.parametrize("r, tau_d", [
    (np.nan, 80e-6), (np.inf, 0.0), (np.inf, 80e-6), (0.0, 80e-6), (-1e3, 80e-6),
    (1e3, np.nan), (1e3, np.inf), (1e3, -1e-9),
])
def test_simple_rate_inverse_rejects_non_finite_or_out_of_domain(r, tau_d):
    # an infinite rate is no measurement, not a saturated one
    with pytest.raises(ValueError, match="must be finite") as info:
        nhpp.simple_rate_inverse(r, tau_d)
    assert not isinstance(info.value, SaturationError)


def test_simple_rate_inverse_saturates_where_one_over_r_rounds_to_dead_time():
    # one ulp below 1/tau_d, 1/r - tau_d is exactly 0: no division by zero
    with pytest.raises(SaturationError):
        nhpp.simple_rate_inverse(999.9999999999999, 1e-3)


def test_invert_rate_matches_closed_form():
    tau_d = 80.092e-6
    forward = lambda x: 1.0 / (1.0 / x + tau_d)
    for r in [1e2, 9e3, 12.4e3]:
        assert nhpp.invert_rate(forward, r) == pytest.approx(
            nhpp.simple_rate_inverse(r, tau_d), rel=1e-10
        )


def test_invert_rate_er_round_trip(paper_params):
    from spadrate.er import er_rate_forward

    forward = lambda x: er_rate_forward(x, paper_params)
    r = 9e3
    r_star = nhpp.invert_rate(forward, r, saturation=1.0 / paper_params.tau_d)
    assert forward(r_star) == pytest.approx(r, rel=1e-8)


def test_invert_rate_saturation(paper_params):
    from spadrate.er import er_rate_forward

    with pytest.raises(SaturationError) as exc:
        nhpp.invert_rate(
            lambda x: er_rate_forward(x, paper_params),
            1.0 / paper_params.tau_d,
            saturation=1.0 / paper_params.tau_d,
        )
    assert "12485" in str(exc.value)  # names the supremum


@settings(max_examples=20, deadline=None)
@given(
    rt=st.floats(min_value=-2.5, max_value=2.5),
    step=st.floats(min_value=0.1, max_value=1.5),
)
def test_mean_decreasing_and_rate_increasing(rt, step):
    tau_r = 112.5e-9
    prof = er_profile(1.0, tau_r)
    r_lo = 10.0**rt / tau_r
    r_hi = r_lo * 10.0**step
    m_lo, m_hi = nhpp.mean_on_time(prof, r_lo), nhpp.mean_on_time(prof, r_hi)
    assert m_hi < m_lo
    tau_d = 1e-6
    assert nhpp.rate_forward(m_hi, tau_d) > nhpp.rate_forward(m_lo, tau_d)
