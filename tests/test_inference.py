import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from spadrate import er, inference, nhpp, simulate
from spadrate.exceptions import DegenerateDataError, FitError, SaturationError


# ---------------------------------------------------------------------------
# histogram construction

def test_build_histogram_basic():
    hist = inference.build_histogram([1.5e-9, 2.5e-9], 1e-9)
    assert hist.counts[1] == 1
    assert hist.counts[2] == 1
    assert hist.total == 2
    assert hist.overflow == 0


def test_build_histogram_edge_goes_right():
    # a value exactly on an edge belongs to the bin starting there
    hist = inference.build_histogram([2e-9], 1e-9)
    assert hist.counts[2] == 1
    assert hist.counts.size == 3


def test_build_histogram_empty():
    hist = inference.build_histogram([], 1e-9)
    assert hist.total == 0
    assert hist.counts.size == 0


def test_build_histogram_bounds_and_overflow():
    hist = inference.build_histogram([0.5, 1.5, 2.5, 9.0], 1.0, bounds=(1.0, 3.0))
    assert hist.origin == 1.0
    assert list(hist.counts) == [1, 1]
    assert hist.overflow == 2


def test_build_histogram_tallies_huge_interval_as_overflow():
    # the interval lies 1e24 bins out, far past the int64 range
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        hist = inference.build_histogram([1e-9, 2e-9, 1e15], 1e-9, bounds=(0.0, 1e-6))
    assert hist.counts[1] == 1
    assert hist.counts[2] == 1
    assert hist.total == 2
    assert hist.overflow == 1


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_build_histogram_rejects_non_finite_intervals(bad):
    with pytest.raises(ValueError, match="finite"):
        inference.build_histogram([1e-9, bad, 3e-9], 1e-9)


def test_build_histogram_rejects_bad_width():
    with pytest.raises(ValueError):
        inference.build_histogram([1.0], 0.0)


@pytest.mark.parametrize("bin_width, bounds", [
    (np.nan, None), (np.inf, None), (1.0, (0.0, np.nan)), (1.0, (-np.inf, 3.0)),
])
def test_build_histogram_rejects_non_finite_width_or_bounds(bin_width, bounds):
    with pytest.raises(ValueError):
        inference.build_histogram([1.5, 2.5], bin_width, bounds=bounds)
    if bounds is None:
        with pytest.raises(ValueError):
            inference.IntervalHistogram(bin_width=bin_width, counts=[1, 2])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=10.0), max_size=50))
def test_histogram_conserves_counts(values):
    hist = inference.build_histogram(values, 0.25, bounds=(0.0, 5.0))
    assert hist.total + hist.overflow == len(values)


def test_histogram_csv_round_trip(tmp_path):
    hist = inference.build_histogram([1.5e-9, 2.5e-9, 7.2e-9], 1e-9)
    path = tmp_path / "h.csv"
    hist.to_csv(path)
    back = inference.IntervalHistogram.from_csv(path)
    assert back.bin_width == pytest.approx(hist.bin_width, rel=1e-12)
    np.testing.assert_array_equal(back.counts, hist.counts)


def test_build_histogram_over_many_bins_allocates_only_populated_ones():
    # 1e3 intervals over ~1e8 bins: a dense tally would take 800 MB
    values = np.random.default_rng(5).uniform(0.0, 0.1, 1000)
    tracemalloc.start()
    try:
        hist = inference.build_histogram(values, 1e-9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert hist.n_bins == int(values.max() / 1e-9) + 1
    assert hist.total == 1000
    np.testing.assert_array_equal(hist.index, np.unique(np.floor(values / 1e-9)))


def test_lumped_empty_runs_leave_deviance_and_gradient_unchanged(paper_params):
    # 2000 intervals leave runs of empty bins inside the populated span
    hist = helpers.multinomial_interval_hist(1e7, paper_params, 2000, seed=1)
    edges, counts = inference._segments(hist)
    assert np.count_nonzero(np.diff(hist.index) > 1) > 10
    assert counts.size <= 2 * hist.index.size + 1 < hist.n_bins
    params = np.array([1.1e7, paper_params.tau_d, 1.3e-7, 0.9])
    lumped = inference._half_deviance(counts, *inference._er_bins(edges, params, hist.total))
    fine = inference._half_deviance(hist.counts.astype(float),
                                    *inference._er_bins(hist.bin_edges, params, hist.total))
    assert lumped[0] == pytest.approx(fine[0], rel=1e-12)
    np.testing.assert_allclose(lumped[1], fine[1], rtol=1e-12)


@pytest.mark.parametrize("bin_width", [1e-9, 20e-9], ids=["1ns", "20ns"])
@pytest.mark.parametrize("rt", [0.01, 1.0, 100.0])
def test_er_bins_log_jacobian_matches_finite_differences(paper_params, rt, bin_width):
    r_star, tau_d, tau_r = rt / paper_params.tau_r, paper_params.tau_d, paper_params.tau_r
    # the first bin straddles tau_d with no edge on it; later bins widen out to H = 30
    span = helpers.hazard_time(r_star, tau_r, 30.0) / bin_width
    steps = np.unique(np.geomspace(1.0, max(span, 2.0), 40).astype(int))
    edges = tau_d + bin_width * (np.concatenate(([0], steps)) - 0.3)
    params = np.array([r_star, tau_d, tau_r, 0.7])
    mu, d_log_mu = inference._er_bins(edges, params, 1000)
    assert np.all(mu > 0)
    # log steps of 1e-6, except that tau_d moves by 1e-4 of a bin
    for row, h in enumerate([1e-6, 1e-4 * bin_width / tau_d, 1e-6, 1e-6]):
        up, down = params.copy(), params.copy()
        up[row] *= np.exp(h)
        down[row] *= np.exp(-h)
        numeric = (np.log(inference._er_bins(edges, up, 1000)[0])
                   - np.log(inference._er_bins(edges, down, 1000)[0])) / (2 * h)
        np.testing.assert_allclose(d_log_mu[row], numeric, rtol=1e-5, atol=1e-6, err_msg=str(row))


def test_histogram_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,count\n0,1\n")
    with pytest.raises(ValueError):
        inference.IntervalHistogram.from_csv(path)


_V2_HEADER = "# spadrate interval histogram v2\n# bin_width=1e-09\n# origin=0.0\n"


@pytest.mark.parametrize("content", [
    b"time,count\n0,1\n",
    b"bin_left_s,count\n0,1\n1e-9,x\n",
    b"bin_left_s,count\n0,1\n1e-9,-2\n",
    _V2_HEADER.encode() + b"# overflow=0\n# n_bins=5\nbin_index,count\n1,3\n",
    _V2_HEADER.encode() + b"# n_bins=5\n# overflow=0\nbin_index,count\n3,3\n5,2\n",
    b"\xff\xfe,count\n0,1\n",
], ids=["bad_header", "text_row", "negative_count", "v2_key_order", "v2_past_n_bins",
        "not_utf8"])
def test_malformed_histogram_file_is_degenerate_data(tmp_path, content):
    # the CLI maps DegenerateDataError to exit 3 and any other ValueError to exit 2
    path = tmp_path / "h.csv"
    path.write_bytes(content)
    with pytest.raises(DegenerateDataError, match=re.escape(str(path))):
        inference.IntervalHistogram.from_csv(path)
    with pytest.raises(ValueError):
        inference.IntervalHistogram.from_csv(path)


def test_simulated_histogram_shape(paper_params):
    # rounded peak after the dead-time edge, then an exponential-like tail
    r_star = 1e7
    config = simulate.SimConfig(
        er=paper_params,
        source=er.SourceParams(photon_rate=r_star / paper_params.eta0),
        n_events=300_000,
        seed=21,
    )
    iv = simulate.intervals(simulate.simulate(config))
    lo = paper_params.tau_d
    hist = inference.build_histogram(iv, 1e-9, bounds=(lo, lo + 2e-6))
    peak = int(np.argmax(hist.counts))
    first = int(np.nonzero(hist.counts)[0][0])
    assert peak > first + 20  # peak well beyond the rising edge
    third = hist.counts.size // 3
    assert hist.counts[:third].sum() > hist.counts[-third:].sum()  # decaying tail


# ---------------------------------------------------------------------------
# model fitting

def test_fit_rejects_degenerate_histograms():
    with pytest.raises(DegenerateDataError):
        inference.fit_er_histogram(
            inference.IntervalHistogram(bin_width=1e-9, counts=np.zeros(5, dtype=int))
        )
    single = np.zeros(5, dtype=int)
    single[2] = 100
    with pytest.raises(DegenerateDataError):
        inference.fit_er_histogram(inference.IntervalHistogram(bin_width=1e-9, counts=single))


@pytest.mark.parametrize("bin_width", [1e-9, 20e-9], ids=["1ns", "20ns"])
def test_fit_recovers_parameters_quickly(paper_params, bin_width):
    # 20 ns is wider than tau_r / 10: the exact bin mass must hold there too
    hist = helpers.multinomial_interval_hist(1e7, paper_params, 1_000_000, seed=300,
                                             bin_width=bin_width)
    res = inference.fit_er_histogram(hist)
    assert res.r_star == pytest.approx(1e7, rel=5e-3)
    assert abs(res.tau_d - paper_params.tau_d) < 2e-9
    assert res.tau_r == pytest.approx(paper_params.tau_r, rel=0.02)
    assert res.goodness < 2.0
    assert set(res.uncertainties) == {"r_star", "tau_d", "tau_r", "scale"}


@pytest.mark.parametrize("seed, bin_width", [(310, 1e-9), (311, 1e-9), (312, 20e-9)])
def test_goodness_is_near_one_for_correct_model(paper_params, seed, bin_width):
    # deviance per degree of freedom of the support span, not of every bin
    hist = helpers.multinomial_interval_hist(1e7, paper_params, 1_000_000, seed=seed,
                                             bin_width=bin_width)
    res = inference.fit_er_histogram(hist)
    assert 0.5 < res.goodness < 1.5


@pytest.mark.parametrize("factor", [30.0, 1.0 / 30.0], ids=["x30", "div30"])
def test_fit_from_far_tau_r_start_matches_default(paper_params, factor):
    hist = helpers.multinomial_interval_hist(1e7, paper_params, 1_000_000, seed=313)
    ref = inference.fit_er_histogram(hist)
    far = inference.fit_er_histogram(hist, init={"tau_r": factor * paper_params.tau_r})
    for name in ("r_star", "tau_d", "tau_r", "scale"):
        assert getattr(far, name) == pytest.approx(getattr(ref, name), rel=1e-6)


def test_fit_pulls_are_calibrated(paper_params):
    truth = {"r_star": 1e7, "tau_d": paper_params.tau_d, "tau_r": paper_params.tau_r}
    pulls = {name: [] for name in truth}
    for seed in range(400, 430):
        hist = helpers.multinomial_interval_hist(1e7, paper_params, 1_000_000, seed=seed)
        res = inference.fit_er_histogram(hist)
        for name, value in truth.items():
            pulls[name].append((getattr(res, name) - value) / res.uncertainties[name])
    for name, z in pulls.items():
        assert abs(np.mean(z)) < 0.6, (name, np.mean(z))
        assert 0.6 <= np.std(z, ddof=1) <= 1.5, (name, np.std(z, ddof=1))


def test_expected_counts_sum_to_scaled_total(paper_params):
    hist = helpers.multinomial_interval_hist(1e7, paper_params, 100_000, seed=314)
    mu = inference.expected_counts(hist, 1e7, paper_params.tau_d, paper_params.tau_r, 0.5)
    assert mu.shape == hist.counts.shape
    assert np.all(mu[: int(paper_params.tau_d / hist.bin_width)] == 0.0)
    assert mu.sum() == pytest.approx(0.5 * hist.total, rel=1e-9)


def test_expected_counts_equal_the_fit_bin_law(paper_params):
    hist = helpers.multinomial_interval_hist(1e7, paper_params, 20_000, seed=315)
    params = (1e7, paper_params.tau_d, paper_params.tau_r, 0.5)
    dense = inference.expected_counts(hist, *params)
    np.testing.assert_array_equal(dense, inference._er_bins(hist.bin_edges, params, hist.total)[0])
    edges, counts = inference._segments(hist)
    np.testing.assert_array_equal(inference.expected_counts(hist, *params, populated=True),
                                  inference._er_bins(edges, params, hist.total)[0][counts > 0])


def test_scale_only_fit_is_unbiased(paper_params):
    hist = helpers.multinomial_interval_hist(1e7, paper_params, 1_000_000, seed=301)
    res = inference.fit_er_histogram(
        hist,
        fixed={"r_star": 1e7, "tau_d": paper_params.tau_d, "tau_r": paper_params.tau_r},
    )
    assert res.fixed == ("r_star", "tau_d", "tau_r")
    assert abs(res.scale - 1.0) < 3 * res.uncertainties["scale"]


def test_fit_count_scaling_invariance(paper_params):
    hist = helpers.multinomial_interval_hist(3e6, paper_params, 200_000, seed=302)
    tripled = inference.IntervalHistogram(
        bin_width=hist.bin_width, counts=hist.counts * 3, origin=hist.origin
    )
    res1 = inference.fit_er_histogram(hist, fixed={"tau_d": paper_params.tau_d})
    res3 = inference.fit_er_histogram(tripled, fixed={"tau_d": paper_params.tau_d})
    assert res3.r_star == pytest.approx(res1.r_star, rel=1e-4)
    assert res3.tau_r == pytest.approx(res1.tau_r, rel=1e-4)
    assert res3.scale == pytest.approx(res1.scale, rel=1e-4)


def test_fit_residuals_are_standard_normal(paper_params):
    hist = helpers.multinomial_interval_hist(1e7, paper_params, 10_000_000, seed=303)
    res = inference.fit_er_histogram(hist)
    params = er.ErParams(eta0=1.0, tau_d=res.tau_d, tau_r=res.tau_r)
    source = er.SourceParams(photon_rate=res.r_star)
    mu = res.scale * hist.total * hist.bin_width * er.er_interval_pdf(
        hist.bin_centers, params, source
    )
    mask = mu >= 10.0
    z = (hist.counts[mask] - mu[mask]) / np.sqrt(mu[mask])
    assert abs(z.mean()) < 0.05
    assert 0.8 < z.var(ddof=1) < 1.2


def test_fit_bias_shrinks_with_events(paper_params):
    small = helpers.multinomial_interval_hist(1e7, paper_params, 100_000, seed=304)
    big = helpers.multinomial_interval_hist(1e7, paper_params, 10_000_000, seed=304)
    fixed = {"r_star": 1e7, "tau_d": paper_params.tau_d}
    err_small = abs(
        inference.fit_er_histogram(small, fixed=fixed).tau_r / paper_params.tau_r - 1
    )
    err_big = abs(
        inference.fit_er_histogram(big, fixed=fixed).tau_r / paper_params.tau_r - 1
    )
    assert err_big < err_small


def test_fit_recovers_eta0_with_calibrated_rate(paper_params):
    hist = helpers.multinomial_interval_hist(1e7, paper_params, 500_000, seed=305)
    photon_rate = 1e7 / paper_params.eta0
    res = inference.fit_er_histogram(hist, photon_rate=photon_rate)
    assert res.eta0 == pytest.approx(paper_params.eta0, rel=0.03)
    assert res.er_params().tau_r == res.tau_r


@pytest.mark.parametrize("calibration", [
    {"photon_rate": -5e8}, {"photon_rate": np.nan}, {"photon_rate": np.inf}, {"photon_rate": 0.0},
    {"photon_rate": 5e8, "dark_apriori": np.nan}, {"photon_rate": 5e8, "dark_apriori": -1e9},
    {"dark_apriori": np.inf},
], ids=str)
def test_fit_rejects_impossible_calibration(paper_params, calibration):
    hist = helpers.multinomial_interval_hist(1e8, paper_params, 20000, seed=1)
    with pytest.raises(ValueError, match="must be finite"):
        inference.fit_er_histogram(hist, fixed={"tau_d": paper_params.tau_d, "scale": 1.0},
                                   **calibration)


def test_fit_result_without_calibration_has_no_eta0(paper_params):
    hist = helpers.multinomial_interval_hist(1e7, paper_params, 100_000, seed=306)
    res = inference.fit_er_histogram(hist, fixed={"tau_d": paper_params.tau_d})
    assert res.eta0 is None
    with pytest.raises(ValueError):
        res.er_params()


@pytest.mark.parametrize("fixed", [("tau_x",), ["tau_d", "tau_x"]], ids=["tuple", "list"])
def test_fit_rejects_unknown_fixed_names_in_sequence_form(paper_params, fixed):
    # the mapping form is checked through the CLI's --fix
    hist = helpers.multinomial_interval_hist(1e7, paper_params, 10_000, seed=307)
    with pytest.raises(ValueError, match=r"unknown fixed parameters: \['tau_x'\]"):
        inference.fit_er_histogram(hist, fixed=fixed)


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_fit_that_cannot_separate_r_star_from_tau_r_is_fit_error(paper_params, seed):
    # r_star*tau_r = 1e4: the ~1.6 ns on-time fills about 6 bins of 1 ns, which
    # fix r_star / tau_r but not the two apart
    config = simulate.SimConfig(
        er=paper_params,
        source=er.SourceParams(photon_rate=1e4 / paper_params.tau_r / paper_params.eta0),
        n_events=20_000,
        seed=seed,
    )
    hist = inference.build_histogram(simulate.intervals(simulate.simulate(config)), 1e-9)
    with pytest.raises(FitError, match="does not resolve the combination of r_star, tau_r:"):
        inference.fit_er_histogram(hist)


# ---------------------------------------------------------------------------
# rate inference

def test_infer_simple_matches_closed_form(paper_params):
    r = 9e3
    out = inference.infer_apriori_rate(r, paper_params, model="simple")
    assert out.total_apriori == nhpp.simple_rate_inverse(r, paper_params.tau_d)
    assert out.photon_apriori == out.total_apriori
    assert not out.clipped


def test_infer_er_round_trip(paper_params):
    r_star = 4.2e6
    r = er.er_rate_forward(r_star, paper_params)
    out = inference.infer_apriori_rate(r, paper_params, model="er")
    assert out.total_apriori == pytest.approx(r_star, rel=1e-8)


def test_infer_er_at_least_simple(paper_params):
    for r in (1e3, 9e3, 12e3, 12.4e3):
        simple = inference.infer_apriori_rate(r, paper_params, model="simple")
        er_out = inference.infer_apriori_rate(r, paper_params, model="er")
        assert er_out.total_apriori >= simple.total_apriori


def test_infer_subtracts_dark(paper_params):
    r_star = 1e6
    r = er.er_rate_forward(r_star, paper_params)
    out = inference.infer_apriori_rate(r, paper_params, dark_apriori=858.0, model="er")
    assert out.photon_apriori == pytest.approx(r_star - 858.0, rel=1e-6)


def test_infer_clips_negative_photon_rate(paper_params):
    r = er.er_rate_forward(500.0, paper_params)
    out = inference.infer_apriori_rate(r, paper_params, dark_apriori=858.0, model="er")
    assert out.clipped
    assert out.photon_apriori == 0.0


@pytest.mark.parametrize("dark", [np.nan, np.inf, -5.0])
def test_infer_rejects_non_finite_or_negative_dark_rate(paper_params, dark):
    with pytest.raises(ValueError):
        inference.infer_apriori_rate(1e3, paper_params, dark_apriori=dark)


def test_infer_model_aliases(paper_params):
    r = 9e3
    assert inference.infer_apriori_rate(r, paper_params, model="low").model == "approx_low"
    assert inference.infer_apriori_rate(r, paper_params, model="high").model == "approx_high"
    with pytest.raises(ValueError):
        inference.infer_apriori_rate(r, paper_params, model="bogus")


def test_infer_saturation(paper_params):
    with pytest.raises(SaturationError):
        inference.infer_apriori_rate(1.0 / paper_params.tau_d, paper_params, model="er")


@pytest.mark.parametrize("rate", [np.nan, np.inf])
@pytest.mark.parametrize("model", ["simple", "er", "low", "high"])
def test_infer_rejects_non_finite_rate(paper_params, model, rate):
    with pytest.raises(ValueError, match="must be finite"):
        inference.infer_apriori_rate(rate, paper_params, model=model)


@pytest.mark.parametrize("rate", [np.nan, np.inf])
def test_dark_rate_rejects_non_finite_measurement(rate):
    with pytest.raises(ValueError, match="must be finite"):
        inference.dark_count_rate_from_measurement(rate, 80e-6)


def test_dark_rate_round_trip():
    tau_d = 80.09205e-6
    measured = nhpp.rate_forward(1.0 / 858.0, tau_d)  # what 858 Hz a priori produces
    assert measured == pytest.approx(802.9, abs=0.5)
    assert inference.dark_count_rate_from_measurement(measured, tau_d) == pytest.approx(
        858.0, rel=1e-10
    )
    assert inference.dark_count_rate_from_measurement(0.0, tau_d) == 0.0
    with pytest.raises(SaturationError):
        inference.dark_count_rate_from_measurement(1.0 / tau_d, tau_d)
