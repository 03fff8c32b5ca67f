import math
import warnings

import numpy as np
import pytest
from scipy import integrate

import helpers
from spadrate import er, nhpp, paralyzing, simulate
from spadrate.exceptions import FitError
from spadrate.paralyzing import (
    ParalyzingParams,
    fit_paralyzing,
    mean_conditional_on_time,
    mean_single_prolongation,
    paralyzation_prob,
    paralyzing_mean_on_time,
)

TAU_R = 112.5e-9
PP = ParalyzingParams(tau_p1=15e-9, tau_p2=27e-9)


def simpson_conditional_mean(pp, r_star, tau_r, n=100_001):
    """Independent oracle: composite Simpson on a dense uniform grid."""
    t = np.linspace(0.0, pp.tau_p1, n)
    num = integrate.simpson(t * er.er_pdf(t, r_star, tau_r), x=t)
    den = integrate.simpson(er.er_pdf(t, r_star, tau_r), x=t)
    return num / den


def test_gauss_legendre_rule_integrates_polynomials_to_degree_95():
    # the weights are ~1e-12 off a 50-digit rule (scipy's too), which leaves
    # up to ~7e-15 on a monomial
    x, w = nhpp._GL_X, nhpp._GL_W
    for k in range(96):
        exact = 0.0 if k % 2 else 2.0 / (k + 1)
        assert abs(w @ x**k - exact) <= 1e-14, f"x^{k}"


def test_params_validation():
    with pytest.raises(ValueError):
        ParalyzingParams(tau_p1=-1e-9)
    ParalyzingParams()  # defaults disable the extension


def test_paralyzation_prob_zero_window():
    assert paralyzation_prob(ParalyzingParams(), 1e9, TAU_R) == 0.0


def test_paralyzation_prob_saturates():
    assert paralyzation_prob(PP, 1e12, TAU_R) > 0.9999


def test_paralyzation_prob_matches_pdf_integral():
    r_star = 1e9
    val, _ = integrate.quad(
        lambda t: er.er_pdf(t, r_star, TAU_R), 0.0, PP.tau_p1, epsabs=0.0, epsrel=1e-12
    )
    assert paralyzation_prob(PP, r_star, TAU_R) == pytest.approx(val, rel=1e-9)


def test_conditional_mean_small_hazard_limit():
    # with a nearly linear density on [0, tau_p1] the conditional mean is
    # (2/3) tau_p1 (with a small negative correction of order tau_p1/tau_r)
    r_star = 1e-4 * TAU_R / PP.tau_p1**2
    cond = mean_conditional_on_time(PP, r_star, TAU_R)
    assert cond / PP.tau_p1 == pytest.approx(2.0 / 3.0, abs=0.01)
    assert cond == pytest.approx(simpson_conditional_mean(PP, r_star, TAU_R), rel=1e-7)


def test_conditional_mean_shrinks_with_window():
    r_star = 1e9
    small = ParalyzingParams(tau_p1=1e-12, tau_p2=0.0)
    assert mean_conditional_on_time(small, r_star, TAU_R) < 1e-12


def test_conditional_mean_paper_rate():
    cond = mean_conditional_on_time(PP, 1e9, TAU_R)
    assert cond == pytest.approx(simpson_conditional_mean(PP, 1e9, TAU_R), rel=1e-7)
    assert 0.0 < cond < PP.tau_p1


def test_conditional_mean_undefined_without_window():
    with pytest.raises(ValueError):
        mean_conditional_on_time(ParalyzingParams(), 1e9, TAU_R)


def test_prolongation_without_extension_equals_conditional():
    pp = ParalyzingParams(tau_p1=15e-9, tau_p2=0.0)
    assert mean_single_prolongation(pp, 1e9, TAU_R) == mean_conditional_on_time(
        pp, 1e9, TAU_R
    )


def test_prolongation_inverse_near_28_mhz():
    # highest-flux histogram regime of the reference detector
    r_star = 0.19117 * 7.79e9
    inv = 1.0 / mean_single_prolongation(PP, r_star, TAU_R)
    assert inv == pytest.approx(28e6, rel=0.15)


def test_prolongation_value_at_1e9():
    expected = simpson_conditional_mean(PP, 1e9, TAU_R) + PP.tau_p2
    assert mean_single_prolongation(PP, 1e9, TAU_R) == pytest.approx(expected, rel=1e-7)


def test_paralyzing_mean_disabled_equals_er_mean():
    r_star = 3e8
    assert paralyzing_mean_on_time(ParalyzingParams(), r_star, TAU_R) == er.er_mean_on_time(
        r_star, TAU_R
    )


def test_paralyzing_mean_rollover():
    # blinding: the mean grows again once paralyzation dominates
    assert paralyzing_mean_on_time(PP, 1e10, TAU_R) > paralyzing_mean_on_time(PP, 1e9, TAU_R)


@pytest.mark.parametrize("r_star", [1e6, 1e8, 1e9, 5e9])
def test_paralyzing_mean_dominates_er_mean(r_star):
    assert paralyzing_mean_on_time(PP, r_star, TAU_R) >= er.er_mean_on_time(r_star, TAU_R)


# the criterion-9 grid, then windows of 9 to 900 tau_r holding hazards of 9 to 150
@pytest.mark.parametrize(
    "r_star, pp",
    [pytest.param(rs, PP, id=str(rs)) for rs in np.logspace(7.5, 10.5, 22)]
    + [
        pytest.param(rs, ParalyzingParams(tau_p1=p1, tau_p2=PP.tau_p2), id=f"long-{p1:g}-{rs:g}")
        for p1, rs in ((1e-6, 1e7), (1e-6, 1e8), (5e-6, 3e7), (1e-5, 1e6), (1e-4, 1e5))
    ]
    # the paper's window past H = 50 (H ~ 96 and ~ 287), where the window end is cut
    + [pytest.param(rs, PP, id=f"cut-{rs:g}") for rs in (1e11, 3e11)],
)
def test_paralyzing_mean_matches_mpmath_oracle(r_star, pp):
    pytest.importorskip("mpmath")
    exact = helpers.mp_paralyzing_mean_on_time(r_star, TAU_R, pp.tau_p1, pp.tau_p2)
    assert paralyzing_mean_on_time(pp, r_star, TAU_R) == pytest.approx(exact, rel=1e-12)


# tau_p1 in [1 ns, 1 us] and r_star in [1e5, 3e10] /s at the paper's tau_r,
# then a = r_star tau_r in [1e-8, 1e8] with tau_p1 / tau_r in [1e-4, 1e4]
@pytest.mark.parametrize(
    "r_star, tau_r, tau_p1",
    [(rs, TAU_R, p1) for p1 in (1e-9, 1e-8, 1e-7, 1e-6) for rs in (1e5, 1e7, 1e9, 3e10)]
    + [(a, 1.0, x) for a in 10.0 ** np.arange(-8, 9, 4) for x in (1e-4, 1e-3, 1e-2, 1, 1e2, 1e4)]
    + [(rs, TAU_R, 15e-9) for rs in (1e11, 3e11)],
)
def test_conditional_mean_matches_mpmath_oracle(r_star, tau_r, tau_p1):
    pytest.importorskip("mpmath")
    exact = helpers.mp_conditional_mean(r_star, tau_r, tau_p1)
    pp = ParalyzingParams(tau_p1=tau_p1)
    assert mean_conditional_on_time(pp, r_star, tau_r) == pytest.approx(exact, rel=1e-13)


def test_window_end_needs_no_solver(monkeypatch):
    # H(tau_p1) ~ 96: the window is cut at a closed-form bound, not a hazard inverse
    def solver(g):
        raise AssertionError("the paralyzing mean called the hazard inverse")

    monkeypatch.setattr(simulate, "_inverse_hazard", solver)
    assert paralyzing_mean_on_time(PP, 1e11, TAU_R) > er.er_mean_on_time(1e11, TAU_R)


# (tau_p1, r_star, tau_r), windows interleaved so the node cache both misses and hits:
# the paper's window, uncut from 1e6 to 1e10 /s, between the knee split at 40 tau_r,
# the cut at H = 50 with and without the split, and t / tau_r past the float range
# with H(tau_p1) = 4.5
_WINDOWS = [(15e-9, rs, TAU_R) for rs in np.logspace(6.0, 10.0, 17).tolist()]
_WINDOWS[1::4] = [(1e-5, 1e5, TAU_R), (15e-9, 3e11, TAU_R), (2e298, 2.25e-298, 1e-10),
                  (1e-4, 1e6, TAU_R)]


def test_window_nodes_keep_the_bits_of_the_pdf_rule():
    paralyzing._window_nodes.cache_clear()
    for _ in range(2):
        for tau_p1, r_star, tau_r in _WINDOWS:
            pp = ParalyzingParams(tau_p1=tau_p1, tau_p2=27e-9)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                got = [*paralyzing._prolongation_terms(tau_p1, r_star, tau_r),
                       paralyzing_mean_on_time(pp, r_star, tau_r),
                       mean_conditional_on_time(pp, r_star, tau_r)]
            # the array path of the hazard, and the pdf evaluated afresh at every node
            hazard = er.er_cumulative_hazard(np.array([tau_p1]), r_star, tau_r)[0]
            numerator = helpers.paralyzing_numerator_rule(tau_p1, r_star, tau_r)
            extra, count = float(np.exp(hazard) * numerator), float(np.expm1(hazard))
            want = [extra, count, er.er_mean_on_time(r_star, tau_r) + extra + count * pp.tau_p2,
                    numerator / float(-np.expm1(-hazard))]
            assert [v.hex() for v in got] == [v.hex() for v in want], (tau_p1, r_star, tau_r)
    # five windows, each built once; every other numerator of the three calls reuses one
    info = paralyzing._window_nodes.cache_info()
    assert (info.misses, info.hits) == (5, 3 * 2 * len(_WINDOWS) - 5)
    for knee, end, tau_r, far in ((15e-9, 15e-9, TAU_R, False), (4e-9, 2e298, 1e-10, True)):
        *nodes, mask = paralyzing._window_nodes(knee, end, tau_r)
        assert (mask is not None) == far
        for a in nodes + [mask] * far:
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[0, 0] = 0


def test_conditional_mean_past_float_range_over_tau_r_has_no_warning():
    # t / tau_r passes the float range at the window's far nodes; the density is
    # r_star e^(-r_star t) there, so N / p = (1 - (1 + H) e^-H) / (1 - e^-H) / r_star
    r_star, hazard = 2.25e-298, 4.5
    want = (1.0 - (1.0 + hazard) * math.exp(-hazard)) / -math.expm1(-hazard) / r_star
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = mean_conditional_on_time(ParalyzingParams(2e298, 0.0), r_star, 1e-10)
        # H(tau_p1) = 4.5e10, where c * (c + 8) of the window end overflows
        mean_conditional_on_time(ParalyzingParams(2e298, 0.0), 2.25e-288, 1e-10)
    assert got == pytest.approx(want, rel=1e-13)


def test_window_cut_holds_where_its_root_overflows():
    # c = 50 / (r_star tau_r) ~ 2.2e299: c * (c + 8) overflows, and the window still ends
    # where H = 50; p rounds to 1, so the conditional mean is the unconditional one
    r_star, tau_r = 2.25e-288, 1e-10
    pp = ParalyzingParams(2e298, 0.0)
    assert paralyzation_prob(pp, r_star, tau_r) == 1.0
    got = mean_conditional_on_time(pp, r_star, tau_r)
    assert got == pytest.approx(er.er_mean_on_time(r_star, tau_r), rel=1e-12)


@pytest.mark.parametrize("tau_p2", [27e-9, 0.0])
def test_full_paralysis_mean_raises(tau_p2):
    # H(tau_p1) ~ 8.9e3: e^H overflows, so the mean is infinite, with no overflow warning
    pp = ParalyzingParams(tau_p1=1e-6, tau_p2=tau_p2)
    with pytest.raises(ValueError, match=r"H\(tau_p1\) = 8875.*full paralysis"):
        paralyzing_mean_on_time(pp, 1e10, TAU_R)


def test_conditional_mean_below_window():
    for r_star in (1e7, 1e8, 1e9, 1e10):
        assert mean_conditional_on_time(PP, r_star, TAU_R) < PP.tau_p1


def test_forward_rate_has_interior_maximum(paper_params):
    grid = np.logspace(7.5, 10.5, 22)
    rates = [
        1.0 / (paralyzing_mean_on_time(PP, rs, TAU_R) + paper_params.tau_d) for rs in grid
    ]
    imax = int(np.argmax(rates))
    assert 0 < imax < len(rates) - 1


def test_simulator_micro_dynamics_vs_mean_model(paper_params):
    # The mean-level model takes the final detection segment from the
    # unconditional on-time law; the micro-dynamics condition it on
    # exceeding tau_p1.  The simulated mean must therefore sit at
    # model + p*(mean_er - conditional)/(1-p) within Monte Carlo error,
    # and the gap to the plain model must equal that same term.
    tau_d = 1e-6
    det = er.ErParams(eta0=0.19117, tau_d=tau_d, tau_r=TAU_R)
    for r_star, seed in ((3e8, 31), (1e9, 32)):
        config = simulate.SimConfig(
            er=det,
            source=er.SourceParams(photon_rate=r_star / det.eta0),
            paralyzing=PP,
            n_events=150_000,
            seed=seed,
        )
        on = simulate.intervals(simulate.simulate(config)) - tau_d
        p = paralyzation_prob(PP, r_star, TAU_R)
        cond = mean_conditional_on_time(PP, r_star, TAU_R)
        model = paralyzing_mean_on_time(PP, r_star, TAU_R)
        micro = model + p * (er.er_mean_on_time(r_star, TAU_R) - cond) / (1.0 - p)
        se = on.std(ddof=1) / np.sqrt(on.size)
        assert abs(on.mean() - micro) < 4 * se


def test_fit_recovers_noiseless_curve():
    det = er.ErParams(eta0=0.19117, tau_d=1e-6, tau_r=TAU_R)
    grid = np.logspace(8, np.log10(5e9), 9)
    points = [(rs, paralyzing_mean_on_time(PP, rs, TAU_R)) for rs in grid]
    fit = fit_paralyzing(points, det)
    assert fit.params.tau_p1 == pytest.approx(PP.tau_p1, rel=1e-3)
    assert fit.params.tau_p2 == pytest.approx(PP.tau_p2, rel=1e-3)


def test_fit_bias_on_exact_micro_dynamics_means():
    # Noiseless means of the simulator's micro-dynamics on the criterion-10
    # ladder.  The offset is model mismatch, not noise: the mean-level model
    # does not condition the final segment on t >= tau_p1, so its fit of
    # the exact micro means lands tau_p2 about 3% high.
    det = er.ErParams(eta0=0.19117, tau_d=1e-6, tau_r=TAU_R)
    grid = np.logspace(8, np.log10(6e9), 10)
    points = [(rs, helpers.paralyzing_micro_mean(rs, TAU_R, PP.tau_p1, PP.tau_p2))
              for rs in grid]
    fit = fit_paralyzing(points, det)
    assert 0.025 <= fit.params.tau_p2 / PP.tau_p2 - 1.0 <= 0.035
    assert abs(fit.params.tau_p1 / PP.tau_p1 - 1.0) < 0.005


def test_fit_recovers_noisy_curve_within_three_sigma():
    # repeated-trial statistics: every seeded trial must land within three
    # empirical standard deviations of the configured truth
    det = er.ErParams(eta0=0.19117, tau_d=1e-6, tau_r=TAU_R)
    grid = np.logspace(8, np.log10(5e9), 9)
    clean = np.array([paralyzing_mean_on_time(PP, rs, TAU_R) for rs in grid])
    estimates = []
    for seed in range(12):
        rng = np.random.default_rng(seed)
        noisy = clean * (1.0 + 0.01 * rng.standard_normal(clean.size))
        fit = fit_paralyzing(list(zip(grid, noisy)), det)
        assert fit.stderr[0] > 0 and fit.stderr[1] > 0
        estimates.append((fit.params.tau_p1, fit.params.tau_p2))
    estimates = np.array(estimates)
    sigma = estimates.std(axis=0, ddof=1)
    truth = np.array([PP.tau_p1, PP.tau_p2])
    assert np.all(np.abs(estimates - truth) < 3 * (sigma + 1e-15))


def test_fit_reaches_minimum_on_simulated_ladder():
    # (r_star, mean on-time) of a simulated rollover ladder on which a fit
    # posed in seconds stopped 27% low in tau_p2, short of the minimum
    det = er.ErParams(eta0=0.19117, tau_d=1e-6, tau_r=TAU_R)
    points = [
        (1e8, 5.301887683357979e-08),
        (157605860.01492402, 4.5954297232954304e-08),
        (248396071.1104373, 4.2886245279027575e-08),
        (391486764.116887, 4.43213867031265e-08),
        (617006081.4310142, 5.3474800867201314e-08),
        (972437740.9837325, 7.680732012058522e-08),
        (1532618864.7871046, 1.3723012941640726e-07),
        (2415497142.598682, 3.32978566656571e-07),
        (3806965045.2285533, 1.2617363885596148e-06),
        (6000000000.000003, 9.99276129619729e-06),
    ]
    fit = fit_paralyzing(points, det)
    assert fit.params.tau_p1 == pytest.approx(PP.tau_p1, rel=0.1)
    assert fit.params.tau_p2 == pytest.approx(PP.tau_p2, rel=0.1)


def test_fit_recovers_window_near_tau_r():
    # means up to ~1 s put nearly all the weight on the top rungs
    det = er.ErParams(eta0=0.19117, tau_d=1e-6, tau_r=TAU_R)
    truth = ParalyzingParams(tau_p1=100e-9, tau_p2=50e-9)
    grid = np.logspace(6, 8.7, 9)
    clean = np.array([paralyzing_mean_on_time(truth, rs, TAU_R) for rs in grid])
    noisy = clean * (1.0 + 0.01 * np.random.default_rng(3).standard_normal(grid.size))
    fit = fit_paralyzing(list(zip(grid, noisy)), det)
    assert fit.params.tau_p1 == pytest.approx(truth.tau_p1, rel=1e-2)
    assert fit.params.tau_p2 == pytest.approx(truth.tau_p2, rel=1e-2)
    assert all(0 < s < np.inf for s in fit.stderr)


def test_fit_without_paralyzation_fails_clearly():
    # means the exponential-recovery model explains to 0.1%, or exactly
    det = er.ErParams(eta0=0.19117, tau_d=1e-6, tau_r=TAU_R)
    grid = np.logspace(8, np.log10(5e9), 9)
    base = np.array([er.er_mean_on_time(rs, TAU_R) for rs in grid])
    rng = np.random.default_rng(0)
    for means in (base * (1.0 + 1e-3 * rng.standard_normal(grid.size)), base):
        with pytest.raises(FitError, match="not resolved"):
            fit_paralyzing(list(zip(grid, means)), det)


def test_fit_needs_three_points():
    det = er.ErParams(eta0=0.19117, tau_d=1e-6, tau_r=TAU_R)
    with pytest.raises(ValueError):
        fit_paralyzing([(1e8, 5e-8), (1e9, 8e-8)], det)
