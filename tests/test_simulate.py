import copy
import hashlib
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

import helpers
from helpers import sim_config as _config
from spadrate import er, io, simulate
from spadrate.paralyzing import ParalyzingParams


def test_config_requires_exactly_one_stop(paper_params):
    with pytest.raises(ValueError):
        _config(paper_params, 1e6)
    with pytest.raises(ValueError):
        _config(paper_params, 1e6, n_events=10, duration=1.0)
    with pytest.raises(ValueError):
        _config(paper_params, 1e6, n_events=0)


def test_zero_rate_count_stop_raises(paper_params):
    config = simulate.SimConfig(
        er=paper_params, source=er.SourceParams(photon_rate=0.0), n_events=10
    )
    with pytest.raises(ValueError):
        simulate.simulate(config)


def test_zero_rate_duration_stop_gives_empty_series(paper_params):
    config = simulate.SimConfig(
        er=paper_params, source=er.SourceParams(photon_rate=0.0), duration=1.0
    )
    series = simulate.simulate(config)
    assert series.times.size == 0
    assert simulate.intervals(series).size == 0


def test_homogeneous_limit_mean(paper_params):
    # effectively instantaneous recovery: intervals ~ tau_d + Exp(1/r_star)
    fast = er.ErParams(eta0=paper_params.eta0, tau_d=paper_params.tau_d, tau_r=1e-15)
    config = _config(fast, 1e7, n_events=300_000, seed=11)
    iv = simulate.intervals(simulate.simulate(config))
    expected = 1e7 ** -1 + fast.tau_d
    se = iv.std(ddof=1) / np.sqrt(iv.size)
    assert abs(iv.mean() - expected) < 4 * se


def test_min_interval_respects_dead_time(paper_params):
    config = _config(paper_params, 1e7, n_events=100_000, seed=12)
    iv = simulate.intervals(simulate.simulate(config))
    assert iv.min() >= paper_params.tau_d


def test_times_strictly_increasing(paper_params):
    series = simulate.simulate(_config(paper_params, 1e7, n_events=10_000, seed=13))
    assert np.all(np.diff(series.times) > 0)


def test_intervals_of_explicit_list():
    np.testing.assert_array_equal(simulate.intervals(np.array([0.0, 1.0, 3.0])), [1.0, 2.0])
    assert simulate.intervals(np.array([0.5])).size == 0


def test_seed_reproducibility(paper_params, tmp_path):
    config = _config(paper_params, 5e6, n_events=5_000, seed=99)
    a = simulate.simulate(config)
    b = simulate.simulate(config)
    assert np.array_equal(a.times, b.times)
    pa, pb = tmp_path / "a.bin", tmp_path / "b.bin"
    io.write_timestamps_binary(pa, a)
    io.write_timestamps_binary(pb, b)
    assert pa.read_bytes() == pb.read_bytes()
    other = simulate.simulate(_config(paper_params, 5e6, n_events=5_000, seed=100))
    assert not np.array_equal(a.times, other.times)


def test_metadata_records_generator(paper_params):
    series = simulate.simulate(_config(paper_params, 1e6, n_events=10, seed=0))
    assert series.metadata["generator"] == "numpy.random.PCG64"
    assert series.metadata["seed"] == 0


def test_thinning_reproduces_ccdf_quartiles(paper_params):
    # acceptance path of the thinning loop against the analytic CDF
    r_star = 1.0 / paper_params.tau_r
    config = _config(paper_params, r_star, n_events=100_000, seed=14)
    on = simulate.intervals(simulate.simulate(config)) - paper_params.tau_d
    n = on.size
    for q in (0.25, 0.5, 0.75):
        t_q = helpers.er_quantile(r_star, paper_params.tau_r, q)
        p_hat = np.mean(on <= t_q)
        assert abs(p_hat - q) < 4 * np.sqrt(q * (1 - q) / n)


@pytest.mark.parametrize("rt", [1e-3, 1e4])
def test_on_time_quartiles_in_both_newton_regimes(paper_params, rt):
    # rt = 1e-3 starts Newton from g + 1, rt = 1e4 from the small-g series
    r_star = rt / paper_params.tau_r
    config = _config(paper_params, r_star, n_events=100_000, seed=21)
    on = simulate.intervals(simulate.simulate(config)) - paper_params.tau_d
    for q in (0.25, 0.5, 0.75):
        t_q = helpers.er_quantile(r_star, paper_params.tau_r, q)
        p_hat = np.mean(on <= t_q)
        assert abs(p_hat - q) < 4 * np.sqrt(q * (1 - q) / on.size)


def test_inverse_hazard_matches_mpmath():
    pytest.importorskip("mpmath")
    g = np.logspace(-14, 7, 200)
    x = simulate._inverse_hazard(g)
    oracle = np.array([helpers.mp_inverse_hazard(v) for v in g])
    np.testing.assert_allclose(x, oracle, rtol=2e-15, atol=0)
    assert simulate._inverse_hazard(np.zeros(3)).tolist() == [0.0, 0.0, 0.0]


def _inverse_hazard_reference(g):
    """Three Newton steps on x + expm1(-x) over the whole array, for g >= _G_SERIES."""
    x = g + 1.0
    small = np.flatnonzero(g < 2.0)
    s = np.sqrt(2.0 * g[small])
    x[small] = s * (1.0 + s * (1.0 / 6.0 + s / 72.0))
    for _ in range(3):
        x -= (x + np.expm1(-x) - g) / -np.expm1(-x)
    return x


def test_inverse_hazard_regimes_invert_as_if_alone():
    # g = 0 and subnormal, the series regime, the direct regime from the small-g
    # start, from g + 1 and up to 1e300, shuffled over more than two sampler
    # blocks; the share of series values runs from a majority through a third
    # (the series still goes first) to the quarter and less at which Newton
    # goes first, and all of one regime
    rng = np.random.default_rng(11)
    below = np.concatenate([[0.0, 5e-324, 1e-300, np.nextafter(simulate._G_SERIES, 0.0)],
                            rng.uniform(0.0, simulate._G_SERIES, 196)])
    above = np.concatenate([[simulate._G_SERIES, 2.0, 1e300],
                            rng.uniform(simulate._G_SERIES, 2.0, 98),
                            2.0 + rng.exponential(10.0, 99)])
    wide = np.concatenate([[0.0], np.logspace(-300, 300, 6001)])
    mixed = [wide]
    for n_below, n_above in [(200, 100), (100, 200), (50, 150), (20, 180), (200, 0), (0, 200)]:
        pool = np.concatenate([below[:n_below], above[:n_above]])
        pick = rng.permutation(np.tile(np.arange(pool.size), 2 * simulate._BLOCK // pool.size + 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            alone = np.array([simulate._inverse_hazard(pool[i:i + 1])[0] for i in range(pool.size)])
            x = simulate._inverse_hazard(pool[pick])
        np.testing.assert_array_equal(x.view(np.int64), alone[pick].view(np.int64))
        mixed.append(pool[pick])
    # below _G_SERIES the root is simulate._reversion, which
    # test_reversion_matches_mpmath checks; from _G_SERIES up it is three Newton steps
    for g in mixed:
        x = simulate._inverse_hazard(g)
        low = g < simulate._G_SERIES
        np.testing.assert_array_equal(x[low].view(np.int64),
                                      simulate._reversion(g[low]).view(np.int64))
        np.testing.assert_array_equal(x[~low].view(np.int64),
                                      _inverse_hazard_reference(g[~low]).view(np.int64))
    # g = inf has no finite root: Newton alone gives nan with an invalid warning
    # (inf - inf); with the series first or Newton first, the same bits and warnings
    for g in (np.append(wide, np.inf), np.append(wide[wide >= 1.0], np.inf)):
        low = g < simulate._G_SERIES
        with warnings.catch_warnings(record=True) as alone:
            warnings.simplefilter("always")
            want = simulate._newton(g[~low])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            x = simulate._inverse_hazard(g)
        np.testing.assert_array_equal(x[~low].view(np.int64), want.view(np.int64))
        np.testing.assert_array_equal(x[low].view(np.int64),
                                      simulate._reversion(g[low]).view(np.int64))
        assert [str(w.message) for w in caught] == [str(w.message) for w in alone]


# sha256 of the timestamps of 5,000 events at seed 0: non-paralysing streams
# at r_star*tau_r = 10^k, whose on-times invert by Newton from g + 1 (k < 0)
# to the reversion series (k > 0), and the ten blinding-ladder rungs, whose
# paralysed segments mostly take the series
_SAMPLER_DIGESTS = {
    "rt 1e-6": "947563ac29803f9a4b337b3037d68b6aaa06cc55b14a2871e63a22cf9306dc02",
    "rt 1e-4": "195a6c7e8a2ec0264e531a971d45ace04734fcc1af46efd3fd63561c7c7f5126",
    "rt 1e-2": "2f828067ed7ae7a7983546d7a256143d5c5b09c3a7373ed5b7886a22bea70263",
    "rt 1e0": "1173d55fef7856c30b9c12e47af2b4dfd184dcf89325e5b22863facca0df4058",
    "rt 1e2": "ff6ef348d6cfbe272d6cd3ce5e91c4aba55c468f16f4fa903dae924e5c880c73",
    "rt 1e4": "2872fe3c6dbd62a9e21a159df4f6443f912d949caec6a17f51a7f83b84c5195f",
    "rt 1e6": "c2bcefc541f3f4f95f9785f14889449c3d1ffe98c2cc2bcc84a51359a3590c4f",
    "rung 0": "86ffebb60be1a92e9ed401229a5add0e1e271847c8451fed24bc543c057aa6d3",
    "rung 1": "121f45523c372afe4577f8acd405aaa2e31732cb6150543e02962498f8b973bf",
    "rung 2": "95ec48a30e08f8403e366ee61558bf55137ec4c8673451552be87c93c6f2eeeb",
    "rung 3": "c34c2281cb838d1e070bcbf4baa5e7f0f892a7372ceda63eb836a46bc41a0ff7",
    "rung 4": "3e6a2ef49c51310f28767cc9506e1b76a3ddb1c962badd22bc599501b625bd95",
    "rung 5": "c87f701b07d237ab10827a0f81be78c01f8ee57ea9c5d8edd53586e28d18103d",
    "rung 6": "7880a0a6cda745d6c3ce2333660e17fcff224f64d72403ad948fb69980b7b378",
    "rung 7": "6b4fe8a2d8ea62b236bc46027c7a012a98e7e9ad8dff952253438a3b483c3a59",
    "rung 8": "ec30339fa35179f78e8b903511f760bd1febb3971d5c623459ba6ec9a7f88be7",
    "rung 9": "96acbcfeb56d0e63b522fc80469f834f172f1597d7ceb92a99106380c9ca4712",
}


def test_sampler_golden_bytes_in_both_regimes(paper_params):
    configs = {f"rt 1e{k}": _config(paper_params, 10.0 ** k / paper_params.tau_r, n_events=5000)
               for k in range(-6, 7, 2)}
    blind = er.ErParams(eta0=paper_params.eta0, tau_d=1e-6, tau_r=paper_params.tau_r)
    paralyzing = ParalyzingParams(tau_p1=15e-9, tau_p2=27e-9)
    configs.update({f"rung {i}": _config(blind, rs, n_events=5000, paralyzing=paralyzing)
                    for i, rs in enumerate(np.logspace(8, np.log10(6e9), 10))})
    got = {name: hashlib.sha256(simulate.simulate(c).times.tobytes()).hexdigest()
           for name, c in configs.items()}
    assert got == _SAMPLER_DIGESTS


# sha256 of paralysing streams at seed 0 with tau_p1 = tau_r: the paralysed
# hazards reach H(tau_r) / (r_star tau_r) = e^-1, so ~95-99% of every
# paralysed block takes Newton; 5,000 events at r_star*tau_r = 0.1, 1 and 10,
# and a duration stop of 0.2 s at 10
_NEWTON_PARALYSED_DIGESTS = {
    "rt 0.1": "15d729a9ff8b17f70722dff8e694eb8e45f8bc2d16f17a0d2a31ad5373d13cf8",
    "rt 1": "f1f3c697803bb33d9b117b7054e4acfd0ba8722e01d0fc4094ca43dd330b2a7c",
    "rt 10": "e9206a98ec9516f3dcef74452ad2b777f175d8f3f3373dd60101a06f1d155b25",
    "duration": "6b46b44fb6f2852fb0fab48abc58c72b28e4cb1a0ae7ccb5b21034ef49cc8bc2",
}


def test_sampler_golden_bytes_with_newton_paralysed_blocks(paper_params):
    paralyzing = ParalyzingParams(tau_p1=paper_params.tau_r, tau_p2=27e-9)
    configs = {f"rt {rt:g}": _config(paper_params, rt / paper_params.tau_r, n_events=5000,
                                     paralyzing=paralyzing)
               for rt in (0.1, 1.0, 10.0)}
    configs["duration"] = _config(paper_params, 10.0 / paper_params.tau_r, duration=0.2,
                                  paralyzing=paralyzing)
    got = {name: hashlib.sha256(simulate.simulate(c).times.tobytes()).hexdigest()
           for name, c in configs.items()}
    assert got == _NEWTON_PARALYSED_DIGESTS


def _sample_reference(rng, n, r_star, tau_r, paralyzing, block):
    """A run of on-times written plainly, with sized draws: each block of ``block``
    paralysed segments adds tau_r times each detection's partial sum, summed from
    0.0 in segment order; then each block of ``block`` detected segments."""
    a = r_star * tau_r
    h1 = float(er.er_cumulative_hazard(paralyzing.tau_p1, r_star, tau_r))
    out = [0.0] * n
    if h1 > 0:
        count = rng.geometric(np.exp(-h1), n) - 1
        out = [int(c) * paralyzing.tau_p2 for c in count]
        owner = [j for j, c in enumerate(count) for _ in range(c)]
        p = -np.expm1(-h1)
        for start in range(0, len(owner), block):
            owners = owner[start:start + block]
            seg = simulate._inverse_hazard(-np.log1p(-p * rng.random(len(owners))) / a)
            partial = {}
            for j, x in zip(owners, seg.tolist()):
                partial[j] = partial.get(j, 0.0) + x
            for j, total in partial.items():
                out[j] += tau_r * total
    for start in range(0, n, block):
        e = rng.standard_exponential(min(block, n - start))
        for i, x in enumerate(simulate._inverse_hazard((h1 + e) / a).tolist()):
            out[start + i] += tau_r * x
    return np.array(out)


def _joined_blocks(rng, n, r_star, tau_r, paralyzing, blocks=simulate._on_time_blocks):
    """A run of the stop loop in one array: its reach, then its ``blocks`` joined."""
    a, h1 = simulate._reach(n, r_star, tau_r, paralyzing)
    return np.concatenate(list(blocks(rng, n, a, h1, tau_r, paralyzing)))


def _assert_sampler_matches_reference(sample, rng, n, *args):
    """Draw with ``sample`` and with the reference from one state: same bits, same stream."""
    twin = copy.deepcopy(rng)
    got = sample(rng, n, *args)
    want = _sample_reference(twin, n, *args, simulate._BLOCK)
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
    assert rng.bit_generator.state == twin.bit_generator.state
    return got


# r_star*tau_r = 10 and tau_p1 = 0.6 tau_r: H(tau_p1) ~ 1.49, ~3.4 paralysed
# segments per detection, a fifth of the detections with none; the segments
# take both the reversion series and Newton
_REFERENCE_PARALYZING = ParalyzingParams(tau_p1=0.6 * 112.5e-9, tau_p2=27e-9)
# the top blinding rung, r_star*tau_r = 675 and tau_p1 = 15 ns: H(tau_p1) ~ 5.7, ~300
# segments per detection, so a block of detections ends inside a block of segments
_HEAVY_PARALYZING = ParalyzingParams(tau_p1=15e-9, tau_p2=27e-9)
# tau_p1 = 0.4 tau_r at r_star*tau_r = 10: H(tau_p1) ~ 0.70, e^-H >= 1/3, where numpy
# draws each geometric count from one generator word
_LIGHT_PARALYZING = ParalyzingParams(tau_p1=0.4 * 112.5e-9, tau_p2=27e-9)


@pytest.mark.parametrize("n, seed, rt, paralyzing", [
    (300, 4, 10.0, _REFERENCE_PARALYZING),
    (5, 1, 10.0, _REFERENCE_PARALYZING),
    (20, 1, 675.0, _HEAVY_PARALYZING),
    (300, 3, 10.0, _LIGHT_PARALYZING),
], ids=["blocks", "n_below_block", "heavy", "light"])
def test_sampler_blocks_match_plain_reference(paper_params, monkeypatch, n, seed, rt, paralyzing):
    monkeypatch.setattr(simulate, "_BLOCK", 8)
    r_star, tau_r = rt / paper_params.tau_r, paper_params.tau_r
    _assert_sampler_matches_reference(_joined_blocks, np.random.default_rng(seed),
                                      n, r_star, tau_r, paralyzing)
    h1 = er.er_cumulative_hazard(paralyzing.tau_p1, r_star, tau_r)
    count = np.random.default_rng(seed).geometric(np.exp(-h1), n) - 1
    ends = np.cumsum(count)
    if paralyzing is _REFERENCE_PARALYZING and n > 8:
        # detections with no segment where a block ends, a detection over at
        # least three blocks, and a short last block
        assert np.any((count == 0) & (ends % 8 == 0) & (ends > 0) & (ends < ends[-1]))
        assert np.max((ends - 1) // 8 - (ends - count) // 8) >= 2
        assert ends[-1] % 8 != 0
    if paralyzing is _HEAVY_PARALYZING:
        # every block of 8 detections ends inside a block of 8 segments
        assert count.mean() > 200 and np.all(ends[7::8] % 8 != 0)
    if paralyzing is _LIGHT_PARALYZING:
        # blocks of detections that end on a segment block's edge and inside one
        assert np.exp(-h1) >= 1 / 3
        assert np.any(ends[7::8] % 8 == 0) and np.any(ends[7::8] % 8 != 0)


def test_duration_stop_chunks_match_plain_reference(paper_params, monkeypatch):
    # every run of the duration loop, each a call with its own draw buffer: drawn
    # whole, checked, then handed to the loop in blocks
    monkeypatch.setattr(simulate, "_BLOCK", 8)
    blocks, sizes = simulate._on_time_blocks, []
    config = _config(paper_params, 10.0 / paper_params.tau_r, duration=0.05,
                     paralyzing=_REFERENCE_PARALYZING)
    r_star = config.apriori_rate()

    def checked(rng, n, a, h1, tau_r, paralyzing):
        sizes.append(n)
        assert (a, h1) == simulate._reach(n, r_star, tau_r, paralyzing)
        run = _assert_sampler_matches_reference(
            lambda *args: _joined_blocks(*args, blocks=blocks), rng, n, r_star, tau_r, paralyzing)
        yield from np.split(run, range(simulate._BLOCK, n, simulate._BLOCK))

    monkeypatch.setattr(simulate, "_on_time_blocks", checked)
    assert simulate.simulate(config).times.size > 0
    assert sizes and min(sizes) >= 1024


def _reversion_coefficients(n):
    """[s^k] x, k < n, of the root x(s) of x + expm1(-x) = s^2 / 2, as exact fractions.

    x = s phi(x) with phi = q^(-1/2) and q(x) = 2 (x + expm1(-x)) / x^2
    = sum_j 2 (-x)^j / (j + 2)!, so Lagrange inversion gives
    [s^k] x = [x^(k-1)] phi^k / k.
    """
    q = [Fraction(2 * (-1) ** j, math.factorial(j + 2)) for j in range(n)]
    phi = [Fraction(1)]
    for k in range(1, n):  # phi = q^(-1/2) from q phi' = -q' phi / 2
        phi.append(sum((Fraction(j, 2) - k) * q[j] * phi[k - j] for j in range(1, k + 1)) / k)
    coefficients, power = [Fraction(0)], [Fraction(1)] + [Fraction(0)] * (n - 1)
    for k in range(1, n):  # power = phi^k
        power = [sum(power[i] * phi[m - i] for i in range(m + 1)) for m in range(n)]
        coefficients.append(power[k - 1] / k)
    return coefficients


def test_reversion_coefficients_are_the_exact_reversion():
    exact = _reversion_coefficients(11)
    assert exact[:4] == [0, 1, Fraction(1, 6), Fraction(1, 36)]
    assert simulate._REVERSION == tuple(float(c) for c in exact[:1:-1])


def test_reversion_matches_mpmath():
    pytest.importorskip("mpmath")
    rng = np.random.default_rng(37)
    g = np.append(np.exp(rng.uniform(np.log(1e-14), np.log(simulate._G_SERIES), 2000)),
                  np.nextafter(simulate._G_SERIES, 0.0))
    g = g[(g >= 1e-14) & (g < simulate._G_SERIES)]
    assert g.size >= 2000
    oracle = np.array([helpers.mp_inverse_hazard(v, dps=60) for v in g])
    np.testing.assert_allclose(simulate._reversion(g), oracle, rtol=2.3e-16, atol=0)


def test_reversion_at_zero_and_tiny_g():
    # RuntimeWarnings are errors under the test configuration
    assert simulate._reversion(np.zeros(3)).tolist() == [0.0, 0.0, 0.0]
    g = np.concatenate([[5e-324, 1e-320, np.finfo(float).tiny],
                        np.logspace(-300, -40, 261), [1e-40]])
    np.testing.assert_array_equal(simulate._reversion(g), np.sqrt(2.0 * g))


def test_distribution_matches_model_ks(paper_params):
    r_star = 0.1 / paper_params.tau_r
    config = _config(paper_params, r_star, n_events=200_000, seed=15)
    on = simulate.intervals(simulate.simulate(config)) - paper_params.tau_d
    res = stats.kstest(on, lambda t: er.er_cdf(t, r_star, paper_params.tau_r))
    assert res.pvalue > 1e-3


def test_paralyzing_lowers_detection_rate(paper_params):
    r_star = 1e9
    base = _config(paper_params, r_star, n_events=50_000, seed=16)
    par = simulate.SimConfig(
        er=paper_params,
        source=base.source,
        paralyzing=ParalyzingParams(tau_p1=15e-9, tau_p2=27e-9),
        n_events=50_000,
        seed=16,
    )
    rate = lambda s: 1.0 / simulate.intervals(simulate.simulate(s)).mean()
    assert rate(par) < rate(base)


def test_paralyzing_intervals_still_exceed_dead_time(paper_params):
    config = simulate.SimConfig(
        er=paper_params,
        source=er.SourceParams(photon_rate=1e9 / paper_params.eta0),
        paralyzing=ParalyzingParams(tau_p1=15e-9, tau_p2=27e-9),
        n_events=20_000,
        seed=17,
    )
    assert simulate.intervals(simulate.simulate(config)).min() >= paper_params.tau_d


@pytest.mark.parametrize("r_star, n_events", [(1e8, 100_000), (1e9, 100_000), (6e9, 20_000)])
def test_paralyzing_mean_matches_micro_dynamics(paper_params, r_star, n_events):
    pp = ParalyzingParams(tau_p1=15e-9, tau_p2=27e-9)
    config = simulate.SimConfig(
        er=paper_params,
        source=er.SourceParams(photon_rate=r_star / paper_params.eta0),
        paralyzing=pp,
        n_events=n_events,
        seed=22,
    )
    on = simulate.intervals(simulate.simulate(config)) - paper_params.tau_d
    exact = helpers.paralyzing_micro_mean(r_star, paper_params.tau_r, pp.tau_p1, pp.tau_p2)
    se = on.std(ddof=1) / np.sqrt(on.size)
    assert abs(on.mean() - exact) < 4 * se


def test_paralyzing_seed_reproducibility(paper_params):
    # ~17 paralyzations per detection: the paralysed draws span several blocks
    def run(seed):
        return simulate.simulate(simulate.SimConfig(
            er=paper_params,
            source=er.SourceParams(photon_rate=3e9 / paper_params.eta0),
            paralyzing=ParalyzingParams(tau_p1=15e-9, tau_p2=27e-9),
            n_events=5_000,
            seed=seed,
        ))

    a = run(23)
    assert a.times.tobytes() == run(23).times.tobytes()
    assert a.times.tobytes() != run(24).times.tobytes()
    assert a.metadata["sampler"] == "inverse-hazard"


@pytest.mark.parametrize("stop", [{"n_events": 10}, {"duration": 1.0}])
def test_unreachable_paralyzing_configuration_raises(paper_params, stop):
    # H(tau_p1) = 33.75: about 4.5e14 paralyzations per detection
    config = simulate.SimConfig(
        er=er.ErParams(eta0=0.2, tau_d=paper_params.tau_d, tau_r=paper_params.tau_r),
        source=er.SourceParams(photon_rate=5e9),
        paralyzing=ParalyzingParams(tau_p1=100e-9, tau_p2=27e-9),
        **stop,
    )
    with pytest.raises(ValueError, match="expected per detection"):
        simulate.simulate(config)


def test_out_of_reach_count_past_the_float_range_raises_without_warning(paper_params):
    # r_star*tau_r ~ 1000 and tau_p1 = 165.9 ns: H(tau_p1) ~ 703.5, so e^H - 1 ~ 3.6e305
    # paralyzations per detection is a float, but 30,000 times it is not; RuntimeWarnings
    # are errors under the test configuration
    config = simulate.SimConfig(
        er=er.ErParams(eta0=paper_params.eta0, tau_d=1e-6, tau_r=paper_params.tau_r),
        source=er.SourceParams(photon_rate=4.65e10),
        paralyzing=ParalyzingParams(tau_p1=165.9e-9, tau_p2=27e-9),
        n_events=30_000,
    )
    with pytest.raises(ValueError, match=r"3\.58e\+305 paralyzations expected per detection, "
                                         r"inf for 30000 detections"):
        simulate.simulate(config)


@pytest.mark.parametrize("stop", [{"n_events": 10}, {"duration": 1e-3}])
@pytest.mark.parametrize("tau_p2", [27e-9, 0.0])
def test_fully_paralysed_configuration_raises(paper_params, stop, tau_p2):
    # H(tau_p1) ~ 8.5e3: e^H overflows a float, which raises no overflow warning
    config = simulate.SimConfig(
        er=paper_params,
        source=er.SourceParams(photon_rate=5e10),
        paralyzing=ParalyzingParams(tau_p1=1e-6, tau_p2=tau_p2),
        **stop,
    )
    with pytest.raises(ValueError, match="inf paralyzations expected per detection"):
        simulate.simulate(config)


@pytest.mark.parametrize("stop", [{"n_events": 1000}, {"duration": 1.0}],
                         ids=["events", "duration"])
def test_rate_product_too_small_to_sample_raises(paper_params, stop):
    # r_star*tau_r ~ 2.9e-308 is a normal double, but E / (r_star*tau_r)
    # overflows a float for the unit exponentials E above ~5.2; RuntimeWarnings
    # are errors under the test configuration
    config = _config(paper_params, 2.9e-308 / paper_params.tau_r, **stop)
    with pytest.raises(ValueError, match=r"r_star\*tau_r = 2.9e-308 is too small to sample"):
        simulate.simulate(config)


def _far_config(paper_params, ri, tau_r, **stop):
    params = er.ErParams(eta0=paper_params.eta0, tau_d=paper_params.tau_d, tau_r=tau_r)
    return simulate.SimConfig(er=params, source=er.SourceParams(photon_rate=ri), **stop)


@pytest.mark.parametrize("ri, tau_r, n_events", [(1e-307, 100.0, 100), (1e-305, 1.0, 1000)],
                         ids=["on_time", "running_sum"])
def test_event_stop_past_the_float_range_raises(paper_params, ri, tau_r, n_events):
    # tau_r * x overflows in the first case, the running sum of ~5e305 s
    # on-times in the second; RuntimeWarnings are errors under the test configuration
    with pytest.raises(ValueError, match=r"pass the float range of timestamps \(1.8e\+308 s\)"):
        simulate.simulate(_far_config(paper_params, ri, tau_r, n_events=n_events))


def test_duration_stop_past_the_float_range_keeps_the_stamps_before_it(paper_params):
    # the 1024 on-times of the first chunk, ~5e305 s each, sum past the float range
    times = simulate.simulate(_far_config(paper_params, 1e-305, 1.0, duration=1e308)).times
    assert times.size > 0
    assert np.all(np.diff(times) > 0)
    assert times[-1] <= 1e308

def test_tiny_sampled_rate_product_gives_increasing_stamps(paper_params):
    # r_star*tau_r = 1e-306: the largest draw's hazard, 44.4 / 1e-306, is a finite float
    times = simulate.simulate(_config(paper_params, 1e-306 / paper_params.tau_r,
                                      n_events=10)).times
    assert times.size == 10
    assert np.all(np.isfinite(times))
    assert np.all(np.diff(times) > 0)


def test_duration_stop(paper_params):
    duration = 0.5
    config = simulate.SimConfig(
        er=paper_params,
        source=er.SourceParams(photon_rate=1e6 / paper_params.eta0),
        duration=duration,
        seed=18,
    )
    series = simulate.simulate(config)
    assert series.times.size > 0
    assert series.times[-1] <= duration
    expected = duration / (paper_params.tau_d + er.er_mean_on_time(1e6, paper_params.tau_r))
    assert abs(series.times.size - expected) < 5 * np.sqrt(expected)


@pytest.mark.parametrize("times", [[1.0, 0.5], [1.0, 1.0], [1.0, np.nan]],
                         ids=["decreasing", "equal", "nan"])
def test_series_rejects_decreasing_times(times):
    with pytest.raises(ValueError):
        simulate.TimestampSeries(times=np.array(times))
