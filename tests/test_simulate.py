import re
import struct

import numpy as np
import pytest
from scipy import stats

import helpers
from spadrate import er, simulate
from spadrate.exceptions import DegenerateDataError
from spadrate.paralyzing import ParalyzingParams


def _config(params, r_star, **kw):
    return simulate.SimConfig(
        er=params,
        source=er.SourceParams(photon_rate=r_star / params.eta0),
        **kw,
    )


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
    simulate.write_timestamps_binary(pa, a)
    simulate.write_timestamps_binary(pb, b)
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
    """Three Newton steps over the whole array, the series by np.polyval."""
    x = g + 1.0
    small = np.flatnonzero(g < 2.0)
    s = np.sqrt(2.0 * g[small])
    x[small] = s * (1.0 + s * (1.0 / 6.0 + s / 72.0))
    low = np.flatnonzero(g < simulate._G_SERIES)
    for _ in range(3):
        f = x + np.expm1(-x)
        xl = x[low]
        f[low] = xl * xl * np.polyval(er._SERIES, xl)
        slope = np.maximum(-np.expm1(-x), np.finfo(float).tiny)
        x -= (f - g) / slope
    return x


def test_inverse_hazard_regimes_invert_as_if_alone():
    # g = 0, the series regime, the direct regime from the small-g start and
    # from g + 1, shuffled over more than two chunks of the Newton loop
    rng = np.random.default_rng(11)
    pool = np.concatenate([
        [0.0, simulate._G_SERIES, np.nextafter(simulate._G_SERIES, 0.0), 2.0, 1e-300],
        rng.uniform(0.0, simulate._G_SERIES, 100),
        rng.uniform(simulate._G_SERIES, 2.0, 100),
        2.0 + rng.exponential(10.0, 100),
    ])
    alone = np.array([simulate._inverse_hazard(pool[i:i + 1])[0] for i in range(pool.size)])
    pick = rng.permutation(np.resize(np.arange(pool.size), 2 * simulate._CHUNK + 7))
    x = simulate._inverse_hazard(pool[pick])
    np.testing.assert_array_equal(x.view(np.int64), alone[pick].view(np.int64))
    np.testing.assert_array_equal(x.view(np.int64),
                                  _inverse_hazard_reference(pool[pick]).view(np.int64))
    wide = np.concatenate([[0.0], np.logspace(-300, 300, 6001)])
    np.testing.assert_array_equal(simulate._inverse_hazard(wide).view(np.int64),
                                  _inverse_hazard_reference(wide).view(np.int64))


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


def test_csv_round_trip(paper_params, tmp_path):
    series = simulate.simulate(_config(paper_params, 1e6, n_events=500, seed=19))
    path = tmp_path / "ts.csv"
    simulate.write_timestamps_csv(path, series)
    back = simulate.read_timestamps_csv(path)
    np.testing.assert_array_equal(back, series.times)


def _g17_lines(x):
    return "".join(f"{t:.17g}\n" for t in x.tolist()).encode()


def _halfway_values(rng, per_exponent=2000):
    """Values t with E = floor(log10 t) whose t * 10**(16 - E) ends in exactly 1/2."""
    out = []
    for e in range(-6, 16):
        scale = 2.0 ** (17 - e)  # odd / 2**(17 - e) times 10**(16 - e) is odd * 5**(16 - e) / 2
        lo, hi = 10.0 ** e * scale, min(10.0 ** (e + 1) * scale, 2.0 ** 53)
        out.append((rng.integers(lo // 2, hi // 2, per_exponent) * 2 + 1) / scale)
    return np.concatenate(out)


def test_line_kernel_matches_fstring():
    rng = np.random.default_rng(23)
    powers = np.array([float(f"1e{e}") for e in range(-6, 18)])
    grid = np.array([float(f"{d}e{e - 16}") for d, e in zip(
        rng.integers(10 ** 16, 10 ** 17, 20_000).tolist(), rng.integers(-6, 17, 20_000).tolist())])
    values = np.concatenate([
        powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf),
        grid, np.nextafter(grid, 0), np.nextafter(grid, np.inf),
        _halfway_values(rng),
        10 ** rng.uniform(-6, 17, 100_000),
    ])
    exact = values[(values > 1e-6) & (values < 1e17)]
    assert exact.size > 0.99 * values.size
    assert simulate._format_lines(exact).split(b"\n") == _g17_lines(exact).split(b"\n")
    # sorted blocks mostly hold one decimal exponent, as timestamp blocks do
    for block in np.array_split(np.sort(exact), 200):
        assert simulate._format_lines(block) == _g17_lines(block)
    # one value outside (1e-6, 1e17) sends the block through the f-string
    mixed = np.concatenate([[0.0, 5e-7, 1e-6, 1e17, 3e20, -1.5], exact[:1000]])
    assert simulate._format_lines(mixed) == _g17_lines(mixed)


def test_binary_round_trip(paper_params, tmp_path):
    series = simulate.simulate(_config(paper_params, 1e6, n_events=500, seed=20))
    path = tmp_path / "ts.bin"
    simulate.write_timestamps_binary(path, series)
    back = simulate.read_timestamps_binary(path)
    np.testing.assert_array_equal(back, series.times)


def test_binary_rejects_corruption(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 12)
    with pytest.raises(ValueError):
        simulate.read_timestamps_binary(path)
    path.write_bytes(b"\x01")
    with pytest.raises(ValueError):
        simulate.read_timestamps_binary(path)


@pytest.mark.parametrize("name, content", [
    ("text.csv", b"1e-4\nabc\n"),
    ("magic.bin", b"NOPE" + struct.pack("<IQ", 1, 0)),
    ("header.bin", b"SPTS"),
    ("payload.bin", b"SPTS" + struct.pack("<IQ", 1, 3) + np.zeros(2).tobytes()),
    ("version.bin", b"SPTS" + struct.pack("<IQ", 2, 0)),
    ("count.bin", b"SPTS" + struct.pack("<IQ", 1, 2**63) + np.zeros(2).tobytes()),
], ids=["text_row", "bad_magic", "truncated_header", "truncated_payload", "bad_version",
        "count_past_memory"])
def test_malformed_timestamp_file_is_degenerate_data(tmp_path, name, content):
    # the CLI maps DegenerateDataError to exit 3 and any other ValueError to exit 2
    path = tmp_path / name
    path.write_bytes(content)
    read = simulate.read_timestamps_binary if name.endswith(".bin") else simulate.read_timestamps_csv
    with pytest.raises(DegenerateDataError, match=re.escape(str(path))):
        read(path)
    with pytest.raises(ValueError):
        read(path)


def test_series_rejects_decreasing_times():
    with pytest.raises(ValueError):
        simulate.TimestampSeries(times=np.array([1.0, 0.5]))
