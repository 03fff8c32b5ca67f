"""Generated contract test of the CLI: every input gives a result or a clean error.

``tabulate`` and ``infer`` are driven in-process through click's CliRunner
with rates and time constants drawn log-uniform over 1e-12..1e16 plus edge
values.  Each run must exit 0, 2 or 3 without a traceback or a
RuntimeWarning; a table written with exit 0 must hold one finite row per
point, and a report must parse as JSON with no non-finite constant.
"""

import json
import math
import warnings

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spadrate import inference
from spadrate.cli import cli

EDGES = [0.0, -1.0, 5e-324, 1e-310, 1e-300, 1.7e308, math.inf, math.nan]

# one draw in eight an edge value, so that most examples reach the model
values = st.integers(0, 7).flatmap(
    lambda i: st.sampled_from(EDGES) if i == 7 else st.floats(-12.0, 16.0).map(lambda e: 10.0**e))

CONTRACT = settings(max_examples=150, derandomize=True, deadline=None, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


@pytest.fixture(scope="module")
def out(tmp_path_factory):
    return tmp_path_factory.mktemp("contract") / "sweep.csv"


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    return tmp_path_factory.mktemp("contract") / "infer.json"


def _invoke(args):
    """Run the CLI with RuntimeWarnings as errors; it must exit cleanly with 0, 2 or 3."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = CliRunner().invoke(cli, args)
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        args, result.exc_info)
    assert result.exit_code in (0, 2, 3), (args, result.output)
    assert "Traceback" not in result.output
    return result


@CONTRACT
@given(bounds=st.tuples(values, values), tau_r=values, tau_d=values, tau_p1=values,
       tau_p2=values, points=st.integers(0, 5), model=st.sampled_from(tuple(inference._RATE_MODELS)))
def test_tabulate_contract(out, bounds, tau_r, tau_d, tau_p1, tau_p2, points, model):
    # a reversed sweep only tests one message: keep the bounds in order
    sweep_from, sweep_to = bounds if math.nan in bounds else sorted(bounds)
    out.unlink(missing_ok=True)
    args = ["tabulate", "--model", model, "--from", repr(sweep_from), "--to", repr(sweep_to),
            "--points", str(points), "--tau-r", repr(tau_r), "--tau-d", repr(tau_d),
            "--out", str(out)]
    if model == "er":  # the paralyzing flags belong to the er model alone
        args += ["--tau-p1", repr(tau_p1), "--tau-p2", repr(tau_p2)]
    if _invoke(args).exit_code == 0:
        rows = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
        assert rows.shape == (points, 3), args
        assert np.isfinite(rows).all(), args


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


@CONTRACT
@given(rate=values, dark=values, eta0=values, tau_d=values, tau_r=values,
       model=st.sampled_from(tuple(inference._RATE_MODELS)))
def test_infer_contract(report, rate, dark, eta0, tau_d, tau_r, model):
    report.unlink(missing_ok=True)
    args = ["infer", "--model", model, "--rate", repr(rate), "--dark", repr(dark),
            "--eta0", repr(eta0), "--tau-d", repr(tau_d), "--tau-r", repr(tau_r),
            "--out", str(report)]
    if _invoke(args).exit_code == 0:
        json.loads(report.read_text(), parse_constant=_reject_constant)
