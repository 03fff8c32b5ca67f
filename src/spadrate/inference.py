"""Histogramming, model fitting, and a-priori-rate inference.

The measured inter-detection intervals are binned, and the binned counts
are fitted by maximising the Poisson likelihood of the exact expected
counts.  Bin j = [a_j, b_j) holds

    mu_j = scale * total * [S(a_j - tau_d) - S(b_j - tau_d)]

where S = exp(-H) is the survival function of the detector-on time, H its
integrated hazard, and S = 1 below the dead-time.  The fit varies
(r_star, tau_d, tau_r, scale), any subset of which may be held fixed.  The
histogram alone identifies only the combined a priori rate
r_star = eta0 * photon_rate + dark rate; the asymptotic efficiency eta0
is recovered afterwards when a calibrated photon rate is supplied.

Poisson MLE is preferred over least squares because bins are counted
data: it is exact for empty tail bins and needs no ad hoc variance model.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import er, nhpp
from .exceptions import DegenerateDataError, FitError

__all__ = [
    "IntervalHistogram",
    "FitResult",
    "InferredRate",
    "build_histogram",
    "expected_counts",
    "fit_er_histogram",
    "infer_apriori_rate",
    "dark_count_rate_from_measurement",
]

_PARAM_NAMES = ("r_star", "tau_d", "tau_r", "scale")


@dataclass
class IntervalHistogram:
    """Counts of inter-detection intervals in uniform half-open bins.

    Bin j covers [origin + j*bin_width, origin + (j+1)*bin_width); a value
    exactly on an edge belongs to the bin starting there.  Values outside
    the configured range are dropped and tallied in ``overflow``.
    """

    bin_width: float
    counts: np.ndarray
    origin: float = 0.0
    overflow: int = 0

    def __post_init__(self):
        if not 0 < self.bin_width < np.inf:
            raise ValueError(f"bin_width must be finite and positive, got {self.bin_width}")
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if np.any(self.counts < 0):
            raise ValueError("counts must be non-negative")

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def bin_edges(self) -> np.ndarray:
        return self.origin + self.bin_width * np.arange(self.counts.size + 1)

    @property
    def bin_lefts(self) -> np.ndarray:
        return self.bin_edges[:-1]

    @property
    def bin_centers(self) -> np.ndarray:
        return self.bin_lefts + 0.5 * self.bin_width

    def to_csv(self, path) -> None:
        write_table(path, "bin_left_s,count", "{:.17g},{}", self.bin_lefts, self.counts)

    @classmethod
    def from_csv(cls, path) -> "IntervalHistogram":
        """Read a ``to_csv`` file; a malformed one raises ValueError naming the path."""
        with open(path) as fh:
            if [h.strip() for h in fh.readline().split(",")[:2]] != ["bin_left_s", "count"]:
                raise ValueError(f"{path}: expected header 'bin_left_s,count'")
            try:
                with warnings.catch_warnings():
                    warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                            UserWarning)
                    rows = np.loadtxt(fh, delimiter=",", usecols=(0, 1), ndmin=1,
                                      dtype=[("left", float), ("count", np.int64)])
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from None
        if np.any(rows["count"] < 0):
            raise ValueError(f"{path}: counts must be non-negative")
        if rows.size == 0:
            return cls(bin_width=1.0, counts=np.zeros(0, dtype=np.int64))
        if rows.size == 1:
            raise ValueError(f"{path}: cannot infer bin width from a single bin")
        widths = np.diff(rows["left"])
        width = float(widths[0])
        if not np.allclose(widths, width, rtol=1e-6, atol=0):
            raise ValueError(f"{path}: bins are not uniform")
        return cls(bin_width=width, counts=rows["count"], origin=float(rows["left"][0]))


def write_table(path, header: str, row_format: str, *columns) -> None:
    """Write a header line, then ``row_format`` filled from each row of ``columns``.

    Every line ends in ``\\r\\n``: the table files have always used that
    line end, and keep it so that they stay byte-compatible.
    """
    rows = map((row_format + "\r\n").format, *(np.asarray(c).tolist() for c in columns))
    with open(path, "w", newline="") as fh:
        fh.write(header + "\r\n")
        fh.writelines(rows)


def build_histogram(
    intervals,
    bin_width: float,
    bounds: tuple[float, float] | None = None,
) -> IntervalHistogram:
    """Bin intervals by floor((x - origin) / bin_width).

    With ``bounds = (lo, hi)`` the origin is lo and values outside
    [lo, hi) go to the overflow tally.  Without bounds the origin is 0,
    everything at or above it is kept and the bin array extends to the
    maximum.
    """
    if not 0 < bin_width < np.inf:
        raise ValueError(f"bin_width must be finite and positive, got {bin_width}")
    values = np.asarray(intervals, dtype=float)
    if values.size == 0:
        return IntervalHistogram(bin_width=bin_width, counts=np.zeros(0, dtype=np.int64),
                                 origin=bounds[0] if bounds else 0.0)
    origin, n_bins = 0.0, None
    if bounds is not None:
        lo, hi = bounds
        if not -np.inf < lo < hi < np.inf:
            raise ValueError(f"bounds must be finite with lo < hi, got {bounds}")
        origin = lo
        n_bins = int(np.ceil((hi - lo) / bin_width - 1e-12))
    idx = np.floor((values - origin) / bin_width).astype(np.int64)
    if n_bins is None:
        in_range = idx >= 0
        n_bins = int(idx[in_range].max()) + 1 if np.any(in_range) else 0
    else:
        in_range = (idx >= 0) & (idx < n_bins)
    counts = np.bincount(idx[in_range], minlength=n_bins)
    return IntervalHistogram(
        bin_width=bin_width,
        counts=counts,
        origin=origin,
        overflow=int(values.size - in_range.sum()),
    )


@dataclass(frozen=True)
class FitResult:
    """Fitted interval-model parameters with 1-sigma uncertainties.

    ``r_star`` is the combined a priori rate (efficiency-weighted photon
    rate plus dark rate); ``eta0`` is populated only when a calibrated
    photon rate was supplied to the fit.
    """

    r_star: float
    tau_d: float
    tau_r: float
    scale: float
    fixed: tuple[str, ...]
    uncertainties: dict[str, float]
    goodness: float
    iterations: int
    n_bins: int
    eta0: float | None = None

    def er_params(self) -> er.ErParams:
        if self.eta0 is None:
            raise ValueError("eta0 unknown: the fit was not given a calibrated photon rate")
        return er.ErParams(eta0=self.eta0, tau_d=self.tau_d, tau_r=self.tau_r)

    def to_dict(self) -> dict:
        return {
            "params": {
                "r_star": self.r_star,
                "tau_d": self.tau_d,
                "tau_r": self.tau_r,
                "scale": self.scale,
                "eta0": self.eta0,
            },
            "fixed": list(self.fixed),
            "uncertainties": dict(self.uncertainties),
            "goodness": self.goodness,
            "iterations": self.iterations,
            "n_bins": self.n_bins,
        }


def _default_init(hist: IntervalHistogram) -> dict[str, float]:
    """Starting values read off the histogram shape.

    Dead-time from the first populated bin, a priori rate from the mean
    interval beyond it, recovery constant from the peak position.
    """
    counts = hist.counts
    nonzero = np.nonzero(counts)[0]
    lefts = hist.bin_lefts
    tau_d0 = max(lefts[nonzero[0]] - hist.bin_width, hist.bin_width * 1e-3)
    mean_interval = float(np.average(hist.bin_centers, weights=counts))
    r_star0 = 1.0 / max(mean_interval - tau_d0, hist.bin_width * 1e-3)
    peak_center = hist.bin_centers[int(np.argmax(counts))]
    tau_r0 = max(peak_center - tau_d0, hist.bin_width)
    return {"r_star": r_star0, "tau_d": tau_d0, "tau_r": tau_r0, "scale": 1.0}


def _bin_model(edges, params, total):
    """Exact expected counts between consecutive edges, and H at the edges.

    ``params`` holds (r_star, tau_d, tau_r, scale).  A bin [a, b) gets
    scale * total * S(a) * (1 - exp(-[H(b) - H(a)])), with H the integrated
    hazard of the on-time max(edge - tau_d, 0) and S = exp(-H); this form
    has no tail cancellation.
    """
    r_star, tau_d, tau_r, scale = params
    hazard = er.er_cumulative_hazard(np.maximum(edges - tau_d, 0.0), r_star, tau_r)
    mu = scale * total * np.exp(-hazard[:-1]) * -np.expm1(-np.diff(hazard))
    return mu, hazard


def expected_counts(hist: IntervalHistogram, r_star: float, tau_d: float, tau_r: float,
                    scale: float = 1.0) -> np.ndarray:
    """Exact expected count of every bin of ``hist``: the model the fit maximises."""
    mu, _ = _bin_model(hist.bin_edges, (r_star, tau_d, tau_r, scale), hist.total)
    return mu


def _log_jacobian(edges, params, hazard):
    """d log mu / d log p of every bin, one row per parameter of _PARAM_NAMES."""
    r_star, tau_d, tau_r, _ = params
    x = np.maximum(edges - tau_d, 0.0) / tau_r
    recovered = -np.expm1(-x)
    # d H / d log p; every row vanishes at the dead-time edge
    d_hazard = np.stack([
        hazard,
        -tau_d * r_star * recovered,
        -tau_r * r_star * (recovered - x * np.exp(-x)),
        np.zeros_like(x),
    ])
    step = np.diff(hazard)
    with np.errstate(divide="ignore", invalid="ignore"):
        d_log_mu = np.where(step > 0, np.diff(d_hazard, axis=1) / np.expm1(step), 0.0)
    d_log_mu -= d_hazard[:, :-1]
    d_log_mu[3] = 1.0
    return d_log_mu


def _half_deviance(edges, counts, params, total, free):
    """Half the Poisson deviance, its gradient and the expected information.

    Derivatives are with respect to the logs of the free parameters.  The
    deviance differs from the negative log-likelihood by a constant, and
    its terms are each of order one, so it carries far less rounding noise
    than the likelihood itself.
    """
    mu, hazard = _bin_model(edges, params, total)
    d_log_mu = _log_jacobian(edges, params, hazard)[free]
    terms = mu - counts
    grad = d_log_mu @ terms
    information = (mu * d_log_mu) @ d_log_mu.T
    populated = counts > 0
    with np.errstate(divide="ignore"):
        terms[populated] += counts[populated] * np.log(counts[populated] / mu[populated])
    return float(terms.sum()), grad, information


def _fisher_scoring(objective, x, current, failure):
    """Minimise objective(x) -> (value, gradient, information) by Fisher scoring.

    ``current`` is that triple at the start ``x``; ``failure(message, x)``
    builds the FitError raised when 500 steps reach no solution.  Returns
    the solution, its value and information, and the number of steps taken.
    """
    value, grad, information = current
    iterations = 0
    while True:
        try:
            step = np.linalg.solve(information, grad)
        except np.linalg.LinAlgError:
            raise failure("information matrix is singular", x)
        # Newton decrement: below it the remaining step is under 1e-4 sigma,
        # while the objective still resolves the decrease it promises.
        if grad @ step < 1e-8:
            return x, value, information, iterations
        if iterations == 500:
            raise failure("fit did not converge", x)
        step /= max(1.0, float(np.abs(step).max()))
        for _ in range(40):
            trial = objective(x - step)
            if trial[0] < value:
                break
            step /= 2.0
        else:
            raise failure("line search found no decrease", x)
        x = x - step
        value, grad, information = trial
        iterations += 1


def fit_er_histogram(
    hist: IntervalHistogram,
    init: dict[str, float] | None = None,
    fixed: dict[str, float] | tuple[str, ...] | list[str] = (),
    *,
    photon_rate: float | None = None,
    dark_apriori: float = 0.0,
) -> FitResult:
    """Maximum-likelihood fit of the interval model to a histogram.

    ``fixed`` names parameters held at their init values (or, as a
    mapping, at the supplied values); everything else is free.  The free
    parameters are fitted in log space by Fisher scoring on the exact
    binned likelihood, started from the best point of a coarse grid over
    tau_r.  Bins from the first to the last populated one are modelled one
    by one; the empty ranges on either side enter as two lumped bins,
    which leaves the likelihood unchanged.  Uncertainties come from the
    inverse of the expected (Fisher) information at the solution.

    Raises :class:`FitError` when a populated bin has zero expected count
    at the start (for example a dead-time held above it), or when scoring
    does not converge within 500 steps.
    """
    if hist.total < 1:
        raise DegenerateDataError("histogram is empty")
    populated = np.flatnonzero(hist.counts)
    if populated.size < 2:
        raise DegenerateDataError("all counts fall in a single bin; model is unidentifiable")

    theta = _default_init(hist)
    if init:
        unknown = set(init) - set(_PARAM_NAMES)
        if unknown:
            raise ValueError(f"unknown init parameters: {sorted(unknown)}")
        theta.update(init)
    if isinstance(fixed, dict):
        unknown = set(fixed) - set(_PARAM_NAMES)
        if unknown:
            raise ValueError(f"unknown fixed parameters: {sorted(unknown)}")
        theta.update(fixed)
        fixed_names = tuple(name for name in _PARAM_NAMES if name in fixed)
    else:
        fixed_names = tuple(name for name in _PARAM_NAMES if name in set(fixed))
    free = np.array([name not in fixed_names for name in _PARAM_NAMES])
    if not free.any():
        raise ValueError("at least one parameter must be free")
    for name in _PARAM_NAMES:
        if not 0 < theta[name] < np.inf:
            raise ValueError(f"initial {name} must be positive and finite, got {theta[name]}")

    lo, hi = int(populated[0]), int(populated[-1]) + 1
    all_edges = hist.bin_edges
    edges = np.concatenate(([all_edges[0]], all_edges[lo:hi + 1], [all_edges[-1]]))
    counts = np.concatenate(([0.0], hist.counts[lo:hi], [0.0]))
    start = np.array([theta[name] for name in _PARAM_NAMES])

    def params_of(x):
        params = start.copy()
        params[free] = np.exp(x)
        return params

    def objective(x):
        return _half_deviance(edges, counts, params_of(x), hist.total, free)

    def failure(message, x):
        return FitError(message, details={"params": dict(zip(_PARAM_NAMES, params_of(x).tolist()))})

    # Coarse grid over tau_r: once tau_r is far longer than the data span
    # the hazard depends on r_star / tau_r alone and the information is
    # singular, so scoring must not start there.
    if "tau_r" not in fixed_names:
        factors = np.logspace(-1.5, 1.5, 13)
        scan = [_half_deviance(edges, counts, start * [1.0, 1.0, f, 1.0], hist.total, free)[0]
                for f in factors]
        start[2] *= factors[int(np.argmin(scan))]

    x = np.log(start[free])
    current = objective(x)
    if not np.isfinite(current[0]):
        raise failure("a populated bin has zero expected count at the starting parameters", x)
    x, value, information, iterations = _fisher_scoring(objective, x, current, failure)

    best = params_of(x)
    sigmas = best[free] * np.sqrt(np.maximum(np.diag(np.linalg.inv(information)), 0.0))
    free_names = [name for name, is_free in zip(_PARAM_NAMES, free) if is_free]

    eta0 = None
    if photon_rate is not None and photon_rate > 0:
        eta0 = (float(best[0]) - dark_apriori) / photon_rate

    return FitResult(
        **dict(zip(_PARAM_NAMES, best.tolist())),
        fixed=fixed_names,
        uncertainties=dict(zip(free_names, sigmas.tolist())),
        goodness=2.0 * value / max(hi - lo - len(free_names), 1),
        iterations=iterations,
        n_bins=hist.counts.size,
        eta0=eta0,
    )


@dataclass(frozen=True)
class InferredRate:
    """A-priori-rate report: photon-only rate after dark subtraction."""

    photon_apriori: float
    total_apriori: float
    measured: float
    model: str
    clipped: bool = False


_MODEL_ALIASES = {
    "simple": "simple",
    "er": "er",
    "approx_low": "approx_low",
    "low": "approx_low",
    "approx_high": "approx_high",
    "high": "approx_high",
}


def infer_apriori_rate(
    r_measured: float,
    params: er.ErParams,
    dark_apriori: float = 0.0,
    model: str = "er",
) -> InferredRate:
    """Invert the chosen rate equation and subtract the dark contribution.

    A negative photon rate after dark subtraction is clipped to zero and
    flagged rather than raised: it simply means the measurement is
    consistent with dark counts alone.
    """
    try:
        kind = _MODEL_ALIASES[model]
    except KeyError:
        raise ValueError(f"unknown model {model!r}; choose from {sorted(set(_MODEL_ALIASES))}")
    if not 0 <= dark_apriori < np.inf:
        raise ValueError(f"dark rate must be finite and non-negative, got {dark_apriori}")
    if kind == "simple":
        total = nhpp.simple_rate_inverse(r_measured, params.tau_d)
    elif kind == "er":
        total = er.er_rate_inverse(r_measured, params)
    elif kind == "approx_low":
        total = er.approx_low_inverse(r_measured, params)
    else:
        total = er.approx_high_inverse(r_measured, params)
    photon = total - dark_apriori
    clipped = photon < 0
    return InferredRate(
        photon_apriori=max(photon, 0.0),
        total_apriori=float(total),
        measured=float(r_measured),
        model=kind,
        clipped=bool(clipped),
    )


def dark_count_rate_from_measurement(r_dark_measured: float, tau_d: float) -> float:
    """A priori dark-count rate from a dark-rate measurement (simple model)."""
    if r_dark_measured < 0:
        raise ValueError(f"measured dark rate must be non-negative, got {r_dark_measured}")
    if r_dark_measured == 0:
        return 0.0
    return nhpp.simple_rate_inverse(r_dark_measured, tau_d)
