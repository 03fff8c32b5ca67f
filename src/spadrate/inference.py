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

# numpy caps an array at intp-max bytes, so no array of 8-byte values is longer
MAX_ARRAY_LENGTH = np.iinfo(np.intp).max // 8


_V2_KEYS = ("bin_width", "origin", "n_bins", "overflow")
_V2_LAYOUT = ["# spadrate interval histogram v2", *(f"# {key}" for key in _V2_KEYS),
              "bin_index,count"]


class IntervalHistogram:
    """Counts of intervals in bins [origin + j*bin_width, origin + (j+1)*bin_width), j < n_bins.

    A value exactly on an edge belongs to the bin starting there; values
    outside the range are tallied in ``overflow``.  Only the populated bins
    are stored, as their increasing ``index`` and their ``tally``.  The
    constructor takes every bin's ``counts``, or the tally as ``counts`` with
    ``index`` and ``n_bins``; ``counts``, ``bin_edges`` and ``bin_centers``
    are dense arrays of n_bins.
    """

    def __init__(self, bin_width: float, counts, origin: float = 0.0, overflow: int = 0, *,
                 index=None, n_bins: int | None = None):
        tally = np.asarray(counts, dtype=np.int64)
        if index is None:
            index, n_bins = np.flatnonzero(tally), tally.size
            tally = tally[index]
        index = np.asarray(index, dtype=np.int64)
        if not 0 < bin_width < np.inf:
            raise ValueError(f"bin_width must be finite and positive, got {bin_width}")
        if np.any(tally < 0):
            raise ValueError("counts must be non-negative")
        if not (np.isfinite(origin) and 0 <= n_bins <= MAX_ARRAY_LENGTH and overflow >= 0
                and np.all(np.diff(index) > 0)
                and (index.size == 0 or 0 <= index[0] <= index[-1] < n_bins)):
            raise ValueError(f"a histogram needs a finite origin, 0 <= n_bins <= {MAX_ARRAY_LENGTH}"
                             ", overflow >= 0 and bin indices that increase below n_bins")
        self.bin_width, self.origin = float(bin_width), float(origin)
        self.n_bins, self.overflow = int(n_bins), int(overflow)
        self.index, self.tally = index[tally > 0], tally[tally > 0]

    @property
    def total(self) -> int:
        return int(self.tally.sum())

    @property
    def counts(self) -> np.ndarray:
        counts = np.zeros(self.n_bins, dtype=np.int64)
        counts[self.index] = self.tally
        return counts

    @property
    def bin_edges(self) -> np.ndarray:
        return self.origin + self.bin_width * np.arange(self.n_bins + 1)

    @property
    def bin_centers(self) -> np.ndarray:
        return self.bin_edges[:-1] + 0.5 * self.bin_width

    def to_csv(self, path) -> None:
        """Write file v2: exact ``repr`` header values, then one row per populated bin."""
        meta = [f"# {key}={getattr(self, key)!r}" for key in _V2_KEYS]
        write_table(path, "\r\n".join([_V2_LAYOUT[0], *meta, _V2_LAYOUT[-1]]), "{},{}",
                    self.index, self.tally)

    @classmethod
    def from_csv(cls, path) -> "IntervalHistogram":
        """Read a ``to_csv`` file, or a dense v1 file of ``bin_left_s,count`` rows.

        A malformed file raises :class:`DegenerateDataError` naming the path.
        """
        with open(path) as fh:
            try:
                first = fh.readline().strip()
                v1 = [h.strip() for h in first.split(",")[:2]] == ["bin_left_s", "count"]
                lines = [] if v1 else [fh.readline().strip() for _ in _V2_LAYOUT[1:]]
                if not v1 and [first, *(line.partition("=")[0] for line in lines)] != _V2_LAYOUT:
                    raise ValueError("expected a v2 header or 'bin_left_s,count'")
                with warnings.catch_warnings():
                    warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                            UserWarning)
                    rows = np.loadtxt(fh, delimiter=",", usecols=(0, 1), ndmin=1,
                                      dtype=[("bin", float if v1 else np.int64),
                                             ("count", np.int64)])
                if not v1:
                    bin_width, origin, n_bins, overflow = (x.partition("=")[2] for x in lines[:-1])
                    return cls(float(bin_width), rows["count"], float(origin), int(overflow),
                               index=rows["bin"], n_bins=int(n_bins))
                if rows.size == 0:
                    return cls(bin_width=1.0, counts=np.zeros(0, dtype=np.int64))
                if rows.size == 1:
                    raise ValueError("cannot infer bin width from a single bin")
                widths = np.diff(rows["bin"])
                if not np.allclose(widths, widths[0], rtol=1e-6, atol=0):
                    raise ValueError("bins are not uniform")
                return cls(float(widths[0]), rows["count"], origin=float(rows["bin"][0]))
            except ValueError as exc:
                raise DegenerateDataError(f"{path}: {exc}") from None


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
    everything at or above it is kept and the bins extend to the maximum.
    Non-finite intervals, and more bins than one array could hold, raise
    ValueError.  An array of n_bins is made only when there are at least
    half as many intervals as bins, where bincount beats unique's sort.
    """
    if not 0 < bin_width < np.inf:
        raise ValueError(f"bin_width must be finite and positive, got {bin_width}")
    values = np.asarray(intervals, dtype=float)
    if not np.isfinite(values).all():
        raise ValueError("intervals must be finite")
    origin, n_bins = 0.0, None
    # a quotient past the float range is an index past any bin count: inf is fine
    with np.errstate(over="ignore"):
        if bounds is not None:
            lo, hi = bounds
            if not -np.inf < lo < hi < np.inf:
                raise ValueError(f"bounds must be finite with lo < hi, got {bounds}")
            origin = lo
            n_bins = np.ceil((hi - lo) / bin_width - 1e-12)
        idx = np.floor((values - origin) / bin_width)
    if n_bins is None:
        n_bins = max(idx.max(initial=-1.0) + 1, 0.0)
    if n_bins > MAX_ARRAY_LENGTH:
        raise ValueError(f"bin_width {bin_width:g} gives {n_bins:.3g} bins, more than the "
                         f"{MAX_ARRAY_LENGTH} one array can hold")
    n_bins = int(n_bins)
    # clip and cast before selecting: every index fits an int64, and a README run peaks lower
    idx = np.clip(idx, -1, n_bins, out=idx).astype(np.int64)
    idx = idx[(idx >= 0) & (idx < n_bins)]
    overflow = values.size - idx.size
    if n_bins <= 2 * idx.size:
        return IntervalHistogram(bin_width, np.bincount(idx, minlength=n_bins), origin, overflow)
    index, tally = np.unique(idx, return_counts=True)
    return IntervalHistogram(bin_width, tally, origin, overflow, index=index, n_bins=n_bins)


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
        return {"params": {name: getattr(self, name) for name in (*_PARAM_NAMES, "eta0")},
                "fixed": list(self.fixed), "uncertainties": dict(self.uncertainties),
                "goodness": self.goodness, "iterations": self.iterations, "n_bins": self.n_bins}


def _default_init(hist: IntervalHistogram) -> dict[str, float]:
    """Starting values read off the histogram shape.

    Dead-time from the first populated bin, a priori rate from the mean
    interval beyond it, recovery constant from the peak position.
    """
    lefts = hist.origin + hist.bin_width * hist.index
    centers = lefts + 0.5 * hist.bin_width
    tau_d0 = max(lefts[0] - hist.bin_width, hist.bin_width * 1e-3)
    mean_interval = float(np.average(centers, weights=hist.tally))
    r_star0 = 1.0 / max(mean_interval - tau_d0, hist.bin_width * 1e-3)
    tau_r0 = max(centers[int(np.argmax(hist.tally))] - tau_d0, hist.bin_width)
    return {"r_star": r_star0, "tau_d": tau_d0, "tau_r": tau_r0, "scale": 1.0}


def _segments(hist: IntervalHistogram):
    """Edges and counts of the populated bins and of one lump per run of empty bins.

    An empty run [a, b) adds scale * total * (S(a) - S(b)) to the deviance
    however it is split, so lumping it leaves the likelihood unchanged.
    """
    bounds = np.unique(np.concatenate(([0, hist.n_bins], hist.index, hist.index + 1)))
    counts = np.zeros(bounds.size - 1)
    counts[np.searchsorted(bounds, hist.index)] = hist.tally
    return hist.origin + hist.bin_width * bounds, counts


def _er_bins(edges, params, total, jacobian=True):
    """Exact expected counts between consecutive edges, and d log mu / d log p.

    ``params`` holds (r_star, tau_d, tau_r, scale).  A bin [a, b) gets
    scale * total * S(a) * (1 - exp(-[H(b) - H(a)])), with H the integrated
    hazard of the on-time max(edge - tau_d, 0) and S = exp(-H); this form
    has no tail cancellation.  The Jacobian has one row per parameter of
    _PARAM_NAMES; without ``jacobian`` it is None and never built.
    """
    r_star, tau_d, tau_r, scale = params
    on = np.maximum(edges - tau_d, 0.0)
    hazard = er.er_cumulative_hazard(on, r_star, tau_r)
    step = np.diff(hazard)
    mu = scale * total * np.exp(-hazard[:-1]) * -np.expm1(-step)
    if not jacobian:
        return mu, None
    x = on / tau_r
    recovered = -np.expm1(-x)
    # d H / d log p; every row vanishes at the dead-time edge
    d_hazard = np.stack([
        hazard,
        -tau_d * r_star * recovered,
        -tau_r * r_star * (recovered - x * np.exp(-x)),
        np.zeros_like(x),
    ])
    with np.errstate(divide="ignore", invalid="ignore"):
        d_log_mu = np.where(step > 0, np.diff(d_hazard, axis=1) / np.expm1(step), 0.0)
    d_log_mu -= d_hazard[:, :-1]
    d_log_mu[3] = 1.0
    return mu, d_log_mu


def expected_counts(hist: IntervalHistogram, r_star: float, tau_d: float, tau_r: float,
                    scale: float = 1.0, *, populated: bool = False) -> np.ndarray:
    """Exact expected count of every bin, or only of ``populated`` ones: the fit's model."""
    edges, counts = _segments(hist) if populated else (hist.bin_edges, None)
    mu, _ = _er_bins(edges, (r_star, tau_d, tau_r, scale), hist.total, jacobian=False)
    return mu[counts > 0] if populated else mu


def _half_deviance(counts, mu, d_log_mu):
    """Half the Poisson deviance, its gradient and the expected information.

    Derivatives are those of ``d_log_mu``, one row per parameter.  The
    deviance differs from the negative log-likelihood by a constant, and
    its terms are each of order one, so it carries far less rounding noise
    than the likelihood itself.
    """
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
    tau_r.  The populated bins are modelled one by one and each run of
    empty bins as one lump, which leaves the likelihood unchanged; the
    goodness keeps the degrees of freedom of every bin from the first to
    the last populated one.  Uncertainties come from the inverse of the
    expected (Fisher) information at the solution.  Given a calibrated
    ``photon_rate`` in (0, inf) and ``dark_apriori`` in [0, inf), the
    result carries eta0 = (r_star - dark_apriori) / photon_rate; other
    values of either raise ValueError.

    Raises :class:`FitError` when a populated bin has zero expected count
    at the start (for example a dead-time held above it), when scoring
    does not converge within 500 steps, or when the solution leaves a
    combination of the free parameters unresolved: the information scaled
    to unit diagonal has an eigenvalue at most n * eps times its largest
    (n free parameters, eps the float64 epsilon).  Its message names the
    free parameters weighing at least 0.1 in that eigenvector: r_star and
    tau_r when a few bins hold all the counts.
    """
    if not (photon_rate is None or 0 < photon_rate < np.inf):
        raise ValueError(f"photon rate must be finite and positive, got {photon_rate}")
    if not 0 <= dark_apriori < np.inf:
        raise ValueError(f"dark rate must be finite and non-negative, got {dark_apriori}")
    if hist.total < 1:
        raise DegenerateDataError("histogram is empty")
    if hist.index.size < 2:
        raise DegenerateDataError("all counts fall in a single bin; model is unidentifiable")

    theta = _default_init(hist)
    for kind, given in (("init", init or {}), ("fixed", fixed)):
        unknown = set(given) - set(_PARAM_NAMES)
        if unknown:
            raise ValueError(f"unknown {kind} parameters: {sorted(unknown)}")
        theta.update(given if isinstance(given, dict) else {})
    free = np.array([name not in fixed for name in _PARAM_NAMES])
    if not free.any():
        raise ValueError("at least one parameter must be free")
    for name in _PARAM_NAMES:
        if not 0 < theta[name] < np.inf:
            raise ValueError(f"initial {name} must be positive and finite, got {theta[name]}")

    edges, counts = _segments(hist)
    start = np.array([theta[name] for name in _PARAM_NAMES])

    def params_of(x):
        params = start.copy()
        params[free] = np.exp(x)
        return params

    def deviance(params):
        mu, d_log_mu = _er_bins(edges, params, hist.total)
        return _half_deviance(counts, mu, d_log_mu[free])

    def objective(x):
        return deviance(params_of(x))

    def failure(message, x):
        return FitError(message, details={"params": dict(zip(_PARAM_NAMES, params_of(x).tolist()))})

    # Coarse grid over tau_r: once tau_r is far longer than the data span
    # the hazard depends on r_star / tau_r alone and the information is
    # singular, so scoring must not start there.
    if free[2]:
        factors = np.logspace(-1.5, 1.5, 13)
        scan = [deviance(start * [1.0, 1.0, f, 1.0])[0] for f in factors]
        start[2] *= factors[int(np.argmin(scan))]

    x = np.log(start[free])
    current = objective(x)
    if not np.isfinite(current[0]):
        raise failure("a populated bin has zero expected count at the starting parameters", x)
    x, value, information, iterations = _fisher_scoring(objective, x, current, failure)

    # An eigenvalue of the unit-diagonal information at rounding level marks
    # a combination of parameters that the histogram does not resolve.
    names = np.array(_PARAM_NAMES)
    norm = np.sqrt(np.diag(information))
    eigenvalues, eigenvectors = np.linalg.eigh(information / np.outer(norm, norm))
    if eigenvalues[0] <= free.sum() * np.finfo(float).eps * eigenvalues[-1]:
        unresolved = names[free][np.abs(eigenvectors[:, 0]) >= 0.1]
        raise failure(f"the histogram does not resolve the combination of {', '.join(unresolved)}:"
                      " the information is singular to working precision", x)
    best = params_of(x)
    sigmas = best[free] * np.sqrt(np.maximum(np.diag(np.linalg.inv(information)), 0.0))
    span = int(hist.index[-1] - hist.index[0]) + 1

    eta0 = None if photon_rate is None else (float(best[0]) - dark_apriori) / photon_rate

    return FitResult(
        **dict(zip(_PARAM_NAMES, best.tolist())),
        fixed=tuple(names[~free].tolist()),
        uncertainties=dict(zip(names[free].tolist(), sigmas.tolist())),
        goodness=2.0 * value / max(span - int(free.sum()), 1),
        iterations=iterations,
        n_bins=hist.n_bins,
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


# Rate model name -> (name InferredRate reports, mean on-time (r_star,
# tau_r), inverse (measured rate, ErParams) of 1 / (mean + tau_d)).
# The lambdas look a function up on its module per call, so wrappers see it.
_RATE_MODELS = {
    "simple": ("simple", lambda r_star, tau_r: 1.0 / r_star,
               lambda r, params: nhpp.simple_rate_inverse(r, params.tau_d)),
    "er": ("er", lambda r_star, tau_r: er.er_mean_on_time(r_star, tau_r),
           lambda r, params: er.er_rate_inverse(r, params)),
    "low": ("approx_low", lambda r_star, tau_r: er.approx_low_mean(r_star, tau_r),
            lambda r, params: er.approx_low_inverse(r, params)),
    "high": ("approx_high", lambda r_star, tau_r: er.approx_high_mean(r_star, tau_r),
             lambda r, params: er.approx_high_inverse(r, params)),
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
    if model not in _RATE_MODELS:
        raise ValueError(f"unknown model {model!r}; choose from {sorted(_RATE_MODELS)}")
    kind, _, inverse = _RATE_MODELS[model]
    if not 0 <= dark_apriori < np.inf:
        raise ValueError(f"dark rate must be finite and non-negative, got {dark_apriori}")
    total = inverse(r_measured, params)
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
