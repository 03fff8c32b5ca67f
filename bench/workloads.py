"""The three benchmark workloads and their per-operation correctness gate.

Each workload has a fixed number of input sets (``inputs``).  Input set
``k`` is made from ``(seed, k)`` before any pass is timed (``prepare``); a
pass runs one input set through spadrate's public functions (``run``),
timing each step on a ``hostclock.Clock``.  A run times every input set the
same number of rounds, so two commits given the same seed and ``--seconds``
time the same work.  ``pass_s`` is the measured time of one untraced pass
on a 2-vCPU VM in its slower mode; the runner derives the number of rounds
from it and ``--seconds``, never from elapsed time.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle
import tracing
from hostclock import Clock

# README operating point: R* = eta0 * ri ~ 1e8 /s, r_star * tau_r ~ 11.
ETA0, TAU_D, TAU_R, RI = 0.19117, 80.09205e-6, 112.5e-9, 5.23e8
R_STAR = ETA0 * RI
INFER_RATE, INFER_DARK = 12.4e3, 858.0
# Paralyzing constants of scripts/paralyzing_rollover.py and criteria 9-10.
TAU_P1, TAU_P2 = 15e-9, 27e-9

# Gate tolerances (acceptance criteria 5, 7 and 10 of the test suite).
RATE_RTOL = 1e-8
FIT_SIGMAS = 5.0
TAU_D_ATOL = 10e-9
TAU_P_RTOL = 0.10


def sub_seed(*key) -> int:
    """Deterministic 63-bit seed for one pass or rung."""
    return int(np.random.SeedSequence(list(key)).generate_state(2, np.uint64)[0] >> 1)


@dataclass
class PassResult:
    latencies: list = field(default_factory=list)  # reference-host s, one per unit operation
    ops: int = 0
    failures: list = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)

    def gate(self, name: str, ok: bool, detail: str = ""):
        """Count one checked operation; keep a message when it failed."""
        self.ops += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")


def _rel(value, truth) -> float:
    return abs(value / truth - 1.0)


class Characterize:
    """README CLI flow: simulate -> CSV -> hist -> fit -> infer, in-process."""

    name = "characterize"
    unit_op = "one characterization pass (simulate, hist, fit, infer)"
    # Nelder-Mead stalls at its evaluation cap on 1 data set in 5 to 10 (20-25 s
    # instead of 3-5 s); the median over seven data sets leaves three out.
    inputs = 7
    pass_s = 5.0

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        from spadrate import cli

        self.cli = cli
        self.seed = seed
        self.events = 20_000 if smoke else 1_000_000
        self.dir = workdir
        self.infer_truth = oracle.apriori_rate(INFER_RATE, TAU_R, TAU_D)
        self.detector = ["--eta0", repr(ETA0), "--tau-d", repr(TAU_D), "--tau-r", repr(TAU_R)]

    def prepare(self, k: int) -> int:
        return sub_seed(self.seed, k)

    def _cli(self, tracer, clock: Clock, command: str, *args: str):
        """Run one CLI command as one timed step; returns (exit code, stdout text)."""
        out = io.StringIO()
        with clock.step(), tracer.span(f"cli.{command}"), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(out):
            try:
                self.cli.cli.main([command, *args], standalone_mode=False)
                code = 0
            except SystemExit as exc:
                code = exc.code or 0
            except Exception as exc:  # a crash is a failed operation, not a crashed benchmark
                code = getattr(exc, "exit_code", 1)
                print(f"{type(exc).__name__}: {exc}")
        return code, out.getvalue()

    def _check_fit(self, res: PassResult, name: str, path: Path, code: int, text: str):
        """Gate one fit command; returns the pulls (fit - truth) / sigma."""
        if code != 0:
            res.gate(name, False, f"exit {code}: {text[-200:]}")
            return None
        fit = json.loads(path.read_text())
        p, u = fit["params"], fit["uncertainties"]
        truth = {"r_star": R_STAR, "tau_r": TAU_R, "tau_d": TAU_D}
        pulls = {k: (p[k] - truth[k]) / u[k] for k in truth if k in u}
        bad = [f"{k} pull {v:.2f}" for k, v in pulls.items()
               if k != "tau_d" and not abs(v) <= FIT_SIGMAS]
        if not abs(p["tau_d"] - TAU_D) <= TAU_D_ATOL:
            bad.append(f"tau_d off by {p['tau_d'] - TAU_D:.3e} s")
        res.gate(name, not bad, "; ".join(bad))
        return {"pulls": pulls, "goodness": fit["goodness"]}

    def run(self, sim_seed: int, tracer, clock: Clock) -> PassResult:
        res = PassResult()
        d = self.dir
        ts, hist, fit, infer = d / "ts.csv", d / "hist.csv", d / "fit.json", d / "infer.json"

        code, text = self._cli(tracer, clock, "simulate", *self.detector, "--ri", repr(RI),
                               "--events", str(self.events), "--seed", str(sim_seed),
                               "--out", str(ts))
        res.gate("simulate", code == 0 and f"wrote {self.events} timestamps" in text,
                 f"exit {code}: {text[-200:]}")

        code, text = self._cli(tracer, clock, "hist", str(ts), "--bin-width", "1e-9", "--out", str(hist))
        res.gate("hist", code == 0 and f"({self.events - 1} intervals, 0 overflow)" in text,
                 f"exit {code}: {text[-200:]}")

        # tau_d and scale held: with more free parameters Nelder-Mead stalls
        # at its evaluation cap on a quarter to a half of the seeds at 1e6
        # events; the all-free fit is a traced-run diagnostic (see diagnose).
        code, text = self._cli(tracer, clock, "fit", str(hist), "--fix", f"tau_d={TAU_D!r}",
                               "--fix", "scale=1", "--ri", repr(RI), "--out", str(fit))
        checked = self._check_fit(res, "fit", fit, code, text)
        if checked:
            res.diagnostics.update({
                "inference.z_r_star": abs(checked["pulls"]["r_star"]),
                "inference.z_tau_r": abs(checked["pulls"]["tau_r"]),
            })

        code, text = self._cli(tracer, clock, "infer", *self.detector, "--rate", repr(INFER_RATE),
                               "--dark", repr(INFER_DARK), "--out", str(infer))
        if code != 0:
            res.gate("infer", False, f"exit {code}: {text[-200:]}")
        else:
            rep = json.loads(infer.read_text())
            total, photon = rep["total_apriori_hz"], rep["photon_apriori_hz"]
            res.gate("infer", _rel(total, self.infer_truth) <= RATE_RTOL
                     and abs(photon - (total - INFER_DARK)) <= RATE_RTOL * total,
                     f"total {total!r} vs oracle {self.infer_truth!r}")

        res.latencies.append(clock.totals()[1])
        return res

    def keep_first(self):
        """Keep pass 0's histogram for the traced-run diagnostic fit."""
        shutil.copyfile(self.dir / "hist.csv", self.dir / "hist0.csv")

    def diagnose(self, tracer) -> PassResult:
        """All-free fit of pass 0's histogram, traced (traced runs only).

        Its Nelder-Mead search exhausts its evaluation budget on some seeds,
        so its time is reported per layer and kept out of the timed passes.
        """
        res = PassResult()
        out = self.dir / "fit_free.json"
        code, text = self._cli(tracer, Clock(), "fit", str(self.dir / "hist0.csv"), "--out", str(out))
        checked = self._check_fit(res, "fit_free", out, code, text)
        spans = tracing.PassTrace(tracer.spans)
        res.diagnostics.update({
            "inference.fit_free_s": spans.total("inference.fit_er_histogram"),
            "inference.fit_free_likelihood_evals": spans.inside(
                "inference.fit_er_histogram", "er.er_interval_pdf"),
        })
        if checked:
            res.diagnostics.update({
                "inference.z_tau_d": abs(checked["pulls"]["tau_d"]),
                # deviance / dof is ideally 1; report the distance from it
                "inference.goodness": abs(checked["goodness"] - 1.0),
            })
        return res


class RateCorrect:
    """Measured rates back to a priori rates, plus a forward tabulation."""

    name = "rate_correct"
    unit_op = "one measured-rate correction (inference.infer_apriori_rate)"
    # One set of corrections per seed, timed every round: the cost of one
    # inversion varies about 2x with a = r_star * tau_r, so fresh draws per
    # round would move the median with the draws rather than the program.
    inputs = 1
    pass_s = 6.5

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        from spadrate import er, inference, paralyzing

        self.er, self.inference, self.paralyzing = er, inference, paralyzing
        self.seed = seed
        self.n = 3 if smoke else 64
        self.params = er.ErParams(eta0=ETA0, tau_d=TAU_D, tau_r=TAU_R)
        self.pp = paralyzing.ParalyzingParams(tau_p1=TAU_P1, tau_p2=TAU_P2)
        grid = np.logspace(7.5, 10.5, 22)  # criterion-9 rollover grid
        self.grid = grid[::7] if smoke else grid
        self.forward_truth = [
            (float(oracle.mean_on_time(rs, TAU_R)),
             oracle.paralyzing_mean_on_time(rs, TAU_R, TAU_P1, TAU_P2))
            for rs in self.grid
        ]

    def prepare(self, k: int):
        """One a = r_star * tau_r per equal slice of log10 a in [-6, 6]."""
        rng = np.random.default_rng([self.seed, k])
        log_a = -6.0 + (np.arange(self.n) + rng.random(self.n)) * 12.0 / self.n
        r_true = 10.0 ** log_a / TAU_R
        dark = r_true * 10.0 ** rng.uniform(-3.0, -1.0, self.n)
        measured = [oracle.measured_rate(r, TAU_R, TAU_D) for r in r_true]
        return list(zip(measured, r_true.tolist(), dark.tolist()))

    def run(self, cases, tracer, clock: Clock) -> PassResult:
        res = PassResult()
        for measured, r_true, dark in cases:
            try:
                with clock.step() as took:
                    out = self.inference.infer_apriori_rate(
                        measured, self.params, dark_apriori=dark, model="er")
            except Exception as exc:
                res.latencies.append(took[1])
                res.gate("correct", False, f"r={measured!r}: {type(exc).__name__}: {exc}")
                continue
            res.latencies.append(took[1])
            res.gate("correct", _rel(out.total_apriori, r_true) <= RATE_RTOL
                     and abs(out.photon_apriori - (r_true - dark)) <= RATE_RTOL * r_true
                     and not out.clipped,
                     f"r={measured!r}: {out.total_apriori!r} vs {r_true!r}")

        with clock.step():
            forward = [(self.er.er_mean_on_time(float(rs), TAU_R),
                        self.paralyzing.paralyzing_mean_on_time(self.pp, float(rs), TAU_R))
                       for rs in self.grid]
        worst = 0.0
        for rs, (mean_truth, par_truth), (mean, par) in zip(self.grid, self.forward_truth,
                                                             forward):
            # Only the recovery mean is gated: p/(1-p) loses digits as p -> 1,
            # so the paralyzing value's error is reported, not gated.
            worst = max(worst, _rel(par, par_truth))
            res.gate("forward", _rel(mean, mean_truth) <= RATE_RTOL
                     and math.isfinite(par) and par >= mean,
                     f"r_star={rs:.4g}: {mean!r} vs {mean_truth!r}, paralyzing {par!r}")
        res.diagnostics["paralyzing.forward_max_rel_err"] = worst
        return res


class Blinding:
    """Paralyzing rollover: simulate a ladder past the peak, then refit."""

    name = "blinding"
    unit_op = "one rollover pass (10 paralyzing rungs, then fit_paralyzing)"
    inputs = 1
    pass_s = 17.0

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        from spadrate import er, paralyzing, simulate

        self.er, self.paralyzing, self.simulate = er, paralyzing, simulate
        self.seed = seed
        self.det = er.ErParams(eta0=ETA0, tau_d=1e-6, tau_r=TAU_R)
        self.pp = paralyzing.ParalyzingParams(tau_p1=TAU_P1, tau_p2=TAU_P2)
        self.grid = np.logspace(8, np.log10(6e9), 10)
        # criterion-10 event counts; fewer above 2e9, where each detection
        # costs tens to hundreds of paralyzations
        lo, hi = (3_000, 1_000) if smoke else (100_000, 30_000)
        self.events = [lo if rs < 2e9 else hi for rs in self.grid]

    def prepare(self, k: int):
        return [sub_seed(self.seed, k, i) for i in range(len(self.grid))]

    def run(self, seeds, tracer, clock: Clock) -> PassResult:
        res = PassResult()
        points = []
        for rs, n, seed in zip(self.grid, self.events, seeds):
            config = self.simulate.SimConfig(
                er=self.det,
                source=self.er.SourceParams(photon_rate=rs / self.det.eta0),
                paralyzing=self.pp,
                n_events=n,
                seed=seed,
            )
            with clock.step():
                series = self.simulate.simulate(config)
            mean = float(np.mean(self.simulate.intervals(series) - self.det.tau_d))
            points.append((float(rs), mean))
            res.gate("rung", series.times.size == n and math.isfinite(mean) and mean > 0,
                     f"r_star={rs:.4g}: {series.times.size} events, mean {mean!r}")
        try:
            with clock.step():
                fit = self.paralyzing.fit_paralyzing(points, self.det)
        except Exception as exc:
            res.gate("fit", False, f"{type(exc).__name__}: {exc}")
        else:
            p1, p2 = fit.params.tau_p1, fit.params.tau_p2
            res.gate("fit", _rel(p1, TAU_P1) <= TAU_P_RTOL and _rel(p2, TAU_P2) <= TAU_P_RTOL,
                     f"tau_p1 {p1:.4e}, tau_p2 {p2:.4e}")
        res.latencies.append(clock.totals()[1])
        return res


WORKLOADS = {cls.name: cls for cls in (Characterize, RateCorrect, Blinding)}
