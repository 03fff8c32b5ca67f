#!/usr/bin/env python3
"""spadrate benchmark: one workload per process, end-to-end or traced.

    python3 bench/run.py --workload characterize --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/`` of the
same checkout.  With ``--trace 0`` the run reports the end-to-end metrics of
BENCHMARK.json, with ``--trace 1`` the per-layer metrics (it also runs
untraced passes, to measure the tracing overhead).  The last stdout line is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it print each metric with its unit.  A fuller record with provenance
goes to ``.bench_out/``.  ``bench/layers.json`` maps each per-layer metric to
the end-to-end metric and workload it should move.

End-to-end times are in reference-host seconds (``hostclock.py``); a run
times a fixed set of inputs for a number of rounds fixed by ``--seconds``.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported: one thread per workload process.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
# One CPU for the workload, its set-up children and the reference kernel of
# hostclock, so a step and the kernel that rescales it see the same CPU.
CPU = min(os.sched_getaffinity(0))
os.sched_setaffinity(0, {CPU})

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(".bench_out")
WORK_DIR = Path(".bench_work")
SETUP_REPS = 5
# Input sets of a traced run; it runs each twice and adds the diagnostics,
# which must stay inside the per-run time limit when fits stall.
TRACED_INPUTS = 2
# Per-layer diagnostics that exist only when their fit ran to completion.
DIAGNOSTICS = {
    "characterize": ("inference.z_r_star", "inference.z_tau_r", "inference.z_tau_d",
                     "inference.goodness"),
}

# Fresh-process set-up: import the package, its CLI and dependencies, then
# make the first call (quadrature and root-finding paths load lazily).
SETUP_CODE = f"""
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, {str(SRC)!r})
import click, scipy, spadrate, spadrate.cli
from spadrate import er
er.er_rate_inverse(12.4e3, er.ErParams(0.19117, 80.09205e-6, 112.5e-9))
print(time.perf_counter() - t0)
"""


def import_spadrate():
    """Import the package from this checkout's src/, never an installed copy."""
    sys.path.insert(0, str(SRC))
    import spadrate

    if Path(spadrate.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"spadrate imported from {spadrate.__file__}, not {SRC}")
    from spadrate import er, inference, nhpp, paralyzing, simulate

    # cli has no __all__; its command spans are opened by the workload itself
    return [simulate, inference, er, nhpp, paralyzing]


def measure_setup() -> tuple[float, float]:
    """One fresh-process set-up: (measured s, reference-host s)."""
    import hostclock

    clock = hostclock.Clock()
    with clock.step():
        out = subprocess.run([sys.executable, "-c", SETUP_CODE], capture_output=True,
                             text=True, timeout=120, check=True)
    measured, host = clock.steps[0]
    # the child's own import-to-first-call time, rescaled like the step
    inner = float(out.stdout.strip().splitlines()[-1])
    return inner, inner * host / measured


def provenance(seed: int) -> dict:
    def read(path, key=None):
        try:
            text = Path(path).read_text()
        except OSError:
            return None
        if key is None:
            return text.strip()
        for line in text.splitlines():
            if line.startswith(key):
                return line.split(":", 1)[1].strip()
        return None

    sha = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        sha = out.stdout.strip() if out.returncode == 0 else None
    versions = {name: metadata.version(name) for name in ("numpy", "scipy", "mpmath", "click")}
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "cpu_model": read("/proc/cpuinfo", "model name"),
        "l3_cache": read("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "python": platform.python_version(),
        **versions,
        "seed": seed,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "pinned_cpu": CPU,
    }


def tail(samples):
    """Highest percentile with at least ten samples beyond it.

    With ten or fewer samples no percentile has ten beyond it and no tail
    can be told from noise, so the median stands in (percentile 50).
    Returns (value, percentile, samples beyond).
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        med = statistics.median(xs)
        return med, 50.0, sum(x > med for x in xs)
    rank = n - 11
    return xs[rank], 100.0 * rank / (n - 1), 10


def layer_values(pt, res) -> dict:
    """Per-layer numbers of one traced pass (see bench/layers.json)."""
    fits = pt.select("inference.fit_er_histogram")
    sims = pt.select("simulate.simulate")

    def per(num, den):
        return num / den if den else 0.0

    sample_s = pt.total("simulate.simulate")
    events = pt.inside("simulate.simulate", "events")
    write_s, read_s = pt.total("simulate.write_timestamps_csv"), pt.total("simulate.read_timestamps_csv")
    csv_bytes = (pt.inside("simulate.write_timestamps_csv", "bytes")
                 + pt.inside("simulate.read_timestamps_csv", "bytes"))
    populated = pt.inside("inference.build_histogram", "populated_bins")
    evals = pt.inside("inference.fit_er_histogram", "er.er_interval_pdf")
    points = pt.inside("inference.fit_er_histogram", "pdf_points")
    inverses = pt.calls("er.er_rate_inverse")
    means = pt.calls("nhpp.mean_on_time")
    values = {
        "cli.simulate_s": pt.total("cli.simulate"),
        "cli.hist_s": pt.total("cli.hist"),
        "cli.fit_s": pt.total("cli.fit"),
        "cli.infer_s": pt.total("cli.infer"),
        "cli.self_s": pt.self_total(prefix="cli."),
        "simulate.sample_s": sample_s,
        "simulate.sample_ns_per_event": 1e9 * per(sample_s, events),
        "simulate.sample_ns_per_event_max": max(
            (1e9 * per(pt.duration[i], pt.spans[i].attrs["events"]) for i in sims), default=0.0),
        "simulate.csv_write_s": write_s,
        "simulate.csv_read_s": read_s,
        "simulate.csv_mb_per_s": 1e-6 * per(csv_bytes, write_s + read_s),
        "inference.build_histogram_s": pt.total("inference.build_histogram"),
        "inference.n_bins": pt.inside("inference.build_histogram", "n_bins"),
        "inference.populated_bins": populated,
        "inference.fit_fixed_s": sum(pt.duration[i] for i in fits),
        "inference.likelihood_evals": evals,
        "inference.pdf_points": points,
        "inference.useful_point_ratio": per(populated * evals, points),
        "inference.infer_s": pt.total("inference.infer_apriori_rate"),
        "er.rate_inverse_s": pt.total("er.er_rate_inverse"),
        "er.forward_evals_per_inverse": per(pt.inside("er.er_rate_inverse", "er.er_rate_forward"),
                                            inverses),
        "er.mean_on_time_s": pt.total("er.er_mean_on_time"),
        "er.mean_on_time_calls": pt.calls("er.er_mean_on_time"),
        "er.interval_pdf_self_s": pt.self_total("er.er_interval_pdf"),
        "nhpp.mean_on_time_self_s": pt.self_total("nhpp.mean_on_time"),
        "nhpp.invert_rate_self_s": pt.self_total("nhpp.invert_rate"),
        "nhpp.integrand_evals_per_mean": per(pt.inside("nhpp.mean_on_time", "er.er_efficiency"),
                                             means),
        "paralyzing.fit_s": pt.total("paralyzing.fit_paralyzing"),
        "paralyzing.conditional_calls": pt.calls("paralyzing.mean_conditional_on_time"),
        "paralyzing.quad_evals": pt.inside("paralyzing.mean_conditional_on_time", "er.er_pdf"),
        "paralyzing.mean_on_time_s": pt.total("paralyzing.paralyzing_mean_on_time"),
    }
    values.update(res.diagnostics)
    return values


def observers():
    import numpy as np

    return {
        "simulate.simulate": lambda a, k, out: {"events": out.times.size},
        "simulate.write_timestamps_csv": lambda a, k, out: {"bytes": os.path.getsize(a[0])},
        "simulate.read_timestamps_csv": lambda a, k, out: {"bytes": os.path.getsize(a[0])},
        "inference.build_histogram": lambda a, k, out: {
            "n_bins": out.counts.size, "populated_bins": int(np.count_nonzero(out.counts))},
        "er.er_interval_pdf": lambda a, k, out: {"pdf_points": int(np.size(a[0]))},
    }


def plan(wl, seconds: float, traced: bool) -> tuple[int, int]:
    """(input sets, rounds) of a run: from --seconds, never from elapsed time.

    A traced run times its first TRACED_INPUTS input sets once untraced and
    once traced, then runs the workload's diagnostics.
    """
    if traced:
        return min(wl.inputs, TRACED_INPUTS), 1
    return wl.inputs, max(1, round(seconds / (wl.inputs * wl.pass_s)))


def best_of_rounds(samples):
    """Least timing of each operation over the rounds that repeated it.

    ``samples[r]`` lists round r's timings in operation order.  Every round
    repeats identical work, and host interference only adds time, so the
    least timing is the operation's own cost.
    """
    return [min(times) for times in zip(*samples)]


def run_workload(args, spec) -> dict:
    modules = import_spadrate()
    import hostclock
    import tracing
    import workloads

    setup_reps = 1 if args.smoke else SETUP_REPS
    setup_times = []
    workdir = WORK_DIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke, workdir)
        tracer = tracing.Tracer(modules, observers()) if args.trace else None
        n_inputs, rounds = plan(wl, args.seconds, bool(args.trace))
        inputs = [wl.prepare(k) for k in range(n_inputs)]
        # per input set, by round: pass walls and op latency lists, in reference-host s
        walls = [[] for _ in inputs]
        op_times = [[] for _ in inputs]
        untraced, traced, extra, traced_walls, measured_walls = [], [], [], [], []
        # round-robin, so the rounds of one input set fall at different times
        for _ in range(rounds):
            for k, data in enumerate(inputs):
                # set-up samples spread over the run rather than back to back
                if len(setup_times) < setup_reps:
                    setup_times.append(measure_setup())
                clock = hostclock.Clock()
                res = wl.run(data, tracing.NullTracer(), clock)
                measured, host = clock.totals()
                walls[k].append(host)
                measured_walls.append(measured)
                op_times[k].append(res.latencies)
                untraced.append(res)
                if tracer is not None:
                    tracer.begin_pass()
                    clock = hostclock.Clock()
                    with tracer:
                        res = wl.run(data, tracer, clock)
                    traced_walls.append(clock.totals()[0])
                    traced.append((tracing.PassTrace(tracer.spans), res))
                    if k == 0 and hasattr(wl, "keep_first"):
                        wl.keep_first()
        if tracer is not None and hasattr(wl, "diagnose"):
            tracer.begin_pass()
            with tracer:
                res = wl.diagnose(tracer)
            extra.append(res)
            traced[0][1].diagnostics.update(res.diagnostics)
        while len(setup_times) < setup_reps:
            setup_times.append(measure_setup())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    setup_s = statistics.median(host for _, host in setup_times)
    passes = untraced + [res for _, res in traced] + extra
    best_walls = [min(w) for w in walls]
    latencies = [x for times in op_times for x in best_of_rounds(times)]
    ops = sum(p.ops for p in passes)
    failures = [f for p in passes for f in p.failures]
    p50 = statistics.median(latencies)
    tail_s, tail_pct, beyond = tail(latencies)
    record = {
        "workload": args.workload,
        "unit_op": wl.unit_op,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "input_sets": n_inputs,
        "rounds": rounds,
        "ops_total": ops,
        "ops_failed": len(failures),
        "failures": failures[:20],
        "op_samples": len(latencies),
        "op_tail_percentile": tail_pct,
        "op_tail_samples_beyond": beyond,
        "setup_times_s": setup_times,  # (measured s, reference-host s)
        "pass_walls_s": walls,
        "measured_pass_walls_s": measured_walls,
        "provenance": provenance(args.seed),
    }

    OUT_DIR.mkdir(exist_ok=True)
    if not args.trace:
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(best_walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "op_p50_s": p50,
            "op_tail_s": tail_s,
        }
        wanted = spec["end_to_end"]
    else:
        per_pass = [layer_values(pt, res) for pt, res in traced]
        first = per_pass[0]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = {}
        for name in units:
            # counts repeat exactly on pass 0; times are medians over passes
            if units[name] in ("count", "ratio", "sigma") or name not in per_pass[-1]:
                values[name] = first.get(name, 0.0)
            else:
                values[name] = statistics.median(p.get(name, 0.0) for p in per_pass)
        # a diagnostic whose fit crashed reads 0, which must not pass for a perfect pull
        not_computed = sorted(n for n in DIAGNOSTICS.get(args.workload, ()) if n not in first)
        record["not_computed"] = not_computed
        values["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(measured_walls)
        record["traced_walls_s"] = traced_walls
        wanted = spec["per_layer"]
        traced[0][0].dump(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json")

    missing = {m["name"] for m in wanted} ^ set(values)
    if missing:
        raise RuntimeError(f"metrics out of step with BENCHMARK.json: {sorted(missing)}")
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in wanted}
    record["metrics"] = metrics
    with open(OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    for name, m in metrics.items():
        print(f"{args.workload:>13} {name:<38} {m['value']:>16.6g} {m['unit']}")
    print(f"{args.workload:>13} {'ops_failed/ops_total':<38} {len(failures):>10}/{ops} "
          f"(op = {wl.unit_op}; best of {rounds} round(s); "
          f"op_tail = p{tail_pct:.1f} of {len(latencies)}, {beyond} beyond)")
    for failure in failures[:20]:
        print(f"{args.workload:>13} FAILED {failure}")
    for name in record.get("not_computed", ()):
        print(f"{args.workload:>13} NOT COMPUTED {name} (its fit failed; the 0 is a placeholder)")
    return {"correct": not failures, "attempted": ops, "failed": len(failures),
            "metrics": metrics}


def run_all(args, spec) -> int:
    """Each workload in its own process, so peak memory stays per workload."""
    results = {}
    for w in spec["workloads"]:
        cmd = [sys.executable, __file__, "--workload", w["name"], "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = out.stdout.rstrip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if out.returncode != 0 or not lines:
            sys.stderr.write(out.stderr)
            return out.returncode or 1
        results[w["name"]] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs and one set-up repetition (self-check only)")
    args = ap.parse_args()
    if args.workload == "all":
        return run_all(args, spec)
    result = run_workload(args, spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
