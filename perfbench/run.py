"""Closed-loop benchmark of smtrack.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sim1-paper --seed 0 --seconds 30 --trace 0

One process, one caller, one thread: closed-loop runs of the public
``smtrack.run`` follow one another, each started only after the previous one
returned. ``--trace 0`` times runs for ``--seconds`` and prints the
end-to-end metrics; their times are scaled to a nominal host speed by a
reference pass timed between runs (``hostspeed.py``). ``--trace 1`` replays
a fixed set of runs with and without timing wrappers around each module's
public functions and prints the per-layer metrics. Every run is checked: the
true parameter inside the belief at every step, log det P never growing, and
no aborted run. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
1 when a check failed and 2 when the package cannot be loaded.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 5           # timed fresh-interpreter set-ups per run; median reported
CONTAIN_TOL = 1e-6         # independent containment check, looser than the package's
LOGDET_TOL = 1e-9          # allowed rounding rise of log det P between steps
BOUND_TOL = 1e-9           # relative slack of the certified error bound check
TRACE_CAP = 2.0            # traced runs stop early after this many --seconds


@dataclass(frozen=True)
class Workload:
    scenario: str
    modes: tuple
    # Rounds (one seed through every mode) that the untraced run always
    # completes and whose runs give track_err and belief_trace_final, so that
    # these figures repeat exactly for a seed. About --seconds of work here.
    quality_rounds: int
    # Rounds the traced run replays, plain and traced, so that every traced
    # count repeats exactly for a seed.
    trace_rounds: int


WORKLOADS = {
    # The paper's headline study on the smallest problem: robust dominates;
    # estimator and the one-input active path work only in their modes.
    "sim1-paper": Workload("sim1", ("fixed", "learn", "active"), 32, 14),
    # The largest problem: the two-input active path and four-parameter
    # fusion, where active and estimator gains show most.
    "sim3-active": Workload("sim3", ("learn", "active"), 12, 5),
    # No estimator or active work, so their optimisations must not move it;
    # known_theta gives the solver degenerate point-belief cones.
    "sim2-robust": Workload("sim2", ("fixed", "known_theta"), 16, 7),
}

END_TO_END_UNITS = {
    "setup_s": "s", "steps_per_s": "1/s", "step_ms_p50": "ms",
    "step_ms_tail": "ms", "track_err": "1", "belief_trace_final": "1",
    "peak_rss_mb": "MB",
}

# (owner attribute path, span name, keep args and result). The experiments
# entries are the names the closed-loop module binds; its calls go through them.
TRACE_TARGETS = (
    ("experiments", "build_instance", "robust.build_instance", False),
    ("experiments", "solve_robust", "robust.solve", True),
    ("experiments", "solve_known_theta", "robust.solve", True),
    ("experiments", "build_state_observation", "estimator.observation", False),
    ("experiments", "update", "estimator.update", True),
    ("experiments", "build_info_quadratic", "active.info_quadratic", False),
    ("experiments", "build_trust_region", "active.trust_region", False),
    ("experiments", "solve_active", "active.solve", True),
    ("Ellipsoid", "__post_init__", "ellipsoid.construct", False),
    ("Ellipsoid", "contains", "ellipsoid.contains", False),
    ("Ellipsoid", "sample_interior", "ellipsoid.sample", False),
    ("UncertainModel", "step", "model.step", False),
)


def pin_threads():
    """One native thread per pool; must run before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def fail(message):
    """Stop without a result: the benchmark could not run."""
    print(f"benchmark: {message}", file=sys.stderr)
    raise SystemExit(2)


def load_package():
    """Import ``smtrack`` from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "smtrack" / "__init__.py").is_file():
        fail(f"no package source under {SRC}")
    sys.path.insert(0, str(SRC))
    import smtrack

    if Path(smtrack.__file__).resolve().parent != SRC / "smtrack":
        fail(f"imported smtrack from {smtrack.__file__}")
    return smtrack


def environment(args, seed0):
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "run_seeds_from": seed0,
        "loadavg_start": os.getloadavg(),
    }


# ---------------------------------------------------------------------------
# Correctness gate.
# ---------------------------------------------------------------------------

def independent_containment(record, theta):
    """Per step: is ``theta`` inside the recorded belief (own eigen test)?"""
    import numpy as np

    d = theta[None, :] - record.belief_centers
    vals, vecs = np.linalg.eigh(record.belief_shapes)
    coeff = np.einsum("kij,ki->kj", vecs, d)
    cut = np.maximum(vals[:, -1:], 1.0) * 1e-12
    small = vals <= cut
    quad = np.sum(np.where(small, 0.0, coeff**2 / np.where(small, 1.0, vals)), axis=1)
    off_slice = (np.sqrt(np.sum(np.where(small, coeff**2, 0.0), axis=1))
                 > CONTAIN_TOL * (1.0 + np.linalg.norm(d, axis=1)))
    return (quad <= 1.0 + CONTAIN_TOL) & ~off_slice


def failed_steps(record, spec, horizon):
    """Steps of one run that failed the gate; aborted steps count as failed.

    A completed step fails when the true parameter is outside the belief
    (by the package's flag or by the independent test) or log det P rose.
    """
    import numpy as np

    if record.steps == 0:
        return horizon
    inside = record.contains_true & independent_containment(record, spec.theta_true)
    log_det = np.concatenate([[spec.belief0.log_det], record.log_det_p])
    with np.errstate(invalid="ignore"):
        grew = np.diff(log_det) > LOGDET_TOL * (1.0 + np.abs(log_det[:-1]))
    bad = ~inside | grew | ~np.all(np.isfinite(record.u), axis=1)
    return horizon - record.steps + int(np.count_nonzero(bad))


def records_equal(a, b):
    import numpy as np

    for name, value in vars(a).items():
        other = getattr(b, name)
        if isinstance(value, np.ndarray):
            if not (value.shape == other.shape
                    and np.array_equal(value, other, equal_nan=True)):
                return False
        elif value != other:
            return False
    return True


# ---------------------------------------------------------------------------
# Statistics.
# ---------------------------------------------------------------------------

def percentile(values, q):
    import numpy as np

    return float(np.percentile(values, q)) if len(values) else 0.0


def median(values):
    return float(statistics.median(values)) if values else 0.0


def tail(values):
    """Highest order statistic with ten samples above it, and its percentile."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def final_window(spec, steps):
    """The scenario's last error window that fits in ``steps``."""
    fitting = [t for t in spec.t_windows if t <= steps]
    return fitting[-1] if fitting else steps


# ---------------------------------------------------------------------------
# Set-up time.
# ---------------------------------------------------------------------------

def setup_seconds(workload):
    """Fresh-interpreter set-ups after one discarded priming probe.

    Returns the median set-up time at the nominal host speed and the median
    wall time as measured.
    """
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC),
           workload.scenario, *workload.modes]
    scaled, raw = [], []
    for probe in range(SETUP_PROBES + 1):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=60,
                              env=os.environ.copy(), cwd=ROOT)
        if done.returncode != 0:
            fail(f"set-up probe failed:\n{done.stderr}")
        if probe:
            wall, scale = map(float, done.stdout.split()[-2:])
            raw.append(wall)
            scaled.append(wall * scale)
    return median(scaled), median(raw)


# ---------------------------------------------------------------------------
# Untraced run: end-to-end metrics.
# ---------------------------------------------------------------------------

def measure(smtrack, workload, spec, seed0, seconds, steps):
    """Closed-loop rounds for ``seconds``, at least ``workload.quality_rounds``.

    A host reference pass runs between consecutive runs; each run's wall
    time is scaled to the nominal host speed by the mean of the passes just
    before and just after it. Timing metrics use the scaled times.
    """
    import gc

    from hostspeed import NOMINAL_S, HostGauge

    horizon = steps or spec.horizon
    window = final_window(spec, horizon)
    gauge = HostGauge()
    for mode in workload.modes:                      # warm-up, not timed
        smtrack.run(spec, mode, seed0, steps)
    gc.collect()

    runs = []            # (mode, wall seconds, scaled seconds, completed steps)
    quality = []         # (window error, final trace P) of the fixed rounds
    attempted = failed = 0
    start = time.perf_counter()
    rounds = 0
    ref_before = gauge.seconds()
    while rounds < workload.quality_rounds or time.perf_counter() - start < seconds:
        for mode in workload.modes:
            t0 = time.perf_counter()
            record = smtrack.run(spec, mode, seed0 + rounds, steps)
            wall = time.perf_counter() - t0
            ref_after = gauge.seconds()
            scale = NOMINAL_S / (0.5 * (ref_before + ref_after))
            ref_before = ref_after
            runs.append((mode, wall, wall * scale, record.steps))
            attempted += horizon
            failed += failed_steps(record, spec, horizon)
            if rounds < workload.quality_rounds and record.steps:
                quality.append((smtrack.window_error(record, min(window, record.steps)),
                                float(record.trace_p[-1])))
        rounds += 1

    def timings(col):
        """(steps/s, mean of per-mode median ms/step, tail ms/step, its pct).

        Runs of different modes form separate clusters of ms/step, and the
        median of the mixture would fall in the gap between two of them, so
        the median is taken per mode and averaged over the modes.
        """
        per_step = {mode: [1e3 * run[col] / run[3] for run in runs
                           if run[0] == mode and run[3]] for mode in workload.modes}
        by_mode = {mode: median(values) for mode, values in per_step.items()}
        steps_per_s = sum(run[3] for run in runs) / sum(run[col] for run in runs)
        return (steps_per_s, statistics.fmean(by_mode.values()),
                *tail([v for values in per_step.values() for v in values]), by_mode)

    steps_per_s, p50, tail_ms, tail_pct, by_mode = timings(2)
    wall_steps_per_s, wall_p50, wall_tail, _, _ = timings(1)
    metrics = {
        "steps_per_s": steps_per_s,
        "step_ms_p50": p50,
        "step_ms_tail": tail_ms,
        "track_err": statistics.fmean(q[0] for q in quality),
        "belief_trace_final": statistics.fmean(q[1] for q in quality),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {"runs": len(runs), "rounds": rounds, "tail_percentile": tail_pct,
            "failed_frac": failed / attempted,
            "host_scale_median": median([s / w for _, w, s, _ in runs if w > 0]),
            "wall": {"steps_per_s": wall_steps_per_s, "step_ms_p50": wall_p50,
                     "step_ms_tail": wall_tail},
            "step_ms_p50_by_mode": by_mode}
    return metrics, info, attempted, failed


def projections(spec, by_mode):
    """Acceptance-fixture times projected from per-step medians (nominal speed)."""
    run_s = {m: by_mode[m] * spec.horizon / 1e3 for m in by_mode}
    return {
        "crit2 (sim1 learn+active, 50 seeds)":
            (50 * (run_s["learn"] + run_s["active"]), 30.0),
        "crit5 (sim1 fixed+learn+active, 100 seeds)":
            (100 * (run_s["fixed"] + run_s["learn"] + run_s["active"]), 300.0),
    }


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics.
# ---------------------------------------------------------------------------

def trace_targets(smtrack):
    owners = {"experiments": smtrack.experiments, "Ellipsoid": smtrack.Ellipsoid,
              "UncertainModel": smtrack.UncertainModel}
    return [(owners[owner], attr, name, keep)
            for owner, attr, name, keep in TRACE_TARGETS]


def traced_run(smtrack, tracer, run_id, spec, mode, seed, steps):
    from spans import installed

    tracer.run_id = run_id
    with installed(tracer, trace_targets(smtrack)):
        return tracer.wrap("experiments.run", smtrack.experiments.run)(
            spec, mode, seed, steps)


def originals_restored(smtrack, saved):
    return all(vars(owner)[attr] is fn
               for (owner, attr, _, _), fn in zip(trace_targets(smtrack), saved))


def run_counts(tracer, run_id):
    """Deterministic counts of one traced run, for the repeatability check."""
    def results(name):
        return [res for rid, _, res in tracer.calls.get(name, ()) if rid == run_id]

    return (
        [res.newton_iterations for res in results("robust.solve")],
        [res.last_rho > 0.0 for res in results("estimator.update")],
        sum(1 for s in tracer.spans if s[2] == run_id and s[3] == "ellipsoid.construct"),
    )


def bound_violations(tracer, records):
    """Steps whose realised error at k+1 left the certified bound ``z``.

    Only steps that applied the robust input ``sol.u`` are checked.
    Returns (violations, checked steps).
    """
    import numpy as np

    per_run = {}
    for rid, _, sol in tracer.calls.get("robust.solve", ()):
        per_run.setdefault(rid, []).append(sol)
    violations = checked = 0
    for rid, sols in per_run.items():
        record = records[rid]
        for i, sol in enumerate(sols):
            if i + 1 >= record.steps or not np.array_equal(record.u[i], sol.u):
                continue
            err = np.abs(record.y[i + 1] - record.y_ref[i + 1])
            slack = BOUND_TOL * (1.0 + sol.z + np.abs(record.y[i + 1]))
            checked += 1
            violations += int(np.any(err > sol.z + slack))
    return violations, checked


def layer_metrics(tracer, records, violations, overheads):
    """Per-layer metrics from the spans, self times in microseconds."""
    us = 1e6
    spans = tracer.spans
    run_spans = [s for s in spans if s[3] == "experiments.run"]
    total = sum(s[5] - s[4] for s in run_spans)
    steps = sum(r.steps for r in records.values())

    def selfs(name):
        return [us * t for t in tracer.self_times(name)]

    def share(prefix):
        return sum(s[6] for s in spans if s[3].startswith(prefix)) / total

    solves = [res for _, _, res in tracer.calls.get("robust.solve", ())]
    iters = [res.newton_iterations for res in solves]
    solve_us = selfs("robust.solve")

    updates = [res for _, _, res in tracer.calls.get("estimator.update", ())]
    gains = []
    for _, (info, region, _), u in tracer.calls.get("active.solve", ()):
        base = info.value(region.center)
        if base > 0.0:
            gains.append(info.value(u) / base)

    # Step duration: from one build_instance call to the next in a run; the
    # last step of a run ends when the run returns.
    run_end = {s[2]: s[5] for s in run_spans}
    starts = tracer.starts("robust.build_instance")
    step_us = []
    for (rid, t0), nxt in zip(starts, starts[1:] + [(None, None)]):
        t1 = nxt[1] if nxt[0] == rid else run_end[rid]
        step_us.append(us * (t1 - t0))

    n_updates = len(updates) or 1
    return {
        "robust.solve_us_p50": median(solve_us),
        "robust.solve_us_p99": percentile(solve_us, 99),
        "robust.newton_iters_mean": statistics.fmean(iters) if iters else 0.0,
        "robust.newton_iters_p99": percentile(iters, 99),
        "robust.iter_us": sum(solve_us) / sum(iters) if sum(iters) else 0.0,
        "robust.share": share("robust."),
        "robust.nonoptimal_frac":
            sum(res.status != "optimal" for res in solves) / (len(solves) or 1),
        "robust.bound_violations": violations,
        "robust.build_instance_us": median(selfs("robust.build_instance")),
        "estimator.update_us_p50": median(selfs("estimator.update")),
        "estimator.update_us_p99": percentile(selfs("estimator.update"), 99),
        "estimator.observation_us": median(selfs("estimator.observation")),
        "estimator.share": share("estimator."),
        "estimator.shrink_frac": sum(r.last_rho > 0.0 for r in updates) / n_updates,
        "estimator.skip_frac": sum(r.skipped for r in updates) / n_updates,
        "active.solve_us_p50": median(selfs("active.solve")),
        "active.solve_us_p99": percentile(selfs("active.solve"), 99),
        "active.setup_us": median([a + b for a, b in zip(
            selfs("active.info_quadratic"), selfs("active.trust_region"))]),
        "active.share": share("active."),
        "active.info_gain": statistics.fmean(gains) if gains else 0.0,
        "ellipsoid.construct_us": median(selfs("ellipsoid.construct")),
        "ellipsoid.constructs_per_step":
            len(tracer.self_times("ellipsoid.construct")) / steps,
        "ellipsoid.contains_us": median(selfs("ellipsoid.contains")),
        "ellipsoid.sample_us": median(selfs("ellipsoid.sample")),
        "model.step_us": median(selfs("model.step")),
        "experiments.step_us_p50": median(step_us),
        "experiments.step_us_p99": percentile(step_us, 99),
        "experiments.self_share": share("experiments."),
        "trace.overhead_frac": median(overheads),
    }


LAYER_UNITS = {
    "robust.solve_us_p50": "us", "robust.solve_us_p99": "us",
    "robust.newton_iters_mean": "count", "robust.newton_iters_p99": "count",
    "robust.iter_us": "us", "robust.share": "frac",
    "robust.nonoptimal_frac": "frac", "robust.bound_violations": "count",
    "robust.build_instance_us": "us",
    "estimator.update_us_p50": "us", "estimator.update_us_p99": "us",
    "estimator.observation_us": "us", "estimator.share": "frac",
    "estimator.shrink_frac": "frac", "estimator.skip_frac": "frac",
    "active.solve_us_p50": "us", "active.solve_us_p99": "us",
    "active.setup_us": "us", "active.share": "frac", "active.info_gain": "ratio",
    "ellipsoid.construct_us": "us", "ellipsoid.constructs_per_step": "1/step",
    "ellipsoid.contains_us": "us", "ellipsoid.sample_us": "us",
    "model.step_us": "us",
    "experiments.step_us_p50": "us", "experiments.step_us_p99": "us",
    "experiments.self_share": "frac",
    "trace.overhead_frac": "frac",
}


def measure_traced(smtrack, workload, spec, seed0, seconds, steps):
    """Each run of the fixed rounds plain, then traced; records must agree.

    A step whose realised error left its certified bound counts as failed.
    """
    from spans import Tracer

    horizon = steps or spec.horizon
    saved = [vars(owner)[attr] for owner, attr, _, _ in trace_targets(smtrack)]
    tracer = Tracer()
    records = {}
    overheads = []     # traced over plain time of each run, minus 1
    attempted = failed = mismatched = 0
    start = time.perf_counter()
    for rnd in range(workload.trace_rounds):
        if rnd and time.perf_counter() - start > TRACE_CAP * seconds:
            break
        for mode in workload.modes:
            seed = seed0 + rnd
            t0 = time.perf_counter()
            plain = smtrack.run(spec, mode, seed, steps)
            t1 = time.perf_counter()
            run_id = len(records)
            traced = traced_run(smtrack, tracer, run_id, spec, mode, seed, steps)
            t2 = time.perf_counter()
            overheads.append((t2 - t1) / (t1 - t0) - 1.0)
            records[run_id] = traced
            attempted += horizon
            failed += failed_steps(traced, spec, horizon)
            mismatched += not records_equal(plain, traced)

    # Replay the first round traced again: its counts must repeat exactly.
    replay = Tracer()
    repeated = True
    for run_id, mode in enumerate(workload.modes):
        traced_run(smtrack, replay, run_id, spec, mode, seed0, steps)
        repeated &= run_counts(tracer, run_id) == run_counts(replay, run_id)

    violations, checked = bound_violations(tracer, records)
    metrics = layer_metrics(tracer, records, violations, overheads)
    checks = {"records_equal": mismatched == 0, "counts_repeat": repeated,
              "originals_restored": originals_restored(smtrack, saved),
              "bound_checked_steps": checked}
    return metrics, checks, attempted, failed + violations


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--steps", type=int, default=None,
                        help="truncate every run to this many steps (smoke test)")
    return parser.parse_args(argv)


def emit(metrics, units):
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.6g} {units[name]}")
    return {name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()}


def main(argv):
    args = parse_args(argv)
    pin_threads()
    smtrack = load_package()
    workload = WORKLOADS[args.workload]
    seed0 = 1000 * args.seed
    env = environment(args, seed0)

    if args.trace:
        spec = smtrack.scenario(workload.scenario)
        metrics, checks, attempted, failed = measure_traced(
            smtrack, workload, spec, seed0, args.seconds, args.steps)
        units = LAYER_UNITS
        passed = (checks["records_equal"] and checks["counts_repeat"]
                  and checks["originals_restored"])
        env["loadavg_end"] = os.getloadavg()
        print("env " + json.dumps(env))
        print("checks " + json.dumps(checks))
        print(f"per-layer metrics, {args.workload} (traced run):")
    else:
        setup_s, setup_wall = setup_seconds(workload)
        spec = smtrack.scenario(workload.scenario)
        e2e, info, attempted, failed = measure(
            smtrack, workload, spec, seed0, args.seconds, args.steps)
        metrics = {"setup_s": setup_s, **e2e}
        info["wall"]["setup_s"] = setup_wall
        units = END_TO_END_UNITS
        passed = True
        env["loadavg_end"] = os.getloadavg()
        print("env " + json.dumps(env))
        print("runs " + json.dumps(info))
        print(f"end-to-end metrics, {args.workload} (closed loop, 1 caller, "
              f"{args.seconds:g} s):")
        print(f"  {'failed_frac':32s} {info['failed_frac']:14.6g} frac")
        print(f"  (step_ms_tail is the p{info['tail_percentile']:.1f} of "
              f"{info['runs']} runs)")
        if workload.scenario == "sim1":
            for label, (value, budget) in projections(
                    spec, info["step_ms_p50_by_mode"]).items():
                verdict = "within" if value <= budget else "over"
                print(f"  projection {label}: {value:.1f} s at nominal host "
                      f"speed, {verdict} budget {budget:.0f} s")

    result = emit(metrics, units)
    correct = passed and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
