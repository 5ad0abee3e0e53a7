"""Command line front end: single runs, seed sweeps, and self-checks.

``smtrack simulate`` replays one closed-loop run and writes a per-step CSV,
``smtrack montecarlo`` averages windowed errors over a block of seeds, and
``smtrack validate`` runs a fast battery of internal consistency checks,
exiting nonzero if any fails.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import experiments, svgplot
from .active import build_info_quadratic
from .ellipsoid import Ellipsoid, InconsistentSetsError, intersection_bound, \
    minkowski_sum_bound, optimal_rho
from .estimator import ParameterBelief, build_state_observation, update
from .robust import build_instance, solve_robust

__all__ = ["main"]


def _load_spec(args) -> experiments.ScenarioSpec:
    if getattr(args, "config", None):
        return experiments.load_scenario(args.config)
    return experiments.scenario(args.scenario)


def _add_spec_args(p):
    p.add_argument("--scenario", default="sim1",
                   choices=experiments.scenario_names(),
                   help="built-in study to run (default: sim1)")
    p.add_argument("--config", default=None, metavar="JSON",
                   help="scenario description file, overrides --scenario")
    p.add_argument("--steps", type=int, default=None,
                   help="override the scenario horizon")


def _cmd_simulate(args) -> int:
    spec = _load_spec(args)
    record = experiments.run(spec, args.mode, args.seed, steps=args.steps)
    if args.out:
        experiments.write_run_csv(record, args.out)
    if args.plot:
        svgplot.plot_run(record, args.plot)
    print(f"{record.scenario} mode={record.mode} seed={record.seed} "
          f"steps={record.steps}")
    if record.aborted:
        print(f"aborted: {record.diagnostic}")
        return 1
    final_err = record.abs_err[-1]
    print(f"final |error|={final_err:.6g} trace(P)={record.trace_p[-1]:.6g} "
          f"contains_true={bool(record.contains_true[-1])}")
    for t in spec.t_windows:
        if t <= record.steps:
            print(f"  window T={t}: mean error {experiments.window_error(record, t):.6g}")
    return 0


def _cmd_montecarlo(args) -> int:
    spec = _load_spec(args)
    modes = tuple(s.strip() for s in args.modes.split(",") if s.strip())
    t_windows = None
    if args.t_windows:
        t_windows = tuple(int(s) for s in args.t_windows.split(","))
    report = experiments.monte_carlo(
        spec, modes=modes, n_runs=args.runs, seed0=args.seed0,
        jobs=args.jobs, t_windows=t_windows, steps=args.steps)
    if args.out:
        experiments.write_report_csv(report, args.out)
    if args.cost_out:
        experiments.write_cost_csv(report, args.cost_out)
    if args.plot:
        svgplot.plot_cost(report, args.plot)
    print(f"{report.scenario} runs={report.n_runs} seed0={report.seed0} "
          f"modes={','.join(report.modes)}")
    for mode in report.modes:
        if report.excluded[mode]:
            print(f"  excluded {report.excluded[mode]} aborted {mode} runs")
    if report.exclusion_flagged:
        print("  WARNING: more than 5% of runs excluded in some mode")
    header = "T".rjust(5) + "".join(m.rjust(14) for m in report.modes)
    print(header)
    for t in report.t_windows:
        row = str(t).rjust(5)
        row += "".join(f"{report.e_bar[m][t]:14.6g}" for m in report.modes)
        print(row)
    for name, vals in report.ratios.items():
        pretty = " ".join(f"T={t}:{v:.3g}" for t, v in vals.items())
        print(f"  ratio {name}: {pretty}")
    return 0


# ---------------------------------------------------------------------------
# validate: fast internal consistency battery.
# ---------------------------------------------------------------------------

def _check_fusion_containment(rng) -> str:
    for _ in range(40):
        n = int(rng.integers(1, 4))
        pa = _random_spd(rng, n)
        pb = _random_spd(rng, n)
        point = rng.normal(size=n)
        a = point + _shrunk_offset(rng, pa)
        b = point + _shrunk_offset(rng, pb)
        ea, eb = Ellipsoid(a, pa), Ellipsoid(b, pb)
        rho = optimal_rho(ea, eb)
        fused, beta = intersection_bound(ea, eb, rho)
        if beta <= 0 or not fused.contains(point, 1e-7):
            return "certified common point escaped the fused set"
    return ""


def _check_sum_containment(rng) -> str:
    for _ in range(40):
        n = int(rng.integers(1, 4))
        ea = Ellipsoid(rng.normal(size=n), _random_spd(rng, n))
        eb = Ellipsoid(rng.normal(size=n), _random_spd(rng, n))
        outer = minkowski_sum_bound(ea, eb)
        s = ea.sample_interior(rng) + eb.sample_interior(rng)
        if not outer.contains(s, 1e-7):
            return "sampled sum point escaped the outer bound"
    return ""


def _check_estimator(rng) -> str:
    spec = experiments.scenario("sim1")
    model = spec.model
    belief = ParameterBelief(spec.belief0)
    x = spec.x0.copy()
    prev = belief.set.log_det
    for _ in range(12):
        u = rng.uniform(-5.0, 5.0, size=model.m)
        omega = model.disturbance_set().sample_interior(rng)
        x_next, _ = model.step(x, u, spec.theta_true, omega)
        belief = update(belief, build_state_observation(model, x, u, x_next))
        if not belief.set.contains(spec.theta_true, 1e-7):
            return "true parameter escaped the belief"
        if belief.set.log_det > prev + 1e-9:
            return "belief volume grew"
        prev = belief.set.log_det
        x = x_next
    return ""


def _check_robust_bound(rng) -> str:
    spec = experiments.scenario("sim1")
    model = spec.model
    belief = ParameterBelief(spec.belief0)
    x = spec.x0.copy()
    instance = build_instance(model, x, spec.reference.value(2))
    sol = solve_robust(instance, belief, spec.bounds)
    if sol.status != "optimal":
        return f"solver status {sol.status}"
    for _ in range(200):
        theta = belief.set.sample_interior(rng)
        omega = model.disturbance_set().sample_interior(rng)
        x_next, y_next = model.step(x, sol.u, theta, omega)
        err = np.abs(y_next - spec.reference.value(2))
        if np.any(err > sol.z + 1e-6):
            return "sampled error exceeded the certified bound"
    return ""


def _check_active_identity(rng) -> str:
    spec = experiments.scenario("sim2")
    model = spec.model
    belief = ParameterBelief(spec.belief0)
    x = rng.normal(size=model.n)
    info = build_info_quadratic(model, belief, x, output_map="state")
    for _ in range(25):
        u = rng.normal(size=model.m)
        phi = model.state.phi(x, u)
        direct = float(np.trace(phi @ belief.shape @ phi.T))
        if abs(info.value(u) - direct) > 1e-8 * (1.0 + abs(direct)):
            return "information quadratic disagrees with direct evaluation"
    return ""


def _check_discretization() -> str:
    # The sim3 tables are one forward-Euler step of the continuous model.
    ac, bc, dt = experiments.sim3_continuous()
    spec = experiments.scenario("sim3")
    ad = np.eye(ac.shape[0]) + dt * ac
    bd = dt * bc
    dev = max(np.max(np.abs(ad - spec.model.a0)),
              np.max(np.abs(bd - spec.model.b0)))
    if dev > 1e-3:
        return (f"forward Euler of the continuous model deviates from the "
                f"tabulated matrices by {dev:.3g}")
    return ""


def _random_spd(rng, n):
    m = rng.normal(size=(n, n))
    return m @ m.T + 0.3 * np.eye(n)


def _shrunk_offset(rng, shape):
    # A point strictly inside E(shape, 0).
    e = Ellipsoid(np.zeros(shape.shape[0]), shape)
    return 0.9 * e.sample_interior(rng)


def _cmd_validate(args) -> int:
    rng = np.random.default_rng(args.seed)
    checks = [
        ("fusion-containment", lambda: _check_fusion_containment(rng)),
        ("sum-containment", lambda: _check_sum_containment(rng)),
        ("estimator-contraction", lambda: _check_estimator(rng)),
        ("robust-worst-case", lambda: _check_robust_bound(rng)),
        ("information-identity", lambda: _check_active_identity(rng)),
        ("discretization-consistency", _check_discretization),
    ]
    failures = 0
    for name, fn in checks:
        try:
            msg = fn()
        except InconsistentSetsError as exc:
            msg = f"unexpected inconsistency: {exc}"
        except Exception as exc:  # noqa: BLE001 - report, keep checking
            msg = f"{type(exc).__name__}: {exc}"
        if msg:
            failures += 1
            print(f"FAIL {name}: {msg}")
        else:
            print(f"PASS {name}")
    print(f"{len(checks) - failures}/{len(checks)} checks passed")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="smtrack",
        description="Set-membership adaptive robust tracking control.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one closed-loop simulation")
    _add_spec_args(p_sim)
    p_sim.add_argument("--mode", default="learn", choices=experiments.MODES)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", default=None, metavar="CSV")
    p_sim.add_argument("--plot", default=None, metavar="SVG")
    p_sim.set_defaults(func=_cmd_simulate)

    p_mc = sub.add_parser("montecarlo", help="average errors over many seeds")
    _add_spec_args(p_mc)
    p_mc.add_argument("--modes", default="fixed,learn,active",
                      help="comma-separated list of modes")
    p_mc.add_argument("--runs", "-M", type=int, default=100)
    p_mc.add_argument("--seed0", type=int, default=0)
    p_mc.add_argument("--jobs", type=int, default=1)
    p_mc.add_argument("--t-windows", default=None,
                      help="comma-separated error windows, e.g. 10,25,45")
    p_mc.add_argument("--out", default=None, metavar="CSV")
    p_mc.add_argument("--cost-out", default=None, metavar="CSV")
    p_mc.add_argument("--plot", default=None, metavar="SVG")
    p_mc.set_defaults(func=_cmd_montecarlo)

    p_val = sub.add_parser("validate", help="run internal consistency checks")
    p_val.add_argument("--seed", type=int, default=0)
    p_val.set_defaults(func=_cmd_validate)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
