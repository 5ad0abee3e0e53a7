"""Command line front end: single runs, seed sweeps, and self-checks.

``smtrack simulate`` replays one closed-loop run and writes a per-step CSV,
``smtrack montecarlo`` averages windowed errors over a block of seeds, and
``smtrack validate`` runs the consistency checks of :data:`checks.VALIDATE`,
exiting nonzero if any fails.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import checks, experiments, svgplot
from .ellipsoid import InconsistentSetsError

__all__ = ["main"]


def _int_at_least(text: str, low: int, kind: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < low:
        raise argparse.ArgumentTypeError(f"expected a {kind} integer, got {text}")
    return value


def _positive_int(text: str) -> int:
    return _int_at_least(text, 1, "positive")


def _nonnegative_int(text: str) -> int:
    return _int_at_least(text, 0, "non-negative")


def _windows(text: str) -> tuple:
    return tuple(_positive_int(s) for s in text.split(","))


def _modes(text: str) -> tuple:
    modes = tuple(s.strip() for s in text.split(",") if s.strip())
    if not modes or not set(modes) <= set(experiments.MODES):
        raise argparse.ArgumentTypeError(
            f"expected modes among {', '.join(experiments.MODES)}, got {text!r}")
    return modes


def _scenario_file(path: str) -> experiments.ScenarioSpec:
    try:
        return experiments.load_scenario(path)
    except (OSError, ValueError, KeyError) as exc:
        raise argparse.ArgumentTypeError(
            f"cannot load scenario {path}: {type(exc).__name__}: {exc}") from exc


def _load_spec(args) -> experiments.ScenarioSpec:
    return args.config or experiments.scenario(args.scenario)


def _add_spec_args(p):
    p.add_argument("--scenario", default="sim1",
                   choices=experiments.scenario_names(),
                   help="built-in study to run (default: sim1)")
    p.add_argument("--config", type=_scenario_file, default=None, metavar="JSON",
                   help="scenario description file, overrides --scenario")
    p.add_argument("--steps", type=_positive_int, default=None,
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
    horizon = args.steps or spec.horizon
    for t in args.t_windows or ():
        if t > horizon:
            args.error(f"window {t} outside the {horizon}-step horizon")
    report = experiments.monte_carlo(
        spec, modes=args.modes, n_runs=args.runs, seed0=args.seed0,
        jobs=args.jobs, t_windows=args.t_windows, steps=args.steps)
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


def _cmd_validate(args) -> int:
    rng = np.random.default_rng(args.seed)
    failures = 0
    for name, fn in checks.VALIDATE:
        try:
            msg = "; ".join(fn(rng))
        except InconsistentSetsError as exc:
            msg = f"unexpected inconsistency: {exc}"
        except Exception as exc:  # noqa: BLE001 - report, keep checking
            msg = f"{type(exc).__name__}: {exc}"
        if msg:
            failures += 1
            print(f"FAIL {name}: {msg}")
        else:
            print(f"PASS {name}")
    n = len(checks.VALIDATE)
    print(f"{n - failures}/{n} checks passed")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="smtrack",
        description="Set-membership adaptive robust tracking control.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one closed-loop simulation")
    _add_spec_args(p_sim)
    p_sim.add_argument("--mode", default="learn", choices=experiments.MODES)
    p_sim.add_argument("--seed", type=_nonnegative_int, default=0)
    p_sim.add_argument("--out", default=None, metavar="CSV")
    p_sim.add_argument("--plot", default=None, metavar="SVG")
    p_sim.set_defaults(func=_cmd_simulate)

    p_mc = sub.add_parser("montecarlo", help="average errors over many seeds")
    _add_spec_args(p_mc)
    p_mc.add_argument("--modes", type=_modes, default=("fixed", "learn", "active"),
                      help="comma-separated list of modes")
    p_mc.add_argument("--runs", "-M", type=_positive_int, default=100)
    p_mc.add_argument("--seed0", type=_nonnegative_int, default=0)
    p_mc.add_argument("--jobs", type=_positive_int, default=1)
    p_mc.add_argument("--t-windows", type=_windows, default=None,
                      help="comma-separated error windows, e.g. 10,25,45")
    p_mc.add_argument("--out", default=None, metavar="CSV")
    p_mc.add_argument("--cost-out", default=None, metavar="CSV")
    p_mc.add_argument("--plot", default=None, metavar="SVG")
    p_mc.set_defaults(func=_cmd_montecarlo, error=p_mc.error)

    p_val = sub.add_parser("validate", help="run internal consistency checks")
    p_val.add_argument("--seed", type=_nonnegative_int, default=0)
    p_val.set_defaults(func=_cmd_validate)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
