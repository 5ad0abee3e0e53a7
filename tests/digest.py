"""Print a digest of every closed-loop run and every robust solve in it.

For sim1-sim3, every mode of ``experiments.MODES`` and seeds 0-4, one line
per scenario and mode gives the number of robust solves, their total Newton
iterations, the number of belief updates that shrank the set (``rho > 0``),
of updates that were skipped, of runs that aborted and of program
geometries built (``robust._Geometry``), and two sha256 digests: one over
every ``RunRecord`` field and one over every solve's ``u``, ``z``,
objective, status and iterations. Two checkouts that print the same first
digest ran the same closed loops bit for bit, even where a change moves
only the solves' ``z`` at rounding; the same second digest means every
solve returned the same bits too. The runs of a line share one scenario and
start with nothing held (``ellipsoid._held``), so the build count shows
whether a held geometry is still reused, which bit identity cannot show: a
belief that never changes, as in ``fixed`` mode, is built once for all the
solves of its line. Where a change moves the estimator's sets at rounding,
both digests of ``learn`` and ``active`` move, and equal shrink and skip
counts show that every update still made the same decision::

    python tests/digest.py > after.txt
    python ../parent/tests/digest.py > before.txt
    diff before.txt after.txt

A last line digests the log-barrier fallback, which no shipped program
reaches: it replays the barrier on every robust solve of sim1-sim3 in every
mode for seeds 0-1, and on 300 random programs of
``oracles.random_tracking_case`` (seed 2024), and gives the number of
programs, their total Newton iterations and a sha256 over every replay's
``u``, ``z``, status and iterations. The same line on two checkouts means
the barrier returned the same bits on every one of those programs.

Where a change moves the closed loops at rounding, two options measure by
how much. ``--save FILE.npz`` also writes every run's arrays, as plain
arrays keyed ``scenario/mode/seed/field``. ``--compare FILE.npz`` prints
under each scenario and mode line the largest drift of ``u``, ``x``, the
belief shapes and centers, ``log_det_p``, ``trace_p`` and ``rho`` from the
saved runs, over its seeds, each relative to the saved run's largest
finite entry (``inf`` where a non-finite entry or a shape differs). It
then says whether every ``rho > 0``, ``skipped``, ``contains_true`` and
``aborted`` flag matches, or names those that do not::

    python ../parent/tests/digest.py --save before.npz
    python tests/digest.py --compare before.npz

The script puts its own checkout's ``src`` first on the import path, so
each run digests the code beside it. pytest does not collect it;
``test_experiments.py::TestDigest`` runs it on one seed.
"""

import argparse
import hashlib
import math
import os
import struct
import sys
from dataclasses import fields

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

import numpy as np  # noqa: E402

from smtrack import ellipsoid, experiments, robust  # noqa: E402

import oracles  # noqa: E402

SCENARIOS = ("sim1", "sim2", "sim3")
SEEDS = range(5)
BARRIER_SEEDS = range(2)
RANDOM_PROGRAMS = 300

# The ``RunRecord`` arrays whose drift ``--compare`` prints, by label.
DRIFTS = {"u": "u", "x": "x", "shapes": "belief_shapes",
          "centers": "belief_centers", "log_det_p": "log_det_p",
          "trace_p": "trace_p", "rho": "rho"}
FLAGS = ("rho > 0", "skipped", "contains_true", "aborted")


def _feed(h, value):
    """Hash ``value`` with its type, shape and exact bits."""
    if isinstance(value, np.ndarray):
        h.update(f"{value.dtype.str}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, float):
        h.update(b"f" + struct.pack("<d", value))
    else:
        h.update(repr(value).encode())


def digest(name, mode, records=None):
    """``(solves, newton_iterations, shrinks, skips, aborted, builds,
    runs_sha256, solves_sha256)`` of one scenario and mode.

    Each run's ``RunRecord`` is appended to ``records`` when it is a list.
    """
    runs, sols = hashlib.sha256(), hashlib.sha256()
    solves, iterations, builds = [0], [0], [0]
    shrinks = skips = aborted = 0
    solve = robust.solve_robust
    build = robust._Geometry.__init__

    def counting(self, *args):
        builds[0] += 1
        build(self, *args)

    def recording(instance, belief, bounds):
        sol = solve(instance, belief, bounds)
        solves[0] += 1
        iterations[0] += sol.newton_iterations
        for value in (sol.u, sol.z, float(sol.objective), sol.status,
                      sol.newton_iterations):
            _feed(sols, value)
        return sol

    for held in ellipsoid._HELD:
        held.clear()
    spec = experiments.scenario(name)
    # known_theta reaches the solver through robust.solve_known_theta.
    experiments.solve_robust = robust.solve_robust = recording
    robust._Geometry.__init__ = counting
    try:
        for seed in SEEDS:
            record = experiments.run(spec, mode, seed)
            if records is not None:
                records.append(record)
            shrinks += int(np.count_nonzero(record.rho > 0.0))
            skips += int(np.count_nonzero(record.skipped))
            aborted += record.aborted
            for field in fields(record):
                runs.update(field.name.encode())
                _feed(runs, getattr(record, field.name))
    finally:
        experiments.solve_robust = robust.solve_robust = solve
        robust._Geometry.__init__ = build
    return (solves[0], iterations[0], shrinks, skips, aborted, builds[0],
            runs.hexdigest(), sols.hexdigest())


def barrier_programs():
    """``(instance, belief, bounds)`` of every robust solve of the closed
    loops of ``SCENARIOS``, every mode and ``BARRIER_SEEDS``, then of
    ``RANDOM_PROGRAMS`` random programs drawn from seed 2024."""
    programs = []
    solve = robust.solve_robust

    def recording(instance, belief, bounds):
        programs.append((instance, belief, bounds))
        return solve(instance, belief, bounds)

    experiments.solve_robust = robust.solve_robust = recording
    try:
        for name in SCENARIOS:
            for mode in experiments.MODES:
                for seed in BARRIER_SEEDS:
                    experiments.run(experiments.scenario(name), mode, seed)
    finally:
        experiments.solve_robust = robust.solve_robust = solve
    rng = np.random.default_rng(2024)
    programs += [oracles.random_tracking_case(rng)
                 for _ in range(RANDOM_PROGRAMS)]
    return programs


def barrier_digest():
    """``(programs, newton_iterations, sha256)`` of the barrier schedule
    replayed on every program of :func:`barrier_programs`, as
    ``solve_robust`` runs it on a program that does not split."""
    h = hashlib.sha256()
    programs = barrier_programs()
    iterations = 0
    for instance, belief, bounds in programs:
        geometry = robust._geometry(instance.gx.shape[1], belief.set, bounds,
                                    instance.b0, instance.b_stack,
                                    instance.q_shape)
        prog = robust._Barrier(geometry, instance)
        u, iters, status = robust._barrier_path(prog)
        u_full = geometry.u_fix.copy()
        u_full[geometry.free] = u
        iterations += iters
        for value in (u_full, np.array(prog.padded_z(u, 0.0)), status, iters):
            _feed(h, value)
    return len(programs), iterations, h.hexdigest()


def run_arrays(records):
    """The plain arrays of ``records`` that ``--save`` writes, keyed
    ``scenario/mode/seed/field``; ``rho > 0`` is read from ``rho``."""
    arrays = {}
    for record in records:
        key = f"{record.scenario}/{record.mode}/{record.seed}/"
        for field in (*DRIFTS.values(), "skipped", "contains_true"):
            arrays[key + field] = getattr(record, field)
        arrays[key + "aborted"] = np.array(record.aborted)
    return arrays


def relative_drift(new, old):
    """Largest ``|new - old|`` relative to ``old``'s largest finite entry.

    0 where every entry is equal, NaN to NaN included; ``inf`` where the
    shapes differ, a differing entry is not finite or ``old`` is all 0.
    """
    if new.shape != old.shape:
        return math.inf
    differ = ~((new == old) | (np.isnan(new) & np.isnan(old)))
    if not differ.any():
        return 0.0
    if not (np.isfinite(new[differ]).all() and np.isfinite(old[differ]).all()):
        return math.inf
    scale = np.abs(old[np.isfinite(old)]).max()
    return float(np.abs(new[differ] - old[differ]).max() / scale) if scale else math.inf


def drift(saved, arrays, line):
    """``({label: largest drift}, [flags that differ])`` of ``arrays`` from
    ``saved`` over every run of ``line`` (``scenario/mode``) that either
    holds; a run that only one holds differs in everything."""
    runs = sorted({key.rsplit("/", 1)[0] for key in (*saved, *arrays)
                   if key.startswith(line + "/")})
    largest = dict.fromkeys(DRIFTS, 0.0)
    differ = set()
    for run in runs:
        if run + "/u" not in saved or run + "/u" not in arrays:
            return dict.fromkeys(DRIFTS, math.inf), list(FLAGS)
        for label, field in DRIFTS.items():
            largest[label] = max(largest[label], relative_drift(
                arrays[f"{run}/{field}"], saved[f"{run}/{field}"]))
        for flag in FLAGS:
            field = flag.split()[0]  # "rho > 0" reads rho
            new, old = arrays[f"{run}/{field}"], saved[f"{run}/{field}"]
            if field == "rho":
                new, old = new > 0.0, old > 0.0
            if not np.array_equal(new, old):
                differ.add(flag)
    return largest, [flag for flag in FLAGS if flag in differ]


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Digest every closed-loop run and robust solve.")
    parser.add_argument("--save", metavar="FILE.npz",
                        help="also write every run's arrays to this file")
    parser.add_argument("--compare", metavar="FILE.npz",
                        help="print each line's drift from the saved runs")
    args = parser.parse_args(argv)
    saved = None
    if args.compare:
        with np.load(args.compare) as npz:
            saved = dict(npz)
    kept = {}
    for name in SCENARIOS:
        for mode in experiments.MODES:
            records = []
            (solves, iterations, shrinks, skips, aborted, builds, runs,
             sols) = digest(name, mode, records)
            print(f"{name} {mode:<11} solves {solves:5d} "
                  f"newton {iterations:6d} shrinks {shrinks:4d} "
                  f"skips {skips:4d} aborted {aborted:2d} builds {builds:4d} "
                  f"runs {runs} solves {sols}")
            arrays = run_arrays(records)
            kept.update(arrays)
            if saved is not None:
                largest, differ = drift(saved, arrays, f"{name}/{mode}")
                print("  drift " + " ".join(f"{label} {value:.1e}"
                                            for label, value in largest.items())
                      + (f" flags differ: {', '.join(differ)}" if differ
                         else " flags equal"))
    if args.save:
        np.savez(args.save, **kept)
    programs, iterations, barrier = barrier_digest()
    print(f"barrier replays {programs:5d} newton {iterations:6d} "
          f"sha256 {barrier}")


if __name__ == "__main__":
    main()
