"""Print a digest of every closed-loop run and every robust solve in it.

For sim1-sim3, every mode of ``experiments.MODES`` and seeds 0-4, one line
per scenario and mode gives the number of robust solves, their total Newton
iterations, the number of belief updates that shrank the set (``rho > 0``)
and of updates that were skipped, and two sha256 digests: one over every
``RunRecord`` field and one over every solve's ``u``, ``z``, objective,
status and iterations. Two checkouts that print the same first digest ran
the same closed loops bit for bit, even where a change moves only the
solves' ``z`` at rounding; the same second digest means every solve
returned the same bits too. Where a change moves the estimator's sets at
rounding, both digests of ``learn`` and ``active`` move, and equal shrink
and skip counts show that every update still made the same decision::

    python tests/digest.py > after.txt
    python ../parent/tests/digest.py > before.txt
    diff before.txt after.txt

The script puts its own checkout's ``src`` first on the import path, so
each run digests the code beside it. pytest does not collect it;
``test_experiments.py::TestDigest`` runs it on one seed.
"""

import hashlib
import os
import struct
import sys
from dataclasses import fields

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

import numpy as np  # noqa: E402

from smtrack import experiments, robust  # noqa: E402

SCENARIOS = ("sim1", "sim2", "sim3")
SEEDS = range(5)


def _feed(h, value):
    """Hash ``value`` with its type, shape and exact bits."""
    if isinstance(value, np.ndarray):
        h.update(f"{value.dtype.str}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, float):
        h.update(b"f" + struct.pack("<d", value))
    else:
        h.update(repr(value).encode())


def digest(name, mode):
    """``(solves, newton_iterations, shrinks, skips, runs_sha256,
    solves_sha256)`` of one scenario and mode."""
    runs, sols = hashlib.sha256(), hashlib.sha256()
    solves, iterations = [0], [0]
    shrinks = skips = 0
    solve = robust.solve_robust

    def recording(instance, belief, bounds):
        sol = solve(instance, belief, bounds)
        solves[0] += 1
        iterations[0] += sol.newton_iterations
        for value in (sol.u, sol.z, float(sol.objective), sol.status,
                      sol.newton_iterations):
            _feed(sols, value)
        return sol

    # known_theta reaches the solver through robust.solve_known_theta.
    experiments.solve_robust = robust.solve_robust = recording
    try:
        for seed in SEEDS:
            record = experiments.run(experiments.scenario(name), mode, seed)
            shrinks += int(np.count_nonzero(record.rho > 0.0))
            skips += int(np.count_nonzero(record.skipped))
            for field in fields(record):
                runs.update(field.name.encode())
                _feed(runs, getattr(record, field.name))
    finally:
        experiments.solve_robust = robust.solve_robust = solve
    return (solves[0], iterations[0], shrinks, skips, runs.hexdigest(),
            sols.hexdigest())


def main():
    for name in SCENARIOS:
        for mode in experiments.MODES:
            solves, iterations, shrinks, skips, runs, sols = digest(name, mode)
            print(f"{name} {mode:<11} solves {solves:5d} "
                  f"newton {iterations:6d} shrinks {shrinks:4d} "
                  f"skips {skips:4d} runs {runs} solves {sols}")


if __name__ == "__main__":
    main()
