"""A fixed reference computation that gauges the host's current speed.

On a shared machine the same code runs up to ~1.8x slower for tens of
seconds at a time. A reference pass timed next to each measured run slows
by the same factor, so a run's time scaled by ``NOMINAL_S / reference`` is
its time at the nominal host speed. The pass mixes small dense numpy calls
with plain Python arithmetic, like the package's hot paths, and never calls
the package, so no change to the package can move it.
"""

from time import perf_counter

import numpy as np

NOMINAL_S = 0.010      # one reference pass at the nominal host speed
PASS_ITERATIONS = 300


class HostGauge:
    """Times one reference pass; the operands are built once, seeded."""

    def __init__(self):
        rng = np.random.default_rng(20230807)
        self.systems = [rng.standard_normal((6, 6)) + 6.0 * np.eye(6)
                        for _ in range(8)]
        roots = [rng.standard_normal((3, 3)) for _ in range(8)]
        self.shapes = [r @ r.T for r in roots]
        self.rhs = rng.standard_normal(6)

    def seconds(self) -> float:
        """Wall time of one reference pass."""
        acc = 0.0
        b = self.rhs
        start = perf_counter()
        for i in range(PASS_ITERATIONS):
            a = self.systems[i % 8]
            x = np.linalg.solve(a, b)
            acc += float(x @ x)
            acc += float(np.linalg.eigh(self.shapes[i % 8])[0][0])
            acc += float(np.einsum("i,ij,j->", b, a, b))
            acc += sum(j * 0.5 for j in range(20))
        return perf_counter() - start
