"""One set-up measurement, run in a fresh interpreter by ``run.py``.

Usage: ``python3 setup_probe.py SRC_DIR SCENARIO MODE [MODE ...]``

Times importing ``smtrack`` from ``SRC_DIR``, building the scenario and one
warm-up step in each mode. Prints the elapsed seconds and the factor that
scales them to the nominal host speed, from reference passes timed after.
"""

import statistics
import sys
import time

GAUGE_PASSES = 3


def main(argv):
    src, scenario, modes = argv[0], argv[1], argv[2:]
    start = time.perf_counter()
    sys.path.insert(0, src)
    import smtrack

    spec = smtrack.scenario(scenario)
    for mode in modes:
        record = smtrack.run(spec, mode, seed=0, steps=1)
        if record.aborted:
            raise SystemExit(f"warm-up step aborted: {record.diagnostic}")
    elapsed = time.perf_counter() - start

    from hostspeed import NOMINAL_S, HostGauge

    gauge = HostGauge()
    reference = statistics.median(gauge.seconds() for _ in range(GAUGE_PASSES))
    print(repr(elapsed), repr(NOMINAL_S / reference))


if __name__ == "__main__":
    main(sys.argv[1:])
