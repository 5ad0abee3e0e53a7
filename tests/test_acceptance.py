"""Acceptance gate: eleven go/no-go checks at their stated tolerances.

Each test prints one summary line with the measured quantities so a plain
``pytest -v`` run reads as a checklist. Expensive artifacts (seed sweeps,
Monte Carlo reports) are shared module-scope fixtures; their wall time is
charged to the criterion that owns the budget.
"""

import time

import numpy as np
import pytest

from smtrack import checks
from smtrack.active import build_info_quadratic, solve_active
from smtrack.ellipsoid import Ellipsoid
from smtrack.estimator import ParameterBelief, build_state_observation
from smtrack.experiments import monte_carlo, run, scenario
from smtrack.model import UncertainModel
from smtrack.robust import solve_robust

import oracles


N_SEED_RUNS = 50
MEDIAN_SEEDS = 20


@pytest.fixture(scope="module")
def runs50():
    """Fifty seeded sim1 runs in learn and active mode, full horizon."""
    spec = scenario("sim1")
    t0 = time.perf_counter()
    records = {
        mode: [run(spec, mode, seed) for seed in range(N_SEED_RUNS)]
        for mode in ("learn", "active")
    }
    elapsed = time.perf_counter() - t0
    return {"records": records, "elapsed": elapsed}


@pytest.fixture(scope="module")
def mc_sim1():
    t0 = time.perf_counter()
    report = monte_carlo(scenario("sim1"), modes=("fixed", "learn", "active"),
                         n_runs=100, seed0=0)
    return {"report": report, "elapsed": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def mc_sim2():
    t0 = time.perf_counter()
    report = monte_carlo(scenario("sim2"), modes=("fixed", "learn", "active"),
                         n_runs=100, seed0=0)
    return {"report": report, "elapsed": time.perf_counter() - t0}


def test_criterion_01_discretization_golden():
    # The tabulated sim3 plant is documented (sim3_continuous, _sim3, README)
    # as the dt = 0.1 forward-Euler discretization of the continuous aircraft
    # model: A = I + dt Ac, B = dt Bc. zoh_discretize is checked separately
    # against expm and a series oracle in tests/test_model.py. `smtrack
    # validate` reads the same deviation.
    t0 = time.perf_counter()
    dev_a, dev_b = checks.discretization_deviation()
    elapsed = time.perf_counter() - t0
    dev = max(dev_a, dev_b)
    status = "PASS" if dev <= 1e-3 else "FAIL"
    print(f"criterion 1: max deviation {dev:.3g} (A {dev_a:.3g}, B {dev_b:.3g}), "
          f"elapsed {elapsed:.2f}s -> {status}")
    assert elapsed < 1.0
    assert dev <= 1e-3, (
        f"one forward-Euler step of the continuous sim3 model deviates from "
        f"the tabulated matrices by {dev:.3g} (> 1e-3)"
    )


def test_criterion_02_containment_guarantee(runs50):
    records = runs50["records"]
    elapsed = runs50["elapsed"]
    violations = 0
    aborted = 0
    for mode in ("learn", "active"):
        for rec in records[mode]:
            aborted += int(rec.aborted)
            violations += int(rec.steps) - int(rec.contains_true.sum())
    print(f"criterion 2: {violations} containment violations, {aborted} aborts "
          f"across {2 * N_SEED_RUNS} runs, elapsed {elapsed:.1f}s -> "
          f"{'PASS' if violations == 0 and aborted == 0 and elapsed < 30 else 'FAIL'}")
    assert aborted == 0
    assert violations == 0
    assert elapsed < 30.0


def test_criterion_03_volume_monotonicity(runs50):
    worst = -np.inf
    initial = np.log(7.0)
    for mode in ("learn", "active"):
        for rec in runs50["records"][mode]:
            series = np.concatenate([[initial], rec.log_det_p])
            worst = max(worst, float(np.diff(series).max()))
    print(f"criterion 3: largest log-volume increase {worst:.3g} "
          f"-> {'PASS' if worst <= 1e-9 else 'FAIL'}")
    assert worst <= 1e-9


def test_criterion_04_learning_acceleration(runs50):
    threshold = 0.05 * 6.0
    firsts = {}
    for mode in ("learn", "active"):
        vals = []
        for rec in runs50["records"][mode][:MEDIAN_SEEDS]:
            hits = np.nonzero(rec.trace_p < threshold)[0]
            vals.append(float(hits[0] + 1) if hits.size else np.inf)
        firsts[mode] = float(np.median(vals))
    ok = firsts["active"] < firsts["learn"] and firsts["active"] <= 8.0
    print(f"criterion 4: median first step below 5% trace: "
          f"active {firsts['active']:.1f} vs learn {firsts['learn']:.1f} "
          f"-> {'PASS' if ok else 'FAIL'}")
    assert firsts["active"] < firsts["learn"]
    assert firsts["active"] <= 8.0


def test_criterion_05_sim1_converged_error_ordering(mc_sim1):
    report = mc_sim1["report"]
    elapsed = mc_sim1["elapsed"]
    e_fixed = report.e_bar["fixed"][45]
    e_learn = report.e_bar["learn"][45]
    e_active = report.e_bar["active"][45]
    ratio = e_fixed / e_learn
    spread = abs(e_learn - e_active) / e_active
    ok = 1.8 <= ratio <= 4.5 and spread <= 0.15 and elapsed < 300
    print(f"criterion 5: T=45 e_fixed/e_learn {ratio:.3f} "
          f"(band [1.8, 4.5]), |e_learn-e_active|/e_active {spread:.3f} "
          f"(<= 0.15), elapsed {elapsed:.0f}s -> {'PASS' if ok else 'FAIL'}")
    assert 1.8 <= ratio <= 4.5
    assert spread <= 0.15
    assert elapsed < 300.0


def test_criterion_06_sim2_mid_horizon_ordering(mc_sim2):
    # Known to fail on this sim2: every causal controller has a T=10 error of
    # at least 0.505 (README, "Testing"), so r_learn >= 1.5 needs
    # e_learn >= 0.758, and plain learning does better than that.
    report = mc_sim2["report"]
    elapsed = mc_sim2["elapsed"]
    e_fixed = report.e_bar["fixed"][10]
    e_learn = report.e_bar["learn"][10]
    e_active = report.e_bar["active"][10]
    r_fixed = e_fixed / e_active
    r_learn = e_learn / e_active
    ok = r_fixed >= 2.0 and r_learn >= 1.5 and elapsed < 600
    print(f"criterion 6: T=10 e_fixed/e_active {r_fixed:.3f} (>= 2.0), "
          f"e_learn/e_active {r_learn:.3f} (>= 1.5), elapsed {elapsed:.0f}s "
          f"-> {'PASS' if ok else 'FAIL'}")
    assert r_fixed >= 2.0
    assert r_learn >= 1.5
    assert elapsed < 600.0


def test_criterion_07_startup_exploration_cost(mc_sim1):
    report = mc_sim1["report"]
    e_learn = report.e_bar["learn"][2]
    e_active = report.e_bar["active"][2]
    ok = e_active > e_learn
    print(f"criterion 7: T=2 e_active {e_active:.4f} vs e_learn {e_learn:.4f} "
          f"-> {'PASS' if ok else 'FAIL'}")
    assert e_active > e_learn


def test_criterion_08_socp_oracle_equivalence():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        instance, belief, bounds = oracles.random_tracking_case(rng)
        sol = solve_robust(instance, belief, bounds)
        _, grid_best = oracles.grid_min_robust(instance, belief, bounds)
        worst = max(worst, abs(sol.objective - grid_best))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-3 and elapsed < 60
    print(f"criterion 8: worst solver-vs-grid gap {worst:.2e} (<= 1e-3), "
          f"elapsed {elapsed:.1f}s -> {'PASS' if ok else 'FAIL'}")
    assert worst <= 1e-3
    assert elapsed < 60.0


def test_criterion_09_qcqp_oracle_equivalence():
    rng = np.random.default_rng(4048)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        info, region, bounds = oracles.random_active_case(rng)
        u = solve_active(info, region, bounds)
        _, grid_best = oracles.active_grid_max(info, region, bounds)
        worst = max(worst, abs(info.value(u) - grid_best))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and elapsed < 60
    print(f"criterion 9: worst solver-vs-grid gap {worst:.2e} (<= 1e-4), "
          f"elapsed {elapsed:.1f}s -> {'PASS' if ok else 'FAIL'}")
    assert worst <= 1e-4
    assert elapsed < 60.0


def test_criterion_10_trace_identity():
    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 3))
        r = int(rng.integers(0, 3))
        s = int(rng.integers(1, 3)) if r == 0 else int(rng.integers(0, 3))
        model = UncertainModel(
            a0=rng.normal(size=(n, n)),
            a_perturbations=tuple(rng.normal(size=(n, n)) for _ in range(r)),
            b0=rng.normal(size=(n, m)),
            b_perturbations=tuple(rng.normal(size=(n, m)) for _ in range(s)),
            c=rng.normal(size=(1, n)),
            r_shape=np.eye(n),
        )
        p = r + s
        belief = ParameterBelief(
            Ellipsoid(rng.normal(size=p), checks.random_spd(rng, p, 0.1)))
        x = rng.normal(size=n)
        u = rng.normal(size=m)
        info = build_info_quadratic(model, belief, x)
        phi = build_state_observation(model, x, u, np.zeros(n)).phi
        direct = float(np.trace(phi @ belief.shape @ phi.T))
        worst = max(worst, abs(info.value(u) - direct))
    print(f"criterion 10: worst identity residual {worst:.2e} (<= 1e-10) "
          f"-> {'PASS' if worst <= 1e-10 else 'FAIL'}")
    assert worst <= 1e-10


def test_criterion_11_property_suites():
    rng = np.random.default_rng(11)
    t0 = time.perf_counter()
    results = checks.run_all(rng)
    elapsed = time.perf_counter() - t0
    failures = {k: v for k, v in results.items() if v}
    ok = not failures and elapsed < 30
    print(f"criterion 11: {len(results)} suites, "
          f"{sum(len(v) for v in results.values())} violations, "
          f"elapsed {elapsed:.1f}s -> {'PASS' if ok else 'FAIL'}")
    assert failures == {}
    assert elapsed < 30.0
