"""Consistency checks shared by ``smtrack validate`` (:data:`VALIDATE`) and the
acceptance suite (:func:`run_all`). Each returns its failures; empty means pass.
"""

import numpy as np

from . import experiments
from .active import build_info_quadratic
from .ellipsoid import (Ellipsoid, InconsistentSetsError, intersection_bound,
                        minkowski_sum_bound, optimal_rho)
from .estimator import ParameterBelief, build_state_observation, update
from .robust import build_instance, solve_robust


def random_spd(rng, n, jitter=0.3):
    m = rng.normal(size=(n, n))
    return m @ m.T + jitter * np.eye(n)


def intersecting_pair(rng, n):
    """Two random ellipsoids sharing a certified interior point."""
    point = rng.normal(size=n)
    pa, pb = random_spd(rng, n), random_spd(rng, n)
    # Center each set so the common point sits strictly inside it.
    a = point - 0.9 * Ellipsoid(np.zeros(n), pa).sample_interior(rng)
    b = point - 0.9 * Ellipsoid(np.zeros(n), pb).sample_interior(rng)
    return Ellipsoid(a, pa), Ellipsoid(b, pb), point


def check_fusion_containment(rng, n_pairs=500, d_max=4, n_samples=20,
                             tol=1e-9):
    """Points of ea ∩ eb stay inside the fused set at the optimal rho."""
    failures = []
    for i in range(n_pairs):
        n = 1 + int(rng.integers(d_max))
        ea, eb, point = intersecting_pair(rng, n)
        try:
            rho = optimal_rho(ea, eb)
            fused, beta = intersection_bound(ea, eb, rho)
        except InconsistentSetsError as exc:
            failures.append(f"pair {i}: certified-intersecting sets "
                            f"reported disjoint ({exc})")
            continue
        if beta <= 0 or not fused.contains(point, tol):
            failures.append(f"pair {i}: certified common point escaped (beta {beta:.3g})")
        for _ in range(n_samples):
            x = ea.sample_interior(rng)
            if eb.contains(x) and not fused.contains(x, tol):
                failures.append(f"pair {i}: intersection sample escaped")
                break
    return failures


def check_sum_containment(rng, n_pairs=500, d_max=4, n_samples=20, tol=1e-9):
    """Sampled sums x_a + x_b stay inside the Minkowski outer bound."""
    failures = []
    for i in range(n_pairs):
        n = 1 + int(rng.integers(d_max))
        ea = Ellipsoid(rng.normal(size=n), random_spd(rng, n))
        eb = Ellipsoid(rng.normal(size=n), random_spd(rng, n))
        outer = minkowski_sum_bound(ea, eb)
        for _ in range(n_samples):
            s = ea.sample_interior(rng) + eb.sample_interior(rng)
            if not outer.contains(s, tol):
                failures.append(f"pair {i}: sum sample escaped the bound")
                break
    return failures


def check_support_consistency(rng, n_sets=10, n_inner=1000, n_boundary=100000):
    """Support values dominate every sample and are tight on the boundary."""
    failures = []
    for i in range(n_sets):
        n = 1 + int(rng.integers(3))
        e = Ellipsoid(rng.normal(size=n), random_spd(rng, n))
        eta = rng.normal(size=n)
        hi = e.support(eta, "max")
        lo = e.support(eta, "min")
        for _ in range(n_inner):
            v = float(eta @ e.sample_interior(rng))
            if v > hi + 1e-9 * (1.0 + abs(hi)) or v < lo - 1e-9 * (1.0 + abs(lo)):
                failures.append(f"set {i}: sampled point beat the support value")
                break
        g = rng.normal(size=(n_boundary, n))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        boundary = e.center[None, :] + g @ e.root.T
        reached = float((boundary @ eta).max())
        if hi - reached > 1e-3 * (1.0 + abs(hi)):
            failures.append(f"set {i}: support exceeds boundary max by "
                            f"{hi - reached:.3g}")
    return failures


def check_identity_fusion(rng, n_sets=50, tol=1e-9):
    """Fusing a set with itself reproduces it for any positive rho."""
    failures = []
    for i in range(n_sets):
        n = 1 + int(rng.integers(3))
        e = Ellipsoid(rng.normal(size=n), random_spd(rng, n))
        for rho in (0.1, 1.0, 10.0):
            fused, beta = intersection_bound(e, e, rho)
            dc = np.abs(fused.center - e.center).max()
            ds = np.abs(fused.shape - e.shape).max()
            scale = 1.0 + np.abs(e.shape).max()
            if dc > tol * scale or ds > tol * scale:
                failures.append(f"set {i}: self-fusion at rho={rho} drifted "
                                f"(center {dc:.2e}, shape {ds:.2e})")
    return failures


def check_optimal_rho_anchor(rng, n_pairs=200, slack=1e-9):
    """The chosen rho never produces a larger volume than keeping the prior."""
    failures = []
    for i in range(n_pairs):
        n = 1 + int(rng.integers(3))
        ea, eb, _ = intersecting_pair(rng, n)
        rho = optimal_rho(ea, eb)
        fused, _ = intersection_bound(ea, eb, rho)
        if fused.log_det > ea.log_det + slack:
            failures.append(f"pair {i}: rho={rho:.3g} grew the volume")
    return failures


def run_all(rng, scale=1.0):
    """Run every suite; sizes scaled by ``scale``. Returns {name: failures}."""
    k = lambda n: max(int(n * scale), 1)
    return {
        "fusion_containment": check_fusion_containment(rng, n_pairs=k(500)),
        "sum_containment": check_sum_containment(rng, n_pairs=k(500)),
        "support_consistency": check_support_consistency(
            rng, n_sets=k(10), n_inner=k(1000), n_boundary=k(100000)),
        "identity_fusion": check_identity_fusion(rng, n_sets=k(50)),
        "optimal_rho_anchor": check_optimal_rho_anchor(rng, n_pairs=k(200)),
    }


def check_estimator_contraction(rng):
    """On sim1 under random inputs the belief keeps theta and never grows."""
    spec = experiments.scenario("sim1")
    model, belief, x = spec.model, ParameterBelief(spec.belief0), spec.x0
    for _ in range(12):
        u = rng.uniform(-5.0, 5.0, size=model.m)
        omega = model.disturbance_set().sample_interior(rng)
        x_next, _ = model.step(x, u, spec.theta_true, omega)
        new = update(belief, build_state_observation(model, x, u, x_next))
        if not new.set.contains(spec.theta_true, 1e-7):
            return ["true parameter escaped the belief"]
        if new.set.log_det > belief.set.log_det + 1e-9:
            return ["belief volume grew"]
        belief, x = new, x_next
    return []


def check_robust_worst_case(rng):
    """Sampled plants never beat the certified error bound of a sim1 solve."""
    spec = experiments.scenario("sim1")
    model, belief = spec.model, ParameterBelief(spec.belief0)
    target = spec.reference.value(2)
    sol = solve_robust(build_instance(model, spec.x0, target), belief, spec.bounds)
    if sol.status != "optimal":
        return [f"solver status {sol.status}"]
    for _ in range(200):
        theta = belief.set.sample_interior(rng)
        omega = model.disturbance_set().sample_interior(rng)
        _, y_next = model.step(spec.x0, sol.u, theta, omega)
        if np.any(np.abs(y_next - target) > sol.z + 1e-6):
            return ["sampled error exceeded the certified bound"]
    return []


def check_information_identity(rng):
    """The exploration quadratic equals trace(phi P phi^T) on sim2."""
    spec = experiments.scenario("sim2")
    model, belief = spec.model, ParameterBelief(spec.belief0)
    x = rng.normal(size=model.n)
    info = build_info_quadratic(model, belief, x)
    for _ in range(25):
        u = rng.normal(size=model.m)
        phi = model.state.phi(x, u)
        direct = float(np.trace(phi @ belief.shape @ phi.T))
        if abs(info.value(u) - direct) > 1e-8 * (1.0 + abs(direct)):
            return ["information quadratic disagrees with direct evaluation"]
    return []


def discretization_deviation():
    """Largest entries of ``|I + dt Ac - A|`` and ``|dt Bc - B|`` for sim3."""
    ac, bc, dt = experiments.sim3_continuous()
    model = experiments.scenario("sim3").model
    return (float(np.abs(np.eye(ac.shape[0]) + dt * ac - model.a0).max()),
            float(np.abs(dt * bc - model.b0).max()))


def check_discretization(_rng):
    """The sim3 tables are one forward-Euler step of the continuous model."""
    dev = max(discretization_deviation())
    return [f"forward Euler of the continuous model deviates from the "
            f"tabulated matrices by {dev:.3g}"] if dev > 1e-3 else []


VALIDATE = (
    ("fusion-containment", lambda rng: check_fusion_containment(
        rng, n_pairs=40, d_max=3, n_samples=0, tol=1e-7)),
    ("sum-containment", lambda rng: check_sum_containment(
        rng, n_pairs=40, d_max=3, n_samples=1, tol=1e-7)),
    ("estimator-contraction", check_estimator_contraction),
    ("robust-worst-case", check_robust_worst_case),
    ("information-identity", check_information_identity),
    ("discretization-consistency", check_discretization),
)
