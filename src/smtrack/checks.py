"""Consistency checks shared by ``smtrack validate`` (:data:`VALIDATE`) and the
acceptance suite (:func:`run_all`). Each returns its failures; empty means pass.
"""

import numpy as np

from . import experiments
from .active import build_info_quadratic
from .ellipsoid import RHO_BRACKET, Ellipsoid, InconsistentSetsError, _Fusion
from .estimator import (Observation, ParameterBelief, build_state_observation,
                        update)
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


def intersect(ea, eb):
    """Outer bound of ``ea ∩ eb`` as a belief: ``ea`` updated by the set ``eb``."""
    return update(ParameterBelief(ea),
                  Observation(eb.center, np.eye(eb.dim), eb.shape))


def check_fusion_containment(rng, n_pairs=500, d_max=4, n_samples=20,
                             tol=1e-9):
    """Points of ea ∩ eb stay inside the fused set."""
    failures = []
    for i in range(n_pairs):
        n = 1 + int(rng.integers(d_max))
        ea, eb, point = intersecting_pair(rng, n)
        try:
            out = intersect(ea, eb)
        except InconsistentSetsError as exc:
            failures.append(f"pair {i}: certified-intersecting sets "
                            f"reported disjoint ({exc})")
            continue
        fused, beta = out.set, out.last_beta
        if beta <= 0 or not fused.contains(point, tol):
            failures.append(f"pair {i}: certified common point escaped (beta {beta:.3g})")
        for _ in range(n_samples):
            x = ea.sample_interior(rng)
            if eb.contains(x) and not fused.contains(x, tol):
                failures.append(f"pair {i}: intersection sample escaped")
                break
    return failures


def check_identity_fusion(rng, n_sets=50, tol=1e-9):
    """Fusing a set with itself reproduces it."""
    failures = []
    for i in range(n_sets):
        n = 1 + int(rng.integers(3))
        e = Ellipsoid(rng.normal(size=n), random_spd(rng, n))
        out = intersect(e, e)
        dc = np.abs(out.center - e.center).max()
        ds = np.abs(out.shape - e.shape).max()
        scale = 1.0 + np.abs(e.shape).max()
        if dc > tol * scale or ds > tol * scale:
            failures.append(f"set {i}: self-fusion at rho={out.last_rho:.3g} "
                            f"drifted (center {dc:.2e}, shape {ds:.2e})")
    return failures


def check_fusion_anchor(rng, n_pairs=200, slack=1e-9):
    """The fused set's volume is never larger than the first operand's."""
    failures = []
    for i in range(n_pairs):
        n = 1 + int(rng.integers(3))
        ea, eb, _ = intersecting_pair(rng, n)
        out = intersect(ea, eb)
        if out.set.log_det > ea.log_det + slack:
            failures.append(f"pair {i}: rho={out.last_rho:.3g} grew the volume")
    return failures


def random_fusion(rng, d_max=4):
    """A random consistent update ``(prior, obs)`` of dimension 1 to ``d_max``.

    The regressor has random rank, often deficient; one prior in four is
    singular; the noise shape is scaled over four decades, so the keep test
    goes both ways.
    """
    dim = 1 + int(rng.integers(d_max))
    rows = 1 + int(rng.integers(d_max))
    rank = 1 + int(rng.integers(min(rows, dim)))
    phi = rng.normal(size=(rows, rank)) @ rng.normal(size=(rank, dim))
    vals = rng.uniform(0.2, 3.0, size=dim)
    if rng.random() < 0.25:
        vals[rng.integers(dim)] = 0.0
    vecs = np.linalg.qr(rng.normal(size=(dim, dim)))[0]
    prior = Ellipsoid(rng.normal(size=dim), (vecs * vals) @ vecs.T)
    q = 10.0 ** rng.uniform(-2.0, 2.0) * random_spd(rng, rows)
    noise = Ellipsoid(np.zeros(rows), q).sample_interior(rng)
    return prior, Observation(phi @ prior.sample_interior(rng) + noise, phi, q)


# Where the keep-test check looks for a member smaller than the prior.
KEEP_GRID = np.geomspace(*RHO_BRACKET, 400)
SMALL_RHO = np.geomspace(1e-12, 1e-2, 50)


def _log_det_changes(fusion, grid):
    """Each member's log det minus the prior's, over the ``rho`` with ``beta > 0``."""
    changes = []
    for rho in grid.tolist():
        beta = fusion.at(rho)[0]
        if beta > 0.0:
            changes.append(fusion.log_det_change(rho, beta))
    return changes


def check_fusion_keep_test(rng, n_cases=300, margin=1e-3, tol=1e-12):
    """The closed-form keep test is sound and sharp on random updates.

    When it holds, ``fuse`` returns the prior itself and no member on a
    dense ``rho`` grid has a log det below the prior's by more than ``tol``.
    When the defect at ``rho = 0`` exceeds ``margin``, some member at small
    ``rho`` is smaller than the prior.
    """
    failures = []
    sides = [0, 0]
    for i in range(n_cases):
        prior, obs = random_fusion(rng)
        fusion = _Fusion(prior, obs.phi, obs.q_shape, obs.h)
        if fusion.keeps_prior:
            sides[0] += 1
            if fusion.fuse()[2] is not prior:
                failures.append(f"case {i}: a kept update did not return the prior")
            worst = min(_log_det_changes(fusion, KEEP_GRID))
            if worst < -tol:
                failures.append(f"case {i}: the prior was kept, but a member is "
                                f"smaller by {-worst:.3g} in log det")
        elif fusion.defect(0.0)[0] > margin:
            sides[1] += 1
            if not min(_log_det_changes(fusion, SMALL_RHO)) < 0.0:
                failures.append(f"case {i}: defect {fusion.defect(0.0)[0]:.3g} at "
                                f"rho = 0, but no small-rho member is smaller")
    if not all(sides):
        failures.append(f"only one side of the keep test ran ({sides[0]} kept, "
                        f"{sides[1]} shrinking)")
    return failures


def run_all(rng):
    """Run every fusion suite at full size. Returns {name: failures}."""
    return {
        "fusion_containment": check_fusion_containment(rng),
        "identity_fusion": check_identity_fusion(rng),
        "fusion_anchor": check_fusion_anchor(rng),
        "fusion_keep_test": check_fusion_keep_test(rng),
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
    ("fusion-keep-test", lambda rng: check_fusion_keep_test(rng, n_cases=60)),
    ("estimator-contraction", check_estimator_contraction),
    ("robust-worst-case", check_robust_worst_case),
    ("information-identity", check_information_identity),
    ("discretization-consistency", check_discretization),
)
