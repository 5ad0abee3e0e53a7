"""Tests for the worst-case tracking controller and its barrier solver."""

import dataclasses
import functools
import pickle
import re
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from smtrack.ellipsoid import Ellipsoid
from smtrack.estimator import ParameterBelief, build_observation
from smtrack.experiments import run, scenario
from smtrack import experiments, robust
from smtrack.robust import (
    BARRIER_GROWTH,
    DUALITY_TARGET,
    ControlBounds,
    RobustSolution,
    TrackingInstance,
    build_instance,
    solve_known_theta,
    solve_robust,
    worst_case_interval,
)

import oracles
from oracles import random_model

EMPTY = "bounds are empty: a lower bound exceeds its upper"


def sim1_case(y_ref=5.0 / 23.0):
    spec = scenario("sim1")
    instance = build_instance(spec.model, spec.x0, y_ref)
    belief = ParameterBelief(spec.belief0)
    return spec, instance, belief


def sim3_case():
    spec = scenario("sim3")
    instance = build_instance(spec.model, spec.x0, spec.reference.value(1))
    belief = ParameterBelief(spec.belief0)
    return spec, instance, belief


def recorded_solves(name, mode, seeds):
    """``(instance, belief, bounds, solution)`` of every solve in closed-loop
    runs, as a tuple.

    Each ``(name, mode, seeds)`` runs its closed loop once per test session
    and every later call returns the same tuple, so callers must treat it
    and the objects in it as read-only.
    """
    return _recorded_solves(name, mode, tuple(seeds))


@functools.cache
def _recorded_solves(name, mode, seeds):
    solves = []

    def recording(instance, belief, bounds):
        sol = solve_robust(instance, belief, bounds)
        solves.append((instance, belief, bounds, sol))
        return sol

    # known_theta reaches the solver through robust.solve_known_theta.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiments, "solve_robust", recording)
        patch.setattr(robust, "solve_robust", recording)
        for seed in seeds:
            assert not run(scenario(name), mode, seed).aborted
    return tuple(solves)


def geometry_of(instance, belief, bounds):
    """The :class:`robust._Geometry` of a program, read as
    :func:`solve_robust` reads it, through the held one."""
    return robust._geometry(instance.gx.shape[1], belief.set, bounds,
                            instance.b0, instance.b_stack, instance.q_shape)


def program(instance, belief, bounds):
    """The barrier of a program, :class:`robust._Barrier`, which
    :func:`solve_robust` runs only on a program that does not split."""
    return robust._Barrier(geometry_of(instance, belief, bounds), instance)


def full_input(instance, belief, bounds, u):
    """The full input of a program whose free inputs are at ``u``, each
    pinned input at its pinned value (:class:`robust._Geometry`)."""
    geometry = geometry_of(instance, belief, bounds)
    u_full = geometry.u_fix.copy()
    u_full[geometry.free] = u
    return u_full


def free_inputs(instance, belief, bounds):
    """The mask of a program's free inputs."""
    return geometry_of(instance, belief, bounds).free


def counted_geometry_builds(monkeypatch):
    """A one-item list that counts :class:`robust._Geometry` builds from now
    on, until ``monkeypatch`` is undone."""
    init, builds = robust._Geometry.__init__, [0]

    def counting(self, *args):
        builds[0] += 1
        init(self, *args)

    monkeypatch.setattr(robust._Geometry, "__init__", counting)
    return builds


def barrier_solution(instance, belief, bounds):
    """The barrier schedule's solve of a program with a free input, as a
    :class:`RobustSolution`: ``_barrier_path(robust._Barrier(geometry,
    instance))``, which is the solve :func:`solve_robust` runs on a
    program that does not split."""
    prog = program(instance, belief, bounds)
    u, iterations, status = robust._barrier_path(prog)
    z = prog.padded_z(u, 0.0)
    return RobustSolution(full_input(instance, belief, bounds, u),
                          np.array(z), sum(z), status, iterations)


def barrier_replays(name, mode, seeds):
    """:func:`barrier_solution` of every solve of :func:`recorded_solves`."""
    return [barrier_solution(instance, belief, bounds)
            for instance, belief, bounds, _ in
            recorded_solves(name, mode, seeds)]


def row_values(row, u):
    """``(mid_t, |w_t|^2)`` of a program row at free inputs ``u``."""
    m0, a, c, rt, _ = row
    u = np.asarray(u, dtype=float)
    w = np.ravel(c) + np.reshape(rt, (-1, u.size)) @ u
    return m0 + np.ravel(a) @ u, w @ w


def noise_free_scalar():
    """One-state noise-free plant with a single uncertain input direction."""
    instance = TrackingInstance(
        f=np.array([0.3]),
        b0=np.array([[1.0]]),
        gx=np.zeros((1, 0)),
        b_stack=np.array([[[0.4]]]),
        q_shape=np.zeros((1, 1)),
    )
    belief = ParameterBelief(Ellipsoid([0.0], [[0.25]]))
    return instance, belief


def flat_direction_case():
    """One output, two inputs, no input-dependent uncertainty; the optimum is
    a line. Returns ``(instance, belief, optimal objective)``."""
    instance = TrackingInstance(
        f=np.array([0.5]),
        b0=np.array([[1.0, 0.5]]),
        gx=(np.array([[0.3, -0.2], [0.1, 0.4]]) @ np.array([1.0, 1.0]))[None, :],
        b_stack=np.zeros((0, 1, 2)),
        q_shape=np.array([[0.1]]),
    )
    belief = ParameterBelief(Ellipsoid([0.2, -0.1], [[0.3, 0.1], [0.1, 0.2]]))
    g = np.array([0.1, 0.5])
    return instance, belief, np.sqrt(g @ belief.shape @ g) + np.sqrt(0.1)


class TestControlBounds:
    def test_feasibility(self):
        # A box is never empty: no program is built over one.
        for lower, upper in (([1.0], [-1.0]), ([np.inf], [-np.inf]),
                             ([-1.0, 1.0], [1.0, 0.5]),
                             ([-np.inf, 3.0], [np.inf, -np.inf])):
            with pytest.raises(ValueError, match=re.escape(EMPTY)):
                ControlBounds(lower, upper)
        for lower, upper in (([-1.0], [1.0]), ([5.0], [5.0]),
                             ([-1.0, 5.0], [1.0, 5.0])):
            box = ControlBounds(lower, upper)
            assert box.contains(box.lower) and box.contains(box.upper)

    def test_contains_with_infinite_sides(self):
        box = ControlBounds([-np.inf], [2.0])
        assert box.contains([-1e9])
        assert not box.contains([2.5])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ControlBounds([0.0, 1.0], [1.0])

    @pytest.mark.parametrize("lower, upper", [
        ([np.nan], [1.0]), ([0.0, -1.0], [1.0, np.nan]), ([np.nan], [np.nan])])
    def test_nan_bound_is_rejected(self, lower, upper):
        with pytest.raises(ValueError, match="NaN"):
            ControlBounds(lower, upper)

    @pytest.mark.parametrize("side", [np.inf, -np.inf])
    def test_side_pinned_at_infinity_is_rejected(self, side):
        # Such a side is neither a box nor a point: its width is nan, so the
        # barrier could neither pin the input nor bound it.
        with pytest.raises(ValueError, match="same infinity"):
            ControlBounds([0.0, side], [1.0, side])

    @pytest.mark.parametrize("lower, upper, feasible", [
        ([-1.0, 0.0], [1.0, 0.0], True), ([1.0], [-1.0], False),
        ([np.inf], [-np.inf], False)])
    def test_feasibility_survives_a_pickle_round_trip(self, lower, upper,
                                                      feasible):
        # monte_carlo sends each scenario, its box included, to its workers
        # by pickle. Unpickling runs no check, so an empty box must never
        # be built to be sent.
        if not feasible:
            with pytest.raises(ValueError, match=re.escape(EMPTY)):
                ControlBounds(lower, upper)
            return
        box = pickle.loads(pickle.dumps(ControlBounds(lower, upper)))
        assert box == ControlBounds(lower, upper)
        assert not box.lower.flags.writeable

    def test_equal_boxes_compare_equal(self):
        assert ControlBounds([-1.0, 0.0], [1.0, 2.0]) == \
            ControlBounds(np.array([-1, 0]), (1.0, 2.0))
        assert ControlBounds([5.0], [5.0]) == ControlBounds([5], (5.0,))
        assert ControlBounds([-1.0], [1.0]) != ControlBounds([-1.0], [2.0])
        with pytest.raises(ValueError, match=re.escape(EMPTY)):
            ControlBounds([1.0], [-1.0])

    def test_infinite_sides_that_are_boxes_are_kept(self):
        for lower, upper in (([-np.inf], [np.inf]), ([2.0], [np.inf]),
                             ([-np.inf], [-3.0])):
            box = ControlBounds(lower, upper)
            assert [box.lower.tolist(), box.upper.tolist()] == [lower, upper]
        with pytest.raises(ValueError, match=re.escape(EMPTY)):
            ControlBounds([np.inf], [-np.inf])


class TestBuildInstance:
    def test_hand_case(self):
        _, instance, _ = sim1_case()
        assert_allclose(instance.f, [1.63 - 5.0 / 23.0])
        assert_allclose(instance.b0, [[-0.39]])
        assert instance.gx.shape == (1, 0)
        assert instance.b_stack.shape == (2, 1, 1)
        assert_allclose(instance.q_shape, [[1.05]])

    def test_dimension_checks(self):
        model = scenario("sim1").model
        with pytest.raises(ValueError, match="state"):
            build_instance(model, np.zeros(2), 0.0)
        with pytest.raises(ValueError, match="reference"):
            build_instance(model, np.zeros(3), [0.0, 1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_state_or_reference_is_rejected(self, bad):
        model = scenario("sim1").model
        with pytest.raises(ValueError, match="state is not finite"):
            build_instance(model, [1.0, bad, 0.0], 0.0)
        with pytest.raises(ValueError, match="reference is not finite"):
            build_instance(model, np.zeros(3), bad)

    def test_regressor_matches_the_tracked_observation(self):
        # The controller and the estimator read one regressor table.
        rng = np.random.default_rng(21)
        models = [scenario(name).model for name in ("sim1", "sim2", "sim3")]
        models += [random_model(rng, r=r, s=s) for r in range(3) for s in range(3)]
        for model in models:
            for _ in range(5):
                x = rng.normal(size=model.n)
                u = rng.normal(size=model.m)
                instance = build_instance(model, x, np.zeros(model.l))
                obs = build_observation(model, x, u, np.zeros(model.l))
                assert instance.regressor(u).shape == (model.l, model.p)
                np.testing.assert_array_equal(instance.regressor(u), obs.phi)
                assert_allclose(instance.q_shape, obs.q_shape, rtol=1e-15, atol=0.0)

    def test_error_decomposition_matches_the_plant(self):
        # f + b0 u + g(u) theta reproduces the undisturbed tracking error.
        spec = scenario("sim1")
        rng = np.random.default_rng(6)
        for _ in range(20):
            x = rng.normal(size=3)
            u = rng.normal(size=1)
            theta = rng.normal(size=2)
            y_ref = float(rng.normal())
            instance = build_instance(spec.model, x, y_ref)
            _, y_next = spec.model.step(x, u, theta, np.zeros(3))
            direct = y_next - y_ref
            composed = instance.f + instance.b0 @ u + instance.regressor(u) @ theta
            assert_allclose(composed, direct, atol=1e-12)


class TestWorstCaseInterval:
    def test_point_belief_noise_free_interval_degenerates(self):
        instance, _ = noise_free_scalar()
        point = ParameterBelief(Ellipsoid([0.2], [[0.0]]))
        lo, hi = worst_case_interval(instance, point, [1.5])
        expect = 0.3 + 1.5 + 0.4 * 1.5 * 0.2
        assert_allclose(lo, [expect], atol=1e-12)
        assert_allclose(hi, [expect], atol=1e-12)

    def test_zero_input_radius_is_noise_only(self):
        # At u = 0 both regressor columns vanish, leaving the noise radius.
        _, instance, belief = sim1_case()
        lo, hi = worst_case_interval(instance, belief, [0.0])
        assert_allclose(hi - lo, [2.0 * np.sqrt(1.05)], atol=1e-12)

    def test_interval_bounds_sampled_errors(self):
        _, instance, belief = sim1_case()
        rng = np.random.default_rng(31)
        spec = scenario("sim1")
        u = np.array([1.7])
        lo, hi = worst_case_interval(instance, belief, u)
        disturb = spec.model.disturbance_set()
        c = spec.model.c
        for _ in range(10000):
            theta = belief.set.sample_interior(rng)
            noise = c @ disturb.sample_interior(rng)
            err = (instance.f + instance.b0 @ u
                   + instance.regressor(u) @ theta + noise)
            assert (err <= hi + 1e-9).all()
            assert (err >= lo - 1e-9).all()


class TestSolveRobust:
    def test_pinned_input_is_returned_verbatim(self):
        _, instance, belief = sim1_case()
        sol = solve_robust(instance, belief, ControlBounds([2.0], [2.0]))
        assert_allclose(sol.u, [2.0])
        lo, hi = worst_case_interval(instance, belief, sol.u)
        assert_allclose(sol.z, np.maximum(np.abs(lo), np.abs(hi)), atol=1e-12)
        assert_allclose(sol.objective, sol.z.sum())
        assert sol.status == "optimal"

    def test_exact_tracking_reaches_zero_cost(self):
        instance, _ = noise_free_scalar()
        point = ParameterBelief(Ellipsoid([0.0], [[0.0]]))
        sol = solve_robust(instance, point, ControlBounds([-5.0], [5.0]))
        assert_allclose(sol.u, [-0.3], atol=1e-6)
        assert sol.objective <= 1e-7

    def test_matches_dense_grid_minimum(self):
        _, instance, belief = sim1_case()
        bounds = ControlBounds([-25.0], [25.0])
        sol = solve_robust(instance, belief, bounds)
        _, grid_best = oracles.grid_min_robust(instance, belief, bounds)
        assert sol.status == "optimal"
        assert abs(sol.objective - grid_best) <= 1e-3

    def test_random_cases_match_grid(self):
        rng = np.random.default_rng(42)
        for _ in range(15):
            instance, belief, bounds = oracles.random_tracking_case(rng)
            sol = solve_robust(instance, belief, bounds)
            _, grid_best = oracles.grid_min_robust(instance, belief, bounds)
            assert abs(sol.objective - grid_best) <= 1e-3

    def test_unbounded_box(self):
        _, instance, belief = sim1_case()
        free = solve_robust(instance, belief,
                            ControlBounds([-np.inf], [np.inf]))
        wide = solve_robust(instance, belief, ControlBounds([-25.0], [25.0]))
        assert free.status == "optimal"
        assert_allclose(free.objective, wide.objective, atol=1e-6)

    def test_one_sided_box(self):
        _, instance, belief = sim1_case()
        capped = solve_robust(instance, belief,
                              ControlBounds([-np.inf], [1.0]))
        assert capped.status == "optimal"
        assert capped.u[0] <= 1.0 + 1e-9
        ref = solve_robust(instance, belief, ControlBounds([-25.0], [25.0]))
        if ref.u[0] > 1.0:
            vals = oracles.robust_cost_batch(instance, belief, [[1.0]])
            assert_allclose(capped.objective, vals[0], atol=1e-6)

    def test_objective_monotone_in_uncertainty(self):
        _, instance, belief = sim1_case()
        bounds = ControlBounds([-25.0], [25.0])
        small = solve_robust(instance, belief, bounds)
        bigger = ParameterBelief(
            Ellipsoid(belief.center, 2.0 * belief.shape))
        large = solve_robust(instance, bigger, bounds)
        assert large.objective >= small.objective - 1e-8

    def test_certificate_holds_on_samples(self):
        spec, instance, belief = sim1_case()
        sol = solve_robust(instance, belief, ControlBounds([-25.0], [25.0]))
        rng = np.random.default_rng(55)
        disturb = spec.model.disturbance_set()
        c = spec.model.c
        g = instance.regressor(sol.u)
        for _ in range(10000):
            theta = belief.set.sample_interior(rng)
            noise = c @ disturb.sample_interior(rng)
            err = instance.f + instance.b0 @ sol.u + g @ theta + noise
            assert (np.abs(err) <= sol.z + 1e-6).all()

    def test_known_theta_decomposes_its_point_belief_once_per_run(
            self, monkeypatch):
        # The point belief depends on theta alone, so a run builds it once,
        # and the eigh count of a run does not grow with its horizon.
        eigh = np.linalg.eigh
        calls = [0]

        def counting(a, *args, **kwargs):
            calls[0] += 1
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        counts = []
        for steps in (10, 20):
            # A new scenario's read-only theta has no point belief held.
            spec = scenario("sim2")
            calls[0] = 0
            assert run(spec, "known_theta", 0, steps).steps == steps
            counts.append(calls[0])
        assert counts[0] == counts[1]

    def test_known_theta_equals_degenerate_belief(self):
        _, instance, _ = sim1_case()
        bounds = ControlBounds([-25.0], [25.0])
        theta = np.array([0.2, 0.1])
        a = solve_known_theta(instance, theta, bounds)
        b = solve_robust(
            instance,
            ParameterBelief(Ellipsoid(theta, np.zeros((2, 2)))),
            bounds,
        )
        assert_allclose(a.u, b.u, atol=1e-12)
        assert_allclose(a.objective, b.objective, atol=1e-12)

    def test_partly_pinned_box_matches_the_grid_minimum(self):
        # sim3 with its second input pinned at 2, away from its optimum near
        # 0: that input's terms fold into the program's constants and the
        # first input alone is free. sim3's output t feels input t alone, so
        # the tables are coupled here; otherwise the pinned terms would
        # touch only an output the free input cannot move, and the program
        # would split. The two steps
        # share the belief, the box and the tables, so the second solve
        # reuses the first one's program geometry.
        spec = scenario("sim3")
        belief = ParameterBelief(spec.belief0)
        lo, hi, pin = -100.0, 100.0, 2.0
        bounds = ControlBounds([lo, pin], [hi, pin])
        b0 = spec.model.tracked.b0 + np.array([[0.0, 0.5], [0.3, 0.0]])
        b_stack = spec.model.tracked.b_stack + np.array(
            [[[0.0, 0.05], [0.0, 0.0]], [[0.0, 0.0], [0.02, 0.0]]])

        def cost(instance, u0):
            low, high = worst_case_interval(instance, belief, [u0, pin])
            return float(np.maximum(np.abs(low), np.abs(high)).sum())

        x = spec.x0
        for k in (1, 2):
            instance = dataclasses.replace(
                build_instance(spec.model, x, spec.reference.value(k)),
                b0=b0.copy(), b_stack=b_stack.copy())
            # The program over the free input has the cone data of the full
            # input, mid_t and |w_t|^2, in the barrier's rows. The free
            # input moves both outputs: no split.
            prog = program(instance, belief, bounds)
            assert geometry_of(instance, belief, bounds).split is None
            for u0 in (lo, 0.3, hi):
                mid, w2, _ = oracles.cone_terms(instance, belief, [u0, pin])
                for row, mid_t, w2_t in zip(prog._rows, mid, w2):
                    row_mid, row_w2 = row_values(row, [u0])
                    assert_allclose(row_mid, mid_t, rtol=1e-12)
                    assert_allclose(row_w2, w2_t, rtol=1e-12)
            sol = solve_robust(instance, belief, bounds)
            assert sol.status == "optimal"
            assert sol.u[1] == pin
            # A 2001-point grid of the free input, refined three times
            # around its minimizer.
            best, a, b = np.inf, lo, hi
            for _ in range(4):
                for u0 in np.linspace(a, b, 2001):
                    value = cost(instance, u0)
                    if value < best:
                        best, at = value, u0
                step = (b - a) / 2000
                a, b = max(a, at - 2.0 * step), min(b, at + 2.0 * step)
            assert sol.objective <= best + 1e-9
            assert abs(sol.objective - best) <= 1e-6
            x, _ = spec.model.step(x, sol.u, spec.theta_true,
                                   np.zeros(spec.model.n))

    @staticmethod
    def assert_z_is_the_interval_bound(instance, belief, sol):
        lo, hi = worst_case_interval(instance, belief, sol.u)
        bound = np.maximum(np.abs(lo), np.abs(hi))
        assert np.all(np.abs(sol.z - bound) <= 1e-12 * (1.0 + bound))
        assert sol.objective == sum(sol.z.tolist())

    @pytest.mark.parametrize("name, mode", [
        ("sim1", "learn"), ("sim2", "known_theta"), ("sim3", "active")])
    def test_z_is_the_worst_case_bound_at_the_returned_input(self, name, mode):
        # z is read from the program's own rows at the returned input; the
        # numpy interval is the public reference.
        for instance, belief, _, sol in recorded_solves(name, mode, [0]):
            self.assert_z_is_the_interval_bound(instance, belief, sol)

    def test_z_of_a_partly_pinned_box_is_the_worst_case_bound(self):
        # sim3 with its second input pinned splits: output 0 moves the free
        # input and output 1 none. The fully pinned box is
        # test_pinned_input_is_returned_verbatim.
        spec, instance, belief = sim3_case()
        sol = solve_robust(instance, belief,
                           ControlBounds([-100.0, 2.0], [100.0, 2.0]))
        assert sol.u[1] == 2.0
        self.assert_z_is_the_interval_bound(instance, belief, sol)

    def test_a_belief_of_the_wrong_dimension_is_rejected(self):
        spec = scenario("sim2")
        instance = build_instance(spec.model, spec.x0, spec.reference.value(2))
        theta = [0.1, 0.2]
        message = "belief has 2 parameters, the program 3"
        with pytest.raises(ValueError, match=message):
            solve_robust(instance, ParameterBelief(Ellipsoid(theta, np.eye(2))),
                         spec.bounds)
        with pytest.raises(ValueError, match=message):
            solve_known_theta(instance, theta, spec.bounds)

    def test_parameter_free_instance(self):
        instance, _ = noise_free_scalar()
        bare = TrackingInstance(
            f=instance.f, b0=instance.b0, gx=np.zeros((1, 0)),
            b_stack=np.zeros((0, 1, 1)), q_shape=instance.q_shape)
        sol = solve_known_theta(bare, np.zeros(0), ControlBounds([-5.0], [5.0]))
        assert sol.status == "optimal"
        assert_allclose(sol.u, [-0.3], atol=1e-6)

    def test_infeasible_bounds(self):
        # An empty box cannot be built, so no solve can be handed one; the
        # statuses left are solver outcomes.
        with pytest.raises(ValueError, match=re.escape(EMPTY)):
            ControlBounds([1.0], [-1.0])
        _, instance, belief = sim1_case()
        sol = solve_robust(instance, belief, ControlBounds([5.0], [5.0]))
        assert sol.status == "optimal"
        assert sol.u.tolist() == [5.0]

    def test_bounds_dimension_checked(self):
        _, instance, belief = sim1_case()
        with pytest.raises(ValueError, match="bounds"):
            solve_robust(instance, belief, ControlBounds([-1.0, -1.0], [1.0, 1.0]))

    def test_sim3_matches_dense_grid_minimum(self):
        spec, instance, belief = sim3_case()
        sol = solve_robust(instance, belief, spec.bounds)
        _, grid_best = oracles.grid_min_robust(instance, belief, spec.bounds)
        assert sol.status == "optimal"
        assert abs(sol.objective - grid_best) <= 1e-3

    def test_flat_direction_reaches_optimal(self):
        # One output, two inputs and no input-dependent uncertainty: every u
        # with mid(u) = 0 is optimal, and along that line only the box
        # barrier curves. The Schur complement is then huge across the line
        # and tiny along it; the solve must still center and stop.
        instance, belief, floor = flat_direction_case()
        for lo, hi in (([-2.0, -2.0], [2.0, 2.0]), ([-4.0, -1.0], [1.5, 2.5])):
            sol = solve_robust(instance, belief, ControlBounds(lo, hi))
            assert sol.status == "optimal"
            assert_allclose(sol.objective, floor, atol=1e-9)

    def test_an_input_that_moves_no_cone_is_pinned(self):
        # An input with no slope and a zero column in every Wm_t changes no
        # objective. Pinned at 0 clamped into its box, it leaves no zero
        # Schur pivot behind, and the solve ends optimal at the objective of
        # the program whose box pins that input at 0.
        instance, belief, bounds = TestBarrierKernel.zero_pivot_case()
        assert program(instance, belief, bounds).nf == 1
        sol = solve_robust(instance, belief, bounds)
        ref = solve_robust(instance, belief,
                           ControlBounds([-2.0, 0.0], [2.0, 0.0]))
        assert sol.status == ref.status == "optimal"
        assert sol.u[1] == 0.0
        assert abs(sol.objective - ref.objective) <= 1e-12
        # One output whose only input is dead leaves nothing to solve.
        dead = TrackingInstance(
            f=np.array([0.5]), b0=np.array([[0.0]]), gx=np.array([[0.3]]),
            b_stack=np.zeros((0, 1, 1)), q_shape=np.array([[0.1]]))
        for lo, hi, u in ((-np.inf, np.inf, 0.0), (1.0, 3.0, 1.0),
                          (-np.inf, -2.0, -2.0)):
            sol = solve_robust(dead, belief, ControlBounds([lo], [hi]))
            assert sol.status == "optimal"
            assert sol.newton_iterations == 0
            assert sol.u.tolist() == [u]

    def test_cold_start_lost_to_rounding_ends_at_max_iter(self):
        # At 1e17 the cold start lo + 1 rounds back onto the lower bound, so
        # no stage of the barrier can move; it reports that instead of
        # failing. The closed form clips every candidate onto that bound.
        _, instance, belief = sim1_case()
        bounds = ControlBounds([1e17], [np.inf])
        ref = barrier_solution(instance, belief, bounds)
        assert ref.status == "max_iter"
        assert_allclose(ref.u, [1e17])
        sol = solve_robust(instance, belief, bounds)
        assert sol.status == "optimal"
        assert sol.u.tolist() == [1e17]

    def test_a_box_at_the_float_range_returns_an_input_inside_it(self):
        # The midpoint 0.5 (lo + hi) of these boxes overflows to inf, so the
        # barrier's cold start is clamped back into the box; no stage can
        # leave it. The closed form scores its candidates over floats, and
        # reports a bound z that overflowed as not finite.
        _, instance, belief = sim1_case()
        for lo, hi in ((1e308, 1.7e308), (-1.7e308, -1e308)):
            bounds = ControlBounds([lo], [hi])
            ref = barrier_solution(instance, belief, bounds)
            assert ref.status == "max_iter"
            assert lo <= ref.u[0] <= hi
            sol = solve_robust(instance, belief, bounds)
            assert lo <= sol.u[0] <= hi
            assert sol.newton_iterations == 0
            finite = bool(np.all(np.isfinite(sol.z)))
            assert sol.status == ("optimal" if finite else "non_finite")

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_a_slope_near_the_float_range_returns_a_status(self, m):
        # With two or more inputs the program does not split, and the
        # barrier's Schur complement squares the slopes of 1e200 to inf,
        # so every Newton step is NaN. Each interior test is written so
        # that a NaN trial point fails it: the step is rejected and the
        # input stays finite inside the box (a NaN trial passed tests
        # written as x <= b, and the solve returned u = NaN).
        instance = TrackingInstance(
            f=np.array([0.5]), b0=np.full((1, m), 1e200),
            gx=np.array([[0.3]]), b_stack=np.zeros((0, 1, m)),
            q_shape=np.array([[0.1]]))
        belief = ParameterBelief(Ellipsoid([0.2], [[0.3]]))
        bounds = ControlBounds(-np.ones(m), np.ones(m))
        sol = solve_robust(instance, belief, bounds)
        assert isinstance(sol, RobustSolution)
        assert np.all(np.isfinite(sol.u))
        assert bounds.contains(sol.u, tol=0.0)

    def test_a_side_pinned_at_the_float_range_is_not_reported_optimal(self):
        # The pinned midpoint 0.5 (lo + hi) of [1e308, 1e308] overflowed with
        # a RuntimeWarning, and the infinite bound z it leads to was
        # reported optimal. The midpoint is now lo + 0.5 (hi - lo).
        _, instance, belief = sim1_case()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve_robust(instance, belief,
                               ControlBounds([1e308], [1e308]))
        assert sol.u.tolist() == [1e308]
        assert not np.all(np.isfinite(sol.z))
        assert sol.status == "non_finite"

    def test_known_theta_returns_the_certainty_equivalent_input(self):
        # With a point belief the radius does not depend on u, so the input
        # that zeroes the error at theta is, wherever it lies inside the
        # box, the optimum.
        inside = 0
        for instance, belief, bounds, sol in recorded_solves(
                "sim2", "known_theta", [0]):
            r = instance.gx.shape[1]
            theta = belief.center
            slope = instance.b0 + np.einsum("j,jtm->tm", theta[r:],
                                            instance.b_stack)
            ce = np.linalg.solve(slope, -(instance.f + instance.gx @ theta[:r]))
            if np.all((bounds.lower < ce) & (ce < bounds.upper)):
                inside += 1
                assert sol.status == "optimal"
                assert_allclose(sol.u, ce, rtol=1e-9, atol=1e-12)
        assert inside > 0


class TestExactOneInputOracle:
    """``solve_robust`` against the exact minimum for one output and one input."""

    @staticmethod
    def assert_matches_oracle(instance, belief, bounds, sol):
        _, best = oracles.robust_min_one_input(instance, belief, bounds)
        assert sol.status == "optimal"
        assert abs(sol.objective - best) <= 1e-8 * abs(best)

    @pytest.mark.parametrize("name, mode", [
        ("sim1", "learn"), ("sim1", "active"), ("sim2", "fixed"),
        ("sim2", "learn"), ("sim2", "known_theta")])
    def test_recorded_closed_loop_instances(self, name, mode):
        solves = recorded_solves(name, mode, range(3))
        assert len(solves) == 3 * scenario(name).horizon
        for instance, belief, bounds, sol in solves:
            self.assert_matches_oracle(instance, belief, bounds, sol)

    def test_random_cases(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            instance, belief, bounds = oracles.random_tracking_case(rng, l=1, m=1)
            sol = solve_robust(instance, belief, bounds)
            self.assert_matches_oracle(instance, belief, bounds, sol)

    def test_tiny_slopes_on_half_infinite_boxes_match_the_oracle(self):
        # mid(u) = -1 + sign 1e-160 u is zeroed only at u = sign 1e160,
        # where the radius 0.5 |u| overflows to an infinite objective. The
        # optimum lies on the box's finite bound, and the barrier and the
        # closed form both reach it.
        belief = ParameterBelief(Ellipsoid([0.0], [[0.25]]))
        for sign, bounds in ((1.0, ControlBounds([0.0], [np.inf])),
                             (-1.0, ControlBounds([-np.inf], [0.0]))):
            instance = TrackingInstance(
                f=np.array([-1.0]), b0=np.array([[sign * 1e-160]]),
                gx=np.zeros((1, 0)), b_stack=np.array([[[1.0]]]),
                q_shape=np.array([[0.01]]))
            for sol in (barrier_solution(instance, belief, bounds),
                        solve_robust(instance, belief, bounds)):
                self.assert_matches_oracle(instance, belief, bounds, sol)


class TestOneInputClosedForm:
    """One free input and one output are solved in closed form, held to the
    barrier on the same program."""

    @staticmethod
    def assert_not_above_the_barrier(instance, belief, bounds, same_u=True):
        """The closed form's objective is never above the barrier's by more
        than rounding and, if ``same_u``, its input agrees with the
        barrier's. Returns the closed form's solution."""
        sol = solve_robust(instance, belief, bounds)
        ref = barrier_solution(instance, belief, bounds)
        assert sol.status == ref.status == "optimal"
        assert sol.newton_iterations == 0
        assert ref.newton_iterations > 0
        assert sol.objective - ref.objective <= 1e-12 * abs(ref.objective)
        if same_u:
            assert np.all(np.abs(sol.u - ref.u) <= 1e-8 * (1.0 + np.abs(sol.u)))
        return sol

    def test_replays_of_the_barrier(self):
        # Every one-input solve of the closed loop, random one-output
        # programs with one input or with one of two pinned, every fourth
        # with an infinite box side, and one with no slope at the belief
        # center. On the random programs the barrier's input can be 1e-7
        # off: it stops a central-path slack inside a bound, or on a shallow
        # optimum, where its objective is 1e-10 relative above the closed
        # form's. There the input is held to the oracle's candidates.
        rng = np.random.default_rng(19)
        recorded = [(instance, belief, bounds)
                    for name, mode in (("sim1", "learn"), ("sim1", "active"),
                                       ("sim2", "fixed"), ("sim2", "learn"),
                                       ("sim2", "known_theta"))
                    for instance, belief, bounds, _ in
                    recorded_solves(name, mode, range(3))]
        assert len(recorded) == 2 * 3 * 46 + 3 * 3 * 100
        recorded.append(TestBarrierKernel.zero_radius_scalar_case())
        for instance, belief, bounds in recorded:
            self.assert_not_above_the_barrier(instance, belief, bounds)
        for instance, belief, bounds in TestBarrierKernel.with_infinite_sides(
                rng, TestBarrierKernel.programs(rng, 150, 50, m=1, l=1)):
            sol = self.assert_not_above_the_barrier(instance, belief, bounds,
                                                    same_u=False)
            if bounds.m == 1:
                u, _ = oracles.robust_min_one_input(instance, belief, bounds)
                assert_allclose(sol.u, u, rtol=1e-12, atol=1e-12)

    @staticmethod
    def hand_built(f, b0, gx, b1, center, shape, q=0.01, lo=-2.0, hi=3.0):
        """One output and one input with ``g(u) = (gx, b1 u)``."""
        instance = TrackingInstance(
            f=np.array([f]), b0=np.array([[b0]]), gx=np.array([gx]),
            b_stack=np.array([[[b1]]]), q_shape=np.array([[q]]))
        belief = ParameterBelief(Ellipsoid(center, shape))
        return instance, belief, ControlBounds([lo], [hi])

    def test_apex_without_constant_radius(self):
        # No state block: |w| = 0.5 |u|, so rho = 0 and the apex u = 0 wins
        # over the kink u = -2.5, where the radius grows faster than the
        # error falls.
        case = self.hand_built(0.5, 0.2, [], 1.0, [0.0], [[0.25]])
        sol = self.assert_not_above_the_barrier(*case)
        assert sol.u.tolist() == [0.0]
        TestExactOneInputOracle.assert_matches_oracle(*case, sol)

    def test_no_stationary_point_when_the_slope_dominates(self):
        # a = 1 and r = 0.2: r^2 <= a^2, so the radius never balances the
        # error's slope and the kink u = -0.3 wins, with rho > 0.
        case = self.hand_built(0.3, 1.0, [0.3], 0.4, [0.0, 0.0],
                               [[0.25, 0.0], [0.0, 0.25]])
        sol = self.assert_not_above_the_barrier(*case)
        assert_allclose(sol.u, [-0.3], rtol=1e-15)
        TestExactOneInputOracle.assert_matches_oracle(*case, sol)

    def test_stationary_point_off_the_kinks(self):
        # a = 0.1, r = 0.5 and rho = 0.04: the optimum is the stationary
        # point 0.5 u = -0.1 sqrt(0.04 / 0.24), neither the kink u = -3 nor
        # the apex u = 0 nor a box end.
        case = self.hand_built(0.3, 0.1, [1.0], 1.0, [0.0, 0.0],
                               [[0.04, 0.0], [0.0, 0.25]])
        sol = self.assert_not_above_the_barrier(*case)
        assert_allclose(sol.u, [-0.2 * np.sqrt(0.04 / 0.24)], rtol=1e-12)
        TestExactOneInputOracle.assert_matches_oracle(*case, sol)

    def test_point_belief(self):
        # r = 0: the radius is constant and the kink wins.
        case = self.hand_built(0.3, 1.0, [0.3], 0.4, [0.1, 0.2],
                               np.zeros((2, 2)))
        sol = self.assert_not_above_the_barrier(*case)
        assert_allclose(sol.u, [-(0.3 + 0.03) / (1.0 + 0.08)], rtol=1e-14)
        TestExactOneInputOracle.assert_matches_oracle(*case, sol)

    @pytest.mark.parametrize("lo, hi", [
        (-np.inf, np.inf), (-np.inf, -1.0), (1.0, np.inf), (-np.inf, 0.0)])
    def test_infinite_box_sides(self, lo, hi):
        # The cost grows without bound on an infinite side, so the optimum
        # is a finite candidate: the kink of the open box, the finite bound
        # of the boxes that cut it off.
        _, instance, belief = sim1_case()
        bounds = ControlBounds([lo], [hi])
        sol = self.assert_not_above_the_barrier(instance, belief, bounds)
        assert np.isfinite(sol.u).all()
        TestExactOneInputOracle.assert_matches_oracle(instance, belief, bounds,
                                                      sol)

    @pytest.mark.parametrize("lo, hi, u", [
        (-1.0, 2.0, 1.0), (0.25, 0.75, 0.25)])
    def test_a_flat_tie_goes_to_the_first_candidate(self, lo, hi, u):
        # |u - 1| + |u| is flat on [0, 1]: on [-1, 2] the kink u = 1 ties
        # with the apex u = 0 and comes first; on [0.25, 0.75] both box
        # ends tie with the clipped kink and apex, and the lower end is the
        # first candidate.
        case = self.hand_built(-1.0, 1.0, [], 1.0, [0.0], [[1.0]], q=0.0,
                               lo=lo, hi=hi)
        sol = self.assert_not_above_the_barrier(*case, same_u=False)
        assert sol.u.tolist() == [u]
        assert sol.objective == 1.0


class TestSplitClosedForm:
    """A program whose outputs each move their own input splits into
    one-input programs, each solved in closed form. Held to the barrier on
    the same program, and each input to the one-input oracle of its output
    with every other input pinned."""

    @staticmethod
    def assert_exact(instance, belief, bounds):
        """``solve_robust`` splits the program and solves it exactly: its
        objective is never above the barrier's by more than rounding, each
        output's bound is the worst case at the returned input, and each
        moved output's input and bound are the oracle's. Returns the
        program's geometry."""
        geometry = geometry_of(instance, belief, bounds)
        assert geometry.split is not None
        free = np.flatnonzero(geometry.free)
        sol = solve_robust(instance, belief, bounds)
        assert sol.status == "optimal"
        assert sol.newton_iterations == 0
        TestSolveRobust.assert_z_is_the_interval_bound(instance, belief, sol)
        ref = barrier_solution(instance, belief, bounds)
        assert ref.status == "optimal"
        assert sol.objective - ref.objective <= 1e-12 * abs(ref.objective)
        for t, i in enumerate(geometry.split):
            if i is None:
                continue
            j = free[i]
            lower, upper = sol.u.copy(), sol.u.copy()
            lower[j], upper[j] = bounds.lower[j], bounds.upper[j]
            one = TrackingInstance(
                f=instance.f[t:t + 1], b0=instance.b0[t:t + 1],
                gx=instance.gx[t:t + 1], b_stack=instance.b_stack[:, t:t + 1],
                q_shape=instance.q_shape[t:t + 1, t:t + 1])
            u, value = oracles.robust_min_one_input(
                one, belief, ControlBounds(lower, upper))
            assert abs(sol.u[j] - u[j]) <= 1e-12 * (1.0 + abs(u[j]))
            assert abs(sol.z[t] - value) <= 1e-12 * value
        return geometry

    def test_replays_of_the_barrier(self):
        # Every sim3 solve of seeds 0-2. The barrier's input can be 4e-6
        # (1 + |u|) off on a flat output, so the inputs are held to the
        # oracle instead.
        for mode in experiments.MODES:
            for instance, belief, bounds, _ in recorded_solves("sim3", mode,
                                                               range(3)):
                geometry = self.assert_exact(instance, belief, bounds)
                assert geometry.split == [0, 1]

    def test_every_shipped_solve_is_exact(self):
        # A rounding-level slope where sim3 has an exact zero would stop a
        # program from splitting and send it to the barrier.
        for name in ("sim1", "sim2", "sim3"):
            for mode in experiments.MODES:
                for *_, sol in recorded_solves(name, mode, range(3)):
                    assert sol.status == "optimal"
                    assert sol.newton_iterations == 0

    @staticmethod
    def assert_reference_bits(instance, belief, bounds):
        """``_split`` through the geometry's held reduction returns the bits
        of ``oracles.split_reference``, which reduces from the rows."""
        geometry = geometry_of(instance, belief, bounds)
        assert geometry.split is not None
        got = robust._split(geometry, instance)
        ref = oracles.split_reference(geometry, instance)
        for held, reduced in zip(got, ref):
            assert np.array(held).tobytes() == np.array(reduced).tobytes()

    def test_every_recorded_solve_matches_the_per_step_reduction(self):
        # known_theta's point belief has zero columns (r = 0).
        for name in ("sim1", "sim2", "sim3"):
            for mode in experiments.MODES:
                for instance, belief, bounds, _ in recorded_solves(
                        name, mode, range(1)):
                    self.assert_reference_bits(instance, belief, bounds)

    @staticmethod
    def hand_built(b0, b_stack, lower, upper):
        """A program with the given slopes, a state block of one column, a
        dense belief and a box from ``lower`` to ``upper``."""
        b0, b_stack = np.array(b0), np.array(b_stack)
        l = b0.shape[0]
        p = 1 + b_stack.shape[0]
        rng = np.random.default_rng(23)
        instance = TrackingInstance(
            f=rng.normal(size=l), b0=b0, gx=rng.normal(size=(l, 1)),
            b_stack=b_stack, q_shape=0.01 * np.eye(l))
        belief = ParameterBelief(Ellipsoid(rng.normal(scale=0.3, size=p),
                                           oracles.random_spd(rng, p, 0.1)))
        return instance, belief, ControlBounds(lower, upper)

    # Output t moves input t alone, as in sim3.
    OWN = ([[1.0, 0.0], [0.0, 0.8]],
           [[[0.3, 0.0], [0.0, 0.2]], [[-0.1, 0.0], [0.0, 0.4]]])

    @pytest.mark.parametrize("b0, b_stack, lower, upper, split", [
        (*OWN, [-2.0, -2.0], [3.0, 3.0], [0, 1]),
        ([[0.0, 0.8], [1.0, 0.0]],
         [[[0.0, 0.2], [0.3, 0.0]], [[0.0, 0.4], [-0.1, 0.0]]],
         [-2.0, -2.0], [3.0, 3.0], [1, 0]),
        ([[1.0, 0.0], [0.0, 0.8], [0.0, 0.0]],
         [[[0.3, 0.0], [0.0, 0.2], [0.0, 0.0]],
          [[-0.1, 0.0], [0.0, 0.4], [0.0, 0.0]]],
         [-2.0, -2.0], [3.0, 3.0], [0, 1, None]),
        ([[1.0, 0.0, 0.5], [0.0, 0.8, -0.4]],
         [[[0.3, 0.0, 0.2], [0.0, 0.2, 0.1]],
          [[-0.1, 0.0, 0.3], [0.0, 0.4, -0.2]]],
         [-2.0, -2.0, 0.7], [3.0, 3.0, 0.7], [0, 1]),
        (*OWN, [-np.inf, -np.inf], [np.inf, np.inf], [0, 1]),
        (*OWN, [-np.inf, 1.0], [0.5, np.inf], [0, 1])],
        ids=["own-inputs", "permuted", "an-output-moves-none",
             "pinned-third-input", "open-box", "half-open-sides"])
    def test_hand_built_split(self, b0, b_stack, lower, upper, split):
        # Each moved output's column of Wm_t is reduced to one row; a
        # pinned input may move every output, and an output that moves no
        # input adds its constant bound.
        program = self.hand_built(b0, b_stack, lower, upper)
        geometry = self.assert_exact(*program)
        assert geometry.split == split
        self.assert_reference_bits(*program)

    @pytest.mark.parametrize("b0, b_stack", [
        ([[1.0, 0.5], [0.0, 0.8]], np.zeros((0, 2, 2))),
        ([[1.0, 0.0], [0.4, 0.0], [0.0, 0.8]], np.zeros((0, 3, 2))),
        ([[1.0, 0.0], [0.0, 0.8]], [[[0.3, 0.1], [0.0, 0.2]]])],
        ids=["an-output-moves-two", "an-input-moves-two",
             "coupled-through-the-belief"])
    def test_a_coupled_program_does_not_split(self, b0, b_stack):
        # Centered at 0, the belief leaves the slopes b0 alone, so in the
        # last program only Wm_0 couples the two inputs.
        instance, belief, bounds = self.hand_built(b0, b_stack, [-2.0, -2.0],
                                                   [3.0, 3.0])
        belief = ParameterBelief(Ellipsoid(np.zeros(belief.center.size),
                                           belief.shape))
        assert geometry_of(instance, belief, bounds).split is None
        sol = solve_robust(instance, belief, bounds)
        assert sol.status == "optimal" and sol.newton_iterations > 0


class TestBarrierKernel:
    """The solver's Newton step against the dense barrier of ``oracles``.

    :func:`solve_robust` runs the barrier only on a program that does not
    split; these tests run it on programs of every shape.
    """

    @staticmethod
    def programs(rng, n_cases, n_pinned=0, m=None, pinned_m=2, n_wide=0,
                 l=None):
        """``n_cases`` random programs with ``m`` inputs (one or two if
        None) and ``l`` outputs (one or two if None), then ``n_pinned`` with
        ``pinned_m`` inputs, one of them pinned at a point of its box, then
        ``n_wide`` with three inputs."""
        for k in range(n_cases + n_pinned):
            if k < n_cases:
                yield oracles.random_tracking_case(rng, l=l, m=m)
                continue
            instance, belief, bounds = oracles.random_tracking_case(
                rng, l=l, m=pinned_m)
            lo, hi = bounds.lower.copy(), bounds.upper.copy()
            j = int(rng.integers(pinned_m))
            lo[j] = hi[j] = rng.uniform(lo[j], hi[j])
            yield instance, belief, ControlBounds(lo, hi)
        for _ in range(n_wide):
            yield oracles.random_tracking_case(rng, m=3)

    @classmethod
    def interior_points(cls, rng, n_cases=20, n_pinned=0, n_wide=0):
        for case in cls.programs(rng, n_cases, n_pinned, n_wide=n_wide):
            yield cls.interior_point(rng, *case)

    @staticmethod
    def interior_point(rng, instance, belief, bounds):
        """``(instance, belief, bounds, u, z)`` at a random point strictly
        inside a program's box and cones."""
        lo, hi = bounds.lower, bounds.upper
        u = lo + (hi - lo) * rng.uniform(0.1, 0.9, size=lo.size)
        mid, rho, q = oracles.cone_terms(instance, belief, u)
        pad = rng.uniform(0.05, 2.0, size=mid.size)
        z = np.abs(mid) + np.sqrt(rho) + q + pad
        return instance, belief, bounds, u, z

    def test_dense_reference_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        for instance, belief, bounds, u, z in self.interior_points(rng, 5):
            x = np.concatenate([u, z])
            m = u.size

            def barrier(x):
                return oracles.robust_barrier(instance, belief, bounds,
                                              x[:m], x[m:], 3.0)

            _, grad, hess = barrier(x)
            h = 1e-5
            for i in range(x.size):
                e = np.zeros(x.size)
                e[i] = h
                fp, gp, _ = barrier(x + e)
                fm, gm, _ = barrier(x - e)
                assert_allclose((fp - fm) / (2 * h), grad[i],
                                rtol=1e-6, atol=1e-6)
                assert_allclose((gp - gm) / (2 * h), hess[:, i],
                                rtol=1e-5, atol=1e-5)

    @staticmethod
    def dense(instance, belief, bounds, u, z, t_b):
        """The dense Newton step and decrement over the program's free
        inputs and ``z``, at the full input ``u``: a pinned input keeps its
        value and has no box term. Solved in exact arithmetic and then
        rounded, as a float Hessian would carry the cancellation the barrier
        avoids.
        """
        free = free_inputs(instance, belief, bounds)
        open_box = ControlBounds(np.where(free, bounds.lower, -np.inf),
                                 np.where(free, bounds.upper, np.inf))
        _, grad, hess = oracles.robust_barrier(instance, belief, open_box,
                                               u, np.asarray(z), t_b,
                                               exact=True)
        keep = np.concatenate([free, np.ones(len(z), dtype=bool)])
        step = oracles.exact_solve(hess[np.ix_(keep, keep)], -grad[keep])
        return step.astype(float), float(-grad[keep] @ step)

    @classmethod
    def zero_radius_points(cls):
        """``(instance, belief, bounds, u, z)`` at a point with ``|w| = 0``
        of each hand-built program: ``u = 0`` of the one-input case and the
        two-input case's cold start, each with a far and a near ``z``. Both
        have one output and a row of ``Wm_t``, so the rows enter the Schur
        complement through the ``|w| = 0`` branch."""
        for case, start in (
                (cls.zero_radius_scalar_case(), lambda prog: [0.0]),
                (cls.zero_radius_case(), lambda prog: list(prog.u_cold))):
            prog = program(*case)
            u = start(prog)
            for pad in (1.0, 1e-3):
                z = prog.padded_z(u, pad)
                (cone,) = prog.evaluate(u, z)
                assert cone[5] == 0.0
                yield (*case, full_input(*case, u), np.array(z))

    def test_newton_step_matches_dense_reference(self):
        # Random interior points; points of seed 0's sim2 fixed programs,
        # whose one input meets three rows of Wm_t, and of its sim3 active
        # ones, where a zero row of Wm_t beside a nonzero offset c_t enters
        # the Schur complement as gamma w_i Wm^T w alone; and the two
        # hand-built starts where |w| = 0, the branch whose direction
        # e = w / |w| is undefined.
        rng = np.random.default_rng(12)
        points = list(self.interior_points(rng, n_pinned=10, n_wide=10))
        offsets = 0
        for name, mode in (("sim2", "fixed"), ("sim3", "active")):
            solves = recorded_solves(name, mode, [0])
            for instance, belief, bounds, _ in solves[::len(solves) // 5]:
                points.append(self.interior_point(rng, instance, belief,
                                                  bounds))
                offsets += sum(ci != 0.0 and not any(row)
                               for _, _, c, rt, _ in program(
                                   instance, belief, bounds)._rows
                               for ci, row in zip(c, rt))
        assert offsets > 0
        points += self.zero_radius_points()
        for instance, belief, bounds, u, z in points:
            prog = program(instance, belief, bounds)
            u_free = u[free_inputs(instance, belief, bounds)].tolist()
            cones = prog.evaluate(u_free, z.tolist())
            assert cones is not None
            for t_b in (1.0, 1e2, 1e4):
                du, dz, decrement = prog.newton_step(cones, u_free, t_b)
                ref, ref_dec = self.dense(instance, belief, bounds, u, z, t_b)
                step = np.concatenate([du, dz])
                assert np.linalg.norm(step - ref) <= 1e-8 * np.linalg.norm(ref)
                assert abs(decrement - ref_dec) <= 1e-8 * abs(ref_dec)

    @pytest.mark.parametrize("name, mode", [
        ("sim1", "learn"), ("sim2", "fixed"), ("sim3", "active")])
    def test_no_point_is_evaluated_twice_in_a_row(self, name, mode,
                                                  monkeypatch):
        # Each accepted point carries its cones to the next Newton step, so
        # no Newton step, in its stage or in the next, re-evaluates the
        # point the step before it accepted.
        solves = recorded_solves(name, mode, [0])
        points = []
        evaluate = robust._Barrier.evaluate

        def evaluate_recorded(self, u, z):
            points.append((tuple(u), tuple(z)))
            return evaluate(self, u, z)

        monkeypatch.setattr(robust._Barrier, "evaluate", evaluate_recorded)
        for instance, belief, bounds, _ in solves:
            points.clear()
            barrier_solution(instance, belief, bounds)
            assert len(points) > 1
            assert not any(a == b for a, b in zip(points, points[1:]))

    def test_each_stage_starts_at_the_center_before_it(self, monkeypatch):
        # The first stage centers from the cold start at weight 1; each
        # later one from the point and the cones the stage before it
        # returned, at BARRIER_GROWTH times its weight, and the stage whose
        # duality measure is below DUALITY_TARGET is the last.
        rng = np.random.default_rng(25)
        coupled = oracles.random_tracking_case(rng, l=2, m=2)
        assert geometry_of(*coupled).split is None
        cases = [solve[:3] for name, mode in (("sim1", "learn"),
                                              ("sim2", "fixed"),
                                              ("sim3", "active"))
                 for solve in recorded_solves(name, mode, [0])]
        calls = []
        center = robust._Barrier.center

        def recorded(self, u, z, cones, t_b, tol, max_iter):
            out = center(self, u, z, cones, t_b, tol, max_iter)
            calls.append(((u, z, cones, t_b), out))
            return out

        monkeypatch.setattr(robust._Barrier, "center", recorded)
        for instance, belief, bounds in [*cases, coupled]:
            calls.clear()
            prog = program(instance, belief, bounds)
            sol = barrier_solution(instance, belief, bounds)
            assert sol.status == "optimal"
            (u, z, cones, t_b), _ = calls[0]
            assert u == prog.u_cold
            assert z == prog.padded_z(prog.u_cold, 1.0)
            assert cones == prog.evaluate(u, z)
            assert t_b == 1.0
            for ((*_, t_prev), out), ((u, z, cones, t_b), _) in zip(
                    calls, calls[1:]):
                assert u is out[0] and z is out[1] and cones is out[2]
                assert t_b == BARRIER_GROWTH * t_prev
                assert prog.n_cons / t_prev >= DUALITY_TARGET
            assert prog.n_cons / calls[-1][0][3] < DUALITY_TARGET
            assert sum(out[3] for _, out in calls) == sol.newton_iterations

    @staticmethod
    def with_infinite_sides(rng, programs):
        """``programs`` with every fourth one's box opened to infinity on
        one side of a free input."""
        for k, (instance, belief, bounds) in enumerate(programs):
            if k % 4 == 0:
                lo, hi = bounds.lower.copy(), bounds.upper.copy()
                j = int(rng.choice(np.flatnonzero(lo < hi)))
                if rng.integers(2):
                    lo[j] = -np.inf
                else:
                    hi[j] = np.inf
                bounds = ControlBounds(lo, hi)
            yield instance, belief, bounds

    @staticmethod
    def zero_radius_scalar_case():
        """One output and one input with no slope at the belief center and
        ``|w| = 0`` at ``u = 0``; the box is asymmetric, so the u-gradient
        there is not zero and the pivot sets the step."""
        instance = TrackingInstance(
            f=np.array([0.5]), b0=np.array([[0.0]]), gx=np.zeros((1, 0)),
            b_stack=np.array([[[0.4]]]), q_shape=np.array([[0.1]]))
        belief = ParameterBelief(Ellipsoid([0.0], [[0.25]]))
        return instance, belief, ControlBounds([-1.0], [3.0])

    @staticmethod
    def zero_pivot_case():
        """Two outputs and two inputs, the second moving no cone and
        unbounded on both sides. Left free, it would leave the Schur
        complement a zero pivot at every point."""
        instance = TrackingInstance(
            f=np.array([0.5, -0.3]), b0=np.array([[1.0, 0.0], [0.4, 0.0]]),
            gx=np.array([[0.3], [-0.2]]), b_stack=np.zeros((0, 2, 2)),
            q_shape=np.array([[0.1, 0.0], [0.0, 0.05]]))
        belief = ParameterBelief(Ellipsoid([0.2], [[0.3]]))
        return instance, belief, ControlBounds([-2.0, -np.inf],
                                               [2.0, np.inf])

    @staticmethod
    def parallel_columns_case():
        """One output and two inputs with equal columns, unbounded: every
        input moves the cones, but along ``(1, -1)`` none does, so the
        ``L D L^T`` updates leave the second pivot 0 exactly."""
        instance = TrackingInstance(
            f=np.array([0.5]), b0=np.array([[1.0, 1.0]]),
            gx=np.array([[0.3]]), b_stack=np.zeros((0, 1, 2)),
            q_shape=np.array([[0.1]]))
        belief = ParameterBelief(Ellipsoid([0.2], [[0.3]]))
        return instance, belief, ControlBounds([-np.inf, -np.inf],
                                               [np.inf, np.inf])

    @staticmethod
    def zero_radius_case():
        """Two inputs whose slopes and whose one row of ``Wm_t`` are parallel,
        and ``|w| = 0`` at the cold start ``u = 0``."""
        instance = TrackingInstance(
            f=np.array([0.5]), b0=np.array([[1.0, 0.5]]),
            gx=np.zeros((1, 0)), b_stack=np.array([[[0.4, 0.2]]]),
            q_shape=np.array([[0.1]]))
        belief = ParameterBelief(Ellipsoid([0.3], [[0.25]]))
        return instance, belief, ControlBounds([-1.0, -1.0], [1.0, 1.0])

    @pytest.mark.parametrize("nf, l, kernel", [
        (1, 1, None), (1, 2, robust._Barrier),
        (2, 1, robust._Barrier), (2, 2, robust._Barrier),
        (3, 1, robust._Barrier), (3, 2, robust._Barrier)])
    def test_each_shape_runs_its_kernel(self, nf, l, kernel, monkeypatch):
        # nf free inputs, alone or beside one more input pinned by its box.
        # Every output of a random program moves every input, so only one
        # free input and one output split, and are solved in closed form,
        # by no kernel.
        built = []
        barrier = robust._Barrier

        def recording(geometry, instance):
            built.append(barrier(geometry, instance))
            return built[-1]

        monkeypatch.setattr(robust, "_Barrier", recording)
        rng = np.random.default_rng(21)
        for instance, belief, bounds in self.programs(rng, 3, 3, m=nf,
                                                      pinned_m=nf + 1, l=l):
            geometry = geometry_of(instance, belief, bounds)
            assert (geometry.nf, geometry.l) == (nf, l)
            assert (geometry.split is None) == (kernel is not None)
            built.clear()
            sol = solve_robust(instance, belief, bounds)
            assert [type(prog) for prog in built] == ([kernel] if kernel
                                                      else [])
            assert (sol.newton_iterations > 0) == (kernel is not None)

    @staticmethod
    def assert_scaled_gradient(step, gu, gz):
        """``step`` is ``(du, dz, decrement)`` of the fallback
        ``-(gu, gz) / (1 + |(gu, gz)|)``, formed here in numpy."""
        g = np.concatenate([gu, gz])
        ref = -g / (1.0 + np.linalg.norm(g))
        du, dz, decrement = step
        assert_allclose(np.concatenate([du, dz]), ref, rtol=1e-14, atol=0.0)
        assert_allclose(decrement, -g @ ref, rtol=1e-14, atol=0.0)

    def test_a_zero_pivot_takes_the_scaled_gradient_in_both_kernels(
            self, monkeypatch):
        # Equal input columns and no box term: no update reaches the second
        # pivot, so the barrier falls back to the scaled gradient, which
        # moves the two inputs alike. The gradient it scales is the
        # barrier's, held to the dense one in exact arithmetic. (The name
        # dates from a second, now deleted, barrier kernel for two free
        # inputs.)
        instance, belief, bounds = self.parallel_columns_case()
        prog = program(instance, belief, bounds)
        assert prog.nf == 2
        u = list(prog.u_cold)
        z = prog.padded_z(u, 1.0)
        cones = prog.evaluate(u, z)
        gradients = []
        scaled_gradient = robust._scaled_gradient

        def recorded(gu, gz):
            gradients.append((gu, gz))
            return scaled_gradient(gu, gz)

        monkeypatch.setattr(robust, "_scaled_gradient", recorded)
        for t_b in (1.0, 1e2):
            gradients.clear()
            step = prog.newton_step(cones, u, t_b)
            ((gu, gz),) = gradients
            _, grad, _ = oracles.robust_barrier(instance, belief, bounds,
                                                np.array(u), np.array(z), t_b,
                                                exact=True)
            assert_allclose(gu + gz, grad.astype(float), rtol=1e-12,
                            atol=1e-15)
            self.assert_scaled_gradient(step, gu, gz)
            (du0, du1), _, decrement = step
            assert du0 == du1 != 0.0
            assert decrement > 0.0

    def test_no_recorded_solve_takes_the_zero_pivot_fallback(self,
                                                            monkeypatch):
        # Every Newton step of every closed-loop solve of sim1-sim3, in
        # every mode, has nonzero pivots: the scaled-gradient fallback is
        # for degenerate programs alone.
        steps, fallbacks = [0], [0]
        newton_step = robust._Barrier.newton_step
        scaled_gradient = robust._scaled_gradient

        def counted(self, cones, u, t_b):
            steps[0] += 1
            return newton_step(self, cones, u, t_b)

        def fallback(gu, gz):
            fallbacks[0] += 1
            return scaled_gradient(gu, gz)

        monkeypatch.setattr(robust._Barrier, "newton_step", counted)
        monkeypatch.setattr(robust, "_scaled_gradient", fallback)
        for name in ("sim1", "sim2", "sim3"):
            for mode in experiments.MODES:
                for instance, belief, bounds, _ in recorded_solves(
                        name, mode, range(3)):
                    assert barrier_solution(
                        instance, belief, bounds).status == "optimal"
        assert steps[0] > 0
        assert fallbacks[0] == 0

    def test_points_outside_the_cones_are_rejected(self):
        rng = np.random.default_rng(13)
        for instance, belief, bounds, u, z in self.interior_points(rng, 5, 3,
                                                                   n_wide=3):
            prog = program(instance, belief, bounds)
            mid, rho, q = oracles.cone_terms(instance, belief, u)
            edge = np.abs(mid) + np.sqrt(rho) + q
            free = free_inputs(instance, belief, bounds)
            u = u[free]
            assert prog.evaluate(u.tolist(), (edge - 1e-9).tolist()) is None
            outside = u.copy()
            outside[0] = bounds.upper[free][0] + 1e-9
            assert prog.evaluate(outside.tolist(), z.tolist()) is None

    def test_a_step_no_halving_brings_inside_is_not_taken(self):
        # 1e300 halved 40 times is still about 1e288: every trial leaves the
        # box, so advance returns the given point, unmoved.
        rng = np.random.default_rng(13)
        for instance, belief, bounds, u, z in self.interior_points(rng, 5, 3,
                                                                   n_wide=3):
            prog = program(instance, belief, bounds)
            free = free_inputs(instance, belief, bounds)
            u, z = u[free].tolist(), z.tolist()
            cones = prog.evaluate(u, z)
            out = prog.advance(u, z, cones, [1.0] * prog.nf, [0.0] * prog.l,
                               1e300)
            assert out[0] is u and out[1] is z and out[2] is cones
            assert out[3] is False

    @staticmethod
    def stuck_from(n):
        """``_Barrier.advance``, with the ``n``-th and later steps scaled by
        1e300 so that they cannot move."""
        advance, calls = robust._Barrier.advance, [0]

        def stuck(self, u, z, cones, du, dz, alpha):
            calls[0] += 1
            return advance(self, u, z, cones, du, dz,
                           1e300 if calls[0] >= n else alpha)
        return stuck

    @pytest.mark.parametrize("n", [1, 3])
    def test_a_center_that_cannot_move_stops_unconverged(self, monkeypatch,
                                                         n):
        rng = np.random.default_rng(13)
        for instance, belief, bounds, u, z in self.interior_points(rng, 5, 3,
                                                                   n_wide=3):
            prog = program(instance, belief, bounds)
            monkeypatch.setattr(robust._Barrier, "advance", self.stuck_from(n))
            free = free_inputs(instance, belief, bounds)
            u, z = u[free].tolist(), z.tolist()
            *_, iterations, converged = prog.center(
                u, z, prog.evaluate(u, z), 1.0, 0.0, 50)
            monkeypatch.undo()
            assert converged is False
            assert iterations == n

    def test_a_solve_that_cannot_move_reports_max_iter(self, monkeypatch):
        monkeypatch.setattr(robust._Barrier, "advance", self.stuck_from(1))
        rng = np.random.default_rng(13)
        for instance, belief, bounds in self.programs(rng, 5, 3, n_wide=3):
            prog = program(instance, belief, bounds)
            sol = barrier_solution(instance, belief, bounds)
            assert sol.status == "max_iter"
            assert sol.u[free_inputs(instance, belief,
                                     bounds)].tolist() == prog.u_cold


class TestProgramGeometry:
    """A program's step-independent geometry is built once per belief, box
    and model constants, and a reused one gives the program a fresh build
    gives."""

    @staticmethod
    def flat_rows(prog):
        """Every float of a program's per-output cone data, in order."""
        out = []
        for m0, a, c, rt, q in prog._rows:
            out += [m0, *np.ravel(a), *np.ravel(c), *np.ravel(rt), q]
        return np.array(out)

    @staticmethod
    def assert_same_solution(sol, ref):
        np.testing.assert_array_equal(sol.u, ref.u)
        np.testing.assert_array_equal(sol.z, ref.z)
        assert sol.newton_iterations == ref.newton_iterations

    @staticmethod
    def cold_solve(instance, belief, bounds, solve=solve_robust):
        robust._geometry.clear()
        return solve(instance, belief, bounds)

    @pytest.mark.parametrize("name, mode", [
        ("sim1", "learn"), ("sim2", "fixed"), ("sim3", "active")])
    def test_reused_geometry_equals_a_cold_build(self, name, mode, monkeypatch):
        # Replayed in order, each program finds held the geometry an earlier
        # step of the same belief built at another state. Each is solved as
        # solve_robust does (in closed form) and by the barrier.
        solves = recorded_solves(name, mode, [0])
        solvers = (solve_robust, barrier_solution)
        builds = counted_geometry_builds(monkeypatch)
        hits = 0
        for instance, belief, bounds, _ in solves:
            before = builds[0]
            warm = program(instance, belief, bounds)
            hits += builds[0] == before
            warm_sols = [solve(instance, belief, bounds) for solve in solvers]
            assert warm_sols[1].newton_iterations > 0
            robust._geometry.clear()
            cold = program(instance, belief, bounds)
            assert [np.shape(row[3]) for row in warm._rows] == \
                [np.shape(row[3]) for row in cold._rows]
            assert_allclose(self.flat_rows(warm), self.flat_rows(cold),
                            rtol=1e-12, atol=0.0)
            for solve, warm_sol in zip(solvers, warm_sols):
                self.assert_same_solution(
                    warm_sol, self.cold_solve(instance, belief, bounds, solve))
        assert hits >= len(solves) // 2

    def test_model_constants_are_keyed_by_value(self):
        # The geometry is held by the identity of read-only constants
        # alone, so the same belief and box with other b0 or
        # b_stack values, or with a writable table changed in place between
        # solves, never reuse the geometry of the constants held before.
        spec, instance, belief = sim3_case()
        bounds = spec.bounds
        base = solve_robust(instance, belief, bounds)
        for field in ("b0", "b_stack"):
            other = dataclasses.replace(
                instance, **{field: 1.25 * getattr(instance, field)})
            solve_robust(instance, belief, bounds)
            sol = solve_robust(other, belief, bounds)
            assert not np.array_equal(sol.u, base.u)
            self.assert_same_solution(
                sol, self.cold_solve(other, belief, bounds))
        for field in ("b0", "b_stack"):
            table = getattr(instance, field).copy()
            mutable = dataclasses.replace(instance, **{field: table})
            before = solve_robust(mutable, belief, bounds)
            self.assert_same_solution(before, base)
            table *= 1.25
            sol = solve_robust(mutable, belief, bounds)
            assert not np.array_equal(sol.u, base.u)
            self.assert_same_solution(
                sol, self.cold_solve(mutable, belief, bounds))

    def test_a_writable_copy_of_the_constants_is_built_afresh(self,
                                                              monkeypatch):
        # A writable copy of a held constant, equal in every value, could
        # change while held: it gets a fresh build on every solve, and the
        # geometry of the read-only constants stays held.
        spec, instance, belief = sim3_case()
        bounds = spec.bounds
        base = solve_robust(instance, belief, bounds)
        builds = counted_geometry_builds(monkeypatch)
        held = geometry_of(instance, belief, bounds)
        assert builds[0] == 0
        for field in ("b0", "b_stack", "q_shape"):
            copy = dataclasses.replace(
                instance, **{field: getattr(instance, field).copy()})
            builds[0] = 0
            for _ in range(2):
                self.assert_same_solution(solve_robust(copy, belief, bounds),
                                          base)
            assert builds[0] == 2
            assert geometry_of(instance, belief, bounds) is held
            assert builds[0] == 2
        builds[0] = 0
        self.assert_same_solution(solve_robust(instance, belief, bounds), base)
        assert builds[0] == 0

    @staticmethod
    def geometry_builds(monkeypatch, spec, mode):
        """:class:`robust._Geometry` builds of one run (seed 0) with nothing
        held before it."""
        robust._geometry.clear()
        builds = counted_geometry_builds(monkeypatch)
        record = run(spec, mode, 0)
        assert not record.aborted
        return builds[0], record

    @pytest.mark.parametrize("mode", ["fixed", "known_theta"])
    def test_a_fixed_belief_builds_one_geometry_per_run(self, mode,
                                                        monkeypatch):
        calls, record = self.geometry_builds(monkeypatch, scenario("sim2"),
                                             mode)
        assert record.steps == 100
        assert calls == 1

    @pytest.mark.parametrize("name, mode", [
        ("sim1", "learn"), ("sim3", "active")])
    def test_a_learning_run_builds_once_per_new_belief(self, name, mode,
                                                       monkeypatch):
        # Only an update that shrinks the set (rho > 0) makes a new belief;
        # one that keeps the prior leaves the held geometry valid.
        calls, record = self.geometry_builds(monkeypatch, scenario(name),
                                             mode)
        shrinks = int(np.count_nonzero(record.rho > 0.0))
        assert 1 < calls <= 1 + shrinks < record.steps


class TestSolverContract:
    def test_schedule_constants(self):
        assert BARRIER_GROWTH == 10.0
        assert DUALITY_TARGET == 1e-8

    def test_solution_reports_iteration_count(self):
        # sim1 is solved in closed form, with no iterations; the barrier
        # counts its own on the same program.
        _, instance, belief = sim1_case()
        bounds = ControlBounds([-25.0], [25.0])
        sol = solve_robust(instance, belief, bounds)
        assert isinstance(sol, RobustSolution)
        assert sol.newton_iterations == 0
        assert barrier_solution(instance, belief,
                                bounds).newton_iterations > 0
