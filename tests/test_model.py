"""Tests for the affinely parameterized plant and the sim3 discretization."""

from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm

from smtrack.active import InfoQuadratic
from smtrack.ellipsoid import Ellipsoid
from smtrack.estimator import Observation
from smtrack.experiments import scenario, sim3_continuous
from smtrack.model import UncertainModel
from smtrack.robust import ControlBounds


def two_state_model():
    """Small two-state plant with one uncertain direction in A and B."""
    return UncertainModel(
        a0=[[0.9, 0.1], [0.0, 0.8]],
        a_perturbations=([[0.1, 0.0], [0.0, 0.2]],),
        b0=[[1.0], [0.5]],
        b_perturbations=([[0.3], [-0.1]],),
        c=[[1.0, 0.0]],
        r_shape=0.01 * np.eye(2),
    )


class TestConstruction:
    def test_dimensions(self):
        model = two_state_model()
        assert (model.n, model.m, model.l, model.r, model.s, model.p) == (
            2, 1, 1, 1, 1, 2)

    def test_flat_input_vector_promoted_to_column(self):
        model = scenario("sim1").model
        assert model.b0.shape == (3, 1)
        assert model.b_perturbations[0].shape == (3, 1)

    def test_matrices_are_frozen(self):
        model = two_state_model()
        with pytest.raises(ValueError):
            model.a0[0, 0] = 2.0

    def test_regressor_tables(self):
        model = two_state_model()
        for table, out in ((model.state, np.eye(2)), (model.tracked, model.c)):
            assert_allclose(table.a0, out @ model.a0)
            assert_allclose(table.b0, out @ model.b0)
            assert_allclose(table.a_stack, [out @ a for a in model.a_perturbations])
            assert_allclose(table.b_stack, [out @ b for b in model.b_perturbations])
            assert_allclose(table.q, out @ model.r_shape @ out.T)
            for arr in (table.a0, table.b0, table.a_stack, table.b_stack, table.q):
                assert not arr.flags.writeable
        x, u = np.array([1.0, -2.0]), np.array([0.5])
        assert_allclose(model.tracked.phi(x, u), [[0.1, 0.15]])
        assert model.state.phi(x, u).shape == (2, 2)

    def test_empty_perturbations_give_empty_stacks(self):
        model = UncertainModel(a0=np.eye(2), a_perturbations=(), b0=np.ones((2, 1)),
                               b_perturbations=(), c=np.ones((1, 2)), r_shape=np.eye(2))
        assert model.tracked.a_stack.shape == (0, 1, 2)
        assert model.tracked.b_stack.shape == (0, 1, 1)
        assert model.state.phi(np.ones(2), np.ones(1)).shape == (2, 0)

    def test_mismatched_perturbation_rejected(self):
        with pytest.raises(ValueError, match="a_perturbations"):
            UncertainModel(
                a0=np.eye(2), a_perturbations=(np.eye(3),),
                b0=np.ones((2, 1)), b_perturbations=(),
                c=np.ones((1, 2)), r_shape=np.eye(2))

    def test_mismatched_output_map_rejected(self):
        with pytest.raises(ValueError, match="c"):
            UncertainModel(
                a0=np.eye(2), a_perturbations=(),
                b0=np.ones((2, 1)), b_perturbations=(),
                c=np.ones((1, 3)), r_shape=np.eye(2))

    def test_disturbance_set_is_centered(self):
        model = two_state_model()
        dset = model.disturbance_set()
        assert_allclose(dset.center, np.zeros(2))
        assert_allclose(dset.shape, 0.01 * np.eye(2))

    def test_disturbance_set_is_built_once(self):
        model = two_state_model()
        assert model.disturbance_set() is model.disturbance_set()

    def test_indefinite_disturbance_shape_rejected(self):
        with pytest.raises(ValueError, match="r_shape must be symmetric PSD"):
            UncertainModel(
                a0=np.eye(2), a_perturbations=(),
                b0=np.ones((2, 1)), b_perturbations=(),
                c=np.ones((1, 2)), r_shape=np.diag([0.5, -0.5]))


every_frozen_class = pytest.mark.parametrize("build", [
    lambda v, mat: Ellipsoid(v, mat),
    lambda v, mat: UncertainModel(mat, (mat,), v[:, None], (v[:, None],), v[None, :], mat),
    lambda v, mat: Observation(v, mat, mat),
    lambda v, mat: InfoQuadratic(mat, v, 0.0),
    lambda v, mat: ControlBounds(v, v + 1.0),
], ids=["Ellipsoid", "UncertainModel", "Observation", "InfoQuadratic", "ControlBounds"])


@every_frozen_class
def test_constructors_leave_the_callers_arrays_writable(build):
    v, mat = np.zeros(2), np.eye(2)
    obj = build(v, mat)
    assert v.flags.writeable and mat.flags.writeable
    for value in vars(obj).values():
        if isinstance(value, np.ndarray):
            assert not value.flags.writeable


@every_frozen_class
def test_instances_compare_by_value(build):
    v, mat = np.array([0.5, 0.25]), np.array([[2.0, 0.5], [0.5, 1.0]])
    first, second = build(v, mat), build(v.copy(), mat.copy())
    assert first is not second
    assert first == second and not first != second
    changed = v.copy()
    changed[1] = 0.75
    assert build(changed, mat) != first
    assert first != "something else"


def test_models_with_one_changed_entry_differ():
    model = two_state_model()
    assert model == two_state_model()
    a0 = model.a0.copy()
    a0[1, 0] = 1e-3
    assert replace(model, a0=a0) != model
    perturbation = model.a_perturbations[0].copy()
    perturbation[0, 1] = 1e-3
    assert replace(model, a_perturbations=(perturbation,)) != model
    assert replace(model, a_perturbations=()) != model


class TestAssemble:
    def test_zero_theta_returns_nominal(self):
        model = two_state_model()
        a, b = model.assemble(np.zeros(2))
        assert_allclose(a, model.a0)
        assert_allclose(b, model.b0)

    def test_input_column_hand_case(self):
        model = scenario("sim1").model
        _, b = model.assemble([0.2, 0.1])
        assert_allclose(b.ravel(), [-0.79, 0.63, -0.47])

    def test_aircraft_pitch_entry(self):
        spec = scenario("sim3")
        a, _ = spec.model.assemble(spec.theta_true)
        assert_allclose(a[0, 0], 0.9962 + 0.5 * 0.09962)

    def test_affine_in_theta(self):
        rng = np.random.default_rng(21)
        model = two_state_model()
        ta, tb = rng.normal(size=2), rng.normal(size=2)
        a_mid, b_mid = model.assemble(0.5 * (ta + tb))
        a1, b1 = model.assemble(ta)
        a2, b2 = model.assemble(tb)
        assert_allclose(a_mid, 0.5 * (a1 + a2), atol=1e-14)
        assert_allclose(b_mid, 0.5 * (b1 + b2), atol=1e-14)

    def test_wrong_theta_size_rejected(self):
        with pytest.raises(ValueError, match="theta"):
            two_state_model().assemble([1.0])

    def test_result_is_read_only(self):
        a, b = two_state_model().assemble([0.3, -0.2])
        assert not a.flags.writeable and not b.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0] = 1.0

    def test_alternating_parameters_step_as_a_fresh_model(self):
        # The model keeps the last (A, B) only of a read-only theta, by
        # identity: alternating two parameters, written in place into one
        # writable array, steps exactly as a model that has never stepped.
        model = two_state_model()
        rng = np.random.default_rng(23)
        thetas = rng.normal(size=(2, 2))
        x, u, omega = rng.normal(size=2), rng.normal(size=1), rng.normal(size=2)
        theta = np.empty(2)
        for k in range(6):
            theta[:] = thetas[k % 2]
            got = model.step(x, u, theta, omega)
            want = two_state_model().step(x, u, theta.copy(), omega)
            assert all(map(np.array_equal, got, want))

    def test_a_read_only_parameter_is_held_by_identity(self):
        # The scenario's true parameter is read-only, so every closed-loop
        # step reuses its (A, B); an equal writable copy is assembled afresh
        # and leaves the held pair in place, and so does a keyword call.
        spec = scenario("sim1")
        model = spec.model
        pair = model.assemble(spec.theta_true)
        assert model.assemble(spec.theta_true) is pair
        fresh = model.assemble(spec.theta_true.copy())
        assert fresh is not pair and all(map(np.array_equal, fresh, pair))
        by_keyword = model.assemble(theta=spec.theta_true)
        assert by_keyword is not pair and all(map(np.array_equal, by_keyword, pair))
        assert model.assemble(spec.theta_true) is pair
        other = scenario("sim1").model
        assert other.assemble(spec.theta_true) is not pair


class TestStep:
    def test_zero_state_reduces_to_input_map(self):
        model = two_state_model()
        x_next, _ = model.step(np.zeros(2), [2.0], np.zeros(2), np.zeros(2))
        assert_allclose(x_next, 2.0 * model.b0.ravel())

    def test_hand_case(self):
        model = scenario("sim1").model
        x_next, y_next = model.step([1.0, 1.0, 1.0], [0.0], np.zeros(2),
                                    np.zeros(3))
        assert_allclose(x_next, [1.0, 1.0, 0.3], atol=1e-15)
        assert_allclose(y_next, [1.63])

    def test_superposition(self):
        rng = np.random.default_rng(4)
        model = two_state_model()
        theta = rng.normal(size=2)
        x1, x2 = rng.normal(size=(2, 2))
        u1, u2 = rng.normal(size=(2, 1))
        w1, w2 = rng.normal(size=(2, 2))
        lhs, _ = model.step(x1 + x2, u1 + u2, theta, w1 + w2)
        a1, _ = model.step(x1, u1, theta, w1)
        a2, _ = model.step(x2, u2, theta, w2)
        # One nominal-response copy is double counted when splitting the step.
        assert_allclose(lhs, a1 + a2 - model.step(np.zeros(2), [0.0], theta,
                                                  np.zeros(2))[0], atol=1e-12)

    def test_dimension_checks(self):
        model = two_state_model()
        with pytest.raises(ValueError):
            model.step([1.0], [0.0], np.zeros(2), np.zeros(2))
        with pytest.raises(ValueError):
            model.step(np.zeros(2), [0.0, 1.0], np.zeros(2), np.zeros(2))

    def test_output_map(self):
        model = scenario("sim1").model
        assert_allclose(model.output([1.0, 1.0, 0.3]), [1.63])


class TestSim3Discretization:
    def test_exact_zero_order_hold_differs_in_the_fast_entries(self):
        # The sim3 tables are one forward-Euler step (criterion 1). The exact
        # zero-order hold of the same dynamics, expm(Ac dt), is not: it
        # differs by up to 6.7e-2, in the velocity row's coupling entries.
        ac, _, dt = sim3_continuous()
        a0 = scenario("sim3").model.a0
        assert_allclose(np.eye(4) + dt * ac, a0, rtol=0.0, atol=1e-12)
        deviation = np.abs(expm(ac * dt) - a0)
        assert 0.066 < deviation.max() < 0.067
        assert np.argwhere(deviation > 1e-2).tolist() == [[0, 1], [0, 2]]
