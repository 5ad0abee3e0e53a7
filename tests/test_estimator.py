"""Tests for the recursive set-membership parameter estimator."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import oracles
from smtrack import checks, estimator
from smtrack.ellipsoid import (Ellipsoid, _Fusion, intersection_bound,
                               minkowski_sum_bound)
from smtrack.estimator import (
    InconsistentObservationError,
    Observation,
    ParameterBelief,
    build_observation,
    build_state_observation,
    innovation_ellipsoid,
    update,
)
from smtrack.experiments import scenario


def scalar_belief(center, radius_sq):
    return ParameterBelief(Ellipsoid([center], [[radius_sq]]))


def interval_obs(center, radius_sq):
    """Scalar identity-regressor observation, the interval set itself."""
    return Observation([center], [[1.0]], [[radius_sq]])


class TestObservation:
    def test_field_validation(self):
        with pytest.raises(ValueError, match="rows"):
            Observation([1.0, 2.0], [[1.0]], [[1.0]])
        with pytest.raises(ValueError, match="q_shape"):
            Observation([1.0], [[1.0]], np.eye(2))

    def test_arrays_are_frozen(self):
        obs = interval_obs(0.0, 1.0)
        with pytest.raises(ValueError):
            obs.h[0] = 2.0


class TestBuildObservation:
    def test_zero_signals_give_zero_observation(self):
        model = scenario("sim1").model
        obs = build_observation(model, np.zeros(3), [0.0], [0.0])
        assert_allclose(obs.h, [0.0])
        assert obs.phi.shape == (1, 2)
        assert_allclose(obs.phi, 0.0)

    def test_noise_shape_is_projected_disturbance(self):
        model = scenario("sim1").model
        obs = build_observation(model, np.zeros(3), [0.0], [0.0])
        assert_allclose(obs.q_shape, [[1.05]])

    def test_first_input_direction_invisible_through_output(self):
        # C annihilates the first input perturbation column for every u.
        model = scenario("sim1").model
        for u in (1.0, 2.0):
            obs = build_observation(model, np.zeros(3), [u], [0.0])
            assert abs(obs.phi[0, 0]) < 1e-15 * abs(u)
            assert abs(obs.phi[0, 1]) > 0.1 * abs(u)

    def test_residual_removes_nominal_response(self):
        model = scenario("sim1").model
        rng = np.random.default_rng(2)
        x = rng.normal(size=3)
        u = rng.normal(size=1)
        x_nom = model.a0 @ x + model.b0 @ u
        obs = build_observation(model, x, u, model.c @ x_nom)
        assert_allclose(obs.h, [0.0], atol=1e-12)


class TestBuildStateObservation:
    def test_fields(self):
        model = scenario("sim1").model
        rng = np.random.default_rng(3)
        x = rng.normal(size=3)
        u = rng.normal(size=1)
        x_next = rng.normal(size=3)
        obs = build_state_observation(model, x, u, x_next)
        assert_allclose(obs.h, x_next - model.a0 @ x - model.b0 @ u)
        assert obs.phi.shape == (3, 2)
        assert_allclose(obs.phi[:, 0], model.b_perturbations[0].ravel() * u)
        assert_allclose(obs.phi[:, 1], model.b_perturbations[1].ravel() * u)
        assert_allclose(obs.q_shape, model.r_shape)

    def test_observation_is_exact_at_true_parameters(self):
        model = scenario("sim1").model
        rng = np.random.default_rng(4)
        theta = np.array([0.2, 0.1])
        x = rng.normal(size=3)
        u = rng.normal(size=1)
        x_next, _ = model.step(x, u, theta, np.zeros(3))
        obs = build_state_observation(model, x, u, x_next)
        assert_allclose(obs.phi @ theta, obs.h, atol=1e-12)


class TestUpdate:
    def test_touching_intervals_collapse_to_the_common_point(self):
        # [-2, 2] fused with [2, 4] leaves only the point 2.
        out = update(scalar_belief(0.0, 4.0), interval_obs(3.0, 1.0))
        assert_allclose(out.center, [2.0], atol=1e-6)
        assert_allclose(out.shape, [[0.0]], atol=1e-6)
        assert_allclose(out.last_rho, 0.5, rtol=1e-6)
        assert out.last_beta <= 1e-9

    def test_uninformative_observation_keeps_the_prior(self):
        # [-2, 2] fused with [-3, 3]: the posterior shape 36(1+rho)/(4rho+9)
        # rises from 4 for every rho > 0, so only the prior anchor is minimal.
        belief = scalar_belief(0.0, 4.0)
        out = update(belief, interval_obs(0.0, 9.0))
        assert out.set is belief.set
        assert out.last_rho == 0.0
        assert out.last_beta == 1.0
        assert not out.skipped

    def test_tighter_observation_set_is_the_posterior(self):
        # [-2, 2] fused with [-1, 1]: the posterior shape 4(1+rho)/(4rho+1)
        # falls monotonically to 1 with no stationary point, so the bracket's
        # upper end, the observation set itself, is the tightest bound.
        belief = scalar_belief(0.0, 4.0)
        out = update(belief, interval_obs(0.0, 1.0))
        assert_allclose(out.shape, [[1.0]], atol=1e-6)
        assert_allclose(out.center, [0.0], atol=1e-12)
        assert out.set.log_det < belief.set.log_det
        assert out.last_rho > 0.0
        assert not out.skipped

    def test_partial_direction_shrinks_volume(self):
        # Observing only the first coordinate still tightens both axes.
        belief = ParameterBelief(Ellipsoid(np.zeros(2), np.diag([4.0, 1.0])))
        obs = Observation([0.0], [[1.0, 0.0]], [[1.0]])
        out = update(belief, obs)
        assert_allclose(out.last_rho, 0.5, rtol=1e-9)
        assert_allclose(out.center, np.zeros(2), atol=1e-12)
        assert_allclose(out.shape, np.diag([2.0, 1.5]), rtol=1e-9)
        assert out.set.log_det < belief.set.log_det

    def test_volume_never_grows(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            p = rng.uniform(0.5, 5.0)
            belief = scalar_belief(0.0, p)
            h = rng.uniform(-0.9 * np.sqrt(p), 0.9 * np.sqrt(p))
            out = update(belief, interval_obs(h, rng.uniform(0.1, 4.0)))
            assert out.set.log_det <= belief.set.log_det + 1e-9

    def test_disjoint_observation_raises(self):
        with pytest.raises(InconsistentObservationError):
            update(scalar_belief(0.0, 4.0), interval_obs(10.0, 1.0))

    def test_disjoint_observation_skipped_on_request(self):
        belief = scalar_belief(0.0, 4.0)
        out = update(belief, interval_obs(10.0, 1.0), policy="skip")
        assert out.skipped
        assert out.set is belief.set
        assert out.last_rho == 0.0

    def test_invalid_policy(self):
        with pytest.raises(ValueError, match="policy"):
            update(scalar_belief(0.0, 1.0), interval_obs(0.0, 1.0),
                   policy="ignore")

    def test_regressor_width_checked(self):
        obs = Observation([0.0], [[1.0, 0.0]], [[1.0]])
        with pytest.raises(ValueError, match="columns"):
            update(scalar_belief(0.0, 1.0), obs)

    def test_matches_generic_fusion_for_invertible_regressor(self):
        # With a square regressor the observation is itself an ellipsoid and
        # the gain-form update must agree with fusing the two sets directly.
        rng = np.random.default_rng(17)
        informative = 0
        for _ in range(30):
            m = rng.normal(size=(2, 2))
            prior = Ellipsoid(rng.normal(size=2), m @ m.T + 0.3 * np.eye(2))
            phi = rng.normal(size=(2, 2)) + 2.0 * np.eye(2)
            q = np.diag(rng.uniform(0.2, 1.0, size=2))
            theta_probe = prior.sample_interior(rng)
            h = phi @ theta_probe
            out = update(ParameterBelief(prior), Observation(h, phi, q))
            if out.last_rho == 0.0:
                continue
            informative += 1
            phi_inv = np.linalg.inv(phi)
            obs_set = Ellipsoid(phi_inv @ h, phi_inv @ q @ phi_inv.T)
            fused, beta = intersection_bound(prior, obs_set, out.last_rho)
            assert_allclose(out.center, fused.center, atol=1e-8)
            assert_allclose(out.shape, fused.shape, atol=1e-8)
            assert_allclose(out.last_beta, beta, atol=1e-8)
        assert informative >= 5


# (rows, dim, rank of phi): fewer rows than parameters, more rows, and
# rank-deficient regressors.
KERNEL_CASES = [(1, 3, None), (2, 4, None), (3, 2, None), (4, 2, None),
                (3, 3, 1), (4, 3, 2)]


class TestFusionKernel:
    """The closed-form kernel against the dense gain form in ``oracles``."""

    @pytest.mark.parametrize("rows,dim,rank", KERNEL_CASES)
    def test_members_match_the_dense_gain_form(self, rows, dim, rank):
        rng = np.random.default_rng(31 + 7 * rows + dim)
        for _ in range(10):
            prior, phi, q, h, _ = oracles.random_fusion_case(rng, rows, dim, rank)
            fusion = _Fusion(prior, phi, q, h)
            for rho in (1e-3, 1.0, 1e3):
                beta = fusion.at(rho)[0]
                post = fusion.posterior(rho, beta)
                center, shape, beta_ref = oracles.gain_form_posterior(
                    prior, phi, q, h, rho)
                assert abs(beta - beta_ref) <= 1e-8 * abs(beta_ref)
                assert_allclose(post.center, center, rtol=0,
                                atol=1e-8 * np.abs(center).max())
                assert_allclose(post.shape, shape, rtol=0,
                                atol=1e-8 * np.abs(shape).max())

    @pytest.mark.parametrize("rows,dim,rank", KERNEL_CASES)
    def test_chosen_posterior_beats_a_dense_grid(self, rows, dim, rank):
        rng = np.random.default_rng(53 + 7 * rows + dim)
        for _ in range(4):
            prior, phi, q, h, theta = oracles.random_fusion_case(rng, rows, dim, rank)
            out = update(ParameterBelief(prior), Observation(h, phi, q))
            grid_best = prior.log_det
            for rho in np.geomspace(1e-10, 1e8, 1500):
                _, shape, beta = oracles.gain_form_posterior(prior, phi, q, h, rho)
                sign, log_det = np.linalg.slogdet(shape)
                if beta > 0.0 and sign > 0:
                    grid_best = min(grid_best, log_det)
            assert out.set.log_det <= grid_best + 1e-6
            assert out.set.contains(theta, tol=1e-7)

    @pytest.mark.parametrize("rows,dim,rank", KERNEL_CASES)
    def test_observation_set_limit_is_psd_without_clipping(self, rows, dim, rank):
        rng = np.random.default_rng(71 + 7 * rows + dim)
        for _ in range(10):
            prior, phi, q, h, _ = oracles.random_fusion_case(rng, rows, dim, rank)
            fusion = _Fusion(prior, phi, q, h)
            beta = fusion.at(1e8)[0]
            shape = fusion.posterior(1e8, beta).shape
            np.linalg.cholesky(shape)  # positive definite as built
            closed = prior.log_det + fusion.log_det_change(1e8, beta)
            # Rounding the stored matrix moves its log det by up to about
            # dim * eps * cond (2e-6 at dim 4, cond 1e9): slogdet's slack.
            slack = 2 * dim * np.finfo(float).eps * np.linalg.cond(shape)
            assert abs(closed - np.linalg.slogdet(shape)[1]) <= 1e-6 + slack

    def test_noise_free_direction(self):
        # A singular noise shape: one combination of the rows is observed
        # exactly. The kernel factors Q with a 1e-13 (1 + tr Q) ridge, so the
        # posterior is flat along that row to rounding (width ratio below
        # 1e-5) with a finite log det, about 30 below the prior's after one
        # update, rather than exactly degenerate.
        rng = np.random.default_rng(89)
        for _ in range(6):
            prior, phi, q, h, theta = oracles.random_fusion_case(rng, 2, 3)
            vals, vecs = np.linalg.eigh(q)
            q = vecs @ np.diag([0.0, vals[1]]) @ vecs.T
            row = vecs[:, 0] @ phi
            belief = ParameterBelief(prior)
            for step in range(5):
                noise = 0.9 * Ellipsoid(np.zeros(2), q).sample_interior(rng)
                out = update(belief, Observation(phi @ theta + noise, phi, q))
                assert out.set.contains(theta, tol=1e-7)
                assert out.set.log_det <= belief.set.log_det
                assert np.isfinite(out.set.log_det)
                if step == 0:
                    width = np.sqrt(row @ out.shape @ row)
                    assert width <= 1e-5 * np.sqrt(row @ prior.shape @ row)
                    assert out.set.log_det > prior.log_det - 40.0
                belief = out
                phi = rng.normal(size=(2, 3))


class TestInnovationEllipsoid:
    def test_zero_regressor_doubles_the_noise_bound(self):
        belief = ParameterBelief(Ellipsoid(np.zeros(2), np.eye(2)))
        obs = Observation([0.0], [[0.0, 0.0]], [[1.05]])
        out = innovation_ellipsoid(belief, obs)
        assert_allclose(out.shape, [[2.1]], rtol=1e-9)
        assert_allclose(out.center, [0.0])

    def test_balanced_operands_quadruple(self):
        belief = ParameterBelief(Ellipsoid(np.zeros(2), np.eye(2)))
        obs = Observation(np.zeros(2), np.eye(2), np.eye(2))
        out = innovation_ellipsoid(belief, obs)
        assert_allclose(out.shape, 4.0 * np.eye(2), rtol=1e-9)

    def test_is_the_minkowski_sum_bound_of_its_operands(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            belief = ParameterBelief(
                Ellipsoid(rng.normal(size=3), checks.random_spd(rng, 3)))
            obs = Observation(rng.normal(size=2), rng.normal(size=(2, 3)),
                              checks.random_spd(rng, 2))
            out = innovation_ellipsoid(belief, obs)
            zero = np.zeros(2)
            spread = obs.phi @ belief.shape @ obs.phi.T
            expect = minkowski_sum_bound(Ellipsoid(zero, spread),
                                         Ellipsoid(zero, obs.q_shape))
            np.testing.assert_array_equal(out.center, expect.center)
            np.testing.assert_array_equal(out.shape, expect.shape)

    def test_programming_errors_propagate(self, monkeypatch):
        # Only a singular noise shape or a missing bracket falls back to 1.
        def broken(ea, eb):
            raise TypeError("broken sum fusion")

        monkeypatch.setattr(estimator, "minkowski_sum_bound", broken)
        belief = ParameterBelief(Ellipsoid(np.zeros(2), np.eye(2)))
        obs = Observation(np.zeros(2), np.eye(2), np.eye(2))
        with pytest.raises(TypeError, match="broken"):
            innovation_ellipsoid(belief, obs)

    def test_contains_simulated_innovations(self):
        spec = scenario("sim1")
        model = spec.model
        belief = ParameterBelief(spec.belief0)
        rng = np.random.default_rng(123)
        for _ in range(1000):
            x = rng.normal(size=3)
            u = rng.normal(size=1)
            theta = belief.set.sample_interior(rng)
            omega = model.disturbance_set().sample_interior(rng)
            x_next, y_next = model.step(x, u, theta, omega)
            obs = build_observation(model, x, u, y_next)
            innovation = obs.h - obs.phi @ belief.center
            bound = innovation_ellipsoid(belief, obs)
            assert bound.contains(innovation, tol=1e-7)


class TestClosedLoopLearning:
    def test_belief_tracks_the_truth_and_contracts(self):
        spec = scenario("sim1")
        model = spec.model
        theta = spec.theta_true
        belief = ParameterBelief(spec.belief0)
        rng = np.random.default_rng(77)
        x = spec.x0
        log_dets = [belief.set.log_det]
        for _ in range(12):
            u = rng.uniform(-2.0, 2.0, size=1)
            omega = model.disturbance_set().sample_interior(rng)
            x_next, _ = model.step(x, u, theta, omega)
            obs = build_state_observation(model, x, u, x_next)
            belief = update(belief, obs)
            assert belief.set.contains(theta, tol=1e-7)
            log_dets.append(belief.set.log_det)
            x = x_next
        diffs = np.diff(log_dets)
        assert (diffs <= 1e-9).all()
        assert log_dets[-1] < log_dets[0]
