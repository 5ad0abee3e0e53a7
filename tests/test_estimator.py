"""Tests for the recursive set-membership parameter estimator."""

from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import oracles
from smtrack import checks, ellipsoid, experiments
from smtrack.ellipsoid import DegenerateOperandError, Ellipsoid, _Fusion
from smtrack.estimator import (
    InconsistentObservationError,
    Observation,
    ParameterBelief,
    build_observation,
    build_state_observation,
    update,
)
from smtrack.experiments import run, scenario


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
        # A row of noise shape is not broadcast into a square one.
        for q in ([1.0, 1.0], [[1.0, 2.0]]):
            with pytest.raises(ValueError, match="q_shape"):
                Observation([0.0, 0.0], np.eye(2), q)

    def test_only_a_read_only_symmetric_noise_shape_is_kept_as_given(self):
        q = np.array([[2.0, 0.5], [0.5, 1.0]])
        q.flags.writeable = False
        assert Observation([0.0, 0.0], np.eye(2), q).q_shape is q
        skew = np.array([[2.0, 0.5], [0.7, 1.0]])
        skew.flags.writeable = False
        for given in (q.copy(), skew):
            kept = Observation([0.0, 0.0], np.eye(2), given).q_shape
            assert kept is not given and not kept.flags.writeable
            assert np.array_equal(kept, 0.5 * (given + given.T))

    @pytest.mark.parametrize("field", ["h", "phi", "q_shape"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_fields_are_rejected(self, field, bad):
        # A NaN innovation used to pass as a kept update and an infinite one
        # as a disjoint observation.
        fields = {"h": [0.5], "phi": [[1.0]], "q_shape": [[1.0]]}
        fields[field] = np.full_like(np.array(fields[field]), bad)
        with pytest.raises(ValueError, match=f"{field} is not finite"):
            Observation(**fields)

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
        oracles.assert_carries_its_factor(out.set)

    def test_uninformative_observation_keeps_the_prior(self):
        # [-2, 2] fused with [-3, 3]: the posterior shape 36(1+rho)/(4rho+9)
        # rises from 4 for every rho > 0, so only the prior anchor is minimal.
        belief = scalar_belief(0.0, 4.0)
        out = update(belief, interval_obs(0.0, 9.0))
        assert out.set is belief.set
        assert out.last_rho == 0.0
        assert out.last_beta == 1.0
        assert not out.skipped
        assert out.kept_by_test

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
        assert not out.kept_by_test

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
        belief = replace(scalar_belief(0.0, 4.0), kept_by_test=True)
        out = update(belief, interval_obs(10.0, 1.0), policy="skip")
        assert out.skipped
        assert out.set is belief.set
        assert out.last_rho == 0.0
        assert not out.kept_by_test

    @staticmethod
    def narrow_dips():
        """Disjoint pairs whose ``beta`` is negative only between two points
        of the former 200-point grid, where it is positive throughout."""
        # [-1, 1] seen at c = 1.0001 (1 + 1e-7) with Q = 1e-8: the noise set
        # [c - 1e-4, c + 1e-4] misses the prior by 1e-7, and min beta is -2e-7.
        c = 1.0001 * (1.0 + 1e-7)
        yield scalar_belief(0.0, 1.0), Observation([c], [[1.0]], [[1e-8]])
        # The same gap on one axis of a rotated 2-D pair, whose other axis
        # sees an innovation well inside its noise.
        angle = np.pi / 6
        rot = np.array([[np.cos(angle), -np.sin(angle)],
                        [np.sin(angle), np.cos(angle)]])
        prior = Ellipsoid([0.0, 0.0], rot @ np.diag([1.0, 2.0]) @ rot.T)
        yield ParameterBelief(prior), Observation(
            rot @ [c, 0.03], np.eye(2), rot @ np.diag([1e-8, 1.0]) @ rot.T)

    def test_a_dip_between_the_old_grid_points_is_disjoint(self):
        for belief, obs in self.narrow_dips():
            fusion = _Fusion(belief.set, obs.phi, obs.q_shape, obs.h)
            betas, _ = oracles.grid_scan(fusion)
            assert betas.min() > 0.0
            assert oracles.grid_fuse(fusion)[0] > 0.0
            with pytest.raises(InconsistentObservationError):
                update(belief, obs)
            out = update(belief, obs, policy="skip")
            assert out.skipped and out.set is belief.set
            assert (out.last_rho, out.last_beta) == (0.0, 1.0)

    def test_invalid_policy(self):
        with pytest.raises(ValueError, match="policy"):
            update(scalar_belief(0.0, 1.0), interval_obs(0.0, 1.0),
                   policy="ignore")

    def test_regressor_width_checked(self):
        obs = Observation([0.0], [[1.0, 0.0]], [[1.0]])
        with pytest.raises(ValueError, match="columns"):
            update(scalar_belief(0.0, 1.0), obs)

    def test_indefinite_noise_shape_raises(self):
        obs = Observation([0.0], [[1.0]], [[-1.0]])
        with pytest.raises(DegenerateOperandError, match="not PSD"):
            update(scalar_belief(0.0, 1.0), obs)

    def test_a_singular_prior_shrinks_on_its_range(self):
        # Volume is measured on range(P): the segment [-2, 2] x {0} fused
        # with |theta_1| <= 1 ends at about [-1, 1] x {0}.
        belief = ParameterBelief(Ellipsoid([0.0, 0.0], np.diag([4.0, 0.0])))
        out = update(belief, Observation([0.0], [[1.0, 0.0]], [[1.0]]))
        assert out.last_rho > 0.0
        assert_allclose(out.center, [0.0, 0.0], atol=1e-12)
        assert_allclose(out.shape, np.diag([1.0, 0.0]), atol=1e-6)
        oracles.assert_carries_its_factor(out.set)
        assert out.set.rank == 1

    def test_null_directions_stay_null(self):
        # A rotated segment with a null eigenvalue of 1e-16, as eigh may
        # return for an exactly singular shape. That direction carries no
        # volume and is never scaled by beta (1e8 here), so the posterior
        # stays on the segment's line, shorter there than the prior. The
        # segment t (cos 0.5, sin 0.5), |t| <= 2, cut by |theta_1| <= 1 ends
        # at about |t| <= 1/cos 0.5.
        c, s = np.cos(0.5), np.sin(0.5)
        axis, normal = np.array([c, s]), np.array([-s, c])
        prior = Ellipsoid([0.0, 0.0], 4.0 * np.outer(axis, axis)
                          + 1e-16 * np.outer(normal, normal))
        out = update(ParameterBelief(prior), Observation([0.0], [[1.0, 0.0]], [[1.0]]))
        assert prior.rank == 1 and out.last_beta > 1e7
        assert abs(normal @ out.shape @ normal) <= 1e-16
        assert axis @ out.shape @ axis <= axis @ prior.shape @ axis
        assert out.set.log_det <= prior.log_det
        assert_allclose(out.shape, np.outer(axis, axis) / c**2, atol=1e-6)
        oracles.assert_carries_its_factor(out.set)
        assert out.set.rank == 1

    def test_a_small_set_fuses_as_the_same_set_scaled_up(self):
        # Rank is relative to the largest eigenvalue, so a set of scale
        # 1e-14 is full rank: kept where the unit set is kept, and, seen
        # through a regressor scaled by 1e7, shrunk to the scaled posterior
        # of the unit set.
        tiny = 1e-14
        near = update(ParameterBelief(Ellipsoid([0.0, 0.0], tiny * np.eye(2))),
                      Observation([0.5], [[1.0, 0.0]], [[1.0]]))
        assert near.kept_by_test
        unit = ParameterBelief(Ellipsoid([0.0, 0.0], np.diag([4.0, 1.0])))
        small = ParameterBelief(Ellipsoid([0.0, 0.0], tiny * np.diag([4.0, 1.0])))
        obs = Observation([0.0], [[1.0, 0.0]], [[1.0]])
        want = update(unit, obs)
        got = update(small, Observation([0.0], [[1e7, 0.0]], [[1.0]]))
        assert want.last_rho > 0.0
        assert_allclose(got.last_beta, want.last_beta, rtol=1e-9)
        assert_allclose(got.shape / tiny, want.shape, rtol=1e-9, atol=1e-12)
        assert got.set.log_det < small.set.log_det

    def test_a_shrinking_update_checks_and_decomposes_nothing(self, monkeypatch):
        # The posterior is built unchecked with its factor and rank, which
        # the next update reads: two shrinking updates in a row take no
        # eigendecomposition, no slogdet and no checked construction.
        belief = ParameterBelief(Ellipsoid(np.zeros(2), np.diag([4.0, 1.0])))
        belief.set.factor, belief.set.rank

        def refused(*args, **kwargs):
            raise AssertionError("a shrinking update checked or decomposed a set")

        for name in ("eigh", "eigvalsh", "slogdet"):
            monkeypatch.setattr(np.linalg, name, refused)
        monkeypatch.setattr(Ellipsoid, "__post_init__", refused)
        for h in (0.0, 0.3):
            belief = update(belief, Observation([h], [[1.0, 1.0]], [[0.5]]))
            assert belief.last_rho > 0.0
        monkeypatch.undo()
        oracles.assert_carries_its_factor(belief.set)

    def test_a_point_prior_is_kept_only_inside_the_observation(self):
        point = ParameterBelief(Ellipsoid([0.5], [[0.0]]))
        assert update(point, interval_obs(0.0, 1.0)).set is point.set
        with pytest.raises(InconsistentObservationError):
            update(ParameterBelief(Ellipsoid([3.0], [[0.0]])), interval_obs(0.0, 1.0))

    def test_a_read_only_noise_shape_is_factored_once(self, monkeypatch):
        calls = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky",
                            lambda a: calls.append(a) or cholesky(a))
        belief = ParameterBelief(Ellipsoid([0.5, -0.2], [[4.0, 1.0], [1.0, 2.0]]))
        q = np.array([[9.0]])
        q.flags.writeable = False
        shapes = {id(Observation([h], [[1.0, 0.5]], q).q_shape) for h in (0.3, 0.1)}
        for h in (0.3, -0.1, 0.2):
            update(belief, Observation([h], [[1.0, 0.5]], q))
        assert len(shapes) == 1
        assert len(calls) == 1

    def test_a_noise_shape_changed_in_place_is_read_again(self):
        # A writable Q, or a read-only view of one, is held neither by
        # Observation nor by the fusion kernel: changed in place between
        # updates, it gives the results of fresh copies.
        prior = Ellipsoid([0.5, -0.2], [[4.0, 1.0], [1.0, 2.0]])
        phi, h = np.array([[1.0, 0.5]]), np.array([0.3])
        values = (9.0, 0.01, 9.0, 0.04)
        base = np.array([[0.0]])
        view = base.view()
        view.flags.writeable = False
        for given in (base, view):
            outs, whites = [], []
            for value in values:
                base[0, 0] = value
                outs.append(update(ParameterBelief(prior), Observation(h, phi, given)))
            for value in values:
                base[0, 0] = value
                whites.append(_Fusion(prior, phi, given, h).white)
            for value, got, white in zip(values, outs, whites):
                fresh = np.array([[value]])
                want = update(ParameterBelief(prior), Observation(h, phi, fresh))
                assert (got.last_rho, got.last_beta) == (want.last_rho, want.last_beta)
                assert np.array_equal(got.center, want.center)
                assert np.array_equal(got.shape, want.shape)
                assert np.array_equal(white, _Fusion(prior, phi, fresh, h).white)
            assert [out.last_rho > 0.0 for out in outs] == [False, True, False, True]

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
            fusion = _Fusion(prior, np.eye(2), obs_set.shape, obs_set.center)
            beta = fusion.at(out.last_rho)[0]
            fused = fusion.posterior(out.last_rho, beta)
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


def recorded_updates(name, mode, seeds=range(5)):
    """``(belief, obs)`` of every update in closed-loop runs."""
    calls = []

    def recording(belief, obs, policy="raise"):
        calls.append((belief, obs))
        return update(belief, obs, policy=policy)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiments, "update", recording)
        for seed in seeds:
            assert not run(scenario(name), mode, seed).aborted
    return calls


def scanned(belief, obs):
    """``fuse`` with the keep test switched off: the search decides alone."""
    fusion = _Fusion(belief.set, obs.phi, obs.q_shape, obs.h)
    fusion.keeps_prior = False
    return fusion.fuse()


def keep_test_terms(prior, obs):
    """``(E, F)`` from dense algebra: ``eps^T Q^-1 eps`` and ``tr(phi P phi^T Q^-1)``."""
    eps = obs.h - obs.phi @ prior.center
    q_inv = np.linalg.inv(obs.q_shape)
    return eps @ q_inv @ eps, np.trace(obs.phi @ prior.shape @ obs.phi.T @ q_inv)


class TestKeepTest:
    """The closed-form test ``dim (1 - E) >= F`` that keeps the prior with no search."""

    # (scenario, mode, kept updates, all updates) over seeds 0-4.
    REPLAYS = [("sim1", "learn", 138, 230), ("sim1", "active", 143, 230),
               ("sim2", "learn", 345, 500), ("sim2", "active", 345, 500),
               ("sim3", "learn", 429, 500), ("sim3", "active", 345, 500)]

    @pytest.mark.parametrize("name,mode,n_kept,n_updates", REPLAYS)
    def test_recorded_updates_replay_the_scan(self, name, mode, n_kept, n_updates):
        # Every recorded update makes the search's keep/shrink decision with
        # the search's posterior, bit for bit, and the test keeps exactly the
        # updates that the search keeps.
        calls = recorded_updates(name, mode)
        assert len(calls) == n_updates
        kept = 0
        for belief, obs in calls:
            out = update(belief, obs)
            rho, beta, posterior = scanned(belief, obs)
            assert (out.last_rho, out.last_beta) == (rho, beta)
            assert np.array_equal(out.center, posterior.center)
            assert np.array_equal(out.shape, posterior.shape)
            assert out.kept_by_test == (posterior is belief.set)
            assert (out.set is belief.set) == out.kept_by_test
            kept += out.kept_by_test
        assert kept == n_kept

    def test_a_kept_update_takes_no_svd_and_no_root_search(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("called on a kept update")

        belief = ParameterBelief(Ellipsoid([0.5, -0.2], [[4.0, 1.0], [1.0, 2.0]]))
        obs = Observation([0.3], [[1.0, 0.5]], [[9.0]])
        monkeypatch.setattr(np.linalg, "svd", forbidden)
        monkeypatch.setattr(ellipsoid, "_refine", forbidden)
        out = update(belief, obs)
        assert out.kept_by_test
        assert out.set is belief.set
        assert (out.last_rho, out.last_beta) == (0.0, 1.0)

    def test_a_kept_prior_has_no_smaller_member(self):
        # Random updates, dim 1-4, rank-deficient regressors and singular
        # priors: where the test holds, no member on a dense rho grid is
        # smaller than the prior, by the dense gain form.
        rng = np.random.default_rng(211)
        certified = 0
        for _ in range(120):
            prior, obs = checks.random_fusion(rng)
            if not _Fusion(prior, obs.phi, obs.q_shape, obs.h).keeps_prior:
                continue
            certified += 1
            for rho in np.geomspace(1e-10, 1e8, 300):
                change = oracles.gain_form_log_det_change(
                    prior, obs.phi, obs.q_shape, obs.h, rho)
                assert change >= -1e-12
        assert certified >= 30

    def test_a_positive_defect_at_zero_shrinks(self):
        # Where the test fails by a margin, the defect at rho = 0, F - k
        # (1 - E), is the slope of -log det there: some small-rho member is
        # smaller than the prior.
        rng = np.random.default_rng(223)
        shrinking = 0
        for _ in range(120):
            prior, obs = checks.random_fusion(rng)
            fusion = _Fusion(prior, obs.phi, obs.q_shape, obs.h)
            if fusion.keeps_prior or not fusion.defect(0.0)[0] > 1e-3:
                continue
            shrinking += 1
            assert min(oracles.gain_form_log_det_change(
                prior, obs.phi, obs.q_shape, obs.h, rho)
                for rho in np.geomspace(1e-12, 1e-2, 50)) < 0.0
        assert shrinking >= 30

    def test_the_boundary_is_decided_right(self):
        # Scaling Q by s scales E and F by 1/s, so the test holds exactly
        # when s >= E + F/k (at s = 1), k the prior's rank; a point prior
        # (k = 0, F = 0) is kept when s >= E. Just above that scale the
        # prior is kept; just below it is not.
        rng = np.random.default_rng(227)
        for _ in range(100):
            prior, obs = checks.random_fusion(rng)
            e_sq, f_sq = keep_test_terms(prior, obs)
            edge = e_sq + (f_sq / prior.rank if prior.rank else 0.0)
            for factor, kept in ((1.0 + 1e-6, True), (1.0 - 1e-6, False)):
                q = factor * edge * obs.q_shape
                assert _Fusion(prior, obs.phi, q, obs.h).keeps_prior == kept


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
