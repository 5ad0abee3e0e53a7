"""Tests for the information objective and the exploring input solver."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from smtrack.active import (
    InfoQuadratic,
    build_info_quadratic,
    build_trust_region,
    solve_active,
)
from smtrack.checks import random_spd
from smtrack.ellipsoid import Ellipsoid
from smtrack.estimator import (
    ParameterBelief,
    build_observation,
    build_state_observation,
)
from smtrack.experiments import run, scenario, scenario_from_config, scenario_to_config
from smtrack.robust import ControlBounds

import oracles
from oracles import random_model


WIDE = ControlBounds([-100.0, -100.0], [100.0, 100.0])


class TestInfoQuadratic:
    def test_value(self):
        info = InfoQuadratic([[2.0]], [3.0], 1.0)
        assert_allclose(info.value([2.0]), 2.0 * 4.0 + 6.0 + 1.0)

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            InfoQuadratic(np.eye(2), [1.0], 0.0)

    @pytest.mark.parametrize("field, value", [
        ("pw", [[np.nan, 0.0], [0.0, 1.0]]), ("pvwx", [np.inf, 0.0]),
        ("const", np.nan)], ids=["pw-nan", "pvwx-inf", "const-nan"])
    def test_a_non_finite_entry_is_rejected(self, field, value):
        # Before, each reached solve_active and failed there.
        args = {"pw": np.eye(2), "pvwx": [1.0, 0.5], "const": 2.0, field: value}
        with pytest.raises(ValueError, match=f"^{field} is not finite$"):
            InfoQuadratic(**args)

    def test_a_finite_quadratic_is_stored_unchanged(self):
        rng = np.random.default_rng(3)
        pw = rng.normal(size=(2, 2))
        pvwx = rng.normal(size=2)
        info = InfoQuadratic(pw, pvwx, 0.25)
        assert np.array_equal(info.pw, 0.5 * (pw + pw.T))
        assert np.array_equal(info.pvwx, pvwx) and info.const == 0.25


class TestBuildInfoQuadratic:
    def test_trace_identity_both_output_maps(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            model = random_model(rng,
                                 r=int(rng.integers(0, 3)),
                                 s=int(rng.integers(0, 3)))
            p = model.p
            belief = ParameterBelief(
                Ellipsoid(rng.normal(size=p), random_spd(rng, p, jitter=0.2)))
            x = rng.normal(size=model.n)
            u = rng.normal(size=model.m)
            info = build_info_quadratic(model, belief, x)
            phi = build_state_observation(model, x, u, np.zeros(model.n)).phi
            direct = float(np.trace(phi @ belief.shape @ phi.T))
            assert_allclose(info.value(u), direct, atol=1e-10 * (1 + abs(direct)))

    def test_state_map_on_tracking_scenario(self):
        # Only the second input direction carries state-level information too,
        # but with much larger weight than through the scalar output, whose
        # input curvature is tr(phi_u P_uu phi_u^T) at u = 1 (C kills the
        # first input perturbation, leaving P_22 (C B2)^2).
        spec = scenario("sim1")
        model, belief = spec.model, ParameterBelief(spec.belief0)
        r = model.r
        phi_u = build_observation(model, spec.x0, [1.0],
                                  np.zeros(model.l)).phi[:, r:]
        tracked = np.trace(phi_u @ belief.shape[r:, r:] @ phi_u.T)
        state = build_info_quadratic(model, belief, spec.x0)
        assert state.pw[0, 0] > tracked

    def test_no_input_directions_leaves_constant_objective(self):
        rng = np.random.default_rng(12)
        model = random_model(rng, r=2, s=0)
        belief = ParameterBelief(
            Ellipsoid(rng.normal(size=2), random_spd(rng, 2, jitter=0.2)))
        x = rng.normal(size=2)
        info = build_info_quadratic(model, belief, x)
        assert_allclose(info.pw, 0.0)
        assert_allclose(info.pvwx, 0.0)
        assert info.const > 0.0


class TestBuildTrustRegion:
    def test_scalar_radius(self):
        belief = ParameterBelief(Ellipsoid(np.zeros(2), np.diag([4.0, 2.0])))
        region = build_trust_region(belief, [1.0], 0.5)
        assert_allclose(region.center, [1.0])
        assert_allclose(region.shape, [[3.0]])

    def test_diagonal_and_matrix_radii(self):
        belief = ParameterBelief(Ellipsoid(np.zeros(2), np.eye(2)))
        diag = build_trust_region(belief, [0.0, 0.0], [0.5, 2.0])
        assert_allclose(diag.shape, np.diag([1.0, 4.0]))
        full = build_trust_region(belief, [0.0, 0.0],
                                  [[0.5, 0.1], [0.1, 2.0]])
        assert_allclose(full.shape, 2.0 * np.array([[0.5, 0.1], [0.1, 2.0]]))

    def test_radius_scales_with_uncertainty(self):
        small = ParameterBelief(Ellipsoid(np.zeros(2), np.eye(2)))
        large = ParameterBelief(Ellipsoid(np.zeros(2), 4.0 * np.eye(2)))
        r_small = build_trust_region(small, [0.0], 1.0)
        r_large = build_trust_region(large, [0.0], 1.0)
        assert_allclose(r_large.shape, 4.0 * r_small.shape)

    def test_bad_radius_shape(self):
        belief = ParameterBelief(Ellipsoid(np.zeros(2), np.eye(2)))
        with pytest.raises(ValueError, match="ma"):
            build_trust_region(belief, [0.0], np.eye(3))

    @pytest.mark.parametrize("ma", [-1.0, [[1.0, 0.5], [0.0, 1.0]], np.nan,
                                    [[1.0, np.inf], [np.inf, 1.0]]],
                             ids=["negative", "asymmetric", "nan", "inf"])
    @pytest.mark.parametrize("read_only", [False, True])
    def test_a_bad_weight_is_rejected(self, ma, read_only):
        # Also read-only: only a weight that passed the check is remembered.
        belief = ParameterBelief(Ellipsoid(np.zeros(2), np.eye(2)))
        ma = np.array(ma, dtype=float)
        ma.flags.writeable = not read_only
        for _ in range(2):
            with pytest.raises(ValueError):
                build_trust_region(belief, [0.0, 0.0], ma)

    def test_a_non_finite_reference_input_is_rejected(self):
        belief = ParameterBelief(Ellipsoid(np.zeros(2), np.eye(2)))
        with pytest.raises(ValueError, match="u_ref"):
            build_trust_region(belief, [np.nan], 1.0)

    def test_a_read_only_weight_is_checked_once(self, monkeypatch):
        # Changing which weight is remembered never changes the region.
        belief = ParameterBelief(Ellipsoid(np.zeros(2), np.diag([4.0, 2.0])))
        ma = np.array([[0.5, 0.1], [0.1, 2.0]])
        ma.flags.writeable = False
        checked = []
        post_init = Ellipsoid.__post_init__
        monkeypatch.setattr(Ellipsoid, "__post_init__",
                            lambda e: checked.append(e) or post_init(e))
        regions = [build_trust_region(belief, [0.0, 1.0], ma) for _ in range(3)]
        assert len(checked) == 1
        fresh = build_trust_region(belief, [0.0, 1.0], ma.copy())
        assert len(checked) == 2
        for region in regions:
            assert np.array_equal(region.shape, fresh.shape)
            assert np.array_equal(region.center, fresh.center)


class TestSolveActive:
    def test_linear_objective_hits_the_support_point(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            t = random_spd(rng, 2, jitter=0.2)
            center = rng.normal(size=2)
            c_vec = rng.normal(size=2)
            info = InfoQuadratic(np.zeros((2, 2)), c_vec, 0.0)
            u = solve_active(info, Ellipsoid(center, t), WIDE)
            expect = center + t @ c_vec / np.sqrt(c_vec @ t @ c_vec)
            assert_allclose(u, expect, atol=1e-8)

    def test_symmetric_scalar_tie_breaks_low(self):
        info = InfoQuadratic([[1.0]], [0.0], 0.0)
        region = Ellipsoid([0.0], [[1.0]])
        u = solve_active(info, region, ControlBounds([-10.0], [10.0]))
        assert_allclose(u, [-1.0], atol=1e-12)

    def test_concave_objective_interior_maximum(self):
        info = InfoQuadratic(-np.eye(2), np.zeros(2), 5.0)
        region = Ellipsoid([0.5, 0.5], 4.0 * np.eye(2))
        u = solve_active(info, region, WIDE)
        assert_allclose(u, [0.0, 0.0], atol=1e-8)
        assert_allclose(info.value(u), 5.0)

    def test_zero_radius_returns_the_center(self):
        info = InfoQuadratic(np.eye(2), np.ones(2), 0.0)
        region = Ellipsoid([0.3, -0.2], np.zeros((2, 2)))
        assert_allclose(solve_active(info, region, WIDE), [0.3, -0.2])

    def test_vanishing_radius_is_continuous(self):
        info = InfoQuadratic(np.eye(2), np.ones(2), 0.0)
        region = Ellipsoid([0.3, -0.2], 1e-12 * np.eye(2))
        u = solve_active(info, region, WIDE)
        assert_allclose(u, [0.3, -0.2], atol=1e-5)

    def test_solution_feasible_and_beats_center(self):
        rng = np.random.default_rng(40)
        for _ in range(40):
            info, region, bounds = oracles.random_active_case(rng)
            u = solve_active(info, region, bounds)
            d = u - region.center
            form = d @ np.linalg.pinv(region.shape) @ d
            assert form <= 1.0 + 1e-7
            assert bounds.contains(u, tol=1e-9)
            assert info.value(u) >= info.value(region.center) - 1e-12

    def test_matches_dense_grid(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            info, region, bounds = oracles.random_active_case(rng)
            u = solve_active(info, region, bounds)
            _, grid_best = oracles.active_grid_max(info, region, bounds)
            assert abs(info.value(u) - grid_best) <= 1e-4

    def test_singular_region_stays_on_its_segment(self):
        # A rank-one region is a segment: no move along the shape's null space.
        cases = [
            (InfoQuadratic(np.eye(2), np.zeros(2), 0.0),
             [[1.0, 1.0], [1.0, 1.0]], [1.0, -1.0], [-1.0, -1.0]),
            (InfoQuadratic(np.diag([1.0, 5.0]), [0.5, 0.2], 0.0),
             [[4.0, 2.0], [2.0, 1.0]], [1.0, -2.0], [2.0, 1.0]),
        ]
        for info, shape, null, expect in cases:
            u = solve_active(info, Ellipsoid(np.zeros(2), shape), WIDE)
            assert abs(np.dot(null, u)) / np.linalg.norm(null) <= 1e-9
            assert_allclose(u, expect, atol=1e-9)

    def test_hard_case_on_anisotropic_region(self):
        # Recorded sim3 step: the linear term is almost orthogonal to the
        # long axis, so the circle multiplier equals an eigenvalue.
        cases = [(InfoQuadratic(np.diag([0.020402, 1.4792e-6]), np.zeros(2), 0.0),
                  Ellipsoid([-1.4970298598159775, -3.8895095506799895e-06],
                            np.diag([1.6, 8e4])))]
        # Random sim3-like regions (Ma = diag(0.2, 1e4)): a long axis of
        # condition 1e3-1e5, information along it scaled down to match and
        # the center near that axis, half of them rotated.
        rng = np.random.default_rng(57)
        for k in range(6):
            cond = 10.0 ** rng.uniform(3.0, 5.0)
            angle = rng.uniform(0.0, np.pi) if k % 2 else 0.0
            rot = np.array([[np.cos(angle), -np.sin(angle)],
                            [np.sin(angle), np.cos(angle)]])
            shape = rng.uniform(0.5, 8.0) * rot @ np.diag([1.0, cond]) @ rot.T
            pw = np.diag(rng.uniform(0.01, 1.0, size=2) / [1.0, cond])
            center = rng.normal(size=2) * [1.0, 1e-6]
            cases.append((InfoQuadratic(pw, np.zeros(2), 0.0), Ellipsoid(center, shape)))
        box = ControlBounds([-1e4, -1e4], [1e4, 1e4])
        for info, region in cases:
            u = solve_active(info, region, box)
            _, scan = oracles.active_grid_max(info, region, box, n_angle=200001)
            assert info.value(u) >= scan - 1e-12 * abs(scan)

    def test_more_than_two_inputs_raise(self):
        info = InfoQuadratic(np.eye(3), np.zeros(3), 0.0)
        region = Ellipsoid(np.zeros(3), np.eye(3))
        with pytest.raises(ValueError, match="at most m = 2"):
            solve_active(info, region, ControlBounds(-np.ones(3), np.ones(3)))

    def test_three_input_active_run_reports_the_limit(self):
        # sim1 with two extra inputs that act on nothing.
        cfg = scenario_to_config(scenario("sim1"))
        spare = np.zeros((len(cfg["a0"]), 2))
        cfg["b0"] = np.hstack([cfg["b0"], spare]).tolist()
        cfg["b_perturbations"] = [np.hstack([b, spare]).tolist()
                                  for b in cfg["b_perturbations"]]
        cfg["u_min"], cfg["u_max"] = cfg["u_min"] * 3, cfg["u_max"] * 3
        cfg["ma"] = (cfg["ma"][0][0] * np.eye(3)).tolist()
        record = run(scenario_from_config(cfg), "active", 0, steps=3)
        assert record.aborted
        assert "at most m = 2" in record.diagnostic

    def test_dimension_mismatch(self):
        info = InfoQuadratic(np.eye(2), np.zeros(2), 0.0)
        region = Ellipsoid([0.0], [[1.0]])
        with pytest.raises(ValueError, match="dimension"):
            solve_active(info, region, ControlBounds([-1.0], [1.0]))
