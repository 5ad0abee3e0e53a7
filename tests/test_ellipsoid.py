"""Tests for the ellipsoid primitives and the two fusion rules."""

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from smtrack import checks
from smtrack.ellipsoid import (
    DegenerateOperandError,
    Ellipsoid,
    InconsistentSetsError,
    intersection_bound,
    minkowski_sum_bound,
    optimal_rho,
    optimal_tau,
)
from smtrack.experiments import run, scenario


HAND_SET = Ellipsoid([0.8, 0.7], [[4.0, 1.0], [1.0, 2.0]])


class TestConstruction:
    def test_center_promoted_to_vector(self):
        e = Ellipsoid(2.0, [[9.0]])
        assert e.dim == 1
        assert_allclose(e.center, [2.0])

    def test_arrays_are_frozen(self):
        e = Ellipsoid([0.0, 0.0], np.eye(2))
        with pytest.raises(ValueError):
            e.center[0] = 1.0
        with pytest.raises(ValueError):
            e.shape[0, 0] = 5.0

    def test_rejects_nonsquare_shape(self):
        with pytest.raises(ValueError, match="square"):
            Ellipsoid([0.0], np.ones((1, 2)))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            Ellipsoid([0.0, 0.0], np.eye(3))

    def test_rejects_asymmetric_shape(self):
        with pytest.raises(ValueError, match="symmetric"):
            Ellipsoid([0.0, 0.0], [[1.0, 0.5], [0.2, 1.0]])

    def test_rejects_indefinite_shape(self):
        with pytest.raises(ValueError, match="PSD"):
            Ellipsoid([0.0], [[-1.0]])

    def test_accepts_tiny_negative_eigenvalue(self):
        # Roundoff-scale violations are absorbed, not rejected.
        e = Ellipsoid([0.0], [[-1e-12]])
        assert e.dim == 1


class TestCachedDecomposition:
    @staticmethod
    def sets():
        rng = np.random.default_rng(19)
        for n in (1, 2, 3, 4):
            m = rng.normal(size=(n, n))
            yield Ellipsoid(rng.normal(size=n), m @ m.T + 0.1 * np.eye(n))
            yield Ellipsoid(rng.normal(size=n), np.outer(m[0], m[0]))
        yield HAND_SET
        yield Ellipsoid(np.zeros(2), np.zeros((2, 2)))

    def test_equals_the_direct_computation_bit_for_bit(self):
        for e in self.sets():
            e = Ellipsoid(e.center, e.shape)  # fresh caches
            vals, vecs = np.linalg.eigh(e.shape)
            np.testing.assert_array_equal(e.eigh[0], vals)
            np.testing.assert_array_equal(e.eigh[1], vecs)
            root = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T
            np.testing.assert_array_equal(e.root, root)
            sign, log_det = np.linalg.slogdet(e.shape)
            assert e.log_det == (log_det if sign > 0 else -np.inf)

    def test_root_squares_back(self):
        for e in self.sets():
            scale = 1.0 + np.abs(e.shape).max()
            assert_allclose(e.root @ e.root, e.shape, atol=1e-12 * scale)

    def test_cached_arrays_are_read_only(self):
        e = Ellipsoid([0.0, 1.0], [[2.0, 0.5], [0.5, 1.0]])
        assert e.eigh is e.eigh and e.root is e.root
        for arr in (*e.eigh, e.root):
            assert not arr.flags.writeable
        with pytest.raises(ValueError):
            e.root[0, 0] = 1.0

    @staticmethod
    def count_decompositions(monkeypatch):
        # "eig" counts every eigendecomposition, eigh and eigvalsh together.
        calls = {"eig": 0, "slogdet": 0}
        for name, key in (("eigh", "eig"), ("eigvalsh", "eig"),
                          ("slogdet", "slogdet")):
            original = getattr(np.linalg, name)

            def counted(*args, _key=key, _original=original, **kwargs):
                calls[_key] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        return calls

    def test_each_set_is_decomposed_once(self, monkeypatch):
        shape = np.array([[4.0, 1.0], [1.0, 2.0]])
        log_det = np.linalg.slogdet(shape)[1]
        calls = self.count_decompositions(monkeypatch)
        e = Ellipsoid([0.8, 0.7], shape)
        assert calls == {"eig": 1, "slogdet": 0}  # taken at construction
        rng = np.random.default_rng(20)
        for _ in range(5):
            assert e.contains(e.sample_interior(rng))
            assert e.log_det == log_det
        assert calls == {"eig": 1, "slogdet": 1}

    def test_fixed_mode_decomposes_nothing_per_step(self, monkeypatch):
        # The belief and the disturbance bound are the same sets on every
        # step: the scenario's three sets are decomposed once each and one
        # slogdet is taken per run, however long.
        calls = self.count_decompositions(monkeypatch)
        counts = []
        for steps in (3, 9):
            run(scenario("sim2"), "fixed", 0, steps)
            counts.append(dict(calls))
            calls.update(eig=0, slogdet=0)
        assert counts == [{"eig": 3, "slogdet": 1}] * 2

    @pytest.mark.parametrize("mode", ["fixed", "learn", "known_theta", "active"])
    def test_each_set_a_run_builds_is_decomposed_once(self, mode, monkeypatch):
        # Posteriors, point beliefs and trust regions pay one
        # eigendecomposition each, at construction, and none later.
        calls = self.count_decompositions(monkeypatch)
        built = []
        post_init = Ellipsoid.__post_init__

        def counted(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(Ellipsoid, "__post_init__", counted)
        run(scenario("sim2"), mode, 0, 6)
        assert len(built) >= 3
        assert calls["eig"] == len(built)

class TestMembership:
    def test_unit_ball_boundary_point(self):
        ball = Ellipsoid([0.0, 0.0], np.eye(2))
        assert ball.contains([1.0, 0.0])
        assert not ball.contains([1.1, 0.0])

    def test_hand_case_inside(self):
        # Quadratic form at (0.2, 0.1) evaluates to 1.44/7 < 1.
        assert HAND_SET.contains([0.2, 0.1])

    def test_hand_case_outside(self):
        assert not HAND_SET.contains([4.0, 0.7])

    def test_degenerate_slice_membership(self):
        flat = Ellipsoid([1.0, 2.0], np.diag([4.0, 0.0]))
        assert flat.contains([2.5, 2.0])
        assert not flat.contains([1.0, 2.1])

    def test_point_set_contains_only_its_center(self):
        point = Ellipsoid([3.0], [[0.0]])
        assert point.contains([3.0])
        assert not point.contains([3.1])

    def test_dimension_check(self):
        with pytest.raises(ValueError):
            HAND_SET.contains([1.0, 2.0, 3.0])


class TestVolumeMeasures:
    def test_hand_case(self):
        assert_allclose(HAND_SET.trace, 6.0)
        assert_allclose(HAND_SET.log_det, np.log(7.0))

    def test_identity(self):
        e = Ellipsoid(np.zeros(3), np.eye(3))
        assert_allclose((e.trace, e.log_det), (3.0, 0.0))

    def test_scaled_identity(self):
        e = Ellipsoid(np.zeros(4), 2.0 * np.eye(4))
        assert_allclose(e.trace, 8.0)
        assert_allclose(e.log_det, 4.0 * np.log(2.0))

    def test_singular_shape_has_minus_inf_log_det(self):
        assert Ellipsoid([0.0, 0.0], np.diag([1.0, 0.0])).log_det == -np.inf


class TestSupport:
    def test_unit_ball(self):
        ball = Ellipsoid([0.0, 0.0], np.eye(2))
        assert_allclose(ball.support([1.0, 0.0], "max"), 1.0)
        assert_allclose(ball.support([1.0, 0.0], "min"), -1.0)

    def test_hand_case(self):
        assert_allclose(HAND_SET.support([1.0, 0.0], "max"), 2.8)
        assert_allclose(HAND_SET.support([0.0, 1.0], "min"), 0.7 - np.sqrt(2.0))

    def test_boundary_samples_attain_support(self):
        rng = np.random.default_rng(11)
        eta = np.array([1.0, 0.0])
        hi = HAND_SET.support(eta, "max")
        g = rng.normal(size=(20000, 2))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        boundary = HAND_SET.center + g @ HAND_SET.root.T
        reached = (boundary @ eta).max()
        assert reached <= hi + 1e-12
        assert hi - reached <= 1e-3 * (1.0 + abs(hi))

    def test_invalid_sense(self):
        with pytest.raises(ValueError, match="sense"):
            HAND_SET.support([1.0, 0.0], "sup")

    def test_dimension_check(self):
        with pytest.raises(ValueError):
            HAND_SET.support([1.0], "max")


class TestSampling:
    def test_samples_stay_inside_and_average_to_center(self):
        rng = np.random.default_rng(3)
        draws = np.array([HAND_SET.sample_interior(rng) for _ in range(10000)])
        forms = np.einsum(
            "ni,ij,nj->n",
            draws - HAND_SET.center,
            np.linalg.inv(HAND_SET.shape),
            draws - HAND_SET.center,
        )
        assert forms.max() <= 1.0 + 1e-9
        assert np.abs(draws.mean(axis=0) - HAND_SET.center).max() < 0.05

    def test_zero_shape_returns_center(self):
        rng = np.random.default_rng(0)
        point = Ellipsoid([1.5, -2.0], np.zeros((2, 2)))
        assert_allclose(point.sample_interior(rng), [1.5, -2.0])


class TestMinkowskiSum:
    def test_equal_balls_double_the_radius(self):
        ball = Ellipsoid(np.zeros(2), np.eye(2))
        out = minkowski_sum_bound(ball, ball)
        assert_allclose(optimal_tau(ball, ball), 1.0, rtol=1e-9)
        assert_allclose(out.shape, 4.0 * np.eye(2), rtol=1e-9)

    def test_scalar_hand_case(self):
        ea = Ellipsoid([0.0], [[4.0]])
        eb = Ellipsoid([0.0], [[1.0]])
        assert_allclose(optimal_tau(ea, eb), 2.0, rtol=1e-9)
        out = minkowski_sum_bound(ea, eb)
        assert_allclose(out.shape, [[9.0]], rtol=1e-9)

    def test_centers_add(self):
        ea = Ellipsoid([1.0], [[4.0]])
        eb = Ellipsoid([-2.0], [[1.0]])
        assert_allclose(minkowski_sum_bound(ea, eb).center, [-1.0])

    def test_scalar_law(self):
        # In one dimension the optimum is sqrt(p/q), the bound (sqrt p + sqrt q)^2.
        rng = np.random.default_rng(19)
        for _ in range(50):
            p, q = rng.uniform(0.01, 100.0, size=2)
            ea = Ellipsoid([0.0], [[p]])
            eb = Ellipsoid([0.0], [[q]])
            assert_allclose(optimal_tau(ea, eb), np.sqrt(p / q), rtol=1e-8)
            out = minkowski_sum_bound(ea, eb)
            expect = (np.sqrt(p) + np.sqrt(q)) ** 2
            assert_allclose(out.shape[0, 0], expect, rtol=1e-8)

    def test_tau_zeroes_the_generalized_eigenvalue_defect(self):
        # The defect built from scipy's generalized eigenvalues of (Pa, Pb),
        # independent of the whitening optimal_tau uses.
        rng = np.random.default_rng(23)
        for _ in range(50):
            n = 1 + int(rng.integers(4))
            ea = Ellipsoid(rng.normal(size=n), checks.random_spd(rng, n))
            eb = Ellipsoid(rng.normal(size=n), checks.random_spd(rng, n))
            tau = optimal_tau(ea, eb)
            lam = scipy.linalg.eigh(ea.shape, eb.shape, eigvals_only=True)
            scale = n / (tau * (tau + 1.0))
            defect = np.sum(1.0 / (lam + tau)) - scale
            assert abs(defect) <= 1e-9 * scale

            def log_det(t):
                shape = (1.0 / t + 1.0) * ea.shape + (t + 1.0) * eb.shape
                return np.linalg.slogdet(shape)[1]

            for nearby in (tau * (1.0 - 1e-3), tau * (1.0 + 1e-3)):
                assert log_det(tau) <= log_det(nearby) + 1e-12

    def test_whitens_by_the_cached_decomposition(self, monkeypatch):
        calls = []
        cholesky = np.linalg.cholesky

        def counted(*args, **kwargs):
            calls.append(1)
            return cholesky(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "cholesky", counted)
        ea = Ellipsoid([0.0, 1.0], [[3.0, 0.5], [0.5, 1.0]])
        minkowski_sum_bound(ea, HAND_SET)
        assert calls == []

    def test_singular_second_operand_rejected(self):
        ea = Ellipsoid([0.0], [[1.0]])
        eb = Ellipsoid([0.0], [[0.0]])
        with pytest.raises(DegenerateOperandError):
            minkowski_sum_bound(ea, eb)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            optimal_tau(Ellipsoid([0.0], [[1.0]]), Ellipsoid(np.zeros(2), np.eye(2)))


class TestIntersectionBound:
    def test_rho_zero_returns_first_operand(self):
        other = Ellipsoid([0.0, 0.0], np.eye(2))
        fused, beta = intersection_bound(HAND_SET, other, 0.0)
        assert fused is HAND_SET
        assert beta == 1.0

    def test_scalar_hand_case(self):
        # [-2, 2] fused with [-1, 3] at rho = 1.
        ea = Ellipsoid([0.0], [[4.0]])
        eb = Ellipsoid([1.0], [[4.0]])
        fused, beta = intersection_bound(ea, eb, 1.0)
        assert_allclose(beta, 1.875)
        assert_allclose(fused.center, [0.5])
        assert_allclose(fused.shape, [[3.75]])

    def test_self_fusion_is_identity(self):
        for rho in (0.1, 1.0, 10.0):
            fused, _ = intersection_bound(HAND_SET, HAND_SET, rho)
            assert_allclose(fused.center, HAND_SET.center, atol=1e-12)
            assert_allclose(fused.shape, HAND_SET.shape, atol=1e-10)

    def test_disjoint_sets_raise(self):
        ea = Ellipsoid([0.0], [[1.0]])
        eb = Ellipsoid([10.0], [[1.0]])
        with pytest.raises(InconsistentSetsError):
            intersection_bound(ea, eb, 1.0)

    def test_negative_rho_rejected(self):
        with pytest.raises(ValueError, match="rho"):
            intersection_bound(HAND_SET, HAND_SET, -0.5)

    def test_shared_flat_direction_stays_flat(self):
        # Both sets are flat along the second axis: the fused set is too, and
        # an offset along that axis certifies an empty intersection.
        ea = Ellipsoid([0.0, 0.0], np.diag([4.0, 0.0]))
        eb = Ellipsoid([1.0, 0.0], np.diag([4.0, 0.0]))
        fused, beta = intersection_bound(ea, eb, 1.0)
        assert_allclose(beta, 1.875)
        assert_allclose(fused.center, [0.5, 0.0], atol=1e-12)
        assert_allclose(fused.shape, np.diag([3.75, 0.0]), atol=1e-12)
        with pytest.raises(InconsistentSetsError):
            intersection_bound(ea, Ellipsoid([1.0, 0.1], eb.shape), 1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            intersection_bound(HAND_SET, Ellipsoid([0.0], [[1.0]]), 1.0)


class TestOptimalRho:
    def test_scalar_case_matches_dense_grid(self):
        ea = Ellipsoid([0.0], [[4.0]])
        eb = Ellipsoid([3.0], [[4.0]])
        rho = optimal_rho(ea, eb)
        fused, _ = intersection_bound(ea, eb, rho)
        grid_best = np.inf
        for r in np.geomspace(1e-6, 1e3, 4000):
            cand, _ = intersection_bound(ea, eb, r)
            grid_best = min(grid_best, cand.log_det)
        assert fused.log_det <= grid_best + 1e-6
        assert fused.log_det <= ea.log_det

    def test_disjoint_sets_raise(self):
        ea = Ellipsoid([0.0], [[1.0]])
        eb = Ellipsoid([10.0], [[1.0]])
        with pytest.raises(InconsistentSetsError):
            optimal_rho(ea, eb)

    def test_tighter_second_set_is_the_fused_set(self):
        # Fusing [-2, 2] with [-1, 1]: the fused shape 4(1+rho)/(4rho+1)
        # falls monotonically toward 1, so no interior root exists and the
        # volume-optimal choice is the bracket's upper end.
        ea = Ellipsoid([0.0], [[4.0]])
        eb = Ellipsoid([0.0], [[1.0]])
        rho = optimal_rho(ea, eb)
        assert rho > 0.0
        fused, _ = intersection_bound(ea, eb, rho)
        assert_allclose(fused.shape, [[1.0]], atol=1e-6)
        assert fused.log_det < ea.log_det

    def test_anchor_when_second_set_is_uninformative(self):
        # A much larger superset cannot shrink the belief; expect the anchor 0.
        ea = Ellipsoid([0.0], [[1.0]])
        eb = Ellipsoid([0.0], [[400.0]])
        assert optimal_rho(ea, eb) == 0.0


class TestRandomizedProperties:
    """Reduced-size runs of the randomized suites; full sizes run elsewhere."""

    def test_fusion_containment(self):
        rng = np.random.default_rng(101)
        assert checks.check_fusion_containment(rng, n_pairs=60) == []

    def test_sum_containment(self):
        rng = np.random.default_rng(102)
        assert checks.check_sum_containment(rng, n_pairs=60) == []

    def test_support_consistency(self):
        rng = np.random.default_rng(103)
        failures = checks.check_support_consistency(
            rng, n_sets=4, n_inner=300, n_boundary=30000)
        assert failures == []

    def test_identity_fusion(self):
        rng = np.random.default_rng(104)
        assert checks.check_identity_fusion(rng, n_sets=20) == []

    def test_optimal_rho_anchor(self):
        rng = np.random.default_rng(105)
        assert checks.check_optimal_rho_anchor(rng, n_pairs=60) == []
