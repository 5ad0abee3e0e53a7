"""Tests for the ellipsoid primitives and the intersection fusion."""

import math

import numpy as np
import pytest
import scipy.optimize
from numpy.testing import assert_allclose

import oracles
from smtrack import checks, ellipsoid, experiments, robust
from smtrack.ellipsoid import Ellipsoid, InconsistentSetsError, _Fusion, _refine
from smtrack.estimator import Observation, ParameterBelief, update
from smtrack.experiments import run, scenario


HAND_SET = Ellipsoid([0.8, 0.7], [[4.0, 1.0], [1.0, 2.0]])


def member(ea, eb, rho):
    """The intersection family's member at ``rho > 0``, with its ``beta``."""
    fusion = _Fusion(ea, np.eye(ea.dim), eb.shape, eb.center)
    beta = fusion.at(rho)[0]
    return fusion.posterior(rho, beta), beta


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("where", ["center", "shape"])
    def test_rejects_a_non_finite_entry(self, where, bad):
        center, shape = [0.0, 1.0], [[1.0, 0.0], [0.0, 2.0]]
        if where == "center":
            center[0] = bad
            message = "center is not finite"
        else:
            shape[1][1] = bad
            message = "shape matrix is not finite"
        with pytest.raises(ValueError, match=message):
            Ellipsoid(center, shape)

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
            # The symmetric root, its null eigenvalues dropped: for a
            # full-rank set every one of them is kept.
            null = vals <= max(vals[-1], 0.0) * 1e-14
            root = (vecs * np.sqrt(np.where(null, 0.0, vals))) @ vecs.T
            np.testing.assert_array_equal(e.factor, root)
            if not null.any():
                np.testing.assert_array_equal(
                    e.factor, (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T)
            sign, log_det = np.linalg.slogdet(e.shape)
            assert e.log_det == (log_det if sign > 0 else -np.inf)

    def test_factor_squares_back(self):
        for e in self.sets():
            scale = 1.0 + np.abs(e.shape).max()
            assert_allclose(e.factor @ e.factor.T, e.shape, atol=1e-12 * scale)

    def test_cached_arrays_are_read_only(self):
        e = Ellipsoid([0.0, 1.0], [[2.0, 0.5], [0.5, 1.0]])
        assert e.eigh is e.eigh and e.factor is e.factor
        for arr in (*e.eigh, e.factor):
            assert not arr.flags.writeable
        with pytest.raises(ValueError):
            e.factor[0, 0] = 1.0

    def test_a_set_of_no_dimension_has_rank_0(self):
        e = Ellipsoid(np.zeros(0), np.zeros((0, 0)))
        assert (e.rank, e.factor.shape) == (0, (0, 0))
        assert e.contains(np.zeros(0))

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
        # Counted by kind: each posterior and each point belief pays one
        # eigendecomposition, and a trust region none; nothing else is
        # decomposed during a run.
        spec = scenario("sim2")
        decomposed = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda a: decomposed.append(a) or eigh(a))
        kinds = {"posterior": [], "point": [], "region": []}

        def collect(kind, fn):
            def collected(*args, **kwargs):
                out = fn(*args, **kwargs)
                kinds[kind].append(out if isinstance(out, Ellipsoid) else out.set)
                return out
            return collected

        monkeypatch.setattr(_Fusion, "posterior", collect("posterior", _Fusion.posterior))
        monkeypatch.setattr(robust, "_point_belief", collect("point", robust._point_belief))
        monkeypatch.setattr(experiments, "build_trust_region",
                            collect("region", experiments.build_trust_region))
        run(spec, mode, 0, 6)
        kinds = {kind: list({id(s): s for s in sets}.values())
                 for kind, sets in kinds.items()}
        counts = {kind: [sum(a is s.shape for a in decomposed) for s in sets]
                  for kind, sets in kinds.items()}
        built = {"fixed": set(), "learn": {"posterior"}, "known_theta": {"point"},
                 "active": {"posterior", "region"}}[mode]
        assert {kind for kind, sets in kinds.items() if sets} == built
        assert counts["posterior"] == [1] * len(kinds["posterior"])
        assert counts["point"] == [1] * len(kinds["point"])
        assert counts["region"] == [0] * len(kinds["region"])
        assert len(decomposed) == len(kinds["posterior"]) + len(kinds["point"])


class TestHeld:
    """``ellipsoid._held``: a function's last result, kept while the same
    arguments come back."""

    @pytest.fixture(autouse=True)
    def own_registry(self, monkeypatch):
        # The functions held here stay out of the package's registry.
        monkeypatch.setattr(ellipsoid, "_HELD", list(ellipsoid._HELD))

    @staticmethod
    def counted():
        """A held function of its arguments and the list of its builds."""
        builds = []

        def build(*args, **kwargs):
            builds.append(args)
            return object()

        return ellipsoid._held(build), builds

    @staticmethod
    def fixed(values):
        """A read-only array that owns its data."""
        arr = np.array(values, dtype=float)
        arr.flags.writeable = False
        return arr

    def test_a_fixed_array_a_frozen_object_and_an_int_are_held(self):
        held, builds = self.counted()
        args = (self.fixed([1.0, 2.0]), Ellipsoid([0.0], [[1.0]]), 1000)
        first = held(*args)
        assert held(*args) is first
        # An int is compared by value, not by identity.
        same = int("1000")
        assert same is not args[2] and held(*args[:2], same) is first
        assert len(builds) == 1

    def test_a_writable_array_is_built_on_every_call(self):
        held, builds = self.counted()
        arr = np.array([1.0, 2.0])
        assert held(arr) is not held(arr)
        assert len(builds) == 2

    def test_a_read_only_view_is_built_on_every_call(self):
        # The view cannot change itself, but a writable base under it can.
        held, builds = self.counted()
        base = np.array([1.0, 2.0, 3.0])
        view = base[1:]
        view.flags.writeable = False
        assert held(view) is not held(view)
        assert len(builds) == 2

    def test_a_different_int_or_fixed_array_rebuilds_and_is_held(self):
        held, builds = self.counted()
        arr = self.fixed([1.0])
        first = held(arr, 3)
        fourth = held(arr, 4)
        assert fourth is not first and held(arr, 4) is fourth
        other = self.fixed([1.0])
        equal = held(other, 4)
        assert equal is not fourth and held(other, 4) is equal
        assert held(arr, 3) is not first
        # Fewer arguments are other arguments, even when each one matches.
        assert held(arr) is not held(arr, 3)
        assert len(builds) == 6

    def test_an_unholdable_call_rebuilds_and_leaves_the_held_result(self):
        # A bool, a float, a list or a keyword is never held, and neither
        # is a call with one of them.
        held, builds = self.counted()
        arr = self.fixed([1.0])
        first = held(arr, 3)
        for args in ((arr, True), (arr, 3.0), (arr, [3])):
            assert held(*args) is not first
        assert held(arr, count=3) is not first
        assert held(arr, 3) is first
        assert len(builds) == 5

    def test_a_failed_build_holds_nothing(self):
        arr = self.fixed([1.0])
        calls = []

        def build(value):
            calls.append(value)
            raise ValueError("bad")

        held = ellipsoid._held(build)
        for _ in range(2):
            with pytest.raises(ValueError, match="bad"):
                held(arr)
        assert len(calls) == 2

    def test_clear_forgets(self):
        held, builds = self.counted()
        arr = self.fixed([1.0])
        first = held(arr)
        held.clear()
        second = held(arr)
        assert second is not first and held(arr) is second
        assert len(builds) == 2
        assert held in ellipsoid._HELD


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

    def test_a_degenerate_set_is_sampled_uniformly_on_its_slice(self):
        # E([0, 0], diag(1, 0)) is the segment [-1, 1] on the first axis:
        # uniform draws have E|x_0| = 1/2 and never leave the axis.
        rng = np.random.default_rng(5)
        segment = Ellipsoid([0.0, 0.0], np.diag([1.0, 0.0]))
        draws = np.array([segment.sample_interior(rng) for _ in range(20000)])
        assert abs(np.abs(draws[:, 0]).mean() - 0.5) < 0.01
        assert not draws[:, 1].any()
        # A rotated disc in 3-D: the squared radius on its plane is uniform,
        # mean 1/2 (draws of the 3-ball mapped onto it would give 2/5).
        basis = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        disc = Ellipsoid([1.0, 2.0, 3.0], basis @ np.diag([0.0, 4.0, 4.0]) @ basis.T)
        draws = np.array([disc.sample_interior(rng) for _ in range(20000)])
        offsets = draws - disc.center
        assert np.abs(offsets @ basis[:, 0]).max() < 1e-12
        assert abs((offsets**2).sum(axis=1).mean() / 4.0 - 0.5) < 0.01

    def test_full_rank_draws_map_the_sphere_through_the_factor(self):
        # A full-rank set draws a direction from n normals, then a radius,
        # and maps them through its factor.
        rng, twin = np.random.default_rng(8), np.random.default_rng(8)
        point = HAND_SET.sample_interior(rng)
        g = twin.standard_normal(2)
        radius = twin.random() ** 0.5
        expected = HAND_SET.center + HAND_SET.factor @ (radius * (g / np.linalg.norm(g)))
        assert np.array_equal(point, expected)

    def test_zero_shape_returns_center(self):
        rng = np.random.default_rng(0)
        point = Ellipsoid([1.5, -2.0], np.zeros((2, 2)))
        assert_allclose(point.sample_interior(rng), [1.5, -2.0])


class TestIntersectionBound:
    def test_scalar_hand_case(self):
        # [-2, 2] fused with [-1, 3] at rho = 1.
        ea = Ellipsoid([0.0], [[4.0]])
        eb = Ellipsoid([1.0], [[4.0]])
        fused, beta = member(ea, eb, 1.0)
        assert_allclose(beta, 1.875)
        assert_allclose(fused.center, [0.5])
        assert_allclose(fused.shape, [[3.75]])

    def test_self_fusion_is_identity(self):
        for rho in (0.1, 1.0, 10.0):
            fused, _ = member(HAND_SET, HAND_SET, rho)
            assert_allclose(fused.center, HAND_SET.center, atol=1e-12)
            assert_allclose(fused.shape, HAND_SET.shape, atol=1e-10)

    def test_disjoint_sets_raise(self):
        ea = Ellipsoid([0.0], [[1.0]])
        eb = Ellipsoid([10.0], [[1.0]])
        with pytest.raises(InconsistentSetsError):
            checks.intersect(ea, eb)

    def test_shared_flat_direction_stays_flat(self):
        # Both sets are flat along the second axis: the fused set is too, and
        # an offset along that axis certifies an empty intersection.
        ea = Ellipsoid([0.0, 0.0], np.diag([4.0, 0.0]))
        eb = Ellipsoid([1.0, 0.0], np.diag([4.0, 0.0]))
        fused, beta = member(ea, eb, 1.0)
        assert_allclose(beta, 1.875)
        assert_allclose(fused.center, [0.5, 0.0], atol=1e-12)
        assert_allclose(fused.shape, np.diag([3.75, 0.0]), atol=1e-12)
        oracles.assert_carries_its_factor(fused)
        assert fused.rank == 1
        with pytest.raises(InconsistentSetsError):
            checks.intersect(ea, Ellipsoid([1.0, 0.1], eb.shape))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            checks.intersect(HAND_SET, Ellipsoid([0.0], [[1.0]]))


def _brentq(func, lo, hi):
    """The oracle: scipy's ``brentq`` on the value of ``func``, to full precision."""
    return scipy.optimize.brentq(lambda x: func(x)[0], lo, hi, xtol=1e-300,
                                 rtol=4 * np.finfo(float).eps, maxiter=1000)


def _traced(func):
    """``func`` and the list of the points it is evaluated at."""
    points = []

    def traced(x):
        points.append(x)
        return func(x)

    return traced, points


@pytest.fixture(scope="module")
def refined_brackets():
    """Every bracket that ``_Fusion.fuse`` hands to ``_refine``.

    Each entry is ``(func, lo, hi, lo_positive, root, evaluations)``,
    recorded from closed-loop ``learn`` and ``active`` runs of sim1-3, the
    randomized fusion suites and random pairs intersected through ``update``:
    the slope of ``beta`` where it falls at ``rho = 0``, and the defect where
    its signs at the ends of ``RHO_BRACKET`` differ, both in ``log rho``.
    """
    brackets, counts = [], {}
    refine = ellipsoid._refine

    def recording(func, lo, hi, lo_positive, log=False):
        assert log
        traced, points = _traced(func)
        root = refine(traced, lo, hi, lo_positive, log=True)
        brackets.append((func, lo, hi, lo_positive, root, len(points)))
        return root

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ellipsoid, "_refine", recording)
        for name in ("sim1", "sim2", "sim3"):
            for mode in ("learn", "active"):
                for seed in (0, 1):
                    run(scenario(name), mode=mode, seed=seed)
        counts["closed loop"] = len(brackets)
        rng = np.random.default_rng(107)
        checks.check_fusion_containment(rng, n_pairs=60, n_samples=0)
        checks.check_fusion_anchor(rng, n_pairs=60)
        for _ in range(150):
            ea, eb, _ = checks.intersecting_pair(rng, 1 + int(rng.integers(4)))
            checks.intersect(ea, eb)
        counts["suites"] = len(brackets) - counts["closed loop"]
    return brackets, counts


class TestRefine:
    """``_refine``, the bracketed Newton search for the defect's roots."""

    def test_agrees_with_brentq_on_every_recorded_bracket(self, refined_brackets):
        brackets, counts = refined_brackets
        assert counts["closed loop"] >= 100 and counts["suites"] >= 100
        for func, lo, hi, lo_positive, root, _ in brackets:
            assert type(lo) is float and type(hi) is float
            assert (func(lo)[0] > 0.0) == lo_positive != (func(hi)[0] > 0.0)
            assert lo < root < hi
            assert root == pytest.approx(_brentq(func, lo, hi), rel=1e-10, abs=0.0)

    def test_a_closed_loop_root_takes_few_evaluations(self, refined_brackets):
        # A bracket spans the 18 decades of RHO_BRACKET in log rho: about
        # 6.8 evaluations on these runs.
        brackets, counts = refined_brackets
        closed_loop = [entry[-1] for entry in brackets[:counts["closed loop"]]]
        assert np.mean(closed_loop) <= 8.0

    def test_the_defect_slope_is_its_derivative(self):
        rng = np.random.default_rng(109)
        checked = 0
        for _ in range(40):
            prior, obs = checks.random_fusion(rng)
            fusion = _Fusion(prior, obs.phi, obs.q_shape, obs.h)
            for rho in (1e-3, 0.1, 1.0, 10.0):
                if not fusion.at(rho * (1 - 1e-5))[0] > 0.0:
                    continue
                value, slope = fusion.defect(rho)
                h = 1e-6 * rho
                numeric = (fusion.defect(rho + h)[0]
                           - fusion.defect(rho - h)[0]) / (2 * h)
                assert slope == pytest.approx(numeric, rel=1e-5,
                                              abs=1e-7 * (1 + abs(value)))
                checked += 1
        assert checked >= 100

    @pytest.mark.parametrize("func, lo, hi", [
        (lambda x: (x**3 - 2.0 * x - 5.0, 3.0 * x * x - 2.0), 2.0, 3.0),
        (lambda x: (math.exp(x) - 4.0, math.exp(x)), 0.0, 3.0),
        (lambda x: (x * math.exp(x) - 1.0, (1.0 + x) * math.exp(x)), -1.0, 1.0),
        (lambda x: (math.cos(x) - x, -math.sin(x) - 1.0), 0.0, 1.0),
        (lambda x: (x**20 - 1.0, 20.0 * x**19), 0.0, 1.3),
        (lambda x: (math.atan(x) - 0.2, 1.0 / (1.0 + x * x)), -50.0, 1e3),
        (lambda x: (1.0 / x - 3.0, -1.0 / (x * x)), 0.01, 10.0),
        # Newton steps overshoot this cusp nine-fold, so the bracket decides.
        (lambda x: (math.copysign(abs(x - 0.3) ** 0.1, x - 0.3),
                    0.1 * abs(x - 0.3) ** -0.9 if x != 0.3 else math.inf), 0.0, 1.0),
        (lambda x: (math.log(x) + 1e-3 * x, 1.0 / x + 1e-3), 1e-6, 1e6),
        # A flat ninth-order root: Newton converges only linearly.
        (lambda x: ((x - 1.0) ** 9, 9.0 * (x - 1.0) ** 8), 0.0, 1.7),
    ])
    def test_finds_the_root_brentq_finds(self, func, lo, hi):
        traced, points = _traced(func)
        root = _refine(traced, lo, hi, func(lo)[0] > 0.0)
        assert root == pytest.approx(_brentq(func, lo, hi), rel=1e-10, abs=0.0)
        assert all(lo <= x <= hi for x in points)

    def test_a_newton_step_out_of_the_bracket_bisects(self):
        # From the midpoint 475 of [-50, 1e3] the tangent of the flat arctan
        # lands far below -50, so the refine bisects [-50, 475] next.
        traced, points = _traced(lambda x: (math.atan(x) - 0.2, 1.0 / (1.0 + x * x)))
        root = _refine(traced, -50.0, 1e3, False)
        assert points[:2] == [475.0, 212.5]
        assert root == pytest.approx(math.tan(0.2), rel=1e-12)

    def test_a_zero_slope_bisects_onto_a_jump(self):
        # A sign jump with a flat value, like the defect's signed pole.
        root = _refine(lambda x: (-1.0 if x < 0.3 else 1.0, 0.0), 0.0, 1.0, False)
        assert root == pytest.approx(0.3, rel=1e-12)

    @pytest.mark.parametrize("lo, hi, evaluated", [
        (-0.5, 1.0, [0.25]), (0.0, 2.0, [1.0, 0.25])],
        ids=["at-the-midpoint", "after-a-newton-step"])
    def test_an_exact_zero_is_returned_at_once(self, lo, hi, evaluated):
        traced, points = _traced(lambda x: (x - 0.25, 1.0))
        assert _refine(traced, lo, hi, False) == 0.25
        assert points == evaluated


@pytest.fixture(scope="module")
def recorded_fusions():
    """Every ``_Fusion`` that ``update`` builds in closed-loop ``learn`` and
    ``active`` runs of sim1-3 (seeds 0-1), then 400 of ``checks.random_fusion``."""
    fusions = []
    fuse = _Fusion.fuse

    def recording(self):
        fusions.append(self)
        return fuse(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Fusion, "fuse", recording)
        for name in ("sim1", "sim2", "sim3"):
            for mode in ("learn", "active"):
                for seed in (0, 1):
                    run(scenario(name), mode=mode, seed=seed)
    closed_loop = len(fusions)
    rng = np.random.default_rng(113)
    for _ in range(400):
        prior, obs = checks.random_fusion(rng)
        fusions.append(_Fusion(prior, obs.phi, obs.q_shape, obs.h))
    return fusions, closed_loop


class TestGridOracle:
    """The search against the 200-point grid scan it replaced (``oracles.grid_fuse``)."""

    def test_the_defect_crosses_zero_at_most_once(self, recorded_fusions):
        fusions, closed_loop = recorded_fusions
        assert closed_loop >= 900
        crossing = 0
        for fusion in fusions:
            betas, defects = oracles.grid_scan(fusion)
            if np.all(betas > 0.0):
                crossings = oracles.grid_crossings(defects).size
                assert crossings <= 1
                crossing += crossings
        assert crossing >= 300

    def test_the_search_makes_the_oracles_decision(self, recorded_fusions):
        # The keep test is switched off, so the two searches decide alone.
        fusions, _ = recorded_fusions
        shrunk = 0
        for fusion in fusions:
            fusion.keeps_prior = False
            expected, found = oracles.grid_fuse(fusion), fusion.fuse()
            assert (expected is None) == (found is None)
            if expected is None:
                continue
            assert (found[0] > 0.0) == (expected[0] > 0.0)
            assert (found[2] is fusion.prior) == (expected[2] is fusion.prior)
            assert found[0] == pytest.approx(expected[0], rel=1e-10, abs=0.0)
            shrunk += found[0] > 0.0
        assert shrunk >= 450


class TestOptimalRho:
    def test_scalar_case_matches_dense_grid(self):
        ea = Ellipsoid([0.0], [[4.0]])
        eb = Ellipsoid([3.0], [[4.0]])
        fused = checks.intersect(ea, eb).set
        grid_best = np.inf
        for r in np.geomspace(1e-6, 1e3, 4000):
            cand, _ = member(ea, eb, r)
            grid_best = min(grid_best, cand.log_det)
        assert fused.log_det <= grid_best + 1e-6
        assert fused.log_det <= ea.log_det

    def test_disjoint_sets_raise(self):
        ea = Ellipsoid([0.0], [[1.0]])
        eb = Ellipsoid([10.0], [[1.0]])
        with pytest.raises(InconsistentSetsError):
            checks.intersect(ea, eb)

    def test_tighter_second_set_is_the_fused_set(self):
        # Fusing [-2, 2] with [-1, 1]: the fused shape 4(1+rho)/(4rho+1)
        # falls monotonically toward 1, so no interior root exists and the
        # volume-optimal choice is the bracket's upper end.
        ea = Ellipsoid([0.0], [[4.0]])
        eb = Ellipsoid([0.0], [[1.0]])
        out = checks.intersect(ea, eb)
        assert out.last_rho > 0.0
        fused = out.set
        assert_allclose(fused.shape, [[1.0]], atol=1e-6)
        assert fused.log_det < ea.log_det

    def test_anchor_when_second_set_is_uninformative(self):
        # A much larger superset cannot shrink the belief; expect the anchor 0.
        ea = Ellipsoid([0.0], [[1.0]])
        eb = Ellipsoid([0.0], [[400.0]])
        assert checks.intersect(ea, eb).last_rho == 0.0


class TestTouchingSets:
    """The kernel's branches for a member with ``beta <= 0``, built by hand."""

    @staticmethod
    def far_fusion():
        # [-1, 1] seen at h = 3 through phi = 1, Q = 1: up to the noise
        # ridge, nu = 1 and e^2 = 9, so beta(rho) = 1 + rho (1 - 9/(1 + rho))
        # is negative on (0.15, 6.85) and beta' = 1 - 9/(1 + rho)^2.
        return _Fusion(Ellipsoid([0.0], [[1.0]]), np.eye(1), np.eye(1),
                       np.array([3.0]))

    def test_a_negative_beta_gives_the_pole_the_sign_of_its_slope(self):
        fusion = self.far_fusion()
        beta, dbeta = fusion.at(1.0)[:2]
        assert beta == pytest.approx(-2.5) and dbeta < 0.0
        assert fusion.defect(1.0) == (1e308, 0.0)
        beta, dbeta = fusion.at(3.0)[:2]
        assert beta == pytest.approx(-2.75) and dbeta > 0.0
        assert fusion.defect(3.0) == (-1e308, 0.0)

    def test_a_negative_beta_with_a_flat_slope_has_zero_defect(self):
        # The ridge moves e^2 off 9, so the spectrum is set by hand to put
        # beta' = 1 - 9/(1 + rho)^2 at exactly zero at rho = 2.
        fusion = self.far_fusion()
        fusion._terms, fusion.e_perp2 = [(1.0, 9.0)], 0.0
        assert fusion.at(2.0)[:2] == (-3.0, 0.0)
        assert fusion.defect(2.0) == (0.0, 0.0)

    def test_a_zero_beta_has_an_infinitely_negative_log_det_change(self):
        assert self.far_fusion().log_det_change(0.5, 0.0) == -math.inf

    def test_a_zero_beta_member_is_a_point_of_rank_0(self):
        point = self.far_fusion().posterior(0.5, 0.0)
        oracles.assert_carries_its_factor(point)
        assert point.rank == 0 and not point.factor.any()

    def test_a_zero_at_the_last_grid_point_is_a_root(self):
        def func(rho):
            return (rho - 1.5) * (rho - 3.0), 2.0 * rho - 4.5

        grid = np.array([0.5, 1.0, 2.0, 3.0])
        vals = np.array([func(rho)[0] for rho in grid])
        roots = oracles.grid_roots(func, grid, vals)
        assert len(roots) == 2
        assert roots[0] == pytest.approx(1.5, rel=1e-12)
        assert roots[1] == 3.0


class TestRandomizedProperties:
    """Reduced-size runs of the randomized suites; full sizes run elsewhere."""

    def test_fusion_containment(self):
        rng = np.random.default_rng(101)
        assert checks.check_fusion_containment(rng, n_pairs=60) == []

    def test_identity_fusion(self):
        rng = np.random.default_rng(104)
        assert checks.check_identity_fusion(rng, n_sets=20) == []

    def test_fusion_anchor(self):
        rng = np.random.default_rng(105)
        assert checks.check_fusion_anchor(rng, n_pairs=60) == []

    def test_fusion_keep_test(self):
        rng = np.random.default_rng(106)
        assert checks.check_fusion_keep_test(rng, n_cases=100) == []

    def test_each_posterior_carries_its_factor_and_rank(self):
        # Random intersecting pairs, then random updates of which one prior
        # in four is singular, each fused twice: the second time from the
        # first posterior, read through its carried factor and rank.
        rng = np.random.default_rng(107)
        fused = 0
        for i in range(120):
            if i < 60:
                ea, eb, _ = checks.intersecting_pair(rng, 1 + i % 4)
                belief, obs = ParameterBelief(ea), Observation(
                    eb.center, np.eye(eb.dim), eb.shape)
            else:
                prior, obs = checks.random_fusion(rng)
                belief = ParameterBelief(prior)
            for _ in range(2):
                belief = update(belief, obs, policy="skip")
                if belief.last_rho > 0.0:
                    oracles.assert_carries_its_factor(belief.set)
                    fused += 1
        assert fused > 60

    @pytest.mark.parametrize("verdict,message", [
        (True, "a member is smaller"), (False, "only one side of the keep test")])
    def test_fusion_keep_test_sees_a_wrong_verdict(self, monkeypatch, verdict,
                                                   message):
        init = _Fusion.__init__

        def forced(self, *args):
            init(self, *args)
            self.keeps_prior = verdict

        monkeypatch.setattr(_Fusion, "__init__", forced)
        rng = np.random.default_rng(106)
        failures = checks.check_fusion_keep_test(rng, n_cases=40)
        assert any(message in failure for failure in failures)
