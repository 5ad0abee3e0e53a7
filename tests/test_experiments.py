"""Tests for the closed-loop studies, metrics, CSV output, and configs."""

import json
import math
import pickle
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import oracles
from smtrack import ellipsoid, experiments, robust
from smtrack.active import build_trust_region
from smtrack.ellipsoid import Ellipsoid
from smtrack.estimator import (Observation, ParameterBelief, build_state_observation,
                               update)
from smtrack.experiments import (
    MODES,
    Reference,
    accumulated_cost,
    load_scenario,
    monte_carlo,
    run,
    scenario,
    scenario_from_config,
    scenario_names,
    scenario_to_config,
    window_error,
    write_cost_csv,
    write_report_csv,
    write_run_csv,
)
from smtrack.model import UncertainModel
from smtrack.robust import ControlBounds


def reachable_arrays(obj):
    """Every ndarray reachable from ``obj`` through attributes and containers."""
    found, seen, todo = [], set(), [obj]
    while todo:
        item = todo.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        if isinstance(item, np.ndarray):
            found.append(item)
        elif isinstance(item, (tuple, list)):
            todo.extend(item)
        elif isinstance(item, dict):
            todo.extend(item.values())
        elif hasattr(item, "__dict__"):
            todo.extend(vars(item).values())
    return found


class TestReference:
    def test_triangle_values(self):
        ref = scenario("sim1").reference
        assert_allclose(ref.value(23), [5.0])
        assert_allclose(ref.value(24), [5.0 - 5.0 / 23.0])
        assert_allclose(ref.value(46), [0.0])
        assert_allclose(ref.value(12), [5.0 * 12.0 / 23.0])

    def test_triangle_extends_past_the_horizon(self):
        ref = scenario("sim1").reference
        assert_allclose(ref.value(47), [0.0])
        assert_allclose(ref.value(60), [0.0])

    def test_step_levels(self):
        ref = scenario("sim2").reference
        assert_allclose(ref.value(1), [4.0])
        assert_allclose(ref.value(24), [4.0])
        assert_allclose(ref.value(25), [-5.0])
        assert_allclose(ref.value(74), [-5.0])
        assert_allclose(ref.value(75), [-1.5])
        assert_allclose(ref.value(101), [-1.5])

    def test_two_output_reference(self):
        ref = scenario("sim3").reference
        assert_allclose(ref.value(0), [250.0, 0.0])
        assert_allclose(ref.value(25), [250.0, 6.0 * np.sin(np.pi)], atol=1e-12)
        assert_allclose(ref.value(12), [250.0, 6.0 * np.sin(12.0 * np.pi / 25.0)])

    def test_serialization_round_trip(self):
        ref = scenario("sim2").reference
        clone = Reference.from_dict(ref.to_dict())
        for k in (1, 24, 25, 74, 75, 100):
            assert_allclose(clone.value(k), ref.value(k))

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            Reference("sawtooth", peak=1.0)

    @pytest.mark.parametrize("kind, params, message", [
        ("triangle", {"peak": 5.0}, "needs up_end"),
        ("triangle", {"peak": 5.0, "up_end": 0}, "up_end must be positive"),
        ("steps", {"levels": [1.0], "breaks": [5]}, "one more level than breaks"),
        ("steps", {"levels": [1.0, 2.0]}, "needs breaks"),
        ("const_sine", {"const": 1.0, "amp": 1.0, "denom": 0}, "denom must be nonzero"),
        ("triangle", {"peak": math.nan, "up_end": 23}, "peak is not finite"),
        ("steps", {"levels": [1.0, math.inf], "breaks": [5]},
         "levels is not finite"),
        ("const_sine", {"const": 1.0, "amp": -math.inf, "denom": 5.0},
         "amp is not finite"),
    ], ids=["triangle-no-up_end", "triangle-up_end-0", "steps-one-level-one-break",
            "steps-no-breaks", "const_sine-denom-0", "triangle-nan-peak",
            "steps-inf-level", "const_sine-inf-amp"])
    def test_malformed_parameters_are_rejected(self, kind, params, message):
        with pytest.raises(ValueError, match=message):
            Reference(kind, **params)


class TestScenarios:
    def test_names(self):
        assert scenario_names() == ("sim1", "sim2", "sim3")
        with pytest.raises(ValueError, match="unknown scenario"):
            scenario("sim9")

    def test_sim1_setup(self):
        spec = scenario("sim1")
        assert spec.horizon == 46
        assert spec.model.p == 2
        assert_allclose(spec.theta_true, [0.2, 0.1])
        assert_allclose(spec.bounds.lower, [-25.0])
        assert_allclose(spec.bounds.upper, [25.0])
        assert_allclose(spec.ma, [[0.8]])
        assert 2 in spec.t_windows and 45 in spec.t_windows

    def test_sim2_setup(self):
        spec = scenario("sim2")
        assert spec.horizon == 100
        assert spec.model.p == 3
        assert spec.model.r == 1
        assert 10 in spec.t_windows

    def test_sim3_setup(self):
        spec = scenario("sim3")
        assert spec.model.n == 4
        assert spec.model.m == 2
        assert spec.model.l == 2
        assert spec.model.p == 4
        assert_allclose(spec.x0, [250.0, 0.01, 0.01, 0.01])

    @pytest.mark.parametrize("name", scenario_names())
    def test_scenarios_compare_by_value(self, name):
        spec, again = scenario(name), scenario(name)
        assert spec.model == again.model
        assert spec.belief0 == again.belief0
        assert spec == again
        spec.belief0.factor  # cached values are not compared
        assert spec.belief0 == again.belief0
        shape = spec.belief0.shape.copy()
        shape[0, 0] += 0.5
        changed = replace(spec.belief0, shape=shape)
        assert changed != spec.belief0
        assert replace(spec, belief0=changed) != spec
        # A constant reference with one entry per output of the model.
        other = (Reference("steps", levels=[1.0], breaks=[]) if spec.model.l == 1
                 else Reference("const_sine", const=1.0, amp=0.0, denom=1.0))
        assert replace(spec, reference=other) != spec

    def test_initial_belief_contains_the_truth(self):
        for name in scenario_names():
            spec = scenario(name)
            assert spec.belief0.contains(spec.theta_true)


class TestRun:
    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            run(scenario("sim1"), "explore", 0)

    def test_deterministic_replay(self):
        spec = scenario("sim1")
        a = run(spec, "learn", seed=3, steps=12)
        b = run(spec, "learn", seed=3, steps=12)
        oracles.assert_records_identical(a, b)

    @pytest.mark.parametrize("mode", MODES)
    def test_a_scenario_with_no_uncertain_parameter_runs(self, mode):
        # With p = 0 the belief is a set of no dimension: it holds the
        # (empty) truth, has rank 0 and nothing to learn.
        spec = scenario("sim1")
        model = spec.model
        spec = replace(spec, model=UncertainModel(model.a0, (), model.b0, (),
                                                  model.c, model.r_shape),
                       theta_true=np.zeros(0),
                       belief0=Ellipsoid(np.zeros(0), np.zeros((0, 0))))
        record = run(spec, mode, 0, steps=6)
        assert record.steps == 6 and not record.aborted
        assert record.contains_true.all() and not record.rho.any()

    def test_membership_is_recorded_per_step(self):
        # Steps that share a set share its answer; each other set has its own.
        spec = scenario("sim1")
        outside = Ellipsoid(spec.theta_true + 10.0, np.eye(2))
        sets = (spec.belief0, outside, outside, spec.belief0)
        history = [(spec.x0, np.zeros(1), spec.reference.value(1), ParameterBelief(s))
                   for s in sets]
        record = experiments._record(spec, "learn", 0, history, "")
        assert record.contains_true.tolist() == [True, False, False, True]

    @pytest.mark.parametrize("name", ["sim1", "sim2", "sim3"])
    def test_memos_change_no_record(self, name, monkeypatch):
        # Each run replays bit for bit with every held value defeated: the
        # plant, the noise shape and the exploration weight arrive as fresh
        # writable copies, and every held value is cleared before each use.
        spec = scenario(name)
        plain = [run(spec, mode, seed) for mode in MODES for seed in range(3)]

        plant_step = UncertainModel.step

        def clear_held():
            for held in ellipsoid._HELD:
                held.clear()

        def step(model, x, u, theta, omega):
            clear_held()
            return plant_step(model, x, u, np.array(theta), omega)

        def observe(model, x, u, x_next):
            clear_held()
            obs = build_state_observation(model, x, u, x_next)
            return Observation(obs.h, obs.phi, np.array(model.state.q))

        def region(belief, u_ref, ma):
            clear_held()
            return build_trust_region(belief, u_ref, np.array(ma))

        monkeypatch.setattr(UncertainModel, "step", step)
        monkeypatch.setattr(experiments, "build_state_observation", observe)
        monkeypatch.setattr(experiments, "build_trust_region", region)
        defeated = [run(spec, mode, seed) for mode in MODES for seed in range(3)]
        for a, b in zip(plain, defeated):
            oracles.assert_records_identical(a, b)

    def test_seed_changes_the_disturbances(self):
        spec = scenario("sim1")
        a = run(spec, "learn", seed=0, steps=8)
        b = run(spec, "learn", seed=1, steps=8)
        assert not np.array_equal(a.x, b.x)

    def test_steps_override(self):
        record = run(scenario("sim1"), "fixed", 0, steps=5)
        assert record.steps == 5
        assert_allclose(record.k, [1, 2, 3, 4, 5])

    def test_fixed_mode_never_updates_the_belief(self):
        record = run(scenario("sim1"), "fixed", 2, steps=8)
        assert_allclose(record.trace_p, 6.0)
        assert_allclose(record.log_det_p, np.log(7.0))
        assert_allclose(record.rho, 0.0)
        assert_allclose(record.beta, 1.0)
        assert not record.skipped.any()

    def test_learning_contracts_and_stays_truthful(self):
        record = run(scenario("sim1"), "learn", 5, steps=15)
        assert not record.aborted
        assert record.contains_true.all()
        assert (np.diff(record.log_det_p) <= 1e-9).all()
        assert record.log_det_p[0] <= np.log(7.0) + 1e-9

    def test_active_mode_runs_contained(self):
        record = run(scenario("sim1"), "active", 5, steps=15)
        assert not record.aborted
        assert record.contains_true.all()
        assert (np.diff(record.log_det_p) <= 1e-9).all()

    def test_known_theta_tracks_tightly(self):
        spec = scenario("sim1")
        known = run(spec, "known_theta", 0, steps=20)
        fixed = run(spec, "fixed", 0, steps=20)
        assert not known.aborted
        assert known.abs_err[5:].mean() <= fixed.abs_err[5:].mean()

    def test_recorded_error_matches_the_outputs(self):
        record = run(scenario("sim1"), "learn", 1, steps=10)
        direct = np.abs(record.y - record.y_ref).sum(axis=1)
        assert_allclose(record.abs_err, direct, atol=1e-12)

    @pytest.mark.parametrize("mode", MODES)
    def test_outputs_and_errors_are_the_per_step_values(self, mode):
        # Built as whole arrays, bit for bit what model.output and one
        # np.sum per step give; sim3 has two outputs.
        spec = scenario("sim3")
        record = run(spec, mode, 0)
        assert not record.aborted
        ys = [spec.model.output(x) for x in record.x]
        errors = [float(np.sum(np.abs(y - r)))
                  for y, r in zip(ys, record.y_ref)]
        assert record.y.tobytes() == np.array(ys).tobytes()
        assert record.abs_err.tobytes() == np.array(errors).tobytes()

    def test_infeasible_scenario_reports_an_abort(self, nonoptimal_controller):
        record = run(scenario("sim1"), "learn", 0, steps=5)
        assert record.aborted
        assert record.steps == 0
        assert record.diagnostic == ("step 1: RuntimeError: controller "
                                     "returned status 'max_iter'")

    @pytest.mark.parametrize("status", ["max_iter", "non_finite"])
    def test_a_finite_input_of_a_solve_that_is_not_optimal_aborts(
            self, status, monkeypatch):
        # The input is finite, but its solve certifies no bound.
        def solve(instance, belief, bounds):
            sol = robust.solve_robust(instance, belief, bounds)
            return replace(sol, status=status, newton_iterations=600)

        monkeypatch.setattr(experiments, "solve_robust", solve)
        record = run(scenario("sim1"), "learn", 0, steps=5)
        assert record.aborted
        assert record.steps == 0
        assert record.diagnostic == (f"step 1: RuntimeError: controller "
                                     f"returned status {status!r}")

    def test_step_one_abort_keeps_empty_arrays_of_the_right_shape(
            self, nonoptimal_controller):
        record = run(scenario("sim3"), "active", 0, steps=5)
        assert record.aborted
        assert record.diagnostic.startswith("step 1:")
        expected = {"k": (0,), "x": (0, 4), "u": (0, 2), "y": (0, 2),
                    "y_ref": (0, 2), "abs_err": (0,), "trace_p": (0,),
                    "log_det_p": (0,), "rho": (0,), "beta": (0,),
                    "skipped": (0,), "contains_true": (0,),
                    "belief_centers": (0, 4), "belief_shapes": (0, 4, 4)}
        assert {f: getattr(record, f).shape for f in expected} == expected
        assert record.y.dtype == record.abs_err.dtype == np.float64

    def test_mid_run_abort_keeps_exactly_the_completed_steps(self, monkeypatch):
        calls = []

        def failing_third_update(*args, **kwargs):
            calls.append(1)
            if len(calls) == 3:
                raise RuntimeError("injected")
            return update(*args, **kwargs)

        monkeypatch.setattr(experiments, "update", failing_third_update)
        record = run(scenario("sim3"), "learn", 0, steps=10)
        assert record.aborted
        assert record.diagnostic.startswith("step 3: RuntimeError: injected")
        assert record.steps == 2
        assert_allclose(record.k, [1, 2])
        expected = {"x": (2, 4), "u": (2, 2), "y": (2, 2), "y_ref": (2, 2),
                    "abs_err": (2,), "trace_p": (2,), "log_det_p": (2,),
                    "rho": (2,), "beta": (2,), "skipped": (2,),
                    "contains_true": (2,), "belief_centers": (2, 4),
                    "belief_shapes": (2, 4, 4)}
        assert {f: getattr(record, f).shape for f in expected} == expected
        whole = run(scenario("sim3"), "learn", 0, steps=2)
        assert np.array_equal(record.belief_shapes, whole.belief_shapes)
        assert np.array_equal(record.u, whole.u)

    def test_a_non_finite_state_aborts_the_run(self, monkeypatch):
        # A plant whose third transition returns NaN: the next step's
        # program is rejected before the solve, and the run keeps the three
        # completed steps.
        step = UncertainModel.step
        calls = []

        def nan_third_step(self, *args):
            calls.append(1)
            x_next, y_next = step(self, *args)
            if len(calls) == 3:
                x_next = np.full_like(x_next, np.nan)
            return x_next, y_next

        monkeypatch.setattr(UncertainModel, "step", nan_third_step)
        record = run(scenario("sim2"), "fixed", 0, steps=10)
        assert record.aborted
        assert record.diagnostic.startswith(
            "step 4: ValueError: state is not finite")
        assert record.steps == 3

    def test_belief_columns_agree_with_the_kept_shapes(self):
        record = run(scenario("sim1"), "learn", 0)
        shapes = record.belief_shapes
        assert_allclose(record.trace_p, np.trace(shapes, axis1=1, axis2=2),
                        rtol=1e-12, atol=1e-12)
        sign, log_det = np.linalg.slogdet(shapes)
        assert (sign > 0).all()
        assert_allclose(record.log_det_p, log_det, rtol=1e-12, atol=1e-12)

    def test_each_reference_value_is_read_once(self, monkeypatch):
        spec = scenario("sim1")
        calls = []
        value = Reference.value

        def counted(self, k):
            calls.append(k)
            return value(self, k)

        monkeypatch.setattr(Reference, "value", counted)
        record = run(spec, "learn", 0, steps=10)
        assert record.steps == 10
        assert calls == list(range(1, 12))


class TestMetrics:
    def test_window_error_definitions(self):
        record = run(scenario("sim1"), "fixed", 0, steps=20)
        err = record.abs_err
        assert_allclose(window_error(record, 4), err[:4].mean())
        assert_allclose(window_error(record, 10), err[:10].mean())
        assert_allclose(window_error(record, 15), err[10:15].mean())

    def test_window_error_bounds(self):
        record = run(scenario("sim1"), "fixed", 0, steps=6)
        with pytest.raises(ValueError, match="window"):
            window_error(record, 0)
        with pytest.raises(ValueError, match="window"):
            window_error(record, 7)
        for t in (2.5, True, "3"):
            with pytest.raises(ValueError, match=re.escape(
                    f"window must be an integer >= 1, got {t!r}")):
                window_error(record, t)

    def test_accumulated_cost_matches_a_loop(self):
        record = run(scenario("sim1"), "fixed", 3, steps=9)
        j = accumulated_cost(record)
        assert j.shape == (9, 1)
        total = 0.0
        for i in range(9):
            total += float(((record.y[i] - record.y_ref[i]) ** 2).sum())
            assert_allclose(j[i, 0], total / (i + 1))


class TestMonteCarlo:
    def test_small_sweep_matches_manual_averages(self):
        spec = scenario("sim1")
        report = monte_carlo(spec, modes=("fixed", "learn", "active"),
                             n_runs=2, seed0=7, t_windows=(2, 4), steps=8)
        assert report.n_runs == 2
        assert report.excluded == {"fixed": 0, "learn": 0, "active": 0}
        assert not report.exclusion_flagged
        for mode in ("fixed", "learn", "active"):
            recs = [run(spec, mode, 7, steps=8), run(spec, mode, 8, steps=8)]
            for t in (2, 4):
                manual = np.mean([window_error(r, t) for r in recs])
                assert_allclose(report.e_bar[mode][t], manual, rtol=1e-12)
        e1, e2, e3 = (report.e_bar[m][4] for m in ("fixed", "learn", "active"))
        assert_allclose(report.ratios["fixed_vs_learn"][4], (e1 - e2) / e2)
        assert_allclose(report.ratios["learn_vs_active"][4], (e2 - e3) / e3)

    def test_parallel_equals_serial(self):
        spec = scenario("sim1")
        kw = dict(modes=("fixed", "learn"), n_runs=2, seed0=0,
                  t_windows=(2, 4), steps=6)
        serial = monte_carlo(spec, jobs=1, **kw)
        parallel = monte_carlo(spec, jobs=2, **kw)
        assert serial.e_bar == parallel.e_bar
        for m in kw["modes"]:
            assert_allclose(serial.j_bar[m], parallel.j_bar[m])

    @pytest.mark.parametrize("name", scenario_names())
    def test_pickled_scenarios_keep_their_arrays_read_only(self, name):
        # Workers receive the scenario through pickle.
        spec = scenario(name)
        spec.belief0.factor  # the cached decomposition travels along
        back = pickle.loads(pickle.dumps(spec))
        assert back == spec
        assert "eigh" in vars(back.belief0) and "factor" in vars(back.belief0)
        arrays = reachable_arrays(back)
        assert len(arrays) >= 20
        assert [a for a in arrays if a.flags.writeable] == []

    def test_ratios_need_all_three_modes(self):
        report = monte_carlo(scenario("sim1"), modes=("fixed", "learn"),
                             n_runs=1, t_windows=(2,), steps=4)
        assert report.ratios == {}

    def test_aborted_runs_are_excluded_and_flagged(self, nonoptimal_controller):
        report = monte_carlo(scenario("sim1"), modes=("fixed",), n_runs=2,
                             t_windows=(2,), steps=4)
        assert report.excluded["fixed"] == 2
        assert report.exclusion_flagged
        assert np.isnan(report.e_bar["fixed"][2])

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            monte_carlo(scenario("sim1"), modes=("fixed", "wild"), n_runs=1)

    def test_default_windows_are_those_within_the_horizon(self, monkeypatch):
        spec = scenario("sim1")
        report = monte_carlo(spec, modes=("fixed",), n_runs=1, steps=6)
        assert report.t_windows == (2, 4, 6)
        assert list(report.e_bar["fixed"]) == [2, 4, 6]

        def no_run(*args, **kwargs):
            raise AssertionError("a run started before the windows were checked")

        monkeypatch.setattr(experiments, "run", no_run)
        with pytest.raises(ValueError, match="window 7 outside the 6-step"):
            monte_carlo(spec, modes=("fixed",), n_runs=1, t_windows=(2, 7),
                        steps=6)
        with pytest.raises(ValueError, match=re.escape(
                "t_windows entries must be integers >= 1, got 0")):
            monte_carlo(spec, modes=("fixed",), n_runs=1, t_windows=(0,), steps=6)

    def test_no_window_within_the_horizon_fails_before_any_run(self, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("a run started before the windows were checked")

        monkeypatch.setattr(experiments, "run", no_run)
        with pytest.raises(ValueError, match="no error window fits the 5-step"):
            monte_carlo(scenario("sim3"), modes=("fixed",), n_runs=1, steps=5)


class TestCsvWriters:
    def test_run_csv_schema(self, tmp_path):
        record = run(scenario("sim1"), "learn", 0, steps=6)
        path = tmp_path / "run.csv"
        write_run_csv(record, path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 7
        assert lines[0] == ("k,y_1,y_ref_1,u_1,abs_err,trace_P,log_det_P,"
                            "rho,beta,mode,seed")
        first = lines[1].split(",")
        assert first[0] == "1"
        assert first[-2] == "learn"
        assert first[-1] == "0"

    def test_run_csv_is_reproducible(self, tmp_path):
        record = run(scenario("sim1"), "active", 4, steps=6)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_run_csv(record, a)
        write_run_csv(run(scenario("sim1"), "active", 4, steps=6), b)
        assert a.read_bytes() == b.read_bytes()

    def test_report_csv_schema(self, tmp_path):
        report = monte_carlo(scenario("sim1"),
                             modes=("fixed", "learn", "active"),
                             n_runs=1, t_windows=(2, 4), steps=6)
        path = tmp_path / "report.csv"
        write_report_csv(report, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0].startswith("# scenario=sim1 runs=1 seed0=0")
        assert "exclusion_flagged=False" in lines[0]
        header = lines[1].split(",")
        assert header[:4] == ["T", "e_fixed", "e_learn", "e_active"]
        assert "fixed_vs_learn" in header
        assert len(lines) == 4

    def test_cost_csv_schema(self, tmp_path):
        report = monte_carlo(scenario("sim1"), modes=("fixed", "learn"),
                             n_runs=1, t_windows=(2,), steps=5)
        path = tmp_path / "cost.csv"
        write_cost_csv(report, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "k,J_fixed_1,J_learn_1"
        assert len(lines) == 6
        assert lines[1].split(",")[0] == "1"


class TestConfigRoundTrip:
    def test_scenario_round_trip_preserves_the_run(self):
        spec = scenario("sim2")
        clone = scenario_from_config(scenario_to_config(spec))
        assert_allclose(clone.model.a0, spec.model.a0)
        assert_allclose(clone.model.r_shape, spec.model.r_shape)
        assert_allclose(clone.theta_true, spec.theta_true)
        assert_allclose(clone.ma, spec.ma)
        assert clone.update_policy == spec.update_policy
        assert clone.t_windows == spec.t_windows
        a = run(spec, "learn", 2, steps=8)
        b = run(clone, "learn", 2, steps=8)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.u, b.u)

    def test_a_config_with_no_uncertain_parameter_round_trips(self):
        # p = 0 saves the belief shape as [], which must load as (0, 0).
        cfg = scenario_to_config(scenario("sim1"))
        cfg.update(a_perturbations=[], b_perturbations=[], theta_true=[],
                   belief_center=[], belief_shape=[])
        spec = scenario_from_config(json.loads(json.dumps(cfg)))
        assert spec.model.p == 0
        assert spec.belief0.shape.shape == (0, 0)
        assert scenario_to_config(spec) == cfg
        assert not run(spec, "learn", 0, steps=4).aborted

    def test_load_scenario_from_json(self, tmp_path):
        cfg = scenario_to_config(scenario("sim1"))
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(cfg))
        spec = load_scenario(path)
        assert spec.name == "sim1"
        assert spec.horizon == 46
        record = run(spec, "fixed", 0, steps=4)
        assert not record.aborted

    def test_ma_of_the_wrong_size_is_rejected_at_load(self):
        cfg = scenario_to_config(scenario("sim1"))
        cfg["ma"] = np.eye(3).tolist()
        with pytest.raises(ValueError, match="ma"):
            scenario_from_config(cfg)

    def test_indefinite_ma_is_rejected_at_load(self):
        cfg = scenario_to_config(scenario("sim1"))
        cfg["ma"] = [[-1.0]]
        with pytest.raises(ValueError, match="ma"):
            scenario_from_config(cfg)

    def test_reference_of_the_wrong_size_is_rejected_at_load(self):
        cfg = scenario_to_config(scenario("sim1"))
        cfg["reference"] = {"kind": "const_sine",
                            "params": {"const": 1.0, "amp": 1.0, "denom": 5.0}}
        with pytest.raises(ValueError, match="the model has 1 outputs"):
            scenario_from_config(cfg)

    @pytest.mark.parametrize("field, value, message", [
        ("horizon", 0, "horizon must be an integer >= 1, got 0"),
        ("horizon", -3, "horizon must be an integer >= 1, got -3"),
        ("horizon", 2.5, "horizon must be an integer >= 1, got 2.5"),
        ("horizon", "3", "horizon must be an integer >= 1, got '3'"),
        ("t_windows", [0, 5], "t_windows entries must be integers >= 1, got 0"),
        ("t_windows", ["a"], "t_windows entries must be integers >= 1, got 'a'"),
        ("t_windows", [2.5], "t_windows entries must be integers >= 1, got 2.5"),
        ("t_windows", [True], "t_windows entries must be integers >= 1, "
                              "got True"),
        ("t_windows", [2, 2, 4], "window 2 is given twice"),
        ("theta_true", [math.nan, 0.1], "theta_true is not finite"),
        ("x0", [0.0, math.inf], "x0 is not finite"),
    ], ids=["horizon-0", "horizon-negative", "horizon-float", "horizon-string",
            "window-0", "window-a", "window-float", "window-bool",
            "window-repeated", "theta-nan", "x0-inf"])
    def test_bad_horizon_or_window_is_rejected_at_load(self, field, value,
                                                       message):
        cfg = scenario_to_config(scenario("sim1"))
        cfg[field] = value
        with pytest.raises(ValueError, match=re.escape(message)):
            scenario_from_config(cfg)
        with pytest.raises(ValueError, match=re.escape(message)):
            replace(scenario("sim1"), **{field: value})

    @pytest.mark.parametrize("field, value", [
        ("steps", 0), ("steps", -2), ("steps", 2.9), ("steps", True),
        ("steps", "3"), ("n_runs", 0), ("n_runs", -1), ("n_runs", 1.5),
        ("n_runs", False), ("jobs", 0), ("jobs", 2.5), ("jobs", True),
    ], ids=["steps-0", "steps-negative", "steps-float", "steps-bool",
            "steps-string", "runs-0", "runs-negative", "runs-float",
            "runs-bool", "jobs-0", "jobs-float", "jobs-bool"])
    def test_a_bad_step_or_run_count_is_rejected_before_any_run(
            self, field, value, monkeypatch):
        message = f"{field} must be an integer >= 1, got {value!r}"

        def no_step(*args, **kwargs):
            raise AssertionError("a step started before the count was checked")

        monkeypatch.setattr(experiments, "build_instance", no_step)
        spec = scenario("sim1")
        if field == "steps":
            with pytest.raises(ValueError, match=re.escape(message)):
                run(spec, "fixed", 0, steps=value)
        kwargs = {"n_runs": 1, "steps": 4, field: value}
        with pytest.raises(ValueError, match=re.escape(message)):
            monte_carlo(spec, modes=("fixed",), t_windows=(2,), **kwargs)

    @pytest.mark.parametrize("field, value, message", [
        ("t_windows", (2.5,), "t_windows entries must be integers >= 1, got 2.5"),
        ("t_windows", (True,), "t_windows entries must be integers >= 1, "
                               "got True"),
        ("t_windows", (2, "a"), "t_windows entries must be integers >= 1, "
                                "got 'a'"),
        ("t_windows", (2, 2), "window 2 is given twice"),
        ("t_windows", (4, 2, 4), "window 4 is given twice"),
        ("modes", ("fixed", "fixed"), "mode 'fixed' is given twice"),
        ("modes", ("learn", "fixed", "learn"), "mode 'learn' is given twice"),
    ], ids=["window-float", "window-bool", "window-string", "window-repeated",
            "window-repeated-apart", "modes-repeated", "modes-repeated-apart"])
    def test_a_bad_window_or_mode_is_rejected_before_any_run(
            self, field, value, message, monkeypatch):
        def no_step(*args, **kwargs):
            raise AssertionError("a step started before the input was checked")

        monkeypatch.setattr(experiments, "build_instance", no_step)
        kwargs = {"modes": ("fixed",), "t_windows": (2,), field: value}
        with pytest.raises(ValueError, match=re.escape(message)):
            monte_carlo(scenario("sim1"), n_runs=2, steps=4, **kwargs)

    @pytest.mark.parametrize("value", ["bogus", "Skip", None],
                             ids=["bogus", "capitalized", "none"])
    def test_bad_update_policy_is_rejected_at_load(self, value):
        message = f"update_policy must be 'raise' or 'skip', got {value!r}"
        cfg = scenario_to_config(scenario("sim1"))
        cfg["update_policy"] = value
        with pytest.raises(ValueError, match=re.escape(message)):
            scenario_from_config(cfg)
        with pytest.raises(ValueError, match=re.escape(message)):
            replace(scenario("sim1"), update_policy=value)
        assert replace(scenario("sim1"), update_policy="raise").update_policy == "raise"

    @pytest.mark.parametrize("name, width, message", [
        ("sim1", 2, "bounds have 2 entries, the model has 1 inputs"),
        ("sim3", 1, "bounds have 1 entries, the model has 2 inputs"),
    ], ids=["sim1-two", "sim3-one"])
    def test_bounds_of_the_wrong_size_are_rejected_at_load(self, name, width,
                                                           message):
        cfg = scenario_to_config(scenario(name))
        cfg["u_min"], cfg["u_max"] = [-1.0] * width, [1.0] * width
        with pytest.raises(ValueError, match=re.escape(message)):
            scenario_from_config(cfg)
        with pytest.raises(ValueError, match=re.escape(message)):
            replace(scenario(name), bounds=ControlBounds([-1.0] * width,
                                                         [1.0] * width))

    def test_an_empty_input_box_is_rejected_at_load(self):
        message = "bounds are empty: a lower bound exceeds its upper"
        cfg = scenario_to_config(scenario("sim1"))
        cfg["u_min"], cfg["u_max"] = [5.0], [-5.0]
        with pytest.raises(ValueError, match=re.escape(message)):
            scenario_from_config(cfg)
        with pytest.raises(ValueError, match=re.escape(message)):
            replace(scenario("sim1"), bounds=ControlBounds([5.0], [-5.0]))
        # A box of one point is not empty.
        assert replace(scenario("sim1"), bounds=ControlBounds([5.0], [5.0]))

    @pytest.mark.parametrize("field, index, value, message", [
        ("a0", (0, 0), math.nan, "a0 is not finite"),
        ("b0", (1, 0), math.inf, "b0 is not finite"),
        ("b_perturbations", (1, 2, 0), math.nan,
         "b_perturbations[1] is not finite"),
        ("c", (0, 1), math.nan, "c is not finite"),
        ("r_shape", (2, 2), math.inf, "r_shape is not finite"),
    ], ids=["a0-nan", "b0-inf", "perturbation-nan", "c-nan", "r_shape-inf"])
    def test_a_non_finite_model_entry_is_rejected_at_load(self, field, index,
                                                          value, message):
        # Before any product is formed: an infinite r_shape used to warn in
        # a matmul first, and a NaN in c to run with every error NaN.
        cfg = scenario_to_config(scenario("sim1"))
        entry = np.array(cfg[field])
        entry[index] = value
        cfg[field] = entry.tolist()
        with pytest.raises(ValueError, match=re.escape(message)):
            scenario_from_config(cfg)

    def test_an_indefinite_disturbance_shape_is_rejected_at_load(self):
        cfg = scenario_to_config(scenario("sim1"))
        cfg["r_shape"] = np.diag([0.5, -0.5, 0.5]).tolist()
        with pytest.raises(ValueError, match="r_shape must be symmetric PSD"):
            scenario_from_config(cfg)
        with pytest.raises(ValueError, match="r_shape must be symmetric PSD"):
            replace(scenario("sim1").model, r_shape=np.diag([0.5, -0.5, 0.5]))

    def test_windows_past_the_horizon_are_kept(self):
        # A run's --steps can go past the horizon, so such a window stays.
        cfg = scenario_to_config(scenario("sim1"))
        cfg["horizon"], cfg["t_windows"] = 4, [2, 10]
        spec = scenario_from_config(cfg)
        assert (spec.horizon, spec.t_windows) == (4, (2, 10))
        assert monte_carlo(spec, modes=("fixed",), n_runs=1, seed0=0,
                           t_windows=(2, 10), steps=10).t_windows == (2, 10)

    def test_modes_tuple_is_stable(self):
        assert MODES == ("fixed", "learn", "active", "known_theta")


def geometry_builds(monkeypatch, name, mode, n_runs):
    """:class:`robust._Geometry` builds of ``n_runs`` runs (seeds from 0) of
    one scenario object, with nothing held before the first."""
    for held in ellipsoid._HELD:
        held.clear()
    spec = scenario(name)
    init, builds = robust._Geometry.__init__, [0]

    def counting(self, *args):
        builds[0] += 1
        init(self, *args)

    with monkeypatch.context() as patch:
        patch.setattr(robust._Geometry, "__init__", counting)
        for seed in range(n_runs):
            assert not run(spec, mode, seed).aborted
    return builds[0]


class TestDigest:
    """``tests/digest.py``, which compares two checkouts bit for bit."""

    @pytest.fixture
    def digest(self, monkeypatch):
        # The script puts its checkout's src first on the import path.
        monkeypatch.setattr(sys, "path", list(sys.path))
        import digest

        monkeypatch.setattr(digest, "SEEDS", range(1))
        return digest

    def test_a_digest_is_repeatable_and_restores_the_solver(self, digest,
                                                            monkeypatch):
        # Every shipped program splits and is solved in closed form, so
        # its solves count no Newton iterations.
        solve = robust.solve_robust
        assert experiments.solve_robust is solve
        build = robust._Geometry.__init__
        first = digest.digest("sim3", "learn")
        assert digest.digest("sim3", "learn") == first
        solves, iterations, shrinks, skips, aborted, builds, runs, sols = first
        assert solves > 0 and iterations == 0
        record = run(scenario("sim3"), "learn", 0)
        assert 0 < shrinks == np.count_nonzero(record.rho > 0.0) < solves
        assert skips == np.count_nonzero(record.skipped)
        assert aborted == record.aborted == 0
        assert builds == geometry_builds(monkeypatch, "sim3", "learn", 1)
        assert len(runs) == len(sols) == 64 and runs != sols
        assert experiments.solve_robust is solve
        assert robust.solve_robust is solve
        assert robust._Geometry.__init__ is build
        monkeypatch.setattr(digest, "SEEDS", range(1, 2))
        other = digest.digest("sim3", "learn")
        assert other[6] != runs and other[7] != sols

    @pytest.mark.parametrize("name, mode", [
        ("sim2", "fixed"), ("sim2", "known_theta"), ("sim1", "learn")])
    def test_the_build_count_is_the_runs(self, digest, name, mode,
                                         monkeypatch):
        # The runs of a line share one scenario, so a belief that never
        # changes is built once for all of them.
        monkeypatch.setattr(digest, "SEEDS", range(2))
        builds = digest.digest(name, mode)[5]
        assert builds == geometry_builds(monkeypatch, name, mode, 2)
        if mode != "learn":
            assert builds == 1

    def test_the_aborted_count_is_the_records(self, digest, monkeypatch):
        # A failing update aborts every learning run at step 1; a fixed run
        # never updates and runs to its end.
        def failing(*args, **kwargs):
            raise RuntimeError("injected")

        monkeypatch.setattr(digest, "SEEDS", range(2))
        monkeypatch.setattr(experiments, "update", failing)
        for mode, expected in (("learn", 2), ("fixed", 0)):
            records = [run(scenario("sim1"), mode, seed) for seed in range(2)]
            assert sum(record.aborted for record in records) == expected
            assert digest.digest("sim1", mode)[4] == expected

    def test_the_barrier_digest_replays_every_recorded_program(self, digest,
                                                              monkeypatch):
        # The barrier runs on every program, split or not, and counts its
        # Newton iterations; the random programs follow the recorded ones.
        monkeypatch.setattr(digest, "SCENARIOS", ("sim1",))
        monkeypatch.setattr(digest, "BARRIER_SEEDS", range(1))
        monkeypatch.setattr(digest, "RANDOM_PROGRAMS", 10)
        solve = robust.solve_robust
        first = digest.barrier_digest()
        assert digest.barrier_digest() == first
        programs, iterations, sha = first
        assert programs == len(MODES) * 46 + 10
        assert iterations > programs
        assert len(sha) == 64
        assert experiments.solve_robust is solve
        assert robust.solve_robust is solve
        monkeypatch.setattr(digest, "RANDOM_PROGRAMS", 11)
        more, more_iterations, other = digest.barrier_digest()
        assert more == programs + 1 and more_iterations > iterations
        assert other != sha

    def test_save_and_compare_print_the_drift_and_the_flags(
            self, digest, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(digest, "SCENARIOS", ("sim1",))
        monkeypatch.setattr(digest, "barrier_programs", list)
        saved = tmp_path / "before.npz"
        digest.main(["--save", str(saved)])
        lines = capsys.readouterr().out.splitlines()
        with np.load(saved) as before:  # plain arrays: no pickle is needed
            arrays = dict(before)
        assert len(arrays) == len(MODES) * 10
        record = run(scenario("sim1"), "learn", 0)
        assert np.array_equal(arrays["sim1/learn/0/belief_shapes"],
                              record.belief_shapes)
        assert arrays["sim1/learn/0/aborted"] == record.aborted

        def compare(path):
            digest.main(["--compare", str(path)])
            out = capsys.readouterr().out.splitlines()
            assert out[::2] == lines
            return dict(zip((line.split()[1] for line in lines), out[1::2]))

        same = compare(saved)
        assert set(same) == set(MODES)
        for drift in same.values():
            assert drift == ("  drift u 0.0e+00 x 0.0e+00 shapes 0.0e+00 "
                             "centers 0.0e+00 log_det_p 0.0e+00 trace_p "
                             "0.0e+00 rho 0.0e+00 flags equal")
        # A doctored parent: one learn input moved by 1e-9 of the run's
        # largest, one skip flag flipped and one active run missing.
        u = arrays["sim1/learn/0/u"].copy()
        u.flat[3] += 1e-9 * np.abs(u).max()
        arrays["sim1/learn/0/u"] = u
        arrays["sim1/learn/0/skipped"] = ~arrays["sim1/learn/0/skipped"]
        del arrays["sim1/active/0/rho"], arrays["sim1/active/0/u"]
        doctored = tmp_path / "doctored.npz"
        np.savez(doctored, **arrays)
        drifts = compare(doctored)
        assert drifts["learn"].startswith("  drift u 1.0e-09 x 0.0e+00 ")
        assert drifts["learn"].endswith(" flags differ: skipped")
        assert drifts["active"].startswith("  drift u inf x inf ")
        assert drifts["active"].endswith(
            " flags differ: rho > 0, skipped, contains_true, aborted")
        assert drifts["fixed"] == same["fixed"]

    def test_the_relative_drift(self, digest):
        drift = digest.relative_drift
        old = np.array([4.0, -8.0, np.nan, -np.inf])
        assert drift(old.copy(), old) == 0.0
        assert drift(old + [0.0, 2.0, 0.0, 0.0], old) == 0.25
        assert drift(np.array([4.0, -8.0, 1.0, -np.inf]), old) == math.inf
        assert drift(old[:2], old) == math.inf
        assert drift(np.ones(2), np.zeros(2)) == math.inf


class TestCodeLines:
    """``tests/codelines.py``, the code-line count of ``src/smtrack``."""

    def test_the_total_is_the_sum_of_the_modules(self):
        script = Path(__file__).with_name("codelines.py")
        out = subprocess.run([sys.executable, str(script)], capture_output=True,
                             text=True, check=True).stdout
        *modules, (label, total) = (line.split() for line in out.splitlines())
        src = Path(experiments.__file__).parent
        assert [name for name, _ in modules] == sorted(
            path.name for path in src.glob("*.py"))
        assert label == "total"
        assert int(total) == sum(int(n) for _, n in modules) > 0

    def test_docstrings_comments_and_blank_lines_do_not_count(self, tmp_path):
        import codelines

        path = tmp_path / "module.py"
        path.write_text('''"""Module docstring,
over two lines."""

# A comment.
X = ("a",   # a comment after code
     "b")


def f():
    """Docstring."""
    s = """a string
that is not a docstring"""
    return s
''')
        # X's two lines, def, the string's two lines and return.
        assert codelines.code_lines(path) == 6
