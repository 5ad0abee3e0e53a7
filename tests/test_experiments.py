"""Tests for the closed-loop studies, metrics, CSV output, and configs."""

import json
import pickle
import re
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from smtrack import experiments
from smtrack.estimator import update
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
    ], ids=["triangle-no-up_end", "triangle-up_end-0", "steps-one-level-one-break",
            "steps-no-breaks", "const_sine-denom-0"])
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
        spec.belief0.root  # cached values are not compared
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
        for field in ("x", "u", "y", "abs_err", "trace_p", "log_det_p",
                      "rho", "beta", "belief_centers", "belief_shapes"):
            assert np.array_equal(getattr(a, field), getattr(b, field))

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

    def test_infeasible_scenario_reports_an_abort(self, infeasible_controller):
        record = run(scenario("sim1"), "learn", 0, steps=5)
        assert record.aborted
        assert record.steps == 0
        assert "step 1" in record.diagnostic

    def test_step_one_abort_keeps_empty_arrays_of_the_right_shape(
            self, infeasible_controller):
        record = run(scenario("sim3"), "active", 0, steps=5)
        assert record.aborted
        assert record.diagnostic.startswith("step 1:")
        expected = {"k": (0,), "x": (0, 4), "u": (0, 2), "y": (0, 2),
                    "y_ref": (0, 2), "abs_err": (0,), "trace_p": (0,),
                    "log_det_p": (0,), "rho": (0,), "beta": (0,),
                    "skipped": (0,), "contains_true": (0,),
                    "belief_centers": (0, 4), "belief_shapes": (0, 4, 4)}
        assert {f: getattr(record, f).shape for f in expected} == expected

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
        spec.belief0.root  # the cached decomposition travels along
        back = pickle.loads(pickle.dumps(spec))
        assert back == spec
        assert "eigh" in vars(back.belief0) and "root" in vars(back.belief0)
        arrays = reachable_arrays(back)
        assert len(arrays) >= 20
        assert [a for a in arrays if a.flags.writeable] == []

    def test_ratios_need_all_three_modes(self):
        report = monte_carlo(scenario("sim1"), modes=("fixed", "learn"),
                             n_runs=1, t_windows=(2,), steps=4)
        assert report.ratios == {}

    def test_aborted_runs_are_excluded_and_flagged(self, infeasible_controller):
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
        with pytest.raises(ValueError, match="window 0 outside the 6-step"):
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
    ], ids=["horizon-0", "horizon-negative", "horizon-float", "horizon-string",
            "window-0", "window-a", "window-float", "window-bool"])
    def test_bad_horizon_or_window_is_rejected_at_load(self, field, value,
                                                       message):
        cfg = scenario_to_config(scenario("sim1"))
        cfg[field] = value
        with pytest.raises(ValueError, match=re.escape(message)):
            scenario_from_config(cfg)
        with pytest.raises(ValueError, match=re.escape(message)):
            replace(scenario("sim1"), **{field: value})

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
