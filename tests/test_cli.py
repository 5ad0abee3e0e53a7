"""End-to-end tests of the command line interface."""

import ast
import json
import math
import os
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from dataclasses import replace

import pytest

import smtrack
from smtrack import checks, experiments
from smtrack.cli import main
from smtrack.robust import solve_robust
from smtrack.experiments import scenario, scenario_to_config


class TestSimulate:
    def test_short_run_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        code = main(["simulate", "--steps", "8", "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "sim1 mode=learn seed=0" in text
        assert "window T=2" in text
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 9

    def test_full_horizon_row_count(self, tmp_path):
        out = tmp_path / "run.csv"
        assert main(["simulate", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == scenario("sim1").horizon + 1

    def test_identical_flags_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["simulate", "--mode", "active", "--seed", "3", "--steps", "6"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_plot_is_valid_svg(self, tmp_path):
        svg = tmp_path / "run.svg"
        assert main(["simulate", "--steps", "6", "--plot", str(svg)]) == 0
        root = ET.parse(svg).getroot()
        assert root.tag.endswith("svg")
        body = svg.read_text()
        assert "polyline" in body

    def test_config_file_overrides_scenario(self, tmp_path, capsys):
        cfg = scenario_to_config(scenario("sim2"))
        cfg["name"] = "custom2"
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(cfg))
        code = main(["simulate", "--config", str(path), "--steps", "5"])
        assert code == 0
        assert "custom2" in capsys.readouterr().out

    def test_aborted_run_exits_nonzero(self, nonoptimal_controller, capsys):
        code = main(["simulate", "--scenario", "sim1", "--steps", "4"])
        assert code == 1
        assert "aborted" in capsys.readouterr().out

    def test_unknown_scenario_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--scenario", "sim7"])
        assert exc.value.code == 2


class TestMontecarlo:
    def test_small_sweep(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        cost = tmp_path / "cost.csv"
        code = main(["montecarlo", "--runs", "2", "--steps", "6",
                     "--t-windows", "2,4", "--out", str(out),
                     "--cost-out", str(cost)])
        assert code == 0
        text = capsys.readouterr().out
        assert "sim1 runs=2 seed0=0 modes=fixed,learn,active" in text
        assert "ratio fixed_vs_learn" in text
        report_lines = out.read_text().strip().split("\n")
        assert report_lines[0].startswith("# scenario=sim1 runs=2")
        assert report_lines[1].split(",")[:2] == ["T", "e_fixed"]
        assert len(report_lines) == 4
        cost_lines = cost.read_text().strip().split("\n")
        assert cost_lines[0].startswith("k,J_fixed_1")
        assert len(cost_lines) == 7

    def test_plot_output(self, tmp_path):
        svg = tmp_path / "cost.svg"
        code = main(["montecarlo", "--runs", "1", "--steps", "5",
                     "--modes", "fixed,learn", "--t-windows", "2",
                     "--plot", str(svg)])
        assert code == 0
        root = ET.parse(svg).getroot()
        assert root.tag.endswith("svg")

    def test_bad_mode_list(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["montecarlo", "--runs", "1", "--steps", "4",
                  "--modes", "fixed,wild"])
        assert exc.value.code == 2
        assert "unknown mode 'wild'" in capsys.readouterr().err

    def test_empty_mode_list(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["montecarlo", "--runs", "1", "--steps", "4", "--modes", ","])
        assert exc.value.code == 2
        assert "no mode given; expected at least one of" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, expected", [
        pytest.param(["--steps", "3", "--t-windows", "0,9"],
                     "expected a positive integer, got 0", id="0,9-0"),
        pytest.param(["--steps", "3", "--t-windows", "2,9"],
                     "window 9 outside the 3-step horizon", id="2,9-9"),
        pytest.param(["--scenario", "sim3", "--steps", "5"],
                     "no error window fits the 5-step horizon", id="sim3-none-in-5"),
    ])
    def test_windows_outside_the_horizon_fail_before_any_run(
            self, flags, expected, monkeypatch, capsys):
        def no_run(*args, **kwargs):
            raise AssertionError("a run started before the windows were checked")

        monkeypatch.setattr(experiments, "run", no_run)
        with pytest.raises(SystemExit) as exc:
            main(["montecarlo", "--runs", "1", "--modes", "fixed"] + flags)
        assert exc.value.code == 2
        assert expected in capsys.readouterr().err


class TestValidate:
    def test_all_checks_pass(self, capsys):
        for argv in (["validate"], ["validate", "--seed", "7"]):
            code = main(argv)
            text = capsys.readouterr().out
            assert code == 0
            for name in ("fusion-containment", "fusion-keep-test",
                         "estimator-contraction", "robust-worst-case",
                         "information-identity", "discretization-consistency"):
                assert f"PASS {name}" in text
            assert text.count("PASS ") == 6
            assert "FAIL" not in text
            assert "6/6 checks passed" in text

    def test_unconverged_robust_solve_fails_its_check(self, capsys,
                                                      monkeypatch):
        # A solve that stops at the iteration cap is reported, even when its
        # recomputed bound still holds on the samples.
        def capped(*args, **kwargs):
            return replace(solve_robust(*args, **kwargs), status="max_iter")

        monkeypatch.setattr(checks, "solve_robust", capped)
        code = main(["validate"])
        text = capsys.readouterr().out
        assert code == 1
        assert "FAIL robust-worst-case: solver status max_iter" in text
        assert "5/6 checks passed" in text

    @staticmethod
    def loaded_after_import(module, condition):
        """Modules named ``m`` with ``condition`` true, after a fresh import."""
        src = os.path.dirname(os.path.dirname(smtrack.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        code = (f"import {module}, sys; "
                f"print(sorted(m for m in sys.modules if {condition}))")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()

    def test_import_smtrack_loads_neither_checks_nor_cli(self):
        loaded = self.loaded_after_import(
            "smtrack", "m in ('smtrack.checks', 'smtrack.cli')")
        assert loaded == "[]"

    @pytest.mark.parametrize("module", ["smtrack", "smtrack.cli"])
    def test_import_loads_no_scipy(self, module):
        loaded = self.loaded_after_import(
            module, "m == 'scipy' or m.startswith('scipy.')")
        assert loaded == "[]"

    def test_package_source_imports_no_scipy(self):
        # scipy is a test-only dependency. Unlike the import check above, this
        # also sees an import inside a function body that nobody calls.
        src = os.path.dirname(smtrack.__file__)
        found = []
        for name in sorted(os.listdir(src)):
            if not name.endswith(".py"):
                continue
            with open(os.path.join(src, name)) as fh:
                tree = ast.parse(fh.read(), name)
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""]
                else:
                    continue
                found += [f"{name}:{node.lineno} {m}" for m in modules
                          if m == "scipy" or m.startswith("scipy.")]
        assert found == []


class TestPackage:
    MODULES = ("active", "ellipsoid", "estimator", "experiments", "model",
               "robust")

    def test_exports_are_the_union_of_the_modules_all(self):
        exported = {}
        for name in self.MODULES:
            module = getattr(smtrack, name)
            exported.update((n, getattr(module, n)) for n in module.__all__)
        assert len(smtrack.__all__) == len(set(smtrack.__all__))
        assert set(smtrack.__all__) == {*exported, "__version__"}
        for name, value in exported.items():
            assert getattr(smtrack, name) is value

    def test_pyproject_reads_the_package_version(self):
        pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
        path = os.path.join(os.path.dirname(__file__), "..", "pyproject.toml")
        with warnings.catch_warnings():
            # setuptools flags its [tool.setuptools] table as beta.
            warnings.simplefilter("ignore")
            config = pyprojecttoml.read_configuration(path)
        assert config["project"]["version"] == smtrack.__version__


class TestParser:
    def test_subcommand_required(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--velocity", "3"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv, expected", [
        (["simulate", "--steps", "0"], "positive integer"),
        (["simulate", "--steps", "-3"], "positive integer"),
        (["montecarlo", "--runs", "0"], "positive integer"),
        (["montecarlo", "--jobs", "0"], "positive integer"),
        (["simulate", "--seed", "-1"], "non-negative integer"),
        (["montecarlo", "--seed0", "-1"], "non-negative integer"),
        (["validate", "--seed", "-1"], "non-negative integer"),
        (["montecarlo", "--t-windows", "a"], "positive integer, got a"),
        (["montecarlo", "--t-windows", "2,4,2"], "window 2 is given twice"),
        (["montecarlo", "--modes", "bogus"], "unknown mode 'bogus'"),
        (["montecarlo", "--runs", "1", "--steps", "4", "--modes", "fixed,fixed"],
         "mode 'fixed' is given twice"),
        (["simulate", "--config", "/nonexistent.json"],
         "cannot load scenario /nonexistent.json"),
        (["simulate", "--config", "/dev/null"], "cannot load scenario /dev/null"),
    ], ids=["steps-0", "steps-negative", "runs-0", "jobs-0",
            "seed-negative", "seed0-negative", "validate-seed-negative",
            "t-windows-not-a-number", "t-windows-repeated", "modes-unknown",
            "modes-repeated",
            "config-missing",
            "config-not-json"])
    def test_count_must_be_positive(self, argv, expected, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert expected in capsys.readouterr().err

    @pytest.mark.parametrize("name, ref, expected", [
        ("sim1", {"kind": "triangle", "params": {"peak": 5.0}}, "needs up_end"),
        ("sim1", {"kind": "triangle", "params": {"peak": 5.0, "up_end": 0}},
         "up_end must be positive"),
        ("sim3", {"kind": "const_sine",
                  "params": {"const": 250.0, "amp": 6.0, "denom": 0}},
         "denom must be nonzero"),
        ("sim1", {"kind": "steps", "params": {"levels": [1.0], "breaks": [5]}},
         "one more level than breaks"),
        ("sim1", {"kind": "const_sine",
                  "params": {"const": 1.0, "amp": 1.0, "denom": 5.0}},
         "the model has 1 outputs"),
        ("sim1", {"kind": "steps", "params": {"levels": 1.0, "breaks": []}},
         "TypeError"),
        ("sim1", {"kind": "triangle", "params": {"peak": math.nan,
                                                  "up_end": 23}},
         "ValueError: triangle reference peak is not finite"),
    ], ids=["triangle-no-up_end", "triangle-up_end-0", "const_sine-denom-0",
            "steps-one-level-one-break", "two-outputs-on-sim1",
            "steps-levels-not-a-list", "triangle-nan-peak"])
    def test_config_with_a_bad_reference(self, name, ref, expected, tmp_path,
                                         capsys):
        cfg = scenario_to_config(scenario(name))
        cfg["reference"] = ref
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", str(path), "--steps", "8"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"cannot load scenario {path}: " in err
        assert expected in err

    @pytest.mark.parametrize("u_min, u_max, expected", [
        (float("inf"), float("inf"), "same infinity"),
        (float("-inf"), float("-inf"), "same infinity"),
        (float("nan"), 25.0, "NaN"),
    ], ids=["both-Infinity", "both-minus-Infinity", "u_min-NaN"])
    def test_config_with_bounds_that_are_not_a_box(self, u_min, u_max,
                                                   expected, tmp_path, capsys):
        cfg = scenario_to_config(scenario("sim1"))
        cfg["u_min"], cfg["u_max"] = [u_min], [u_max]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))   # JSON's Infinity and NaN
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", str(path), "--steps", "4"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"cannot load scenario {path}: ValueError" in err
        assert expected in err

    @pytest.mark.parametrize("argv, field, value, expected", [
        (["simulate"], "horizon", 0, "horizon must be an integer >= 1, got 0"),
        (["simulate"], "horizon", -3, "horizon must be an integer >= 1, got -3"),
        (["simulate"], "t_windows", [0, 5],
         "t_windows entries must be integers >= 1, got 0"),
        (["simulate"], "t_windows", ["a"],
         "t_windows entries must be integers >= 1, got 'a'"),
        (["montecarlo", "--runs", "1", "--modes", "fixed"], "t_windows", ["a"],
         "t_windows entries must be integers >= 1, got 'a'"),
        (["montecarlo", "--runs", "1", "--modes", "fixed"], "t_windows",
         [2, 2, 4], "window 2 is given twice"),
    ], ids=["simulate-horizon-0", "simulate-horizon-negative",
            "simulate-window-0", "simulate-window-a", "montecarlo-window-a",
            "montecarlo-window-repeated"])
    def test_config_with_a_bad_horizon_or_window(self, argv, field, value,
                                                 expected, tmp_path, capsys):
        cfg = scenario_to_config(scenario("sim1"))
        cfg[field] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--config", str(path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"cannot load scenario {path}: ValueError: {expected}" in err

    @pytest.mark.parametrize("argv, fields, expected", [
        (["simulate"], {"update_policy": "bogus"},
         "update_policy must be 'raise' or 'skip', got 'bogus'"),
        (["montecarlo", "--runs", "1", "--steps", "4"], {"update_policy": "bogus"},
         "update_policy must be 'raise' or 'skip', got 'bogus'"),
        (["simulate"], {"u_min": [-25.0, -25.0], "u_max": [25.0, 25.0]},
         "bounds have 2 entries, the model has 1 inputs"),
        (["montecarlo", "--runs", "1", "--steps", "4"],
         {"u_min": [-25.0, -25.0], "u_max": [25.0, 25.0]},
         "bounds have 2 entries, the model has 1 inputs"),
        (["simulate"], {"u_min": [5.0], "u_max": [-5.0]},
         "bounds are empty: a lower bound exceeds its upper"),
        (["montecarlo", "--runs", "1", "--steps", "4"],
         {"u_min": [5.0], "u_max": [-5.0]},
         "bounds are empty: a lower bound exceeds its upper"),
        (["simulate"], {"r_shape": [[0.5, 0, 0], [0, -0.5, 0], [0, 0, 0.5]]},
         "r_shape must be symmetric PSD"),
        (["montecarlo", "--runs", "1", "--steps", "4"],
         {"r_shape": [[0.5, 0, 0], [0, -0.5, 0], [0, 0, 0.5]]},
         "r_shape must be symmetric PSD"),
        (["simulate", "--steps", "3"], {"belief_center": [math.nan, 0.7]},
         "center is not finite"),
        (["simulate", "--steps", "3"], {"theta_true": [0.2, math.inf]},
         "theta_true is not finite"),
        (["simulate", "--steps", "3"],
         {"a0": [[math.nan, 1, 0], [0, 0, 1], [-0.3, 0.4, 0.2]]},
         "a0 is not finite"),
        (["simulate", "--steps", "3"], {"c": [[1.0, math.nan, 0.3]]},
         "c is not finite"),
        (["simulate", "--steps", "3"],
         {"r_shape": [[0.5, 0, 0], [0, math.inf, 0], [0, 0, 0.5]]},
         "r_shape is not finite"),
    ], ids=["simulate-policy", "montecarlo-policy", "simulate-bounds",
            "montecarlo-bounds", "simulate-empty-box", "montecarlo-empty-box",
            "simulate-indefinite-r", "montecarlo-indefinite-r",
            "simulate-nan-belief", "simulate-inf-theta", "simulate-nan-a0",
            "simulate-nan-c", "simulate-inf-r"])
    def test_config_with_a_bad_policy_or_bounds(self, argv, fields, expected,
                                                tmp_path, capsys):
        cfg = scenario_to_config(scenario("sim1"))
        cfg.update(fields)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--config", str(path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"cannot load scenario {path}: ValueError: {expected}" in err
