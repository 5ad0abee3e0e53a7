"""Closed-loop studies: scenarios, the simulation driver, Monte Carlo.

Per step, the loop solves the worst-case tracking program at the current
belief, optionally replaces the input by the exploring one, applies it to
the true plant (disturbance drawn uniformly from its bounding ellipsoid),
and fuses the resulting state observation into the belief::

    robust input -> exploring input -> plant step -> observation -> update

Each completed step keeps one ``(x, u, y_ref, belief)`` record, the belief
taken after the step's update, and ``_record`` derives every ``RunRecord``
column from those records, so an aborted run keeps exactly the steps it
completed.

Modes
-----
``fixed``        control from the never-updated initial belief
``learn``        robust input plus the set-membership update
``active``       exploring input plus the update
``known_theta``  control with the parameter known exactly (baseline)

The per-run error metric over a window of ``T`` steps averages the output
error 1-norm over steps 1..T for short windows (T <= 10) and over steps
11..T otherwise, so converged-phase figures exclude the transient.
"""

from __future__ import annotations

import json
import numbers
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .active import (build_info_quadratic, build_trust_region, exploration_weight,
                     solve_active)
from .ellipsoid import Ellipsoid, _FrozenArrays, _set_frozen
from .estimator import ParameterBelief, build_state_observation, update
from .model import UncertainModel
from .robust import ControlBounds, build_instance, solve_known_theta, solve_robust

__all__ = [
    "Reference",
    "ScenarioSpec",
    "RunRecord",
    "MonteCarloReport",
    "MODES",
    "scenario",
    "scenario_names",
    "sim3_continuous",
    "run",
    "monte_carlo",
    "window_error",
    "accumulated_cost",
    "write_run_csv",
    "write_report_csv",
    "write_cost_csv",
    "scenario_to_config",
    "scenario_from_config",
    "load_scenario",
]

MODES = ("fixed", "learn", "active", "known_theta")
CONTAINMENT_TOL = 1e-7


class Reference:
    """Built-in reference trajectories, serializable by kind + params.

    Kinds: ``triangle`` (ramp to a peak, then down at the same rate),
    ``steps`` (piecewise-constant levels switching after given steps) and
    ``const_sine`` (two outputs: a constant and a sinusoid). All extend
    naturally beyond any printed horizon, which the driver needs since step
    ``k`` tracks the reference at ``k + 1``. The parameters are checked
    here, so a malformed reference fails at load, not at some later step.
    """

    KINDS = {"triangle": ("peak", "up_end"), "steps": ("levels", "breaks"),
             "const_sine": ("const", "amp", "denom")}

    def __init__(self, kind: str, **params):
        if kind not in self.KINDS:
            raise ValueError(f"unknown reference kind {kind!r}")
        missing = [key for key in self.KINDS[kind] if key not in params]
        if missing:
            raise ValueError(f"{kind} reference needs {', '.join(missing)}")
        if kind == "triangle" and not params["up_end"] > 0:
            raise ValueError(f"triangle up_end must be positive, got {params['up_end']}")
        if kind == "steps" and len(params["levels"]) != len(params["breaks"]) + 1:
            raise ValueError("steps reference needs one more level than breaks, got "
                             f"{len(params['levels'])} and {len(params['breaks'])}")
        if kind == "const_sine" and params["denom"] == 0:
            raise ValueError("const_sine denom must be nonzero")
        self.kind = kind
        self.params = {k: v for k, v in params.items()}

    def value(self, k: int) -> np.ndarray:
        p = self.params
        if self.kind == "triangle":
            peak, up_end = p["peak"], p["up_end"]
            if k <= up_end:
                return np.array([peak * k / up_end])
            return np.array([max(peak - peak * (k - up_end) / up_end, 0.0)])
        if self.kind == "steps":
            levels, breaks = p["levels"], p["breaks"]
            idx = sum(1 for b in breaks if k > b)
            return np.array([levels[idx]])
        amp, denom = p["amp"], p["denom"]
        return np.array([p["const"], amp * np.sin(k * np.pi / denom)])

    def to_dict(self):
        return {"kind": self.kind, "params": dict(self.params)}

    def __eq__(self, other):
        if not isinstance(other, Reference):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    @classmethod
    def from_dict(cls, d):
        return cls(d["kind"], **d["params"])


def _is_count(value) -> bool:
    """Whether ``value`` is an integer >= 1; a bool is not one."""
    return (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and value >= 1)


@dataclass(frozen=True, eq=False)
class ScenarioSpec(_FrozenArrays):
    """Everything needed to reproduce one closed-loop study."""

    name: str
    model: UncertainModel
    theta_true: np.ndarray
    x0: np.ndarray
    belief0: Ellipsoid
    bounds: ControlBounds
    ma: np.ndarray
    horizon: int
    reference: Reference
    update_policy: str = "skip"
    t_windows: tuple = ()

    def __post_init__(self):
        theta = np.atleast_1d(np.array(self.theta_true, dtype=float))
        x0 = np.array(self.x0, dtype=float).ravel()
        ma = exploration_weight(self.ma, self.model.m)
        try:
            Ellipsoid(np.zeros(self.model.m), ma)
        except ValueError as exc:
            raise ValueError(f"ma must be symmetric PSD: {exc}") from None
        if theta.size != self.model.p:
            raise ValueError("theta_true does not match the model parameters")
        if x0.size != self.model.n:
            raise ValueError("x0 does not match the state dimension")
        if self.belief0.dim != self.model.p:
            raise ValueError("belief0 does not match the parameter dimension")
        if not _is_count(self.horizon):
            raise ValueError(f"horizon must be an integer >= 1, "
                             f"got {self.horizon!r}")
        for t in self.t_windows:
            if not _is_count(t):
                raise ValueError(f"t_windows entries must be integers >= 1, "
                                 f"got {t!r}")
        ref_shape = np.shape(self.reference.value(1))
        if ref_shape != (self.model.l,):
            raise ValueError(f"reference values have shape {ref_shape}, "
                             f"the model has {self.model.l} outputs")
        _set_frozen(self, theta_true=theta, x0=x0, ma=ma)


@dataclass
class RunRecord:
    """Per-step trajectory, diagnostics, and belief history of one run.

    Row ``i`` is step ``i + 1``, derived in ``_record`` from that step's
    ``(x, u, y_ref, belief)``; ``aborted`` is true iff ``diagnostic`` is set.
    """

    scenario: str
    mode: str
    seed: int
    k: np.ndarray
    x: np.ndarray
    u: np.ndarray
    y: np.ndarray
    y_ref: np.ndarray
    abs_err: np.ndarray
    trace_p: np.ndarray
    log_det_p: np.ndarray
    rho: np.ndarray
    beta: np.ndarray
    skipped: np.ndarray
    contains_true: np.ndarray
    belief_centers: np.ndarray
    belief_shapes: np.ndarray
    aborted: bool = False
    diagnostic: str = ""

    @property
    def steps(self) -> int:
        return self.k.size


# ---------------------------------------------------------------------------
# Built-in scenarios.
# ---------------------------------------------------------------------------

def scenario_names():
    return tuple(_SCENARIOS)


def scenario(name: str) -> ScenarioSpec:
    """One of the built-in studies: ``sim1``, ``sim2`` or ``sim3``."""
    if name not in _SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}; pick from {scenario_names()}")
    return _SCENARIOS[name]()


def _chain_model(a_perturbations):
    a0 = np.array([[0.0, 1.0, 0.0],
                   [0.0, 0.0, 1.0],
                   [-0.3, 0.4, 0.2]])
    b0 = np.array([-0.8, 0.7, -0.5])
    b1 = np.array([0.3, -0.6, 0.3])
    b2 = np.array([-0.5, 0.5, -0.3])
    c = np.array([[0.5, 0.8, 1.1]])
    return UncertainModel(a0, tuple(a_perturbations), b0, (b1, b2), c,
                          0.5 * np.eye(3))


def _sim1() -> ScenarioSpec:
    model = _chain_model(())
    return ScenarioSpec(
        name="sim1",
        model=model,
        theta_true=np.array([0.2, 0.1]),
        x0=np.ones(3),
        belief0=Ellipsoid(np.array([0.8, 0.7]),
                          np.array([[4.0, 1.0], [1.0, 2.0]])),
        bounds=ControlBounds([-25.0], [25.0]),
        ma=0.8,
        horizon=46,
        reference=Reference("triangle", peak=5.0, up_end=23),
        t_windows=(2, 4, 6, 8, 10, 15, 20, 25, 30, 35, 40, 45),
    )


def _sim2() -> ScenarioSpec:
    a1 = np.zeros((3, 3))
    a1[1, 2] = 0.5
    model = _chain_model((a1,))
    return ScenarioSpec(
        name="sim2",
        model=model,
        theta_true=np.array([0.15, 0.2, 0.1]),
        x0=np.ones(3),
        belief0=Ellipsoid(np.array([0.9, 0.8, 0.7]),
                          np.array([[3.0, 1.0, 1.0],
                                    [1.0, 4.0, 1.0],
                                    [1.0, 1.0, 2.0]])),
        bounds=ControlBounds([-25.0], [25.0]),
        ma=0.6,
        horizon=100,
        reference=Reference("steps", levels=[4.0, -5.0, -1.5], breaks=[24, 74]),
        t_windows=(2, 5, 10, 20, 30, 40, 55, 70, 85, 100),
    )


def sim3_continuous():
    """Continuous-time aircraft dynamics behind ``sim3``: (Ac, Bc, dt).

    The tabulated discrete matrices in :func:`scenario` agree with one
    forward Euler step ``I + dt * Ac`` of these dynamics to machine
    precision; an exact zero-order hold differs in the fast entries.
    """
    ac = np.array([[-0.038, 18.984, 0.0, -32.174],
                   [-0.001, -0.632, 1.0, 0.0],
                   [0.0, -0.759, -0.518, 0.0],
                   [0.0, 0.0, 1.0, 0.0]])
    bc = np.array([[10.1, 0.0],
                   [0.0, -0.009],
                   [0.025, -0.011],
                   [0.0, 0.0]])
    return ac, bc, 0.1


def _sim3() -> ScenarioSpec:
    # Nominal discrete matrices as tabulated for the longitudinal aircraft
    # model at a 0.1 s sample: one forward-Euler step of sim3_continuous(),
    # a0 = I + dt * Ac and b0 = dt * Bc. Perturbation directions are 10% of
    # the tabulated (1,1), (1,2) state and (1,1), (2,2) input entries.
    a0 = np.array([[0.9962, 1.8984, 0.0, -3.2174],
                   [-0.0001, 0.9368, 0.1, 0.0],
                   [0.0, -0.0759, 0.9482, 0.0],
                   [0.0, 0.0, 0.1, 1.0]])
    b0 = np.array([[1.01, 0.0],
                   [0.0, -0.0009],
                   [0.0025, -0.0011],
                   [0.0, 0.0]])
    a1 = np.zeros((4, 4))
    a1[0, 0] = 0.09962
    a2 = np.zeros((4, 4))
    a2[0, 1] = 0.18984
    b1 = np.zeros((4, 2))
    b1[0, 0] = 0.101
    b2 = np.zeros((4, 2))
    b2[1, 1] = 0.00086
    c = np.array([[1.0, 0.0, 0.0, 0.0],
                  [0.0, 1.0, 0.0, 0.0]])
    model = UncertainModel(a0, (a1, a2), b0, (b1, b2), c,
                           np.diag([0.1, 0.05, 0.05, 0.05]))
    return ScenarioSpec(
        name="sim3",
        model=model,
        theta_true=np.array([0.5, -0.8, 0.2, -0.6]),
        x0=np.array([250.0, 0.01, 0.01, 0.01]),
        belief0=Ellipsoid(np.array([0.1, -0.1, 0.1, -0.1]), 2.0 * np.eye(4)),
        bounds=ControlBounds([-1e4, -1e4], [1e4, 1e4]),
        ma=np.diag([0.2, 1e4]),
        horizon=100,
        reference=Reference("const_sine", const=250.0, amp=6.0, denom=25.0),
        t_windows=(10, 25, 50, 100),
    )


_SCENARIOS = {"sim1": _sim1, "sim2": _sim2, "sim3": _sim3}


# ---------------------------------------------------------------------------
# Single-run driver.
# ---------------------------------------------------------------------------

def run(spec: ScenarioSpec, mode: str, seed: int, steps: int | None = None) -> RunRecord:
    """Simulate one closed-loop run; same (spec, mode, seed) replays exactly."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    model = spec.model
    horizon = int(steps) if steps is not None else spec.horizon
    rng = np.random.default_rng(seed)
    disturbances = model.disturbance_set()
    belief = ParameterBelief(spec.belief0)
    x = spec.x0.copy()
    y_ref = spec.reference.value(1)

    history = []
    diagnostic = ""
    for k in range(1, horizon + 1):
        try:
            y_ref_next = spec.reference.value(k + 1)
            instance = build_instance(model, x, y_ref_next)
            if mode == "known_theta":
                sol = solve_known_theta(instance, spec.theta_true, spec.bounds)
            else:
                sol = solve_robust(instance, belief, spec.bounds)
            u = sol.u
            if not np.all(np.isfinite(u)):
                raise RuntimeError(f"controller returned status {sol.status!r}")
            if mode == "active":
                info = build_info_quadratic(model, belief, x)
                region = build_trust_region(belief, u, spec.ma)
                u = solve_active(info, region, spec.bounds)
            omega = disturbances.sample_interior(rng)
            x_next, _ = model.step(x, u, spec.theta_true, omega)
            if mode in ("learn", "active"):
                obs = build_state_observation(model, x, u, x_next)
                belief = update(belief, obs, policy=spec.update_policy)
        except Exception as exc:  # noqa: BLE001 - runs report, never crash sweeps
            diagnostic = f"step {k}: {type(exc).__name__}: {exc}"
            break
        history.append((x, u, y_ref, belief))
        x, y_ref = x_next, y_ref_next
    return _record(spec, mode, seed, history, diagnostic)


def _record(spec, mode, seed, history, diagnostic) -> RunRecord:
    """The ``RunRecord`` of the completed steps' ``(x, u, y_ref, belief)``."""
    model = spec.model
    n = len(history)
    xs, us, y_refs, beliefs = zip(*history) if history else ((),) * 4
    ys = [model.output(x) for x in xs]
    sets = [belief.set for belief in beliefs]
    return RunRecord(
        scenario=spec.name, mode=mode, seed=seed,
        k=np.arange(1, n + 1),
        x=np.array(xs).reshape(n, model.n),
        u=np.array(us).reshape(n, model.m),
        y=np.array(ys).reshape(n, model.l),
        y_ref=np.array(y_refs).reshape(n, model.l),
        abs_err=np.array([float(np.sum(np.abs(y - r))) for y, r in zip(ys, y_refs)]),
        trace_p=np.array([s.trace for s in sets]),
        log_det_p=np.array([s.log_det for s in sets]),
        rho=np.array([b.last_rho for b in beliefs]),
        beta=np.array([b.last_beta for b in beliefs]),
        skipped=np.array([b.skipped for b in beliefs], dtype=bool),
        contains_true=np.array([s.contains(spec.theta_true, CONTAINMENT_TOL)
                                for s in sets], dtype=bool),
        belief_centers=np.array([s.center for s in sets]).reshape(n, model.p),
        belief_shapes=np.array([s.shape for s in sets]).reshape(n, model.p, model.p),
        aborted=bool(diagnostic), diagnostic=diagnostic,
    )


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------

def window_error(record: RunRecord, t: int) -> float:
    """Windowed mean output error: steps 1..T (T <= 10) or 11..T."""
    if t < 1 or t > record.steps:
        raise ValueError(f"window {t} outside the recorded {record.steps} steps")
    err = record.abs_err
    if t <= 10:
        return float(err[:t].mean())
    return float(err[10:t].mean())


def accumulated_cost(record: RunRecord) -> np.ndarray:
    """Per-output running mean of squared error: J(k), shape (steps, l)."""
    sq = (record.y - record.y_ref) ** 2
    k = np.arange(1, record.steps + 1, dtype=float)[:, None]
    return np.cumsum(sq, axis=0) / k


@dataclass
class MonteCarloReport:
    scenario: str
    modes: tuple
    n_runs: int
    seed0: int
    t_windows: tuple
    e_bar: dict                     # mode -> {T: mean windowed error}
    ratios: dict                    # name -> {T: value}; fixed/learn/active
    j_bar: dict                     # mode -> (steps, l) mean accumulated cost
    excluded: dict                  # mode -> count of aborted runs
    exclusion_flagged: bool


def monte_carlo(spec: ScenarioSpec, modes=("fixed", "learn", "active"),
                n_runs: int = 100, seed0: int = 0, jobs: int = 1,
                t_windows=None, steps: int | None = None) -> MonteCarloReport:
    """Across-seed averages per mode; seeds ``seed0 .. seed0 + n_runs - 1``.

    ``t_windows=None`` takes the scenario's windows that fit the horizon.
    Every input is checked before the first run: a window outside the
    horizon, or no window at all, raises ``ValueError``.
    Aborted runs are excluded from the averages and counted; the report is
    flagged when exclusions exceed 5% anywhere. ``jobs > 1`` distributes
    runs over processes, folding results in submission order so the report
    is identical for any job count.
    """
    modes = tuple(modes)
    if not modes:
        raise ValueError("no mode given; expected at least one of "
                         f"{', '.join(MODES)}")
    for mode in modes:
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
    horizon = int(steps) if steps is not None else spec.horizon
    t_windows = (tuple(t_windows) if t_windows is not None
                 else tuple(t for t in spec.t_windows if t <= horizon))
    for t in t_windows:
        if not 1 <= t <= horizon:
            raise ValueError(f"window {t} outside the {horizon}-step horizon")
    if not t_windows:
        raise ValueError(f"no error window fits the {horizon}-step horizon")
    tasks = [(spec, mode, seed0 + i, steps) for mode in modes for i in range(n_runs)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(run, *zip(*tasks), chunksize=8))
    else:
        records = [run(*task) for task in tasks]

    e_bar = {}
    j_bar = {}
    excluded = {}
    by_mode = {mode: records[i * n_runs:(i + 1) * n_runs]
               for i, mode in enumerate(modes)}
    for mode, recs in by_mode.items():
        good = [r for r in recs if not r.aborted]
        excluded[mode] = len(recs) - len(good)
        if not good:
            e_bar[mode] = {t: np.nan for t in t_windows}
            j_bar[mode] = np.zeros((0, spec.model.l))
            continue
        e_bar[mode] = {t: float(np.mean([window_error(r, t) for r in good]))
                       for t in t_windows}
        j_bar[mode] = np.mean([accumulated_cost(r) for r in good], axis=0)

    ratios = {}
    if all(m in e_bar for m in ("fixed", "learn", "active")):
        for t in t_windows:
            e1, e2, e3 = (e_bar[m][t] for m in ("fixed", "learn", "active"))
            ratios.setdefault("fixed_vs_learn", {})[t] = (e1 - e2) / e2
            ratios.setdefault("fixed_vs_active", {})[t] = (e1 - e3) / e3
            ratios.setdefault("learn_vs_active", {})[t] = (e2 - e3) / e3

    flagged = any(excluded[m] > 0.05 * n_runs for m in modes)
    return MonteCarloReport(
        scenario=spec.name, modes=modes, n_runs=n_runs, seed0=seed0,
        t_windows=t_windows, e_bar=e_bar, ratios=ratios, j_bar=j_bar,
        excluded=excluded, exclusion_flagged=flagged,
    )


# ---------------------------------------------------------------------------
# CSV output.
# ---------------------------------------------------------------------------

def write_run_csv(record: RunRecord, path):
    """One row per step: outputs, reference, input, error, diagnostics."""
    l = record.y.shape[1]
    m = record.u.shape[1]
    header = ["k"]
    header += [f"y_{t + 1}" for t in range(l)]
    header += [f"y_ref_{t + 1}" for t in range(l)]
    header += [f"u_{a + 1}" for a in range(m)]
    header += ["abs_err", "trace_P", "log_det_P", "rho", "beta", "mode", "seed"]
    lines = [",".join(header)]
    for i in range(record.steps):
        row = [str(int(record.k[i]))]
        row += [f"{v:.10g}" for v in record.y[i]]
        row += [f"{v:.10g}" for v in record.y_ref[i]]
        row += [f"{v:.10g}" for v in record.u[i]]
        row += [f"{record.abs_err[i]:.10g}", f"{record.trace_p[i]:.10g}",
                f"{record.log_det_p[i]:.10g}", f"{record.rho[i]:.10g}",
                f"{record.beta[i]:.10g}", record.mode, str(record.seed)]
        lines.append(",".join(row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_report_csv(report: MonteCarloReport, path):
    """Per-window mean errors by mode plus the pairwise ratios."""
    header = ["T"] + [f"e_{m}" for m in report.modes]
    ratio_names = tuple(report.ratios)
    header += list(ratio_names)
    lines = [",".join(header)]
    for t in report.t_windows:
        row = [str(t)]
        row += [f"{report.e_bar[m][t]:.10g}" for m in report.modes]
        row += [f"{report.ratios[nm][t]:.10g}" for nm in ratio_names]
        lines.append(",".join(row))
    meta = [f"# scenario={report.scenario}", f"runs={report.n_runs}",
            f"seed0={report.seed0}"]
    meta += [f"excluded_{m}={report.excluded[m]}" for m in report.modes]
    meta.append(f"exclusion_flagged={report.exclusion_flagged}")
    with open(path, "w") as fh:
        fh.write(" ".join(meta) + "\n")
        fh.write("\n".join(lines) + "\n")


def write_cost_csv(report: MonteCarloReport, path):
    """Mean accumulated cost series: one row per step, per mode and output."""
    steps = max((arr.shape[0] for arr in report.j_bar.values()), default=0)
    l = max((arr.shape[1] for arr in report.j_bar.values()), default=0)
    header = ["k"] + [f"J_{m}_{t + 1}" for m in report.modes for t in range(l)]
    lines = [",".join(header)]
    for i in range(steps):
        row = [str(i + 1)]
        for m in report.modes:
            arr = report.j_bar[m]
            for t in range(l):
                row.append(f"{arr[i, t]:.10g}" if i < arr.shape[0] else "nan")
        lines.append(",".join(row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Config round-trip.
# ---------------------------------------------------------------------------

def scenario_to_config(spec: ScenarioSpec) -> dict:
    model = spec.model
    return {
        "name": spec.name,
        "a0": model.a0.tolist(),
        "a_perturbations": [a.tolist() for a in model.a_perturbations],
        "b0": model.b0.tolist(),
        "b_perturbations": [b.tolist() for b in model.b_perturbations],
        "c": model.c.tolist(),
        "r_shape": model.r_shape.tolist(),
        "theta_true": spec.theta_true.tolist(),
        "x0": spec.x0.tolist(),
        "belief_center": spec.belief0.center.tolist(),
        "belief_shape": spec.belief0.shape.tolist(),
        "u_min": spec.bounds.lower.tolist(),
        "u_max": spec.bounds.upper.tolist(),
        "ma": spec.ma.tolist(),
        "horizon": spec.horizon,
        "reference": spec.reference.to_dict(),
        "update_policy": spec.update_policy,
        "t_windows": list(spec.t_windows),
    }


def scenario_from_config(cfg: dict) -> ScenarioSpec:
    model = UncertainModel(
        np.array(cfg["a0"], dtype=float),
        tuple(np.array(a, dtype=float) for a in cfg.get("a_perturbations", [])),
        np.array(cfg["b0"], dtype=float),
        tuple(np.array(b, dtype=float) for b in cfg.get("b_perturbations", [])),
        np.array(cfg["c"], dtype=float),
        np.array(cfg["r_shape"], dtype=float),
    )
    return ScenarioSpec(
        name=cfg.get("name", "custom"),
        model=model,
        theta_true=np.array(cfg["theta_true"], dtype=float),
        x0=np.array(cfg["x0"], dtype=float),
        belief0=Ellipsoid(np.array(cfg["belief_center"], dtype=float),
                          np.array(cfg["belief_shape"], dtype=float)),
        bounds=ControlBounds(np.array(cfg["u_min"], dtype=float),
                             np.array(cfg["u_max"], dtype=float)),
        ma=np.array(cfg["ma"], dtype=float),
        horizon=cfg["horizon"],
        reference=Reference.from_dict(cfg["reference"]),
        update_policy=cfg.get("update_policy", "skip"),
        t_windows=tuple(cfg.get("t_windows", ())),
    )


def load_scenario(path) -> ScenarioSpec:
    with open(path) as fh:
        return scenario_from_config(json.load(fh))
