"""One-step worst-case tracking control.

At state ``x`` with reference ``y_ref`` for the next step, the per-output
tracking error under parameter vector ``theta`` and output noise ``v`` is::

    e_t = f_t + b0_t u + g_t(u) theta + v_t
    f = C A0 x - y_ref,   b0 = C B0,
    g_t(u) = [(C A1 x)_t, ..., (C Ar x)_t, (C B1 u)_t, ..., (C Bs u)_t]

:func:`build_instance` reads the constants from the model's ``tracked``
regressor table, so a :class:`TrackingInstance` holds ``f``, ``b0``, the
noise shape ``q_shape = C R C^T``, the state block ``gx`` of ``g`` (the
columns ``C Ai x``) and the stack ``b_stack`` of the ``C Bj``.

With ``theta`` in the belief ellipsoid ``E(P, th)`` and ``v`` bounded by
``E(Q, 0)``, the worst-case magnitude of ``e_t`` over both sets is::

    |f_t + b0_t u + g_t(u) th| + sqrt(g_t(u) P g_t(u)^T) + sqrt(Q_tt)

The control minimizes the sum of these bounds over a box of admissible
inputs. The epigraph form (one bound variable per output, two second-order
cone constraints each) is solved by an embedded primal log-barrier
interior-point method: cone barrier ``-log(s^2 - |w|^2)``, damped Newton
inner iterations, barrier parameter scaled by 10 per outer stage, stopping
when the duality measure (constraint count / barrier parameter) falls
below 1e-8.

Every solve first probes a short schedule from weight ``WARM_T_START`` =
1e4 near its likely optimum, and falls back to the cold schedule from
weight 1 if that fails to center within ``WARM_PROBE_ITERS`` iterations;
:attr:`RobustSolution.warm_started` says whether the probe was accepted.
The probe starts from the better, by the objective ``sum(z)``
(:func:`_probe_start`), of two inputs read from the program itself: the
certainty-equivalent input, the least-squares solution of
``sum_t mid_t(u)^2``, which zeroes the error at the belief center; and the
least-squares bound input, that of ``sum_t (mid_t(u)^2 + |y_t(u)|^2)``,
which also shrinks the input-dependent radius. On sim2 ``fixed``, sim3
``active`` and ``known_theta`` the optimum sits on the kink ``mid = 0``,
next to the first; on sim3 ``learn`` the radius pulls it away from the
kink, next to the second. The previous step's optimum is no candidate: the
new optimum has often left it, and a probe from there runs out its cap and
restarts cold. README "Robust solver" has the Newton iterations per solve.

A candidate on a finite bound starts ``min(width, 1) / WARM_T_START``
inside it, ``1 / WARM_T_START`` when the other bound is infinite: the
probe's center keeps a box slack of about ``1 / (t slope)``, and Newton on
``-log s`` can at most double a slack per step, so a probe started much
nearer the wall stalls with its decrement near 1 until its cap runs out.

Every stage that follows a center starts from a predictor step (Boyd &
Vandenberghe, *Convex Optimization*, ch. 11; Nocedal & Wright, *Numerical
Optimization*, ch. 14). The weight enters the objective ``t sum(z)``
linearly, so the centers ``x(t)`` satisfy ``t c + grad phi(x(t)) = 0`` and
the Newton step at the next weight ``G t`` (``G = 10``) from ``x(t)`` is
``(G - 1) t dx/dt``. Near the optimum the central path is close to affine
in ``1/t``, ``x(t) = x* + d / t``, so ``x(G t) - x(t) = (1/G - 1) d / t``,
which is that Newton step times exactly ``1/G``: the predictor is the
tangent of the path in ``1/t``. Centering at ``G t`` continues from it.
The weight enters only the z-gradient ``t - cp - cm``, so the Newton
system (gradient in ``u``, factored Schur complement, z-block) is
assembled once per point and back-solved at any weight: the predictor
costs one back-solve of the system that the center's convergence test
built, and an optimal solve assembles ``newton_iterations + 1`` systems.
The predictor is counted as one iteration in ``newton_iterations``; on
the shipped scenarios it cuts the mean iterations per solve by a third or
more (sim2 ``fixed`` 36.5 to 24.7, sim3 ``active`` 49.9 to 29.3, seeds
0-4). Predictor and corrector share one step routine, which halves a step
until strictly interior and passes the accepted point's cone values on, so
no point is evaluated twice.

Each Newton iteration is one pass over Python floats (:class:`_Barrier`):
the systems are tiny (every shipped scenario has at most two inputs, two
outputs and four parameters), and numpy's per-call overhead would cost more
than the arithmetic. A bound variable ``z_t`` enters only its own output's
two cones, so the z-block of the Hessian is diagonal and is eliminated; the
Schur complement left on the ``m`` inputs is assembled in closed form as a
sum of nonnegative rank-one terms, added by rank-one ``L D L^T`` updates,
so rounding near the cone boundary cannot make it indefinite. The input
side of each cone is reduced by a QR factorization, so an iteration costs
``O(l m^2 min(p, m))`` interpreted operations for ``l`` outputs, ``m``
inputs and ``p`` parameters. That cost grows faster than the dense numpy
solve it replaced. On random programs (2 vCPU, Python 3.11, numpy 2.4,
twelve per size) a solve took about a quarter of the dense solve's time at
(l, m, p) = (1, 1, 3) and about half at (2, 2, 4), about as long at
(4, 4, 8), and four times as long at (8, 6, 12).

A program with one free input after pinning (``nf == 1``: sim1 and sim2,
or a two-input box with one side pinned) runs the scalar kernel
(:class:`_ScalarBarrier`). Its Schur complement is 1 x 1, so the factor
lists, the ``L D L^T`` updates and the back-solve of the general kernel
reduce to float arithmetic: each update is ``dia += alpha * v ** 2`` and
the back-solve ``rhs / dia``. It is the ``nf = 1`` case of the general
kernel's arithmetic, operation for operation, so it gives the same iterates
to the bit; the probe, the stage schedule, the centering and every
tolerance are shared. It is not an exact one-input solver (such a solver
would bypass the schedule): it runs the same barrier method, only without
the lists. Every other program, sim3 included, runs the general kernel,
which the tests hold the scalar one to.

That factorization, like nearly everything else a program is built from,
depends on the step only through ``f`` and the state block ``gx``, which
the program sees through fixed linear maps. So a program is split in two
(:class:`_Geometry`): a geometry, built in numpy from the belief, the
model constants ``b0``, ``b_stack`` and ``q_shape`` and the box, holds
the input slopes, the QR factors and the projections of ``gx``, the
pinned inputs' constants, the finite box sides, the probe box, the cold
start and the factors of the least-squares normal equations; each step
maps its ``(f, gx)`` through it over Python floats, at ``O(l p r)``
operations. The last geometry is kept in a one-slot memo keyed by the
belief's ellipsoid and the box, both by identity (each holds read-only
arrays), and by the model constants' bytes, so a hand-built or mutated
table gets a fresh build. The memo fills on the first solve and is
rebuilt whenever the key changes: every solve, built or reused, runs
through the same geometry and the same per-step map. A belief changes
only when an update shrinks it, so over seeds 0-4 a run builds once in
``fixed`` and ``known_theta`` mode (one geometry for all 500 sim2 solves
of each mode) and once per new belief otherwise: sim1 ``learn`` 96
builds for 230 solves, sim2 ``learn`` 160 for 500, sim3 ``learn`` 74 and
``active`` 158 for 500. A step's map through a held geometry costs 5-8 us
on sim2, a geometry build 55-100 us on sim1-sim3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from operator import mul

import numpy as np

from .ellipsoid import Ellipsoid, _FrozenArrays, _set_frozen
from .estimator import ParameterBelief
from .model import UncertainModel

__all__ = [
    "ControlBounds",
    "TrackingInstance",
    "RobustSolution",
    "build_instance",
    "worst_case_interval",
    "solve_robust",
    "solve_known_theta",
]

DUALITY_TARGET = 1e-8
BARRIER_GROWTH = 10.0
NEWTON_TOL = 1e-9
STAGE_TOL = 2e-3
MAX_NEWTON = 60
WARM_T_START = 1e4
WARM_PROBE_ITERS = 12


@dataclass(frozen=True, eq=False)
class ControlBounds(_FrozenArrays):
    """Box of admissible inputs; entries may be infinite.

    A NaN bound, or a side whose two bounds are the same infinity (a point
    at infinity, which has no midpoint to pin the input at), is rejected.
    """

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.atleast_1d(np.array(self.lower, dtype=float))
        upper = np.atleast_1d(np.array(self.upper, dtype=float))
        if lower.shape != upper.shape:
            raise ValueError("bound vectors differ in length")
        if np.isnan(lower).any() or np.isnan(upper).any():
            raise ValueError("bounds must not be NaN")
        if np.any((lower == upper) & np.isinf(lower)):
            raise ValueError("a side's lower and upper bounds are the same "
                             "infinity")
        _set_frozen(self, lower=lower, upper=upper)

    @property
    def m(self) -> int:
        return self.lower.size

    def feasible(self) -> bool:
        return bool(np.all(self.lower <= self.upper))

    def contains(self, u, tol: float = 1e-9) -> bool:
        u = np.asarray(u, dtype=float)
        span = 1.0 + np.maximum(np.abs(self.lower), np.abs(self.upper))
        span = np.where(np.isfinite(span), span, 1.0)
        return bool(np.all(u >= self.lower - tol * span)
                    and np.all(u <= self.upper + tol * span))


@dataclass(frozen=True)
class TrackingInstance:
    """Per-step data of the worst-case tracking program."""

    f: np.ndarray            # (l,)      C A0 x - y_ref
    b0: np.ndarray           # (l, m)    C B0
    gx: np.ndarray           # (l, r)    state block of g: columns C Ai x
    b_stack: np.ndarray      # (s, l, m) the C Bj
    q_shape: np.ndarray      # (l, l)    output-noise bound C R C^T

    @property
    def l(self) -> int:
        return self.f.size

    @property
    def m(self) -> int:
        return self.b0.shape[1]

    @property
    def p(self) -> int:
        return self.gx.shape[1] + self.b_stack.shape[0]

    def regressor(self, u):
        """Stacked g(u): row t holds g_t(u), shape (l, r+s)."""
        u = np.atleast_1d(np.asarray(u, dtype=float))
        return np.concatenate([self.gx, (self.b_stack @ u).T], axis=1)


@dataclass(frozen=True)
class RobustSolution:
    u: np.ndarray
    z: np.ndarray
    objective: float
    status: str
    newton_iterations: int
    warm_started: bool = False


def build_instance(model: UncertainModel, x, y_ref_next) -> TrackingInstance:
    """Assemble the tracking program data at a state and next reference."""
    x = np.asarray(x, dtype=float).ravel()
    y_ref = np.atleast_1d(np.asarray(y_ref_next, dtype=float)).ravel()
    if x.size != model.n:
        raise ValueError(f"state has {x.size} entries, expected {model.n}")
    if y_ref.size != model.l:
        raise ValueError(f"reference has {y_ref.size} entries, expected {model.l}")
    # A NaN cone passes every interior test of the barrier, which would then
    # run out its iterations and return NaN; reject it here instead.
    if not all(map(math.isfinite, x.tolist())):
        raise ValueError(f"state is not finite: {x.tolist()}")
    if not all(map(math.isfinite, y_ref.tolist())):
        raise ValueError(f"reference is not finite: {y_ref.tolist()}")
    t = model.tracked
    return TrackingInstance(f=t.a0 @ x - y_ref, b0=t.b0, gx=t.state_block(x),
                            b_stack=t.b_stack, q_shape=t.q)


def worst_case_interval(instance: TrackingInstance, belief: ParameterBelief, u):
    """Guaranteed per-output error interval ``[lo, hi]`` at input ``u``."""
    g = instance.regressor(u)
    mid = instance.f + instance.b0 @ np.atleast_1d(u) + g @ belief.center
    rad_p = np.sqrt(np.clip(np.einsum("ti,ij,tj->t", g, belief.shape, g), 0.0, None))
    rad_q = np.sqrt(np.clip(np.diag(instance.q_shape), 0.0, None))
    rad = rad_p + rad_q
    return mid - rad, mid + rad


def solve_robust(instance: TrackingInstance, belief: ParameterBelief,
                 bounds: ControlBounds) -> RobustSolution:
    """Minimize the summed worst-case error bounds over the input box.

    Returns the input, the per-output certified bounds ``z`` (recomputed at
    the returned point from the program's rows, so ``max(|lo|, |hi|) = z``
    holds to rounding for :func:`worst_case_interval`'s ``lo`` and ``hi``),
    their sum, a status string, the Newton iteration count and whether the
    warm probe was accepted.
    """
    if bounds.m != instance.m:
        raise ValueError(f"bounds dimension {bounds.m} != inputs {instance.m}")
    if not bounds.feasible():
        m = instance.m
        return RobustSolution(np.full(m, np.nan), np.full(instance.l, np.nan),
                              np.nan, "infeasible", 0)

    u, z, iters, status, warm = _barrier_solve(instance, belief, bounds)
    return RobustSolution(u, np.array(z), sum(z), status, iters, warm)


@lru_cache(maxsize=8)
def _point_belief(theta: tuple) -> ParameterBelief:
    """The point belief at ``theta``, built and decomposed once per value."""
    n = len(theta)
    return ParameterBelief(Ellipsoid(theta, np.zeros((n, n))))


def solve_known_theta(instance: TrackingInstance, theta_true,
                      bounds: ControlBounds) -> RobustSolution:
    """Baseline with the parameter known exactly (point belief, noise kept)."""
    theta = np.atleast_1d(np.asarray(theta_true, dtype=float))
    return solve_robust(instance, _point_belief(tuple(theta.tolist())), bounds)


# ---------------------------------------------------------------------------
# Interior-point machinery.
# ---------------------------------------------------------------------------

class _Geometry:
    """The part of a tracking program that does not depend on the step.

    Per output ``t`` the cone data are affine in ``u``: ``mid_t(u) = mid0_t
    + a_t . u`` and ``w_t(u) = wb_t + Wm_t u`` with ``|w_t(u)|^2 = g_t(u) P
    g_t(u)^T``. With ``S`` the root of ``P`` and ``S_r`` its first ``r``
    columns, ``wb_t = S_r gx_t`` and ``mid0_t = f_t + gx_t . th_r`` are all
    that a step changes: the input slopes ``a_t`` and ``Wm_t`` are read
    from the belief and the model constants ``b0`` and ``b_stack`` alone.
    Inputs whose box collapses to a point are pinned at its midpoint and
    their constant terms folded in, leaving ``nf`` free inputs.

    With the QR factorization ``Wm_t = Q_t R_t`` (``Q_t`` square), keeping
    the nonzero rows of ``R_t`` (at most ``min(p, nf)``), the cone sees
    ``w_t`` only through::

        y_t(u) = Q_k^T w_t(u) = c_t + R_t u,   |w_t|^2 = |y_t|^2 + rho_t,
        c_t = Q_k^T wb_t,   rho_t = |Q_o^T wb_t|^2 = |(I - Q_k Q_k^T) wb_t|^2,

    where ``Q_k`` holds the columns of ``Q_t`` whose row of ``R_t`` is kept
    and ``Q_o`` the others. Both are fixed projections of ``gx_t``, which
    :meth:`rows` applies over Python floats, so an iteration costs the
    same for any parameter count ``p``. Held here as lists: the slopes, the
    kept rows of ``R_t`` and their columns, the two projections, the
    finite box sides, the probe box and the cold start, and the normal
    equations' factors of :meth:`_Barrier.least_squares_inputs`.
    """

    def __init__(self, instance, ellipsoid, bounds):
        l, m = instance.l, instance.m
        r = instance.gx.shape[1]
        th, sroot = ellipsoid.center, ellipsoid.root
        if th.size != instance.p:
            raise ValueError(f"belief has {th.size} parameters, "
                             f"the program {instance.p}")
        ws = instance.b_stack.reshape(-1, l * m)
        midu = instance.b0 + (th[r:] @ ws).reshape(l, m)
        wm = (sroot[:, r:] @ ws).reshape(th.size, l, m).transpose(1, 0, 2)

        lo, hi = bounds.lower, bounds.upper
        width = hi - lo
        pinned = np.isfinite(width) & (width <= 1e-12)
        free = ~pinned
        u_fix = np.zeros(m)
        mid_pin, w_pin = np.zeros(l), np.zeros((l, th.size))
        if pinned.any():
            # Clamped, as u_cold below: the midpoint may overflow.
            u_fix[pinned] = np.clip(0.5 * (lo[pinned] + hi[pinned]),
                                    lo[pinned], hi[pinned])
            mid_pin = midu[:, pinned] @ u_fix[pinned]
            w_pin = wm[:, :, pinned] @ u_fix[pinned]
            midu, wm = midu[:, free], wm[:, :, free]
            lo, hi = lo[free], hi[free]
        nf = midu.shape[1]

        qf, rf = np.linalg.qr(wm, mode="complete")
        qt = qf.transpose(0, 2, 1)
        proj = qt @ sroot[:, :r]                       # Q_t^T S_r
        pin = (qt @ w_pin[:, :, None])[:, :, 0]        # Q_t^T (pinned part)
        qdiag = np.sqrt(np.maximum(np.diag(instance.q_shape), 0.0))
        self.th_r = th[:r].tolist()
        self.outputs, cols = [], []
        for mp, a, rt, pt, bt, q in zip(mid_pin.tolist(), midu.tolist(),
                                        rf.tolist(), proj.tolist(),
                                        pin.tolist(), qdiag.tolist()):
            # A zero row of R_t leaves its coordinate of y_t constant, so
            # that coordinate goes to rho_t; a zero one of those adds 0.
            kept = [(b, row) for b, row, ri in zip(bt, pt, rt) if any(ri)]
            other = [(b, row) for b, row, ri in zip(bt, pt, rt)
                     if not any(ri) and (b or any(row))]
            rt = [ri for ri in rt if any(ri)]
            self.outputs.append((mp, a, rt, q, kept, other))
            cols.append([[ri[j] for ri in rt] for j in range(nf)])
        if nf == 1:
            # One input keeps at most one row of R_t, the first.
            self.scalar_outputs = [
                (mp, a[0], rt[0][0] if rt else 0.0, q,
                 kept[0] if kept else (0.0, []), other)
                for mp, a, rt, q, kept, other in self.outputs]

        box_lo = [(i, b) for i, b in enumerate(lo.tolist()) if math.isfinite(b)]
        box_hi = [(i, b) for i, b in enumerate(hi.tolist()) if math.isfinite(b)]
        probe_box, u_cold = [], []
        for b_lo, b_hi in zip(lo.tolist(), hi.tolist()):
            # A side with an infinite bound insets its finite one by
            # min(inf, 1) / WARM_T_START, like a box wider than 1.
            inset = 1e-12 + min(b_hi - b_lo, 1.0) / WARM_T_START
            probe_box.append((b_lo + inset, b_hi - inset))
            if math.isfinite(b_lo) and math.isfinite(b_hi):
                # Clamped, as the midpoint of a box near the float range
                # overflows; every iterate after it is strictly inside.
                u_cold.append(min(max(0.5 * (b_lo + b_hi), b_lo), b_hi))
            elif math.isfinite(b_lo):
                u_cold.append(b_lo + 1.0)
            elif math.isfinite(b_hi):
                u_cold.append(b_hi - 1.0)
            else:
                u_cold.append(0.0)

        # The normal equations of sum_t mid_t^2 and then, adding the rows of
        # every R_t, of sum_t (mid_t^2 + |y_t|^2); None for a zero pivot.
        factors = []
        if nf:
            low = [[0.0] * nf for _ in range(nf)]
            dia = [0.0] * nf
            for rows in ([a for _, a, *_ in self.outputs],
                         [ri for _, _, rt, *_ in self.outputs for ri in rt]):
                if not rows:
                    break
                for row in rows:
                    _ldl_update(low, dia, 1.0, list(row))
                factors.append(None if 0.0 in dia else
                               ([list(row) for row in low], list(dia)))

        # The attributes every program of this geometry shares.
        u_fix.flags.writeable = free.flags.writeable = False
        self.shared = {
            "l": l, "nf": nf, "free": free, "u_fix": u_fix,
            "box": probe_box, "u_cold": u_cold, "_lo": box_lo, "_hi": box_hi,
            "n_cons": 2 * l + len(box_lo) + len(box_hi), "_cols": cols,
            "_factors": factors,
        }

    def rows(self, f, gx):
        """Per-output ``(mid0, a, c, R, rho, q)`` of a step's ``f`` and ``gx``."""
        th = self.th_r
        rows = []
        for ft, g, (mp, a, rt, q, kept, other) in zip(f.tolist(), gx.tolist(),
                                                     self.outputs):
            c = [b + sum(map(mul, row, g)) for b, row in kept]
            rho = 0.0
            for b, row in other:
                v = b + sum(map(mul, row, g))
                rho += v * v
            rows.append((ft + sum(map(mul, th, g)) + mp, a, c, rt, rho, q))
        return rows

    def scalar_rows(self, f, gx):
        """:meth:`rows` of a one-input program, every entry a float.

        ``R_t`` has at most one row then, and one entry: an output whose
        ``R_t`` keeps no row gets ``c_t = R_t = 0``, whose terms in the
        scalar kernel add exact zeros.
        """
        th = self.th_r
        rows = []
        for ft, g, (mp, a, rt, q, (b, row), other) in zip(
                f.tolist(), gx.tolist(), self.scalar_outputs):
            rho = 0.0
            for bo, ro in other:
                v = bo + sum(map(mul, ro, g))
                rho += v * v
            rows.append((ft + sum(map(mul, th, g)) + mp, a,
                         b + sum(map(mul, row, g)), rt, rho, q))
        return rows


# The geometry of the last program built, as one (key, geometry) pair that
# is replaced whole. The key holds the belief's ellipsoid and the box, both
# compared by identity (each owns read-only arrays), and the model
# constants by value, so a hand-built or mutated instance is rebuilt.
_memo = None


def _geometry(instance, belief, bounds):
    """The :class:`_Geometry` of a program, built once per key."""
    global _memo
    ellipsoid = belief.set
    constants = (instance.gx.shape[1],
                 *((a.dtype.str, a.shape, a.tobytes()) for a in
                   (instance.b0, instance.b_stack, instance.q_shape)))
    memo = _memo
    if memo is not None:
        (held, box, held_constants), geometry = memo
        if held is ellipsoid and box is bounds and held_constants == constants:
            return geometry
    geometry = _Geometry(instance, ellipsoid, bounds)
    _memo = (ellipsoid, bounds, constants), geometry
    return geometry


def _program(instance, belief, bounds):
    """The barrier of a program: :class:`_ScalarBarrier` if one input is free.

    Both kernels run the same method on the same schedule and give the
    same iterates; the scalar one only skips the list arithmetic of a 1 x 1
    Schur complement. Every other program runs :class:`_Barrier`.
    """
    geometry = _geometry(instance, belief, bounds)
    kernel = _ScalarBarrier if geometry.shared["nf"] == 1 else _Barrier
    return kernel(geometry, instance)


class _Barrier:
    """Log-barrier data of one tracking program, over its free inputs.

    A step's cone data ``(mid0_t, a_t, c_t, R_t, rho_t, q_t)`` per output
    (see :class:`_Geometry`, which supplies everything but ``mid0_t``,
    ``c_t`` and ``rho_t`` and is reused while the belief, the box and the
    model constants stay the same). The data are held as nested lists;
    points ``u`` (``nf``) and ``z`` (``l``) are lists of floats, and each
    point carries its ``cones`` (:meth:`evaluate`) from the step that
    accepted it to the next one.
    """

    def __init__(self, geometry, instance):
        vars(self).update(geometry.shared)
        self._rows = geometry.rows(instance.f, instance.gx)

    def evaluate(self, u, z):
        """Cone slacks at ``(u, z)``; None unless it is strictly interior.

        Per output: ``(s+, s-, psi+, psi-, y, |w|^2)`` for the cones
        ``s+ = z - mid - q >= |w|`` and ``s- = z + mid - q >= |w|``, with
        ``psi = s^2 - |w|^2``.
        """
        for i, b in self._lo:
            if u[i] <= b:
                return None
        for i, b in self._hi:
            if u[i] >= b:
                return None
        cones = []
        for zt, (m0, a, c, rt, rho, q) in zip(z, self._rows):
            mid = m0 + sum(map(mul, a, u))
            y = [ci + sum(map(mul, row, u)) for ci, row in zip(c, rt)]
            wn2 = sum(map(mul, y, y)) + rho
            sp = zt - mid - q
            sm = zt + mid - q
            if sp <= 0.0 or sm <= 0.0:
                return None
            pp = sp * sp - wn2
            pm = sm * sm - wn2
            if pp <= 0.0 or pm <= 0.0:
                return None
            cones.append((sp, sm, pp, pm, y, wn2))
        return cones

    def assemble(self, cones, u):
        """Newton system at ``u`` with its ``cones``, for every barrier weight.

        The objective is ``t_b * sum(z)`` plus ``-log psi`` for every cone and
        ``-log`` of every finite box slack. The weight enters only the
        z-gradient ``t_b - cp - cm``, so the system holds ``(cp, cm)`` per
        output and everything else is independent of ``t_b``; one system
        serves :meth:`newton_step` at any weight. ``z_t`` enters only output
        ``t``'s two cones, so the z-block of the Hessian is diagonal,
        ``2 (s^2 + |w|^2) / psi^2`` summed over the pair, and is eliminated:
        the ``nf x nf`` Schur complement left is factored as ``L D L^T``.
        Returns ``(gu, low, dia, cpm, hz, kz)``: the u-gradient, the factor,
        and per output ``(cp, cm)``, ``hzz`` and the (u, z_t) Hessian column.
        """
        n = self.nf
        gu = [0.0] * n
        low = [[0.0] * n for _ in range(n)]
        dia = [0.0] * n
        for i, b in self._lo:
            s = 1.0 / (u[i] - b)
            gu[i] -= s
            dia[i] += s * s
        for i, b in self._hi:
            s = 1.0 / (b - u[i])
            gu[i] += s
            dia[i] += s * s
        cpm, hz, kz = [], [], []
        for (sp, sm, pp, pm, y, wn2), (_, a, _, rt, rho, _), cols in zip(
                cones, self._rows, self._cols):
            jw = [sum(map(mul, col, y)) for col in cols]   # Wm^T w
            ip, im = 1.0 / pp, 1.0 / pm
            r2p, r2m = wn2 + sp * sp, wn2 + sm * sm
            # Gradient (cp - cm) a + c2 Wm^T w in u and t_b - cp - cm in
            # z_t; Hessian ka a - kj Wm^T w in (u, z_t) and hzz in z_t.
            cp, cm = 2.0 * sp * ip, 2.0 * sm * im
            c2 = 2.0 * (ip + im)
            ka = 2.0 * (r2m * im * im - r2p * ip * ip)
            kj = 4.0 * (sp * ip * ip + sm * im * im)
            gc = cp - cm
            k = []
            for i, (ai, ji) in enumerate(zip(a, jw)):
                gu[i] += gc * ai + c2 * ji
                k.append(ka * ai - kj * ji)
            cpm.append((cp, cm))
            hz.append(2.0 * (r2p * ip * ip + r2m * im * im))
            kz.append(k)

            # This output's Schur complement in closed form, as a sum of
            # nonnegative rank-one terms. Formed as (u-block) - k k^T / hzz
            # it would cancel terms of order 1/psi^2 near the cone boundary,
            # which swamps the curvature of directions the cones leave flat.
            # With r = |w| and e = y / r it is
            #   qaa f f^T + R^T (c2 I + (delta - c2) e e^T) R,
            #   qaa = 8 r2p r2m / (r2p psi-^2 + r2m psi+^2),
            #   f = a + kappa Wm^T w,
            #   kappa = (s+ s- - r^2)(s- - s+) / (r2p r2m),
            #   delta = 2 / r2p + 2 / r2m,    r2 = s^2 + r^2,
            # and the last term enters as the rows of R times the square
            # root of its middle factor.
            den = r2p * pm * pm + r2m * pp * pp
            r = math.sqrt(wn2)
            ep, em = pp / (sp + r), pm / (sm + r)          # s - |w|
            kappa = (sp * em + r * ep) * (sm - sp) / (r2p * r2m)
            _ldl_update(low, dia, 8.0 * r2p * r2m / den,
                        [ai + kappa * ji for ai, ji in zip(a, jw)])
            root = math.sqrt(c2)
            if r > 0.0:
                delta = 2.0 * (1.0 / r2p + 1.0 / r2m)
                lam = (c2 * rho + delta * (wn2 - rho)) / wn2
                gamma = (delta - c2) / (math.sqrt(lam) + root) / wn2
                for yi, row in zip(y, rt):
                    g = gamma * yi
                    _ldl_update(low, dia, 1.0,
                                [root * x + g * ji for x, ji in zip(row, jw)])
            else:
                for row in rt:
                    _ldl_update(low, dia, c2, list(row))
        return gu, low, dia, cpm, hz, kz

    @staticmethod
    def newton_step(system, t_b):
        """Newton step ``(du, dz)`` of an :meth:`assemble` system at ``t_b``.

        One back-solve of the factor, with the decrement. If the Schur
        complement is singular, the step is the scaled gradient.
        """
        gu, low, dia, cpm, hz, kz = system
        n = len(gu)
        gz = [t_b - cp - cm for cp, cm in cpm]
        rhs = [-x for x in gu]
        for gzt, hzz, k in zip(gz, hz, kz):
            f = gzt / hzz
            for i in range(n):
                rhs[i] += k[i] * f
        if 0.0 in dia:
            scale = -1.0 / (1.0 + math.sqrt(sum(map(mul, gu, gu))
                                            + sum(map(mul, gz, gz))))
            du = [scale * x for x in gu]
            dz = [scale * x for x in gz]
            return du, dz, -(sum(map(mul, gu, du)) + sum(map(mul, gz, dz)))
        du = _ldl_solve(low, dia, rhs)
        dz = [-(gzt + sum(map(mul, k, du))) / hzz
              for gzt, hzz, k in zip(gz, hz, kz)]
        # -g.(du, dz), summed as the nonnegative rhs.du + sum gz^2 / hzz.
        decrement = sum(map(mul, rhs, du))
        for gzt, hzz in zip(gz, hz):
            decrement += gzt * gzt / hzz
        return du, dz, decrement

    def padded_z(self, u, pad):
        """Epigraph values strictly above the cone bounds at ``u``."""
        z = []
        for m0, a, c, rt, rho, q in self._rows:
            mid = m0 + sum(map(mul, a, u))
            y = [ci + sum(map(mul, row, u)) for ci, row in zip(c, rt)]
            z.append(abs(mid) + math.sqrt(sum(map(mul, y, y)) + rho) + q + pad)
        return z

    def least_squares_inputs(self):
        """The certainty-equivalent and least-squares bound inputs.

        The first minimizes ``sum_t mid_t(u)^2`` and zeroes the error at the
        belief center; the second minimizes ``sum_t (mid_t(u)^2 + |y_t(u)|^2)``
        and also shrinks the input-dependent radius. Each solves its normal
        equations by the geometry's factor, the second's right-hand side
        adding the rows of ``R_t`` to the first's. An input whose factor has
        a zero pivot or whose entries are not all finite is left out; the
        second is left out too when no ``R_t`` has a row, since it then
        equals the first.
        """
        rhs = [0.0] * self.nf
        found = []
        for factor, terms in zip(self._factors, self._normal_terms()):
            for b, row in terms:
                for i, ri in enumerate(row):
                    rhs[i] -= b * ri
            if factor is not None:
                u = _ldl_solve(*factor, rhs)
                if all(map(math.isfinite, u)):
                    found.append(u)
        return found

    def _normal_terms(self):
        """The ``(b, row)`` terms of :meth:`least_squares_inputs`: per
        output ``(mid0_t, a_t)``, then every ``(c_ti, R_t row i)``."""
        return ([(m0, a) for m0, a, *_ in self._rows],
                [(ci, ri) for _, _, c, rt, _, _ in self._rows
                 for ci, ri in zip(c, rt)])

    def advance(self, u, z, cones, du, dz, alpha):
        """First interior ``(u, z) + 2^-j alpha (du, dz)``, ``j < 40``.

        Returns ``(u, z, cones, moved)``: that point and its cones, or the
        given ones with ``moved`` False if no trial is interior.
        """
        for _ in range(40):
            u_try = [x + alpha * d for x, d in zip(u, du)]
            z_try = [x + alpha * d for x, d in zip(z, dz)]
            trial = self.evaluate(u_try, z_try)
            if trial is not None:
                return u_try, z_try, trial, True
            alpha *= 0.5
        return u, z, cones, False

    def center(self, u, z, cones, t_b, tol, max_iter):
        """Damped Newton toward the center at barrier weight ``t_b``.

        From a point with its ``cones``: with a self-concordant barrier the
        step 1/(1 + lambda) stays strictly feasible and decreasing without a
        line search; full steps once the decrement is small. Returns
        ``(u, z, cones, system, iterations, converged)``, where ``system`` is
        the returned point's :meth:`assemble` system if it converged (its
        decrement test needed it) and None otherwise.
        """
        for it in range(max_iter):
            system = self.assemble(cones, u)
            du, dz, decrement = self.newton_step(system, t_b)
            if decrement <= 2.0 * tol:
                return u, z, cones, system, it, True
            lam = math.sqrt(max(decrement, 0.0))
            alpha = 1.0 if lam <= 0.25 else 1.0 / (1.0 + lam)
            u, z, cones, moved = self.advance(u, z, cones, du, dz, alpha)
            if not moved:
                return u, z, cones, None, it + 1, False
        return u, z, cones, None, max_iter, False

    def predict(self, u, z, cones, system, t_b):
        """Predictor from the center at ``t_b / BARRIER_GROWTH`` toward ``t_b``'s.

        The Newton step at ``t_b`` of the center's ``system`` (one back-solve)
        scaled by ``1 / BARRIER_GROWTH``, the tangent of the central path in
        ``1/t`` (see the module docstring), taken through :meth:`advance`.
        Returns ``(u, z, cones)``.
        """
        du, dz, _ = self.newton_step(system, t_b)
        du = [d / BARRIER_GROWTH for d in du]
        dz = [d / BARRIER_GROWTH for d in dz]
        u, z, cones, _ = self.advance(u, z, cones, du, dz, 1.0)
        return u, z, cones


class _ScalarBarrier(_Barrier):
    """:class:`_Barrier` of a program with one free input, over floats.

    The ``nf = 1`` case of :class:`_Barrier`'s arithmetic, operation for
    operation, so the iterates are the same to the bit: a row is
    ``(mid0_t, a_t, c_t, R_t, rho_t, q_t)`` of floats
    (:meth:`_Geometry.scalar_rows`), the gradient ``gu`` and the pivot
    ``dia`` are floats, every ``_ldl_update`` is ``dia += alpha * v ** 2``
    and the back-solve is ``rhs / dia``. Points stay lists, so
    :meth:`~_Barrier.center`, :meth:`~_Barrier.advance`,
    :meth:`~_Barrier.predict` and the least-squares inputs are shared.
    """

    def __init__(self, geometry, instance):
        vars(self).update(geometry.shared)
        self._rows = geometry.scalar_rows(instance.f, instance.gx)

    def evaluate(self, u, z):
        """:meth:`_Barrier.evaluate`; each cone's ``y`` is a float."""
        (x,) = u
        for _, b in self._lo:
            if x <= b:
                return None
        for _, b in self._hi:
            if x >= b:
                return None
        cones = []
        for zt, (m0, a, c, rt, rho, q) in zip(z, self._rows):
            mid = m0 + a * x
            y = c + rt * x
            wn2 = y * y + rho
            sp = zt - mid - q
            sm = zt + mid - q
            if sp <= 0.0 or sm <= 0.0:
                return None
            pp = sp * sp - wn2
            pm = sm * sm - wn2
            if pp <= 0.0 or pm <= 0.0:
                return None
            cones.append((sp, sm, pp, pm, y, wn2))
        return cones

    def assemble(self, cones, u):
        """:meth:`_Barrier.assemble`, with ``gu``, ``dia`` and each ``k`` floats.

        Returns ``(gu, dia, cpm, hz, kz)``.
        """
        (x,) = u
        gu = dia = 0.0
        for _, b in self._lo:
            s = 1.0 / (x - b)
            gu -= s
            dia += s * s
        for _, b in self._hi:
            s = 1.0 / (b - x)
            gu += s
            dia += s * s
        cpm, hz, kz = [], [], []
        for (sp, sm, pp, pm, y, wn2), (_, a, _, rt, rho, _) in zip(
                cones, self._rows):
            jw = rt * y                                     # Wm^T w
            ip, im = 1.0 / pp, 1.0 / pm
            r2p, r2m = wn2 + sp * sp, wn2 + sm * sm
            cp, cm = 2.0 * sp * ip, 2.0 * sm * im
            c2 = 2.0 * (ip + im)
            ka = 2.0 * (r2m * im * im - r2p * ip * ip)
            kj = 4.0 * (sp * ip * ip + sm * im * im)
            gu += (cp - cm) * a + c2 * jw
            cpm.append((cp, cm))
            hz.append(2.0 * (r2p * ip * ip + r2m * im * im))
            kz.append(ka * a - kj * jw)

            den = r2p * pm * pm + r2m * pp * pp
            r = math.sqrt(wn2)
            ep, em = pp / (sp + r), pm / (sm + r)
            kappa = (sp * em + r * ep) * (sm - sp) / (r2p * r2m)
            dia += 8.0 * r2p * r2m / den * (a + kappa * jw) ** 2
            root = math.sqrt(c2)
            if r > 0.0:
                delta = 2.0 * (1.0 / r2p + 1.0 / r2m)
                lam = (c2 * rho + delta * (wn2 - rho)) / wn2
                gamma = (delta - c2) / (math.sqrt(lam) + root) / wn2
                dia += (root * rt + gamma * y * jw) ** 2
            else:
                dia += c2 * rt ** 2
        return gu, dia, cpm, hz, kz

    @staticmethod
    def newton_step(system, t_b):
        """:meth:`_Barrier.newton_step` of an :meth:`assemble` system."""
        gu, dia, cpm, hz, kz = system
        gz = [t_b - cp - cm for cp, cm in cpm]
        rhs = -gu
        for gzt, hzz, k in zip(gz, hz, kz):
            rhs += k * (gzt / hzz)
        if dia == 0.0:
            scale = -1.0 / (1.0 + math.sqrt(gu * gu + sum(map(mul, gz, gz))))
            du = scale * gu
            dz = [scale * x for x in gz]
            return [du], dz, -(gu * du + sum(map(mul, gz, dz)))
        du = rhs / dia
        dz = [-(gzt + k * du) / hzz for gzt, hzz, k in zip(gz, hz, kz)]
        decrement = rhs * du
        for gzt, hzz in zip(gz, hz):
            decrement += gzt * gzt / hzz
        return [du], dz, decrement

    def padded_z(self, u, pad):
        """:meth:`_Barrier.padded_z` over the float rows."""
        (x,) = u
        z = []
        for m0, a, c, rt, rho, q in self._rows:
            y = c + rt * x
            z.append(abs(m0 + a * x) + math.sqrt(y * y + rho) + q + pad)
        return z

    def _normal_terms(self):
        """:meth:`_Barrier._normal_terms`; ``R_t = 0`` is a row it lacks."""
        return ([(m0, (a,)) for m0, a, *_ in self._rows],
                [(c, (rt,)) for _, _, c, rt, _, _ in self._rows if rt])


def _ldl_update(low, dia, alpha, v):
    """Replace ``L D L^T`` by ``L D L^T + alpha v v^T``, for ``alpha >= 0``.

    ``low`` holds the strict lower triangle of the unit factor ``L`` and
    ``dia`` the diagonal of ``D``, both as lists, updated in place; ``v``
    (nonempty) is overwritten. Every pivot is a sum of nonnegative terms
    (Gill, Golub, Murray & Saunders, Math. Comp. 1974, method C1), so no
    cancellation can make it negative.
    """
    last = len(v) - 1
    for j in range(last):
        p = v[j]
        if p == 0.0:
            continue
        if alpha == 0.0:
            return
        dj = dia[j]
        dbar = dj + alpha * p * p
        beta = alpha * p / dbar
        alpha *= dj / dbar
        dia[j] = dbar
        for i in range(j + 1, last + 1):
            v[i] -= p * low[i][j]
            low[i][j] += beta * v[i]
    dia[last] += alpha * v[last] ** 2


def _ldl_solve(low, dia, b):
    """Solve ``L D L^T x = b`` with nonzero pivots ``dia``."""
    n = len(b)
    x = list(b)
    for i in range(n):
        row = low[i]
        for k in range(i):
            x[i] -= row[k] * x[k]
    for i in range(n):
        x[i] /= dia[i]
    for i in reversed(range(n)):
        for k in range(i + 1, n):
            x[i] -= low[k][i] * x[k]
    return x


def _probe_start(prog):
    """Start of the warm probe over the free inputs, or None if there is none.

    The candidates are the program's :meth:`_Barrier.least_squares_inputs`,
    each clipped into the probe box, the box less an inset of
    ``min(width, 1) / WARM_T_START`` per side; the one with the smallest
    objective ``sum(z)`` wins, and a candidate whose objective is not finite
    never does. The center at weight ``t`` keeps a box slack of about
    ``1 / (t * slope)``, and Newton on ``-log(s)`` can at most double a
    slack per step, so a candidate on a bound starts that far inside it
    rather than at the wall.
    """
    start, best = None, math.inf
    for u in prog.least_squares_inputs():
        u = [min(max(x, lo), hi) for x, (lo, hi) in zip(u, prog.box)]
        objective = sum(prog.padded_z(u, 0.0))
        if objective < best:
            start, best = u, objective
    return start


def _barrier_solve(instance, belief, bounds):
    prog = _program(instance, belief, bounds)
    if prog.nf == 0:
        return prog.u_fix.copy(), prog.padded_z([], 0.0), 0, "optimal", False
    l = prog.l

    def stage_schedule(t_start):
        stages = [t_start]
        while prog.n_cons / stages[-1] >= DUALITY_TARGET:
            stages.append(stages[-1] * BARRIER_GROWTH)
        return stages

    total_iters = 0
    warm_ok = False
    u0 = _probe_start(prog)
    if u0 is not None:
        # Probe a short high-weight schedule near the likely optimum; a
        # start that is not near it fails to center quickly and falls back
        # to the cold path, which is robust from any box point.
        stages = stage_schedule(WARM_T_START)
        z0 = prog.padded_z(u0, max(3.0 * l / WARM_T_START, 1e-3))
        cones = prog.evaluate(u0, z0)
        if cones is not None:
            u, z, cones, system, iters, warm_ok = prog.center(
                u0, z0, cones, stages[0], STAGE_TOL, WARM_PROBE_ITERS)
            total_iters += iters
    if warm_ok:
        stages = stages[1:]
    else:
        u = list(prog.u_cold)
        z = prog.padded_z(u, 1.0)
        cones = prog.evaluate(u, z)
        stages = stage_schedule(1.0)
    status = "optimal"
    if cones is None:
        # Only rounding at extreme magnitudes puts the cold start on a
        # boundary. No stage can leave it; each predictor still counts.
        total_iters += len(stages) - 1
        status, stages = "max_iter", []
    for i, t_b in enumerate(stages):
        if warm_ok or i:
            # Every stage but the cold start's first follows a center, whose
            # system the predictor re-solves at the new weight; only a
            # center that did not converge leaves it to be assembled here.
            if system is None:
                system = prog.assemble(cones, u)
            u, z, cones = prog.predict(u, z, cones, system, t_b)
            total_iters += 1
        tol = NEWTON_TOL if t_b == stages[-1] else STAGE_TOL
        u, z, cones, system, iters, done = prog.center(
            u, z, cones, t_b, tol, MAX_NEWTON)
        total_iters += iters
        if not done:
            status = "max_iter"

    u_full = prog.u_fix.copy()
    u_full[prog.free] = u
    return u_full, prog.padded_z(u, 0.0), total_iters, status, warm_ok
