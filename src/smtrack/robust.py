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
inputs. A program *splits* when each output moves at most one free input
and each free input moves exactly one output. Every shipped program does:
sim1 and sim2 have one input and one output, and in sim3 output 0 feels
input 0 alone and output 1 input 1 alone, through exact zeros of ``C B0``,
``C B1`` and ``C B2`` that every belief keeps. A split program is a sum of
one-input programs, each solved in closed form (:func:`_split`): its cost
``|m0 + a u| + sqrt((c + r u)^2 + rho) + q`` is convex, and its minimum
lies among at most six candidates, the box ends, the kink, the apex and the
two stationary points of the smooth piece, each scored over floats. Every
other program is solved in epigraph form (one bound variable per output,
two second-order cone constraints each) by an embedded primal log-barrier
interior-point method: cone barrier ``-log(s^2 - |w|^2)``, damped Newton
inner iterations, barrier parameter scaled by 10 per outer stage, stopping
when the duality measure (constraint count / barrier parameter) falls
below 1e-8. On every sim1-sim3 solve of seeds 0-2 the closed form's
objective is never above the barrier's on the same program, and at most
1.1e-9 relative below it.

The barrier is the textbook path (Boyd & Vandenberghe, *Convex
Optimization*, 11.3). It starts at the cold start: each input at its box's
midpoint, 1 inside the finite bound of a half-infinite side, or at 0, and
each bound ``z_t`` 1 above its cone's, at weight 1. Each later stage starts
at the center before it. Each Newton step assembles and solves its system at
its point and weight. One step routine halves a step until the point is
strictly interior and passes that point's cone values on, so no point is
evaluated twice.

The barrier has one kernel (:class:`_Barrier`), which runs every program
that does not split and which the tests hold the closed form to. Each of
its Newton iterations is one pass over Python floats: the systems are
tiny (every shipped scenario has at most two inputs, two outputs and four
parameters), and numpy's per-call overhead would cost more than the
arithmetic. A bound variable ``z_t`` enters only its own output's
two cones, so the z-block of the Hessian is diagonal and is eliminated; the
Schur complement left on the ``nf`` free inputs is assembled in closed
form as a sum of nonnegative rank-one terms, added by rank-one ``L D L^T``
updates, so rounding near the cone boundary cannot make it indefinite. Each
cone reads its ``p`` rows directly, so an iteration costs ``O(l p nf^2)``
interpreted operations for ``l`` outputs and ``p`` parameters.

Nearly everything a program is built from depends on the step only through
``f`` and the state block ``gx``, which the program sees through fixed
linear maps. So a program is split in two (:class:`_Geometry`): a
geometry, built in numpy from the belief, the model constants ``b0``,
``b_stack`` and ``q_shape`` and the box, holds the input slopes, each
output's input block ``Wm_t``, the map of ``gx`` onto the cone offsets, the
pinned inputs' constants and whether and how the program splits; for a
program that splits it also holds each output's one-input reduction, which
no step changes. Each step maps its ``(f, gx)`` through it over Python
floats, at ``O(l p r)`` operations. The geometry is a held value
(``ellipsoid._held``): it is kept while the same belief ellipsoid, box and
model constants come back, each compared by identity, and held only when
those constants are read-only arrays that own their data (as the model's
``tracked`` table holds them), so a hand-built writable instance gets a
fresh build on every solve. Every solve, built or reused, runs through the
same geometry and the same per-step map. A belief changes only when an
update shrinks it, so over seeds 0-4 of one scenario object the runs of a
``fixed`` or ``known_theta`` mode build once (one geometry for all 500
sim2 solves of each mode) and the others once per new belief: sim1
``learn`` 96 builds for 230 solves, sim2 ``learn`` 160 for 500, sim3
``learn`` 74 and ``active`` 158 for 500 (``tests/digest.py`` prints each
count).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from operator import mul

import numpy as np

from .ellipsoid import Ellipsoid, _FrozenArrays, _held, _set_frozen
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


@dataclass(frozen=True, eq=False)
class ControlBounds(_FrozenArrays):
    """Box of admissible inputs; entries may be infinite.

    A NaN bound, a side whose two bounds are the same infinity (a point at
    infinity, which has no midpoint to pin the input at) and an empty box
    (a lower bound above its upper, ``[inf], [-inf]`` included) are
    rejected. So every box holds a point, and every robust program over it
    has an input to choose.
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
        if np.any(lower > upper):
            raise ValueError("bounds are empty: a lower bound exceeds its upper")
        _set_frozen(self, lower=lower, upper=upper)

    @property
    def m(self) -> int:
        return self.lower.size

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
    """Result of :func:`solve_robust`.

    ``status`` is ``"optimal"``; ``"max_iter"`` if a stage did not center
    (or the cold start was lost to rounding); or ``"non_finite"`` if the
    solve ended but some bound ``z`` is not finite, as for an input pinned
    near the float range. Each status is a solver outcome: a box is never
    empty (:class:`ControlBounds` rejects one). A program that splits into
    one-input programs (every shipped one; see :class:`_Geometry`) is
    solved in closed form, with no iterations: ``newton_iterations`` is 0
    and ``status`` ``"optimal"`` or ``"non_finite"``.
    """

    u: np.ndarray
    z: np.ndarray
    objective: float
    status: str
    newton_iterations: int


def build_instance(model: UncertainModel, x, y_ref_next) -> TrackingInstance:
    """Assemble the tracking program data at a state and next reference."""
    x = np.asarray(x, dtype=float).ravel()
    y_ref = np.atleast_1d(np.asarray(y_ref_next, dtype=float)).ravel()
    if x.size != model.n:
        raise ValueError(f"state has {x.size} entries, expected {model.n}")
    if y_ref.size != model.l:
        raise ValueError(f"reference has {y_ref.size} entries, expected {model.l}")
    # A NaN state or reference gives NaN cones, which certify no bound;
    # reject it here instead.
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
    their sum, a status string and the Newton iteration count. A program
    that splits is solved by :func:`_split`, with no iterations; any other
    runs the barrier schedule (:func:`_barrier_path`). A solve whose bounds
    ``z`` are not all finite (inputs pinned near the float range, say)
    reports ``"non_finite"``.
    """
    if bounds.m != instance.m:
        raise ValueError(f"bounds dimension {bounds.m} != inputs {instance.m}")
    geometry = _geometry(instance.gx.shape[1], belief.set, bounds, instance.b0,
                         instance.b_stack, instance.q_shape)
    if geometry.split is not None:
        u, z = _split(geometry, instance)
        iters, status = 0, "optimal"
    else:
        prog = _Barrier(geometry, instance)
        u, iters, status = _barrier_path(prog)
        z = prog.padded_z(u, 0.0)
    if status == "optimal" and not all(map(math.isfinite, z)):
        status = "non_finite"
    if geometry.nf == geometry.u_fix.size:
        u_full = np.array(u)
    else:
        u_full = geometry.u_fix.copy()
        u_full[geometry.free] = u
    return RobustSolution(u_full, np.array(z), sum(z), status, iters)


@_held
def _point_belief(theta) -> ParameterBelief:
    """The point belief at ``theta``, held while the same read-only ``theta``
    comes back, so a run builds and decomposes it once."""
    return ParameterBelief(Ellipsoid(theta, np.zeros((theta.size, theta.size))))


def solve_known_theta(instance: TrackingInstance, theta_true,
                      bounds: ControlBounds) -> RobustSolution:
    """Baseline with the parameter known exactly (point belief, noise kept)."""
    theta = np.atleast_1d(np.asarray(theta_true, dtype=float))
    return solve_robust(instance, _point_belief(theta), bounds)


# ---------------------------------------------------------------------------
# Interior-point machinery.
# ---------------------------------------------------------------------------

class _Geometry:
    """The part of a tracking program that does not depend on the step.

    Per output ``t`` the cone data are affine in ``u``: ``mid_t(u) = mid0_t
    + a_t . u`` and ``w_t(u) = wb_t + Wm_t u`` with ``|w_t(u)|^2 = g_t(u) P
    g_t(u)^T``, which any factor ``F F^T = P`` gives as ``w_t = F^T
    g_t^T``; the belief's one (``Ellipsoid.factor``) is read. With ``S =
    F^T`` and ``S_r`` its first ``r`` columns, ``wb_t = S_r gx_t`` and
    ``mid0_t = f_t + gx_t . th_r`` are all that a step changes: the input
    slopes ``a_t`` and ``Wm_t`` are read from the belief and the model
    constants ``b0`` and ``b_stack`` alone. Inputs whose box collapses to a
    point are pinned at its midpoint, and inputs that move no cone (a zero
    column in ``a_t`` and in every ``Wm_t``) at 0 clamped into their box;
    their constant terms are folded in, leaving ``nf`` free inputs.

    The program splits when each output moves at most one free input and
    each free input moves exactly one output, reading "moves" from the exact
    zeros of the slopes and of ``Wm_t``. :attr:`split` then maps each output
    to the index of the free input it moves, or to None for an output that
    moves none; it is None when the program does not split. A program with
    no free input splits.

    The pinned inputs add ``w_pin_t`` to the offset, so a step's cone reads
    ``w_t(u) = wb_t + Wm_t u`` with ``wb_t = S_r gx_t + w_pin_t``, which
    :meth:`offsets` forms over Python floats with ``mid0_t``; :meth:`rows`
    adds the fixed slopes. Held here as lists: per output the pinned terms
    (:attr:`pins`) and the slopes, ``Wm_t`` (``p x nf``) and noise radius
    (:attr:`cones`), ``S_r`` and the free inputs' box (:attr:`bounds`); and
    as read-only arrays the mask ``free`` of the free inputs and the full
    input ``u_fix`` holding the pinned values.

    A program that splits also holds, per output, its noise radius ``q``
    and the reduction of its one-input cost that no step changes
    (:attr:`reduced`, read by :func:`_split`): None for an output that moves
    no input, else ``(i, a, r, e, lo, hi)``, the input ``i`` it moves, the
    slope ``a = a_t[i]``, the length ``r`` of column ``i`` of ``Wm_t``, the
    unit column ``e`` (the zero column itself if ``r = 0``) and the input's
    box with each infinite side clamped to the largest float.

    It is built from the parts of a program that a run keeps: the number
    ``r`` of state columns of ``g``, the belief's ellipsoid, the box and the
    model constants ``b0``, ``b_stack`` and ``q_shape``, never from a step's
    :class:`TrackingInstance`, so that ``_geometry`` can hold it while those
    parts come back.
    """

    def __init__(self, r, ellipsoid, bounds, b0, b_stack, q_shape):
        l, m = b0.shape
        th, s = ellipsoid.center, ellipsoid.factor.T
        if th.size != r + len(b_stack):
            raise ValueError(f"belief has {th.size} parameters, "
                             f"the program {r + len(b_stack)}")
        ws = b_stack.reshape(-1, l * m)
        midu = b0 + (th[r:] @ ws).reshape(l, m)
        wm = (s[:, r:] @ ws).reshape(th.size, l, m).transpose(1, 0, 2)

        lo, hi = bounds.lower, bounds.upper
        width = hi - lo
        boxed = np.isfinite(width) & (width <= 1e-12)
        # An input whose column is zero in the slopes and in every Wm_t
        # moves no cone, so no value of it changes the objective; left free
        # on an unbounded side it would leave a zero Schur pivot at every
        # point. (A point belief zeroes every Wm_t, so the slopes decide.)
        dead = ~boxed & ~midu.any(axis=0) & ~wm.any(axis=(0, 1))
        pinned = boxed | dead
        free = ~pinned
        u_fix = np.zeros(m)
        mid_pin, w_pin = np.zeros(l), np.zeros((l, th.size))
        if pinned.any():
            # Half the width, not of the sum: lo + hi overflows near the
            # float range, and lo + 0.5 (hi - lo) rounds into [lo, hi].
            u_fix[boxed] = lo[boxed] + 0.5 * (hi[boxed] - lo[boxed])
            u_fix[dead] = np.clip(0.0, lo[dead], hi[dead])
            mid_pin = midu[:, pinned] @ u_fix[pinned]
            w_pin = wm[:, :, pinned] @ u_fix[pinned]
            midu, wm = midu[:, free], wm[:, :, free]
            lo, hi = lo[free], hi[free]
        nf = midu.shape[1]
        moves = (midu != 0.0) | wm.any(axis=1)
        self.split = None
        if (moves.sum(axis=1) <= 1).all() and (moves.sum(axis=0) == 1).all():
            self.split = [int(row.argmax()) if row.any() else None
                          for row in moves]

        qdiag = np.sqrt(np.maximum(np.diag(q_shape), 0.0))
        self.th_r = th[:r].tolist()
        self.s_r = s[:, :r].tolist()
        self.pins = list(zip(mid_pin.tolist(), w_pin.tolist()))
        self.cones = list(zip(midu.tolist(), wm.tolist(), qdiag.tolist()))
        self.bounds = list(zip(lo.tolist(), hi.tolist()))
        if self.split is not None:
            big = sys.float_info.max
            self.reduced = []
            for i, (a, rt, q) in zip(self.split, self.cones):
                if i is None:
                    self.reduced.append((q, None))
                    continue
                col = [row[i] for row in rt]
                norm = math.hypot(*col)
                e = [x / norm for x in col] if norm else col
                b_lo, b_hi = self.bounds[i]
                self.reduced.append(
                    (q, (i, a[i], norm, e, max(b_lo, -big), min(b_hi, big))))
        u_fix.flags.writeable = free.flags.writeable = False
        self.l, self.nf, self.free, self.u_fix = l, nf, free, u_fix

    def offsets(self, f, gx):
        """Per-output ``(mid0, c)`` of a step's ``f`` and ``gx``: ``mid0_t``
        and ``c = wb_t``, the only cone data a step changes."""
        th, s_r = self.th_r, self.s_r
        return [(ft + sum(map(mul, th, g)) + mp,
                 [b + sum(map(mul, row, g)) for b, row in zip(pin, s_r)])
                for ft, g, (mp, pin) in zip(f.tolist(), gx.tolist(),
                                            self.pins)]

    def rows(self, f, gx):
        """Per-output ``(mid0, a, c, R, q)`` of a step's ``f`` and ``gx``:
        ``c`` is ``wb_t`` and ``R`` is ``Wm_t``."""
        return [(m0, a, c, rt, q) for (m0, c), (a, rt, q)
                in zip(self.offsets(f, gx), self.cones)]


# The geometry of a program, held while its parts come back.
_geometry = _held(_Geometry)


class _Barrier:
    """Log-barrier data of one tracking program, over its free inputs.

    A step's cone data ``(mid0_t, a_t, c_t, R_t, q_t)`` per output, with
    ``c_t = wb_t`` and ``R_t = Wm_t`` (see :class:`_Geometry`, which
    supplies everything but ``mid0_t`` and ``c_t``), the finite box sides
    ``_lo`` and ``_hi``, the cold start ``u_cold`` and the constraint count
    ``n_cons``. The data are held as nested lists; points ``u`` (``nf``) and
    ``z`` (``l``) are lists of floats, and each point carries its ``cones``
    (:meth:`evaluate`) from the step that accepted it to the next one.
    """

    def __init__(self, geometry, instance):
        self.l, self.nf = geometry.l, geometry.nf
        self._rows = geometry.rows(instance.f, instance.gx)
        box = geometry.bounds
        self._lo = [(i, b) for i, (b, _) in enumerate(box) if math.isfinite(b)]
        self._hi = [(i, b) for i, (_, b) in enumerate(box) if math.isfinite(b)]
        self.n_cons = 2 * self.l + len(self._lo) + len(self._hi)
        self.u_cold = []
        for b_lo, b_hi in box:
            if math.isfinite(b_lo) and math.isfinite(b_hi):
                # Clamped, as the midpoint of a box near the float range
                # overflows; every iterate after it is strictly inside.
                self.u_cold.append(min(max(0.5 * (b_lo + b_hi), b_lo), b_hi))
            elif math.isfinite(b_lo):
                self.u_cold.append(b_lo + 1.0)
            elif math.isfinite(b_hi):
                self.u_cold.append(b_hi - 1.0)
            else:
                self.u_cold.append(0.0)

    def evaluate(self, u, z):
        """Cone slacks at ``(u, z)``; None unless it is strictly interior.

        Per output: ``(s+, s-, psi+, psi-, w, |w|^2)`` for the cones
        ``s+ = z - mid - q >= |w|`` and ``s- = z + mid - q >= |w|``, with
        ``psi = s^2 - |w|^2``.
        """
        # Each test is written so that a NaN fails it.
        for i, b in self._lo:
            if not u[i] > b:
                return None
        for i, b in self._hi:
            if not u[i] < b:
                return None
        cones = []
        for zt, (m0, a, c, rt, q) in zip(z, self._rows):
            mid = m0 + sum(map(mul, a, u))
            w = [ci + sum(map(mul, row, u)) for ci, row in zip(c, rt)]
            wn2 = sum(map(mul, w, w))
            sp = zt - mid - q
            sm = zt + mid - q
            if not (sp > 0.0 and sm > 0.0):
                return None
            pp = sp * sp - wn2
            pm = sm * sm - wn2
            if not (pp > 0.0 and pm > 0.0):
                return None
            cones.append((sp, sm, pp, pm, w, wn2))
        return cones

    def newton_step(self, cones, u, t_b):
        """Newton step ``(du, dz, decrement)`` at ``u`` with its ``cones``
        and barrier weight ``t_b``.

        The objective is ``t_b * sum(z)`` plus ``-log psi`` for every cone and
        ``-log`` of every finite box slack. ``z_t`` enters only output ``t``'s
        two cones, so the z-block of the Hessian is diagonal, ``2 (s^2 +
        |w|^2) / psi^2`` summed over the pair, and is eliminated: the ``nf x
        nf`` Schur complement left is factored as ``L D L^T`` and
        back-solved, with the decrement. Each output's terms that do not
        depend on the inputs come from :func:`_cone_terms`; what is left here
        is the input-side algebra. If the Schur complement has a zero pivot,
        the step is :func:`_scaled_gradient`.
        """
        gu, dia = self._box_terms(u)
        low = [[0.0] * self.nf for _ in range(self.nf)]
        gz, hz, kz = [], [], []
        for (sp, sm, pp, pm, w, wn2), (_, a, _, rt, _) in zip(cones,
                                                              self._rows):
            # Wm^T w, by the columns of the rows; a program with no
            # parameter has no rows.
            jw = ([sum(map(mul, col, w)) for col in zip(*rt)] if rt
                  else [0.0] * self.nf)
            cp, cm, c2, ka, kj, hzz, qaa, kappa, root, gamma = _cone_terms(
                sp, sm, pp, pm, wn2)
            gc = cp - cm
            k = []
            for i, (ai, ji) in enumerate(zip(a, jw)):
                gu[i] += gc * ai + c2 * ji
                k.append(ka * ai - kj * ji)
            gz.append(t_b - cp - cm)
            hz.append(hzz)
            kz.append(k)
            _ldl_update(low, dia, qaa,
                        [ai + kappa * ji for ai, ji in zip(a, jw)])
            if gamma is None:
                for row in rt:
                    _ldl_update(low, dia, c2, list(row))
            else:
                for wi, row in zip(w, rt):
                    g = gamma * wi
                    _ldl_update(low, dia, 1.0,
                                [root * x + g * ji for x, ji in zip(row, jw)])
        rhs = [-x for x in gu]
        for gzt, hzz, k in zip(gz, hz, kz):
            f = gzt / hzz
            for i in range(self.nf):
                rhs[i] += k[i] * f
        if 0.0 in dia:
            return _scaled_gradient(gu, gz)
        du = _ldl_solve(low, dia, rhs)
        dz = [-(gzt + sum(map(mul, k, du))) / hzz
              for gzt, hzz, k in zip(gz, hz, kz)]
        # -g.(du, dz), summed as the nonnegative rhs.du + sum gz^2 / hzz.
        decrement = sum(map(mul, rhs, du))
        for gzt, hzz in zip(gz, hz):
            decrement += gzt * gzt / hzz
        return du, dz, decrement

    def _box_terms(self, u):
        """The box barrier's u-gradient and diagonal Hessian at ``u``, as two
        lists of ``nf`` floats."""
        gu = [0.0] * self.nf
        dia = [0.0] * self.nf
        for i, b in self._lo:
            s = 1.0 / (u[i] - b)
            gu[i] -= s
            dia[i] += s * s
        for i, b in self._hi:
            s = 1.0 / (b - u[i])
            gu[i] += s
            dia[i] += s * s
        return gu, dia

    def padded_z(self, u, pad):
        """Epigraph values strictly above the cone bounds at ``u``."""
        z = []
        for m0, a, c, rt, q in self._rows:
            mid = m0 + sum(map(mul, a, u))
            w = [ci + sum(map(mul, row, u)) for ci, row in zip(c, rt)]
            z.append(abs(mid) + math.sqrt(sum(map(mul, w, w))) + q + pad)
        return z

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
        step 1/(1 + lambda) stays strictly interior and decreasing without a
        line search; full steps once the decrement is small. Returns ``(u,
        z, cones, iterations, converged)``.
        """
        for it in range(max_iter):
            du, dz, decrement = self.newton_step(cones, u, t_b)
            if decrement <= 2.0 * tol:
                return u, z, cones, it, True
            lam = math.sqrt(max(decrement, 0.0))
            alpha = 1.0 if lam <= 0.25 else 1.0 / (1.0 + lam)
            u, z, cones, moved = self.advance(u, z, cones, du, dz, alpha)
            if not moved:
                return u, z, cones, it + 1, False
        return u, z, cones, max_iter, False


def _cone_terms(sp, sm, pp, pm, wn2):
    """One output's Newton coefficients that do not depend on the inputs.

    From a point's cone ``(s+, s-, psi+, psi-, |w|^2)``: the output's
    u-gradient is ``(cp - cm) a + c2 Wm^T w`` and its z-gradient
    ``t_b - cp - cm``; its (u, z_t) Hessian column is
    ``ka a - kj Wm^T w`` and its z-Hessian ``hzz``. Returns ``(cp, cm, c2,
    ka, kj, hzz, qaa, kappa, root, gamma)``.

    The rest is the output's Schur complement in closed form, as a sum of
    nonnegative rank-one terms (Lobo, Vandenberghe, Boyd & Lebret 1998).
    Formed as (u-block) - k k^T / hzz it would cancel terms of order
    1/psi^2 near the cone boundary, which swamps the curvature of
    directions the cones leave flat. With r = |w| and e = w / r it is::

        qaa f f^T + Wm^T (c2 I + (delta - c2) e e^T) Wm,
        qaa = 8 r2p r2m / (r2p psi-^2 + r2m psi+^2),
        f = a + kappa Wm^T w,
        kappa = (s+ s- - r^2)(s- - s+) / (r2p r2m),
        delta = 2 / r2p + 2 / r2m,    r2 = s^2 + r^2,

    and the last term enters as the rows of ``Wm`` times the square root of
    its middle factor, ``root I + (sqrt(delta) - root) e e^T`` as ``|e| =
    1``: row ``i`` becomes ``root Wm_i + gamma w_i Wm^T w`` with ``root =
    sqrt(c2)``. Each term is added by a rank-one ``L D L^T`` update (method
    C1 of Gill, Golub, Murray & Saunders 1974), so no pivot can turn
    negative. ``gamma`` is None when ``|w| = 0``: ``e`` is then undefined
    and the rows of ``Wm`` enter with weight ``c2``.
    """
    ip, im = 1.0 / pp, 1.0 / pm
    r2p, r2m = wn2 + sp * sp, wn2 + sm * sm
    c2 = 2.0 * (ip + im)
    ka = 2.0 * (r2m * im * im - r2p * ip * ip)
    kj = 4.0 * (sp * ip * ip + sm * im * im)
    hzz = 2.0 * (r2p * ip * ip + r2m * im * im)
    qaa = 8.0 * r2p * r2m / (r2p * pm * pm + r2m * pp * pp)
    r = math.sqrt(wn2)
    ep, em = pp / (sp + r), pm / (sm + r)          # s - |w|
    kappa = (sp * em + r * ep) * (sm - sp) / (r2p * r2m)
    root = math.sqrt(c2)
    gamma = None
    if r > 0.0:
        delta = 2.0 * (1.0 / r2p + 1.0 / r2m)
        gamma = (delta - c2) / (math.sqrt(delta) + root) / wn2
    return (2.0 * sp * ip, 2.0 * sm * im, c2, ka, kj, hzz, qaa, kappa, root,
            gamma)


def _scaled_gradient(gu, gz):
    """The fallback step ``-(gu, gz) / (1 + |(gu, gz)|)`` for a Schur
    complement with a zero pivot, as ``(du, dz, decrement)``."""
    scale = -1.0 / (1.0 + math.sqrt(sum(map(mul, gu, gu))
                                    + sum(map(mul, gz, gz))))
    du = [scale * x for x in gu]
    dz = [scale * x for x in gz]
    return du, dz, -(sum(map(mul, gu, du)) + sum(map(mul, gz, dz)))


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
    dia[last] += alpha * (v[last] * v[last])


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


def _split(geometry, instance):
    """``(u, z)`` of a program that splits into one-input programs, exactly.

    Output ``t`` moves at most the free input ``i = split[t]``, which moves
    no other output, so the cost is a sum of one-input costs ``|m0 + a u_i|
    + sqrt((c + r u_i)^2 + rho) + q``, each minimized over its own side of
    the box. The geometry holds each such output's reduction
    (:attr:`_Geometry.reduced`): ``a = a_t[i]``, ``r = |col|`` for column
    ``i`` of ``Wm_t``, the unit column ``e`` and the clamped box. A step
    forms the rest from its offsets (:meth:`_Geometry.offsets`): ``c =
    wb_t . e``, and the part of ``wb_t`` off ``e`` goes to ``rho`` (all of
    ``|wb_t|^2`` if ``r = 0``).

    Each such cost is convex. Off the kink ``m0 + a u = 0`` and the apex ``c
    + r u = 0`` it is smooth, and it is stationary only where ``c + r u =
    +-|a| sqrt(rho / (r^2 - a^2))``, which needs ``r^2 > a^2``. So its
    minimum over the box lies among the box ends, the kink, the apex and
    those two points. Each is clipped into the box, an infinite side
    standing for the largest float, and scored over floats; the first of
    least cost wins. An output that moves no input adds its constant bound.
    """
    u = [0.0] * geometry.nf
    z = []
    for (m0, c), (q, reduced) in zip(
            geometry.offsets(instance.f, instance.gx), geometry.reduced):
        if reduced is None:
            z.append(abs(m0) + math.sqrt(sum(map(mul, c, c))) + q)
            continue
        i, a, r, e, lo, hi = reduced
        ce = sum(map(mul, c, e))
        rho = 0.0
        for ci, ei in zip(c, e):
            d = ci - ce * ei
            rho += d * d
        c = ce
        candidates = [lo, hi]
        if a:
            candidates.append(-m0 / a)
        if r:
            candidates.append(-c / r)
            if r * r > a * a:
                y = abs(a) * math.sqrt(rho / (r * r - a * a))
                candidates += [(y - c) / r, (-y - c) / r]
        best = None
        for x in candidates:
            x = min(max(x, lo), hi)
            y = c + r * x
            cost = abs(m0 + a * x) + math.sqrt(y * y + rho) + q
            if best is None or cost < best:
                u[i], best = x, cost
        z.append(best)
    return u, z


def _barrier_path(prog):
    """The barrier schedule over the free inputs of a program with ``nf >=
    1``: ``(u, iterations, status)``.

    From the cold start ``u_cold``, with each bound ``z_t`` 1 above its
    cone's, each stage centers at its weight, from 1 up by factors of
    ``BARRIER_GROWTH``, and the first weight ``t`` with ``n_cons / t`` below
    ``DUALITY_TARGET`` is the last stage. Each stage starts at the center
    before it.
    """
    u = list(prog.u_cold)
    z = prog.padded_z(u, 1.0)
    cones = prog.evaluate(u, z)
    if cones is None:
        # Only rounding at extreme magnitudes puts the cold start on a
        # boundary, and no stage can leave it.
        return u, 0, "max_iter"
    t_b, iterations, status = 1.0, 0, "optimal"
    while True:
        last = prog.n_cons / t_b < DUALITY_TARGET
        u, z, cones, iters, done = prog.center(
            u, z, cones, t_b, NEWTON_TOL if last else STAGE_TOL, MAX_NEWTON)
        iterations += iters
        if not done:
            status = "max_iter"
        if last:
            return u, iterations, status
        t_b *= BARRIER_GROWTH
