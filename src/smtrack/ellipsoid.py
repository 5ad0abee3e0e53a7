"""Ellipsoidal sets and the outer-bounding intersection fusion.

An ellipsoid is parameterized by a center ``a`` and a symmetric positive
semidefinite shape matrix ``P``::

    E(P, a) = {x : (x - a)^T P^{-1} (x - a) <= 1}

Degenerate (singular ``P``) sets are allowed; membership then additionally
requires ``x - a`` to lie in the range of ``P``.

One fusion family outer-bounds the intersection of two ellipsoids: the
measurement update of a constant parameter set, which has no time update.
It depends on a scalar parameter whose volume-optimal value solves a
rational root equation. Unless a closed-form test keeps the prior first,
``_Fusion.fuse`` settles it by two one-dimensional facts, each found by
bracketed Newton in ``log rho`` on a closed-form slope (``_refine``): where
``beta`` is least, which decides whether the sets are disjoint, and the
one root of the defect, if its signs at the ends of the bracket differ.

The kernel fuses the prior ``E(P, c)`` with the observation set
``{x : (h - phi x)^T Q^{-1} (h - phi x) <= 1}`` (Fogel & Huang,
Automatica 1982; Maksarov & Norton, IJC 1996); its member at ``rho > 0``
is the gain-form posterior of :mod:`smtrack.estimator`, whose ``update``
is the kernel's one entry. Intersecting ``E(Pa, a)`` with ``E(Pb, b)`` is
that update with ``phi = I``, ``Q = Pb``, ``h = b``. The kernel takes
``Q + 1e-13 (1 + tr Q) I = L L^T`` once per read-only noise shape (the
closed loop passes the same one every step) and reads ``P = R R^T`` from
the prior (``Ellipsoid.factor``), so each call pays one linear solve for
``L^{-1} [phi R | eps]`` (``eps = h - phi c``). The member it builds
keeps its factor, ``(R U) diag(sqrt(beta/(1 + rho nu)))`` (below), for
the next update and the program geometry: each set has one square root.

Volume is measured on ``range(P)``, of dimension ``k``, the prior's count
of eigenvalues above ``1e-14`` of the largest (``Ellipsoid.rank``; ``k =
dim`` for a full-rank prior); a fused set carries its prior's. A checked
set's factor drops the other eigenvalues, zero to rounding, and a fused
one is ``R U`` scaled, so ``R`` spans exactly that range and every member
lies in it: a singular prior shrinks like a full-rank one of dimension
``k``, and its null directions stay null. The kernel
then decides, in closed form, whether any member can be smaller than the
prior. With ``E = |L^{-1} eps|^2`` the whitened innovation and ``F =
|L^{-1} phi R|_F^2 = sum nu_i`` (below), the prior is kept when::

    k (1 - E) >= F    and    E <= 1

Every ``1/(1 + rho nu_i) <= 1``, so ``beta(rho) >= 1 + rho (1 - E)``; at
most ``k`` of the ``nu_i`` are nonzero, and Jensen on the concave log
gives ``sum log1p(rho nu_i) <= k log1p(rho F/k)``. Under the test the
first bound is the larger, so every member has ``d log det >= 0`` and
``beta >= 1``: none is smaller than the prior or disjoint from it, and
``fuse`` returns the prior itself with no SVD and no search. (``E <= 1``
follows from the first inequality unless ``k = 0``, a point prior.) The
test is sharp: when it fails with ``k > 0``, the defect at ``rho = 0`` is
``F - k (1 - E) > 0``, so members at small ``rho`` are smaller.

Otherwise one full SVD ``L^{-1} phi R = W diag(sigma) U^T`` follows. With
``nu = sigma^2`` and ``sigma`` zero-padded to ``dim P`` entries,
``e = W^T L^{-1} eps`` cut to those entries and ``|e_perp|^2`` the
squared rest of ``W^T L^{-1} eps`` (so ``E = sum e_i^2 + |e_perp|^2``),
every quantity of the family is a scalar rational function of ``rho``::

    beta(rho)  = 1 + rho (1 - |e_perp|^2) - sum rho e_i^2/(1 + rho nu_i)
    beta'(rho) = 1 - |e_perp|^2 - sum e_i^2/(1 + rho nu_i)^2
    beta''(rho) = 2 sum e_i^2 nu_i/(1 + rho nu_i)^3
    defect     = sum nu_i/(1 + rho nu_i) - k beta'/beta
    defect'    = -sum nu_i^2/(1 + rho nu_i)^2 - k (beta''/beta - (beta'/beta)^2)
    d log det  = k log beta - sum log1p(rho nu_i)
    center'    = c + (R U) diag(rho sigma/(1 + rho nu)) e
    shape'     = beta (R U) diag(1/(1 + rho nu)) (R U)^T

Two facts replace a search over ``rho``. First, ``beta`` is convex with
``beta(0) = 1`` (``beta'' >= 0``), and ``beta'`` is nondecreasing and
concave (``beta''' <= 0``). So ``beta`` is least on ``[0, 1e8]`` at 0 when
``beta'(0) = 1 - E >= 0``, at ``1e8`` when ``beta'(1e8) <= 0``, and
otherwise at the one root of ``beta'`` between, which ``_refine`` finds on
``RHO_BRACKET`` (a root below ``1e-10``, where ``beta >= 1 - 1e-10 (E -
1)``, is returned as ``1e-10``). The sets are disjoint when that least
``beta`` is below ``-BETA_SLACK (1 + rho)``; touching sets, whose least
``beta`` is zero to rounding, are not, and collapse to their common point.
Second, the defect, the negated slope of ``d log det``, crosses zero at
most once on the bracket. No proof is written down here: a test holds the
former 200-point grid scan (``tests/oracles.py``) to at most one crossing
on the random fusion battery and on the sim1-sim3 closed loops, and holds
this search to that scan's decisions. So the defect's signs at the two
ends of ``RHO_BRACKET`` decide between no crossing and one, and ``_refine``
finds that one in ``log rho`` from the bracket's geometric midpoint,
bisecting whenever a Newton step on ``defect'`` would leave the shrinking
bracket, to a step of at most ``1e-12`` relative; one loop over the
spectrum gives the defect and its slope together. Where ``beta <= 0`` the
defect is a signed pole of zero slope, so the refinement bisects onto it.
The candidates, this root and ``rho = 1e8``, are compared by ``d log
det`` and only the winner is built, PSD by construction and unchecked; it
replaces the prior when its ``d log det`` is negative. Its ``log_det`` is
still ``slogdet`` of the shape built, not the prior's plus ``d log det``:
the record and the checks then read the set that was made, not the
number the search minimized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property, wraps
from operator import is_

import numpy as np

__all__ = [
    "DegenerateOperandError",
    "InconsistentSetsError",
    "Ellipsoid",
]

# Relative tolerances for the shape-matrix invariants.
SYMMETRY_TOL = 1e-10
PSD_TOL = 1e-9


class DegenerateOperandError(ValueError):
    """A fusion operand's noise shape cannot be factored: it is not PSD."""


class InconsistentSetsError(RuntimeError):
    """A fusion certified that the operand sets do not intersect."""


def _freeze(value):
    """Make ``value`` read-only if it is an array, or each array of a tuple."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, tuple):
        for item in value:
            _freeze(item)
    return value


def _fixed(value) -> bool:
    """Whether ``value`` is an array whose values cannot change under a holder.

    It is read-only and owns its data, so no writable view of another
    array can reach it. :func:`_held` keys such arrays by identity.
    """
    return (isinstance(value, np.ndarray) and not value.flags.writeable
            and value.flags.owndata)


def _set_frozen(obj, **arrays):
    """Store arrays (or tuples of them) on a frozen dataclass, read-only.

    The caller passes copies.
    """
    for name, arr in arrays.items():
        object.__setattr__(obj, name, _freeze(arr))


def _value_equal(a, b):
    """Field equality: arrays (also inside tuples) by ``np.array_equal``."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(map(_value_equal, a, b))
    return a == b


class _FrozenArrays:
    """Base of the immutable dataclasses that hold read-only arrays.

    Subclasses are declared ``@dataclass(frozen=True, eq=False)`` and store
    their arrays through :func:`_set_frozen`. Two instances are equal when
    every compared field is, arrays by value; values cached on an instance
    are not fields and do not take part. Unpickling (``monte_carlo`` sends
    every scenario to its workers that way) makes every array of the
    restored state read-only again, the cached ones included.
    """

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(_value_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self) if f.compare)

    def __setstate__(self, state):
        for value in state.values():
            _freeze(value)
        self.__dict__.update(state)


# Every function wrapped by ``_held``, so that each held value can be cleared.
_HELD = []


def _same(held, arg):
    """Whether an argument is the held one: the same object, or an equal ``int``."""
    return held is arg or type(held) is int and type(arg) is int and held == arg


def _holdable(arg):
    """Whether an argument cannot change under a holder (see :func:`_held`)."""
    return _fixed(arg) or isinstance(arg, _FrozenArrays) or type(arg) is int


def _held(build):
    """``build``, keeping its last result while the same arguments come back.

    Arguments are compared by identity, an ``int`` by value. A result is
    held only when every argument is a :func:`_fixed` array, a
    :class:`_FrozenArrays` object or an ``int``, none of which can change
    while it is held; a call with any other argument, or by keyword, is
    built afresh and leaves the held result in place. The wrapper's
    ``clear()`` forgets the result.
    """
    slot = []

    @wraps(build, updated=())
    def held(*args, **kwargs):
        # Identity first: it decides every hit of a closed-loop step.
        if (slot and not kwargs and len(args) == len(slot[0])
                and (all(map(is_, slot[0], args))
                     or all(map(_same, slot[0], args)))):
            return slot[1]
        result = build(*args, **kwargs)
        if not kwargs and all(map(_holdable, args)):
            slot[:] = args, result
        return result

    held.clear = slot.clear
    _HELD.append(held)
    return held


def _top(vals):
    """The largest of ascending eigenvalues, 0 for a set of no dimension."""
    return vals[-1] if vals.size else 0.0


def _flat(vals):
    """Which ascending eigenvalues are flat: ``lambda <= 1e-13 max(lambda_max, 1)``."""
    return vals <= max(_top(vals), 1.0) * 1e-13


def _null(vals):
    """Which ascending eigenvalues are zero to rounding: ``lambda <= 1e-14 lambda_max``.

    Relative only, unlike :func:`_flat`'s membership slack: a small set
    has the rank of the same set scaled up, and a direction a noise-free
    observation pins to the factor ridge (about ``1e-13`` of the largest
    eigenvalue) still has volume.
    """
    return vals <= _top(vals) * 1e-14


@dataclass(frozen=True, eq=False)
class Ellipsoid(_FrozenArrays):
    """Immutable ellipsoid ``E(shape, center)``.

    Parameters
    ----------
    center : (n,) array_like
        Finite.
    shape : (n, n) array_like
        Finite symmetric PSD matrix. Symmetry is checked to a relative 1e-10,
        positive semidefiniteness up to an eigenvalue slack of
        ``-1e-9 * (1 + trace)``. The stored shape is symmetrized exactly.

    The eigendecomposition of the shape (:attr:`eigh`) is taken once, at
    construction, where its smallest eigenvalue checks the PSD slack. The
    set's one square root, :attr:`factor` (some ``F`` with ``F F^T`` the
    shape), :attr:`trace`, :attr:`rank` and :attr:`log_det` are computed on
    first use, at most once per instance, and all these arrays are
    read-only. ``contains``, ``sample_interior``, the fusion kernel and the
    robust controller read them, so a set is decomposed once, however often
    it is used. Of a checked set they equal ``np.linalg.eigh``, the
    symmetric root with the null eigenvalues dropped, ``np.trace`` and
    ``np.linalg.slogdet`` of the stored shape. A fused set is built by
    :meth:`_trusted`, unchecked, with the factor and rank the fusion gives
    it, and takes its ``eigh`` only where something reads it.
    """

    center: np.ndarray
    shape: np.ndarray

    def __post_init__(self):
        center = np.atleast_1d(np.array(self.center, dtype=float))
        shape = np.asarray(self.shape, dtype=float)
        if center.ndim != 1:
            raise ValueError(f"center must be a vector, got shape {center.shape}")
        if shape.ndim != 2 or shape.shape[0] != shape.shape[1]:
            raise ValueError(f"shape matrix must be square, got {shape.shape}")
        if shape.shape[0] != center.size:
            raise ValueError(
                f"dimension mismatch: center {center.size}, shape {shape.shape}"
            )
        if not np.isfinite(center).all():
            raise ValueError("center is not finite")
        scale = 1.0 + np.abs(shape).max(initial=0.0)
        if not math.isfinite(scale):
            raise ValueError("shape matrix is not finite")
        if np.abs(shape - shape.T).max(initial=0.0) > SYMMETRY_TOL * scale:
            raise ValueError("shape matrix is not symmetric")
        _set_frozen(self, center=center, shape=0.5 * (shape + shape.T))
        eigmin = float(self.eigh[0][0]) if shape.size else 0.0
        if eigmin < -PSD_TOL * (1.0 + self.trace):
            raise ValueError(f"shape matrix is not PSD (min eigenvalue {eigmin:.3e})")

    @classmethod
    def _trusted(cls, center, shape, **known):
        """The set of a float center and a shape that is symmetric PSD by construction.

        The caller's arrays are stored read-only, as given, and so is each
        value in ``known`` that the caller already has (the fusion passes
        ``factor`` and ``rank``): nothing is checked, and nothing is
        decomposed until it is read.
        """
        ellipsoid = object.__new__(cls)
        _set_frozen(ellipsoid, center=center, shape=shape, **known)
        return ellipsoid

    @property
    def dim(self) -> int:
        return self.center.size

    @cached_property
    def trace(self) -> float:
        return float(np.trace(self.shape))

    @cached_property
    def log_det(self) -> float:
        sign, ld = np.linalg.slogdet(self.shape)
        return float(ld) if sign > 0 else -np.inf

    @cached_property
    def eigh(self):
        """``(eigenvalues, eigenvectors)`` of the shape, ascending, read-only."""
        return _freeze(tuple(np.linalg.eigh(self.shape)))

    @cached_property
    def rank(self) -> int:
        """How many eigenvalues of the shape are not zero to rounding (:func:`_null`)."""
        return self.dim - int(np.count_nonzero(_null(self.eigh[0])))

    @cached_property
    def factor(self) -> np.ndarray:
        """Some ``F`` with ``F F^T`` the shape, read-only.

        Of a checked set, the symmetric root with its null eigenvalues
        (:func:`_null`, every negative one among them) dropped, ``V
        diag(sqrt(lambda)) V^T`` over the others; of a fused set, the
        fusion's own factor.
        """
        vals, vecs = self.eigh
        return _freeze((vecs * np.sqrt(np.where(_null(vals), 0.0, vals))) @ vecs.T)

    def contains(self, x, tol: float = 1e-9) -> bool:
        """Membership test, tolerant: quadratic form <= 1 + tol.

        For a singular shape the point must also lie in the affine slice
        ``center + range(shape)`` (checked via the pseudo-inverse residual).
        """
        d = np.asarray(x, dtype=float) - self.center
        if d.size != self.dim:
            raise ValueError(f"point dimension {d.size} != {self.dim}")
        vals, vecs = self.eigh
        coeff = vecs.T @ d
        small = _flat(vals)
        if np.any(small):
            # Out-of-range component means the point is off the degenerate slice.
            resid = np.linalg.norm(coeff[small])
            if resid > tol * (1.0 + np.linalg.norm(d)):
                return False
        inv_vals = np.where(small, 0.0, 1.0 / np.where(small, 1.0, vals))
        q = float(coeff @ (inv_vals * coeff))
        return q <= 1.0 + tol

    def sample_interior(self, rng: np.random.Generator) -> np.ndarray:
        """Draw one point uniformly (in volume) from the set.

        Direction uniform on the sphere of dimension ``k`` (:attr:`rank`),
        radius ``u^(1/k)``, mapped through :attr:`factor` when ``k`` is the
        dimension, and otherwise through the ``k`` columns ``v_i
        sqrt(lambda_i)`` of the largest eigenvalues: a degenerate set is
        sampled uniformly over its ``k``-dimensional slice, and a point set
        (``k = 0``) returns its center.
        """
        n, half = self.rank, self.factor
        if n < self.dim:
            vals, vecs = self.eigh
            top = slice(self.dim - n, None)
            half = vecs[:, top] * np.sqrt(np.maximum(vals[top], 0.0))
        g = rng.standard_normal(n)
        norm = np.linalg.norm(g)
        if norm == 0.0:
            return self.center.copy()
        direction = g / norm
        radius = rng.random() ** (1.0 / n)
        return self.center + half @ (radius * direction)


# ---------------------------------------------------------------------------
# Scalar root solving for the fusion parameter.
# ---------------------------------------------------------------------------

RHO_BRACKET = (1e-10, 1e8)


# A refinement stops when a step moves its point by at most this, relative.
REFINE_RTOL = 1e-12


def _refine(func, lo, hi, lo_positive, log=False):
    """Root of ``func`` inside ``(lo, hi)`` by bracketed Newton.

    ``func`` returns ``(value, slope)`` and its value changes sign on the
    bracket: positive at ``lo`` iff ``lo_positive``. From the midpoint,
    each evaluation shrinks the bracket to the side of the sign change;
    the Newton step is taken when it lands strictly inside that bracket
    and the bracket is bisected otherwise (also at a zero or non-finite
    slope). The point is returned once a step moves it by at most
    ``REFINE_RTOL`` relative, or once its value is exactly zero. The
    bracket shrinks at every evaluation, so the loop ends.

    With ``log`` (and ``0 < lo``) the search runs in ``t = log x``: the
    midpoint is the geometric mean, a Newton step in ``t`` divides the value
    by ``x`` times the slope, and a step of at most ``REFINE_RTOL`` in ``t``
    moves ``x`` by that much relative. ``func`` still takes ``x``.
    """
    if log:
        lo, hi = math.log(lo), math.log(hi)
    t = 0.5 * (lo + hi)
    while True:
        x = math.exp(t) if log else t
        value, slope = func(x)
        if value == 0.0:
            return x
        if (value > 0.0) == lo_positive:
            lo = t
        else:
            hi = t
        if log:
            slope *= x
        step = t - value / slope if slope else math.nan
        if not lo < step < hi:
            step = 0.5 * (lo + hi)
        if abs(step - t) <= REFINE_RTOL * (1.0 if log else abs(step)):
            return math.exp(step) if log else step
        t = step


# ---------------------------------------------------------------------------
# The fusion kernel, entered through ``estimator.update``.
# ---------------------------------------------------------------------------

# A candidate's ``beta`` may fall this far below zero, relative to
# ``1 + rho``, and still be kept, clipped at zero: rounding at touching sets.
BETA_SLACK = 1e-10

# What ``_Fusion._decompose`` sets: the family's spectral description.
_SPECTRAL = frozenset(("sigma", "nu", "e", "e2", "e_perp2", "basis", "_terms"))

@_held
def _noise_factor(q):
    """``chol(Q + 1e-13 (1 + tr Q) I)``, read-only.

    Held while the same ``_fixed`` ``Q`` comes back: in the closed loop,
    the ``q_shape`` that every step's ``Observation`` shares.
    """
    # The ridge lets a noise-free direction (singular Q) be factored.
    ridge = 1e-13 * (1.0 + np.trace(q))
    try:
        chol = np.linalg.cholesky(q + ridge * np.eye(q.shape[0]))
    except np.linalg.LinAlgError as exc:
        raise DegenerateOperandError("noise shape is not PSD") from exc
    return _freeze(chol)


class _Fusion:
    """The rho-family fusing ``E(P, c)`` with ``{x : |h - phi x|_Q <= 1}``.

    The constructor reads the prior's one square root ``R``
    (``Ellipsoid.factor``) and its rank, factors the noise shape, and
    decides the keep test (module docstring). The SVD and the spectral
    attributes it gives are taken on their first read: in ``fuse`` when the
    test fails, and by ``at``, ``defect``, ``log_det_change`` or
    ``posterior`` in any case. The rest is scalar arithmetic, apart from
    building a posterior.
    """

    def __init__(self, prior: Ellipsoid, phi, q, h):
        dim = prior.dim
        chol = _noise_factor(q)
        self.rank = prior.rank
        self.factor = prior.factor
        eps = h - phi @ prior.center
        self.white = np.linalg.solve(chol, np.column_stack((phi @ self.factor, eps)))
        self.prior = prior
        self.dim = dim
        # The keep test (module docstring): k (1 - E) >= F and E <= 1, with
        # E and F the whitened innovation's and regressor's squared norms.
        energy = (self.white * self.white).sum(axis=0)
        self.innovation = float(energy[dim])
        self.keeps_prior = bool(self.rank * (1.0 - self.innovation) >= energy[:dim].sum()
                                and self.innovation <= 1.0)

    def __getattr__(self, name):
        """The spectral attributes, set by the SVD on first read."""
        if name not in _SPECTRAL:
            raise AttributeError(name)
        self._decompose()
        return vars(self)[name]

    def _decompose(self):
        """The SVD ``L^{-1} phi R = W diag(sigma) U^T`` and what it gives."""
        dim = self.dim
        w, sigma, ut = np.linalg.svd(self.white[:, :dim])
        proj = w.T @ self.white[:, dim]
        k = sigma.size
        pad = np.zeros(dim - k)
        self.sigma = np.concatenate((sigma, pad))
        self.nu = self.sigma**2
        self.e = np.concatenate((proj[:k], pad))
        self.e2 = self.e**2
        self.e_perp2 = float(proj[k:] @ proj[k:])
        self.basis = self.factor @ ut.T
        self._terms = list(zip(self.nu.tolist(), self.e2.tolist()))

    def at(self, rho):
        """``(beta, beta', beta'', sum nu/d, sum nu^2/d^2)`` at one ``rho``, in floats.

        Here ``d = 1 + rho nu`` and ``beta'' = 2 sum e^2 nu/d^3``.
        """
        info = dinfo = acc = dacc = ddacc = 0.0
        for nu, e2 in self._terms:
            den = 1.0 + rho * nu
            share = nu / den
            info += share
            dinfo += share * share
            acc += e2 / den
            sq = e2 / (den * den)
            dacc += sq
            ddacc += sq * share
        slope = 1.0 - self.e_perp2
        return 1.0 + rho * (slope - acc), slope - dacc, 2.0 * ddacc, info, dinfo

    def defect(self, rho):
        """The defect at one ``rho`` and its slope, ``(D, D')``.

        ``D = sum nu/d - k beta'/beta`` is the negated slope of log det and
        ``D' = -sum nu^2/d^2 - k (beta''/beta - (beta'/beta)^2)``.
        """
        beta, dbeta, ddbeta, info, dinfo = self.at(rho)
        if not beta > 0.0:
            # Touching sets put a pole here; keep the crossing's sign so the
            # refinement converges onto the pole location, by bisection.
            if dbeta == 0.0:
                return 0.0, 0.0
            return (-1e308 if dbeta > 0.0 else 1e308), 0.0
        ratio = dbeta / beta
        return (info - self.rank * ratio,
                -dinfo - self.rank * (ddbeta / beta - ratio * ratio))

    def log_det_change(self, rho, beta):
        """Posterior minus prior log det on ``range(P)``, ``k log beta - sum log1p(rho nu)``."""
        if beta == 0.0:
            return -math.inf
        return self.rank * math.log(beta) - sum(
            math.log1p(rho * nu) for nu, _ in self._terms)

    def posterior(self, rho, beta):
        """The member at ``rho > 0`` with its ``beta >= 0``, PSD by construction.

        It is built unchecked, with its factor ``half`` and its rank: the
        prior's ``k``, or 0 when ``beta = 0`` collapses it to its center.
        """
        den = 1.0 + rho * self.nu
        center = self.prior.center + self.basis @ (rho * self.sigma * self.e / den)
        half = self.basis * np.sqrt(beta / den)
        shape = half @ half.T
        return Ellipsoid._trusted(center, 0.5 * (shape + shape.T), factor=half,
                                  rank=self.rank if beta > 0.0 else 0)

    def fuse(self):
        """Volume-minimal member as ``(rho, beta, set)``; None when disjoint.

        The sets are disjoint when the least ``beta`` on ``[0, RHO_BRACKET[1]]``
        is below ``-BETA_SLACK (1 + rho)`` at its ``rho``. Candidates are the
        defect's root, when its signs at the two ends of ``RHO_BRACKET``
        differ, and the ``rho -> infinity`` edge, each with ``beta >
        -BETA_SLACK (1 + rho)`` (then clipped at zero). Only the one of least
        closed-form log det change on ``range(P)`` is built, and only if that
        change is negative; otherwise the anchor ``(0, 1, prior)`` is
        returned. When the keep test holds, no member is smaller: the anchor
        is returned at once, with no SVD and no root search.
        """
        if self.keeps_prior:
            return 0.0, 1.0, self.prior
        lo, hi = RHO_BRACKET
        if self.innovation > 1.0:
            # beta falls from beta(0) = 1 at slope 1 - E: it is least at hi
            # or at the one root of its nondecreasing slope below hi.
            least = (hi if self.at(hi)[1] <= 0.0 else
                     _refine(lambda rho: self.at(rho)[1:3], lo, hi, False, log=True))
            if self.at(least)[0] < -BETA_SLACK * (1.0 + least):
                return None
        candidates = [hi]
        ends = self.defect(lo)[0], self.defect(hi)[0]
        if min(ends) < 0.0 < max(ends):
            candidates.insert(0, _refine(self.defect, lo, hi, ends[0] > 0.0, log=True))
        best_rho, best_beta, best_gap = 0.0, 1.0, 0.0
        for rho in candidates:
            beta = self.at(rho)[0]
            if not beta > -BETA_SLACK * (1.0 + rho):
                continue
            beta = max(beta, 0.0)
            gap = self.log_det_change(rho, beta)
            if gap < best_gap:
                best_rho, best_beta, best_gap = rho, beta, gap
        if best_rho > 0.0:
            return best_rho, best_beta, self.posterior(best_rho, best_beta)
        return 0.0, 1.0, self.prior
