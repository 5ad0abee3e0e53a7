"""Ellipsoidal sets and the outer-bounding fusion rules.

An ellipsoid is parameterized by a center ``a`` and a symmetric positive
semidefinite shape matrix ``P``::

    E(P, a) = {x : (x - a)^T P^{-1} (x - a) <= 1}

Degenerate (singular ``P``) sets are allowed; membership then additionally
requires ``x - a`` to lie in the range of ``P``.

Two fusion operations return minimal-volume outer bounds within their
parametric families: ``minkowski_sum_bound`` for the sum of two ellipsoids
and ``intersection_bound`` for their intersection. Both depend on a scalar
parameter whose volume-optimal value solves a rational root equation;
``optimal_tau`` and ``optimal_rho`` scan it on a fixed 200-point log grid
in one array expression and refine its sign changes by one routine,
``_bracket_roots``. The Minkowski family whitens by the cached ``eigh``
``Pb = V diag(lambda) V^T`` of the second operand.

Intersection is one case of a single fusion kernel, which the
set-membership estimator also uses: the prior ``E(P, c)`` fused with the
observation set ``{x : (h - phi x)^T Q^{-1} (h - phi x) <= 1}``, where set
intersection is ``phi = I``, ``Q = Pb``, ``h = b`` (Fogel & Huang,
Automatica 1982; Maksarov & Norton, IJC 1996); its member at ``rho > 0``
is the gain-form posterior of :mod:`smtrack.estimator`. The kernel factors
once per call: ``Q + 1e-13 (1 + tr Q) I = L L^T``, ``P = R R^T`` and one
full SVD ``L^{-1} phi R = W diag(sigma) U^T``, with ``L^{-1} [phi R | eps]``
(``eps = h - phi c``) from one linear solve. With ``nu = sigma^2`` and
``sigma`` zero-padded to ``dim P`` entries, ``e = W^T L^{-1} eps`` cut to
those entries and ``|e_perp|^2`` the squared rest of ``W^T L^{-1} eps``,
every quantity of the family is a scalar rational function of ``rho``::

    beta(rho)  = 1 + rho (1 - |e_perp|^2) - sum rho e_i^2/(1 + rho nu_i)
    beta'(rho) = 1 - |e_perp|^2 - sum e_i^2/(1 + rho nu_i)^2
    defect     = sum nu_i/(1 + rho nu_i) - dim beta'/beta
    d log det  = dim log beta - sum log1p(rho nu_i)
    center'    = c + (R U) diag(rho sigma/(1 + rho nu)) e
    shape'     = beta (R U) diag(1/(1 + rho nu)) (R U)^T

The 200-point scan is array arithmetic, candidates are compared by
``d log det`` and only the winner is built, PSD by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np
from scipy.optimize import brentq

__all__ = [
    "DegenerateOperandError",
    "InconsistentSetsError",
    "Ellipsoid",
    "minkowski_sum_bound",
    "optimal_tau",
    "intersection_bound",
    "optimal_rho",
]

# Relative tolerances for the shape-matrix invariants.
SYMMETRY_TOL = 1e-10
PSD_TOL = 1e-9


class DegenerateOperandError(ValueError):
    """A fusion operand is singular where invertibility is required."""


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


@dataclass(frozen=True, eq=False)
class Ellipsoid(_FrozenArrays):
    """Immutable ellipsoid ``E(shape, center)``.

    Parameters
    ----------
    center : (n,) array_like
    shape : (n, n) array_like
        Symmetric PSD matrix. Symmetry is checked to a relative 1e-10,
        positive semidefiniteness up to an eigenvalue slack of
        ``-1e-9 * (1 + trace)``. The stored shape is symmetrized exactly.

    The eigendecomposition of the shape (:attr:`eigh`) is taken once, at
    construction, where its smallest eigenvalue checks the PSD slack. The
    symmetric square root (:attr:`root`) and :attr:`log_det` are computed
    on first use, at most once per instance, and all these arrays are
    read-only. ``contains``, ``sample_interior``, both fusion families and
    the robust controller read them, so a set is decomposed once, however
    often it is used. They equal ``np.linalg.eigh``, ``V diag(sqrt(max(
    lambda, 0))) V^T`` and ``np.linalg.slogdet`` of the stored shape.
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
        scale = 1.0 + np.abs(shape).max(initial=0.0)
        if np.abs(shape - shape.T).max(initial=0.0) > SYMMETRY_TOL * scale:
            raise ValueError("shape matrix is not symmetric")
        _set_frozen(self, center=center, shape=0.5 * (shape + shape.T))
        eigmin = float(self.eigh[0][0]) if shape.size else 0.0
        if eigmin < -PSD_TOL * (1.0 + self.trace):
            raise ValueError(f"shape matrix is not PSD (min eigenvalue {eigmin:.3e})")

    @property
    def dim(self) -> int:
        return self.center.size

    @property
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
    def root(self) -> np.ndarray:
        """Symmetric PSD square root of the shape, read-only."""
        vals, vecs = self.eigh
        return _freeze((vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T)

    def contains(self, x, tol: float = 1e-9) -> bool:
        """Membership test, tolerant: quadratic form <= 1 + tol.

        For a singular shape the point must also lie in the affine slice
        ``center + range(shape)`` (checked via the pseudo-inverse residual).
        """
        d = np.asarray(x, dtype=float) - self.center
        if d.size != self.dim:
            raise ValueError(f"point dimension {d.size} != {self.dim}")
        vals, vecs = self.eigh
        cut = max(vals[-1], 1.0) * 1e-13
        coeff = vecs.T @ d
        small = vals <= cut
        if np.any(small):
            # Out-of-range component means the point is off the degenerate slice.
            resid = np.linalg.norm(coeff[small])
            if resid > tol * (1.0 + np.linalg.norm(d)):
                return False
        inv_vals = np.where(small, 0.0, 1.0 / np.where(small, 1.0, vals))
        q = float(coeff @ (inv_vals * coeff))
        return q <= 1.0 + tol

    def support(self, eta, sense: str = "max") -> float:
        """Extreme value of ``eta . x`` over the set.

        ``sense="max"`` gives ``eta.a + sqrt(eta^T P eta)``, ``"min"`` the
        mirrored value.
        """
        eta = np.asarray(eta, dtype=float)
        if eta.size != self.dim:
            raise ValueError(f"direction dimension {eta.size} != {self.dim}")
        radius = float(np.sqrt(max(eta @ self.shape @ eta, 0.0)))
        base = float(eta @ self.center)
        if sense == "max":
            return base + radius
        if sense == "min":
            return base - radius
        raise ValueError(f"sense must be 'max' or 'min', got {sense!r}")

    def sample_interior(self, rng: np.random.Generator) -> np.ndarray:
        """Draw one point uniformly (in volume) from the set.

        Direction uniform on the sphere, radius ``u^(1/n)``, mapped through
        the symmetric square root of the shape. A degenerate shape samples
        uniformly over the corresponding lower-dimensional slice.
        """
        n = self.dim
        g = rng.standard_normal(n)
        norm = np.linalg.norm(g)
        if norm == 0.0:
            return self.center.copy()
        direction = g / norm
        radius = rng.random() ** (1.0 / n)
        return self.center + self.root @ (radius * direction)


# ---------------------------------------------------------------------------
# Scalar root solving shared by the fusion parameter searches.
# ---------------------------------------------------------------------------

RHO_BRACKET = (1e-10, 1e8)
_RHO_GRID = np.geomspace(*RHO_BRACKET, 200)
_TAU_GRID = np.geomspace(1e-12, 1e12, 200)


def _bracket_roots(func, grid, vals):
    """Roots from ``vals = func(grid)``: zeros, and Brent inside sign changes.

    Returns the (possibly empty) list of roots, one per sign change,
    refined by Brent's method to relative tolerance 1e-12.
    """
    a, b = vals[:-1], vals[1:]
    crossing = ((a < 0.0) & (b > 0.0)) | ((a > 0.0) & (b < 0.0))
    hits = np.flatnonzero(np.isfinite(a) & np.isfinite(b) & ((a == 0.0) | crossing))
    roots = [float(grid[i]) if vals[i] == 0.0
             else float(brentq(func, grid[i], grid[i + 1], rtol=1e-12))
             for i in hits.tolist()]
    if len(vals) and vals[-1] == 0.0:
        roots.append(float(grid[-1]))
    return roots


# ---------------------------------------------------------------------------
# Minkowski sum.
# ---------------------------------------------------------------------------

def optimal_tau(ea: Ellipsoid, eb: Ellipsoid) -> float:
    """Volume-optimal parameter of the Minkowski-sum bound.

    Solves ``sum_i 1/(lambda_i + tau) = n / (tau (tau + 1))`` with
    ``lambda_i`` the eigenvalues of ``Pa Pb^{-1}``, bracketed on
    (1e-12, 1e12). ``Pb`` must be positive definite.
    """
    if ea.dim != eb.dim:
        raise ValueError(f"dimension mismatch: {ea.dim} vs {eb.dim}")
    vals, vecs = eb.eigh
    if not vals[0] > 0.0:
        raise DegenerateOperandError("second operand shape is singular")
    white = vecs / np.sqrt(vals)
    lam = np.clip(np.linalg.eigvalsh(white.T @ ea.shape @ white), 0.0, None)
    n = ea.dim

    def defect(tau):
        return float(np.sum(1.0 / (lam + tau)) - n / (tau * (tau + 1.0)))

    defects = ((1.0 / (lam + _TAU_GRID[:, None])).sum(axis=1)
               - n / (_TAU_GRID * (_TAU_GRID + 1.0)))
    roots = _bracket_roots(defect, _TAU_GRID, defects)
    if not roots:
        raise RuntimeError("no bracket for the sum-fusion parameter on (1e-12, 1e12)")
    return roots[0]


def minkowski_sum_bound(ea: Ellipsoid, eb: Ellipsoid) -> Ellipsoid:
    """Minimal-volume ellipsoid of the family bounding ``ea + eb``.

    Centers add; the shape is ``(1/tau + 1) Pa + (tau + 1) Pb`` at the
    volume-optimal ``tau``.
    """
    tau = optimal_tau(ea, eb)
    shape = (1.0 / tau + 1.0) * ea.shape + (tau + 1.0) * eb.shape
    return Ellipsoid(ea.center + eb.center, shape)


# ---------------------------------------------------------------------------
# Intersection: the fusion kernel, shared with the estimator.
# ---------------------------------------------------------------------------


class _Fusion:
    """The rho-family fusing ``E(P, c)`` with ``{x : |h - phi x|_Q <= 1}``.

    The constructor factors once (module docstring); the rest is scalar
    arithmetic, apart from building a posterior.
    """

    def __init__(self, prior: Ellipsoid, phi, q, h):
        dim = prior.dim
        # The ridge lets a noise-free direction (singular Q) be factored.
        ridge = 1e-13 * (1.0 + np.trace(q))
        try:
            chol = np.linalg.cholesky(q + ridge * np.eye(q.shape[0]))
        except np.linalg.LinAlgError as exc:
            raise DegenerateOperandError("noise shape is not PSD") from exc
        vals, vecs = prior.eigh
        root = vecs * np.sqrt(np.clip(vals, 0.0, None))
        eps = h - phi @ prior.center
        white = np.linalg.solve(chol, np.column_stack((phi @ root, eps)))
        w, sigma, ut = np.linalg.svd(white[:, :dim])
        proj = w.T @ white[:, dim]
        k = sigma.size
        pad = np.zeros(dim - k)
        self.prior = prior
        self.dim = dim
        self.sigma = np.concatenate((sigma, pad))
        self.nu = self.sigma**2
        self.e = np.concatenate((proj[:k], pad))
        self.e2 = self.e**2
        self.e_perp2 = float(proj[k:] @ proj[k:])
        self.basis = root @ ut.T
        self._terms = list(zip(self.nu.tolist(), self.e2.tolist()))

    def at(self, rho):
        """``(beta, beta', sum nu/(1 + rho nu))`` at one ``rho``, in floats."""
        info = acc = dacc = 0.0
        for nu, e2 in self._terms:
            den = 1.0 + rho * nu
            info += nu / den
            acc += e2 / den
            dacc += e2 / (den * den)
        slope = 1.0 - self.e_perp2
        return 1.0 + rho * (slope - acc), slope - dacc, info

    def defect(self, rho):
        """The scan's defect at one ``rho``: the negated slope of log det."""
        beta, dbeta, info = self.at(rho)
        if not beta > 0.0:
            # Touching sets put a pole here; keep the crossing's sign so the
            # refinement converges onto the pole location.
            if dbeta == 0.0:
                return 0.0
            return -1e308 if dbeta > 0.0 else 1e308
        return info - self.dim * dbeta / beta

    def log_det_change(self, rho, beta):
        """Posterior minus prior log det, ``dim log beta - sum log1p(rho nu)``."""
        if beta == 0.0:
            return -math.inf
        return self.dim * math.log(beta) - sum(
            math.log1p(rho * nu) for nu, _ in self._terms)

    def posterior(self, rho, beta):
        """The member at ``rho > 0`` with its ``beta >= 0``, PSD by construction."""
        den = 1.0 + rho * self.nu
        center = self.prior.center + self.basis @ (rho * self.sigma * self.e / den)
        half = self.basis * np.sqrt(beta / den)
        return Ellipsoid(center, half @ half.T)

    def fuse(self, beta_slack):
        """Volume-minimal member as ``(rho, beta, set)``; None when disjoint.

        Candidates are the defect roots and the ``rho -> infinity`` edge with
        ``beta > -beta_slack (1 + rho)`` (then clipped at zero). Only the one
        of least closed-form log det is built; it replaces the prior, the
        anchor ``(0, 1, prior)``, only if its built log det is lower.
        """
        den = 1.0 + _RHO_GRID[:, None] * self.nu
        slope = 1.0 - self.e_perp2
        betas = 1.0 + _RHO_GRID * (slope - (self.e2 / den).sum(axis=1))
        if np.any(betas <= 0.0):
            return None
        dbetas = slope - (self.e2 / den**2).sum(axis=1)
        defects = (self.nu / den).sum(axis=1) - self.dim * dbetas / betas
        best_rho, best_beta, best_gap = 0.0, 1.0, 0.0
        for rho in [*_bracket_roots(self.defect, _RHO_GRID, defects), RHO_BRACKET[1]]:
            beta = self.at(rho)[0]
            if not beta > -beta_slack * (1.0 + rho):
                continue
            beta = max(beta, 0.0)
            gap = self.log_det_change(rho, beta)
            if gap < best_gap:
                best_rho, best_beta, best_gap = rho, beta, gap
        if best_rho > 0.0:
            fused = self.posterior(best_rho, best_beta)
            if fused.log_det < self.prior.log_det:
                return best_rho, best_beta, fused
        return 0.0, 1.0, self.prior


def intersection_bound(ea: Ellipsoid, eb: Ellipsoid, rho: float):
    """Outer bound of ``ea ∩ eb`` at fusion parameter ``rho >= 0``.

    Returns ``(fused, beta)``. ``rho = 0`` returns ``ea`` unchanged with
    ``beta = 1``; ``beta <= 0`` certifies an empty intersection and raises
    :class:`InconsistentSetsError`. Singular shapes are allowed: a direction
    flat in both sets stays flat in the fused set.
    """
    if ea.dim != eb.dim:
        raise ValueError(f"dimension mismatch: {ea.dim} vs {eb.dim}")
    if rho < 0.0:
        raise ValueError(f"rho must be nonnegative, got {rho}")
    if rho == 0.0:
        return ea, 1.0
    fusion = _Fusion(ea, np.eye(ea.dim), eb.shape, eb.center)
    beta = fusion.at(rho)[0]
    if beta <= 0.0:
        raise InconsistentSetsError(
            f"fusion parameter {rho} certifies an empty intersection (beta={beta:.3e})"
        )
    return fusion.posterior(rho, beta), beta


def optimal_rho(ea: Ellipsoid, eb: Ellipsoid) -> float:
    """Volume-optimal intersection-fusion parameter.

    Solves ``sum_i lambda_i/(1 + rho lambda_i) = n beta'(rho)/beta(rho)``
    over a log bracket [1e-10, 1e8] (sign scan, then Brent refinement).
    The roots and the bracket's upper end (the ``rho -> infinity`` limit,
    which tends to ``eb`` and which no root marks when the volume falls
    monotonically in ``rho``) are candidates. The one of smallest fused
    volume is kept, and never one worse than the ``rho = 0`` anchor (which
    preserves ``ea``). ``beta <= 0`` anywhere on the scan certifies disjoint
    operands and raises :class:`InconsistentSetsError`.
    """
    if ea.dim != eb.dim:
        raise ValueError(f"dimension mismatch: {ea.dim} vs {eb.dim}")
    fused = _Fusion(ea, np.eye(ea.dim), eb.shape, eb.center).fuse(0.0)
    if fused is None:
        raise InconsistentSetsError("operand sets are disjoint (beta <= 0 on the scan)")
    return fused[0]
