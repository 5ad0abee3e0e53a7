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
``optimal_tau`` and ``optimal_rho`` solve those equations by a bracketed
scan, which is also the primitive the set-membership estimator reuses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

__all__ = [
    "DegenerateOperandError",
    "InconsistentSetsError",
    "Ellipsoid",
    "psd_clip",
    "sym_sqrt",
    "scan_roots",
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


def psd_clip(mat):
    """Symmetrize ``mat`` and clip negative eigenvalues to zero."""
    sym = 0.5 * (mat + mat.T)
    vals, vecs = np.linalg.eigh(sym)
    if vals[0] >= 0.0:
        return sym
    return (vecs * np.clip(vals, 0.0, None)) @ vecs.T


def sym_sqrt(mat):
    """Symmetric PSD square root (eigenvalues clipped at zero)."""
    vals, vecs = np.linalg.eigh(0.5 * (mat + mat.T))
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T


@dataclass(frozen=True)
class Ellipsoid:
    """Immutable ellipsoid ``E(shape, center)``.

    Parameters
    ----------
    center : (n,) array_like
    shape : (n, n) array_like
        Symmetric PSD matrix. Symmetry is checked to a relative 1e-10,
        positive semidefiniteness up to an eigenvalue slack of
        ``-1e-9 * (1 + trace)``.
    """

    center: np.ndarray
    shape: np.ndarray

    def __post_init__(self):
        center = np.atleast_1d(np.asarray(self.center, dtype=float))
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
        shape = 0.5 * (shape + shape.T)
        tr = float(np.trace(shape))
        eigmin = float(np.linalg.eigvalsh(shape)[0]) if shape.size else 0.0
        if eigmin < -PSD_TOL * (1.0 + tr):
            raise ValueError(f"shape matrix is not PSD (min eigenvalue {eigmin:.3e})")
        center.flags.writeable = False
        shape.flags.writeable = False
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "shape", shape)

    @property
    def dim(self) -> int:
        return self.center.size

    @property
    def trace(self) -> float:
        return float(np.trace(self.shape))

    @property
    def log_det(self) -> float:
        sign, ld = np.linalg.slogdet(self.shape)
        return float(ld) if sign > 0 else -np.inf

    def volume_measures(self):
        """Return ``(trace, log_det)`` of the shape matrix."""
        return self.trace, self.log_det

    def contains(self, x, tol: float = 1e-9) -> bool:
        """Membership test, tolerant: quadratic form <= 1 + tol.

        For a singular shape the point must also lie in the affine slice
        ``center + range(shape)`` (checked via the pseudo-inverse residual).
        """
        d = np.asarray(x, dtype=float) - self.center
        if d.size != self.dim:
            raise ValueError(f"point dimension {d.size} != {self.dim}")
        vals, vecs = np.linalg.eigh(self.shape)
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
        return self.center + sym_sqrt(self.shape) @ (radius * direction)


# ---------------------------------------------------------------------------
# Scalar root solving shared by the fusion parameter searches.
# ---------------------------------------------------------------------------

def scan_roots(func, lo: float, hi: float, n_scan: int = 200):
    """Roots of ``func`` on [lo, hi] located by a log-spaced sign scan.

    Returns the (possibly empty) list of roots, one per sign change,
    refined by Brent's method to relative tolerance 1e-12.
    """
    grid = np.geomspace(lo, hi, n_scan)
    vals = np.array([func(g) for g in grid])
    roots = []
    for i in range(len(grid) - 1):
        a, b = vals[i], vals[i + 1]
        if not (np.isfinite(a) and np.isfinite(b)):
            continue
        if a == 0.0:
            roots.append(float(grid[i]))
        elif a * b < 0.0:
            roots.append(float(brentq(func, grid[i], grid[i + 1], rtol=1e-12)))
    if len(vals) and vals[-1] == 0.0:
        roots.append(float(grid[-1]))
    return roots


def _pencil_eigvals(pa, pb):
    """Eigenvalues of ``pa @ inv(pb)`` for PSD pa, PD pb (real, >= 0)."""
    try:
        cho = np.linalg.cholesky(pb)
    except np.linalg.LinAlgError as exc:
        raise DegenerateOperandError("second operand shape is singular") from exc
    inv_cho = np.linalg.inv(cho)
    vals = np.linalg.eigvalsh(inv_cho @ pa @ inv_cho.T)
    return np.clip(vals, 0.0, None)


# ---------------------------------------------------------------------------
# Minkowski sum.
# ---------------------------------------------------------------------------

def optimal_tau(ea: Ellipsoid, eb: Ellipsoid) -> float:
    """Volume-optimal parameter of the Minkowski-sum bound.

    Solves ``sum_i 1/(lambda_i + tau) = n / (tau (tau + 1))`` with
    ``lambda_i`` the eigenvalues of ``Pa Pb^{-1}``, bracketed on
    (1e-12, 1e12).
    """
    if ea.dim != eb.dim:
        raise ValueError(f"dimension mismatch: {ea.dim} vs {eb.dim}")
    lam = _pencil_eigvals(ea.shape, eb.shape)
    n = ea.dim

    def defect(tau):
        return float(np.sum(1.0 / (lam + tau)) - n / (tau * (tau + 1.0)))

    roots = scan_roots(defect, 1e-12, 1e12)
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
    return Ellipsoid(ea.center + eb.center, psd_clip(shape))


# ---------------------------------------------------------------------------
# Intersection.
# ---------------------------------------------------------------------------

def intersection_bound(ea: Ellipsoid, eb: Ellipsoid, rho: float):
    """Outer bound of ``ea ∩ eb`` at fusion parameter ``rho >= 0``.

    Returns ``(fused, beta)``. ``rho = 0`` returns ``ea`` unchanged with
    ``beta = 1``; ``beta <= 0`` certifies an empty intersection and raises
    :class:`InconsistentSetsError`.
    """
    if ea.dim != eb.dim:
        raise ValueError(f"dimension mismatch: {ea.dim} vs {eb.dim}")
    if rho < 0.0:
        raise ValueError(f"rho must be nonnegative, got {rho}")
    if rho == 0.0:
        return ea, 1.0
    pa, pb = ea.shape, eb.shape
    d = eb.center - ea.center
    m = pa + pb / rho
    try:
        m_inv_d = np.linalg.solve(m, d)
        gain = np.linalg.solve(m, pa).T  # pa @ inv(m), both symmetric
    except np.linalg.LinAlgError as exc:
        raise DegenerateOperandError("combined shape matrix is singular") from exc
    beta = float(1.0 + rho - d @ m_inv_d)
    if beta <= 0.0:
        raise InconsistentSetsError(
            f"fusion parameter {rho} certifies an empty intersection (beta={beta:.3e})"
        )
    eye = np.eye(ea.dim)
    core = (eye - gain) @ pa @ (eye - gain).T + (gain @ pb @ gain.T) / rho
    fused = Ellipsoid(ea.center + gain @ d, psd_clip(beta * core))
    return fused, beta


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
    lam = _pencil_eigvals(ea.shape, eb.shape)
    n = ea.dim
    pa, pb = ea.shape, eb.shape
    d = eb.center - ea.center

    def beta_pair(rho):
        m = pa + pb / rho
        m_inv_d = np.linalg.solve(m, d)
        beta = 1.0 + rho - d @ m_inv_d
        dbeta = 1.0 - m_inv_d @ pb @ m_inv_d / rho**2
        return float(beta), float(dbeta)

    def defect(rho):
        beta, dbeta = beta_pair(rho)
        if beta <= 0.0:
            raise InconsistentSetsError(
                f"operand sets are disjoint (beta({rho:.3e}) = {beta:.3e})"
            )
        return float(np.sum(lam / (1.0 + rho * lam)) - n * dbeta / beta)

    rho_lo, rho_hi = 1e-10, 1e8
    try:
        roots = scan_roots(defect, rho_lo, rho_hi)
    except np.linalg.LinAlgError:
        return 0.0
    best_rho, best_vol = 0.0, ea.log_det
    for rho in [*roots, rho_hi]:
        try:
            fused, _ = intersection_bound(ea, eb, rho)
        except (InconsistentSetsError, DegenerateOperandError):
            continue
        vol = fused.log_det
        if vol < best_vol:
            best_rho, best_vol = rho, vol
    return best_rho
