"""Linear system with structured parametric uncertainty.

The plant is

    x(k+1) = A(alpha) x(k) + B(beta) u(k) + omega(k),      y = C x

with the state and input matrices affine in the unknown parameters::

    A(alpha) = A0 + sum_i alpha_i * Ai,   B(beta) = B0 + sum_j beta_j * Bj

The stacked parameter vector is ``theta = [alpha; beta]`` (dimensions r and
s). The additive disturbance is bounded by the ellipsoid ``E(R, 0)`` in
state space.

Estimation, control and active learning read the regressor ``phi(x, u) =
[M A1 x ... M Ar x | M B1 u ... M Bs u]`` of an output map ``M`` from one of
two tables built once per model: ``state`` (``M = I``, what the closed loop
learns from) and ``tracked`` (``M = C``, what the controller bounds).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ellipsoid import Ellipsoid, _freeze, _FrozenArrays, _held, _set_frozen

__all__ = ["RegressorTable", "UncertainModel"]


def _as_matrix(m, rows=None, cols=None, name="matrix"):
    out = np.atleast_2d(np.array(m, dtype=float))
    if rows is not None and out.shape[0] != rows:
        raise ValueError(f"{name} has {out.shape[0]} rows, expected {rows}")
    if cols is not None and out.shape[1] != cols:
        raise ValueError(f"{name} has {out.shape[1]} columns, expected {cols}")
    # A NaN or infinite entry would reach the regressor tables and every
    # step; it is rejected here, before any product is formed.
    if not np.isfinite(out).all():
        raise ValueError(f"{name} is not finite")
    return out


def _as_columns(m, rows, cols, name):
    """``_as_matrix`` with a flat vector read as one column (a single input)."""
    m = np.asarray(m, dtype=float)
    return _as_matrix(m[:, None] if m.ndim == 1 else m, rows, cols, name)


@dataclass(frozen=True, eq=False)
class RegressorTable(_FrozenArrays):
    """Constant regressor data of one output map ``M``, as read-only arrays:
    ``a0 = M A0`` (rows x n), ``b0 = M B0`` (rows x m), the stacks ``a_stack``
    of the ``M Ai`` (r x rows x n) and ``b_stack`` of the ``M Bj``
    (s x rows x m), either possibly empty, and the noise shape ``q = M R M^T``.
    """

    a0: np.ndarray
    b0: np.ndarray
    a_stack: np.ndarray
    b_stack: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        _set_frozen(self, **{k: np.array(v, dtype=float) for k, v in vars(self).items()})

    def state_block(self, x):
        """The ``r`` state columns ``[M A1 x ... M Ar x]`` of the regressor."""
        return (self.a_stack @ x).T

    def phi(self, x, u):
        """The full regressor ``phi(x, u)``, rows x (r + s)."""
        return np.concatenate([self.a_stack @ x, self.b_stack @ u]).T


@dataclass(frozen=True, eq=False)
class UncertainModel(_FrozenArrays):
    """Immutable description of the uncertain plant.

    ``a_perturbations`` and ``b_perturbations`` are the tuples (Ai), (Bj)
    multiplying the unknown parameters; either may be empty. ``c`` maps the
    state to the tracked output and ``r_shape`` is the disturbance-bound
    shape matrix (n x n, PSD). Every entry must be finite. The disturbance
    set ``E(r_shape, 0)`` is built once, at construction;
    :meth:`disturbance_set` returns it.
    """

    a0: np.ndarray
    a_perturbations: tuple
    b0: np.ndarray
    b_perturbations: tuple
    c: np.ndarray
    r_shape: np.ndarray
    state: RegressorTable = field(init=False, repr=False, compare=False)
    tracked: RegressorTable = field(init=False, repr=False, compare=False)
    disturbance: Ellipsoid = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a0 = _as_matrix(self.a0, name="a0")
        n = a0.shape[0]
        a0 = _as_matrix(a0, n, n, "a0")
        b0 = _as_columns(self.b0, n, None, "b0")
        c = _as_matrix(self.c, None, n, "c")
        r_shape = _as_matrix(self.r_shape, n, n, "r_shape")
        m = b0.shape[1]
        aps = tuple(_as_matrix(ai, n, n, f"a_perturbations[{i}]")
                    for i, ai in enumerate(self.a_perturbations))
        bps = tuple(_as_columns(bj, n, m, f"b_perturbations[{j}]")
                    for j, bj in enumerate(self.b_perturbations))
        _set_frozen(self, a0=a0, a_perturbations=aps, b0=b0, b_perturbations=bps,
                    c=c, r_shape=0.5 * (r_shape + r_shape.T))
        a_stack = np.array(aps).reshape(-1, n, n)
        b_stack = np.array(bps).reshape(-1, n, m)
        for name, out in (("state", np.eye(n)), ("tracked", c)):
            object.__setattr__(self, name, RegressorTable(
                out @ a0, out @ b0, out @ a_stack, out @ b_stack,
                out @ self.r_shape @ out.T))
        try:
            disturbance = Ellipsoid(np.zeros(n), self.r_shape)
        except ValueError as exc:
            raise ValueError(f"r_shape must be symmetric PSD: {exc}") from None
        object.__setattr__(self, "disturbance", disturbance)

    @property
    def n(self) -> int:
        return self.a0.shape[0]

    @property
    def m(self) -> int:
        return self.b0.shape[1]

    @property
    def l(self) -> int:
        return self.c.shape[0]

    @property
    def r(self) -> int:
        return len(self.a_perturbations)

    @property
    def s(self) -> int:
        return len(self.b_perturbations)

    @property
    def p(self) -> int:
        """Stacked parameter dimension r + s."""
        return self.r + self.s

    def disturbance_set(self) -> Ellipsoid:
        return self.disturbance

    def split_theta(self, theta):
        theta = np.asarray(theta, dtype=float).ravel()
        if theta.size != self.p:
            raise ValueError(f"theta has {theta.size} entries, expected {self.p}")
        return theta[: self.r], theta[self.r:]

    @_held
    def assemble(self, theta):
        """Realized ``(A, B)`` at a parameter vector, as read-only arrays.

        The pair is held while the same model and the same read-only
        ``theta`` come back (``ellipsoid._held``), as the scenario's true
        parameter does on every closed-loop step; any other ``theta`` is
        assembled afresh.
        """
        alpha, beta = self.split_theta(theta)
        a = self.a0 + sum(al * ai for al, ai in zip(alpha, self.a_perturbations))
        b = self.b0 + sum(be * bj for be, bj in zip(beta, self.b_perturbations))
        return _freeze((np.asarray(a, dtype=float), np.asarray(b, dtype=float)))

    def step(self, x, u, theta, omega):
        """One state transition; returns ``(x_next, y_next)``."""
        x = np.asarray(x, dtype=float).ravel()
        u = np.atleast_1d(np.asarray(u, dtype=float)).ravel()
        omega = np.asarray(omega, dtype=float).ravel()
        if x.size != self.n or omega.size != self.n:
            raise ValueError("state or disturbance dimension mismatch")
        if u.size != self.m:
            raise ValueError(f"input has {u.size} entries, expected {self.m}")
        a, b = self.assemble(theta)
        x_next = a @ x + b @ u + omega
        return x_next, self.c @ x_next

    def output(self, x):
        return self.c @ np.asarray(x, dtype=float).ravel()
