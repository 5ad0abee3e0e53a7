"""Recursive set-membership parameter estimation.

Each step yields a linear observation of the unknown parameter vector::

    H = phi theta + upsilon,        upsilon in E(Q, 0)

where ``H`` and the regressor ``phi`` are formed from measured signals and
``Q`` bounds the observation noise. Fusing the observation set with the
prior parameter ellipsoid gives the posterior::

    K = P phi^T (phi P phi^T + Q/rho)^{-1}
    center' = center + K eps,                eps = H - phi center
    shape' = beta(rho) [(I - K phi) P (I - K phi)^T + K Q K^T / rho]
    beta(rho) = 1 + rho - eps^T (Q/rho + phi P phi^T)^{-1} eps

The fusion parameter ``rho`` minimizes posterior volume. The candidates
are the one root of the stationarity equation on a log bracket, when its
signs at the bracket's ends differ, and the bracket's upper end, where the
posterior tends to the observation set (the tightest member when ``phi``
has full column rank and every interior stationary point is larger). The
prior (``rho = 0``) is kept only when no candidate is smaller. ``beta`` is
convex with ``beta(0) = 1``, so its least value on the bracket, at an end
or at the root of its nondecreasing slope, certifies by its sign that the
prior and observation sets are disjoint.

Volume is measured on the range of ``P``, of dimension ``k``, the number
of its eigenvalues above ``1e-14`` of the largest (``k = dim`` for a
full-rank prior), since every member lies in that range. Most updates keep
the prior, and a closed-form test decides exactly those before any search.
With ``L L^T = Q``, ``R R^T = P``, the whitened innovation ``E = |L^{-1}
eps|^2`` and ``F = |L^{-1} phi R|_F^2``, the prior is kept when ``k (1 -
E) >= F`` and ``E <= 1``. The :mod:`smtrack.ellipsoid` module docstring
derives why no member is then smaller and why the test is sharp.

The fusion kernel of :mod:`smtrack.ellipsoid`, entered only through
:func:`update`, does the work: per update one linear solve against the
Cholesky factor of ``Q``, which is all a kept update costs. That factor
is taken once per noise shape: :class:`Observation` stores a symmetric
read-only ``Q`` (the closed loop's disturbance bound) as given, and the
kernel factors that array once. ``R`` is cached on the prior set. An
update the test does not decide adds one SVD of ``L^{-1} phi R``; then
``beta``, the defect and each member's log det are scalar rational
functions of ``rho`` (closed forms in that module's docstring).
Intersecting two sets ``E(Pa, a)`` and ``E(Pb, b)`` is an update of the
belief ``E(Pa, a)`` by ``Observation(b, I, Pb)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .ellipsoid import (
    Ellipsoid,
    InconsistentSetsError,
    _fixed,
    _FrozenArrays,
    _Fusion,
    _set_frozen,
)
from .model import UncertainModel

__all__ = [
    "Observation",
    "ParameterBelief",
    "InconsistentObservationError",
    "build_observation",
    "build_state_observation",
    "update",
]


class InconsistentObservationError(InconsistentSetsError):
    """The observation set cannot intersect the prior parameter set."""


@dataclass(frozen=True, eq=False)
class Observation(_FrozenArrays):
    """One linear parameter observation ``H = phi theta + noise``.

    ``q_shape`` is checked and stored symmetrized and read-only. A noise
    shape that is already symmetric and ``_fixed`` (read-only, owning its
    data), as a model's regressor-table ``q`` is, is stored as given, since
    symmetrizing it would change no bit; every closed-loop step then passes
    the fusion kernel the same array, which it factors once.
    """

    h: np.ndarray
    phi: np.ndarray
    q_shape: np.ndarray

    def __post_init__(self):
        h = np.atleast_1d(np.array(self.h, dtype=float))
        phi = np.atleast_2d(np.array(self.phi, dtype=float))
        q = np.atleast_2d(np.asarray(self.q_shape, dtype=float))
        if phi.shape[0] != h.size:
            raise ValueError(f"phi has {phi.shape[0]} rows, h has {h.size}")
        if q.shape != (h.size, h.size):
            raise ValueError(f"q_shape {q.shape} does not match h ({h.size})")
        for name, value in (("h", h), ("phi", phi), ("q_shape", q)):
            if not all(map(math.isfinite, value.ravel().tolist())):
                raise ValueError(f"{name} is not finite")
        if not (_fixed(q) and q.tolist() == q.T.tolist()):
            q = 0.5 * (q + q.T)
        _set_frozen(self, h=h, phi=phi, q_shape=q)


@dataclass(frozen=True)
class ParameterBelief:
    """Parameter ellipsoid plus diagnostics of the latest update.

    ``kept_by_test`` is true when the closed-form keep test decided that
    update: the prior was kept with no root search (module docstring).
    """

    set: Ellipsoid
    last_rho: float = 0.0
    last_beta: float = 1.0
    skipped: bool = False
    kept_by_test: bool = False

    @property
    def center(self) -> np.ndarray:
        return self.set.center

    @property
    def shape(self) -> np.ndarray:
        return self.set.shape


def build_observation(model: UncertainModel, x, u, y_next) -> Observation:
    """Observation through the tracked output map.

    ``H = y_next - C A0 x - C B0 u``; regressor columns are ``C Ai x`` then
    ``C Bj u``; the noise shape is ``C R C^T``.
    """
    return _observation(model.tracked, x, u, y_next)


def build_state_observation(model: UncertainModel, x, u, x_next) -> Observation:
    """Observation through the full state (identity output map).

    Used by the closed-loop driver, where the state is measurable: every
    perturbation direction excited by ``(x, u)`` is visible, and the noise
    shape is the disturbance bound itself.
    """
    return _observation(model.state, x, u, x_next)


def _observation(table, x, u, target) -> Observation:
    """Observation of ``target = M x_next`` from the regressor table of ``M``."""
    x = np.asarray(x, dtype=float).ravel()
    u = np.atleast_1d(np.asarray(u, dtype=float)).ravel()
    target = np.atleast_1d(np.asarray(target, dtype=float)).ravel()
    return Observation(target - table.a0 @ x - table.b0 @ u, table.phi(x, u), table.q)


def update(belief: ParameterBelief, obs: Observation, policy: str = "raise"):
    """Fuse one observation into the belief at the volume-optimal ``rho``.

    The sets are disjoint when ``beta``, convex with ``beta(0) = 1``, falls
    below zero (less a rounding slack) at its least value on ``[0,
    ellipsoid.RHO_BRACKET[1]]``: at an end, or at the root of its
    nondecreasing slope. Otherwise the defect equation's root, found when
    its signs at the ends of ``ellipsoid.RHO_BRACKET`` differ (it crosses
    zero at most once there), is evaluated, and so is the bracket's upper
    end (the observation-set limit, which no root marks when the volume
    falls monotonically in ``rho``). The posterior of smallest log-volume is
    kept, never one larger than the prior (the ``rho = 0`` anchor, which
    returns the prior unchanged).

    The search runs only when the closed-form keep test fails. The test holds
    when ``k (1 - E) >= F`` and ``E <= 1``, with ``k`` the prior's rank
    (``Ellipsoid.rank``), ``E`` the squared whitened innovation and ``F``
    the squared Frobenius norm of the whitened regressor ``L^{-1} phi R``;
    the :mod:`smtrack.ellipsoid` module docstring derives it. Such an
    update returns the prior object itself, flagged ``kept_by_test=True``.

    ``policy="raise"`` raises :class:`InconsistentObservationError` when the
    observation set is disjoint from the prior; ``policy="skip"`` instead
    returns the prior flagged ``skipped=True``.
    """
    if policy not in ("raise", "skip"):
        raise ValueError(f"policy must be 'raise' or 'skip', got {policy!r}")
    prior = belief.set
    if obs.phi.shape[1] != prior.dim:
        raise ValueError(
            f"regressor has {obs.phi.shape[1]} columns, belief dim {prior.dim}"
        )
    fusion = _Fusion(prior, obs.phi, obs.q_shape, obs.h)
    fused = fusion.fuse()
    if fused is None:
        if policy == "raise":
            raise InconsistentObservationError(
                "observation set is disjoint from the prior parameter set"
            )
        return replace(belief, last_rho=0.0, last_beta=1.0, skipped=True,
                       kept_by_test=False)
    rho, beta, posterior = fused
    return ParameterBelief(posterior, last_rho=rho, last_beta=beta, skipped=False,
                           kept_by_test=fusion.keeps_prior)
