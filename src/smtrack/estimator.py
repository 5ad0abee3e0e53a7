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
are the roots of the stationarity equation on a log bracket and the
bracket's upper end, where the posterior tends to the observation set (the
tightest member when ``phi`` has full column rank and every interior
stationary point is larger). The prior (``rho = 0``) is kept only when no
candidate is smaller; ``beta <= 0`` on the scan certifies that the prior
and observation sets are disjoint.

The fusion kernel of :mod:`smtrack.ellipsoid`, shared with
``intersection_bound``, does the work: per update one Cholesky of ``Q``,
one eigendecomposition of ``P`` and one SVD of ``L^{-1} phi R``. Then
``beta``, the defect and each member's log det are scalar rational
functions of ``rho`` (closed forms in that module's docstring).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .ellipsoid import (
    DegenerateOperandError,
    Ellipsoid,
    InconsistentSetsError,
    _FrozenArrays,
    _Fusion,
    _set_frozen,
    minkowski_sum_bound,
)
from .model import UncertainModel

__all__ = [
    "Observation",
    "ParameterBelief",
    "InconsistentObservationError",
    "build_observation",
    "build_state_observation",
    "update",
    "innovation_ellipsoid",
]

BETA_SLACK = 1e-10


class InconsistentObservationError(InconsistentSetsError):
    """The observation set cannot intersect the prior parameter set."""


@dataclass(frozen=True, eq=False)
class Observation(_FrozenArrays):
    """One linear parameter observation ``H = phi theta + noise``."""

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
        _set_frozen(self, h=h, phi=phi, q_shape=0.5 * (q + q.T))


@dataclass(frozen=True)
class ParameterBelief:
    """Parameter ellipsoid plus diagnostics of the latest update."""

    set: Ellipsoid
    last_rho: float = 0.0
    last_beta: float = 1.0
    skipped: bool = False

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

    All defect-equation roots found on the scan bracket are evaluated, and
    so is the bracket's upper end ``ellipsoid.RHO_BRACKET[1]`` (the observation-set
    limit, which no root marks when the volume falls monotonically in
    ``rho``). The posterior of smallest log-volume is kept, never one larger
    than the prior (the ``rho = 0`` anchor, which returns the prior
    unchanged).

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
    fused = _Fusion(prior, obs.phi, obs.q_shape, obs.h).fuse(BETA_SLACK)
    if fused is None:
        if policy == "raise":
            raise InconsistentObservationError(
                "observation set is disjoint from the prior parameter set"
            )
        return replace(belief, last_rho=0.0, last_beta=1.0, skipped=True)
    rho, beta, posterior = fused
    return ParameterBelief(posterior, last_rho=rho, last_beta=beta, skipped=False)


def innovation_ellipsoid(belief: ParameterBelief, obs: Observation) -> Ellipsoid:
    """Outer bound on the innovation ``H - phi center`` (centered at zero).

    ``minkowski_sum_bound`` of the propagated parameter uncertainty
    ``E(phi P phi^T, 0)`` and the noise bound ``E(Q, 0)``. When the noise
    shape is singular or the sum parameter has no bracket (e.g. a zero
    regressor), it falls back to ``tau = 1``: shape ``2 (phi P phi^T + Q)``.
    """
    zero = np.zeros(obs.h.size)
    spread = Ellipsoid(zero, obs.phi @ belief.shape @ obs.phi.T)
    noise = Ellipsoid(zero, obs.q_shape)
    try:
        return minkowski_sum_bound(spread, noise)
    except (DegenerateOperandError, RuntimeError):
        return Ellipsoid(zero, 2.0 * (spread.shape + noise.shape))
