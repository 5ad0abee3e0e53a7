"""Input selection that accelerates parameter learning.

The posterior parameter set shrinks fastest when the regressor excited by
the applied input carries the most information. With the belief shape ``P``
partitioned into state/input blocks, the information content of the next
observation decomposes as::

    tr(phi P phi^T) = u^T PW u + PVWx u + const(x)

with ``PW`` built from the input block of ``P`` and the input perturbation
rows, and the linear term from the cross block. The active input maximizes
this quadratic over the intersection of an exploration ellipsoid around the
robust input (radius proportional to trace(P): exploration anneals away as
the belief converges) with the input box.

The maximizer is exact for up to two inputs (every scenario has one or
two); ``solve_active`` raises ``ValueError`` for more. Whitening with
``u = c + S w``, ``S`` the symmetric square root of the region shape ``T``
(2x2 closed form), maps the region to the unit disk ``|w| <= 1`` and each
finite box side to a half-plane ``s_k . w <= r_k``; the objective becomes
``w^T A w + b . w`` with ``A = S PW S`` and ``b = S (2 PW c + PVWx)``. A
singular ``T`` gives a singular ``S``, so the region stays the segment or
point it is. The maximum sits at a KKT point of one of finitely many
active sets (the trust-region subproblem of Moré & Sorensen, SIAM J. Sci.
Stat. Comput. 1983, with at most four linear cuts), and every candidate is
enumerated:

- the center, and the interior stationary point when ``A`` is negative
  definite;
- the circle's stationary points, ``z_i = b_i / (2 (mu - lam_i))`` in
  ``A``'s eigenbasis with ``|z| = 1``: the real roots of a quartic in
  ``mu``, found as eigenvalues of its companion matrix;
- the hard case, ``mu`` equal to an eigenvalue, where the quartic's root is
  double and the formula above is 0/0: the pair on each eigenvalue, plus
  the four eigen-axis points;
- on each cut's line, the ends of its chord inside the disk and the other
  cuts (circle-line points and box corners) and the line's own vertex
  when the objective is concave along it.

With one input the same list is the center, the two ends of
``[max(lo, c - sqrt(T)), min(hi, c + sqrt(T))]`` and the vertex when
concave. The best feasible candidate is clipped into the box once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ellipsoid import Ellipsoid, _FrozenArrays, _set_frozen
from .estimator import ParameterBelief
from .model import UncertainModel
from .robust import ControlBounds

__all__ = [
    "InfoQuadratic",
    "build_info_quadratic",
    "build_trust_region",
    "exploration_weight",
    "solve_active",
]

@dataclass(frozen=True, eq=False)
class InfoQuadratic(_FrozenArrays):
    """Information objective ``u^T pw u + pvwx . u + const``."""

    pw: np.ndarray
    pvwx: np.ndarray
    const: float

    def __post_init__(self):
        pw = np.atleast_2d(np.asarray(self.pw, dtype=float))
        pvwx = np.atleast_1d(np.array(self.pvwx, dtype=float))
        if pw.shape[0] != pw.shape[1] or pw.shape[0] != pvwx.size:
            raise ValueError("inconsistent quadratic dimensions")
        pw = 0.5 * (pw + pw.T)
        _set_frozen(self, pw=pw, pvwx=pvwx)

    @property
    def m(self) -> int:
        return self.pvwx.size

    def value(self, u) -> float:
        u = np.atleast_1d(np.asarray(u, dtype=float))
        return float(u @ self.pw @ u + self.pvwx @ u + self.const)


def build_info_quadratic(model: UncertainModel, belief: ParameterBelief,
                         x) -> InfoQuadratic:
    """Assemble the information quadratic at state ``x``.

    It reads the model's ``state`` regressor table, the raw perturbation
    matrices that the closed-loop driver learns from, so the identity
    ``value(u) = tr(phi P phi^T)`` is exact for the regressor of
    :func:`~smtrack.estimator.build_state_observation`.
    """
    table = model.state
    x = np.asarray(x, dtype=float).ravel()
    r, shape = model.r, belief.shape
    phix = table.state_block(x)                  # (n, r)
    wstack = table.b_stack                       # (s, n, m)
    const = float(np.einsum("ti,ij,tj->", phix, shape[:r, :r], phix))
    pw = np.einsum("atm,ab,btk->mk", wstack, shape[r:, r:], wstack)
    pvwx = 2.0 * np.einsum("ti,ia,atm->m", phix, shape[:r, r:], wstack)
    return InfoQuadratic(pw, pvwx, const)


def exploration_weight(ma, m: int) -> np.ndarray:
    """``ma`` as a new (m, m) array: a scalar means ``ma I``, a vector the diagonal."""
    ma = np.array(ma, dtype=float)
    if ma.ndim == 0:
        ma = float(ma) * np.eye(m)
    elif ma.ndim == 1:
        ma = np.diag(ma)
    if ma.shape != (m, m):
        raise ValueError(f"ma has shape {ma.shape}, expected ({m}, {m})")
    return ma


def build_trust_region(belief: ParameterBelief, u_ref, ma) -> Ellipsoid:
    """Exploration ellipsoid ``E(trace(P) * Ma, u_ref)`` over the inputs."""
    u_ref = np.atleast_1d(np.asarray(u_ref, dtype=float))
    tr = max(float(np.trace(belief.shape)), 0.0)
    return Ellipsoid(u_ref, tr * exploration_weight(ma, u_ref.size))


# ---------------------------------------------------------------------------
# Exact maximizer over region ∩ box (m <= 2).
# ---------------------------------------------------------------------------

def _sqrt2(t):
    """Symmetric square root of a 2x2 PSD matrix, in closed form."""
    a, b, d = t[0][0], 0.5 * (t[0][1] + t[1][0]), t[1][1]
    root_det = math.sqrt(max(a * d - b * b, 0.0))
    scale = math.sqrt(a + d + 2.0 * root_det)
    return [[(a + root_det) / scale, b / scale], [b / scale, (d + root_det) / scale]]


def _dot(x, y):
    return sum(xi * yi for xi, yi in zip(x, y))


def _segment(quad, lin, lo, hi):
    """Candidate maximizers of ``quad t^2 + lin t`` on ``[lo, hi]``."""
    out = [lo, hi]
    if quad < 0.0:
        vertex = -lin / (2.0 * quad)
        if lo < vertex < hi:
            out.append(vertex)
    return out


def _disk_points(a, b, cuts):
    """KKT candidates of ``w^T a w + b . w`` on the unit disk cut by ``s . w <= r``.

    ``a`` is a symmetric 2x2 and ``b`` a 2-vector, both as Python floats;
    ``cuts`` lists the half-planes as ``((s0, s1), r)`` with finite ``r``.
    Returns ``(objective, w)`` pairs; every ``w`` is feasible, up to
    rounding on the cut lines.
    """
    cuts = [(s, r) for s, r in cuts if r < math.hypot(s[0], s[1])]   # others hold on all of it
    mean, half, off = 0.5 * (a[0][0] + a[1][1]), 0.5 * (a[0][0] - a[1][1]), a[0][1]
    d = math.hypot(half, off)
    theta = 0.5 * math.atan2(off, half)
    v1 = (math.cos(theta), math.sin(theta))        # eigenvalue mean + d
    v2 = (-v1[1], v1[0])                           # eigenvalue mean - d
    b1 = v1[0] * b[0] + v1[1] * b[1]
    b2 = v2[0] * b[0] + v2[1] * b[1]
    # Eigen-axis points; they also cover a = mean * I with b = 0.
    zs = [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)]
    if mean + d < 0.0:
        z = (-b1 / (2.0 * (mean + d)), -b2 / (2.0 * (mean - d)))
        if z[0] * z[0] + z[1] * z[1] <= 1.0:
            zs.append(z)
    # On the circle, z_i = b_i / (2 (mu - lam_i)) with |z| = 1; with
    # mu = mean + nu this is the depressed quartic
    # nu^4 - (2 d^2 + B) nu^2 - d (b1^2 - b2^2)/2 nu + d^2 (d^2 - B) = 0,
    # B = |b|^2 / 4, whose roots are the companion matrix's eigenvalues.
    bq = 0.25 * (b1 * b1 + b2 * b2)
    d2 = d * d
    companion = np.array([[0.0, 2.0 * d2 + bq, 0.5 * d * (b1 * b1 - b2 * b2), d2 * (bq - d2)],
                          [1.0, 0.0, 0.0, 0.0],
                          [0.0, 1.0, 0.0, 0.0],
                          [0.0, 0.0, 1.0, 0.0]])
    for nu in np.linalg.eigvals(companion).real.tolist():
        # z scaled by 2 (nu - d)(nu + d), whose sign is restored below.
        z0, z1 = b1 * (nu + d), b2 * (nu - d)
        sign = (nu - d) * (nu + d)
        norm = math.hypot(z0, z1)
        if sign != 0.0 and norm > 0.0:
            scale = math.copysign(1.0 / norm, sign)
            zs.append((z0 * scale, z1 * scale))
    # Hard case: mu at an eigenvalue, where the quartic's root is double
    # and the formula above is 0/0.
    if d > 0.0:
        z1 = b2 / (4.0 * d)
        if z1 * z1 <= 1.0:
            z0 = math.sqrt(1.0 - z1 * z1)
            zs.extend([(z0, z1), (-z0, z1)])
        z0 = -b1 / (4.0 * d)
        if z0 * z0 <= 1.0:
            z1 = math.sqrt(1.0 - z0 * z0)
            zs.extend([(z0, z1), (z0, -z1)])
    points = [w for w in ((z0 * v1[0] + z1 * v2[0], z0 * v1[1] + z1 * v2[1]) for z0, z1 in zs)
              if all(s[0] * w[0] + s[1] * w[1] <= r for s, r in cuts)]
    # Each cut's line: the chord inside the disk and the other cuts.
    for k, (s, r) in enumerate(cuts):
        ns = math.hypot(s[0], s[1])
        if ns == 0.0 or abs(r) > ns:
            continue
        w0 = (s[0] * r / (ns * ns), s[1] * r / (ns * ns))
        e = (-s[1] / ns, s[0] / ns)
        hi = math.sqrt(1.0 - (r / ns) ** 2)
        lo = -hi
        for j, (sj, rj) in enumerate(cuts):
            if j == k:
                continue
            den = sj[0] * e[0] + sj[1] * e[1]
            gap = rj - sj[0] * w0[0] - sj[1] * w0[1]
            if abs(den) <= 1e-12 * math.hypot(sj[0], sj[1]):     # parallel
                if gap < -1e-12 * (1.0 + abs(rj)):
                    lo, hi = math.inf, -math.inf
                    break
                continue
            edge = gap / den
            if den > 0.0:
                hi = min(hi, edge)
            else:
                lo = max(lo, edge)
        if lo > hi:
            continue
        ae = (a[0][0] * e[0] + a[0][1] * e[1], a[1][0] * e[0] + a[1][1] * e[1])
        quad = e[0] * ae[0] + e[1] * ae[1]
        lin = 2.0 * (w0[0] * ae[0] + w0[1] * ae[1]) + b[0] * e[0] + b[1] * e[1]
        points.extend((w0[0] + t * e[0], w0[1] + t * e[1])
                      for t in _segment(quad, lin, lo, hi))
    a00, a01, a11 = a[0][0], a[0][1], a[1][1]
    return [(w0 * (a00 * w0 + 2.0 * a01 * w1 + b[0]) + w1 * (a11 * w1 + b[1]), (w0, w1))
            for w0, w1 in points]


def solve_active(info: InfoQuadratic, region: Ellipsoid,
                 bounds: ControlBounds) -> np.ndarray:
    """Maximize the information quadratic over region ∩ box.

    Returns the exploring input, exact for ``m <= 2`` inputs; ``m >= 3``
    raises ``ValueError``. The region center (the robust input) is always
    a candidate, so the returned objective never falls below it. Exact
    ties resolve to the lexicographically smallest input.
    """
    center = np.asarray(region.center, dtype=float)
    m = center.size
    if bounds.m != m or info.m != m:
        raise ValueError("input dimension mismatch between region, info, bounds")
    if m > 2:
        raise ValueError(f"solve_active is exact for at most m = 2 inputs, got m = {m}")
    c, q, g = center.tolist(), info.pw.tolist(), info.pvwx.tolist()
    t = region.shape.tolist()
    if sum(t[i][i] for i in range(m)) <= 0.0:
        return center.copy()
    if max(abs(v) for v in g + [x for row in q for x in row]) <= 1e-8:   # objective ~ const
        return center.copy()
    lower, upper = bounds.lower.tolist(), bounds.upper.tolist()
    lin = [2.0 * _dot(qi, c) + gi for qi, gi in zip(q, g)]

    # Whitened: u = c + S w with |w| <= 1, objective w^T A w + b . w.
    sroot = [[math.sqrt(t[0][0])]] if m == 1 else _sqrt2(t)
    sq = [[_dot(si, qj) for qj in zip(*q)] for si in sroot]
    a = [[_dot(sqi, sj) for sj in sroot] for sqi in sq]               # S is symmetric
    a[0][-1] = a[-1][0] = 0.5 * (a[0][-1] + a[-1][0])                 # and so is A
    b = [_dot(si, lin) for si in sroot]
    if m == 1:
        w_lo = max(-1.0, (lower[0] - c[0]) / sroot[0][0])
        w_hi = min(1.0, (upper[0] - c[0]) / sroot[0][0])
        scored = ([(w * (a[0][0] * w + b[0]), (w,)) for w in _segment(a[0][0], b[0], w_lo, w_hi)]
                  if w_lo <= w_hi else [])
    else:
        cuts = []
        for k in range(2):
            if math.isfinite(upper[k]):
                cuts.append((sroot[k], upper[k] - c[k]))
            if math.isfinite(lower[k]):
                cuts.append(((-sroot[k][0], -sroot[k][1]), c[k] - lower[k]))
        scored = _disk_points(a, b, cuts)

    scored.append((0.0, (0.0,) * m))                                  # the center
    best = max(gain for gain, _ in scored)
    value_c = 0.5 * (_dot(c, lin) + _dot(c, g)) + info.const
    tol = 1e-12 * (1.0 + abs(value_c + best))
    u = min([ci + _dot(si, w) for ci, si in zip(c, sroot)]
            for gain, w in scored if gain >= best - tol)
    return np.array([min(max(ui, lo), hi) for ui, lo, hi in zip(u, lower, upper)])
