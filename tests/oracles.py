"""Independent reference evaluators used by the solver tests.

Everything here recomputes objectives from first principles (dense grids,
direct formulas) without touching the solvers under test, so agreement is
evidence rather than tautology.
"""

import numpy as np

from smtrack.checks import random_spd


def robust_cost_batch(instance, belief, us):
    """Certified worst-case tracking cost at each row of ``us``.

    Direct evaluation of sum_t |f_t + b0_t u + g_t(u) th| + sqrt(g_t P g_t^T)
    + sqrt(Q_tt) for a batch of inputs, vectorized over the batch.
    """
    us = np.atleast_2d(np.asarray(us, dtype=float))
    n_pts = us.shape[0]
    l, p = instance.l, instance.p
    r = instance.gx.shape[1]
    g = np.zeros((n_pts, l, p))
    g[:, :, :r] = instance.gx
    for j, wj in enumerate(instance.b_stack):
        g[:, :, r + j] = us @ wj.T
    mid = instance.f[None, :] + us @ instance.b0.T + g @ belief.center
    quad = np.einsum("nti,ij,ntj->nt", g, belief.shape, g)
    rad = np.sqrt(np.clip(quad, 0.0, None))
    rad = rad + np.sqrt(np.clip(np.diag(instance.q_shape), 0.0, None))[None, :]
    return (np.abs(mid) + rad).sum(axis=1)


def _grid_eval(instance, belief, axes):
    grids = np.meshgrid(*axes, indexing="ij")
    us = np.stack([g.ravel() for g in grids], axis=1)
    vals = robust_cost_batch(instance, belief, us)
    i = int(np.argmin(vals))
    return us[i], float(vals[i])


def grid_min_robust(instance, belief, bounds, points=None, stages=3):
    """Multi-stage dense grid minimum of the certified cost over the box.

    Each refinement re-grids a window of +-2 spacings around the incumbent;
    the objective is convex, so the window always brackets the minimizer.
    """
    lo = np.asarray(bounds.lower, dtype=float).copy()
    hi = np.asarray(bounds.upper, dtype=float).copy()
    m = lo.size
    if points is None:
        points = 4001 if m == 1 else 201
    axes = [np.linspace(lo[a], hi[a], points) for a in range(m)]
    best_u, best = _grid_eval(instance, belief, axes)
    span = hi - lo
    for _ in range(stages):
        span = 4.0 * span / (points - 1)
        axes = [np.linspace(max(lo[a], best_u[a] - span[a] / 2.0),
                            min(hi[a], best_u[a] + span[a] / 2.0), points)
                for a in range(m)]
        u2, v2 = _grid_eval(instance, belief, axes)
        if v2 < best:
            best_u, best = u2, v2
    return best_u, best


def robust_min_one_input(instance, belief, bounds):
    """Exact minimum of the certified cost for one output and one input.

    With ``l = m = 1`` the regressor is affine in ``u``, ``g(u) = g0 + u g1``,
    so the cost is the convex function::

        |m0 + a u| + sqrt((c + r u)^2 + rho) + q

    with ``m0 = f + g0 th``, ``a = b0 + g1 th``, ``r^2 = g1 P g1``,
    ``c r = g0 P g1``, ``rho = g0 P g0 - c^2`` and ``q = sqrt(Q)``. Off the
    kink, a stationary point has ``c + r u = +-|a| sqrt(rho / (r^2 - a^2))``,
    which exists only when ``r^2 > a^2``. So the minimum over the box is
    attained at one of: the box ends, the kink ``m0 + a u = 0``, the zero
    of ``c + r u`` and those two points. Each candidate inside the box is
    scored by :func:`robust_cost_batch`. Returns ``(u, value)``.
    """
    if instance.l != 1 or instance.m != 1:
        raise ValueError("the oracle needs one output and one input")
    r_dim = instance.gx.shape[1]
    g0 = np.concatenate([instance.gx[0], np.zeros(instance.b_stack.shape[0])])
    g1 = np.concatenate([np.zeros(r_dim), instance.b_stack[:, 0, 0]])
    th, p = belief.center, belief.shape
    m0 = instance.f[0] + g0 @ th
    a = instance.b0[0, 0] + g1 @ th
    r = np.sqrt(max(g1 @ p @ g1, 0.0))
    c = (g0 @ p @ g1) / r if r > 0.0 else 0.0
    rho = max(g0 @ p @ g0 - c * c, 0.0)
    lo, hi = bounds.lower[0], bounds.upper[0]
    cands = [lo, hi]
    if a != 0.0:
        cands.append(-m0 / a)
    if r > 0.0:
        cands.append(-c / r)
        if r * r > a * a:
            y = abs(a) * np.sqrt(rho / (r * r - a * a))
            cands += [(y - c) / r, (-y - c) / r]
    us = [u for u in cands if np.isfinite(u) and lo <= u <= hi] or [0.0]
    vals = robust_cost_batch(instance, belief, np.array(us)[:, None])
    i = int(np.argmin(vals))
    return np.array([us[i]]), float(vals[i])


def cone_terms(instance, belief, u):
    """Per-output ``(mid, rho, q)`` at input ``u``.

    Output t's certified error bound is ``|mid_t| + sqrt(rho_t) + q_t``, with
    ``rho_t = g_t(u) P g_t(u)^T``.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    g = instance.regressor(u)
    mid = instance.f + instance.b0 @ u + g @ belief.center
    rho = np.einsum("ti,ij,tj->t", g, belief.shape, g)
    q = np.sqrt(np.clip(np.diag(instance.q_shape), 0.0, None))
    return mid, rho, q


def robust_barrier(instance, belief, bounds, u, z, t_b):
    """Value, gradient and Hessian of the robust program's barrier at (u, z).

    The function of x = (u, z), assembled densely over all m inputs and l
    bounds, is::

        t_b sum(z) - sum_{t, +-} log((z_t -+ mid_t(u) - q_t)^2 - rho_t(u))
                   - sum_i log(u_i - lo_i) - sum_i log(hi_i - u_i),

    over the finite box sides, with mid_t and rho_t as in
    :func:`cone_terms`. Each cone term -log psi has gradient -grad(psi)/psi
    and Hessian grad(psi) grad(psi)^T / psi^2 - hess(psi) / psi, where
    grad(s) = (-+ grad(mid_t), e_t), grad(rho_t) = 2 J_t^T P g_t and
    hess(rho_t) = 2 J_t^T P J_t with J_t = d g_t / du.
    """
    u = np.asarray(u, dtype=float)
    z = np.asarray(z, dtype=float)
    l, m, p = instance.l, instance.m, instance.p
    r = instance.gx.shape[1]
    mid, rho, q = cone_terms(instance, belief, u)
    g_all = instance.regressor(u)
    dim = m + l
    value = t_b * z.sum()
    grad = np.zeros(dim)
    grad[m:] = t_b
    hess = np.zeros((dim, dim))
    for t in range(l):
        jac = np.zeros((p, m))
        for j, wj in enumerate(instance.b_stack):
            jac[r + j] = wj[t]
        dmid = instance.b0[t] + jac.T @ belief.center
        drho = np.zeros(dim)
        drho[:m] = 2.0 * jac.T @ belief.shape @ g_all[t]
        d2rho = np.zeros((dim, dim))
        d2rho[:m, :m] = 2.0 * jac.T @ belief.shape @ jac
        for sign in (1.0, -1.0):
            s = z[t] - sign * mid[t] - q[t]
            ds = np.zeros(dim)
            ds[:m] = -sign * dmid
            ds[m + t] = 1.0
            psi = s * s - rho[t]
            dpsi = 2.0 * s * ds - drho
            d2psi = 2.0 * np.outer(ds, ds) - d2rho
            value -= np.log(psi)
            grad -= dpsi / psi
            hess += np.outer(dpsi, dpsi) / psi**2 - d2psi / psi
    for i in range(m):
        for slack, sign in ((u[i] - bounds.lower[i], 1.0),
                            (bounds.upper[i] - u[i], -1.0)):
            if np.isfinite(slack):
                value -= np.log(slack)
                grad[i] -= sign / slack
                hess[i, i] += 1.0 / slack**2
    return value, grad, hess


def active_value_batch(info, us):
    us = np.atleast_2d(np.asarray(us, dtype=float))
    return (np.einsum("ni,ij,nj->n", us, info.pw, us)
            + us @ info.pvwx + info.const)


def active_grid_max(info, region, bounds, n_line=200001, n_angle=20001):
    """Dense-candidate maximum of the information quadratic over region ∩ box.

    The objective is smooth, so its maximum sits at an interior stationary
    point, on the ellipse boundary, or on a box face; each family is covered
    by exact candidates or a dense 1-D grid including segment endpoints.
    """
    center = np.asarray(region.center, dtype=float)
    t = region.shape
    m = center.size
    lo = np.asarray(bounds.lower, dtype=float)
    hi = np.asarray(bounds.upper, dtype=float)

    def feasible_mask(us):
        d = us - center
        try:
            t_inv = np.linalg.inv(t)
        except np.linalg.LinAlgError:
            t_inv = np.linalg.pinv(t)
        form = np.einsum("ni,ij,nj->n", d, t_inv, d)
        inside = form <= 1.0 + 1e-9
        inside &= np.all(us >= lo[None, :] - 1e-12, axis=1)
        inside &= np.all(us <= hi[None, :] + 1e-12, axis=1)
        return inside

    cands = [center[None, :]]
    if m == 1:
        radius = float(np.sqrt(max(t[0, 0], 0.0)))
        a = max(lo[0], center[0] - radius)
        b = min(hi[0], center[0] + radius)
        cands.append(np.linspace(a, b, n_line)[:, None])
    else:
        vals, vecs = np.linalg.eigh(t)
        sroot = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T
        phis = np.linspace(0.0, 2.0 * np.pi, n_angle)
        ring = center[None, :] + np.column_stack(
            [np.cos(phis), np.sin(phis)]) @ sroot.T
        cands.append(ring)
        # Interior stationary point of the quadratic, when defined.
        try:
            u_st = np.linalg.solve(info.pw, -0.5 * info.pvwx)
            cands.append(u_st[None, :])
        except np.linalg.LinAlgError:
            pass
        try:
            t_inv = np.linalg.inv(t)
        except np.linalg.LinAlgError:
            t_inv = np.linalg.pinv(t)
        for a_ax in range(2):
            b_ax = 1 - a_ax
            for val in (lo[a_ax], hi[a_ax]):
                if not np.isfinite(val):
                    continue
                da = val - center[a_ax]
                tbb = t_inv[b_ax, b_ax]
                gab = t_inv[a_ax, b_ax] * da
                caa = t_inv[a_ax, a_ax] * da * da - 1.0
                if tbb <= 0.0:
                    continue
                disc = gab * gab - tbb * caa
                if disc < 0.0:
                    continue
                root = np.sqrt(disc)
                seg_lo = max(center[b_ax] + (-gab - root) / tbb, lo[b_ax])
                seg_hi = min(center[b_ax] + (-gab + root) / tbb, hi[b_ax])
                if seg_lo > seg_hi:
                    continue
                seg = np.empty((n_angle, 2))
                seg[:, a_ax] = val
                seg[:, b_ax] = np.linspace(seg_lo, seg_hi, n_angle)
                cands.append(seg)
    us = np.vstack(cands)
    ok = feasible_mask(us)
    if not np.any(ok):
        return center, float(active_value_batch(info, center[None, :])[0])
    vals = active_value_batch(info, us[ok])
    i = int(np.argmax(vals))
    return us[ok][i], float(vals[i])


def random_model(rng, n=2, m=2, r=2, s=1):
    """Random uncertain plant with one tracked output."""
    from smtrack.model import UncertainModel

    return UncertainModel(
        a0=rng.normal(size=(n, n)),
        a_perturbations=tuple(rng.normal(size=(n, n)) for _ in range(r)),
        b0=rng.normal(size=(n, m)),
        b_perturbations=tuple(rng.normal(size=(n, m)) for _ in range(s)),
        c=rng.normal(size=(1, n)),
        r_shape=random_spd(rng, n, jitter=0.05),
    )


def random_tracking_case(rng, l=None, m=None):
    """Random tracking program (instance, belief, bounds) at desk scale.

    ``l`` outputs and ``m`` inputs are drawn from {1, 2} unless given.
    """
    from smtrack.estimator import ParameterBelief
    from smtrack.ellipsoid import Ellipsoid
    from smtrack.robust import ControlBounds, TrackingInstance

    m = int(rng.integers(1, 3)) if m is None else m
    l = int(rng.integers(1, 3)) if l is None else l
    r = int(rng.integers(0, 3))
    s = int(rng.integers(0, 3))
    n = 2
    x = rng.normal(size=n)
    f = rng.normal(scale=2.0, size=l)
    b0 = rng.normal(size=(l, m))
    v_rows = [rng.normal(size=(l, n)) for _ in range(r)]
    w_rows = [rng.normal(size=(l, m)) for _ in range(s)]
    instance = TrackingInstance(
        f=f,
        b0=b0,
        gx=np.array([vi @ x for vi in v_rows]).reshape(r, l).T,
        b_stack=np.array(w_rows).reshape(s, l, m),
        q_shape=random_spd(rng, l, jitter=0.05),
    )
    p = r + s
    belief = ParameterBelief(
        Ellipsoid(rng.normal(scale=0.5, size=p), random_spd(rng, p, 0.1)))
    lo = rng.uniform(-4.0, -1.0, size=m)
    hi = rng.uniform(1.0, 4.0, size=m)
    return instance, belief, ControlBounds(lo, hi)


def random_active_case(rng):
    """Random exploration program (info, region, bounds) with feasible center."""
    from smtrack.active import InfoQuadratic
    from smtrack.ellipsoid import Ellipsoid
    from smtrack.robust import ControlBounds

    m = int(rng.integers(1, 3))
    pw = random_spd(rng, m, jitter=0.1)
    if rng.random() < 0.3:
        pw = -pw  # make concave cases appear too
    info = InfoQuadratic(pw=pw, pvwx=rng.normal(size=m),
                         const=float(rng.normal()))
    lo = rng.uniform(-4.0, -1.0, size=m)
    hi = rng.uniform(1.0, 4.0, size=m)
    center = rng.uniform(lo + 0.1, hi - 0.1)
    region = Ellipsoid(center, random_spd(rng, m, jitter=0.05))
    return info, region, ControlBounds(lo, hi)


def gain_form_posterior(prior, phi, q, h, rho):
    """Dense gain-form fusion of ``prior`` with an observation at ``rho > 0``.

    Returns ``(center, shape, beta)`` from ``M = phi P phi^T + Q/rho``,
    ``K = P phi^T M^{-1}``, ``beta = 1 + rho - eps^T M^{-1} eps`` and the
    Joseph form ``beta [(I - K phi) P (I - K phi)^T + K Q K^T / rho]``, with
    ``eps = h - phi c``. No clipping: the shape is returned as computed.
    """
    p = prior.shape
    eps = h - phi @ prior.center
    mid = phi @ p @ phi.T + q / rho
    beta = float(1.0 + rho - eps @ np.linalg.solve(mid, eps))
    gain = np.linalg.solve(mid, phi @ p).T
    closed = np.eye(prior.dim) - gain @ phi
    core = closed @ p @ closed.T + gain @ q @ gain.T / rho
    return prior.center + gain @ eps, beta * core, beta


def random_fusion_case(rng, rows, dim, rank=None):
    """Random consistent ``(prior, phi, q, h, theta)``: ``theta`` is in both sets.

    ``phi`` is ``rows x dim`` of rank ``rank`` (default full); ``h`` is
    ``phi theta`` plus a noise point drawn inside ``E(q, 0)``.
    """
    from smtrack.ellipsoid import Ellipsoid

    rank = min(rows, dim) if rank is None else rank
    phi = rng.normal(size=(rows, rank)) @ rng.normal(size=(rank, dim))
    prior = Ellipsoid(rng.normal(size=dim), random_spd(rng, dim, jitter=0.2))
    q = random_spd(rng, rows, jitter=0.2)
    theta = prior.center + 0.9 * (prior.sample_interior(rng) - prior.center)
    noise = 0.9 * Ellipsoid(np.zeros(rows), q).sample_interior(rng)
    return prior, phi, q, phi @ theta + noise, theta
