"""The two-flow discrepancy functional, its decomposition, and the
singular-part machinery.

The central object is

    D(t) = int int |X_t(x) - Y_t(x + eps z)| rho(x, z)
                   mu1(t, x) mu2(t, x + eps z) dx dz,

the kernel-weighted separation of two flow maps (the second variable is
already substituted, y = x + eps z; the kernel is even in z so no sign
bookkeeping survives the substitution).  Distances are minimal-image
distances on the torus.  The time derivative of D is computed two
independent ways and their agreement is the test:

* a central finite difference of D in t, and
* direct quadrature of the two transformed integrals

      I1 = - int int |X_t(x) - Y_t(x+eps z)| <d1 rho(x, z), b(x)> mu1 mu2
      I2 = - int int |X_t(x) - Y_t(x+eps z)|
                     <d2 rho(x, z), (b(x+eps z) - b(x))/eps> mu1 mu2.

The difference quotient in I2 is evaluated as written: (x, z) pairs that
straddle a jump surface contribute the O(1/eps) singular mass that the
anisotropic kernel is designed to suppress; the computable majorant of
that contribution is :func:`singular_bound`, which decays like
1/(1+gamma) when the kernel direction matches the jump normal.

Quadrature layout.  z-integrals always run over the image under U^{-1}
of a grid on the unit disk in w = U z, so the squeezed support stays
resolved at any gamma.  The pair engine's grid is the midpoint tensor
grid on the unit box; :func:`singular_bound`'s is the polar rule
(Gauss-Legendre radius times midpoint angles), whose summand factorizes
on that chart, so the rule is summed as a radial sum times an angular
sum over the same nodes.  Every x-grid comes from
:mod:`bvflow.catalog`: the uniform torus grid for smooth fields; for
strip fields the field frame (tangential uniform x normal
Gauss-Legendre panels) with the panels split both at the jump surfaces
and, in the pair engine, at their eps<n, z>-shifted copies, so every
x-integrand is smooth on every panel and the quadrature carries no
jump-boundary error.
The tangential direction gets n_x uniform nodes, or one node carrying
the panels' s-weights when every x-integrand is constant along the
tangent (:func:`_tangent_invariant`: a strip field's maps commute with
tangential translation, and in the pair engine the kernel direction
must be constant).
Then n_x sets nothing, and the s-panels set the accuracy
(``FunctionalConfig.nodes_per_panel`` = 8 Gauss nodes per panel in the
pair engine, 24 on the L^1 grid).
The pair engine stacks its x-grids as one (G, P) array with a row per
z-shift group (:func:`bvflow.catalog.shifted_strip_quadrature`; a
smooth field has the one row of the torus grid).  A sweep evaluates the
x-only factors of the whole stack in one batch of the first flow: b(x),
and per time the displacement and the x-weight times the density; with
a position-dependent kernel direction also eta and D eta, once per
stacked x-point; with a constant direction rho and d2 rho are evaluated
once for all z-nodes.  The z-nodes are swept in chunks of at most
:data:`PAIR_CHUNK` (x, z) pairs, which bounds the pair arrays and the
second flow's per-batch state; a chunk may span groups, and each of its
z-nodes gathers its group's row of the x-side arrays into (q, P)
planes, while a single row is broadcast as (1, P).  A chunk's y-points
are one batch of the second flow over all the sweep's times; on a
smooth field they are the uniform x-grid shifted by each eps z, passed
as a :class:`bvflow.flow.ShiftedGrid`.  The spline map's state is then
3 K values per pair for K times, and it builds its tap-weight matrices
:data:`bvflow.flow.SPLINE_ROW_BLOCK` points at a time, so at most one
block's matrix is alive.  Gauss-Legendre rules come from
:func:`bvflow.torus.gauss_legendre`, built once per order.

A report row (:func:`discrepancy_report`) is one pair sweep over the
times {t - dt, t, t + dt}, which yields D, I1 and I2 at t and the
central difference of D, plus one L^1 grid (the field-adapted
:func:`bvflow.catalog.volume_quadrature`) evaluated at the same three
times for the eqfin residual, the I2 limit and C(t).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from . import catalog as cat
from .catalog import PiecewiseField, volume_quadrature
from .flow import ShiftedGrid, collision_branch_maps
from .kernels import AnisotropicKernel, polar_axes
# wrap_half is unused here but stays a module attribute: bench/test_bench.py
# checks that the tracer rewires it in this module
from .torus import gauss_legendre, torus_distance, torus_grid, wrap_half  # noqa: F401

__all__ = [
    "FunctionalConfig",
    "DiscrepancyReport",
    "UniquenessReport",
    "discrepancy_D",
    "I1",
    "I2",
    "I_eps_fd",
    "pair_integrals",
    "decomposition_check",
    "R_a_check",
    "singular_bound",
    "singular_bound_envelope",
    "gamma_eta_tradeoff",
    "trace_identity",
    "TraceIdentityResult",
    "discrepancy_report",
    "uniqueness_report",
    "PAIR_CHUNK",
]

PAIR_CHUNK = 2 ** 15  # (x, z) pairs per z-chunk of the pair engine


@dataclass(frozen=True)
class FunctionalConfig:
    """Quadrature and differencing parameters for the functionals."""

    epsilon: float
    n_x: int = 64
    n_z: int = 64
    dt_fd: float = 1e-3
    nodes_per_panel: ClassVar[int] = 8  # Gauss nodes per strip panel of the pair x-grids

    def __post_init__(self):
        if not 0.0 < self.epsilon < 0.5:
            raise ValueError(
                "epsilon must lie in (0, 1/2) so the scaled kernel support "
                "fits the torus"
            )
        if self.n_x < 1 or self.n_z < 1:
            raise ValueError("n_x and n_z must be at least 1")
        if not 0.0 < self.dt_fd < np.inf:
            raise ValueError("dt_fd must be finite and positive")


# ---------------------------------------------------------------------------
# the (x, z) pair quadrature engine
# ---------------------------------------------------------------------------

def _tangent_invariant(field: PiecewiseField, kernel=None) -> bool:
    """Whether every x-integrand is constant along the strip tangent, so
    a strip x-grid needs one tangential node.

    That holds on a strip field: its pieces are functions of the level
    s, and its flow maps commute with tangential translation (the
    :class:`bvflow.flow.FlowMap` contract; exactly for the closed form,
    up to rounding for RK4).  For the pair engine (``kernel`` given) the
    kernel direction must also be constant.  A position-dependent
    direction such as ``mollified_normal`` varies along the tangent, so
    it does not qualify.
    """
    return (field.strip_normal is not None
            and (kernel is None or kernel.eta.is_constant))


def pair_integrals_multi(flow_x, flow_y, field: PiecewiseField,
                         kernel: AnisotropicKernel, cfg: FunctionalConfig,
                         times, want=("D",)) -> dict:
    """Evaluate the selected pair integrals at several times in one sweep.

    The kernel factors and the b-difference quotient are independent of
    t, so they are computed once per (x, z) block and reused for every
    requested time; only the flow separation and the densities are
    re-evaluated.  ``want`` is either a sequence of keys, asked for at
    every time, or a mapping {t: keys} that names the keys of each time
    in ``times``; a time repeated in ``times`` is evaluated once.
    Returns {t: {key: value}} holding, at each t, exactly the keys asked
    for there, from:

    D       kernel-weighted separation (see module docstring)
    I1      transformed term through the x-derivative of the kernel
    I2      transformed term through the z-derivative and the difference
            quotient of b
    I2a     as I2 but with the quotient replaced by the theta-averaged
            absolutely continuous derivative (8-node Gauss-Legendre in
            theta)
    MASS    int int rho mu1 mu2 (used in error propagation)
    I1_ABS / I2_ABS   same integrands against |integrand| (error budget)

    The x-grids form one (G, P) stack, one row per z-shift group: the
    torus grid as a single row on a smooth field, and on a strip field
    one row per level shift eps <n, z> from
    :func:`bvflow.catalog.shifted_strip_quadrature`.  The sweep evaluates
    the x-only factors of the whole stack in one batch of ``flow_x`` over
    all the times: b(x), and per time the displacement and the x-weight
    times mu1; with a position-dependent direction also eta and D eta,
    so each is evaluated once per stacked x-point.  The z-nodes are then
    swept in chunks of at most :data:`PAIR_CHUNK` pairs, which may span
    groups: each z-node gathers its group's row of every x-side array, so
    a chunk's planes are (q, P).  A single row is broadcast as (1, P)
    instead, and the kernel factors of a constant direction as (q, 1)
    columns.  Each chunk's y-points are one batch of
    ``flow_y`` over all the times; on a smooth field that batch is a
    :class:`bvflow.flow.ShiftedGrid`, the torus x-grid's axes with the
    chunk's eps z as shifts.
    Within a chunk every two-component quantity (the minimal-image
    separation, the b-difference quotient, d2 rho) is handled as one
    contiguous (q, P) plane per component, and the distance is the square
    root of the summed squares of the separation planes.  A separation
    below about 1e-154 squares to 0, which changes no sum.
    """
    eps = cfg.epsilon
    times = list(dict.fromkeys(float(t) for t in times))
    if isinstance(want, Mapping):
        want = {t: tuple(want[t]) for t in times}
    else:
        want = dict.fromkeys(times, tuple(want))
    asked = set().union(*want.values())
    z_pts, z_wts = kernel.z_quadrature(None, cfg.n_z, rule="midpoint")
    totals = {t: dict.fromkeys(keys, 0.0) for t, keys in want.items()}

    if "I2a" in asked:
        gl_t, gl_w = gauss_legendre(8)
        theta_nodes = 0.5 * (gl_t + 1.0)
        theta_wts = 0.5 * gl_w
    else:
        theta_nodes = theta_wts = None
    need_g1 = not kernel.eta.is_constant and bool(asked & {"I1", "I1_ABS"})
    need_g2 = bool(asked & {"I2", "I2_ABS"})

    if field.strip_normal is None:
        # a smooth field's x-grid is the uniform torus grid, so a chunk's
        # y-points are that grid shifted by each eps z: a ShiftedGrid.  Both
        # coordinates run over one axis, which the first n_x nodes list
        # in their second coordinate.
        x_pts, x_wts = volume_quadrature(field, cfg.n_x)
        x_grid, w_grid = x_pts[None], x_wts[None]
        axis = x_pts[: cfg.n_x, 1]
    else:
        # z-nodes with the same level shift (rounded) share one x-grid row,
        # cut at the first member's own shift, where its integrand jumps
        raw = eps * (z_pts @ np.asarray(field.strip_normal, dtype=float))
        _, first, group = np.unique(np.round(raw, 13), return_index=True,
                                    return_inverse=True)
        shifts = raw[first]
        n_tau = 1 if _tangent_invariant(field, kernel) else cfg.n_x
        x_grid, w_grid = cat.shifted_strip_quadrature(field, shifts, n_tau,
                                                      cfg.nodes_per_panel)
        axis = None
    n_rows, p = w_grid.shape
    x_all = x_grid.reshape(-1, 2)

    def stacked(values):
        return values.reshape(n_rows, p, *values.shape[1:])

    # the x-only factors: b(x) when an integrand needs it, and for every
    # time flow_x's displacement and the weight x_wts * mu1
    bx_grid = stacked(field.eval_many(x_all)) if need_g1 or need_g2 else None
    flow_x.begin_batch(x_all, times)
    per_t = {t: (stacked(flow_x.displacement(t, x_all)),
                 stacked(w_grid.ravel() * flow_x.density(t, x_all)))
             for t in times}
    flow_x.end_batch()
    if kernel.eta.is_constant:
        eta_grid = d_eta_grid = None
    else:
        eta_grid = stacked(kernel.eta.eta(x_all))
        d_eta_grid = stacked(kernel.eta.d_eta(x_all)) if need_g1 else None

    def accumulate(rows, sel):
        """The z-nodes ``sel`` against their x-grid rows (``rows`` of the
        stack), as (q, P) arrays with one row per z."""
        x_pts = x_grid[rows]  # (q,P,2), or (1,P,2) for a single row
        bx = None if bx_grid is None else bx_grid[rows]
        z_chunk, zw_chunk = z_pts[sel], z_wts[sel]
        ez = eps * z_chunk
        q = z_chunk.shape[0]
        if axis is None:
            y_batch = y_pts = (x_pts + ez[:, None, :]).reshape(-1, 2)
        else:
            y_batch = ShiftedGrid(axis, axis, ez)
            y_pts = y_batch.points
        # time-independent factors, each only when an asked key uses it;
        # d2 holds the two planes of d2 rho.  The z-column broadcasts
        # against eta of the stack's rows as (q, P) planes, and against a
        # constant direction (x = None, its (2,) vector) as (q, 1) columns.
        g1 = rho = d2 = None
        e = None if eta_grid is None else eta_grid[rows]
        z_col = z_chunk[:, None, :]
        if asked & {"D", "MASS"}:
            rho = kernel.rho(None, z_col) if e is None else kernel._rho(e, z_col)
        if need_g2 or "I2a" in asked:
            d2_qp = kernel.d2_rho(None, z_col) if e is None else kernel._d2_rho(e, z_col)
            d2 = [d2_qp[..., k] for k in (0, 1)]
        if need_g1:
            d1 = kernel._d1_rho(e, d_eta_grid[rows], z_col)
            g1 = -(d1[..., 0] * bx[..., 0] + d1[..., 1] * bx[..., 1])
        g2 = None
        if need_g2:
            by = field.eval_many(y_pts)
            quot = [(by[:, k].reshape(q, p) - bx[..., k]) / eps for k in (0, 1)]
            g2 = -(d2[0] * quot[0] + d2[1] * quot[1])
        g2a = None
        if "I2a" in asked:
            davg = np.zeros((q, p, 2, 2))
            for tn, tw in zip(theta_nodes, theta_wts):
                pts_theta = (x_pts + (eps * tn) * z_chunk[:, None, :]).reshape(-1, 2)
                davg += tw * field.jacobian_many(pts_theta).reshape(q, p, 2, 2)
            dbz = np.einsum("qpij,qj->qpi", davg, z_chunk)
            g2a = -(d2[0] * dbz[..., 0] + d2[1] * dbz[..., 1])

        flow_y.begin_batch(y_batch, times)
        for t, keys in want.items():
            dx, xw_mu1 = (a[rows] for a in per_t[t])  # (q,P,2), (q,P); or 1 for q
            dy = flow_y.displacement(t, y_pts)  # (q*P,2)
            # the minimal-image separation, one (q,P) plane per component:
            # torus.wrap_half in place, without its fold of +1/2 to -1/2,
            # which changes no norm
            s0, s1 = ((dx[..., k] - ez[:, k][:, None]) - dy[:, k].reshape(q, p)
                      for k in (0, 1))
            s0 -= np.rint(s0)
            s1 -= np.rint(s1)
            s0 *= s0
            s1 *= s1
            s0 += s1
            dist = np.sqrt(s0, out=s0)  # (q,P)
            mu2 = flow_y.density(t, y_pts).reshape(q, p)
            ww = zw_chunk[:, None] * xw_mu1 * mu2
            tot = totals[t]
            if "D" in keys:
                tot["D"] += float(np.sum(dist * rho * ww))
            if "MASS" in keys:
                tot["MASS"] += float(np.sum(rho * ww))
            if "I1" in keys and g1 is not None:
                tot["I1"] += float(np.sum(dist * g1 * ww))
            if "I1_ABS" in keys and g1 is not None:
                tot["I1_ABS"] += float(np.sum(np.abs(g1) * ww))
            if "I2" in keys:
                tot["I2"] += float(np.sum(dist * g2 * ww))
            if "I2_ABS" in keys:
                tot["I2_ABS"] += float(np.sum(np.abs(g2) * ww))
            if "I2a" in keys:
                tot["I2a"] += float(np.sum(dist * g2a * ww))
            # free this time's (q,P) arrays before the next time makes its
            # own; kept alive until the next time rebinds them, they nearly
            # double the page faults of a pass on a spline map
            del dy, s0, s1, dist, mu2, ww
        flow_y.end_batch()

    chunk = max(1, PAIR_CHUNK // p)
    for lo in range(0, z_pts.shape[0], chunk):
        sel = slice(lo, lo + chunk)
        # a single row broadcasts as (1, P); otherwise each z-node takes
        # its group's row
        accumulate(slice(None) if n_rows == 1 else group[sel], sel)
    return totals


def pair_integrals(flow_x, flow_y, field: PiecewiseField, kernel: AnisotropicKernel,
                   cfg: FunctionalConfig, t: float, want=("D",)) -> dict:
    """Single-time convenience wrapper around :func:`pair_integrals_multi`."""
    return pair_integrals_multi(flow_x, flow_y, field, kernel, cfg, [t], want)[
        float(t)
    ]


def discrepancy_D(flow_x, flow_y, field, kernel, cfg: FunctionalConfig,
                  t: float) -> float:
    """D(t) (see module docstring)."""
    return pair_integrals(flow_x, flow_y, field, kernel, cfg, t, want=("D",))["D"]


def I1(flow_x, flow_y, field, kernel, cfg: FunctionalConfig, t: float) -> float:
    """The transformed term through d1 rho; identically zero for a
    constant kernel direction."""
    return pair_integrals(flow_x, flow_y, field, kernel, cfg, t, want=("I1",))["I1"]


def I2(flow_x, flow_y, field, kernel, cfg: FunctionalConfig, t: float) -> float:
    """The transformed term through d2 rho and the difference quotient."""
    return pair_integrals(flow_x, flow_y, field, kernel, cfg, t, want=("I2",))["I2"]


def _central_difference(vals, t, h, key="D"):
    """(v(t + h) - v(t - h)) / (2 h) from a {time: {key: value}} table."""
    return (vals[t + h][key] - vals[t - h][key]) / (2.0 * h)


def I_eps_fd(flow_x, flow_y, field, kernel, cfg: FunctionalConfig,
             t: float) -> float:
    """Central difference (D(t+dt) - D(t-dt)) / (2 dt)."""
    d = pair_integrals_multi(
        flow_x, flow_y, field, kernel, cfg, [t - cfg.dt_fd, t + cfg.dt_fd],
        want=("D",),
    )
    return _central_difference(d, t, cfg.dt_fd)


def decomposition_check(flow_x, flow_y, field, kernel, cfg: FunctionalConfig,
                        t: float) -> dict:
    """Cross-check I_eps_fd against I1 + I2 with an explicit error budget.

    Returns a dict with the values, the gap |I_fd - (I1 + I2)|, and the
    reported combined error bound, assembled from

    * quadrature: Richardson-style |value(n) - value(n/2)| for I1, I2
      and for I_fd itself (comparing the finite difference across the
      two resolutions cancels the systematic part of D's quadrature
      error, which a bound through D alone would overstate by 1/dt),
    * differencing: |I_fd(dt) - I_fd(2 dt)|,
    * interpolation: measured worst-case flow-map errors propagated
      through first-order sensitivities (MASS and the |integrand|
      masses), amplified by 1/dt where they enter the difference.

    The full-resolution sweep asks for D at t +- dt and t +- 2 dt and
    for D, I1, I2, MASS, I1_ABS and I2_ABS at t; the half-resolution
    sweep runs over t - dt, t and t + dt only, for D at t +- dt and I1
    and I2 at t.
    """
    dt = cfg.dt_fd

    def sweep(c, times, keys_at_t):
        want = dict.fromkeys(times, ("D",))
        want[t] = keys_at_t
        return pair_integrals_multi(flow_x, flow_y, field, kernel, c, times, want)

    full = sweep(cfg, [t - 2 * dt, t - dt, t, t + dt, t + 2 * dt],
                 ("D", "I1", "I2", "MASS", "I1_ABS", "I2_ABS"))
    at_t = full[t]
    i_fd = _central_difference(full, t, dt)
    i_fd2 = _central_difference(full, t, 2 * dt)
    cfg_half = replace(cfg, n_x=max(8, cfg.n_x // 2), n_z=max(8, cfg.n_z // 2))
    half = sweep(cfg_half, [t - dt, t, t + dt], ("I1", "I2"))
    at_t_half = half[t]
    i_fd_half = _central_difference(half, t, dt)

    fd_err = abs(i_fd - i_fd2)
    quad_err = (
        abs(at_t["I1"] - at_t_half["I1"])
        + abs(at_t["I2"] - at_t_half["I2"])
        + abs(i_fd - i_fd_half)
    )

    pos_x, lj_x = flow_x.interpolation_error(t)
    pos_y, lj_y = flow_y.interpolation_error(t)
    pos_err, lj_err = pos_x + pos_y, lj_x + lj_y
    interp_d = at_t["MASS"] * pos_err + abs(at_t["D"]) * lj_err
    interp = (
        interp_d / dt
        + pos_err * (at_t["I1_ABS"] + at_t["I2_ABS"])
        + lj_err * (abs(at_t["I1"]) + abs(at_t["I2"]))
    )

    bound = 2.0 * (quad_err + fd_err) + interp + 1e-9
    gap = abs(i_fd - (at_t["I1"] + at_t["I2"]))
    return {
        "I_eps_fd": i_fd,
        "I1": at_t["I1"],
        "I2": at_t["I2"],
        "D": at_t["D"],
        "gap": gap,
        "bound": bound,
        "quad_err": quad_err,
        "fd_err": fd_err,
        "interp_err": interp,
    }


# ---------------------------------------------------------------------------
# pointwise kernel identities and the singular-part bound
# ---------------------------------------------------------------------------


def R_a_check(field: PiecewiseField, kernel: AnisotropicKernel, x,
              n_z: int = 200):
    """Residual of the integration-by-parts identity

        int <d2 rho(x, z), grad_a b(x) z> dz  =  - div_a b(x).

    The identity holds for every admissible kernel, isotropic or not;
    the return value is the left side plus div_a b(x): a float for one
    point x (2,), an (M,) array for M points (M, 2).  With a constant
    kernel direction the polar z-grid and its d2 rho are built once for
    all points; otherwise each point takes its own.
    """
    pts = np.asarray(x, dtype=float)
    single = pts.ndim == 1
    pts = pts.reshape(-1, 2)
    shared = _polar_z_grid(kernel, None, n_z) if kernel.eta.is_constant else None
    out = np.empty(pts.shape[0])
    for m, pt in enumerate(pts):
        a = field.grad_a(pt)
        z_pts, z_wts, d2 = shared if shared is not None else _polar_z_grid(kernel, pt, n_z)
        integrand = np.einsum("qi,ij,qj->q", d2, a, z_pts)
        out[m] = np.sum(integrand * z_wts) + np.trace(a)
    return float(out[0]) if single else out


def singular_bound(field: PiecewiseField, kernel: AnisotropicKernel,
                   n_z: int = 128) -> float:
    """The computable majorant of the singular contribution to I2 at
    density bound C(t) = 1:

        2 int_Sigma [ int |<d2 rho(x, z), xi_b>| |<eta_b, z>| dz ]
                    sigma(x) dH(x);

    a report row scales it by C(t)^2.

    With the kernel direction equal to the jump normal this decays
    exactly like 1/(1+gamma) (the w = U z substitution).  The z-integral
    is the ``polar`` rule of :meth:`AnisotropicKernel.z_quadrature`
    (n_z Gauss-Legendre radii times 2 n_z midpoint angles in w), and on
    that chart its integrand factorizes: with w = r omega,
    d2 rho dz = 2 F0'(r^2) r U omega r dr dtheta and z = r U^{-1} omega,
    so the summand is

        2 |F0'(r^2)| r^3 |<omega, U xi_b>| |<omega, U^{-1} eta_b>|,

    and the rule's sum over its nodes is a radial sum times an angular
    sum over the same nodes.  The surface integral collapses to one
    z-integral per component when the kernel direction is constant;
    otherwise each component takes 64 surface nodes, each with its own U,
    and one (angles, nodes) product serves them all.
    """
    if not field.jumps:
        return 0.0
    r, rw, theta = polar_axes(n_z)
    radial = float(np.sum(np.abs(kernel.profile.f0_prime(r * r, kernel.dim)) * r * r * rw))
    m = theta.size
    omega = np.stack([np.cos(theta), np.sin(theta)], axis=-1)  # (m, 2)
    constant = kernel.eta.is_constant
    n_nodes = 1 if constant else 64
    total = 0.0
    for jump in field.jumps:
        u, u_inv, _ = kernel.u_matrix(None if constant else jump.nodes(n_nodes))
        # <U omega, xi_b> = <omega, U xi_b>, as U is symmetric; (M, 2) each
        u_xi = u @ np.asarray(jump.xi, dtype=float)
        u_inv_eta = u_inv @ np.asarray(jump.eta, dtype=float)
        angular = np.abs(omega @ u_xi.T) * np.abs(omega @ u_inv_eta.T)  # (m, M)
        total += float(np.sum(angular)) * jump.sigma * jump.length / n_nodes
    # the majorant's factor 2 times the summand's 2
    return 4.0 * radial * (2.0 * np.pi / m) * total


def _polar_z_grid(kernel, x, n_z):
    """Polar z-grid at the point x (None when the kernel direction is
    constant, so the grid is the same at every x) and the values of
    d2 rho on it: (z_pts, z_wts, d2)."""
    if x is not None:
        x = x.reshape(1, 2)
    z_pts, z_wts = kernel.z_quadrature(x, n_z, rule="polar")
    return z_pts, z_wts, kernel.d2_rho(x, z_pts)


def profile_derivative_mass(kernel: AnisotropicKernel) -> float:
    """K(F0) = int |F0'(|w|^2)| |w|^2 dw  (radial, 400-node Gauss in r)."""
    gl_x, gl_w = gauss_legendre(400)
    r = 0.5 * (gl_x + 1.0)
    w = 0.5 * gl_w
    vals = np.abs(kernel.profile.f0_prime(r * r, kernel.dim)) * r**3
    return float(2.0 * np.pi * np.sum(vals * w))


def singular_bound_envelope(field: PiecewiseField, kernel: AnisotropicKernel,
                            misalignment: float) -> float:
    """Explicit-constant right-hand side of the misalignment bound at
    density bound C(t) = 1:

        2 K(F0) (1/(1+gamma) + 2 d + gamma d^2) |D^s b|,

    with d the pointwise |eta - eta_b| on the jump set and K(F0) the
    derivative mass of the profile.  Every step in its derivation is a
    true pointwise inequality, so the computed :func:`singular_bound`
    must sit below it.
    """
    d = float(misalignment)
    k_f0 = profile_derivative_mass(kernel)
    gamma = kernel.gamma
    envelope = 1.0 / (1.0 + gamma) + 2.0 * d + gamma * d * d
    return 2.0 * k_f0 * envelope * cat.total_jump_mass(field)


def gamma_eta_tradeoff(field: PiecewiseField, gammas, deltas) -> dict:
    """Tabulate the normalized envelope e(gamma, d) = 1/(1+gamma)
    + (1+2 gamma) d over the grid, in units of C(F0) |D^s b|.

    ``deltas`` are the dialed values of the mass-normalized misalignment
    int |eta - eta_b| d|D^s b| / |D^s b|.  Reports the grid, the
    minimizing entry, and the diagonal gamma_k = k, d_k = k^-2 that
    drives the envelope to zero (gamma first, then eta: the order the
    two limits must be taken in).
    """
    gammas = np.asarray(list(gammas), dtype=float)
    deltas = np.asarray(list(deltas), dtype=float)
    env = 1.0 / (1.0 + gammas)[:, None] + (1.0 + 2.0 * gammas)[:, None] * deltas[None, :]
    k = np.arange(1, 101)
    diag = 1.0 / (1.0 + k) + (1.0 + 2.0 * k) / k**2
    i, j = np.unravel_index(np.argmin(env), env.shape)
    return {
        "field_id": field.id,
        "gammas": gammas,
        "deltas": deltas,
        "envelope": env,
        "best": (float(gammas[i]), float(deltas[j]), float(env[i, j])),
        "diagonal_k": k,
        "diagonal": diag,
    }


@dataclass(frozen=True)
class TraceIdentityResult:
    lower_margin: float  # min over the family of (integral - |tr M|)
    infimum: float  # smallest integral over the family
    gap: float  # infimum - |tr M|
    best_gamma: float
    best_eta_angle: float


def trace_identity(m_matrix, profile, gammas=(0.0, 1.0, 3.0, 10.0, 30.0, 100.0),
                   eta_angles=None, n_z: int = 160) -> TraceIdentityResult:
    """Check  int |<M z, grad rho(z)>| dz >= |tr M|  over a kernel family
    and report the achieved infimum.

    Integration by parts gives int <M z, grad rho> dz = -tr M for every
    mass-one kernel, so the lower bound is structural; a positive-weight
    quadrature inherits it up to the (spectrally small) error on the
    smooth signed integrand.  The infimum over the family quantifies how
    much anisotropy can suppress the trace-free part.
    """
    from .kernels import DirectionField

    m = np.asarray(m_matrix, dtype=float)
    tr = abs(float(np.trace(m)))
    if eta_angles is None:
        eta_angles = np.linspace(0.0, np.pi, 7)[:-1]
    best = (np.inf, 0.0, 0.0)
    margin = np.inf
    for gamma in gammas:
        for ang in np.atleast_1d(eta_angles):
            eta = DirectionField.constant((np.cos(ang), np.sin(ang)))
            kern = AnisotropicKernel(profile, eta, float(gamma))
            z_pts, z_wts, grad = _polar_z_grid(kern, None, n_z)
            vals = np.abs(np.einsum("qi,qi->q", z_pts @ m.T, grad))
            integral = float(np.sum(vals * z_wts))
            margin = min(margin, integral - tr)
            if integral < best[0]:
                best = (integral, float(gamma), float(ang))
    return TraceIdentityResult(
        lower_margin=margin,
        infimum=best[0],
        gap=best[0] - tr,
        best_gamma=best[1],
        best_eta_angle=best[2],
    )


# ---------------------------------------------------------------------------
# the uniqueness pipeline
# ---------------------------------------------------------------------------


@dataclass
class DiscrepancyReport:
    """One row of the discrepancy pipeline at a fixed (field, eps, gamma, t)."""

    field_id: str
    epsilon: float
    gamma: float
    t: float
    D: float
    I_eps_fd: float
    I1: float
    I2: float
    I2_a_limit: float
    singular_bound: float
    eqfin_residual: float
    n_x: int
    n_z: int

    CSV_COLUMNS = (
        "field_id", "epsilon", "gamma", "t", "D", "I_eps_fd", "I1", "I2",
        "I2_a_limit", "singular_bound", "eqfin_residual", "n_x", "n_z",
    )

    def csv_row(self) -> str:
        vals = []
        for c in self.CSV_COLUMNS:
            v = getattr(self, c)
            vals.append(v if isinstance(v, str) else f"{v:.17g}")
        return ",".join(str(v) for v in vals)


def _l1_integrals(flow_x, flow_y, field, times, n_x) -> dict:
    """The weighted L^1 separation on one adapted x-grid at several times.

    Returns {t: {key: value}} with keys

    L        int |X_t - Y_t| mu1 mu2 dx
    DIV      int |X_t - Y_t| div b mu1 mu2 dx
    C        max(sup mu1, sup mu2) over the grid
    DIV_SUP  sup |div b| over the grid (the same at every time)

    The grid is :func:`bvflow.catalog.volume_quadrature` at ``n_x``, with
    one tangential node when the integrands are tangent-invariant
    (:func:`_tangent_invariant`).  The grid and div b are built once;
    repeated times are evaluated once.
    The grid is one batch on each map (one on both when they are the same
    map) over all the times, so each map's point state is built once.
    """
    if _tangent_invariant(field):
        n_x = 1
    pts, wts = volume_quadrature(field, n_x)
    div = field.divergence_many(pts)
    div_sup = float(np.abs(div).max())
    times = list(dict.fromkeys(float(t) for t in times))
    flow_x.begin_batch(pts, times)
    if flow_y is not flow_x:
        flow_y.begin_batch(pts, times)
    out = {}
    for t in times:
        dist = torus_distance(flow_x.position(t, pts), flow_y.position(t, pts))
        mu1 = flow_x.density(t, pts)
        mu2 = flow_y.density(t, pts)
        out[t] = {
            "L": float(np.sum(dist * mu1 * mu2 * wts)),
            "DIV": float(np.sum(dist * div * mu1 * mu2 * wts)),
            "C": max(float(mu1.max()), float(mu2.max())),
            "DIV_SUP": div_sup,
        }
    flow_x.end_batch()
    flow_y.end_batch()
    return out


def _eqfin(l1, t, dt) -> float:
    """|d/dt L(t) + DIV(t)| from :func:`_l1_integrals` at t and t +- dt."""
    return abs(_central_difference(l1, t, dt, "L") + l1[t]["DIV"])


def eqfin_residual(flow_x, flow_y, field, t, n_x=128, dt=1e-3) -> float:
    """|d/dt L(t) + int |X-Y| div b mu1 mu2 dx| with L the weighted
    L^1 separation; the derivative is a central difference."""
    t = float(t)
    return _eqfin(_l1_integrals(flow_x, flow_y, field, [t - dt, t, t + dt], n_x), t, dt)


def discrepancy_report(flow_x, flow_y, field, kernel, cfg: FunctionalConfig,
                       t: float, singular_unit: float | None = None) -> DiscrepancyReport:
    """Assemble one report row (all functional values at one time).

    One pair sweep over {t - dt, t, t + dt}, asking for D, I1 and I2 at
    t and for D alone at t +- dt, gives the row's D, I1 and I2 and the
    central difference of D; one L^1 grid evaluated at the same three
    times gives the eqfin residual, the I2 limit and the density bound
    C(t) of the singular majorant.  The majorant is C(t)^2 times its
    C(t) = 1 value, ``singular_unit``, computed here unless given.
    """
    t, dt = float(t), cfg.dt_fd
    times = [t - dt, t, t + dt]
    parts = pair_integrals_multi(flow_x, flow_y, field, kernel, cfg, times,
                                 want={t - dt: ("D",), t: ("D", "I1", "I2"),
                                       t + dt: ("D",)})
    l1 = _l1_integrals(flow_x, flow_y, field, times, cfg.n_x)
    if singular_unit is None:
        singular_unit = singular_bound(field, kernel)
    return DiscrepancyReport(
        field_id=field.id,
        epsilon=cfg.epsilon,
        gamma=kernel.gamma,
        t=t,
        D=parts[t]["D"],
        I_eps_fd=_central_difference(parts, t, dt),
        I1=parts[t]["I1"],
        I2=parts[t]["I2"],
        I2_a_limit=l1[t]["DIV"],
        singular_bound=l1[t]["C"] ** 2 * singular_unit,
        eqfin_residual=_eqfin(l1, t, dt),
        n_x=cfg.n_x,
        n_z=cfg.n_z,
    )


@dataclass
class UniquenessReport:
    """Gronwall bookkeeping for a pair of flows of one field."""

    field_id: str
    times: np.ndarray
    l_values: np.ndarray
    residuals: np.ndarray
    c_measured: float
    div_sup: float
    gronwall_rhs: float
    final_discrepancy: float
    verdict: str
    branch_discrepancy: float = float("nan")


def uniqueness_report(field, flow_x, flow_y, kernel, cfg: FunctionalConfig,
                      T: float, n_times: int = 6) -> UniquenessReport:
    """Run the Gronwall pipeline on two flows over [0, T]; the verdict is
    UNIQUE when the final L^1 discrepancy is at most 1e-5.

    Every sampled time t and the times t_fd, t_fd +- dt of its eqfin
    residual (t_fd = max(t, dt)) are evaluated on one L^1 grid batch.

    For fields whose jump data violates <xi_b, eta_b> = 0 (divergence
    not in L^1) the verdict is declined: the report carries the detected
    violation and the constructed two-branch backward discrepancy
    instead of a Gronwall bound.
    """
    if field.singular_divergence_violation() > 1e-9:
        grid = torus_grid(256)
        t_branch = 0.3
        z_l, z_r = collision_branch_maps(grid, t_branch)
        branch = float(np.mean(torus_distance(z_l, z_r)))
        return UniquenessReport(
            field_id=field.id,
            times=np.array([t_branch]),
            l_values=np.array([branch]),
            residuals=np.array([float("nan")]),
            c_measured=float("nan"),
            div_sup=float("nan"),
            gronwall_rhs=float("nan"),
            final_discrepancy=branch,
            verdict="HYPOTHESES-VIOLATED",
            branch_discrepancy=branch,
        )

    times = np.linspace(0.0, T, n_times)
    dt = cfg.dt_fd
    t_fds = [max(float(t), dt) for t in times]  # one-sided shift at t = 0
    l1 = _l1_integrals(
        flow_x, flow_y, field,
        [s for t, t_fd in zip(times, t_fds) for s in (t, t_fd - dt, t_fd, t_fd + dt)],
        cfg.n_x,
    )
    sampled = [l1[float(t)] for t in times]
    l_values = np.array([v["L"] for v in sampled])
    residuals = np.array([_eqfin(l1, t_fd, dt) for t_fd in t_fds])
    c_meas = max(v["C"] for v in sampled)
    div_sup = max(v["DIV_SUP"] for v in sampled)
    accumulated = float(np.trapezoid(residuals, times))
    gronwall_rhs = float(np.exp(div_sup * T) * (l_values[0] + accumulated))
    final = float(l_values[-1])
    verdict = "UNIQUE" if final <= 1e-5 else "INCONCLUSIVE"
    return UniquenessReport(
        field_id=field.id,
        times=times,
        l_values=l_values,
        residuals=residuals,
        c_measured=c_meas,
        div_sup=div_sup,
        gronwall_rhs=gronwall_rhs,
        final_discrepancy=final,
        verdict=verdict,
    )
