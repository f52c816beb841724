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

Quadrature layout.  z-integrals always run over the image of a tensor
grid on the unit box under U^{-1} (the w = U z substitution), so the
squeezed support stays resolved at any gamma.  Every x-grid comes from
:func:`bvflow.catalog.volume_quadrature`: the uniform torus grid for
smooth fields; for strip fields the field frame (tangential uniform x
normal Gauss-Legendre panels) with the panels split both at the jump
surfaces and at their eps<n, z>-shifted copies, so every x-integrand is
smooth on every panel and the quadrature carries no jump-boundary error.
z-nodes sharing the same shift are processed as one block against one
x-grid (a smooth field has a single block); the cell-centered w-grid
makes those groups large for every catalog field.  The x-side flow
factors (displacement and density of the first flow) are evaluated once
per x point set and time, and shared by every z block paired with that
set.  Gauss-Legendre
rules come from :func:`bvflow.torus.gauss_legendre`, built once per
order.

A report row (:func:`discrepancy_report`) is one pair sweep over the
times {t - dt, t, t + dt}, which yields D, I1 and I2 at t and the
central difference of D, plus one L^1 grid (the field-adapted
:func:`bvflow.catalog.volume_quadrature`) evaluated at the same three
times for the eqfin residual, the I2 limit and C(t).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import catalog as cat
from .catalog import PiecewiseField, volume_quadrature
from .flow import collision_branch_maps
from .kernels import AnisotropicKernel
from .torus import QuadratureGrid, gauss_legendre, torus_distance, wrap_half

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
]


@dataclass(frozen=True)
class FunctionalConfig:
    """Quadrature and differencing parameters for the functionals."""

    epsilon: float
    n_x: int = 64
    n_z: int = 64
    n_theta: int = 8
    dt_fd: float = 1e-3
    nodes_per_panel: int = 8

    def __post_init__(self):
        if not 0.0 < self.epsilon < 0.5:
            raise ValueError(
                "epsilon must lie in (0, 1/2) so the scaled kernel support "
                "fits the torus"
            )
        if self.dt_fd <= 0:
            raise ValueError("dt_fd must be positive")


# ---------------------------------------------------------------------------
# the (x, z) pair quadrature engine
# ---------------------------------------------------------------------------

def _z_shift_groups(field: PiecewiseField, z_pts, eps):
    """Group z-node indices by the level shift eps <n, z> (rounded).

    A smooth field has no level coordinate: one group holds every z.
    """
    if field.strip_normal is None:
        return [(0.0, np.arange(z_pts.shape[0]))]
    n = np.asarray(field.strip_normal, dtype=float)
    shifts = eps * (z_pts @ n)
    keys = np.round(shifts, 13)
    uniq, inverse = np.unique(keys, return_inverse=True)
    return [(float(uniq[g]), np.nonzero(inverse == g)[0]) for g in range(uniq.size)]


def pair_integrals_multi(flow_x, flow_y, field: PiecewiseField,
                         kernel: AnisotropicKernel, cfg: FunctionalConfig,
                         times, want=("D",)) -> dict:
    """Evaluate the selected pair integrals at several times in one sweep.

    The kernel factors and the b-difference quotient are independent of
    t, so they are computed once per (x, z) block and reused for every
    requested time; only the flow separation and the densities are
    re-evaluated.  Returns {t: {key: value}} with keys from:

    D       kernel-weighted separation (see module docstring)
    I1      transformed term through the x-derivative of the kernel
    I2      transformed term through the z-derivative and the difference
            quotient of b
    I2a     as I2 but with the quotient replaced by the theta-averaged
            absolutely continuous derivative (Gauss-Legendre in theta)
    MASS    int int rho mu1 mu2 (used in error propagation)
    I1_ABS / I2_ABS   same integrands against |integrand| (error budget)
    """
    eps = cfg.epsilon
    want = tuple(want)
    times = [float(t) for t in times]
    flow_x.prepare(times)
    if flow_y is not flow_x:
        flow_y.prepare(times)
    z_pts, z_wts = kernel.z_quadrature(None, cfg.n_z, rule="midpoint")
    totals = {t: {k: 0.0 for k in want} for t in times}

    if "I2a" in want:
        gl_t, gl_w = gauss_legendre(cfg.n_theta)
        theta_nodes = 0.5 * (gl_t + 1.0)
        theta_wts = 0.5 * gl_w
    else:
        theta_nodes = theta_wts = None

    def x_factors(x_pts):
        """flow_x's displacement and density at x_pts for every time,
        shared by all z-chunks paired with this x point set."""
        flow_x.begin_batch(x_pts)
        out = {t: (flow_x.displacement(t, x_pts), flow_x.density(t, x_pts))
               for t in times}
        flow_x.end_batch()
        return out

    def accumulate(x_pts, x_wts, x_side, z_chunk, zw_chunk):
        """x_pts (P,2) paired against every z in the chunk (Q,2)."""
        p, q = x_pts.shape[0], z_chunk.shape[0]
        y_pts = (x_pts[None, :, :] + eps * z_chunk[:, None, :]).reshape(-1, 2)
        # time-independent factors
        g1 = None
        if kernel.eta.is_constant:
            rho = kernel.rho(None, z_chunk)[:, None]  # (q,1)
            d2 = np.broadcast_to(
                kernel.d2_rho(None, z_chunk)[:, None, :], (q, p, 2)
            )
        else:
            x_tile = np.broadcast_to(x_pts, (q, p, 2)).reshape(-1, 2)
            z_tile = np.repeat(z_chunk, p, axis=0)
            rho = kernel.rho(x_tile, z_tile).reshape(q, p)
            d2 = kernel.d2_rho(x_tile, z_tile).reshape(q, p, 2)
            if "I1" in want or "I1_ABS" in want:
                d1 = kernel.d1_rho(x_tile, z_tile).reshape(q, p, 2)
                bx0 = field.eval_many(x_pts)
                g1 = -np.einsum("qpi,pi->qp", d1, bx0)
        g2 = None
        if "I2" in want or "I2_ABS" in want:
            bx = field.eval_many(x_pts)
            by = field.eval_many(y_pts).reshape(q, p, 2)
            quot = (by - bx[None, :, :]) / eps
            g2 = -np.einsum("qpi,qpi->qp", d2, quot)
        g2a = None
        if "I2a" in want:
            davg = np.zeros((q, p, 2, 2))
            for tn, tw in zip(theta_nodes, theta_wts):
                pts_theta = (
                    x_pts[None, :, :] + (eps * tn) * z_chunk[:, None, :]
                ).reshape(-1, 2)
                davg += tw * field.jacobian_many(pts_theta).reshape(q, p, 2, 2)
            dbz = np.einsum("qpij,qj->qpi", davg, z_chunk)
            g2a = -np.einsum("qpi,qpi->qp", d2, dbz)

        base = zw_chunk[:, None] * x_wts[None, :]  # (q,P)
        flow_y.begin_batch(y_pts)
        for t in times:
            dx, mu1 = x_side[t]  # (P,2), (P,)
            dy = flow_y.displacement(t, y_pts).reshape(q, p, 2)
            sep = dx[None, :, :] - eps * z_chunk[:, None, :] - dy
            dist = np.linalg.norm(wrap_half(sep), axis=-1)  # (q,P)
            mu2 = flow_y.density(t, y_pts).reshape(q, p)
            ww = base * mu1[None, :] * mu2
            tot = totals[t]
            if "D" in want:
                tot["D"] += float(np.sum(dist * rho * ww))
            if "MASS" in want:
                tot["MASS"] += float(np.sum(rho * ww))
            if "I1" in want and g1 is not None:
                tot["I1"] += float(np.sum(dist * g1 * ww))
            if "I1_ABS" in want and g1 is not None:
                tot["I1_ABS"] += float(np.sum(np.abs(g1) * ww))
            if "I2" in want:
                tot["I2"] += float(np.sum(dist * g2 * ww))
            if "I2_ABS" in want:
                tot["I2_ABS"] += float(np.sum(np.abs(g2) * ww))
            if "I2a" in want:
                tot["I2a"] += float(np.sum(dist * g2a * ww))
        flow_y.end_batch()

    for shift, idx in _z_shift_groups(field, z_pts, eps):
        x_pts, x_wts = volume_quadrature(
            field, cfg.n_x, cfg.nodes_per_panel,
            extra_breakpoints=[b - shift for b in field.strip_bounds],
        )
        x_side = x_factors(x_pts)
        chunk = max(1, int(2.0e6 // x_pts.shape[0]))
        for lo in range(0, idx.size, chunk):
            sel = idx[lo : lo + chunk]
            accumulate(x_pts, x_wts, x_side, z_pts[sel], z_wts[sel])
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
    """
    dt = cfg.dt_fd
    all_times = [t - 2 * dt, t - dt, t, t + dt, t + 2 * dt]

    def fd_and_terms(c):
        vals = pair_integrals_multi(
            flow_x, flow_y, field, kernel, c, all_times,
            want=("D", "I1", "I2", "MASS", "I1_ABS", "I2_ABS"),
        )
        return (vals[t], _central_difference(vals, t, dt),
                _central_difference(vals, t, 2 * dt))

    at_t, i_fd, i_fd2 = fd_and_terms(cfg)
    cfg_half = replace(cfg, n_x=max(8, cfg.n_x // 2), n_z=max(8, cfg.n_z // 2))
    at_t_half, i_fd_half, _ = fd_and_terms(cfg_half)

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
              n_z: int = 200) -> float:
    """Residual of the integration-by-parts identity

        int <d2 rho(x, z), grad_a b(x) z> dz  =  - div_a b(x).

    The identity holds for every admissible kernel, isotropic or not;
    the return value is the left side plus div_a b(x).
    """
    x = np.asarray(x, dtype=float).reshape(1, 2)
    a = field.grad_a(x[0])
    z_pts, z_wts, d2 = _polar_z_grid(
        kernel, None if kernel.eta.is_constant else x[0], n_z
    )
    integrand = np.einsum("qi,ij,qj->q", d2, a, z_pts)
    return float(np.sum(integrand * z_wts) + np.trace(a))


def singular_bound(field: PiecewiseField, kernel: AnisotropicKernel,
                   c_t: float = 1.0, n_surface: int = 64,
                   n_z: int = 128) -> float:
    """The computable majorant of the singular contribution to I2:

        2 C(t)^2 int_Sigma [ int |<d2 rho(x, z), xi_b>| |<eta_b, z>| dz ]
                            sigma(x) dH(x).

    With the kernel direction equal to the jump normal this decays
    exactly like 1/(1+gamma) (the w = U z substitution).  The surface
    integral collapses to one z-integral per component when the kernel
    direction is constant; that z-grid and its d2 rho are then built once
    for all components.
    """
    if not field.jumps:
        return 0.0
    constant = kernel.eta.is_constant
    m = 1 if constant else n_surface
    shared = _polar_z_grid(kernel, None, n_z) if constant else None
    total = 0.0
    for jump in field.jumps:
        xi = np.asarray(jump.xi, dtype=float)
        eta_b = np.asarray(jump.eta, dtype=float)
        k_vals = np.array([
            _singular_z_integral(
                shared if constant else _polar_z_grid(kernel, p, n_z), xi, eta_b
            )
            for p in jump.nodes(m)
        ])
        total += float(np.sum(k_vals)) * jump.sigma * jump.length / m
    return 2.0 * c_t**2 * total


def _polar_z_grid(kernel, x, n_z):
    """Polar z-grid at the point x (None when the kernel direction is
    constant, so the grid is the same at every x) and the values of
    d2 rho on it: (z_pts, z_wts, d2)."""
    if x is None:
        z_pts, z_wts = kernel.z_quadrature(None, n_z, rule="polar")
        return z_pts, z_wts, kernel.d2_rho(None, z_pts)
    z_pts, z_wts = kernel.z_quadrature(x.reshape(1, 2), n_z, rule="polar")
    return z_pts, z_wts, kernel.d2_rho(np.broadcast_to(x, (z_pts.shape[0], 2)), z_pts)


def _singular_z_integral(grid, xi, eta_b):
    z_pts, z_wts, d2 = grid
    vals = np.abs(d2 @ xi) * np.abs(z_pts @ eta_b)
    return float(np.sum(vals * z_wts))


def profile_derivative_mass(kernel: AnisotropicKernel, n: int = 400) -> float:
    """K(F0) = int |F0'(|w|^2)| |w|^2 dw  (radial, quadrature in r)."""
    gl_x, gl_w = gauss_legendre(n)
    r = 0.5 * (gl_x + 1.0)
    w = 0.5 * gl_w
    vals = np.abs(kernel.profile.f0_prime(r * r, kernel.dim)) * r**3
    return float(2.0 * np.pi * np.sum(vals * w))


def singular_bound_envelope(field: PiecewiseField, kernel: AnisotropicKernel,
                            misalignment: float, c_t: float = 1.0) -> float:
    """Explicit-constant right-hand side of the misalignment bound:

        2 C(t)^2 K(F0) (1/(1+gamma) + 2 d + gamma d^2) |D^s b|,

    with d the pointwise |eta - eta_b| on the jump set and K(F0) the
    derivative mass of the profile.  Every step in its derivation is a
    true pointwise inequality, so the computed :func:`singular_bound`
    must sit below it.
    """
    d = float(misalignment)
    k_f0 = profile_derivative_mass(kernel)
    gamma = kernel.gamma
    envelope = 1.0 / (1.0 + gamma) + 2.0 * d + gamma * d * d
    return 2.0 * c_t**2 * k_f0 * envelope * cat.total_jump_mass(field)


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

    The grid and div b are built once; repeated times are evaluated once.
    """
    pts, wts = volume_quadrature(field, n_x)
    div = field.divergence_many(pts)
    div_sup = float(np.abs(div).max())
    out = {}
    for t in dict.fromkeys(float(t) for t in times):
        dist = torus_distance(flow_x.position(t, pts), flow_y.position(t, pts))
        mu1 = flow_x.density(t, pts)
        mu2 = flow_y.density(t, pts)
        out[t] = {
            "L": float(np.sum(dist * mu1 * mu2 * wts)),
            "DIV": float(np.sum(dist * div * mu1 * mu2 * wts)),
            "C": max(float(mu1.max()), float(mu2.max())),
            "DIV_SUP": div_sup,
        }
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

    One pair sweep over {t - dt, t, t + dt} gives D, I1 and I2 at t and
    the central difference of D; one L^1 grid evaluated at the same three
    times gives the eqfin residual, the I2 limit and the density bound
    C(t) of the singular majorant.  The majorant is C(t)^2 times its
    C(t) = 1 value, ``singular_unit``, computed here unless given.
    """
    t, dt = float(t), cfg.dt_fd
    times = [t - dt, t, t + dt]
    parts = pair_integrals_multi(flow_x, flow_y, field, kernel, cfg, times,
                                 want=("D", "I1", "I2"))
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
    row: DiscrepancyReport | None = None


def uniqueness_report(field, flow_x, flow_y, kernel, cfg: FunctionalConfig,
                      T: float, n_times: int = 6, tol: float = 1e-5,
                      with_row: bool = False) -> UniquenessReport:
    """Run the Gronwall pipeline on two flows over [0, T].

    For fields whose jump data violates <xi_b, eta_b> = 0 (divergence
    not in L^1) the verdict is declined: the report carries the detected
    violation and the constructed two-branch backward discrepancy
    instead of a Gronwall bound.
    """
    if field.singular_divergence_violation() > 1e-9:
        grid = QuadratureGrid.torus(256).nodes
        t_branch = min(0.3, 0.49)
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
    l_values = np.empty(n_times)
    residuals = np.empty(n_times)
    c_meas = 0.0
    div_sup = 0.0
    dt = cfg.dt_fd
    for k, t in enumerate(times):
        t = float(t)
        t_fd = max(t, dt)  # one-sided shift at t = 0
        l1 = _l1_integrals(flow_x, flow_y, field, [t, t_fd - dt, t_fd, t_fd + dt],
                           cfg.n_x)
        l_values[k] = l1[t]["L"]
        c_meas = max(c_meas, l1[t]["C"])
        div_sup = max(div_sup, l1[t]["DIV_SUP"])
        residuals[k] = _eqfin(l1, t_fd, dt)
    accumulated = float(np.trapezoid(residuals, times))
    gronwall_rhs = float(np.exp(div_sup * T) * (l_values[0] + accumulated))
    final = float(l_values[-1])
    verdict = "UNIQUE" if final <= tol else "INCONCLUSIVE"
    row = None
    if with_row:
        row = discrepancy_report(flow_x, flow_y, field, kernel, cfg, T / 2.0)
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
        row=row,
    )
