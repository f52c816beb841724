"""One function per checked invariant: the ``bvflow check`` battery and
the acceptance criteria call the same bodies.

Each gate is ``gate(full=False) -> InvariantResult``.  A gate owns its
seed, its sizes, its threshold and its detail line.  The fast size is
the one ``bvflow check`` runs; the full size is the one the acceptance
criterion in ``tests/test_acceptance.py`` asserts on (``check --full``
runs it too).  Where the two sizes differ, the fast one only shrinks
counts and grids.  Gates without an acceptance criterion have one size.

Every gate seeds its own generator: with an acceptance criterion, that
criterion's seed (101-110); otherwise :data:`BATTERY_SEED`.  Adding or
reordering a gate therefore moves no other gate's samples.
:data:`GATES` lists the gates in the order ``bvflow check`` prints them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import catalog as cat
from . import flow as flow_mod
from . import functionals as fn
from .experiments import fit_rate
from .kernels import PROFILES, AnisotropicKernel, DirectionField, poly_bump, smooth_exp
from .torus import QuadratureGrid, integrate, min_image_coords, torus_distance, wrap_coords

__all__ = ["InvariantResult", "GATES", "BATTERY_SEED", "aligned_gauss_box"]

BATTERY_SEED = 20240831
ETA_X = DirectionField.constant((1.0, 0.0))


@dataclass
class InvariantResult:
    """One gate's verdict.  ``worst`` is the measured value the threshold
    is applied to, at its worst over the gate's samples."""

    name: str
    passed: bool
    detail: str
    worst: float


def _gate(layer):
    """Make ``body(full) -> (passed, detail, worst)`` a gate named
    ``<layer>.<body name>``."""

    def wrap(body):
        name = f"{layer}.{body.__name__}"

        @functools.wraps(body)
        def gate(full: bool = False) -> InvariantResult:
            passed, detail, worst = body(full)
            return InvariantResult(name, bool(passed), detail, float(worst))

        return gate

    return wrap


def aligned_gauss_box(eta, gamma, n):
    """z-quadrature over supp rho for a direction eta (2,): the tensor
    Gauss-Legendre rule on [-1, 1]^2 in the stretched frame, mapped by
    the inverse dilation.  Built with numpy's own rule, so it shares no
    quadrature code with the kernel it checks."""
    gl_x, gl_w = np.polynomial.legendre.leggauss(n)
    w = np.stack(np.meshgrid(gl_x, gl_x, indexing="ij"), axis=-1).reshape(-1, 2)
    wts = np.prod(
        np.stack(np.meshgrid(gl_w, gl_w, indexing="ij"), axis=-1).reshape(-1, 2),
        axis=1,
    )
    eta = np.asarray(eta, dtype=float)
    z = w - (gamma / (1.0 + gamma)) * (w @ eta)[:, None] * eta[None, :]
    return z, wts / (1.0 + gamma)


# ---------------------------------------------------------------------------
# torus
# ---------------------------------------------------------------------------


@_gate("torus")
def wrap_idempotent(full):
    w1 = wrap_coords(np.random.default_rng(BATTERY_SEED).normal(scale=3.0, size=(256, 2)))
    moved = int(np.count_nonzero(wrap_coords(w1) != w1))
    return moved == 0, "wrap(wrap(v)) == wrap(v) on 256 samples", moved


@_gate("torus")
def min_image_antisymmetry(full):
    a, b = np.random.default_rng(BATTERY_SEED).random((2, 256, 2))
    anti = float(np.max(np.abs(min_image_coords(a, b) + min_image_coords(b, a))))
    return anti < 1e-15, f"max defect {anti:.2e}", anti


@_gate("torus")
def integrate_linear(full):
    grid = QuadratureGrid.torus(48, 2)
    f1 = lambda p: np.sin(2 * np.pi * p[:, 0])
    f2 = lambda p: np.cos(2 * np.pi * (p[:, 0] + 2 * p[:, 1]))
    lin = abs(
        integrate(lambda p: 2.0 * f1(p) + 3.0 * f2(p), grid)
        - 2.0 * integrate(f1, grid)
        - 3.0 * integrate(f2, grid)
    )
    return lin < 1e-14, f"defect {lin:.2e}", lin


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------


@_gate("fields")
def rank_one_orthogonal(full):
    worst_orth = worst_rank = 0.0
    for fid in ("C", "D"):
        for jump in cat.get_field(fid).jumps:
            xi, eta_b = np.asarray(jump.xi), np.asarray(jump.eta)
            worst_orth = max(worst_orth, abs(float(xi @ eta_b)))
            sv = np.linalg.svd(np.outer(xi, eta_b), compute_uv=False)
            worst_rank = max(worst_rank, abs(sv[0] - 1.0), abs(sv[1]))
    detail = f"max <xi,eta> {worst_orth:.2e}, singular value defect {worst_rank:.2e}"
    return max(worst_orth, worst_rank) < 1e-14, detail, max(worst_orth, worst_rank)


@_gate("fields")
def distributional_divergence(full):
    phis = [
        cat.TrigPolynomial(((0.7, (1, 0), 0.3), (0.4, (0, 2), 1.1))),
        cat.TrigPolynomial(((1.0, (2, 1), 0.0),)),
    ]
    worst = max(
        abs(cat.distributional_divergence_check(cat.get_field(fid), phi, 128))
        for fid in cat.FIELD_IDS
        for phi in phis
    )
    return worst < 1e-8, f"max residual {worst:.2e} over fields x test functions", worst


@_gate("fields")
def jacobian_finite_difference(full):
    rng = np.random.default_rng(BATTERY_SEED)
    h = 1e-6
    worst = 0.0
    for fid in cat.FIELD_IDS:
        fld = cat.get_field(fid)
        pts = rng.random((40, 2))
        jac = fld.jacobian_many(pts)
        interior = np.ones(pts.shape[0], dtype=bool)
        for jump in fld.jumps:
            interior &= np.abs(jump.level(pts)) > 4 * h
        for k in range(2):
            dp, dm = pts.copy(), pts.copy()
            dp[:, k] += h
            dm[:, k] -= h
            fd = (fld.eval_many(dp) - fld.eval_many(dm)) / (2 * h)
            worst = max(worst, float(np.max(np.abs(fd[interior] - jac[interior, :, k]))))
    return worst < 1e-4, f"max |FD - closed form| {worst:.2e} (O(h^2) at h=1e-6)", worst


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


@_gate("kernels")
def normalization(full):
    """int rho(x, z) dz = 1 for both profiles at every gamma, with a
    position-dependent direction (criterion 1)."""
    xs = np.random.default_rng(101).random((20 if full else 3, 2))
    eta_var = DirectionField.mollified_normal(cat.get_field("C"), 0.35)
    worst = 0.0
    for profile in PROFILES.values():
        for gamma in (0.0, 1.0, 10.0, 100.0):
            kern = AnisotropicKernel(profile, eta_var, gamma)
            for x in xs:
                z, w = aligned_gauss_box(eta_var.eta(x[None, :])[0], gamma, 120)
                val = float(np.sum(kern.rho(np.broadcast_to(x, z.shape), z) * w))
                worst = max(worst, abs(val - 1.0))
    detail = f"max |int rho - 1| {worst:.2e} over profiles x gamma x {len(xs)} points"
    return worst < 1e-6, detail, worst


@_gate("kernels")
def d1_rho_integral_zero(full):
    """int d1 rho(x, z) dz = 0, the Step-1 identity (criterion 2)."""
    rng = np.random.default_rng(102)
    eta_var = DirectionField.mollified_normal(cat.get_field("C"), 0.3)
    per_gamma = 6 if full else 3
    worst = 0.0
    for gamma in (1.0, 10.0):
        kern = AnisotropicKernel(poly_bump, eta_var, gamma)
        for _ in range(per_gamma):
            x = rng.random((1, 2))
            z, w = kern.z_quadrature(x, 160, rule="gauss")
            vec = np.sum(kern.d1_rho(np.broadcast_to(x, z.shape), z) * w[:, None], axis=0)
            worst = max(worst, float(np.linalg.norm(vec)))
    detail = f"max |int d1_rho dz| {worst:.2e} over gamma 1, 10 x {per_gamma} points"
    return worst < 1e-6, detail, worst


@_gate("kernels")
def scalar_product_bounds(full):
    """|<z, U xi>| <= (1 + gamma |eta - eta_b|) |z| and
    |<eta_b, U^-1 z>| <= (|eta - eta_b| + 1/(1+gamma)) |z| at sampled jump
    data, with U and U^-1 from the kernel (criterion 5)."""
    rng = np.random.default_rng(105)
    samples = 10_000 if full else 2000
    violations = 0
    for _ in range(samples):
        fid = ("C", "D")[rng.integers(2)]
        jump = cat.get_field(fid).jumps[rng.integers(2)]
        xi, eta_b = np.asarray(jump.xi), np.asarray(jump.eta)
        gamma = float(10 ** (rng.random() * 3 - 1))
        delta = float(rng.random() * math.pi)
        cs, sn = math.cos(delta), math.sin(delta)
        eta = (cs * eta_b[0] - sn * eta_b[1], sn * eta_b[0] + cs * eta_b[1])
        z = rng.normal(size=2) * (0.1 + rng.random())
        kern = AnisotropicKernel(poly_bump, DirectionField.constant(eta), gamma)
        (u,), (u_inv,), _ = kern.u_matrix()
        mis = float(np.linalg.norm(np.asarray(kern.eta.vector) - eta_b))
        zn = float(np.linalg.norm(z))
        violations += abs(z @ (u @ xi)) > (1.0 + gamma * mis) * zn + 1e-12
        violations += abs(eta_b @ (u_inv @ z)) > (mis + 1.0 / (1.0 + gamma)) * zn + 1e-12
    return violations == 0, f"{violations} violations in {samples} samples", violations


# ---------------------------------------------------------------------------
# flow
# ---------------------------------------------------------------------------


@_gate("flow")
def group_property(full):
    """X(s, X(t, x)) = X(s + t, x) on field A (criterion 10)."""
    pts = np.random.default_rng(110).random((24 if full else 16, 2))
    ens = flow_mod.integrate_flow(
        cat.get_field("A"), flow_mod.FlowSolverConfig(step=1e-3), pts, [0.0, 0.1]
    )
    defect = flow_mod.check_group_property(ens, 0.2, 0.3, max_points=len(pts))
    return defect <= 1e-8, f"defect {defect:.2e} (field A, {len(pts)} points)", defect


@_gate("flow")
def backward_forward(full):
    fld = cat.get_field("A")
    solver = flow_mod.FlowSolverConfig(step=2e-3)
    pts = np.random.default_rng(BATTERY_SEED).random((64, 2))
    ens = flow_mod.integrate_flow(fld, solver, pts, [0.0, 0.5])
    back = flow_mod.integrate_flow(fld, solver, ens.positions[ens.time_index(0.5)],
                                   [0.0, -0.5])
    rev = float(np.max(torus_distance(back.positions[back.time_index(-0.5)], pts)))
    return rev < 1e-7, f"max return error {rev:.2e}", rev


@_gate("flow")
def density_mass(full):
    grid = QuadratureGrid.torus(256).nodes.reshape(256, 256, 2)[:, :4].reshape(-1, 2)
    exact = flow_mod.FlowSolverConfig(method="explicit_exact")
    ens = flow_mod.integrate_flow(cat.get_field("B"), exact, grid, [0.0, 0.5])
    defect = flow_mod.density_from_flow(ens, 0.5).total_mass() - 1.0
    return abs(defect) < 1e-6, f"int mu - 1 = {defect:+.2e} (field B, t=0.5)", abs(defect)


@_gate("flow")
def field_e_violations(full):
    """Field E breaks the hypotheses and the package says so (criterion 8):
    (a) its rank-one pairing <xi, eta> is 1, not 0; (b) the pushforward
    histogram has empty bins and a collided column whose peak grows as
    the bins refine, and a vacuum at t = 0.6; (c) two backward branches
    stay apart, and the uniqueness report declines."""
    e = cat.get_field("E")
    n_grid, bins, n_branch = (256, (16, 32, 64), 320) if full else (96, (16, 32), 96)
    viol = e.singular_divergence_violation()
    xi, eta, _ = e.jump_data((0.5, 0.2))
    pairing = abs(float(xi @ eta))
    ens = flow_mod.integrate_flow(e, flow_mod.FlowSolverConfig(method="explicit_exact"),
                                  QuadratureGrid.torus(n_grid).nodes, [0.0, 0.4, 0.6])
    hists = [flow_mod.pushforward_histogram(ens, 0.4, b).values for b in bins]
    peaks = [float(h.max()) for h in hists]
    vac = flow_mod.pushforward_histogram(ens, 0.6, 32).values.reshape(32, 32)
    z_l, z_r = flow_mod.collision_branch_maps(QuadratureGrid.torus(n_branch).nodes, 0.3)
    branch = float(np.mean(torus_distance(z_l, z_r)))
    rep = fn.uniqueness_report(e, None, None, AnisotropicKernel(poly_bump, ETA_X, 0.0),
                               fn.FunctionalConfig(epsilon=0.05), 1.0)
    passed = (
        abs(viol - 1.0) <= 1e-6
        and abs(pairing - 1.0) <= 1e-6
        and all(h.min() == 0.0 for h in hists)
        and all(np.diff(peaks) > 0)
        # the collided mass 0.8 sits in one column of width 1/bins
        and peaks[-1] > 0.8 * bins[-1] * 0.9
        and np.all(vac[0, :] == 0.0)
        and branch >= 0.1
        and rep.verdict == "HYPOTHESES-VIOLATED"
        and rep.branch_discrepancy >= 0.1
    )
    detail = (f"<xi,eta>={viol:.1f}, hist peaks {', '.join(f'{p:.4g}' for p in peaks)} "
              f"over {', '.join(map(str, bins))} bins with empty bins, "
              f"branch discrepancy {branch:.3f}, verdict {rep.verdict}")
    return passed, detail, branch


# ---------------------------------------------------------------------------
# functionals
# ---------------------------------------------------------------------------


@_gate("functionals")
def R_a_identity(full):
    """int <d2 rho(x, z), grad_a b(x) z> dz = -div_a b(x) at off-jump
    points of A, B and C (criterion 3)."""
    rng = np.random.default_rng(103)
    per_field = 50 if full else 5
    worst, enough = 0.0, True
    for fid in ("A", "B", "C"):
        fld = cat.get_field(fid)
        pts = rng.random((80, 2))
        keep = np.ones(80, dtype=bool)
        for jump in fld.jumps:
            keep &= np.abs(jump.level(pts)) > 1e-3
        pts = pts[keep][:per_field]
        enough &= pts.shape[0] == per_field
        for gamma in (0.0, 10.0):
            kern = AnisotropicKernel(poly_bump, ETA_X, gamma)
            worst = max(worst, float(np.max(np.abs(fn.R_a_check(fld, kern, pts, n_z=140)))))
    detail = f"max residual {worst:.2e} over A, B, C x gamma 0, 10 x {per_field} points"
    return enough and worst < 1e-6, detail, worst


@_gate("functionals")
def singular_decay(full):
    """The singular majorant decays like 1/(1+gamma) on C and D with the
    kernel direction on the jump normal (criterion 4)."""
    gammas = np.array([0.0, 1.0, 3.0, 9.0, 27.0, 81.0][: 6 if full else 5])
    n_z = 128 if full else 96
    slopes = []
    for fid, eta_vec in (("C", (1.0, 0.0)), ("D", (2.0, 1.0))):
        fld, eta = cat.get_field(fid), DirectionField.constant(eta_vec)
        vals = [fn.singular_bound(fld, AnisotropicKernel(poly_bump, eta, g), n_z=n_z)
                for g in gammas]
        slopes.append(fit_rate(vals, 1.0 + gammas)[0])
    worst = max(abs(s + 1.0) for s in slopes)
    detail = (f"log-log slopes {slopes[0]:.4f} (C), {slopes[1]:.4f} (D) vs -1 "
              f"up to gamma {gammas[-1]:g}")
    return worst <= 0.05, detail, worst


@_gate("functionals")
def trace_lower_bound(full):
    """int |<M z, grad rho(z)>| dz >= |tr M| at random matrices, profiles,
    gammas and directions (criterion 9)."""
    rng = np.random.default_rng(109)
    samples = 1000 if full else 60
    worst = math.inf
    for _ in range(samples):
        m = rng.normal(size=(2, 2)) * (0.2 + 2.0 * rng.random())
        profile = poly_bump if rng.random() < 0.5 else smooth_exp
        res = fn.trace_identity(
            m,
            profile,
            gammas=(float(10 ** (rng.random() * 2)),),
            eta_angles=(float(rng.random() * math.pi),),
            n_z=100,
        )
        worst = min(worst, res.lower_margin)
    return worst >= -1e-8, f"worst margin {worst:.2e} over {samples} random pairs", worst


@_gate("experiments")
def fit_rate_exact(full):
    slope, err = fit_rate(np.array([1.0, 4.0, 9.0, 16.0]), np.array([1.0, 2.0, 3.0, 4.0]))
    detail = f"slope {slope:.12f} +- {err:.1e} on exact square law"
    return abs(slope - 2.0) < 1e-12 and err < 1e-10, detail, abs(slope - 2.0)


@_gate("functionals")
def decomposition(full):
    """The finite-difference derivative of the discrepancy matches I1 + I2
    within the reported bound (criterion 6)."""
    if full:
        fids, gammas, epsilons, n = ("C", "B", "A"), (0.0, 10.0), (0.1, 0.05), 64
    else:
        fids, gammas, epsilons, n = ("C",), (0.0,), (0.05,), 32
    passed, worst = True, 0.0
    for fid in fids:
        fld = cat.get_field(fid)
        if fid == "A":
            fmap = flow_mod.InterpolatedFlowMap(fld, flow_mod.FlowSolverConfig(step=2e-3),
                                                grid_n=128)
        else:
            fmap = flow_mod.ExactFlowMap(fld)
        for gamma in gammas:
            kern = AnisotropicKernel(poly_bump, ETA_X, gamma)
            for eps in epsilons:
                cfg = fn.FunctionalConfig(epsilon=eps, n_x=n, n_z=n)
                res = fn.decomposition_check(fmap, fmap, fld, kern, cfg, 0.3)
                passed &= bool(res["gap"] <= res["bound"])
                worst = max(worst, res["gap"] / res["bound"])
    cases = len(fids) * len(gammas) * len(epsilons)
    return passed, f"max gap/bound {worst:.3g} over {cases} cases (n {n})", worst


GATES = (
    wrap_idempotent,
    min_image_antisymmetry,
    integrate_linear,
    rank_one_orthogonal,
    distributional_divergence,
    jacobian_finite_difference,
    normalization,
    d1_rho_integral_zero,
    scalar_product_bounds,
    group_property,
    backward_forward,
    density_mass,
    field_e_violations,
    R_a_identity,
    singular_decay,
    trace_lower_bound,
    fit_rate_exact,
    decomposition,
)
