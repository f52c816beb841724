"""Flow maps of catalog fields: ensemble integration, pushforward
densities, and conformance checks.

Two solver methods:

``rk4_event``
    Classical fixed-step RK4 inside a smooth piece.  For strip fields
    each point keeps its own remaining time, and every step is screened
    against the jump surfaces.  A sign change of the signed level value,
    or a step that stalls just short of a surface, sends the point to
    one vectorized root solve for the fraction of its own step at which
    an RK4 step on the piece it leaves ends within ``catalog.TAU_SIGMA``
    of the surface: an Illinois secant when the full step brackets the
    surface (exact after one step on a constant piece), first-touch
    bisection when it does not.  Then come a transversality check of the one-sided
    traces and a restart on the receiving side with the rest of its
    time; the other points take their full steps.  Tangential or
    opposing traces raise :class:`NonTransversalCrossingError` (the
    trajectory would slide or split; for field E this is the expected
    outcome), and a trajectory with more than :data:`MAX_CROSSINGS`
    crossings raises :class:`RunawayTrajectoryError`.

``explicit_exact``
    Closed-form flows, available for B (separable 1-D dynamics), C and D
    (piecewise translations), and E forward in time, where the flow
    implements the sticking selection at the compressive interface so
    the near-incompressibility violation can be observed.  Field A has
    no elementary flow.

The log-Jacobian  log J(t, x) = int_0^t div^a b(X(s, x)) ds  is carried
along every trajectory.  J(t, .) is exactly the density of the measure
X(-t, .)_# lambda (the mu of the discrepancy machinery), evaluated at
the trajectory's own starting point, so sampling exp(log J) on a uniform
initial grid gives the density field with no scattered-data step.

The functionals evaluate flows at arbitrary points through one
protocol, :class:`FlowMap`: a subclass supplies ``displacement(t, pts)``
and ``log_jacobian(t, pts)``, and the base class derives ``position``
and ``density`` and supplies no-op ``prepare`` / ``begin_batch`` /
``end_batch`` hooks and a zero ``interpolation_error``.  Three maps
implement it: :class:`ExactFlowMap` (the closed forms),
:class:`InterpolatedFlowMap` (RK4 on a grid plus splines) and
:class:`DirectFlowMap` (RK4 on the query points).

Trajectories are independent and all operations are vectorized numpy
with fixed reduction order, so results are reproducible bit-for-bit.
"""

from __future__ import annotations

import logging
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from . import catalog
from .catalog import PiecewiseField
from .torus import QuadratureGrid, torus_distance, wrap_coords, wrap_half

__all__ = [
    "FlowSolverConfig",
    "FlowEnsemble",
    "DensityField",
    "NonTransversalCrossingError",
    "RunawayTrajectoryError",
    "integrate_flow",
    "density_from_flow",
    "pushforward_histogram",
    "check_group_property",
    "check_ode_residual",
    "export_csv",
    "collision_branch_maps",
    "FlowMap",
    "ExactFlowMap",
    "InterpolatedFlowMap",
    "DirectFlowMap",
    "make_flow_map",
    "MAX_CROSSINGS",
]

logger = logging.getLogger(__name__)

TWO_PI = 2.0 * np.pi
MAX_CROSSINGS = 1000  # per-trajectory crossing budget of rk4_event


class NonTransversalCrossingError(RuntimeError):
    """A trajectory met a jump surface it cannot cross unambiguously."""

    def __init__(self, field_id, point, detail=""):
        self.field_id = field_id
        self.point = np.asarray(point, dtype=float)
        msg = (
            f"field {field_id}: non-transversal crossing at "
            f"{np.round(self.point, 6).tolist()}"
        )
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class RunawayTrajectoryError(RuntimeError):
    """A trajectory crossed jump surfaces more than :data:`MAX_CROSSINGS`
    times."""


@dataclass(frozen=True)
class FlowSolverConfig:
    """Solver parameters.  A located crossing has a level value within
    ``catalog.TAU_SIGMA``, so the step must be finite and not below it."""

    step: float = 1e-3
    method: str = "rk4_event"

    def __post_init__(self):
        if not catalog.TAU_SIGMA <= self.step < np.inf:
            raise ValueError(
                f"step must be finite and at least TAU_SIGMA = {catalog.TAU_SIGMA}"
            )
        if self.method not in ("rk4_event", "explicit_exact"):
            raise ValueError(f"unknown method {self.method!r}")


@dataclass
class FlowEnsemble:
    """Trajectories of one field from a set of initial points.

    positions are wrapped onto the torus; displacements are the
    unwrapped X(t, x) - x (smooth periodic in x for smooth fields, which
    is what the interpolating flow maps consume).
    """

    field: PiecewiseField
    config: FlowSolverConfig
    initial_points: np.ndarray  # (M, 2)
    times: np.ndarray  # (T,)
    positions: np.ndarray  # (T, M, 2)
    displacements: np.ndarray  # (T, M, 2)
    log_jacobian: np.ndarray  # (T, M)

    def time_index(self, t: float) -> int:
        idx = np.nonzero(np.isclose(self.times, t, rtol=0.0, atol=1e-12))[0]
        if idx.size == 0:
            raise KeyError(f"time {t} not stored in ensemble (times {self.times})")
        return int(idx[0])


@dataclass
class DensityField:
    """Density samples mu(t, .) at explicit sample points."""

    time: float
    points: np.ndarray  # (M, 2)
    values: np.ndarray  # (M,)
    bins: int | None = None

    def total_mass(self) -> float:
        """Mean over the (uniform) sample points, i.e. int mu d lambda."""
        return float(np.mean(self.values))


# ---------------------------------------------------------------------------
# RK4 with event handling
# ---------------------------------------------------------------------------


def _rk4_step(fld: PiecewiseField, y, logj, h, piece=None):
    """One RK4 step of the augmented system (y, log J).

    ``h`` is the signed step, a scalar or one per point.  Each stage
    selects each point's piece once, by position; with ``piece`` (one
    index per point) set, the stages evaluate those pieces' smooth
    extensions instead.  This is how steps that end on a jump surface
    are computed: the k4 stage of a mixed step would otherwise sample the
    far side of the surface and pollute the tangential components at
    O(h) whenever the endpoint rounds across.  Returns (y, log J, k1),
    k1 being b at the step's start.
    """
    hy = h if np.ndim(h) == 0 else h[:, None]
    k1, d1 = fld.eval_with_divergence(wrap_coords(y), piece)
    k2, d2 = fld.eval_with_divergence(wrap_coords(y + 0.5 * hy * k1), piece)
    k3, d3 = fld.eval_with_divergence(wrap_coords(y + 0.5 * hy * k2), piece)
    k4, d4 = fld.eval_with_divergence(wrap_coords(y + hy * k3), piece)
    y_new = y + (hy / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    logj_new = logj + (h / 6.0) * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
    return y_new, logj_new, k1


def _levels(normals, offsets, y):
    """Signed level values of the surfaces at y (M, 2), shape (J, M)."""
    return wrap_half(normals @ y.T - offsets[:, None])


def _nudge_initial_points(fld: PiecewiseField, y):
    """Push initial points sitting exactly on a surface 1e-9 along eta."""
    if not fld.jumps:
        return y
    moved = 0
    for jump in fld.jumps:
        lv = jump.level(wrap_coords(y))
        mask = np.abs(lv) <= catalog.TAU_SIGMA
        if mask.any():
            y = y.copy()
            y[mask] += 1e-9 * np.asarray(jump.eta)
            moved += int(mask.sum())
    if moved:
        logger.info(
            "field %s: perturbed %d initial point(s) off the jump set by 1e-9",
            fld.id,
            moved,
        )
    return y


# ---------------------------------------------------------------------------
# exact flows
# ---------------------------------------------------------------------------


def _exact_prep(fld: PiecewiseField, pts):
    """The time-independent part of a closed-form flow at ``pts`` (M, 2).

    B: (u, tan(pi u), u > 1/2, fixed-point mask) with u = x1 mod 1;
    C/D: each point's piece velocity; E: (left-of-interface mask,
    distance to the interface).  :func:`_exact_disp` and
    :func:`_exact_logj` evaluate the flow from it at any time.
    """
    if fld.id == "B":
        u = np.mod(pts[:, 0], 1.0)
        # exact fixed points stay put (tan is finite garbage at 0.5 + eps scale)
        fixed = np.minimum(np.abs(u), np.minimum(np.abs(u - 0.5), np.abs(u - 1.0))) < 1e-14
        return u, np.tan(np.pi * u), u > 0.5, fixed
    if fld.id in ("C", "D"):
        piece = fld.piece_index(wrap_coords(pts))
        return np.where(
            piece[:, None] == 0,
            np.asarray(fld.pieces[0].b(np.zeros((1, 2))))[0],
            np.asarray(fld.pieces[1].b(np.zeros((1, 2))))[0],
        )
    if fld.id == "E":
        s = np.mod(pts[:, 0], 1.0)
        left = s < 0.5
        return left, np.where(left, 0.5 - s, s - 0.5)
    if fld.id == "A":
        raise ValueError("field A has no closed-form flow; use rk4_event")
    raise ValueError(f"no exact flow for field {fld.id!r}")


def _exact_b_x1(prep, t):
    """First coordinate of field B's flow; x2 is untouched.

    tan(pi x(t)) = tan(pi x(0)) exp(2 pi t) separately on (0, 1/2) and
    (1/2, 1); 0 and 1/2 are fixed points.
    """
    u, tan_u, upper, fixed = prep
    val = np.arctan(tan_u * np.exp(TWO_PI * t)) / np.pi
    return np.where(fixed, u, np.where(upper, 1.0 + val, val))


def _exact_e_forward(pts, t):
    if t < 0:
        raise NonTransversalCrossingError(
            "E", wrap_coords(pts[0]), "backward trajectories converge into the jump set"
        )


def _exact_disp(fld: PiecewiseField, prep, pts, t: float):
    """Unwrapped displacement X(t, x) - x of a closed-form flow."""
    if fld.id in ("C", "D"):
        return t * prep
    disp = np.zeros_like(pts)
    if fld.id == "B":
        # unwrapped: trajectories never leave their half-interval
        disp[:, 0] = _exact_b_x1(prep, t) - prep[0]
    else:
        _exact_e_forward(pts, t)
        left, hit = prep
        move = np.minimum(t, hit)
        disp[:, 0] = np.where(left, move, -move)
    return disp


def _exact_b_jacobian(prep, t):
    """Field B's Jacobian in two parts: (near-fixed mask, |sin(2 pi x(t)) /
    sin(2 pi x(0))| off the fixed points, log J = +-2 pi t at them)."""
    u = prep[0]
    s0 = np.sin(TWO_PI * u)
    st = np.sin(TWO_PI * _exact_b_x1(prep, t))
    near_fixed = np.abs(s0) < 1e-9
    safe_s0 = np.where(near_fixed, 1.0, s0)
    safe_st = np.where(near_fixed, 1.0, st)
    at_fixed = TWO_PI * t * np.sign(np.cos(TWO_PI * u))
    return near_fixed, np.abs(safe_st / safe_s0), at_fixed


def _exact_logj(fld: PiecewiseField, prep, pts, t: float):
    """log J of a closed-form flow.  For B, J = sin(2 pi x(t)) / sin(2 pi
    x(0)) off the fixed points and exp(+-2 pi t) at them; the strip flows
    are measure preserving."""
    if fld.id != "B":
        if fld.id == "E":
            _exact_e_forward(pts, t)
        return np.zeros(pts.shape[0])
    near_fixed, ratio, at_fixed = _exact_b_jacobian(prep, t)
    return np.where(near_fixed, at_fixed, np.log(ratio))


def _exact_displacement(fld: PiecewiseField, pts, t: float):
    """Unwrapped displacement X(t, x) - x and log J for the exact flows."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    prep = _exact_prep(fld, pts)
    return _exact_disp(fld, prep, pts, t), _exact_logj(fld, prep, pts, t)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def integrate_flow(fld: PiecewiseField, cfg: FlowSolverConfig, initial_points,
                   times) -> FlowEnsemble:
    """Integrate the flow of ``fld`` from each initial point.

    ``times`` must contain 0; positive and negative output times are
    reached by forward and backward chains from 0.
    """
    pts0 = np.atleast_2d(np.asarray(initial_points, dtype=float))
    pts0 = wrap_coords(pts0)
    times = np.asarray(sorted(float(t) for t in times))
    if not np.any(np.isclose(times, 0.0, atol=1e-15)):
        raise ValueError("times must include 0")
    m = pts0.shape[0]
    t_count = times.size
    positions = np.empty((t_count, m, 2))
    displacements = np.empty((t_count, m, 2))
    log_jacobian = np.empty((t_count, m))

    if cfg.method == "explicit_exact":
        for k, t in enumerate(times):
            disp, logj = _exact_displacement(fld, pts0, float(t))
            displacements[k] = disp
            positions[k] = wrap_coords(pts0 + disp)
            log_jacobian[k] = logj
        return FlowEnsemble(fld, cfg, pts0, times, positions, displacements, log_jacobian)

    # rk4_event: forward chain over nonnegative times, backward over negatives
    y0 = _nudge_initial_points(fld, pts0.copy())
    order = np.argsort(times)
    zero_idx = int(np.nonzero(np.isclose(times, 0.0, atol=1e-15))[0][0])

    def run_chain(target_indices):
        y = y0.copy()
        logj = np.zeros(m)
        crossings = np.zeros(m, dtype=int)
        t_now = 0.0
        for k in target_indices:
            t_target = float(times[k])
            y, logj = _advance(fld, cfg, y, logj, t_target - t_now, crossings)
            t_now = t_target
            displacements[k] = y - y0
            positions[k] = wrap_coords(y)
            log_jacobian[k] = logj

    displacements[zero_idx] = 0.0
    positions[zero_idx] = wrap_coords(y0)
    log_jacobian[zero_idx] = 0.0
    run_chain([k for k in order if times[k] > 0])
    run_chain([k for k in reversed(order) if times[k] < 0])
    return FlowEnsemble(fld, cfg, pts0, times, positions, displacements, log_jacobian)


def _advance(fld, cfg, y, logj, duration, crossings):
    """Advance (y, logj) by signed ``duration`` with event handling.

    Smooth fields take fixed steps of ``cfg.step`` (the last one
    shorter), all points together.  On fields with jumps each point
    keeps its own remaining time.  Every round tries a full mixed step of
    sgn min(step, remaining) for every point (zero once its time is used
    up) and screens it against every surface with two triggers: a sign
    change of the level value (ordinary crossing), and a "capture" where
    the step moves toward a surface within reach of it but makes almost
    no normal progress.  The latter is how an attractive (sliding)
    interface manifests under RK4, whose stages straddle the surface and
    cancel.  Points with no event accept the step; :func:`_cross`
    carries the others across and reports the time each one used, so no
    point waits for another.  ``crossings`` counts each point's
    crossings in place.
    """
    if abs(duration) < 1e-15:
        return y, logj
    sgn = 1.0 if duration > 0 else -1.0
    if not fld.has_jumps:
        remaining = abs(duration)
        while remaining > 1e-13:
            h = sgn * min(cfg.step, remaining)
            y, logj, _ = _rk4_step(fld, y, logj, h)
            remaining -= abs(h)
        return y, logj
    normals = np.array([j.normal_int for j in fld.jumps], dtype=float)
    offsets = np.array([j.offset for j in fld.jumps])
    tol = catalog.TAU_SIGMA
    remaining = np.full(y.shape[0], abs(duration))
    while True:
        live = remaining > 1e-13
        if not live.any():
            return y, logj
        h = np.where(live, sgn * np.minimum(cfg.step, remaining), 0.0)
        lev0 = _levels(normals, offsets, y)
        y_try, logj_try, b0 = _rk4_step(fld, y, logj, h)
        lev1 = _levels(normals, offsets, y_try)
        # sign change through zero, or an exact/near landing on the
        # surface (a step boundary can coincide with the crossing time)
        crossed = (
            ((np.sign(lev0) * np.sign(lev1) < 0) | (np.abs(lev1) <= tol))
            & (np.abs(lev1 - lev0) < 0.25)
            & (np.abs(lev0) > tol)
        )
        # normal speed in the time direction, and the normal reach of a step
        v_n = (normals @ b0.T) * np.sign(h)
        reach = np.abs(h) * np.abs(v_n)
        stalled = (
            ~crossed
            & (-np.sign(lev0) * v_n > 1e-14)
            & (np.abs(lev0) <= 2.0 * reach)
            & (np.abs(lev1 - lev0) < 0.5 * reach)
        )
        events = crossed | stalled
        used = np.abs(h)
        hit = np.flatnonzero(events.any(axis=0))
        if hit.size:
            surf = np.argmax(events[:, hit], axis=0)
            y_try[hit], logj_try[hit], used[hit] = _cross(
                fld, y[hit], logj[hit], h[hit], remaining[hit],
                normals[surf], offsets[surf],
            )
            crossings[hit] += 1
            if crossings[hit].max() > MAX_CROSSINGS:
                raise RunawayTrajectoryError(
                    f"field {fld.id}: trajectory exceeded {MAX_CROSSINGS} crossings"
                )
        y, logj = y_try, logj_try
        remaining -= used


def _cross(fld, y, logj, h, left, n, off):
    """Carry event points just past their surfaces.

    Point i meets the surface <x, n[i]> = off[i] (mod 1) within its step
    h[i].  The root solve is on f(s), the level after one RK4 step of
    h[i] s on the piece the point leaves, and stops at the first trial
    fraction with |f| <= TAU_SIGMA (at most 80 after the full step).  A
    point whose full step reaches the surface (f(1) changes sign or
    |f(1)| <= TAU_SIGMA) is bracketed on [0, 1] and takes Illinois
    secant points: regula falsi inside the bracket, halving the value
    at an end that is kept twice in a row, which is exact after one
    step when the piece is constant.  An unbracketed point (a stall or
    a capture) bisects first-touch instead.  Each round steps only the
    points still searching.  One RK4 step on that piece to the located
    fraction and a projection put the point on the surface.  Both
    one-sided traces must carry it across at a normal speed above 1e-10;
    otherwise :class:`NonTransversalCrossingError` is raised for the
    failing point that meets its surface first (``left`` is each point's
    remaining time before the step).  The point is placed 2 TAU_SIGMA on
    the receiving side.  Returns (y, logj, time used).
    """
    tol = catalog.TAU_SIGMA
    nn = np.sum(n * n, axis=1)[:, None]
    pieces = fld.piece_index(wrap_coords(y))

    def level(z, i=slice(None)):
        return wrap_half(np.sum(z * n[i], axis=1) - off[i])

    def pinned_level(frac, i=slice(None)):
        return level(_rk4_step(fld, y[i], logj[i], h[i] * frac, pieces[i])[0], i)

    fa = level(y)
    lo, hi = np.zeros(y.shape[0]), np.ones(y.shape[0])
    flo, fhi = fa.copy(), pinned_level(1.0)
    searching = np.abs(fhi) > tol
    bracketed = ~searching | (np.sign(fhi) != np.sign(fa))
    kept = np.zeros(y.shape[0])  # +1: the last round kept lo, -1: it kept hi
    for _ in range(80):
        idx = np.flatnonzero(searching)
        if idx.size == 0:
            break
        a, b, fl, fu = lo[idx], hi[idx], flo[idx], fhi[idx]
        with np.errstate(divide="ignore", invalid="ignore"):
            sec = b - fu * (b - a) / (fu - fl)
        frac = np.where(bracketed[idx] & (sec > a) & (sec < b), sec, 0.5 * (a + b))
        fm = pinned_level(frac, idx)
        on = np.abs(fm) <= tol
        reached = on | (np.sign(fm) != np.sign(fa[idx]))
        # Illinois: an end kept a second time in a row has its value halved
        flo[idx] = np.where(reached, np.where(kept[idx] > 0, 0.5 * fl, fl), fm)
        fhi[idx] = np.where(reached, fm, np.where(kept[idx] < 0, 0.5 * fu, fu))
        lo[idx] = np.where(reached, a, frac)
        hi[idx] = np.where(reached, frac, b)
        kept[idx] = np.where(reached, 1.0, -1.0)
        searching[idx] = ~on
    y_new, logj_new, _ = _rk4_step(fld, y, logj, h * hi, pieces)
    direction = np.sign(-fa)[:, None]
    x_surf = y_new - level(y_new)[:, None] * n / nn
    probe = direction * (2.0 * tol) * n / nn
    bn_from = np.sum(fld.eval_many(wrap_coords(x_surf - probe)) * n, axis=1)
    bn_to = np.sum(fld.eval_many(wrap_coords(x_surf + probe)) * n, axis=1)
    across = np.sign(h) * direction[:, 0]
    used = np.abs(h) * hi
    bad = (across * bn_from <= 1e-10) | (across * bn_to <= 1e-10)
    if bad.any():
        i = np.flatnonzero(bad)[np.argmax((left - used)[bad])]
        raise NonTransversalCrossingError(
            fld.id,
            wrap_coords(x_surf[i]),
            f"one-sided normal speeds {bn_from[i]:.3g} / {bn_to[i]:.3g}",
        )
    return x_surf + probe, logj_new, used


def density_from_flow(ensemble: FlowEnsemble, t: float) -> DensityField:
    """mu(t, .), the density of X(-t, .)_# lambda, sampled on the
    ensemble's initial grid.

    Uses the identity mu(t, y) = det DX(t, .)(y) = exp(log J(t, y)) along
    the forward trajectory started at y, so the samples live exactly at
    the uniform initial points and the mass invariant
    int mu d lambda = 1 is a contentful check (mean of the values).
    """
    k = ensemble.time_index(t)
    return DensityField(
        time=t,
        points=ensemble.initial_points.copy(),
        values=np.exp(ensemble.log_jacobian[k]),
    )


def pushforward_histogram(ensemble: FlowEnsemble, t: float, bins: int) -> DensityField:
    """Bin-count density estimate of (flow to time t)_# lambda.

    Empty bins report density 0, which is exactly the near-
    incompressibility violation flag for field E.
    """
    k = ensemble.time_index(t)
    pos = ensemble.positions[k]
    ij = np.clip((pos * bins).astype(int), 0, bins - 1)
    flat = ij[:, 0] * bins + ij[:, 1]
    counts = np.bincount(flat, minlength=bins * bins).astype(float)
    density = counts * (bins * bins) / pos.shape[0]
    centers = QuadratureGrid.torus(bins).nodes
    return DensityField(time=t, points=centers, values=density, bins=bins)


def check_group_property(ensemble: FlowEnsemble, s: float, t: float,
                         max_points: int = 512) -> float:
    """sup over sample points of d(X(t, X(s, x)), X(s+t, x)) on the torus.

    The sample is every k-th initial point of the ensemble, with k the
    smallest stride that keeps at most ``max_points``.
    """
    fld = ensemble.field
    pts = ensemble.initial_points
    if pts.shape[0] > max_points:
        pts = pts[:: -(-pts.shape[0] // max_points)]
    e_s = integrate_flow(fld, ensemble.config, pts, [0.0, s])
    mid = e_s.positions[e_s.time_index(s)]
    e_t = integrate_flow(fld, ensemble.config, mid, [0.0, t])
    two_step = e_t.positions[e_t.time_index(t)]
    e_st = integrate_flow(fld, ensemble.config, pts, [0.0, s + t])
    direct = e_st.positions[e_st.time_index(s + t)]
    return float(np.max(torus_distance(two_step, direct)))


def check_ode_residual(ensemble: FlowEnsemble, x, t: float) -> float:
    """Torus distance between X(t, x) and x + int_0^t b(X(s, x)) ds.

    The trajectory is re-integrated densely (every solver step stored)
    and the integral evaluated by the trapezoid rule in s.
    """
    fld = ensemble.field
    cfg = ensemble.config
    x = np.asarray(x, dtype=float).reshape(1, 2)
    n_steps = max(1, int(np.ceil(abs(t) / cfg.step)))
    s_grid = np.linspace(0.0, t, n_steps + 1)
    ens = integrate_flow(fld, cfg, x, list(s_grid))
    pos = np.stack([ens.positions[ens.time_index(si), 0] for si in s_grid])
    bvals = fld.eval_many(pos)
    integral = np.trapezoid(bvals, x=s_grid, axis=0)
    end = ens.positions[ens.time_index(t), 0]
    return float(torus_distance(end, wrap_coords(x[0] + integral)))


def export_csv(ensemble: FlowEnsemble, path) -> None:
    """Write snapshots as CSV: t, x0_1..x0_N, x_1..x_N, logJ."""
    dim = ensemble.initial_points.shape[1]
    cols = (
        ["t"]
        + [f"x0_{i+1}" for i in range(dim)]
        + [f"x_{i+1}" for i in range(dim)]
        + ["logJ"]
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(cols) + "\n")
        for k, t in enumerate(ensemble.times):
            for i in range(ensemble.initial_points.shape[0]):
                row = (
                    [t]
                    + list(ensemble.initial_points[i])
                    + list(ensemble.positions[k, i])
                    + [ensemble.log_jacobian[k, i]]
                )
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def collision_branch_maps(points, t: float):
    """Two backward-branch composites for field E at time t < 1/2.

    Forward, the sticky flow collapses the band |x1 - 1/2| <= t onto the
    interface; a backward branch from the collision point is a genuine
    solution of the reversed dynamics into either strip, and the collided
    state retains no memory of its origin side.  Composing forward
    collapse with each branch gives two maps that agree off the band and
    differ by the torus distance min(2t, 1-2t) on it, so their L^1
    separation is 2t * min(2t, 1-2t): the constructed witness that
    field E admits no unambiguous backward flow.

    Returns (z_left, z_right), both wrapped (M, 2) arrays.
    """
    if not 0.0 < t < 0.5:
        raise ValueError("branch construction needs 0 < t < 1/2")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    s = np.mod(pts[:, 0], 1.0)
    collided = np.abs(s - 0.5) <= t
    z_left = pts.copy()
    z_right = pts.copy()
    z_left[collided, 0] = 0.5 - t
    z_right[collided, 0] = 0.5 + t
    return wrap_coords(z_left), wrap_coords(z_right)


# ---------------------------------------------------------------------------
# flow maps (arbitrary-point evaluation for the functionals)
# ---------------------------------------------------------------------------


class FlowMap(ABC):
    """The flow-map protocol the functionals consume.

    A subclass implements ``displacement`` (the unwrapped X(t, x) - x)
    and ``log_jacobian``; ``position`` and ``density`` follow from them.
    The functionals also call three hooks, no-ops here: ``prepare``
    announces the times about to be queried, and ``begin_batch`` /
    ``end_batch`` bracket many queries on one point set.  A map with an
    approximation error reports it through ``interpolation_error``.
    """

    @abstractmethod
    def displacement(self, t: float, pts) -> np.ndarray:
        """X(t, x) - x at the query points, unwrapped, shape (M, 2)."""

    @abstractmethod
    def log_jacobian(self, t: float, pts) -> np.ndarray:
        """log J(t, x) = int_0^t div^a b(X(s, x)) ds, shape (M,)."""

    def position(self, t: float, pts) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return wrap_coords(pts + self.displacement(t, pts))

    def density(self, t: float, pts) -> np.ndarray:
        """mu(t, .) = exp(log J(t, .)) at the query points."""
        return np.exp(self.log_jacobian(t, pts))

    def prepare(self, times) -> None:
        pass

    def begin_batch(self, pts) -> None:
        pass

    def end_batch(self) -> None:
        pass

    def interpolation_error(self, t: float):
        """(max position error, max log J error) of the map at time t."""
        return 0.0, 0.0


class ExactFlowMap(FlowMap):
    """Closed-form flow map; supports fields B, C, D and E (forward).

    ``begin_batch`` computes the time-independent part of the closed form
    (:func:`_exact_prep`) once, so the quadrature engines can sweep many
    times over one point set cheaply.  Queries reuse it when they pass
    that very array; the identity check is safe because the batch holds a
    reference to the array, so its id cannot be reused while the batch is
    open.
    """

    def __init__(self, fld: PiecewiseField):
        if fld.id == "A":
            raise ValueError("field A has no closed-form flow map")
        self.field = fld
        self._batch = None

    def begin_batch(self, pts) -> None:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        self._batch = (pts, _exact_prep(self.field, pts))

    def end_batch(self) -> None:
        self._batch = None

    def _prep(self, pts):
        """(pts as an (M, 2) float array, its :func:`_exact_prep`)."""
        if self._batch is not None and self._batch[0] is pts:
            return self._batch
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return pts, _exact_prep(self.field, pts)

    def displacement(self, t: float, pts) -> np.ndarray:
        pts, prep = self._prep(pts)
        return _exact_disp(self.field, prep, pts, t)

    def log_jacobian(self, t: float, pts) -> np.ndarray:
        pts, prep = self._prep(pts)
        return _exact_logj(self.field, prep, pts, t)

    def density(self, t: float, pts) -> np.ndarray:
        """mu(t, .); identically 1 for the piecewise translations C and D,
        and B's Jacobian ratio itself rather than exp(log J)."""
        if self.field.id in ("C", "D"):
            return np.ones(np.atleast_2d(pts).shape[0])
        if self.field.id == "B":
            near_fixed, ratio, at_fixed = _exact_b_jacobian(self._prep(pts)[1], t)
            return np.where(near_fixed, np.exp(at_fixed), ratio)
        return super().density(t, pts)


def _bspline_weights(s):
    """The four cubic B-spline weights of fractional offsets s in [0, 1],
    for the taps floor - 1, ..., floor + 2; shape (4,) + s.shape."""
    r = 1.0 - s
    s2, r2 = s * s, r * r
    return np.stack([
        r2 * r / 6.0,
        2.0 / 3.0 - s2 * (1.0 - 0.5 * s),
        2.0 / 3.0 - r2 * (1.0 - 0.5 * r),
        s2 * s / 6.0,
    ])


def _bspline_symbol(n: int) -> np.ndarray:
    """Eigenvalues of the periodic cubic B-spline at the nodes of an
    n-point axis: the circulant c -> (c[i-1] + 4 c[i] + c[i+1]) / 6 has
    lam_k = (4 + 2 cos(2 pi k / n)) / 6 on the k-th Fourier mode."""
    return (4.0 + 2.0 * np.cos(2.0 * np.pi * np.arange(n) / n)) / 6.0


def _spline_prefilter(grids) -> np.ndarray:
    """Periodic cubic B-spline coefficients of a stack of n x n grids.

    Exact inversion of the node operator in Fourier space,
    irfft2(rfft2(a) / (lam_k lam_l)); lam_k >= 1/3, so the division is
    well conditioned.  Agrees with ``scipy.ndimage.spline_filter(order=3,
    mode="grid-wrap")`` to rounding.
    """
    n = grids.shape[-1]
    lam = _bspline_symbol(n)
    spec = np.fft.rfft2(grids)
    spec /= lam[:, None] * lam[: n // 2 + 1]
    return np.fft.irfft2(spec, s=(n, n))


def _spline_matrix(pts, n: int):
    """Periodic cubic B-spline evaluation on an n x n grid as a CSR matrix.

    Row m of the (M, n*n) result holds the 16 tap weights of point m
    against the row-major flattened coefficient grid, so ``S @ c.ravel()``
    is the spline with coefficients c at the points (grid node (i, j) sits
    at (i / n, j / n); any real coordinates, wrapped periodically).
    ``scipy.sparse`` is imported here, on first use, so that importing
    this module loads numpy only.
    """
    from scipy import sparse

    u = pts * n
    f = np.floor(u)
    w = _bspline_weights(u - f)  # (4, M, 2)
    wrap = (np.arange(n + 3) - 1) % n
    idx = wrap[(f.astype(np.intp) % n)[None] + np.arange(4)[:, None, None]]
    data = np.einsum("am,bm->mab", w[..., 0], w[..., 1], order="C").reshape(-1)
    rows = idx[..., 0].T.astype(np.int32) * np.int32(n)
    cols = (rows[:, :, None] + idx[..., 1].T.astype(np.int32)[:, None, :]).reshape(-1)
    m = pts.shape[0]
    indptr = np.arange(0, 16 * m + 1, 16, dtype=np.int32)
    return sparse.csr_matrix((data, cols, indptr), shape=(m, n * n))


class InterpolatedFlowMap(FlowMap):
    """Flow map for smooth fields: RK4 on a periodic grid plus periodic
    cubic-spline interpolation of the displacement and log-Jacobian.

    The displacement X(t, x) - x is smooth and periodic in x, so it
    interpolates cleanly across the torus seam; positions themselves
    would not.  ``prepare`` stores each time's spline coefficients of
    the two displacement channels and log J as the rows of one (3, n*n)
    table; the periodic prefilter is the exact inverse of the spline's
    node operator, applied in Fourier space with numpy's FFT
    (:func:`_spline_prefilter`).  A query is a sparse product with the
    points' tap-weight matrix (:func:`_spline_matrix`, which loads
    ``scipy.sparse`` on its first call); ``begin_batch`` builds
    that matrix once for a point set, and every time and channel queried
    on that very array reuses it (the identity check is safe for the
    reason given in :class:`ExactFlowMap`).  ``interpolation_error``
    integrates a pseudo-random sample of query points directly and
    reports the worst deviation, which the functionals fold into their
    reported error bounds.
    """

    def __init__(self, fld: PiecewiseField, cfg: FlowSolverConfig | None = None,
                 grid_n: int = 192):
        if fld.has_jumps:
            raise ValueError(
                "interpolated flow maps require a smooth field; "
                f"field {fld.id} has jump surfaces"
            )
        self.field = fld
        self.config = cfg or FlowSolverConfig()
        self.grid_n = grid_n
        axis = np.arange(grid_n) / grid_n
        self._grid = np.stack(
            np.meshgrid(axis, axis, indexing="ij"), axis=-1
        ).reshape(-1, 2)
        self._tables: dict = {}
        self._err_cache: dict = {}
        self._batch = None

    def prepare(self, times) -> None:
        """Integrate the grid ensemble through all requested times at once."""
        todo = sorted({round(float(t), 12) for t in times} - set(self._tables))
        if not todo:
            return
        ens = integrate_flow(self.field, self.config, self._grid, todo + [0.0])
        n = self.grid_n
        for t in todo:
            k = ens.time_index(t)
            disp = ens.displacements[k].reshape(n, n, 2)
            logj = ens.log_jacobian[k].reshape(n, n)
            grids = np.stack([disp[:, :, 0], disp[:, :, 1], logj])
            self._tables[t] = _spline_prefilter(grids).reshape(3, n * n)

    def _lookup(self, t: float):
        key = round(float(t), 12)
        if key not in self._tables:
            self.prepare([key])
        return self._tables[key]

    def begin_batch(self, pts) -> None:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        self._batch = (pts, _spline_matrix(pts, self.grid_n))

    def end_batch(self) -> None:
        self._batch = None

    def _matrix(self, pts):
        """The tap-weight matrix of pts: the batch's for that very array."""
        if self._batch is not None and self._batch[0] is pts:
            return self._batch[1]
        return _spline_matrix(np.atleast_2d(np.asarray(pts, dtype=float)), self.grid_n)

    def displacement(self, t: float, pts) -> np.ndarray:
        s, table = self._matrix(pts), self._lookup(t)
        return np.stack([s @ table[0], s @ table[1]], axis=-1)

    def log_jacobian(self, t: float, pts) -> np.ndarray:
        return self._matrix(pts) @ self._lookup(t)[2]

    def interpolation_error(self, t: float):
        """(max position error, max log J error) against direct integration
        of 128 points seeded with 7; memoized per time."""
        key = round(float(t), 12)
        cache = self._err_cache
        if key in cache:
            return cache[key]
        pts = np.random.default_rng(7).random((128, 2))
        ens = integrate_flow(self.field, self.config, pts, [0.0, t])
        k = ens.time_index(t)
        pos_err = np.max(
            np.linalg.norm(
                self.displacement(t, pts) - ens.displacements[k], axis=-1
            )
        )
        logj_err = np.max(np.abs(self.log_jacobian(t, pts) - ens.log_jacobian[k]))
        cache[key] = (float(pos_err), float(logj_err))
        return cache[key]


class DirectFlowMap(FlowMap):
    """Flow map that integrates the query points on demand with rk4_event.

    No interpolation: every call runs the solver from t = 0 on exactly
    the requested points, so the only error is the solver's.  Intended
    for x-grid-sized query sets (the L^1 discrepancy and Gronwall
    machinery); the pair-grid functionals use the interpolated map
    instead.  The last few (time, points) results are memoized, keyed on
    the time and the points' contents.
    """

    def __init__(self, fld: PiecewiseField, cfg: FlowSolverConfig | None = None):
        self.field = fld
        self.config = cfg or FlowSolverConfig()
        self._cache: dict = {}

    def _solve(self, t: float, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        key = (round(float(t), 12), pts.shape, pts.tobytes())
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        ens = integrate_flow(self.field, self.config, pts, [0.0, t])
        k = ens.time_index(t)
        out = (ens.displacements[k], ens.log_jacobian[k])
        if len(self._cache) > 12:
            self._cache.clear()
        self._cache[key] = out
        return out

    def displacement(self, t: float, pts) -> np.ndarray:
        return self._solve(t, pts)[0]

    def log_jacobian(self, t: float, pts) -> np.ndarray:
        return self._solve(t, pts)[1]


def make_flow_map(fld: PiecewiseField, cfg: FlowSolverConfig):
    """Build a flow map for the field.

    Strip fields always use the exact map (their flows are exact and
    interpolation across jumps would be wrong).  A smooth field uses the
    closed form under ``cfg.method == 'explicit_exact'`` (B has one, A
    has none and raises) and the interpolated numerical map otherwise.
    """
    if fld.has_jumps or cfg.method == "explicit_exact":
        return ExactFlowMap(fld)
    return InterpolatedFlowMap(fld, cfg)
