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
    bisection when it does not.  The trial step at the located fraction
    is the crossing step, kept rather than taken again.  Then come a
    transversality check of the one-sided traces and a restart on the
    receiving side with the rest of its time; the other points take
    their full steps.  Tangential or opposing traces raise
    :class:`NonTransversalCrossingError` (the trajectory would slide or
    split; for field E this is the expected outcome), and a trajectory
    with more than :data:`MAX_CROSSINGS` crossings raises
    :class:`RunawayTrajectoryError`.

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
and ``density`` and supplies a zero ``interpolation_error``.  The base
class also owns the one batch mechanism: ``begin_batch(pts, times)``
keeps the work a map shares across all queries on that point set and
those times (its ``_point_state``), and every query on that very array
reuses it until ``end_batch``.  The point set may be a
:class:`ShiftedGrid`, a tensor grid under several shifts, whose queries
pass its flat ``points``.
Three maps implement the protocol:
:class:`ExactFlowMap` (the closed forms), :class:`InterpolatedFlowMap`
(RK4 on a grid plus splines) and :class:`DirectFlowMap` (RK4 on the
query points).

Trajectories are independent and all operations are vectorized numpy
with fixed reduction order, so results are reproducible bit-for-bit.
"""

from __future__ import annotations

import logging
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import catalog
from .catalog import PiecewiseField
from .torus import torus_distance, torus_grid, wrap_coords, wrap_half

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
    "ShiftedGrid",
    "ExactFlowMap",
    "InterpolatedFlowMap",
    "DirectFlowMap",
    "make_flow_map",
    "MAX_CROSSINGS",
]

logger = logging.getLogger(__name__)

TWO_PI = 2.0 * np.pi
MAX_CROSSINGS = 1000  # per-trajectory crossing budget of rk4_event
SPLINE_ROW_BLOCK = 4096  # query points per tap-weight matrix of a spline product


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


class _BPrep(NamedTuple):
    """Field B's time-independent point state, with u = x1 mod 1."""

    u: np.ndarray
    tan_u: np.ndarray  # tan(pi u)
    upper: np.ndarray  # u > 1/2
    fixed: np.ndarray  # at a fixed point 0 or 1/2
    near_fixed: np.ndarray  # |sin(2 pi u)| < 1e-9, where the Jacobian uses its limit
    safe_s0: np.ndarray  # sin(2 pi u), 1 at the near-fixed points
    cos_sign: np.ndarray  # sign(cos(2 pi u))


def _exact_prep(fld: PiecewiseField, pts):
    """The time-independent part of a closed-form flow at ``pts`` (M, 2).

    B: a :class:`_BPrep`; C/D: each point's piece velocity; E:
    (left-of-interface mask, distance to the interface).
    :func:`_exact_disp` and :func:`_exact_logj` evaluate the flow from it
    at any time.
    """
    if fld.id == "B":
        return _b_prep(pts[:, 0])
    if fld.id in ("C", "D"):
        return fld.eval_many(wrap_coords(pts))
    if fld.id == "E":
        s = np.mod(pts[:, 0], 1.0)
        left = s < 0.5
        return left, np.where(left, 0.5 - s, s - 0.5)
    if fld.id == "A":
        raise ValueError("field A has no closed-form flow; use rk4_event")
    raise ValueError(f"no exact flow for field {fld.id!r}")


def _b_prep(x1):
    """Field B's :class:`_BPrep` at the first coordinates ``x1``; the
    flow never reads the second."""
    u = np.mod(x1, 1.0)
    # exact fixed points stay put (tan is finite garbage at 0.5 + eps scale)
    fixed = np.minimum(np.abs(u), np.minimum(np.abs(u - 0.5), np.abs(u - 1.0))) < 1e-14
    s0 = np.sin(TWO_PI * u)
    near_fixed = np.abs(s0) < 1e-9
    return _BPrep(u, np.tan(np.pi * u), u > 0.5, fixed, near_fixed,
                  np.where(near_fixed, 1.0, s0), np.sign(np.cos(TWO_PI * u)))


def _exact_b_x1(prep, t):
    """First coordinate of field B's flow; x2 is untouched.

    tan(pi x(t)) = tan(pi x(0)) exp(2 pi t) separately on (0, 1/2) and
    (1/2, 1); 0 and 1/2 are fixed points.
    """
    val = np.arctan(prep.tan_u * np.exp(TWO_PI * t)) / np.pi
    return np.where(prep.fixed, prep.u, np.where(prep.upper, 1.0 + val, val))


def _exact_e_forward(pts, t):
    if t < 0:
        raise NonTransversalCrossingError(
            "E", wrap_coords(pts[0]), "backward trajectories converge into the jump set"
        )


def _exact_disp(fld: PiecewiseField, prep, pts, t: float):
    """Unwrapped displacement X(t, x) - x of a closed-form flow; B's has
    one row per entry of its prep."""
    if fld.id in ("C", "D"):
        return t * prep
    if fld.id == "B":
        disp = np.zeros((prep.u.size, 2))
        # unwrapped: trajectories never leave their half-interval
        disp[:, 0] = _exact_b_x1(prep, t) - prep.u
        return disp
    _exact_e_forward(pts, t)
    disp = np.zeros_like(pts)
    left, hit = prep
    move = np.minimum(t, hit)
    disp[:, 0] = np.where(left, move, -move)
    return disp


def _exact_b_jacobian(prep, t):
    """Field B's Jacobian in two parts: (near-fixed mask, |sin(2 pi x(t)) /
    sin(2 pi x(0))| off the fixed points, log J = +-2 pi t at them)."""
    st = np.sin(TWO_PI * _exact_b_x1(prep, t))
    safe_st = np.where(prep.near_fixed, 1.0, st)
    return prep.near_fixed, np.abs(safe_st / prep.safe_s0), TWO_PI * t * prep.cos_sign


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


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def integrate_flow(fld: PiecewiseField, cfg: FlowSolverConfig, initial_points,
                   times) -> FlowEnsemble:
    """Integrate the flow of ``fld`` from each initial point.

    ``times`` must contain 0; they may come in any order and repeat.
    Every time is computed exactly as by a call with ``[0, t]`` alone, to
    the last bit, so a result never depends on which other times were
    asked with it.  Under ``rk4_event`` one march from 0 per direction
    serves all the times of that sign (:func:`_advance`).
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
        prep = _exact_prep(fld, pts0)
        for k, t in enumerate(times):
            displacements[k] = _exact_disp(fld, prep, pts0, float(t))
            positions[k] = wrap_coords(pts0 + displacements[k])
            log_jacobian[k] = _exact_logj(fld, prep, pts0, float(t))
        return FlowEnsemble(fld, cfg, pts0, times, positions, displacements, log_jacobian)

    y0 = _nudge_initial_points(fld, pts0.copy())
    positions[:] = wrap_coords(y0)
    displacements[:] = 0.0
    log_jacobian[:] = 0.0
    for sgn in (1.0, -1.0):
        ks = np.flatnonzero(sgn * times > 0)
        if ks.size:
            durations, inverse = np.unique(np.abs(times[ks]), return_inverse=True)
            y, logj = _advance(fld, cfg, y0, sgn * durations)
            displacements[ks] = y[inverse] - y0
            positions[ks] = wrap_coords(y[inverse])
            log_jacobian[ks] = logj[inverse]
    return FlowEnsemble(fld, cfg, pts0, times, positions, displacements, log_jacobian)


def _advance(fld, cfg, y, durations):
    """Advance the points ``y`` (M, 2) from time 0 by each of the signed
    ``durations``, which share one sign and are sorted by size.  Returns
    (y, log J) of shape (K, M, 2) and (K, M), one row per duration.

    Each duration gets exactly the steps a march to it alone would take.
    A lone march takes steps of sgn min(step, remaining) and subtracts the
    time each step uses from its remaining time.  So here every point
    keeps each pending target's remaining time and subtracts the same
    times.  While a point's nearest pending target is at least
    ``cfg.step`` away, every pending target takes the full step, and one
    shared step serves them all.  When it is not, the state is copied and
    the copy finishes that target on its own.

    Smooth fields do this with scalar remaining times, all points
    together.  On fields with jumps each point keeps its own remaining
    times, and each copy is one more row of the same rounds.  Every round
    tries a full mixed step of sgn min(step, remaining) for every row and
    screens it against every surface with two triggers: a sign change of
    the level value (ordinary crossing), and a "capture" where the step
    moves toward a surface within reach of it but makes almost no normal
    progress.  The latter is how an attractive (sliding) interface
    manifests under RK4, whose stages straddle the surface and cancel.
    Rows with no event accept the step; :func:`_cross` carries the others
    across and reports the time each one used, so no row waits for
    another.  A row that serves several targets reports the remaining
    time of its farthest one to :func:`_cross`, as the lone march to that
    target would.
    """
    k_count, m = len(durations), y.shape[0]
    sgn = 1.0 if durations[-1] > 0 else -1.0
    out_y = np.empty((k_count, m, 2))
    out_logj = np.empty((k_count, m))
    logj = np.zeros(m)
    if not fld.has_jumps:
        remaining = [abs(float(d)) for d in durations]
        k = 0
        while True:
            while k < k_count and remaining[k] < cfg.step:
                y_k, logj_k = y, logj
                if remaining[k] > 1e-13:
                    y_k, logj_k, _ = _rk4_step(fld, y, logj, sgn * remaining[k])
                out_y[k], out_logj[k] = y_k, logj_k
                k += 1
            if k == k_count:
                return out_y, out_logj
            y, logj, _ = _rk4_step(fld, y, logj, sgn * cfg.step)
            remaining = [r - cfg.step for r in remaining]
    normals = np.array([j.normal_int for j in fld.jumps], dtype=float)
    offsets = np.array([j.offset for j in fld.jumps])
    tol = catalog.TAU_SIGMA
    # one row per march: row r moves point pt[r] and serves its targets
    # lo[r] .. last[r], with rem[r, k] the time left to target k
    pt = np.arange(m)
    lo = np.zeros(m, dtype=np.intp)
    last = np.full(m, k_count - 1, dtype=np.intp)
    rem = np.tile(np.abs(durations), (m, 1))
    crossings = np.zeros(m, dtype=int)
    while True:
        while True:
            split = np.flatnonzero((lo < last) & (rem[np.arange(pt.size), lo] < cfg.step))
            if split.size == 0:
                break
            pt, y, logj, rem, crossings = (np.concatenate([a, a[split]])
                                           for a in (pt, y, logj, rem, crossings))
            last = np.concatenate([last, lo[split]])
            lo = np.concatenate([lo, lo[split]])
            lo[split] += 1
        near = rem[np.arange(pt.size), lo]
        done = near <= 1e-13
        if done.any():
            out_y[lo[done], pt[done]] = y[done]
            out_logj[lo[done], pt[done]] = logj[done]
            live = ~done
            pt, lo, last, rem, crossings, y, logj, near = (
                a[live] for a in (pt, lo, last, rem, crossings, y, logj, near))
        if pt.size == 0:
            return out_y, out_logj
        h = sgn * np.minimum(cfg.step, near)
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
                fld, y[hit], logj[hit], h[hit], rem[hit, last[hit]],
                normals[surf], offsets[surf],
            )
            crossings[hit] += 1
            if crossings[hit].max() > MAX_CROSSINGS:
                raise RunawayTrajectoryError(
                    f"field {fld.id}: trajectory exceeded {MAX_CROSSINGS} crossings"
                )
        y, logj = y_try, logj_try
        rem -= used[:, None]


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
    points still searching.  The located fraction is the upper end of
    the last bracket, so the trial step that set that end is the
    crossing step: it is kept rather than taken again, and a
    projection puts the point on the surface.  Both one-sided traces
    must carry it across at a normal speed above 1e-10; otherwise
    :class:`NonTransversalCrossingError` is raised for the failing point
    that meets its surface first (``left`` is each point's remaining time
    before the step).  The point is placed 2 TAU_SIGMA on the receiving
    side.  Returns (y, logj, time used).
    """
    tol = catalog.TAU_SIGMA
    nn = np.sum(n * n, axis=1)[:, None]
    pieces = fld.piece_index(wrap_coords(y))

    def level(z, i=slice(None)):
        return wrap_half(np.sum(z * n[i], axis=1) - off[i])

    def pinned_step(frac, i=slice(None)):
        """(y, log J, level) after the step of h[i] frac on the pieces being left."""
        y_s, logj_s, _ = _rk4_step(fld, y[i], logj[i], h[i] * frac, pieces[i])
        return y_s, logj_s, level(y_s, i)

    fa = level(y)
    lo, hi = np.zeros(y.shape[0]), np.ones(y.shape[0])
    y_hi, logj_hi, fhi = pinned_step(1.0)  # the step to each point's hi
    flo = fa.copy()
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
        y_m, logj_m, fm = pinned_step(frac, idx)
        on = np.abs(fm) <= tol
        reached = on | (np.sign(fm) != np.sign(fa[idx]))
        # Illinois: an end kept a second time in a row has its value halved
        flo[idx] = np.where(reached, np.where(kept[idx] > 0, 0.5 * fl, fl), fm)
        fhi[idx] = np.where(reached, fm, np.where(kept[idx] < 0, 0.5 * fu, fu))
        lo[idx] = np.where(reached, a, frac)
        hi[idx] = np.where(reached, frac, b)
        y_hi[idx[reached]] = y_m[reached]
        logj_hi[idx[reached]] = logj_m[reached]
        kept[idx] = np.where(reached, 1.0, -1.0)
        searching[idx] = ~on
    direction = np.sign(-fa)[:, None]
    x_surf = y_hi - level(y_hi)[:, None] * n / nn
    probe = direction * (2.0 * tol) * n / nn
    sides = fld.eval_many(wrap_coords(np.concatenate([x_surf - probe, x_surf + probe])))
    bn_from, bn_to = np.sum(sides.reshape(2, -1, 2) * n, axis=2)
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
    return x_surf + probe, logj_hi, used


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
    centers = torus_grid(bins)
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

    The trajectory is re-integrated at ceil(|t| / step) + 1 equally
    spaced times, at most one step apart, and the integral evaluated by
    the trapezoid rule in s.
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


class ShiftedGrid:
    """A tensor grid translated by each of q shifts, as one point set.

    ``axis0`` (n0,) and ``axis1`` (n1,) span the grid and ``shifts`` is
    (q, 2).  ``points`` is the flat (q * n0 * n1, 2) array, ordered by
    shift, then by axis0, then by axis1: point (k, i, j) is
    (axis0[i] + shifts[k, 0], axis1[j] + shifts[k, 1]).  These are the
    y-points x + eps z of a pair sweep over a uniform x-grid.
    """

    def __init__(self, axis0, axis1, shifts):
        self.axis0, self.axis1, self.shifts = axis0, axis1, shifts
        points = np.empty((shifts.shape[0], axis0.size, axis1.size, 2))
        points[..., 0] = axis0[:, None] + shifts[:, None, None, 0]
        points[..., 1] = axis1 + shifts[:, None, None, 1]
        self.points = points.reshape(-1, 2)


class FlowMap(ABC):
    """The flow-map protocol the functionals consume.

    A subclass implements ``displacement`` (the unwrapped X(t, x) - x)
    and ``log_jacobian``; ``position`` and ``density`` follow from them.
    ``begin_batch(pts, times=())`` / ``end_batch`` bracket many queries
    on one point set, optionally naming the times that will be asked of
    it: the batch keeps that set's ``_point_state``, the work those times
    and every channel share (none here), and :meth:`_state` hands it to
    each query that passes that very array.  The identity check is safe
    because the batch holds a reference to the array, so its id cannot
    be reused while the batch is open.  The point set may also be a
    :class:`ShiftedGrid`; its queries pass ``grid.points``, and they get
    the same bits as on that flat array.  A map that can use the grid's
    structure builds its state in ``_grid_state``; by default that is the
    point state of ``grid.points``.  A map with an approximation error
    reports it through ``interpolation_error``.

    A map of a strip field must commute with translation along the strip
    tangent e: X(t, x + tau e) = X(t, x) + tau e, with the same log J.
    The functionals rely on it and lay one tangential node on their strip
    x-grids (:func:`bvflow.functionals._tangent_invariant`).
    """

    _batch = None  # (pts, its point state) while a batch is open

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

    def begin_batch(self, pts, times=()) -> None:
        if isinstance(pts, ShiftedGrid):
            self._batch = (pts.points, self._grid_state(pts, times))
            return
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        self._batch = (pts, self._point_state(pts, times))

    def end_batch(self) -> None:
        self._batch = None

    def _point_state(self, pts, times):
        """The work shared by queries at ``pts`` (M, 2), among them those
        at ``times``."""
        return None

    def _grid_state(self, grid, times):
        """The point state of a :class:`ShiftedGrid`'s points."""
        return self._point_state(grid.points, times)

    def _state(self, pts):
        """(pts as an (M, 2) float array, its point state): the open
        batch's for that very array, else built afresh."""
        if self._batch is not None and self._batch[0] is pts:
            return self._batch
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return pts, self._point_state(pts, ())

    def _solve(self, t: float, pts):
        """(displacement, log J) at time t, for a map whose point state is
        {t: (displacement, log J)} over the batch's times: a time not in
        the state is solved into it on its first query."""
        pts, solved = self._state(pts)
        t = float(t)
        if t not in solved:
            solved.update(self._point_state(pts, [t]))
        return solved[t]

    def interpolation_error(self, t: float):
        """(max position error, max log J error) of the map at time t."""
        return 0.0, 0.0


def _per_point(values, repeat):
    """Per-line values repeated over the ``repeat`` points of each grid
    line (``repeat`` None: the values are per point already)."""
    return values if repeat is None else np.repeat(values, repeat, axis=0)


class ExactFlowMap(FlowMap):
    """Closed-form flow map; supports fields B, C, D and E (forward).

    The point state is the time-independent part of the closed form
    (:func:`_exact_prep`), so a batch lets the quadrature engines sweep
    many times over one point set cheaply; it ignores the batch's times.
    B's flow moves x1 alone, so on a :class:`ShiftedGrid` its state is
    the prep of the q * n0 grid lines x1 = axis0 + shift0, and a query
    evaluates the closed form once per line and repeats it over the
    line's n1 points.

    On a strip field the closed form depends on x through the level
    s(x) alone, so the map commutes with tangential translation exactly
    (up to the rounding of s).
    """

    def __init__(self, fld: PiecewiseField):
        if fld.id == "A":
            raise ValueError("field A has no closed-form flow map")
        self.field = fld

    def _point_state(self, pts, times):
        """(closed-form prep, repeat): ``repeat`` is the number of points
        each prep entry stands for, None when there is one entry per
        point."""
        return _exact_prep(self.field, pts), None

    def _grid_state(self, grid, times):
        if self.field.id != "B":
            return super()._grid_state(grid, times)
        return _b_prep((grid.axis0 + grid.shifts[:, :1]).reshape(-1)), grid.axis1.size

    def displacement(self, t: float, pts) -> np.ndarray:
        pts, (prep, repeat) = self._state(pts)
        return _per_point(_exact_disp(self.field, prep, pts, t), repeat)

    def log_jacobian(self, t: float, pts) -> np.ndarray:
        pts, (prep, repeat) = self._state(pts)
        return _per_point(_exact_logj(self.field, prep, pts, t), repeat)

    def density(self, t: float, pts) -> np.ndarray:
        """mu(t, .); identically 1 for the piecewise translations C and D,
        and B's Jacobian ratio itself rather than exp(log J)."""
        if self.field.id in ("C", "D"):
            return np.ones(np.atleast_2d(pts).shape[0])
        if self.field.id == "B":
            prep, repeat = self._state(pts)[1]
            near_fixed, ratio, at_fixed = _exact_b_jacobian(prep, t)
            return _per_point(np.where(near_fixed, np.exp(at_fixed), ratio), repeat)
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


def _spline_values(pts, n: int, columns) -> np.ndarray:
    """The splines whose coefficient grids are the columns of ``columns``
    (n*n, C), at ``pts`` (M, 2): an (M, C) array.

    One sparse product per block of :data:`SPLINE_ROW_BLOCK` points, so
    only one block's tap-weight matrix is alive at a time.  Each row is
    its own sum over its 16 taps, in tap order, so the blocks and the
    number of columns change no bit of any value.
    """
    out = np.empty((pts.shape[0], columns.shape[1]))
    for lo in range(0, pts.shape[0], SPLINE_ROW_BLOCK):
        hi = lo + SPLINE_ROW_BLOCK
        out[lo:hi] = _spline_matrix(pts[lo:hi], n) @ columns
    return out


class InterpolatedFlowMap(FlowMap):
    """Flow map for smooth fields: RK4 on a periodic grid plus periodic
    cubic-spline interpolation of the displacement and log-Jacobian.

    The displacement X(t, x) - x is smooth and periodic in x, so it
    interpolates cleanly across the torus seam; positions themselves
    would not.  ``prepare`` stores each time's spline coefficients of
    the two displacement channels and log J as the rows of one (3, n*n)
    table.  The grid is integrated through all requested times in one
    call of :func:`integrate_flow`, which computes each time as a solve
    for it alone would, so a table is a function of its t only.  A batch
    prepares the times it names that have no table yet, so a pair sweep's
    times come from one such call.  The periodic prefilter is the exact
    inverse of the spline's node operator, applied in Fourier space with
    numpy's FFT (:func:`_spline_prefilter`).

    A query is a sparse product with the points' tap-weight matrix
    (:func:`_spline_matrix`, which loads ``scipy.sparse`` on its first
    call).  A batch that names its times evaluates all of them in one
    product: the tables of those times stacked as the columns of one
    (n*n, 3 K) array, taken block by block over the points
    (:func:`_spline_values`).  Its point state is each time's
    (displacement, log J), views into that one (M, 3 K) result, which
    the queries return as they are.  The stacked table of the last times
    evaluated is kept, so the chunks of a pair sweep, which all name the
    sweep's times, build it once.  A time outside the batch, and any
    query outside one, takes the same product for that time alone; the
    values are the same bits either way.  A :class:`ShiftedGrid` batch
    is evaluated at its points.  ``interpolation_error`` integrates a
    pseudo-random sample of query points directly and reports the worst
    deviation, which the functionals fold into their reported error
    bounds.
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
        self._stacked = ((), None)  # (times, their tables as (n*n, 3 K) columns)
        self._err_cache: dict = {}

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
        return self._tables[round(float(t), 12)]

    def _point_state(self, pts, times):
        """{t: (displacement, log J)} at ``pts`` for each of ``times``,
        from one product with their stacked tables; the times without a
        table are prepared first, in one call."""
        times = tuple(dict.fromkeys(float(t) for t in times))
        if not times:
            return {}
        if self._stacked[0] != times:
            self.prepare(times)
            tables = np.concatenate([self._lookup(t) for t in times])
            self._stacked = (times, tables.T.copy())
        vals = _spline_values(pts, self.grid_n, self._stacked[1])
        return {t: (vals[:, 3 * k : 3 * k + 2], vals[:, 3 * k + 2])
                for k, t in enumerate(times)}

    def displacement(self, t: float, pts) -> np.ndarray:
        return self._solve(t, pts)[0]

    def log_jacobian(self, t: float, pts) -> np.ndarray:
        return self._solve(t, pts)[1]

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
    instead.  Nothing is kept between calls, except inside a batch: its
    point state holds the solutions of all the batch's times, from one
    :func:`integrate_flow` call, and of any other time queried in it, so
    a time's displacement and log J come from one solve.  Outside a batch
    each call solves its one time.  Every time's solution is the same to
    the last bit whichever way it was solved.

    A strip field's RK4 steps and crossings depend on x through the
    level s(x) alone, so the map commutes with tangential translation up
    to rounding.
    """

    def __init__(self, fld: PiecewiseField, cfg: FlowSolverConfig | None = None):
        self.field = fld
        self.config = cfg or FlowSolverConfig()

    def _point_state(self, pts, times):
        """{t: (displacement, log J)} for each of ``times`` (and 0)."""
        if len(times) == 0:
            return {}
        ens = integrate_flow(self.field, self.config, pts, [0.0, *times])
        return {float(t): (disp, logj) for t, disp, logj
                in zip(ens.times, ens.displacements, ens.log_jacobian)}

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
