"""Catalog of explicit vector fields on the 2-torus with known derivative
structure.

Every field carries its smooth pieces (with closed-form Jacobians) and,
for the discontinuous ones, the full jump data of the singular part of
the derivative: for each jump surface the unit normal eta_b, the unit
jump direction xi_b, and the surface density sigma = |b+ - b-|, so that
the singular part is the rank-one measure (xi_b x eta_b) sigma dH.

The catalog is closed:

==  ==============================================  ============  =========================
id  formula                                          class         jump structure
==  ==============================================  ============  =========================
A   (-sin 2 pi x2, sin 2 pi x1)                      smooth        none (divergence free)
B   (sin 2 pi x1, 0)                                 smooth        none (div = 2 pi cos 2 pi x1)
C   (0, +1) / (0, -1) split at x1 = 1/2              bv            two lines, <xi, eta> = 0
D   C rebuilt on the level coordinate 2 x1 + x2      bv            two slanted closed lines
E   (+1, 0) / (-1, 0) split at x1 = 1/2              pathological  <xi, eta> = +-1 (atoms of div)
==  ==============================================  ============  =========================

Field D's jump direction is the rational direction (-1, 2)/sqrt(5)
(normal angle atan(1/2), about 26.6 degrees), the closest simple
rational-normal analogue of a 30-degree rotation of C: an irrational
normal would give a dense, non-closed jump set on the torus.

Points are arrays of shape (M, 2) in the vectorized entry points
(`eval_many`, `jacobian_many`, ...), which silently assign the piece by
strip membership (the jump set has measure zero under quadrature).  The
scalar entry points (`eval_b`, `grad_a`, `div_a`) instead raise
:class:`OnJumpError` within tolerance TAU_SIGMA of a surface, carrying
both one-sided traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .torus import QuadratureGrid, gauss_legendre, wrap_coords, wrap_half

__all__ = [
    "TAU_SIGMA",
    "FIELD_IDS",
    "JumpComponent",
    "Piece",
    "PiecewiseField",
    "OnJumpError",
    "NoJumpError",
    "get_field",
    "surface_quadrature",
    "total_jump_mass",
    "strip_frame",
    "strip_s_quadrature",
    "strip_points",
    "volume_quadrature",
    "distributional_divergence_check",
    "TrigPolynomial",
]

# Tolerance on the signed level value for "this point sits on the jump set".
TAU_SIGMA = 1e-12

FIELD_IDS = ("A", "B", "C", "D", "E")


class OnJumpError(ValueError):
    """A scalar evaluation landed on a jump surface (within TAU_SIGMA).

    Carries both one-sided traces so callers can implement their own
    convention.
    """

    def __init__(self, field_id, point, b_plus, b_minus):
        self.field_id = field_id
        self.point = np.asarray(point, dtype=float)
        self.b_plus = np.asarray(b_plus, dtype=float)
        self.b_minus = np.asarray(b_minus, dtype=float)
        super().__init__(
            f"field {field_id}: point {self.point.tolist()} lies on a jump surface; "
            f"one-sided values {self.b_plus.tolist()} / {self.b_minus.tolist()}"
        )


class NoJumpError(ValueError):
    """jump_data was asked at a point that is on no jump surface."""


@dataclass(frozen=True)
class JumpComponent:
    """One flat jump surface {x : <x, normal_int> = offset (mod 1)}.

    ``eta`` is the unit normal (normal_int normalized), ``xi`` the unit
    jump direction with the orientation fixed by
    xi = (b_plus - b_minus)/sigma, where b_plus is the trace from the
    side eta points into.  ``sigma`` = |b_plus - b_minus| is the density
    of |D^s b| with respect to surface measure.
    """

    normal_int: tuple
    offset: float
    eta: tuple
    xi: tuple
    sigma: float
    b_plus: tuple
    b_minus: tuple

    @property
    def length(self) -> float:
        """Length of the closed surface on the torus (= |normal_int|)."""
        return float(np.linalg.norm(self.normal_int))

    def level(self, points) -> np.ndarray:
        """Signed level value in [-1/2, 1/2); zero on the surface."""
        pts = np.asarray(points, dtype=float)
        return wrap_half(pts @ np.asarray(self.normal_int, dtype=float) - self.offset)

    def nodes(self, m: int) -> np.ndarray:
        """m uniformly spaced points along the surface (covers it once)."""
        n = np.asarray(self.normal_int, dtype=float)
        tangent = np.array([-n[1], n[0]]) / self.length
        base = self.offset * n / (self.length**2)
        t = (np.arange(m) + 0.5) * (self.length / m)
        return wrap_coords(base[None, :] + t[:, None] * tangent[None, :])


@dataclass(frozen=True)
class Piece:
    """A smooth piece: formula for b plus its closed-form Jacobian, and
    optionally the closed form of its divergence (by default the trace
    of the Jacobian)."""

    name: str
    b: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]
    div: Callable[[np.ndarray], np.ndarray] | None = None

    def divergence(self, pts) -> np.ndarray:
        """div b at each point, shape (M,)."""
        if self.div is not None:
            return self.div(pts)
        return np.trace(self.jacobian(pts), axis1=-2, axis2=-1)


@dataclass(frozen=True)
class PiecewiseField:
    """A cataloged vector field on the 2-torus.

    Smooth fields hold a single piece and no jumps.  Discontinuous fields
    are strip fields: the active piece at x is decided by the level
    coordinate s(x) = <x, strip_normal> mod 1 against ``strip_bounds``
    (piece k is active on s in [bounds[k], bounds[k+1]), cyclically).
    """

    id: str
    classification: str
    pieces: tuple
    jumps: tuple = ()
    strip_normal: tuple | None = None
    strip_bounds: tuple = ()

    # -- piece selection -------------------------------------------------

    def level_coordinate(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        n = np.asarray(self.strip_normal, dtype=float)
        return wrap_coords(pts @ n)

    def piece_index(self, points) -> np.ndarray:
        """Index of the active piece for each point (vectorized)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.strip_normal is None:
            return np.zeros(pts.shape[0], dtype=int)
        s = self.level_coordinate(pts)
        bounds = np.asarray(self.strip_bounds)
        # searchsorted against the k+1 upper bounds; s >= last bound wraps to piece 0
        idx = np.searchsorted(bounds, s, side="right") - 1
        idx = np.where(idx < 0, len(self.pieces) - 1, idx)
        idx = np.where(idx >= len(self.pieces), 0, idx)
        return idx

    # -- vectorized evaluation (quadrature path) -------------------------

    def _per_piece(self, points, fn, tails, idx=None):
        """The arrays fn(piece, pts) returns, evaluated on each point's
        piece; the k-th has shape (M, *tails[k]).

        ``idx`` gives each point's piece; by default the active one.  A
        single-piece field evaluates its piece on all points directly.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if len(self.pieces) == 1:
            return fn(self.pieces[0], pts)
        if idx is None:
            idx = self.piece_index(pts)
        outs = tuple(np.empty((pts.shape[0],) + tail) for tail in tails)
        for k, piece in enumerate(self.pieces):
            mask = idx == k
            if mask.any():
                for out, vals in zip(outs, fn(piece, pts[mask])):
                    out[mask] = vals
        return outs

    def eval_many(self, points) -> np.ndarray:
        """b at each point, shape (M, 2); jump set treated as measure zero."""
        return self._per_piece(points, lambda pc, p: (pc.b(p),), [(2,)])[0]

    def jacobian_many(self, points) -> np.ndarray:
        """Jacobian of the active piece at each point, shape (M, 2, 2)."""
        return self._per_piece(points, lambda pc, p: (pc.jacobian(p),), [(2, 2)])[0]

    def eval_with_divergence(self, points, piece=None):
        """(b, div^a b) at each point, shapes (M, 2) and (M,), from one
        piece selection.  ``piece`` (one index per point) evaluates those
        pieces' smooth extensions instead of the active ones."""
        return self._per_piece(points, lambda pc, p: (pc.b(p), pc.divergence(p)),
                               [(2,), ()], piece)

    def divergence_many(self, points) -> np.ndarray:
        """div^a b of the active piece at each point, shape (M,)."""
        return self._per_piece(points, lambda pc, p: (pc.divergence(p),), [()])[0]

    # -- scalar evaluation with on-jump signalling -----------------------

    def _on_jump(self, point):
        """Return the JumpComponent whose surface contains point, or None."""
        for jump in self.jumps:
            if abs(jump.level(np.asarray(point)[None, :])[0]) <= TAU_SIGMA:
                return jump
        return None

    def eval_b(self, point) -> np.ndarray:
        """b at a single point; raises OnJumpError within TAU_SIGMA of a jump."""
        pt = _point_array(point)
        jump = self._on_jump(pt)
        if jump is not None:
            raise OnJumpError(self.id, pt, jump.b_plus, jump.b_minus)
        return self.eval_many(pt[None, :])[0]

    def grad_a(self, point) -> np.ndarray:
        """Jacobian of the active smooth piece at a single point."""
        pt = _point_array(point)
        jump = self._on_jump(pt)
        if jump is not None:
            raise OnJumpError(self.id, pt, jump.b_plus, jump.b_minus)
        return self.jacobian_many(pt[None, :])[0]

    def div_a(self, point) -> float:
        """Trace of grad_a at a single point."""
        return float(np.trace(self.grad_a(point)))

    def jump_data(self, point):
        """(xi_b, eta_b, sigma) of the jump surface through point.

        Raises NoJumpError if the point is farther than TAU_SIGMA (in
        level value) from every surface.
        """
        pt = _point_array(point)
        jump = self._on_jump(pt)
        if jump is None:
            raise NoJumpError(
                f"field {self.id}: point {pt.tolist()} lies on no jump surface"
            )
        return (
            np.asarray(jump.xi, dtype=float),
            np.asarray(jump.eta, dtype=float),
            float(jump.sigma),
        )

    @property
    def has_jumps(self) -> bool:
        return len(self.jumps) > 0

    def singular_divergence_violation(self) -> float:
        """max |<xi, eta>| over jumps; nonzero flags div not in L^1."""
        if not self.jumps:
            return 0.0
        return max(
            abs(float(np.dot(j.xi, j.eta))) for j in self.jumps
        )


def _point_array(point) -> np.ndarray:
    if hasattr(point, "as_array"):
        return point.as_array()
    return np.asarray(point, dtype=float).reshape(-1)


# ---------------------------------------------------------------------------
# catalog construction
# ---------------------------------------------------------------------------

TWO_PI = 2.0 * math.pi


def _const_piece(name, value) -> Piece:
    vec = np.asarray(value, dtype=float)
    zero = np.zeros((2, 2))

    def b(pts):
        return np.broadcast_to(vec, pts.shape).copy()

    def jac(pts):
        return np.broadcast_to(zero, (pts.shape[0], 2, 2)).copy()

    def div(pts):
        return np.zeros(pts.shape[0])

    return Piece(name, b, jac, div)


def _field_a() -> PiecewiseField:
    def b(pts):
        return np.stack(
            [-np.sin(TWO_PI * pts[:, 1]), np.sin(TWO_PI * pts[:, 0])], axis=-1
        )

    def jac(pts):
        out = np.zeros((pts.shape[0], 2, 2))
        out[:, 0, 1] = -TWO_PI * np.cos(TWO_PI * pts[:, 1])
        out[:, 1, 0] = TWO_PI * np.cos(TWO_PI * pts[:, 0])
        return out

    def div(pts):
        return np.zeros(pts.shape[0])

    return PiecewiseField("A", "smooth", (Piece("cellular", b, jac, div),))


def _field_b() -> PiecewiseField:
    def b(pts):
        out = np.zeros_like(pts)
        out[:, 0] = np.sin(TWO_PI * pts[:, 0])
        return out

    def jac(pts):
        out = np.zeros((pts.shape[0], 2, 2))
        out[:, 0, 0] = TWO_PI * np.cos(TWO_PI * pts[:, 0])
        return out

    def div(pts):
        return TWO_PI * np.cos(TWO_PI * pts[:, 0])

    return PiecewiseField("B", "smooth", (Piece("compressive_smooth", b, jac, div),))


def _strip_field(fid, classification, normal_int, plus_value, minus_value):
    """Two-strip field: plus_value on s in (0, 1/2), minus_value on (1/2, 1).

    Jump data at each boundary follows the orientation convention
    xi = (b_plus - b_minus)/sigma with b_plus the trace from the side the
    normal points into (increasing s).
    """
    n = np.asarray(normal_int, dtype=float)
    eta = tuple(n / np.linalg.norm(n))
    plus_v = np.asarray(plus_value, dtype=float)
    minus_v = np.asarray(minus_value, dtype=float)

    def jump_at(offset, b_up, b_down):
        diff = np.asarray(b_up) - np.asarray(b_down)
        sigma = float(np.linalg.norm(diff))
        xi = tuple(diff / sigma)
        return JumpComponent(
            normal_int=tuple(int(v) for v in normal_int),
            offset=offset,
            eta=eta,
            xi=xi,
            sigma=sigma,
            b_plus=tuple(np.asarray(b_up, dtype=float)),
            b_minus=tuple(np.asarray(b_down, dtype=float)),
        )

    jumps = (
        # at s = 0: the side s > 0 carries plus_value, s < 1 side minus_value
        jump_at(0.0, plus_v, minus_v),
        jump_at(0.5, minus_v, plus_v),
    )
    pieces = (
        _const_piece("lower_strip", plus_v),
        _const_piece("upper_strip", minus_v),
    )
    return PiecewiseField(
        fid,
        classification,
        pieces,
        jumps,
        strip_normal=tuple(int(v) for v in normal_int),
        strip_bounds=(0.0, 0.5),
    )


def _field_c() -> PiecewiseField:
    return _strip_field("C", "bv", (1, 0), (0.0, 1.0), (0.0, -1.0))


def _field_d() -> PiecewiseField:
    tangent = np.array([-1.0, 2.0]) / math.sqrt(5.0)
    return _strip_field("D", "bv", (2, 1), tangent, -tangent)


def _field_e() -> PiecewiseField:
    return _strip_field("E", "pathological", (1, 0), (1.0, 0.0), (-1.0, 0.0))


_CATALOG = {
    "A": _field_a(),
    "B": _field_b(),
    "C": _field_c(),
    "D": _field_d(),
    "E": _field_e(),
}


def get_field(field_id: str) -> PiecewiseField:
    """Look up a catalog field by id (A..E)."""
    try:
        return _CATALOG[field_id]
    except KeyError:
        raise KeyError(
            f"unknown field id {field_id!r}; catalog ids are {', '.join(FIELD_IDS)}"
        ) from None


# ---------------------------------------------------------------------------
# surface quadrature and the distributional divergence check
# ---------------------------------------------------------------------------


def surface_quadrature(jump: JumpComponent, g, m: int = 256) -> float:
    """Integral of g * sigma over one jump surface.

    ``g`` receives the (m, 2) surface nodes and returns m values (or a
    constant).  Uniform nodes along the closed line; exact for constants,
    spectrally accurate for smooth g.
    """
    nodes = jump.nodes(m)
    values = np.asarray(g(nodes), dtype=float)
    if values.ndim == 0:
        values = np.full(m, float(values))
    return float(np.sum(values) * jump.sigma * jump.length / m)


def total_jump_mass(field: PiecewiseField) -> float:
    """|D^s b| of the whole torus: sum of sigma * length over jumps."""
    return sum(j.sigma * j.length for j in field.jumps)


@dataclass(frozen=True)
class TrigPolynomial:
    """Real trigonometric polynomial sum_k a_k cos(2 pi <k, x> + phase_k).

    ``terms`` is a sequence of (amplitude, (k1, k2), phase).  Used as the
    smooth periodic test function in distributional checks; the gradient
    is analytic.
    """

    terms: tuple

    def value(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.zeros(pts.shape[0])
        for amp, k, phase in self.terms:
            out += amp * np.cos(TWO_PI * (pts @ np.asarray(k, dtype=float)) + phase)
        return out

    def grad(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.zeros_like(pts)
        for amp, k, phase in self.terms:
            kv = np.asarray(k, dtype=float)
            s = np.sin(TWO_PI * (pts @ kv) + phase)
            out -= (amp * TWO_PI) * s[:, None] * kv[None, :]
        return out


def strip_frame(field: PiecewiseField):
    """(normal vector, |normal|, unit tangent) of a strip field's frame."""
    n = np.asarray(field.strip_normal, dtype=float)
    norm = float(np.linalg.norm(n))
    return n, norm, np.array([-n[1], n[0]]) / norm


def strip_s_quadrature(field: PiecewiseField, extra_breakpoints=(), nodes_per_panel: int = 24):
    """Gauss-Legendre panels in the level coordinate s over one period.

    Panels are split at the strip bounds and at any extra breakpoints
    (mod 1), so integrands that are smooth between those values are
    integrated without boundary error.  Returns (s_nodes, s_weights)
    with the weights summing to 1.
    """
    gl_x, gl_w = gauss_legendre(nodes_per_panel)
    cuts = sorted({float(b) % 1.0 for b in field.strip_bounds}
                  | {float(b) % 1.0 for b in extra_breakpoints})
    bounds = cuts + [cuts[0] + 1.0]
    s_nodes, s_wts = [], []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi - lo < 1e-15:
            continue
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        s_nodes.append(mid + half * gl_x)
        s_wts.append(half * gl_w)
    return np.concatenate(s_nodes), np.concatenate(s_wts)


def strip_points(field: PiecewiseField, s_nodes, tau_nodes):
    """Map (s, tau) pairs to torus points, shape (len(s), len(tau), 2).

    x(s, tau) = s n/|n|^2 + tau tangent; the volume element is
    ds dtau / |n| with tau running over [0, |n|).
    """
    n, norm, tangent = strip_frame(field)
    pts = (
        np.asarray(s_nodes)[:, None, None] * (n / norm**2)[None, None, :]
        + np.asarray(tau_nodes)[None, :, None] * tangent[None, None, :]
    )
    return wrap_coords(pts)


def volume_quadrature(field: PiecewiseField, n: int, nodes_per_panel: int = 24,
                      extra_breakpoints=()):
    """Quadrature (points (M, 2), weights (M,)) adapted to the field.

    Smooth fields get the cell-centered uniform torus grid.  Strip fields
    get per-strip Gauss-Legendre panels in the normal coordinate crossed
    with uniform tangential nodes, so piecewise-smooth integrands carry
    no jump-boundary error.
    """
    if field.strip_normal is None:
        pts = QuadratureGrid.torus(n).nodes
        return pts, np.full(pts.shape[0], 1.0 / n**2)
    _, norm, _ = strip_frame(field)
    s_nodes, s_wts = strip_s_quadrature(field, extra_breakpoints, nodes_per_panel)
    tau = (np.arange(n) + 0.5) * (norm / n)
    pts = strip_points(field, s_nodes, tau).reshape(-1, 2)
    wts = np.broadcast_to(s_wts[:, None] / n, (s_nodes.size, n)).reshape(-1)
    return pts, wts


def distributional_divergence_check(
    field: PiecewiseField, phi, n: int = 256
) -> float:
    """Residual of the distributional divergence identity.

    Returns  -int b . grad(phi) dx  -  int phi div^a b dx
             -  int_Sigma phi <xi_b, eta_b> sigma dH,
    which vanishes for every BV field; ``n`` sets the resolution.  Smooth
    fields use the uniform torus grid; strip fields use the field-adapted
    product quadrature so the piecewise-smooth volume integrands carry no
    jump-boundary error.
    """
    pts, wts = volume_quadrature(field, n)
    bvals = field.eval_many(pts)
    divs = field.divergence_many(pts)
    grad = phi.grad(pts)
    vals = phi.value(pts)
    residual = -float(np.sum(np.sum(bvals * grad, axis=1) * wts))
    residual -= float(np.sum(vals * divs * wts))
    for jump in field.jumps:
        pairing = float(np.dot(jump.xi, jump.eta))
        residual -= pairing * surface_quadrature(
            jump, lambda xs: phi.value(xs), m=max(n, 64)
        )
    return residual
