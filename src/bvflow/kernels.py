"""Anisotropic position-dependent mollifiers.

The kernel family is

    rho(x, z) = F0(|U(x) z|^2) det U(x),      U(x) = Id + gamma eta(x) (x) eta(x),

with F0 a nonnegative bump supported on [0, 1) and normalized so that
the integral of F0(|z|^2) over R^N is one.  The determinant factor makes
int rho(x, z) dz = 1 for every x regardless of gamma and eta(x): the
squeeze by 1/(1+gamma) along eta is exactly compensated.  The support of
rho(x, .) is the ellipsoid |U(x) z| < 1, so

    B(0, 1/(1+gamma))  subset  supp rho(x, .)  subset  B(0, 1).

Two bump profiles are provided.  ``smooth_exp`` is C-infinity
(exp(-1/(1-s))); ``poly_bump`` is the cheaper C^3 bump (1-s)^4, smooth
enough for every quadrature in this package.  The normalization constant
is computed once per (profile, dimension) from the exact radial
reduction of the volume integral and cached; the tensor-grid quadrature
of rho is kept as an independent oracle in the test suite.

Direction fields supply eta(x) together with its analytic Jacobian:
either a constant unit vector, or a unit field obtained by smoothly
modulating the jump normal of a catalog field.  The catalog's exact jump
normals are globally constant, so a literal mollification of eta_b would
be constant too; the modulated kind exists to dial the misalignment
|eta - eta_b| deliberately (and to exercise the x-derivative of rho).

The kernel's values and gradients take points x (..., dim) and offsets
z (..., dim) whose leading axes broadcast against each other, so P
points against q offsets (z shaped (q, 1, dim)) give (q, P) planes with
eta evaluated once per point; see :meth:`AnisotropicKernel.rho`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catalog import PiecewiseField
from .torus import gauss_legendre

__all__ = [
    "BumpProfile",
    "DirectionField",
    "AnisotropicKernel",
    "smooth_exp",
    "poly_bump",
    "PROFILES",
]

# (tag, dim) -> normalization constant; tests may patch entries to break
# normalization deliberately.
_NORM_CACHE: dict = {}

# Order of the Gauss-Legendre rule for the radial normalization integral.
NORM_ORDER = 256


def _sphere_area(dim: int) -> float:
    """Surface area of the unit sphere S^(dim-1) in R^dim."""
    return 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)


@dataclass(frozen=True)
class BumpProfile:
    """Radial bump profile F0(s) = c * core(s), supported on s in [0, 1)."""

    tag: str

    def core(self, s) -> np.ndarray:
        """Unnormalized profile as a function of s = |z|^2."""
        s = np.asarray(s, dtype=float)
        inside = s < 1.0
        out = np.zeros_like(s)
        if self.tag == "smooth_exp":
            with np.errstate(divide="ignore", over="ignore"):
                vals = np.exp(-1.0 / np.maximum(1.0 - s, 1e-300))
            out = np.where(inside, vals, 0.0)
        elif self.tag == "poly_bump":
            out = np.where(inside, np.maximum(1.0 - s, 0.0) ** 4, 0.0)
        else:
            raise ValueError(f"unknown profile tag {self.tag!r}")
        return out

    def core_prime(self, s) -> np.ndarray:
        """Derivative of the unnormalized profile with respect to s."""
        s = np.asarray(s, dtype=float)
        inside = s < 1.0
        if self.tag == "smooth_exp":
            # 1 - s >= 2^-53 inside the support; outside, a stand-in 1
            # keeps the masked branch free of 0/0
            one_minus = np.where(inside, 1.0 - s, 1.0)
            vals = -np.exp(-1.0 / one_minus) / one_minus**2
            return np.where(inside, vals, 0.0)
        if self.tag == "poly_bump":
            return np.where(inside, -4.0 * np.maximum(1.0 - s, 0.0) ** 3, 0.0)
        raise ValueError(f"unknown profile tag {self.tag!r}")

    def normalization(self, dim: int) -> float:
        """c such that int_{R^dim} c * core(|z|^2) dz = 1.

        Radial reduction: the volume integral equals
        S_{dim-1} int_0^1 core(r^2) r^(dim-1) dr, computed with the
        memoized Gauss-Legendre rule of order :data:`NORM_ORDER` mapped to
        [0, 1].  ``poly_bump``'s integrand is a polynomial of degree
        dim + 7, which the rule integrates exactly; ``smooth_exp``'s is
        C-infinity with all derivatives vanishing at r = 1, and the rule
        agrees with adaptive quadrature to below 1e-15 relative.
        """
        key = (self.tag, dim)
        if key not in _NORM_CACHE:
            x, w = gauss_legendre(NORM_ORDER)
            r = 0.5 * (x + 1.0)
            radial = 0.5 * np.sum(w * self.core(r * r) * r ** (dim - 1))
            _NORM_CACHE[key] = float(1.0 / (_sphere_area(dim) * radial))
        return _NORM_CACHE[key]

    def f0(self, s, dim: int) -> np.ndarray:
        """Normalized profile F0(s)."""
        return self.normalization(dim) * self.core(s)

    def f0_prime(self, s, dim: int) -> np.ndarray:
        """F0'(s)."""
        return self.normalization(dim) * self.core_prime(s)


smooth_exp = BumpProfile("smooth_exp")
poly_bump = BumpProfile("poly_bump")
PROFILES = {"smooth_exp": smooth_exp, "poly_bump": poly_bump}


@dataclass(frozen=True)
class DirectionField:
    """Unit direction field eta(x) with analytic Jacobian D eta(x).

    kind "constant": eta is a fixed unit vector, D eta = 0.

    kind "mollified_normal": eta(x) = (cos theta(x), sin theta(x)) with
    theta(x) = theta_b + width * sin(2 pi <x, tangent_int>), where
    theta_b is the angle of the source field's jump normal and
    tangent_int the integer tangent of its jump surfaces.  width = 0
    reproduces the exact normal; small width dials |eta - eta_b| ~ width
    on the jump set.  Two-dimensional only (like the catalog).
    """

    kind: str
    vector: tuple = ()
    base_angle: float = 0.0
    tangent_int: tuple = ()
    width: float = 0.0

    @classmethod
    def constant(cls, vector) -> "DirectionField":
        v = np.asarray(vector, dtype=float)
        norm = np.linalg.norm(v)
        if not 0.0 < norm < np.inf:
            raise ValueError("direction vector must be finite and nonzero")
        return cls(kind="constant", vector=tuple(v / norm))

    @classmethod
    def mollified_normal(cls, source: PiecewiseField, width: float) -> "DirectionField":
        if not math.isfinite(width):
            raise ValueError("width must be finite")
        if not source.jumps:
            raise ValueError(
                f"field {source.id} has no jump surfaces to take a normal from"
            )
        eta_b = np.asarray(source.jumps[0].eta, dtype=float)
        n = np.asarray(source.jumps[0].normal_int, dtype=float)
        tangent_int = (-int(n[1]), int(n[0]))
        return cls(
            kind="mollified_normal",
            base_angle=float(math.atan2(eta_b[1], eta_b[0])),
            tangent_int=tangent_int,
            width=float(width),
        )

    @property
    def is_constant(self) -> bool:
        return self.kind == "constant"

    def _theta(self, pts: np.ndarray) -> np.ndarray:
        tv = np.asarray(self.tangent_int, dtype=float)
        return self.base_angle + self.width * np.sin(2.0 * math.pi * (pts @ tv))

    def eta(self, points) -> np.ndarray:
        """eta at each point: shape (..., 2) for (..., 2) points, (1, 2) for
        one point (2,) (the constant kind broadcasts)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.is_constant:
            return np.broadcast_to(np.asarray(self.vector), pts.shape).copy()
        th = self._theta(pts)
        return np.stack([np.cos(th), np.sin(th)], axis=-1)

    def d_eta(self, points) -> np.ndarray:
        """Jacobian D eta, shape (..., 2, 2) for (..., 2) points; zero for
        the constant kind."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.is_constant:
            return np.zeros(pts.shape + (2,))
        th = self._theta(pts)
        tv = np.asarray(self.tangent_int, dtype=float)
        dtheta = (
            self.width
            * 2.0
            * math.pi
            * np.cos(2.0 * math.pi * (pts @ tv))[..., None]
            * tv
        )  # (..., 2): gradient of theta
        eta_perp = np.stack([-np.sin(th), np.cos(th)], axis=-1)  # d eta / d theta
        return eta_perp[..., :, None] * dtheta[..., None, :]


@dataclass(frozen=True)
class AnisotropicKernel:
    """rho(x, z) = F0(|U(x) z|^2) det U(x) with U = Id + gamma eta (x) eta."""

    profile: BumpProfile
    eta: DirectionField
    gamma: float
    dim: int = 2

    def __post_init__(self):
        if not 0.0 <= self.gamma < math.inf:
            raise ValueError("gamma must be finite and nonnegative")
        if self.eta.is_constant and len(self.eta.vector) != self.dim:
            raise ValueError(
                f"direction vector has dimension {len(self.eta.vector)}, "
                f"kernel has {self.dim}"
            )

    @property
    def det_u(self) -> float:
        """det U = 1 + gamma (one stretched eigenvalue, the rest are 1)."""
        return 1.0 + self.gamma

    def _eta_x(self, x) -> np.ndarray:
        """eta at the points x (..., dim); for a constant direction x may
        be None, and eta is then the (dim,) vector."""
        if self.eta.is_constant:
            e = np.asarray(self.eta.vector, dtype=float)
            return e if x is None else np.broadcast_to(e, np.shape(x))
        if x is None:
            raise ValueError("position-dependent eta needs x")
        return self.eta.eta(x)

    def u_matrix(self, x=None):
        """(U, U_inv, det U) at x; U has shape (M, dim, dim) for (M, dim) x.

        For a constant direction x may be None, and U is then (1, dim, dim).
        """
        e = np.atleast_2d(self._eta_x(x))
        eye = np.eye(self.dim)
        outer = e[:, :, None] * e[:, None, :]
        u = eye[None, :, :] + self.gamma * outer
        u_inv = eye[None, :, :] - (self.gamma / (1.0 + self.gamma)) * outer
        return u, u_inv, self.det_u

    def _prelude(self, x, z):
        """(z, eta, <eta, z>, |U z|^2), the factors rho and both of its
        gradients share, with x broadcast against z (see :meth:`rho`)."""
        z = np.atleast_2d(np.asarray(z, dtype=float))
        e = self._eta_x(x)
        # a sum over the components, which for (q, P) planes is several
        # times faster than np.sum over a last axis of length dim
        ez = sum(e[..., i] * z[..., i] for i in range(self.dim))
        uz_sq = np.sum(z * z, axis=-1) + (2.0 * self.gamma + self.gamma**2) * ez**2
        return z, e, ez, uz_sq

    def rho(self, x, z) -> np.ndarray:
        """Kernel values at the pairs (x, z).

        x is (..., dim), or None for a constant direction field; z is
        (..., dim).  The leading axes of x and z broadcast as numpy arrays
        do, and the result has their broadcast shape: (M, dim) against
        (M, dim) pairs row by row, and (P, dim) against (q, 1, dim) gives
        the (q, P) plane of every x against every z.  eta(x) is evaluated
        once per row of x.  ``d2_rho`` and ``d1_rho`` follow the same rule,
        with a trailing axis of length dim.
        """
        _, _, _, uz_sq = self._prelude(x, z)
        return self.profile.f0(uz_sq, self.dim) * self.det_u

    def d2_rho(self, x, z) -> np.ndarray:
        """Gradient of rho in z:  2 F0'(|Uz|^2) U^2 z det U."""
        z, e, ez, uz_sq = self._prelude(x, z)
        u2z = z + (2.0 * self.gamma + self.gamma**2) * ez[..., None] * e
        coeff = 2.0 * self.profile.f0_prime(uz_sq, self.dim) * self.det_u
        return coeff[..., None] * u2z

    def d1_rho(self, x, z) -> np.ndarray:
        """Gradient of rho in x (through eta(x)); zero for constant eta.

        With gamma spatially constant, det U does not depend on x and

            d1 rho = F0'(|Uz|^2) det U * gamma (2 + gamma)
                     * 2 <eta, z> (D eta)^T z.
        """
        z, e, ez, uz_sq = self._prelude(x, z)
        if self.eta.is_constant:
            return np.zeros(np.broadcast_shapes(e.shape, z.shape))
        de = self.eta.d_eta(x)  # (..., dim, dim), de[..., i, j] = d eta_i / d x_j
        # (D eta)^T z, written out for the two dimensions a variable eta has
        det_z = z[..., :1] * de[..., 0, :] + z[..., 1:] * de[..., 1, :]
        coeff = (
            self.profile.f0_prime(uz_sq, self.dim)
            * self.det_u
            * self.gamma
            * (2.0 + self.gamma)
            * 2.0
            * ez
        )
        return coeff[..., None] * det_z

    def support_bounds(self) -> tuple:
        """(inner radius, outer radius) of supp rho(x, .)."""
        return (1.0 / (1.0 + self.gamma), 1.0)

    def z_quadrature(self, x=None, n: int = 64, rule: str = "midpoint"):
        """Support-adapted quadrature for integrals over z.

        Nodes are the image under U(x)^{-1} of a grid on the unit ball
        in w-space (the w = U z substitution), with weights divided by
        det U, so the thin direction of the ellipsoid stays fully
        resolved at any gamma.  Rules:

        midpoint   cell-centered tensor grid on [-1, 1]^dim, nodes with
                   |w| >= 1 dropped (rho vanishes there); the uniform
                   spacing is what the strip-field pair quadrature
                   exploits to batch equal level shifts
        gauss      tensor Gauss-Legendre on the box, same masking
        polar      (dim = 2) Gauss-Legendre in radius times a uniform
                   angular grid; the integrand of any smooth-profile
                   moment is smooth on this chart, so there is no
                   disk-boundary cut error -- use it for identities that
                   must hold to near machine precision

        Returns (nodes (Q, dim), weights (Q,)).
        """
        if rule == "polar":
            if self.dim != 2:
                raise ValueError("polar rule is two-dimensional")
            gl_x, gl_w = gauss_legendre(n)
            r = 0.5 * (gl_x + 1.0)
            rw = 0.5 * gl_w * r  # radial Jacobian
            m = 2 * n
            theta = (np.arange(m) + 0.5) * (2.0 * np.pi / m)
            w = np.stack(
                [
                    (r[:, None] * np.cos(theta)[None, :]).ravel(),
                    (r[:, None] * np.sin(theta)[None, :]).ravel(),
                ],
                axis=-1,
            )
            wts = (rw[:, None] * np.full(m, 2.0 * np.pi / m)[None, :]).ravel()
        else:
            if rule == "midpoint":
                axis = -1.0 + (np.arange(n) + 0.5) * (2.0 / n)
                wts1 = np.full(n, 2.0 / n)
            elif rule == "gauss":
                axis, wts1 = gauss_legendre(n)
            else:
                raise ValueError(f"unknown quadrature rule {rule!r}")
            mesh = np.meshgrid(*([axis] * self.dim), indexing="ij")
            w = np.stack(mesh, axis=-1).reshape(-1, self.dim)
            wmesh = np.meshgrid(*([wts1] * self.dim), indexing="ij")
            wts = np.prod(np.stack(wmesh, axis=-1).reshape(-1, self.dim), axis=-1)
            keep = np.sum(w * w, axis=-1) < 1.0
            w, wts = w[keep], wts[keep]
            if not self.eta.is_constant and x is None:
                # no single U(x): integrate in z directly over the unit ball,
                # which contains supp rho(x, .) for every x.  Adequate
                # resolution is then the caller's concern (moderate gamma).
                return w, wts
        e = self._eta_x(x).reshape(self.dim)
        ew = w @ e
        z = w - (self.gamma / (1.0 + self.gamma)) * ew[:, None] * e[None, :]
        return z, wts / self.det_u
