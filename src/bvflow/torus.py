"""Geometry and quadrature primitives on the flat N-torus [0, 1)^N.

Positions live in [0, 1)^N with periodic identification; difference
vectors are reduced to the minimal periodic image in [-1/2, 1/2)^N.
Quadrature is plain tensor-grid summation with uniform weights, which is
spectrally accurate for smooth periodic integrands.  Torus grids place
nodes at cell centers (i + 1/2)/n so that no node ever falls on the
axis-aligned or rational-direction jump surfaces used by the field
catalog (those sit on cell boundaries for even n).

All reductions use ``np.sum`` on arrays in C order, which is pairwise and
deterministic, so repeated runs are bit-identical regardless of how the
caller parallelizes the surrounding work.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TorusPoint",
    "Displacement",
    "QuadratureGrid",
    "QuadratureError",
    "wrap",
    "wrap_coords",
    "wrap_half",
    "min_image",
    "min_image_coords",
    "torus_distance",
    "integrate",
    "gauss_legendre",
]


class QuadratureError(ValueError):
    """Raised when an integrand evaluates to NaN at a quadrature node."""

    def __init__(self, node_index, node):
        self.node_index = int(node_index)
        self.node = np.asarray(node)
        super().__init__(
            f"integrand is NaN at node {self.node_index} = {self.node.tolist()}"
        )


def wrap_coords(raw) -> np.ndarray:
    """Reduce coordinates modulo 1 into [0, 1), elementwise.

    Accepts any array shape.  Rejects non-finite input.  Computes
    x - floor(x), which for finite x is bit-identical to
    ``np.mod(x, 1.0)`` (both round the exact x - floor(x) once, and both
    map -0.0 to +0.0) and several times faster.  Guards the IEEE edge
    case where that rounds up to exactly 1.0 for tiny negative x.
    """
    arr = np.asarray(raw, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("cannot wrap non-finite coordinates")
    out = np.floor(arr, out=np.empty_like(arr))
    np.subtract(arr, out, out=out)
    # -1e-17 - floor(-1e-17) == 1.0 in float64; fold back to 0.
    out[out >= 1.0] = 0.0
    return out


def wrap_half(values) -> np.ndarray:
    """Reduce values into [-1/2, 1/2), elementwise.

    The tie at +-1/2 resolves to -1/2 (exactly the convention of
    :func:`min_image`).  Computed as in :func:`wrap_coords` on x + 1/2,
    bit-identical to ``np.mod(x + 0.5, 1.0) - 0.5``.
    """
    arr = np.asarray(values, dtype=float)
    out = np.add(arr, 0.5, out=np.empty_like(arr))
    out -= np.floor(out)
    out[out >= 1.0] = 0.0
    out -= 0.5
    return out


@dataclass(frozen=True)
class TorusPoint:
    """A point on the N-torus; every coordinate lies in [0, 1)."""

    coords: tuple

    def __init__(self, coords):
        arr = wrap_coords(coords)
        object.__setattr__(self, "coords", tuple(float(c) for c in np.atleast_1d(arr)))

    @property
    def dim(self) -> int:
        return len(self.coords)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.coords, dtype=float)

    def __add__(self, disp: "Displacement") -> "TorusPoint":
        return TorusPoint(self.as_array() + disp.as_array())


@dataclass(frozen=True)
class Displacement:
    """A minimal-image difference vector; components in [-1/2, 1/2)."""

    components: tuple

    def __init__(self, components):
        arr = np.atleast_1d(np.asarray(components, dtype=float))
        if not np.all(np.isfinite(arr)):
            raise ValueError("non-finite displacement")
        if np.any(arr < -0.5) or np.any(arr >= 0.5):
            raise ValueError(
                f"displacement components must lie in [-1/2, 1/2): {arr.tolist()}"
            )
        object.__setattr__(self, "components", tuple(float(c) for c in arr))

    @property
    def dim(self) -> int:
        return len(self.components)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.components, dtype=float)

    def norm(self) -> float:
        return float(np.linalg.norm(self.as_array()))

    def __neg__(self) -> "Displacement":
        return Displacement(wrap_half(-self.as_array()))


def wrap(raw) -> TorusPoint:
    """Wrap raw coordinates onto the torus.

    >>> wrap((1.25, -0.5)).coords
    (0.25, 0.5)
    """
    return TorusPoint(raw)


def min_image_coords(a, b) -> np.ndarray:
    """Minimal periodic image of a - b, elementwise in [-1/2, 1/2).

    Ties at distance exactly 1/2 resolve to -1/2.  Satisfies
    ``wrap_coords(b + d) == wrap_coords(a)``.
    """
    return wrap_half(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))


def min_image(a: TorusPoint, b: TorusPoint) -> Displacement:
    """Minimal-image difference a - b as a :class:`Displacement`."""
    return Displacement(min_image_coords(a.as_array(), b.as_array()))


def torus_distance(a, b) -> np.ndarray:
    """Euclidean length of the minimal image of a - b.

    Operates on arrays of shape (..., N); returns shape (...).
    """
    return np.linalg.norm(min_image_coords(a, b), axis=-1)


@dataclass(frozen=True)
class QuadratureGrid:
    """Uniform tensor grid with one weight per node.

    ``nodes`` has shape (M, dim); ``weight`` is the common weight, so the
    weights sum to the measure of the underlying domain (1 for the torus,
    the box volume otherwise).
    """

    points_per_dim: int
    nodes: np.ndarray
    weight: float
    domain: str  # "torus" or "box"

    @classmethod
    def torus(cls, n: int, dim: int = 2) -> "QuadratureGrid":
        """Cell-centered n^dim grid on the torus, weight 1/n^dim."""
        if n <= 0:
            raise ValueError("points_per_dim must be positive")
        axis = (np.arange(n) + 0.5) / n
        nodes = np.stack(
            np.meshgrid(*([axis] * dim), indexing="ij"), axis=-1
        ).reshape(-1, dim)
        return cls(n, nodes, 1.0 / n**dim, "torus")

    @classmethod
    def box(cls, n: int, dim: int = 2, lo: float = -1.0, hi: float = 1.0) -> "QuadratureGrid":
        """Midpoint-rule grid on [lo, hi]^dim."""
        if n <= 0:
            raise ValueError("points_per_dim must be positive")
        if not hi > lo:
            raise ValueError("box requires hi > lo")
        h = (hi - lo) / n
        axis = lo + (np.arange(n) + 0.5) * h
        nodes = np.stack(
            np.meshgrid(*([axis] * dim), indexing="ij"), axis=-1
        ).reshape(-1, dim)
        return cls(n, nodes, h**dim, "box")

    @property
    def dim(self) -> int:
        return self.nodes.shape[1]

    @property
    def total_measure(self) -> float:
        return self.weight * self.nodes.shape[0]


def integrate(f, grid: QuadratureGrid) -> float:
    """Weighted sum of f over the grid nodes.

    ``f`` is evaluated node-wise: it receives the full (M, dim) node array
    and must return M values (a constant is broadcast).  Summation order
    is fixed (C order, pairwise), so the result is independent of any
    caller-side parallelism.  A NaN at any node raises
    :class:`QuadratureError` identifying the node.
    """
    values = np.asarray(f(grid.nodes), dtype=float)
    if values.ndim == 0:
        values = np.full(grid.nodes.shape[0], float(values))
    if values.shape != (grid.nodes.shape[0],):
        raise ValueError(
            f"integrand returned shape {values.shape}, expected ({grid.nodes.shape[0]},)"
        )
    nan_mask = np.isnan(values)
    if nan_mask.any():
        idx = int(np.argmax(nan_mask))
        raise QuadratureError(idx, grid.nodes[idx])
    return float(np.sum(values) * grid.weight)


@functools.lru_cache(maxsize=64)
def gauss_legendre(n: int):
    """The n-point Gauss-Legendre rule on [-1, 1]: (nodes, weights).

    Built once per order and shared, so both arrays are read-only;
    callers derive scaled copies from them.
    """
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights
