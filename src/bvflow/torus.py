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
    "QuadratureGrid",
    "QuadratureError",
    "wrap_coords",
    "wrap_half",
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
    """Reduce values into [-1/2, 1/2), elementwise: the representative of
    x modulo 1 nearest to 0.

    Computed as x - rint(x), which is exact in floating point, with +1/2
    folded to -1/2, so the tie at +-1/2 resolves to -1/2.  Forming
    x + 1/2 first would round: (1 - 2^-53) + 1/2 is 1.5 in float64, which
    would reduce 1 - 2^-53 to 0 instead of -2^-53.
    """
    d = np.array(values, dtype=float)
    d -= np.rint(d)
    d[d >= 0.5] -= 1.0
    return d


def min_image_coords(a, b) -> np.ndarray:
    """Minimal periodic image d of a - b, elementwise in [-1/2, 1/2).

    Ties at distance exactly 1/2 resolve to -1/2.  d is the computed
    a - b reduced exactly, so b + d equals a modulo 1 up to the rounding
    of a - b and of b + d (a few ulps of max(|a|, |b|, 1)); it need not
    equal it bit for bit.
    """
    return wrap_half(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))


def torus_distance(a, b) -> np.ndarray:
    """Euclidean length of the minimal image of a - b.

    Operates on arrays of shape (..., N); returns shape (...).
    """
    return np.linalg.norm(min_image_coords(a, b), axis=-1)


@dataclass(frozen=True)
class QuadratureGrid:
    """Uniform tensor grid with one weight per node.

    ``nodes`` has shape (M, dim); ``weight`` is the common weight, so the
    weights sum to the measure of the region the grid covers (1 for the
    torus, the box volume otherwise).
    """

    points_per_dim: int
    nodes: np.ndarray
    weight: float

    @classmethod
    def torus(cls, n: int, dim: int = 2) -> "QuadratureGrid":
        """Cell-centered n^dim grid on the torus, weight 1/n^dim."""
        if n <= 0:
            raise ValueError("points_per_dim must be positive")
        axis = (np.arange(n) + 0.5) / n
        nodes = np.stack(
            np.meshgrid(*([axis] * dim), indexing="ij"), axis=-1
        ).reshape(-1, dim)
        return cls(n, nodes, 1.0 / n**dim)

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
        return cls(n, nodes, h**dim)

    @property
    def dim(self) -> int:
        return self.nodes.shape[1]

    @property
    def axis(self) -> np.ndarray:
        """The 1-D node axis that every coordinate runs over; ``nodes``
        is its tensor power, the last coordinate varying fastest."""
        return self.nodes[: self.points_per_dim, -1]

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
