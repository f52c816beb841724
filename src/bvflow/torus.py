"""Geometry and quadrature primitives on the torus.

Positions live in [0, 1) in every coordinate with periodic
identification; difference vectors are reduced to the minimal periodic
image in [-1/2, 1/2).  These act elementwise on arrays of any shape.

A quadrature rule is a pair of arrays, nodes and weights, throughout
the package.  The torus rule is :func:`torus_grid`: n x n nodes, each of
weight 1/n^2, which is spectrally accurate for smooth periodic
integrands.  Its nodes sit at cell centers (i + 1/2)/n, so none falls on
the axis-aligned or rational-direction jump surfaces of the field
catalog (those sit on cell boundaries for even n).
:func:`gauss_legendre` supplies the one-dimensional rules the other
grids are built from.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = [
    "wrap_coords",
    "wrap_half",
    "min_image_coords",
    "torus_distance",
    "torus_grid",
    "gauss_legendre",
]


def wrap_coords(raw) -> np.ndarray:
    """Reduce coordinates modulo 1 into [0, 1), elementwise.

    Accepts any array shape.  Rejects non-finite input.  Computes
    x - floor(x), which for finite x is bit-identical to
    ``np.mod(x, 1.0)`` (both round the exact x - floor(x) once, and both
    map -0.0 to +0.0) and several times faster.  Guards the IEEE edge
    case where that rounds up to exactly 1.0 for tiny negative x.
    """
    arr = np.asarray(raw, dtype=float)
    if not np.isfinite(arr).all():
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


def torus_grid(n: int) -> np.ndarray:
    """The cell-centered n x n grid on the torus: nodes (n^2, 2) at
    ((i + 1/2)/n, (j + 1/2)/n), the second coordinate varying fastest.
    Each node carries the weight 1/n^2."""
    if n <= 0:
        raise ValueError("n must be positive")
    axis = (np.arange(n) + 0.5) / n
    return np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)


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
