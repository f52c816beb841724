"""Torus geometry and tensor quadrature.

Positions live on [0, 1)^2 with periodic wrap; differences are reduced
to the minimal periodic image.  Uniform cell-centered grids integrate
smooth periodic functions with spectral accuracy.
"""

import numpy as np

from bvflow.torus import min_image_coords, torus_grid, wrap_coords

print(__doc__)

print("wrap_coords((1.25, -0.5)) ->", wrap_coords((1.25, -0.5)))
print("min_image_coords((0.1,0.1), (0.9,0.1)) ->",
      min_image_coords((0.1, 0.1), (0.9, 0.1)), " (the short way around)")
tie = min_image_coords((0.6, 0.0), (0.1, 0.0))
print("tie at distance exactly 1/2 resolves to", tie[0])


def torus_integral(f, n):
    """f summed over the n x n torus grid, each node of weight 1/n^2."""
    return float(np.sum(f(torus_grid(n))) * (1.0 / n**2))


print("\nspectral convergence of the uniform grid on a smooth integrand:")
f = lambda p: np.exp(np.sin(2 * np.pi * p[:, 0]) + np.cos(2 * np.pi * p[:, 1]))
ref = torus_integral(f, 256)
for n in (4, 8, 16, 32):
    err = abs(torus_integral(f, n) - ref)
    print(f"  n = {n:3d}: |error| = {err:.3e}")

print("\nmidpoint boxes integrate the mollifier profile to its unit mass:")
from bvflow.kernels import poly_bump

g = lambda p: poly_bump.f0(np.sum(p * p, axis=1), 2)
for n in (32, 128, 512):
    h = 2.0 / n
    axis = -1.0 + (np.arange(n) + 0.5) * h
    box = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    val = float(np.sum(g(box)) * h**2)
    print(f"  n = {n:3d}: integral = {val:.8f}")
