"""The anisotropic mollifier family.

rho(x, z) = F0(|U(x) z|^2) det U(x) with U = Id + gamma eta (x) eta
squeezes the support by 1/(1+gamma) along eta while the determinant
keeps the mass at exactly one -- the mechanism the whole uniqueness
argument leans on.  The x-derivative integrates to zero because the
mass is one for every x.
"""

import numpy as np

from bvflow.catalog import get_field
from bvflow.kernels import AnisotropicKernel, DirectionField, poly_bump, smooth_exp

print(__doc__)

eta = DirectionField.constant((1.0, 0.0))
for profile in (smooth_exp, poly_bump):
    print(f"profile {profile.tag}: unit mass across gamma")
    for gamma in (0.0, 1.0, 10.0, 100.0):
        kern = AnisotropicKernel(profile, eta, gamma)
        z, w = kern.z_quadrature(None, 160, rule="polar")
        mass = float(np.sum(kern.rho(None, z) * w))
        inner, outer = kern.support_bounds()
        print(f"  gamma = {gamma:5.1f}: int rho dz - 1 = {mass - 1.0:+.1e},"
              f" support radii ({inner:.4f}, {outer:.1f})")

print("\na position-dependent direction field (modulated jump normal):")
eta_var = DirectionField.mollified_normal(get_field("C"), width=0.3)
kern = AnisotropicKernel(poly_bump, eta_var, 5.0)
rng = np.random.default_rng(1)
for _ in range(3):
    x = rng.random((1, 2))
    z, w = kern.z_quadrature(x, 160, rule="polar")
    mass = float(np.sum(kern.rho(x, z) * w))
    d1 = np.linalg.norm(np.sum(kern.d1_rho(x, z) * w[:, None], axis=0))
    print(f"  x = {np.round(x[0], 3).tolist()}:"
          f" mass - 1 = {mass - 1.0:+.1e}, |int d1_rho dz| = {d1:.1e}")
