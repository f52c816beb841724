import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvflow import catalog
from bvflow.gates import aligned_gauss_box
from bvflow.kernels import (
    AnisotropicKernel,
    DirectionField,
    poly_bump,
    smooth_exp,
)

ETA_X = DirectionField.constant((1.0, 0.0))


def test_u_matrix_examples():
    k0 = AnisotropicKernel(poly_bump, ETA_X, 0.0)
    u, u_inv, det = k0.u_matrix()
    assert np.allclose(u[0], np.eye(2))
    assert det == 1.0

    k3 = AnisotropicKernel(poly_bump, ETA_X, 3.0)
    u, u_inv, det = k3.u_matrix()
    assert np.allclose(u[0], np.diag([4.0, 1.0]))
    assert det == 4.0

    # a position-dependent direction has no U without x, as for rho
    eta_var = DirectionField.mollified_normal(catalog.get_field("C"), 0.3)
    k_var = AnisotropicKernel(poly_bump, eta_var, 3.0)
    with pytest.raises(ValueError, match="needs x"):
        k_var.u_matrix()
    x = np.array([[0.1, 0.7], [0.4, 0.2]])
    u, _, _ = k_var.u_matrix(x)
    e = eta_var.eta(x)
    assert np.allclose(u, np.eye(2) + 3.0 * e[:, :, None] * e[:, None, :])


@given(
    st.floats(min_value=0.0, max_value=2 * math.pi),
    st.sampled_from([0.5, 10.0, 1000.0]),
)
@settings(max_examples=30, deadline=None)
def test_u_inverse_identity(angle, gamma):
    eta = DirectionField.constant((math.cos(angle), math.sin(angle)))
    k = AnisotropicKernel(poly_bump, eta, gamma)
    u, u_inv, _ = k.u_matrix()
    defect = np.max(np.abs(u[0] @ u_inv[0] - np.eye(2)))
    # the cancellation gamma - (gamma/(1+gamma))(1+gamma) leaves an
    # intrinsic gamma * eps residual, so the tolerance scales with gamma
    assert defect < max(1e-14, 4.0 * (1.0 + gamma) * np.finfo(float).eps)


def test_rho_compact_support():
    k = AnisotropicKernel(smooth_exp, ETA_X, 2.0)
    rng = np.random.default_rng(0)
    dirs = rng.normal(size=(100, 2))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    assert np.all(k.rho(None, 1.001 * dirs) == 0.0)
    # inside the inner ball the kernel is positive
    inner, outer = k.support_bounds()
    assert (inner, outer) == (1.0 / 3.0, 1.0)
    assert np.all(k.rho(None, 0.99 * inner * dirs) > 0.0)


def test_rho_center_value_is_profile_maximum():
    for profile in (smooth_exp, poly_bump):
        k = AnisotropicKernel(profile, ETA_X, 0.0)
        val = k.rho(None, np.zeros((1, 2)))[0]
        assert val == pytest.approx(float(profile.f0(0.0, 2)))
        assert val > 0


def test_support_bounds_gamma9():
    k = AnisotropicKernel(poly_bump, ETA_X, 9.0)
    assert k.support_bounds() == (0.1, 1.0)
    # just outside the ellipsoid along eta: zero; just inside: positive
    assert k.rho(None, np.array([[0.101, 0.0]])) == 0.0
    assert k.rho(None, np.array([[0.099, 0.0]]))[0] > 0.0


@pytest.mark.parametrize("dim", [2, 3])
def test_normalization_dim(dim):
    # constant direction, tensor reference grid in the stretched frame
    eta = DirectionField.constant((1.0,) + (0.0,) * (dim - 1))
    kern = AnisotropicKernel(poly_bump, eta, 10.0, dim=dim)
    n = 200 if dim == 2 else 64
    gl_x, gl_w = np.polynomial.legendre.leggauss(n)
    mesh = np.meshgrid(*([gl_x] * dim), indexing="ij")
    w = np.stack(mesh, axis=-1).reshape(-1, dim)
    wmesh = np.meshgrid(*([gl_w] * dim), indexing="ij")
    wts = np.prod(np.stack(wmesh, axis=-1).reshape(-1, dim), axis=-1)
    z = w.copy()
    z[:, 0] /= 11.0
    val = float(np.sum(kern.rho(None, z) * wts / 11.0))
    tol = 1e-6 if dim == 2 else 5e-4  # 64^3 reference is coarser
    assert abs(val - 1.0) < tol


def unit_sphere_area(dim):
    return 2.0 * math.pi ** (dim / 2) / math.gamma(dim / 2)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_poly_bump_normalization_closed_form(dim):
    # int_0^1 (1 - r^2)^4 r^(d-1) dr = Gamma(d/2) Gamma(5) / (2 Gamma(d/2 + 5))
    closed = 2.0 * math.gamma(dim / 2 + 5) / (
        unit_sphere_area(dim) * math.gamma(dim / 2) * math.gamma(5)
    )
    assert abs(poly_bump.normalization(dim) / closed - 1.0) <= 1e-15


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_smooth_exp_normalization_matches_adaptive_quadrature(dim):
    from scipy.integrate import quad

    radial, _ = quad(
        lambda r: math.exp(-1.0 / (1.0 - r * r)) * r ** (dim - 1) if r < 1.0 else 0.0,
        0.0, 1.0, epsabs=1e-14, epsrel=1e-13, limit=200,
    )
    want = 1.0 / (unit_sphere_area(dim) * radial)
    assert abs(smooth_exp.normalization(dim) / want - 1.0) <= 1e-14


def test_change_of_variables_identity():
    # int g(U z) det U dz = int g(w) dw for an F0-type integrand
    gamma = 7.0
    eta = np.array([0.6, 0.8])
    g = lambda w: poly_bump.f0(2.0 * np.sum(w * w, axis=1) ** 1.0, 2) + np.exp(
        -np.sum(w * w, axis=1)
    ) * (np.sum(w * w, axis=1) < 1.0)
    z, wts = aligned_gauss_box(eta, gamma, 300)
    uz = z + gamma * (z @ eta)[:, None] * eta[None, :]
    lhs = float(np.sum(g(uz) * (1.0 + gamma) * wts))
    w2, ww = aligned_gauss_box(eta, 0.0, 300)  # the plain box
    rhs = float(np.sum(g(w2) * ww))
    assert abs(lhs - rhs) < 1e-6


def test_smooth_exp_derivatives_raise_no_warning():
    # outside the support the masked branch must not divide 0 by 0
    s = np.array([0.5, 1.0, 1.5])
    k = AnisotropicKernel(smooth_exp, ETA_X, 3.0)
    z = np.array([[0.1, 0.1], [0.3, 0.0], [0.0, 1.2], [0.5, 0.5]])  # |Uz|^2 0.17, > 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        core = smooth_exp.core_prime(s)
        f0 = smooth_exp.f0_prime(s, 2)
        d2 = k.d2_rho(None, z)
    assert core.tolist() == [-np.exp(-1.0 / 0.5) / 0.5**2, 0.0, 0.0]
    assert f0.tolist() == (smooth_exp.normalization(2) * core).tolist()
    assert np.all(d2[0] != 0.0) and np.all(d2[1:] == 0.0)


def test_d2_rho_zero_at_origin_and_radial():
    k = AnisotropicKernel(smooth_exp, ETA_X, 0.0)
    assert np.allclose(k.d2_rho(None, np.zeros((1, 2))), 0.0)
    z = np.array([[0.3, 0.4], [-0.2, 0.5]])
    grad = k.d2_rho(None, z)
    # gamma=0, radial profile: gradient parallel to z
    cross = grad[:, 0] * z[:, 1] - grad[:, 1] * z[:, 0]
    assert np.max(np.abs(cross)) < 1e-14


def test_d2_rho_finite_differences():
    rng = np.random.default_rng(5)
    h = 1e-5
    for profile in (smooth_exp, poly_bump):
        for gamma in (0.0, 2.0, 9.0):
            ang = rng.random() * math.pi
            eta = DirectionField.constant((math.cos(ang), math.sin(ang)))
            k = AnisotropicKernel(profile, eta, gamma)
            inner, _ = k.support_bounds()
            z = rng.normal(size=(30, 2))
            z *= (0.7 * inner / np.linalg.norm(z, axis=1))[:, None]
            grad = k.d2_rho(None, z)
            for comp in range(2):
                dz = np.zeros(2)
                dz[comp] = h
                fd = (k.rho(None, z + dz) - k.rho(None, z - dz)) / (2 * h)
                scale = np.maximum(np.abs(grad[:, comp]), 1.0)
                assert np.max(np.abs(fd - grad[:, comp]) / scale) < 1e-6


def test_d1_rho_constant_direction_is_zero():
    k = AnisotropicKernel(poly_bump, ETA_X, 5.0)
    z = np.array([[0.05, 0.3], [0.01, -0.2]])
    x = np.array([[0.2, 0.7], [0.9, 0.1]])
    assert np.allclose(k.d1_rho(x, z), 0.0)


def test_d1_rho_finite_differences_mollified():
    eta = DirectionField.mollified_normal(catalog.get_field("D"), 0.25)
    k = AnisotropicKernel(smooth_exp, eta, 3.0)
    rng = np.random.default_rng(9)
    h = 1e-6
    for _ in range(10):
        x = rng.random((1, 2))
        z = rng.normal(size=(1, 2))
        z *= 0.15 / np.linalg.norm(z)
        grad = k.d1_rho(x, z)[0]
        for comp in range(2):
            dx = np.zeros((1, 2))
            dx[0, comp] = h
            fd = float((k.rho(x + dx, z) - k.rho(x - dx, z))[0]) / (2 * h)
            scale = max(abs(grad[comp]), 1.0)
            assert abs(fd - grad[comp]) / scale < 1e-5


@pytest.mark.parametrize("gamma", [0.0, 3.0])
@pytest.mark.parametrize("kind", ["constant", "constant_x_none", "mollified_normal"])
def test_x_broadcasts_against_z(kind, gamma):
    # (P, 2) x-points against (q, 1, 2) z-nodes give the (q, P) planes of
    # the paired call on the tiled arrays, value for value
    if kind == "mollified_normal":
        eta = DirectionField.mollified_normal(catalog.get_field("C"), 0.3)
    else:
        eta = DirectionField.constant((0.6, 0.8))
    k = AnisotropicKernel(poly_bump, eta, gamma)
    rng = np.random.default_rng(31)
    x = rng.random((7, 2))
    z = 0.8 * rng.random((5, 2)) - 0.4
    q, p = z.shape[0], x.shape[0]
    x_tile = np.broadcast_to(x, (q, p, 2)).reshape(-1, 2)
    z_tile = np.repeat(z, p, axis=0)
    x_arg = None if kind == "constant_x_none" else x
    for method in (k.rho, k.d2_rho, k.d1_rho):
        paired = method(x_tile, z_tile)
        planes = method(x_arg, z[:, None, :])
        if x_arg is None:
            assert planes.shape[:2] == (q, 1)
            planes = np.broadcast_to(planes, (q, p) + planes.shape[2:])
        assert np.array_equal(planes, paired.reshape((q, p) + paired.shape[1:]))
    assert np.any(k.rho(x_tile, z_tile) > 0.0)


def test_direction_field_unit_norm_and_jacobian():
    eta = DirectionField.mollified_normal(catalog.get_field("D"), 0.5)
    rng = np.random.default_rng(13)
    pts = rng.random((50, 2))
    vals = eta.eta(pts)
    assert np.max(np.abs(np.linalg.norm(vals, axis=1) - 1.0)) < 1e-14
    h = 1e-6
    de = eta.d_eta(pts)
    for comp in range(2):
        dp = pts.copy()
        dp[:, comp] += h
        dm = pts.copy()
        dm[:, comp] -= h
        fd = (eta.eta(dp) - eta.eta(dm)) / (2 * h)
        assert np.max(np.abs(fd - de[:, :, comp])) < 1e-7
    # width zero reproduces the exact jump normal everywhere
    exact = DirectionField.mollified_normal(catalog.get_field("D"), 0.0)
    normals = exact.eta(pts)
    eta_b = np.array([2.0, 1.0]) / math.sqrt(5.0)
    assert np.max(np.abs(normals - eta_b)) < 1e-14


def test_constant_direction_dimension_checked_at_construction():
    with pytest.raises(ValueError, match="dimension 3"):
        AnisotropicKernel(poly_bump, DirectionField.constant((1.0, 0.0, 0.0)), 1.0)


def test_mollified_normal_requires_jumps():
    with pytest.raises(ValueError):
        DirectionField.mollified_normal(catalog.get_field("A"), 0.1)


def test_z_quadrature_rules_agree():
    k = AnisotropicKernel(smooth_exp, ETA_X, 4.0)
    vals = {}
    for rule in ("midpoint", "gauss", "polar"):
        z, w = k.z_quadrature(None, 128, rule=rule)
        vals[rule] = float(np.sum(k.rho(None, z) * w))
    assert vals["polar"] == pytest.approx(1.0, abs=1e-12)
    assert vals["gauss"] == pytest.approx(1.0, abs=1e-6)
    assert vals["midpoint"] == pytest.approx(1.0, abs=1e-3)


def test_gamma_must_be_nonnegative():
    with pytest.raises(ValueError):
        AnisotropicKernel(poly_bump, ETA_X, -1.0)
