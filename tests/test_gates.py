"""Planted faults: each gate fails, at its fast size, when the package
part it checks is broken.  ``bvflow check`` and the acceptance criteria
call the same gate bodies, so one plant covers both."""

import dataclasses

import numpy as np
import pytest

from bvflow import catalog as cat
from bvflow import flow
from bvflow import functionals as fn
from bvflow import gates, kernels
from bvflow.kernels import AnisotropicKernel
from bvflow.torus import wrap_coords


def min_image_without_half_shift(monkeypatch):
    # a - b reduced into [0, 1) rather than [-1/2, 1/2)
    monkeypatch.setattr(gates, "min_image_coords",
                        lambda a, b: wrap_coords(np.asarray(a) - np.asarray(b)))


def wrap_toward_zero(monkeypatch):
    # x - trunc(x): idempotent, but a negative x lands in (-1, 0)
    monkeypatch.setattr(gates, "wrap_coords", lambda x: x - np.trunc(x))


def normalization_off_by_1e5(monkeypatch):
    key = ("poly_bump", 2)
    value = kernels.poly_bump.normalization(2)
    monkeypatch.setitem(kernels._NORM_CACHE, key, value * (1.0 + 1e-5))


def r_a_check_without_trace(monkeypatch):
    r_a_check = fn.R_a_check

    def plant(field, kernel, x, n_z=200):
        pts = np.asarray(x, dtype=float).reshape(-1, 2)
        trace = np.array([np.trace(field.grad_a(p)) for p in pts])
        return r_a_check(field, kernel, x, n_z) - trace.reshape(np.shape(x)[:-1])

    monkeypatch.setattr(fn, "R_a_check", plant)


def singular_bound_decays_slower(monkeypatch):
    singular_bound = fn.singular_bound

    def plant(field, kernel, n_z=128):
        return singular_bound(field, kernel, n_z) * (1.0 + kernel.gamma) ** 0.1

    monkeypatch.setattr(fn, "singular_bound", plant)


def u_inverse_sign_flip(monkeypatch):
    u_matrix = AnisotropicKernel.u_matrix

    def plant(self, x=None):
        u, u_inv, det = u_matrix(self, x)
        # Id - c eta eta  ->  Id + c eta eta
        return u, 2.0 * np.eye(self.dim) - u_inv, det

    monkeypatch.setattr(AnisotropicKernel, "u_matrix", plant)


def d1_rho_with_d_eta_transposed(monkeypatch):
    # (D eta) z in place of (D eta)^T z
    d1_rho = AnisotropicKernel._d1_rho

    def plant(self, e, de, z):
        return d1_rho(self, e, np.swapaxes(de, -1, -2), z)

    monkeypatch.setattr(AnisotropicKernel, "_d1_rho", plant)


def a_jacobian_off_by_1e7(monkeypatch):
    jacobian_many = cat.PiecewiseField.jacobian_many

    def plant(self, points):
        jac = jacobian_many(self, points)
        return jac * (1.0 + 1e-7) if self.id == "A" else jac

    monkeypatch.setattr(cat.PiecewiseField, "jacobian_many", plant)


def e_jump_sigma_off_by_1e6(monkeypatch):
    e = cat.get_field("E")
    first, *rest = e.jumps
    jumps = (dataclasses.replace(first, sigma=first.sigma * (1.0 + 1e-6)), *rest)
    monkeypatch.setitem(cat._CATALOG, "E", dataclasses.replace(e, jumps=jumps))


def density_off_by_1e5(monkeypatch):
    density_from_flow = flow.density_from_flow

    def plant(ensemble, t):
        dens = density_from_flow(ensemble, t)
        return dataclasses.replace(dens, values=dens.values * (1.0 + 1e-5))

    monkeypatch.setattr(flow, "density_from_flow", plant)


def rk4_drifts_1e9_per_step(monkeypatch):
    # every RK4 step moves 1e-9 along (1, 1) whatever its direction, so the
    # backward march no longer undoes the forward one
    rk4_step = flow._rk4_step

    def plant(*args, **kwargs):
        y_new, logj_new, k1 = rk4_step(*args, **kwargs)
        return y_new + 1e-9, logj_new, k1

    monkeypatch.setattr(flow, "_rk4_step", plant)


def i2_quotient_without_1_over_eps(monkeypatch):
    # d2 rho scaled by eps: I2 loses the 1/eps of its difference quotient
    pair_integrals_multi = fn.pair_integrals_multi

    def plant(flow_x, flow_y, field, kernel, cfg, times, want=("D",)):
        class Scaled(AnisotropicKernel):
            def d2_rho(self, x, z):
                return cfg.epsilon * super().d2_rho(x, z)

        scaled = Scaled(kernel.profile, kernel.eta, kernel.gamma)
        return pair_integrals_multi(flow_x, flow_y, field, scaled, cfg, times, want)

    monkeypatch.setattr(fn, "pair_integrals_multi", plant)


@pytest.mark.parametrize(
    "gate, plant",
    [
        (gates.wrap_idempotent, wrap_toward_zero),
        (gates.min_image_antisymmetry, min_image_without_half_shift),
        (gates.normalization, normalization_off_by_1e5),
        (gates.d1_rho_integral_zero, d1_rho_with_d_eta_transposed),
        (gates.R_a_identity, r_a_check_without_trace),
        (gates.singular_decay, singular_bound_decays_slower),
        (gates.scalar_product_bounds, u_inverse_sign_flip),
        (gates.jacobian_finite_difference, a_jacobian_off_by_1e7),
        (gates.distributional_divergence, e_jump_sigma_off_by_1e6),
        (gates.density_mass, density_off_by_1e5),
        (gates.backward_forward, rk4_drifts_1e9_per_step),
        (gates.decomposition, i2_quotient_without_1_over_eps),
    ],
    ids=[
        "torus.wrap_idempotent",
        "torus.min_image_antisymmetry",
        "kernels.normalization",
        "kernels.d1_rho_integral_zero",
        "functionals.R_a_identity",
        "functionals.singular_decay",
        "kernels.scalar_product_bounds",
        "fields.jacobian_finite_difference",
        "fields.distributional_divergence",
        "flow.density_mass",
        "flow.backward_forward",
        "functionals.decomposition",
    ],
)
def test_planted_fault_fails_its_gate(request, monkeypatch, gate, plant):
    plant(monkeypatch)
    res = gate()
    assert res.name == request.node.callspec.id
    assert not res.passed, res.detail
