"""Planted faults: each shared gate fails, at its fast size, when the
package part it checks is broken.  ``bvflow check`` and the acceptance
criteria call the same gate bodies, so one plant covers both."""

import numpy as np
import pytest

from bvflow import functionals as fn
from bvflow import gates, kernels
from bvflow.kernels import AnisotropicKernel


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


@pytest.mark.parametrize(
    "gate, plant",
    [
        (gates.normalization, normalization_off_by_1e5),
        (gates.R_a_identity, r_a_check_without_trace),
        (gates.singular_decay, singular_bound_decays_slower),
        (gates.scalar_product_bounds, u_inverse_sign_flip),
    ],
    ids=[
        "kernels.normalization",
        "functionals.R_a_identity",
        "functionals.singular_decay",
        "kernels.scalar_product_bounds",
    ],
)
def test_planted_fault_fails_its_gate(request, monkeypatch, gate, plant):
    plant(monkeypatch)
    res = gate()
    assert res.name == request.node.callspec.id
    assert not res.passed, res.detail
