"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test prints one line  ACCEPTANCE <n> <name>: pass (<elapsed>) <values>
on success, with the measured worst values; run with
``pytest tests/test_acceptance.py -s`` to see them.  The criteria that
``bvflow check`` also runs assert on the shared gate of
:mod:`bvflow.gates` at its full size; the rest of each criterion is
here.  The criteria are property- and oracle-based; every expected value
is either computed by an independent oracle or is a structural identity
of the construction.
"""

import math
import time

import numpy as np

from bvflow import functionals as fn
from bvflow import gates
from bvflow.catalog import get_field
from bvflow.experiments import fit_rate
from bvflow.flow import (
    DirectFlowMap,
    ExactFlowMap,
    FlowSolverConfig,
    InterpolatedFlowMap,
    check_ode_residual,
    integrate_flow,
    pushforward_histogram,
)
from bvflow.kernels import AnisotropicKernel, DirectionField, poly_bump
from bvflow.torus import QuadratureGrid

ETA_X = DirectionField.constant((1.0, 0.0))


class Budget:
    def __init__(self, number, name, seconds):
        self.number, self.name, self.seconds = number, name, seconds
        self.values = []

    def __enter__(self):
        self.t0 = time.time()
        return self

    def __exit__(self, exc_type, *_):
        elapsed = time.time() - self.t0
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion {self.number} exceeded its {self.seconds:.0f}s budget "
                f"({elapsed:.1f}s)"
            )
            print(f"ACCEPTANCE {self.number} {self.name}: pass ({elapsed:.1f}s) "
                  + "; ".join(self.values))
        return False

    def gate(self, gate):
        """Assert that a shared gate passes at its full size."""
        res = gate(full=True)
        self.values.append(res.detail)
        assert res.passed, f"{res.name}: {res.detail}"


def test_criterion_1_kernel_normalization():
    with Budget(1, "kernel normalization", 10) as b:
        b.gate(gates.normalization)


def test_criterion_2_step1_identity_and_i1_decay():
    with Budget(2, "Step-1 identity and I1 decay", 60) as b:
        b.gate(gates.d1_rho_integral_zero)
        # I1 -> 0 on field A: |I1| decreasing in eps, measured rate ~ eps
        eta_var = DirectionField.mollified_normal(get_field("C"), 0.3)
        a = get_field("A")
        kern = AnisotropicKernel(poly_bump, eta_var, 1.0)
        fm = InterpolatedFlowMap(a, FlowSolverConfig(step=2e-3), grid_n=128)
        eps_list = [0.1, 0.05, 0.025]
        vals = []
        for eps in eps_list:
            cfg = fn.FunctionalConfig(epsilon=eps, n_x=48, n_z=48)
            vals.append(abs(fn.I1(fm, fm, a, kern, cfg, 0.3)))
        assert vals[0] > vals[1] > vals[2] > 0
        slope, _ = fit_rate(vals, eps_list)
        b.values.append(f"|I1| ~ eps^{slope:.3f}")
        assert slope > 0.5  # |I1| ~ eps^slope: vanishes as eps -> 0


def test_criterion_3_r_a_identity():
    with Budget(3, "R_a integration-by-parts identity", 60) as b:
        b.gate(gates.R_a_identity)


def test_criterion_4_singular_bound_decay():
    with Budget(4, "singular-bound 1/(1+gamma) decay", 120) as b:
        b.gate(gates.singular_decay)


def test_criterion_5_scalar_product_bounds():
    with Budget(5, "scalar-product bounds, 10^4 samples", 30) as b:
        b.gate(gates.scalar_product_bounds)


def test_criterion_6_decomposition_cross_check():
    with Budget(6, "I_eps_fd vs I1+I2 within reported bound", 300) as b:
        b.gate(gates.decomposition)


def test_criterion_7_gronwall_uniqueness_pipeline():
    with Budget(7, "Gronwall pipeline: cross-solver + refinement", 600) as budget:
        # two independent solver routes for field C agree over [0, 1]
        c = get_field("C")
        fx = DirectFlowMap(c, FlowSolverConfig(step=2e-3))
        fy = ExactFlowMap(c)
        kern = AnisotropicKernel(poly_bump, ETA_X, 3.0)
        cfg = fn.FunctionalConfig(epsilon=0.05, n_x=64)
        rep = fn.uniqueness_report(c, fx, fy, kern, cfg, 1.0, n_times=5)
        assert rep.verdict == "UNIQUE"
        assert rep.final_discrepancy <= 1e-5
        assert float(np.max(rep.l_values)) <= 1e-5
        # eqfin residual decreases monotonically over three refinement
        # levels (field B: rk4 against the separable closed form, so the
        # identity's violation is pure discretization error)
        b = get_field("B")
        fy_b = ExactFlowMap(b)
        residuals = []
        for h in (0.08, 0.04, 0.02):
            fx_b = DirectFlowMap(b, FlowSolverConfig(step=h))
            residuals.append(fn.eqfin_residual(fx_b, fy_b, b, 0.4, n_x=96, dt=1e-2))
        budget.values.append(
            f"final L1 discrepancy {rep.final_discrepancy:.2e}, "
            f"max L {float(np.max(rep.l_values)):.2e}, eqfin residuals "
            + ", ".join(f"{r:.2e}" for r in residuals)
        )
        assert residuals[0] > residuals[1] > residuals[2]


def test_criterion_8_hypothesis_violation_detected():
    with Budget(8, "field E violation triad", 120) as b:
        b.gate(gates.field_e_violations)


def test_criterion_9_trace_identity():
    with Budget(9, "trace lower bound and shear infimum", 120) as b:
        b.gate(gates.trace_lower_bound)
        # trace-free shear: the anisotropy drives the integral to zero
        xi, eta_b = np.array([0.0, 1.0]), np.array([1.0, 0.0])
        res = fn.trace_identity(
            np.outer(xi, eta_b), poly_bump, gammas=(100.0,), eta_angles=(0.0,),
        )
        b.values.append(f"shear infimum {res.infimum:.2e}")
        assert res.infimum <= 0.05


def test_criterion_10_flow_conformance():
    with Budget(10, "flow conformance", 180) as b:
        b.gate(gates.group_property)
        # ODE residual
        a = get_field("A")
        ens1 = integrate_flow(a, FlowSolverConfig(step=1e-3),
                              np.array([[0.3, 0.4]]), [0.0, 1.0])
        residual = check_ode_residual(ens1, (0.3, 0.4), 1.0)
        assert residual <= 1e-5
        # near-incompressibility bands
        ens_a = integrate_flow(a, FlowSolverConfig(step=2e-3),
                               QuadratureGrid.torus(512).nodes, [0.0, 0.3])
        h_a = pushforward_histogram(ens_a, 0.3, 8)
        b.values.append(f"ODE residual {residual:.2e}, A's density band "
                        f"[{h_a.values.min():.4f}, {h_a.values.max():.4f}]")
        assert h_a.values.min() >= 0.95 and h_a.values.max() <= 1.05
        exact = FlowSolverConfig(method="explicit_exact")
        for fid, band in (("C", 1e-12), ("D", 0.1)):
            ens_f = integrate_flow(get_field(fid), exact,
                                   QuadratureGrid.torus(256).nodes, [0.0, 1.0])
            h_f = pushforward_histogram(ens_f, 1.0, 16)
            assert h_f.values.min() >= 1.0 - band
            assert h_f.values.max() <= 1.0 + band
        t = 0.5
        ens_b = integrate_flow(get_field("B"), exact, QuadratureGrid.torus(512).nodes,
                               [0.0, t])
        h_b = pushforward_histogram(ens_b, t, 8)
        lo, hi = math.exp(-2 * math.pi * t), math.exp(2 * math.pi * t)
        assert h_b.values.min() >= lo - 0.05
        assert h_b.values.max() <= hi + 0.05
