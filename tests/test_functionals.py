import collections
import math

import numpy as np
import pytest
from scipy.integrate import quad

from bvflow import catalog, flow
from bvflow import functionals as fn
from bvflow.catalog import get_field, volume_quadrature
from bvflow.flow import DirectFlowMap, ExactFlowMap, FlowSolverConfig, InterpolatedFlowMap
from bvflow.kernels import AnisotropicKernel, DirectionField, poly_bump, smooth_exp
from bvflow.torus import torus_distance

ETA_X = DirectionField.constant((1.0, 0.0))


def kernel_c(gamma, profile=poly_bump):
    return AnisotropicKernel(profile, ETA_X, gamma)


def polar_reference(f, n=400):
    """Test-side reference quadrature of f(z) over the unit disk."""
    gl_x, gl_w = np.polynomial.legendre.leggauss(n)
    r = 0.5 * (gl_x + 1.0)
    rw = 0.5 * gl_w * r
    theta = (np.arange(2 * n) + 0.5) * (np.pi / n)
    z = np.stack(
        [
            (r[:, None] * np.cos(theta)[None, :]).ravel(),
            (r[:, None] * np.sin(theta)[None, :]).ravel(),
        ],
        axis=-1,
    )
    w = (rw[:, None] * np.full(2 * n, np.pi / n)[None, :]).ravel()
    return float(np.sum(f(z) * w))


class ShiftedMap(flow.FlowMap):
    """Y_t(x) = X_t(x) + v: a rigid offset of an existing flow map."""

    def __init__(self, base, v):
        self.base = base
        self.v = np.asarray(v, dtype=float)

    def displacement(self, t, pts):
        return self.base.displacement(t, pts) + self.v

    def log_jacobian(self, t, pts):
        return self.base.log_jacobian(t, pts)

    def density(self, t, pts):
        return self.base.density(t, pts)

    def interpolation_error(self, t):
        return self.base.interpolation_error(t)


class ClosedFormMap(flow.FlowMap):
    """The protocol's minimum: only displacement and log J, no hooks."""

    def __init__(self, fld):
        self.exact = ExactFlowMap(fld)

    def displacement(self, t, pts):
        return self.exact.displacement(t, pts)

    def log_jacobian(self, t, pts):
        return self.exact.log_jacobian(t, pts)


class ExpDensityExactMap(ExactFlowMap):
    """The exact map with the base class's density, exp(log J), in place
    of B's closed-form Jacobian ratio (which differs in the last bits)."""

    density = flow.FlowMap.density


def test_minimal_flow_map_runs_through_the_functionals():
    # the base class's position, density and no-op hooks give the same
    # numbers as the exact map with its batch
    b = get_field("B")
    minimal, exact = ClosedFormMap(b), ExpDensityExactMap(b)
    kern = kernel_c(3.0)
    cfg = fn.FunctionalConfig(epsilon=0.1, n_x=10, n_z=10)
    want = ("D", "I1", "I2", "I2a", "MASS")
    assert fn.pair_integrals_multi(minimal, minimal, b, kern, cfg, [0.2, 0.3], want) == \
        fn.pair_integrals_multi(exact, exact, b, kern, cfg, [0.2, 0.3], want)
    assert fn.decomposition_check(minimal, exact, b, kern, cfg, 0.3) == \
        fn.decomposition_check(exact, exact, b, kern, cfg, 0.3)
    assert fn.eqfin_residual(minimal, minimal, b, 0.3, n_x=16) == \
        fn.eqfin_residual(exact, exact, b, 0.3, n_x=16)


def test_l1_grid_builds_each_maps_point_state_once(monkeypatch):
    # one eqfin_residual call is one L^1 grid at three times: each map
    # builds its point state once for the grid, and the direct map solves
    # all three times in one integrate_flow call
    calls = collections.Counter()
    for name in ("_exact_prep", "_spline_matrix", "integrate_flow"):
        def counted(*args, _name=name, _original=getattr(flow, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(flow, name, counted)
    b, c = get_field("B"), get_field("C")
    fn.eqfin_residual(ExactFlowMap(c), ExactFlowMap(c), c, 0.3, n_x=16)
    assert calls["_exact_prep"] == 2
    calls.clear()
    fx = InterpolatedFlowMap(b, FlowSolverConfig(step=1e-2), grid_n=16)
    fn.eqfin_residual(fx, ExactFlowMap(b), b, 0.3, n_x=16)
    assert (calls["_spline_matrix"], calls["_exact_prep"]) == (1, 1)
    calls.clear()
    fn.eqfin_residual(DirectFlowMap(b, FlowSolverConfig(step=1e-2)), ExactFlowMap(b), b,
                      0.3, n_x=16)
    assert calls["integrate_flow"] == 1
    # the Gronwall pipeline makes one L^1 grid over every sampled time, so
    # one solve
    calls.clear()
    fn.uniqueness_report(b, DirectFlowMap(b, FlowSolverConfig(step=1e-2)), ExactFlowMap(b),
                         kernel_c(0.0), fn.FunctionalConfig(epsilon=0.05, n_x=16), 0.4,
                         n_times=3)
    assert calls["integrate_flow"] == 1


PAIR_KEYS = ("D", "I1", "I2", "I2a", "MASS", "I1_ABS", "I2_ABS")


def _pair_case(fid, eta_kind):
    """Field, map and kernel of one pair-engine case: A's spline map, or
    the exact map of B or D; a constant or a mollified kernel direction."""
    fld = get_field(fid)
    fm = (InterpolatedFlowMap(fld, FlowSolverConfig(step=1e-2), grid_n=16) if fid == "A"
          else ExactFlowMap(fld))
    eta = (DirectionField.constant(fld.strip_normal or (1.0, 0.0)) if eta_kind == "constant"
           else DirectionField.mollified_normal(get_field("C"), 0.2))
    return fld, fm, AnisotropicKernel(poly_bump, eta, 3.0)


@pytest.mark.parametrize("eta_kind", ["constant", "mollified_normal"])
@pytest.mark.parametrize("fid", ["A", "B", "D"])
def test_per_time_keys_match_the_all_keys_sweep(fid, eta_kind):
    # a {t: keys} request returns at each time exactly the keys asked for
    # there, with the bits of the sweep that asks every key at every time
    fld, fm, kern = _pair_case(fid, eta_kind)
    cfg = fn.FunctionalConfig(epsilon=0.05, n_x=8, n_z=8)
    times = [0.2, 0.25, 0.3]
    want = {0.2: ("D",), 0.25: ("I1", "I2", "MASS", "I1_ABS", "I2_ABS"), 0.3: PAIR_KEYS}
    every = fn.pair_integrals_multi(fm, fm, fld, kern, cfg, times, PAIR_KEYS)
    per_time = fn.pair_integrals_multi(fm, fm, fld, kern, cfg, times, want)
    assert per_time == {t: {k: every[t][k] for k in want[t]} for t in times}
    assert fn.pair_integrals_multi(fm, fm, fld, kern, cfg, times, {0.2: (), 0.25: ("D",),
                                                                   0.3: ("D",)})[0.2] == {}
    # a repeated time is evaluated once, not summed twice
    assert fn.pair_integrals_multi(fm, fm, fld, kern, cfg, [0.3, 0.3], ("D",)) == \
        {0.3: {"D": every[0.3]["D"]}}


class FlatBatches(flow.FlowMap):
    """A map that hands every batch to ``inner`` as a flat point array,
    and records whether it was given a ShiftedGrid."""

    def __init__(self, inner):
        self.inner = inner
        self.grids = 0

    def prepare(self, times):
        self.inner.prepare(times)

    def begin_batch(self, pts, times=()):
        if isinstance(pts, flow.ShiftedGrid):
            self.grids += 1
            pts = pts.points
        self.inner.begin_batch(pts, times)

    def end_batch(self):
        self.inner.end_batch()

    def displacement(self, t, pts):
        return self.inner.displacement(t, pts)

    def log_jacobian(self, t, pts):
        return self.inner.log_jacobian(t, pts)

    def density(self, t, pts):
        return self.inner.density(t, pts)

    def interpolation_error(self, t):
        return self.inner.interpolation_error(t)


@pytest.mark.parametrize("eta_kind", ["constant", "mollified_normal"])
@pytest.mark.parametrize("fid", ["A", "B"])
def test_shifted_grid_sweep_matches_the_flat_sweep(fid, eta_kind):
    # on a smooth field every z-chunk's y-points are one ShiftedGrid batch
    # of the second map (two chunks here, A's over several spline row
    # blocks); every key must have the bits of the flat-array batches
    fld, fm, kern = _pair_case(fid, eta_kind)
    cfg = fn.FunctionalConfig(epsilon=0.1, n_x=16, n_z=16)
    times = [0.299, 0.3, 0.301]
    flat = FlatBatches(fm)
    got = fn.pair_integrals_multi(fm, fm, fld, kern, cfg, times, PAIR_KEYS)
    assert got == fn.pair_integrals_multi(fm, flat, fld, kern, cfg, times, PAIR_KEYS)
    assert flat.grids == 2


def hypot_reference_D(fm_x, fm_y, fld, kern, cfg, t):
    """D(t) over the engine's own grids, as whole arrays and with the
    distance from np.hypot."""
    eps = cfg.epsilon
    z_pts, z_wts = kern.z_quadrature(None, cfg.n_z, rule="midpoint")
    total = 0.0
    for shift, idx in fn._z_shift_groups(fld, z_pts, eps):
        x_pts, x_wts = volume_quadrature(fld, cfg.n_x, cfg.nodes_per_panel,
                                         extra_breakpoints=[b - shift for b in fld.strip_bounds])
        ez = eps * z_pts[idx]
        y_pts = (x_pts[None, :, :] + ez[:, None, :]).reshape(-1, 2)
        sep = (fm_x.displacement(t, x_pts)[None, :, :] - ez[:, None, :]
               - fm_y.displacement(t, y_pts).reshape(idx.size, -1, 2))
        sep -= np.rint(sep)
        dist = np.hypot(sep[..., 0], sep[..., 1])
        weight = (kern.rho(None, z_pts[idx]) * z_wts[idx])[:, None] * (
            x_wts * fm_x.density(t, x_pts))[None, :] * fm_y.density(t, y_pts).reshape(dist.shape)
        total += float(np.sum(dist * weight))
    return total


@pytest.mark.parametrize("fid", ["B", "D"])
def test_pair_distance_matches_a_hypot_reference(fid):
    # the engine's distance is the square root of the summed squares of the
    # separation planes; against np.hypot it may differ only in round-off
    fld, fm, kern = _pair_case(fid, "constant")
    shifted = ShiftedMap(fm, (0.3, -0.2))
    cfg = fn.FunctionalConfig(epsilon=0.05, n_x=12, n_z=12)
    for fm_y in (fm, shifted):
        d = fn.discrepancy_D(fm, fm_y, fld, kern, cfg, 0.3)
        assert d == pytest.approx(hypot_reference_D(fm, fm_y, fld, kern, cfg, 0.3),
                                  rel=1e-14, abs=0.0)


def test_pair_sweep_evaluates_the_x_side_in_one_batch():
    # the x-points of every z-shift group form one batch of the first map,
    # and a constant-direction kernel is evaluated once for all z-nodes
    d = get_field("D")
    batches = []
    kernel_calls = []

    class Recording(ExactFlowMap):
        def begin_batch(self, pts, times=()):
            batches.append(np.shape(pts)[0])
            super().begin_batch(pts, times)

    class CountingKernel(AnisotropicKernel):
        def rho(self, x, z):
            kernel_calls.append("rho")
            return super().rho(x, z)

        def d2_rho(self, x, z):
            kernel_calls.append("d2_rho")
            return super().d2_rho(x, z)

    cfg = fn.FunctionalConfig(epsilon=0.05, n_x=10, n_z=10)
    kern = CountingKernel(poly_bump, DirectionField.constant(d.strip_normal), 3.0)
    fn.pair_integrals_multi(Recording(d), ExactFlowMap(d), d, kern, cfg, [0.3], ("D",))
    assert sorted(kernel_calls) == ["d2_rho", "rho"]
    z_pts, _ = kern.z_quadrature(None, cfg.n_z)
    groups = fn._z_shift_groups(d, z_pts, cfg.epsilon)
    assert len(groups) > 1
    assert len(batches) == 1
    sizes = [
        volume_quadrature(d, cfg.n_x, cfg.nodes_per_panel,
                          extra_breakpoints=[b - s for b in d.strip_bounds])[0].shape[0]
        for s, _ in groups
    ]
    assert batches[0] == sum(sizes)

    # a position-dependent direction is evaluated on a group's x-points,
    # never on x tiled out to one row per (x, z) pair
    eta_rows = []

    class RecordingDirection(DirectionField):
        def eta(self, points):
            eta_rows.append(np.prod(np.shape(points)[:-1]))
            return super().eta(points)

        def d_eta(self, points):
            eta_rows.append(np.prod(np.shape(points)[:-1]))
            return super().d_eta(points)

    kern = AnisotropicKernel(poly_bump, RecordingDirection.mollified_normal(d, 0.3), 3.0)
    fn.pair_integrals_multi(ExactFlowMap(d), ExactFlowMap(d), d, kern, cfg, [0.3],
                            ("D", "I1", "I2"))
    assert eta_rows and max(eta_rows) <= max(sizes)


def test_functional_config_validation():
    with pytest.raises(ValueError):
        fn.FunctionalConfig(epsilon=0.5)
    with pytest.raises(ValueError):
        fn.FunctionalConfig(epsilon=0.05, dt_fd=0.0)
    with pytest.raises(ValueError):
        fn.FunctionalConfig(epsilon=0.05, n_x=0)
    with pytest.raises(ValueError):
        fn.FunctionalConfig(epsilon=0.05, n_z=0)


def test_discrepancy_at_time_zero_matches_first_moment():
    # D(0) = eps <|z|>_rho for identical flows; 1-D radial oracle
    c = get_field("C")
    fm = ExactFlowMap(c)
    mean_abs_z = 2 * math.pi * quad(
        lambda r: float(poly_bump.f0(r * r, 2)) * r * r, 0.0, 1.0
    )[0]
    cfg = fn.FunctionalConfig(epsilon=0.05, n_x=48, n_z=48)
    d0 = fn.discrepancy_D(fm, fm, c, kernel_c(0.0), cfg, 0.0)
    assert d0 == pytest.approx(0.05 * mean_abs_z, abs=1e-5)


def test_discrepancy_scales_linearly_in_epsilon():
    from bvflow.experiments import fit_rate

    c = get_field("C")
    fm = ExactFlowMap(c)
    eps_list = [0.1, 0.05, 0.025]
    vals = []
    for eps in eps_list:
        cfg = fn.FunctionalConfig(epsilon=eps, n_x=32, n_z=32)
        vals.append(fn.discrepancy_D(fm, fm, c, kernel_c(0.0), cfg, 0.0))
    slope, _ = fit_rate(vals, eps_list)
    assert slope == pytest.approx(1.0, abs=1e-6)


def test_discrepancy_of_rigidly_shifted_flow():
    # Y = X + (0.3, 0): the separation is 0.3 up to O(eps)
    c = get_field("C")
    fm = ExactFlowMap(c)
    shifted = ShiftedMap(fm, (0.3, 0.0))
    cfg = fn.FunctionalConfig(epsilon=0.02, n_x=32, n_z=32)
    d = fn.discrepancy_D(fm, shifted, c, kernel_c(0.0), cfg, 0.2)
    assert abs(d - 0.3) < 0.02


def closed_form_D_field_c(eps, t, gamma, n=400):
    """Semi-analytic D(t) for field C with identical flows.

    For each z the x-integral is exact: pairs in the same strip
    contribute eps |z|; pairs straddling one of the two surfaces (total
    measure eps |z1| each, shifted by the relative drift 2t of the
    strips) contribute the displaced distances.  Valid while
    eps + 2t < 1/2 (no wrap).
    """
    kern = kernel_c(gamma)

    def f(z):
        az1 = np.abs(z[:, 0])
        base = eps * np.linalg.norm(z, axis=1) * (1.0 - 2.0 * eps * az1)
        d_plus = np.sqrt((eps * z[:, 0]) ** 2 + (eps * z[:, 1] - 2 * t) ** 2)
        d_minus = np.sqrt((eps * z[:, 0]) ** 2 + (eps * z[:, 1] + 2 * t) ** 2)
        return kern.rho(None, z) * (base + eps * az1 * (d_plus + d_minus))

    return polar_reference(f, n)


@pytest.mark.parametrize("gamma", [0.0, 4.0])
def test_discrepancy_matches_closed_form_field_c(gamma):
    c = get_field("C")
    fm = ExactFlowMap(c)
    eps, t = 0.05, 0.15
    cfg = fn.FunctionalConfig(epsilon=eps, n_x=64, n_z=128)
    d = fn.discrepancy_D(fm, fm, c, kernel_c(gamma), cfg, t)
    oracle = closed_form_D_field_c(eps, t, gamma)
    assert d == pytest.approx(oracle, abs=2e-6)


def test_i_eps_fd_zero_at_t0():
    # D is even in t for the shear, so the central difference vanishes
    c = get_field("C")
    fm = ExactFlowMap(c)
    cfg = fn.FunctionalConfig(epsilon=0.05, n_x=64, n_z=64, dt_fd=1e-3)
    val = fn.I_eps_fd(fm, fm, c, kernel_c(0.0), cfg, 0.0)
    assert abs(val) < 1e-4


def test_i1_zero_for_constant_direction():
    c = get_field("C")
    fm = ExactFlowMap(c)
    cfg = fn.FunctionalConfig(epsilon=0.05, n_x=24, n_z=24)
    assert fn.I1(fm, fm, c, kernel_c(3.0), cfg, 0.2) == 0.0


def test_i2_equals_i2a_for_smooth_field():
    # (b(x+eps z) - b(x))/eps = int_0^1 Db(x + theta eps z) z dtheta holds
    # exactly for smooth fields, so I2 and its theta-averaged form agree
    # to theta-quadrature accuracy
    b = get_field("B")
    fm = ExactFlowMap(b)
    cfg = fn.FunctionalConfig(epsilon=0.05, n_x=32, n_z=32)
    parts = fn.pair_integrals(fm, fm, b, kernel_c(0.0), cfg, 0.3,
                              want=("I2", "I2a"))
    assert abs(parts["I2"] - parts["I2a"]) < 1e-6


def test_i2_bounded_by_singular_majorant_field_c():
    c = get_field("C")
    fm = ExactFlowMap(c)
    for gamma in (0.0, 9.0):
        cfg = fn.FunctionalConfig(epsilon=0.05, n_x=32, n_z=48)
        parts = fn.pair_integrals(fm, fm, c, kernel_c(gamma), cfg, 0.3,
                                  want=("I2", "I2a"))
        bound = fn.singular_bound(c, kernel_c(gamma))
        assert abs(parts["I2"] - parts["I2a"]) <= bound + 1e-9


def test_i2_limit_for_smooth_field():
    # as eps -> 0, I2 -> int |X - Y| div b mu1 mu2 dx for any competing
    # pair with Lebesgue regularity; the right side by independent
    # x-quadrature
    b = get_field("B")
    fm = ExactFlowMap(b)
    shifted = ShiftedMap(fm, (0.22, 0.0))
    t = 0.3
    cfg = fn.FunctionalConfig(epsilon=0.01, n_x=128, n_z=48)
    i2 = fn.I2(fm, shifted, b, kernel_c(0.0), cfg, t)
    pts, wts = volume_quadrature(b, 256)
    dist = torus_distance(fm.position(t, pts), shifted.position(t, pts))
    mu1 = fm.density(t, pts)
    mu2 = shifted.density(t, pts)
    div = b.divergence_many(pts)
    limit = float(np.sum(dist * div * mu1 * mu2 * wts))
    assert i2 == pytest.approx(limit, rel=0.02)


@pytest.mark.parametrize("fid,gamma", [("C", 0.0), ("C", 10.0), ("B", 0.0)])
def test_decomposition_cross_check_quick(fid, gamma):
    fld = get_field(fid)
    fm = ExactFlowMap(fld)
    cfg = fn.FunctionalConfig(epsilon=0.06, n_x=32, n_z=32)
    res = fn.decomposition_check(fm, fm, fld, kernel_c(gamma), cfg, 0.3)
    assert res["gap"] <= res["bound"]
    assert np.isfinite(res["I_eps_fd"])


def test_r_a_identity():
    b = get_field("B")
    res = fn.R_a_check(b, kernel_c(0.0), (0.0, 0.0), n_z=200)
    assert abs(res) < 1e-6
    # the integral itself equals -div = -2 pi at this point
    z, w = kernel_c(0.0).z_quadrature(None, 200, rule="polar")
    d2 = kernel_c(0.0).d2_rho(None, z)
    a_mat = b.grad_a((0.0, 0.0))
    integral = float(np.sum(np.einsum("qi,ij,qj->q", d2, a_mat, z) * w))
    assert integral == pytest.approx(-2 * math.pi, abs=1e-6)
    # piecewise-constant piece: both terms vanish identically
    c = get_field("C")
    assert fn.R_a_check(c, kernel_c(0.0), (0.2, 0.6)) == pytest.approx(0.0, abs=1e-15)
    # anisotropic kernel, smooth field, random point
    a = get_field("A")
    res = fn.R_a_check(a, kernel_c(10.0, smooth_exp), (0.37, 0.81), n_z=200)
    assert abs(res) < 1e-6


@pytest.mark.parametrize("fid,eta", [
    ("A", ETA_X),
    ("B", DirectionField.constant((1.0, 2.0))),
    ("A", DirectionField.mollified_normal(get_field("C"), 0.1)),
])
def test_r_a_check_at_many_points_equals_single_point_calls(fid, eta):
    # one call at M points shares the constant-direction grid and returns
    # the bits of M single-point calls
    fld = get_field(fid)
    kern = AnisotropicKernel(smooth_exp, eta, 4.0)
    pts = np.random.default_rng(5).random((4, 2))
    many = fn.R_a_check(fld, kern, pts, n_z=40)
    assert many.shape == (4,)
    assert many.tolist() == [fn.R_a_check(fld, kern, p, n_z=40) for p in pts]
    assert all(isinstance(fn.R_a_check(fld, kern, p, n_z=40), float) for p in pts)
    assert np.all(many != 0.0) and np.all(np.abs(many) < 1e-4)


def test_singular_bound_gamma_scaling_and_oracle():
    c = get_field("C")
    sb0 = fn.singular_bound(c, kernel_c(0.0))
    sb9 = fn.singular_bound(c, kernel_c(9.0))
    assert sb9 / sb0 == pytest.approx(0.1, abs=2e-3)
    # closed-form reduction: K = int |F0'(|w|^2)| |w_xi| |w_eta| dw
    # = 2 int_0^1 |F0'(r^2)| r^3 dr * int |cos sin| dtheta, and the bound
    # is 2 C^2 |D^s b| K at gamma = 0
    radial = quad(lambda r: abs(float(poly_bump.f0_prime(r * r, 2))) * r**3, 0, 1)[0]
    k_const = 2.0 * radial * 2.0
    # the |cos sin| kinks limit the angular quadrature to O(h^2)
    assert sb0 == pytest.approx(2.0 * 4.0 * k_const, rel=2e-4)
    assert fn.singular_bound(get_field("A"), kernel_c(5.0)) == 0.0


def test_singular_bound_rotated_normal_field_d():
    d = get_field("D")
    eta_d = DirectionField.constant(tuple(np.array([2.0, 1.0]) / math.sqrt(5)))
    k0 = AnisotropicKernel(poly_bump, eta_d, 0.0)
    k9 = AnisotropicKernel(poly_bump, eta_d, 9.0)
    ratio = fn.singular_bound(d, k9) / fn.singular_bound(d, k0)
    assert ratio == pytest.approx(0.1, abs=2e-3)


def test_singular_bound_misaligned_envelope():
    # computed bound sits below the explicit-constant envelope for every
    # tested (gamma, delta)
    c = get_field("C")
    for gamma in (1.0, 10.0, 100.0):
        for delta in (0.0, 0.01, 0.1):
            ang = math.atan2(0.0, 1.0) + delta
            eta = DirectionField.constant((math.cos(ang), math.sin(ang)))
            kern = AnisotropicKernel(poly_bump, eta, gamma)
            bound = fn.singular_bound(c, kern)
            mis = 2.0 * math.sin(delta / 2.0)
            envelope = fn.singular_bound_envelope(c, kern, mis)
            assert bound <= envelope * (1.0 + 1e-9)


def test_gamma_eta_tradeoff_table():
    c = get_field("C")
    out = fn.gamma_eta_tradeoff(c, [0.0, 1.0, 9.0, 99.0], [0.0, 1e-4, 1e-2])
    env = out["envelope"]
    # delta = 0 column: exactly 1/(1+gamma)
    assert np.allclose(env[:, 0], 1.0 / (1.0 + np.array([0.0, 1.0, 9.0, 99.0])))
    # gamma fixed, delta -> 0 approaches 1/(1+gamma) monotonically
    assert np.all(env[:, 1] >= env[:, 0])
    assert np.all(env[:, 2] >= env[:, 1])
    # the diagonal gamma_k = k, delta_k = k^-2 drives the envelope to 0:
    # e(k) <= 3/k + 1/k^2, monotone beyond k = 2
    k = out["diagonal_k"]
    diag = out["diagonal"]
    assert np.all(diag <= 3.0 / k + 1.0 / k**2 + 1e-12)
    assert np.all(np.diff(diag[1:]) < 0)
    assert diag[-1] < 0.05
    best = out["best"]
    assert best[2] == np.min(env)


def test_trace_identity_zero_matrix():
    res = fn.trace_identity(np.zeros((2, 2)), poly_bump, gammas=(0.0, 5.0))
    assert res.infimum == pytest.approx(0.0, abs=1e-14)
    assert res.gap == pytest.approx(0.0, abs=1e-14)


def test_trace_identity_radial_identity_matrix():
    # monotone radial profile makes <z, grad rho> single-signed, so the
    # bound is attained exactly: the integral equals |tr Id| = 2
    for profile in (poly_bump, smooth_exp):
        res = fn.trace_identity(np.eye(2), profile, gammas=(0.0,), eta_angles=(0.0,))
        assert res.infimum == pytest.approx(2.0, abs=1e-6)


def test_trace_identity_shear_suppression():
    xi, eta = np.array([0.0, 1.0]), np.array([1.0, 0.0])
    res = fn.trace_identity(
        np.outer(xi, eta), poly_bump, gammas=(0.0, 1.0, 10.0, 100.0),
        eta_angles=(0.0,),
    )
    assert res.lower_margin > -1e-8
    assert res.infimum <= 0.05
    assert res.best_gamma == 100.0


def test_eqfin_residual_refinement_monotone():
    b = get_field("B")
    fy = ExactFlowMap(b)
    residuals = []
    for h in (0.08, 0.04, 0.02):
        fx = DirectFlowMap(b, FlowSolverConfig(step=h))
        residuals.append(fn.eqfin_residual(fx, fy, b, 0.4, n_x=96, dt=1e-2))
    assert residuals[0] > residuals[1] > residuals[2]


def test_eqfin_residual_refinement_field_a():
    # no closed form for A: the reference flow is the same solver at an
    # eight-times finer step
    a = get_field("A")
    residuals = []
    for h in (0.08, 0.04, 0.02):
        fx = DirectFlowMap(a, FlowSolverConfig(step=h))
        fy = DirectFlowMap(a, FlowSolverConfig(step=h / 8))
        residuals.append(fn.eqfin_residual(fx, fy, a, 0.4, n_x=64, dt=1e-2))
    assert residuals[0] > residuals[1] > residuals[2]


def test_eqfin_residual_field_c_at_machine_zero():
    # both solver routes are exact for the piecewise-constant shear, so
    # the residual sits at roundoff at every level: the refinement limit
    # is reached immediately rather than approached
    c = get_field("C")
    fy = ExactFlowMap(c)
    for h in (0.08, 0.02):
        fx = DirectFlowMap(c, FlowSolverConfig(step=h))
        assert fn.eqfin_residual(fx, fy, c, 0.4, n_x=64, dt=1e-2) < 1e-11


def test_uniqueness_report_field_c_cross_solver():
    c = get_field("C")
    fx = DirectFlowMap(c, FlowSolverConfig(step=2e-3))
    fy = ExactFlowMap(c)
    cfg = fn.FunctionalConfig(epsilon=0.05, n_x=64)
    rep = fn.uniqueness_report(c, fx, fy, kernel_c(3.0), cfg, 1.0, n_times=4)
    assert rep.verdict == "UNIQUE"
    assert rep.final_discrepancy <= 1e-5
    assert rep.c_measured == pytest.approx(1.0)
    assert np.all(rep.l_values <= 1e-5)


def test_uniqueness_report_field_e_declines():
    e = get_field("E")
    cfg = fn.FunctionalConfig(epsilon=0.05, n_x=32)
    rep = fn.uniqueness_report(e, None, None, kernel_c(0.0), cfg, 1.0)
    assert rep.verdict == "HYPOTHESES-VIOLATED"
    assert rep.branch_discrepancy >= 0.1


def test_discrepancy_report_row():
    c = get_field("C")
    fm = ExactFlowMap(c)
    cfg = fn.FunctionalConfig(epsilon=0.05, n_x=24, n_z=24)
    row = fn.discrepancy_report(fm, fm, c, kernel_c(1.0), cfg, 0.3)
    assert row.field_id == "C" and row.gamma == 1.0
    assert abs(row.I_eps_fd - (row.I1 + row.I2)) < 1e-4
    text = row.csv_row()
    assert len(text.split(",")) == len(fn.DiscrepancyReport.CSV_COLUMNS)


@pytest.mark.parametrize("fid,eta", [("C", (1.0, 0.0)), ("D", (2.0, 1.0)), ("B", (1.0, 0.0))])
@pytest.mark.parametrize("gamma", [0.0, 3.0])
def test_discrepancy_report_row_equals_separate_routes(fid, eta, gamma):
    # the fused row (one pair sweep, one L^1 grid) must reproduce every
    # value of the separate public routes bit for bit.  The maps are built
    # as run_scenario builds them under rk4_event, on a coarser grid; on B
    # (divergence and density not trivial) the first is interpolated, so
    # I2_a_limit and eqfin_residual are not zero.
    fld = get_field(fid)
    fx = (InterpolatedFlowMap(fld, FlowSolverConfig(), grid_n=64) if fid == "B"
          else ExactFlowMap(fld))
    fy = ExactFlowMap(fld)
    kern = AnisotropicKernel(poly_bump, DirectionField.constant(eta), gamma)
    cfg = fn.FunctionalConfig(epsilon=0.05, n_x=16, n_z=16)
    t = 0.3
    row = fn.discrepancy_report(fx, fy, fld, kern, cfg, t)

    parts = fn.pair_integrals(fx, fy, fld, kern, cfg, t, want=("D", "I1", "I2"))
    pts, wts = volume_quadrature(fld, cfg.n_x)
    mu1, mu2 = fx.density(t, pts), fy.density(t, pts)
    dist = torus_distance(fx.position(t, pts), fy.position(t, pts))
    div_term = float(np.sum(dist * fld.divergence_many(pts) * mu1 * mu2 * wts))
    c_t = max(float(mu1.max()), float(mu2.max()))
    assert row.D == parts["D"]
    assert row.I1 == parts["I1"]
    assert row.I2 == parts["I2"]
    assert row.I_eps_fd == fn.I_eps_fd(fx, fy, fld, kern, cfg, t)
    assert row.I2_a_limit == div_term
    assert row.eqfin_residual == fn.eqfin_residual(fx, fy, fld, t, n_x=cfg.n_x,
                                                   dt=cfg.dt_fd)
    assert row.singular_bound == c_t**2 * fn.singular_bound(fld, kern)
    assert (row.field_id, row.epsilon, row.gamma, row.t, row.n_x, row.n_z) == (
        fid, cfg.epsilon, gamma, t, cfg.n_x, cfg.n_z)
