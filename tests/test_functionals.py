import collections
import math

import numpy as np
import pytest
from scipy.integrate import quad

from bvflow import catalog as cat
from bvflow import flow
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
    """Y_t(x) = X_t(x) + v: a rigid offset of an existing flow map.  Its
    batches are the base map's, so a query reuses the base's point
    state."""

    def __init__(self, base, v):
        self.base = base
        self.v = np.asarray(v, dtype=float)

    def begin_batch(self, pts, times=()):
        self.base.begin_batch(pts, times)

    def end_batch(self):
        self.base.end_batch()

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
    want = ("D", "I1", "I2", "MASS")
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
    # a pair sweep's first batch prepares a fresh spline map at all three
    # times in one solve, which the second flow, the same map, reuses
    calls.clear()
    a = get_field("A")
    fa = InterpolatedFlowMap(a, FlowSolverConfig(step=1e-2), grid_n=16)
    fn.pair_integrals_multi(fa, fa, a, kernel_c(0.0), fn.FunctionalConfig(0.1, n_x=8, n_z=8),
                            [0.2, 0.25, 0.3], ("D",))
    assert calls["integrate_flow"] == 1


PAIR_KEYS = ("D", "I1", "I2", "MASS", "I1_ABS", "I2_ABS")


def _pair_case(fid, eta_kind, gamma=3.0):
    """Field, map and kernel of one pair-engine case: A's spline map, or
    the exact map of B, C or D; a constant or a mollified kernel
    direction."""
    fld = get_field(fid)
    fm = (InterpolatedFlowMap(fld, FlowSolverConfig(step=1e-2), grid_n=16) if fid == "A"
          else ExactFlowMap(fld))
    eta = (DirectionField.constant(fld.strip_normal or (1.0, 0.0)) if eta_kind == "constant"
           else DirectionField.mollified_normal(get_field("C"), 0.2))
    return fld, fm, AnisotropicKernel(poly_bump, eta, gamma)


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


def z_shift_groups(fld, z_pts, eps):
    """[(shift, z-node indices)] for the groups of z-nodes with one level
    shift eps <n, z> (rounded to 13 decimals), each with the unrounded
    shift of its first member; a smooth field has one."""
    if fld.strip_normal is None:
        return [(0.0, np.arange(z_pts.shape[0]))]
    raw = eps * (z_pts @ np.asarray(fld.strip_normal, dtype=float))
    keys = np.round(raw, 13)
    groups = [np.flatnonzero(keys == s) for s in np.unique(keys)]
    return [(float(raw[idx[0]]), idx) for idx in groups]


def reference_pair_sums(fm_x, fm_y, fld, kern, cfg, t, n_x):
    """D, MASS, I2 and I2_ABS at t for a constant-direction kernel, one
    z-shift group at a time with x-grids from volume_quadrature at ``n_x``
    (on a strip field, the number of tangential nodes), as whole arrays
    and with the distance from np.hypot."""
    eps = cfg.epsilon
    z_pts, z_wts = kern.z_quadrature(None, cfg.n_z, rule="midpoint")
    rho, d2 = kern.rho(None, z_pts), kern.d2_rho(None, z_pts)
    sums = dict.fromkeys(("D", "MASS", "I2", "I2_ABS"), 0.0)
    for shift, idx in z_shift_groups(fld, z_pts, eps):
        x_pts, x_wts = volume_quadrature(fld, n_x, cfg.nodes_per_panel,
                                         extra_breakpoints=[b - shift for b in fld.strip_bounds])
        ez = eps * z_pts[idx]
        y_pts = (x_pts[None, :, :] + ez[:, None, :]).reshape(-1, 2)
        sep = (fm_x.displacement(t, x_pts)[None, :, :] - ez[:, None, :]
               - fm_y.displacement(t, y_pts).reshape(idx.size, -1, 2))
        sep -= np.rint(sep)
        dist = np.hypot(sep[..., 0], sep[..., 1])
        quot = (fld.eval_many(y_pts).reshape(idx.size, -1, 2) - fld.eval_many(x_pts)) / eps
        g2 = -np.einsum("qk,qpk->qp", d2[idx], quot)
        weight = z_wts[idx][:, None] * (x_wts * fm_x.density(t, x_pts))[None, :] \
            * fm_y.density(t, y_pts).reshape(dist.shape)
        sums["D"] += float(np.sum(dist * rho[idx][:, None] * weight))
        sums["MASS"] += float(np.sum(rho[idx][:, None] * weight))
        sums["I2"] += float(np.sum(dist * g2 * weight))
        sums["I2_ABS"] += float(np.sum(np.abs(g2) * weight))
    return sums


@pytest.mark.parametrize("fid", ["B", "D"])
def test_pair_distance_matches_a_hypot_reference(fid):
    # the engine's distance is the square root of the summed squares of the
    # separation planes; against np.hypot it may differ only in round-off
    fld, fm, kern = _pair_case(fid, "constant")
    shifted = ShiftedMap(fm, (0.3, -0.2))
    cfg = fn.FunctionalConfig(epsilon=0.05, n_x=12, n_z=12)
    n_x = 1 if fn._tangent_invariant(fld, kern) else cfg.n_x
    for fm_y in (fm, shifted):
        d = fn.discrepancy_D(fm, fm_y, fld, kern, cfg, 0.3)
        assert d == pytest.approx(reference_pair_sums(fm, fm_y, fld, kern, cfg, 0.3, n_x)["D"],
                                  rel=1e-14, abs=0.0)


@pytest.mark.parametrize("fid", ["C", "D"])
def test_pair_chunks_that_split_and_span_groups(fid, monkeypatch):
    # a chunk of 5 z-nodes cuts through z-shift groups and runs across
    # their ends; each z-node still meets its own group's x-grid row
    fld, fm, kern = _pair_case(fid, "constant")
    cfg = fn.FunctionalConfig(epsilon=0.05, n_x=16, n_z=16)
    keys = ("D", "MASS", "I2", "I2_ABS")
    whole = fn.pair_integrals_multi(fm, fm, fld, kern, cfg, [0.3], keys)[0.3]
    batches = []

    class Counting(ExactFlowMap):
        def begin_batch(self, pts, times=()):
            batches.append(np.shape(pts)[0])
            super().begin_batch(pts, times)

    p = 2 * len(fld.strip_bounds) * cfg.nodes_per_panel  # one tangential node
    monkeypatch.setattr(fn, "PAIR_CHUNK", 5 * p)
    split = fn.pair_integrals_multi(fm, Counting(fld), fld, kern, cfg, [0.3], keys)[0.3]
    z_pts, _ = kern.z_quadrature(None, cfg.n_z)
    sizes = [idx.size for _, idx in z_shift_groups(fld, z_pts, cfg.epsilon)]
    assert any(size % 5 for size in sizes) and max(sizes) > 5
    assert batches[:-1] == [5 * p] * (len(batches) - 1) and len(batches) > 1
    for key in keys:
        assert split[key] == pytest.approx(whole[key], rel=1e-14, abs=0.0), key


def stacked_grid_size(fld, kern, cfg, n_tau):
    """The point count of a strip-field pair sweep's stacked x-grid with
    ``n_tau`` tangential nodes: one row per z-shift group, each of two
    panels per strip bound (a zero-width one where two cuts coincide)."""
    z_pts, _ = kern.z_quadrature(None, cfg.n_z)
    groups = z_shift_groups(fld, z_pts, cfg.epsilon)
    return len(groups) * 2 * len(fld.strip_bounds) * cfg.nodes_per_panel * n_tau


def test_pair_sweep_evaluates_the_x_side_in_one_batch():
    # the stacked x-grid of every z-shift group is one batch of the first map,
    # and a constant-direction kernel is evaluated with x = None, one (q, 1)
    # column per chunk of q z-nodes (one chunk here), never per x-point;
    # exact maps and a constant direction take one tangential node
    d = get_field("D")
    batches = []
    kernel_calls = []

    class Recording(ExactFlowMap):
        def begin_batch(self, pts, times=()):
            batches.append(np.shape(pts)[0])
            super().begin_batch(pts, times)

    class CountingKernel(AnisotropicKernel):
        def rho(self, x, z):
            out = super().rho(x, z)
            kernel_calls.append(("rho", x, out.shape))
            return out

        def d2_rho(self, x, z):
            out = super().d2_rho(x, z)
            kernel_calls.append(("d2_rho", x, out.shape))
            return out

    cfg = fn.FunctionalConfig(epsilon=0.05, n_x=10, n_z=10)
    kern = CountingKernel(poly_bump, DirectionField.constant(d.strip_normal), 3.0)
    fn.pair_integrals_multi(Recording(d), ExactFlowMap(d), d, kern, cfg, [0.3],
                            ("D", "I2"))
    z_pts, _ = kern.z_quadrature(None, cfg.n_z)
    assert sorted(kernel_calls) == [("d2_rho", None, (len(z_pts), 1, 2)),
                                    ("rho", None, (len(z_pts), 1))]
    n_groups = len(z_shift_groups(d, z_pts, cfg.epsilon))
    assert n_groups > 1
    assert batches == [stacked_grid_size(d, kern, cfg, 1)]

    # a position-dependent direction is evaluated once on the stacked
    # x-grid, never on x tiled out to one row per (x, z) pair
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
    # eta and D eta once each on the stack, whose rows are one per group,
    # while the pairs are one row of P x-points per z-node
    stack = stacked_grid_size(d, kern, cfg, cfg.n_x)
    assert eta_rows == [stack, stack]
    assert stack < z_pts.shape[0] * (stack // n_groups)


class Lagged(ExactFlowMap):
    """The exact map read 0.05 later: it commutes with tangential
    translation, and it differs from the flow, so L is not zero."""

    def displacement(self, t, pts):
        return super().displacement(t + 0.05, pts)

    def log_jacobian(self, t, pts):
        return super().log_jacobian(t + 0.05, pts)


@pytest.mark.parametrize("gamma", [0.0, 10.0])
@pytest.mark.parametrize("fid", ["C", "D", "E"])
def test_one_tangential_node_matches_the_full_strip_grid(fid, gamma):
    # with a constant direction every x-integrand is a function of the
    # level s, so the engine's one tau-node gives the values of the full
    # grid at n_x tau-nodes; I1 vanishes for a constant direction
    fld = get_field(fid)
    kern = AnisotropicKernel(poly_bump, DirectionField.constant(fld.strip_normal), gamma)
    cfg = fn.FunctionalConfig(epsilon=0.1, n_x=12, n_z=12)
    times = [0.2, 0.3]
    fx, fy = Lagged(fld), ExactFlowMap(fld)
    got = fn.pair_integrals_multi(fx, fy, fld, kern, cfg, times,
                                  ("D", "I1", "I2", "MASS", "I1_ABS", "I2_ABS"))
    for t in times:
        full = reference_pair_sums(fx, fy, fld, kern, cfg, t, cfg.n_x)
        for key, value in full.items():
            assert got[t][key] == pytest.approx(value, rel=1e-13, abs=0.0), (t, key)
        assert got[t]["I1"] == got[t]["I1_ABS"] == 0.0


@pytest.mark.parametrize("fid", ["C", "D", "E"])
def test_one_tangential_node_matches_the_full_l1_grid(fid):
    fld = get_field(fid)
    # E's flow sticks at its compressive interface, which rk4_event refuses
    solver = FlowSolverConfig(step=1e-2,
                              method="explicit_exact" if fid == "E" else "rk4_event")
    fx, fy = Lagged(fld), DirectFlowMap(fld, solver)
    times = [0.2, 0.3, 0.4]
    got = fn._l1_integrals(fx, fy, fld, times, 16)
    pts, wts = volume_quadrature(fld, 16)
    div = fld.divergence_many(pts)
    for t in times:
        dist = torus_distance(fx.position(t, pts), fy.position(t, pts))
        mu1, mu2 = fx.density(t, pts), fy.density(t, pts)
        full = {"L": np.sum(dist * mu1 * mu2 * wts), "DIV": np.sum(dist * div * mu1 * mu2 * wts),
                "C": max(mu1.max(), mu2.max())}
        assert got[t]["L"] > 1e-3
        for key, value in full.items():
            assert got[t][key] == pytest.approx(value, rel=1e-13, abs=0.0), (t, key)


def first_batch_size(monkeypatch, run):
    """The point count of the first flow-map batch that ``run()`` opens."""
    sizes = []
    begin = flow.FlowMap.begin_batch

    def recording(self, pts, times=()):
        sizes.append(np.shape(getattr(pts, "points", pts))[0])
        begin(self, pts, times)

    with monkeypatch.context() as m:
        m.setattr(flow.FlowMap, "begin_batch", recording)
        run()
    return sizes[0]


def test_a_mollified_direction_keeps_the_full_x_grid(monkeypatch):
    # a direction that varies along the tangent keeps n_x tau-nodes per
    # s-node in the pair engine; the L^1 grid has no kernel and takes one
    d = get_field("D")
    cfg = fn.FunctionalConfig(epsilon=0.05, n_x=10, n_z=10)
    constant = AnisotropicKernel(poly_bump, DirectionField.constant(d.strip_normal), 3.0)
    mollified = AnisotropicKernel(poly_bump, DirectionField.mollified_normal(d, 0.3), 3.0)
    exact = ExactFlowMap(d)

    def pair_batch(kern):
        return first_batch_size(monkeypatch, lambda: fn.pair_integrals_multi(
            exact, exact, d, kern, cfg, [0.3], ("D",)))

    one = stacked_grid_size(d, constant, cfg, 1)
    assert pair_batch(constant) == one
    assert pair_batch(mollified) == cfg.n_x * one
    l1_batch = first_batch_size(monkeypatch, lambda: fn._l1_integrals(
        exact, exact, d, [0.3], cfg.n_x))
    assert l1_batch == volume_quadrature(d, 1)[0].shape[0]


def test_functional_config_validation():
    with pytest.raises(ValueError):
        fn.FunctionalConfig(epsilon=0.5)
    with pytest.raises(ValueError):
        fn.FunctionalConfig(epsilon=0.05, dt_fd=0.0)
    with pytest.raises(ValueError):
        fn.FunctionalConfig(epsilon=0.05, n_x=0)
    with pytest.raises(ValueError):
        fn.FunctionalConfig(epsilon=0.05, n_z=0)


def first_moment_reference(gamma, eps):
    """D(0) = eps int |z| rho(z) dz = eps int |U^-1 w| F0(|w|^2) dw for
    identical flows, with w = U z.  F0(|w|^2) is radial, so the integral
    is the same for every kernel direction, eta(x) included; it is taken
    here with eta = (1, 0), U^-1 w = (w1 / (1 + gamma), w2).  poly_bump's
    normalization comes from the same test-side polar rule."""
    def core(w):
        return np.maximum(1.0 - np.sum(w * w, axis=-1), 0.0) ** 4

    u_inv = np.array([1.0 / (1.0 + gamma), 1.0])
    moment = polar_reference(lambda w: np.linalg.norm(w * u_inv, axis=-1) * core(w))
    return eps * moment / polar_reference(core)


# the midpoint z-rule's measured relative error in D(0) at eps 0.05 and
# n_x 32, by (n_z, gamma, eta kind).  At n_z 32 it was 7.10e-5, 7.10e-5,
# 7.22e-4 and 3.31e-3 on every field A-D, except D at gamma 10 (7.14e-5
# along its own normal, 3.45e-3 mollified); at n_z 128 on C, 1.10e-6
# and 1.27e-5.
D0_REL_TOL = {
    (32, 0.0, "constant"): 8e-5,
    (32, 0.0, "mollified_normal"): 8e-5,
    (32, 10.0, "constant"): 8e-4,
    (32, 10.0, "mollified_normal"): 3.6e-3,
    (128, 0.0, "constant"): 1.5e-6,
    (128, 10.0, "constant"): 1.4e-5,
}


def d0_relative_error(fid, gamma, eta_kind, n_z):
    fld, fm, kern = _pair_case(fid, eta_kind, gamma)
    cfg = fn.FunctionalConfig(epsilon=0.05, n_x=32, n_z=n_z)
    d0 = fn.discrepancy_D(fm, fm, fld, kern, cfg, 0.0)
    return abs(d0 / first_moment_reference(gamma, cfg.epsilon) - 1.0)


@pytest.mark.parametrize("fid,n_z,eta_kind", [
    *((fid, 32, kind) for fid in "ABCD" for kind in ("constant", "mollified_normal")),
    ("C", 128, "constant"),
])
@pytest.mark.parametrize("gamma", [0.0, 10.0])
def test_discrepancy_at_time_zero_matches_first_moment(fid, n_z, eta_kind, gamma):
    assert d0_relative_error(fid, gamma, eta_kind, n_z) <= D0_REL_TOL[n_z, gamma, eta_kind]


def test_first_moment_check_catches_a_scaled_kernel(monkeypatch):
    # rho off by 1e-4 relative, where the z-rule error is 1.1e-6
    rho = AnisotropicKernel._rho
    monkeypatch.setattr(AnisotropicKernel, "_rho",
                        lambda self, e, z: rho(self, e, z) * (1.0 + 1e-4))
    assert d0_relative_error("C", 0.0, "constant", 128) > D0_REL_TOL[128, 0.0, "constant"]


@pytest.mark.parametrize("eta_kind", ["constant", "mollified_normal"])
def test_first_moment_check_catches_a_wrong_det_u(eta_kind, monkeypatch):
    # rho carrying det U = 1 + gamma twice.  A wrong det_u property would
    # not show in D: it scales rho and divides the z-rule's weights alike
    # (the normalization gate sees it).
    rho = AnisotropicKernel._rho
    monkeypatch.setattr(AnisotropicKernel, "_rho",
                        lambda self, e, z: rho(self, e, z) * self.det_u)
    assert d0_relative_error("B", 10.0, eta_kind, 32) > D0_REL_TOL[32, 10.0, eta_kind]


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


# level-coordinate normal n and the value v0 on s in (0, 1/2) of each
# strip field (-v0 on the other strip), written out from the catalog table
STRIP_FIELDS = {
    "C": ((1.0, 0.0), (0.0, 1.0)),
    "D": ((2.0, 1.0), (-1.0 / math.sqrt(5.0), 2.0 / math.sqrt(5.0))),
}


def strip_D_reference(fid, gamma, eps, t, n_z):
    """D(t) for X = Y = the exact flow of strip field C or D, with the
    kernel direction along the jump normal.

    The flow moves each strip rigidly with unit density, so the
    x-integral is exact in the level s = <x, n>: for the level shift
    delta = eps <n, z> of a z-node, a share 1 - 2|delta| of the x keep
    x + eps z in their own strip (separation eps |z|), and a share |delta|
    crosses each way (separation t (v_from - v_to) - eps z on the torus).
    The z-integral is the midpoint rule on the unit disk in w = U z with
    the poly_bump profile F0(s) = (5/pi)(1 - s)^4, written out here.
    """
    n_vec, v0 = (np.array(a) for a in STRIP_FIELDS[fid])
    h = 2.0 / n_z
    axis = (np.arange(n_z) + 0.5) * h - 1.0
    w = np.array([(a, b) for a in axis for b in axis if a * a + b * b < 1.0])
    r_sq = np.einsum("qk,qk->q", w, w)
    e = n_vec / np.hypot(*n_vec)
    z = w - (gamma / (1.0 + gamma)) * np.outer(w @ e, e)
    # rho(z) dz = F0(|w|^2) dw: det U cancels against the substitution
    rho_dz = h * h * (5.0 / math.pi) * (1.0 - r_sq) ** 4

    def torus_norm(v):
        v = v - np.rint(v)
        return np.hypot(v[:, 0], v[:, 1])

    delta = np.abs(eps * (z @ n_vec))
    stay = (1.0 - 2.0 * delta) * eps * np.hypot(z[:, 0], z[:, 1])
    cross = delta * (torus_norm(2.0 * t * v0 - eps * z) + torus_norm(-2.0 * t * v0 - eps * z))
    return math.fsum(rho_dz * (stay + cross))


def strip_D_engine(fid, gamma, eps, t, n):
    fld = get_field(fid)
    kern = AnisotropicKernel(poly_bump, DirectionField.constant(fld.strip_normal), gamma)
    fm = ExactFlowMap(fld)
    return fn.discrepancy_D(fm, fm, fld, kern, fn.FunctionalConfig(epsilon=eps, n_x=n, n_z=n), t)


@pytest.mark.parametrize("eps, n", [(0.05, 16), (0.1, 12)])
@pytest.mark.parametrize("gamma", [0.0, 3.0, 9.0])
@pytest.mark.parametrize("fid", ["C", "D"])
def test_strip_discrepancy_matches_the_level_coordinate_reference(fid, gamma, eps, n):
    # the panels split at the jumps and their shifted copies make the
    # engine's x-quadrature exact, so only rounding separates the two
    ref = strip_D_reference(fid, gamma, eps, 0.3, n)
    assert strip_D_engine(fid, gamma, eps, 0.3, n) == pytest.approx(ref, rel=1e-14, abs=0.0)


def test_strip_reference_catches_panels_cut_on_the_wrong_side(monkeypatch):
    # panel cuts at b + shift instead of b - shift leave a jump inside a
    # panel on every shifted row
    shifted = cat.shifted_strip_quadrature
    monkeypatch.setattr(cat, "shifted_strip_quadrature",
                        lambda fld, shifts, *args: shifted(fld, -np.asarray(shifts), *args))
    for fid in ("C", "D"):
        ref = strip_D_reference(fid, 3.0, 0.05, 0.3, 16)
        assert abs(strip_D_engine(fid, 3.0, 0.05, 0.3, 16) / ref - 1.0) > 1e-3


def test_i_eps_fd_zero_at_t0():
    # D is even in t for the shear, so the central difference vanishes
    c = get_field("C")
    fm = ExactFlowMap(c)
    cfg = fn.FunctionalConfig(epsilon=0.05, n_x=64, n_z=64, dt_fd=1e-3)
    dt = cfg.dt_fd
    d = fn.pair_integrals_multi(fm, fm, c, kernel_c(0.0), cfg, [-dt, dt])
    assert abs((d[dt]["D"] - d[-dt]["D"]) / (2.0 * dt)) < 1e-4


def test_i1_zero_for_constant_direction():
    c = get_field("C")
    fm = ExactFlowMap(c)
    cfg = fn.FunctionalConfig(epsilon=0.05, n_x=24, n_z=24)
    assert fn.pair_integrals_multi(fm, fm, c, kernel_c(3.0), cfg, [0.2],
                                   ("I1",))[0.2]["I1"] == 0.0


@pytest.mark.parametrize("fid", ["C", "D"])
def test_i2_bounded_by_singular_majorant(fid):
    # every piece of a strip field is constant, so I2 is all singular
    # part; measured |I2| / bound: 0.0092 on C and 0.0050-0.0051 on D
    fld = get_field(fid)
    fm = ExactFlowMap(fld)
    cfg = fn.FunctionalConfig(epsilon=0.05, n_x=32, n_z=48)
    for gamma in (0.0, 9.0):
        kern = AnisotropicKernel(poly_bump, DirectionField.constant(fld.strip_normal), gamma)
        i2 = fn.pair_integrals_multi(fm, fm, fld, kern, cfg, [0.3], ("I2",))[0.3]["I2"]
        assert abs(i2) <= fn.singular_bound(fld, kern)


def test_i2_limit_for_smooth_field():
    # as eps -> 0, I2 -> int |X - Y| div b mu1 mu2 dx for any competing
    # pair with Lebesgue regularity; the right side by independent
    # x-quadrature
    b = get_field("B")
    fm = ExactFlowMap(b)
    shifted = ShiftedMap(fm, (0.22, 0.0))
    t = 0.3
    cfg = fn.FunctionalConfig(epsilon=0.01, n_x=128, n_z=48)
    i2 = fn.pair_integrals_multi(fm, shifted, b, kernel_c(0.0), cfg, [t], ("I2",))[t]["I2"]
    pts, wts = volume_quadrature(b, 256)
    dist = torus_distance(fm.position(t, pts), shifted.position(t, pts))
    mu1 = fm.density(t, pts)
    mu2 = shifted.density(t, pts)
    div = b.divergence_many(pts)
    limit = float(np.sum(dist * div * mu1 * mu2 * wts))
    assert i2 == pytest.approx(limit, rel=0.02)


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


def tensor_singular_bound(fld, kern, n_z):
    """singular_bound as the 2-D sum of the polar rule: at each surface
    node the n_z x 2 n_z z-grid of z_quadrature and its d2 rho."""
    m = 1 if kern.eta.is_constant else 64
    total = 0.0
    for jump in fld.jumps:
        for p in jump.nodes(m):
            x = None if kern.eta.is_constant else p.reshape(1, 2)
            z, w = kern.z_quadrature(x, n_z, rule="polar")
            vals = np.abs(kern.d2_rho(x, z) @ np.asarray(jump.xi)) \
                * np.abs(z @ np.asarray(jump.eta))
            total += np.sum(vals * w) * jump.sigma * jump.length / m
    return 2.0 * total


@pytest.mark.parametrize("gamma", [0.0, 3.0, 81.0])
@pytest.mark.parametrize("fid", ["C", "D", "E"])
def test_singular_bound_is_the_tensor_polar_rule(fid, gamma):
    # the radial sum times the angular sum is the polar rule's 2-D sum, for
    # directions along, across and off the jump normal and a mollified one
    fld = get_field(fid)
    directions = [DirectionField.constant((1.0, 0.0)), DirectionField.constant((2.0, 1.0)),
                  DirectionField.constant((0.3, 1.0)), DirectionField.mollified_normal(fld, 0.3)]
    for eta in directions:
        for profile in (poly_bump, smooth_exp):
            kern = AnisotropicKernel(profile, eta, gamma)
            for n_z in (6, 11):
                assert fn.singular_bound(fld, kern, n_z) == pytest.approx(
                    tensor_singular_bound(fld, kern, n_z), rel=1e-13, abs=0.0), \
                    (eta.kind, eta.vector, profile.tag, n_z)


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

    parts = fn.pair_integrals_multi(fx, fy, fld, kern, cfg, [t], ("D", "I1", "I2"))[t]
    # the central difference from its own sweep: D at a time does not
    # depend on which other times share the sweep
    dt = cfg.dt_fd
    d_fd = fn.pair_integrals_multi(fx, fy, fld, kern, cfg, [t - dt, t + dt])
    pts, wts = volume_quadrature(fld, cfg.n_x)
    mu1, mu2 = fx.density(t, pts), fy.density(t, pts)
    dist = torus_distance(fx.position(t, pts), fy.position(t, pts))
    div_term = float(np.sum(dist * fld.divergence_many(pts) * mu1 * mu2 * wts))
    c_t = max(float(mu1.max()), float(mu2.max()))
    assert row.D == parts["D"]
    assert row.I1 == parts["I1"]
    assert row.I2 == parts["I2"]
    assert row.I_eps_fd == (d_fd[t + dt]["D"] - d_fd[t - dt]["D"]) / (2.0 * dt)
    assert row.I2_a_limit == div_term
    assert row.eqfin_residual == fn.eqfin_residual(fx, fy, fld, t, n_x=cfg.n_x,
                                                   dt=cfg.dt_fd)
    assert row.singular_bound == c_t**2 * fn.singular_bound(fld, kern)
    assert (row.field_id, row.epsilon, row.gamma, row.t, row.n_x, row.n_z) == (
        fid, cfg.epsilon, gamma, t, cfg.n_x, cfg.n_z)
