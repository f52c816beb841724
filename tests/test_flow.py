import math

import numpy as np
import pytest

from bvflow import catalog, flow
from bvflow.catalog import _strip_field, get_field
from bvflow.flow import (
    DirectFlowMap,
    ExactFlowMap,
    FlowSolverConfig,
    InterpolatedFlowMap,
    NonTransversalCrossingError,
    RunawayTrajectoryError,
    ShiftedGrid,
    check_group_property,
    check_ode_residual,
    collision_branch_maps,
    density_from_flow,
    export_csv,
    integrate_flow,
    make_flow_map,
    pushforward_histogram,
)
from bvflow.torus import torus_distance, torus_grid, wrap_coords, wrap_half

TWO_PI = 2.0 * math.pi
RK4 = FlowSolverConfig(step=1e-3)
EXACT = FlowSolverConfig(method="explicit_exact")


def oracle_b_flow(x1, t):
    """Independent closed form for field B's first coordinate and log J.

    Solving dx/dt = sin(2 pi x) by separation gives
    tan(pi x(t)) = tan(pi x(0)) exp(2 pi t); the Jacobian of a 1-D
    autonomous flow is b(x(t))/b(x(0)) away from stationary points.
    """
    x1 = np.asarray(x1, dtype=float)
    xt = np.arctan(np.tan(np.pi * x1) * np.exp(TWO_PI * t)) / np.pi
    xt = np.where(x1 > 0.5, 1.0 + xt, xt)
    logj = np.log(np.sin(TWO_PI * xt) / np.sin(TWO_PI * x1))
    return xt, logj


def test_config_validation():
    with pytest.raises(ValueError):
        FlowSolverConfig(step=-1.0)
    with pytest.raises(ValueError):
        FlowSolverConfig(step=1e-13)
    with pytest.raises(ValueError):
        FlowSolverConfig(method="euler")


def test_times_must_include_zero():
    with pytest.raises(ValueError):
        integrate_flow(get_field("C"), RK4, np.array([[0.2, 0.2]]), [0.5])


@pytest.mark.parametrize("cfg", [RK4, EXACT])
def test_field_c_explicit_shear(cfg):
    ens = integrate_flow(get_field("C"), cfg, np.array([[0.25, 0.0]]), [0.0, 0.7])
    assert np.allclose(ens.positions[ens.time_index(0.7)], [[0.25, 0.7]], atol=1e-12)
    assert np.allclose(ens.log_jacobian, 0.0)


def test_ensemble_identity_at_time_zero():
    pts = np.random.default_rng(0).random((7, 2))
    ens = integrate_flow(get_field("A"), FlowSolverConfig(step=5e-3), pts, [0.0, 0.1])
    k = ens.time_index(0.0)
    assert np.allclose(ens.positions[k], pts)
    assert np.all(ens.log_jacobian[k] == 0.0)
    assert np.all((ens.positions >= 0) & (ens.positions < 1))


def test_field_b_against_separable_oracle():
    pts = np.array([[0.25, 0.0], [0.1, 0.3], [0.62, 0.9], [0.9, 0.4]])
    fld = get_field("B")
    ens = integrate_flow(fld, RK4, pts, [0.0, 0.5])
    k = ens.time_index(0.5)
    xt, logj = oracle_b_flow(pts[:, 0], 0.5)
    assert np.max(np.abs(ens.positions[k][:, 0] - xt)) < 1e-6
    assert np.max(np.abs(ens.positions[k][:, 1] - pts[:, 1])) == 0.0
    assert np.max(np.abs(ens.log_jacobian[k] - logj)) < 1e-6


def test_exact_flow_map_b_matches_oracle():
    fm = ExactFlowMap(get_field("B"))
    pts = np.array([[0.18, 0.5], [0.77, 0.1]])
    xt, logj = oracle_b_flow(pts[:, 0], -0.37)
    assert np.max(np.abs(fm.position(-0.37, pts)[:, 0] - xt)) < 1e-12
    assert np.max(np.abs(fm.log_jacobian(-0.37, pts) - logj)) < 1e-12
    # the closed-form density, also at the fixed points 0 and 1/2
    assert np.allclose(fm.density(-0.37, pts), np.exp(logj), rtol=1e-12, atol=0.0)
    fixed = np.array([[0.0, 0.3], [0.5, 0.3]])
    assert np.array_equal(fm.density(0.3, fixed), np.exp([TWO_PI * 0.3, -TWO_PI * 0.3]))


def test_group_property():
    rng = np.random.default_rng(2)
    pts = rng.random((16, 2))
    fld = get_field("A")
    ens = integrate_flow(fld, RK4, pts, [0.0, 0.1])
    # s = 0 composed with anything is exact
    assert check_group_property(ens, 0.0, 0.37, max_points=16) < 1e-12
    assert check_group_property(ens, 0.2, 0.3, max_points=16) < 1e-8
    ens_c = integrate_flow(get_field("C"), EXACT, pts, [0.0, 0.25])
    assert check_group_property(ens_c, 0.25, 0.25, max_points=16) < 1e-10


def test_group_property_checks_at_most_max_points(monkeypatch):
    pts = np.random.default_rng(5).random((100, 2))
    ens = integrate_flow(get_field("C"), EXACT, pts, [0.0, 0.1])
    sizes = []

    def counting(fld, cfg, initial_points, times):
        sizes.append(len(initial_points))
        return integrate_flow(fld, cfg, initial_points, times)

    monkeypatch.setattr(flow, "integrate_flow", counting)
    assert check_group_property(ens, 0.2, 0.3, max_points=32) < 1e-10
    assert sizes and max(sizes) <= 32


def test_group_defect_h_refinement_slope():
    # incommensurate times so the step sequences differ between the
    # composed and the direct runs
    from bvflow.experiments import fit_rate

    rng = np.random.default_rng(3)
    pts = rng.random((12, 2))
    fld = get_field("A")
    hs = [4e-3, 2e-3, 1e-3]
    defects = []
    for h in hs:
        ens = integrate_flow(fld, FlowSolverConfig(step=h), pts, [0.0, 0.1])
        defects.append(check_group_property(ens, 0.2137, 0.3341, max_points=12))
    slope, _ = fit_rate(defects, hs)
    assert slope >= 3.8


def test_ode_residual():
    ens_c = integrate_flow(get_field("C"), EXACT, np.array([[0.25, 0.0]]), [0.0, 0.5])
    assert check_ode_residual(ens_c, (0.25, 0.0), 0.5) < 1e-12
    assert check_ode_residual(ens_c, (0.25, 0.0), 0.0) == 0.0
    ens_a = integrate_flow(get_field("A"), RK4, np.array([[0.3, 0.4]]), [0.0, 1.0])
    assert check_ode_residual(ens_a, (0.3, 0.4), 1.0) < 1e-5


def test_density_constant_fields():
    grid = torus_grid(32)
    for fid in ("C", "D"):
        ens = integrate_flow(get_field(fid), EXACT, grid, [0.0, 1.0])
        dens = density_from_flow(ens, 1.0)
        assert np.all(dens.values == 1.0)
        assert dens.total_mass() == 1.0
    ens_a = integrate_flow(get_field("A"), FlowSolverConfig(step=2e-3), grid, [0.0, 1.0])
    dens_a = density_from_flow(ens_a, 1.0)
    assert np.max(np.abs(dens_a.values - 1.0)) < 1e-6
    assert abs(dens_a.total_mass() - 1.0) < 1e-6


def test_density_consistent_with_backward_route():
    # exp(-log J(-t, x)) samples mu(t, .) at X(-t, x): interpolating the
    # forward-grid density at those scattered points must agree
    fld = get_field("B")
    fm = ExactFlowMap(fld)
    rng = np.random.default_rng(8)
    pts = rng.random((200, 2))
    back_pos = fm.position(-0.4, pts)
    back_logj = fm.log_jacobian(-0.4, pts)
    mu_at_back = fm.density(0.4, back_pos)
    assert np.max(np.abs(np.exp(-back_logj) - mu_at_back)) < 1e-10


def test_histogram_uniform_for_shear():
    grid = torus_grid(256)
    ens = integrate_flow(get_field("C"), EXACT, grid, [0.0, 0.3])
    hist = pushforward_histogram(ens, 0.3, 32)
    assert np.max(np.abs(hist.values - 1.0)) < 1e-12


def test_density_matches_histogram_field_b():
    # histogram of the backward ensemble estimates mu(t, .) = X(-t)_# lambda
    fld = get_field("B")
    grid = torus_grid(512)
    ens = integrate_flow(fld, EXACT, grid, [-0.5, 0.0, 0.5])
    bins = 64
    hist = pushforward_histogram(ens, -0.5, bins)
    dens = density_from_flow(ens, 0.5)
    # bin-average the density samples (they live on the uniform grid)
    ij = np.clip((dens.points * bins).astype(int), 0, bins - 1)
    flat = ij[:, 0] * bins + ij[:, 1]
    sums = np.bincount(flat, weights=dens.values, minlength=bins * bins)
    counts = np.bincount(flat, minlength=bins * bins)
    mu_bins = sums / counts
    # sup-norm agreement relative to the density's own sup: pointwise
    # relative error in bins holding a handful of lattice points is
    # sampling noise, not a property of either estimator
    diff = np.max(np.abs(hist.values - mu_bins))
    assert diff < 0.05 * np.max(mu_bins)


def test_field_b_histogram_band():
    # bounded-divergence band: density within [exp(-2 pi t), exp(2 pi t)] up to
    # lattice sampling error
    t = 0.5
    ens = integrate_flow(get_field("B"), EXACT, torus_grid(512),
                         [0.0, t])
    hist = pushforward_histogram(ens, t, 8)
    lo, hi = math.exp(-TWO_PI * t), math.exp(TWO_PI * t)
    assert hist.values.min() >= lo - 0.05
    assert hist.values.max() <= hi + 0.05
    # and the band is attained in spirit: spread over a factor > 20
    assert hist.values.max() / max(hist.values.min(), 1e-3) > 20


# --- field E: the pathological battery ------------------------------------


def test_field_e_forward_rk4_raises():
    with pytest.raises(NonTransversalCrossingError):
        integrate_flow(get_field("E"), RK4, np.array([[0.45, 0.2]]), [0.0, 0.2])
    # many points, several meeting x1 = 1/2 within one long step: the
    # error names the first to reach it, on the interface
    pts = np.random.default_rng(4).random((20, 2))
    with pytest.raises(NonTransversalCrossingError) as info:
        integrate_flow(get_field("E"), FlowSolverConfig(step=0.1), pts, [0.0, 0.6])
    first = np.argmin(np.abs(pts[:, 0] - 0.5))
    assert abs(info.value.point[0] - 0.5) <= 1e-9
    assert info.value.point[1] == pytest.approx(pts[first, 1], abs=1e-12)


def test_field_e_multi_time_raises_where_its_largest_time_alone_does():
    # the nearer times are finished on copies of the march to the largest
    # one, and the error names the point that march reaches first
    pts = np.random.default_rng(4).random((20, 2))
    cfg = FlowSolverConfig(step=0.1)
    points = []
    for times in ([0.0, 0.05, 0.6, 0.35, 0.2], [0.0, 0.6]):
        with pytest.raises(NonTransversalCrossingError) as info:
            integrate_flow(get_field("E"), cfg, pts, times)
        points.append(info.value.point)
    assert np.array_equal(*points)


@pytest.mark.parametrize("cfg", [RK4, EXACT])
def test_field_e_backward_raises(cfg):
    with pytest.raises(NonTransversalCrossingError):
        integrate_flow(get_field("E"), cfg, np.array([[0.2, 0.2]]), [0.0, -0.3])


def test_field_e_sticky_forward():
    pts = np.array([[0.45, 0.2], [0.2, 0.5], [0.8, 0.1], [0.05, 0.0]])
    ens = integrate_flow(get_field("E"), EXACT, pts, [0.0, 0.4])
    pos = ens.positions[ens.time_index(0.4)]
    assert np.allclose(pos[:, 0], [0.5, 0.5, 0.5, 0.45])
    assert np.allclose(pos[:, 1], pts[:, 1])


def test_field_e_histogram_blowup_and_vacuum():
    grid = torus_grid(256)
    ens = integrate_flow(get_field("E"), EXACT, grid, [0.0, 0.4, 0.6])
    hist4 = pushforward_histogram(ens, 0.4, 32)
    vals4 = hist4.values.reshape(32, 32)
    # the column containing x1 = 1/2 holds the collided mass 0.8
    peak_col = vals4[16, :]
    assert np.all(peak_col > 0.8 * 32 * 0.9)
    # bins in the depleted region are empty already
    assert np.all(vals4[1:12, :] == 0.0)
    hist6 = pushforward_histogram(ens, 0.6, 32)
    vals6 = hist6.values.reshape(32, 32)
    assert np.all(vals6[0, :] == 0.0)  # bins at x1 near 0 are empty
    assert np.all(vals6[1:16, :] == 0.0)


def test_collision_branch_discrepancy():
    grid = torus_grid(400)
    z_l, z_r = collision_branch_maps(grid, 0.3)
    disc = float(np.mean(torus_distance(z_l, z_r)))
    # collided mass 0.6 times torus distance 0.4 between the branches
    assert disc == pytest.approx(0.24, abs=2e-3)
    assert disc >= 0.1
    # off the collision band the branches agree
    off = np.abs(grid[:, 0] - 0.5) > 0.3
    assert np.all(z_l[off] == z_r[off])
    with pytest.raises(ValueError):
        collision_branch_maps(grid, 0.6)


# --- transversal crossings (non-catalog strip fixture) ---------------------


def transversal_fixture():
    # b = (1, +1) left of the surfaces, (1, -1) right: unit normal speed
    # both sides, so every crossing is transversal
    return _strip_field("T", "bv", (1, 0), (1.0, 1.0), (1.0, -1.0))


def oracle_transversal(pts, t):
    """Closed form of the fixture's flow: x1 moves at unit speed and x2
    integrates +-1, so x2(t) = x2 + F(x1 + t) - F(x1) with F(s) the
    distance from s to the nearest integer."""

    def tent(s):
        s = np.mod(s, 1.0)
        return np.minimum(s, 1.0 - s)

    x1, x2 = pts[:, 0], pts[:, 1]
    return np.stack(
        [np.mod(x1 + t, 1.0), np.mod(x2 + tent(x1 + t) - tent(x1), 1.0)], axis=-1
    )


@pytest.mark.parametrize(
    "pts, t",
    [
        (np.array([[0.25, 0.1], [0.4, 0.9], [0.75, 0.33], [0.1, 0.6]]), 0.6),
        # one column: every point crosses x1 = 1/2 and x1 = 1 in the same step
        (np.stack([np.full(16, 0.45), (np.arange(16) + 0.5) / 16], axis=-1), 0.6),
        (np.random.default_rng(21).random((256, 2)), -0.7),
    ],
    ids=["four-points", "column-same-step", "seeded-256-backward"],
)
def test_transversal_crossing_accuracy(pts, t):
    fld = transversal_fixture()
    ens = integrate_flow(fld, RK4, pts, [0.0, t])
    pos = ens.positions[ens.time_index(t)]
    assert np.max(torus_distance(pos, oracle_transversal(pts, t))) < 1e-9
    assert np.max(np.abs(ens.log_jacobian)) == 0.0


@pytest.mark.parametrize("budget, raises", [(1, True), (2, False)],
                         ids=["budget1-raises", "budget2-passes"])
def test_max_crossings_guard(monkeypatch, budget, raises):
    # from x1 = 0.45 over t = 0.7 the trajectory crosses x1 = 1/2 and x1 = 1
    fld = transversal_fixture()
    monkeypatch.setattr(flow, "MAX_CROSSINGS", budget)
    pts = np.array([[0.45, 0.0]])
    if raises:
        with pytest.raises(RunawayTrajectoryError):
            integrate_flow(fld, RK4, pts, [0.0, 0.7])
    else:
        ens = integrate_flow(fld, RK4, pts, [0.0, 0.7])
        pos = ens.positions[ens.time_index(0.7)]
        assert np.max(torus_distance(pos, oracle_transversal(pts, 0.7))) < 1e-9


def test_checks_run_on_a_field_outside_the_catalog():
    # the ensemble carries its field; the fixture has no catalog id to look up
    pts = np.random.default_rng(4).random((16, 2))
    ens = integrate_flow(transversal_fixture(), RK4, pts, [0.0, 0.1])
    assert check_group_property(ens, 0.2, 0.3) < 1e-9
    assert check_ode_residual(ens, (0.1, 0.2), 0.3) < 1e-12


def crossing_steps(k, seed, h_range=(2e-3, 1e-2), reach=0.95):
    """k steps of mixed sign, each meeting x1 = 1/2: forward steps start
    left of the surface, backward ones right of it, a distance gap (at
    unit normal speed, the crossing time) of up to reach |h| short of it."""
    rng = np.random.default_rng(seed)
    h = rng.uniform(*h_range, k) * np.where(np.arange(k) % 2, 1.0, -1.0)
    gap = rng.uniform(0.05, reach, k) * np.abs(h)
    y = np.stack([0.5 - np.sign(h) * gap, rng.random(k)], axis=-1)
    return h, gap, y


def cross_at_half(fld, h, y):
    k = len(h)
    normals, offsets = np.tile([1.0, 0.0], (k, 1)), np.full(k, 0.5)
    return flow._cross(fld, y, np.zeros(k), h, np.ones(k), normals, offsets)


def test_cross_locates_closed_form_crossing():
    # on the fixture x1 moves at unit speed, so the crossing time is gap
    h, gap, y = crossing_steps(12, seed=9)
    y_new, _, used = cross_at_half(transversal_fixture(), h, y)
    assert np.max(np.abs(used - gap)) <= 2.0 * catalog.TAU_SIGMA
    for i in range(len(h)):
        assert y_new[i, 0] - 0.5 == pytest.approx(np.sign(h[i]) * 2e-12, abs=1e-15)


def test_cross_pinned_steps_on_constant_pieces(monkeypatch):
    # the level of a pinned step is linear in the fraction on a constant
    # piece: the full step and one secant point, whose step is kept as
    # the crossing step
    calls = []
    rk4_step = flow._rk4_step

    def counting(*args, **kwargs):
        calls.append(1)
        return rk4_step(*args, **kwargs)

    monkeypatch.setattr(flow, "_rk4_step", counting)
    h, _, y = crossing_steps(12, seed=9)
    cross_at_half(transversal_fixture(), h, y)
    assert len(calls) == 2


def curved_fixture():
    # the normal speed 1 + 0.4 sin 2 pi x1 varies along a step, so the
    # level of a pinned step is curved in the step fraction; the traces
    # differ only tangentially, so every crossing is transversal
    def piece(name, sign):
        def b(p):
            s = TWO_PI * p[:, 0]
            return np.stack([1.0 + 0.4 * np.sin(s), sign * (0.5 + 0.3 * np.cos(s))], axis=-1)

        def jac(p):
            s = TWO_PI * p[:, 0]
            out = np.zeros((p.shape[0], 2, 2))
            out[:, 0, 0] = 0.4 * TWO_PI * np.cos(s)
            out[:, 1, 0] = -sign * 0.3 * TWO_PI * np.sin(s)
            return out

        return catalog.Piece(name, b, jac)

    def jump(offset, b_plus, b_minus):
        diff = np.subtract(b_plus, b_minus)
        sigma = float(np.linalg.norm(diff))
        return catalog.JumpComponent((1, 0), offset, (1.0, 0.0), tuple(diff / sigma),
                                     sigma, b_plus, b_minus)

    return catalog.PiecewiseField(
        "S", "bv", (piece("lower", 1.0), piece("upper", -1.0)),
        (jump(0.0, (1.0, 0.8), (1.0, -0.8)), jump(0.5, (1.0, -0.2), (1.0, 0.2))),
        strip_normal=(1, 0), strip_bounds=(0.0, 0.5),
    )


def test_cross_on_curved_level():
    fld = curved_fixture()
    # at normal speeds in [0.6, 1.4] a start 0.55 |h| short of the
    # surface reaches it within the step
    h, _, y = crossing_steps(16, seed=10, h_range=(0.02, 0.1), reach=0.55)
    y_new, logj_new, used = cross_at_half(fld, h, y)
    assert np.all(used > 0) and np.all(used < np.abs(h))
    landed, landed_logj, _ = flow._rk4_step(fld, y, np.zeros(len(h)), np.sign(h) * used,
                                            fld.piece_index(y))
    assert np.max(np.abs(wrap_half(landed[:, 0] - 0.5))) <= catalog.TAU_SIGMA
    assert np.all(np.sign(y_new[:, 0] - 0.5) == np.sign(h))
    # the kept trial step is that step to the last bit: projected onto
    # x1 = 1/2 and placed 2 TAU_SIGMA past it, as _cross places it
    n = np.tile([1.0, 0.0], (len(h), 1))
    nn = np.sum(n * n, axis=1)[:, None]
    x_surf = landed - wrap_half(np.sum(landed * n, axis=1) - 0.5)[:, None] * n / nn
    probe = np.sign(h)[:, None] * (2.0 * catalog.TAU_SIGMA) * n / nn
    assert np.array_equal(y_new, x_surf + probe)
    assert np.array_equal(logj_new, landed_logj) and np.any(logj_new != 0.0)
    # whole trajectories, forward and backward, against a step of 1e-4
    pts = np.random.default_rng(10).random((32, 2))
    coarse, fine = (integrate_flow(fld, FlowSolverConfig(step=step), pts, [-0.3, 0.0, 0.4])
                    for step in (2e-3, 1e-4))
    assert np.max(torus_distance(coarse.positions, fine.positions)) < 1e-9


@pytest.mark.parametrize("fid", ["A", "B", "C", "D", "T"])
@pytest.mark.parametrize(
    "step, times",
    [(0.08, [0.41, 0.0, 0.39, 0.4]),
     (0.03, [0.3, -0.25, 0.07, 0.3, -0.6, 0.0, 1.0, -0.0])],
    ids=["one-step-apart", "mixed"],
)
def test_each_time_matches_its_lone_solve(fid, step, times):
    # every time of one call, repeats included, is bit-identical to a call
    # for it alone, so a result does not depend on the other times asked
    fld = transversal_fixture() if fid == "T" else get_field(fid)
    cfg = FlowSolverConfig(step=step)
    pts = np.random.default_rng(11).random((24, 2))
    ens = integrate_flow(fld, cfg, pts, times)
    for k, t in enumerate(ens.times):
        lone = integrate_flow(fld, cfg, pts, [0.0, t])
        j = lone.time_index(t)
        assert np.array_equal(ens.positions[k], lone.positions[j])
        assert np.array_equal(ens.displacements[k], lone.displacements[j])
        assert np.array_equal(ens.log_jacobian[k], lone.log_jacobian[j])


@pytest.mark.parametrize("fid", ["A", "B", "C", "T", "S"])
def test_each_trajectory_matches_its_one_point_solve(fid):
    # trajectories are independent to the last bit: no point's position or
    # log J depends on which other points share its solve (a strip field
    # evaluates every piece on all the points of a stage)
    fld = {"T": transversal_fixture, "S": curved_fixture}.get(fid, lambda: get_field(fid))()
    cfg = FlowSolverConfig(step=0.02)
    pts = np.random.default_rng(12).random((48, 2))
    times = [-0.35, 0.0, 0.45]
    ens = integrate_flow(fld, cfg, pts, times)
    for i in range(pts.shape[0]):
        lone = integrate_flow(fld, cfg, pts[i : i + 1], times)
        assert np.array_equal(ens.positions[:, i], lone.positions[:, 0])
        assert np.array_equal(ens.log_jacobian[:, i], lone.log_jacobian[:, 0])


@pytest.mark.parametrize("fid", ["C", "D"])
def test_strip_exact_prep_is_the_piece_velocity_table(fid):
    # each point's velocity is its piece's constant value, looked up by
    # piece index; the points are unwrapped, some far off [0, 1)
    fld = get_field(fid)
    pts = np.random.default_rng(13).uniform(-3.0, 4.0, (256, 2))
    table = np.array([pc.b(np.zeros((1, 2)))[0] for pc in fld.pieces])
    expected = np.take(table, fld.piece_index(wrap_coords(pts)), axis=0)
    assert np.array_equal(flow._exact_prep(fld, pts), expected)


def test_initial_point_on_surface_is_nudged():
    # exactly on x1 = 1/2: the +1e-9 eta convention puts it on the
    # descending strip of field C
    ens = integrate_flow(get_field("C"), RK4, np.array([[0.5, 0.5]]), [0.0, 0.25])
    pos = ens.positions[ens.time_index(0.25)]
    assert pos[0, 1] == pytest.approx(0.25, abs=1e-8)


# --- flow maps -------------------------------------------------------------


def test_interpolated_flow_map_accuracy():
    fld = get_field("A")
    fm = InterpolatedFlowMap(fld, FlowSolverConfig(step=2e-3), grid_n=192)
    pos_err, logj_err = fm.interpolation_error(0.3)
    assert pos_err < 1e-5
    assert logj_err < 1e-6


# The spline evaluator against ndimage's periodic cubic B-spline.  The
# query points are dyadic, so the oracle's reduction mod 1 is exact:
# negative coordinates, coordinates >= 1, the seam and exact knots.
SPLINE_ORACLE_TOL = 1e-14


def spline_query_points():
    rng = np.random.default_rng(11)
    scattered = np.round((rng.random((400, 2)) * 3.0 - 1.0) * 2.0**20) / 2.0**20
    knots = np.array([[0.0, 0.0], [1.0, 0.5], [-1.0, 0.25], [0.5, 2.0],
                      [3 / 32, 1 + 5 / 32], [-7 / 32, -0.0]])
    seam = np.array([[0.0, 0.3], [1.0, 0.3], [-(2.0**-40), 0.7], [1 - 2.0**-40, 0.1]])
    return np.concatenate([scattered, knots, seam])


def small_spline_map(fid):
    fm = InterpolatedFlowMap(get_field(fid), FlowSolverConfig(step=1e-2), grid_n=32)
    fm.prepare([0.3])
    return fm


def spline_oracle_error(fm, t, pts):
    from scipy import ndimage

    n = fm.grid_n
    coords = (np.mod(pts, 1.0) * n).T
    table = fm._lookup(t).reshape(3, n, n)
    want = np.stack([
        ndimage.map_coordinates(c, coords, order=3, mode="grid-wrap", prefilter=False)
        for c in table
    ], axis=-1)
    got = np.column_stack([fm.displacement(t, pts), fm.log_jacobian(t, pts)])
    return float(np.max(np.abs(got - want)))


@pytest.mark.parametrize("fid", ["A", "B"])
def test_spline_evaluator_matches_ndimage(fid):
    fm = small_spline_map(fid)
    assert spline_oracle_error(fm, 0.3, spline_query_points()) <= SPLINE_ORACLE_TOL


def test_spline_oracle_catches_a_weight_error(monkeypatch):
    exact = flow._bspline_weights

    def planted(s):
        w = exact(s)
        w[0] += 1e-9
        return w

    monkeypatch.setattr(flow, "_bspline_weights", planted)
    fm = small_spline_map("A")
    assert spline_oracle_error(fm, 0.3, spline_query_points()) > SPLINE_ORACLE_TOL


# The prefilter against its definition: the spline whose coefficients
# are the stored table must take the integrated values at the grid
# nodes.  At node i a cubic B-spline is (c[i-1] + 4 c[i] + c[i+1]) / 6
# along each axis, so the check needs neither scipy nor the evaluator.
PREFILTER_NODE_TOL = 1e-13


def spline_grid_values(fm, t):
    """The integrated displacement channels and log J on the map's grid,
    as (3, n, n)."""
    ens = integrate_flow(fm.field, fm.config, fm._grid, [0.0, t])
    k = ens.time_index(t)
    n = fm.grid_n
    return np.concatenate([ens.displacements[k].T, ens.log_jacobian[k][None]]).reshape(3, n, n)


def spline_node_error(fm, t):
    n = fm.grid_n
    c = fm._lookup(t).reshape(3, n, n)
    rows = (np.roll(c, 1, axis=1) + 4.0 * c + np.roll(c, -1, axis=1)) / 6.0
    nodes = (np.roll(rows, 1, axis=2) + 4.0 * rows + np.roll(rows, -1, axis=2)) / 6.0
    return float(np.max(np.abs(nodes - spline_grid_values(fm, t))))


@pytest.mark.parametrize("fid", ["A", "B"])
def test_spline_prefilter_reproduces_grid_values(fid):
    assert spline_node_error(small_spline_map(fid), 0.3) <= PREFILTER_NODE_TOL


@pytest.mark.parametrize("fid", ["A", "B"])
def test_spline_prefilter_matches_ndimage(fid):
    from scipy import ndimage

    fm = small_spline_map(fid)
    want = np.stack([
        ndimage.spline_filter(g, order=3, mode="grid-wrap")
        for g in spline_grid_values(fm, 0.3)
    ])
    got = fm._lookup(0.3).reshape(want.shape)
    assert float(np.max(np.abs(got - want))) <= 1e-14


def test_spline_node_check_catches_a_symbol_error(monkeypatch):
    exact = flow._bspline_symbol
    monkeypatch.setattr(flow, "_bspline_symbol", lambda n: exact(n) * (1.0 + 1e-9))
    assert spline_node_error(small_spline_map("A"), 0.3) > PREFILTER_NODE_TOL


@pytest.mark.parametrize("fid", ["A", "B", "direct-B"])
def test_spline_batch_matches_plain_and_serves_only_its_array(fid):
    # the direct map's batch state is the solutions of the batch's times
    # (off the step lattice here), solved in one call
    fm = (DirectFlowMap(get_field("B"), FlowSolverConfig(step=1e-2)) if fid == "direct-B"
          else small_spline_map(fid))
    pts = spline_query_points()
    other = pts.copy()
    other[::2] += 0.1

    def query(p):
        return fm.displacement(0.3, p), fm.log_jacobian(0.3, p), fm.density(0.3, p)

    plain, plain_other = query(pts), query(other)
    fm.begin_batch(pts, [0.296, 0.3, 0.304])
    batched, batched_copy, batched_other = query(pts), query(pts.copy()), query(other)
    fm.end_batch()
    for got, want in ((batched, plain), (batched_copy, plain), (batched_other, plain_other)):
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
    assert not np.array_equal(plain_other[0], plain[0])


def test_spline_batch_over_row_blocks_matches_the_one_matrix_product():
    # a batch evaluates all its times in one product taken block by block
    # over the points; every value must be the bits of the whole-array
    # tap-weight matrix times that time's table, on either side of a block
    # seam, and so must a plain query and a time outside the batch
    fm = small_spline_map("A")
    m = 2 * flow.SPLINE_ROW_BLOCK + 37
    pts = np.random.default_rng(12).random((m, 2)) * 3.0 - 1.0
    matrix = flow._spline_matrix(pts, fm.grid_n)
    times = [0.296, 0.3, 0.304]
    fm.begin_batch(pts, times)
    batched = {t: (fm.displacement(t, pts), fm.log_jacobian(t, pts))
               for t in times + [0.31]}
    fm.end_batch()
    for t, (disp, logj) in batched.items():
        table = fm._lookup(t)
        want = np.stack([matrix @ table[c] for c in range(3)], axis=-1)
        for got in (np.column_stack([disp, logj]),
                    np.column_stack([fm.displacement(t, pts), fm.log_jacobian(t, pts)])):
            assert np.array_equal(got, want)


def test_shifted_grid_points_are_the_shifted_tensor_grid():
    axis0, axis1 = np.array([0.1, 0.4, 0.75]), np.array([0.2, 0.9])
    shifts = np.array([[0.0, 0.0], [0.05, -0.3], [-0.5, 0.125], [0.3, 0.01]])
    grid = ShiftedGrid(axis0, axis1, shifts)
    mesh = np.stack(np.meshgrid(axis0, axis1, indexing="ij"), axis=-1).reshape(-1, 2)
    assert np.array_equal(grid.points, (mesh[None, :, :] + shifts[:, None, :]).reshape(-1, 2))


@pytest.mark.parametrize("t", [-0.2, 0.3])
def test_exact_b_grid_batch_matches_the_flat_batch_and_plain_queries(t):
    # B's grid state evaluates the closed form once per grid line x1 =
    # axis0 + shift0; lines through the fixed points 0 and 1/2 exactly,
    # and axes of different lengths, so that a swapped axis shows
    fm = ExactFlowMap(get_field("B"))
    axis0 = np.array([0.0, 0.125, 0.25, 0.5, 0.7, 0.9])
    axis1 = np.array([0.05, 0.35, 0.6, 0.95])
    shifts = np.array([[0.0, 0.0], [0.25, -0.1], [-0.125, 0.3], [0.5, 0.05], [0.03, 0.02]])
    grid = ShiftedGrid(axis0, axis1, shifts)
    pts = grid.points
    u = np.mod(pts[:, 0], 1.0)
    assert (u == 0.0).any() and (u == 0.5).any()
    queries = (fm.displacement, fm.log_jacobian, fm.density)
    plain = [q(t, pts) for q in queries]
    fm.begin_batch(pts, [t])
    flat = [q(t, pts) for q in queries]
    fm.begin_batch(grid, [t])
    on_grid = [q(t, pts) for q in queries]
    fm.end_batch()
    for p, f, g in zip(plain, flat, on_grid):
        assert p.shape == g.shape
        assert np.array_equal(p, f)
        assert np.array_equal(p, g)


@pytest.mark.parametrize("fid", ["A", "B"])
def test_interpolated_table_does_not_depend_on_prepare_order(fid):
    # a table is a function of its t alone: t prepared by itself or with
    # t +- dt gives the same bits (the step does not divide the times)
    def table(times):
        fm = InterpolatedFlowMap(get_field(fid), FlowSolverConfig(step=3e-2), grid_n=16)
        fm.prepare(times)
        return fm._lookup(0.3)

    assert np.array_equal(table([0.3]), table([0.29, 0.3, 0.31]))


def test_interpolated_flow_map_rejects_jump_fields():
    with pytest.raises(ValueError):
        InterpolatedFlowMap(get_field("C"))


def test_direct_flow_map_matches_ensemble():
    fld = get_field("B")
    fm = DirectFlowMap(fld, FlowSolverConfig(step=1e-3))
    pts = np.random.default_rng(6).random((30, 2))
    ens = integrate_flow(fld, FlowSolverConfig(step=1e-3), pts, [0.0, 0.4])
    k = ens.time_index(0.4)
    assert np.allclose(fm.position(0.4, pts), ens.positions[k])
    assert np.allclose(fm.density(0.4, pts), np.exp(ens.log_jacobian[k]))


def test_make_flow_map_dispatch():
    assert isinstance(make_flow_map(get_field("C"), RK4), ExactFlowMap)
    assert isinstance(make_flow_map(get_field("B"), EXACT), ExactFlowMap)
    assert isinstance(make_flow_map(get_field("B"), RK4), InterpolatedFlowMap)
    assert isinstance(make_flow_map(get_field("A"), RK4), InterpolatedFlowMap)
    with pytest.raises(ValueError):
        ExactFlowMap(get_field("A"))


@pytest.mark.parametrize(
    "fid, t",
    [("B", -0.2), ("B", 0.3), ("C", -0.2), ("C", 0.3), ("D", -0.2), ("D", 0.3),
     ("E", 0.3)],
)
def test_exact_map_batch_consistency(fid, t):
    # the batch shares the closed form's time-independent part; it must
    # not change a single bit of any query
    fm = ExactFlowMap(get_field(fid))
    pts = np.random.default_rng(7).random((50, 2))
    queries = (fm.displacement, fm.log_jacobian, fm.density)
    plain = [q(t, pts) for q in queries]
    fm.begin_batch(pts)
    batched = [q(t, pts) for q in queries]
    fm.end_batch()
    for p, b in zip(plain, batched):
        assert np.array_equal(p, b)


def test_exact_map_new_batch_drops_memo():
    fm = ExactFlowMap(get_field("B"))
    p1, p2 = np.random.default_rng(8).random((2, 40, 2))
    fm.begin_batch(p1)
    fm.displacement(0.3, p1)
    fm.begin_batch(p2)
    assert np.array_equal(fm.displacement(0.3, p2),
                          ExactFlowMap(fm.field).displacement(0.3, p2))


def test_direct_flow_map_never_returns_another_arrays_result():
    # fresh arrays may reuse a freed array's address; no result may carry over
    fld = get_field("B")
    fm = DirectFlowMap(fld, FlowSolverConfig(step=1e-2))
    exact_map = ExactFlowMap(fld)
    stale = 0
    for i in range(50):
        pts = np.random.default_rng(i).random((64, 2))
        exact = exact_map.displacement(0.3, pts)
        err = np.max(np.abs(fm.displacement(0.3, pts) - exact))
        stale += int(err > 1e-6)
    assert stale == 0


def test_export_csv(tmp_path):
    pts = np.array([[0.25, 0.0], [0.6, 0.4]])
    ens = integrate_flow(get_field("C"), EXACT, pts, [0.0, 0.5])
    path = tmp_path / "snap.csv"
    export_csv(ens, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,x0_1,x0_2,x_1,x_2,logJ"
    assert len(lines) == 1 + 2 * 2
    last = [float(v) for v in lines[-1].split(",")]
    assert last == [0.5, 0.6, 0.4, 0.6, 0.9, 0.0]
