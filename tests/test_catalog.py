import math

import numpy as np
import pytest

from bvflow.catalog import (
    FIELD_IDS,
    NoJumpError,
    OnJumpError,
    Piece,
    PiecewiseField,
    get_field,
    shifted_strip_quadrature,
    surface_quadrature,
    total_jump_mass,
    volume_quadrature,
)

TWO_PI = 2.0 * math.pi


def test_catalog_ids_and_classification():
    assert FIELD_IDS == ("A", "B", "C", "D", "E")
    classes = {fid: get_field(fid).classification for fid in FIELD_IDS}
    assert classes == {
        "A": "smooth",
        "B": "smooth",
        "C": "bv",
        "D": "bv",
        "E": "pathological",
    }
    with pytest.raises(KeyError):
        get_field("Z")


def test_eval_examples():
    a = get_field("A")
    assert np.allclose(a.eval_b((0.25, 0.0)), (0.0, 1.0), atol=1e-15)
    c = get_field("C")
    assert np.allclose(c.eval_b((0.25, 0.7)), (0.0, 1.0))
    assert np.allclose(c.eval_b((0.75, 0.7)), (0.0, -1.0))
    e = get_field("E")
    assert np.allclose(e.eval_b((0.3, 0.5)), (1.0, 0.0))


def test_jacobian_examples():
    a = get_field("A")
    assert np.allclose(
        a.grad_a((0.0, 0.0)), [[0.0, -TWO_PI], [TWO_PI, 0.0]], atol=1e-12
    )
    b = get_field("B")
    assert np.allclose(b.grad_a((0.0, 0.0)), [[TWO_PI, 0.0], [0.0, 0.0]])
    c = get_field("C")
    assert np.allclose(c.grad_a((0.2, 0.9)), np.zeros((2, 2)))


def test_divergence_examples():
    assert get_field("A").div_a((0.3, 0.8)) == pytest.approx(0.0, abs=1e-12)
    assert get_field("B").div_a((0.0, 0.4)) == pytest.approx(TWO_PI)
    assert get_field("C").div_a((0.31, 0.2)) == 0.0


def test_on_jump_signal_carries_traces():
    c = get_field("C")
    with pytest.raises(OnJumpError) as err:
        c.eval_b((0.5, 0.3))
    assert np.allclose(err.value.b_plus, (0.0, -1.0))
    assert np.allclose(err.value.b_minus, (0.0, 1.0))
    with pytest.raises(OnJumpError):
        c.grad_a((0.0, 0.9))


def test_jump_data_c():
    xi, eta, sigma = get_field("C").jump_data((0.5, 0.123))
    assert np.allclose(xi, (0.0, -1.0))
    assert np.allclose(eta, (1.0, 0.0))
    assert sigma == pytest.approx(2.0)


def test_jump_data_d_rotated_normal():
    d = get_field("D")
    # a point with 2 x1 + x2 = 0.5 exactly
    xi, eta, sigma = d.jump_data((0.125, 0.25))
    assert np.allclose(eta, np.array([2.0, 1.0]) / math.sqrt(5.0))
    assert abs(float(xi @ eta)) < 1e-14
    assert sigma == pytest.approx(2.0)


def test_jump_data_e_violates_orthogonality():
    xi, eta, sigma = get_field("E").jump_data((0.5, 0.9))
    assert np.allclose(xi, (-1.0, 0.0))
    assert np.allclose(eta, (1.0, 0.0))
    assert float(np.dot(xi, eta)) == pytest.approx(-1.0)
    assert sigma == pytest.approx(2.0)
    assert get_field("E").singular_divergence_violation() == pytest.approx(1.0)


def test_jump_data_off_surface_raises():
    with pytest.raises(NoJumpError):
        get_field("C").jump_data((0.25, 0.25))


def test_orthogonality_at_surface_nodes():
    for fid in ("C", "D"):
        for jump in get_field(fid).jumps:
            nodes = jump.nodes(128)
            # jump data constant along the surface for the catalog
            assert abs(float(np.dot(jump.xi, jump.eta))) < 1e-14
            # every node really sits on the surface
            assert np.max(np.abs(jump.level(nodes))) < 1e-12


def test_surface_quadrature_examples():
    c = get_field("C")
    total = sum(surface_quadrature(j, lambda xs: 1.0) for j in c.jumps)
    assert total == pytest.approx(4.0, abs=1e-12)  # |D^s b|(T^2) for C
    # indicator of half of one line
    half = surface_quadrature(
        c.jumps[1], lambda xs: (xs[:, 1] < 0.5).astype(float), m=512
    )
    assert half == pytest.approx(1.0, abs=1e-8)
    pairing = sum(
        surface_quadrature(j, lambda xs: 1.0) * float(np.dot(j.xi, j.eta))
        for j in c.jumps
    )
    assert pairing == 0.0
    assert total_jump_mass(get_field("D")) == pytest.approx(4.0 * math.sqrt(5.0))


def test_volume_quadrature_measures():
    for fid in FIELD_IDS:
        pts, wts = volume_quadrature(get_field(fid), 64)
        assert np.isclose(np.sum(wts), 1.0, atol=1e-13)
        assert np.all((pts >= 0) & (pts < 1))


@pytest.mark.parametrize("fid", ["C", "D"])
def test_shifted_strip_rows_are_the_volume_grids(fid):
    # row g is volume_quadrature split at the bounds minus shifts[g]; where
    # the cuts coincide (shift 0 and shift 1/2) volume_quadrature drops the
    # panel and the stacked row keeps it at weight zero with finite nodes
    fld = get_field(fid)
    shifts = np.array([-0.11, -0.0375, 0.0, 0.02, 0.5])
    pts, wts = shifted_strip_quadrature(fld, shifts, 3, 8)
    assert pts.shape == (5, 2 * 2 * 8 * 3, 2) and wts.shape == (5, 2 * 2 * 8 * 3)
    assert np.isfinite(pts).all()
    for shift, row_pts, row_wts in zip(shifts, pts, wts):
        ref_pts, ref_wts = volume_quadrature(
            fld, 3, 8, extra_breakpoints=[b - shift for b in fld.strip_bounds])
        kept = row_wts != 0.0
        assert kept.sum() == ref_wts.size
        assert np.array_equal(row_pts[kept], ref_pts)
        assert np.array_equal(row_wts[kept], ref_wts)
        assert math.fsum(row_wts) == pytest.approx(1.0, abs=1e-14)


def test_vectorized_matches_scalar_off_jumps():
    rng = np.random.default_rng(4)
    for fid in FIELD_IDS:
        fld = get_field(fid)
        pts = rng.random((20, 2))
        keep = np.ones(20, dtype=bool)
        for jump in fld.jumps:
            keep &= np.abs(jump.level(pts)) > 1e-6
        pts = pts[keep]
        many = fld.eval_many(pts)
        for i, p in enumerate(pts):
            assert np.allclose(fld.eval_b(p), many[i])


def test_eval_with_divergence_matches_separate_routes():
    rng = np.random.default_rng(12)
    pts = rng.random((64, 2))
    for fid in FIELD_IDS:
        fld = get_field(fid)
        b, div = fld.eval_with_divergence(pts)
        assert np.array_equal(b, fld.eval_many(pts))
        assert np.array_equal(div, fld.divergence_many(pts))
        # pinned pieces evaluate their own smooth extension everywhere
        pinned = np.arange(64) % len(fld.pieces)
        b, div = fld.eval_with_divergence(pts, pinned)
        for k, pc in enumerate(fld.pieces):
            rows = pinned == k
            assert np.array_equal(b[rows], pc.b(pts[rows]))
            trace = np.trace(pc.jacobian(pts[rows]), axis1=1, axis2=2)
            assert np.array_equal(div[rows], trace)


THREE_BOUNDS = (0.2, 0.45, 0.7)


def three_piece_field():
    """A strip field on the level <x, (1, 2)> with three non-constant
    pieces; s below the first bound wraps to the last piece.  The middle
    piece has no closed-form divergence, so it takes the Jacobian's
    trace."""

    def piece(k, with_div):
        a, c = 1.0 + k, 0.5 * (k - 1)

        def b(p):
            return np.stack([np.sin(TWO_PI * a * p[:, 0]) + c, p[:, 0] * p[:, 1] - c], axis=-1)

        def jac(p):
            out = np.zeros((p.shape[0], 2, 2))
            out[:, 0, 0] = TWO_PI * a * np.cos(TWO_PI * a * p[:, 0])
            out[:, 1, 0] = p[:, 1]
            out[:, 1, 1] = p[:, 0]
            return out

        def div(p):
            return TWO_PI * a * np.cos(TWO_PI * a * p[:, 0]) + p[:, 0]

        return Piece(f"p{k}", b, jac, div if with_div else None)

    return PiecewiseField("P3", "bv", (piece(0, True), piece(1, False), piece(2, True)),
                          strip_normal=(1, 2), strip_bounds=THREE_BOUNDS)


def reference_piece(p):
    """The active piece of one point, by a loop over the bounds."""
    s = (p[0] + 2.0 * p[1]) % 1.0
    k = len(THREE_BOUNDS) - 1
    for j, bound in enumerate(THREE_BOUNDS):
        if s >= bound:
            k = j
    return k


def off_bounds(pts, margin=1e-9):
    """The points whose level is farther than margin from every bound."""
    s = np.mod(pts @ np.array([1.0, 2.0]), 1.0)
    return pts[np.min(np.abs(s[:, None] - np.array((0.0,) + THREE_BOUNDS)), axis=1) > margin]


def test_piece_dispatch_matches_a_per_point_reference():
    fld = three_piece_field()
    rng = np.random.default_rng(14)
    pts = off_bounds(rng.uniform(-1.5, 2.5, (400, 2)))
    active = np.array([reference_piece(p) for p in pts])
    level = np.mod(pts @ np.array([1.0, 2.0]), 1.0)
    last = active == 2
    assert np.any(last & (level < 0.2)) and np.any(last & (level >= 0.7))
    pinned = rng.integers(0, 3, pts.shape[0])
    # all pieces; one piece only, also across the wrap; pinned pieces
    cases = [(pts, None), (pts[active == 1], None), (pts[last], None),
             (pts, pinned), (pts, np.zeros_like(pinned))]
    for points, piece in cases:
        expect = piece if piece is not None else [reference_piece(p) for p in points]
        b, div = fld.eval_with_divergence(points, piece)
        for i, p in enumerate(points):
            pc = fld.pieces[expect[i]]
            assert np.array_equal(b[i], pc.b(p[None])[0])
            assert np.array_equal(div[i], pc.divergence(p[None])[0])
        if piece is None:
            assert np.array_equal(fld.piece_index(points), expect)
            assert np.array_equal(b, fld.eval_many(points))
            assert np.array_equal(div, fld.divergence_many(points))
            jac = fld.jacobian_many(points)
            for i, p in enumerate(points):
                assert np.array_equal(jac[i], fld.pieces[expect[i]].jacobian(p[None])[0])


@pytest.mark.parametrize("fid", ["P3"] + list(FIELD_IDS))
def test_default_divergence_is_the_jacobian_trace(fid):
    fld = three_piece_field() if fid == "P3" else get_field(fid)
    pts = np.random.default_rng(15).random((64, 2))
    for pc in fld.pieces:
        bare = Piece(pc.name, pc.b, pc.jacobian)
        trace = np.trace(pc.jacobian(pts), axis1=-2, axis2=-1)
        assert bare.divergence(pts).tobytes() == trace.tobytes()


def test_fields_are_immutable():
    c = get_field("C")
    with pytest.raises(Exception):
        c.id = "X"
