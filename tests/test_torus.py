import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bvflow.torus import (
    gauss_legendre,
    min_image_coords,
    torus_distance,
    torus_grid,
    wrap_coords,
    wrap_half,
)

finite_coords = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False, allow_infinity=False),
    min_size=2,
    max_size=3,
)


def test_wrap_examples():
    assert wrap_coords((1.25, -0.5)).tolist() == [0.25, 0.5]
    assert wrap_coords((0.0, 0.999)).tolist() == [0.0, 0.999]
    assert wrap_coords((-3.0, 7.0)).tolist() == [0.0, 0.0]


def test_wrap_rejects_nonfinite():
    with pytest.raises(ValueError):
        wrap_coords((np.nan, 0.0))
    with pytest.raises(ValueError):
        wrap_coords((np.inf, 0.0))


def test_wrap_tiny_negative_stays_in_range():
    # -1e-17 % 1.0 rounds to 1.0 in IEEE; must fold to 0
    assert wrap_coords((-1e-17, 0.0))[0] == 0.0


# The np.mod formulation wrap_coords replaced; x - floor(x) must match it
# bit for bit.
def wrap_coords_by_mod(x):
    out = np.mod(x, 1.0)
    out[out >= 1.0] = 0.0
    return out


def wrap_half_exact(x):
    """x - floor(x + 1/2) in exact rational arithmetic: the representative
    of x modulo 1 in [-1/2, 1/2).  It is a multiple of ulp(x) no larger
    than |x|, so it is a float, and float() returns it unrounded."""
    r = Fraction(x)
    return float(r - math.floor(r + Fraction(1, 2)))


WRAP_EDGE_CASES = [
    -1e-17, -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
    -2.225073858507201e-308, 1e300, -1e300, 2.0**53 + 0.5, 2.0**52 + 0.5,
    -(2.0**52 + 0.5), 0.5, -0.5, 1.0, -1.0, 1.5, -1.5, 1.0 - 2.0**-53,
    -(1.0 - 2.0**-53), 0.5 - 2.0**-54, -0.5 - 2.0**-53, 2.0**-60, -(2.0**-60),
]


def assert_bits_equal(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40))
def test_wraps_bit_identical_to_mod(values):
    x = np.array(values + WRAP_EDGE_CASES)
    assert_bits_equal(wrap_coords(x), wrap_coords_by_mod(x))
    grid = x[: 2 * (x.size // 2)].reshape(2, -1)
    assert_bits_equal(wrap_coords(grid), wrap_coords_by_mod(grid))


def test_wraps_of_scalars_match_mod():
    for v in WRAP_EDGE_CASES:
        x = np.array([v])
        assert_bits_equal(np.ravel(wrap_coords(v)), wrap_coords_by_mod(x))


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40))
def test_wrap_half_is_exact(values):
    # wrap_half(x) is x - floor(x + 1/2) exactly, for arrays of any shape
    # and for scalars; 0.5 - 2^-54 is the input that rounding x + 1/2
    # first sends to -1/2
    x = np.array(values + WRAP_EDGE_CASES)
    want = np.array([wrap_half_exact(v) for v in x])
    assert np.array_equal(wrap_half(x), want)
    grid = x[: 2 * (x.size // 2)].reshape(2, -1)
    assert np.array_equal(wrap_half(grid), want[: grid.size].reshape(grid.shape))
    for v, w in zip(x, want):
        assert wrap_half(v) == w


def test_wraps_leave_their_input_alone():
    x = np.array(WRAP_EDGE_CASES)
    before = x.copy()
    wrap_coords(x)
    wrap_half(x)
    assert_bits_equal(x, before)


@given(finite_coords)
def test_wrap_idempotent_and_in_range(raw):
    p = wrap_coords(raw)
    assert np.all((0.0 <= p) & (p < 1.0))
    assert_bits_equal(wrap_coords(p), p)


def test_min_image_examples():
    d = min_image_coords(wrap_coords((0.1, 0.1)), wrap_coords((0.9, 0.1)))
    assert np.allclose(d, (0.2, 0.0))
    p = wrap_coords((0.37, 0.81))
    assert min_image_coords(p, p).tolist() == [0.0, 0.0]
    # tie at exactly 1/2 resolves to -1/2
    d = min_image_coords(wrap_coords((0.6, 0.0)), wrap_coords((0.1, 0.0)))
    assert d.tolist() == [-0.5, 0.0]


@given(finite_coords, finite_coords)
@example(a_raw=[0.0, -1.5831197581008165e-16], b_raw=[0.0, 0.0])  # a wraps to 1 - 2^-53
def test_min_image_reconstructs(a_raw, b_raw):
    if len(a_raw) != len(b_raw):
        return
    a, b = wrap_coords(a_raw), wrap_coords(b_raw)
    d = min_image_coords(a, b)
    assert np.all((-0.5 <= d) & (d < 0.5))
    assert np.allclose(wrap_coords(b + d), a, atol=1e-12)
    assert np.linalg.norm(d) <= np.sqrt(len(a_raw)) / 2 + 1e-15


@given(finite_coords, finite_coords)
def test_min_image_antisymmetric_off_ties(a_raw, b_raw):
    if len(a_raw) != len(b_raw):
        return
    d_ab = min_image_coords(a_raw, b_raw)
    if np.any(np.isclose(np.abs(d_ab), 0.5, atol=1e-9)):
        return  # the tie is the documented exception
    d_ba = min_image_coords(b_raw, a_raw)
    assert np.allclose(d_ab, -d_ba, atol=1e-12)


def torus_integral(f, n):
    """f summed over torus_grid(n), each node of weight 1/n^2."""
    return float(np.sum(f(torus_grid(n))) * (1.0 / n**2))


def test_torus_grid_nodes():
    nodes = torus_grid(4)
    assert nodes.shape == (16, 2)
    axis = [0.125, 0.375, 0.625, 0.875]
    assert nodes[:4].tolist() == [[0.125, a] for a in axis]  # last coordinate fastest
    assert nodes[::4, 0].tolist() == axis
    with pytest.raises(ValueError):
        torus_grid(0)


def test_integrate_constant_and_sine():
    assert torus_integral(lambda p: np.ones(p.shape[0]), 64) == pytest.approx(1.0, abs=1e-15)
    assert abs(torus_integral(lambda p: np.sin(2 * np.pi * p[:, 0]), 64)) < 1e-12


def midpoint_box(n):
    """Nodes (n^2, 2) and common weight of the midpoint rule on [-1, 1]^2."""
    h = 2.0 / n
    axis = -1.0 + (np.arange(n) + 0.5) * h
    return np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2), h * h


def test_integrate_bump_against_reference_quadrature():
    # oracle: the same integrand on the n=1024 midpoint box
    from bvflow.kernels import poly_bump

    f = lambda p: poly_bump.f0(np.sum(p * p, axis=1), 2)
    ref, coarse = (float(np.sum(f(nodes)) * w)
                   for nodes, w in (midpoint_box(1024), midpoint_box(128)))
    assert abs(ref - 1.0) < 1e-6  # normalization built from the radial reduction
    assert abs(coarse - ref) < 2e-3


def test_grid_refinement_spectral():
    f = lambda p: np.exp(np.sin(2 * np.pi * p[:, 0]) + np.cos(2 * np.pi * p[:, 1]))
    vals = [torus_integral(f, n) for n in (4, 8, 16, 32)]
    diffs = [abs(vals[i] - vals[i + 1]) for i in range(3)]
    assert diffs[0] > diffs[1] > diffs[2]


def test_torus_distance_wraps():
    a = np.array([[0.05, 0.5]])
    b = np.array([[0.95, 0.5]])
    assert torus_distance(a, b)[0] == pytest.approx(0.1, abs=1e-15)


@pytest.mark.parametrize("n", [1, 8, 128])
def test_gauss_legendre_matches_numpy_and_is_read_only(n):
    nodes, weights = gauss_legendre(n)
    ref_nodes, ref_weights = np.polynomial.legendre.leggauss(n)
    assert np.array_equal(nodes, ref_nodes) and np.array_equal(weights, ref_weights)
    assert gauss_legendre(n)[0] is nodes  # built once per order
    for arr in (nodes, weights):
        with pytest.raises(ValueError):
            arr[0] = 0.0
