import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bvflow.torus import (
    Displacement,
    QuadratureGrid,
    QuadratureError,
    TorusPoint,
    gauss_legendre,
    integrate,
    min_image,
    min_image_coords,
    torus_distance,
    wrap,
    wrap_coords,
    wrap_half,
)

finite_coords = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False, allow_infinity=False),
    min_size=2,
    max_size=3,
)


def test_wrap_examples():
    assert wrap((1.25, -0.5)).coords == (0.25, 0.5)
    assert wrap((0.0, 0.999)).coords == (0.0, 0.999)
    assert wrap((-3.0, 7.0)).coords == (0.0, 0.0)


def test_wrap_rejects_nonfinite():
    with pytest.raises(ValueError):
        wrap((np.nan, 0.0))
    with pytest.raises(ValueError):
        wrap((np.inf, 0.0))


def test_wrap_tiny_negative_stays_in_range():
    # -1e-17 % 1.0 rounds to 1.0 in IEEE; must fold to 0
    assert wrap((-1e-17, 0.0)).coords[0] == 0.0


# The np.mod formulations the wraps replaced; x - floor(x) must match
# them bit for bit.
def wrap_coords_by_mod(x):
    out = np.mod(x, 1.0)
    out[out >= 1.0] = 0.0
    return out


def wrap_half_by_mod(x):
    out = np.mod(x + 0.5, 1.0)
    out[out >= 1.0] = 0.0
    return out - 0.5


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
    assert_bits_equal(wrap_half(x), wrap_half_by_mod(x))
    grid = x[: 2 * (x.size // 2)].reshape(2, -1)
    assert_bits_equal(wrap_coords(grid), wrap_coords_by_mod(grid))
    assert_bits_equal(wrap_half(grid), wrap_half_by_mod(grid))


def test_wraps_of_scalars_match_mod():
    for v in WRAP_EDGE_CASES:
        x = np.array([v])
        assert_bits_equal(np.ravel(wrap_coords(v)), wrap_coords_by_mod(x))
        assert_bits_equal(np.ravel(wrap_half(v)), wrap_half_by_mod(x))


def test_wraps_leave_their_input_alone():
    x = np.array(WRAP_EDGE_CASES)
    before = x.copy()
    wrap_coords(x)
    wrap_half(x)
    assert_bits_equal(x, before)


@given(finite_coords)
def test_wrap_idempotent_and_in_range(raw):
    p = wrap(raw)
    assert all(0.0 <= c < 1.0 for c in p.coords)
    assert wrap(p.coords).coords == p.coords


def test_min_image_examples():
    d = min_image(wrap((0.1, 0.1)), wrap((0.9, 0.1)))
    assert np.allclose(d.components, (0.2, 0.0))
    p = wrap((0.37, 0.81))
    assert min_image(p, p).components == (0.0, 0.0)
    # tie at exactly 1/2 resolves to -1/2
    d = min_image(wrap((0.6, 0.0)), wrap((0.1, 0.0)))
    assert d.components == (-0.5, 0.0)


@given(finite_coords, finite_coords)
def test_min_image_reconstructs(a_raw, b_raw):
    if len(a_raw) != len(b_raw):
        return
    a, b = wrap(a_raw), wrap(b_raw)
    d = min_image(a, b)
    assert np.allclose(wrap_coords(b.as_array() + d.as_array()), a.as_array(),
                       atol=1e-12)
    assert d.norm() <= np.sqrt(len(a_raw)) / 2 + 1e-15


@given(finite_coords, finite_coords)
def test_min_image_antisymmetric_off_ties(a_raw, b_raw):
    if len(a_raw) != len(b_raw):
        return
    d_ab = min_image_coords(a_raw, b_raw)
    if np.any(np.isclose(np.abs(d_ab), 0.5, atol=1e-9)):
        return  # the tie is the documented exception
    d_ba = min_image_coords(b_raw, a_raw)
    assert np.allclose(d_ab, -d_ba, atol=1e-12)


def test_displacement_validation():
    with pytest.raises(ValueError):
        Displacement((0.7, 0.0))
    with pytest.raises(ValueError):
        Displacement((0.5, 0.0))  # 0.5 excluded, -0.5 allowed
    assert Displacement((-0.5, 0.49)).components == (-0.5, 0.49)


def test_torus_point_addition():
    p = TorusPoint((0.9, 0.2)) + Displacement((0.2, -0.3))
    assert np.allclose(p.coords, (0.1, 0.9))


@pytest.mark.parametrize("dim", [2, 3])
def test_grid_weights_sum_to_measure(dim):
    g = QuadratureGrid.torus(8, dim)
    assert np.isclose(g.total_measure, 1.0)
    b = QuadratureGrid.box(8, dim, -1.0, 1.0)
    assert np.isclose(b.total_measure, 2.0**dim)


def test_integrate_constant_and_sine():
    g = QuadratureGrid.torus(64, 2)
    assert integrate(lambda p: np.ones(p.shape[0]), g) == pytest.approx(1.0, abs=1e-15)
    val = integrate(lambda p: np.sin(2 * np.pi * p[:, 0]), g)
    assert abs(val) < 1e-12


def test_integrate_bump_against_reference_quadrature():
    # oracle: the same integrand on the n=1024 box grid
    from bvflow.kernels import poly_bump

    f = lambda p: poly_bump.f0(np.sum(p * p, axis=1), 2)
    ref = integrate(f, QuadratureGrid.box(1024, 2))
    coarse = integrate(f, QuadratureGrid.box(128, 2))
    assert abs(ref - 1.0) < 1e-6  # normalization built from the radial reduction
    assert abs(coarse - ref) < 2e-3


def test_integrate_reports_nan_node():
    g = QuadratureGrid.torus(4, 2)

    def bad(p):
        v = np.ones(p.shape[0])
        v[5] = np.nan
        return v

    with pytest.raises(QuadratureError) as err:
        integrate(bad, g)
    assert err.value.node_index == 5


def test_integrate_linear():
    g = QuadratureGrid.torus(32, 2)
    f = lambda p: np.sin(2 * np.pi * p[:, 0])
    h = lambda p: np.cos(2 * np.pi * (p[:, 0] + p[:, 1]))
    lhs = integrate(lambda p: 2.5 * f(p) - 1.5 * h(p), g)
    rhs = 2.5 * integrate(f, g) - 1.5 * integrate(h, g)
    assert abs(lhs - rhs) < 1e-14


@pytest.mark.parametrize("dim", [2, 3])
def test_grid_refinement_spectral(dim):
    f = lambda p: np.exp(np.sin(2 * np.pi * p[:, 0]) + np.cos(2 * np.pi * p[:, -1]))
    vals = [integrate(f, QuadratureGrid.torus(n, dim)) for n in (4, 8, 16, 32)]
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
