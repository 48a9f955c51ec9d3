import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from solgeo.sol_space import (FRAME, DegeneratePlaneError, Point,
                              TangentVector, canonical_leaf, christoffel,
                              christoffel_contraction, covariant_derivative,
                              curvature_tensor, curvature_tensor_fd,
                              frame_connection, frame_vector, metric_at,
                              sectional_curvature)

coords = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False,
                   allow_infinity=False)


@given(coords, coords, coords)
def test_metric_determinant_is_one(x, y, z):
    assert abs(metric_at(Point(x, y, z)).determinant - 1.0) < 1e-12


@given(coords, coords, coords, coords, coords, coords)
def test_frame_coordinate_roundtrip(x, y, z, c1, c2, c3):
    p = Point(x, y, z)
    v = TangentVector(p, np.array([c1, c2, c3]), FRAME)
    back = v.in_coordinates().in_frame()
    assert np.allclose(back.components, v.components, atol=1e-12, rtol=1e-12)


def test_point_rejects_nonfinite():
    with pytest.raises(ValueError):
        Point(float("nan"), 0.0, 0.0)


def test_christoffel_closed_form():
    p = Point(0.3, -1.2, 0.45)
    gamma = christoffel(p)
    e2z = math.exp(0.9)
    expected = np.zeros((3, 3, 3))
    expected[0, 0, 2] = expected[0, 2, 0] = 1.0
    expected[1, 1, 2] = expected[1, 2, 1] = -1.0
    expected[2, 0, 0] = -e2z
    expected[2, 1, 1] = 1.0 / e2z
    assert np.allclose(gamma, expected, atol=1e-12)


components = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False,
                       allow_infinity=False)


@given(st.floats(min_value=-20.0, max_value=20.0),
       st.tuples(components, components, components),
       st.tuples(components, components, components))
def test_christoffel_contraction_matches_dense_symbols(z, x, y):
    p = Point(0.0, 0.0, z)
    dense = np.einsum("kij,i,j->k", christoffel(p), np.array(x), np.array(y))
    # each component sums two products; allow a few ulps of their sizes
    e2z = math.exp(2.0 * z)
    sizes = np.array([abs(x[0] * y[2]) + abs(x[2] * y[0]),
                      abs(x[1] * y[2]) + abs(x[2] * y[1]),
                      e2z * abs(x[0] * y[0]) + abs(x[1] * y[1]) / e2z])
    assert np.all(np.abs(np.array(christoffel_contraction(p, x, y)) - dense)
                  <= 4.0 * np.finfo(float).eps * sizes)


@pytest.mark.parametrize("i,j,expected", [
    (1, 1, [0.0, 0.0, -1.0]),
    (1, 2, [0.0, 0.0, 0.0]),
    (1, 3, [1.0, 0.0, 0.0]),
    (2, 1, [0.0, 0.0, 0.0]),
    (2, 2, [0.0, 0.0, 1.0]),
    (2, 3, [0.0, -1.0, 0.0]),
    (3, 1, [0.0, 0.0, 0.0]),
    (3, 2, [0.0, 0.0, 0.0]),
    (3, 3, [0.0, 0.0, 0.0]),
])
def test_frame_connection_table(i, j, expected):
    assert np.array_equal(frame_connection(i, j), np.array(expected))


def test_frame_connection_metric_compatible():
    # <nabla_Ei Ej, Ek> must be antisymmetric in (j, k)
    for i in (1, 2, 3):
        m = np.array([frame_connection(i, j) for j in (1, 2, 3)])
        assert np.array_equal(m, -m.T)


def test_covariant_derivative_matches_connection_table():
    p = Point(0.2, 0.8, -0.6)
    worst = 0.0
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            out = covariant_derivative(lambda q, jj=j: frame_vector(q, jj),
                                       frame_vector(p, i))
            worst = max(worst, float(np.max(np.abs(
                out.in_frame().components - frame_connection(i, j)))))
    assert worst < 1e-8


def test_sectional_frame_planes():
    p = Point(1.0, -2.0, 0.7)
    e1, e2, e3 = (frame_vector(p, i) for i in (1, 2, 3))
    assert abs(sectional_curvature(e1, e3) + 1.0) < 1e-12
    assert abs(sectional_curvature(e2, e3) + 1.0) < 1e-12
    assert abs(sectional_curvature(e1, e2) - 1.0) < 1e-12


def test_sectional_invariant_under_respanning():
    p = Point(0.0, 0.0, 0.0)
    x = TangentVector(p, np.array([1.0, 2.0, 0.0]), FRAME)
    y = TangentVector(p, np.array([-1.0, 1.0, 0.0]), FRAME)
    assert abs(sectional_curvature(x, y) - 1.0) < 1e-12


def test_sectional_degenerate_plane():
    p = Point(0.0, 0.0, 0.0)
    v = frame_vector(p, 1)
    w = TangentVector(p, np.array([2.0, 0.0, 0.0]), FRAME)
    with pytest.raises(DegeneratePlaneError):
        sectional_curvature(v, w)


def test_curvature_tensor_symmetries():
    rng = np.random.default_rng(3)
    p = Point(*rng.uniform(-1.0, 1.0, 3))
    x, y, z, w = (TangentVector(p, rng.uniform(-1.0, 1.0, 3), FRAME)
                  for _ in range(4))
    rxyz = curvature_tensor(x, y, z).components
    assert np.allclose(rxyz, -curvature_tensor(y, x, z).components,
                       atol=1e-13)
    rxyw = curvature_tensor(x, y, w).components
    assert abs(float(np.dot(rxyz, w.components))
               + float(np.dot(rxyw, z.components))) < 1e-13
    bianchi = (rxyz + curvature_tensor(y, z, x).components
               + curvature_tensor(z, x, y).components)
    assert np.max(np.abs(bianchi)) < 1e-13


def test_curvature_closed_form_vs_finite_differences():
    rng = np.random.default_rng(11)
    for _ in range(5):
        p = Point(*rng.uniform(-1.5, 1.5, 3))
        x, y, z = (TangentVector(p, rng.uniform(-1.0, 1.0, 3), FRAME)
                   for _ in range(3))
        closed = curvature_tensor(x, y, z).components
        fd = curvature_tensor_fd(x, y, z).in_frame().components
        assert np.allclose(closed, fd, atol=1e-6)


def test_canonical_leaf_kinds():
    assert canonical_leaf("z_const", 0.15).name == "leaf_z=0.15"
    assert canonical_leaf("x_const", 0.3).name == "leaf_x=0.3"
    with pytest.raises(ValueError):
        canonical_leaf("w_const", 0.0)


def test_canonical_leaf_positions():
    leaf = canonical_leaf("z_const", 0.5)
    pos = leaf.position(0.2, -0.3)
    # orthonormal horizontal coordinates undo the metric stretch
    assert np.allclose(pos, [0.2 * math.exp(-0.5), -0.3 * math.exp(0.5), 0.5])
