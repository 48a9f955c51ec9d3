import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from solgeo.sol_space import (DegeneratePlaneError, Point, TangentVector,
                              canonical_leaf, christoffel,
                              covariant_derivative, curvature_components,
                              curvature_tensor, curvature_tensor_fd,
                              frame_connection, frame_vector, metric_at,
                              sectional_curvature)
from solgeo.sol_space import PLANE_GRAM_TOLERANCE

coords = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False,
                   allow_infinity=False)


@given(coords, coords, coords)
def test_metric_determinant_is_one(x, y, z):
    assert abs(np.prod(metric_at(Point(x, y, z))) - 1.0) < 1e-12


@given(coords, coords, coords, coords, coords, coords)
def test_frame_coordinate_roundtrip(x, y, z, c1, c2, c3):
    p = Point(x, y, z)
    v = TangentVector(p, np.array([c1, c2, c3]))
    back = TangentVector.from_coordinates(p, v.coordinates())
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


def test_christoffel_rows_are_one_point_symbols():
    zs = np.array([-2.0, 0.0, 0.45, 3.0])
    many = christoffel(Point(np.zeros(4), np.zeros(4), zs))
    assert many.shape == (4, 3, 3, 3)
    for row, z in enumerate(zs):
        one = christoffel(Point(0.0, 0.0, float(z)))
        assert np.allclose(many[row], one, rtol=1e-15, atol=0.0)


BASIS = np.eye(3)


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
    assert np.array_equal(frame_connection(BASIS[i - 1], BASIS[j - 1]),
                          np.array(expected))


def test_frame_connection_metric_compatible():
    # <nabla_Ei Ej, Ek> must be antisymmetric in (j, k)
    for i in (1, 2, 3):
        m = np.array([frame_connection(BASIS[i - 1], BASIS[j - 1])
                      for j in (1, 2, 3)])
        assert np.array_equal(m, -m.T)


@given(arrays(float, (4, 3), elements=st.floats(-3.0, 3.0)),
       arrays(float, (4, 3), elements=st.floats(-3.0, 3.0)))
def test_frame_connection_is_the_bilinear_table(x, y):
    # sum x^i y^j nabla_{E_i} E_j, at N points and row by row
    table = sum(x[:, i - 1, None] * y[:, j - 1, None]
                * np.array(frame_connection(BASIS[i - 1], BASIS[j - 1]))
                for i in (1, 2, 3) for j in (1, 2, 3))
    many = np.array(frame_connection(x.T, y.T)).T
    assert np.array_equal(many, table)
    for row in range(4):
        assert np.array_equal(np.array(frame_connection(x[row], y[row])),
                              many[row])


def test_covariant_derivative_matches_connection_table():
    p = Point(0.2, 0.8, -0.6)
    worst = 0.0
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            out = covariant_derivative(lambda q, jj=j: frame_vector(q, jj),
                                       frame_vector(p, i))
            worst = max(worst, float(np.max(np.abs(
                out.components
                - frame_connection(BASIS[i - 1], BASIS[j - 1])))))
    assert worst < 1e-8


def test_frame_vector_index_is_one_two_or_three():
    with pytest.raises(ValueError, match=r"^frame index must be 1, 2 or 3$"):
        frame_vector(Point(0.0, 0.0, 0.0), 4)


def test_covariant_derivative_of_a_non_finite_field_is_refused():
    p = Point(0.0, 0.0, 0.0)
    # a NaN field fails its conversion to coordinate components
    with pytest.raises(ValueError, match=r"^coordinate components leave "):
        covariant_derivative(lambda q: TangentVector(q, np.full(3, math.nan)),
                             frame_vector(p, 1))

    # finite at every point, but its central difference overflows
    def steep(q):
        return TangentVector(q, np.array([math.copysign(1e308, q.x)
                                          if q.x else 0.0, 0.0, 0.0]))

    with np.errstate(over="ignore"), \
            pytest.raises(ValueError, match=r"^vector field evaluated to a "
                                            r"non-finite value$"):
        covariant_derivative(steep, frame_vector(p, 1))


def test_sectional_frame_planes():
    p = Point(1.0, -2.0, 0.7)
    e1, e2, e3 = (frame_vector(p, i) for i in (1, 2, 3))
    assert abs(sectional_curvature(e1, e3) + 1.0) < 1e-12
    assert abs(sectional_curvature(e2, e3) + 1.0) < 1e-12
    assert abs(sectional_curvature(e1, e2) - 1.0) < 1e-12


def test_sectional_invariant_under_respanning():
    p = Point(0.0, 0.0, 0.0)
    x = TangentVector(p, np.array([1.0, 2.0, 0.0]))
    y = TangentVector(p, np.array([-1.0, 1.0, 0.0]))
    assert abs(sectional_curvature(x, y) - 1.0) < 1e-12


def test_sectional_degenerate_plane():
    p = Point(0.0, 0.0, 0.0)
    v = frame_vector(p, 1)
    w = TangentVector(p, np.array([2.0, 0.0, 0.0]))
    with pytest.raises(DegeneratePlaneError):
        sectional_curvature(v, w)


def test_curvature_tensor_symmetries():
    rng = np.random.default_rng(3)
    p = Point(*rng.uniform(-1.0, 1.0, 3))
    x, y, z, w = (TangentVector(p, rng.uniform(-1.0, 1.0, 3))
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
        x, y, z = (TangentVector(p, rng.uniform(-1.0, 1.0, 3))
                   for _ in range(3))
        closed = curvature_tensor(x, y, z).components
        fd = curvature_tensor_fd(x, y, z).components
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


# -- one point against N points --------------------------------------------

EPS = np.finfo(float).eps


def n_points(n):
    """(N, 3) coordinates in [-4, 4]."""
    return arrays(float, (n, 3), elements=st.floats(-4.0, 4.0))


def n_vectors(n, k):
    """(N, 3k) frame components in [-3, 3]."""
    return arrays(float, (n, 3 * k), elements=st.floats(-3.0, 3.0))


def frame_vectors(base, comps):
    """Three-component frame vectors at ``base``, one per column triple."""
    return [TangentVector(base, comps[..., k:k + 3])
            for k in range(0, comps.shape[-1], 3)]


points_and_vectors = st.integers(1, 6).flatmap(
    lambda n: st.tuples(n_points(n), n_vectors(n, 3)))


@given(points_and_vectors)
def test_curvature_rows_are_one_point_calls_bit_for_bit(data):
    xyz, comps = data
    many = curvature_tensor(*frame_vectors(Point(*xyz.T), comps))
    assert many.components.shape == (len(xyz), 3)
    for row, (pt, c) in enumerate(zip(xyz, comps)):
        one = curvature_tensor(*frame_vectors(Point(*pt), c))
        assert np.array_equal(many.components[row], one.components)
        assert np.array_equal(
            curvature_components(comps[:, :3], comps[:, 3:6],
                                 comps[:, 6:])[row],
            curvature_components(c[:3], c[3:6], c[6:]))


@given(points_and_vectors)
def test_sectional_rows_are_one_point_calls_bit_for_bit(data):
    xyz, comps = data
    ones = []
    for pt, c in zip(xyz, comps):
        try:
            ones.append(sectional_curvature(*frame_vectors(Point(*pt),
                                                           c[:6])))
        except DegeneratePlaneError as exc:
            ones.append(str(exc))
    degenerate = [k for k in ones if isinstance(k, str)]
    if degenerate:
        # the N-point error is the first degenerate point's error
        with pytest.raises(DegeneratePlaneError) as exc:
            sectional_curvature(*frame_vectors(Point(*xyz.T), comps[:, :6]))
        assert str(exc.value) == degenerate[0]
        return
    many = sectional_curvature(*frame_vectors(Point(*xyz.T), comps[:, :6]))
    assert many.shape == (len(xyz),)
    for row, one in enumerate(ones):
        assert isinstance(one, float) and not isinstance(one, np.ndarray)
        assert many[row] == one


def assert_rows_close(many, ones, bound):
    """Each row of ``many`` within ``bound`` (one per row) of ``ones``."""
    gap = np.max(np.abs(np.asarray(many) - np.asarray(ones)).reshape(
        len(ones), -1), axis=1)
    assert np.all(gap <= bound), (gap, bound)


@given(st.integers(1, 6).flatmap(n_points))
def test_metric_and_frame_rows_match_one_point_calls(xyz):
    # numpy's exp and libm's may differ in the last bit
    p = Point(*xyz.T)
    ones = [Point(*pt) for pt in xyz]
    diag = np.array([metric_at(q) for q in ones])
    assert_rows_close(metric_at(p), diag,
                      1e-12 * np.max(np.abs(diag), axis=1))
    assert_rows_close(np.prod(metric_at(p), axis=-1),
                      [np.prod(metric_at(q)) for q in ones], 1e-12)
    for i in (1, 2, 3):
        coords = np.array([frame_vector(q, i).coordinates() for q in ones])
        assert_rows_close(frame_vector(p, i).coordinates(),
                          coords, 1e-12 * np.max(np.abs(coords), axis=1))


# A central difference turns a last-bit difference between numpy's exp and
# libm's in the differenced values into one of eps * |values| / step in the
# derivative, far above 1e-12 of the result (up to about 2e-10 relative for
# covariant_derivative here), so these rows are held to 8 eps |values| / step.

# Four points at z = 3.86746 where the gap, 4.15e-12 on every row, exceeded
# a bound sized on the field's coordinate components (3.03e-12).
_FAR_UP = (np.full((4, 3), 3.86746),
           np.tile([0.6875] * 6 + [0.6875, 0.0, 0.0], (4, 1)))


@settings(max_examples=50)
@given(points_and_vectors)
@example(_FAR_UP)
def test_covariant_derivative_rows_match_one_point_calls(data):
    # The field w has constant frame components, so its coordinate
    # components are (w1 e^{-z}, w2 e^{z}, w3), evaluated at the shifted
    # points q = p +- h x with z(q) = z +- h x3.  Each differenced value
    # may differ between the two calls by about 2 eps of itself (numpy's
    # exp against libm's, then the division), so the central difference of
    # coordinate k differs by at most 2 eps |w_k(q)| / h.  The rows compared
    # are frame components: from_coordinates multiplies coordinate 1 by
    # e^{z} and coordinate 2 by e^{-z}, which turns those bounds into
    # 2 eps |w1| e^{h |x3|} / h and 2 eps |w2| e^{h |x3|} / h; w3 is
    # differenced exactly.  The Christoffel contraction adds round-off of
    # the size of its terms, at most 9 |x| |w| in frame units (the table's
    # e^{+-2z} cancel against the coordinates' e^{-+z}).  Each row is held
    # to 8 eps of these sizes.
    xyz, comps = data
    step = 1e-5
    direction, _, field_comps = frame_vectors(Point(*xyz.T), comps)
    many = covariant_derivative(
        lambda q: TangentVector(q, field_comps.components), direction, step)
    ones, bound = [], []
    for pt, c in zip(xyz, comps):
        x, _, w = frame_vectors(Point(*pt), c)
        field = lambda q, w=w: TangentVector(q, w.components)
        ones.append(covariant_derivative(field, x, step).components)
        xf, wf = np.abs(x.components), np.abs(w.components)
        difference = max(wf[0], wf[1]) * math.exp(step * xf[2]) / step
        bound.append(8.0 * EPS * (difference + 9.0 * xf.max() * wf.max()))
    assert_rows_close(many.components, ones, np.array(bound))


@settings(max_examples=50)
@given(points_and_vectors)
def test_curvature_fd_rows_match_one_point_calls(data):
    xyz, comps = data
    many = curvature_tensor_fd(*frame_vectors(Point(*xyz.T), comps))
    ones, bound = [], []
    for pt, c in zip(xyz, comps):
        p = Point(*pt)
        x, y, z = frame_vectors(p, c)
        ones.append(curvature_tensor_fd(x, y, z).components)
        # the outer difference runs over the inner derivatives
        # Gamma(x, z) and Gamma(y, z) of the coordinate-constant field z
        xc, yc, zc = (v.coordinates() for v in (x, y, z))
        values = np.max(np.abs([
            np.einsum("kij,i,j->k", christoffel(p), xc, zc),
            np.einsum("kij,i,j->k", christoffel(p), yc, zc)]))
        bound.append(1e-12 * np.max(np.abs(ones[-1]))
                     + 8.0 * EPS * values / 1e-4)
    assert_rows_close(many.components, ones, np.array(bound))


def test_n_point_frame_planes_give_one_curvature_per_point():
    p = Point(np.array([0.0, 1.0, -2.0]), np.zeros(3),
              np.array([0.5, -3.0, 2.0]))
    k13 = sectional_curvature(frame_vector(p, 1), frame_vector(p, 3))
    assert k13.shape == (3,)
    assert np.all(np.abs(k13 + 1.0) < 1e-12)


def test_n_point_degenerate_plane_names_the_first_such_point():
    p = Point(np.array([0.5, 1.5, 2.5, 3.5]),
              np.array([-1.0, -2.0, -3.0, -4.0]),
              np.array([0.25, 0.75, 1.25, 1.75]))
    y = np.array([[0.0, 1.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 1.0],
                  [-3.0, 0.0, 0.0]])
    with pytest.raises(DegeneratePlaneError,
                       match=r"\(x, y, z\) = \(1\.5, -2, 0\.75\)$"):
        sectional_curvature(frame_vector(p, 1), TangentVector(p, y))


def test_equal_n_point_bases_need_not_be_one_object():
    xyz = np.array([[0.3, -0.4, 0.2], [1.0, 2.0, -1.5]])
    p = Point(*xyz.T)
    x, y, z = (TangentVector(p, xyz + k) for k in (0.0, 1.0, 2.0))
    copy = TangentVector(Point(*xyz.T.copy()), z.components)
    assert np.array_equal(curvature_tensor(x, y, copy).components,
                          curvature_tensor(x, y, z).components)
    for other in (Point(*(xyz.T + [[0.0], [0.0], [1e-9]])),
                  Point(*xyz[:1].T), Point(*xyz[0])):
        w = TangentVector(other, np.zeros(np.shape(other.z) + (3,)))
        with pytest.raises(ValueError, match="different base points"):
            curvature_tensor(x, y, w)


def test_components_must_match_the_base_point_count():
    one = Point(0.1, -0.2, 0.3)
    two = Point(np.zeros(2), np.zeros(2), np.array([0.0, 1.0]))
    for base, comps, expected in ((one, np.ones((3, 3)), r"\(3,\)"),
                                  (one, np.ones((1, 3)), r"\(3,\)"),
                                  (one, np.ones(4), r"\(3,\)"),
                                  (two, np.ones((3, 3)), r"\(2, 3\)"),
                                  (two, np.ones(3), r"\(2, 3\)")):
        for build in (TangentVector, TangentVector.from_coordinates):
            with pytest.raises(ValueError,
                               match=rf"^components must have shape "
                                     rf"{expected}, one length-3 vector per "
                                     rf"base point, got"):
                build(base, comps)
    assert TangentVector(two, np.ones((2, 3))).components.shape == (2, 3)


def test_a_tangent_vector_is_its_frame_components():
    # no basis tag: the two fields, and coordinates only by conversion
    assert [f.name for f in dataclasses.fields(TangentVector)] == [
        "base", "components"]
    p = Point(0.0, 0.0, math.log(2.0))
    assert np.array_equal(TangentVector(p, [1.0, 1.0, 1.0]).coordinates(),
                          [0.5, 2.0, 1.0])
    assert np.array_equal(
        TangentVector.from_coordinates(p, [0.5, 2.0, 1.0]).components,
        [1.0, 1.0, 1.0])


# components 0 or of magnitude 1e-8 .. 1e8: no product of four of them
# leaves the normal range of doubles
component = st.one_of(st.just(0.0), st.builds(
    lambda sign, size: sign * size, st.sampled_from((-1.0, 1.0)),
    st.floats(min_value=1e-8, max_value=1e8)))
frame_triple = st.tuples(component, component, component)


@given(frame_triple, frame_triple, st.floats(min_value=-3.0, max_value=3.0))
def test_sectional_keeps_the_unscaled_bits(x, y, z):
    # the scaled Gram test and ratio round as the unscaled ones do
    xf, yf = np.array(x), np.array(y)
    xx, yy, xy = np.vecdot(xf, xf), np.vecdot(yf, yf), np.vecdot(xf, yf)
    gram = xx * yy - xy * xy
    p = Point(0.0, 0.0, z)
    plane = (TangentVector(p, xf), TangentVector(p, yf))
    if gram <= PLANE_GRAM_TOLERANCE * xx * yy:
        with pytest.raises(DegeneratePlaneError):
            sectional_curvature(*plane)
    else:
        expected = np.vecdot(curvature_components(xf, yf, yf), xf) / gram
        assert sectional_curvature(*plane) == expected


@pytest.mark.parametrize("size", [1e-6, 1e-8, 1e-10, 1e-100])
def test_sectional_of_small_vectors(size):
    # the Gram test is relative to |x|^2 |y|^2, so no scale of the
    # spanning vectors makes a plane degenerate
    p = Point(np.zeros(2), np.zeros(2), np.array([0.0, 1.5]))
    x = TangentVector(p, np.array([[size, 0.0, 0.0], [size, size, 0.0]]))
    y = TangentVector(p, np.array([[0.0, size, 0.0], [0.0, size, size]]))
    k = sectional_curvature(x, y)
    assert abs(k[0] - 1.0) <= 1e-15
    assert abs(k[1] - (2.0 / 3.0 - 1.0)) <= 1e-15
    parallel = TangentVector(p, 2.0 * x.components)
    with pytest.raises(DegeneratePlaneError):
        sectional_curvature(x, parallel)


@pytest.mark.parametrize("size", [1e100, 1e200, 1e300])
def test_sectional_of_large_vectors(size):
    # |x|^2 |y|^2 overflows a double; K does not
    p = Point(0.0, 0.0, 0.0)
    with np.errstate(over="raise", invalid="raise"):
        k = sectional_curvature(
            TangentVector(p, np.array([size, 0.0, 0.0])),
            TangentVector(p, np.array([0.0, 0.0, size])))
        k_diagonal = sectional_curvature(
            TangentVector(p, np.array([size, size, 0.0])),
            TangentVector(p, np.array([0.0, size, size])))
    assert abs(k + 1.0) <= 1e-15
    # the plane of (1, 1, 0) and (0, 1, 1): unit normal (1, -1, 1) / sqrt 3
    assert abs(k_diagonal - (2.0 / 3.0 - 1.0)) <= 1e-15


@pytest.mark.parametrize("z", [710.0, -710.0, 800.0, -800.0])
def test_conversions_past_the_double_range_name_the_point(z):
    # e^z or e^-z leaves the double range: a clean error, not an
    # OverflowError, an inf or a NaN, at one point and at N points
    one = Point(0.0, 0.0, z)
    many = Point(np.zeros(3), np.zeros(3), np.array([0.5, z, 2 * z]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for base in (one, many):
            shape = np.shape(base.z) + (3,)
            with pytest.raises(ValueError, match=rf"^frame components .* "
                                                 rf"at z = {z:g}$"):
                TangentVector.from_coordinates(base, np.ones(shape))
            with pytest.raises(ValueError, match=rf"^coordinate components "
                                                 rf".* at z = {z:g}$"):
                TangentVector(base, np.ones(shape)).coordinates()
        # d/dx has frame length e^z and d/dy e^-z
        long = np.array([1.0, 0.0, 0.0] if z > 0 else [0.0, 1.0, 0.0])
        with pytest.raises(ValueError, match=rf"at z = {z:g}$"):
            sectional_curvature(
                TangentVector.from_coordinates(one, long),
                TangentVector.from_coordinates(one, np.array([0.0, 0.0, 1.0])))


def test_conversions_inside_the_double_range_keep_their_bits():
    # libm's exp at one point, numpy's at N points, in the same formulas
    zs = np.array([-709.0, -1.5, 0.25, 709.0])
    comps = np.array([[1.0, 2.0, 3.0], [-0.5, 0.0, 1.0], [4.0, -4.0, 0.0],
                      [1e-300, 1e-300, -1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        many = Point(np.zeros(4), np.zeros(4), zs)
        ez = np.exp(zs)
        assert np.array_equal(
            TangentVector.from_coordinates(many, comps).components,
            np.array([ez * comps[:, 0], comps[:, 1] / ez, comps[:, 2]]).T)
        assert np.array_equal(
            TangentVector(many, comps).coordinates(),
            np.array([comps[:, 0] / ez, ez * comps[:, 1], comps[:, 2]]).T)
        for z, c in zip(zs, comps):
            p, ez = Point(0.0, 0.0, float(z)), math.exp(z)
            assert np.array_equal(
                TangentVector.from_coordinates(p, c).components,
                [ez * c[0], c[1] / ez, c[2]])
            assert np.array_equal(
                TangentVector(p, c).coordinates(),
                [c[0] / ez, ez * c[1], c[2]])
        p = Point(0.0, 0.0, 709.0)
        d_x, d_z = (TangentVector.from_coordinates(p, v)
                    for v in np.eye(3)[[0, 2]])
        assert sectional_curvature(d_x, d_z) == -1.0
