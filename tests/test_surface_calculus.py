import dataclasses
import hashlib
import math
import re
import sys
import warnings
from collections import Counter

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given
from hypothesis import strategies as st

from solgeo import surface_calculus
from solgeo.biconservative_family import (EXPLICIT, EXPLICIT_U_MIN,
                                          IMPLICIT, build_profile,
                                          family_surface)
from solgeo.numerics import central_diff, namespace
from solgeo.patch import ScalarField, SurfacePatch
from solgeo.sol_space import (DegeneratePlaneError, Point, TangentVector,
                              canonical_leaf, christoffel,
                              curvature_components, sectional_curvature)
from solgeo.surface_calculus import (CmcDegenerateError,
                                     DegenerateParametrizationError,
                                     LocalGeometry, ShapeData, adapted_frame,
                                     biconservative_residual,
                                     biharmonic_normal_residual,
                                     fundamental_forms, laplace_beltrami,
                                     shape_data)
from solgeo.verification import (graph_patch_fixture,
                                 vertical_cylinder_fixture)

# Reference values from a 40-digit evaluation of the closed forms
# (quadratures by adaptive Gauss-Legendre).
THETA_M1 = 2.347062254032765164
F_M1 = 0.309858529205785760
LAP_M1 = -0.1363699811985456585
RHS_M1 = 1.02406860770367406747


def test_z_leaf_shape():
    leaf = canonical_leaf("z_const", 0.15)
    forms = fundamental_forms(leaf, 0.3, -0.4)
    assert np.allclose(forms.first, np.eye(2), atol=1e-12)
    sd = shape_data(leaf, 0.3, -0.4)
    assert abs(sd.h) < 1e-10
    assert abs(sd.K) < 1e-8
    assert np.allclose(np.sort(sd.principal_curvatures), [-1.0, 1.0],
                       atol=1e-9)


@pytest.mark.parametrize("kind,level", [("x_const", 0.3), ("y_const", -0.2)])
def test_vertical_leaves_totally_geodesic(kind, level):
    leaf = canonical_leaf(kind, level)
    for u, v in ((0.2, 0.5), (-0.7, -0.1)):
        forms = fundamental_forms(leaf, u, v)
        assert np.max(np.abs(forms.second)) < 1e-9


def test_family_shape_data(patch_x1):
    sd = shape_data(patch_x1, -1.0, 0.3)
    assert abs(sd.h - F_M1) < 1e-12
    expected_K = -math.cos(THETA_M1) ** 2 - 2.0 * F_M1 * math.sin(THETA_M1)
    assert abs(sd.K - expected_K) < 1e-10
    assert sd.principal_curvatures[0] < 0 < sd.principal_curvatures[1]


def test_adapted_frame_x1(patch_x1):
    s = adapted_frame(patch_x1, -1.0, 0.3)
    assert abs(s.theta - THETA_M1) < 1e-12
    assert abs(s.beta) < 1e-12
    assert abs(s.e3_defect) < 1e-12
    assert abs(s.h - F_M1) < 1e-12
    assert abs(s.lambda2 + math.sin(THETA_M1)) < 1e-12
    assert abs(s.lambda1 - (2.0 * F_M1 + math.sin(THETA_M1))) < 1e-12
    assert abs(float(np.dot(s.x1, s.x2))) < 1e-12
    assert abs(float(np.linalg.norm(s.x1)) - 1.0) < 1e-12
    assert abs(float(np.linalg.norm(s.xi)) - 1.0) < 1e-12


def test_adapted_frame_x2(patch_x2):
    s = adapted_frame(patch_x2, -1.0, 0.3)
    # the mirrored variant measures its angle below the horizontal
    assert abs(s.theta - (THETA_M1 - math.pi)) < 1e-12
    assert abs(s.beta - math.pi / 2.0) < 1e-12
    assert abs(s.lambda2 - math.sin(s.theta)) < 1e-12
    assert abs(s.h - F_M1) < 1e-12


def test_adapted_frame_needs_gradient_or_override():
    leaf = canonical_leaf("z_const", 0.15)
    with pytest.raises(CmcDegenerateError):
        adapted_frame(leaf, 0.1, 0.1)
    s = adapted_frame(leaf, 0.1, 0.1, x1_coefficients=np.array([1.0, 0.0]))
    assert abs(s.theta - math.pi / 2.0) < 1e-12


def _with_first_partials(patch, first):
    """``patch`` whose partials handle takes its first partials from
    ``first(u, v, d_u, d_v)`` and its second partials from ``patch``."""
    def partials(u, v):
        z, du, dv, *seconds = patch.partials(u, v)
        return (z, *first(u, v, du, dv), *seconds)
    return dataclasses.replace(patch, partials=partials)


def test_nan_partial_is_degenerate(patch_x1):
    patch = _with_first_partials(
        patch_x1, lambda u, v, du, dv: (np.full(3, math.nan), dv))
    with pytest.raises(DegenerateParametrizationError):
        LocalGeometry(patch, -1.0, 0.3)
    # parallel partials span no plane either
    patch = _with_first_partials(
        patch_x1, lambda u, v, du, dv: (du, tuple(-2.0 * c for c in du)))
    with pytest.raises(DegenerateParametrizationError):
        LocalGeometry(patch, -1.0, 0.3)


def test_a_patch_needs_a_nonempty_domain():
    leaf = canonical_leaf("z_const", 0.15)
    with pytest.raises(ValueError, match=r"^domain rectangle must be "
                                         r"nonempty$"):
        dataclasses.replace(leaf, domain=((0.0, 0.0), (-1.0, 1.0)))


def test_a_record_takes_one_axis_of_points():
    leaf = canonical_leaf("z_const", 0.15)
    with pytest.raises(ValueError, match=r"^an N-point record takes \(N,\) "
                                         r"arrays$"):
        LocalGeometry(leaf, np.zeros((2, 2)), np.zeros((2, 2)))


def test_zero_x1_coefficients_are_refused():
    leaf = canonical_leaf("z_const", 0.15)
    with pytest.raises(ValueError, match=r"^explicit X1 coefficients are "
                                         r"zero$"):
        adapted_frame(leaf, 0.1, 0.1, x1_coefficients=(0.0, 0.0))


def test_biconservative_residual_vanishes_on_family(patch_x1, patch_x2):
    for patch in (patch_x1, patch_x2):
        r = biconservative_residual(patch, -2.0, 0.4)
        assert float(np.linalg.norm(r)) < 1e-9


def test_biconservative_residual_nonzero_on_graph():
    graph = graph_patch_fixture()
    r = biconservative_residual(graph, 0.5, 0.5)
    assert float(np.linalg.norm(r)) > 1e-3


def test_laplace_beltrami_of_mean_curvature(patch_x1):
    lap = laplace_beltrami(patch_x1, patch_x1.mean_curvature, -1.0, 0.2)
    assert abs(lap - LAP_M1) < 1e-9


def test_biharmonic_normal_residual_frozen_value(patch_x1):
    res = biharmonic_normal_residual(patch_x1, -1.0, 0.2)
    assert abs(res - (LAP_M1 - RHS_M1)) < 1e-9


def _christoffel_from_metric(patch, u, v):
    """Gamma^k_ij = I^kl (d_i I_lj + d_j I_li - d_l I_ij) / 2, with the
    derivatives of the first form by central differences of neighbouring
    records: the oracle for the Gauss-formula symbols."""
    d_first = np.stack([
        central_diff(lambda s: LocalGeometry(patch, s, v).first, u,
                     patch.fd_step),
        central_diff(lambda t: LocalGeometry(patch, u, t).first, v,
                     patch.fd_step)])
    t = d_first.transpose(1, 0, 2) + d_first.transpose(1, 2, 0) - d_first
    inv = np.linalg.inv(LocalGeometry(patch, u, v).first)
    return 0.5 * np.einsum("kl,lij->kij", inv, t)


@pytest.mark.parametrize("u,v", [(-2.0, 0.4), (-1.0, 0.3), (-0.3, -0.7)])
def test_surface_christoffel_matches_metric_derivatives(patch_x1, patch_x2,
                                                        u, v):
    for patch, (s, t) in ((patch_x1, (u, v)), (patch_x2, (u, v)),
                          (graph_patch_fixture(), (0.5 * v, u / 4.0))):
        gamma = LocalGeometry(patch, s, t).surface_christoffel
        assert gamma.shape == (2, 2, 2)
        assert np.allclose(gamma, gamma.transpose(0, 2, 1), rtol=0.0,
                           atol=1e-12)
        assert np.allclose(gamma, _christoffel_from_metric(patch, s, t),
                           rtol=0.0, atol=1e-8)


def test_principal_curvatures_match_generalized_eigenvalues(patch_x1,
                                                            patch_x2):
    cmc_fixtures = [canonical_leaf("x_const", 0.3),
                    canonical_leaf("y_const", -0.2),
                    canonical_leaf("z_const", 0.15),
                    vertical_cylinder_fixture(), graph_patch_fixture()]
    for patch, (us, vs) in (
            [(patch, patch.grid(7, 7)) for patch in cmc_fixtures]
            + [(patch, patch.grid(9, 5)) for patch in (patch_x1, patch_x2)]):
        for u in us:
            for v in vs:
                geo = LocalGeometry(patch, float(u), float(v))
                kappa = geo.principal_curvatures
                oracle = scipy.linalg.eigh(geo.second, geo.first,
                                           eigvals_only=True)
                assert kappa[0] <= kappa[1]
                assert np.allclose(kappa, oracle, rtol=0.0, atol=1e-12), \
                    (patch.name, u, v)


def _read_every_view(geo, order):
    """Read every attribute and call every method of ``geo``, in the
    listed order (``order`` 1) or in reverse (-1)."""
    square = ScalarField(
        lambda s, t: s * s + t, first_partials=lambda s, t: (2.0 * s, 1.0),
        second_partials=lambda s, t: (2.0, 0.0, 0.0))
    reads = [lambda name=name: getattr(geo, name) for name in (
        "xi_f", "first", "second", "A", "h", "K", "principal_curvatures",
        "dh", "gradient_h", "normal_trace", "residual",
        "surface_christoffel", "norm_A_sq")]
    reads += [lambda: geo.laplacian(square), geo.adapted_frame,
              geo.adapted_frame]
    for read in reads[::order]:
        read()


def test_local_geometry_reads_each_handle_once(patch_x1, monkeypatch):
    calls = Counter()

    def counted(name, func):
        def wrapper(*args):
            calls[name] += 1
            return func(*args)
        return wrapper

    monkeypatch.setattr(surface_calculus, "frame_connection", counted(
        "frame_connection", surface_calculus.frame_connection))
    f_field = patch_x1.mean_curvature
    patch = dataclasses.replace(
        patch_x1, immersion=counted("position", patch_x1.immersion),
        partials=counted("partials", patch_x1.partials),
        mean_curvature=dataclasses.replace(f_field, first_partials=counted(
            "first_partials", f_field.first_partials)))
    # the height comes with the partials, so nothing reads the immersion,
    # and the record's core (the ambient derivatives, one frame_connection
    # call each, through to A and h) is computed once, whatever is read
    once = {"partials": 1, "first_partials": 1, "frame_connection": 3}
    for u, v in ((-1.0, 0.3), (np.array([-1.0, -2.5, -0.4]),
                               np.array([0.3, -0.6, 0.9]))):
        for order in (1, -1):
            calls.clear()
            geo = LocalGeometry(patch, u, v)
            _read_every_view(geo, order)
            assert dict(calls) == once, (u, order)
        frame = geo.adapted_frame()

        calls.clear()
        sd = shape_data(patch, u, v)
        assert dict(calls) == once
        assert np.array_equal(sd.A, geo.A)
        assert np.array_equal(sd.h, geo.h) and np.array_equal(sd.K, geo.K)
        assert np.array_equal(sd.gradient_h, geo.gradient_h)
        assert np.array_equal(sd.principal_curvatures,
                              geo.principal_curvatures)
        calls.clear()
        assert np.array_equal(biconservative_residual(patch, u, v),
                              geo.residual)
        assert dict(calls) == once
        forms = fundamental_forms(patch, u, v)
        assert np.array_equal(forms.first, geo.first)
        assert np.array_equal(forms.second, geo.second)
        view = adapted_frame(patch, u, v)
        for field in dataclasses.fields(view):
            assert np.array_equal(getattr(view, field.name),
                                  getattr(frame, field.name)), field.name
        # nor does any of the views
        assert "position" not in calls


def test_mean_curvature_gradient_is_one_step(patch_x1, monkeypatch):
    # without a mean-curvature field, dh and grad f come from one central
    # difference of each point's own f, taken once however the record's
    # views reach it: four one-point records at one point, one record at
    # the 4N shifted points of N points
    built = Counter()
    init = LocalGeometry.__init__

    def counted_init(self, patch, u, v):
        built["records"] += 1
        init(self, patch, u, v)

    monkeypatch.setattr(LocalGeometry, "__init__", counted_init)
    patch = patch_x1.without_curvature_handles()
    reads = [lambda geo: geo.dh, lambda geo: geo.gradient_h,
             lambda geo: geo.residual, lambda geo: geo.adapted_frame()]
    for (u, v), nested in (((-1.0, 0.3), 4),
                           ((np.array([-1.0, -2.5, -0.4]),
                             np.array([0.3, -0.6, 0.9])), 1)):
        for order in (1, -1):
            geo = LocalGeometry(patch, u, v)
            built.clear()
            for read in reads[::order]:
                read(geo)
            assert built["records"] == nested, (u, order)


def _numpy_record(patch, u, v, dh):
    """A record's quantities by the numpy formulas the closed forms
    replaced: np.cross, np.linalg.solve and einsum over the dense
    christoffel array.  ``dh`` is the differential of f, which both routes
    read from the same handles."""
    pos = patch.immersion(u, v)
    ez = math.exp(pos[2])

    def to_frame(c):
        return np.array([ez * c[0], c[1] / ez, c[2]])

    point = Point(*pos)
    du, dv, duu, duv, dvv = patch.partials(u, v)[1:]
    firsts = (du, dv)
    du_f, dv_f = (to_frame(c) for c in firsts)
    cross = np.cross(du_f, dv_f)
    xi_f = cross / np.linalg.norm(cross)
    first = np.array([[du_f @ du_f, du_f @ dv_f], [dv_f @ du_f, dv_f @ dv_f]])
    gamma = christoffel(point)
    seconds = ((duu, duv), (duv, dvv))
    nab = np.array([[to_frame(seconds[i][j] + np.einsum(
        "kab,a,b->k", gamma, firsts[i], firsts[j])) for j in range(2)]
        for i in range(2)])
    second = nab @ xi_f
    shape = np.linalg.solve(first, second)
    h = 0.5 * np.trace(shape)
    ambient_k = sectional_curvature(TangentVector(point, du_f),
                                    TangentVector(point, dv_f))
    tangential = np.einsum("ijc,lc->lij", nab, np.array([du_f, dv_f]))
    gradient = np.linalg.solve(first, dh)
    t1 = du_f / np.linalg.norm(du_f)
    w = dv_f - np.dot(dv_f, t1) * t1
    t2 = w / np.linalg.norm(w)
    trace = (curvature_components(t1, xi_f, t1)
             + curvature_components(t2, xi_f, t2))
    trace_t = trace - np.dot(trace, xi_f) * xi_f
    coeffs = np.linalg.solve(first, np.array([trace_t @ du_f,
                                              trace_t @ dv_f]))
    return {
        "first": first, "xi_f": xi_f, "second": second, "A": shape, "h": h,
        "K": ambient_k + np.linalg.det(shape), "gradient_h": gradient,
        "normal_trace": trace @ xi_f,
        "surface_christoffel": np.linalg.solve(
            first, tangential.reshape(2, 4)).reshape(2, 2, 2),
        "residual": shape @ gradient + h * gradient + h * coeffs,
    }


def test_record_matches_numpy_formulas(patch_x1, patch_x2):
    """The closed-form record agrees with the numpy formulas to 1e-14,
    relative to the larger of the reference's magnitude and 1 (the
    residual is round-off on the family)."""
    cases = [(patch, patch.grid(4, 3)) for patch in (
        canonical_leaf("x_const", 0.3), canonical_leaf("y_const", -0.2),
        canonical_leaf("z_const", 0.15), vertical_cylinder_fixture(),
        graph_patch_fixture())]
    cases += [(patch, (np.linspace(-3.9, -0.05, 5), np.array([-0.4, 0.7])))
              for patch in (patch_x1, patch_x2)]
    for patch, (us, vs) in cases:
        for u in us:
            for v in vs:
                geo = LocalGeometry(patch, float(u), float(v))
                oracle = _numpy_record(patch, float(u), float(v), geo.dh)
                for name, expected in oracle.items():
                    scale = max(float(np.max(np.abs(expected))), 1.0)
                    error = float(np.max(np.abs(getattr(geo, name)
                                                - expected)))
                    assert error <= 1e-14 * scale, (patch.name, u, v, name,
                                                    error)


def _grid_points(patch, nu, nv):
    u, v = np.meshgrid(*patch.grid(nu, nv), indexing="ij")
    return u.ravel(), v.ravel()


def test_n_point_record_matches_one_point_records(patch_x1, patch_x2):
    """An N-point record holds, row by row, what N one-point records hold.
    numpy's exp and arctan may differ from libm's in the last bit, hence
    rtol 1e-13 and atol 1e-15.  On a patch without a mean-curvature field
    dh is a central difference of f, which divides that last-bit
    allowance by the difference step, and so do the quantities read from
    dh."""
    fixtures = [canonical_leaf("x_const", 0.3), canonical_leaf("y_const", -0.2),
                canonical_leaf("z_const", 0.15), vertical_cylinder_fixture(),
                graph_patch_fixture(), patch_x1, patch_x2,
                patch_x1.without_curvature_handles()]
    for patch in fixtures:
        u, v = _grid_points(patch, 9, 5)
        batch = LocalGeometry(patch, u, v)
        records = [LocalGeometry(patch, float(s), float(t))
                   for s, t in zip(u, v)]
        differenced = (1e-15 if patch.mean_curvature is not None
                       else 1e-15 / patch.fd_step)
        for name, atol in (("h", 1e-15), ("K", 1e-15), ("second", 1e-15),
                           ("principal_curvatures", 1e-15),
                           ("dh", differenced), ("gradient_h", differenced),
                           ("residual", differenced)):
            rows = getattr(batch, name)
            assert rows.shape[0] == len(u), (patch.name, name)
            expected = np.array([getattr(g, name) for g in records])
            np.testing.assert_allclose(rows, expected, rtol=1e-13, atol=atol,
                                       err_msg=f"{patch.name} {name}")
        np.testing.assert_allclose(
            batch.metric_norm(batch.residual),
            [g.metric_norm(g.residual) for g in records], rtol=1e-13,
            atol=differenced, err_msg=patch.name)
        if patch is patch_x1 or patch is patch_x2:
            frame = batch.adapted_frame()
            samples = [g.adapted_frame() for g in records]
            for name in ("theta", "beta", "lambda1", "lambda2", "e3_defect",
                         "x1", "x2", "xi", "x1_coefficients",
                         "x2_coefficients"):
                rows = getattr(frame, name)
                expected = [getattr(sample, name) for sample in samples]
                assert np.shape(rows)[0] == len(u), (patch.name, name)
                np.testing.assert_allclose(rows, expected, rtol=1e-13,
                                           atol=differenced,
                                           err_msg=f"{patch.name} {name}")


EPS = np.finfo(float).eps


def _implicit_patch(variant):
    return family_surface(build_profile(IMPLICIT, c=1.0, theta_start=2.2,
                                        u_grid=np.linspace(0.0, 0.25, 9)),
                          variant)


def test_n_point_public_functions_match_one_point_calls(patch_x1, patch_x2):
    """shape_data, biconservative_residual and adapted_frame take (N,)
    arrays, and their N-point fields are within 8 ulps of the one-point
    calls: |many - one| <= 8 eps max(1, |one|) entrywise.  numpy's exp and
    arctan may round differently from libm's, so this is not equality.
    The residual cancels to round-off, so its scale is that of its addends
    A grad f, f grad f and f times the curvature-trace term (whose
    parameter coefficients, on these unit-speed profiles, are at most 2):
    max(1, (|A| + |f|) |grad f| + 2 |f|)."""
    def assert_ulps(many, ones, scales, label):
        many, ones = np.asarray(many), np.asarray(ones)
        assert many.shape == ones.shape, label
        scales = np.broadcast_to(np.reshape(scales, (len(ones),)
                                            + (1,) * (ones.ndim - 1)),
                                 ones.shape)
        assert np.all(np.abs(many - ones) <= 8.0 * EPS * scales), label

    def own_scale(ones):
        ones = np.abs(np.asarray(ones)).reshape(len(ones), -1)
        return np.maximum(1.0, np.max(ones, axis=1))

    for patch in (patch_x1, patch_x2, _implicit_patch("x1"),
                  _implicit_patch("x2")):
        (u_lo, u_hi), _ = patch.domain
        u = np.linspace(u_lo + 0.1 * (u_hi - u_lo), u_hi - 0.1 * (u_hi - u_lo),
                        7)
        v = np.linspace(-0.8, 0.8, 7)
        points = list(zip(u.tolist(), v.tolist()))
        many = shape_data(patch, u, v)
        ones = [shape_data(patch, s, t) for s, t in points]
        for field in dataclasses.fields(many):
            rows = [getattr(one, field.name) for one in ones]
            assert_ulps(getattr(many, field.name), rows, own_scale(rows),
                        f"{patch.name} {field.name}")
        addends = [max(1.0, (np.max(np.abs(one.A)) + abs(one.h))
                       * np.max(np.abs(one.gradient_h)) + 2.0 * abs(one.h))
                   for one in ones]
        assert_ulps(biconservative_residual(patch, u, v),
                    [biconservative_residual(patch, s, t) for s, t in points],
                    addends, f"{patch.name} residual")
        frame = adapted_frame(patch, u, v)
        samples = [adapted_frame(patch, s, t) for s, t in points]
        for field in dataclasses.fields(frame):
            rows = getattr(frame, field.name)
            expected = [getattr(sample, field.name) for sample in samples]
            assert_ulps(rows, expected, own_scale(expected),
                        f"{patch.name} {field.name}")


def _sheared_plane(shear):
    """The z = 0 plane with d_u = E1 and d_v = E1 + shear E2: a tangent
    plane that closes as ``shear`` goes to zero."""
    zero = (0.0, 0.0, 0.0)
    return SurfacePatch(
        immersion=lambda u, v: (u + v, shear * v, 0.0),
        partials=lambda u, v: (0.0 * u, (1.0, 0.0, 0.0), (1.0, shear, 0.0),
                               zero, zero, zero),
        domain=((-1.0, 1.0), (-1.0, 1.0)), name="sheared_plane")


def _view_bytes(patch, u, v, x1_coefficients, views):
    """The bytes of every field of each named public view at ``(u, v)``."""
    calls = {
        "shape_data": lambda: shape_data(patch, u, v),
        "biconservative_residual": lambda: biconservative_residual(patch, u,
                                                                   v),
        "fundamental_forms": lambda: fundamental_forms(patch, u, v),
        "adapted_frame": lambda: adapted_frame(patch, u, v, x1_coefficients),
    }
    out = b""
    for name in views:
        value = calls[name]()
        fields = ([getattr(value, f.name) for f in dataclasses.fields(value)]
                  if dataclasses.is_dataclass(value) else [value])
        out += b"".join(np.asarray(f, dtype=float).tobytes() for f in fields)
    return out


ALL_VIEWS = ("shape_data", "biconservative_residual", "fundamental_forms",
             "adapted_frame")
# (patch, grid nu x nv, explicit X1 coefficients, views): the graph has no
# mean-curvature gradient to orient its frame, and on the sheared plane
# with shear 1e-7, sin^2 of the angle between the partials is about 1e-14,
# where K refuses the plane (DegeneratePlaneError) and the other views
# still answer
PINNED_PATCHES = {
    "explicit_x1": (lambda: family_surface(build_profile(
        EXPLICIT, u_grid=np.linspace(-4.0, -0.01, 64), u0=-1.0), "x1"),
        (6, 4), None, ALL_VIEWS),
    "explicit_x2": (lambda: family_surface(build_profile(
        EXPLICIT, u_grid=np.linspace(-4.0, -0.01, 64), u0=-1.0), "x2"),
        (6, 4), None, ALL_VIEWS),
    "implicit_x1": (lambda: _implicit_patch("x1"), (6, 4), None, ALL_VIEWS),
    "graph": (graph_patch_fixture, (5, 4), (1.0, 0.0), ALL_VIEWS),
    "sheared_1e-7": (lambda: _sheared_plane(1e-7), (3, 2), (1.0, 0.0),
                     ALL_VIEWS[1:]),
}

# sha256 over every field of the pinned views, at each grid point in turn
# ("one") and at all of them in one N-point call ("many"): a faster record
# must leave every byte as it was.
VIEW_DIGESTS = {
    ("explicit_x1", "many"):
        "00208d3d2f2d8c2113f3b88ab651a9ff2aca2183571e668d6c09a10dc479a1de",
    ("explicit_x1", "one"):
        "827002209fe5401e6ecf888542e68320f0faf7de8191e3957f3c4fb16260c8a7",
    ("explicit_x2", "many"):
        "53ab58dbfbcd28d655ac50379e4306d6644e06bf35d478b550b13efe07a72c60",
    ("explicit_x2", "one"):
        "eea88a38bf389cdb66ac5cc846305209b286dd82e1b6326a8393f70a5714521d",
    ("graph", "many"):
        "a8b5d3142c28cb55c3d204b1d8a23dc8edfc90476a0b25a562551d0abcdd0a1c",
    ("graph", "one"):
        "7ab406e38e9b63a546495f75b20b52acc25dbe2cf6d03a0b3546ff7f30797cb8",
    ("implicit_x1", "many"):
        "7d4ece58044d9912f063d0b91ef30a7b47526a44ea92bab1279664e6d931ae07",
    ("implicit_x1", "one"):
        "d42d21115da09fdb4d27512a03d9b18e0f0538dc1c6c9c22e7067831e9ba1197",
    ("sheared_1e-7", "many"):
        "0c65f95762ae83b76fa8a2e1042bd75ed6d6998b27eba99ac5105944e367ee0f",
    ("sheared_1e-7", "one"):
        "3df8f58c14efe698c91c362e799ff5f20bb89e33872921b4dd6c05b5c0342779",
}


@pytest.mark.parametrize("name,points", sorted(VIEW_DIGESTS))
def test_view_bytes_are_pinned(name, points):
    build, (nu, nv), x1_coefficients, views = PINNED_PATCHES[name]
    patch = build()
    u, v = _grid_points(patch, nu, nv)
    if points == "many":
        data = _view_bytes(patch, u, v, x1_coefficients, views)
    else:
        data = b"".join(_view_bytes(patch, s, t, x1_coefficients, views)
                        for s, t in zip(u.tolist(), v.tolist()))
    assert hashlib.sha256(data).hexdigest() == VIEW_DIGESTS[name, points]


@pytest.mark.parametrize("shear", [1e-9, 1e-8])
def test_near_degenerate_plane_is_degenerate(shear):
    # |d_u x d_v| passes the constructor's norm test on these planes, but
    # sin^2 = 1 - cos^2 of the angle between the partials rounds to zero,
    # so every 2x2 solve would divide by zero; each public view refuses the
    # plane instead, naming the first point
    plane = _sheared_plane(shear)
    square = ScalarField(lambda s, t: s * s,
                         first_partials=lambda s, t: (2.0 * s, 0.0 * t),
                         second_partials=lambda s, t: (2.0, 0.0, 0.0))
    views = [
        LocalGeometry, fundamental_forms, shape_data, biconservative_residual,
        biharmonic_normal_residual,
        lambda p, u, v: adapted_frame(p, u, v, (1.0, 0.0)),
        lambda p, u, v: laplace_beltrami(p, square, u, v)]
    for u, v in ((0.2, -0.3), (np.array([0.2, 0.5]), np.array([-0.3, 0.1]))):
        for view in views:
            with pytest.raises(DegenerateParametrizationError,
                               match=r"\(u, v\) = \(0\.2, -0\.3\)"):
                view(plane, u, v)


def test_slightly_sheared_plane_keeps_its_answers():
    # at shear 1e-7 sin^2 is about 1e-14: the record stands, K refuses the
    # plane as the sectional curvature does, and the other views' bytes are
    # pinned in VIEW_DIGESTS
    plane = _sheared_plane(1e-7)
    for u, v in ((0.2, -0.3), (np.array([0.2, 0.5]), np.array([-0.3, 0.1]))):
        with pytest.raises(DegeneratePlaneError):
            shape_data(plane, u, v)
        assert np.all(np.isfinite(biconservative_residual(plane, u, v)))

BUILDERS = [
    pytest.param(lambda: canonical_leaf("x_const", 0.3), id="leaf_x"),
    pytest.param(lambda: canonical_leaf("y_const", -0.2), id="leaf_y"),
    pytest.param(lambda: canonical_leaf("z_const", 0.15), id="leaf_z"),
    pytest.param(vertical_cylinder_fixture, id="vertical_cylinder"),
    pytest.param(graph_patch_fixture, id="graph"),
    pytest.param(lambda: family_surface(build_profile(
        EXPLICIT, u_grid=np.linspace(-4.0, -0.01, 64), u0=-1.0), "x1"),
        id="explicit_x1"),
    pytest.param(lambda: family_surface(build_profile(
        EXPLICIT, u_grid=np.linspace(-4.0, -0.01, 64), u0=-1.0), "x2"),
        id="explicit_x2"),
    pytest.param(lambda: _implicit_patch("x1"), id="implicit_x1"),
    pytest.param(lambda: _implicit_patch("x2"), id="implicit_x2"),
]


@pytest.mark.parametrize("build", BUILDERS)
def test_partials_height_is_the_position_height(build):
    # the height is stated twice, in the immersion and in the partials
    # handle, and must agree bit for bit at floats and at (N,) arrays
    # (a leaf's constant level is a float, so both are filled like u)
    patch = build()
    u, v = _grid_points(patch, 7, 5)

    def filled(z):
        return np.full(u.shape, z) if not isinstance(z, np.ndarray) else z

    assert filled(patch.partials(u, v)[0]).tobytes() \
        == filled(patch.immersion(u, v)[2]).tobytes()
    for s, t in zip(u.tolist(), v.tolist()):
        assert np.float64(patch.partials(s, t)[0]).tobytes() \
            == np.float64(patch.immersion(s, t)[2]).tobytes(), (s, t)


@pytest.mark.parametrize("coordinate,value", [(0, math.nan), (1, math.inf)],
                         ids=["x_nan", "y_inf"])
def test_broken_x_or_y_moves_no_bit(coordinate, value):
    # a patch whose immersion is broken in x or y but whose height and
    # partials are regular: no public function reads x or y, so every
    # field keeps the bits of the intact patch
    graph = graph_patch_fixture()

    def immersion(u, v):
        xyz = list(graph.immersion(u, v))
        xyz[coordinate] = xyz[coordinate] * 0.0 + value
        return tuple(xyz)

    broken = dataclasses.replace(graph, immersion=immersion)
    for u, v in ((0.5, -0.3), (np.array([0.5, 0.1]), np.array([-0.3, 0.7]))):
        assert not np.isfinite(broken.immersion(u, v)[coordinate]).any()
        for view in (shape_data, fundamental_forms, adapted_frame):
            got, intact = view(broken, u, v), view(graph, u, v)
            for field in dataclasses.fields(got):
                assert np.asarray(getattr(got, field.name)).tobytes() \
                    == np.asarray(getattr(intact, field.name)).tobytes(), \
                    (view.__name__, field.name)
        assert biconservative_residual(broken, u, v).tobytes() \
            == biconservative_residual(graph, u, v).tobytes()


def test_n_point_record_names_the_first_degenerate_point(patch_x1):
    # NaN partials on the line u = -2 and parallel ones on u = -1; the
    # first in u-major order is (-2, 0.5)
    def first(u, v, du, dv):
        return du, tuple(np.where(u == -2.0, math.nan,
                                  np.where(u == -1.0, -2.0 * a, b))
                         for a, b in zip(du, dv))

    patch = _with_first_partials(patch_x1, first)
    u = np.array([-3.0, -3.0, -2.0, -2.0, -1.0])
    v = np.array([0.0, 0.5, 0.5, 0.7, 0.1])
    with pytest.raises(DegenerateParametrizationError,
                       match=r"\(u, v\) = \(-2, 0\.5\)"):
        LocalGeometry(patch, u, v)
    with pytest.raises(DegenerateParametrizationError,
                       match=r"\(u, v\) = \(-1, 0\.1\)"):
        LocalGeometry(patch, u[[0, 4]], v[[0, 4]])
    batch = LocalGeometry(patch, u[:2], v[:2])
    assert batch.h.shape == (2,)
    assert batch.adapted_frame().theta.shape == (2,)


def test_n_point_record_names_the_first_point_that_fails_either_test():
    # at u = 0.1 the partials pass the norm test but meet at an angle whose
    # sin^2 rounds to zero; at u = 0.9 they are all zero and fail the norm
    # test.  The first of the two in the order of the arrays is named
    zero = (0.0, 0.0, 0.0)

    def partials(u, v):
        one = namespace(u).where(u < 0.5, 1.0, 0.0)
        return (0.0 * u, (one, 0.0, 0.0), (one, 1e-9 * one, 0.0), zero,
                zero, zero)

    patch = SurfacePatch(immersion=lambda u, v: (u + v, 1e-9 * v, 0.0),
                         partials=partials,
                         domain=((0.0, 1.0), (-1.0, 1.0)), name="mixed")
    u, v = np.array([0.1, 0.9]), np.array([-0.2, 0.3])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for order, named in (([0, 1], r"\(0\.1, -0\.2\)"),
                             ([1, 0], r"\(0\.9, 0\.3\)")):
            with pytest.raises(DegenerateParametrizationError,
                               match=rf"at \(u, v\) = {named}$"):
                LocalGeometry(patch, u[order], v[order])
        # one point at a time each fails its own test, with the same message
        for s, t, named in ((0.1, -0.2, r"\(0\.1, -0\.2\)"),
                            (0.9, 0.3, r"\(0\.9, 0\.3\)")):
            with pytest.raises(DegenerateParametrizationError,
                               match=rf"^parametrization of 'mixed' "
                                     rf"degenerates at \(u, v\) = {named}$"):
                LocalGeometry(patch, s, t)


def _z_leaf_with_gradient(du):
    """The z-leaf with the mean-curvature field f = 0 whose u-partial
    is ``du``."""
    leaf = canonical_leaf("z_const", 0.15)
    return dataclasses.replace(leaf, mean_curvature=ScalarField(
        lambda u, v: 0.0 * u, first_partials=lambda u, v: (du(u, v), 0.0)))


def test_n_point_frame_names_the_first_cmc_degenerate_point():
    u, v = np.array([0.3, -0.2, 0.6]), np.array([0.1, 0.5, -0.4])
    # every point of a z-leaf is CMC-degenerate; the first in the order
    # of the arrays is named
    with pytest.raises(CmcDegenerateError,
                       match=r"\(u, v\) = \(0\.3, 0\.1\)"):
        LocalGeometry(canonical_leaf("z_const", 0.15), u, v).adapted_frame()
    # a NaN |grad f| fails the checks downstream, not the threshold: the
    # first point is skipped and the second named
    leaf = _z_leaf_with_gradient(
        lambda s, t: np.where(s == 0.3, math.nan, 0.0))
    with pytest.raises(CmcDegenerateError,
                       match=r"\(u, v\) = \(-0\.2, 0\.5\)"):
        LocalGeometry(leaf, u, v).adapted_frame()
    frame = LocalGeometry(leaf, u[:1], v[:1]).adapted_frame()
    assert np.isnan(frame.theta).all()
    # a gradient above the threshold at every point gives a frame
    leaf = _z_leaf_with_gradient(lambda s, t: 1e-6 + 0.0 * s)
    frame = LocalGeometry(leaf, u, v).adapted_frame()
    assert np.isfinite(frame.theta).all()


def test_solve_stays_finite_far_down_the_family():
    # down to the low end of the explicit domain, where G = e^{2 Psi} is
    # about 1e35 (test_laplacian_where_eg_overflows covers E G past the
    # double range)
    x1 = family_surface(build_profile(
        EXPLICIT, u_grid=[EXPLICIT_U_MIN, -1.0]), "x1")
    for u in (-20.0, -35.0, EXPLICIT_U_MIN):
        lap = laplace_beltrami(x1, x1.mean_curvature, u, 0.25)
        res = biharmonic_normal_residual(x1, u, 0.25)
        assert math.isfinite(lap) and lap < 0.0, (u, lap)
        assert math.isfinite(res) and res < 0.0, (u, res)


def _scaled_plane(su, sv):
    """The z = 0 plane (u, v) -> (su u, sv v, 0)."""
    zero = (0.0, 0.0, 0.0)
    return SurfacePatch(
        immersion=lambda u, v: (su * u, sv * v, 0.0),
        partials=lambda u, v: (0.0, (su, 0.0, 0.0), (0.0, sv, 0.0),
                               zero, zero, zero),
        domain=((-1.0, 1.0), (-1.0, 1.0)), name="scaled_plane")


def test_laplacian_where_eg_overflows():
    # a flat z = 0 plane with E = 1e300 and G = 1e20: E G overflows a
    # double, and the Laplacian of u^2 is 2 / E
    square = ScalarField(lambda u, v: u * u,
                         first_partials=lambda u, v: (2.0 * u, 0.0),
                         second_partials=lambda u, v: (2.0, 0.0, 0.0))
    lap = laplace_beltrami(_scaled_plane(1e150, 1e10), square, 0.3, -0.2)
    assert abs(lap / 2e-300 - 1.0) < 1e-8


@pytest.mark.parametrize("su,sv", [(1e150, 1e10), (1e100, 1e100)],
                         ids=["1e150x1e10", "1e100x1e100"])
def test_record_where_the_normal_overflows(su, sv):
    # |d_u x d_v|^2 overflows a double on these planes, and E G with it;
    # like the unit-scale z = 0 plane they have xi = E3, principal
    # curvatures -1 and 1, and K = 0
    plane = _scaled_plane(su, sv)
    u, v = np.array([0.3, -0.5]), np.array([-0.2, 0.9])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        records = [LocalGeometry(plane, float(s), float(t))
                   for s, t in zip(u, v)] + [LocalGeometry(plane, u, v)]
        for geo in records:
            xi, kappa, k = geo.xi_f, geo.principal_curvatures, geo.K
            assert np.array_equal(xi, np.broadcast_to([0.0, 0.0, 1.0],
                                                      xi.shape))
            np.testing.assert_allclose(
                kappa, np.broadcast_to([-1.0, 1.0], kappa.shape), rtol=0.0,
                atol=1e-15)
            np.testing.assert_allclose(k, 0.0 * k, rtol=0.0, atol=1e-15)


def test_patch_requires_partials():
    with pytest.raises(TypeError):
        SurfacePatch(immersion=lambda u, v: (u, v, 0.0),
                     domain=((-1.0, 1.0), (-1.0, 1.0)), name="no_partials")


def _counted_field(value, calls):
    """A field without partials handles whose ``value`` logs each call's
    argument: a float, or the shape of an array."""
    def logged(u, v):
        calls.append(np.shape(u) if isinstance(u, np.ndarray) else u)
        return value(u, v)
    return ScalarField(logged)


def test_differenced_gradient_calls_value_once_on_arrays():
    def value(u, v):
        xp = namespace(u)
        return xp.exp(0.3 * u) * xp.sin(v) + u * v * v

    u, v = np.linspace(-1.0, 1.0, 7), np.linspace(0.2, 0.9, 7)
    step = 1e-5
    calls = []
    d_u, d_v = _counted_field(value, calls).gradient(u, v, step)
    assert calls == [(4 * len(u),)]
    # the arithmetic of two central_diff calls, bit for bit
    assert np.array_equal(d_u, central_diff(lambda s: value(s, v), u, step))
    assert np.array_equal(d_v, central_diff(lambda t: value(u, t), v, step))
    # one point keeps its four float calls
    calls.clear()
    one = _counted_field(value, calls).gradient(0.4, 0.5, step)
    assert len(calls) == 4 and all(type(c) is float for c in calls)
    assert one == (central_diff(lambda s: value(s, 0.5), 0.4, step),
                   central_diff(lambda t: value(0.4, t), 0.5, step))


def test_gradient_shapes_handle_outputs_like_u():
    u, v = np.linspace(-1.0, 1.0, 5), np.zeros(5)
    # a constant handle differences to zeros shaped like u
    d_u, d_v = ScalarField(lambda s, t: 2.5).gradient(u, v, 1e-5)
    for d in (d_u, d_v):
        assert d.shape == u.shape and d.dtype == float
        assert not d.any()
    # a handle's outputs are passed through as they are
    stored = np.arange(5.0)
    d_u, d_v = ScalarField(lambda s, t: s, first_partials=lambda s, t: (
        stored, 0.0)).gradient(u, v, 1e-5)
    assert d_u is stored and d_v == 0.0 and isinstance(d_v, float)


def test_n_point_record_reads_constant_partials_as_floats():
    """On the z leaf the handle returns z and every partial as constants.
    The record shapes z like u and reads the partials as the handle's
    floats, and each public field still has its leading axis of length N
    and holds, row by row, what one-point records hold (the tolerances of
    test_n_point_record_matches_one_point_records)."""
    leaf = canonical_leaf("z_const", 0.15)
    u, v = _grid_points(leaf, 7, 5)
    z_raw, *raw = leaf.partials(u, v)
    assert not any(isinstance(c, np.ndarray) for c in (z_raw,)
                   + tuple(c for vector in raw for c in vector))
    batch = LocalGeometry(leaf, u, v)
    records = [LocalGeometry(leaf, float(s), float(t)) for s, t in zip(u, v)]
    for name in ("first", "second", "A", "h", "K", "xi_f",
                 "principal_curvatures"):
        rows = getattr(batch, name)
        assert isinstance(rows, np.ndarray), name
        assert rows.shape[0] == len(u) and rows.dtype == float, name
        expected = np.array([getattr(g, name) for g in records])
        assert rows.shape == expected.shape, name
        np.testing.assert_allclose(rows, expected, rtol=1e-13, atol=1e-15,
                                   err_msg=name)


def test_laplacian_requires_second_partials():
    graph = graph_patch_fixture()
    with pytest.raises(ValueError, match="second_partials"):
        laplace_beltrami(graph, ScalarField(lambda u, v: u * u), 0.5, 0.5)
    with pytest.raises(ValueError, match="second_partials"):
        laplace_beltrami(graph, ScalarField(
            lambda u, v: u * u, first_partials=lambda u, v: (2.0 * u, 0.0)),
            0.5, 0.5)


def test_biharmonic_residual_requires_a_mean_curvature_field(patch_x1):
    # the Laplacian of f reads the mean-curvature field's second partials;
    # f is not differenced twice
    for patch, u, v in ((graph_patch_fixture(), 0.5, 0.5),
                        (patch_x1.without_curvature_handles(), -1.0, 0.2)):
        with pytest.raises(ValueError, match="second_partials"):
            biharmonic_normal_residual(patch, u, v)


partial = st.tuples(*(st.floats(min_value=-1e3, max_value=1e3),) * 3)


@given(st.floats(min_value=-20.0, max_value=20.0),
       st.tuples(*(partial,) * 5))
def test_ambient_derivatives_match_dense_symbols(z, partials):
    # the record's frame formula for nabla_{d_i} d_j against the einsum
    # of the dense coordinate symbols, moved to the frame
    patch = SurfacePatch(immersion=lambda u, v: (0.0, 0.0, z),
                         partials=lambda u, v: (z, *partials),
                         domain=((-1.0, 1.0), (-1.0, 1.0)), name="jet")
    try:
        geo = LocalGeometry(patch, 0.0, 0.0)
    except DegenerateParametrizationError:
        assume(False)
    ez = math.exp(z)
    gamma = christoffel(Point(0.0, 0.0, z))
    du, dv, duu, duv, dvv = (np.array(c) for c in partials)
    floor = (np.finfo(float).smallest_subnormal * math.exp(2.0 * abs(z))
             * max(1.0, np.max(np.abs(partials))) ** 2)
    for got, second, x, y in zip(geo._ambient, (duu, duv, dvv),
                                 (du, du, dv), (du, dv, dv)):
        coordinates = second + np.einsum("kij,i,j->k", gamma, x, y)
        dense = np.array([ez * coordinates[0], coordinates[1] / ez,
                          coordinates[2]])
        # the sizes of the summed terms, in frame units; a rounding below
        # the normal range errs by up to half the subnormal spacing, and
        # the later factors e^{+-z} and partials carry that error into the
        # result, so the bound has a floor of that spacing times them
        sizes = np.array([
            ez * (abs(second[0]) + abs(x[0] * y[2]) + abs(x[2] * y[0])),
            (abs(second[1]) + abs(x[1] * y[2]) + abs(x[2] * y[1])) / ez,
            abs(second[2]) + ez * ez * abs(x[0] * y[0])
            + abs(x[1] * y[1]) / (ez * ez)])
        assert np.all(np.abs(np.array(got) - dense)
                      <= 8.0 * (np.finfo(float).eps * sizes + floor))


FAR_LEVELS = [356.0, -356.0, 400.0, -400.0, 700.0]


@pytest.mark.parametrize("level", FAR_LEVELS)
def test_far_z_leaves_give_the_bits_of_the_near_one(level):
    # e^{2z} overflows or underflows on these leaves, but the record reads
    # the frame table alone: one-point and N-point records give the bits of
    # the leaf at 0.15, with no warning
    points = [(0.3, -0.4), (np.array([0.3, -0.7, 0.0]),
                            np.array([-0.4, 0.2, 0.9]))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for u, v in points:
            near, far = (LocalGeometry(canonical_leaf("z_const", z), u, v)
                         for z in (0.15, level))
            for name in ("first", "second", "A", "h", "K",
                         "principal_curvatures"):
                assert np.array_equal(getattr(far, name),
                                      getattr(near, name)), name


@pytest.mark.parametrize("scale", [1e-6, 1e-8])
def test_a_tiny_flat_plane_has_zero_gauss_curvature(scale):
    # (s u, s v, 0) is the z = 0 leaf scaled by s: K's test for a
    # degenerate tangent plane is scale-free
    zero = (0.0, 0.0, 0.0)
    patch = SurfacePatch(
        immersion=lambda u, v: (scale * u, scale * v, 0.0),
        partials=lambda u, v: (0.0, (scale, 0.0, 0.0), (0.0, scale, 0.0),
                               zero, zero, zero),
        domain=((-1.0, 1.0), (-1.0, 1.0)), name="tiny")
    assert shape_data(patch, 0.2, -0.5).K == 0.0
    assert np.array_equal(
        LocalGeometry(patch, np.array([0.2, 0.0]), np.array([-0.5, 1.0])).K,
        [0.0, 0.0])


@pytest.mark.parametrize("v", [1e300, 720.0, -1e300, -800.0])
def test_height_past_the_double_range_names_the_point(v):
    # the x_const leaf's height is v: where e^v or e^{-v} is not a double
    # the record refuses the point with a ValueError, not an OverflowError,
    # a ZeroDivisionError or a RuntimeWarning, at one point and at N points
    leaf = canonical_leaf("x_const", 0.3)
    message = "^" + re.escape(
        f"e^(z) or e^(-z) leaves the double range on 'leaf_x=0.3' at "
        f"(u, v) = (0.1, {v:g}), z = {v:g}") + "$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for points in ((0.1, v), (np.array([0.2, 0.1, 0.1]),
                                  np.array([0.5, v, -v]))):
            for read in (shape_data, biconservative_residual):
                with pytest.raises(ValueError, match=message):
                    read(leaf, *points)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_height_refusal_starts_one_ulp_past_the_bound(sign):
    # at |z| = ln(DBL_MAX) e^z and e^{-z} are doubles: the z_const leaf
    # there answers with the bits of its level 0.  One ulp further out the
    # x_const leaf's height v is refused, at one point and at N points
    edge = sign * math.log(sys.float_info.max)
    past = math.nextafter(edge, sign * math.inf)
    message = "^" + re.escape(
        f"e^(z) or e^(-z) leaves the double range on 'leaf_x=0.3' at "
        f"(u, v) = (0.1, {past:g}), z = {past:g}") + "$"
    leaf = canonical_leaf("x_const", 0.3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        at_edge, at_zero = (shape_data(canonical_leaf("z_const", level),
                                       0.1, 0.2) for level in (edge, 0.0))
        for field in dataclasses.fields(ShapeData):
            assert np.array_equal(getattr(at_edge, field.name),
                                  getattr(at_zero, field.name))
        for points in ((0.1, past), (np.array([0.2, 0.1]),
                                     np.array([0.5, past]))):
            with pytest.raises(ValueError, match=message):
                shape_data(leaf, *points)


def test_nan_height_is_degenerate():
    # a NaN height passes the range test and fails the plane test
    leaf = canonical_leaf("x_const", 0.3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for u, v in ((0.1, math.nan), (np.array([0.2, 0.1]),
                                       np.array([0.5, math.nan]))):
            with pytest.raises(DegenerateParametrizationError,
                               match=r"at \(u, v\) = \(0\.1, nan\)$"):
                LocalGeometry(leaf, u, v)


def test_one_point_pair_python_calls(patch_x1):
    # a one-point shape_data + biconservative_residual pair is straight-line
    # arithmetic: count the Python-level function calls it makes (the
    # C-level calls of math, numpy and the builtins are not counted)
    def pair():
        shape_data(patch_x1, -2.1, 0.3)
        biconservative_residual(patch_x1, -2.1, 0.3)

    calls = Counter()

    def profile(frame, event, arg):
        if event == "call":
            calls[frame.f_code.co_name] += 1

    pair()
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        pair()
    finally:
        sys.setprofile(previous)
    assert calls.pop("pair") == 1
    assert sum(calls.values()) == 79, calls


def test_shape_data_is_a_frozen_dataclass():
    # ShapeData writes its own instance dict; the dataclass API stays
    names = ("A", "h", "K", "gradient_h", "principal_curvatures")
    fields = tuple(field.name for field in dataclasses.fields(ShapeData))
    assert fields == names
    values = dict(zip(names, range(len(names))))
    by_keyword = ShapeData(**values)
    by_position = ShapeData(*values.values())
    assert by_keyword == by_position
    assert hash(by_keyword) == hash(by_position)
    assert repr(by_keyword) == ("ShapeData(A=0, h=1, K=2, gradient_h=3, "
                                "principal_curvatures=4)")
    changed = dataclasses.replace(by_keyword, principal_curvatures=-1)
    assert changed != by_keyword
    assert [getattr(changed, name) for name in names] == [0, 1, 2, 3, -1]
    with pytest.raises(dataclasses.FrozenInstanceError):
        by_keyword.A = 5
    with pytest.raises(TypeError):
        ShapeData(*values.values(), 0)
