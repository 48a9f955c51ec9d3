import dataclasses
import decimal
import json
import math
import re
import warnings

import numpy as np
import pytest

from solgeo import verification
from solgeo.biconservative_family import (EXPLICIT, build_profile,
                                          integrate_implicit_profile)
from solgeo.patch import ScalarField
from solgeo.sol_space import (Point, TangentVector, canonical_leaf,
                              curvature_tensor, curvature_tensor_fd,
                              frame_connection)
from solgeo.surface_calculus import CmcDegenerateError, LocalGeometry
from solgeo.verification import (_bounded_away, CheckReport, SUITE_NAMES,
                                 check_angle_constraints,
                                 check_biharmonic_obstruction,
                                 check_cmc_rigidity, check_frame_identities,
                                 check_polynomial_obstruction,
                                 graph_patch_fixture, reports_to_json,
                                 rotated_leaf_fixture, run_suite,
                                 vertical_cylinder_fixture)


def test_report_status_invariant():
    # the status is derived from the error and the tolerance, never set
    assert CheckReport("a", 1e-9, 1e-8, {}).status == "pass"
    assert CheckReport("a", 1e-7, 1e-8, {}).status == "fail"
    assert CheckReport("a", math.nan, 1e-8, {}).status == "fail"
    assert CheckReport("a", 0.0, math.nan, {}).status == "fail"
    with pytest.raises(TypeError):
        CheckReport("a", "pass", 1e-9, 1e-8, {})
    with pytest.raises(ValueError):
        CheckReport("a", None, 1e-8, {})
    with pytest.raises(ValueError):
        CheckReport("a", 1e-9, None, {})
    report = CheckReport("a", np.float64(1e-9), 1, {"k": 1})
    assert type(report.max_error) is float and type(report.tolerance) is float


def test_report_boundary_is_pass():
    r = CheckReport("edge", 1e-8, 1e-8, {})
    assert r.status == "pass"


def test_report_from_error():
    r = CheckReport("x", 2.0, 1.0, {"k": 1})
    assert r.status == "fail"


def test_report_has_no_skipped_status():
    # a check passes or fails; there is no third outcome to count as success
    with pytest.raises(ValueError):
        CheckReport("a", None, None, {})
    for error in (0.0, 1.0, math.inf, -math.inf, math.nan):
        assert CheckReport("a", error, 0.5, {}).status in ("pass", "fail")
    with pytest.raises(AttributeError):
        CheckReport("a", 0.0, 1.0, {}).status = "skipped"


def test_report_as_dict_round_trips_through_json():
    r = CheckReport("x", 0.5, 1.0, {
        "arr": np.array([1.0, 2.0]),
        "np_float": np.float64(3.5),
        "nested": {"tuple": (1, 2)},
    })
    text = json.dumps(r.as_dict())
    back = json.loads(text)
    assert back["check_id"] == "x"
    assert back["context"]["arr"] == [1.0, 2.0]
    assert back["context"]["np_float"] == 3.5


def test_frame_identities_pass_on_both_variants(patch_x1, patch_x2):
    for label, patch in (("x1", patch_x1), ("x2", patch_x2)):
        reports = check_frame_identities(patch, (5, 3), label=label)
        assert len(reports) == 8
        assert all(r.status == "pass" for r in reports)
        assert all(r.tolerance == 1e-7 for r in reports)
        assert all(r.check_id.endswith(label) for r in reports)


def test_frame_checks_raise_on_cmc_patch():
    leaf = canonical_leaf("z_const", 0.15)
    with pytest.raises(CmcDegenerateError, match="supply x1_coefficients"):
        check_frame_identities(leaf, (3, 3))
    with pytest.raises(CmcDegenerateError, match="supply x1_coefficients"):
        check_angle_constraints(leaf, (3, 3))


def test_frame_identities_on_a_far_z_leaf():
    # the stencils read frame components and the constant frame table, so
    # a leaf at z = 400, where e^{2z} overflows, gives the errors of the
    # leaf at 0.15
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        far, near = (check_frame_identities(canonical_leaf("z_const", level),
                                            x1_coefficients=[1, 1])
                     for level in (400.0, 0.15))
    assert [(r.check_id, r.max_error, r.status) for r in far] == \
        [(r.check_id, r.max_error, r.status) for r in near]


def test_angle_constraints_pass(patch_x1, patch_x2):
    for variant, patch in (("x1", patch_x1), ("x2", patch_x2)):
        reports = check_angle_constraints(patch, (5, 3), variant=variant)
        assert all(r.status == "pass" for r in reports)
    with pytest.raises(ValueError):
        check_angle_constraints(patch_x1, variant="x9")


def test_cmc_rigidity_classifications():
    reports = check_cmc_rigidity()
    by_id = {r.check_id: r for r in reports}
    assert all(r.status == "pass" for r in reports)
    for leaf_id in ("cmc_rigidity_leaf_x=0.3", "cmc_rigidity_leaf_y=-0.2",
                    "cmc_rigidity_leaf_z=0.15"):
        assert by_id[leaf_id].context["classification"] \
            == "cmc_biconservative"
    # the non-examples witness no counterexample
    cyl = by_id["cmc_rigidity_vertical_cylinder"]
    assert cyl.context["classification"] != "cmc_biconservative"
    assert cyl.context["max_residual"] > 1e-3
    assert cyl.context["max_mean_curvature"] > 0.1


def _nan_duu_where(patch, bad_u):
    """``patch`` with d_uu NaN on the parameter line u == bad_u, at one
    point or at N points."""
    def partials(u, v):
        z, du, dv, duu, duv, dvv = patch.partials(u, v)
        return (z, du, dv, tuple(np.where(u == bad_u, math.nan, c)
                                 for c in duu), duv, dvv)
    return dataclasses.replace(patch, partials=partials)


def test_nan_floor_fails():
    assert _bounded_away("floor", math.nan, 1e-6, {}).status == "fail"
    assert _bounded_away("floor", 1.0, 1e-6, {}).status == "pass"


def test_nan_on_the_grid_fails_cmc_rigidity():
    leaf = _nan_duu_where(canonical_leaf("x_const", 0.3), 0.0)
    report, = check_cmc_rigidity([leaf])
    assert report.status == "fail"
    assert report.context["classification"] == "undetermined"
    assert math.isnan(report.max_error)


def test_nan_on_the_grid_fails_frame_and_angle_checks(patch_x1):
    us, _ = patch_x1.grid(9, 5)
    patch = _nan_duu_where(patch_x1, us[4])
    statuses = {r.check_id: r.status for r in
                check_frame_identities(patch, (9, 5))
                + check_angle_constraints(patch, (9, 5))}
    # h, lambda1 and lambda2 are NaN on that line; theta and beta are not
    assert {cid for cid, status in statuses.items() if status == "fail"} == {
        "frame_identity_1", "frame_identity_4", "frame_identity_7",
        "angle_theta_x1_derivative", "angle_lambda2_sign"}


def test_biharmonic_suite_builds_one_record_of_eight_samples(monkeypatch):
    points = []
    original = LocalGeometry.__init__

    def counted(self, patch, u, v):
        points.append((u, v))
        original(self, patch, u, v)

    monkeypatch.setattr(LocalGeometry, "__init__", counted)
    run_suite("biharmonic")
    # eight profile samples on the v = 0.25 ruling, in one record
    (u, v), = points
    assert len(set(zip(u.tolist(), v.tolist()))) == 8
    assert set(v.tolist()) == {0.25}


@pytest.mark.parametrize("name,builds", [
    ("all", 1), ("frames", 1), ("family", 1), ("biharmonic", 1),
    ("ambient", 0), ("polynomial", 0)])
def test_run_suite_builds_the_default_profile_at_most_once(monkeypatch, name,
                                                           builds):
    # frames, family and biharmonic read one explicit profile and its x1
    # and x2 patches per run_suite call; no state outlives the call
    calls = []
    original = verification.build_profile

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(verification, "build_profile", counted)
    for _ in range(2):
        run_suite(name)
    assert len(calls) == 2 * builds


@pytest.mark.parametrize("section,records", [
    # the shape grid, the two residual grids, and three FD-convergence
    # grids that difference f in one record of the four shifted grids each
    (lambda: run_suite("family"), 1 + 2 + 3 * 2),
    # five fixtures without a mean-curvature field, each with one record
    # of its four shifted f grids
    (check_cmc_rigidity, 5 * 2),
    # the x, y and z leaves
    (verification._leaf_reports, 3),
    # one stacked stencil record for each of the two family frame grids
    # and the rotated-leaf control, the rigidity fixtures, and the graph
    # control's residual grid with its one record of shifted f grids
    (lambda: run_suite("frames"), 3 + 5 * 2 + 2),
], ids=["family", "cmc_rigidity", "leaves", "frames"])
def test_grids_build_one_record_each(monkeypatch, section, records):
    built = []
    original = LocalGeometry.__init__

    def counted(self, patch, u, v):
        built.append(np.size(u))
        original(self, patch, u, v)

    monkeypatch.setattr(LocalGeometry, "__init__", counted)
    section()
    assert len(built) == records
    assert min(built) > 1


def _five_record_frame_eval(patch, u, v, override):
    """The frame ingredients from a centre record and one record at each
    of (u + step, v), (u - step, v), (u, v + step), (u, v - step), with
    the stencil's gradient norms last: the oracle of the stacked record."""
    step = patch.fd_step
    center = LocalGeometry(patch, u, v).adapted_frame(override)
    stencil = [LocalGeometry(patch, s, t) for s, t in (
        (u + step, v), (u - step, v), (u, v + step), (u, v - step))]
    frames = [g.adapted_frame(override) for g in stencil]

    def rates(values):
        east, west, north, south = values
        return (east - west) / (2.0 * step), (north - south) / (2.0 * step)

    def along(coeffs, r):
        return coeffs[:, 0] * r[0] + coeffs[:, 1] * r[1]

    dth = rates([f.theta for f in frames])
    dbe = rates([f.beta for f in frames])
    dx1 = rates([f.x1.T for f in frames])
    x1, x2 = center.x1.T, center.x2.T
    c1, c2 = center.x1_coefficients, center.x2_coefficients
    nab = [(along(c, dx1) + np.array(frame_connection(d, x1))).T
           for c, d in ((c1, x1), (c2, x2))]
    ingredients = dict(x1_theta=along(c1, dth), x2_theta=along(c2, dth),
                       x1_beta=along(c1, dbe), x2_beta=along(c2, dbe),
                       nab1=nab[0], nab2=nab[1])
    return center, ingredients, stencil


@pytest.mark.parametrize("fixture", ["x1", "x2", "rotated_leaf"])
def test_stacked_frame_eval_equals_five_records(request, fixture):
    if fixture == "rotated_leaf":
        patch, override = rotated_leaf_fixture()
        grid = (3, 3)
    else:
        patch, override = request.getfixturevalue(f"patch_{fixture}"), None
        grid = (9, 5)
    u, v = verification._grid_points(*patch.grid(*grid))
    stacked = verification._frame_eval(patch, grid, override)
    center, ingredients, stencil = _five_record_frame_eval(patch, u, v,
                                                           override)
    expected, got = vars(center), vars(stacked.frame)
    assert expected.keys() == got.keys()
    for name in expected:
        assert np.array_equal(got[name], expected[name]), name
    for name, value in ingredients.items():
        assert np.array_equal(getattr(stacked, name), value), name
    if override is None:
        # the angle rows' X2(|grad f|) from the stencil blocks
        step = patch.fd_step
        east, west, north, south = (verification._gradient_norm(g)
                                    for g in stencil)
        g_du = (east - west) / (2.0 * step)
        g_dv = (north - south) / (2.0 * step)
        c2 = center.x2_coefficients
        rows = verification._angle_rows(stacked, 1.0, step)
        assert np.array_equal(rows[5], np.abs(c2[:, 0] * g_du
                                              + c2[:, 1] * g_dv))


def test_cmc_leaf_names_a_centre_point_first():
    leaf = canonical_leaf("z_const", 0.15)
    message = ("|grad f| below 1e-08 on 'leaf_z=0.15' at (u, v) = (-1, -1); "
               "supply x1_coefficients explicitly")
    with pytest.raises(CmcDegenerateError) as raised:
        check_frame_identities(leaf, (3, 3))
    assert str(raised.value) == message
    # CMC-degenerate at the centre points on u = 1 and at the stencil
    # points left of u = -1, which belong to the first centre point: the
    # centre point (1, -1) is named, not the stencil point (-1.00001, -1)
    graded = dataclasses.replace(leaf, mean_curvature=ScalarField(
        lambda u, v: 0.0 * u,
        first_partials=lambda u, v: (
            np.where((u < -1.0) | (u == 1.0), 0.0, 1e-6), 0.0)))
    with pytest.raises(CmcDegenerateError, match=r"\(u, v\) = \(1, -1\)"):
        check_frame_identities(graded, (3, 3))


def test_ambient_suite_makes_one_n_point_call_per_check(monkeypatch):
    sizes = {}
    for name in ("sectional_curvature", "curvature_tensor_fd",
                 "covariant_derivative"):
        def counted(*args, _name=name, _call=getattr(verification, name)):
            # the last argument is a tangent vector at the evaluated points
            sizes.setdefault(_name, []).append(np.size(args[-1].base.z))
            return _call(*args)
        monkeypatch.setattr(verification, name, counted)
    run_suite("ambient")
    # three frame planes, one oracle over 50 triples, and the 3 x 3
    # connection table at 10 points
    assert {name: len(n) for name, n in sizes.items()} == {
        "sectional_curvature": 3, "curvature_tensor_fd": 1,
        "covariant_derivative": 9}
    assert sizes["sectional_curvature"] == [100] * 3
    assert sizes["curvature_tensor_fd"] == [50]
    assert sizes["covariant_derivative"] == [10] * 9


@pytest.mark.parametrize("seed", [0, 7])
def test_ambient_oracle_keeps_the_per_triple_draw_order(seed):
    # the oracle as one-point calls on interleaved draws: a point, then
    # the three vectors, for each triple in turn
    rng = np.random.default_rng(seed)
    rng.uniform(-5.0, 5.0, size=(100, 3))
    worst = 0.0
    for _ in range(50):
        p = Point(*rng.uniform(-2.0, 2.0, size=3))
        x, y, z = (TangentVector(p, rng.uniform(-1.0, 1.0, size=3))
                   for _ in range(3))
        closed = curvature_tensor(x, y, z).components
        fd = curvature_tensor_fd(x, y, z).components
        worst = max(worst, float(np.max(np.abs(closed - fd))))
    report, = (r for r in run_suite("ambient", seed)
               if r.check_id == "ambient_curvature_fd_oracle")
    # the rows differ from one-point calls only by exp's last bit, which
    # the differences amplify to about 1e-12; another draw order moves
    # this 1e-8 error by 1e-10 or more
    assert report.max_error == pytest.approx(worst, rel=0.0, abs=1e-11)


def test_vertical_cylinder_fixture_is_vertical():
    patch = vertical_cylinder_fixture()
    for u in (0.3, 2.0):
        assert np.allclose(patch.derivatives(u, 0.0)[1], [0.0, 0.0, 1.0])


def test_rotated_leaf_breaks_second_identity():
    leaf, coeffs = rotated_leaf_fixture()
    reports = check_frame_identities(leaf, (3, 3), x1_coefficients=coeffs)
    by_id = {r.check_id: r for r in reports}
    assert by_id["frame_identity_2"].status == "fail"
    assert by_id["frame_identity_2"].max_error == pytest.approx(1.0,
                                                                abs=1e-9)


def test_biharmonic_obstruction_reports(explicit_profile):
    reports = check_biharmonic_obstruction(explicit_profile)
    assert all(r.status == "pass" for r in reports)
    by_id = {r.check_id: r for r in reports}
    assert by_id["biharmonic_laplacian_negative"].context["max_laplacian"] < 0
    assert by_id["biharmonic_required_rhs_positive"].context["min_rhs"] > 0
    assert by_id["biharmonic_equation_gap"].context["max_defect"] < -1e-6


def test_biharmonic_obstruction_far_down_the_profile():
    reports = check_biharmonic_obstruction(build_profile(
        EXPLICIT, u_grid=np.linspace(verification.BIHARMONIC_U_MIN, -1.0, 9)))
    assert len(reports) == 8
    assert all(r.status == "pass" for r in reports)
    # a grid inside the explicit domain, but the gap is below the floor
    # there
    with pytest.raises(ValueError, match=r"^obstruction check needs "
                                         r"u >= -13, but the profile starts "
                                         r"at u = -20$"):
        check_biharmonic_obstruction(
            build_profile(EXPLICIT, u_grid=[-20.0, -1.0]))
    # e^{-2 a u} at u = -5000 is far beyond double range
    assert math.isfinite(verification._laplacian_rational(-5000.0))


def test_biharmonic_obstruction_requires_explicit(implicit_solution):
    with pytest.raises(ValueError):
        check_biharmonic_obstruction(implicit_solution)


def test_polynomial_obstruction_report():
    report = check_polynomial_obstruction()
    assert report.status == "pass"
    assert report.max_error == 0.0 and report.tolerance == 0.0
    ctx = report.context
    assert ctx["degree"] == 8
    assert ctx["coefficients_ascending"] == [
        "160", "656", "-1872", "-13224", "-19352", "15840", "85632",
        "92760", "25128"]
    assert ctx["degree9_addend_coefficients"] == ["21600", "-21600"]
    assert ctx["positive_real_root_count"] == 2
    assert "constant_factor" in ctx
    # 50-digit evaluation at the positive quadratic root is far from zero
    assert abs(float(ctx["value_at_positive_quadratic_root"])) > 100.0


def test_polynomial_suite_leaves_decimal_precision():
    precision = decimal.getcontext().prec
    reports = run_suite("polynomial")
    assert decimal.getcontext().prec == precision
    ctx = reports[0].as_dict()["context"]
    assert ctx["value_at_positive_quadratic_root"] \
        == "-558.473171767851653576281875324"


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_suites_pass(suite):
    reports = run_suite(suite)
    assert reports
    failing = [r.check_id for r in reports if r.status == "fail"]
    assert failing == []


def test_unknown_suite():
    with pytest.raises(ValueError):
        run_suite("nosuch")


@pytest.mark.parametrize("suite", SUITE_NAMES + ("all",))
def test_negative_seed_is_refused_by_every_suite(suite):
    with pytest.raises(ValueError, match=r"^seed must be nonnegative, "
                                         r"got -1$"):
        run_suite(suite, seed=-1)
    # so is a seed that is no integer, before any suite runs
    for seed in (1.5, True, "7", None, np.float64(2.0)):
        with pytest.raises(ValueError, match=r"^seed must be an integer, got "
                                             + re.escape(repr(seed)) + "$"):
            run_suite(suite, seed=seed)
    with pytest.raises(ValueError, match=r"^seed must be nonnegative"):
        run_suite(suite, seed=np.int64(-1))


def test_numpy_integer_seed_is_the_int_seed():
    assert reports_to_json(run_suite("ambient", seed=np.int64(7))) \
        == reports_to_json(run_suite("ambient", seed=7))


def test_all_suite_ids_unique():
    reports = run_suite("all")
    ids = [r.check_id for r in reports]
    assert len(ids) == len(set(ids))


def test_negative_controls_report_property_failures():
    reports = {r.check_id: r for r in run_suite("frames")}
    rotated = reports["negative_control_rotated_leaf_sin2beta"]
    graph = reports["negative_control_graph_residual"]
    # controls pass because the fixtures violate the property decisively
    assert rotated.status == "pass"
    assert rotated.context["observed"] >= 0.5
    assert "property" in rotated.context["expected"]
    assert graph.status == "pass"
    assert graph.context["observed"] >= 1e-3
    assert "property" in graph.context["expected"]


def test_ambient_suite_reports_expected_curvatures():
    reports = {r.check_id: r for r in run_suite("ambient")}
    assert reports["ambient_sectional_e1_e3"].context["expected"] == -1.0
    assert reports["ambient_sectional_e2_e3"].context["expected"] == -1.0
    assert reports["ambient_sectional_e1_e2"].context["expected"] == 1.0
    assert reports["ambient_sectional_e1_e3"].tolerance == 1e-12


def test_reports_json_deterministic():
    reports = run_suite("family", seed=7)
    a = reports_to_json(reports)
    b = reports_to_json(run_suite("family", seed=7))
    assert a == b
    # finite reports are written as plain JSON numbers
    assert a == json.dumps([dict(dataclasses.asdict(r), status=r.status)
                            for r in reports], indent=2, sort_keys=True) + "\n"
    parsed = json.loads(a)
    assert isinstance(parsed, list)
    assert {"check_id", "status", "max_error", "tolerance",
            "context"} <= set(parsed[0])


def _strict_loads(text):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=reject)


def test_reports_json_is_strict_for_non_finite_numbers():
    leaf = _nan_duu_where(canonical_leaf("x_const", 0.3), 0.0)
    report, = check_cmc_rigidity([leaf])
    back, = _strict_loads(reports_to_json([report]))
    assert back["status"] == "fail"
    assert back["max_error"] == "NaN"
    assert back["context"]["max_grad_f"] == "NaN"
    report = CheckReport("x", math.inf, 1.0,
                         {"low": -math.inf,
                          "nested": [np.float64(math.nan), 0.5]})
    back, = _strict_loads(reports_to_json([report]))
    assert back["max_error"] == "Infinity"
    assert back["context"] == {"low": "-Infinity", "nested": ["NaN", 0.5]}


FRAME_CHECKS = [(f"frame_identity_{k}", 1e-7) for k in range(1, 9)]
ANGLE_CHECKS = [
    ("angle_cos_nonvanishing", 0.0), ("angle_sin_nonvanishing", 0.0),
    ("angle_theta_x1_derivative", 1e-7), ("angle_theta_x2_derivative", 1e-7),
    ("angle_x1_autoparallel", 1e-7), ("angle_mixed_f_derivative", 1e-6),
    ("angle_lambda2_sign", 1e-9), ("angle_x2_x1_derivative", 1e-7)]

# The fixed point of ``run_suite("all")``: every check id, in order, with
# its tolerance.
ALL_CHECKS = [
    ("ambient_sectional_e1_e3", 1e-12), ("ambient_sectional_e2_e3", 1e-12),
    ("ambient_sectional_e1_e2", 1e-12), ("ambient_curvature_fd_oracle", 1e-6),
    ("ambient_metric_determinant", 1e-12),
    ("ambient_frame_orthonormality", 1e-12),
    ("ambient_connection_table", 1e-8),
    ("leaf_totally_geodesic_x_const", 1e-9),
    ("leaf_totally_geodesic_y_const", 1e-9),
    ("leaf_z_mean_curvature", 1e-10), ("leaf_z_gauss_curvature", 1e-8),
    ("leaf_z_principal_curvatures", 1e-9),
    *((f"{name}_{variant}", tolerance) for checks in (FRAME_CHECKS,
                                                       ANGLE_CHECKS)
      for variant in ("x1", "x2") for name, tolerance in checks),
    ("cmc_rigidity_leaf_x=0.3", 1e-8), ("cmc_rigidity_leaf_y=-0.2", 1e-8),
    ("cmc_rigidity_leaf_z=0.15", 1e-8),
    ("cmc_rigidity_vertical_cylinder", 1e-8),
    ("cmc_rigidity_graph_patch", 1e-8),
    ("negative_control_rotated_leaf_sin2beta", 0.0),
    ("negative_control_graph_residual", 0.0),
    ("family_theta_ode_explicit", 1e-12), ("family_scalar_ode_explicit", 1e-8),
    ("family_psi_monotonicity", 0.0), ("family_mean_curvature_match", 1e-8),
    ("family_gauss_curvature_match", 1e-7),
    ("family_gauss_curvature_negative", 0.0),
    ("family_biconservative_residual_x1", 1e-6),
    ("family_biconservative_residual_x2", 1e-6),
    ("family_residual_fd_convergence", 0.0),
    ("family_implicit_relation", 1e-10),
    ("family_implicit_theta_ode", 1.0000000000000019e-06),
    ("family_implicit_scalar_ode", 1e-8), ("family_implicit_halt", 0.0),
    ("family_quadrature_anchor", 1e-12),
    ("biharmonic_laplacian_two_routes", 1e-9),
    ("biharmonic_laplacian_surface_route", 1e-8),
    ("biharmonic_shape_norm_closed_form", 1e-8),
    ("biharmonic_normal_trace_closed_form", 1e-8),
    ("biharmonic_residual_route_match", 1e-8),
    ("biharmonic_laplacian_negative", 0.0),
    ("biharmonic_required_rhs_positive", 0.0),
    ("biharmonic_equation_gap", 0.0), ("polynomial_obstruction", 0.0),
]


@pytest.mark.parametrize("seed", [0, 7])
def test_verify_all_keeps_its_ids_tolerances_and_passes(seed):
    reports = run_suite("all", seed)
    assert len(ALL_CHECKS) == 74
    assert [(r.check_id, r.tolerance) for r in reports] == ALL_CHECKS
    assert [r.check_id for r in reports if r.status != "pass"] == []


def test_the_implicit_family_check_profile_is_uniformly_spaced():
    # family_implicit_scalar_ode's 4th-order stencil reads every sample at
    # the one step u[1] - u[0]: the march it checks halts on the angle
    # before u_span, so it adds no shorter remainder sample
    implicit = integrate_implicit_profile(c=1.0, theta_start=2.2,
                                          u_span=1.5, step=1e-3)
    assert implicit.halt_reason == "angle_degenerate"
    assert implicit.u[-1] < 1.5
    assert implicit.u[1] - implicit.u[0] == 1e-3
    np.testing.assert_allclose(np.diff(implicit.u), 1e-3, rtol=1e-9, atol=0)
