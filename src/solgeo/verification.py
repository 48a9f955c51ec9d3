"""Machine-checkable restatements of the geometric facts as report suites.

Every check produces a :class:`CheckReport` whose ``status`` is ``pass``
exactly when ``max_error <= tolerance``; tolerances are always explicit in
the report.  Negative controls use the same mechanism with the inequality
reversed: the reported error is the shortfall below a required floor, so a
fixture that is supposed to violate a property *passes* its control check
by violating it decisively.

A NaN at any evaluated point fails its check.  Each check evaluates its
grid once into a float array and reduces it with ``np.max``/``np.min``,
which propagate NaN (Python's ``max``/``min`` drop it), and a NaN error
or shortfall compares as a failure.

Suites (``run_suite``): ``ambient`` for the model space, ``frames`` for
the adapted-frame identities and CMC rigidity evidence, ``family`` for the
profile ODEs and the tangential residual, ``biharmonic`` for the
sign obstruction, ``polynomial`` for the exact integer identity, and
``all`` for everything in that order.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, fields
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import cache
from itertools import zip_longest
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
from numpy.random import default_rng

from .biconservative_family import (CONSTANTS, EXPLICIT, ProfileSolution,
                                    build_profile, family_surface,
                                    integrate_implicit_profile,
                                    theta_prime_explicit)
from .exact_poly import (coefficients_as_strings, nonexistence_addends,
                         real_roots_interval)
from .numerics import (CURVATURE_FD_STEP, namespace, stencil_points,
                       stencil_rates)
from .patch import SurfacePatch
from .sol_space import (Point, TangentVector, canonical_leaf,
                        covariant_derivative, curvature_tensor,
                        curvature_tensor_fd, frame_connection, frame_vector,
                        metric_at, sectional_curvature)
from .surface_calculus import AdaptedFrameSample, LocalGeometry

__all__ = [
    "CheckReport",
    "check_frame_identities",
    "check_angle_constraints",
    "check_cmc_rigidity",
    "check_biharmonic_obstruction",
    "check_polynomial_obstruction",
    "vertical_cylinder_fixture",
    "graph_patch_fixture",
    "rotated_leaf_fixture",
    "run_suite",
    "reports_to_json",
    "SUITE_NAMES",
]

IDENTITY_STATEMENTS = (
    "X1(theta) + lambda1 - cos(2 beta) sin(theta) = 0",
    "X2(theta) + sin(2 beta) = 0",
    "cos(theta) <nabla_X1 X1, X2> - sin(2 beta) sin(theta) = 0",
    "cos(theta) <nabla_X2 X1, X2> - lambda2 sin(theta) - cos(2 beta) = 0",
    "(X1(beta) - <nabla_X1 X1, X2> sin(theta)) sin(beta) = 0",
    "X1(beta) sin(beta) cos(theta) - 2 sin^2(beta) cos(beta) sin^2(theta) = 0",
    "X2(beta) cos(theta) - lambda2 - cos(2 beta) sin(theta) = 0",
    "X2(beta) sin(theta) - <nabla_X2 X1, X2> + cos(2 beta) cos(theta) = 0",
)


@dataclass(frozen=True)
class CheckReport:
    """One pass/fail verification result: ``max_error`` and ``tolerance``
    as floats and a copy of ``context``."""

    check_id: str
    max_error: float
    tolerance: float
    context: Dict

    def __post_init__(self):
        if self.max_error is None or self.tolerance is None:
            raise ValueError("reports need max_error and tolerance")
        object.__setattr__(self, "max_error", float(self.max_error))
        object.__setattr__(self, "tolerance", float(self.tolerance))
        object.__setattr__(self, "context", dict(self.context))

    @property
    def status(self) -> str:
        """``"pass"`` exactly when ``max_error <= tolerance``, so a NaN
        error fails."""
        return "pass" if self.max_error <= self.tolerance else "fail"

    def as_dict(self) -> Dict:
        """The report as plain JSON values; see :func:`reports_to_json` for
        the encoding of non-finite numbers."""
        return _jsonable({
            "check_id": self.check_id,
            "status": self.status,
            "max_error": self.max_error,
            "tolerance": self.tolerance,
            "context": self.context,
        })


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        return _jsonable(value.item())
    if isinstance(value, float) and not math.isfinite(value):
        return "NaN" if math.isnan(value) else (
            "Infinity" if value > 0.0 else "-Infinity")
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, Decimal):
        return format(value, ".30g")
    return value


def _bounded_away(check_id: str, observed: float, floor: float,
                  context: Dict) -> CheckReport:
    """Pass iff ``observed >= floor``; the error is the shortfall."""
    context = dict(context, observed=float(observed),
                   required_floor=float(floor))
    return CheckReport(check_id, np.maximum(0.0, floor - observed), 0.0,
                       context)


def _suffixed(base: str, label: str) -> str:
    return f"{base}_{label}" if label else base


def _grid_context(patch: SurfacePatch, us: np.ndarray, vs: np.ndarray,
                  **extra) -> Dict:
    ctx = {"patch": patch.name,
           "u_range": [float(us[0]), float(us[-1])],
           "v_range": [float(vs[0]), float(vs[-1])],
           "grid": [int(len(us)), int(len(vs))]}
    ctx.update(extra)
    return ctx


def _grid_points(us: Sequence[float],
                 vs: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    """Every point of ``us x vs`` in u-major order, as the (N,) arrays u
    and v of one N-point :class:`LocalGeometry`."""
    return np.repeat(us, len(vs)), np.tile(vs, len(us))


# The grid of each CMC rigidity fixture and of the leaf checks.
_FIXTURE_GRID = (7, 7)


def _grid_record(patch: SurfacePatch) -> LocalGeometry:
    """One record over every point of ``patch.grid(*_FIXTURE_GRID)``."""
    return LocalGeometry(patch,
                         *_grid_points(*patch.grid(*_FIXTURE_GRID)))


# -- adapted-frame identity machinery ------------------------------------


@dataclass(frozen=True)
class _FrameEval:
    """All identity ingredients at the N points of a parameter grid,
    in u-major order.

    Directional derivatives of theta, beta and of the X1 field are taken
    along the parameter lines and contracted with the frame's
    parameter-basis coefficients; covariant corrections read Sol's constant
    frame table :func:`~solgeo.sol_space.frame_connection`.  The rates are
    (N,) arrays, ``nab1`` and ``nab2`` the (N, 3) frame components of
    nabla_X1 X1 and nabla_X2 X1, ``frame`` the adapted frame at the N
    points, ``record`` the one 5N-point record of the stencil (the N
    points first, then the four blocks of
    :func:`~solgeo.numerics.stencil_points`) and ``context`` the grid's
    report context (patch name, ranges and shape).
    """

    frame: AdaptedFrameSample
    x1_theta: np.ndarray
    x2_theta: np.ndarray
    x1_beta: np.ndarray
    x2_beta: np.ndarray
    nab1: np.ndarray
    nab2: np.ndarray
    record: LocalGeometry
    context: Dict


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (N, 3) arrays."""
    return np.sum(a * b, axis=-1)


def _centre(sample: AdaptedFrameSample, n: int) -> AdaptedFrameSample:
    """The frame at the first ``n`` points of a stacked sample."""
    return AdaptedFrameSample(*(getattr(sample, field.name)[:n]
                                for field in fields(sample)))


def _frame_eval(patch: SurfacePatch, grid: Tuple[int, int],
                override) -> _FrameEval:
    """The identity ingredients at every point of ``patch.grid(*grid)``
    (u-major), from one record over the centre and its four shifted copies
    (:func:`~solgeo.numerics.stencil_points`) and that record's one
    adapted frame; ``override`` is passed to
    :meth:`~solgeo.surface_calculus.LocalGeometry.adapted_frame`.

    A degenerate or CMC-degenerate point raises the record's error naming
    the first such point, so a centre point before any stencil point."""
    us, vs = patch.grid(*grid)
    u, v = _grid_points(us, vs)
    step, n = patch.fd_step, len(u)
    s, t = stencil_points(u, v, step)
    record = LocalGeometry(patch, np.concatenate([u, s]),
                           np.concatenate([v, t]))
    stacked = record.adapted_frame(override)
    center = _centre(stacked, n)

    def along(coeffs, rates):
        """The rate along the vectors with parameter coefficients
        ``coeffs`` (N, 2) of a quantity with (d/du, d/dv) ``rates``; the
        point axis of a vector quantity comes last."""
        return coeffs[:, 0] * rates[0] + coeffs[:, 1] * rates[1]

    dth = stencil_rates(stacked.theta[n:], step)
    dbe = stencil_rates(stacked.beta[n:], step)
    dx1 = [rate.T for rate in stencil_rates(stacked.x1[n:], step)]
    x1, x2 = center.x1.T, center.x2.T

    def nabla_x1(coeffs, direction):
        """nabla_D X1 in frame components, for D with parameter
        coefficients ``coeffs`` and frame components ``direction``: the
        rate of X1's frame components along D plus Sol's constant table."""
        return (along(coeffs, dx1)
                + np.array(frame_connection(direction, x1))).T

    c1, c2 = center.x1_coefficients, center.x2_coefficients
    return _FrameEval(
        frame=center, x1_theta=along(c1, dth), x2_theta=along(c2, dth),
        x1_beta=along(c1, dbe), x2_beta=along(c2, dbe),
        nab1=nabla_x1(c1, x1), nab2=nabla_x1(c2, x2), record=record,
        context=_grid_context(patch, us, vs))


def _identity_residuals(e: _FrameEval) -> np.ndarray:
    """The eight identity residuals, one row per identity in
    ``IDENTITY_STATEMENTS`` order and one column per point."""
    fr = e.frame
    s, c = np.sin(fr.theta), np.cos(fr.theta)
    sb, cb = np.sin(fr.beta), np.cos(fr.beta)
    s2b, c2b = np.sin(2.0 * fr.beta), np.cos(2.0 * fr.beta)
    nab1_dot_x2 = _dot(e.nab1, fr.x2)
    nab2_dot_x2 = _dot(e.nab2, fr.x2)
    return np.array([
        e.x1_theta + fr.lambda1 - c2b * s,
        e.x2_theta + s2b,
        c * nab1_dot_x2 - s2b * s,
        c * nab2_dot_x2 - fr.lambda2 * s - c2b,
        (e.x1_beta - nab1_dot_x2 * s) * sb,
        e.x1_beta * sb * c - 2.0 * sb * sb * cb * s * s,
        e.x2_beta * c - fr.lambda2 - c2b * s,
        e.x2_beta * s - nab2_dot_x2 + c2b * c,
    ])


def _frame_identity_reports(e: _FrameEval, label: str) -> List[CheckReport]:
    ids = [_suffixed(f"frame_identity_{k}", label) for k in range(1, 9)]
    maxima = np.max(np.abs(_identity_residuals(e)), axis=1)
    ctx = dict(e.context, fd_step=e.record.patch.fd_step)
    return [CheckReport(cid, err, FRAME_IDENTITY_TOLERANCE,
                        dict(ctx, statement=statement))
            for cid, err, statement in zip(ids, maxima, IDENTITY_STATEMENTS)]


def check_frame_identities(patch: SurfacePatch, grid: Tuple[int, int] = (8, 5),
                           x1_coefficients=None,
                           label: str = "") -> List[CheckReport]:
    """The eight first-order identities tying (theta, beta, lambda1,
    lambda2) to the adapted frame, each as one report over the grid.

    On a CMC-degenerate patch (no gradient direction and no explicit
    ``x1_coefficients``) the record's :class:`CmcDegenerateError` is
    raised.
    """
    return _frame_identity_reports(
        _frame_eval(patch, grid, x1_coefficients), label)


def _gradient_norm(geo: LocalGeometry):
    dh, grad = geo.dh, geo.gradient_h
    return np.sqrt(dh[..., 0] * grad[..., 0] + dh[..., 1] * grad[..., 1])


ANGLE_CHECK_IDS = (
    "angle_cos_nonvanishing", "angle_sin_nonvanishing",
    "angle_theta_x1_derivative", "angle_theta_x2_derivative",
    "angle_x1_autoparallel", "angle_mixed_f_derivative",
    "angle_lambda2_sign", "angle_x2_x1_derivative")


def _angle_rows(e: _FrameEval, sign: float, step: float) -> np.ndarray:
    """The eight angle-check quantities, one row per check in
    ``ANGLE_CHECK_IDS`` order and one column per point; the first two
    rows are floors, the rest errors."""
    fr = e.frame
    x1, x2, c2 = fr.x1, fr.x2, fr.x2_coefficients
    s, c = np.sin(fr.theta), np.cos(fr.theta)
    # X2(|grad f|) from the stencil blocks of the one record
    g_du, g_dv = stencil_rates(_gradient_norm(e.record)[len(x1):], step)
    return np.array([
        np.abs(c), np.abs(s), np.abs(e.x1_theta + 2.0 * fr.h),
        np.abs(e.x2_theta),
        # the projection of nabla_X1 X1 onto the tangent plane
        np.hypot(_dot(e.nab1, x1), _dot(e.nab1, x2)),
        np.abs(c2[:, 0] * g_du + c2[:, 1] * g_dv),
        np.abs(fr.lambda2 - sign * s),
        # nabla_X2 X1 against -sign cos(theta) X2
        np.hypot(_dot(e.nab2, x1), _dot(e.nab2, x2) + sign * c)])


def _angle_reports(e: _FrameEval, variant: str,
                   label: str) -> List[CheckReport]:
    ids = [_suffixed(cid, label) for cid in ANGLE_CHECK_IDS]
    sign = -1.0 if variant == "x1" else 1.0
    step = e.record.patch.fd_step
    rows = _angle_rows(e, sign, step)
    lowest = np.min(rows[:2], axis=1)
    largest = np.max(rows[2:], axis=1)
    ctx = dict(e.context, fd_step=step, variant=variant)
    statements = ("X1(theta) = -2 f", "X2(theta) = 0",
                  "nabla_X1 X1 = 0 in the surface connection",
                  "X2(X1(f)) = 0", f"lambda2 = {sign:+.0f} sin(theta)",
                  f"nabla_X2 X1 = {-sign:+.0f} cos(theta) X2")
    tolerances = (1e-7, 1e-7, 1e-7, 1e-6, 1e-9, 1e-7)
    return ([_bounded_away(cid, observed, 1e-6, ctx)
             for cid, observed in zip(ids[:2], lowest)]
            + [CheckReport(cid, err, tol, dict(ctx, statement=statement))
               for cid, err, tol, statement in zip(ids[2:], largest,
                                                   tolerances, statements)])


def check_angle_constraints(patch: SurfacePatch, grid: Tuple[int, int] = (8, 5),
                            variant: str = "x1",
                            label: str = "") -> List[CheckReport]:
    """Structure of the angle functions on a family-type patch.

    Checks that cos(theta) and sin(theta) stay away from zero, that theta
    changes only along X1 with rate -2f, that X1 is autoparallel in the
    surface, that X1(f) is constant along X2, and that (lambda2,
    nabla_X2 X1) carry the sign pattern of the given variant: lambda2 =
    -sin(theta), nabla_X2 X1 = +cos(theta) X2 for ``x1`` and the opposite
    signs for ``x2`` (in each variant's own measured angle).  A
    CMC-degenerate patch raises the record's :class:`CmcDegenerateError`.
    """
    if variant not in ("x1", "x2"):
        raise ValueError(f"unknown variant {variant!r}")
    return _angle_reports(_frame_eval(patch, grid, None), variant, label)


# -- CMC rigidity fixtures ------------------------------------------------


def vertical_cylinder_fixture() -> SurfacePatch:
    """Cylinder over the unit circle with the vertical field tangent.

    Non-minimal and non-CMC; its tangential residual is visibly nonzero,
    so it cannot witness a CMC biconservative surface with f != 0.
    """
    def circle(u):
        xp = namespace(u)
        return xp.cos(u), xp.sin(u)

    def immersion(u, v):
        c, s = circle(u)
        return c, s, v

    def partials(u, v):
        c, s = circle(u)
        zero = (0.0, 0.0, 0.0)
        return v, (-s, c, 0.0), (0.0, 0.0, 1.0), (-c, -s, 0.0), zero, zero

    return SurfacePatch(
        immersion=immersion, partials=partials,
        domain=((0.0, 2.0 * math.pi), (-1.0, 1.0)),
        name="vertical_cylinder")


def graph_patch_fixture() -> SurfacePatch:
    """The paraboloid graph z = 0.1 (x^2 + y^2), a biconservativity
    negative control."""
    def height(u, v):
        return 0.1 * (u * u + v * v)

    return SurfacePatch(
        immersion=lambda u, v: (u, v, height(u, v)),
        partials=lambda u, v: (height(u, v),
                               (1.0, 0.0, 0.2 * u), (0.0, 1.0, 0.2 * v),
                               (0.0, 0.0, 0.2), (0.0, 0.0, 0.0),
                               (0.0, 0.0, 0.2)),
        domain=((-1.0, 1.0), (-1.0, 1.0)),
        name="graph_patch")


def rotated_leaf_fixture() -> Tuple[SurfacePatch, np.ndarray]:
    """A flat horizontal leaf with X1 forced diagonally across the
    horizontal frame, so beta = 3 pi / 4 instead of a multiple of pi/2.

    The sin(2 beta) identity then has residual exactly 1: the canonical
    negative control for the frame-identity suite.
    """
    return canonical_leaf("z_const", 0.15), np.array([1.0, 1.0])


def _residual_norm(patch: SurfacePatch, u, v):
    """Metric norm of the tangential residual at (u, v), or at every point
    of same-shape arrays u and v."""
    geo = LocalGeometry(patch, u, v)
    return geo.metric_norm(geo.residual)


# The leaves that the ambient suite checks and that check_cmc_rigidity
# classifies first by default, by kind and level.
_LEAVES = (("x_const", 0.3), ("y_const", -0.2), ("z_const", 0.15))


def _leaf_records() -> Tuple[LocalGeometry, ...]:
    """The records on the ``_LEAVES``, in their order."""
    return tuple(_grid_record(canonical_leaf(kind, level))
                 for kind, level in _LEAVES)


# What the leaf checks read: _leaf_records, or its one result per
# run_suite call.
_Leaves = Callable[[], Tuple[LocalGeometry, ...]]


def check_cmc_rigidity(fixtures: Optional[Sequence[SurfacePatch]] = None
                       ) -> List[CheckReport]:
    """Evidence that CMC + biconservative forces minimality.

    For each fixture the check classifies it numerically: if the mean
    curvature is constant (|grad f| below 1e-6 across a 7 x 7 grid) and the
    tangential residual vanishes (below 1e-8), then |f| itself must be
    below tolerance.  Fixtures that are not CMC or not biconservative are
    consistent by themselves (they witness no counterexample) and the
    report records their defect sizes.  A NaN anywhere on the grid leaves
    the fixture ``undetermined`` with a NaN error, which fails.  The
    default fixtures are the three canonical leaves, the vertical cylinder
    and the paraboloid graph.
    """
    return _rigidity_reports(fixtures, _leaf_records)


def _rigidity_reports(fixtures: Optional[Sequence[SurfacePatch]],
                      leaves: _Leaves) -> List[CheckReport]:
    """:func:`check_cmc_rigidity`, with the default leaves' records from
    ``leaves``."""
    if fixtures is None:
        records = [*leaves(), _grid_record(vertical_cylinder_fixture()),
                   _grid_record(graph_patch_fixture())]
    else:
        records = [_grid_record(patch) for patch in fixtures]

    reports = []
    for geo in records:
        patch = geo.patch
        us, vs = patch.grid(*_FIXTURE_GRID)
        maxima = np.max([_gradient_norm(geo), geo.metric_norm(geo.residual),
                         np.abs(geo.h)], axis=1)
        max_grad, max_res, max_f = maxima
        if np.isnan(maxima).any():
            classification, err = "undetermined", math.nan
        elif max_grad <= 1e-6 and max_res <= 1e-8:
            classification, err = "cmc_biconservative", max_f
        else:
            classification = ("not_cmc" if max_grad > 1e-6
                              else "not_biconservative")
            err = 0.0
        reports.append(CheckReport(
            f"cmc_rigidity_{patch.name}", err, 1e-8,
            _grid_context(patch, us, vs, classification=classification,
                          max_grad_f=max_grad, max_residual=max_res,
                          max_mean_curvature=max_f,
                          statement="CMC + zero tangential residual "
                                    "implies f = 0")))
    return reports


# -- biharmonic obstruction ------------------------------------------------

# The gap Delta f - 4f(f^2 + f sin + sin^2) decays like e^{2 a1 u}: it is
# 1.24e-6 at u = -13 and under the floor from u = -13.25, hence the bound.
BIHARMONIC_GAP_FLOOR = 1e-6
BIHARMONIC_U_MIN = -13.0

# The tolerance of all eight frame identities, in every suite and on every
# patch.
FRAME_IDENTITY_TOLERANCE = 1e-7


def _laplacian_rational(u: np.ndarray) -> np.ndarray:
    # Rational form in q = e^{2 a u}, which lies in (0, 1] on u < 0:
    # 4 ((2a^3 - a^2) q (1 + q^4) + (2a^2 - 12a^3) q^3) / (1 + q^2)^3.
    # Every power of q stays at most 1, so nothing overflows there.
    a = CONSTANTS.a1
    q = np.exp(2.0 * a * u)
    q2 = q * q
    return 4.0 * ((2.0 * a ** 3 - a ** 2) * q * (1.0 + q2 * q2)
                  + (2.0 * a ** 2 - 12.0 * a ** 3) * q2 * q) \
        / (1.0 + q2) ** 3


def check_biharmonic_obstruction(profile: ProfileSolution) -> List[CheckReport]:
    """Why the explicit family contains no biharmonic surface.

    The normal part of the fourth-order equation would force
    Delta f = 4 f (f^2 + f sin(theta) + sin^2(theta)), whose right side is
    strictly positive, while Delta f is strictly negative along the
    profile.  The check evaluates Delta f by two independent routes
    (the profile's f'' + cos(theta) f' and a rational expression in
    e^{2 a u}), cross-checks |A|^2 and the normal curvature trace against
    their closed forms, and confirms the sign gap at every sample.  A
    profile that is not explicit or starts below ``BIHARMONIC_U_MIN``
    raises ``ValueError``.
    """
    if profile.kind != EXPLICIT:
        raise ValueError("the obstruction check applies to explicit-kind "
                         "profiles")
    if profile.u[0] < BIHARMONIC_U_MIN:
        raise ValueError(f"obstruction check needs u >= {BIHARMONIC_U_MIN:g}, "
                         f"but the profile starts at u = {profile.u[0]:g}")
    us = profile.u
    lap_closed = profile.f_second_at(us) \
        + np.cos(profile.state_at(us)[0]) * profile.f_prime_at(us)
    lap_rational = _laplacian_rational(us)
    f = profile.f
    s = np.sin(profile.theta)
    rhs = 4.0 * f * (f * f + f * s + s * s)

    patch = family_surface(profile, "x1")
    every = max(1, len(us) // 8)
    sub_u, lap = us[::every], lap_closed[::every]
    v0 = 0.25
    geo = LocalGeometry(patch, sub_u, np.full_like(sub_u, v0))
    fv, sv, required = f[::every], s[::every], rhs[::every]
    surface_lap = geo.laplacian(patch.mean_curvature)
    (max_surface_route, max_norm_a, max_trace,
     max_residual_route) = np.max(np.abs([
         surface_lap - lap,
         geo.norm_A_sq - (4.0 * fv * fv + 4.0 * fv * sv + 2.0 * sv * sv),
         geo.normal_trace - 2.0 * sv * sv,
         geo.normal_residual(surface_lap) - (lap - required)]), axis=1)

    ctx = {"profile_kind": profile.kind,
           "u_range": [float(us[0]), float(us[-1])],
           "samples": int(len(us))}
    return [
        CheckReport(
            "biharmonic_laplacian_two_routes",
            float(np.max(np.abs(lap_closed - lap_rational))), 1e-9,
            dict(ctx, statement="f'' + cos(theta) f' equals the rational "
                                "form in e^{-2 a u}")),
        CheckReport(
            "biharmonic_laplacian_surface_route", max_surface_route, 1e-8,
            dict(ctx, statement="surface Laplacian of f equals the closed "
                                "form", v=v0)),
        CheckReport(
            "biharmonic_shape_norm_closed_form", max_norm_a, 1e-8,
            dict(ctx, statement="|A|^2 = 4f^2 + 4f sin(theta) + "
                                "2 sin^2(theta)")),
        CheckReport(
            "biharmonic_normal_trace_closed_form", max_trace, 1e-8,
            dict(ctx, statement="<trace R(., xi) ., xi> = 2 sin^2(theta)")),
        CheckReport(
            "biharmonic_residual_route_match", max_residual_route, 1e-8,
            dict(ctx, statement="normal residual equals Delta f minus the "
                                "required right side")),
        _bounded_away("biharmonic_laplacian_negative",
                      float(-np.max(lap_closed)), 0.0,
                      dict(ctx, statement="Delta f < 0 at every sample",
                           max_laplacian=float(np.max(lap_closed)),
                           min_laplacian=float(np.min(lap_closed)))),
        _bounded_away("biharmonic_required_rhs_positive",
                      float(np.min(rhs)), 0.0,
                      dict(ctx, statement="4f(f^2 + f sin + sin^2) > 0 at "
                                          "every sample",
                           min_rhs=float(np.min(rhs)))),
        _bounded_away("biharmonic_equation_gap",
                      float(-np.max(lap_closed - rhs)), BIHARMONIC_GAP_FLOOR,
                      dict(ctx, statement="Delta f stays below the required "
                                          "value by a definite margin",
                           max_defect=float(np.max(lap_closed - rhs)))),
    ]


# -- polynomial obstruction ------------------------------------------------

EXPECTED_COMBINATION = (160, 656, -1872, -13224, -19352, 15840, 85632,
                        92760, 25128)


def check_polynomial_obstruction() -> CheckReport:
    """Exact-integer check of the degree-8 combination.

    Verifies degree, every coefficient, and the exact cancellation of the
    degree-9 terms of the two addends.  The context records the isolating
    intervals of the combination's positive real roots (their existence
    does not rescue the equation: the ratio g would need to be locally
    constant at such a root, contradicting g' != 0), the value at the
    positive root of 3g^2 + g - 1 in 50-digit arithmetic, and the overall
    constant factor between the literal expansion and the reference
    coefficients, which is exactly 1.
    """
    term_a, term_b = nonexistence_addends()
    combo = term_a + term_b

    coeff_mismatch = max(abs(a - b) for a, b in zip_longest(
        combo.coefficients, EXPECTED_COMBINATION, fillvalue=0))
    degree_mismatch = abs(combo.degree - 8)

    def ninth(p):
        return p.coefficients[9] if len(p.coefficients) > 9 else 0

    cancel = abs(ninth(term_a) + ninth(term_b))

    # All real roots lie inside the Cauchy bound; isolate the positive ones
    # for the narrative.
    lead = combo.coefficients[-1]
    bound = 1 + Fraction(max(abs(c) for c in combo.coefficients[:-1]),
                         abs(lead))
    roots = real_roots_interval(combo, Fraction(0), bound)

    with localcontext() as decimal_context:
        decimal_context.prec = 50
        g_star = (Decimal(13).sqrt() - 1) / 6
        value_at_gstar = combo.evaluate(g_star)

    max_error = float(max(coeff_mismatch, degree_mismatch, cancel))
    context = {
        "degree": combo.degree,
        "coefficients_ascending": coefficients_as_strings(combo),
        "expected_ascending": [str(c) for c in EXPECTED_COMBINATION],
        "degree9_addend_coefficients": [str(ninth(term_a)),
                                        str(ninth(term_b))],
        "constant_factor": "1 (the literal combination reproduces the "
                           "reference coefficients with no rescaling)",
        "positive_real_root_intervals": [[float(a), float(b)]
                                         for a, b in roots],
        "positive_real_root_count": len(roots),
        "cauchy_bound": float(bound),
        "value_at_positive_quadratic_root": value_at_gstar,
        "note": "real roots do not rescue the equation; g would have to "
                "be locally constant there, contradicting g' != 0",
    }
    return CheckReport("polynomial_obstruction", max_error, 0.0, context)


# -- ambient suite ---------------------------------------------------------


def _ambient_reports(seed: int, family: _Family,
                     leaves: _Leaves) -> List[CheckReport]:
    rng = default_rng(seed)
    p = Point(*rng.uniform(-5.0, 5.0, size=(100, 3)).T)
    ctx = {"points": len(p.z), "seed": seed}

    expected = {"sectional_e1_e3": (1, 3, -1.0),
                "sectional_e2_e3": (2, 3, -1.0),
                "sectional_e1_e2": (1, 2, 1.0)}
    reports = []
    for cid, (i, j, target) in expected.items():
        k = sectional_curvature(frame_vector(p, i), frame_vector(p, j))
        reports.append(CheckReport(
            f"ambient_{cid}", np.max(np.abs(k - target)), 1e-12,
            dict(ctx, expected=target)))

    # per triple: a point in [-2, 2]^3, then x, y, z in [-1, 1]^3
    lo = np.repeat([-2.0, -1.0], [3, 9])
    draws = rng.uniform(lo, -lo, size=(50, 12))
    q = Point(*draws[:, :3].T)
    x, y, z = (TangentVector(q, draws[:, c:c + 3]) for c in (3, 6, 9))
    closed = curvature_tensor(x, y, z).components
    fd = curvature_tensor_fd(x, y, z).components
    worst = np.max(np.abs(closed - fd))
    reports.append(CheckReport(
        "ambient_curvature_fd_oracle", worst, 1e-6,
        {"triples": len(draws), "fd_step": CURVATURE_FD_STEP, "seed": seed}))

    metric = metric_at(p)
    frame = np.array([frame_vector(p, i).coordinates() for i in range(1, 4)])
    # <E_i, E_j> at each point, as a (3, 3, N) array
    gram = np.vecdot(frame[:, None] * metric, frame)
    reports.append(CheckReport(
        "ambient_metric_determinant",
        np.max(np.abs(np.prod(metric, axis=-1) - 1.0)), 1e-12, ctx))
    reports.append(CheckReport(
        "ambient_frame_orthonormality",
        np.max(np.abs(gram - np.eye(3)[..., None])), 1e-12, ctx))

    # nabla_{E_i} E_j for the 3 x 3 pairs (i, j) at the 10 points as one
    # 90-point call: the pairs in row-major order, the points in each
    c = rng.uniform(-2.0, 2.0, size=(10, 3))
    e = np.eye(3)
    along = np.repeat(e, 3 * len(c), axis=0)
    field = np.tile(np.repeat(e, len(c), axis=0), (3, 1))
    nabla = covariant_derivative(lambda r: TangentVector(r, field),
                                 TangentVector(Point(*np.tile(c, (9, 1)).T),
                                               along))
    worst = np.max(np.abs(nabla.components
                          - np.array(frame_connection(along.T, field.T)).T))
    reports.append(CheckReport(
        "ambient_connection_table", worst, 1e-8,
        {"points": len(c), "seed": seed,
         "statement": "finite-difference covariant derivatives reproduce "
                      "the frame connection table"}))

    reports.extend(_leaf_reports(leaves))
    return reports


def _leaf_reports(leaves: _Leaves = _leaf_records) -> List[CheckReport]:
    reports = []
    *vertical, geo = leaves()
    for (kind, _), record in zip(_LEAVES, vertical):
        us, vs = record.patch.grid(*_FIXTURE_GRID)
        reports.append(CheckReport(
            f"leaf_totally_geodesic_{kind}", np.max(np.abs(record.second)),
            1e-9,
            _grid_context(record.patch, us, vs,
                          statement="second fundamental form vanishes")))

    patch = geo.patch
    us, vs = patch.grid(*_FIXTURE_GRID)
    worst_h = np.max(np.abs(geo.h))
    worst_k = np.max(np.abs(geo.K))
    worst_eig = np.max(np.abs(np.sort(geo.principal_curvatures, axis=-1)
                              - np.array([-1.0, 1.0])))
    ctx = _grid_context(patch, us, vs)
    reports.append(CheckReport(
        "leaf_z_mean_curvature", worst_h, 1e-10,
        dict(ctx, statement="horizontal leaves are minimal")))
    reports.append(CheckReport(
        "leaf_z_gauss_curvature", worst_k, 1e-8,
        dict(ctx, statement="horizontal leaves are intrinsically flat")))
    reports.append(CheckReport(
        "leaf_z_principal_curvatures", worst_eig, 1e-9,
        dict(ctx, statement="shape eigenvalues are -1 and +1")))
    return reports


# -- suite assembly --------------------------------------------------------


def _default_family() -> Tuple[ProfileSolution, SurfacePatch, SurfacePatch]:
    """The explicit profile on [-4, -1e-3] and its x1 and x2 patches, which
    the frames, family and biharmonic suites read."""
    profile = build_profile(EXPLICIT, u_grid=np.linspace(-4.0, -1e-3, 64))
    return (profile, family_surface(profile, "x1"),
            family_surface(profile, "x2"))


# What each suite reads besides the seed: _default_family and
# _leaf_records, each built on first call and then kept for the rest of one
# run_suite call, so the ambient leaf checks and the CMC rigidity check
# share one record per leaf and nothing outlives the call.
_Family = Callable[[], Tuple[ProfileSolution, SurfacePatch, SurfacePatch]]


def _frames_reports(seed: int, family: _Family,
                    leaves: _Leaves) -> List[CheckReport]:
    _, px1, px2 = family()
    # One frame evaluation per grid point serves both checks.
    evals = {"x1": _frame_eval(px1, (9, 5), None),
             "x2": _frame_eval(px2, (9, 5), None)}
    reports = []
    for label, e in evals.items():
        reports += _frame_identity_reports(e, label)
    for label, e in evals.items():
        reports += _angle_reports(e, label, label)
    reports += _rigidity_reports(None, leaves)

    # Negative controls: these fixtures are supposed to violate the
    # properties, and the control passes only if they do so decisively.
    leaf, coeffs = rotated_leaf_fixture()
    e = _frame_eval(leaf, (3, 3), coeffs)
    reports.append(_bounded_away(
        "negative_control_rotated_leaf_sin2beta",
        np.min(np.abs(_identity_residuals(e)[1])), 0.5,
        dict(e.context, statement="a diagonally forced X1 must break "
                                  "X2(theta) = -sin(2 beta)",
             expected="failure of the property, not the harness")))

    graph = graph_patch_fixture()
    us, vs = graph.grid(8, 8)
    max_res = np.max(_residual_norm(graph, *_grid_points(us, vs)))
    reports.append(_bounded_away(
        "negative_control_graph_residual", max_res, 1e-3,
        _grid_context(graph, us, vs,
                      statement="the paraboloid graph is not "
                                "biconservative at the grid scale",
                      expected="failure of the property, not the harness")))
    return reports


def _family_reports(seed: int, family: _Family,
                    leaves: _Leaves) -> List[CheckReport]:
    profile, px1, px2 = family()
    reports = []

    ends = [float(profile.u[0]), float(profile.u[-1])]
    dense = np.linspace(*ends, 257)
    th, f, _ = profile.state_at(dense)
    fp = profile.f_prime_at(dense)
    worst = np.max(np.abs(theta_prime_explicit(dense) + 2.0 * f))
    reports.append(CheckReport(
        "family_theta_ode_explicit", worst, 1e-12,
        {"samples": len(dense), "u_range": ends,
         "statement": "theta' + 2 f = 0, two evaluation routes"}))

    worst = np.max(np.abs(3.0 * f * fp + fp * np.sin(th)
                          + f * np.sin(2.0 * th)))
    reports.append(CheckReport(
        "family_scalar_ode_explicit", worst, 1e-8,
        {"samples": len(dense),
         "statement": "3 f f' + f' sin(theta) + f sin(2 theta) = 0"}))

    mismatches = int(np.sum(np.sign(np.diff(profile.psi))
                            != np.sign(np.cos(0.5 * (profile.theta[1:]
                                                     + profile.theta[:-1])))))
    reports.append(CheckReport(
        "family_psi_monotonicity", float(mismatches), 0.0,
        {"samples": len(profile.u),
         "statement": "sign(Psi') = sign(cos(theta)) between samples"}))

    sub_u = profile.u[::8]
    geo = LocalGeometry(px1, *_grid_points(sub_u, (-0.5, 0.25)))
    th, f, _ = profile.state_at(geo.u)
    worst_h = np.max(np.abs(geo.h - f))
    worst_k = np.max(np.abs(geo.K - (-np.cos(th) ** 2 - 2.0 * f * np.sin(th))))
    max_k = np.max(geo.K)
    reports.append(CheckReport(
        "family_mean_curvature_match", worst_h, 1e-8,
        {"samples": len(sub_u) * 2,
         "statement": "shape-operator mean curvature equals f(u)"}))
    reports.append(CheckReport(
        "family_gauss_curvature_match", worst_k, 1e-7,
        {"samples": len(sub_u) * 2,
         "statement": "Gauss-equation curvature equals "
                      "-cos^2(theta) - 2 f sin(theta)"}))
    reports.append(_bounded_away(
        "family_gauss_curvature_negative", -max_k, 0.0,
        {"max_K": max_k, "statement": "K < 0 along the family"}))

    for label, patch in (("x1", px1), ("x2", px2)):
        us, vs = patch.grid(64, 16)
        worst = np.max(_residual_norm(patch, *_grid_points(us, vs)))
        reports.append(CheckReport(
            f"family_biconservative_residual_{label}", worst, 1e-6,
            _grid_context(patch, us, vs,
                          statement="tangential residual vanishes with "
                                    "analytic derivatives")))

    stripped = px1.without_curvature_handles()
    steps = (0.02, 0.01, 0.005)
    us = np.linspace(-3.5, -0.5, 8)
    vs = np.linspace(-0.8, 0.8, 5)
    errors = [float(np.max(_residual_norm(stripped.with_fd_step(step),
                                          *_grid_points(us, vs))))
              for step in steps]
    orders = [math.log2(errors[i] / errors[i + 1])
              for i in range(len(errors) - 1)]
    reports.append(_bounded_away(
        "family_residual_fd_convergence", np.min(orders), 1.8,
        {"steps": list(steps), "errors": errors, "orders": orders,
         "statement": "finite-difference residual converges at second "
                      "order"}))

    implicit = integrate_implicit_profile(c=1.0, theta_start=2.2,
                                          u_span=1.5, step=1e-3)
    a1, a2 = CONSTANTS.a1, CONSTANTS.a2

    y = np.sin(implicit.theta)
    relation = 6.0 * a2 * np.log(implicit.f - a1 * y) \
        - 6.0 * a1 * np.log(implicit.f - a2 * y)
    worst = np.max(np.abs(relation - math.log(implicit.c)))
    ctx = {"c": implicit.c, "theta_start": 2.2,
           "halt_reason": implicit.halt_reason,
           "final_u": float(implicit.u[-1]),
           "theta_error_estimate": implicit.theta_error_estimate,
           "samples": len(implicit.u)}
    reports.append(CheckReport(
        "family_implicit_relation", worst, 1e-10,
        dict(ctx, statement="integrated samples satisfy the implicit "
                            "relation in log form")))

    h = float(np.max(np.diff(implicit.u)))
    du = implicit.u[2:] - implicit.u[:-2]
    dtheta = (implicit.theta[2:] - implicit.theta[:-2]) / du
    worst = float(np.max(np.abs(dtheta + 2.0 * implicit.f[1:-1])))
    reports.append(CheckReport(
        "family_implicit_theta_ode", worst, h * h,
        dict(ctx, statement="theta' + 2 f = 0 with O(h^2) differencing",
             step=h)))

    # The scalar relation needs a 4th-order stencil: the h^2 constant of
    # a 3-point difference (~(3f+sin)(|f'''|/6)) overshoots 1e-8 at this
    # step.  The march halts (angle_degenerate) before u_span, so every
    # sample sits at u_k = k h and the spacing is uniform.
    fu, h5 = implicit.f, float(implicit.u[1] - implicit.u[0])
    df5 = (-fu[4:] + 8.0 * fu[3:-1] - 8.0 * fu[1:-3] + fu[:-4]) / (12.0 * h5)
    f_mid = fu[2:-2]
    th_mid = implicit.theta[2:-2]
    worst = float(np.max(np.abs(
        3.0 * f_mid * df5 + df5 * np.sin(th_mid)
        + f_mid * np.sin(2.0 * th_mid))))
    reports.append(CheckReport(
        "family_implicit_scalar_ode", worst, 1e-8,
        dict(ctx, statement="3 f f' + f' sin + f sin(2 theta) = 0 with "
                            "O(h^4) differencing", step=h5)))

    allowed = {"span_exhausted", "angle_degenerate"}
    halt_ok = implicit.halt_reason in allowed \
        and implicit.theta[-1] > math.pi / 2.0
    reports.append(CheckReport(
        "family_implicit_halt", 0.0 if halt_ok else 1.0, 0.0,
        dict(ctx, statement="integration halts for a catalogued reason "
                            "inside the valid angle window")))

    anchor_err = np.max(np.abs([profile.state_at(profile.u0)[2],
                                profile.phi1_at(profile.u0),
                                implicit.psi[0], implicit.phi1[0]]))
    reports.append(CheckReport(
        "family_quadrature_anchor", anchor_err, 1e-12,
        {"explicit_u0": profile.u0, "implicit_u0": implicit.u0,
         "statement": "Psi and Phi vanish at the anchor"}))
    return reports


def _biharmonic_reports(seed: int, family: _Family,
                        leaves: _Leaves) -> List[CheckReport]:
    return check_biharmonic_obstruction(family()[0])


def _polynomial_reports(seed: int, family: _Family,
                        leaves: _Leaves) -> List[CheckReport]:
    return [check_polynomial_obstruction()]


# Every suite, in the order ``all`` runs them.
_SUITES = {"ambient": _ambient_reports, "frames": _frames_reports,
           "family": _family_reports, "biharmonic": _biharmonic_reports,
           "polynomial": _polynomial_reports}
SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, seed: int = 0) -> List[CheckReport]:
    """Run one named suite (or ``all``) and return its reports.

    Deterministic for fixed (name, seed): random fixtures draw from a
    seeded generator and every grid is fixed.  A seed that is not an
    integer (a bool included; numpy integers are integers) or is negative
    raises ``ValueError`` for every suite, whether or not it draws.
    """
    if name != "all" and name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; pick one of "
                         f"{', '.join(SUITE_NAMES)} or all")
    try:
        if isinstance(seed, bool):
            raise TypeError
        operator.index(seed)
    except TypeError:
        raise ValueError(f"seed must be an integer, got {seed!r}") from None
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed!r}")
    suites = SUITE_NAMES if name == "all" else (name,)
    family, leaves = cache(_default_family), cache(_leaf_records)
    return [report for suite in suites
            for report in _SUITES[suite](seed, family, leaves)]


def reports_to_json(reports: Sequence[CheckReport]) -> str:
    """Serialize reports as a deterministic, strictly valid JSON array.

    JSON has no non-finite numbers, so a NaN or infinite float anywhere in
    a report (a failing check's ``max_error``, a context value) is written
    as the string ``"NaN"``, ``"Infinity"`` or ``"-Infinity"``; finite
    numbers are plain JSON numbers.
    """
    return json.dumps([r.as_dict() for r in reports], indent=2,
                      sort_keys=True, allow_nan=False) + "\n"
