"""Extrinsic geometry of immersed surface patches.

Fundamental forms, shape operator, mean and Gaussian curvature, the adapted
frame (X1 along the mean-curvature gradient, X2 tangent, xi normal, with
the vertical angle theta and horizontal angle beta), and the residuals of
the two fourth-order surface equations:

* tangential residual A(grad f) + f grad f + f (trace R(., xi) .)^T -- zero
  exactly on biconservative surfaces;
* normal residual Delta f - f |A|^2 - f <trace R(., xi) ., xi> -- zero
  exactly on biharmonic ones.

Every quantity at a point is read from one :class:`LocalGeometry` record;
the module functions are thin views on it, so each takes ``u`` and ``v``
as floats (one point) or as same-shape (N,) arrays (N points, every
field with a leading axis of length N).  A record derives everything
from its own first and second partials: the ambient derivatives
nabla_{d_i} d_j give the second fundamental form as their normal part and,
by the Gauss formula, the Christoffel symbols of the induced metric as
their tangential part, so the surface Laplacian needs no neighbouring
record.

Sign conventions: the shape operator is A = -(nabla xi)^T, the second
fundamental form satisfies II(X, Y) = <AX, Y> = <nabla_X Y, xi>, and the
mean curvature is f = trace(A) / 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import EXP_MAX, first_false, namespace
from .patch import Param, ScalarField, SurfacePatch
from .sol_space import (PLANE_GRAM_TOLERANCE, DegeneratePlaneError,
                        frame_connection)

__all__ = [
    "DegenerateParametrizationError",
    "CmcDegenerateError",
    "GRADIENT_THRESHOLD",
    "FundamentalForms",
    "ShapeData",
    "AdaptedFrameSample",
    "LocalGeometry",
    "fundamental_forms",
    "shape_data",
    "adapted_frame",
    "biconservative_residual",
    "biharmonic_normal_residual",
    "laplace_beltrami",
]

# Below this ambient gradient norm a point counts as CMC-degenerate: the
# adapted frame direction X1 = grad f / |grad f| is no longer trustworthy.
GRADIENT_THRESHOLD = 1e-8


class DegenerateParametrizationError(ValueError):
    """The parameter map fails to be an immersion at the requested point."""


class CmcDegenerateError(RuntimeError):
    """|grad f| is below threshold, so the adapted frame is undefined."""


@dataclass(frozen=True)
class FundamentalForms:
    """First and second fundamental form plus the oriented unit normal, the
    normal as its frame components (E1, E2, E3): (3,) at one point, (N, 3)
    at N points."""

    first: np.ndarray
    second: np.ndarray
    normal: np.ndarray


@dataclass(frozen=True)
class ShapeData:
    """Shape operator and derived curvature scalars at one parameter point,
    or at N points with a leading axis of length N on every field.

    ``A`` and ``gradient_h`` are expressed in the parameter basis
    (d/du, d/dv); ``gradient_h`` is the metric gradient of the mean
    curvature, i.e. the differential raised by the inverse first form.
    ``principal_curvatures`` holds the eigenvalues of ``A`` in ascending
    order.
    """

    A: np.ndarray
    h: float
    K: float
    gradient_h: np.ndarray
    principal_curvatures: np.ndarray

    def __init__(self, A, h, K, gradient_h, principal_curvatures):
        # one ShapeData per shape_data call: writing the instance dict
        # costs about a third of the generated frozen __init__, which sets
        # each field through object.__setattr__.  Fields, keywords,
        # dataclasses.replace, equality, repr and the refusal to assign
        # stay the dataclass's own
        fields = self.__dict__
        fields["A"], fields["h"], fields["K"] = A, h, K
        fields["gradient_h"] = gradient_h
        fields["principal_curvatures"] = principal_curvatures


@dataclass(frozen=True)
class AdaptedFrameSample:
    """Adapted orthonormal frame {X1, X2, xi} and its angle functions, at
    one point or at the N points of an N-point record.

    theta is the vertical angle: sin(theta) = <E3, xi>, cos(theta) =
    <E3, X1>.  beta is the horizontal angle of X2 against (E1, E2).
    ``e3_defect`` is <X2, E3>; it vanishes exactly when the frame has the
    adapted structure, and measures the obstruction otherwise.
    ``x1``, ``x2`` and ``xi`` are the frame components (E1, E2, E3) of the
    three vectors, and ``x1_coefficients`` and ``x2_coefficients`` the
    components of X1 and X2 in the parameter basis (d/du, d/dv).  At N
    points the scalars are (N,) arrays, the coefficients (N, 2) arrays and
    the vectors (N, 3) arrays.
    """

    x1: np.ndarray
    x2: np.ndarray
    xi: np.ndarray
    theta: float
    beta: float
    h: float
    lambda1: float
    lambda2: float
    e3_defect: float
    x1_coefficients: np.ndarray
    x2_coefficients: np.ndarray


class _computed_once:
    """A record attribute outside the constructor's core (a public array,
    or a value that needs more input or may raise): the first read
    computes it and stores it on the instance, shadowing this descriptor.
    Unlike ``functools.cached_property`` it takes no lock; recomputation
    is pure."""

    def __init__(self, func):
        self.func, self.name, self.__doc__ = func, func.__name__, func.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def _f_field(patch: SurfacePatch) -> ScalarField:
    """The patch's mean-curvature field, or else a field of each point's
    own f with no handles (an N-point record's own f at its 4N shifted
    points, in one record): its gradient is a central difference, and it
    has no Hessian."""
    return patch.mean_curvature or ScalarField(
        lambda s, t: LocalGeometry(patch, s, t).h)


def _points_first(nested) -> np.ndarray:
    """Nested lists of an N-point record's (N,) arrays as one array, with
    the point axis first."""
    out = np.array(nested)
    return out.transpose(out.ndim - 1, *range(out.ndim - 1))


class LocalGeometry:
    """Local extrinsic geometry of ``patch`` at the parameter point ``(u, v)``,
    or at N points when ``u`` and ``v`` are same-shape (N,) arrays.

    The constructor reads the height z and all five partials from one call
    of the patch's ``partials`` handle and computes the record's core in
    one pass: the partials' frame components, the first fundamental form,
    the unit normal, the ambient derivatives of the partials, the second
    form, the shape operator and the mean curvature ``h``.  What needs more
    input or may raise is computed on first access and kept: the
    differential of f and its gradient, in one step that reads the patch's
    mean-curvature field (or differences each point's own f) once and that
    ``dh``, ``gradient_h``, ``residual`` and the adapted frame share, ``K``
    (which refuses a near-degenerate plane), ``surface_christoffel``,
    ``principal_curvatures``, the public arrays and the adapted frame.  So
    one record reads the handle once and evaluates each derived quantity
    exactly once.  In Sol's left-invariant frame the components of a vector
    and the height fix every quantity here, so no attribute reads x or y
    and the record never calls the immersion.

    The arithmetic is closed-form and elementwise, written once: on Python
    floats with ``math`` at one point, on (N,) arrays with numpy at N
    points (:func:`~solgeo.numerics.namespace`; the type of ``u`` decides).
    The constructor's core is straight-line code on local names, with no
    helper call between the handle and ``h`` but the namespace's math and
    the three connection tables.  The normal is the cross product of the
    frame partials written out;
    every 2x2 system (``A``, ``gradient_h``, the frame's parameter
    coefficients, ``surface_christoffel``, and the two columns of the
    covariant Hessian that ``laplacian`` traces) is solved by the
    closed-form inverse of the first form scaled to unit diagonal; the
    ambient derivatives of the partials take Sol's connection from its
    constant frame table :func:`~solgeo.sol_space.frame_connection`, so no
    e^{2z} enters.  An N-point record reads a constant partial of the
    patch or of a field as the handle's float and lets it broadcast.  A
    constant z is filled in like ``u``, and e^{+-z} scales the first two
    frame components of every partial, so each quantity built from them
    is an (N,) array; ``dh``, which may hold a field handle's constant,
    is filled in the same way.  The public attributes, and the fields of
    :meth:`adapted_frame`, are numpy arrays built from those values
    (scalars stay scalars); on an N-point record each has a leading axis
    of length N, in the order of ``u``.

    Basis conventions: ``xi_f`` and the frame's ``x1``, ``x2`` and ``xi``
    hold frame components (E1, E2, E3).
    ``first``, ``second``, ``A``, ``dh``, ``gradient_h``,
    ``surface_christoffel`` and ``residual`` are in the parameter basis
    (d/du, d/dv).

    Raises
    ------
    ValueError
        If e^z or e^{-z} is not a double at the height z of a point
        (|z| > :data:`~solgeo.numerics.EXP_MAX` = ln(DBL_MAX)), naming the
        first such (u, v) and its z.
    DegenerateParametrizationError
        If the partials fail to span a plane at the point (as at a NaN
        height), or span one at an angle whose sin^2 = 1 - cos^2 rounds
        to zero, naming the first such point of an N-point record.
        :meth:`adapted_frame` raises :class:`CmcDegenerateError` the same
        way.
    """

    def __init__(self, patch: SurfacePatch, u, v):
        self._xp = xp = namespace(u)
        if xp is np:
            u, v = np.broadcast_arrays(np.asarray(u, dtype=float),
                                       np.asarray(v, dtype=float))
            if u.ndim != 1:
                raise ValueError("an N-point record takes (N,) arrays")
            # the builder of the public arrays, point axis first
            self._array = _points_first
        else:
            self._array = np.array
        self.patch, self.u, self.v = patch, u, v
        z, d_u, d_v, d_uu, d_uv, d_vv = patch.partials(u, v)
        if xp is np and not isinstance(z, np.ndarray):
            z = np.full(u.shape, z)
        # e^{+-z} scale the frame components, so both must be doubles; a
        # NaN z is not refused here but is degenerate below
        near = abs(z) <= EXP_MAX
        if near is not True and first_false(near) is not None:
            bad = first_false(near | (z != z))
            if bad is not None:
                raise ValueError(
                    f"e^(z) or e^(-z) leaves the double range on "
                    f"{patch.name!r} at (u, v) = ({np.ravel(u)[bad]:g}, "
                    f"{np.ravel(v)[bad]:g}), z = {np.ravel(z)[bad]:g}")
        ez = xp.exp(z)
        du = du0, du1, du2 = ez * d_u[0], d_u[1] / ez, d_u[2]
        dv = dv0, dv1, dv2 = ez * d_v[0], d_v[1] / ez, d_v[2]
        duu = ez * d_uu[0], d_uu[1] / ez, d_uu[2]
        duv = ez * d_uv[0], d_uv[1] / ez, d_uv[2]
        dvv = ez * d_vv[0], d_vv[1] / ez, d_vv[2]
        self._du, self._dv = du, dv
        e = du0 * du0 + du1 * du1 + du2 * du2
        f = du0 * dv0 + du1 * dv1 + du2 * dv2
        g = dv0 * dv0 + dv1 * dv1 + dv2 * dv2
        # scaled by a power of two to components below 1, the cross product's
        # length cannot overflow; where it would not anyway no bit moves
        c0, c1, c2 = (du1 * dv2 - du2 * dv1, du2 * dv0 - du0 * dv2,
                      du0 * dv1 - du1 * dv0)
        top = xp.frexp(xp.maximum(xp.maximum(abs(c0), abs(c1)), abs(c2)))[1]
        c0, c1, c2 = xp.ldexp(c0, -top), xp.ldexp(c1, -top), xp.ldexp(c2, -top)
        scaled_norm = xp.sqrt(c0 * c0 + c1 * c1 + c2 * c2)
        norm = xp.ldexp(scaled_norm, top)
        root_e, root_g = xp.sqrt(e), xp.sqrt(g)
        # written so that a NaN partial is degenerate too; a plane that
        # passes the norm test may still have an angle whose sin^2 =
        # 1 - cos^2 rounds to zero, which no 2x2 solve survives.  Where the
        # norm test fails E or G may be zero, so the cosine divides by 1
        # there, and the first point that fails either test is named
        spans = norm > 1e-10 * xp.maximum(root_e * root_g, 1e-30)
        cos = f / xp.where(spans, root_e, 1.0) / xp.where(spans, root_g, 1.0)
        sin_sq = 1.0 - cos * cos
        plane = spans & (sin_sq > 0.0)
        if plane is not True:
            bad = first_false(plane)
            if bad is not None:
                raise DegenerateParametrizationError(
                    f"parametrization of {patch.name!r} degenerates at "
                    f"(u, v) = ({np.ravel(u)[bad]:g}, {np.ravel(v)[bad]:g})")
        self._E, self._F, self._G = e, f, g
        self._root_e, self._root_g = root_e, root_g
        self._cos, self._sin_sq = cos, sin_sq
        self._xi = xi0, xi1, xi2 = (c0 / scaled_norm, c1 / scaled_norm,
                                    c2 / scaled_norm)
        # nabla_{d_u} d_u, nabla_{d_u} d_v and nabla_{d_v} d_v.  For frame
        # partials a (along) and b (differentiated), the derivative of b's
        # frame components is (e^z (x_ij + z_i x_j), e^{-z} (y_ij - z_i y_j),
        # z_ij) = second + (a3 b1, -a3 b2, 0), plus Sol's constant table
        # applied to a and b
        t0, t1, t2 = frame_connection(du, du)
        uu = uu0, uu1, uu2 = (duu[0] + du2 * du0 + t0,
                              duu[1] - du2 * du1 + t1, duu[2] + t2)
        t0, t1, t2 = frame_connection(du, dv)
        uv = uv0, uv1, uv2 = (duv[0] + du2 * dv0 + t0,
                              duv[1] - du2 * dv1 + t1, duv[2] + t2)
        t0, t1, t2 = frame_connection(dv, dv)
        vv = vv0, vv1, vv2 = (dvv[0] + dv2 * dv0 + t0,
                              dvv[1] - dv2 * dv1 + t1, dvv[2] + t2)
        self._ambient = uu, uv, vv
        # their normal parts are the second form (l, m, n), and A solves
        # I A = II column by column, with the arithmetic of _solve
        l = uu0 * xi0 + uu1 * xi1 + uu2 * xi2
        m = uv0 * xi0 + uv1 * xi1 + uv2 * xi2
        n = vv0 * xi0 + vv1 * xi1 + vv2 * xi2
        self._second = l, m, n
        s0, s1 = l / root_e, m / root_g
        a00 = (s0 - cos * s1) / sin_sq / root_e
        a10 = (s1 - cos * s0) / sin_sq / root_g
        s0, s1 = m / root_e, n / root_g
        a01 = (s0 - cos * s1) / sin_sq / root_e
        a11 = (s1 - cos * s0) / sin_sq / root_g
        self._shape = (a00, a01), (a10, a11)
        self.h = 0.5 * (a00 + a11)

    @_computed_once
    def xi_f(self) -> np.ndarray:
        return self._array(self._xi)

    @_computed_once
    def first(self) -> np.ndarray:
        return self._array([[self._E, self._F], [self._F, self._G]])

    def _solve(self, r0, r1):
        """(p, q) with first @ (p, q) = (r0, r1).  The first form is
        scaled to unit diagonal by sqrt(E) and sqrt(G) first, whose inverse
        [[1, -c], [-c, 1]] / (1 - c^2) has |c| <= 1, so no product
        overflows where E or G is large."""
        root_e, root_g, cos = self._root_e, self._root_g, self._cos
        s0, s1 = r0 / root_e, r1 / root_g
        return ((s0 - cos * s1) / self._sin_sq / root_e,
                (s1 - cos * s0) / self._sin_sq / root_g)

    def _coefficients(self, vec_f):
        return self._solve(_dot(vec_f, self._du), _dot(vec_f, self._dv))

    def _length(self, p, q):
        e, f, g = self._E, self._F, self._G
        return self._xp.sqrt((p * e + q * f) * p + (p * f + q * g) * q)

    def metric_norm(self, coeffs: np.ndarray):
        """Length of a tangent vector given in the parameter basis, or of
        N vectors given as the rows of an (N, 2) array."""
        p, q = np.asarray(coeffs, dtype=float).T
        return self._length(p, q)

    @_computed_once
    def second(self) -> np.ndarray:
        """Normal part of the ambient derivatives of the partials."""
        l, m, n = self._second
        return self._array([[l, m], [m, n]])

    @_computed_once
    def _christoffel(self):
        """((Gamma^u_uu, Gamma^v_uu), (.._uv), (.._vv)) by the Gauss
        formula."""
        return tuple(self._coefficients(nab) for nab in self._ambient)

    @_computed_once
    def surface_christoffel(self) -> np.ndarray:
        """Christoffel symbols of the induced metric, Gamma[k, i, j]: the
        parameter coefficients of the tangential part of the ambient
        derivatives of the partials (the Gauss formula),
        Gamma^k_ij = I^kl <nabla d_i d_j, d_l>."""
        (u_uu, v_uu), (u_uv, v_uv), (u_vv, v_vv) = self._christoffel
        return self._array([[[u_uu, u_uv], [u_uv, u_vv]],
                            [[v_uu, v_uv], [v_uv, v_vv]]])

    @_computed_once
    def A(self) -> np.ndarray:
        return self._array(self._shape)

    @_computed_once
    def K(self):
        """Ambient sectional curvature of the tangent plane plus det A (the
        Gauss equation).  In Sol a plane with unit normal xi has sectional
        curvature 2 xi_3^2 - 1 (the closed form of
        :func:`~solgeo.sol_space.sectional_curvature`, with its scale-free
        test for a degenerate plane, det I > tol E G, divided by E G)."""
        plane = self._sin_sq > PLANE_GRAM_TOLERANCE
        if plane is not True and first_false(plane) is not None:
            raise DegeneratePlaneError("spanning vectors are linearly dependent")
        (a00, a01), (a10, a11) = self._shape
        xi3 = self._xi[2]
        return 2.0 * xi3 * xi3 - 1.0 + (a00 * a11 - a01 * a10)

    @_computed_once
    def principal_curvatures(self) -> np.ndarray:
        """Eigenvalues of ``A`` in ascending order, in closed form:
        h -/+ sqrt(((A00 - A11) / 2)^2 + A01 A10).  A is self-adjoint for
        the first form, so the radicand is nonnegative up to round-off."""
        xp = self._xp
        (a00, a01), (a10, a11) = self._shape
        radius = xp.sqrt(xp.maximum(((a00 - a11) / 2.0) ** 2 + a01 * a10, 0.0))
        return self._array([self.h - radius, self.h + radius])

    @_computed_once
    def _dh_grad(self):
        """(dh, grad f): the first partials of :func:`_f_field` and their
        solve by the first form, from one gradient of the field."""
        dh = _f_field(self.patch).gradient(self.u, self.v, self.patch.fd_step)
        return dh, self._solve(*dh)

    @_computed_once
    def dh(self) -> np.ndarray:
        """Differential of the mean curvature: the first partials of the
        patch's mean-curvature field, or of each point's own f."""
        dh = self._dh_grad[0]
        if self._xp is np:
            dh = [d if isinstance(d, np.ndarray) else np.full(self.u.shape, d)
                  for d in dh]
        return self._array(dh)

    @_computed_once
    def gradient_h(self) -> np.ndarray:
        return self._array(self._dh_grad[1])

    @_computed_once
    def normal_trace(self):
        """<trace R(., xi) ., xi> = 2 xi_3^2."""
        return 2.0 * self._xi[2] * self._xi[2]

    @_computed_once
    def residual(self) -> np.ndarray:
        """A(grad f) + f grad f + f (trace R(., xi) .)^T.

        The trace over the tangent plane is trace R(., xi) . = 2 xi_3 E3:
        in Sol, R(t, xi) t = -xi + 2 t_3 (t_3 xi - xi_3 t) + 2 xi_3 E3 for a
        unit t orthogonal to xi, and an orthonormal tangent basis (t1, t2)
        has t1_3^2 + t2_3^2 = 1 - xi_3^2 and
        t1_3 t1 + t2_3 t2 = E3 - xi_3 xi.  Its tangential part
        2 xi_3 E3^T is solved from (2 xi_3 <d_u, E3>, 2 xi_3 <d_v, E3>)."""
        twice_xi3 = 2.0 * self._xi[2]
        p, q = self._solve(twice_xi3 * self._du[2], twice_xi3 * self._dv[2])
        (a00, a01), (a10, a11) = self._shape
        g0, g1 = self._dh_grad[1]
        h = self.h
        return self._array([a00 * g0 + a01 * g1 + h * g0 + h * p,
                            a10 * g0 + a11 * g1 + h * g1 + h * q])

    @_computed_once
    def norm_A_sq(self):
        """|A|^2 = trace(A A)."""
        (a00, a01), (a10, a11) = self._shape
        return a00 * a00 + 2.0 * a01 * a10 + a11 * a11

    def normal_residual(self, laplacian_h):
        """Delta f - f |A|^2 - f <trace R(., xi) ., xi> given Delta f here;
        see :func:`biharmonic_normal_residual`."""
        return (laplacian_h - self.h * self.norm_A_sq
                - self.h * self.normal_trace)

    def adapted_frame(self, x1_coefficients=None) -> AdaptedFrameSample:
        """The adapted frame at this record's points; see
        :func:`adapted_frame`.  On an N-point record ``x1_coefficients``
        applies at every point."""
        xp = self._xp
        p, q = (self._dh_grad[1] if x1_coefficients is None
                else x1_coefficients)
        norm = self._length(p, q)
        if x1_coefficients is None:
            # written so that a NaN gradient is not degenerate
            bad = first_false(np.logical_not(norm <= GRADIENT_THRESHOLD))
            if bad is not None:
                raise CmcDegenerateError(
                    f"|grad f| below {GRADIENT_THRESHOLD:g} on "
                    f"{self.patch.name!r} at (u, v) = "
                    f"({np.ravel(self.u)[bad]:g}, {np.ravel(self.v)[bad]:g}); "
                    f"supply x1_coefficients explicitly")
        elif first_false(norm != 0.0) is not None:
            raise ValueError("explicit X1 coefficients are zero")
        c1 = (p / norm, q / norm)
        x1_f = tuple(c1[0] * a + c1[1] * b for a, b in zip(self._du, self._dv))
        x2_f = _cross(self._xi, x1_f)
        c2 = self._coefficients(x2_f)
        l, m, n = self._second

        def normal_curvature(c):
            """II(c, c) = <A c, c> for unit c."""
            s, t = c
            return l * s * s + 2.0 * m * s * t + n * t * t

        return AdaptedFrameSample(
            x1=self._array(x1_f), x2=self._array(x2_f), xi=self.xi_f,
            theta=xp.arctan2(self._xi[2], x1_f[2]),
            beta=xp.arctan2(x2_f[1], x2_f[0]), h=self.h,
            lambda1=normal_curvature(c1), lambda2=normal_curvature(c2),
            e3_defect=x2_f[2], x1_coefficients=self._array(c1),
            x2_coefficients=self._array(c2))

    def laplacian(self, field: ScalarField):
        """Surface Laplacian of ``field``; see :func:`laplace_beltrami`."""
        phi_uu, phi_uv, phi_vv = field.hessian(self.u, self.v)
        phi_u, phi_v = field.gradient(self.u, self.v, self.patch.fd_step)
        # the covariant Hessian phi_ij - Gamma^k_ij phi_k, traced with the
        # inverse first form column by column
        (u_uu, v_uu), (u_uv, v_uv), (u_vv, v_vv) = self._christoffel
        m_uu = phi_uu - (u_uu * phi_u + v_uu * phi_v)
        m_uv = phi_uv - (u_uv * phi_u + v_uv * phi_v)
        m_vv = phi_vv - (u_vv * phi_u + v_vv * phi_v)
        return self._solve(m_uu, m_uv)[0] + self._solve(m_uv, m_vv)[1]


def fundamental_forms(patch: SurfacePatch, u: Param,
                      v: Param) -> FundamentalForms:
    """First and second fundamental forms of ``patch`` at ``(u, v)``, one
    point or the N points of same-shape (N,) arrays.

    Raises
    ------
    DegenerateParametrizationError
        If the partials fail to span a plane at the point.
    """
    geo = LocalGeometry(patch, u, v)
    return FundamentalForms(geo.first, geo.second, geo.xi_f)


def shape_data(patch: SurfacePatch, u: Param, v: Param) -> ShapeData:
    """Shape operator, mean and Gaussian curvature, and grad f at a point,
    or at the N points of same-shape (N,) arrays ``u`` and ``v`` (each
    field then has a leading axis of length N).

    The Gaussian curvature combines the ambient sectional curvature of the
    tangent plane with det A (the Gauss equation).  ``gradient_h`` prefers
    the patch's mean-curvature field; without it it costs a
    finite-difference pass over neighbouring shape computations.
    """
    geo = LocalGeometry(patch, u, v)
    return ShapeData(geo.A, geo.h, geo.K, geo.gradient_h,
                     geo.principal_curvatures)


def adapted_frame(patch: SurfacePatch, u: Param, v: Param,
                  x1_coefficients=None) -> AdaptedFrameSample:
    """The adapted frame {X1, X2, xi} with angles theta and beta, at a
    point or at the N points of same-shape (N,) arrays ``u`` and ``v``
    (an N-point :class:`AdaptedFrameSample`).

    X1 defaults to the normalized mean-curvature gradient; below the
    gradient threshold the point is CMC-degenerate and the caller must pass
    ``x1_coefficients`` (constant parameter-basis components) to fix the
    direction, as fixture tests do on CMC leaves.

    X2 completes the tangent basis as the cross product xi x X1, which
    orients beta consistently with the two immersion variants of the
    biconservative family.
    """
    return LocalGeometry(patch, u, v).adapted_frame(x1_coefficients)


def biconservative_residual(patch: SurfacePatch, u: Param,
                            v: Param) -> np.ndarray:
    """Tangential residual A(grad f) + f grad f + f (trace R(., xi) .)^T.

    Returned in the parameter basis, (2,) at a point and (N, 2) at the N
    points of same-shape (N,) arrays ``u`` and ``v``; the metric norm of
    the result is ``sqrt(r @ I @ r)`` with the first form ``I`` at the
    same point.  Zero (to discretization error) exactly on biconservative
    patches.
    """
    return LocalGeometry(patch, u, v).residual


def laplace_beltrami(patch: SurfacePatch, field: ScalarField, u: Param,
                     v: Param) -> Param:
    """Surface Laplacian (trace of the intrinsic Hessian) of a scalar field.

    The second partials come from the field's ``second_partials`` handle,
    and a field without one raises ``ValueError``; the first ones from its
    ``first_partials`` handle, or else by central differences at the
    patch's ``fd_step``.
    """
    return LocalGeometry(patch, u, v).laplacian(field)


def biharmonic_normal_residual(patch: SurfacePatch, u: Param,
                               v: Param) -> Param:
    """Normal residual Delta f - f |A|^2 - f <trace R(., xi) ., xi>.

    Delta f is the surface Laplacian of the patch's mean-curvature field,
    so a patch without one raises ``ValueError``.  A biharmonic immersion
    makes this vanish; for the biconservative family it is strictly
    negative, which is the obstruction.
    """
    geo = LocalGeometry(patch, u, v)
    return geo.normal_residual(geo.laplacian(_f_field(patch)))
