"""The ambient solvable 3-space.

The space is R^3 with the left-invariant metric

    e^{2z} dx^2 + e^{-2z} dy^2 + dz^2.

The orthonormal frame E1 = e^{-z} d/dx, E2 = e^{z} d/dy, E3 = d/dz
trivializes most computations, so a :class:`TangentVector` holds frame
components alone.  In that frame the Levi-Civita connection has constant
coefficients (:func:`frame_connection`), the one statement of it that
run-time geometry reads.  Coordinate components appear only inside the
finite-difference oracles :func:`covariant_derivative` and
:func:`curvature_tensor_fd`, which difference them and contract the
coordinate symbols :func:`christoffel`.

Every operation is written once for a :class:`Point` of floats with (3,)
components and for one of (N,) arrays with (N, 3) components, a row or a
value per point; ``exp`` comes from :func:`~solgeo.numerics.namespace` and
3-vector dot products are ``np.vecdot``, which rounds like ``np.dot``.

Conventions: the curvature tensor is R(X,Y)Z = [nabla_X, nabla_Y]Z
- nabla_{[X,Y]}Z, and sectional curvature of the coordinate 2-planes is
K(E1,E3) = K(E2,E3) = -1, K(E1,E2) = +1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .numerics import (CURVATURE_FD_STEP, DEFAULT_FD_STEP, EXP_MAX,
                       central_diff, first_false, namespace)
from .patch import SurfacePatch

__all__ = [
    "PLANE_GRAM_TOLERANCE",
    "Point",
    "TangentVector",
    "DegeneratePlaneError",
    "metric_at",
    "frame_vector",
    "frame_connection",
    "christoffel",
    "covariant_derivative",
    "curvature_components",
    "curvature_tensor",
    "curvature_tensor_fd",
    "sectional_curvature",
    "canonical_leaf",
]

# Two vectors x, y span no plane when their Gram determinant
# |x|^2 |y|^2 - <x, y>^2 is at most this fraction of |x|^2 |y|^2, that is,
# when sin^2 of the angle between them is at most this: a test that no
# common scale of x or y moves.
PLANE_GRAM_TOLERANCE = 1e-14


class DegeneratePlaneError(ValueError):
    """The two vectors supposed to span a tangent plane are parallel."""


@dataclass(frozen=True)
class Point:
    """A position in canonical coordinates, or N positions as (N,) arrays
    (the point of a :class:`~solgeo.surface_calculus.LocalGeometry` over
    N points)."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        xp = namespace(self.z)
        finite = xp.isfinite(self.x) & xp.isfinite(self.y) & xp.isfinite(self.z)
        if first_false(finite) is not None:
            raise ValueError("point coordinates must be finite")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])


@dataclass(frozen=True)
class TangentVector:
    """A tangent vector at a base point by its frame components, or N
    vectors at a :class:`Point` of (N,) arrays, with (N, 3) components.

    Frame components c and coordinate components v are related by
    v = (e^{-z} c1, e^{z} c2, c3) at height z; :meth:`from_coordinates`
    and :meth:`coordinates` convert.
    """

    base: Point
    components: np.ndarray

    def __post_init__(self):
        comps = np.asarray(self.components, dtype=float)
        expected = np.shape(self.base.z) + (3,)
        if comps.shape != expected:
            raise ValueError(f"components must have shape {expected}, one "
                             f"length-3 vector per base point, got "
                             f"{comps.shape}")
        object.__setattr__(self, "components", comps)

    @classmethod
    def from_coordinates(cls, base: Point, v) -> "TangentVector":
        """The vector at ``base`` with coordinate components ``v``."""
        comps = cls(base, v).components
        return cls(base, _rescaled(base.z, comps, "frame",
                                   lambda ez, v: (ez * v[0], v[1] / ez, v[2])))

    def coordinates(self) -> np.ndarray:
        """The coordinate components, (3,) or (N, 3)."""
        return _rescaled(self.base.z, self.components, "coordinate",
                         lambda ez, c: (c[0] / ez, ez * c[1], c[2]))


def _rescaled(z, comps: np.ndarray, basis: str, formula) -> np.ndarray:
    """``formula(e^z, comps.T)`` transposed back, the components in
    ``basis``; ValueError names the first point whose components are not
    finite, or else whose new components leave the double range."""
    bad = first_false(np.isfinite(comps).all(axis=-1))
    if bad is not None:
        raise ValueError(f"components must be finite, got a non-finite one "
                         f"at z = {np.ravel(z)[bad]:g}")
    with np.errstate(all="ignore"):
        try:
            ez = namespace(z).exp(z)
        except OverflowError:
            ez = math.inf
        out = np.array(formula(ez, comps.T)).T
    _require_double_range(z, f"{basis} components leave",
                          np.isfinite(out).all(axis=-1))
    return out


def _require_double_range(z, what: str, ok) -> None:
    """ValueError naming the first z (a float or an (N,) array) where
    ``ok`` (a bool, or a bool array in point order) is false."""
    bad = first_false(ok)
    if bad is not None:
        raise ValueError(f"{what} the double range at "
                         f"z = {np.ravel(z)[bad]:g}")


def _exp_2z(z):
    """e^{2z} and e^{-2z}, the second as 1 / e^{2z}, at height z (a float
    or an (N,) array); ValueError names the first z where |2z| exceeds
    :data:`~solgeo.numerics.EXP_MAX`, that is, where either is not a
    double."""
    _require_double_range(z, "e^(2z) or e^(-2z) leaves",
                          abs(2.0 * z) <= EXP_MAX)
    e2z = namespace(z).exp(2.0 * z)
    return e2z, 1.0 / e2z


def metric_at(p: Point) -> np.ndarray:
    """The metric's diagonal (e^{2z}, e^{-2z}, 1) at p, (3,) at one point
    and (N, 3) at N points; ValueError names a z where e^{2z} or e^{-2z}
    leaves the double range."""
    e2z, inverse = _exp_2z(p.z)
    return np.array([e2z, inverse, np.ones_like(e2z)]).T


def _require_same_base(*vectors: TangentVector) -> Point:
    base = vectors[0].base
    for v in vectors[1:]:
        if not np.array_equal(v.base.as_array(), base.as_array()):
            raise ValueError("tangent vectors have different base points")
    return base


def frame_vector(p: Point, i: int) -> TangentVector:
    """The i-th frame field (1-based) as a tangent vector at p, with (N, 3)
    components at a point of (N,) arrays."""
    if i not in (1, 2, 3):
        raise ValueError("frame index must be 1, 2 or 3")
    comps = np.zeros(np.shape(p.z) + (3,))
    comps[..., i - 1] = 1.0
    return TangentVector(p, comps)


def frame_connection(x, y):
    """The connection on frame components: sum x^i y^j nabla_{E_i} E_j,
    from Sol's constant table nabla_{E1} E1 = -E3, nabla_{E1} E3 = E1,
    nabla_{E2} E2 = E3 and nabla_{E2} E3 = -E2 (every other pairing is 0),
    written out:

        (x1 y3,  -x2 y3,  x2 y2 - x1 y1).

    ``x`` and ``y`` are three components each, floats at one point or (N,)
    arrays at N points, and so are the three results.  No point and no
    ``exp`` enter: the table is the same over the whole space.
    """
    x1, x2, _ = x
    y1, y2, y3 = y
    return x1 * y3, -(x2 * y3), x2 * y2 - x1 * y1


def christoffel(p: Point) -> np.ndarray:
    """Coordinate Christoffel symbols Gamma[..., k, i, j] at p, (3, 3, 3)
    at one point and (N, 3, 3, 3) at N points.

    The one statement of Sol's connection in coordinates, the closed forms
    of the diagonal metric.  It is an oracle: :func:`covariant_derivative`
    and :func:`curvature_tensor_fd` contract it, and run-time geometry
    reads :func:`frame_connection`.  ValueError names a z where e^{2z} or
    e^{-2z} leaves the double range.
    """
    e2z, inverse = _exp_2z(p.z)
    gamma = np.zeros(np.shape(p.z) + (3, 3, 3))
    gamma[..., 0, 0, 2] = gamma[..., 0, 2, 0] = 1.0
    gamma[..., 1, 1, 2] = gamma[..., 1, 2, 1] = -1.0
    gamma[..., 2, 0, 0] = -e2z
    gamma[..., 2, 1, 1] = inverse
    return gamma


def _nabla_coordinates(field: Callable[[Point], np.ndarray], p: Point,
                       x: np.ndarray, step: float) -> np.ndarray:
    """nabla_x of a field on coordinate components: ``field`` maps a point
    to the field's coordinate components there, ``x`` is the direction's;
    a central difference along x plus the contraction of
    :func:`christoffel`."""

    def along(t: float) -> np.ndarray:
        return field(Point(*(p.as_array() + t * x.T)))

    y0 = along(0.0)
    dy = central_diff(along, 0.0, step)
    if not (np.all(np.isfinite(y0)) and np.all(np.isfinite(dy))):
        raise ValueError("vector field evaluated to a non-finite value")
    return dy + np.einsum("...kij,...i,...j->...k", christoffel(p), x, y0)


def covariant_derivative(field: Callable[[Point], TangentVector],
                         direction: TangentVector,
                         step: float = DEFAULT_FD_STEP) -> TangentVector:
    """Ambient covariant derivative of a vector field along a direction.

    Parameters
    ----------
    field:
        Maps a point to a tangent vector there.
    direction:
        Direction (and base point) of differentiation.
    step:
        Central-difference step for the directional derivative of the
        field's coordinate components.

    Returns
    -------
    TangentVector at ``direction.base``.  At a point of (N,) arrays
    ``field`` is called on N shifted points at once.
    """
    p = direction.base
    out = _nabla_coordinates(lambda q: field(q).coordinates(), p,
                             direction.coordinates(), step)
    return TangentVector.from_coordinates(p, out)


def curvature_components(x: np.ndarray, y: np.ndarray,
                         z: np.ndarray) -> np.ndarray:
    """Closed-form curvature R(X,Y)Z on frame components.

    The formula is algebraic in the pairings with the vertical direction:

        R(X,Y)Z = <Y,Z>X - <X,Z>Y + 2<Z,E3>(<X,E3>Y - <Y,E3>X)
                  + 2(<X,Z><Y,E3> - <Y,Z><X,E3>)E3

    with all products Euclidean on (3,) or (N, 3) frame components.
    """
    yz, xz = np.vecdot(y, z)[..., None], np.vecdot(x, z)[..., None]
    x3, y3, z3 = x[..., 2:], y[..., 2:], z[..., 2:]
    out = yz * x - xz * y + 2.0 * z3 * (x3 * y - y3 * x)
    out[..., 2:] += 2.0 * (xz * y3 - yz * x3)
    return out


def _below_one(comps: np.ndarray):
    """``comps`` scaled by an exact power of two to components below 1,
    vector by vector, and the exponent of that power."""
    e = np.frexp(np.max(np.abs(comps), axis=-1))[1]
    return np.ldexp(comps, -e[..., None]), e


def curvature_tensor(x: TangentVector, y: TangentVector,
                     z: TangentVector) -> TangentVector:
    """Evaluate the closed-form curvature tensor on three vectors.  R is
    trilinear, so each vector is first scaled by an exact power of two to
    components below 1, as in :func:`sectional_curvature`, and R scaled
    back by the sum of the three exponents: nothing overflows on the way,
    no pairing underflows because another vector is large, and where the
    unscaled arithmetic stays in the normal range of doubles R keeps its
    bits.  ValueError names the first point whose finite vectors give an
    R outside the double range."""
    base = _require_same_base(x, y, z)
    (xf, xe), (yf, ye), (zf, ze) = (_below_one(v.components)
                                    for v in (x, y, z))
    scaled = curvature_components(xf, yf, zf)
    with np.errstate(over="ignore"):
        out = np.ldexp(scaled, (xe + ye + ze)[..., None])
    # a non-finite input gives a non-finite R, as it is
    bad = first_false(np.isfinite(out).all(axis=-1)
                      | ~np.isfinite(scaled).all(axis=-1))
    if bad is not None:
        at = tuple(base.as_array().reshape(3, -1)[:, bad])
        raise ValueError("R(X, Y)Z leaves the double range "
                         "at (x, y, z) = (%g, %g, %g)" % at)
    return TangentVector(base, out)


def curvature_tensor_fd(x: TangentVector, y: TangentVector, z: TangentVector,
                        step: float = CURVATURE_FD_STEP) -> TangentVector:
    """Curvature from first principles, as an oracle for the closed form.

    Extends the three vectors to coordinate-constant fields (whose Lie
    bracket vanishes) and evaluates nabla_X nabla_Y Z - nabla_Y nabla_X Z
    with nested finite differences on the Christoffel expression, at all
    N points at once.
    """
    base = _require_same_base(x, y, z)
    xc, yc, zc = (v.coordinates() for v in (x, y, z))

    def nabla_z_along(d: np.ndarray) -> Callable[[Point], np.ndarray]:
        return lambda q: _nabla_coordinates(lambda r: zc, q, d, step)

    a = _nabla_coordinates(nabla_z_along(yc), base, xc, step)
    b = _nabla_coordinates(nabla_z_along(xc), base, yc, step)
    return TangentVector.from_coordinates(base, a - b)


def sectional_curvature(x: TangentVector, y: TangentVector):
    """Sectional curvature of the plane spanned by two tangent vectors, one
    per point; :class:`DegeneratePlaneError` names the first point whose
    vectors fail the Gram test.  Both vectors are first scaled by exact
    powers of two to components below 1: nothing overflows, and where the
    unscaled arithmetic stays in the normal range of doubles it rounds the
    same, so K keeps its bits."""
    base = _require_same_base(x, y)
    (xf, _), (yf, _) = _below_one(x.components), _below_one(y.components)
    xx, yy, xy = np.vecdot(xf, xf), np.vecdot(yf, yf), np.vecdot(xf, yf)
    gram = xx * yy - xy * xy
    # written so that a NaN Gram determinant is not degenerate
    bad = first_false(np.logical_not(gram <= PLANE_GRAM_TOLERANCE * xx * yy))
    if bad is not None:
        at = tuple(base.as_array().reshape(3, -1)[:, bad])
        raise DegeneratePlaneError("spanning vectors are linearly dependent "
                                   "at (x, y, z) = (%g, %g, %g)" % at)
    return np.vecdot(curvature_components(xf, yf, yf), xf) / gram


def canonical_leaf(kind: str, level: float) -> SurfacePatch:
    """One leaf of the three coordinate foliations, as a test fixture.

    ``x_const`` and ``y_const`` leaves are totally geodesic hyperbolic
    planes; ``z_const`` leaves are flat and minimal.  The ``z_const``
    parametrization is orthonormal: (u, v) -> (u e^{-level}, v e^{level}).
    ValueError refuses a non-finite level, and a ``z_const`` level past
    :data:`~solgeo.numerics.EXP_MAX` in size, where e^{level} or
    e^{-level} is not a double.
    """
    if not math.isfinite(level):
        raise ValueError(f"leaf level must be finite, got {level!r}")
    if kind == "x_const":
        immersion, d_u, d_v = ((lambda u, v: (level, u, v)),
                               (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
    elif kind == "y_const":
        immersion, d_u, d_v = ((lambda u, v: (u, level, v)),
                               (1.0, 0.0, 0.0), (0.0, 0.0, 1.0))
    elif kind == "z_const":
        _require_double_range(level, "e^(level) or e^(-level) leaves",
                              abs(level) <= EXP_MAX)
        eminus, eplus = math.exp(-level), math.exp(level)
        immersion, d_u, d_v = ((lambda u, v: (u * eminus, v * eplus, level)),
                               (eminus, 0.0, 0.0), (0.0, eplus, 0.0))
    else:
        raise ValueError(f"unknown foliation kind {kind!r}")
    zero = (0.0, 0.0, 0.0)
    return SurfacePatch(
        immersion=immersion,
        partials=lambda u, v: (level if kind == "z_const" else v, d_u, d_v,
                               zero, zero, zero),
        domain=((-1.0, 1.0), (-1.0, 1.0)), name=f"leaf_{kind[0]}={level:g}")
