"""Parametrized surface patches and scalar fields on them.

A :class:`SurfacePatch` (an immersion ``(u, v) -> (x, y, z)``) reads its
five first and second partials in one call: its analytic ``partials``
handle when it has one, else central differences of the immersion.  A
:class:`ScalarField` (a function of ``(u, v)``) reads each partial from its
own handle when there is one, else from a central difference.  Fixtures can
therefore be as cheap or as exact as a test requires.

Every handle takes ``u`` and ``v`` as floats (one point) or as same-shape
(N,) arrays (N points).  A vector returns three components and a scalar
one value; the patch and the field broadcast what a handle returns to the
shape of ``u``, so a constant component may stay a float.  Handles written
against :func:`~solgeo.numerics.namespace` keep one point on ``math`` and
Python floats.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Tuple, Union

import numpy as np

from .numerics import (CURVATURE_FD_STEP, DEFAULT_FD_STEP, central_diff,
                       central_diff2, mixed_diff)

Param = Union[float, np.ndarray]
Components = Tuple[Param, Param, Param]
Immersion = Callable[[Param, Param], Components]
Partials = Callable[[Param, Param], Tuple[Components, ...]]
ScalarHandle = Callable[[Param, Param], Param]


def _components(value, u: Param) -> Components:
    """The three components of a vector ``value``, each shaped like
    ``u``: at N points (N,) arrays, at one point ``value`` as it is."""
    if isinstance(u, np.ndarray):
        return tuple(np.broadcast_to(c, u.shape) for c in value)
    return value


def _scalar(value, u: Param) -> Param:
    """A scalar handle's ``value`` shaped like ``u``."""
    if isinstance(u, np.ndarray):
        return np.broadcast_to(value, u.shape)
    return float(value)


def _partial(func, handle, u: Param, v: Param, axes: str,
             step: float = DEFAULT_FD_STEP):
    """The partial of ``func`` along ``axes`` (``"u"``, ``"v"``, ``"uu"``,
    ``"uv"`` or ``"vv"``) at ``(u, v)``: ``handle(u, v)`` when the handle
    exists, else a central difference of ``func``, first partials at
    ``step`` and second partials at ``CURVATURE_FD_STEP``.  The difference
    shifts the whole of an array ``u`` or ``v`` at once, with the
    components of a vector ``func`` on the leading axis."""
    if handle is not None:
        return handle(u, v)
    if axes == "u":
        return central_diff(lambda s: func(s, v), u, step)
    if axes == "v":
        return central_diff(lambda t: func(u, t), v, step)
    if axes == "uu":
        return central_diff2(lambda s: func(s, v), u, CURVATURE_FD_STEP)
    if axes == "vv":
        return central_diff2(lambda t: func(u, t), v, CURVATURE_FD_STEP)
    return mixed_diff(func, u, v, CURVATURE_FD_STEP)


@dataclass(frozen=True)
class ScalarField:
    """A scalar function of the surface parameters with optional analytic
    partials ``du`` .. ``dvv``; each partial missing a handle is a central
    difference of ``value``."""

    value: ScalarHandle
    du: Optional[ScalarHandle] = None
    dv: Optional[ScalarHandle] = None
    duu: Optional[ScalarHandle] = None
    duv: Optional[ScalarHandle] = None
    dvv: Optional[ScalarHandle] = None

    def gradient(self, u: Param, v: Param, step: float) -> Tuple[Param, Param]:
        """(phi_u, phi_v); missing handles are differenced at ``step``."""
        return (_scalar(_partial(self.value, self.du, u, v, "u", step), u),
                _scalar(_partial(self.value, self.dv, u, v, "v", step), u))

    def hessian(self, u: Param, v: Param) -> Tuple[Param, Param, Param]:
        """(phi_uu, phi_uv, phi_vv); missing handles are differenced at
        ``CURVATURE_FD_STEP``."""
        return (_scalar(_partial(self.value, self.duu, u, v, "uu"), u),
                _scalar(_partial(self.value, self.duv, u, v, "uv"), u),
                _scalar(_partial(self.value, self.dvv, u, v, "vv"), u))


@dataclass(frozen=True)
class SurfacePatch:
    """An immersion of a parameter rectangle with optional analytic partials.

    Parameters
    ----------
    immersion:
        Map ``(u, v)`` to the three ambient coordinates.
    domain:
        ``((u_min, u_max), (v_min, v_max))``; informative, not enforced on
        evaluation.
    orientation:
        ``+1`` or ``-1``; flips the unit normal so constructors can realize
        a chosen mean-curvature sign.
    fd_step:
        Central-difference step of the immersion's first partials when
        there is no ``partials`` handle, and of the mean curvature.  Second
        partials without a handle are differenced at
        ``numerics.CURVATURE_FD_STEP``.
    partials:
        Optional map ``(u, v) -> (d_u, d_v, d_uu, d_uv, d_vv)``: the
        analytic first and second partials of the immersion, all five from
        one call.
    mean_curvature:
        Optional :class:`ScalarField` of the mean curvature, preferred by
        curvature routines because differencing each point's own f costs
        third derivatives of the immersion.
    """

    immersion: Immersion
    domain: Tuple[Tuple[float, float], Tuple[float, float]]
    name: str = "patch"
    orientation: int = 1
    fd_step: float = DEFAULT_FD_STEP
    partials: Optional[Partials] = None
    mean_curvature: Optional[ScalarField] = None

    def __post_init__(self):
        if self.orientation not in (1, -1):
            raise ValueError("orientation must be +1 or -1")
        (u_lo, u_hi), (v_lo, v_hi) = self.domain
        if not (u_lo < u_hi and v_lo < v_hi):
            raise ValueError("domain rectangle must be nonempty")

    def position(self, u: Param, v: Param) -> Components:
        return _components(self.immersion(u, v), u)

    def derivatives(self, u: Param, v: Param) -> Tuple[Components, ...]:
        """(d_u, d_v, d_uu, d_uv, d_vv) at ``(u, v)``, each shaped like
        ``position``: the ``partials`` handle's values, else central
        differences of the immersion."""
        if self.partials is not None:
            return tuple(_components(d, u) for d in self.partials(u, v))
        return tuple(_components(_partial(self.position, None, u, v, axes,
                                          self.fd_step), u)
                     for axes in ("u", "v", "uu", "uv", "vv"))

    def grid(self, nu: int, nv: int) -> Tuple[np.ndarray, np.ndarray]:
        """Uniform parameter samples over the domain, ``nu`` by ``nv``."""
        (u_lo, u_hi), (v_lo, v_hi) = self.domain
        return np.linspace(u_lo, u_hi, nu), np.linspace(v_lo, v_hi, nv)

    def without_curvature_handles(self) -> "SurfacePatch":
        """Copy with the mean-curvature field dropped.

        Forces downstream routines onto the finite-difference path; used by
        convergence studies.
        """
        return replace(self, mean_curvature=None)

    def with_fd_step(self, step: float) -> "SurfacePatch":
        return replace(self, fd_step=step)
