"""Parametrized surface patches and scalar fields on them.

A :class:`SurfacePatch` (an immersion ``(u, v) -> (x, y, z)``) reads its
five first and second partials in one call; a :class:`ScalarField` (a
function of ``(u, v)``) its two first partials in one call and its three
second partials in another.  Each read takes the analytic handle when
there is one, else central differences (:func:`_partials`), so fixtures
can be as cheap or as exact as a test requires.

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
ScalarPartials = Callable[[Param, Param], Tuple[Param, ...]]


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


def _partial(func, u: Param, v: Param, axes: str, step: float):
    """The central difference of ``func`` along ``axes`` (``"u"`` ..
    ``"vv"``) at ``(u, v)``, first partials at ``step`` and second ones at
    ``CURVATURE_FD_STEP``.  It shifts the whole of an array ``u`` or ``v``
    at once, with the components of a vector ``func`` on the leading axis."""
    if axes == "u":
        return central_diff(lambda s: func(s, v), u, step)
    if axes == "v":
        return central_diff(lambda t: func(u, t), v, step)
    if axes == "uu":
        return central_diff2(lambda s: func(s, v), u, CURVATURE_FD_STEP)
    if axes == "vv":
        return central_diff2(lambda t: func(u, t), v, CURVATURE_FD_STEP)
    return mixed_diff(func, u, v, CURVATURE_FD_STEP)


def _partials(func, handle, u: Param, v: Param, axes: Tuple[str, ...],
              step: float = DEFAULT_FD_STEP) -> tuple:
    """The partials of ``func`` along each of ``axes`` at ``(u, v)``:
    ``handle(u, v)`` if there is a handle, else :func:`_partial` per axis."""
    if handle is not None:
        return handle(u, v)
    return tuple(_partial(func, u, v, a, step) for a in axes)


@dataclass(frozen=True)
class ScalarField:
    """A scalar function of the surface parameters with optional analytic
    partials: ``first_partials`` maps ``(u, v)`` to (phi_u, phi_v) and
    ``second_partials`` to (phi_uu, phi_uv, phi_vv).  Without a handle the
    partials are central differences of ``value``."""

    value: ScalarHandle
    first_partials: Optional[ScalarPartials] = None
    second_partials: Optional[ScalarPartials] = None

    def gradient(self, u: Param, v: Param, step: float) -> Tuple[Param, Param]:
        """(phi_u, phi_v); without a handle differenced at ``step``."""
        return tuple(_scalar(d, u) for d in _partials(
            self.value, self.first_partials, u, v, ("u", "v"), step))

    def hessian(self, u: Param, v: Param) -> Tuple[Param, Param, Param]:
        """(phi_uu, phi_uv, phi_vv); without a handle differenced at
        ``CURVATURE_FD_STEP``."""
        return tuple(_scalar(d, u) for d in _partials(
            self.value, self.second_partials, u, v, ("uu", "uv", "vv")))


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
    fd_step: float = DEFAULT_FD_STEP
    partials: Optional[Partials] = None
    mean_curvature: Optional[ScalarField] = None

    def __post_init__(self):
        (u_lo, u_hi), (v_lo, v_hi) = self.domain
        if not (u_lo < u_hi and v_lo < v_hi):
            raise ValueError("domain rectangle must be nonempty")

    def position(self, u: Param, v: Param) -> Components:
        return _components(self.immersion(u, v), u)

    def derivatives(self, u: Param, v: Param) -> Tuple[Components, ...]:
        """(d_u, d_v, d_uu, d_uv, d_vv) at ``(u, v)``, each shaped like
        ``position``: the ``partials`` handle's values, else central
        differences of the immersion."""
        return tuple(_components(d, u) for d in _partials(
            self.position, self.partials, u, v, ("u", "v", "uu", "uv", "vv"),
            self.fd_step))

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
