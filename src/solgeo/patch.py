"""Parametrized surface patches and scalar fields on them.

A :class:`SurfacePatch` is an immersion ``(u, v) -> (x, y, z)`` with its
analytic ``partials`` handle, which returns the height z and the five
first and second partials in one call; every surface the package builds
has them in closed form.  The surface records read that handle alone: in
Sol's left-invariant frame z and the partials fix every quantity they
compute, so no package code calls the immersion, which stays as the
reference the height is held to.  A :class:`ScalarField` (a function of
``(u, v)``) reads its two first partials in one call, from its handle or
else by central differences, and its three second partials in another,
from its handle alone.

Every handle takes ``u`` and ``v`` as floats (one point) or as same-shape
(N,) arrays (N points).  A vector returns three components and a scalar
one value, and a component that does not vary may be a float constant at
N points too.  A patch is its handles: a reader calls them and uses what
they return, so a constant stays a float that broadcasts in the reader's
arithmetic, and is filled into an array shaped like ``u`` only where a
reader hands it out (a field's constant value at its difference
stencil, a record's height and its ``dh``).  Handles written against
:func:`~solgeo.numerics.namespace` keep one point on ``math`` and Python
floats.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Tuple, Union

import numpy as np

from .numerics import (DEFAULT_FD_STEP, central_diff, stencil_points,
                       stencil_rates)

Param = Union[float, np.ndarray]
Components = Tuple[Param, Param, Param]
Immersion = Callable[[Param, Param], Components]
Partials = Callable[[Param, Param], Tuple[Union[Param, Components], ...]]
ScalarHandle = Callable[[Param, Param], Param]
ScalarPartials = Callable[[Param, Param], Tuple[Param, ...]]


@dataclass(frozen=True)
class ScalarField:
    """A scalar function of the surface parameters with optional analytic
    partials: ``first_partials`` maps ``(u, v)`` to (phi_u, phi_v) and
    ``second_partials`` to (phi_uu, phi_uv, phi_vv).  Without
    ``first_partials`` the gradient is a central difference of ``value``;
    without ``second_partials`` the field has no Hessian."""

    value: ScalarHandle
    first_partials: Optional[ScalarPartials] = None
    second_partials: Optional[ScalarPartials] = None

    def gradient(self, u: Param, v: Param, step: float) -> Tuple[Param, Param]:
        """(phi_u, phi_v) as the ``first_partials`` handle returns them;
        without a handle central differences at ``step``.  At one point
        that is four calls of ``value``; at the N points of arrays one
        call at the 4N points of :func:`~solgeo.numerics.stencil_points`
        (a constant value filled in), differenced by
        :func:`~solgeo.numerics.stencil_rates`."""
        if self.first_partials is not None:
            return self.first_partials(u, v)
        if isinstance(u, np.ndarray):
            s, t = stencil_points(u, v, step)
            values = self.value(s, t)
            if not isinstance(values, np.ndarray):
                values = np.full(s.shape, values)
            return stencil_rates(values, step)
        return (central_diff(lambda s: self.value(s, v), u, step),
                central_diff(lambda t: self.value(u, t), v, step))

    def hessian(self, u: Param, v: Param) -> Tuple[Param, Param, Param]:
        """(phi_uu, phi_uv, phi_vv) as the ``second_partials`` handle
        returns them; ``ValueError`` without one."""
        if self.second_partials is None:
            raise ValueError("the field has no second_partials handle, "
                             "so its Hessian is not available")
        return self.second_partials(u, v)


@dataclass(frozen=True)
class SurfacePatch:
    """An immersion of a parameter rectangle with its analytic partials.

    Parameters
    ----------
    immersion:
        Map ``(u, v)`` to the three ambient coordinates.
    partials:
        Map ``(u, v) -> (z, d_u, d_v, d_uu, d_uv, d_vv)``: the height (the
        third coordinate of ``immersion``, bit for bit) and the analytic
        first and second partials of the immersion, all six from one call.
        A record reads z and the partials here and never calls
        ``immersion``.
    domain:
        ``((u_min, u_max), (v_min, v_max))``; informative, not enforced on
        evaluation.
    name:
        Label used in error messages and report contexts.
    fd_step:
        Central-difference step of a field's gradient without a
        ``first_partials`` handle (the mean curvature's, on a patch without
        a mean-curvature field) and of the frame-identity stencils.
    mean_curvature:
        Optional :class:`ScalarField` of the mean curvature, preferred by
        curvature routines because differencing each point's own f costs
        third derivatives of the immersion.  The Laplacian of f needs its
        ``second_partials``.
    """

    immersion: Immersion
    partials: Partials
    domain: Tuple[Tuple[float, float], Tuple[float, float]]
    name: str
    fd_step: float = DEFAULT_FD_STEP
    mean_curvature: Optional[ScalarField] = None

    def __post_init__(self):
        (u_lo, u_hi), (v_lo, v_hi) = self.domain
        if not (u_lo < u_hi and v_lo < v_hi):
            raise ValueError("domain rectangle must be nonempty")

    def grid(self, nu: int, nv: int) -> Tuple[np.ndarray, np.ndarray]:
        """Uniform parameter samples over the domain, ``nu`` by ``nv``."""
        (u_lo, u_hi), (v_lo, v_hi) = self.domain
        return np.linspace(u_lo, u_hi, nu), np.linspace(v_lo, v_hi, nv)

    def without_curvature_handles(self) -> "SurfacePatch":
        """Copy with the mean-curvature field dropped.

        Forces downstream routines onto the finite-difference gradient of
        f; used by convergence studies.
        """
        return replace(self, mean_curvature=None)

    def with_fd_step(self, step: float) -> "SurfacePatch":
        return replace(self, fd_step=step)
