"""Parametrized surface patches.

A :class:`SurfacePatch` bundles an immersion ``(u, v) -> (x, y, z)`` with
optional analytic derivative handles.  Consumers fall back to central
differences for any handle that is missing, so fixtures can be as cheap or
as exact as a test requires.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Tuple

import numpy as np

from .numerics import DEFAULT_FD_STEP, central_diff, central_diff2, mixed_diff

Immersion = Callable[[float, float], np.ndarray]
VectorHandle = Callable[[float, float], np.ndarray]
ScalarHandle = Callable[[float, float], float]


@dataclass(frozen=True)
class SurfacePatch:
    """An immersion of a parameter rectangle with optional analytic partials.

    Parameters
    ----------
    immersion:
        Map ``(u, v)`` to ambient coordinates, as any length-3 array-like.
    domain:
        ``((u_min, u_max), (v_min, v_max))``; informative, not enforced on
        evaluation.
    orientation:
        ``+1`` or ``-1``; flips the unit normal so constructors can realize
        a chosen mean-curvature sign.
    fd_step:
        Central-difference step of the first-partial fallbacks.  Missing
        second partials are differenced with the kernels' default step
        ``numerics.CURVATURE_FD_STEP``.
    d_u .. d_vv:
        Optional analytic first and second partials of the immersion.
    mean_curvature, mean_curvature_du, mean_curvature_dv:
        Optional closed forms for the mean-curvature function and its
        parameter derivatives; used preferentially by curvature routines
        because differencing the mean curvature numerically costs third
        derivatives of the immersion.
    """

    immersion: Immersion
    domain: Tuple[Tuple[float, float], Tuple[float, float]]
    name: str = "patch"
    orientation: int = 1
    fd_step: float = DEFAULT_FD_STEP
    d_u: Optional[VectorHandle] = None
    d_v: Optional[VectorHandle] = None
    d_uu: Optional[VectorHandle] = None
    d_uv: Optional[VectorHandle] = None
    d_vv: Optional[VectorHandle] = None
    mean_curvature: Optional[ScalarHandle] = None
    mean_curvature_du: Optional[ScalarHandle] = None
    mean_curvature_dv: Optional[ScalarHandle] = None

    def __post_init__(self):
        if self.orientation not in (1, -1):
            raise ValueError("orientation must be +1 or -1")
        (u_lo, u_hi), (v_lo, v_hi) = self.domain
        if not (u_lo < u_hi and v_lo < v_hi):
            raise ValueError("domain rectangle must be nonempty")

    def position(self, u: float, v: float) -> np.ndarray:
        return np.asarray(self.immersion(u, v), dtype=float)

    def du(self, u: float, v: float) -> np.ndarray:
        if self.d_u is not None:
            return np.asarray(self.d_u(u, v), dtype=float)
        return central_diff(lambda s: self.immersion(s, v), u, self.fd_step)

    def dv(self, u: float, v: float) -> np.ndarray:
        if self.d_v is not None:
            return np.asarray(self.d_v(u, v), dtype=float)
        return central_diff(lambda t: self.immersion(u, t), v, self.fd_step)

    def duu(self, u: float, v: float) -> np.ndarray:
        if self.d_uu is not None:
            return np.asarray(self.d_uu(u, v), dtype=float)
        return central_diff2(lambda s: self.immersion(s, v), u)

    def dvv(self, u: float, v: float) -> np.ndarray:
        if self.d_vv is not None:
            return np.asarray(self.d_vv(u, v), dtype=float)
        return central_diff2(lambda t: self.immersion(u, t), v)

    def duv(self, u: float, v: float) -> np.ndarray:
        if self.d_uv is not None:
            return np.asarray(self.d_uv(u, v), dtype=float)
        return mixed_diff(self.immersion, u, v)

    def grid(self, nu: int, nv: int) -> Tuple[np.ndarray, np.ndarray]:
        """Uniform parameter samples over the domain, ``nu`` by ``nv``."""
        (u_lo, u_hi), (v_lo, v_hi) = self.domain
        return np.linspace(u_lo, u_hi, nu), np.linspace(v_lo, v_hi, nv)

    def without_curvature_handles(self) -> "SurfacePatch":
        """Copy with the mean-curvature closed forms dropped.

        Forces downstream routines onto the finite-difference path; used by
        convergence studies.
        """
        return replace(self, mean_curvature=None, mean_curvature_du=None,
                       mean_curvature_dv=None)

    def with_fd_step(self, step: float) -> "SurfacePatch":
        return replace(self, fd_step=step)
