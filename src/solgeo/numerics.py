"""Shared numerical kernels: central differences, piecewise cubic Hermite
evaluation, and the math namespace of one point or N points.

The finite-difference step sizes used package-wide live here so that every
module differentiates the same way, and so does :data:`EXP_MAX`, the one
bound on an exponent x whose e^x, e^{-x} and 1 / e^x must be doubles.  The
Hermite basis is written once and serves both the dense evaluator and the
implicit profile's per-step quadrature rule.

A formula written against :func:`namespace` serves one point and N points
alike: a float input is evaluated with ``math`` on Python floats, an (N,)
array input with numpy's ufuncs, and nothing else chooses between them.
"""

from __future__ import annotations

import math
import sys
from types import SimpleNamespace
from typing import Callable, Optional

import numpy as np

# Central differences: 1e-5 balances truncation against round-off for first
# derivatives in double precision.  The curvature cross-check nests two
# derivative levels and needs a coarser step.
DEFAULT_FD_STEP = 1e-5
CURVATURE_FD_STEP = 1e-4

# The largest x at which e^x is a double: ln(DBL_MAX), whose exp rounds to
# DBL_MAX and whose successor's overflows.  For |x| <= EXP_MAX, e^x, e^{-x}
# and 1 / e^x are all finite, so a height z is compared with it as
# |z| <= EXP_MAX before e^{+-z} and as |2z| <= EXP_MAX before e^{+-2z}.
EXP_MAX = math.log(sys.float_info.max)

# ``math`` under numpy's names, for the functions the formulas use; maximum
# and minimum pick as ``max`` and ``min`` do, at half their call cost.
_FLOAT_MATH = SimpleNamespace(
    exp=math.exp, log=math.log, sqrt=math.sqrt, sin=math.sin,
    cos=math.cos, tanh=math.tanh, cosh=math.cosh, log1p=math.log1p,
    frexp=math.frexp, ldexp=math.ldexp, arctan=math.atan,
    arctan2=math.atan2, isfinite=math.isfinite,
    maximum=lambda a, b: b if b > a else a,
    minimum=lambda a, b: b if b < a else a,
    where=lambda cond, when_true, when_false: (when_true if cond
                                               else when_false))


def namespace(x):
    """numpy for an array ``x``, else ``math`` on Python floats (with
    ``arctan``, ``arctan2``, ``maximum``, ``minimum`` and ``where`` under
    numpy's names)."""
    return np if isinstance(x, np.ndarray) else _FLOAT_MATH


def first_false(ok) -> Optional[int]:
    """Index of the first false entry of ``ok`` (a bool, or a bool array in
    point order), or ``None`` when every entry holds.  A test written as
    ``ok`` fails on NaN, since every comparison with NaN is false."""
    if ok is True:
        return None
    if isinstance(ok, np.ndarray):
        return None if ok.all() else int(np.flatnonzero(~ok)[0])
    return None if ok else 0


def central_diff(func: Callable[[float], object], x: float,
                 step: float = DEFAULT_FD_STEP) -> np.ndarray:
    """Central first derivative of ``func`` at ``x``.

    ``func`` may return a scalar or an array; the result has the same shape.
    """
    hi = np.asarray(func(x + step), dtype=float)
    lo = np.asarray(func(x - step), dtype=float)
    return (hi - lo) / (2.0 * step)


def stencil_points(u: np.ndarray, v: np.ndarray, step: float):
    """The 4N points of a central-difference stencil around the points of
    same-shape arrays ``u`` and ``v``, stacked in four blocks along the
    first axis: (u + step, v), (u - step, v), (u, v + step) and
    (u, v - step)."""
    return (np.concatenate([u + step, u - step, u, u]),
            np.concatenate([v, v, v + step, v - step]))


def stencil_rates(values: np.ndarray, step: float):
    """(d/du, d/dv) by central differences of ``values`` at the points of
    :func:`stencil_points`, its four blocks along the first axis, with the
    arithmetic of :func:`central_diff`."""
    n = len(values) // 4
    east, west = values[:n], values[n:2 * n]
    north, south = values[2 * n:3 * n], values[3 * n:]
    return (east - west) / (2.0 * step), (north - south) / (2.0 * step)


def hermite_basis(t):
    """Cubic Hermite basis (h00, h10, h01, h11) at ``t`` in [0, 1].

    ``t`` may be a float or an array.  A cubic with values y0, y1 and
    slopes m0, m1 at the ends of a step of length h is
    h00 y0 + h10 h m0 + h01 y1 + h11 h m1.
    """
    omt = 1.0 - t
    return ((1.0 + 2.0 * t) * omt * omt, t * omt * omt,
            t * t * (3.0 - 2.0 * t), t * t * (t - 1.0))


def hermite_eval(u, nodes: np.ndarray, values: np.ndarray,
                 slopes: np.ndarray):
    """Piecewise cubic Hermite evaluation at ``u``, a float or an array.

    ``nodes`` must be strictly increasing; ``values`` and ``slopes`` hold
    the node values and node derivatives.  Outside the node range the first
    or last cubic is extrapolated.  The arithmetic is elementwise, so an
    array gives each entry the bits of a float call.
    """
    xp = namespace(u)
    i = xp.minimum(xp.maximum(np.searchsorted(nodes, u, side="right") - 1, 0),
                   len(nodes) - 2)
    h = nodes[i + 1] - nodes[i]
    h00, h10, h01, h11 = hermite_basis((u - nodes[i]) / h)
    return (h00 * values[i] + h10 * h * slopes[i]
            + h01 * values[i + 1] + h11 * h * slopes[i + 1])
