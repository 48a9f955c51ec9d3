"""Shared numerical kernels: central differences and piecewise cubic
Hermite evaluation.

The finite-difference step sizes used package-wide live here so that every
module differentiates the same way.  The Hermite basis is written once and
serves both the scalar evaluator and the implicit profile's per-step
quadrature rule.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

# Central differences: 1e-5 balances truncation against round-off for first
# derivatives in double precision.  The curvature cross-check nests two
# derivative levels and needs a coarser step.
DEFAULT_FD_STEP = 1e-5
CURVATURE_FD_STEP = 1e-4


def central_diff(func: Callable[[float], object], x: float,
                 step: float = DEFAULT_FD_STEP) -> np.ndarray:
    """Central first derivative of ``func`` at ``x``.

    ``func`` may return a scalar or an array; the result has the same shape.
    """
    hi = np.asarray(func(x + step), dtype=float)
    lo = np.asarray(func(x - step), dtype=float)
    return (hi - lo) / (2.0 * step)


def central_diff2(func: Callable[[float], object], x: float,
                  step: float = CURVATURE_FD_STEP) -> np.ndarray:
    """Central second derivative of ``func`` at ``x``.

    The default step is coarser than for first derivatives: the round-off
    floor of the second-difference quotient scales like eps / step**2.
    """
    hi = np.asarray(func(x + step), dtype=float)
    mid = np.asarray(func(x), dtype=float)
    lo = np.asarray(func(x - step), dtype=float)
    return (hi - 2.0 * mid + lo) / (step * step)


def mixed_diff(func: Callable[[float, float], object], x: float, y: float,
               step: float = CURVATURE_FD_STEP) -> np.ndarray:
    """Central mixed second derivative d2/dxdy of a two-argument function."""
    pp = np.asarray(func(x + step, y + step), dtype=float)
    pm = np.asarray(func(x + step, y - step), dtype=float)
    mp = np.asarray(func(x - step, y + step), dtype=float)
    mm = np.asarray(func(x - step, y - step), dtype=float)
    return (pp - pm - mp + mm) / (4.0 * step * step)


def hermite_basis(t):
    """Cubic Hermite basis (h00, h10, h01, h11) at ``t`` in [0, 1].

    ``t`` may be a float or an array.  A cubic with values y0, y1 and
    slopes m0, m1 at the ends of a step of length h is
    h00 y0 + h10 h m0 + h01 y1 + h11 h m1.
    """
    omt = 1.0 - t
    return ((1.0 + 2.0 * t) * omt * omt, t * omt * omt,
            t * t * (3.0 - 2.0 * t), t * t * (t - 1.0))


def hermite_eval(u: float, nodes: np.ndarray, values: np.ndarray,
                 slopes: np.ndarray) -> float:
    """Piecewise cubic Hermite evaluation at ``u``.

    ``nodes`` must be strictly increasing; ``values`` and ``slopes`` hold
    the node values and node derivatives.  Outside the node range the first
    or last cubic is extrapolated.
    """
    i = int(np.searchsorted(nodes, u, side="right")) - 1
    i = min(max(i, 0), len(nodes) - 2)
    h = nodes[i + 1] - nodes[i]
    h00, h10, h01, h11 = hermite_basis((u - nodes[i]) / h)
    return (h00 * values[i] + h10 * h * slopes[i]
            + h01 * values[i + 1] + h11 * h * slopes[i + 1])
