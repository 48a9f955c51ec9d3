"""The non-CMC biconservative surfaces.

These are constant-angle-type surfaces with one horizontal frame direction
tangent; the tangential fourth-order equation closes into the scalar ODE
3 f f' + f' sin(theta) + f sin(2 theta) = 0 for the mean curvature f and
the vertical angle theta, with theta' = -2 f.  Two kinds of profile are
implemented:

* ``explicit``: theta(u) = 2 arctan(e^{-2 a1 u}) on u < 0, where a1 is the
  positive root of 3 a^2 + a - 1 = 0; here f = a1 sin(theta).
* ``implicit``: a one-parameter family where f solves
  (f - a1 sin theta)^{6 a2} = c (f - a2 sin theta)^{6 a1} at every angle;
  since theta' = -2 f(theta; c) is autonomous, the profile is the
  quadrature u(theta) = int_theta^theta0 dphi / (2 f(phi)), summed by a
  Gauss-Legendre rule on theta-panels and inverted at the samples by
  Newton's method, every root solve over one array of angles.

From a profile the quadratures Psi = int cos(theta) and
Phi1 = -int sin(theta) e^{Psi} build the two immersion variants: one with
the first horizontal direction tangent, one with the second.  On the
explicit kind both quadratures have closed forms: Psi is elementary, and
with p = (1 - 3 a1)/4 and w = e^{4 a1 u} the substitution u -> w turns
Phi1 into an incomplete beta integral,

    Phi1(u) = -(e^{c0} / (2 a1)) [G(u) - G(u0)],
    G(u) = e^{(2 a1 - 1) u} / p * 2F1(p, 2p; p + 1; -e^{4 a1 u}),

which uses (2 a1 - 1)/(4 a1) = p and 1 - 1/(2 a1) = 2p, both consequences
of 3 a1^2 + a1 - 1 = 0.  Pfaff's transformation (DLMF 15.8.1; Abramowitz
and Stegun 15.3.4) moves the argument into (0, 1/2]: with x = w / (1 + w),

    2F1(p, 2p; p + 1; -w) = (1 + w)^{-p} 2F1(p, 1 - p; p + 1; x),

and on u < 0, where w lies in (0, 1), x < 1/2.  The right-hand 2F1 is
summed as a fixed polynomial: 52 Taylor coefficients, from the term ratio
(p + k)(1 - p + k) / ((p + 1 + k)(k + 1)), by Horner's rule.  The
coefficients shrink in magnitude, so even at x = 1/2 the dropped tail is
below 1e-18 (2^-59.9) relative, under a hundredth of an ulp of the sum.

The explicit family's domain in doubles is EXPLICIT_U_MIN <= u < 0, with
EXPLICIT_U_MIN = -26 ln 2 / a1 (about -41.50022): there e^{2 a1 u} = 2^-52,
so pi - theta = 2 arctan(2^-52) is one ulp of pi, and below it theta rounds
to pi and the profile no longer turns.  Every explicit closed form, every
explicit profile and so every family patch built on one answers on this
domain and raises ``ValueError`` outside it, NaN included.  On it
t = -2 a1 u <= 52 ln 2, so each closed form is its plain formula: no
exponential overflows and none needs a far-field branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from .numerics import first_false, hermite_basis, hermite_eval, namespace
from .patch import ScalarField, SurfacePatch

__all__ = [
    "EXPLICIT",
    "IMPLICIT",
    "EXPLICIT_U_MIN",
    "DENSE_REACH_STEPS",
    "FamilyConstants",
    "CONSTANTS",
    "ProfileAngleError",
    "ProfileSolution",
    "theta_explicit",
    "theta_prime_explicit",
    "f_explicit",
    "f_prime_explicit",
    "f_second_explicit",
    "psi_explicit",
    "psi_anchor",
    "gaussian_curvature_closed_form",
    "solve_f",
    "f_prime_implicit",
    "f_second_implicit",
    "integrate_implicit_profile",
    "build_profile",
    "family_surface",
    "family_rows",
    "profile_to_csv",
]

EXPLICIT = "explicit"
IMPLICIT = "implicit"

_SQRT13 = math.sqrt(13.0)


class FamilyConstants:
    """The roots a1 > 0 > a2 of 3 a^2 + a - 1 = 0, read-only."""

    __slots__ = ()
    a1 = (-1.0 + _SQRT13) / 6.0
    a2 = (-1.0 - _SQRT13) / 6.0


CONSTANTS = FamilyConstants()


# The lower end of the explicit domain EXPLICIT_U_MIN <= u < 0 (see the
# module docstring): e^{2 a1 u} = 2^-52 there.
EXPLICIT_U_MIN = -26.0 * math.log(2.0) / CONSTANTS.a1

# The explicit closed forms take u as a float or as an array, and each is
# written once against :func:`~solgeo.numerics.namespace`: a float is
# evaluated with ``math`` and an array with numpy's ufuncs, entry by entry.
# The public forms check the domain and pick the namespace once; theta, f
# and Psi are unchecked kernels beneath them, given the pick.


def _require_domain(u) -> None:
    # Written so that NaN fails too: every comparison with NaN is false.
    inside = (u >= EXPLICIT_U_MIN) & (u < 0.0)
    if inside is True:  # one float inside the domain, the common case
        return
    bad = first_false(inside)
    if bad is not None:
        raise ValueError(f"explicit profile requires {EXPLICIT_U_MIN!r} "
                         f"<= u < 0, got u = {float(np.ravel(u)[bad])!r}")


def _theta(u, xp):
    return 2.0 * xp.arctan(xp.exp(-2.0 * CONSTANTS.a1 * u))


def theta_explicit(u):
    """Vertical angle theta(u) = 2 arctan(e^{-2 a1 u}) on the domain.

    Decreases from one ulp below pi (u = EXPLICIT_U_MIN) to pi/2 (u -> 0-).
    """
    _require_domain(u)
    return _theta(u, namespace(u))


def theta_prime_explicit(u):
    """Derivative of the explicit angle profile, -4 a1 e^{-2 a1 u} / (1 + e^{-4 a1 u}).

    Evaluated on its own rational form rather than through -2 f, so profile
    consistency checks do not test a formula against itself.
    """
    _require_domain(u)
    w = namespace(u).exp(-2.0 * CONSTANTS.a1 * u)
    return -4.0 * CONSTANTS.a1 * w / (1.0 + w * w)


def _mean_curvature(u, xp):
    return CONSTANTS.a1 * (1.0 / xp.cosh(2.0 * CONSTANTS.a1 * u))


def f_explicit(u):
    """Mean curvature f(u) = 2 a1 e^{-2 a1 u} / (1 + e^{-4 a1 u}) = a1 sech(2 a1 u)."""
    _require_domain(u)
    return _mean_curvature(u, namespace(u))


def f_prime_explicit(u):
    """f'(u) = -2 a1^2 sech(2 a1 u) tanh(2 a1 u); positive on the domain."""
    _require_domain(u)
    xp, w = namespace(u), 2.0 * CONSTANTS.a1 * u
    return -2.0 * CONSTANTS.a1 ** 2 * (1.0 / xp.cosh(w)) * xp.tanh(w)


def f_second_explicit(u):
    """f''(u) = 4 a1^2 f (1 - 2 sin^2 theta)."""
    _require_domain(u)
    s = 1.0 / namespace(u).cosh(2.0 * CONSTANTS.a1 * u)
    return 4.0 * CONSTANTS.a1 ** 3 * s * (1.0 - 2.0 * s * s)


def _psi(u, c0: float, xp):
    a = CONSTANTS.a1
    return -u + xp.log1p(xp.exp(4.0 * a * u)) / (2.0 * a) + c0


def psi_explicit(u, c0: float = 0.0):
    """Height quadrature Psi(u) = ln(e^{-4 a1 u} + 1) / (2 a1) + u + c0.

    Evaluated as -u + log1p(e^{4 a1 u}) / (2 a1) + c0.
    """
    _require_domain(u)
    return _psi(u, c0, namespace(u))


def _state_explicit(u, c0: float):
    """(theta, f, Psi) at u, as :func:`theta_explicit`, :func:`f_explicit`
    and :func:`psi_explicit` give them, with one check and one pick."""
    _require_domain(u)
    xp = namespace(u)
    return _theta(u, xp), _mean_curvature(u, xp), _psi(u, c0, xp)


def psi_anchor(u0: float) -> float:
    """The constant c0 that anchors Psi(u0) = 0."""
    return -psi_explicit(u0)


_P = (1.0 - 3.0 * CONSTANTS.a1) / 4.0


def _pfaff_coefficients(count: int) -> Tuple[float, ...]:
    """The first ``count`` Taylor coefficients of 2F1(p, 1 - p; p + 1; x),
    highest degree first, as Horner's rule reads them."""
    coefficients = [1.0]
    for k in range(count - 1):
        coefficients.append(coefficients[-1] * (_P + k) * (1.0 - _P + k)
                            / ((_P + 1.0 + k) * (k + 1.0)))
    return tuple(reversed(coefficients))


_PFAFF_SERIES = _pfaff_coefficients(52)


def _pfaff_factors(u):
    # The factors of G(u) of the module docstring that take a transcendental
    # call: w = e^{4 a1 u}, w^p as e^{(2 a1 - 1) u} (which never underflows
    # on u < 0) over p, and (1 + w)^p.  Callers check the domain.
    a, xp = CONSTANTS.a1, namespace(u)
    w = xp.exp(4.0 * a * u)
    return w, xp.exp((2.0 * a - 1.0) * u) / _P, (1.0 + w) ** _P


def _pfaff_sum(w, lead, power):
    # G from its factors, with 2F1(p, 1 - p; p + 1; w / (1 + w)) by Horner's
    # rule: *, + and / alone, which round alike on floats and on arrays.
    x = w / (1.0 + w)
    series = _PFAFF_SERIES[0]
    for coefficient in _PFAFF_SERIES[1:]:
        series = series * x + coefficient
    return lead * (series / power)


def _phi1_primitive(u):
    # G(u) of the module docstring.  Callers check the domain.
    return _pfaff_sum(*_pfaff_factors(u))


def _phi1_from(g, g0: float, c0: float):
    """Phi1 from g = G(u) and g0 = G(u0), with only - and * on g."""
    return -(math.exp(c0) / (2.0 * CONSTANTS.a1)) * (g - g0)


def _phi1_explicit(u, g0: float, c0: float):
    """Closed-form Phi1(u) = -int_{u0}^{u} sin(theta) e^{Psi}, given
    g0 = G(u0); see the module docstring."""
    _require_domain(u)
    return _phi1_from(_phi1_primitive(u), g0, c0)


def gaussian_curvature_closed_form(u):
    """Gaussian curvature of the explicit family, K = -cos^2 theta - 2 f sin theta.

    Equals -tanh^2(2 a1 u) - 2 a1 sech^2(2 a1 u); strictly negative on
    the domain, from about -1 (u = EXPLICIT_U_MIN) to -2 a1 (u -> 0-).
    """
    _require_domain(u)
    xp, w = namespace(u), 2.0 * CONSTANTS.a1 * u
    s = 1.0 / xp.cosh(w)
    return -xp.tanh(w) ** 2 - 2.0 * CONSTANTS.a1 * s * s


def solve_f(theta, c: float):
    """Mean curvature at angle theta on the implicit-family branch.

    ``theta`` is a float or an array (one angle per entry).  Solves
    6 a2 ln(f - a1 y) - 6 a1 ln(f - a2 y) = ln c with y = sin(theta)
    on the branch f > a1 y > 0; the logarithmic form keeps the non-integer
    powers real.  The relation is homogeneous: with g = f / y and
    s = ln(g - a1) it reads

        F(s) = 6 a2 s - 6 a1 ln(e^s + a1 - a2) - ln c + 6 (a2 - a1) ln y = 0.

    F is concave and strictly decreasing, with slope in
    (6 (a2 - a1), 6 a2), so the root exists and is unique for every c > 0.
    Newton starts at the root of the s -> -inf asymptote
    6 a2 s - 6 a1 ln(a1 - a2) - ln c + 6 (a2 - a1) ln y, which lies above F,
    so F < 0 there; a concave decreasing F then keeps every iterate on
    that side and the iterates decrease monotonically to the root.

    The iterate is t = s + ln y = ln(f - a1 y), the same concave F shifted
    by ln y.  Stored as s, the variable would grow like -ln y as theta
    approaches pi and its rounding alone would cost f several ulps; t
    stays near ln f.  An entry stops at a step below 1e-15 of
    max(1, |t|), a round-off floor it reaches in three to five steps for
    c in [1e-6, 1e6], and is held there while the other entries go on;
    the solve raises if some entry has not stopped after 50 steps.  A
    float takes ``math``'s exp and log, an array numpy's, so an array
    entry can differ from the float solve by an ulp or two.

    A root with f <= a1 y (1 + 1e-14), that is g - a1 below double
    resolution (c above about 4e66 at theta = 2.2), counts as no root and
    raises ``ValueError``, as does a non-finite theta or c.
    """
    xp = namespace(theta)
    bad = first_false(xp.isfinite(theta))
    if bad is not None:
        raise ValueError(f"theta must be finite, got {_entry(theta, bad)!r}")
    if not 0.0 < c < math.inf:
        raise ValueError(f"the family constant c must be finite and "
                         f"positive, got {c!r}")
    y = xp.sin(theta)
    if first_false(y > 0.0) is not None:
        raise ValueError("sin(theta) must be positive on the solution branch")
    a1, a2 = CONSTANTS.a1, CONSTANTS.a2
    log_c = math.log(c)
    gap = (a1 - a2) * y
    t = (log_c + 6.0 * a1 * xp.log(gap)) / (6.0 * a2)
    done = False
    for _ in range(50):
        e = xp.exp(t)
        step = ((6.0 * a2 * t - 6.0 * a1 * xp.log(e + gap) - log_c)
                / (6.0 * a2 - 6.0 * a1 * e / (e + gap)))
        t = t - xp.where(done, 0.0, step)
        done = done | (abs(step) <= 1e-15 * xp.maximum(1.0, abs(t)))
        if first_false(done) is None:
            break
    else:
        raise ValueError(f"Newton iteration for f did not converge at "
                         f"theta = {_entry(theta, first_false(done))!r}, "
                         f"c = {c!r}")
    f = a1 * y + xp.exp(t)
    bad = first_false(f > a1 * y * (1.0 + 1e-14))
    if bad is not None:
        raise ValueError(f"no root above f = a1 sin(theta) at "
                         f"theta = {_entry(theta, bad):g}, c = {c:g}")
    return f


def _entry(x, k: int) -> float:
    """Entry ``k`` of ``x`` in point order, or ``x`` itself for a float."""
    return float(np.ravel(x)[k])


def f_prime_implicit(theta, f):
    """f' along an implicit profile: -f sin(2 theta) / (3 f + sin theta)."""
    xp = namespace(theta)
    return -f * xp.sin(2.0 * theta) / (3.0 * f + xp.sin(theta))


def f_second_implicit(theta, f):
    """f'' along an implicit profile, d/du of :func:`f_prime_implicit` with
    theta' = -2 f: [2 f^2 (2 cos(2 theta) D - sin(2 theta) cos theta)
    - sin(2 theta) sin theta f'] / D^2 with D = 3 f + sin theta."""
    xp = namespace(theta)
    sin, sin2, d = xp.sin(theta), xp.sin(2.0 * theta), 3.0 * f + xp.sin(theta)
    return (2.0 * f * f * (2.0 * xp.cos(2.0 * theta) * d - sin2 * xp.cos(theta))
            - sin2 * sin * (-f * sin2 / d)) / (d * d)


def _first_order(theta, psi):
    """(Phi1', Psi') = (-sin theta e^Psi, cos theta) at angle theta and
    height Psi, floats or arrays."""
    xp = namespace(theta)
    return -xp.sin(theta) * xp.exp(psi), xp.cos(theta)


class ProfileAngleError(ValueError):
    """The sampled angle of a profile does not decrease strictly.

    On the explicit kind this happens where adjacent grid points give the
    same double: near the low end of the domain theta is within a few ulps
    of pi, so close samples round together (points 1.75e-3 apart do near
    u = -35, and points 0.1 apart near u = -41).
    """


# How many widest sample spacings the implicit dense evaluators reach past
# the samples: room for the frame stencils' 1e-5 steps and build_profile's
# 1e-12 grid slack, and none for the end cubic far from the ODE's solution
# (on the profile c = 1, theta0 = 2.2, whose samples end at u = 0.281, the
# end cubic reads theta = 335.6 and f = -58.6 at u = 10).
DENSE_REACH_STEPS = 4


@dataclass(frozen=True)
class ProfileSolution:
    """Sampled profile (u, theta, f, Psi, Phi1) of one family member.

    ``u`` is strictly increasing; Psi and Phi1 vanish at the anchor ``u0``
    (``c0``, Psi's constant, is set to match).  The dense evaluators are
    ``state_at``, which returns (theta, f, Psi), ``phi1_at``,
    ``f_prime_at`` and ``f_second_at``; each checks u once.  For the
    explicit kind they are the closed forms, Phi1 included (see the module
    docstring), and every sample equals its dense value exactly; for the
    implicit kind they are cubic Hermite interpolants of the samples,
    whose slopes are known exactly from the ODE (dense accuracy
    O(spacing^4)), and f' and f'' are the ODE's.  They extrapolate the end
    cubics at most ``DENSE_REACH_STEPS`` widest sample spacings past the
    samples and raise ``ValueError`` beyond.

    The angle must decrease strictly from sample to sample (theta' = -2 f
    with f > 0); a profile that breaks this raises
    :class:`ProfileAngleError`, naming the first sample where it stops.
    """

    kind: str
    u: np.ndarray
    theta: np.ndarray
    f: np.ndarray
    psi: np.ndarray
    phi1: np.ndarray
    u0: float
    c: Optional[float] = None
    halt_reason: Optional[str] = None
    theta_error_estimate: Optional[float] = None

    def __post_init__(self):
        if self.kind not in (EXPLICIT, IMPLICIT):
            raise ValueError(f"unknown profile kind {self.kind!r}")
        for name in ("u", "theta", "f", "psi", "phi1"):
            column = np.asarray(getattr(self, name), dtype=float)
            bad = first_false(np.isfinite(column))
            if bad is not None:
                raise ValueError(f"profile {name} must be finite, got "
                                 f"{column[bad]:g} at sample {bad}")
            object.__setattr__(self, name, column)
        if not np.all(np.diff(self.u) > 0.0):
            raise ValueError("profile samples must have strictly increasing u")
        if self.kind == EXPLICIT:
            _require_domain(self.u)
        # written so that NaN fails
        if not np.all(self.f > 0.0):
            raise ValueError("profile mean curvature must stay positive")
        stalls = np.flatnonzero(~(np.diff(self.theta) < 0.0))
        if stalls.size:
            k = int(stalls[0])
            u_prev, u_stop = map(float, self.u[k:k + 2])
            t_prev, t_stop = map(float, self.theta[k:k + 2])
            raise ProfileAngleError(
                f"profile angle must decrease strictly, but it stops at "
                f"u = {u_stop!r}: theta = {t_stop!r} there and {t_prev!r} "
                f"at the previous sample u = {u_prev!r}"
                + ("; the two samples round to the same double"
                   if t_stop == t_prev else ""))
        if self.kind == IMPLICIT and not np.all(np.diff(self.f) > 0.0):
            raise ValueError("implicit profile requires increasing f "
                             "(theta'' < 0)")
        if self.kind == EXPLICIT:
            # c0 and G(u0) of the closed forms, computed once.
            object.__setattr__(self, "c0", psi_anchor(self.u0))
            object.__setattr__(self, "_g_u0", _phi1_primitive(self.u0))
        if self.kind == IMPLICIT:
            object.__setattr__(self, "c0", 0.0)
            # The Hermite slope of each column, from the ODE, computed once.
            phi1_slope, psi_slope = _first_order(self.theta, self.psi)
            slopes = {"theta": -2.0 * self.f,
                      "f": f_prime_implicit(self.theta, self.f),
                      "psi": psi_slope, "phi1": phi1_slope}
            object.__setattr__(self, "_slopes", slopes)
            # how far the dense evaluators extrapolate the end cubics
            object.__setattr__(self, "_reach", DENSE_REACH_STEPS * float(
                np.max(np.diff(self.u), initial=0.0)))

    # -- dense evaluation ------------------------------------------------
    # Each evaluator takes u as a float or as an array (one value per
    # entry).

    def _require_reach(self, u) -> None:
        if len(self.u) < 2:
            raise ValueError("need at least two samples for dense evaluation")
        bad = first_false(namespace(u).isfinite(u))
        if bad is not None:
            raise ValueError(f"implicit profile requires finite u, got "
                             f"u = {np.ravel(u)[bad]:g}")
        lo, hi = self.u[0] - self._reach, self.u[-1] + self._reach
        bad = first_false((u >= lo) & (u <= hi))
        if bad is not None:
            raise ValueError(
                f"implicit profile extrapolates at most {self._reach:g} past "
                f"its samples on [{self.u[0]:g}, {self.u[-1]:g}], got "
                f"u = {np.ravel(u)[bad]:g}")

    def _dense(self, u, *columns: str):
        # the Hermite interpolants of the named columns at u, after one
        # check of u
        self._require_reach(u)
        values = (hermite_eval(u, self.u, getattr(self, column),
                               self._slopes[column]) for column in columns)
        if isinstance(u, np.ndarray):
            return tuple(values)
        return tuple(float(value) for value in values)

    def state_at(self, u):
        """(theta, f, Psi) at u, from one check of u."""
        if self.kind == EXPLICIT:
            return _state_explicit(u, self.c0)
        return self._dense(u, "theta", "f", "psi")

    def phi1_at(self, u):
        if self.kind == EXPLICIT:
            return _phi1_explicit(u, self._g_u0, self.c0)
        return self._dense(u, "phi1")[0]

    def f_prime_at(self, u):
        if self.kind == EXPLICIT:
            return f_prime_explicit(u)
        return f_prime_implicit(*self._dense(u, "theta", "f"))

    def f_second_at(self, u):
        if self.kind == EXPLICIT:
            return f_second_explicit(u)
        return f_second_implicit(*self._dense(u, "theta", "f"))

    # -- derived columns -------------------------------------------------

    def gaussian_curvature(self) -> np.ndarray:
        """K = -cos^2 theta - 2 f sin theta at the samples; negative along
        every valid profile."""
        return -np.cos(self.theta) ** 2 - 2.0 * self.f * np.sin(self.theta)

    @property
    def samples(self) -> np.ndarray:
        """Array of rows (u, theta, f, Psi, Phi1)."""
        return np.column_stack((self.u, self.theta, self.f, self.psi,
                                self.phi1))


# The most samples one implicit profile holds: min(u*, u_span) / step above
# this raises.  It is 1000 times the 1500 samples of u_span 1.5 at step 1e-3.
MAX_MARCH_STEPS = 10 ** 6

# The 8-node Gauss-Legendre rule on [-1, 1] for the quadrature of u(theta)
# and the per-step quadratures of Psi and Phi1, and the Hermite basis at
# its nodes in a step's unit parameter t = (x + 1) / 2.  The values are
# numpy.polynomial.legendre.leggauss(8) exactly (tests compare them);
# calling it here would load numpy's LAPACK on import, which costs about
# 1 MB of resident memory.
_GAUSS_NODES = np.array([
    -0.9602898564975362, -0.7966664774136267, -0.525532409916329,
    -0.18343464249564978, 0.18343464249564978, 0.525532409916329,
    0.7966664774136267, 0.9602898564975362])
_GAUSS_WEIGHTS = np.array([
    0.10122853629037706, 0.22238103445337443, 0.3137066458778869,
    0.36268378337836166, 0.36268378337836166, 0.3137066458778869,
    0.22238103445337443, 0.10122853629037706])
_GAUSS_BASIS = hermite_basis(0.5 * (_GAUSS_NODES + 1.0))

# theta-panels of the quadrature u(theta) over the quadrant; the rule on
# half as many panels gives theta_error_estimate.  The integrand 1 / (2 f)
# is analytic there, and 16 panels already give u* to round-off.
_THETA_PANELS = 16
# Newton steps that polish theta(u_k) from its cubic guess on the panel
# edges.  In a sweep of 300 profiles over c in [1e-6, 1e6] the guess was
# off by at most 1e-5, the first step left 3e-11 and the second round-off.
_POLISH_STEPS = 2


def _gauss_nodes(lo: np.ndarray, hi: np.ndarray):
    """The Gauss nodes of every interval lo[k] -> hi[k], one row per
    interval, and the half-lengths (hi - lo) / 2, negative where hi < lo."""
    half = 0.5 * (hi - lo)
    return (0.5 * (lo + hi))[:, None] + half[:, None] * _GAUSS_NODES, half


def _reciprocal_quadrature(half: np.ndarray, f_nodes: np.ndarray) -> np.ndarray:
    """int dphi / (2 f) over each interval, from f at its Gauss nodes."""
    return half * ((0.5 / f_nodes) @ _GAUSS_WEIGHTS)


def _theta_samples(c: float, theta_start: float, u_span: float, step: float):
    """theta and f at the samples u_k = k step of the implicit profile.

    theta' = -2 f(theta; c) is autonomous, so the profile is the
    quadrature u(theta) = int_theta^theta_start dphi / (2 f(phi)).  One
    array :func:`solve_f` over the Gauss nodes of ``_THETA_PANELS``
    theta-panels, from the quadrant's edge (cos theta = 0) up to
    theta_start, gives u at the panel edges and the exact halt point
    u* = u(edge).  Sample k is kept iff k step < u*; a span shorter than
    u* adds one remainder sample at ``u_span``.  theta(u_k) starts from
    the cubic Hermite interpolant of the edge table (slope -2 f) and is
    polished by Newton's method on u(theta) = u_k,
    theta <- theta + (u(theta) - u_k) 2 f(theta), where u(theta) is the
    nearest edge's value plus one Gauss sum from that edge.

    Returns u, theta, f, the halt reason and the error estimate: the halt
    is ``angle_degenerate`` when u* < u_span and ``span_exhausted``
    otherwise.  The estimate is the larger of theta's share of the
    quadrature error, |u*(panels) - u*(panels / 2)| 2 max f, and the last
    Newton correction, which bounds what the polish leaves (each step
    squares the error, so the last correction is the error before it).
    A theta_start with sin theta <= 0 is off the solution branch, and
    :func:`solve_f` raises ``ValueError`` for it; one with sin theta > 0
    but cos theta >= 0 is outside the quadrant and gives one sample,
    halted, with no estimate.  More than ``MAX_MARCH_STEPS`` samples raise
    ``ValueError`` before any is computed.
    """
    f_start = solve_f(theta_start, c)  # refuses sin theta <= 0
    if math.cos(theta_start) >= 0.0:
        return (np.array([0.0]), np.array([theta_start]), np.array([f_start]),
                "angle_degenerate", None)

    # the quadrant holding theta_start is (edge, edge + pi / 2)
    edge = math.pi / 2.0 + 2.0 * math.pi * math.floor(
        (theta_start - math.pi / 2.0) / (2.0 * math.pi))
    ends = np.linspace(edge, theta_start, _THETA_PANELS + 1)
    fine, fine_half = _gauss_nodes(ends[:-1], ends[1:])
    coarse, coarse_half = _gauss_nodes(ends[:-1:2], ends[2::2])
    f_fine, f_coarse, f_ends = np.split(
        solve_f(np.concatenate((fine.ravel(), coarse.ravel(), ends)), c),
        (fine.size, fine.size + coarse.size))
    panels = _reciprocal_quadrature(fine_half, f_fine.reshape(fine.shape))
    # u at every panel edge, from u* at the quadrant's edge to 0 at the start
    u_ends = np.append(np.cumsum(panels[::-1])[::-1], 0.0)
    u_star = float(u_ends[0])
    coarse_star = float(np.sum(_reciprocal_quadrature(
        coarse_half, f_coarse.reshape(coarse.shape))))
    # theta moves by 2 f per unit of u
    estimate = abs(u_star - coarse_star) * 2.0 * float(np.max(f_ends))

    if min(u_star, u_span) / step > MAX_MARCH_STEPS:
        raise ValueError(
            f"step {step!r} is too small for u_span {u_span!r}: the "
            f"march would take more than {MAX_MARCH_STEPS} steps")
    n_full = math.floor(u_span / step + 1e-9)
    last = n_full if u_star >= u_span else min(n_full,
                                               math.ceil(u_star / step))
    targets = np.arange(1, last + 1) * step
    targets = targets[targets < u_star]
    if u_span < u_star and u_span - n_full * step > 1e-10 * step:
        targets = np.append(targets, u_span)
    reason = "angle_degenerate" if u_star < u_span else "span_exhausted"

    theta = hermite_eval(targets, u_ends[::-1], ends[::-1],
                         -2.0 * f_ends[::-1])
    width = (theta_start - edge) / _THETA_PANELS
    for _ in range(_POLISH_STEPS):
        nearest = np.clip(np.rint((theta - edge) / width).astype(int), 0,
                          _THETA_PANELS)
        nodes, half = _gauss_nodes(theta, ends[nearest])
        f_theta, f_nodes = np.split(
            solve_f(np.concatenate((theta, nodes.ravel())), c), (len(theta),))
        u_theta = u_ends[nearest] + _reciprocal_quadrature(
            half, f_nodes.reshape(nodes.shape))
        correction = (u_theta - targets) * 2.0 * f_theta
        theta = theta + correction
    f = solve_f(theta, c)
    if correction.size:
        estimate = max(estimate, float(np.max(np.abs(correction))))
    return (np.insert(targets, 0, 0.0), np.insert(theta, 0, theta_start),
            np.insert(f, 0, f_start), reason, estimate)


def _hermite_at_gauss_nodes(u: np.ndarray, values: np.ndarray,
                            slopes: np.ndarray) -> np.ndarray:
    """The Hermite cubic of every step u[k] -> u[k+1] at the Gauss nodes,
    one row per step."""
    h = np.diff(u)[:, None]
    h00, h10, h01, h11 = _GAUSS_BASIS
    return (h00 * values[:-1, None] + h10 * h * slopes[:-1, None]
            + h01 * values[1:, None] + h11 * h * slopes[1:, None])


def _cumulative_gauss(u: np.ndarray, integrand: np.ndarray) -> np.ndarray:
    """Running integral from u[0] of an integrand given at the Gauss nodes
    of every step."""
    half_steps = 0.5 * np.diff(u)
    return np.concatenate(([0.0],
                           np.cumsum(half_steps * (integrand @ _GAUSS_WEIGHTS))))


def integrate_implicit_profile(c: float, theta_start: float, u_span: float,
                               step: float = 1e-3) -> ProfileSolution:
    """Integrate one implicit-family profile from theta(0) = theta_start.

    The angle obeys the autonomous ODE theta' = -2 f(theta; c), so the
    profile is the quadrature u(theta) = int_theta^theta_start
    dphi / (2 f(phi)), inverted at the samples u_k = k ``step`` by array
    Newton steps (see :func:`_theta_samples`); f comes from the
    logarithmic root solve of the implicit relation at every sample, so
    each returned sample satisfies the relation to solver precision.
    ``theta_error_estimate`` bounds theta's error by the difference of
    the quadrature on half as many panels and by the last Newton
    correction.  The profile stops at ``u_span`` (``span_exhausted``) or
    where the angle leaves the quadrant (``angle_degenerate``), whichever
    comes first; the reason is recorded in ``halt_reason``.  A
    ``theta_start`` with sin theta > 0 and cos theta >= 0 is already past
    the quadrant and gives one ``angle_degenerate`` sample; one with
    sin theta <= 0 raises ``ValueError``, as :func:`solve_f` does.

    The quadratures Psi = int cos(theta) and Phi1 = -int sin(theta) e^{Psi}
    are anchored to zero at u = 0 and integrated over every step with an
    8-node Gauss-Legendre rule on the Hermite cubics of theta (slope -2 f)
    and of Psi (slope cos theta), the same cubics the dense evaluators use.

    ``u_span`` and ``step`` must be finite and positive, with a finite
    ratio ``u_span / step``, and ``c`` and ``theta_start`` finite
    (:func:`solve_f` checks them); otherwise ``ValueError`` is raised,
    naming the argument.  So is a profile of more than
    ``MAX_MARCH_STEPS`` samples, that is min(u*, u_span) / step above it,
    where u* is where the angle leaves the quadrant.
    """
    # Written so that NaN fails too: every comparison with NaN is false.
    if not 0.0 < u_span < math.inf:
        raise ValueError(f"u_span must be finite and positive, got {u_span!r}")
    if not 0.0 < step < math.inf:
        raise ValueError(f"step must be finite and positive, got {step!r}")
    if not math.isfinite(u_span / step):
        raise ValueError(f"step {step!r} is too small for u_span {u_span!r}: "
                         f"the step count overflows")
    u, theta, f, reason, estimate = _theta_samples(c, theta_start, u_span,
                                                   step)
    theta_nodes = _hermite_at_gauss_nodes(u, theta, -2.0 * f)
    psi = _cumulative_gauss(u, np.cos(theta_nodes))
    psi_nodes = _hermite_at_gauss_nodes(u, psi, np.cos(theta))
    phi1 = _cumulative_gauss(u, -np.sin(theta_nodes) * np.exp(psi_nodes))

    return ProfileSolution(kind=IMPLICIT, u=u, theta=theta, f=f, psi=psi,
                           phi1=phi1, u0=0.0, c=c,
                           halt_reason=reason, theta_error_estimate=estimate)


def build_profile(kind: str, u_grid: Sequence[float],
                  c: Optional[float] = None, u0: Optional[float] = None,
                  theta_start: Optional[float] = None,
                  step: float = 1e-3) -> ProfileSolution:
    """Sample a profile of either kind on a parameter grid.

    Parameters
    ----------
    kind:
        ``"explicit"`` or ``"implicit"``.
    c, theta_start, step:
        Implicit-kind inputs (ignored for the explicit kind).
    u_grid:
        Strictly increasing sample points; in the domain
        EXPLICIT_U_MIN <= u < 0 for the explicit kind, nonnegative for the
        implicit one.
    u0:
        Quadrature anchor with Psi(u0) = Phi1(u0) = 0.  Defaults to -1 for
        the explicit kind and to the first grid point for the implicit
        kind.

    Explicit samples come from the closed forms, the same values the dense
    evaluators return: Psi from :func:`psi_explicit` and Phi1 from the
    hypergeometric form in the module docstring, so no quadrature runs and
    no error accumulates across the grid.  Implicit samples are the
    integrated profile's dense values, shifted to vanish at the anchor.
    """
    grid = np.asarray(u_grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 2:
        raise ValueError("u_grid must contain at least two points")
    if not np.all(np.diff(grid) > 0.0):
        raise ValueError("u_grid must be strictly increasing")

    if kind == EXPLICIT:
        anchor = -1.0 if u0 is None else float(u0)
        # the closed forms refuse u outside the domain, the anchor's in
        # psi_anchor before Phi1 reads it
        c0, g0 = psi_anchor(anchor), _phi1_primitive(anchor)
        # Each transcendental call is a float call per sample (numpy's can
        # round differently from math's in the last place, and each sample
        # must be the dense evaluators' float value at its u, bit for bit,
        # so that Phi1(u0) = 0 exactly); the Pfaff series and Phi1's
        # scaling, *, + and / alone, are one array pass.  _state_explicit
        # checks each sample's domain, which the Pfaff factors then share.
        theta, f, psi, *factors = np.array([
            (*_state_explicit(x, c0), *_pfaff_factors(x))
            for x in grid.tolist()]).T
        phi1 = _phi1_from(_pfaff_sum(*factors), g0, c0)
        return ProfileSolution(kind=EXPLICIT, u=grid, theta=theta, f=f,
                               psi=psi, phi1=phi1, u0=anchor)

    if kind == IMPLICIT:
        if c is None or theta_start is None:
            raise ValueError("implicit profiles need c and theta_start")
        if grid[0] < 0.0:
            raise ValueError("implicit profiles are integrated forward "
                             "from u = 0")
        full = integrate_implicit_profile(c, theta_start, float(grid[-1]),
                                          step)
        usable = grid[grid <= full.u[-1] + 1e-12]
        if len(usable) < 2:
            raise ValueError(
                f"integration halted at u = {full.u[-1]:g} "
                f"({full.halt_reason}); grid not covered")
        anchor = float(usable[0]) if u0 is None else float(u0)
        if not full.u[0] <= anchor <= full.u[-1]:
            raise ValueError("anchor u0 outside the integrated span")
        theta, f, psi = full.state_at(usable)
        psi = psi - full.state_at(anchor)[2]
        phi1 = full.phi1_at(usable) - full.phi1_at(anchor)
        return ProfileSolution(kind=IMPLICIT, u=usable, theta=theta, f=f,
                               psi=psi, phi1=phi1, u0=anchor, c=c,
                               halt_reason=full.halt_reason,
                               theta_error_estimate=full.theta_error_estimate)

    raise ValueError(f"unknown profile kind {kind!r}")


def _layout(variant: str):
    """Place (Phi1, Psi, v) in ambient coordinates for one variant.

    The one statement of the x1/x2 layout: the immersion, its u-partials
    (with v = 0) and the mesh rows of :func:`family_rows` (with v = None)
    all go through it.

    Raises
    ------
    ValueError
        If ``variant`` is neither ``"x1"`` nor ``"x2"``.
    """
    if variant == "x1":
        return lambda phi1, psi, v: (v, phi1, psi)
    if variant == "x2":
        return lambda phi1, psi, v: (phi1, v, -psi)
    raise ValueError(f"unknown surface variant {variant!r}")


def family_surface(profile: ProfileSolution, variant: str) -> SurfacePatch:
    """Build one immersion variant over ``profile.u`` x (-1, 1).

    Variant ``x1`` is (u, v) -> (v, Phi1(u), Psi(u)); its tangent frame
    contains the first horizontal frame field.  Variant ``x2`` is the
    image of x1 under the ambient isometry (x, y, z) -> (y, x, -z), i.e.
    (u, v) -> (Phi1(u), v, -Psi(u)); the swap also flips the sign case of
    the scalar profile ODE, so x2 reuses this profile's Phi1 and Psi
    through the reflection.

    All first and second partials and the mean curvature f(u) come from
    the profile's derivative relations, written here once: with
    theta' = -2 f, Psi' = cos theta, Phi1' = -sin theta e^{Psi},
    Psi'' = 2 f sin theta and Phi1'' = e^{Psi} cos theta (2 f - sin theta).
    Every read of theta, f or Psi is one :meth:`ProfileSolution.state_at`
    call, which checks u once.  One call of the patch's ``partials`` makes
    one, and returns the height z (Psi, signed by the layout) beside the
    five partials, so no record evaluates Phi1; only the immersion does,
    beside its own read of Psi.  The mean-curvature field reads f from
    ``state_at`` and f' and f'' from the profile's own evaluators.
    On an explicit profile the patch, like the closed forms it reads,
    raises ``ValueError`` at u outside EXPLICIT_U_MIN <= u < 0.
    """
    place = _layout(variant)
    ruling = (1.0, 0.0, 0.0) if variant == "x1" else (0.0, 1.0, 0.0)
    domain = ((float(profile.u[0]), float(profile.u[-1])), (-1.0, 1.0))
    zero = (0.0, 0.0, 0.0)

    def partials(u, v):
        theta, f, psi = profile.state_at(u)
        xp = namespace(theta)
        sin, cos, e = xp.sin(theta), xp.cos(theta), xp.exp(psi)
        d_uu = place(e * cos * (2.0 * f - sin), 2.0 * f * sin, 0.0)
        height = place(0.0, psi, 0.0)[2]
        return (height, place(-sin * e, cos, 0.0), ruling, d_uu, zero, zero)

    f_field = ScalarField(
        value=lambda u, v: profile.state_at(u)[1],
        first_partials=lambda u, v: (profile.f_prime_at(u), 0.0),
        second_partials=lambda u, v: (profile.f_second_at(u), 0.0, 0.0))
    return SurfacePatch(
        immersion=lambda u, v: place(profile.phi1_at(u),
                                     profile.state_at(u)[2], v),
        partials=partials,
        mean_curvature=f_field, domain=domain,
        name=f"family_{variant}_{profile.kind}")


def family_rows(profile: ProfileSolution, variant: str
                ) -> Iterator[Tuple[Optional[float], ...]]:
    """Stream the grid rows of one immersion variant, one per ``profile.u``
    sample: the point's coordinates read from the profile's Phi1 and Psi
    samples, with ``None`` in the ruling slot that v fills.

    Filling the slot with v gives
    ``family_surface(profile, variant).immersion(u, v)`` at a sample u
    exactly, its constant coordinates filled like u, without evaluating
    the profile again.
    """
    place = _layout(variant)
    return (place(phi1, psi, None)
            for phi1, psi in zip(profile.phi1.tolist(), profile.psi.tolist()))


def profile_to_csv(profile: ProfileSolution) -> str:
    """The CSV text of a profile, with columns u, theta, f, Psi, Phi, K.

    Phi is the first-variant quadrature Phi1; K is the closed-form
    Gaussian curvature.  Values are written with 12 fixed decimals, -0.0
    as 0.0, so identical inputs give byte-identical text.  Implicit
    profiles append footer comments recording the halt reason and the
    error estimate for theta (see :func:`integrate_implicit_profile`).
    Lines end in ``\n``; writing the text to a file is the caller's
    (``solgeo profile --output``).
    """
    # + 0.0 turns -0.0 into 0.0
    rows = np.column_stack((profile.samples,
                            profile.gaussian_curvature())) + 0.0
    template = ",".join(["%.12f"] * 6)
    lines = ["u,theta,f,Psi,Phi,K"]
    lines.extend(template % tuple(row) for row in rows.tolist())
    if profile.kind == IMPLICIT:
        lines.append(f"# halt_reason: {profile.halt_reason}")
        if profile.theta_error_estimate is not None:
            lines.append(f"# theta_error_estimate: "
                         f"{profile.theta_error_estimate:.3e}")
    return "\n".join(lines) + "\n"
