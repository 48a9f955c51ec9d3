"""Exact integer polynomial arithmetic for the nonexistence argument.

The CMC analysis reduces to a pair of integer polynomials in the ratio
g = f / sin(theta).  Differentiating the constraints along the profile
produces the combination

    2 (3 g + 1) P1 P2 + (3 g^2 + g - 1) (P1 P2' - P2 P1')

whose degree-9 terms cancel identically, leaving a nonzero degree-8
polynomial that g would have to satisfy pointwise.  A polynomial of
degree 8 has finitely many roots, so g would be locally constant, which
contradicts g' != 0; the real roots in (0, inf) are isolated here only to
document that none of them rescues the equation.  All arithmetic is exact
integer arithmetic: roots are isolated on a Sturm chain of integer
pseudo-remainders, and Fractions appear only as the bisection points, so
the conclusion does not rest on floating point.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

__all__ = [
    "IntPolynomial",
    "obstruction_quintic",
    "obstruction_cubic",
    "nonexistence_addends",
    "nonexistence_combination",
    "real_roots_interval",
    "coefficients_as_strings",
]


@dataclass(frozen=True)
class IntPolynomial:
    """Polynomial with integer coefficients, ascending order.

    ``coefficients[k]`` multiplies g^k.  Trailing zeros are stripped on
    construction; the zero polynomial keeps a single 0 and reports
    degree -1.
    """

    coefficients: Tuple[int, ...]

    def __init__(self, coefficients: Sequence[int]):
        # operator.index rejects floats instead of silently truncating
        coeffs = [int(operator.index(c)) for c in coefficients]
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        if not coeffs:
            coeffs = [0]
        object.__setattr__(self, "coefficients", tuple(coeffs))

    @property
    def degree(self) -> int:
        if self.coefficients == (0,):
            return -1
        return len(self.coefficients) - 1

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        n = max(len(self.coefficients), len(other.coefficients))
        out = [0] * n
        for i, c in enumerate(self.coefficients):
            out[i] += c
        for i, c in enumerate(other.coefficients):
            out[i] += c
        return IntPolynomial(out)

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + other.scale(-1)

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        out = [0] * (len(self.coefficients) + len(other.coefficients) - 1)
        for i, a in enumerate(self.coefficients):
            if a == 0:
                continue
            for j, b in enumerate(other.coefficients):
                out[i + j] += a * b
        return IntPolynomial(out)

    def scale(self, factor: int) -> "IntPolynomial":
        return IntPolynomial([factor * c for c in self.coefficients])

    def derivative(self) -> "IntPolynomial":
        if self.degree <= 0:
            return IntPolynomial([0])
        return IntPolynomial([k * c for k, c in
                              enumerate(self.coefficients)][1:])

    def evaluate(self, x):
        """Horner evaluation; exact for int/Fraction x, and usable with
        float or ``decimal.Decimal`` arguments (the latter to the current
        decimal context's precision)."""
        acc = self.coefficients[-1] * (x ** 0)
        for c in reversed(self.coefficients[:-1]):
            acc = acc * x + c
        return acc

    def __call__(self, x):
        return self.evaluate(x)


def obstruction_quintic() -> IntPolynomial:
    """The degree-5 compatibility polynomial
    100 g^5 + 216 g^4 + 324 g^3 + 166 g^2 + 32 g + 6."""
    return IntPolynomial([6, 32, 166, 324, 216, 100])


def obstruction_cubic() -> IntPolynomial:
    """The degree-3 relation polynomial 36 g^3 - 6 g^2 - 12 g + 2."""
    return IntPolynomial([2, -12, -6, 36])


def nonexistence_addends() -> Tuple[IntPolynomial, IntPolynomial]:
    """The two addends 2 (3g + 1) P1 P2 and (3g^2 + g - 1) (P1 P2' - P2 P1')
    of the combination, each of degree 9."""
    p1 = obstruction_quintic()
    p2 = obstruction_cubic()
    linear = IntPolynomial([2, 6])            # 2 (3g + 1)
    quadratic = IntPolynomial([-1, 1, 3])     # 3g^2 + g - 1
    wronskian = p1 * p2.derivative() - p2 * p1.derivative()
    return linear * p1 * p2, quadratic * wronskian


def nonexistence_combination() -> IntPolynomial:
    """2 (3g + 1) P1 P2 + (3g^2 + g - 1) (P1 P2' - P2 P1').

    Formed literally from the two obstruction polynomials with no overall
    rescaling.  The degree-9 terms cancel identically, leaving degree 8.
    """
    term_a, term_b = nonexistence_addends()
    return term_a + term_b


def _primitive(p: IntPolynomial) -> IntPolynomial:
    """p divided by the positive gcd of its coefficients."""
    content = math.gcd(*p.coefficients) or 1
    return IntPolynomial([c // content for c in p.coefficients])


def _pseudo_divmod(a: IntPolynomial,
                   b: IntPolynomial) -> Tuple[IntPolynomial, IntPolynomial]:
    """Primitive (q, r) with m a = q b + r, deg r < deg b, for an integer
    m > 0.

    Each step scales the running remainder by |lead(b)|, so no fraction
    arises and q and r keep the signs of the true quotient and remainder.
    """
    lead = b.coefficients[-1]
    scale, sign = abs(lead), (1 if lead > 0 else -1)
    rem = list(a.coefficients)
    quot = [0] * max(1, len(rem) - b.degree)
    for shift in range(len(rem) - 1 - b.degree, -1, -1):
        top = sign * rem.pop()
        if top:
            rem = [scale * c for c in rem]
            quot = [scale * c for c in quot]
            quot[shift] += top
            for i, c in enumerate(b.coefficients[:-1]):
                rem[shift + i] -= top * c
    return _primitive(IntPolynomial(quot)), _primitive(IntPolynomial(rem))


def _sturm_chain(p: IntPolynomial) -> List[IntPolynomial]:
    """p, p' and the negated pseudo-remainders, each divided by their last
    member gcd(p, p'): a Sturm chain for the square-free part of p."""
    chain = [p, p.derivative()]
    while chain[-1].degree > 0:
        rem = _pseudo_divmod(chain[-2], chain[-1])[1]
        if rem.degree < 0:
            break
        chain.append(rem.scale(-1))
    gcd = chain[-1]
    if gcd.degree > 0:
        chain = [_pseudo_divmod(member, gcd)[0] for member in chain]
    return chain


def _sign_variations(chain: List[IntPolynomial], x: Fraction) -> int:
    """Sign changes along the chain at x = n/d, each sign read from the
    integer p(n/d) d^deg p."""
    n, d = x.numerator, x.denominator
    signs = []
    for member in chain:
        acc, d_power = 0, 1
        for c in reversed(member.coefficients):
            acc = acc * n + c * d_power
            d_power *= d
        if acc:
            signs.append(acc > 0)
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _finite_fraction(name: str, value) -> Fraction:
    try:
        return Fraction(value)
    except (ValueError, OverflowError):
        raise ValueError(f"{name} must be a finite number, got "
                         f"{value!r}") from None


def real_roots_interval(poly: IntPolynomial, lo, hi,
                        max_width=Fraction(1, 1024)) -> List[Tuple[Fraction, Fraction]]:
    """Isolating intervals for the distinct real roots in (lo, hi].

    Sturm's theorem on an integer pseudo-remainder chain, with exact signs
    at the Fraction bisection points; each returned half-open interval
    (a, b] contains exactly one root and has width at most ``max_width``,
    in increasing order.  An empty list is a proof of no roots in range.
    The bisection runs on an explicit stack, so any positive width ends;
    ``ValueError`` unless ``lo < hi`` are finite and ``max_width > 0``.
    """
    lo, hi = _finite_fraction("lo", lo), _finite_fraction("hi", hi)
    if hi <= lo:
        raise ValueError("need lo < hi")
    if not max_width > 0:
        raise ValueError(f"max_width must be positive, got {max_width!r}")
    chain = _sturm_chain(poly)
    out: List[Tuple[Fraction, Fraction]] = []
    # (a, sign variations at a, b, sign variations at b), the leftmost
    # interval on top
    stack = [(lo, _sign_variations(chain, lo),
              hi, _sign_variations(chain, hi))]
    while stack:
        a, va, b, vb = stack.pop()
        if va == vb:
            continue
        if va - vb == 1 and b - a <= max_width:
            out.append((a, b))
            continue
        mid = (a + b) / 2
        vm = _sign_variations(chain, mid)
        stack += [(mid, vm, b, vb), (a, va, mid, vm)]
    return out


def coefficients_as_strings(poly: IntPolynomial) -> List[str]:
    """Ascending coefficients as decimal strings, for JSON payloads that
    must not pass through floating point."""
    return [str(c) for c in poly.coefficients]
