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
(ints and Fractions), so the conclusion does not rest on floating point.
"""

from __future__ import annotations

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


def _sturm_chain(p: List[Fraction]) -> List[List[Fraction]]:
    chain = [p]
    deriv = [k * c for k, c in enumerate(p)][1:]
    if deriv:
        chain.append(deriv)
    while len(chain[-1]) > 1:
        r = [-c for c in _poly_divmod(chain[-2], chain[-1])[1]]
        if all(c == 0 for c in r):
            break
        chain.append(r)
    return chain


def _eval_chain(chain, x: Fraction) -> int:
    signs = []
    for poly in chain:
        acc = Fraction(0)
        for c in reversed(poly):
            acc = acc * x + c
        if acc != 0:
            signs.append(1 if acc > 0 else -1)
    count = 0
    for a, b in zip(signs, signs[1:]):
        if a != b:
            count += 1
    return count


def _squarefree(coeffs: List[Fraction]) -> List[Fraction]:
    # Divide out gcd(p, p') so Sturm counts distinct roots.
    def poly_gcd(a, b):
        while any(c != 0 for c in b):
            r = _poly_divmod(a, b)[1]
            a, b = b, r if any(c != 0 for c in r) else [Fraction(0)]
        return a

    deriv = [k * c for k, c in enumerate(coeffs)][1:]
    if not deriv:
        return coeffs
    g = poly_gcd(coeffs, deriv)
    if len(g) == 1:
        return coeffs
    out, rem = _poly_divmod(coeffs, g)
    assert all(c == 0 for c in rem)
    return out


def _poly_divmod(a: List[Fraction], b: List[Fraction]):
    a = a[:]
    q = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    while len(a) >= len(b) and any(a):
        if a[-1] == 0:
            a.pop()
            continue
        shift = len(a) - len(b)
        factor = a[-1] / b[-1]
        q[shift] += factor
        for i, c in enumerate(b):
            a[i + shift] -= factor * c
        while len(a) > 1 and a[-1] == 0:
            a.pop()
    return q, a


def real_roots_interval(poly: IntPolynomial, lo, hi,
                        max_width=Fraction(1, 1024)) -> List[Tuple[Fraction, Fraction]]:
    """Isolating intervals for the distinct real roots in (lo, hi].

    Sturm's theorem with exact Fraction arithmetic; each returned
    half-open interval (a, b] contains exactly one root and has width at
    most ``max_width``.  An empty list is a proof of no roots in range.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    if hi <= lo:
        raise ValueError("need lo < hi")
    coeffs = _squarefree([Fraction(c) for c in poly.coefficients])
    chain = _sturm_chain(coeffs)

    def count(a: Fraction, b: Fraction) -> int:
        return _eval_chain(chain, a) - _eval_chain(chain, b)

    out: List[Tuple[Fraction, Fraction]] = []

    def split(a: Fraction, b: Fraction, n: int):
        if n == 0:
            return
        if n == 1 and b - a <= max_width:
            out.append((a, b))
            return
        mid = (a + b) / 2
        left = count(a, mid)
        split(a, mid, left)
        split(mid, b, n - left)

    split(lo, hi, count(lo, hi))
    return sorted(out)


def coefficients_as_strings(poly: IntPolynomial) -> List[str]:
    """Ascending coefficients as decimal strings, for JSON payloads that
    must not pass through floating point."""
    return [str(c) for c in poly.coefficients]
