import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from solgeo.exact_poly import (IntPolynomial, coefficients_as_strings,
                               nonexistence_addends, nonexistence_combination,
                               obstruction_cubic, obstruction_quintic,
                               real_roots_interval)

coeff_lists = st.lists(st.integers(min_value=-50, max_value=50), min_size=0,
                       max_size=6)


def poly(coeffs):
    return IntPolynomial(coeffs)


@given(coeff_lists, coeff_lists)
def test_addition_commutes(a, b):
    assert poly(a) + poly(b) == poly(b) + poly(a)


@given(coeff_lists, coeff_lists)
def test_multiplication_commutes(a, b):
    assert poly(a) * poly(b) == poly(b) * poly(a)


@given(coeff_lists, coeff_lists, coeff_lists)
def test_distributive(a, b, c):
    assert poly(a) * (poly(b) + poly(c)) == poly(a) * poly(b) \
        + poly(a) * poly(c)


@given(coeff_lists, coeff_lists)
def test_degree_of_product(a, b):
    pa, pb = poly(a), poly(b)
    if pa.degree >= 0 and pb.degree >= 0:
        assert (pa * pb).degree == pa.degree + pb.degree


@given(coeff_lists, coeff_lists)
def test_derivative_product_rule(a, b):
    pa, pb = poly(a), poly(b)
    assert (pa * pb).derivative() == pa.derivative() * pb \
        + pa * pb.derivative()


@given(coeff_lists, st.integers(min_value=-5, max_value=5))
def test_evaluate_matches_direct_sum(a, x):
    direct = sum(c * x ** k for k, c in enumerate(a))
    assert poly(a).evaluate(x) == direct


def test_trailing_zeros_stripped():
    assert IntPolynomial([1, 2, 0, 0]).coefficients == (1, 2)
    assert IntPolynomial([0, 0]).coefficients == (0,)
    assert IntPolynomial([]).degree == -1
    assert IntPolynomial([0]).degree == -1
    assert IntPolynomial([7]).degree == 0


def test_rejects_non_integer():
    with pytest.raises(TypeError):
        IntPolynomial([1.5, 2])


def test_scale_and_subtract():
    p = IntPolynomial([1, -2, 3])
    assert p.scale(-2) == IntPolynomial([-2, 4, -6])
    assert p - p == IntPolynomial([])
    assert p - p == IntPolynomial([0])


def test_evaluate_fraction_and_float():
    p = IntPolynomial([1, 0, -1])  # 1 - x^2
    assert p.evaluate(Fraction(1, 2)) == Fraction(3, 4)
    assert p(0.5) == pytest.approx(0.75)


def test_known_polynomials():
    assert obstruction_quintic().coefficients == (6, 32, 166, 324, 216, 100)
    assert obstruction_cubic().coefficients == (2, -12, -6, 36)
    assert obstruction_quintic().evaluate(1) == 844
    assert obstruction_cubic().evaluate(1) == 20


def test_combination_exact_coefficients():
    combo = nonexistence_combination()
    assert combo.degree == 8
    assert combo.coefficients == (160, 656, -1872, -13224, -19352, 15840,
                                  85632, 92760, 25128)


def test_combination_degree_nine_cancels():
    p1 = obstruction_quintic()
    p2 = obstruction_cubic()
    term_a = IntPolynomial([2, 6]) * p1 * p2
    term_b = IntPolynomial([-1, 1, 3]) \
        * (p1 * p2.derivative() - p2 * p1.derivative())
    assert term_a.degree == 9 and term_b.degree == 9
    assert term_a.coefficients[9] == 21600
    assert term_b.coefficients[9] == -21600
    assert (term_a + term_b).degree == 8
    assert nonexistence_addends() == (term_a, term_b)
    assert term_a + term_b == nonexistence_combination()


def test_root_isolation_simple():
    p = IntPolynomial([-2, 0, 1])  # x^2 - 2
    roots = real_roots_interval(p, Fraction(0), Fraction(2))
    assert len(roots) == 1
    a, b = roots[0]
    assert a < Fraction(1414214, 1000000) < b


def test_root_isolation_no_roots():
    p = IntPolynomial([1, 0, 1])  # x^2 + 1
    assert real_roots_interval(p, Fraction(0), Fraction(10)) == []


def test_root_isolation_repeated_root_found_once():
    # (x - 1)^2 (x - 3)
    p = IntPolynomial([-3, 7, -5, 1])
    roots = real_roots_interval(p, Fraction(0), Fraction(4))
    assert len(roots) == 2
    assert roots[0][0] < 1 <= roots[0][1]
    assert roots[1][0] < 3 <= roots[1][1]


def test_root_isolation_interval_width():
    p = IntPolynomial([-2, 0, 1])
    roots = real_roots_interval(p, Fraction(0), Fraction(2),
                                max_width=Fraction(1, 4096))
    a, b = roots[0]
    assert b - a <= Fraction(1, 4096)


def test_root_isolation_edges_of_half_open_range():
    # (x - 1)^2 (x - 2): on (0, 2] the root 1 is the first bisection
    # midpoint and is reported once, and the root 2 at hi is included
    p = IntPolynomial([-2, 5, -4, 1])
    roots = real_roots_interval(p, 0, 2)
    assert len(roots) == 2
    assert roots[0][0] < 1 <= roots[0][1]
    assert roots[1][0] < 2 <= roots[1][1] == 2
    # on (1, 3] the root at lo is excluded
    roots = real_roots_interval(p, 1, 3)
    assert len(roots) == 1
    assert roots[0][0] < 2 <= roots[0][1]


@pytest.mark.parametrize("max_width", [0, -1, math.nan])
def test_root_isolation_rejects_nonpositive_width(max_width):
    p = IntPolynomial([-2, 0, 1])
    with pytest.raises(ValueError, match="^max_width must be positive"):
        real_roots_interval(p, 0, 2, max_width)


@pytest.mark.parametrize("lo,hi,name", [
    (math.nan, 2, "lo"), (-math.inf, 2, "lo"), (0, math.nan, "hi"),
    (0, math.inf, "hi")])
def test_root_isolation_rejects_infinite_bounds(lo, hi, name):
    p = IntPolynomial([-2, 0, 1])
    with pytest.raises(ValueError, match=f"^{name} must be a finite number"):
        real_roots_interval(p, lo, hi)


def test_root_isolation_rejects_an_empty_range():
    with pytest.raises(ValueError, match=r"^need lo < hi$"):
        real_roots_interval(IntPolynomial([-1, 1]), 1, 1)


def test_root_isolation_reaches_any_positive_width():
    # about a thousand bisections, past any recursion limit
    p = IntPolynomial([-2, 0, 1])
    for max_width in (1e-300, Fraction(1, 2 ** 1100)):
        (a, b), = real_roots_interval(p, 0, 2, max_width)
        assert 0 < b - a <= max_width
        assert a * a < 2 <= b * b


linear_factors = st.tuples(st.integers(min_value=1, max_value=6),
                           st.integers(min_value=-12, max_value=12),
                           st.booleans())


@given(st.lists(linear_factors, min_size=1, max_size=4),
       st.integers(min_value=-8, max_value=4),
       st.integers(min_value=1, max_value=12),
       st.sampled_from([Fraction(1, 4), Fraction(1, 64), Fraction(1, 1024)]))
def test_root_isolation_products_of_linear_factors(factors, lo, span,
                                                   max_width):
    # each factor is a x - b, squared when the flag is set
    p = IntPolynomial([1])
    for a, b, squared in factors:
        p = p * IntPolynomial([-b, a])
        if squared:
            p = p * IntPolynomial([-b, a])
    lo, hi = Fraction(lo), Fraction(lo + span)
    inside = sorted({Fraction(b, a) for a, b, _ in factors
                     if lo < Fraction(b, a) <= hi})
    roots = real_roots_interval(p, lo, hi, max_width)
    assert len(roots) == len(inside)
    for (a, b), root in zip(roots, inside):
        assert 0 < b - a <= max_width
        assert [r for r in inside if a < r <= b] == [root]


def test_combination_positive_roots():
    combo = nonexistence_combination()
    roots = real_roots_interval(combo, Fraction(0), Fraction(3))
    assert len(roots) == 2
    assert roots[0][0] < Fraction(2384, 10000) < roots[0][1]
    assert roots[1][0] < Fraction(5137, 10000) < roots[1][1]


def test_coefficients_as_strings():
    assert coefficients_as_strings(IntPolynomial([1, -2, 30])) \
        == ["1", "-2", "30"]
