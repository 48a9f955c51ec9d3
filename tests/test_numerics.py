import ast
import math
from pathlib import Path

import numpy as np
import pytest

import solgeo
from solgeo.numerics import (_FLOAT_MATH, EXP_MAX, central_diff,
                             first_false, hermite_basis, hermite_eval,
                             namespace, stencil_points, stencil_rates)

PACKAGE_DIR = Path(solgeo.__file__).parent


def test_central_diff_scalar():
    assert abs(central_diff(math.sin, 0.7, 1e-5) - math.cos(0.7)) < 1e-10


def test_central_diff_vector_valued():
    out = central_diff(lambda t: np.array([t ** 2, t ** 3]), 2.0, 1e-5)
    assert np.allclose(out, [4.0, 12.0], atol=1e-9)


@pytest.mark.parametrize("shape", [(5,), (5, 3)])
def test_stencil_rates_are_the_split_differences(shape):
    # the four blocks by slicing give the bits of np.split's blocks
    step = 1e-5
    values = np.random.default_rng(3).normal(size=(4 * shape[0],) + shape[1:])
    east, west, north, south = np.split(values, 4)
    d_u, d_v = stencil_rates(values, step)
    assert d_u.shape == d_v.shape == shape
    assert np.array_equal(d_u, (east - west) / (2.0 * step))
    assert np.array_equal(d_v, (north - south) / (2.0 * step))
    # and they difference a field sampled at stencil_points
    u, v = np.linspace(-1.0, 1.0, 5), np.linspace(0.0, 2.0, 5)
    s, t = stencil_points(u, v, step)
    d_u, d_v = stencil_rates(s * s + 3.0 * t, step)
    assert np.allclose(d_u, 2.0 * u, rtol=0.0, atol=1e-9)
    assert np.allclose(d_v, 3.0, rtol=0.0, atol=1e-9)


def test_hermite_basis_array_matches_scalar():
    t = np.linspace(0.0, 1.0, 11)
    columns = hermite_basis(t)
    for k, tk in enumerate(t):
        assert tuple(col[k] for col in columns) == hermite_basis(float(tk))
    h00, h10, h01, h11 = columns
    assert np.allclose(h00 + h01, 1.0, rtol=0.0, atol=1e-15)


def test_hermite_eval_reproduces_cubics():
    nodes = np.linspace(0.0, 2.0, 9)
    values = nodes ** 3 - nodes
    slopes = 3 * nodes ** 2 - 1
    for x in np.linspace(0.05, 1.95, 31):
        assert abs(hermite_eval(x, nodes, values, slopes)
                   - (x ** 3 - x)) < 1e-12


def test_hermite_eval_hits_nodes():
    nodes = np.array([0.0, 0.5, 1.3])
    values = np.array([2.0, -1.0, 0.25])
    slopes = np.zeros(3)
    for node, value in zip(nodes, values):
        assert hermite_eval(node, nodes, values, slopes) == pytest.approx(
            value, abs=1e-15)


def test_first_false_names_the_first_miss_and_fails_nan():
    assert first_false(True) is None and first_false(False) == 0
    assert first_false(np.array([1.0, 2.0]) > 0.0) is None
    assert first_false(np.array([1.0, -1.0, math.nan]) > 0.0) == 1
    assert first_false(np.array([1.0, math.nan, -1.0]) > 0.0) == 1


def test_exp_max_is_the_largest_exponent_whose_exp_is_a_double():
    # e^x, e^{-x} and 1 / e^x are finite at |x| = EXP_MAX, by libm and by
    # numpy (e^{-x} is subnormal), and e^x overflows one ulp further out
    with np.errstate(over="raise", divide="raise"):
        for exp in (math.exp, np.exp):
            assert math.isfinite(exp(EXP_MAX))
            assert 0.0 < exp(-EXP_MAX) and math.isfinite(1.0 / exp(-EXP_MAX))
        with pytest.raises(FloatingPointError):
            np.exp(math.nextafter(EXP_MAX, math.inf))
    with pytest.raises(OverflowError):
        math.exp(math.nextafter(EXP_MAX, math.inf))


class _Subclass(np.ndarray):
    pass


@pytest.mark.parametrize("x", [0.5, 3, np.float64(0.5)],
                         ids=["float", "int", "float64"])
def test_namespace_of_a_scalar_is_math(x):
    assert namespace(x) is _FLOAT_MATH


@pytest.mark.parametrize("x", [np.array([0.5, 1.5]),
                               np.array([0.5, 1.5]).view(_Subclass)],
                         ids=["array", "subclass"])
def test_namespace_of_an_array_is_numpy(x):
    assert namespace(x) is np


def _picked(node) -> bool:
    # a namespace reached as xp, as a record's self._xp, or as the value of
    # a namespace(...) call
    return ((isinstance(node, ast.Name) and node.id == "xp")
            or (isinstance(node, ast.Attribute) and node.attr == "_xp")
            or (isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "namespace"))


def _namespace_reads():
    reads = set()
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assign):
                # every pick is bound to a name the scan reads through,
                # alone or in a tuple assignment
                pairs = [(target, node.value) for target in node.targets]
                pairs += [pair for target in node.targets
                          if isinstance(target, ast.Tuple)
                          and isinstance(node.value, ast.Tuple)
                          for pair in zip(target.elts, node.value.elts)]
                assert all(_picked(target) for target, value in pairs
                           if _picked(value)), (path.name, node.lineno)
            if isinstance(node, ast.Attribute) and _picked(node.value):
                reads.add(node.attr)
    return reads


def test_every_namespace_read_exists_in_both_namespaces():
    reads = _namespace_reads()
    assert {"exp", "sqrt", "maximum", "where", "arctan"} <= reads
    assert sorted(name for name in reads
                  if not hasattr(_FLOAT_MATH, name)) == []
    assert sorted(name for name in reads if not hasattr(np, name)) == []


@pytest.mark.parametrize("a, b", [(1.0, 2.0), (2.0, 1.0), (0.0, -0.0),
                                  (-0.0, 0.0), (math.nan, 1.0),
                                  (1.0, math.nan), (3, 2.5)])
def test_float_maximum_and_minimum_pick_as_the_builtins(a, b):
    # the same operand as max and min, so the sign of zero and a NaN pass
    # through as they do there
    assert _FLOAT_MATH.maximum(a, b) is max(a, b)
    assert _FLOAT_MATH.minimum(a, b) is min(a, b)
