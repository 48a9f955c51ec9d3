import math

import numpy as np
import pytest

from solgeo.numerics import (central_diff, first_false, hermite_basis,
                             hermite_eval)


def test_central_diff_scalar():
    assert abs(central_diff(math.sin, 0.7, 1e-5) - math.cos(0.7)) < 1e-10


def test_central_diff_vector_valued():
    out = central_diff(lambda t: np.array([t ** 2, t ** 3]), 2.0, 1e-5)
    assert np.allclose(out, [4.0, 12.0], atol=1e-9)


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
