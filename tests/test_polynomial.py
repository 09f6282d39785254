"""Algebraic properties of the exact polynomial carrier."""
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kstab.polynomial import MultivariatePolynomial as Poly
from kstab.specio import parse_polynomial
from lemmas import homogeneous_part


def two_var_polys():
    coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    exps = st.tuples(st.integers(0, 3), st.integers(0, 3))
    return st.dictionaries(exps, coeffs, max_size=5).map(lambda d: Poly(2, d))


def rational_points():
    coord = st.fractions(min_value=-4, max_value=4, max_denominator=5)
    return st.tuples(coord, coord)


def test_zero_coefficients_are_dropped():
    p = Poly(2, {(1, 0): Fraction(0), (0, 1): Fraction(3)})
    assert p.terms == {(0, 1): Fraction(3)}
    assert (p - p).is_zero


def test_floats_rejected():
    with pytest.raises(TypeError):
        Poly(1, {(1,): 0.5})


def test_structural_equality_and_hash():
    a = Poly(2, {(1, 1): Fraction(2), (0, 0): 1})
    b = Poly.variable(2, 0) * Poly.variable(2, 1) * 2 + 1
    assert a == b and hash(a) == hash(b)


def test_affine_constructor():
    f = Poly.affine([Fraction(1, 2), -1], 3)
    assert f.evaluate([4, 1]) == Fraction(4)


@settings(max_examples=40, deadline=None)
@given(two_var_polys(), two_var_polys(), rational_points())
def test_evaluation_is_a_ring_homomorphism(p, q, x):
    assert (p + q).evaluate(x) == p.evaluate(x) + q.evaluate(x)
    assert (p * q).evaluate(x) == p.evaluate(x) * q.evaluate(x)


@settings(max_examples=30, deadline=None)
@given(two_var_polys(), rational_points())
def test_affine_substitution_matches_composition(p, y):
    matrix = [[Fraction(1), Fraction(2)], [Fraction(-1, 2), Fraction(1)]]
    shift = [Fraction(3), Fraction(-1, 3)]
    substituted = p.substitute_affine(matrix, shift)
    x = [
        shift[i] + matrix[i][0] * y[0] + matrix[i][1] * y[1] for i in range(2)
    ]
    assert substituted.evaluate(y) == p.evaluate(x)


def test_partial_derivative_product_rule():
    x, y = Poly.variable(2, 0), Poly.variable(2, 1)
    p = x * x * y + 3 * y
    q = x * y * y - 1
    lhs = (p * q).partial(0)
    rhs = p.partial(0) * q + p * q.partial(0)
    assert lhs == rhs


def test_homogeneous_parts_sum_back():
    x, y = Poly.variable(2, 0), Poly.variable(2, 1)
    p = (x + y + 1) * (x - 2 * y + 3)
    total = Poly(2)
    for d in range(p.degree() + 1):
        total = total + homogeneous_part(p, d)
    assert total == p
    assert homogeneous_part(p, 2) == x * x - x * y - 2 * y * y


def test_degree_and_zero():
    assert Poly(2).degree() == -1
    assert Poly.constant(2, 5).degree() == 0


def test_parse_polynomial_reads_spec_terms():
    x, y = Poly.variable(2, 0), Poly.variable(2, 1)
    data = {
        "nvars": 2,
        "terms": [
            {"exp": [0, 0], "coef": "1/2"},
            {"exp": [1, 0], "coef": -2},
            {"exp": [1, 2], "coef": "3/7"},
        ],
    }
    assert parse_polynomial(data, "p", 2) == Fraction(3, 7) * x * y * y - 2 * x + Fraction(1, 2)


@settings(max_examples=30, deadline=None)
@given(two_var_polys(), st.lists(rational_points(), min_size=1, max_size=5))
def test_evaluate_float_on_points_and_arrays(p, pts):
    rows = np.array([[float(c) for c in pt] for pt in pts])
    values = p.evaluate_float(rows)
    assert values.shape == (len(pts),)
    for pt, row, v in zip(pts, rows, values):
        assert p.evaluate_float(row) == v
        assert p.evaluate_float(tuple(row)) == v
        assert v == pytest.approx(float(p.evaluate(pt)), rel=1e-12, abs=1e-12)
    with pytest.raises(ValueError):
        p.evaluate_float(rows[:, :1])
