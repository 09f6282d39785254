"""The integer evaluation kernels against the Fraction bodies they replaced."""
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import exact_eval_reference as ref
from kstab.futaki import _poly_value
from kstab.polynomial import MultivariatePolynomial as Poly
from kstab.polytope import RationalPolytope, lattice_points
from strategies import rational_polytopes

coefficients = st.fractions(min_value=-20, max_value=20, max_denominator=12)
fractions = st.fractions(min_value=-6, max_value=6, max_denominator=15)
# a coordinate as an int, a Fraction or a 'p/q' string, zero and negatives included
coordinates = st.one_of(
    st.integers(-6, 6),
    fractions,
    fractions.map(lambda x: "%d/%d" % (x.numerator, x.denominator)),
)


@st.composite
def exponents(draw, n):
    """An exponent vector in n variables of total degree <= 6."""
    left, exp = draw(st.integers(0, 6)), []
    for _ in range(n):
        exp.append(draw(st.integers(0, left)))
        left -= exp[-1]
    return tuple(exp)


@st.composite
def polys_and_points(draw):
    """A polynomial in 0-4 variables of degree <= 6 (possibly zero or
    constant) and a point of matching length."""
    n = draw(st.integers(0, 4))
    terms = draw(st.dictionaries(exponents(n), coefficients, max_size=8))
    return Poly(n, terms), draw(st.lists(coordinates, min_size=n, max_size=n))


@settings(max_examples=150, deadline=None)
@given(polys_and_points())
@example((Poly(0), []))
@example((Poly(3), [0, "-1/2", Fraction(2, 3)]))
@example((Poly.constant(2, Fraction(-7, 3)), [Fraction(1, 4), -5]))
@example((Poly(2, {(6, 0): Fraction(1, 6), (0, 1): -1, (2, 3): Fraction(5, 4)}),
          ["-3/4", Fraction(5, 6)]))
def test_evaluate_matches_the_fraction_reference(case):
    h, point = case
    value = h.evaluate(point)
    assert type(value) is Fraction
    assert value == ref.evaluate(h, point)
    assert h.evaluate(point) == value  # the integer table, once built, is reused


def test_evaluate_refuses_floats_and_wrong_lengths():
    h = Poly(2, {(1, 1): Fraction(1, 2), (0, 0): 3})
    with pytest.raises(TypeError):
        h.evaluate([0.5, 1])
    with pytest.raises(TypeError):
        Poly(2).evaluate([1, 0.0])
    with pytest.raises(ValueError):
        h.evaluate([1])
    with pytest.raises(ValueError):
        h.evaluate([1, 2, 3])
    with pytest.raises(ValueError):
        Poly(0).evaluate([Fraction(1, 2)])


@settings(max_examples=100, deadline=None)
@given(st.lists(coefficients | st.integers(-9, 9), max_size=9), coordinates.map(Fraction))
@example([], Fraction(1, 3))
@example([Fraction(0)], Fraction(-2))
def test_poly_value_matches_the_fraction_reference(coeffs, x):
    value = _poly_value(coeffs, x)
    assert type(value) is Fraction
    assert value == ref.poly_value(coeffs, x)
    assert _poly_value(tuple(coeffs), x.numerator) == ref.poly_value(coeffs, Fraction(x.numerator))


@settings(max_examples=40, deadline=None)
@given(rational_polytopes(), st.integers(1, 16))
@example(RationalPolytope.from_vertices([(0, 0), ("1/2", 0), (0, "2/3")]), 16)
def test_lattice_points_match_the_fraction_reference(P, k):
    assert lattice_points(P, k) == ref.lattice_points(P, k)
