"""The integer pullback kernel against the expand-and-integrate reference."""
from hypothesis import given, settings
from hypothesis import strategies as st

import expand_reference as ref
from kstab.polynomial import MultivariatePolynomial as Poly
from kstab.quadrature import integral_over_simplex

MAX_DEGREE = 8
rationals = st.fractions(min_value=-3, max_value=3, max_denominator=5)


@st.composite
def exponents(draw, nvars):
    left, exp = MAX_DEGREE, []
    for _ in range(nvars):
        e = draw(st.integers(0, left))
        exp.append(e)
        left -= e
    return tuple(draw(st.permutations(exp)))


def polynomials(nvars):
    """Zero, constants and sparse polynomials of degree <= MAX_DEGREE."""
    coef = st.fractions(min_value=-7, max_value=7, max_denominator=9)
    return st.one_of(
        st.just(Poly.zero(nvars)),
        coef.map(lambda c: Poly.constant(nvars, c)),
        st.dictionaries(exponents(nvars), coef, min_size=1, max_size=5).map(
            lambda d: Poly(nvars, d)
        ),
    )


@st.composite
def simplices(draw):
    """n + 1 rational vertices in dimension 1-4, sometimes degenerate."""
    n = draw(st.integers(1, 4))
    verts = draw(st.lists(st.tuples(*[rationals] * n), min_size=n + 1, max_size=n + 1))
    if draw(st.booleans()):
        verts[-1] = verts[0]  # repeated vertex: zero volume
    elif n > 1 and draw(st.booleans()):
        t = draw(rationals)  # last vertex on the line through the first two
        verts[-1] = tuple(a + t * (b - a) for a, b in zip(verts[0], verts[1]))
    return verts


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_integral_over_simplex_matches_expansion(data):
    simplex = data.draw(simplices())
    h = data.draw(polynomials(len(simplex[0])))
    assert integral_over_simplex(h, simplex) == ref.integral_over_simplex(h, simplex)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_substitute_affine_matches_expansion(data):
    """Square, non-square and zero-column substitutions, 0-4 variables."""
    nvars = data.draw(st.integers(0, 4))
    m = data.draw(st.integers(0, 4)) if nvars else 0
    h = data.draw(polynomials(nvars))
    matrix = [data.draw(st.lists(rationals, min_size=m, max_size=m)) for _ in range(nvars)]
    shift = data.draw(st.lists(rationals, min_size=nvars, max_size=nvars))
    assert h.substitute_affine(matrix, shift) == ref.substitute_affine(h, matrix, shift)

