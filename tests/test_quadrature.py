"""Exact integration against iterated-integral oracles, plus the graded rule."""
import ast
import math
import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kstab.polynomial import MultivariatePolynomial as Poly
from kstab.polytope import PiecewiseAffine, RationalPolytope
from kstab.quadrature import (
    MAX_QUADRATURE_NODES,
    GradedQuadratureSpec,
    QuadratureError,
    boundary_integral,
    boundary_integral_pl_poly,
    graded_integral,
    graded_integral_array,
    graded_rule,
    integral_over_simplex,
    integral_pl_poly,
    integral_polytope,
    pairwise_sum,
)
from conftest import slanted_facet_index
from expand_reference import simplex_monomial_integral
from lemmas import facet_measure, transform


def binomial(n, k):
    return math.comb(n, k)


def monomial_integral_2d_oracle(a, b):
    """Iterated integration of x^a y^b over the standard triangle.

    int_0^1 x^a (1-x)^(b+1)/(b+1) dx, with (1-x)^(b+1) expanded binomially:
    independent of the factorial kernel under test.
    """
    total = Fraction(0)
    for j in range(b + 2):
        total += (
            Fraction((-1) ** j * binomial(b + 1, j), 1)
            * Fraction(1, a + j + 1)
        )
    return total / (b + 1)


def test_simplex_monomial_formula_against_iterated_oracle():
    for a, b in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (3, 2)]:
        assert simplex_monomial_integral((a, b)) == monomial_integral_2d_oracle(a, b)


def test_interval_integral(interval_12):
    x = Poly.variable(1, 0)
    assert integral_polytope(x, interval_12) == Fraction(3, 2)


def test_standard_triangle_x():
    T = RationalPolytope.from_vertices([[0, 0], [1, 0], [0, 1]])
    assert integral_polytope(Poly.variable(2, 0), T) == Fraction(1, 6)


def test_square_x2_plus_y2(unit_square):
    x, y = Poly.variable(2, 0), Poly.variable(2, 1)
    assert integral_polytope(x * x + y * y, unit_square) == Fraction(2, 3)


def test_boundary_interval(interval_12):
    # point masses of weight one at both endpoints
    assert boundary_integral(Poly.variable(1, 0), interval_12) == 3


def test_boundary_square(unit_square):
    x, y = Poly.variable(2, 0), Poly.variable(2, 1)
    # edge-by-edge one-dimensional oracle: 1/3 + 4/3 + 1/3 + 4/3
    assert boundary_integral(x * x + y * y, unit_square) == Fraction(10, 3)


def test_boundary_slanted_facet_unit_mass(triangle_23):
    one = Poly.constant(2, 1)
    total = boundary_integral(one, triangle_23)
    # slanted facet carries measure 1 = 1/(n-1)!; legs carry 2 and 3
    assert total == 6
    assert facet_measure(triangle_23, slanted_facet_index(triangle_23)) == 1


def test_pl_constant_factor(interval_12):
    c = PiecewiseAffine.from_pieces([((0,), Fraction(5, 3))])
    x = Poly.variable(1, 0)
    assert integral_pl_poly(c, x, interval_12) == Fraction(5, 3) * Fraction(3, 2)


def test_pl_kink_integral(interval_12, f_kink):
    # split at 3/2: int_{3/2}^2 (2x - 3) x dx = 11/24 by antiderivative
    x = Poly.variable(1, 0)
    assert integral_pl_poly(f_kink, x, interval_12) == Fraction(11, 24)


def test_pl_boundary(interval_12, f_kink):
    x = Poly.variable(1, 0)
    assert boundary_integral_pl_poly(f_kink, x, interval_12) == 2  # f(2) h(2) + f(1) h(1)


def test_pl_boundary_2d(square_11_22, f_max_xy):
    one = Poly.constant(2, 1)
    # max(x, y) along the four unit edges of [1,2]^2, each with measure dt:
    # bottom int max(t,1)=3/2, top int max(t,2)=2, left 3/2, right 2
    assert boundary_integral_pl_poly(f_max_xy, one, square_11_22) == 7


@settings(max_examples=25, deadline=None)
@given(
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)
def test_linearity(a, b):
    P = RationalPolytope.from_vertices([[0, 0], [1, 0], [0, 1], [1, 1]])
    x, y = Poly.variable(2, 0), Poly.variable(2, 1)
    h1 = x * x + y
    h2 = x * y - 2
    lhs = integral_polytope(a * h1 + b * h2, P)
    assert lhs == a * integral_polytope(h1, P) + b * integral_polytope(h2, P)


def test_triangulation_independence(unit_square):
    x, y = Poly.variable(2, 0), Poly.variable(2, 1)
    h = x * x * y + 3 * y - x
    # two different exact triangulations of the square
    t1 = [
        [(0, 0), (1, 0), (1, 1)],
        [(0, 0), (0, 1), (1, 1)],
    ]
    t2 = [
        [(1, 0), (0, 0), (0, 1)],
        [(1, 0), (1, 1), (0, 1)],
    ]
    v1 = sum(integral_over_simplex(h, s) for s in t1)
    v2 = sum(integral_over_simplex(h, s) for s in t2)
    assert v1 == v2 == integral_polytope(h, unit_square)


def test_gl_change_of_variables(square_11_22):
    g = [[1, 1], [0, 1]]
    ginv = [[1, -1], [0, 1]]
    gP = transform(square_11_22, g)
    x, y = Poly.variable(2, 0), Poly.variable(2, 1)
    h = x * x + 2 * x * y - y + 1
    h_pull = h.substitute_affine([[Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)]], [0, 0])
    # int_{gP} h(g^{-1} u) du = int_P h, and the boundary measure is invariant
    h_push = h.substitute_affine(
        [[Fraction(r[c]) for c in range(2)] for r in ginv], [0, 0]
    )
    assert integral_polytope(h_push, gP) == integral_polytope(h, square_11_22)
    assert boundary_integral(h_push, gP) == boundary_integral(h, square_11_22)
    assert integral_polytope(h_pull, square_11_22) == integral_polytope(h, gP)


# -- graded quadrature --------------------------------------------------------

def test_graded_log_singularity(interval_12):
    spec = GradedQuadratureSpec(depth=16, ratio=Fraction(1, 2), nodes=12, tol=1e-8)
    val, err = graded_integral(lambda p: math.log(p[0] - 1.0), interval_12, spec)
    assert abs(val - (-1.0)) < 1e-8
    assert abs(val - (-1.0)) <= max(err, 1e-10) * 10


def test_graded_smooth_square(unit_square):
    spec = GradedQuadratureSpec(depth=6, nodes=6, tol=1e-12)
    val, _ = graded_integral(lambda p: p[0] ** 2 + p[1] ** 2, unit_square, spec)
    assert abs(val - 2.0 / 3.0) < 1e-12


def test_graded_matches_exact_on_random_triangles():
    rng = random.Random(11)
    spec = GradedQuadratureSpec(depth=4, nodes=6, tol=1e-9)
    checked = 0
    while checked < 20:
        pts = [(rng.randrange(-3, 4), rng.randrange(-3, 4)) for _ in range(3)]
        try:
            T = RationalPolytope.from_vertices(pts)
        except Exception:
            continue
        terms = {
            (rng.randrange(0, 3), rng.randrange(0, 3)): Fraction(
                rng.randrange(-4, 5), rng.randrange(1, 4)
            )
            for _ in range(4)
        }
        h = Poly(2, terms)
        exact = float(integral_polytope(h, T))
        val, err = graded_integral(lambda p: h.evaluate_float(list(p)), T, spec)
        assert abs(val - exact) <= max(err, 1e-12)  # floor covers pure rounding
        checked += 1


def test_graded_rejects_non_finite(interval_12):
    with pytest.raises(QuadratureError):
        graded_integral(
            lambda p: float("nan"), interval_12, GradedQuadratureSpec(depth=2, nodes=2, tol=1.0)
        )


def _bad_node(exc_info):
    return ast.literal_eval(str(exc_info.value).split(" at ", 1)[1])


def test_non_finite_value_names_its_node(square_11_22):
    spec = GradedQuadratureSpec(depth=2, nodes=2, tol=1.0)
    with pytest.raises(QuadratureError) as pointwise:
        graded_integral(lambda p: math.nan if p[0] > 1.9 else 1.0, square_11_22, spec)
    with pytest.raises(QuadratureError) as batched:
        graded_integral_array(
            lambda x: np.where(x[:, 1] < 1.1, -np.inf, 1.0), square_11_22, spec
        )
    x, y = _bad_node(pointwise)
    assert x > 1.9 and 1 < y < 2
    x, y = _bad_node(batched)
    assert 1 < x < 2 and y < 1.1


def test_graded_rule_sizes():
    """The 2D default and a cube at depth 2, 3 nodes run; a cube at the default does not."""
    square = RationalPolytope.from_vertices([[1, 1], [2, 1], [1, 2], [2, 2]])
    cube = RationalPolytope.from_vertices(list(product((1, 2), repeat=3)))
    x, w = graded_rule(square, GradedQuadratureSpec().refined())
    assert x.shape == (435_600, 2)
    assert math.fsum(w.tolist()) == pytest.approx(1.0, rel=1e-13)
    x, w = graded_rule(cube, GradedQuadratureSpec(depth=2, nodes=3).refined())
    assert x.shape == (1_536_000, 3) and len(w) <= MAX_QUADRATURE_NODES
    assert math.fsum(w.tolist()) == pytest.approx(1.0, rel=1e-13)
    del x, w
    with pytest.raises(ValueError, match=r"~4\.2e\+08 nodes"):
        graded_rule(cube, GradedQuadratureSpec())


def test_graded_spec_validation():
    with pytest.raises(ValueError):
        GradedQuadratureSpec(depth=0)
    with pytest.raises(ValueError):
        GradedQuadratureSpec(ratio=Fraction(3, 2))
    with pytest.raises(ValueError):
        GradedQuadratureSpec(nodes=1)


def test_pairwise_sum_deterministic():
    xs = [0.1 * i for i in range(101)]
    assert pairwise_sum(xs) == pairwise_sum(list(xs))
    assert pairwise_sum([]) == 0.0
