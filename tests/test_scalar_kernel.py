"""S in one facet pass, against the three-pass route bit for bit and against exact S.

The kernel shares one checked l_F(x) between hessian, d_hessian and
d2_hessian and adds a constant derivative order without a power product;
three_pass_reference keeps the route before that, and every value and every
DomainError text must match it exactly. exact_scalar_reference computes S in
Fractions at the float point itself, so the float kernel's true error is
measured, and bounded as a function of the smallest l_F.
"""
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import exact_scalar_reference as exact
import three_pass_reference as ref
from strategies import rational_polytopes
from kstab.mabuchi import PotentialError, SymplecticPotential, el_residual, scalar_curvature
from kstab.polynomial import MultivariatePolynomial as Poly
from kstab.polytope import RationalPolytope
from kstab.rootsystem import build_classical, dh_weight, dh_weight_gradient_sum

# the root systems of each rank drawn: A1; A2, B2, G2; A3, B3
SERIES = {1: ("A",), 2: ("A", "B", "G2"), 3: ("A", "B")}


def _monomial(draw, n, degree):
    """An exponent tuple of total degree ``degree`` in n variables."""
    e = [0] * n
    for i in draw(st.lists(st.integers(0, n - 1), min_size=degree, max_size=degree)):
        e[i] += 1
    return tuple(e)


@st.composite
def kernel_cases(draw, max_dim=3):
    """A rational polytope moved into the positive chamber, a root system of
    its rank, and a potential whose perturbation has degree 0-4 (or is
    absent): its derivatives of the perturbation's degree are constants."""
    P = draw(rational_polytopes(max_dim=max_dim))
    n = P.dim
    shift = [1 - min(v[i] for v in P.vertices) for i in range(n)]
    P = RationalPolytope.from_vertices([[a + s for a, s in zip(v, shift)] for v in P.vertices])
    rs = build_classical(draw(st.sampled_from(SERIES[n]), label="series"), n)
    degree = draw(st.integers(-1, 4), label="degree")  # -1: no perturbation
    perturbation = None
    if degree >= 0:
        # coefficients shrink with the degree, so that u stays convex on P
        coef = st.fractions(-1, 1, max_denominator=40).filter(bool).map(lambda c: c / 4 ** (degree + 1))
        terms = {_monomial(draw, n, degree): draw(coef)}
        for _ in range(draw(st.integers(0, 3))):
            terms[_monomial(draw, n, draw(st.integers(0, degree)))] = draw(coef)
        perturbation = Poly(n, terms)
    return rs, P, perturbation


def _interior_points(draw, P, count):
    """count points between the centroid and random points of P, some within
    1e-4 of the boundary."""
    c = np.array([float(t) for t in P.centroid()])
    verts = np.array([[float(t) for t in v] for v in P.vertices])
    pts = []
    for _ in range(count):
        lam = np.array(draw(st.lists(st.integers(0, 9), min_size=len(verts), max_size=len(verts)))) + 1e-9
        t = draw(st.sampled_from([0.0, 0.3, 0.9, 0.999, 0.9999]))
        pts.append(c + t * (lam / lam.sum() @ verts - c))
    return np.array(pts).reshape(count, P.dim)


@st.composite
def oracle_cases(draw):
    """A kernel case and its inputs: a tuple point, an (m, n) array with m in
    0..5, and that array with a bad point inserted (a vertex, where l_F may
    be 0 exactly, a point outside, or a NaN point), then the bad point alone."""
    case = draw(kernel_cases())
    P = case[1]
    pts = _interior_points(draw, P, draw(st.integers(0, 5), label="m"))
    vertex = np.array([float(t) for t in draw(st.sampled_from(P.vertices), label="vertex")])
    c = np.array([float(t) for t in P.centroid()])
    bad = draw(st.sampled_from([vertex, c + 1.5 * (vertex - c), np.full(P.dim, np.nan)]), label="bad")
    at = draw(st.integers(0, len(pts)), label="at")
    point = tuple(float(t) for t in _interior_points(draw, P, 1)[0])
    return case, (point, pts, np.insert(pts, at, bad, axis=0), tuple(bad.tolist()))


@st.composite
def exact_cases(draw):
    """A kernel case and two interior points."""
    case = draw(kernel_cases())
    return case, _interior_points(draw, case[1], 2)


def _outcome(fn, x):
    """fn(x), or the type and text of the ValueError it raises."""
    try:
        return fn(x)
    except ValueError as exc:
        return type(exc), str(exc)


def _same(new, old):
    if isinstance(old, tuple) and isinstance(old[0], type):
        assert new == old
    else:
        np.testing.assert_array_equal(new, old, strict=True)


SQUARE = RationalPolytope.from_vertices([(1, 1), (2, 1), (1, 2), (2, 2)])
QUADRATIC = Poly(2, {(2, 0): Fraction(1, 15), (1, 1): Fraction(1, 60), (0, 2): Fraction(1, 20)})
SQUARE_POINTS = np.array([[1.5, 1.25], [1.0001, 1.9], [1.3, 1.7]])


@settings(max_examples=50, deadline=None)
@given(oracle_cases())
@example(
    ((build_classical("A", 2), SQUARE, QUADRATIC),
     ((1.25, 1.5), SQUARE_POINTS, np.insert(SQUARE_POINTS, 1, [1.0, 1.0], axis=0), (1.0, 1.0))),
).via("the float-quadrature potential; l_F = 0 exactly at a vertex")
@example(
    ((build_classical("A", 1), RationalPolytope.from_vertices([[1], [3]]),
      Poly(1, {(3,): Fraction(1, 200)})),
     ((2.5,), np.array([[1.5], [2.999]]), np.array([[1.5], [np.nan], [2.999]]), (np.nan,))),
).via("a cubic: orders 1 and 2 have one monomial each, and it is not constant")
def test_one_facet_pass_matches_three_passes(case):
    (rs, P, perturbation), inputs = case
    try:
        old = ref.ThreePassPotential(P, perturbation)
    except PotentialError as exc:
        with pytest.raises(PotentialError) as info:
            SymplecticPotential(P, perturbation)
        assert str(info.value) == str(exc)
        return
    new = SymplecticPotential(P, perturbation)

    def A(x):
        return x[..., 0] - 1.0

    routes = [
        (lambda x: scalar_curvature(rs, new, x), lambda x: ref.scalar_curvature(rs, old, x)),
        (lambda x: el_residual(rs, new, A, x), lambda x: ref.el_residual(rs, old, A, x)),
        (new.hessian, old.hessian),
        (new.d_hessian, old.d_hessian),
        (new.d2_hessian, old.d2_hessian),
    ]
    for x in inputs:
        for fast, slow in routes:
            _same(_outcome(fast, x), _outcome(slow, x))
    # l_F(x) passed in is shared: the same values, and l is not written over
    pts = inputs[1]
    x, l = new._l_values(pts)
    kept = l.copy()
    for method in ("hessian", "d_hessian", "d2_hessian"):
        _same(_outcome(lambda x: getattr(new, method)(x, l), x), _outcome(getattr(old, method), pts))
        np.testing.assert_array_equal(l, kept, strict=True)


def _relative_l(P, q) -> float:
    """min over facets of l_F(q) / (sum_i |v_Fi q_i| + |c_F|): the smallest
    l_F measured against the terms whose rounding it carries, so that a
    computed l_F is off by a relative ~eps / (this) at most."""
    return min(
        float((sum(a * t for a, t in zip(v, q)) - c) / (sum(abs(a * t) for a, t in zip(v, q)) + abs(c)))
        for v, c in P.facets
    )


def _s_error_allowance(lam: float) -> float:
    """|S - S_exact| allowed at a point of relative facet distance lam,
    relative to the size |f_G| + |f_G - S_exact| of the two parts of S.

    S cancels terms up to 1/l^3 near an edge, and facet values rounded
    apart there act as a moved facet, so the error grows as eps / lam^3:
    over 2,604 points drawn by kernel_cases in dimensions 1-3 (a third of
    them on rays toward the midpoint of two vertices), the worst error was
    0.15 eps / lam^3 beyond 1e-13, at lam = 3.7e-6. On skinny simplices
    lam is far below l_F itself, and S there may have no correct digit.
    """
    return 1e-13 + np.finfo(float).eps / lam**3


B2_QUAD = RationalPolytope.from_vertices([(1, 1), (3, 1), (2, 3), (1, 2)])
A3_SIMPLEX = RationalPolytope.from_vertices([(1, 1, 1), (1, 2, 3), (2, 1, 1), (3, 3, 3)])


def _toward(P, target, ts):
    """Points c + t (target - c), c the centroid of P."""
    c = np.array([float(t) for t in P.centroid()])
    return np.array([c + t * (np.array(target, dtype=float) - c) for t in ts])


@settings(max_examples=12, deadline=None)
@given(exact_cases())
@example(
    ((build_classical("B", 2), B2_QUAD,
      Poly(2, {(3, 0): Fraction(1, 120), (1, 2): Fraction(-1, 200), (2, 0): Fraction(1, 40)})),
     _toward(B2_QUAD, (1.7, 1.6), [0.5, 0.9999])),
).via("a B2 quadrilateral with a cubic perturbation, up to l = 1e-4 from an edge")
@example(
    ((build_classical("A", 3), A3_SIMPLEX, None), _toward(A3_SIMPLEX, (1.5, 1.5, 2), [0.0, 0.999])),
).via("toward the middle of an edge of an A3 simplex, where S loses digits as 1/l^3")
def test_scalar_curvature_error_against_exact(case):
    (rs, P, perturbation), x = case
    try:
        s = scalar_curvature(rs, SymplecticPotential(P, perturbation), x)
    except PotentialError:
        assume(False)
    p, q1 = dh_weight(rs), dh_weight_gradient_sum(rs)
    for point, value in zip(x, s):
        q = tuple(Fraction(t) for t in point)  # the float point, exactly
        expected = float(exact.scalar_curvature(rs, P, perturbation, q))
        lam = _relative_l(P, q)
        f_g = float(2 * q1.evaluate(q) / p.evaluate(q))
        scale = abs(f_g) + abs(f_g - expected)
        assert abs(value - expected) <= _s_error_allowance(lam) * scale, (point, lam, value, expected)
