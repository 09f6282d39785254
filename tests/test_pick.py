"""Lattice-sum asymptotics harness: exact sums, fits and decay checks."""
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import pick_reference
from kstab import pick
from kstab.futaki import _poly_value
from kstab.polynomial import MultivariatePolynomial as Poly
from kstab.polytope import GeometryError, RationalPolytope, lattice_points
from kstab.pick import pick_check, pick_fit, pick_sum
from kstab.quadrature import boundary_integral, integral_polytope
from kstab.futaki import weighted_count_dk
from conftest import slanted_facet_index
from lemmas import facet_lattice_count, facet_measure, weyl_polynomial


def test_pick_sum_unit_interval_constant():
    P = RationalPolytope.from_vertices([[0], [1]])
    one = Poly.constant(1, 1)
    for k in (1, 2, 5, 9):
        assert pick_sum(P, one, k) == k + 1


def test_pick_sum_square_closed_form(unit_square):
    x, y = Poly.variable(2, 0), Poly.variable(2, 1)
    h = x * x + y * y
    for k in range(1, 9):
        expected = (
            Fraction(2, 3) * k**2 + Fraction(5, 3) * k + Fraction(4, 3) + Fraction(1, 3 * k)
        )
        assert pick_sum(unit_square, h, k) == expected
        # independent double-sum oracle
        brute = Fraction(
            sum(i * i + j * j for i in range(k + 1) for j in range(k + 1)), k * k
        )
        assert pick_sum(unit_square, h, k) == brute


def test_pick_sum_interval_x(interval_12):
    x = Poly.variable(1, 0)
    for k in (1, 2, 3, 8):
        assert pick_sum(interval_12, x, k) == Fraction(3 * k + 3, 2)


def test_pick_fit_exact_coefficients(unit_square):
    x, y = Poly.variable(2, 0), Poly.variable(2, 1)
    h = x * x + y * y
    fit = pick_fit(unit_square, h, ks=(2, 4, 8, 16))
    assert fit.c_top == integral_polytope(h, unit_square) == Fraction(2, 3)
    assert fit.c_next == boundary_integral(h, unit_square) / 2 == Fraction(5, 3)
    for k, r in zip(fit.ks, fit.residuals):
        assert r == Fraction(4, 3) + Fraction(1, 3 * k)


def test_pick_check_square(unit_square):
    x, y = Poly.variable(2, 0), Poly.variable(2, 1)
    passed, fit = pick_check(unit_square, x * x + y * y, ks=(4, 8, 16, 32, 64))
    assert passed


def test_pick_check_interval_exact_zero_residual(interval_12):
    passed, fit = pick_check(interval_12, Poly.variable(1, 0), ks=(4, 8, 16, 32))
    assert passed
    assert all(r == 0 for r in fit.residuals)


def test_pick_check_triangle(triangle_23):
    x, y = Poly.variable(2, 0), Poly.variable(2, 1)
    h = (x + y) * (x + y)
    passed, fit = pick_check(triangle_23, h, ks=(4, 8, 16, 32, 64))
    assert passed
    assert fit.c_top == integral_polytope(h, triangle_23)
    assert fit.c_next == boundary_integral(h, triangle_23) / 2


def test_pick_callback_least_squares(unit_square):
    h = lambda p: math.exp(p[0] + p[1])
    passed, fit = pick_reference.pick_check(unit_square, h, ks=(8, 16, 32, 64, 128))
    assert passed
    assert not fit.exact
    expected = (math.e - 1.0) ** 2  # int over the square of e^(x+y)
    assert abs(fit.c_top - expected) < 0.02 * expected


def test_pick_check_fails_on_noise():
    # deterministic per-point noise has no two-term expansion; the decay
    # check must report failure rather than silently pass
    P = RationalPolytope.from_vertices([[0], [1]])
    noise = lambda p: (p[0] * 12345.6789) % 1.0
    passed, fit = pick_reference.pick_check(P, noise, ks=(4, 8, 16, 32, 64))
    assert passed is False
    assert not fit.exact


def test_pick_refuses_a_callback(unit_square):
    """kstab.pick is exact only; a callback h is refused in one check."""
    with pytest.raises(TypeError, match="MultivariatePolynomial"):
        pick_check(unit_square, lambda p: math.exp(p[0] + p[1]))


def test_pick_nonconvex_informational(unit_square):
    x = Poly.variable(2, 0)
    passed, fit = pick_reference.pick_check(unit_square, -(x * x), ks=(4, 8, 16, 32), convex=False)
    assert fit.informational
    assert isinstance(passed, bool)


def test_pick_consistency_with_weighted_counts(rs_a1, rs_a2, interval_12, square_11_22):
    # d_k equals the pick sum of q(k x) over the refined lattice, up to denom
    for rs, P in [(rs_a1, interval_12), (rs_a2, square_11_22)]:
        q = weyl_polynomial(rs)
        n = P.dim
        for k in (1, 2, 3, 4):
            scaled = q.substitute_affine(
                [[k * (i == j) for j in range(n)] for i in range(n)], [0] * n
            )
            assert weighted_count_dk(rs, P, k) == pick_sum(P, scaled, k) / rs.denom


def test_lemma5_limit_shared_with_polytope(triangle_23):
    i = slanted_facet_index(triangle_23)
    sigma = facet_measure(triangle_23, i)
    vals = [Fraction(facet_lattice_count(triangle_23, i, k), k) for k in (8, 16, 32, 64)]
    errs = [abs(v - sigma) for v in vals]
    for e1, e2 in zip(errs, errs[1:]):
        assert 0.3 <= float(e2 / e1) <= 0.7


def test_pick_fit_serialization(unit_square):
    x = Poly.variable(2, 0)
    fit = pick_fit(unit_square, x, ks=(2, 4, 8))
    data = fit.to_json_dict()
    assert data["k"] == [1, 2, 3, 4, 5, 6, 8]
    assert Fraction(data["c_top"]) == fit.c_top


def interior_sum(P, h, k):
    """Sum of h over the (1/k)-lattice points of the open polytope."""
    return sum(
        (
            h.evaluate(x)
            for x in lattice_points(P, k)
            if all(sum(a * b for a, b in zip(v, x)) > c for v, c in P.facets)
        ),
        Fraction(0),
    )


def test_pick_fit_interpolates_weighted_ehrhart_polynomial(unit_square):
    """k^2 S_k on the unit square with h = x^2 + y^2 is criterion 6's
    (2/3)k^4 + (5/3)k^3 + (4/3)k^2 + (1/3)k, walked at k = 1..7 only."""
    x, y = Poly.variable(2, 0), Poly.variable(2, 1)
    fit = pick_fit(unit_square, x * x + y * y)
    assert fit.ks == tuple(range(1, 8))
    assert list(fit.poly) == [0, Fraction(1, 3), Fraction(4, 3), Fraction(5, 3), Fraction(2, 3)]
    assert fit.to_json_dict()["poly"] == ["0", "1/3", "4/3", "5/3", "2/3"]
    assert all(isinstance(r, Fraction) for r in fit.residuals)


def test_pick_reciprocity_on_unit_square(unit_square):
    """E(-k) = (-1)^(n+d) k^d times the interior sum, at k = 2, 3."""
    x, y = Poly.variable(2, 0), Poly.variable(2, 1)
    h = x * x + y * y
    fit = pick_fit(unit_square, h)
    for k in (2, 3):
        assert _poly_value(fit.poly, Fraction(-k)) == k**2 * interior_sum(unit_square, h, k)
    assert interior_sum(unit_square, h, 2) == Fraction(1, 2)


def test_pick_samples_a_rational_interval_along_its_modulus():
    """[0, 1/2] has vertex denominator lcm m = 2: the walk samples k = 2, 4,
    ..., the exact check passes, and a dilation outside 2Z is refused."""
    P = RationalPolytope.from_vertices([[0], [Fraction(1, 2)]])
    x = Poly.variable(1, 0)
    passed, fit = pick_check(P, x * x, ks=(16,))
    assert passed is True
    assert fit.ks == (2, 4, 6, 8, 10, 12, 16)
    assert fit.c_top == Fraction(1, 24) and fit.c_next == Fraction(1, 8)
    with pytest.raises(ValueError, match="k=3 is not a multiple of m=2"):
        pick_fit(P, x, ks=(3,))


def test_pick_exact_path_reads_no_ratio_bound(unit_square):
    """Polynomial h passes on the exact fit alone: one held-out dilation far
    past the walk is reproduced, and no decay pair is needed."""
    x, y = Poly.variable(2, 0), Poly.variable(2, 1)
    passed, fit = pick_check(unit_square, x * x + y * y, ks=(16,))
    assert passed
    assert fit.ks == (1, 2, 3, 4, 5, 6, 7, 16)


@pytest.mark.parametrize("name", ["pick_sum", "integral_polytope", "boundary_integral"])
def test_pick_exact_check_fails_when_off(monkeypatch, unit_square, name):
    """A lattice sum at the last held-out dilate, or either integral, off by
    1e-9 fails the check."""
    x, y = Poly.variable(2, 0), Poly.variable(2, 1)
    real = getattr(pick, name)
    if name == "pick_sum":
        off = lambda P, h, k: real(P, h, k) + Fraction(k == 7, 10**9)
    else:
        off = lambda h, P: real(h, P) + Fraction(1, 10**9)
    monkeypatch.setattr(pick, name, off)
    passed, _ = pick_check(unit_square, x * x + y * y)
    assert passed is False


@st.composite
def pick_cases(draw):
    """An integer polytope in dimension 1-3 and an integer h of degree <= 3."""
    n = draw(st.integers(1, 3))
    coord = st.integers(0, (4, 2, 1)[n - 1])
    pts = draw(st.lists(st.tuples(*[coord] * n), min_size=n + 1, max_size=n + 3))
    try:
        P = RationalPolytope.from_vertices(pts)
    except GeometryError:
        assume(False)
    exp = st.tuples(*[st.integers(0, 3)] * n).filter(lambda e: sum(e) <= 3)
    coef = st.integers(-3, 3).filter(bool)
    h = Poly(n, draw(st.dictionaries(exp, coef, min_size=1, max_size=4)))
    return P, h


@settings(max_examples=60, deadline=None)
@given(pick_cases())
def test_pick_fit_matches_integrals_on_random_lattice_polytopes(case):
    """The fitted top coefficients are the exact integrals and the decay
    reference's pinned values; E predicts k^d S_k one dilate past the walk,
    and E(-k) is the signed interior sum (reciprocity) at k = 2, 3."""
    P, h = case
    n, d = P.dim, max(h.degree(), 0)
    passed, fit = pick_check(P, h)
    ref = pick_reference.pick_fit(P, h, ks=(1, 2))
    assert passed is True
    assert fit.c_top == integral_polytope(h, P) == ref.c_top
    assert fit.c_next == boundary_integral(h, P) / 2 == ref.c_next
    k = max(fit.ks) + 1
    assert _poly_value(fit.poly, Fraction(k)) == k**d * pick_sum(P, h, k)
    for k in (2, 3):
        assert _poly_value(fit.poly, Fraction(-k)) == (-1) ** (n + d) * k**d * interior_sum(P, h, k)
