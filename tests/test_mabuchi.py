"""Potentials, scalar curvature, the energy functional and its variation."""
import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

from kstab.polytope import RationalPolytope
from kstab.polynomial import MultivariatePolynomial as Poly
from kstab.graded import graded_integral_array
from kstab.quadrature import GradedQuadratureSpec, boundary_integral, integral_polytope
from kstab.rootsystem import build_classical, dh_weight, dh_weight_gradient_sum
from kstab.futaki import average_scalar, volume_w
from kstab.mabuchi import (
    DomainError,
    PotentialError,
    SymplecticPotential,
    el_residual,
    interior_grid,
    mabuchi_eval,
    make_a_preset,
    scalar_curvature,
)
from incidence_reference import support_value
from lemmas import CompactBump, ScaledBump, variation_check

SPEC = GradedQuadratureSpec(depth=12, nodes=10, tol=1e-6)
FAST = GradedQuadratureSpec(depth=8, nodes=8, tol=1e-4)


def scalar_curvature_fd(rs, u, x, h=1e-3):
    """Independent route: Richardson-extrapolated central differences of p G."""
    p = dh_weight(rs)
    q1 = dh_weight_gradient_sum(rs)
    n = rs.rank

    def pg(pt):
        return p.evaluate_float(list(pt)) * np.linalg.inv(u.hessian(pt))

    def divergence(step):
        total = 0.0
        for j in range(n):
            for k in range(n):
                if j == k:
                    ej = np.zeros(n)
                    ej[j] = step
                    x0 = np.asarray(x, dtype=float)
                    total += (
                        pg(x0 + ej)[j, j] - 2 * pg(x0)[j, j] + pg(x0 - ej)[j, j]
                    ) / step**2
                else:
                    ej, ek = np.zeros(n), np.zeros(n)
                    ej[j] = step
                    ek[k] = step
                    x0 = np.asarray(x, dtype=float)
                    total += (
                        pg(x0 + ej + ek)[j, k]
                        - pg(x0 + ej - ek)[j, k]
                        - pg(x0 - ej + ek)[j, k]
                        + pg(x0 - ej - ek)[j, k]
                    ) / (4 * step**2)
        return total

    rich = (4.0 * divergence(h / 2) - divergence(h)) / 3.0
    xf = list(map(float, x))
    pv = p.evaluate_float(xf)
    return -0.5 * rich / pv + 2.0 * q1.evaluate_float(xf) / pv


# -- potential basics ---------------------------------------------------------

def test_canonical_potential_closed_forms(interval_12):
    u = SymplecticPotential(interval_12)
    x = 1.5
    assert u.hessian((x,))[0, 0] == pytest.approx(1.0 / (2 * (x - 1) * (2 - x)), abs=1e-14)
    for x in (1.2, 1.5, 1.9):
        expected = 0.5 * ((x - 1) * math.log(x - 1) + (2 - x) * math.log(2 - x))
        assert u.value((x,)) == pytest.approx(expected, abs=1e-14)


def test_potential_boundary_values_vanish(interval_12):
    u = SymplecticPotential(interval_12)
    assert u.value((1.0,), allow_boundary=True) == 0.0
    assert u.value((2.0,), allow_boundary=True) == 0.0
    with pytest.raises(DomainError):
        u.value((1.0,))
    with pytest.raises(DomainError):
        u.value((2.5,), allow_boundary=True)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_points_are_outside(rs_a2, square_11_22, bad):
    """A NaN or infinite coordinate fails l_F > 0 like any outside point, and
    the DomainError names it before any float warning."""
    u = SymplecticPotential(square_11_22, perturbation=Poly(2, {(2, 0): Fraction(1, 20)}))
    calls = (
        u.value,
        u.gradient,
        u.hessian,
        u.d_hessian,
        u.d2_hessian,
        lambda x: scalar_curvature(rs_a2, u, x),
        lambda x: el_residual(rs_a2, u, lambda y: 0.0, x),
    )
    shown = "nan" if math.isnan(bad) else repr(bad)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for fn in calls:
            with pytest.raises(DomainError, match=r"point \(%s, 1\.5\) is outside the open" % shown):
                fn((bad, 1.5))
            # the first offending row of an array is the one named
            with pytest.raises(DomainError, match=r"point \(1\.5, %s\)" % shown):
                fn(np.array([[1.5, 1.5], [1.5, bad], [bad, 1.5]]))
        with pytest.raises(DomainError, match="outside the closed polytope"):
            u.value((bad, 1.5), allow_boundary=True)


def test_potential_perturbation_and_gradient(interval_12):
    g = Poly(1, {(2,): Fraction(1, 10)})
    u = SymplecticPotential(interval_12, perturbation=g)
    x = 1.5
    base = SymplecticPotential(interval_12)
    assert u.value((x,)) == pytest.approx(base.value((x,)) + 0.1 * x * x, abs=1e-14)
    assert u.gradient((x,))[0] == pytest.approx(base.gradient((x,))[0] + 0.2 * x, abs=1e-12)
    assert u.hessian((x,))[0, 0] == pytest.approx(base.hessian((x,))[0, 0] + 0.2, abs=1e-12)


def test_pure_polynomial_potential(interval_12):
    # canonical part switched off: u is just the perturbation
    g = Poly(1, {(2,): Fraction(1, 2)})
    u = SymplecticPotential(interval_12, perturbation=g, canonical=False)
    assert u.value((1.5,)) == pytest.approx(0.5 * 1.5**2, abs=1e-15)
    assert u.hessian((1.5,))[0, 0] == pytest.approx(1.0, abs=1e-15)


def test_non_pd_perturbation_rejected(interval_12):
    bad = Poly(1, {(2,): Fraction(-5)})
    with pytest.raises(PotentialError):
        SymplecticPotential(interval_12, perturbation=bad)


def test_dimension_mismatch(interval_12):
    with pytest.raises(PotentialError):
        SymplecticPotential(interval_12, perturbation=Poly(2))


# -- scalar curvature ---------------------------------------------------------

def test_scalar_curvature_12(rs_a1, interval_12):
    u = SymplecticPotential(interval_12)
    for i in range(100):
        x = 1.0 + (i + 1) / 101.0
        assert abs(scalar_curvature(rs_a1, u, (x,)) - (6 - 4 / x)) < 1e-8


def test_scalar_curvature_13(rs_a1, interval_13):
    u = SymplecticPotential(interval_13)
    for i in range(100):
        x = 1.0 + 2 * (i + 1) / 101.0
        assert abs(scalar_curvature(rs_a1, u, (x,)) - (3 - 2 / x)) < 1e-8


def test_scalar_curvature_matches_finite_differences(rs_a1, rs_a2, interval_12, square_11_22):
    cases = [
        (rs_a1, SymplecticPotential(interval_12)),
        (rs_a1, SymplecticPotential(interval_12, perturbation=Poly(1, {(2,): Fraction(1, 20)}))),
        (rs_a2, SymplecticPotential(square_11_22)),
        (rs_a2, SymplecticPotential(square_11_22, perturbation=Poly(2, {(2, 0): Fraction(1, 20), (0, 2): Fraction(1, 25)}))),
    ]
    for rs, u in cases:
        for x in interior_grid(u.polytope, 7):
            if any(min(abs(c - float(lo)), abs(c - float(hi))) < 0.15
                   for c, (lo, hi) in zip(x, u.polytope.bounding_box())):
                continue  # keep the stencil well inside the domain
            analytic = scalar_curvature(rs, u, x)
            fd = scalar_curvature_fd(rs, u, x)
            assert abs(analytic - fd) < 1e-6 * max(1.0, abs(analytic))


def test_average_identity_under_quadrature(rs_a1, rs_a2, interval_12, interval_13, square_11_22):
    cases = [
        (rs_a1, SymplecticPotential(interval_12), SPEC, 5.0),
        (rs_a1, SymplecticPotential(interval_13), SPEC, 8.0),
        (
            rs_a1,
            SymplecticPotential(interval_12, perturbation=Poly(1, {(2,): Fraction(1, 10)})),
            SPEC,
            5.0,
        ),
        # the 2D integrand is polynomial for the canonical potential, so a
        # very coarse grading already integrates it to rounding error
        (rs_a2, SymplecticPotential(square_11_22), GradedQuadratureSpec(depth=2, nodes=6, tol=1e-4), None),
    ]
    for rs, u, spec, frozen in cases:
        p = dh_weight(rs)
        expected = float(average_scalar(rs, u.polytope) * volume_w(rs, u.polytope))
        if frozen is not None:
            assert expected == frozen
        val, err = graded_integral_array(
            lambda x: scalar_curvature(rs, u, x) * p.evaluate_float(x),
            u.polytope,
            spec,
        )
        assert abs(val - expected) < max(1e-6, 10 * err)


# -- the energy functional ------------------------------------------------------

def test_mabuchi_value_interval_12(rs_a1, interval_12):
    u = SymplecticPotential(interval_12)
    res = mabuchi_eval(rs_a1, u, "zero", SPEC)
    expected = 1.5 * math.log(2.0) - 3.0
    assert abs(res.value - expected) < 1e-6
    assert res.terms["boundary"] == 0.0  # u_sigma vanishes at both endpoints


def test_mabuchi_value_interval_13_boundary_term(rs_a1, interval_13):
    # On [1, 3] the potential does not vanish at the ends: u(1) = u(3) = log 2.
    # Hand computation: F = (8 ln 2 - 8) + 2 (1 + 3) ln 2 = 16 ln 2 - 8.
    u = SymplecticPotential(interval_13)
    res = mabuchi_eval(rs_a1, u, "zero", SPEC)
    expected = 16 * math.log(2.0) - 8.0
    assert abs(res.value - expected) < 1e-5
    assert res.terms["boundary"] == pytest.approx(8 * math.log(2.0), abs=1e-12)


def test_mabuchi_flagged_under_impossible_tolerance(rs_a1, interval_12):
    u = SymplecticPotential(interval_12)
    tight = GradedQuadratureSpec(depth=4, nodes=4, tol=1e-30)
    assert mabuchi_eval(rs_a1, u, "zero", tight).flagged


def test_mabuchi_constant_shift(rs_a1, interval_12):
    # F_A(u + c) - F_A(u) = c (2 int_bd W - int A W); log det is unchanged.
    u = SymplecticPotential(interval_12)
    c = Fraction(1, 4)
    uc = SymplecticPotential(interval_12, perturbation=Poly.constant(1, c))
    base = mabuchi_eval(rs_a1, u, "zero", SPEC)
    shifted = mabuchi_eval(rs_a1, uc, "zero", SPEC)
    assert shifted.value - base.value == pytest.approx(
        float(c) * 2 * 3, abs=1e-9
    )  # 2 int_bd x dsigma = 6
    base_p = mabuchi_eval(rs_a1, u, "paper", SPEC)
    shifted_p = mabuchi_eval(rs_a1, uc, "paper", SPEC)
    # int A W dmu = (a int p - int f_G p)/2 = (5 - 2)/2
    assert shifted_p.value - base_p.value == pytest.approx(
        float(c) * (6 - 1.5), abs=1e-7
    )


def test_mabuchi_affine_shift_is_linear_term(rs_a1, interval_12):
    u = SymplecticPotential(interval_12)
    affine = Poly(1, {(1,): Fraction(1, 5)})
    ua = SymplecticPotential(interval_12, perturbation=affine)
    base = mabuchi_eval(rs_a1, u, "zero", SPEC)
    shifted = mabuchi_eval(rs_a1, ua, "zero", SPEC)
    # 2 int_bd (x/5) x dsigma = (2/5)(1 + 4) = 2
    assert shifted.value - base.value == pytest.approx(2.0, abs=1e-9)


def test_mabuchi_midpoint_convexity(rs_a1, interval_12):
    rng = random.Random(20240812)
    u_sigma = SymplecticPotential(interval_12)
    fast = GradedQuadratureSpec(depth=8, nodes=8, tol=1e-4)
    for _ in range(50):
        g1 = Poly(1, {(2,): Fraction(rng.randrange(0, 30), 100), (1,): Fraction(rng.randrange(-20, 20), 100)})
        g2 = Poly(1, {(2,): Fraction(rng.randrange(0, 30), 100), (1,): Fraction(rng.randrange(-20, 20), 100)})
        u1 = SymplecticPotential(interval_12, perturbation=g1)
        u2 = SymplecticPotential(interval_12, perturbation=g2)
        mid = SymplecticPotential(interval_12, perturbation=(g1 + g2) * Fraction(1, 2))
        f1 = mabuchi_eval(rs_a1, u1, "zero", fast).value
        f2 = mabuchi_eval(rs_a1, u2, "zero", fast).value
        fm = mabuchi_eval(rs_a1, mid, "zero", fast).value
        assert fm <= 0.5 * (f1 + f2) + 1e-7


# -- critical equation and variation --------------------------------------------

def test_el_residual_closed_form(rs_a1, interval_12):
    u = SymplecticPotential(interval_12)
    zero = lambda x: 0.0
    for x in (1.2, 1.5, 1.8):
        assert el_residual(rs_a1, u, zero, (x,)) == pytest.approx(
            (12 * x - 12) / x, abs=1e-10
        )


def test_el_residual_vanishes_for_matching_a(rs_a1, interval_12):
    u = SymplecticPotential(interval_12)
    A = lambda x: (12 * x[0] - 12) / x[0]
    for x in (1.25, 1.5, 1.75):
        assert abs(el_residual(rs_a1, u, A, (x,))) < 1e-10


def test_a_presets(rs_a1, interval_12):
    u = SymplecticPotential(interval_12)
    a = float(average_scalar(rs_a1, interval_12))
    paper = make_a_preset(rs_a1, interval_12, "paper")
    csc = make_a_preset(rs_a1, interval_12, "csc")
    zero = make_a_preset(rs_a1, interval_12, "zero")
    for x in (1.3, 1.6):
        assert csc((x,)) == pytest.approx(4 * paper((x,)), abs=1e-12)
        assert zero((x,)) == 0.0
        # with the csc choice the residual measures 2 (S - a)
        r = el_residual(rs_a1, u, csc, (x,))
        s = scalar_curvature(rs_a1, u, (x,))
        assert r == pytest.approx(2 * (s - a), abs=1e-9)
    with pytest.raises(ValueError):
        make_a_preset(rs_a1, interval_12, "nope")


def test_variation_identity(rs_a1, interval_12):
    u = SymplecticPotential(interval_12)
    bump = CompactBump([(Fraction(5, 4), Fraction(7, 4))], polytope=interval_12)
    report = variation_check(rs_a1, u, "zero", bump, eps=1e-4, spec=SPEC)
    assert report.relative_discrepancy < 1e-4
    assert report.advisory is None
    # doubling the perturbation doubles the measured derivative
    double = variation_check(rs_a1, u, "zero", ScaledBump(bump, 2.0), eps=1e-4, spec=SPEC)
    assert abs(double.measured - 2 * report.measured) < 1e-6 * abs(double.measured)


def test_variation_predicted_value(rs_a1, interval_12):
    # int (12x - 12)/x * bump * x dx over [5/4, 7/4] = 1/160 by hand
    u = SymplecticPotential(interval_12)
    bump = CompactBump([(Fraction(5, 4), Fraction(7, 4))], polytope=interval_12)
    report = variation_check(rs_a1, u, "zero", bump, eps=1e-4, spec=SPEC)
    assert report.predicted == pytest.approx(1.0 / 160.0, abs=1e-10)


def test_variation_eps_advisory(rs_a1, interval_12):
    u = SymplecticPotential(interval_12)
    bump = CompactBump([(Fraction(5, 4), Fraction(7, 4))], polytope=interval_12)
    report = variation_check(rs_a1, u, "zero", bump, eps=1e-13, spec=FAST)
    assert report.advisory is not None


def test_bump_support_validation(interval_12):
    with pytest.raises(ValueError):
        CompactBump([(1, Fraction(7, 4))], polytope=interval_12)  # touches x = 1


def test_bump_derivatives_match_finite_differences():
    bump = CompactBump([(0, 1), (0, 1)])
    x = (0.3, 0.6)
    h = 1e-5
    for i in range(2):
        step = [0.0, 0.0]
        step[i] = h
        fd = (
            bump.value([a + b for a, b in zip(x, step)])
            - bump.value([a - b for a, b in zip(x, step)])
        ) / (2 * h)
        assert bump.gradient(x)[i] == pytest.approx(fd, rel=1e-5, abs=1e-9)
    hess = bump.hessian(x)
    fd_mixed = (
        bump.value((x[0] + h, x[1] + h))
        - bump.value((x[0] + h, x[1] - h))
        - bump.value((x[0] - h, x[1] + h))
        + bump.value((x[0] - h, x[1] - h))
    ) / (4 * h * h)
    assert hess[0][1] == pytest.approx(fd_mixed, rel=1e-4, abs=1e-7)


# -- batched contracts ------------------------------------------------------------

def test_callable_a_on_node_arrays_matches_presets(rs_a2, square_11_22):
    """A user callable takes the (m, n) node array and returns m values or a scalar."""
    u = SymplecticPotential(square_11_22, perturbation=Poly(2, {(2, 0): Fraction(1, 20), (0, 2): Fraction(1, 25)}))
    a = float(average_scalar(rs_a2, square_11_22))

    def csc(x):  # 2 (a - f_G), f_G = 2 q1 / p with p = x y (x + y), q1 = x^2 + 4 x y + y^2
        s, t = x[..., 0], x[..., 1]
        return 2.0 * (a - 2.0 * (s * s + 4 * s * t + t * t) / (s * t * (s + t)))

    spec = GradedQuadratureSpec(depth=3, nodes=4, tol=1.0)
    preset = mabuchi_eval(rs_a2, u, "csc", spec)
    user = mabuchi_eval(rs_a2, u, csc, spec)
    assert user.value == pytest.approx(preset.value, rel=1e-12)
    assert user.terms["linear"] == pytest.approx(preset.terms["linear"], rel=1e-12)
    assert mabuchi_eval(rs_a2, u, lambda x: 0.0, spec).value == pytest.approx(
        mabuchi_eval(rs_a2, u, "zero", spec).value, rel=1e-15
    )
    pts = np.array(interior_grid(square_11_22, 5))
    preset_fn = make_a_preset(rs_a2, square_11_22, "csc")
    assert np.allclose(el_residual(rs_a2, u, csc, pts), el_residual(rs_a2, u, preset_fn, pts), rtol=1e-12)


@pytest.mark.parametrize("name", ["interval_12", "square_11_22", "triangle_23", "simplex_235"])
def test_interior_grid_points_are_distinct_and_interior(name, request):
    P = request.getfixturevalue(name)
    for count in (1, 9, 100, 1000):
        pts = interior_grid(P, count)
        assert len(pts) == len(set(pts)) == count
        for p in pts:
            assert all(support_value(P, i, [Fraction(x) for x in p]) > 0 for i in range(len(P.facets)))
    if P.dim > 1:  # the first 1 + 4 #vertices points stay: the centroid, then four per vertex ray
        c = [float(x) for x in P.centroid()]
        rays = [[ci + t * (float(vi) - ci) for ci, vi in zip(c, v)]
                for t in (0.25, 0.5, 0.75, 0.9) for v in P.vertices]
        assert [list(p) for p in pts[: 1 + 4 * len(P.vertices)]] == [c] + rays


def test_callable_a_of_the_wrong_shape_is_refused(rs_a1, interval_12):
    u = SymplecticPotential(interval_12)
    with pytest.raises(ValueError, match="one value per node"):
        # written for one point: x[0] is the first node's row, shape (1,)
        mabuchi_eval(rs_a1, u, lambda x: 12 * x[0], FAST)


@pytest.mark.parametrize(
    "series, vertices",
    [("A", [[1, 1], ["3/2", 1], [1, 2], ["3/2", 2]]), ("B", [["1/2", 1], [2, 1], ["1/2", 2], [2, 2]])],
    ids=["a2-rational-square", "b2-rational-box"],
)
def test_energy_on_a_rational_polygon_matches_exact(series, vertices):
    """With u = g = x^2/2 + y^2/3 + xy/10 and A = zero the energy is exact:
    F_A = -log det(Hess g) int_P p + 2 int_bd g p dsigma, with det Hess g =
    197/300 and both integrals exact on a rational polygon. The float value
    lies within its error estimate of it, or within rounding."""
    P = RationalPolytope.from_vertices(vertices)
    rs = build_classical(series, 2)
    x, y = Poly.variable(2, 0), Poly.variable(2, 1)
    g = x * x * Fraction(1, 2) + y * y * Fraction(1, 3) + x * y * Fraction(1, 10)
    p = dh_weight(rs)
    log_det = -math.log(Fraction(197, 300)) * float(integral_polytope(p, P))
    boundary = 2.0 * float(boundary_integral(g * p, P))
    u = SymplecticPotential(P, perturbation=g, canonical=False)
    res = mabuchi_eval(rs, u, "zero", GradedQuadratureSpec(depth=3, nodes=4))
    scale = abs(log_det) + abs(boundary)
    assert abs(res.value - (log_det + boundary)) <= max(res.error, 1e-12 * scale)


@pytest.mark.parametrize("A", ["zero", "csc"])
def test_variation_identity_2d(rs_a2, square_11_22, A):
    u = SymplecticPotential(square_11_22, perturbation=Poly(2, {(2, 0): Fraction(1, 20), (1, 1): Fraction(1, 50), (0, 2): Fraction(1, 25)}))
    box = [(Fraction(5, 4), Fraction(7, 4))] * 2
    bump = CompactBump(box, polytope=square_11_22)
    spec = GradedQuadratureSpec(depth=4, nodes=6, tol=1.0)
    report = variation_check(rs_a2, u, A, bump, eps=1e-3, spec=spec)
    assert report.relative_discrepancy < 1e-4
    assert report.advisory is None
    tripled = variation_check(rs_a2, u, A, ScaledBump(bump, 3.0), eps=1e-3, spec=spec)
    assert tripled.relative_discrepancy < 1e-4
    assert tripled.predicted == pytest.approx(3 * report.predicted, rel=1e-12)


def test_bump_takes_node_arrays():
    bump = CompactBump([(0, 1), (0, 2)])
    pts = np.array([[0.3, 0.6], [0.5, 1.0], [1.5, 1.0], [0.2, 1.9]])
    scaled = ScaledBump(bump, -2.0)
    for i, x in enumerate(pts):
        assert bump.value(pts)[i] == bump.value(tuple(x))
        assert np.array_equal(bump.gradient(pts)[i], bump.gradient(tuple(x)))
        assert np.array_equal(bump.hessian(pts)[i], bump.hessian(tuple(x)))
        assert np.array_equal(scaled.hessian(pts)[i], -2.0 * np.asarray(bump.hessian(x)))
    assert bump.value(pts)[2] == 0.0  # outside the box
