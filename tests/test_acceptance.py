"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line so the suite doubles as a checklist:

    pytest tests/test_acceptance.py -v -s
"""
import math
import random
import time
from fractions import Fraction

from kstab.polynomial import MultivariatePolynomial as Poly
from kstab.polytope import PiecewiseAffine
from kstab.quadrature import (
    GradedQuadratureSpec,
    boundary_integral,
    boundary_integral_pl_poly,
    graded_integral,
    integral_pl_poly,
    integral_polytope,
)
from kstab.rootsystem import (
    QN1_PFG_RATIO,
    build_classical,
    dh_weight,
    dh_weight_gradient_sum,
    dimension,
)
from kstab.futaki import (
    average_scalar,
    ehrhart_fit,
    futaki_closed_form,
    volume_w,
    weighted_weight_wk,
)
from kstab.pick import pick_check, pick_fit, pick_sum
from kstab.mabuchi import SymplecticPotential, mabuchi_eval, scalar_curvature
from chart_reference import compose_affine
from conftest import slanted_facet_index
from lemmas import (
    CompactBump,
    ScaledBump,
    facet_lattice_count,
    facet_measure,
    transform,
    variation_check,
    wk_via_lift,
)

QUAD = GradedQuadratureSpec(depth=12, nodes=10, tol=1e-6)


def report(number: int, ok: bool, detail: str) -> None:
    print("criterion %2d: %s  %s" % (number, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %d failed: %s" % (number, detail)


def test_criterion_01_futaki_exactness(rs_a1, interval_12, f_identity):
    start = time.perf_counter()
    closed = futaki_closed_form(rs_a1, interval_12, f_identity)
    fits = [
        ehrhart_fit(rs_a1, interval_12, f_identity, R, kmax=8)
        for R in (3, 4)
    ]
    elapsed = time.perf_counter() - start
    ok = (
        closed == Fraction(-2, 27)
        and all(fit.F1 == Fraction(-2, 27) for fit in fits)
        and elapsed < 1.0
    )
    report(1, ok, "closed=%s oracle=%s in %.3fs" % (closed, fits[0].F1, elapsed))


def test_criterion_02_second_futaki_case(rs_a1, interval_12, f_kink):
    closed = futaki_closed_form(rs_a1, interval_12, f_kink)
    fit = ehrhart_fit(rs_a1, interval_12, f_kink, 2, kmax=16)
    ok = closed == fit.F1 == Fraction(-35, 108)
    report(2, ok, "closed=%s oracle(even k<=16)=%s" % (closed, fit.F1))


def test_criterion_03_constant_f_vanishes(rs_a1, rs_a2, interval_12, interval_13, square_11_22):
    suite = [
        (rs_a1, interval_12),
        (rs_a1, interval_13),
        (rs_a2, square_11_22),
    ]
    values = [
        futaki_closed_form(rs, P, PiecewiseAffine.from_pieces([((0,) * P.dim, c)]))
        for rs, P in suite
        for c in (1, Fraction(5, 2))
    ]
    ok = all(v == 0 for v in values)
    report(3, ok, "F1(const) over the suite = %s" % (set(values),))


def test_criterion_04_sigma_measure(triangle_23, simplex_235):
    m2 = facet_measure(triangle_23, slanted_facet_index(triangle_23))
    m3 = facet_measure(simplex_235, slanted_facet_index(simplex_235))
    ok = m2 == 1 and m3 == Fraction(1, 2)
    report(4, ok, "slanted measures: (2,3) -> %s, (2,3,5) -> %s" % (m2, m3))


def test_criterion_05_lattice_count_limit(square_11_22, triangle_23, simplex_235):
    cases = [
        (square_11_22, 0),
        (triangle_23, slanted_facet_index(triangle_23)),
        (triangle_23, 1),
        (simplex_235, slanted_facet_index(simplex_235)),
    ]
    ok = True
    detail = []
    for P, i in cases:
        sigma = facet_measure(P, i)
        errs = [
            abs(Fraction(facet_lattice_count(P, i, k), k ** (P.dim - 1)) - sigma)
            for k in (8, 16, 32, 64, 128)
        ]
        ratios = [float(e2 / e1) for e1, e2 in zip(errs, errs[1:]) if e1 != 0]
        ok = ok and all(0.25 <= r <= 0.75 for r in ratios)
        detail.append("%s" % ["%.3f" % r for r in ratios])
    report(5, ok, "error halving ratios " + "; ".join(detail))


def test_criterion_06_generalized_pick(unit_square):
    x, y = Poly.variable(2, 0), Poly.variable(2, 1)
    h = x * x + y * y
    closed_ok = all(
        pick_sum(unit_square, h, k)
        == Fraction(2, 3) * k**2 + Fraction(5, 3) * k + Fraction(4, 3) + Fraction(1, 3 * k)
        for k in range(1, 65)
    )
    fit = pick_fit(unit_square, h, ks=(4, 8, 16, 32, 64))
    coeff_ok = fit.c_top == Fraction(2, 3) and fit.c_next == Fraction(5, 3)
    passed, _ = pick_check(unit_square, h, ks=(4, 8, 16, 32, 64))
    bounded_ok = all(abs(r) <= Fraction(4, 3) + Fraction(1, 3) for r in fit.residuals)
    ok = closed_ok and coeff_ok and passed and bounded_ok
    report(6, ok, "c2=%s c1=%s residuals bounded=%s" % (fit.c_top, fit.c_next, bounded_ok))


def test_criterion_07_weyl_dimensions():
    a1 = build_classical("A", 1)
    a2 = build_classical("A", 2)
    b2 = build_classical("B", 2)
    g2 = build_classical("G2", 2)
    table_ok = (
        all(dimension(a1, [lam]) == lam + 1 for lam in range(0, 12))
        and dimension(a2, [1, 0]) == 3
        and dimension(a2, [1, 1]) == 8
        and sorted(int(dimension(b2, w)) for w in ([1, 0], [0, 1])) == [4, 5]
        and sorted(int(dimension(g2, w)) for w in ([1, 0], [0, 1])) == [7, 14]
    )
    rng = random.Random(8128)
    integral_ok = True
    for rs in (a1, a2, b2, g2):
        for _ in range(100):
            lam = [rng.randrange(0, 10) for _ in range(rs.rank)]
            d = dimension(rs, lam)
            integral_ok = integral_ok and d.denominator == 1 and d > 0
    ok = table_ok and integral_ok
    report(7, ok, "tables and 100 random dominant weights per system")


def test_criterion_08_scalar_curvature_identity(rs_a1, interval_12, interval_13):
    p = dh_weight(rs_a1)
    results = []
    for P, closed, target in (
        (interval_12, lambda x: 6 - 4 / x, 5.0),
        (interval_13, lambda x: 3 - 2 / x, 8.0),
    ):
        u = SymplecticPotential(P)
        (a,), (b,) = P.vertices[0], P.vertices[-1]
        a, b = float(a), float(b)
        grid = [a + (b - a) * (i + 1) / 101.0 for i in range(100)]
        point_err = max(abs(scalar_curvature(rs_a1, u, (x,)) - closed(x)) for x in grid)
        val, _ = graded_integral(
            lambda x: scalar_curvature(rs_a1, u, x) * p.evaluate_float(list(x)), P, QUAD
        )
        int_err = abs(val - target)
        results.append((point_err, int_err))
    ok = all(pe < 1e-8 and ie < 1e-6 for pe, ie in results)
    report(8, ok, "pointwise/integral errors %s" % (results,))


def test_criterion_09_mabuchi_value(rs_a1, interval_12):
    start = time.perf_counter()
    u = SymplecticPotential(interval_12)
    res = mabuchi_eval(rs_a1, u, "zero", QUAD)
    elapsed = time.perf_counter() - start
    expected = 1.5 * math.log(2.0) - 3.0
    err = abs(res.value - expected)
    ok = err < 1e-6 and elapsed < 5.0
    report(9, ok, "value err %.2e in %.2fs (depth %d)" % (err, elapsed, QUAD.depth))


def test_criterion_10_variational_identity(rs_a1, interval_12):
    u = SymplecticPotential(interval_12)
    bump = CompactBump([(Fraction(5, 4), Fraction(7, 4))], polytope=interval_12)
    single = variation_check(rs_a1, u, "zero", bump, eps=1e-4, spec=QUAD)
    double = variation_check(rs_a1, u, "zero", ScaledBump(bump, 2.0), eps=1e-4, spec=QUAD)
    linear_err = abs(double.measured - 2 * single.measured) / abs(double.measured)
    ok = single.relative_discrepancy <= 1e-4 and linear_err <= 1e-6
    report(
        10,
        ok,
        "discrepancy %.2e, doubling error %.2e" % (single.relative_discrepancy, linear_err),
    )


def test_criterion_11_gl_equivariance(rs_a2, square_11_22, f_max_xy):
    g = [[1, 1], [0, 1]]
    ginv = [[Fraction(1), Fraction(-1)], [Fraction(0), Fraction(1)]]
    zero2 = [Fraction(0), Fraction(0)]
    p = dh_weight(rs_a2).substitute_affine(ginv, zero2)
    q1 = dh_weight_gradient_sum(rs_a2).substitute_affine(ginv, zero2)
    gP = transform(square_11_22, g)
    gf = compose_affine(f_max_xy, ginv, zero2)
    vol = integral_polytope(p, gP)
    a = 2 * (integral_polytope(q1, gP) + boundary_integral(p, gP) / 2) / vol
    bracket = (
        integral_pl_poly(gf, q1, gP) / QN1_PFG_RATIO
        + boundary_integral_pl_poly(gf, p, gP)
        - a * integral_pl_poly(gf, p, gP)
    )
    f1 = -bracket / (2 * vol)
    ok = (
        vol == volume_w(rs_a2, square_11_22)
        and a == average_scalar(rs_a2, square_11_22)
        and f1 == futaki_closed_form(rs_a2, square_11_22, f_max_xy)
    )
    report(11, ok, "shear leaves (Vol_W, a, F1) = (%s, %s, %s)" % (vol, a, f1))


def test_criterion_12_weight_consistency(rs_a1, rs_a2, interval_12, interval_13,
                                          square_11_22, f_identity, f_kink, f_max_xy):
    suite = [
        (rs_a1, interval_12, f_identity, Fraction(3), 1),
        (rs_a1, interval_12, f_kink, Fraction(2), 2),
        (rs_a1, interval_13, f_identity, Fraction(4), 1),
        (rs_a2, square_11_22, f_max_xy, Fraction(3), 1),
    ]
    checked = 0
    ok = True
    for rs, P, f, R, m in suite:
        for k in range(m, 13, m):
            direct = weighted_weight_wk(rs, P, f, R, k)
            lifted = wk_via_lift(rs, P, f, R, k)
            ok = ok and direct == lifted
            checked += 1
    report(12, ok, "%d admissible dilations, direct sum == lift count" % checked)
