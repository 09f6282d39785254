"""Futaki invariants: closed forms, lattice oracles, and their exact match."""
import json
from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from kstab.pick import pick_check
from kstab.polynomial import MultivariatePolynomial as Poly
from kstab.polytope import GeometryError, PiecewiseAffine, RationalPolytope
from kstab.quadrature import boundary_integral, integral_polytope, integral_pl_poly, boundary_integral_pl_poly
from kstab.rootsystem import QN1_PFG_RATIO, build_classical, dh_weight, dh_weight_gradient_sum
from kstab import futaki
from kstab.futaki import (
    AmplenessError,
    admissible_modulus,
    average_scalar,
    ehrhart_fit,
    futaki_closed_form,
    futaki_cross_check,
    interpolate_coefficients,
    volume_w,
    weighted_count_dk,
    weighted_weight_wk,
)
import fit_reference
import walk_reference
from lemmas import transform, wk_via_lift
from chart_reference import add_constant, compose_affine


def test_volume_and_average_12(rs_a1, interval_12):
    assert volume_w(rs_a1, interval_12) == Fraction(3, 2)
    assert average_scalar(rs_a1, interval_12) == Fraction(10, 3)


def test_volume_and_average_13(rs_a1, interval_13):
    assert volume_w(rs_a1, interval_13) == 4
    assert average_scalar(rs_a1, interval_13) == 2


def test_average_identity_exact(rs_a1, rs_a2, interval_12, interval_13, square_11_22):
    # a Vol_W - int f_G p - int_bd p dsigma = 0, exactly, for every case
    cases = [
        (rs_a1, interval_12),
        (rs_a1, interval_13),
        (rs_a2, square_11_22),
        (build_classical("B", 2), square_11_22),
    ]
    for rs, P in cases:
        p = dh_weight(rs)
        q1 = dh_weight_gradient_sum(rs)
        a = average_scalar(rs, P)
        lhs = a * integral_polytope(p, P)
        rhs = integral_polytope(q1, P) / QN1_PFG_RATIO + boundary_integral(p, P)
        assert lhs == rhs


def test_positivity_precondition_names_vertex(rs_a1):
    P = RationalPolytope.from_vertices([[0], [1]])
    with pytest.raises(AmplenessError) as err:
        volume_w(rs_a1, P)
    assert "0" in str(err.value)


def test_futaki_closed_form_values(rs_a1, interval_12, f_identity, f_kink):
    assert futaki_closed_form(rs_a1, interval_12, f_identity) == Fraction(-2, 27)
    assert futaki_closed_form(rs_a1, interval_12, f_kink) == Fraction(-35, 108)


@pytest.mark.parametrize(
    "series, rank, F1",
    [
        ("A", 3, Fraction(-15757592721, 44757968696)),
        ("B", 2, Fraction(-6440251, 22232315)),
        ("G2", 2, Fraction(-761779450, 2303358309)),
        ("A", 4, Fraction(-927548177806026622, 2321746741262111163)),
    ],
    ids=["A3", "B2", "G2", "A4"],
)
def test_closed_form_on_unit_cubes(series, rank, F1):
    """f = max(x_i) on [1,2]^rank; the A4 value took minutes by expansion."""
    cube = RationalPolytope.from_vertices(
        [[1 + ((m >> i) & 1) for i in range(rank)] for m in range(2**rank)]
    )
    f = PiecewiseAffine.from_pieces(
        [(tuple(int(i == j) for j in range(rank)), 0) for i in range(rank)]
    )
    assert futaki_closed_form(build_classical(series, rank), cube, f) == F1


def test_futaki_constant_vanishes(rs_a1, rs_a2, interval_12, interval_13, square_11_22):
    for rs, P in [
        (rs_a1, interval_12),
        (rs_a1, interval_13),
        (rs_a2, square_11_22),
    ]:
        for c in (1, Fraction(7, 3), -2):
            f = PiecewiseAffine.from_pieces([((0,) * P.dim, c)])
            assert futaki_closed_form(rs, P, f) == 0


def test_futaki_linearity(rs_a1, rs_a2, interval_12, square_11_22, f_kink, f_max_xy):
    for rs, P, f in [(rs_a1, interval_12, f_kink), (rs_a2, square_11_22, f_max_xy)]:
        base = futaki_closed_form(rs, P, f)
        doubled = PiecewiseAffine.from_pieces([([2 * x for x in a], 2 * b) for a, b in f.pieces])
        assert futaki_closed_form(rs, P, doubled) == 2 * base
        assert futaki_closed_form(rs, P, add_constant(f, Fraction(5, 7))) == base


def test_dk_closed_form(rs_a1, interval_12):
    # sum over lambda in [k, 2k] of (1 + lambda), by arithmetic series
    for k in range(1, 7):
        series = sum(1 + lam for lam in range(k, 2 * k + 1))
        assert weighted_count_dk(rs_a1, interval_12, k) == series
        assert weighted_count_dk(rs_a1, interval_12, k) == Fraction(3 * k * k + 5 * k + 2, 2)


def test_wk_enumeration_oracle(rs_a1, interval_12, f_identity):
    # w_1 = sum (1 + lambda)(3 - lambda) over lambda in {1, 2} = 4 + 3
    assert weighted_weight_wk(rs_a1, interval_12, f_identity, 3, 1) == 7
    for k in range(1, 7):
        direct = sum((1 + lam) * (3 * k - lam) for lam in range(k, 2 * k + 1))
        assert weighted_weight_wk(rs_a1, interval_12, f_identity, 3, k) == direct


def test_wk_constant_f_is_kR_dk(rs_a1, interval_12):
    f0 = PiecewiseAffine.from_pieces([((0,), 0)])
    for k in range(1, 7):
        assert weighted_weight_wk(rs_a1, interval_12, f0, 2, k) == 2 * k * weighted_count_dk(
            rs_a1, interval_12, k
        )


def test_admissible_modulus(rs_a1, interval_12, f_identity, f_kink):
    assert admissible_modulus(f_identity, interval_12) == 1
    # the kink at 3/2 forces even sampling even though coefficients are integral
    assert admissible_modulus(f_kink, interval_12) == 2
    # R = 7/3 does not enter: w_k(R) = w_k(0) + R k d_k is a polynomial
    # along the multiples of 1; N + n + 3 = 5 samples, two of them positive
    fit = ehrhart_fit(rs_a1, interval_12, f_identity, Fraction(7, 3))
    assert (fit.ks, fit.reciprocal_ks) == ((1, 2), (0, -1, -2))


@pytest.mark.parametrize(
    "series, hi, offset, R, m",
    [("G2", (3, 3), 0, "7/3", 1), ("A", (2, 2), 0, "5/2", 1), ("B", (3, 2), "1/2", "10/3", 2),
     ("A", (2, 2, 2), 0, "7/2", 1)],
)
def test_fractional_r_agrees_at_the_modulus_of_f_and_p(series, hi, offset, R, m):
    """On the box [1, hi] with f = max(x_1, ..., x_{n-1}, x_n + offset), the
    oracle samples k = m, 2m, ... with m from f and P alone, and still
    matches the closed form exactly when R has a denominator."""
    n = len(hi)
    P = RationalPolytope.from_vertices(list(product(*[(1, h) for h in hi])))
    f = PiecewiseAffine.from_pieces([((0,) * i + (1,) + (0,) * (n - 1 - i), 0) for i in range(n - 1)]
                                    + [((0,) * (n - 1) + (1,), Fraction(offset))])
    report = futaki_cross_check(build_classical(series, n), P, f, Fraction(R))
    assert admissible_modulus(f, P) == m
    assert report.oracle_details.ks[:2] == (m, 2 * m)
    assert report.agreement is True


def test_wk_is_exact_off_the_progression(rs_a1, interval_12, f_kink):
    """w_k is a well-defined sum at every k; only its polynomiality needs k in m Z."""
    for k in (1, 3, 5):
        assert weighted_weight_wk(rs_a1, interval_12, f_kink, 2, k) == walk_reference.weighted_weight_wk(
            rs_a1, interval_12, f_kink, 2, k
        )


def test_ehrhart_fit_leading_coefficients(rs_a1, interval_12, f_identity):
    fit = ehrhart_fit(rs_a1, interval_12, f_identity, 3, kmax=8)
    assert fit.ks == tuple(range(1, 9))
    assert (fit.A, fit.B, fit.C, fit.D) == (
        Fraction(13, 6),
        Fraction(7, 2),
        Fraction(3, 2),
        Fraction(5, 2),
    )
    assert fit.F0 == Fraction(13, 9)
    assert fit.F1 == Fraction(-2, 27)


def test_r_shift_moves_f0_only(rs_a1, interval_12, f_identity):
    fit3 = ehrhart_fit(rs_a1, interval_12, f_identity, 3)
    fit4 = ehrhart_fit(rs_a1, interval_12, f_identity, 4)
    assert fit3.F1 == fit4.F1
    assert fit4.F0 - fit3.F0 == 1


@pytest.mark.parametrize("series", ["A", "B", "G2"])
def test_r_shift_keeps_f1_on_boxes(square_11_22, f_max_xy, series):
    """w_k(R + 1) = w_k(R) + k d_k, so futaki_cross_check fits at R only."""
    rs = build_classical(series, 2)
    fit3 = ehrhart_fit(rs, square_11_22, f_max_xy, 3)
    fit4 = ehrhart_fit(rs, square_11_22, f_max_xy, 4)
    assert fit3.F1 == fit4.F1
    assert fit4.F0 - fit3.F0 == 1


def test_wk_via_lift_base_case(rs_a1, interval_12):
    f0 = PiecewiseAffine.from_pieces([((0,), 0)])
    assert wk_via_lift(rs_a1, interval_12, f0, 1, 1) == 5  # k R d_k with d_1 = 5


def test_wk_via_lift_agrees(rs_a1, interval_12, f_identity, f_kink):
    for k in range(1, 7):
        assert wk_via_lift(rs_a1, interval_12, f_identity, 3, k) == weighted_weight_wk(
            rs_a1, interval_12, f_identity, 3, k
        )
    for k in (2, 4, 6, 8, 10, 12):
        assert wk_via_lift(rs_a1, interval_12, f_kink, 2, k) == weighted_weight_wk(
            rs_a1, interval_12, f_kink, 2, k
        )


def test_wk_via_lift_needs_integer_gradients(rs_a1, interval_12):
    f = PiecewiseAffine.from_pieces([((Fraction(1, 2),), 0)])
    with pytest.raises(ValueError):
        wk_via_lift(rs_a1, interval_12, f, 3, 2)


def test_wk_via_lift_needs_integer_k_r(rs_a1, interval_12, f_identity):
    """The modulus leaves R out, so the lift checks k R itself."""
    R = Fraction(10, 3)
    with pytest.raises(ValueError, match="not an integer"):
        wk_via_lift(rs_a1, interval_12, f_identity, R, 2)
    assert wk_via_lift(rs_a1, interval_12, f_identity, R, 3) == weighted_weight_wk(
        rs_a1, interval_12, f_identity, R, 3
    )


def test_cross_check_suite(rs_a1, rs_a2, interval_12, interval_13, square_11_22,
                           f_identity, f_kink, f_max_xy):
    cases = [
        (rs_a1, interval_12, f_identity, 3),
        (rs_a1, interval_12, f_kink, 2),
        (rs_a1, interval_13, f_identity, 4),
        (rs_a2, square_11_22, f_max_xy, 3),
    ]
    for rs, P, f, R in cases:
        report = futaki_cross_check(rs, P, f, R)
        assert report.agreement is True
        assert report.F1_closed == report.F1_oracle


CROSS_CHECK_SYSTEMS = {1: [("A", 1)], 2: [("A", 2), ("B", 2), ("G2", 2)], 3: [("A", 3), ("B", 3)]}


@st.composite
def cross_check_cases(draw):
    """A lattice polytope in the open positive chamber (coordinates 1-4 in
    dimensions 1 and 2, 1-2 in dimension 3), a convex PL f with small integer
    gradients and offsets, an integer R and a root system of the polytope's
    dimension."""
    n = draw(st.integers(1, 3))
    coord = st.integers(1, 4 if n < 3 else 2)
    pts = draw(st.lists(st.tuples(*[coord] * n), min_size=n + 1, max_size=n + 3))
    try:
        P = RationalPolytope.from_vertices(pts)
    except GeometryError:
        assume(False)
    piece = st.tuples(st.tuples(*[st.integers(-2, 2)] * n), st.integers(-3, 3))
    f = PiecewiseAffine.from_pieces(draw(st.lists(piece, min_size=1, max_size=3)))
    R = draw(st.integers(0, 4))
    assume(admissible_modulus(f, P) <= 2)
    rs = build_classical(*draw(st.sampled_from(CROSS_CHECK_SYSTEMS[n])))
    return rs, P, f, R


@settings(max_examples=60, deadline=None)
@given(cross_check_cases())
def test_cross_check_agrees_on_random_lattice_polytopes(case):
    """The closed form and the lattice oracle give the same F1, Vol_W and a."""
    rs, P, f, R = case
    report = futaki_cross_check(rs, P, f, R)
    assert report.agreement is True
    assert report.F1_closed == report.F1_oracle


@settings(max_examples=20, deadline=None)
@given(cross_check_cases(), st.none() | st.tuples(st.integers(1, 2), st.integers(0, 1)))
def test_ehrhart_fit_matches_reference_on_random_lattice_polytopes(case, more):
    """The fit equals the explicit-samples reference on k = m, 2m, ...: by
    default (``more`` is None) in its polynomials and leaders, with its
    positive samples a prefix of the reference's; with a kmax that asks for
    1-2 samples beyond N + n + 3, on or just past a multiple of the modulus,
    in every field, since such a kmax leaves no reciprocal sample."""
    rs, P, f, R = case
    m = admissible_modulus(f, P)
    kmax = None
    if more is not None:
        extra, offset = more
        kmax = m * (rs.num_positive_roots + rs.rank + 3 + extra) + offset * (m - 1)
    ref = fit_reference.ehrhart_fit(
        rs, P, f, R, fit_reference.cross_check_samples(rs, m, kmax), modulus=m
    )
    fit = ehrhart_fit(rs, P, f, R, kmax)
    if kmax is not None:
        assert fit == ref
        return
    fields = ("d_coeffs", "w_coeffs", "A", "B", "C", "D", "F0", "F1")
    assert [getattr(fit, name) for name in fields] == [getattr(ref, name) for name in fields]
    count = len(fit.ks)
    assert (fit.ks, fit.d_values, fit.w_values) == (ref.ks[:count], ref.d_values[:count], ref.w_values[:count])
    assert count + len(fit.reciprocal_ks) == len(ref.ks)


# Most drawn cases have f > R - 1 somewhere, so the assume below discards
# more examples than it keeps; generation, not the check, pays for that.
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(cross_check_cases())
def test_wk_via_lift_agrees_on_random_lattice_polytopes(case):
    """The lift count equals the direct weight sum at k = m, 2m wherever the
    lift exists: the gradients are integers by construction, and f <= R - 1
    on the vertices."""
    rs, P, f, R = case
    assume(all(f.value(v) <= R - 1 for v in P.vertices))
    m = admissible_modulus(f, P)
    for k in (m, 2 * m):
        assert wk_via_lift(rs, P, f, R, k) == weighted_weight_wk(rs, P, f, R, k)


@st.composite
def rational_cases(draw):
    """A rational polytope in the open positive chamber (vertex coordinates in
    [1/3, 2], denominators <= 3), a convex PL f of 1-2 pieces with gradients
    in {-1, 0, 1} and offsets of denominator <= 3, admissible modulus <= 6,
    a root system of the polytope's dimension and an integer h of degree
    <= 2."""
    n = draw(st.integers(1, 2))
    coord = st.fractions(min_value=Fraction(1, 3), max_value=2, max_denominator=3)
    pts = draw(st.lists(st.tuples(*[coord] * n), min_size=n + 1, max_size=n + 2, unique=True))
    try:
        P = RationalPolytope.from_vertices(pts)
    except GeometryError:
        assume(False)
    offset = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    piece = st.tuples(st.tuples(*[st.integers(-1, 1)] * n), offset)
    f = PiecewiseAffine.from_pieces(draw(st.lists(piece, min_size=1, max_size=2)))
    assume(admissible_modulus(f, P) <= 6)
    rs = build_classical(*draw(st.sampled_from(CROSS_CHECK_SYSTEMS[n])))
    exp = st.tuples(*[st.integers(0, 2)] * n).filter(lambda e: sum(e) <= 2)
    h = Poly(n, draw(st.dictionaries(exp, st.integers(-3, 3).filter(bool), min_size=1, max_size=3)))
    return rs, P, f, h


@settings(max_examples=20, deadline=None)
@given(rational_cases(), st.integers(0, 4))
def test_routes_and_pick_agree_on_random_rational_polytopes(case, R):
    """Both exact routes give the same F1, Vol_W and a on rational P, sampling
    along the admissible modulus, and pick's fit along P's vertex modulus
    reproduces int_P h and half the canonical boundary integral."""
    rs, P, f, h = case
    report = futaki_cross_check(rs, P, f, R)
    assert report.agreement is True
    assert pick_check(P, h)[0] is True


@st.composite
def reciprocity_cases(draw):
    """A ``cross_check_cases`` draw, or a ``rational_cases`` draw (h left
    out) with a rational R of denominator <= 3."""
    if draw(st.booleans()):
        return draw(cross_check_cases())
    rs, P, f, _ = draw(rational_cases())
    return rs, P, f, draw(st.fractions(min_value=0, max_value=4, max_denominator=3))


@settings(max_examples=30, deadline=None)
@given(reciprocity_cases())
def test_reciprocal_samples_lie_on_the_positive_fit(case):
    """Ehrhart-Macdonald reciprocity: at k = 0, -m, -2m the count and weight
    sums (no walk at 0, interior walks of |k| P below) equal the reference
    fit through k = m, 2m, ..., (N + n + 3) m, evaluated at k."""
    rs, P, f, R = case
    m = admissible_modulus(f, P)
    ref = fit_reference.ehrhart_fit(rs, P, f, R, modulus=m)
    for k in (0, -m, -2 * m):
        assert weighted_count_dk(rs, P, k) == futaki._poly_value(ref.d_coeffs, Fraction(k))
        assert weighted_weight_wk(rs, P, f, R, k) == futaki._poly_value(ref.w_coeffs, Fraction(k))


def test_routes_and_pick_agree_on_a_rational_a3_simplex():
    """A simplex with vertex denominators 2 and a kink at x_1 = x_2 + 1/2:
    the oracle samples k = 2, 4, ..., 12 and k = 0, -2, ..., -10, and pick
    k = 2, 4, ..., 14."""
    half = Fraction(1, 2)
    P = RationalPolytope.from_vertices(
        [(half, half, half), (2, half, half), (half, 2, half), (half, half, 2)]
    )
    f = PiecewiseAffine.from_pieces([((1, 0, 0), 0), ((0, 1, 0), half)])
    report = futaki_cross_check(build_classical("A", 3), P, f, 3)
    assert report.agreement is True
    assert report.oracle_details.ks == tuple(range(2, 13, 2))
    assert report.oracle_details.reciprocal_ks == tuple(range(0, -11, -2))
    passed, fit = pick_check(P, Poly.variable(3, 0) + Poly.variable(3, 2))
    assert passed is True
    assert fit.ks == tuple(range(2, 15, 2))


@pytest.mark.parametrize("field", ["vol_W", "a"])
def test_cross_check_agreement_covers_volume_and_average(
    monkeypatch, rs_a1, interval_12, f_identity, field
):
    """A closed form that is off in Vol_W or a alone fails the cross-check."""
    real = futaki.closed_form_report

    def off_by_one(rs, P, f):
        report = real(rs, P, f)
        return replace(report, **{field: getattr(report, field) + 1})

    monkeypatch.setattr(futaki, "closed_form_report", off_by_one)
    report = futaki_cross_check(rs_a1, interval_12, f_identity, 3)
    assert report.F1_closed == report.F1_oracle
    assert report.agreement is False


def test_report_serialization_round_trip(rs_a1, interval_12, f_identity):
    report = futaki_cross_check(rs_a1, interval_12, f_identity, 3)
    blob = json.dumps(report.to_json_dict())
    data = json.loads(blob)
    assert Fraction(data["vol_W"]) == report.vol_W
    assert Fraction(data["a"]) == report.a
    assert Fraction(data["F1_closed"]) == report.F1_closed
    assert Fraction(data["F1_oracle"]) == report.F1_oracle
    assert data["agreement"] is True
    assert Fraction(data["oracle_details"]["A"]) == report.oracle_details.A


def test_interpolation_helper():
    xs = [Fraction(k) for k in (1, 2, 3, 4)]
    ys = [Fraction(2 * k**3 - k + 5) for k in (1, 2, 3, 4)]
    coeffs = interpolate_coefficients(xs, ys)
    assert coeffs == [Fraction(5), Fraction(-1), Fraction(0), Fraction(2)]


def _transformed_closed_form(rs, P, f, g, ginv):
    """Closed form after a lattice coordinate change.

    The weight data transforms by substitution (p and q_{N-1} pull back along
    g^{-1}; the constants |M^a| ride along), the polytope maps forward, the
    PL function pulls back. Every ingredient of F1 is then assembled from the
    transformed data.
    """
    p = dh_weight(rs).substitute_affine(
        [[Fraction(ginv[r][c]) for c in range(len(ginv))] for r in range(len(ginv))],
        [0] * len(ginv),
    )
    q1 = dh_weight_gradient_sum(rs).substitute_affine(
        [[Fraction(ginv[r][c]) for c in range(len(ginv))] for r in range(len(ginv))],
        [0] * len(ginv),
    )
    gP = transform(P, g)
    gf = compose_affine(f, [[Fraction(ginv[r][c]) for c in range(len(ginv))] for r in range(len(ginv))], [0, 0])
    vol = integral_polytope(p, gP)
    a = 2 * (integral_polytope(q1, gP) + boundary_integral(p, gP) / 2) / vol
    bracket = (
        integral_pl_poly(gf, q1, gP) / QN1_PFG_RATIO
        + boundary_integral_pl_poly(gf, p, gP)
        - a * integral_pl_poly(gf, p, gP)
    )
    return vol, a, -bracket / (2 * vol)


def test_gl_equivariance_shear(rs_a2, square_11_22, f_max_xy):
    g = [[1, 1], [0, 1]]
    ginv = [[1, -1], [0, 1]]
    vol0 = volume_w(rs_a2, square_11_22)
    a0 = average_scalar(rs_a2, square_11_22)
    f10 = futaki_closed_form(rs_a2, square_11_22, f_max_xy)
    vol, a, f1 = _transformed_closed_form(rs_a2, square_11_22, f_max_xy, g, ginv)
    assert (vol, a, f1) == (vol0, a0, f10)


def test_gl_equivariance_swap_through_public_api(rs_a2, square_11_22):
    # Coordinate swap preserves the A2 coroot set, so the public entry points
    # must return identical values on the swapped data.
    g = [[0, 1], [1, 0]]
    gP = transform(square_11_22, g)
    f = PiecewiseAffine.from_pieces([((1, 0), 0), ((0, 2), -1)])
    gf = compose_affine(f, g, [0, 0])
    assert volume_w(rs_a2, gP) == volume_w(rs_a2, square_11_22)
    assert average_scalar(rs_a2, gP) == average_scalar(rs_a2, square_11_22)
    assert futaki_closed_form(rs_a2, gP, gf) == futaki_closed_form(
        rs_a2, square_11_22, f
    )
