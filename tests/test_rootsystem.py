"""Root-system construction against the classical representation tables."""
import random
from fractions import Fraction

import pytest

from kstab.polynomial import MultivariatePolynomial as Poly
from kstab.rootsystem import (
    MAX_RANK,
    QN1_PFG_RATIO,
    RootSystemError,
    _validate_cartan,
    build_classical,
    build_from_cartan,
    cartan_matrix,
    dh_weight,
    dh_weight_gradient_sum,
    dimension,
)
from lemmas import f_g_fraction, homogeneous_parts, weyl_polynomial
from rootsystem_reference import reference_positive_roots

BUILTINS = [
    ("A", 1),
    ("A", 2),
    ("A", 3),
    ("B", 2),
    ("B", 3),
    ("C", 2),
    ("C", 3),
    ("D", 3),
    ("D", 4),
    ("G2", 2),
    ("F4", 4),
]


def fundamental_dims(rs):
    n = rs.rank
    return sorted(
        int(dimension(rs, [1 if j == i else 0 for j in range(n)])) for i in range(n)
    )


def test_a1_single_root():
    rs = build_classical("A", 1)
    assert rs.positive_roots == ((1,),)
    assert rs.denom == 1


def test_a2_roots_match_root_string_closure():
    explicit = build_classical("A", 2)
    closed = build_from_cartan([[2, -1], [-1, 2]])
    assert set(explicit.positive_roots) == {(1, 0), (0, 1), (1, 1)}
    assert explicit.positive_roots == closed.positive_roots


def test_rank_one_cartan():
    assert build_from_cartan([[2]]).positive_roots == ((1,),)


def test_b2_fundamental_dimensions():
    rs = build_classical("B", 2)
    assert len(rs.positive_roots) == 4
    assert fundamental_dims(rs) == [4, 5]


def test_g2_from_cartan():
    rs = build_from_cartan([[2, -1], [-3, 2]])
    assert len(rs.positive_roots) == 6
    assert fundamental_dims(rs) == [7, 14]


def test_classical_tables():
    # Classical dimension tables distinguish the duals B3 / C3 and pin F4, D4.
    assert fundamental_dims(build_classical("B", 3)) == [7, 8, 21]
    assert fundamental_dims(build_classical("C", 3)) == [6, 14, 14]
    assert fundamental_dims(build_classical("D", 4)) == [8, 8, 8, 28]
    f4 = build_classical("F4", 4)
    assert f4.num_positive_roots == 24
    assert fundamental_dims(f4) == [26, 52, 273, 1274]


def test_positive_root_counts():
    for series, rank, expect in [
        ("A", 4, 10),
        ("B", 4, 16),
        ("C", 4, 16),
        ("D", 4, 12),
        ("G2", 2, 6),
    ]:
        assert build_classical(series, rank).num_positive_roots == expect


def test_closure_agrees_with_explicit_builders():
    """Both routes through the closure reproduce the hand-written tables."""
    cases = [(s, n) for s in "ABC" for n in range(1, 9)] + [("D", n) for n in range(2, 9)]
    for series, rank in cases + [("G2", 2)]:
        expected = reference_positive_roots(series, rank)
        assert build_classical(series, rank).positive_roots == expected, (series, rank)
        closed = build_from_cartan(cartan_matrix(series, rank))
        assert closed.positive_roots == expected, (series, rank)


def test_builtin_cartan_matrices_are_of_finite_type():
    """build_classical skips validation, so every built-in matrix must pass it."""
    cases = [(s, n) for s in "ABC" for n in range(1, MAX_RANK + 1)]
    cases += [("D", n) for n in range(2, MAX_RANK + 1)] + [("G2", 2), ("F4", 4)]
    for series, rank in cases:
        C = cartan_matrix(series, rank)
        assert _validate_cartan(C) == C, (series, rank)


def test_rank_limit():
    for series in ("A", "B", "C", "D"):
        assert build_classical(series, MAX_RANK).rank == MAX_RANK
        with pytest.raises(RootSystemError, match="rank 17 exceeds the limit of 16"):
            build_classical(series, MAX_RANK + 1)
    too_big = cartan_matrix("A", MAX_RANK)
    too_big = [row + [0] for row in too_big] + [[0] * MAX_RANK + [2]]
    with pytest.raises(RootSystemError, match="rank 17 exceeds the limit of 16"):
        build_from_cartan(too_big)


def test_invalid_cartan_matrices():
    with pytest.raises(RootSystemError):
        build_from_cartan([[2, -1], [0, 2]])  # asymmetric zero pattern
    with pytest.raises(RootSystemError):
        build_from_cartan([[2, -2], [-2, 2]])  # affine, not finite type
    with pytest.raises(RootSystemError):
        build_from_cartan([[2, -3], [-3, 2]])  # indefinite
    with pytest.raises(RootSystemError):
        build_from_cartan([[1]])


def test_unsupported_series_rank():
    with pytest.raises(RootSystemError):
        build_classical("G2", 3)
    with pytest.raises(RootSystemError):
        build_classical("F4", 3)
    with pytest.raises(RootSystemError):
        build_classical("E", 8)


def test_weyl_polynomial_a1():
    rs = build_classical("A", 1)
    lam = Poly.variable(1, 0)
    assert weyl_polynomial(rs) == lam + 1
    assert weyl_polynomial(rs).evaluate([3]) / rs.denom == 4  # spin 3/2


def test_weyl_polynomial_a2_product_oracle():
    rs = build_classical("A", 2)
    l1, l2 = Poly.variable(2, 0), Poly.variable(2, 1)
    expected = (1 + l1) * (1 + l2) * (2 + l1 + l2)
    assert weyl_polynomial(rs) == expected


def test_weyl_polynomial_positive_integer_coefficients():
    for series, rank in [("A", 2), ("B", 2), ("G2", 2), ("C", 3)]:
        q = weyl_polynomial(build_classical(series, rank))
        assert q.degree() == build_classical(series, rank).num_positive_roots
        assert all(c.denominator == 1 and c > 0 for _, c in q.sorted_terms())


def test_homogeneous_parts_a1():
    rs = build_classical("A", 1)
    q = weyl_polynomial(rs)
    qN, qN1, r = homogeneous_parts(q, 1)
    assert qN == Poly.variable(1, 0)
    assert qN1 == Poly.constant(1, 1)
    assert r.is_zero


def test_homogeneous_parts_a2_by_hand():
    rs = build_classical("A", 2)
    q = weyl_polynomial(rs)
    qN, qN1, r = homogeneous_parts(q, 3)
    l1, l2 = Poly.variable(2, 0), Poly.variable(2, 1)
    assert qN == l1 * l2 * (l1 + l2)
    # sum over roots beta of |M^beta| prod_{a != beta} (M^a . l), expanded:
    assert qN1 == l1 * l1 + 4 * l1 * l2 + l2 * l2
    assert r.degree() <= 1


def test_dh_weight_matches_top_part():
    for series, rank in BUILTINS[:8]:
        rs = build_classical(series, rank)
        q = weyl_polynomial(rs)
        qN, qN1, _ = homogeneous_parts(q, rs.num_positive_roots)
        assert dh_weight(rs) == qN
        assert dh_weight_gradient_sum(rs) == qN1


def test_f_g_identities():
    for series, rank in [("A", 1), ("A", 2), ("B", 2), ("G2", 2)]:
        rs = build_classical(series, rank)
        num, den = f_g_fraction(rs)
        assert den == dh_weight(rs)
        # numerator is 2 sum_j d_j p by construction; check structurally
        p = dh_weight(rs)
        grad_sum = Poly(rs.rank)
        for j in range(rs.rank):
            grad_sum = grad_sum + p.partial(j)
        assert num == 2 * grad_sum
        # q_{N-1} = ratio * p * f_G, i.e. q_{N-1} = ratio * numerator
        assert dh_weight_gradient_sum(rs) == QN1_PFG_RATIO * num


def test_f_g_a1():
    rs = build_classical("A", 1)
    num, den = f_g_fraction(rs)
    assert num == Poly.constant(1, 2)
    assert den == Poly.variable(1, 0)  # f_G = 2/x


def test_f_g_a2_partial_fractions_oracle():
    # 2 (1/x1 + 1/x2 + 2/(x1+x2)) over the common denominator x1 x2 (x1+x2)
    rs = build_classical("A", 2)
    num, den = f_g_fraction(rs)
    x1, x2 = Poly.variable(2, 0), Poly.variable(2, 1)
    cleared = 2 * (
        x2 * (x1 + x2) + x1 * (x1 + x2) + 2 * x1 * x2
    )
    assert num == cleared
    assert den == x1 * x2 * (x1 + x2)


def test_dimension_values():
    a1 = build_classical("A", 1)
    a2 = build_classical("A", 2)
    assert dimension(a1, [0]) == 1
    assert dimension(a2, [1, 1]) == 8
    assert dimension(a2, [1, 0]) == 3


def test_dimension_rejects_negative_weights():
    with pytest.raises(ValueError):
        dimension(build_classical("A", 2), [1, -1])


def test_dimension_integrality_random():
    rng = random.Random(20240811)
    for series, rank in [("A", 1), ("A", 2), ("B", 2), ("G2", 2), ("C", 3)]:
        rs = build_classical(series, rank)
        for _ in range(100):
            lam = [rng.randrange(0, 9) for _ in range(rs.rank)]
            d = dimension(rs, lam)
            assert d.denominator == 1 and d > 0, (series, rank, lam)


def test_weight_polynomials_positive_on_positive_points():
    rng = random.Random(7)
    for series, rank in [("A", 2), ("B", 2), ("G2", 2)]:
        rs = build_classical(series, rank)
        q = weyl_polynomial(rs)
        p = dh_weight(rs)
        for _ in range(25):
            x = [Fraction(rng.randrange(1, 40), rng.randrange(1, 7)) for _ in range(rank)]
            assert q.evaluate(x) > 0
            assert p.evaluate(x) > 0


def test_simple_coroots_required():
    from kstab.rootsystem import RootSystem

    with pytest.raises(RootSystemError):
        RootSystem.from_m_vectors([(1, 0), (1, 1)])  # e_2 missing
