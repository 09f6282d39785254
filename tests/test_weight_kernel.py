"""The integer weight-sum kernel against the per-point Fraction reference."""
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import walk_reference as ref
from kstab.futaki import admissible_modulus, weighted_count_dk, weighted_weight_wk
from kstab.polytope import GeometryError, PiecewiseAffine, RationalPolytope, dilated_lattice_points
from kstab.rootsystem import build_classical

ROOT_SYSTEMS = {1: [("A", 1)], 2: [("A", 2), ("B", 2), ("G2", 2)], 3: [("A", 3), ("B", 3)]}
MAX_MODULUS = 12
MAX_POINTS = 400


@st.composite
def cases(draw):
    """A rational polytope in dimension 1-3, a convex PL f, R and a dilate k.

    Gradients, offsets, vertices and R all take non-integer values, so the
    admissible modulus m is often > 1; k is m or 2m.
    """
    n = draw(st.integers(1, 3))
    coord = st.fractions(min_value=0, max_value=4 - n, max_denominator=2)
    pts = draw(st.lists(st.tuples(*[coord] * n), min_size=n + 1, max_size=n + 3))
    try:
        P = RationalPolytope.from_vertices(pts)
    except GeometryError:
        assume(False)
    coef = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    pieces = draw(st.lists(st.tuples(st.tuples(*[coef] * n), coef), min_size=1, max_size=3))
    f = PiecewiseAffine.from_pieces(pieces)
    R = draw(st.fractions(min_value=0, max_value=4, max_denominator=3))
    m = admissible_modulus(f, P)
    assume(m <= MAX_MODULUS)
    k = m * draw(st.integers(1, 2))
    assume(len(dilated_lattice_points(P, k)) <= MAX_POINTS)
    rs = build_classical(*draw(st.sampled_from(ROOT_SYSTEMS[n])))
    return rs, P, f, R, k


@settings(max_examples=100, deadline=None)
@given(cases())
def test_weight_kernel_matches_per_point_sum(case):
    rs, P, f, R, k = case
    wk = weighted_weight_wk(rs, P, f, R, k)
    assert wk == ref.weighted_weight_wk(rs, P, f, R, k)
    assert weighted_weight_wk(rs, P, f, R + 1, k) == wk + k * weighted_count_dk(rs, P, k)
