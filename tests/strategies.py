"""Hypothesis strategies that several test modules draw from."""
from hypothesis import assume
from hypothesis import strategies as st

from kstab.polytope import GeometryError, RationalPolytope


@st.composite
def rational_polytopes(draw, max_dim=3, min_dim=1):
    """A full-dimensional polytope with rational vertices (denominators <= 3)."""
    n = draw(st.integers(min_dim, max_dim))
    coord = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    pts = draw(st.lists(st.tuples(*[coord] * n), min_size=n + 1, max_size=n + 2, unique=True))
    try:
        return RationalPolytope.from_vertices(pts)
    except GeometryError:
        assume(False)
