"""Shared geometry and root-system fixtures and hypothesis profiles for the test suite.

Two hypothesis profiles: ``tier1``, the default, draws the same examples on
every run (derandomize) and prints a failure's reproduction blob;
``explore`` draws from random seeds (``pytest --hypothesis-profile=explore``,
with ``--hypothesis-seed=N`` to repeat a run). Each test keeps its own
``max_examples``.
"""
import pytest
from hypothesis import settings

from kstab.polytope import PiecewiseAffine, RationalPolytope
from kstab.rootsystem import build_classical

settings.register_profile("tier1", derandomize=True, print_blob=True)
settings.register_profile("explore", derandomize=False, print_blob=True)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def interval_12():
    return RationalPolytope.from_vertices([[1], [2]])


@pytest.fixture(scope="session")
def interval_13():
    return RationalPolytope.from_vertices([[1], [3]])


@pytest.fixture(scope="session")
def unit_square():
    return RationalPolytope.from_vertices([[0, 0], [1, 0], [0, 1], [1, 1]])


@pytest.fixture(scope="session")
def square_11_22():
    """Integer square inside the open positive quadrant."""
    return RationalPolytope.from_vertices([[1, 1], [2, 1], [1, 2], [2, 2]])


@pytest.fixture(scope="session")
def triangle_23():
    """conv{0, 2 e1, 3 e2}: coprime slanted facet."""
    return RationalPolytope.from_vertices([[0, 0], [2, 0], [0, 3]])


@pytest.fixture(scope="session")
def simplex_235():
    """conv{0, 2 e1, 3 e2, 5 e3}: pairwise coprime stretched simplex."""
    return RationalPolytope.from_vertices([[0, 0, 0], [2, 0, 0], [0, 3, 0], [0, 0, 5]])


@pytest.fixture(scope="session")
def rs_a1():
    return build_classical("A", 1)


@pytest.fixture(scope="session")
def rs_a2():
    return build_classical("A", 2)


@pytest.fixture(scope="session")
def f_identity():
    """f(x) = x on the line."""
    return PiecewiseAffine.from_pieces([((1,), 0)])


@pytest.fixture(scope="session")
def f_kink():
    """f(x) = max(0, 2x - 3), kink at 3/2."""
    return PiecewiseAffine.from_pieces([((0,), 0), ((2,), -3)])


@pytest.fixture(scope="session")
def f_max_xy():
    """f(x, y) = max(x, y), kink along the diagonal."""
    return PiecewiseAffine.from_pieces([((1, 0), 0), ((0, 1), 0)])


def slanted_facet_index(P):
    """Index of the facet whose inward normal has all entries negative."""
    for i, (v, _) in enumerate(P.facets):
        if all(x < 0 for x in v):
            return i
    raise AssertionError("no slanted facet found")
