"""Incidence triangulation and cell boundary terms against the chart routes."""
import math
import sys
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import chart_reference as ref
from kstab import polytope
from kstab.polynomial import MultivariatePolynomial as Poly
from kstab.polytope import GeometryError, PiecewiseAffine, RationalPolytope, _det, triangulate
from kstab.mabuchi import SymplecticPotential, mabuchi_eval
from kstab.graded import graded_boundary_integral, graded_rule
from kstab.quadrature import GradedQuadratureSpec, boundary_integral_pl_poly, integral_polytope
from kstab.rootsystem import build_classical


@st.composite
def cases(draw):
    """A lattice polytope in the open positive chamber (dimension 2-3), a
    convex PL f with rational coefficients, so its cells are rarely lattice
    polytopes, and a polynomial h of degree <= 2."""
    n = draw(st.integers(2, 3))
    coord = st.integers(1, 5 - n)
    pts = draw(st.lists(st.tuples(*[coord] * n), min_size=n + 1, max_size=n + 4))
    try:
        P = RationalPolytope.from_vertices(pts)
    except GeometryError:
        assume(False)
    coef = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    pieces = draw(st.lists(st.tuples(st.tuples(*[coef] * n), coef), min_size=1, max_size=3))
    exps = st.tuples(*[st.integers(0, 1)] * n).filter(lambda e: sum(e) <= 2)
    h = Poly(n, draw(st.dictionaries(exps, coef, max_size=4)))
    return P, PiecewiseAffine.from_pieces(pieces), h


@settings(max_examples=30, deadline=None)
@given(cases())
def test_incidence_routes_match_chart_routes(case):
    P, f, h = case
    assert P.volume() == ref.volume(P)
    assert integral_polytope(h, P) == ref.integral_polytope(h, P)
    assert boundary_integral_pl_poly(f, h, P) == ref.boundary_integral_pl_poly(f, h, P)


@pytest.mark.parametrize("n", [3, 4])
def test_triangulate_cube_builds_no_chart_or_hull(n, monkeypatch):
    cube = RationalPolytope.from_vertices(list(product((0, 1), repeat=n)))

    def refuse(*args, **kwargs):
        raise AssertionError("triangulate rebuilt geometry")

    for owner, name in [
        (polytope, "facet_chart"),
        (polytope, "_det"),
        (RationalPolytope, "from_vertices"),
    ]:
        monkeypatch.setattr(owner, name, refuse)
    simplices = triangulate(cube)
    facets = [cube.facet_vertices(i) for i in range(2 * n)]
    monkeypatch.undo()
    assert all(len(f) == 2 ** (n - 1) for f in facets)
    assert len(simplices) == math.factorial(n)
    for s in simplices:
        assert abs(_det([[x - y for x, y in zip(p, s[0])] for p in s[1:]])) == 1
    assert cube.volume() == Fraction(1)


def test_graded_rules_build_no_chart_or_hull(monkeypatch):
    """The float rules on the A3 cube read faces off the incidence alone."""
    cube = RationalPolytope.from_vertices(list(product((1, 2), repeat=3)))
    u = SymplecticPotential(cube)
    spec = GradedQuadratureSpec(depth=1, nodes=2)

    def refuse(*args, **kwargs):
        raise AssertionError("the graded rule built a chart or a hull")

    for name, module in list(sys.modules.items()):
        if name == "kstab" or name.startswith("kstab."):
            for attr, value in list(vars(module).items()):
                if value is polytope.facet_chart:
                    monkeypatch.setattr(module, attr, refuse)
    monkeypatch.setattr(RationalPolytope, "from_vertices", refuse)
    x, w = graded_rule(cube, spec)
    boundary, _ = graded_boundary_integral(lambda x: np.ones(len(x)), cube, spec)
    energy = mabuchi_eval(build_classical("A", 3), u, "zero", spec)
    monkeypatch.undo()
    assert math.fsum(w.tolist()) == pytest.approx(1.0, rel=1e-13)
    assert boundary == pytest.approx(6.0, rel=1e-13)
    assert math.isfinite(energy.value)
