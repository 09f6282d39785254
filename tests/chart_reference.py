"""The chart-recursive routes, kept as the reference for the incidence ones.

``kstab.polytope.triangulate`` pulls vertices over faces read off the
polytope's vertex-facet incidences, and
``kstab.quadrature.boundary_integral_pl_poly`` integrates over the facets of
the ambient PL cells that lie in the boundary. Both used to chart every facet
instead: triangulation recursed into a fresh hull of each chart's image, and
the boundary term composed f into each chart of P and subdivided it again
there. This module keeps those routes, with volume and exact integrals built
on them alone, so the tests can compare the two on random input. Its
``unmap_point`` inverts a chart through ``unmap_affine_data``, the map the
boundary integrals pull back by, and ``map_point`` applies the chart. The PL
transforms ``compose_affine`` and ``add_constant`` serve this route and the
equivariance tests; the package itself needs neither.
"""
from __future__ import annotations

import math
from fractions import Fraction

from kstab.polynomial import MultivariatePolynomial, as_fraction
from kstab.polytope import (
    FacetChart,
    GeometryError,
    PiecewiseAffine,
    RationalPolytope,
    _det,
    facet_chart,
    pl_cells,
)
from kstab.quadrature import integral_over_simplex
from incidence_reference import support_value


def unmap_point(chart: FacetChart, y) -> tuple:
    """The point of P's facet that the chart sends to y."""
    cols, shift = chart.unmap_affine_data()
    return tuple(s + sum(c * t for c, t in zip(row, y)) for row, s in zip(cols, shift))


def map_point(chart: FacetChart, x) -> tuple:
    """The chart image of a point of P's facet."""
    y = [Fraction(sum(a * as_fraction(b) for a, b in zip(row, x))) for row in chart.matrix]
    y[-1] -= chart.offset
    return tuple(y[:-1])


def compose_affine(f: PiecewiseAffine, matrix, shift) -> PiecewiseAffine:
    """The function x -> f(matrix @ x + shift) (still max-of-affine)."""
    rows = [[as_fraction(x) for x in row] for row in matrix]
    sh = [as_fraction(s) for s in shift]
    m = len(rows[0]) if rows else 0
    out = []
    for a, b in f.pieces:
        new_a = [sum(a[r] * rows[r][c] for r in range(len(rows))) for c in range(m)]
        new_b = b + sum(a[r] * sh[r] for r in range(len(rows)))
        out.append((tuple(new_a), new_b))
    return PiecewiseAffine(tuple(out))


def add_constant(f: PiecewiseAffine, c) -> PiecewiseAffine:
    """The function x -> f(x) + c."""
    c = as_fraction(c)
    return PiecewiseAffine(tuple((a, b + c) for a, b in f.pieces))


def triangulate(P: RationalPolytope) -> list[list]:
    """Cone the lex-least vertex over the chart-triangulated opposite facets."""
    n = P.dim
    if len(P.vertices) == n + 1:
        return [list(P.vertices)]
    apex = P.vertices[0]
    simplices = []
    for i in range(len(P.facets)):
        if support_value(P, i, apex) == 0:
            continue
        if n == 1:
            simplices.append([apex, P.facet_vertices(i)[0]])
            continue
        chart = facet_chart(P, i)
        for sub in triangulate(chart.image):
            simplices.append([apex] + [unmap_point(chart, y) for y in sub])
    return simplices


def volume(P: RationalPolytope) -> Fraction:
    total = Fraction(0)
    for s in triangulate(P):
        total += abs(_det([[x - y for x, y in zip(p, s[0])] for p in s[1:]]))
    return total / math.factorial(P.dim)


def integral_polytope(h: MultivariatePolynomial, P: RationalPolytope) -> Fraction:
    return sum((integral_over_simplex(h, s) for s in triangulate(P)), Fraction(0))


def integral_pl_poly(
    f: PiecewiseAffine, h: MultivariatePolynomial, P: RationalPolytope
) -> Fraction:
    cells = pl_cells(P, f)
    if sum((volume(cell) for _, cell in cells), Fraction(0)) != volume(P):
        raise GeometryError("active cells fail to cover the polytope")
    return sum(
        (
            integral_polytope(MultivariatePolynomial.affine(*f.pieces[i]) * h, cell)
            for i, cell in cells
        ),
        Fraction(0),
    )


def boundary_integral_pl_poly(
    f: PiecewiseAffine, h: MultivariatePolynomial, P: RationalPolytope
) -> Fraction:
    """Per facet of P (dimension >= 2): compose f into the chart, subdivide again."""
    total = Fraction(0)
    for i in range(len(P.facets)):
        chart = facet_chart(P, i)
        cols, shift = chart.unmap_affine_data()
        total += integral_pl_poly(
            compose_affine(f, cols, shift), chart.pullback_polynomial(h), chart.image
        )
    return total
