"""The recession-ray scan, kept as the reference for the double description.

``kstab.polytope.RationalPolytope.from_halfspaces`` decides boundedness from
the rays it enumerates anyway: the intersection is unbounded iff its
homogenisation has a ray at t = 0 besides its vertices, or its normals do not
span. It used to scan the C(F, n - 1) directions cut out by n - 1 normals for
a recession ray instead. This module keeps that constructor, built on the
subset enumerations of ``subset_reference``, so the tests can check that both
accept and reject the same systems and build the same polytopes.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Sequence

from kstab.polynomial import as_fraction
from kstab.polytope import GeometryError, Halfspace, Point, primitivize
from incidence_reference import affine_rank
from subset_reference import _enumerate_vertices, _hull_facets, _normal_from_span, row_reduce


def check_bounded(facets: list[Halfspace], n: int) -> None:
    """Raise GeometryError when the normals admit a recession direction."""
    normals = [f[0] for f in facets]
    if len(row_reduce(normals)[1]) < n:
        raise GeometryError("halfspace intersection is unbounded (normals do not span)")
    # A nontrivial pointed recession cone has an extreme ray cut out by n-1
    # linearly independent active constraints; scan all candidates.
    for subset in combinations(normals, n - 1):
        d = _normal_from_span(subset, n)
        if d is None:
            continue
        for ray in (d, tuple(-x for x in d)):
            if all(sum(a * b for a, b in zip(v, ray)) >= 0 for v in normals):
                raise GeometryError("halfspace intersection is unbounded")


def from_halfspaces(halfspaces: Sequence) -> tuple[list[Halfspace], list[Point]]:
    """(facets, vertices) of the intersection, bounded by the ray scan."""
    cleaned = set()
    for normal, offset in halfspaces:
        prim = primitivize(normal)
        fr = [as_fraction(x) for x in normal]
        k = next(i for i, x in enumerate(fr) if x != 0)
        cleaned.add((prim, as_fraction(offset) * Fraction(prim[k]) / fr[k]))
    cleaned = sorted(cleaned)
    n = len(cleaned[0][0])
    check_bounded(cleaned, n)
    vertices = _enumerate_vertices(cleaned, n)
    if not vertices or affine_rank(vertices) < n:
        raise GeometryError("halfspace intersection is empty or lower-dimensional")
    return _hull_facets(vertices, n), vertices
