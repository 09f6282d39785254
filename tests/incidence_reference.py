"""The support-value triangulation, kept as the reference for the incidence one.

``kstab.polytope.RationalPolytope`` keeps the vertex-facet incidence that its
constructor's double-description run reads off the tight rows, and
``kstab.polytope.triangulate`` finds the facets of each face as the maximal
intersections with P's facets. It used to rebuild the incidence from
``support_value`` on every call and to keep a face's intersections of affine
rank one less than the face's instead. This module keeps that route, with the
affine rank it needs, so the tests can compare the two on random input.
"""
from __future__ import annotations

from typing import Sequence

from kstab.polytope import Point, RationalPolytope
from subset_reference import row_reduce


def affine_rank(points: Sequence[Point]) -> int:
    """Dimension of the affine span of a point set."""
    if len(points) <= 1:
        return 0
    p0 = points[0]
    return len(row_reduce([[x - y for x, y in zip(p, p0)] for p in points[1:]])[1])


def incidence(P: RationalPolytope) -> list[frozenset]:
    """{j : l_i(v_j) = 0} for every facet i, from support values."""
    return [
        frozenset(j for j, v in enumerate(P.vertices) if P.support_value(i, v) == 0)
        for i in range(len(P.facets))
    ]


def triangulate(P: RationalPolytope) -> list[list[Point]]:
    """Pull the least vertex of each face over its facets of one rank less."""
    n, verts = P.dim, P.vertices
    if len(verts) == n + 1:
        return [list(verts)]
    on = incidence(P)

    def cone(face: frozenset, d: int) -> list[tuple[int, ...]]:
        if len(face) == d + 1:
            return [tuple(sorted(face))]
        apex = min(face)
        out = []
        for sub in {face & s for s in on if apex not in s}:
            if affine_rank([verts[j] for j in sub]) == d - 1:
                out += [(apex,) + t for t in cone(sub, d - 1)]
        return out

    return [[verts[j] for j in t] for t in cone(frozenset(range(len(verts))), n)]
