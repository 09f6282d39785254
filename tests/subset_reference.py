"""The subset enumerations, kept as the reference for the double description.

``kstab.polytope`` finds the facets of a hull and the vertices of a halfspace
system with one double-description kernel, ``_extreme_rays``. Both used to
test every subset of size n instead: of the points, for a hyperplane through
them that supports the rest, and of the halfspaces, for a feasible
intersection point. This module keeps those loops, so the tests can compare
the two on random input.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Sequence

from kstab.polytope import Halfspace, Point, _row_reduce, primitivize


def _normal_from_span(diffs: Sequence[Sequence], n: int) -> list[Fraction] | None:
    """A nonzero vector orthogonal to n-1 span vectors in dimension n.

    Read off the single free column of the reduced rows; None when the span
    vectors are rank deficient.
    """
    a, pivots, _ = _row_reduce(diffs, n)
    if len(pivots) != n - 1:
        return None
    free = next(c for c in range(n) if c not in pivots)
    w = [Fraction(0)] * n
    w[free] = Fraction(1)
    for row, p in zip(a, pivots):
        w[p] = -row[free]
    return w


def _hull_facets(points: list[Point], n: int) -> list[Halfspace]:
    facets: set[Halfspace] = set()
    for subset in combinations(range(len(points)), n):
        base = points[subset[0]]
        diffs = [tuple(points[i][c] - base[c] for c in range(n)) for i in subset[1:]]
        w = _normal_from_span(diffs, n)
        if w is None:
            continue
        wp = primitivize(w)
        c = Fraction(sum(a * b for a, b in zip(wp, base)))
        vals = [sum(a * b for a, b in zip(wp, p)) - c for p in points]
        if all(v >= 0 for v in vals):
            facets.add((wp, c))
        elif all(v <= 0 for v in vals):
            facets.add((tuple(-x for x in wp), -c))
    return sorted(facets)


def _enumerate_vertices(facets: list[Halfspace], n: int) -> list[Point]:
    verts: set[Point] = set()
    for subset in combinations(facets, n):
        a, pivots, _ = _row_reduce([list(v) + [c] for v, c in subset], n)
        if len(pivots) < n:
            continue
        sol = tuple(row[n] for row in a)
        if all(
            sum(a * b for a, b in zip(v, sol)) >= c for v, c in facets
        ):
            verts.add(sol)
    return sorted(verts)
