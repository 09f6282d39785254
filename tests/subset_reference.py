"""The subset enumerations, kept as the reference for the double description.

``kstab.polytope`` finds the facets of a hull and the vertices of a halfspace
system with one double-description kernel, ``_extreme_rays``. Both used to
test every subset of size n instead: of the points, for a hyperplane through
them that supports the rest, and of the halfspaces, for a feasible
intersection point. This module keeps those loops, so the tests can compare
the two on random input, with the Gauss-Jordan kernel ``row_reduce`` that
they and the other references use for ranks and solves. The package needs
only determinants, which ``kstab.polytope._det`` computes fraction-free.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Sequence

from kstab.polynomial import as_fraction
from kstab.polytope import Halfspace, Point, primitivize


def row_reduce(
    rows: Sequence[Sequence], ncols: int | None = None
) -> tuple[list[list[Fraction]], list[int], Fraction]:
    """Gauss-Jordan elimination over the rationals.

    Brings the first ``ncols`` columns (default: all) to reduced row echelon
    form with unit pivots; later columns, such as a right-hand side, ride
    along. Returns the reduced rows, the pivot columns in order, and the
    determinant of the rows restricted to the first ``ncols`` columns (0
    unless that block is square and nonsingular).
    """
    a = [[as_fraction(x) for x in row] for row in rows]
    m = len(a)
    if ncols is None:
        ncols = len(a[0]) if a else 0
    pivots: list[int] = []
    det = Fraction(1)
    for col in range(ncols):
        top = len(pivots)
        p = next((r for r in range(top, m) if a[r][col] != 0), None)
        if p is None:
            continue
        if p != top:
            a[top], a[p] = a[p], a[top]
            det = -det
        piv = a[top][col]
        det *= piv
        prow = a[top] = [x / piv for x in a[top]]
        for r in range(m):
            f = a[r][col]
            if r != top and f != 0:
                a[r] = [x - f * y for x, y in zip(a[r], prow)]
        pivots.append(col)
    if not m == ncols == len(pivots):
        det = Fraction(0)
    return a, pivots, det


def _normal_from_span(diffs: Sequence[Sequence], n: int) -> list[Fraction] | None:
    """A nonzero vector orthogonal to n-1 span vectors in dimension n.

    Read off the single free column of the reduced rows; None when the span
    vectors are rank deficient.
    """
    a, pivots, _ = row_reduce(diffs, n)
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
        a, pivots, _ = row_reduce([list(v) + [c] for v, c in subset], n)
        if len(pivots) < n:
            continue
        sol = tuple(row[n] for row in a)
        if all(
            sum(a * b for a, b in zip(v, sol)) >= c for v, c in facets
        ):
            verts.add(sol)
    return sorted(verts)
