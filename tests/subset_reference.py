"""The subset enumerations, kept as the reference for the double description.

``kstab.polytope`` finds the facets of a hull and the vertices of a halfspace
system with one double-description kernel, ``_extreme_rays``. Both used to
test every subset of size n instead: of the points, for a hyperplane through
them that supports the rest, and of the halfspaces, for a feasible
intersection point. This module keeps those loops, so the tests can compare
the two on random input, and the Gauss-Jordan kernel ``row_reduce`` that the
other references use for ranks and solves. Both loops work over the integers
(``_solve_integer``, Cramer numerators): the facet loop builds no Fraction
until a facet is kept, the vertex loop none until a vertex is found. The
package needs only determinants, which ``kstab.polytope._det`` computes
fraction-free.
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from kstab.polynomial import as_fraction
from kstab.polytope import Halfspace, Point


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
    """Every hyperplane through n of the points that has all of them on one side.

    The points are scaled to integers by the lcm L of their denominators. The
    normal through an n-subset is read off its n - 1 difference rows by
    Cramer's rule (``_solve_integer``) with one coordinate set free, so it is
    an integer vector, and no Fraction is built until a facet is kept.
    """
    fracs = [[as_fraction(x) for x in p] for p in points]
    L = math.lcm(*(x.denominator for p in fracs for x in p))
    ints = [[x.numerator * (L // x.denominator) for x in p] for p in fracs]
    facets: set[Halfspace] = set()
    for subset in combinations(range(len(ints)), n):
        base = ints[subset[0]]
        diffs = [[a - b for a, b in zip(ints[i], base)] for i in subset[1:]]
        w = _integer_normal(diffs, n)
        if w is None:
            continue
        g = math.gcd(*w)
        wp = tuple(x // g for x in w)
        c = sum(a * b for a, b in zip(wp, base))
        vals = [sum(a * b for a, b in zip(wp, p)) - c for p in ints]
        if all(v >= 0 for v in vals):
            facets.add((wp, Fraction(c, L)))
        elif all(v <= 0 for v in vals):
            facets.add((tuple(-x for x in wp), Fraction(-c, L)))
    return sorted(facets)


def _integer_normal(diffs: Sequence[Sequence[int]], n: int) -> list[int] | None:
    """A nonzero integer vector orthogonal to n - 1 integer rows, None when they
    are rank deficient.

    For the first free coordinate j whose complementary columns are
    nonsingular, the rows' other columns x solve A x = -a_j with x_j = 1;
    scaled by det A, the normal is the Cramer numerators with det A at j.
    """
    for j in range(n - 1, -1, -1):
        rows = [[*row[:j], *row[j + 1:], -row[j]] for row in diffs]
        solved = _solve_integer(rows, n - 1)
        if solved is not None:
            num, det = solved
            return [*num[:j], det, *num[j:]]
    return None


def _integer_rows(halfspaces: Sequence[Halfspace]) -> list[list[int]]:
    """Each halfspace <v, x> >= c as integers [v d, c d], d > 0 clearing its denominators."""
    rows = []
    for v, c in halfspaces:
        row = [as_fraction(x) for x in (*v, c)]
        d = math.lcm(*(x.denominator for x in row))
        rows.append([x.numerator * (d // x.denominator) for x in row])
    return rows


def _solve_integer(rows: Sequence[Sequence[int]], n: int) -> tuple[list[int], int] | None:
    """Cramer numerators and determinant (> 0) of the square system [A | b],
    None when A is singular.

    Fraction-free Gauss-Jordan elimination (Bareiss): after step k every
    entry is a minor of order k + 1, so each division by the previous pivot
    is exact, and at the end the diagonal is det A and column n is det A * x.
    """
    a = [list(row) for row in rows]
    prev = 1
    for k in range(n):
        p = next((r for r in range(k, n) if a[r][k]), None)
        if p is None:
            return None
        a[k], a[p] = a[p], a[k]
        pivot, prow = a[k][k], a[k]
        for r in range(n):
            if r != k:
                f = a[r][k]
                a[r] = [(pivot * x - f * y) // prev for x, y in zip(a[r], prow)]
        prev = pivot
    sign = 1 if prev > 0 else -1
    return [sign * row[n] for row in a], sign * prev


def _enumerate_vertices(facets: list[Halfspace], n: int) -> list[Point]:
    """The feasible intersection points of every n halfspaces, in integers."""
    rows = _integer_rows(facets)
    verts: set[Point] = set()
    for subset in combinations(rows, n):
        solved = _solve_integer(subset, n)
        if solved is None:
            continue
        num, det = solved
        if all(sum(a * b for a, b in zip(row, num)) >= row[n] * det for row in rows):
            verts.add(tuple(Fraction(x, det) for x in num))
    return sorted(verts)
