"""Rational polytopes with exact dual representations and lattice machinery.

Everything here is exact: convex hulls, vertex enumeration, facet charts and
lattice point walks all run on integer or ``Fraction`` arithmetic with no
epsilon comparisons, which removes an entire class of robustness failures.
Every determinant (simplex volumes, the simplex integrals' Jacobians, the
Cartan minors) is ``_det``: Bareiss's fraction-free elimination on the
matrix scaled row by row to integers.

One double-description kernel (``_extreme_rays``) serves both directions.
The facets of conv(V) are the extreme rays of the cone of (w, c) with
<w, p> >= c on every point p; the vertices of {x : <v, x> >= c} are the rays
(x, t), t > 0, of its homogenisation {<v, x> >= c t, t >= 0}. A ray with
t = 0 there is a recession direction, and normals that do not span leave a
line in the cone, so boundedness falls out of the same enumeration. Each
constructor runs the kernel once: the rays give the other representation,
and their bitmasks of tight rows give the vertex-facet incidence, which
picks out the vertices among the points and the facets among the
halfspaces. Triangulations and facet vertices read that incidence and
evaluate no support values.

Facet geometry follows the lattice normalization: each facet carries the
primitive integer inward normal v_F, the affine form l_F(x) = <v_F, x> - c_F
is nonnegative on the polytope, and the canonical boundary measure of a facet
is the Lebesgue measure induced by giving a fundamental cell of the facet's
integer lattice volume one. Unimodular facet charts turn that measure into
ordinary Lebesgue measure one dimension down.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .polynomial import MultivariatePolynomial, as_fraction

Point = tuple[Fraction, ...]
IntVec = tuple[int, ...]
Halfspace = tuple[IntVec, Fraction]  # (inward primitive normal, offset)


class GeometryError(ValueError):
    """Raised for degenerate, unbounded or otherwise invalid geometry."""


# ---------------------------------------------------------------------------
# exact linear algebra helpers
# ---------------------------------------------------------------------------

def _det(rows: Sequence[Sequence]) -> Fraction:
    """Exact determinant of a square matrix of ints and Fractions (1 when empty).

    Each row is scaled to integers by the lcm of its denominators, then
    Bareiss's fraction-free elimination (Math. Comp. 22, 1968) runs on the
    integer matrix: every division in it is exact, and rows are swapped only
    on a zero pivot.
    """
    a, scale = [], 1
    for row in rows:
        m = math.lcm(*(x.denominator for x in row))
        a.append([x.numerator * (m // x.denominator) for x in row])
        scale *= m
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            p = next((r for r in range(k + 1, n) if a[r][k]), None)
            if p is None:
                return Fraction(0)
            a[k], a[p], sign = a[p], a[k], -sign
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
        prev = pivot
    return Fraction(sign * a[-1][-1], scale) if n else Fraction(1)


def primitivize(vec: Sequence) -> IntVec:
    """Scale a nonzero rational vector to a primitive integer vector.

    The positive scaling is dropped; direction is preserved.
    """
    fracs = [x if isinstance(x, (int, Fraction)) else as_fraction(x) for x in vec]
    denom = math.lcm(*(x.denominator for x in fracs))
    ints = [x.numerator * (denom // x.denominator) for x in fracs]
    g = math.gcd(*ints)
    if g == 0:
        raise GeometryError("cannot primitivize the zero vector")
    return tuple(v // g for v in ints)


def unimodular_complete_last_row(v: Sequence[int]) -> tuple[list[list[int]], list[list[int]]]:
    """A GL(n, Z) matrix U whose last row is the primitive vector v, and U^-1.

    Built Hermite-style: integer column operations V reduce v to a unit
    vector, v V = e_n, so U = V^-1 has v as its last row. U is accumulated
    from the inverse row operations alongside V.
    """
    n = len(v)
    w = [int(x) for x in v]
    if math.gcd(*(abs(x) for x in w)) != 1:
        raise GeometryError("normal vector is not primitive")
    V = [[int(i == j) for j in range(n)] for i in range(n)]  # right operations
    U = [[int(i == j) for j in range(n)] for i in range(n)]  # their inverse, on the left

    def col_addmul(dst: int, src: int, q: int) -> None:
        for r in range(n):
            V[r][dst] -= q * V[r][src]
        U[src] = [a + q * b for a, b in zip(U[src], U[dst])]
        w[dst] -= q * w[src]

    while True:
        nz = [i for i in range(n) if w[i] != 0]
        if len(nz) == 1:
            break
        nz.sort(key=lambda i: abs(w[i]))
        i, j = nz[0], nz[1]
        col_addmul(j, i, w[j] // w[i])
        if w[j] == 0 and len([k for k in range(n) if w[k] != 0]) == 1:
            break
    p = next(i for i in range(n) if w[i] != 0)
    if p != n - 1:
        for r in range(n):
            V[r][p], V[r][n - 1] = V[r][n - 1], V[r][p]
        U[p], U[n - 1] = U[n - 1], U[p]
        w[p], w[n - 1] = w[n - 1], w[p]
    if w[n - 1] == -1:
        for r in range(n):
            V[r][n - 1] = -V[r][n - 1]
        U[n - 1] = [-a for a in U[n - 1]]
        w[n - 1] = 1
    assert tuple(U[n - 1]) == tuple(int(x) for x in v)
    return U, V


# ---------------------------------------------------------------------------
# hull and vertex enumeration
# ---------------------------------------------------------------------------

def _extreme_rays(rows: Sequence[IntVec], d: int) -> list[tuple[IntVec, int]]:
    """Extreme rays of the pointed cone {y in R^d : <r, y> >= 0 for every row r}.

    Double description (Motzkin et al. 1953; Fukuda-Prodon 1996) in integers,
    cutting R^d by one row at a time. A row that is not zero on the lineality
    space turns one line into a ray and moves the other lines and rays onto
    its hyperplane. Any other row keeps the rays on its nonnegative side and
    joins each (+, -) pair of adjacent rays: those whose common tight set lies
    in no third ray's. Each ray comes back primitive, with the bitmask of the
    rows tight on it.
    """

    def dot(u, v):
        return sum(a * b for a, b in zip(u, v))

    def join(s, y, t, z):  # s y - t z, primitive
        w = [s * a - t * b for a, b in zip(y, z)]
        g = math.gcd(*w)
        return tuple(a // g for a in w)

    lines = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    rays: list[tuple[IntVec, int]] = []
    for i, row in enumerate(rows):
        k = next((k for k, m in enumerate(lines) if dot(row, m)), None)
        if k is not None:
            line = lines.pop(k)
            s = dot(row, line)
            if s < 0:
                line, s = tuple(-a for a in line), -s
            lines = [join(s, m, dot(row, m), line) for m in lines]
            rays = [(join(s, y, dot(row, y), line), t | 1 << i) for y, t in rays]
            rays.append((line, (1 << i) - 1))
            continue
        vals = [dot(row, y) for y, _ in rays]
        new = [(y, t | 1 << i if v == 0 else t) for (y, t), v in zip(rays, vals) if v >= 0]
        rank = d - len(lines)  # of the cone modulo its lines
        for p in (p for p, v in enumerate(vals) if v > 0):
            for q in (q for q, v in enumerate(vals) if v < 0):
                common = rays[p][1] & rays[q][1]
                if common.bit_count() >= rank - 2 and not any(
                    t & common == common for r, (_, t) in enumerate(rays) if r != p and r != q
                ):
                    new.append((join(vals[p], rays[q][0], vals[q], rays[p][0]), common | 1 << i))
        rays = new
    if lines:
        raise GeometryError("the rows have rank < %d, so the cone is not pointed" % d)
    return rays


def _transpose(masks: Sequence[int], size: int) -> list[int]:
    """Bit i of the j-th result is bit j of masks[i], for j < size."""
    return [sum(1 << i for i, m in enumerate(masks) if m >> j & 1) for j in range(size)]


def _maximal(masks: Sequence[int]) -> list[bool]:
    """Which bitmasks lie in no other, different one."""
    return [not any(q != m and q & m == m for q in masks) for m in masks]


@dataclass(frozen=True)
class RationalPolytope:
    """Bounded full-dimensional rational polytope with both representations.

    ``facets`` are (primitive integer inward normal v_F, rational offset c_F)
    pairs defining l_F(x) = <v_F, x> - c_F >= 0, in sorted order;
    ``vertices`` are the extreme points, sorted. ``incidence[i]`` is the
    frozenset of indices j with l_i(vertices[j]) = 0, read off the kernel's
    tight-row bitmasks when a constructor builds the polytope; it is left out
    of equality, since the two representations determine it.
    """

    dim: int
    facets: tuple[Halfspace, ...]
    vertices: tuple[Point, ...]
    incidence: tuple[frozenset[int], ...] = field(compare=False, repr=False)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_vertices(cls, points: Sequence[Sequence]) -> "RationalPolytope":
        """conv(points). The facets are the rays (w, c) of the cone
        {<w, p> - c >= 0 for all p}; a point is a vertex when no other point
        lies on every facet it lies on.
        """
        pts = sorted({tuple(as_fraction(x) for x in p) for p in points})
        if not pts:
            raise GeometryError("no points given")
        n = len(pts[0])
        if any(len(p) != n for p in pts):
            raise GeometryError("points of mixed dimension")
        if n == 0:
            raise GeometryError("points do not span the ambient space")
        try:
            rays = _extreme_rays([primitivize(p + (-1,)) for p in pts], n + 1)
        except GeometryError:
            raise GeometryError("points do not span the ambient space") from None
        on_point = _transpose([t for _, t in rays], len(pts))
        keep = [j for j, vertex in enumerate(_maximal(on_point)) if vertex]
        facets = []
        for y, t in rays:
            g = math.gcd(*y[:n])
            on = frozenset(k for k, j in enumerate(keep) if t >> j & 1)
            facets.append(((tuple(a // g for a in y[:n]), Fraction(y[n], g)), on))
        halfspaces, incidence = zip(*sorted(facets, key=lambda e: e[0]))
        return cls(n, halfspaces, tuple(pts[j] for j in keep), incidence)

    @classmethod
    def from_halfspaces(cls, halfspaces: Sequence) -> "RationalPolytope":
        """Polytope {x : <normal, x> >= offset}; it must be bounded and its
        vertices must span. The vertices are the rays (x, t), t > 0, of the
        homogenisation; the facets are the halfspaces whose sets of tight
        vertices no other halfspace's contains, so redundant ones drop out.
        """
        if not halfspaces:
            raise GeometryError("no halfspaces given")
        n = len(halfspaces[0][0])
        if n == 0 or any(len(v) != n for v, _ in halfspaces):
            raise GeometryError("halfspaces of zero or mixed dimension")
        rows = [primitivize(tuple(v) + (-as_fraction(c),)) for v, c in halfspaces]
        rows = list(dict.fromkeys(rows))  # equal rows after primitivize: keep the first
        try:
            rays = _extreme_rays(rows + [(0,) * n + (1,)], n + 1)
        except GeometryError:
            raise GeometryError(
                "halfspace intersection is empty or unbounded: the normals do not span"
            ) from None
        verts = sorted((tuple(Fraction(a, y[n]) for a in y[:n]), t) for y, t in rays if y[n])
        if verts and len(verts) < len(rays):
            raise GeometryError("halfspace intersection is unbounded")
        on_row = _transpose([t for _, t in verts], len(rows))
        if not verts or (1 << len(verts)) - 1 in on_row:  # some row is an implicit equality
            raise GeometryError("halfspace intersection is empty or lower-dimensional")
        facets = []
        for row, m, facet in zip(rows, on_row, _maximal(on_row)):
            if facet:
                g = math.gcd(*row[:n])
                on = frozenset(j for j in range(len(verts)) if m >> j & 1)
                facets.append(((tuple(a // g for a in row[:n]), Fraction(-row[n], g)), on))
        kept, incidence = zip(*sorted(facets, key=lambda e: e[0]))
        return cls(n, kept, tuple(p for p, _ in verts), incidence)

    # -- basic queries -------------------------------------------------------

    def support_value(self, facet_index: int, x: Sequence) -> Fraction:
        v, c = self.facets[facet_index]
        return sum(a * as_fraction(b) for a, b in zip(v, x)) - c

    def facet_vertices(self, facet_index: int) -> list[Point]:
        return [self.vertices[j] for j in sorted(self.incidence[facet_index])]

    @property
    def is_integer(self) -> bool:
        return all(
            x.denominator == 1 for p in self.vertices for x in p
        ) and all(c.denominator == 1 for _, c in self.facets)

    @cached_property
    def in_positive_chamber(self) -> bool:
        """True when every vertex has strictly positive coordinates; computed once."""
        return all(x > 0 for p in self.vertices for x in p)

    def centroid(self) -> Point:
        n = len(self.vertices)
        return tuple(
            sum(p[i] for p in self.vertices) / n for i in range(self.dim)
        )

    def bounding_box(self) -> list[tuple[Fraction, Fraction]]:
        return [
            (min(p[i] for p in self.vertices), max(p[i] for p in self.vertices))
            for i in range(self.dim)
        ]

    def volume(self) -> Fraction:
        total = Fraction(0)
        nfact = math.factorial(self.dim)
        for simplex in triangulate(self):
            base = simplex[0]
            rows = [
                [x - y for x, y in zip(p, base)] for p in simplex[1:]
            ]
            total += abs(_det(rows)) / nfact
        return total


# ---------------------------------------------------------------------------
# facet charts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FacetChart:
    """Unimodular affine chart flattening a facet onto {last coordinate = 0}.

    The map is y = U x - c_F e_n with U in GL(n, Z), so for an integer
    polytope it identifies the facet's lattice with Z^(n-1) and pushes the
    canonical boundary measure to Lebesgue measure on the image polytope.
    """

    facet_index: int
    matrix: tuple[IntVec, ...]
    inverse: tuple[IntVec, ...]
    offset: Fraction
    image: RationalPolytope

    def pullback_polynomial(self, h: MultivariatePolynomial) -> MultivariatePolynomial:
        """h composed with the inverse chart, as a polynomial on the image."""
        return h.substitute_affine(*self.unmap_affine_data())

    def unmap_affine_data(self) -> tuple[list[list[Fraction]], list[Fraction]]:
        n = len(self.matrix)
        cols = [[Fraction(self.inverse[r][c]) for c in range(n - 1)] for r in range(n)]
        shift = [Fraction(self.inverse[r][n - 1]) * self.offset for r in range(n)]
        return cols, shift


def facet_chart(P: RationalPolytope, facet_index: int) -> FacetChart:
    """Chart a facet of an n-polytope (n >= 2) onto an (n-1)-polytope."""
    if P.dim < 2:
        raise GeometryError("facet charts need ambient dimension >= 2")
    v, c = P.facets[facet_index]
    c = as_fraction(c)
    U, Uinv = unimodular_complete_last_row(v)
    image_pts = []
    for p in P.facet_vertices(facet_index):
        y = [sum(Fraction(a) * b for a, b in zip(row, p)) for row in U]
        assert y[-1] == c
        image_pts.append(tuple(y[:-1]))
    image = RationalPolytope.from_vertices(image_pts)
    return FacetChart(
        facet_index=facet_index,
        matrix=tuple(tuple(row) for row in U),
        inverse=tuple(tuple(row) for row in Uinv),
        offset=c,
        image=image,
    )


# ---------------------------------------------------------------------------
# lattice point enumeration
# ---------------------------------------------------------------------------

def dilated_lattice_points(P: RationalPolytope, k: int) -> list[IntVec]:
    """Integer points of the dilate k*P, in lexicographic order.

    Walks bounding-box slabs over the leading coordinates and intersects the
    halfspace constraints exactly on the last coordinate.
    """
    if k < 1:
        raise ValueError("dilation factor must be >= 1")
    n = P.dim
    # Integer constraint data: den * <v, x> >= k * num.
    constraints = []
    for v, c in P.facets:
        constraints.append((v, c.numerator * k, c.denominator))
    box = []
    for lo, hi in P.bounding_box():
        box.append((math.ceil(lo * k), math.floor(hi * k)))
    if any(lo > hi for lo, hi in box):
        return []

    def walk(prefix: list[int], depth: int, out: list[IntVec]) -> None:
        if depth == n - 1:
            lo, hi = box[n - 1]
            for v, num, den in constraints:
                partial = sum(a * b for a, b in zip(v[: n - 1], prefix))
                a = den * v[n - 1]
                rhs = num - den * partial
                if a > 0:
                    lo = max(lo, -((-rhs) // a))
                elif a < 0:
                    hi = min(hi, rhs // a)
                elif rhs > 0:
                    return
            for z in range(lo, hi + 1):
                out.append(tuple(prefix) + (z,))
            return
        for t in range(box[depth][0], box[depth][1] + 1):
            walk(prefix + [t], depth + 1, out)

    out: list[IntVec] = []
    walk([], 0, out)
    return out


# Bounding-box lattice points one job may walk over all its dilates: the A3
# cube's oracle takes ~8e3, the A4 hypercube's ~4e5; a rational kink can take ~1e11.
MAX_WALK_POINTS = 5_000_000


def _power_sum(ks: range, n: int) -> int:
    """Sum of k^n over a range, exactly, in O(n^2) operations (Faulhaber)."""
    c = len(ks)
    p: list[int] = []  # p[j] = sum of i^j over 0 <= i < c
    for j in range(n + 1):
        p.append((c ** (j + 1) - sum(math.comb(j + 1, r) * p[r] for r in range(j))) // (j + 1))
    return sum(math.comb(n, j) * ks.start ** (n - j) * ks.step**j * p[j] for j in range(n + 1))


def check_walk(P: RationalPolytope, ks: Sequence[int], who: str) -> None:
    """Refuse up front to walk more than MAX_WALK_POINTS bounding-box lattice
    points over the dilates k P, k in ks (a sequence or a range).

    Box counts are summed exactly, and only until the total passes the
    limit. The message then adds the dilates not yet counted: exactly for a
    sequence, which the caller has already built, and as box volume times
    sum k^n for a range, so that even a huge range costs a few dilates. The
    estimate is printed without a float.
    """
    box = P.bounding_box()

    def count(k: int) -> int:
        return math.prod(max(0, math.floor(hi * k) - math.ceil(lo * k) + 1) for lo, hi in box)

    points = 0
    for i, k in enumerate(ks):
        points += count(k)
        if points > MAX_WALK_POINTS:
            break
    else:
        return
    rest = ks[i + 1 :]
    if isinstance(rest, range):
        points += math.prod(hi - lo for lo, hi in box) * _power_sum(rest, P.dim)
    else:
        points += sum(count(k) for k in rest)
    raise ValueError(
        "%s would walk ~%s bounding-box lattice points over %d dilates; the limit is %.0e"
        % (who, format(Decimal(int(points)), ".1e"), len(ks), MAX_WALK_POINTS)
    )


def lattice_points(P: RationalPolytope, k: int) -> list[Point]:
    """Points of closure(P) intersected with (1/k) Z^n, lexicographic."""
    return [tuple(Fraction(c, k) for c in pt) for pt in dilated_lattice_points(P, k)]


# ---------------------------------------------------------------------------
# piecewise affine functions (max-of-affine, hence convex)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PiecewiseAffine:
    """Convex rational PL function f(x) = max_i (a_i . x + b_i)."""

    pieces: tuple[tuple[tuple[Fraction, ...], Fraction], ...]

    @classmethod
    def from_pieces(cls, pieces: Sequence) -> "PiecewiseAffine":
        if not pieces:
            raise ValueError("a piecewise affine function needs at least one piece")
        norm = []
        nvars = len(pieces[0][0])
        for a, b in pieces:
            if len(a) != nvars:
                raise ValueError("pieces of mixed dimension")
            norm.append((tuple(as_fraction(x) for x in a), as_fraction(b)))
        return cls(tuple(norm))

    @classmethod
    def constant(cls, nvars: int, c) -> "PiecewiseAffine":
        return cls.from_pieces([((0,) * nvars, c)])

    @property
    def nvars(self) -> int:
        return len(self.pieces[0][0])

    def value(self, x: Sequence) -> Fraction:
        pt = [as_fraction(t) for t in x]
        return max(sum(a * t for a, t in zip(piece, pt)) + b for piece, b in self.pieces)

    __call__ = value

    @property
    def denominator_lcm(self) -> int:
        """lcm of all coefficient denominators (the global denominator m)."""
        dens = [b.denominator for _, b in self.pieces]
        dens += [x.denominator for a, _ in self.pieces for x in a]
        return math.lcm(*dens)


def pl_cells(P: RationalPolytope, f: PiecewiseAffine) -> list[tuple[int, RationalPolytope]]:
    """Full-dimensional cells of P on which a single piece of f is active.

    Cells partition P up to measure zero; duplicated pieces contribute once.
    """
    if f.nvars != P.dim:
        raise ValueError("dimension mismatch between polytope and PL function")
    seen: set = set()
    cells = []
    for i, (a_i, b_i) in enumerate(f.pieces):
        if (a_i, b_i) in seen:
            continue
        seen.add((a_i, b_i))
        halfspaces: list = list(P.facets)
        dead = False
        for j, (a_j, b_j) in enumerate(f.pieces):
            if j == i:
                continue
            diff = [x - y for x, y in zip(a_i, a_j)]
            if all(x == 0 for x in diff):
                if b_i < b_j:
                    dead = True
                    break
                continue
            halfspaces.append((diff, b_j - b_i))
        if dead:
            continue
        try:
            cells.append((i, RationalPolytope.from_halfspaces(halfspaces)))
        except GeometryError:  # the piece is active on a lower-dimensional set
            pass
    return cells


# ---------------------------------------------------------------------------
# triangulation
# ---------------------------------------------------------------------------

def triangulate(P: RationalPolytope) -> list[list[Point]]:
    """Exact pulling triangulation (De Loera-Rambau-Santos 2010, 4.3).

    Each face is coned from its least vertex over its facets that miss it,
    read off P's vertex-facet incidence: the facets of a face are its
    inclusion-maximal proper intersections with P's facets (Ziegler, GTM 152,
    2.1). Every nonempty proper face that misses the apex lies in a facet
    that misses it, so the maximal intersections missing the apex are those
    facets. No chart, hull or support value is computed.
    """
    n, verts = P.dim, P.vertices
    if len(verts) == n + 1:
        return [list(verts)]

    def cone(face: frozenset, d: int) -> list[tuple[int, ...]]:
        if len(face) == d + 1:
            return [tuple(sorted(face))]
        apex = min(face)
        subs = {face & s for s in P.incidence if apex not in s}
        out = []
        for sub in subs:
            if not any(sub < other for other in subs):
                out += [(apex,) + t for t in cone(sub, d - 1)]
        return out

    return [[verts[j] for j in t] for t in cone(frozenset(range(len(verts))), n)]
