"""Hulls, lattice walks, facet charts and transforms, all exact."""
import math
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from kstab.polytope import (
    GeometryError,
    PiecewiseAffine,
    RationalPolytope,
    _det,
    dilated_lattice_points,
    facet_chart,
    lattice_points,
    pl_cells,
    triangulate,
    unimodular_complete_last_row,
)
from kstab import polytope
import bounded_reference
import chart_reference
import incidence_reference
import subset_reference
from conftest import slanted_facet_index
from incidence_reference import affine_rank
from lemmas import facet_lattice_count, facet_measure, lift_polytope, transform
from subset_reference import row_reduce


def brute_force_dilated_points(P, k):
    """Independent lattice enumeration: filter the whole bounding box."""
    box = P.bounding_box()
    ranges = [
        range(int(-(-lo * k // 1)), int(hi * k // 1) + 1) for lo, hi in box
    ]
    out = []
    for pt in product(*ranges):
        if all(
            sum(v[i] * pt[i] for i in range(P.dim)) >= c * k for v, c in P.facets
        ):
            out.append(pt)
    return sorted(out)


def shoelace(points):
    area = Fraction(0)
    for (x1, y1), (x2, y2) in zip(points, points[1:] + points[:1]):
        area += x1 * y2 - x2 * y1
    return abs(area) / 2


# -- construction -----------------------------------------------------------

def test_interval_facets(interval_12):
    assert set(interval_12.facets) == {((1,), Fraction(1)), ((-1,), Fraction(-2))}
    assert interval_12.vertices == ((Fraction(1),), (Fraction(2),))


def test_unit_square_normals(unit_square):
    normals = {v for v, _ in unit_square.facets}
    assert normals == {(1, 0), (-1, 0), (0, 1), (0, -1)}


def test_triangle_slanted_facet(triangle_23):
    assert ((-3, -2), Fraction(-6)) in triangle_23.facets  # 6 - 3x - 2y >= 0


def test_redundant_input_halfspace_dropped():
    P = RationalPolytope.from_halfspaces(
        [((1,), 1), ((-1,), -2), ((1,), 0)]  # x >= 0 is implied by x >= 1
    )
    assert set(P.facets) == {((1,), Fraction(1)), ((-1,), Fraction(-2))}


def test_interior_input_point_is_not_a_vertex():
    P = RationalPolytope.from_vertices([[0, 0], [1, 0], [0, 1], [1, 1], [Fraction(1, 2), Fraction(1, 2)]])
    assert len(P.vertices) == 4


def test_halfspace_normals_are_primitivized():
    P = RationalPolytope.from_halfspaces([((2,), 3), ((-1,), -2)])
    assert P.facets == (((-1,), Fraction(-2)), ((1,), Fraction(3, 2)))
    assert P.vertices == ((Fraction(3, 2),), (Fraction(2),))


def test_degenerate_inputs_raise():
    with pytest.raises(GeometryError):
        RationalPolytope.from_vertices([[0, 0], [1, 1], [2, 2]])  # collinear
    with pytest.raises(GeometryError):
        RationalPolytope.from_halfspaces([((1, 0), 0), ((0, 1), 0)])  # unbounded
    with pytest.raises(GeometryError):
        RationalPolytope.from_halfspaces([((1,), 1), ((-1,), 1)])  # empty
    # An unbounded strip whose vertices (0,0), (0,1/2), (1,1) span the plane:
    # only the facet x - y >= 0 of their hull, not an input, exposes it.
    with pytest.raises(GeometryError, match="unbounded"):
        RationalPolytope.from_halfspaces(
            [((0, 1), 0), ((0, -1), -1), ((1, 0), 0), ((1, -2), -1)]
        )
    # The strip 0 <= y <= 1 contains lines, so its cone is not pointed.
    with pytest.raises(GeometryError, match="unbounded"):
        RationalPolytope.from_halfspaces([((0, 1), 0), ((0, -1), -1)])
    cube = RationalPolytope.from_vertices(list(product([1, 2], repeat=5)))
    assert (len(cube.facets), len(cube.vertices)) == (10, 32)
    assert RationalPolytope.from_halfspaces(cube.facets) == cube


def test_hv_round_trip(unit_square, triangle_23, simplex_235):
    for P in (unit_square, triangle_23, simplex_235):
        Q = RationalPolytope.from_halfspaces(P.facets)
        assert Q.vertices == P.vertices
        assert Q.facets == P.facets


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=3, max_size=6
    )
)
def test_hv_round_trip_random(points):
    try:
        P = RationalPolytope.from_vertices(points)
    except GeometryError:
        assume(False)
        return
    Q = RationalPolytope.from_halfspaces(P.facets)
    assert Q.vertices == P.vertices


@st.composite
def halfspace_systems(draw):
    n = draw(st.integers(1, 3))
    normal = st.tuples(*[st.integers(-3, 3)] * n).filter(any)
    offset = st.fractions(-3, 1, max_denominator=3)  # about a quarter bounded
    return draw(st.lists(st.tuples(normal, offset), min_size=n, max_size=n + 4))


@settings(max_examples=200, deadline=None)
@given(halfspace_systems())
def test_from_halfspaces_matches_the_ray_scan(halfspaces):
    try:
        reference = bounded_reference.from_halfspaces(halfspaces)
    except GeometryError:
        reference = None
    try:
        P = RationalPolytope.from_halfspaces(halfspaces)
    except GeometryError:
        assert reference is None
        return
    assert reference == (list(P.facets), list(P.vertices))
    assert RationalPolytope.from_vertices(P.vertices) == P


_coords = st.fractions(-2, 2, max_denominator=2)


@st.composite
def point_sets(draw):
    """Rational points, or 0/1 points: cube vertices share facets many at a time."""
    n = draw(st.integers(1, 4))
    coord = draw(st.sampled_from([_coords, st.builds(Fraction, st.integers(0, 1))]))
    size = st.integers(1, 8 if n == 4 else 9)
    points = draw(st.lists(st.tuples(*[coord] * n), min_size=1, max_size=draw(size)))
    return sorted(set(points)), n


@settings(max_examples=100, deadline=None)
@given(point_sets())
def test_hull_kernel_matches_subset_enumeration(case):
    """Facets agree; the vertices are the points on n independent facets.

    The vertex side of the subset reference would test C(F, n) subsets of up
    to ~20 facets here; the halfspace property below compares it on fewer.
    """
    points, n = case
    try:
        P = RationalPolytope.from_vertices(points)
    except GeometryError:
        assert affine_rank(points) < n
        return
    assert affine_rank(points) == n
    assert list(P.facets) == subset_reference._hull_facets(points, n)
    vertices = [
        p for p in points
        if len(row_reduce([v for v, c in P.facets if sum(a * x for a, x in zip(v, p)) == c])[1]) == n
    ]
    assert list(P.vertices) == vertices


# Subsets of the 0/1 5-cube whose hull a kernel without its combinatorial
# adjacency test gets wrong (it joins non-adjacent rays and keeps spurious
# facets); the tight-set size filter alone passes in dimension <= 4.
ADJACENCY_CASES = [
    "00011 00100 00101 00111 01001 01100 10001 10010 11000 11111",
    "01000 01001 01010 01111 10001 10100 10110 11000 11010 11110",
    "00010 00110 01011 01100 01101 01110 10010 10011 10101 11111",
    "00001 00100 01000 01101 01110 01111 10100 10110 11000 11010 11011",
]


@pytest.mark.parametrize("case", ADJACENCY_CASES)
def test_hull_kernel_adjacency_on_cube_subsets(case):
    points = [tuple(Fraction(int(c)) for c in word) for word in case.split()]
    P = RationalPolytope.from_vertices(points)
    assert list(P.facets) == subset_reference._hull_facets(points, 5)


@st.composite
def rational_systems(draw):
    """Halfspaces, some with normals in {-1, 0, 1}^n, some with one given twice."""
    n = draw(st.integers(1, 4))
    entry = draw(st.sampled_from([st.integers(-2, 2), st.integers(-1, 1)]))
    normal = st.tuples(*[entry] * n).filter(any)
    rows = draw(st.lists(st.tuples(normal, _coords), min_size=1, max_size=n + 4, unique=True))
    if draw(st.booleans()):
        v, c = rows[0]
        rows.append((tuple(2 * a for a in v), 2 * c))
    return [(v, Fraction(c)) for v, c in rows], n


@settings(max_examples=150, deadline=None)
@given(rational_systems())
def test_vertex_kernel_matches_subset_enumeration(case):
    """Vertices agree; the constructor refuses exactly the systems that are
    unbounded and nonempty, empty, or lower-dimensional.

    An empty system may still be unbounded to the ray scan, because it looks
    at the normals alone.
    """
    system, n = case
    spans = len(row_reduce([v for v, _ in system])[1]) == n
    try:
        bounded_reference.check_bounded(system, n)
        bounded = True
    except GeometryError:
        bounded = False
    reference = subset_reference._enumerate_vertices(system, n)
    try:
        P = RationalPolytope.from_halfspaces(system)
    except GeometryError as e:
        if "lower-dimensional" in str(e):
            assert not reference or (bounded and affine_rank(reference) < n)
        else:
            assert not bounded and (reference or not spans)
        return
    assert spans and bounded and list(P.vertices) == reference


@st.composite
def polytope_inputs(draw):
    """A point set that spans, and the halfspaces of its hull with extra rows:
    a scaled copy of a facet, and rows that cut, touch or miss the hull."""
    points, n = draw(point_sets())
    try:
        P = RationalPolytope.from_vertices(points)
    except GeometryError:
        assume(False)
    normal = st.tuples(*[st.integers(-2, 2)] * n).filter(any)
    extra = draw(st.lists(st.tuples(normal, st.sampled_from([-1, 0, 0, 1])), max_size=3))
    system = list(P.facets) + [
        (v, min(sum(a * x for a, x in zip(v, p)) for p in P.vertices) + Fraction(shift, 2))
        for v, shift in extra
    ]
    v, c = draw(st.sampled_from(P.facets))
    system.append((tuple(2 * a for a in v), 2 * c))
    return points, draw(st.permutations(system)), n


@settings(max_examples=60, deadline=None)
@given(polytope_inputs())
def test_incidence_and_triangulation_match_references(case):
    """Both constructors: the incidence is the support-value one, facets and
    vertices are the subset enumerations', and the triangulation is the
    support-value route's."""
    points, system, n = case
    facets = subset_reference._hull_facets(points, n)
    expected = [
        (RationalPolytope.from_vertices(points), facets, subset_reference._enumerate_vertices(facets, n))
    ]
    vertices = subset_reference._enumerate_vertices(system, n)
    if affine_rank(vertices) < n:  # a row cut the hull down to a face or to nothing
        with pytest.raises(GeometryError, match="empty or lower-dimensional"):
            RationalPolytope.from_halfspaces(system)
    else:
        facets = subset_reference._hull_facets(vertices, n)
        expected.append((RationalPolytope.from_halfspaces(system), facets, vertices))
    for P, facets, vertices in expected:
        assert (list(P.facets), list(P.vertices)) == (facets, vertices)
        assert list(P.incidence) == incidence_reference.incidence(P)
        simplices = sorted(map(tuple, triangulate(P)))
        assert simplices == sorted(map(tuple, incidence_reference.triangulate(P)))


def test_each_constructor_runs_the_kernel_once(monkeypatch):
    calls = []

    def counted(rows, d):
        calls.append(d)
        return kernel(rows, d)

    kernel = polytope._extreme_rays
    monkeypatch.setattr(polytope, "_extreme_rays", counted)
    cube = RationalPolytope.from_vertices(list(product((0, 1, Fraction(1, 2)), repeat=3)))
    assert calls == [4]
    redundant = [((1, 1, 1), 0), ((1, 0, 0), -1), ((2, 0, 0), 0)]
    assert RationalPolytope.from_halfspaces(list(cube.facets) + redundant) == cube
    assert calls == [4, 4]


# -- exact elimination kernel -------------------------------------------------

def leibniz_det(rows):
    """Determinant as the signed sum over permutations (no elimination)."""
    n = len(rows)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = Fraction((-1) ** inversions)
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def minor_rank(rows):
    """Size of the largest nonsingular square minor."""
    m, k = len(rows), len(rows[0])
    for size in range(min(m, k), 0, -1):
        for rs in combinations(range(m), size):
            for cs in combinations(range(k), size):
                if leibniz_det([[rows[r][c] for c in cs] for r in rs]) != 0:
                    return size
    return 0


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


# zeros are frequent so that pivots need row swaps
_entries = st.builds(
    Fraction, st.sampled_from([-3, -2, -1, 0, 0, 0, 1, 2, 3]), st.sampled_from([1, 1, 2, 3])
)


@st.composite
def _systems(draw):
    """An m x k rational matrix, mostly square, sometimes with a dependent row, and a rhs."""
    k = draw(st.integers(1, 4))
    m = draw(st.one_of(st.just(k), st.integers(1, 4)))
    rows = [[draw(_entries) for _ in range(k)] for _ in range(m)]
    if m >= 2 and draw(st.booleans()):
        s, t = draw(_entries), draw(_entries)
        rows[-1] = [s * x + t * y for x, y in zip(rows[0], rows[m - 2])]
    return rows, [draw(_entries) for _ in range(m)]


@st.composite
def _square(draw):
    """An n x n rational matrix, n = 0-5, often with a zero leading entry or a dependent row."""
    n = draw(st.integers(0, 5))
    rows = [[draw(_entries) for _ in range(n)] for _ in range(n)]
    if n >= 2 and draw(st.booleans()):
        rows[0][0] = Fraction(0)
    if n >= 2 and draw(st.booleans()):
        s, t = draw(_entries), draw(_entries)
        rows[-1] = [s * x + t * y for x, y in zip(rows[0], rows[n - 2])]
    return rows


def _q(*xs):
    return [Fraction(x) for x in xs]


@settings(max_examples=300, deadline=None)
@given(_systems(), _square())
@example(([[1]], [1]), [])
@example(([[1]], [1]), [_q(0, 2), _q("1/3", 5)])  # zero leading pivot: one swap
@example(([[1]], [1]), [_q(0, 1, 2), _q(0, 3, 4), _q(5, 6, 7)])  # swap with the last row at k = 0
@example(([[1]], [1]), [_q(1, 2, 3), _q(2, 4, 7), _q(1, 5, 9)])  # zero pivot at k = 1
@example(([[1]], [1]), [_q(1, 2, 3), _q(2, 4, 6), _q(3, 6, "19/2")])  # singular: no pivot at k = 1
@example(([[1]], [1]), [_q(0, 0, 0, 0, 1), _q(0, 0, 0, 1, 0), _q(0, 0, 1, 0, 0),
                        _q(0, 1, 0, 0, 0), _q("2/3", 0, 0, 0, 0)])  # swaps at k = 0 and k = 1
def test_row_reduce_matches_independent_references(system, square):
    assert _det(square) == leibniz_det(square)
    rows, rhs = system
    m, k = len(rows), len(rows[0])
    _, pivots, det = row_reduce(rows)
    assert len(pivots) == minor_rank(rows)
    if m != k:
        assert det == 0
        return
    assert det == _det(rows) == leibniz_det(rows)
    reduced, pivots, _ = row_reduce([row + [b] for row, b in zip(rows, rhs)], k)
    assert (len(pivots) == k) == (det != 0)
    if det == 0:
        return
    x = [[row[k]] for row in reduced]
    assert matmul(rows, x) == [[b] for b in rhs]
    eye = [[Fraction(i == j) for j in range(k)] for i in range(k)]
    reduced, _, _ = row_reduce([row + e for row, e in zip(rows, eye)], k)
    assert matmul(rows, [row[k:] for row in reduced]) == eye


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-20, 20), min_size=2, max_size=4))
def test_unimodular_completion_returns_its_inverse(v):
    assume(math.gcd(*v) == 1)
    U, V = unimodular_complete_last_row(v)
    n = len(v)
    assert U[-1] == v
    assert matmul(U, V) == [[int(i == j) for j in range(n)] for i in range(n)]


# -- lattice points ---------------------------------------------------------

def test_lattice_points_interval(interval_12):
    pts = lattice_points(interval_12, 4)
    assert pts == [
        (Fraction(1),),
        (Fraction(5, 4),),
        (Fraction(3, 2),),
        (Fraction(7, 4),),
        (Fraction(2),),
    ]


def test_lattice_points_square_and_triangle(unit_square, triangle_23):
    assert len(lattice_points(unit_square, 1)) == 4
    # direct enumeration: 3x + 2y <= 6, x, y >= 0
    expected = sorted(
        (x, y) for x in range(3) for y in range(4) if 3 * x + 2 * y <= 6
    )
    assert len(expected) == 7
    assert dilated_lattice_points(triangle_23, 1) == expected


def test_lattice_walk_matches_brute_force(unit_square, triangle_23, simplex_235):
    for P in (unit_square, triangle_23, simplex_235):
        for k in (1, 2, 3):
            assert dilated_lattice_points(P, k) == brute_force_dilated_points(P, k)


def test_ehrhart_polynomiality(unit_square, triangle_23):
    # counts interpolate to a degree-n polynomial fixed by k = 1..n+2,
    # verified by predicting k = n+3
    from kstab.futaki import interpolate_coefficients, _poly_value

    for P in (unit_square, triangle_23):
        n = P.dim
        ks = list(range(1, n + 3))
        counts = [Fraction(len(dilated_lattice_points(P, k))) for k in ks]
        coeffs = interpolate_coefficients([Fraction(k) for k in ks], counts)
        predicted = _poly_value(coeffs, Fraction(n + 3))
        assert predicted == len(dilated_lattice_points(P, n + 3))


# -- facet counts and charts -------------------------------------------------

def test_facet_count_interval(interval_12):
    for i in range(2):
        for k in (1, 2, 7):
            assert facet_lattice_count(interval_12, i, k) == 1


def test_facet_count_square_edges(unit_square):
    for i in range(4):
        for k in (1, 2, 5):
            assert facet_lattice_count(unit_square, i, k) == k + 1


def test_facet_count_slanted(triangle_23):
    i = slanted_facet_index(triangle_23)
    assert facet_lattice_count(triangle_23, i, 1) == 2  # only the two vertices


def test_facet_count_matches_direct_enumeration(triangle_23, simplex_235):
    for P in (triangle_23, simplex_235):
        for i in range(len(P.facets)):
            v, c = P.facets[i]
            for k in (1, 2, 3):
                direct = sum(
                    1
                    for pt in dilated_lattice_points(P, k)
                    if sum(a * b for a, b in zip(v, pt)) == c * k
                )
                assert facet_lattice_count(P, i, k) == direct


def test_chart_unimodular_and_bijective(unit_square, triangle_23, simplex_235):
    for P in (unit_square, triangle_23, simplex_235):
        for i in range(len(P.facets)):
            chart = facet_chart(P, i)
            assert abs(_det([list(r) for r in chart.matrix])) == 1
            for k in (1, 2):
                v, c = P.facets[i]
                facet_pts = [
                    pt
                    for pt in dilated_lattice_points(P, k)
                    if sum(a * b for a, b in zip(v, pt)) == c * k
                ]
                mapped = sorted(
                    chart_reference.map_point(chart, [Fraction(t, k) for t in pt])
                    for pt in facet_pts
                )
                image_pts = sorted(lattice_points(chart.image, k))
                assert mapped == image_pts


def test_chart_round_trip(triangle_23):
    chart = facet_chart(triangle_23, slanted_facet_index(triangle_23))
    for v in triangle_23.facet_vertices(chart.facet_index):
        assert chart_reference.unmap_point(chart, chart_reference.map_point(chart, v)) == v


def test_facet_measures(unit_square, triangle_23, simplex_235):
    for i in range(4):
        assert facet_measure(unit_square, i) == 1
    assert facet_measure(triangle_23, slanted_facet_index(triangle_23)) == 1
    assert facet_measure(simplex_235, slanted_facet_index(simplex_235)) == Fraction(1, 2)


def test_facet_count_converges_to_measure(unit_square, triangle_23):
    # |count/k^(n-1) - sigma(F)| should roughly halve with k -> 2k
    cases = [
        (unit_square, 0),
        (triangle_23, slanted_facet_index(triangle_23)),
    ]
    for P, i in cases:
        sigma = facet_measure(P, i)
        errs = [
            abs(Fraction(facet_lattice_count(P, i, k), k ** (P.dim - 1)) - sigma)
            for k in (16, 32, 64)
        ]
        for e1, e2 in zip(errs, errs[1:]):
            ratio = float(e2 / e1)
            assert 0.3 <= ratio <= 0.7


# -- lift, triangulation, transforms ----------------------------------------

def test_lift_rectangle(interval_12):
    f = PiecewiseAffine.from_pieces([((0,), 0)])
    Q = lift_polytope(interval_12, f, 1)
    assert set(Q.vertices) == {
        (Fraction(1), Fraction(0)),
        (Fraction(2), Fraction(0)),
        (Fraction(1), Fraction(1)),
        (Fraction(2), Fraction(1)),
    }


def test_lift_trapezoid(interval_12, f_identity):
    Q = lift_polytope(interval_12, f_identity, 3)
    assert set(Q.vertices) == {
        (Fraction(1), Fraction(0)),
        (Fraction(2), Fraction(0)),
        (Fraction(1), Fraction(2)),
        (Fraction(2), Fraction(1)),
    }


def test_lift_pentagon(interval_12, f_kink):
    Q = lift_polytope(interval_12, f_kink, 2)
    assert set(Q.vertices) == {
        (Fraction(1), Fraction(0)),
        (Fraction(2), Fraction(0)),
        (Fraction(1), Fraction(2)),
        (Fraction(3, 2), Fraction(2)),
        (Fraction(2), Fraction(1)),
    }


def test_lift_headroom_violation(interval_12, f_identity):
    with pytest.raises(GeometryError) as err:
        lift_polytope(interval_12, f_identity, Fraction(5, 2))
    assert "2" in str(err.value)  # the witness vertex appears in the message


def test_triangulate_simplex_is_itself(triangle_23):
    tri = triangulate(triangle_23)
    assert len(tri) == 1
    assert sorted(tri[0]) == list(triangle_23.vertices)


def test_triangulate_square(unit_square):
    tri = triangulate(unit_square)
    assert len(tri) == 2
    assert sum(shoelace(s) for s in tri) == 1


def test_triangulate_pentagon(interval_12, f_kink):
    Q = lift_polytope(interval_12, f_kink, 2)
    tri = triangulate(Q)
    assert len(tri) == 3
    total = sum(shoelace(s) for s in tri)
    assert total == Fraction(7, 4)
    assert Q.volume() == Fraction(7, 4)


def test_transform_identity_and_shear(unit_square):
    same = transform(unit_square, [[1, 0], [0, 1]])
    assert same.vertices == unit_square.vertices
    sheared = transform(unit_square, [[1, 1], [0, 1]])
    for k in range(1, 9):
        assert len(dilated_lattice_points(sheared, k)) == len(
            dilated_lattice_points(unit_square, k)
        )


def test_transform_rejects_non_unimodular(unit_square):
    with pytest.raises(GeometryError):
        transform(unit_square, [[2, 0], [0, 1]])


def test_positive_chamber(interval_12):
    assert interval_12.in_positive_chamber
    assert not RationalPolytope.from_vertices([[0], [1]]).in_positive_chamber


# -- piecewise affine --------------------------------------------------------

def test_pl_value(f_kink):
    assert f_kink.value([1]) == 0
    assert f_kink.value([2]) == 1
    assert f_kink.value([Fraction(3, 2)]) == 0


def test_pl_denominator_lcm():
    f = PiecewiseAffine.from_pieces([((Fraction(1, 2), Fraction(1, 3)), Fraction(5, 4))])
    assert f.denominator_lcm == 12


def test_pl_compose_affine(f_max_xy):
    g = chart_reference.compose_affine(f_max_xy, [[0, 1], [1, 0]], [0, 0])  # swap coordinates
    assert g.value([3, 7]) == 7
    assert g.value([7, 3]) == 7


def test_pl_cells_cover(square_11_22, f_max_xy):
    cells = pl_cells(square_11_22, f_max_xy)
    assert len(cells) == 2
    assert sum(c.volume() for _, c in cells) == square_11_22.volume()


def test_pl_duplicate_and_dominated_pieces(interval_12):
    f = PiecewiseAffine.from_pieces([((0,), 0), ((0,), 0), ((0,), -1)])
    cells = pl_cells(interval_12, f)
    assert len(cells) == 1  # duplicates merged, dominated piece dropped
    assert cells[0][1].volume() == 1


@pytest.mark.parametrize(
    "start, stop, step", [(1, 1, 1), (1, 2, 1), (3, 40, 1), (7, 500, 7), (5, 6, 9)]
)
@pytest.mark.parametrize("n", [0, 1, 2, 3, 5])
def test_power_sum_matches_term_by_term(start, stop, step, n):
    ks = range(start, stop, step)
    assert polytope._power_sum(ks, n) == sum(k**n for k in ks)


def test_check_walk_counts_a_range_and_its_tuple_alike():
    """A range stops being summed at the limit and estimates the rest by the
    box volume; its message agrees with the exact tuple's to two digits."""
    P = RationalPolytope.from_vertices([[0, 0], [Fraction(5, 2), 0], [0, 3]])
    messages = []
    for ks in (range(4, 4000, 4), tuple(range(4, 4000, 4))):
        with pytest.raises(ValueError) as info:
            polytope.check_walk(P, ks, "walk")
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert "~4.0e+10 bounding-box lattice points over 999 dilates" in messages[0]
    polytope.check_walk(P, range(4, 200, 4), "walk")  # 4,877,999 points: allowed
