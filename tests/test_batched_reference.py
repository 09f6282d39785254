"""The flattened graded rule, its weights and size, and batched potentials against the pointwise references."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import graded_reference as ref
from incidence_reference import support_value
from lemmas import facet_measure
from strategies import rational_polytopes
from kstab.futaki import average_scalar
from kstab.mabuchi import DomainError, PotentialError, SymplecticPotential, mabuchi_eval, scalar_curvature
from kstab.polynomial import MultivariatePolynomial as Poly
from kstab.polytope import GeometryError, RationalPolytope
from kstab.graded import graded_boundary_integral, graded_rule
from kstab.quadrature import GradedQuadratureSpec
from kstab.rootsystem import build_classical, dh_weight, dh_weight_gradient_sum

RS = {1: build_classical("A", 1), 2: build_classical("A", 2)}
# the root systems of each rank that the potential property draws from
SERIES = {1: ("A",), 2: ("A", "B", "G2"), 3: ("A", "B")}


def _s_allowance(l: float) -> float:
    """Relative error of S allowed at distance l from the boundary. Near an
    edge S's float error grows as c/l^3 in every route, in 2D as in 3D:
    against 50-digit mpmath on 33,316 points drawn by the potential property
    below, the kernel and the reference each erred by up to 3.4e-14/l^3
    relative to the size of S's terms, and by 6.2e-14/l^3 from each other."""
    return max(1e-12, 1e-13 / l**3)


def _close(new, old, rel=1e-12, scale=None):
    """Entrywise |new - old| <= rel * scale, by default scale = max |old|."""
    new, old = np.asarray(new, dtype=float), np.asarray(old, dtype=float)
    assert new.shape == old.shape
    if scale is None:
        scale = np.abs(old).max()
    assert np.abs(new - old).max() <= rel * max(scale, 1e-300), (new, old)


def _term_scale(u, pts):
    """Per point, the sum over facets of |log l_F + 1| max|v_F| / 2: the size
    of the terms of u_sigma's gradient. It bounds the rounding error when
    they cancel, as they may to ~0, where max |gradient| does not."""
    V = np.array([[float(a) for a in v] for v, _ in u.polytope.facets])
    ls = pts @ V.T - np.array([float(c) for _, c in u.polytope.facets])
    return (np.abs(np.log(ls) + 1.0) / 2 * np.abs(V).max(axis=1)).sum(axis=-1)


@st.composite
def rule_cases(draw):
    """A rational polytope, a small spec and an integrand: ("poly", c) for
    9 + sum_i c_i x_i^2 + x_0 x_(n-1) / 2, or ("log", i) for -log(l_i / 2 max l_i)."""
    P = draw(rational_polytopes())
    n = P.dim
    spec = GradedQuadratureSpec(
        depth=draw(st.integers(1, 3 if n < 3 else 1)),
        nodes=draw(st.integers(2, 4 if n < 3 else 2)),
    )
    if draw(st.booleans(), label="polynomial"):
        return P, spec, ("poly", draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
    return P, spec, ("log", draw(st.integers(0, len(P.facets) - 1), label="facet"))


# Skinny rational simplices: charting their facets takes integer matrices with
# large entries, and the reference lost 4.0e-12 and (in long double) 1.6e-12
# of the value to rounding in them.
SKINNY = [
    RationalPolytope.from_vertices([(-1, "-1/3", 2), (0, 0, "-3/2"), (0, 0, 0), (1, "3/2", 0)]),
    RationalPolytope.from_vertices([("-5/3", -1, 0), (0, 0, 0), (0, 2, 2), (2, "-3/2", "5/3")]),
]


@settings(max_examples=40, deadline=None)
@given(rule_cases())
@example((SKINNY[0], GradedQuadratureSpec(depth=1, nodes=2), ("log", 0)))
@example((SKINNY[1], GradedQuadratureSpec(depth=1, nodes=2), ("log", 0)))
def test_flattened_rule_matches_recursion(case):
    P, spec, (kind, arg) = case
    n = P.dim
    if kind == "poly":
        # 9 + sum_i c_i x_i^2 + x_0 x_{n-1} / 2, positive on [-2, 2]^n
        terms = {tuple(2 * (j == i) for j in range(n)): c for i, c in enumerate(arg)}
        terms[(0,) * n] = 9
        h = Poly(n, terms) + Poly.variable(n, 0) * Poly.variable(n, n - 1) * Fraction(1, 2)
        batched, pointwise = h.evaluate_float, lambda x: ref.evaluate_float(h, x)
    else:
        # -log(l_F / 2 max l_F): log-singular on facet F, and >= log 2 on P
        v, c = P.facets[arg]
        vf, cf = np.array([float(a) for a in v]), float(c)
        top = 2.0 * max(float(support_value(P, arg, p)) for p in P.vertices)
        batched = lambda x: -np.log((x @ vf - cf) / top)
        pointwise = lambda x: -math.log((sum(a * t for a, t in zip(vf, x)) - cf) / top)
    x, w = graded_rule(P, spec)
    assert x.shape == (len(w), n)
    flat = math.fsum((w * batched(x)).tolist())
    recursive = ref.graded_polytope(pointwise, P, spec)
    assert abs(flat - recursive) <= 1e-12 * abs(recursive)


def _flag_count(P):
    """Complete flags P > F_(n-1) > ... > F_1 (an edge), counted on the face
    lattice: the faces are P and every intersection of facets' vertex sets,
    and a chain steps from a face to one it covers."""
    faces, new = {frozenset(range(len(P.vertices)))}, set(P.incidence)
    while new:
        faces |= new
        new = {a & b for a in new for b in faces} - faces
    faces = [f for f in faces if len(f) >= 2]

    def covered(face):
        below = [g for g in faces if g < face]
        return [g for g in below if not any(g < h for h in below)]

    def count(face):
        return 1 if len(face) == 2 else sum(count(g) for g in covered(face))

    return count(max(faces, key=len))


@settings(max_examples=30, deadline=None)
@given(rational_polytopes(), st.integers(1, 2), st.integers(2, 3))
def test_flag_rule_weights_and_size(P, depth, nodes):
    """The bulk weights sum to the volume and each facet's boundary weights to
    its exact canonical measure, and the rule has #flags ((2 depth + 2) nodes)^n
    nodes, the flags counted on the face lattice."""
    spec = GradedQuadratureSpec(depth=depth, nodes=nodes)
    x, w = graded_rule(P, spec)
    assert len(w) == _flag_count(P) * ((2 * spec.depth + 2) * spec.nodes) ** P.dim
    assert math.fsum(w.tolist()) == pytest.approx(float(P.volume()), rel=1e-13)
    for i, (v, c) in enumerate(P.facets):
        normal, offset = np.array([float(a) for a in v]), float(c)

        def on_facet(x, normal=normal, offset=offset):
            return np.where(np.abs(x @ normal - offset) <= 1e-9, 1.0, 0.0)

        value, _ = graded_boundary_integral(on_facet, P, spec)
        assert value == pytest.approx(float(facet_measure(P, i)), rel=1e-13)


@st.composite
def potentials(draw):
    """A lattice polytope in the positive chamber of dimension 1-3 with a small
    perturbation of degree <= 4, and a root system of its rank: A1; A2, B2 or
    G2; A3 or B3."""
    n = draw(st.integers(1, 3))
    if n == 1:
        a = draw(st.integers(1, 3))
        P = RationalPolytope.from_vertices([[a], [a + draw(st.integers(1, 3))]])
    else:
        coord = st.integers(1, 4 if n == 2 else 3)
        pts = draw(st.lists(st.tuples(*[coord] * n), min_size=n + 1, max_size=6))
        try:
            P = RationalPolytope.from_vertices(pts)
        except GeometryError:
            assume(False)
    rs = build_classical(draw(st.sampled_from(SERIES[n])), n)
    exps = st.tuples(*[st.integers(0, 4)] * n).filter(lambda e: sum(e) <= 4)
    coef = st.fractions(min_value=-1, max_value=1, max_denominator=40).map(lambda c: c / 40)
    g = Poly(n, draw(st.dictionaries(exps, coef, max_size=5)))
    perturbation = None if g.is_zero else g
    canonical = perturbation is None or draw(st.booleans())
    try:
        u = SymplecticPotential(P, perturbation=perturbation, canonical=canonical)
    except PotentialError:
        assume(False)
    # interior points, some within 1e-3 of the boundary
    c = np.array([float(t) for t in P.centroid()])
    verts = np.array([[float(t) for t in v] for v in P.vertices])
    pts = []
    for _ in range(draw(st.integers(1, 6))):
        lam = np.array(draw(st.lists(st.integers(0, 9), min_size=len(verts), max_size=len(verts)))) + 1e-9
        t = draw(st.sampled_from([0.0, 0.3, 0.9, 0.999]))
        pts.append(c + t * (lam / lam.sum() @ verts - c))
    return u, np.array(pts), verts, rs


@settings(max_examples=60, deadline=None)
@given(potentials())
def test_batched_potential_matches_pointwise(case):
    u, pts, verts, rs = case
    r = ref.PointwisePotential(u.polytope, u.perturbation, u.canonical)
    try:
        hessians = [r.hessian(tuple(p)) for p in pts]
    except PotentialError:
        with pytest.raises(PotentialError):
            u.hessian(pts)
        return
    # l = <v, x> - c carries an absolute rounding error of ~1e-15 here, so
    # l^-k, and every derivative tensor, may differ by ~1e-15/l relative.
    l_min = np.array([min(r._ls(p)) for p in pts])
    rel = max(1e-12, 1e-13 / l_min.min())
    gradients = np.array([r.gradient(tuple(p)) for p in pts])
    d_hessians = [r.d_hessian(tuple(p)) for p in pts]
    d2_hessians = [r.d2_hessian(tuple(p)) for p in pts]
    # the gradient's terms may cancel; its scale is then the terms' size
    g_scales = np.maximum(np.abs(gradients).max(axis=-1), _term_scale(u, pts))
    _close(u.hessian(pts), hessians, rel)
    _close(u.value(pts), [r.value(tuple(p)) for p in pts], rel)
    _close(u.gradient(pts), gradients, rel, g_scales.max())
    _close(u.d_hessian(pts), d_hessians, rel)
    _close(u.d2_hessian(pts), d2_hessians, rel)
    # one point in, one value out, through the same code
    for i, p in enumerate(pts):
        _close(u.hessian(p), hessians[i], rel)
        _close(u.gradient(p), gradients[i], rel, g_scales[i])
        _close(u.d_hessian(p), d_hessians[i], rel)
        _close(u.d2_hessian(p), d2_hessians[i], rel)
    # the vertices lie on the boundary: l log l -> 0 there
    _close(u.value(verts, allow_boundary=True), [r.value(tuple(v), True) for v in verts])
    with pytest.raises(DomainError):
        u.value(np.vstack([pts, verts]))
    # S = f_G - D with f_G = 2 q_{N-1}/p, and D sums terms that grow as l
    # falls and cancel. Both routes then lose digits: _s_allowance per point,
    # relative to |f_G| + |D|, which stays of order one where S is near 0.
    p, q1 = dh_weight(rs), dh_weight_gradient_sum(rs)
    for s, x, lm in zip(scalar_curvature(rs, u, pts), pts, l_min):
        expected = ref.scalar_curvature(rs, r, tuple(x))
        f_g = 2.0 * q1.evaluate_float(x) / p.evaluate_float(x)
        scale = abs(f_g) + abs(f_g - expected)
        _close(s, expected, _s_allowance(lm), scale)
        _close(scalar_curvature(rs, u, x), expected, _s_allowance(lm), scale)


def test_scalar_curvature_near_an_edge_matches_mpmath():
    """S of the canonical potential on the A2 triangle (1,2), (2,3), (4,4) at
    l = 3.4e-4 from the edge through (1,2) and (4,4), against a 50-digit value
    computed with mpmath from the closed-form derivatives of u_sigma (a
    matrix inverse and the product rule, no quadrature and no float)."""
    P = RationalPolytope.from_vertices([(1, 2), (2, 3), (4, 4)])
    x = np.array([2.49983, 3.0])
    exact = 7.5271105766776331234851334407028618561222925909217
    l = min(float(sum(a * t for a, t in zip(v, x)) - c) for v, c in P.facets)
    assert 3.3e-4 < l < 3.5e-4
    s = scalar_curvature(RS[2], SymplecticPotential(P), x)
    f_g = 2.0 * dh_weight_gradient_sum(RS[2]).evaluate_float(x) / dh_weight(RS[2]).evaluate_float(x)
    assert abs(s - exact) <= _s_allowance(l) * (abs(f_g) + abs(f_g - exact))


@st.composite
def energy_cases(draw):
    """A1 interval with a perturbation of degree <= 4, or an A2 square with a
    small quadratic one."""
    if draw(st.booleans()):
        a = draw(st.integers(1, 3))
        P = RationalPolytope.from_vertices([[a], [a + draw(st.integers(1, 2))]])
        exps = st.tuples(st.integers(0, 4))
    else:
        a, s = draw(st.integers(1, 2)), draw(st.integers(1, 2))
        P = RationalPolytope.from_vertices([[a, a], [a + s, a], [a, a + s], [a + s, a + s]])
        exps = st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(lambda e: sum(e) <= 2)
    coef = st.fractions(min_value=-1, max_value=1, max_denominator=20).map(lambda c: c / 20)
    g = Poly(P.dim, draw(st.dictionaries(exps, coef, max_size=4)))
    try:
        u = SymplecticPotential(P, perturbation=None if g.is_zero else g)
    except PotentialError:
        assume(False)
    return u


@settings(max_examples=12, deadline=None)
@given(rational_polytopes(min_dim=2), st.data())
def test_energy_nodes_stay_in_the_closed_polytope(P, data):
    """Moved into the positive chamber, a random rational polytope of
    dimension 2-3 takes the energy (A = zero, depth 1, 2 nodes): its
    boundary nodes land on slanted facets a few ulps outside P, which the
    potential must take as on the boundary. The value is finite, or the rule
    is refused on size; DomainError is never raised."""
    n = P.dim
    shift = [1 - min(v[i] for v in P.vertices) for i in range(n)]
    P = RationalPolytope.from_vertices([[a + s for a, s in zip(v, shift)] for v in P.vertices])
    rs = build_classical(data.draw(st.sampled_from(SERIES[n]), label="series"), n)
    try:
        res = mabuchi_eval(rs, SymplecticPotential(P), "zero", GradedQuadratureSpec(depth=1, nodes=2))
    except ValueError as exc:
        assert not isinstance(exc, DomainError) and "the limit is" in str(exc), exc
        return
    assert math.isfinite(res.value) and math.isfinite(res.error)


@pytest.mark.parametrize("preset", ["zero", "paper", "csc"])
@settings(max_examples=8, deadline=None)
@given(u=energy_cases())
def test_mabuchi_eval_matches_pointwise_reference(preset, u):
    P = u.polytope
    rs = RS[P.dim]
    spec = GradedQuadratureSpec(depth=1, nodes=2)
    try:
        expected = ref.mabuchi_eval(
            rs,
            ref.PointwisePotential(P, u.perturbation),
            None if preset == "zero" else ref.a_preset(rs, float(average_scalar(rs, P)), preset),
            spec,
        )
    except PotentialError:
        with pytest.raises(PotentialError):
            mabuchi_eval(rs, u, preset, spec)
        return
    res = mabuchi_eval(rs, u, preset, spec)
    scale = sum(abs(expected[k]) for k in ("log_det", "boundary", "linear"))
    for key in ("log_det", "boundary", "linear"):
        assert abs(res.terms[key] - expected[key]) <= 1e-12 * scale
    assert abs(res.value - expected["value"]) <= 1e-12 * scale
    assert abs(res.error - expected["error"]) <= 1e-12 * scale
