"""The flattened graded rule and batched potentials against the pointwise references."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import graded_reference as ref
from kstab.futaki import average_scalar
from kstab.mabuchi import DomainError, PotentialError, SymplecticPotential, mabuchi_eval, scalar_curvature
from kstab.polynomial import MultivariatePolynomial as Poly
from kstab.polytope import GeometryError, RationalPolytope
from kstab.quadrature import GradedQuadratureSpec, graded_rule
from kstab.rootsystem import build_classical

RS = {1: build_classical("A", 1), 2: build_classical("A", 2)}


def _close(new, old, rel=1e-12):
    """Entrywise |new - old| <= rel * max |old|."""
    new, old = np.asarray(new, dtype=float), np.asarray(old, dtype=float)
    assert new.shape == old.shape
    assert np.abs(new - old).max() <= rel * max(np.abs(old).max(), 1e-300), (new, old)


@st.composite
def rational_polytopes(draw, max_dim=3):
    """A full-dimensional polytope with rational vertices (denominators <= 3)."""
    n = draw(st.integers(1, max_dim))
    coord = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    pts = draw(st.lists(st.tuples(*[coord] * n), min_size=n + 1, max_size=n + 2, unique=True))
    try:
        return RationalPolytope.from_vertices(pts)
    except GeometryError:
        assume(False)


@settings(max_examples=40, deadline=None)
@given(rational_polytopes(), st.data())
def test_flattened_rule_matches_recursion(P, data):
    n = P.dim
    spec = GradedQuadratureSpec(
        depth=data.draw(st.integers(1, 3 if n < 3 else 1)),
        nodes=data.draw(st.integers(2, 4 if n < 3 else 2)),
    )
    if data.draw(st.booleans(), label="polynomial"):
        # 9 + sum_i c_i x_i^2 + x_0 x_{n-1} / 2, positive on [-2, 2]^n
        cs = data.draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
        terms = {tuple(2 * (j == i) for j in range(n)): c for i, c in enumerate(cs)}
        terms[(0,) * n] = 9
        h = Poly(n, terms) + Poly.variable(n, 0) * Poly.variable(n, n - 1) * Fraction(1, 2)
        batched, pointwise = h.evaluate_float, lambda x: ref.evaluate_float(h, x)
    else:
        # -log(l_F / 2 max l_F): log-singular on facet F, and >= log 2 on P
        i = data.draw(st.integers(0, len(P.facets) - 1), label="facet")
        v, c = P.facets[i]
        vf, cf = np.array([float(a) for a in v]), float(c)
        top = 2.0 * max(float(P.support_value(i, p)) for p in P.vertices)
        batched = lambda x: -np.log((x @ vf - cf) / top)
        pointwise = lambda x: -math.log((sum(a * t for a, t in zip(vf, x)) - cf) / top)
    x, w = graded_rule(P, spec)
    assert x.shape == (len(w), n)
    flat = math.fsum((w * batched(x)).tolist())
    recursive = ref.graded_polytope(pointwise, P, spec)
    assert abs(flat - recursive) <= 1e-12 * abs(recursive)


@st.composite
def potentials(draw):
    """A1 interval or A2 lattice polygon in the positive chamber, with a small
    perturbation of degree <= 4."""
    n = draw(st.integers(1, 2))
    if n == 1:
        a = draw(st.integers(1, 3))
        P = RationalPolytope.from_vertices([[a], [a + draw(st.integers(1, 3))]])
    else:
        pts = draw(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)), min_size=3, max_size=6))
        try:
            P = RationalPolytope.from_vertices(pts)
        except GeometryError:
            assume(False)
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
    return u, np.array(pts), verts


@settings(max_examples=60, deadline=None)
@given(potentials())
def test_batched_potential_matches_pointwise(case):
    u, pts, verts = case
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
    _close(u.hessian(pts), hessians, rel)
    _close(u.value(pts), [r.value(tuple(p)) for p in pts], rel)
    _close(u.d_hessian(pts), [r.d_hessian(tuple(p)) for p in pts], rel)
    _close(u.d2_hessian(pts), [r.d2_hessian(tuple(p)) for p in pts], rel)
    # one point in, one value out, through the same code
    _close(u.hessian(pts[0]), hessians[0], rel)
    # the vertices lie on the boundary: l log l -> 0 there
    _close(u.value(verts, allow_boundary=True), [r.value(tuple(v), True) for v in verts])
    with pytest.raises(DomainError):
        u.value(np.vstack([pts, verts]))
    # S cancels terms of size 1/l^2 at distance l from the boundary, so both
    # routes lose digits there; compare each point with that allowance.
    rs = RS[u.polytope.dim]
    for s, p, lm in zip(scalar_curvature(rs, u, pts), pts, l_min):
        _close(s, ref.scalar_curvature(rs, r, tuple(p)), max(1e-12, 1e-11 / lm**2))


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
