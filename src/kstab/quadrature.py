"""Exact and graded numerical integration over polytopes.

Exact integrals triangulate the polytope and pull the integrand back to the
standard simplex, where the integral of y^a is (prod a_i!) / (n + |a|)!. The
pullback (``polynomial._pullback``) runs over Python ints, with coefficients
and substituted lines over one common denominator, monomials packed into int
keys and nested Horner expansion; each simplex then builds a single Fraction.
Boundary integrals use unimodular facet charts, so the canonical facet
measure becomes plain Lebesgue measure one dimension down and everything
stays rational; with a piecewise affine factor f they chart the facets of
f's ambient ``pl_cells`` that lie in the boundary.

For integrands with logarithmic boundary singularities a graded composite
Gauss rule is provided: the polytope is sliced into pyramids over its facets
from the centroid, the radial direction is graded geometrically toward the
boundary, and each facet carries the rule of its chart image one dimension
down. ``graded_rule`` flattens this into one node array (m, n) and one weight
vector; ``graded_integral_array`` evaluates an integrand on the nodes in
chunks of CHUNK_NODES rows and sums the weighted values with math.fsum.
``graded_boundary_integral`` integrates over the boundary in the canonical
measure: each facet takes the rule of its chart image from the same
pyramids, and the facet sums are added with math.fsum, the only float sum
here. A rule's size is known from the face flags before anything is
allocated, and more than MAX_QUADRATURE_NODES nodes per level are refused
with ValueError.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .polynomial import MultivariatePolynomial, _pullback, as_fraction
from .polytope import (
    GeometryError,
    PiecewiseAffine,
    RationalPolytope,
    _det,
    facet_chart,
    pl_cells,
    triangulate,
)


class QuadratureError(ArithmeticError):
    """Raised when a float integrand produces a non-finite value."""


# ---------------------------------------------------------------------------
# exact integration
# ---------------------------------------------------------------------------

def integral_over_simplex(h: MultivariatePolynomial, simplex: Sequence) -> Fraction:
    """Exact integral of a polynomial over a simplex given by n+1 vertices."""
    base = [as_fraction(x) for x in simplex[0]]
    n = len(base)
    cols = [[as_fraction(p[i]) - base[i] for p in simplex[1:]] for i in range(n)]
    det = _det([[cols[i][j] for j in range(n)] for i in range(n)])
    if det == 0:
        return Fraction(0)
    coeffs, radix, den = _pullback(h, cols, base)
    # int_simplex y^a = a! / (n + |a|)!; scale[|a|] puts it over fact[-1] = (n + deg h)!
    fact = [math.factorial(j) for j in range(n + radix)]
    scale = [fact[-1] // fact[n + d] for d in range(radix)]
    total = 0
    for key, c in coeffs.items():
        d = 0
        for _ in range(n):
            key, e = divmod(key, radix)
            c *= fact[e]
            d += e
        total += c * scale[d]
    return abs(det) * Fraction(total, den * fact[-1])


def integral_polytope(h: MultivariatePolynomial, P: RationalPolytope) -> Fraction:
    """Exact integral of a polynomial over a polytope (Lebesgue measure)."""
    if h.nvars != P.dim:
        raise ValueError("polynomial/polytope dimension mismatch")
    return sum(
        (integral_over_simplex(h, s) for s in triangulate(P)), Fraction(0)
    )


def _facet_integral(h: MultivariatePolynomial, Q: RationalPolytope, j: int) -> Fraction:
    """Exact integral of h over facet j of Q, canonical boundary measure."""
    chart = facet_chart(Q, j)
    return integral_polytope(chart.pullback_polynomial(h), chart.image)


def boundary_integral(h: MultivariatePolynomial, P: RationalPolytope) -> Fraction:
    """Exact integral of a polynomial over the boundary, canonical measure.

    In dimension one the boundary measure is a unit point mass at each
    endpoint; in higher dimension each facet is flattened by its unimodular
    chart and integrated with ordinary Lebesgue measure.
    """
    if h.nvars != P.dim:
        raise ValueError("polynomial/polytope dimension mismatch")
    if P.dim == 1:
        return sum((h.evaluate(v) for v in P.vertices), Fraction(0))
    return sum((_facet_integral(h, P, i) for i in range(len(P.facets))), Fraction(0))


def integral_pl_poly(
    f: PiecewiseAffine, h: MultivariatePolynomial, P: RationalPolytope
) -> Fraction:
    """Exact integral of f(x) * h(x) over P for piecewise affine f."""
    if f.nvars != P.dim or h.nvars != P.dim:
        raise ValueError("dimension mismatch")
    cells = pl_cells(P, f)
    covered = sum((cell.volume() for _, cell in cells), Fraction(0))
    if covered != P.volume():
        raise GeometryError("active cells fail to cover the polytope")
    total = Fraction(0)
    for i, cell in cells:
        a, b = f.pieces[i]
        piece = MultivariatePolynomial.affine(a, b)
        total += integral_polytope(piece * h, cell)
    return total


def boundary_integral_pl_poly(
    f: PiecewiseAffine, h: MultivariatePolynomial, P: RationalPolytope
) -> Fraction:
    """Exact integral of f * h over the boundary with the canonical measure.

    The cells of ``pl_cells(P, f)`` tile the boundary by their facets that
    share a primitive normal and offset, hence the canonical measure, with a
    facet of P; each is integrated against its cell's active piece.
    """
    if P.dim == 1:
        return sum((f.value(v) * h.evaluate(v) for v in P.vertices), Fraction(0))
    on_boundary = set(P.facets)
    total = Fraction(0)
    for i, cell in pl_cells(P, f):
        fh = MultivariatePolynomial.affine(*f.pieces[i]) * h
        for j, facet in enumerate(cell.facets):
            if facet in on_boundary:
                total += _facet_integral(fh, cell, j)
    return total


# ---------------------------------------------------------------------------
# graded floating-point quadrature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GradedQuadratureSpec:
    """Parameters of the boundary-graded composite Gauss rule."""

    depth: int = 12
    ratio: Fraction = Fraction(1, 2)
    nodes: int = 10
    tol: float = 1e-8

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        r = as_fraction(self.ratio)
        if not 0 < r < 1:
            raise ValueError("grading ratio must lie in (0, 1)")
        if self.nodes < 2:
            raise ValueError("need at least two nodes per cell")
        if not self.tol >= 0:  # NaN fails too
            raise ValueError("tol must be >= 0, got %r" % self.tol)

    def refined(self) -> "GradedQuadratureSpec":
        return replace(self, depth=self.depth + 2, nodes=self.nodes + 1)


# Nodes per refinement level above which graded_rule refuses, before it
# allocates any array. The 2D default (refined to depth 14, 11 nodes per
# cell) has 435,600 fine nodes; a cube at depth 2, 3 nodes ~1.5e6; a cube at
# the defaults ~8.6e8.
MAX_QUADRATURE_NODES = 2_000_000

# Nodes per integrand call. It bounds the integrand's temporaries whatever
# the size of the rule.
CHUNK_NODES = 4096


@lru_cache(maxsize=None)
def _gauss_rule(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    xs, ws = np.polynomial.legendre.leggauss(nodes)
    xs.flags.writeable = ws.flags.writeable = False  # shared by every caller
    return xs, ws


def _interval_rule(
    a: float, b: float, spec: GradedQuadratureSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss on [a, b], graded geometrically toward both endpoints."""
    xs, ws = _gauss_rule(spec.nodes)
    r = float(spec.ratio)
    mid = 0.5 * (a + b)
    cuts = np.array(
        [a]
        + [a + (mid - a) * r**j for j in range(spec.depth, 0, -1)]
        + [mid]
        + [b - (b - a) * 0.5 * r**j for j in range(1, spec.depth + 1)]
        + [b]
    )
    lo, hi = cuts[:-1], cuts[1:]
    keep = hi > lo
    half, center = 0.5 * (hi - lo)[keep], 0.5 * (hi + lo)[keep]
    return (center[:, None] + half[:, None] * xs).ravel(), (half[:, None] * ws).ravel()


def _unmap(y: np.ndarray, cols: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """x = shift + cols y for every row y of an (m, n - 1) array of chart coordinates."""
    return shift + sum(y[:, c, None] * cols[:, c] for c in range(cols.shape[1]))


def _pyramids(P: RationalPolytope):
    """The geometry of P's graded rule, in floats.

    An interval is its endpoints (a, b). A polytope of dimension >= 2 is a
    list with one entry per facet F: l_F(centroid), the centroid, the facet
    chart's unmap columns and shift, and the geometry of the chart image.
    """
    if P.dim == 1:
        ends = sorted(float(v[0]) for v in P.vertices)
        return ends[0], ends[-1]
    c = P.centroid()
    centroid = np.array([float(x) for x in c])
    out = []
    for i in range(len(P.facets)):
        chart = facet_chart(P, i)
        cols, shift = (np.array(a, dtype=float) for a in chart.unmap_affine_data())
        out.append((float(P.support_value(i, c)), centroid, cols, shift, _pyramids(chart.image)))
    return out


def _flags(geometry) -> int:
    """Complete flags of faces: the tensor-product blocks of the rule."""
    if isinstance(geometry, tuple):
        return 1
    return sum(_flags(image) for *_, image in geometry)


def _rule(geometry, spec: GradedQuadratureSpec, radial) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(geometry, tuple):
        x, w = _interval_rule(*geometry, spec)
        return x[:, None], w
    s, ws = radial
    nodes, weights = [], []
    for height, centroid, cols, shift, image in geometry:
        y, wy = _rule(image, spec, radial)
        x = _unmap(y, cols, shift)
        n = x.shape[1]
        nodes.append((centroid + s[:, None, None] * (x - centroid)).reshape(-1, n))
        weights.append((height * (ws * s ** (n - 1))[:, None] * wy).ravel())
    return np.concatenate(nodes), np.concatenate(weights)


def _check_size(geometry, spec: GradedQuadratureSpec, dim: int, where: str) -> None:
    """Refuse a rule of more than MAX_QUADRATURE_NODES nodes before it is built."""
    size = _flags(geometry) * ((2 * spec.depth + 2) * spec.nodes) ** dim
    if size > MAX_QUADRATURE_NODES:
        raise ValueError(
            "the graded rule at depth %d, %d nodes per cell would take ~%.1e nodes on"
            " %s; the limit is %.0e per level"
            % (spec.depth, spec.nodes, size, where, MAX_QUADRATURE_NODES)
        )


def graded_rule(P: RationalPolytope, spec: GradedQuadratureSpec) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (m, n) and weights (m,) of the boundary-graded rule on P.

    In dimension one the rule is composite Gauss on the graded cuts. Above,
    P is the union of the pyramids from its centroid c over its facets F;
    each facet's rule, built on its chart image and mapped back, is
    multiplied with the 1D rule in the radial parameter s in [0, 1]: node
    c + s (x - c), weight l_F(c) w_s s^(n-1) w_y. The node count is known
    from the face flags before any array is built; above
    MAX_QUADRATURE_NODES it raises ValueError naming the count.
    """
    geometry = _pyramids(P)
    _check_size(geometry, spec, P.dim, "this %d-dimensional polytope" % P.dim)
    return _rule(geometry, spec, _interval_rule(0.0, 1.0, spec))


def _weighted_sum(values: Callable, x: np.ndarray, w: np.ndarray) -> float:
    """math.fsum of w * values(x), evaluated CHUNK_NODES nodes at a time."""
    parts = []
    for start in range(0, len(w), CHUNK_NODES):
        chunk = x[start : start + CHUNK_NODES]
        v = np.broadcast_to(np.asarray(values(chunk), dtype=float), len(chunk))
        bad = ~np.isfinite(v)
        if bad.any():
            raise QuadratureError(
                "integrand returned a non-finite value at %r"
                % (tuple(chunk[bad.argmax()].tolist()),)
            )
        parts.append(math.fsum((w[start : start + CHUNK_NODES] * v).tolist()))
    return math.fsum(parts)


def graded_integral_array(
    values: Callable[[np.ndarray], np.ndarray],
    P: RationalPolytope,
    spec: GradedQuadratureSpec | None = None,
) -> tuple[float, float]:
    """Integrate a batched float integrand over P on a boundary-graded mesh.

    ``values`` maps a (k, n) array of nodes, k <= CHUNK_NODES, to k values
    (or one scalar). Returns (value, error estimate): the weighted values on
    the rule at ``spec.refined()``, summed with math.fsum chunk by chunk and
    across chunks, and its distance from the same sum on the rule at
    ``spec``. Log-type singularities on the boundary are fine; a
    non-finite value raises QuadratureError naming its node.
    """
    if spec is None:
        spec = GradedQuadratureSpec()
    fine = _weighted_sum(values, *graded_rule(P, spec.refined()))
    coarse = _weighted_sum(values, *graded_rule(P, spec))
    return fine, abs(fine - coarse)


def graded_boundary_integral(
    values: Callable[[np.ndarray], np.ndarray],
    P: RationalPolytope,
    spec: GradedQuadratureSpec | None = None,
) -> tuple[float, float]:
    """graded_integral_array over the boundary of P, in the canonical measure.

    Each facet takes the rule of its chart image from graded_rule's pyramid
    over it, mapped back by the unimodular chart. Returns the math.fsum of
    the facet sums at ``spec.refined()`` and the sum of their distances from
    the sums at ``spec``. In dimension one each endpoint has unit mass and
    the error is 0.
    """
    if spec is None:
        spec = GradedQuadratureSpec()
    geometry = _pyramids(P)
    if P.dim == 1:
        return _weighted_sum(values, np.array(geometry)[:, None], np.ones(2)), 0.0
    fine = spec.refined()
    _check_size(geometry, fine, P.dim - 1, "the facets of this %d-dimensional polytope" % P.dim)
    parts, error = [], 0.0
    for *_, cols, shift, image in geometry:
        fine_sum, coarse_sum = (
            _weighted_sum(values, _unmap(y, cols, shift), w)
            for y, w in (_rule(image, s, _interval_rule(0.0, 1.0, s)) for s in (fine, spec))
        )
        parts.append(fine_sum)
        error += abs(fine_sum - coarse_sum)
    return math.fsum(parts), error


def graded_integral(
    fn: Callable[[tuple[float, ...]], float],
    P: RationalPolytope,
    spec: GradedQuadratureSpec | None = None,
) -> tuple[float, float]:
    """graded_integral_array for a pointwise callback fn(tuple of floats)."""
    return graded_integral_array(
        lambda x: np.fromiter((fn(tuple(pt.tolist())) for pt in x), float, len(x)), P, spec
    )
