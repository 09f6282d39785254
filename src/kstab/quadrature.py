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
boundary, and the facet factor recurses one dimension down.
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


def pairwise_sum(values: Sequence[float]) -> float:
    """Deterministic pairwise tree reduction (order independent of workers)."""
    vals = list(values)
    if not vals:
        return 0.0
    while len(vals) > 1:
        nxt = [
            vals[i] + vals[i + 1] if i + 1 < len(vals) else vals[i]
            for i in range(0, len(vals), 2)
        ]
        vals = nxt
    return vals[0]


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
    if not P.is_integer:
        raise GeometryError("boundary integrals need an integer polytope")
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
    if not P.is_integer:
        raise GeometryError("boundary integrals need an integer polytope")
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

    def refined(self) -> "GradedQuadratureSpec":
        return replace(self, depth=self.depth + 2, nodes=self.nodes + 1)


@lru_cache(maxsize=None)
def _gauss_rule(nodes: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    xs, ws = np.polynomial.legendre.leggauss(nodes)
    return tuple(xs.tolist()), tuple(ws.tolist())


def _graded_interval(
    fn: Callable[[float], float], a: float, b: float, spec: GradedQuadratureSpec
) -> float:
    """Composite Gauss on a mesh graded geometrically toward both endpoints."""
    xs, ws = _gauss_rule(spec.nodes)
    r = float(spec.ratio)
    mid = 0.5 * (a + b)
    cuts = [a]
    for j in range(spec.depth, 0, -1):
        cuts.append(a + (mid - a) * r**j)
    cuts.append(mid)
    for j in range(1, spec.depth + 1):
        cuts.append(b - (b - a) * 0.5 * r**j)
    cuts.append(b)
    pieces = []
    for lo, hi in zip(cuts, cuts[1:]):
        if hi <= lo:
            continue
        half = 0.5 * (hi - lo)
        center = 0.5 * (hi + lo)
        pieces.append(
            half * pairwise_sum([w * fn(center + half * x) for x, w in zip(xs, ws)])
        )
    return pairwise_sum(pieces)


def _checked(fn: Callable, label: str = "integrand") -> Callable:
    def wrapper(*args):
        v = fn(*args)
        if not math.isfinite(v):
            raise QuadratureError(
                "%s returned a non-finite value at %r" % (label, args)
            )
        return float(v)

    return wrapper


def _graded_polytope(
    fn: Callable[[tuple[float, ...]], float],
    P: RationalPolytope,
    spec: GradedQuadratureSpec,
) -> float:
    n = P.dim
    if n == 1:
        ends = sorted(float(v[0]) for v in P.vertices)
        return _graded_interval(lambda t: fn((t,)), ends[0], ends[-1], spec)
    centroid = tuple(float(x) for x in P.centroid())
    contributions = []
    for i in range(len(P.facets)):
        chart = facet_chart(P, i)
        cols, shift = chart.unmap_affine_data()
        fcols = [[float(x) for x in row] for row in cols]
        fshift = [float(x) for x in shift]
        height = float(P.support_value(i, P.centroid()))  # l_F(centroid), exact->float

        def radial(s: float, fcols=fcols, fshift=fshift) -> float:
            def on_facet(y: tuple[float, ...]) -> float:
                x = [
                    fshift[r] + sum(fcols[r][c] * y[c] for c in range(n - 1))
                    for r in range(n)
                ]
                pt = tuple(
                    centroid[r] + s * (x[r] - centroid[r]) for r in range(n)
                )
                return fn(pt)

            return s ** (n - 1) * _graded_polytope(on_facet, chart.image, spec)

        contributions.append(height * _graded_interval(radial, 0.0, 1.0, spec))
    return pairwise_sum(contributions)


def graded_integral(
    fn: Callable[[tuple[float, ...]], float],
    P: RationalPolytope,
    spec: GradedQuadratureSpec | None = None,
) -> tuple[float, float]:
    """Integrate a float callback over P on a boundary-graded mesh.

    Returns (value, error estimate); the estimate compares two refinement
    levels. Log-type singularities on the boundary are fine; a non-finite
    value at any interior node raises QuadratureError.
    """
    if spec is None:
        spec = GradedQuadratureSpec()
    safe = _checked(fn)
    coarse = _graded_polytope(safe, P, spec)
    fine = _graded_polytope(safe, P, spec.refined())
    return fine, abs(fine - coarse)
