"""Exact integration over polytopes, and the graded rule's numpy-free parts.

Exact integrals triangulate the polytope and pull the integrand back to the
standard simplex, where the integral of y^a is (prod a_i!) / (n + |a|)!. The
pullback (``polynomial._pullback``) runs over Python ints, with coefficients
and substituted lines over one common denominator, monomials packed into int
keys and nested Horner expansion; each simplex then builds a single Fraction.
Boundary integrals use unimodular facet charts, so the canonical facet
measure becomes plain Lebesgue measure one dimension down and everything
stays rational; with a piecewise affine factor f they chart the facets of
f's ambient ``pl_cells`` that lie in the boundary.

This module imports no numpy. The boundary-graded float rule lives in
``kstab.graded``; here stay its parameters (GradedQuadratureSpec), its error
class (QuadratureError) and the pointwise ``graded_integral``, which loads
``kstab.graded`` when it is called.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Sequence

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
# graded floating-point quadrature (the rule itself is in kstab.graded)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GradedQuadratureSpec:
    """Parameters of the boundary-graded composite Gauss rule."""

    depth: int = 12
    nodes: int = 10
    tol: float = 1e-8

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if self.nodes < 2:
            raise ValueError("need at least two nodes per cell")
        if not self.tol >= 0:  # NaN fails too
            raise ValueError("tol must be >= 0, got %r" % self.tol)

    def refined(self) -> "GradedQuadratureSpec":
        return replace(self, depth=self.depth + 2, nodes=self.nodes + 1)


def graded_integral(
    fn: Callable[[tuple[float, ...]], float],
    P: RationalPolytope,
    spec: GradedQuadratureSpec | None = None,
) -> tuple[float, float]:
    """graded.graded_integral_array for a pointwise callback fn(tuple of floats)."""
    import numpy as np

    from .graded import graded_integral_array

    return graded_integral_array(
        lambda x: np.fromiter((fn(tuple(pt.tolist())) for pt in x), float, len(x)), P, spec
    )
