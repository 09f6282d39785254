"""The Fraction evaluations, kept as the references for the integer kernels.

``MultivariatePolynomial.evaluate`` and ``kstab.futaki._poly_value`` clear
denominators and work in ints, building one Fraction per result, and
``kstab.polytope.lattice_points`` builds one Fraction per distinct coordinate
of the dilate. This module keeps the bodies they replaced, which build a
Fraction per coordinate, monomial and term.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from kstab.polynomial import MultivariatePolynomial, as_fraction
from kstab.polytope import Point, RationalPolytope, dilated_lattice_points


def evaluate(h: MultivariatePolynomial, point: Sequence) -> Fraction:
    """h at a rational point, term by term in Fractions."""
    pt = [as_fraction(x) for x in point]
    if len(pt) != h.nvars:
        raise ValueError("point dimension mismatch")
    total = Fraction(0)
    for exp, coef in h.terms.items():
        v = coef
        for x, e in zip(pt, exp):
            if e:
                v *= x**e
        total += v
    return total


def poly_value(coeffs: Sequence[Fraction], x: Fraction) -> Fraction:
    """sum(coeffs[j] x^j) by Horner's rule in Fractions."""
    total = Fraction(0)
    for c in reversed(list(coeffs)):
        total = total * x + c
    return total


def lattice_points(P: RationalPolytope, k: int) -> list[Point]:
    """Points of closure(P) in (1/k) Z^n, one Fraction per point and axis."""
    return [tuple(Fraction(c, k) for c in pt) for pt in dilated_lattice_points(P, k)]
