"""The expand-and-integrate route, kept as the reference for the int kernel.

Exact simplex integration used to pull a polynomial back by expanding
products of ``MultivariatePolynomial`` objects over ``Fraction`` and to sum
the standard-simplex monomial integrals term by term. It is slow but shares
no arithmetic with ``kstab.polynomial._pullback``, so the tests compare the
two on random input.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from kstab.polynomial import MultivariatePolynomial, as_fraction
from kstab.polytope import _det


def simplex_monomial_integral(exponents: Sequence[int]) -> Fraction:
    """Integral of x^a over the standard simplex {x >= 0, sum x <= 1}."""
    n = len(exponents)
    num = 1
    for e in exponents:
        num *= math.factorial(e)
    return Fraction(num, math.factorial(n + sum(exponents)))


def substitute_affine(
    h: MultivariatePolynomial, matrix: Sequence[Sequence], shift: Sequence
) -> MultivariatePolynomial:
    """Substitute x_i = shift[i] + sum_j matrix[i][j] * y_j by expansion."""
    if len(matrix) != h.nvars or len(shift) != h.nvars:
        raise ValueError("substitution shape mismatch")
    m = len(matrix[0]) if h.nvars else 0
    lines = [
        MultivariatePolynomial.affine([as_fraction(a) for a in row], as_fraction(s))
        for row, s in zip(matrix, shift)
    ]
    powers = [[MultivariatePolynomial.constant(m, 1)] for _ in range(h.nvars)]

    def power(i: int, e: int) -> MultivariatePolynomial:
        cache = powers[i]
        while len(cache) <= e:
            cache.append(cache[-1] * lines[i])
        return cache[e]

    result = MultivariatePolynomial.zero(m)
    for exp, coef in h.terms.items():
        term = MultivariatePolynomial.constant(m, coef)
        for i, e in enumerate(exp):
            if e:
                term = term * power(i, e)
        result = result + term
    return result


def integral_over_simplex(h: MultivariatePolynomial, simplex: Sequence) -> Fraction:
    """Exact integral of a polynomial over a simplex given by n+1 vertices."""
    base = [as_fraction(x) for x in simplex[0]]
    n = len(base)
    cols = [[as_fraction(p[i]) - base[i] for p in simplex[1:]] for i in range(n)]
    det = _det([[cols[i][j] for j in range(n)] for i in range(n)])
    if det == 0:
        return Fraction(0)
    pulled = substitute_affine(h, cols, base)
    total = Fraction(0)
    for exp, coef in pulled.terms.items():
        total += coef * simplex_monomial_integral(exp)
    return abs(det) * total
