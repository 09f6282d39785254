"""Two-term lattice-sum asymptotics: the generalized Pick verification harness.

For a polynomial h of degree d on a rational polytope P the refined lattice
sums S_k = sum over P meet (1/k)Z^n of h carry int_P h at order k^n and half
the canonical boundary integral at order k^(n-1). With m the lcm of P's
vertex denominators, kP is an integer polytope for k in mZ, and there
E(k) = k^d S_k is a polynomial of degree n + d whose top two coefficients
are int_P h and (1/2) int_dP h dsigma (weighted Ehrhart; McMullen, Arch.
Math. 31, 1978; Beck-Robins, *Computing the Continuous Discretely*, ch. 3-4).
The fit walks k = m, 2m, ..., (n + d + 3)m plus any dilations in mZ the
caller adds, interpolates the first n + d + 1 samples exactly and holds out
the rest; the check passes when every sample is reproduced and the top two
coefficients equal the exact integrals. No float enters, and h must be a
MultivariatePolynomial. Each S_k sums h.evaluate over lattice_points(P, k):
the points share one Fraction per distinct coordinate, and each value of h
is computed in ints and built as one Fraction; the held-out samples are
checked by futaki._poly_value, also in ints.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .futaki import _fit_progression, _poly_value
from .polynomial import MultivariatePolynomial, format_fraction
from .polytope import RationalPolytope, check_walk, lattice_points
from .quadrature import boundary_integral, integral_polytope


def pick_sum(P: RationalPolytope, h: MultivariatePolynomial, k: int) -> Fraction:
    """Exact sum of h over the (1/k)-lattice points of the closed polytope."""
    return sum((h.evaluate(p) for p in lattice_points(P, k)), Fraction(0))


@dataclass(frozen=True)
class AsymptoticFit:
    """Samples, the fitted E(k) = k^d S_k and its top two coefficients."""

    ks: tuple[int, ...]
    sums: tuple[Fraction, ...]
    c_top: Fraction
    c_next: Fraction
    residuals: tuple[Fraction, ...]  # S_k - c_top k^n - c_next k^(n-1)
    poly: tuple[Fraction, ...]  # E's coefficients, low to high

    def to_json_dict(self) -> dict:
        return {
            "k": list(self.ks),
            "sums": [format_fraction(s) for s in self.sums],
            "c_top": format_fraction(self.c_top),
            "c_next": format_fraction(self.c_next),
            "poly": [format_fraction(c) for c in self.poly],
            "residuals": [format_fraction(r) for r in self.residuals],
        }


def pick_fit(
    P: RationalPolytope, h: MultivariatePolynomial, ks: Sequence[int] | None = None
) -> AsymptoticFit:
    """Fit S_k ~ c_top k^n + c_next k^(n-1) and record residuals.

    E(k) = k^d S_k is interpolated exactly through k = m, ..., (n + d + 1)m;
    k = (n + d + 2)m, (n + d + 3)m and the dilations in ``ks``, which must lie
    in mZ, are held out. c_top and c_next are the top two coefficients of E.
    Walks over more than MAX_WALK_POINTS lattice points are refused up front.
    """
    if not isinstance(h, MultivariatePolynomial):
        raise TypeError("pick needs a MultivariatePolynomial h, got %s" % type(h).__name__)
    m = math.lcm(*(x.denominator for v in P.vertices for x in v))
    for k in ks or ():
        if k % m:
            raise ValueError("pick: dilation k=%d is not a multiple of m=%d, the lcm of the vertex"
                             " denominators; the sums are polynomial only along k in mZ" % (k, m))
    n = P.dim
    d = max(h.degree(), 0)
    deg = n + d
    ks = tuple(sorted(set(range(m, m * (deg + 3) + 1, m)).union(int(k) for k in ks or ())))
    check_walk(P, ks, "pick")
    sums = [pick_sum(P, h, k) for k in ks]
    poly = _fit_progression(
        ks[: deg + 1], [k**d * s for k, s in zip(ks, sums[: deg + 1])], m, deg, "pick"
    )
    c_top, c_next = poly[-1], poly[-2]
    return AsymptoticFit(
        ks=ks,
        sums=tuple(sums),
        c_top=c_top,
        c_next=c_next,
        residuals=tuple(s - c_top * k**n - c_next * k ** (n - 1) for k, s in zip(ks, sums)),
        poly=poly,
    )


def pick_check(
    P: RationalPolytope, h: MultivariatePolynomial, ks: Sequence[int] | None = None
) -> tuple[bool, AsymptoticFit]:
    """Verify the two-term asymptotic exactly; ``ks`` as for ``pick_fit``.

    E must reproduce every sample and its top two coefficients must equal
    int_P h and (1/2) int_dP h dsigma.
    """
    fit = pick_fit(P, h, ks)
    d = max(h.degree(), 0)
    passed = (
        fit.c_top == integral_polytope(h, P)
        and fit.c_next == boundary_integral(h, P) / 2
        and all(_poly_value(fit.poly, Fraction(k)) == k**d * s for k, s in zip(fit.ks, fit.sums))
    )
    return passed, fit
