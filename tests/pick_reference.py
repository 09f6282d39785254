"""The decay-based lattice-sum check, kept as the reference for ``kstab.pick``.

``kstab.pick`` fits E(k) = k^d S_k exactly, for polynomial h only. This
module keeps the older check for both kinds of h. Polynomial h pins c_top
and c_next to the exact integrals. A callback h gets a least-squares fit of
the two coefficients over the largest sampled k. Either way the samples
default to DEFAULT_KS, and the check passes when the residual scaled by
k^(n-2) stays within the ratio bounds across each doubling pair (a bounded
residual in dimension one); an inconclusive decay pattern is a failure,
never a silent pass.
"""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import log2
from typing import Sequence

from kstab.pick import pick_sum as exact_pick_sum
from kstab.polynomial import MultivariatePolynomial
from kstab.polytope import RationalPolytope, check_walk, lattice_points
from kstab.quadrature import boundary_integral, integral_polytope
from graded_reference import pairwise_sum
from lemmas import is_integer

DEFAULT_KS = (4, 8, 16, 32, 64)

# Slack on the measured decay: the normalized residual may grow at most this
# much across one doubling before the check fails.
RATIO_BOUND_HIGH_DIM = 4.5
RATIO_BOUND_DIM_ONE = 1.25


def pick_sum(P: RationalPolytope, h, k: int):
    """Exact Fraction for polynomial h, pairwise float sum for callbacks."""
    if isinstance(h, MultivariatePolynomial):
        return exact_pick_sum(P, h, k)
    return pairwise_sum([float(h(tuple(float(x) for x in p))) for p in lattice_points(P, k)])


# c_top and c_next are Fractions for polynomial h and floats for a callback;
# diagnostics holds (k, log2 |r_k / r_2k|) for each doubling pair.
DecayFit = namedtuple("DecayFit", "ks sums c_top c_next residuals diagnostics exact informational")


def pick_fit(
    P: RationalPolytope, h, ks: Sequence[int] = DEFAULT_KS, informational: bool = False
) -> DecayFit:
    """Fit S_k ~ c_top k^n + c_next k^(n-1) and record residuals.

    Polynomial h: the coefficients are fixed to the exact integrals. Callback
    h: least squares over the largest sampled k. Walks over more than
    MAX_WALK_POINTS bounding-box lattice points are refused up front.
    """
    ks = tuple(sorted(set(int(k) for k in ks)))
    if len(ks) < 2:
        raise ValueError("need at least two sample dilations")
    check_walk(P, ks, "pick")
    n = P.dim
    sums = [pick_sum(P, h, k) for k in ks]
    exact = isinstance(h, MultivariatePolynomial)
    if exact:
        c_top = integral_polytope(h, P)
        c_next = boundary_integral(h, P) / 2
        residuals = [
            s - c_top * Fraction(k) ** n - c_next * Fraction(k) ** (n - 1)
            for k, s in zip(ks, sums)
        ]
    else:
        tail = ks[-min(4, len(ks)):]
        tail_sums = sums[-len(tail):]
        # Normal equations for [k^n, k^(n-1)] against S_k.
        a11 = sum(float(k) ** (2 * n) for k in tail)
        a12 = sum(float(k) ** (2 * n - 1) for k in tail)
        a22 = sum(float(k) ** (2 * n - 2) for k in tail)
        b1 = sum(float(s) * float(k) ** n for k, s in zip(tail, tail_sums))
        b2 = sum(float(s) * float(k) ** (n - 1) for k, s in zip(tail, tail_sums))
        det = a11 * a22 - a12 * a12
        c_top = (b1 * a22 - b2 * a12) / det
        c_next = (a11 * b2 - a12 * b1) / det
        residuals = [
            float(s) - c_top * float(k) ** n - c_next * float(k) ** (n - 1)
            for k, s in zip(ks, sums)
        ]
    diagnostics = []
    by_k = dict(zip(ks, residuals))
    for k in ks:
        if 2 * k not in by_k:
            continue
        r1, r2 = abs(by_k[k]), abs(by_k[2 * k])
        if r1 == 0 or r2 == 0:
            diagnostics.append((k, None))
        else:
            diagnostics.append((k, log2(float(r1) / float(r2))))
    return DecayFit(
        ks=ks,
        sums=tuple(sums),
        c_top=c_top,
        c_next=c_next,
        residuals=tuple(residuals),
        diagnostics=tuple(diagnostics),
        exact=exact,
        informational=informational,
    )


def pick_check(
    P: RationalPolytope,
    h,
    ks: Sequence[int] = DEFAULT_KS,
    convex: bool = True,
) -> tuple[bool, DecayFit]:
    """Assert the two-term asymptotic with an O(k^(n-2)) remainder.

    The residual scaled by k^(n-2) must stay stable across each doubling pair
    (bounded residual in dimension one). With ``convex=False`` the verdict is
    computed the same way but marked informational in the fit.
    """
    if not is_integer(P):
        raise ValueError("the asymptotic check needs an integer polytope")
    fit = pick_fit(P, h, ks, informational=not convex)
    n = P.dim
    by_k = dict(zip(fit.ks, fit.residuals))
    passed = True
    for k in fit.ks:
        if 2 * k not in by_k:
            continue
        r1, r2 = abs(by_k[k]), abs(by_k[2 * k])
        if n >= 2:
            rho1 = float(r1) / float(k) ** (n - 2)
            rho2 = float(r2) / float(2 * k) ** (n - 2)
            if rho1 == 0 and rho2 == 0:
                continue
            if rho1 == 0 or rho2 > RATIO_BOUND_HIGH_DIM * rho1:
                passed = False
        else:
            if r1 == 0 and r2 == 0:
                continue
            if float(r1) == 0 or float(r2) > RATIO_BOUND_DIM_ONE * float(r1):
                passed = False
    return passed, fit
