"""Two-term lattice-sum asymptotics: the generalized Pick verification harness.

For a function h on an integer polytope P the refined lattice sums

    S_k = sum over P meet (1/k)Z^n of h

carry the volume integral at order k^n and half the canonical boundary
integral at order k^(n-1).

Polynomial h of degree d: E(k) = k^d S_k is a polynomial in k of degree
n + d whose top two coefficients are int_P h and (1/2) int_dP h dsigma
(weighted Ehrhart; Brion-Vergne, JAMS 10, 1997; Beck-Robins, *Computing the
Continuous Discretely*, ch. 4). The fit walks k = 1, ..., n + d + 3 plus any
dilations the caller adds, interpolates the first n + d + 1 samples exactly
and holds out the rest; the check passes when every sample is reproduced and
the top two coefficients equal the exact integrals. No float enters.

Callback h: a least-squares fit of the two coefficients over the largest
sampled k (DEFAULT_KS unless the caller passes dilations), and the residual
decay is checked on doubling pairs; an inconclusive decay pattern is a
failure, never a silent pass.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import log2
from typing import Sequence

from .futaki import _fit_progression, _poly_value
from .polynomial import MultivariatePolynomial, format_fraction
from .polytope import RationalPolytope, check_walk, lattice_points
from .quadrature import boundary_integral, integral_polytope, pairwise_sum

# Callback h only: polynomial h samples k = 1, ..., n + d + 3.
DEFAULT_KS = (4, 8, 16, 32, 64)

# Callback h only. Slack on the measured decay: the normalized residual may
# grow at most this much across one doubling before the check fails.
RATIO_BOUND_HIGH_DIM = 4.5
RATIO_BOUND_DIM_ONE = 1.25


def pick_sum(P: RationalPolytope, h, k: int):
    """Sum of h over the (1/k)-lattice points of the closed polytope.

    Exact Fraction for polynomial h, pairwise float sum for callbacks.
    """
    pts = lattice_points(P, k)
    if isinstance(h, MultivariatePolynomial):
        return sum((h.evaluate(p) for p in pts), Fraction(0))
    return pairwise_sum([float(h(tuple(float(x) for x in p))) for p in pts])


@dataclass(frozen=True)
class AsymptoticFit:
    """Samples, fitted leading coefficients and residual diagnostics."""

    ks: tuple[int, ...]
    sums: tuple
    c_top: object  # Fraction (exact) or float (callback path)
    c_next: object
    residuals: tuple
    diagnostics: tuple[tuple[int, float | None], ...]  # (k, log2 |r_k / r_2k|)
    exact: bool
    informational: bool = False
    poly: tuple[Fraction, ...] = ()  # E(k) = k^d S_k, low to high; polynomial h only

    def to_json_dict(self) -> dict:
        def fmt(x):
            return format_fraction(x) if isinstance(x, Fraction) else repr(float(x))

        return {
            "k": list(self.ks),
            "sums": [fmt(s) for s in self.sums],
            "c_top": fmt(self.c_top),
            "c_next": fmt(self.c_next),
            "poly": [fmt(c) for c in self.poly],
            "residuals": [fmt(r) for r in self.residuals],
            "log2_residual_ratios": [
                [k, None if r is None else r] for k, r in self.diagnostics
            ],
            "exact": self.exact,
            "informational": self.informational,
        }


def pick_fit(
    P: RationalPolytope, h, ks: Sequence[int] | None = None, informational: bool = False
) -> AsymptoticFit:
    """Fit S_k ~ c_top k^n + c_next k^(n-1) and record residuals.

    Polynomial h of degree d (integer P only): E(k) = k^d S_k is interpolated
    exactly through k = 1, ..., n + d + 1; k = n + d + 2, n + d + 3 and the
    dilations in ``ks`` are held out. c_top and c_next are the top two
    coefficients of E. Callback h: least squares over the largest k of ``ks``
    (default DEFAULT_KS). Either way the residuals are
    S_k - c_top k^n - c_next k^(n-1). Walks over more than MAX_WALK_POINTS
    bounding-box lattice points are refused up front.
    """
    n = P.dim
    if isinstance(h, MultivariatePolynomial):
        if not P.is_integer:
            raise ValueError("the exact fit needs an integer polytope")
        d = max(h.degree(), 0)
        deg = n + d
        ks = tuple(sorted(set(range(1, deg + 4)).union(int(k) for k in ks or ())))
        check_walk(P, ks, "pick")
        sums = [pick_sum(P, h, k) for k in ks]
        poly = _fit_progression(
            ks[: deg + 1], [k**d * s for k, s in zip(ks, sums[: deg + 1])], 1, deg, "pick"
        )
        c_top, c_next = poly[-1], poly[-2]
        return AsymptoticFit(
            ks=ks,
            sums=tuple(sums),
            c_top=c_top,
            c_next=c_next,
            residuals=tuple(s - c_top * k**n - c_next * k ** (n - 1) for k, s in zip(ks, sums)),
            diagnostics=(),
            exact=True,
            informational=informational,
            poly=poly,
        )
    ks = tuple(sorted(set(int(k) for k in (DEFAULT_KS if ks is None else ks))))
    if len(ks) < 2:
        raise ValueError("need at least two sample dilations")
    check_walk(P, ks, "pick")
    sums = [pick_sum(P, h, k) for k in ks]
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
    return AsymptoticFit(
        ks=ks,
        sums=tuple(sums),
        c_top=c_top,
        c_next=c_next,
        residuals=tuple(residuals),
        diagnostics=tuple(diagnostics),
        exact=False,
        informational=informational,
    )


def pick_check(
    P: RationalPolytope,
    h,
    ks: Sequence[int] | None = None,
    convex: bool = True,
) -> tuple[bool, AsymptoticFit]:
    """Verify the two-term asymptotic; ``ks`` as for ``pick_fit``.

    Polynomial h: E must reproduce every sample and its top two coefficients
    must equal int_P h and (1/2) int_dP h dsigma, exactly. Callback h: the
    residual scaled by k^(n-2) must stay stable across each doubling pair
    (bounded residual in dimension one). With ``convex=False`` the verdict is
    computed the same way but marked informational in the fit.
    """
    if not P.is_integer:
        raise ValueError("the asymptotic check needs an integer polytope")
    fit = pick_fit(P, h, ks, informational=not convex)
    n = P.dim
    if fit.exact:
        d = max(h.degree(), 0)
        passed = (
            fit.c_top == integral_polytope(h, P)
            and fit.c_next == boundary_integral(h, P) / 2
            and all(
                _poly_value(fit.poly, Fraction(k)) == k**d * s for k, s in zip(fit.ks, fit.sums)
            )
        )
        return passed, fit
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
