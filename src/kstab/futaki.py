"""Futaki invariant of piecewise-linear degenerations, two independent ways.

The closed form assembles exact integrals of the weight density p, its
gradient sum q_{N-1} and the boundary measure:

    F1 = -(1/(2 Vol_W)) ( int_P f f_G W dmu
                          + int_bd f W dsigma - a int_P f W dmu ),

with W = p, f_G W = q_{N-1} / ratio and the average scalar curvature

    a = 2 ( int_P q_{N-1} dmu + 1/2 int_bd p dsigma ) / int_P p dmu.

The oracle never touches those integrals: it enumerates weighted lattice
point counts d_k and weighted weights w_k over dilates of the polytope,
interpolates them exactly as polynomials in k, and reads

    F(k) = w_k / (k d_k) = F0 + F1 / k + ...   =>   F1 = (BC - AD) / C^2

from the leading coefficients. Exact agreement of the two routes is the
package's primary self-check. The count fit d(k) = C k^(N+n) + D k^(N+n-1)
+ ... also carries the weighted volume and the average scalar curvature,
Vol_W = C denom and a = 2 D / C, so a cross-check compares F1, Vol_W and a.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from operator import mul
from typing import Sequence

from .polynomial import as_fraction, format_fraction
from .polytope import (
    GeometryError,
    PiecewiseAffine,
    RationalPolytope,
    check_walk,
    dilated_lattice_points,
    pl_cells,
)
from .quadrature import (
    boundary_integral,
    boundary_integral_pl_poly,
    integral_polytope,
    integral_pl_poly,
)
from .rootsystem import (
    QN1_PFG_RATIO,
    RootSystem,
    dh_weight,
    dh_weight_gradient_sum,
    weyl_eval,
)


class AmplenessError(ValueError):
    """The moment polytope leaves the open positive chamber."""


def _require_positive_chamber(P: RationalPolytope) -> None:
    if not P.in_positive_chamber:
        bad = next(p for p in P.vertices if any(x <= 0 for x in p))
        raise AmplenessError(
            "polytope must lie in the open positive chamber; vertex %s does not"
            % (tuple(map(str, bad)),)
        )


def _require_match(rs: RootSystem, P: RationalPolytope) -> None:
    if rs.rank != P.dim:
        raise ValueError("root system rank %d != polytope dimension %d" % (rs.rank, P.dim))


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def volume_w(rs: RootSystem, P: RationalPolytope) -> Fraction:
    """Weighted volume int_P W dmu (exact)."""
    _require_match(rs, P)
    _require_positive_chamber(P)
    return integral_polytope(dh_weight(rs), P)


def _volume_and_average(rs: RootSystem, P: RationalPolytope) -> tuple[Fraction, Fraction]:
    _require_match(rs, P)
    _require_positive_chamber(P)
    if not P.is_integer:
        raise GeometryError("the boundary term needs an integer polytope")
    p = dh_weight(rs)
    vol = integral_polytope(p, P)
    bulk = integral_polytope(dh_weight_gradient_sum(rs), P)
    return vol, 2 * (bulk + boundary_integral(p, P) / 2) / vol


def average_scalar(rs: RootSystem, P: RationalPolytope) -> Fraction:
    """Average scalar curvature: the same for every metric in the class."""
    return _volume_and_average(rs, P)[1]


def closed_form_report(
    rs: RootSystem, P: RationalPolytope, f: PiecewiseAffine
) -> FutakiReport:
    """Vol_W, a and F1 from one set of closed-form integrals; no oracle."""
    vol, a = _volume_and_average(rs, P)
    p = dh_weight(rs)
    bracket = integral_pl_poly(
        f, dh_weight_gradient_sum(rs) * (1 / QN1_PFG_RATIO) - p * a, P
    ) + boundary_integral_pl_poly(f, p, P)
    return FutakiReport(vol_W=vol, a=a, F1_closed=-bracket / (2 * vol))


def futaki_closed_form(
    rs: RootSystem, P: RationalPolytope, f: PiecewiseAffine
) -> Fraction:
    """Exact Futaki invariant of the degeneration encoded by convex PL f."""
    return closed_form_report(rs, P, f).F1_closed


# ---------------------------------------------------------------------------
# lattice-count oracle
# ---------------------------------------------------------------------------

def weighted_count_dk(rs: RootSystem, P: RationalPolytope, k: int) -> Fraction:
    """d_k: dimension of sections at level k, by direct lattice enumeration."""
    _require_match(rs, P)
    total = 0
    for lam in dilated_lattice_points(P, k):
        total += weyl_eval(rs, lam)
    return Fraction(total, rs.denom)


def admissible_modulus(f: PiecewiseAffine, P: RationalPolytope) -> int:
    """Smallest progression step m such that d_k and w_k are polynomials on k in m Z.

    Clears the denominators of the PL coefficients and of the vertices of the
    subdivision of P into single-piece cells: those vertices are where the
    lattice sums change shape, and each scaled cell must be an integer
    polytope for the sampled sums to interpolate exactly. R does not enter:
    w_k(R) = w_k(0) + R k d_k, and both terms are polynomials along m Z.
    """
    dens = [f.denominator_lcm]
    for _, cell in pl_cells(P, f):
        for v in cell.vertices:
            dens.extend(x.denominator for x in v)
    return math.lcm(*dens)


def weighted_weight_wk(
    rs: RootSystem, P: RationalPolytope, f: PiecewiseAffine, R, k: int
) -> Fraction:
    """w_k: total weight sum_lambda q(lambda) k (R - f(lambda/k)) / denom.

    With L the lcm of the denominators of f, every L k f(lambda/k) =
    max_i (<L a_i, lambda> + k L b_i) is an integer, so the walk sums
    sum q and sum q L k f as Python ints and builds one Fraction at the end.
    The sum is exact for every k >= 1; it is a polynomial in k only along
    multiples of ``admissible_modulus(f, P)``, which ``ehrhart_fit`` samples.
    """
    _require_match(rs, P)
    R = as_fraction(R)
    L = f.denominator_lcm
    pieces = [(tuple(int(L * x) for x in a), int(k * L * b)) for a, b in f.pieces]
    sum_q = sum_qf = 0
    for lam in dilated_lattice_points(P, k):
        q = weyl_eval(rs, lam)
        sum_q += q
        sum_qf += q * max(sum(map(mul, a, lam)) + kb for a, kb in pieces)
    return (k * R * sum_q - Fraction(sum_qf, L)) / rs.denom


# ---------------------------------------------------------------------------
# exact interpolation and the cross-check report
# ---------------------------------------------------------------------------

def interpolate_coefficients(xs: Sequence[Fraction], ys: Sequence[Fraction]) -> list[Fraction]:
    """Coefficients (low to high) of the unique interpolating polynomial."""
    n = len(xs)
    if len(ys) != n or len(set(xs)) != n:
        raise ValueError("need distinct sample points with matching values")
    # Newton divided differences, then expansion to the monomial basis.
    coef = [as_fraction(y) for y in ys]
    pts = [as_fraction(x) for x in xs]
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (pts[i] - pts[i - j])
    out = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        # out = out * (x - pts[i]) + coef[i]
        new = [Fraction(0)] * n
        for d in range(n - 1):
            new[d + 1] += out[d]
        for d in range(n):
            new[d] -= pts[i] * out[d]
        new[0] += coef[i]
        out = new
    return out


def _poly_value(coeffs: Sequence[Fraction], x: Fraction) -> Fraction:
    total = Fraction(0)
    for c in reversed(list(coeffs)):
        total = total * x + c
    return total


@dataclass(frozen=True)
class EhrhartFit:
    """Interpolated count and weight polynomials with extracted leaders."""

    ks: tuple[int, ...]
    d_values: tuple[Fraction, ...]
    w_values: tuple[Fraction, ...]
    d_coeffs: tuple[Fraction, ...]  # d(k), degree N + n
    w_coeffs: tuple[Fraction, ...]  # w(k), degree N + n + 1
    A: Fraction
    B: Fraction
    C: Fraction
    D: Fraction
    F0: Fraction
    F1: Fraction

    def to_json_dict(self) -> dict:
        return {
            "k": list(self.ks),
            "d_k": [format_fraction(v) for v in self.d_values],
            "w_k": [format_fraction(v) for v in self.w_values],
            "d_poly": [format_fraction(c) for c in self.d_coeffs],
            "w_poly": [format_fraction(c) for c in self.w_coeffs],
            "A": format_fraction(self.A),
            "B": format_fraction(self.B),
            "C": format_fraction(self.C),
            "D": format_fraction(self.D),
            "F0": format_fraction(self.F0),
            "F1": format_fraction(self.F1),
        }


def _fit_progression(
    ks: Sequence[int], values: Sequence[Fraction], m: int, deg: int, what: str
) -> tuple[Fraction, ...]:
    """Coefficients in k of the degree-``deg`` polynomial through the samples.

    The sums are polynomial only along k in m Z, so the first deg + 1 samples
    are interpolated in t = k/m and coefficient j is rescaled by m^-j. Every
    sample, held out or not, must then be reproduced exactly.
    """
    t_coeffs = interpolate_coefficients(
        [Fraction(k, m) for k in ks[: deg + 1]], values[: deg + 1]
    )
    coeffs = tuple(c / Fraction(m) ** j for j, c in enumerate(t_coeffs))
    for k, v in zip(ks, values):
        if _poly_value(coeffs, Fraction(k)) != v:
            raise ArithmeticError("%s interpolation failed at held-out k=%d" % (what, k))
    return coeffs


def ehrhart_fit(
    rs: RootSystem, P: RationalPolytope, f: PiecewiseAffine, R, kmax: int | None = None
) -> EhrhartFit:
    """Fit d(k) and w(k) exactly from lattice sums and extract F0, F1.

    Samples k = m, 2m, ... for the admissible modulus m: N + n + 3 of them,
    or every multiple of m up to ``kmax`` when that is more. Held-out
    samples are predicted exactly or the fit is rejected. Walks over more
    than MAX_WALK_POINTS bounding-box lattice points are refused up front.
    """
    _require_match(rs, P)
    _require_positive_chamber(P)
    R = as_fraction(R)
    N, n = rs.num_positive_roots, rs.rank
    m = admissible_modulus(f, P)
    count = N + n + 3 if kmax is None else max(N + n + 3, kmax // m)
    ks = range(m, m * count + 1, m)
    check_walk(P, ks, "the oracle (admissible modulus %d)" % m)
    d_vals = [weighted_count_dk(rs, P, k) for k in ks]
    w_vals = [weighted_weight_wk(rs, P, f, R, k) for k in ks]
    d_coeffs = _fit_progression(ks, d_vals, m, N + n, "count")
    w_coeffs = _fit_progression(ks, w_vals, m, N + n + 1, "weight")
    A, B = w_coeffs[-1], w_coeffs[-2]
    C, D = d_coeffs[-1], d_coeffs[-2]
    if C == 0:
        raise ArithmeticError("degenerate fit: vanishing leading count coefficient")
    return EhrhartFit(
        ks=tuple(ks),
        d_values=tuple(d_vals),
        w_values=tuple(w_vals),
        d_coeffs=d_coeffs,
        w_coeffs=w_coeffs,
        A=A,
        B=B,
        C=C,
        D=D,
        F0=A / C,
        F1=(B * C - A * D) / (C * C),
    )


@dataclass(frozen=True)
class FutakiReport:
    """Closed form versus oracle, with exact agreement as the verdict."""

    vol_W: Fraction
    a: Fraction
    F1_closed: Fraction
    F1_oracle: Fraction | None = None
    oracle_details: EhrhartFit | None = None
    agreement: bool | None = None

    def to_json_dict(self) -> dict:
        return {
            "vol_W": format_fraction(self.vol_W),
            "a": format_fraction(self.a),
            "F1_closed": format_fraction(self.F1_closed),
            "F1_oracle": None
            if self.F1_oracle is None
            else format_fraction(self.F1_oracle),
            "oracle_details": None
            if self.oracle_details is None
            else self.oracle_details.to_json_dict(),
            "agreement": self.agreement,
        }


def futaki_cross_check(
    rs: RootSystem,
    P: RationalPolytope,
    f: PiecewiseAffine,
    R,
    kmax: int | None = None,
) -> FutakiReport:
    """Run both routes and compare F1, Vol_W and a.

    ``agreement`` holds when the oracle's F1 equals the closed form's and the
    leading coefficients C, D of the count fit d(k) reproduce the closed
    form's Vol_W = C denom and a = 2 D / C. The fit is not repeated at R + 1:
    w_k(R + 1) = w_k(R) + k d_k by definition, so it could only return the
    same F1.
    """
    closed = closed_form_report(rs, P, f)
    fit = ehrhart_fit(rs, P, f, R, kmax)
    return replace(
        closed,
        F1_oracle=fit.F1,
        oracle_details=fit,
        agreement=closed.F1_closed == fit.F1
        and closed.vol_W == fit.C * rs.denom
        and closed.a == 2 * fit.D / fit.C,
    )
