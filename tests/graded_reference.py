"""The recursive graded rule and the per-point potential, kept as references.

``kstab.quadrature.graded_rule`` builds the boundary-graded rule as one node
array, and ``kstab.mabuchi`` evaluates potentials, scalar curvature and the
energy's integrands on whole arrays of nodes. This module keeps the code they
replaced: the rule as a recursion over facets that calls the integrand one
point at a time, and the potential's value and derivatives as per-point sums
over facets, so the tests can compare the two on random input.
"""
from __future__ import annotations

import math

import numpy as np

from kstab.mabuchi import PotentialError
from kstab.polytope import RationalPolytope, facet_chart
from kstab.quadrature import GradedQuadratureSpec, pairwise_sum
from kstab.rootsystem import dh_weight, dh_weight_gradient_sum


def evaluate_float(h, x) -> float:
    """h at one point, as a sum over terms in Python floats."""
    total = 0.0
    for exp, coef in h.sorted_terms():
        v = float(coef)
        for t, e in zip(x, exp):
            if e:
                v *= float(t) ** e
        total += v
    return total


# -- the recursive graded rule --------------------------------------------------

def graded_interval(fn, a: float, b: float, spec: GradedQuadratureSpec) -> float:
    """Composite Gauss on a mesh graded geometrically toward both endpoints."""
    xs, ws = (v.tolist() for v in np.polynomial.legendre.leggauss(spec.nodes))
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


def graded_polytope(fn, P: RationalPolytope, spec: GradedQuadratureSpec) -> float:
    """Pyramids over the facets from the centroid, recursing one dimension down."""
    n = P.dim
    if n == 1:
        ends = sorted(float(v[0]) for v in P.vertices)
        return graded_interval(lambda t: fn((t,)), ends[0], ends[-1], spec)
    centroid = tuple(float(x) for x in P.centroid())
    contributions = []
    for i in range(len(P.facets)):
        chart = facet_chart(P, i)
        cols, shift = chart.unmap_affine_data()
        fcols = [[float(x) for x in row] for row in cols]
        fshift = [float(x) for x in shift]
        height = float(P.support_value(i, P.centroid()))

        def radial(s, fcols=fcols, fshift=fshift, chart=chart):
            def on_facet(y):
                x = [
                    fshift[r] + sum(fcols[r][c] * y[c] for c in range(n - 1))
                    for r in range(n)
                ]
                return fn(tuple(centroid[r] + s * (x[r] - centroid[r]) for r in range(n)))

            return s ** (n - 1) * graded_polytope(on_facet, chart.image, spec)

        contributions.append(height * graded_interval(radial, 0.0, 1.0, spec))
    return pairwise_sum(contributions)


def graded_integral(fn, P: RationalPolytope, spec: GradedQuadratureSpec) -> tuple[float, float]:
    coarse = graded_polytope(fn, P, spec)
    fine = graded_polytope(fn, P, spec.refined())
    return fine, abs(fine - coarse)


# -- the per-point potential ------------------------------------------------------

class PointwisePotential:
    """u_sigma + perturbation, one point at a time, with per-facet sums."""

    def __init__(self, polytope, perturbation=None, canonical=True):
        self.polytope = polytope
        self.canonical = canonical
        self.perturbation = perturbation
        n = polytope.dim
        g = perturbation
        self._facets = [
            (np.array([float(a) for a in v]), float(c)) for v, c in polytope.facets
        ]
        if g is None:
            self._d = None
            return
        d1 = [g.partial(i) for i in range(n)]
        d2 = [[d1[i].partial(j) for j in range(n)] for i in range(n)]
        d3 = [[[d2[i][j].partial(c) for c in range(n)] for j in range(n)] for i in range(n)]
        d4 = [
            [[[d3[i][j][c].partial(d) for d in range(n)] for c in range(n)] for j in range(n)]
            for i in range(n)
        ]
        self._d = (d1, d2, d3, d4)

    def _ls(self, x):
        xv = np.asarray([float(t) for t in x])
        return [float(v @ xv) - c for v, c in self._facets]

    def value(self, x, allow_boundary=False) -> float:
        ls = self._ls(x)
        if any(l < 0 for l in ls) or (not allow_boundary and any(l == 0 for l in ls)):
            raise ValueError("point %r is outside the polytope" % (x,))
        total = 0.0
        if self.canonical:
            total += 0.5 * pairwise_sum([l * math.log(l) if l > 0 else 0.0 for l in ls])
        if self.perturbation is not None:
            total += evaluate_float(self.perturbation, x)
        return total

    def gradient(self, x) -> np.ndarray:
        ls = self._ls(x)
        out = np.zeros(self.polytope.dim)
        if self.canonical:
            for (v, _), l in zip(self._facets, ls):
                out += 0.5 * (math.log(l) + 1.0) * v
        if self._d is not None:
            out += np.array([evaluate_float(q, x) for q in self._d[0]])
        return out

    def hessian(self, x) -> np.ndarray:
        ls = self._ls(x)
        n = self.polytope.dim
        H = np.zeros((n, n))
        if self.canonical:
            for (v, _), l in zip(self._facets, ls):
                H += 0.5 * np.outer(v, v) / l
        if self._d is not None:
            H += np.array([[evaluate_float(q, x) for q in row] for row in self._d[1]])
        try:
            np.linalg.cholesky(H)
        except np.linalg.LinAlgError:
            raise PotentialError("Hessian is not positive definite at %r" % (x,)) from None
        return H

    def d_hessian(self, x) -> list[np.ndarray]:
        ls = self._ls(x)
        n = self.polytope.dim
        out = [np.zeros((n, n)) for _ in range(n)]
        if self.canonical:
            for (v, _), l in zip(self._facets, ls):
                for c in range(n):
                    out[c] -= 0.5 * np.outer(v, v) * v[c] / l**2
        if self._d is not None:
            for c in range(n):
                out[c] += np.array(
                    [[evaluate_float(self._d[2][i][j][c], x) for j in range(n)] for i in range(n)]
                )
        return out

    def d2_hessian(self, x) -> list[list[np.ndarray]]:
        ls = self._ls(x)
        n = self.polytope.dim
        out = [[np.zeros((n, n)) for _ in range(n)] for _ in range(n)]
        if self.canonical:
            for (v, _), l in zip(self._facets, ls):
                for c in range(n):
                    for d in range(n):
                        out[c][d] += np.outer(v, v) * v[c] * v[d] / l**3
        if self._d is not None:
            for c in range(n):
                for d in range(n):
                    out[c][d] += np.array(
                        [
                            [evaluate_float(self._d[3][i][j][c][d], x) for j in range(n)]
                            for i in range(n)
                        ]
                    )
        return out


def scalar_curvature(rs, u: PointwisePotential, x, divergence_factor=0.5) -> float:
    """S(x) = -1/2 p^{-1} (p u^{jk})_{jk} + f_G, entry by entry."""
    p = dh_weight(rs)
    n = rs.rank
    dp = [p.partial(j) for j in range(n)]
    pv = evaluate_float(p, x)
    dpv = [evaluate_float(q, x) for q in dp]
    d2pv = [[evaluate_float(dp[j].partial(k), x) for k in range(n)] for j in range(n)]
    G = np.linalg.inv(u.hessian(x))
    dH = u.d_hessian(x)
    d2H = u.d2_hessian(x)
    GdH = [G @ dH[c] for c in range(n)]
    dG = [-GdH[c] @ G for c in range(n)]
    total = 0.0
    for j in range(n):
        for k in range(n):
            d2G_jk = -G @ d2H[j][k] @ G - GdH[j] @ dG[k] - GdH[k] @ dG[j]
            total += (
                d2pv[j][k] * G[j, k]
                + dpv[j] * dG[k][j, k]
                + dpv[k] * dG[j][j, k]
                + pv * d2G_jk[j, k]
            )
    f_g = 2.0 * evaluate_float(dh_weight_gradient_sum(rs), x) / pv
    return -divergence_factor * total / pv + f_g


def a_preset(rs, a: float, name: str):
    """The A presets, one point at a time; a is the average scalar curvature."""
    p, q1 = dh_weight(rs), dh_weight_gradient_sum(rs)
    scale = {"zero": 0.0, "paper": 0.5, "csc": 2.0}[name]
    return lambda x: scale * (a - 2.0 * evaluate_float(q1, x) / evaluate_float(p, x))


def mabuchi_eval(rs, u: PointwisePotential, A, spec: GradedQuadratureSpec) -> dict:
    """F_A(u) with the recursive rule and per-point integrands; A is pointwise or None."""
    P = u.polytope
    p = dh_weight(rs)

    def log_det_term(x):
        sign, logdet = np.linalg.slogdet(u.hessian(x))
        assert sign > 0
        return logdet * evaluate_float(p, x)

    bulk, bulk_err = graded_integral(log_det_term, P, spec)
    if P.dim == 1:
        ends = [tuple(float(c) for c in v) for v in P.vertices]
        boundary = pairwise_sum([u.value(x, True) * evaluate_float(p, x) for x in ends])
        boundary_err = 0.0
    else:
        parts, errs = [], []
        n = P.dim
        for i in range(len(P.facets)):
            chart = facet_chart(P, i)
            cols, shift = chart.unmap_affine_data()
            fcols = [[float(x) for x in row] for row in cols]
            fshift = [float(x) for x in shift]

            def on_facet(y, fcols=fcols, fshift=fshift):
                x = tuple(
                    fshift[r] + sum(fcols[r][c] * y[c] for c in range(n - 1)) for r in range(n)
                )
                return u.value(x, True) * evaluate_float(p, x)

            val, err = graded_integral(on_facet, chart.image, spec)
            parts.append(val)
            errs.append(err)
        boundary, boundary_err = pairwise_sum(parts), sum(errs)
    linear, linear_err = (0.0, 0.0) if A is None else graded_integral(
        lambda x: A(x) * u.value(x, True) * evaluate_float(p, x), P, spec
    )
    return {
        "value": -bulk + 2.0 * boundary - linear,
        "error": bulk_err + 2.0 * boundary_err + linear_err,
        "log_det": -bulk,
        "boundary": 2.0 * boundary,
        "linear": -linear,
    }
