"""Symplectic potentials, scalar curvature and the Mabuchi energy.

A potential is the canonical boundary-log part

    u_sigma(x) = 1/2 sum_F l_F(x) log l_F(x)

plus an optional polynomial perturbation; that sum keeps membership in the
right function space automatic and all Hessian derivatives closed-form. The
scalar curvature operator is assembled analytically,

    S(x) = -1/2 p^{-1} (p u^{jk})_{jk} + f_G,

with derivatives of the inverse Hessian taken via dG = -G (dH) G and its
second-order analogue rather than finite differences: near the boundary the
Hessian degenerates and naive differencing falls apart. The Mabuchi energy

    F_A(u) = -int_P log det(u_jk) W dmu + 2 int_bd u W dsigma - int_P A u W dmu

is evaluated with the boundary-graded quadrature, and the variational
identity dF_A = int (-W^{-1}(W u^{jk})_{jk} - A) du W dmu (for compactly
supported du) gets a finite-difference cross-check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .polynomial import MultivariatePolynomial
from .polytope import RationalPolytope, facet_chart
from .quadrature import GradedQuadratureSpec, graded_integral, pairwise_sum
from .rootsystem import (
    RootSystem,
    dh_weight,
    dh_weight_gradient_sum,
)
from .futaki import average_scalar, _require_match, _require_positive_chamber

# Factor on the divergence term of the scalar curvature operator. 1/2 is the
# convention under which the average-scalar identity int S W = a Vol_W holds
# exactly; 1 reproduces the factor-free variant some sources use.
SCALAR_DIVERGENCE_FACTOR = 0.5


class PotentialError(ValueError):
    """Invalid symplectic potential (non-PD Hessian or bad domain)."""


class DomainError(ValueError):
    """Evaluation requested outside the open polytope."""


class SymplecticPotential:
    """u = u_sigma + polynomial perturbation on a fixed moment polytope.

    The Hessian is checked for positive definiteness on an interior probe
    grid at construction; a violation raises PotentialError.
    """

    def __init__(
        self,
        polytope: RationalPolytope,
        perturbation: MultivariatePolynomial | None = None,
        canonical: bool = True,
        validate: bool = True,
    ):
        if perturbation is not None and perturbation.nvars != polytope.dim:
            raise PotentialError("perturbation variable count != polytope dimension")
        self.polytope = polytope
        self.canonical = canonical
        self.perturbation = perturbation
        n = polytope.dim
        g = perturbation
        self._g1 = [g.partial(i) for i in range(n)] if g else None
        self._g2 = (
            [[self._g1[i].partial(j) for j in range(n)] for i in range(n)] if g else None
        )
        self._g3 = (
            [
                [[self._g2[i][j].partial(c) for c in range(n)] for j in range(n)]
                for i in range(n)
            ]
            if g
            else None
        )
        self._g4 = (
            [
                [
                    [
                        [self._g3[i][j][c].partial(d) for d in range(n)]
                        for c in range(n)
                    ]
                    for j in range(n)
                ]
                for i in range(n)
            ]
            if g
            else None
        )
        self._facets = [
            (np.array([float(a) for a in v]), float(c)) for v, c in polytope.facets
        ]
        if validate:
            for pt in interior_grid(polytope, 9):
                self.hessian(pt)  # raises PotentialError when not PD

    # -- pointwise data ------------------------------------------------------

    def _l_values(self, x: Sequence[float]) -> list[float]:
        xv = np.asarray([float(t) for t in x])
        return [float(v @ xv) - c for v, c in self._facets]

    def value(self, x: Sequence[float], allow_boundary: bool = False) -> float:
        ls = self._l_values(x)
        tol_neg = any(l < 0 for l in ls)
        if tol_neg or (not allow_boundary and any(l == 0 for l in ls)):
            raise DomainError("point %r is outside the open polytope" % (x,))
        total = 0.0
        if self.canonical:
            total += 0.5 * pairwise_sum([l * math.log(l) if l > 0 else 0.0 for l in ls])
        if self.perturbation is not None:
            total += self.perturbation.evaluate_float([float(t) for t in x])
        return total

    def _require_interior(self, x: Sequence[float]) -> list[float]:
        ls = self._l_values(x)
        if any(l <= 0 for l in ls):
            raise DomainError("point %r is not strictly interior" % (x,))
        return ls

    def gradient(self, x: Sequence[float]) -> np.ndarray:
        ls = self._require_interior(x)
        n = self.polytope.dim
        out = np.zeros(n)
        if self.canonical:
            for (v, _), l in zip(self._facets, ls):
                out += 0.5 * v * (math.log(l) + 1.0)
        if self.perturbation is not None:
            out += np.array([g.evaluate_float(list(map(float, x))) for g in self._g1])
        return out

    def hessian(self, x: Sequence[float]) -> np.ndarray:
        ls = self._require_interior(x)
        n = self.polytope.dim
        H = np.zeros((n, n))
        if self.canonical:
            for (v, _), l in zip(self._facets, ls):
                H += 0.5 * np.outer(v, v) / l
        if self.perturbation is not None:
            xf = list(map(float, x))
            H += np.array(
                [[self._g2[i][j].evaluate_float(xf) for j in range(n)] for i in range(n)]
            )
        try:
            np.linalg.cholesky(H)
        except np.linalg.LinAlgError:
            raise PotentialError(
                "Hessian is not positive definite at %r" % (tuple(x),)
            ) from None
        return H

    def hessian_inverse(self, x: Sequence[float]) -> np.ndarray:
        return np.linalg.inv(self.hessian(x))

    def d_hessian(self, x: Sequence[float]) -> list[np.ndarray]:
        """Third derivatives as d/dx_c of the Hessian matrix."""
        ls = self._require_interior(x)
        n = self.polytope.dim
        out = [np.zeros((n, n)) for _ in range(n)]
        if self.canonical:
            for (v, _), l in zip(self._facets, ls):
                vv = np.outer(v, v)
                for c in range(n):
                    out[c] -= 0.5 * vv * v[c] / l**2
        if self.perturbation is not None:
            xf = list(map(float, x))
            for c in range(n):
                out[c] += np.array(
                    [
                        [self._g3[i][j][c].evaluate_float(xf) for j in range(n)]
                        for i in range(n)
                    ]
                )
        return out

    def d2_hessian(self, x: Sequence[float]) -> list[list[np.ndarray]]:
        """Fourth derivatives d/dx_c d/dx_d of the Hessian matrix."""
        ls = self._require_interior(x)
        n = self.polytope.dim
        out = [[np.zeros((n, n)) for _ in range(n)] for _ in range(n)]
        if self.canonical:
            for (v, _), l in zip(self._facets, ls):
                vv = np.outer(v, v)
                for c in range(n):
                    for d in range(n):
                        out[c][d] += vv * v[c] * v[d] / l**3
        if self.perturbation is not None:
            xf = list(map(float, x))
            for c in range(n):
                for d in range(n):
                    out[c][d] += np.array(
                        [
                            [
                                self._g4[i][j][c][d].evaluate_float(xf)
                                for j in range(n)
                            ]
                            for i in range(n)
                        ]
                    )
        return out


class _PerturbedPotential:
    """u + eps * bump, exposing just what the energy evaluation needs."""

    def __init__(self, base, bump, eps: float):
        self.polytope = base.polytope
        self._base = base
        self._bump = bump
        self._eps = eps

    def value(self, x, allow_boundary: bool = False) -> float:
        return self._base.value(x, allow_boundary) + self._eps * self._bump.value(x)

    def hessian(self, x) -> np.ndarray:
        return self._base.hessian(x) + self._eps * np.asarray(self._bump.hessian(x))


def interior_grid(P: RationalPolytope, count: int) -> list[tuple[float, ...]]:
    """Deterministic strictly interior sample points."""
    if P.dim == 1:
        (a,), (b,) = P.vertices[0], P.vertices[-1]
        a, b = float(min(a, b)), float(max(a, b))
        return [
            (a + (b - a) * (i + 1) / (count + 1),) for i in range(count)
        ]
    c = tuple(float(x) for x in P.centroid())
    pts = [c]
    fractions = [0.25, 0.5, 0.75, 0.9]
    i = 0
    while len(pts) < count:
        v = P.vertices[i % len(P.vertices)]
        t = fractions[(i // len(P.vertices)) % len(fractions)]
        pts.append(
            tuple(ci + t * (float(vi) - ci) for ci, vi in zip(c, v))
        )
        i += 1
        if i > 16 * count:
            break
    return pts[:count]


# ---------------------------------------------------------------------------
# scalar curvature operator
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _weight_data(rs: RootSystem):
    p = dh_weight(rs)
    q1 = dh_weight_gradient_sum(rs)
    n = rs.rank
    dp = [p.partial(j) for j in range(n)]
    d2p = [[dp[j].partial(k) for k in range(n)] for j in range(n)]
    return p, q1, dp, d2p


def _divergence_pg(rs: RootSystem, u, x) -> float:
    """sum_{j,k} d_j d_k (p u^{jk}) at x, assembled analytically."""
    p, _, dp, d2p = _weight_data(rs)
    n = rs.rank
    xf = [float(t) for t in x]
    pv = p.evaluate_float(xf)
    dpv = np.array([q.evaluate_float(xf) for q in dp])
    d2pv = np.array([[d2p[j][k].evaluate_float(xf) for k in range(n)] for j in range(n)])
    H = u.hessian(x)
    G = np.linalg.inv(H)
    dH = u.d_hessian(x)
    d2H = u.d2_hessian(x)
    GdH = [G @ dH[c] for c in range(n)]
    dG = [-GdH[c] @ G for c in range(n)]
    total = 0.0
    for j in range(n):
        for k in range(n):
            d2G_jk = -G @ d2H[j][k] @ G - GdH[j] @ dG[k] - GdH[k] @ dG[j]
            total += (
                d2pv[j, k] * G[j, k]
                + dpv[j] * dG[k][j, k]
                + dpv[k] * dG[j][j, k]
                + pv * d2G_jk[j, k]
            )
    return total


def scalar_curvature(
    rs: RootSystem,
    u,
    x,
    divergence_factor: float = SCALAR_DIVERGENCE_FACTOR,
) -> float:
    """S(x) for the metric encoded by u, on the open polytope."""
    _require_match(rs, u.polytope)
    _require_positive_chamber(u.polytope)
    p, q1, _, _ = _weight_data(rs)
    xf = [float(t) for t in x]
    pv = p.evaluate_float(xf)
    f_g = 2.0 * q1.evaluate_float(xf) / pv
    return -divergence_factor * _divergence_pg(rs, u, x) / pv + f_g


def el_residual(rs: RootSystem, u, A, x) -> float:
    """Residual of the critical-point equation: -W^{-1}(W u^{jk})_{jk} - A."""
    p, _, _, _ = _weight_data(rs)
    pv = p.evaluate_float([float(t) for t in x])
    return -_divergence_pg(rs, u, x) / pv - float(A(tuple(float(t) for t in x)))


def make_a_preset(rs: RootSystem, P: RationalPolytope, name: str) -> Callable:
    """Right-hand sides for the critical-point equation.

    'zero' is the constant zero; 'paper' is (a - f_G)/2; 'csc' is
    2 (a - f_G), the choice whose critical points have S identically a under
    the half-divergence convention.
    """
    name = name.lower()
    if name == "zero":
        return lambda x: 0.0
    p, q1, _, _ = _weight_data(rs)
    a = float(average_scalar(rs, P))

    def a_minus_fg(x):
        pv = p.evaluate_float(list(x))
        return a - 2.0 * q1.evaluate_float(list(x)) / pv

    if name == "paper":
        return lambda x: 0.5 * a_minus_fg(x)
    if name == "csc":
        return lambda x: 2.0 * a_minus_fg(x)
    raise ValueError("unknown A preset %r" % (name,))


# ---------------------------------------------------------------------------
# the energy functional
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MabuchiResult:
    value: float
    error: float
    flagged: bool
    terms: dict


def _resolve_a(rs, P, A):
    if A is None:
        return None
    if isinstance(A, str):
        if A.lower() == "zero":
            return None
        return make_a_preset(rs, P, A)
    return A


def mabuchi_eval(
    rs: RootSystem,
    u,
    A=None,
    spec: GradedQuadratureSpec | None = None,
) -> MabuchiResult:
    """Graded-quadrature value of the energy functional F_A(u)."""
    P = u.polytope
    _require_match(rs, P)
    _require_positive_chamber(P)
    if spec is None:
        spec = GradedQuadratureSpec()
    p, _, _, _ = _weight_data(rs)
    A_fn = _resolve_a(rs, P, A)

    def log_det_term(x):
        H = u.hessian(x)
        sign, logdet = np.linalg.slogdet(H)
        if sign <= 0:
            raise PotentialError("Hessian is not positive definite at %r" % (x,))
        return logdet * p.evaluate_float(list(x))

    bulk, bulk_err = graded_integral(log_det_term, P, spec)

    if P.dim == 1:
        vals = [
            u.value(tuple(float(c) for c in P.facet_vertices(i)[0]), allow_boundary=True)
            * p.evaluate_float([float(c) for c in P.facet_vertices(i)[0]])
            for i in range(len(P.facets))
        ]
        boundary, boundary_err = pairwise_sum(vals), 0.0
    else:
        if not P.is_integer:
            raise ValueError("the boundary term needs an integer polytope")
        parts, errs = [], []
        for i in range(len(P.facets)):
            chart = facet_chart(P, i)
            cols, shift = chart.unmap_affine_data()
            fcols = [[float(x) for x in row] for row in cols]
            fshift = [float(x) for x in shift]
            n = P.dim

            def on_facet(y, fcols=fcols, fshift=fshift):
                x = tuple(
                    fshift[r] + sum(fcols[r][c] * y[c] for c in range(n - 1))
                    for r in range(n)
                )
                return u.value(x, allow_boundary=True) * p.evaluate_float(list(x))

            val, err = graded_integral(on_facet, chart.image, spec)
            parts.append(val)
            errs.append(err)
        boundary, boundary_err = pairwise_sum(parts), sum(errs)

    if A_fn is None:
        linear, linear_err = 0.0, 0.0
    else:
        def a_term(x):
            return float(A_fn(x)) * u.value(x, allow_boundary=True) * p.evaluate_float(
                list(x)
            )

        linear, linear_err = graded_integral(a_term, P, spec)

    value = -bulk + 2.0 * boundary - linear
    error = bulk_err + 2.0 * boundary_err + linear_err
    return MabuchiResult(
        value=value,
        error=error,
        flagged=error > spec.tol,
        terms={
            "log_det": -bulk,
            "boundary": 2.0 * boundary,
            "linear": -linear,
        },
    )


# ---------------------------------------------------------------------------
# compactly supported bumps and the variational identity
# ---------------------------------------------------------------------------

class CompactBump:
    """Product quartic bump on an axis box, C^1 and compactly supported.

    Each axis factor is (t - lo)^2 (hi - t)^2 inside [lo, hi], zero outside.
    """

    def __init__(self, box: Sequence[tuple], polytope: RationalPolytope | None = None):
        self.box = [(float(lo), float(hi)) for lo, hi in box]
        if any(lo >= hi for lo, hi in self.box):
            raise ValueError("bump box must have positive extent")
        if polytope is not None:
            from itertools import product

            facets = [
                ([float(a) for a in v], float(c)) for v, c in polytope.facets
            ]
            for corner in product(*self.box):
                vals = [
                    sum(a * t for a, t in zip(v, corner)) - c for v, c in facets
                ]
                if any(val <= 0 for val in vals):
                    raise ValueError(
                        "bump support must sit strictly inside the polytope"
                    )

    def _factors(self, x):
        vals, d1, d2 = [], [], []
        for (lo, hi), t in zip(self.box, x):
            if t <= lo or t >= hi:
                vals.append(0.0)
                d1.append(0.0)
                d2.append(0.0)
                continue
            a, b = t - lo, hi - t
            vals.append(a * a * b * b)
            d1.append(2 * a * b * b - 2 * a * a * b)
            d2.append(2 * b * b - 8 * a * b + 2 * a * a)
        return vals, d1, d2

    def value(self, x) -> float:
        vals, _, _ = self._factors(x)
        return math.prod(vals)

    def gradient(self, x):
        vals, d1, _ = self._factors(x)
        n = len(self.box)
        return [
            d1[i] * math.prod(vals[j] for j in range(n) if j != i) for i in range(n)
        ]

    def hessian(self, x):
        vals, d1, d2 = self._factors(x)
        n = len(self.box)
        H = [[0.0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                if i == j:
                    H[i][i] = d2[i] * math.prod(vals[k] for k in range(n) if k != i)
                else:
                    H[i][j] = (
                        d1[i]
                        * d1[j]
                        * math.prod(vals[k] for k in range(n) if k not in (i, j))
                    )
        return H


class ScaledBump:
    """c * bump, sharing the support."""

    def __init__(self, bump, c: float):
        self._bump = bump
        self._c = float(c)

    def value(self, x):
        return self._c * self._bump.value(x)

    def hessian(self, x):
        H = self._bump.hessian(x)
        return [[self._c * v for v in row] for row in H]


@dataclass(frozen=True)
class VariationReport:
    measured: float
    predicted: float
    relative_discrepancy: float
    advisory: str | None


def variation_check(
    rs: RootSystem,
    u: SymplecticPotential,
    A,
    du,
    eps: float = 1e-4,
    spec: GradedQuadratureSpec | None = None,
) -> VariationReport:
    """Compare the finite-difference derivative of F_A against the gradient.

    du must be supported strictly inside the polytope so all boundary terms
    of the integration by parts vanish.
    """
    P = u.polytope
    if spec is None:
        spec = GradedQuadratureSpec()
    A_fn = _resolve_a(rs, P, A) or (lambda x: 0.0)
    plus = mabuchi_eval(rs, _PerturbedPotential(u, du, +eps), A_fn, spec)
    minus = mabuchi_eval(rs, _PerturbedPotential(u, du, -eps), A_fn, spec)
    measured = (plus.value - minus.value) / (2.0 * eps)

    def integrand(x):
        b = du.value(x)
        if b == 0.0:
            return 0.0
        p, _, _, _ = _weight_data(rs)
        return el_residual(rs, u, A_fn, x) * b * p.evaluate_float(list(x))

    predicted, _ = graded_integral(integrand, P, spec)
    scale = max(abs(predicted), 1e-300)
    advisory = None
    if abs(plus.value - minus.value) < 1e-9 * max(1.0, abs(plus.value)):
        advisory = "finite difference nearly cancels; consider a larger eps"
    return VariationReport(
        measured=measured,
        predicted=predicted,
        relative_discrepancy=abs(measured - predicted) / scale,
        advisory=advisory,
    )
