"""Checkers of the paper's lemmas that only the acceptance criteria and their
unit tests call; the package keeps what the command line and the benchmark
run. ``wk_via_lift`` checks that k R is an integer itself, because the
admissible modulus depends on f and P only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Sequence

import numpy as np

from kstab.futaki import _require_match, admissible_modulus, weighted_count_dk
from kstab.mabuchi import SymplecticPotential, _cholesky, _resolve_a, el_residual, mabuchi_eval
from kstab.polynomial import MultivariatePolynomial, as_fraction
from kstab.polytope import GeometryError, PiecewiseAffine, RationalPolytope, _det
from kstab.polytope import dilated_lattice_points, facet_chart
from kstab.graded import graded_integral_array
from kstab.quadrature import GradedQuadratureSpec
from kstab.rootsystem import RootSystem, dh_weight, dh_weight_gradient_sum, weyl_eval



def lift_polytope(P: RationalPolytope, f: PiecewiseAffine, R) -> RationalPolytope:
    """Closure of the region above P between t = 0 and t = R - f(x).

    Requires f <= R - 1 on the polytope (checked at the vertices, where the
    maximum of a convex function is attained).
    """
    R = as_fraction(R)
    if f.nvars != P.dim:
        raise ValueError("dimension mismatch between polytope and PL function")
    for vtx in P.vertices:
        if f.value(vtx) > R - 1:
            raise GeometryError(
                "headroom violated: f(%s) = %s > R - 1 = %s"
                % (vtx, f.value(vtx), R - 1)
            )
    halfspaces: list = [
        (tuple(v) + (0,), c) for v, c in P.facets
    ]
    halfspaces.append(((0,) * P.dim + (1,), Fraction(0)))  # t >= 0
    for a, b in f.pieces:
        halfspaces.append((tuple(-x for x in a) + (-1,), b - R))
    return RationalPolytope.from_halfspaces(halfspaces)


def wk_via_lift(rs: RootSystem, P: RationalPolytope, f: PiecewiseAffine, R, k: int) -> Fraction:
    """w_k recomputed as a lattice count over the lifted polytope.

    Counts weighted points of the k-dilate of the region between the graph of
    R - f and the base, then removes the base layer. Equality with the direct
    sum needs every weight k(R - f(lambda/k)) to be an integer, so the PL
    gradients must be integer vectors here (scale f if they are not), k must
    be a multiple of the admissible modulus, and k R must be an integer.
    """
    _require_match(rs, P)
    R = as_fraction(R)
    for a, _ in f.pieces:
        if any(x.denominator != 1 for x in a):
            raise ValueError(
                "lift-based weights need integer PL gradients; scale f first"
            )
    m = admissible_modulus(f, P)
    if k % m:
        raise ValueError("k=%d is not a multiple of the admissible modulus %d" % (k, m))
    if (k * R).denominator != 1:
        raise ValueError("k R = %s is not an integer" % (k * R))
    Q = lift_polytope(P, f, R)
    n = P.dim
    total = 0
    for mu in dilated_lattice_points(Q, k):
        total += weyl_eval(rs, mu[:n])
    return Fraction(total, rs.denom) - weighted_count_dk(rs, P, k)



def is_integer(P: RationalPolytope) -> bool:
    """Whether P's vertices and facet offsets are all integers."""
    return all(x.denominator == 1 for p in P.vertices for x in p) and all(
        c.denominator == 1 for _, c in P.facets
    )


def facet_measure(P: RationalPolytope, facet_index: int) -> Fraction:
    """Total canonical boundary measure of a facet (exact)."""
    if P.dim == 1:
        return Fraction(1)
    return facet_chart(P, facet_index).image.volume()


def facet_lattice_count(P: RationalPolytope, facet_index: int, k: int) -> int:
    """Number of points of the closed facet meeting (1/k) Z^n.

    Enumerates integer solutions of <v_F, x> = k c_F directly over the
    facet's bounding box, pivoting on one coordinate of the normal.
    """
    if not is_integer(P):
        raise GeometryError("facet lattice counts need an integer polytope")
    if k < 1:
        raise ValueError("dilation factor must be >= 1")
    n = P.dim
    v, c = P.facets[facet_index]
    fverts = P.facet_vertices(facet_index)
    if n == 1:
        return 1  # a facet is a single integer point
    fbox = [
        (
            math.ceil(min(p[i] for p in fverts) * k),
            math.floor(max(p[i] for p in fverts) * k),
        )
        for i in range(n)
    ]
    # Solve for the coordinate whose range is widest; the walk covers the rest.
    pivot = max(
        (i for i in range(n) if v[i] != 0),
        key=lambda i: fbox[i][1] - fbox[i][0],
    )
    rest = [i for i in range(n) if i != pivot]
    box = [fbox[i] for i in rest]
    target = int(c) * k
    others = [(w, int(d) * k) for w, d in P.facets]
    count = 0

    def rec(idx: int, partial: list[int]) -> None:
        nonlocal count
        if idx == len(rest):
            s = target - sum(v[i] * t for i, t in zip(rest, partial))
            if s % v[pivot]:
                return
            z = s // v[pivot]
            pt = [0] * n
            for i, t in zip(rest, partial):
                pt[i] = t
            pt[pivot] = z
            if all(sum(a * b for a, b in zip(w, pt)) >= d for w, d in others):
                count += 1
            return
        for t in range(box[idx][0], box[idx][1] + 1):
            rec(idx + 1, partial + [t])

    rec(0, [])
    return count


def transform(P: RationalPolytope, g: Sequence[Sequence[int]]) -> RationalPolytope:
    """Image of P under a unimodular integer matrix."""
    rows = [[int(x) for x in row] for row in g]
    if abs(_det(rows)) != 1:
        raise GeometryError("transform matrix is not unimodular")
    return RationalPolytope.from_vertices(
        [
            tuple(sum(Fraction(a) * b for a, b in zip(row, p)) for row in rows)
            for p in P.vertices
        ]
    )



class _PerturbedPotential:
    """u + eps * bump, exposing just what the energy evaluation needs."""

    def __init__(self, base, bump, eps: float):
        self.polytope = base.polytope
        self._base = base
        self._bump = bump
        self._eps = eps

    def value(self, x, allow_boundary: bool = False):
        return self._base.value(x, allow_boundary) + self._eps * self._bump.value(x)

    def factored_hessian(self, x) -> tuple[np.ndarray, np.ndarray]:
        H = self._base.hessian(x) + self._eps * np.asarray(self._bump.hessian(x))
        return H, _cholesky(H, x)


class CompactBump:
    """Product quartic bump on an axis box, C^1 and compactly supported.

    Each axis factor is (t - lo)^2 (hi - t)^2 inside [lo, hi], zero outside.
    Takes one point or an (m, n) array, like SymplecticPotential.
    """

    def __init__(self, box: Sequence[tuple], polytope: RationalPolytope | None = None):
        self.box = [(float(lo), float(hi)) for lo, hi in box]
        if any(lo >= hi for lo, hi in self.box):
            raise ValueError("bump box must have positive extent")
        if polytope is not None:
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
        self._lo = np.array([lo for lo, _ in self.box])
        self._hi = np.array([hi for _, hi in self.box])

    def _factors(self, x):
        """Axis factors and their first two derivatives, each (..., n)."""
        x = np.asarray(x, dtype=float)
        inside = (x > self._lo) & (x < self._hi)
        a, b = x - self._lo, self._hi - x
        return (
            np.where(inside, a * a * b * b, 0.0),
            np.where(inside, 2 * a * b * b - 2 * a * a * b, 0.0),
            np.where(inside, 2 * b * b - 8 * a * b + 2 * a * a, 0.0),
        )

    def _others(self, vals, *skip):
        """Product of the axis factors outside ``skip``."""
        keep = [k for k in range(len(self.box)) if k not in skip]
        return vals[..., keep].prod(axis=-1)

    def value(self, x):
        vals, _, _ = self._factors(x)
        return vals.prod(axis=-1)

    def gradient(self, x) -> np.ndarray:
        vals, d1, _ = self._factors(x)
        return np.stack(
            [d1[..., i] * self._others(vals, i) for i in range(len(self.box))], axis=-1
        )

    def hessian(self, x) -> np.ndarray:
        vals, d1, d2 = self._factors(x)
        n = len(self.box)
        H = np.empty(vals.shape[:-1] + (n, n))
        for i in range(n):
            for j in range(n):
                if i == j:
                    H[..., i, i] = d2[..., i] * self._others(vals, i)
                else:
                    H[..., i, j] = d1[..., i] * d1[..., j] * self._others(vals, i, j)
        return H


class ScaledBump:
    """c * bump, sharing the support."""

    def __init__(self, bump, c: float):
        self._bump = bump
        self._c = float(c)

    def value(self, x):
        return self._c * self._bump.value(x)

    def hessian(self, x) -> np.ndarray:
        return self._c * np.asarray(self._bump.hessian(x))


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
    A_fn = _resolve_a(rs, P, A)
    plus = mabuchi_eval(rs, _PerturbedPotential(u, du, +eps), A_fn, spec)
    minus = mabuchi_eval(rs, _PerturbedPotential(u, du, -eps), A_fn, spec)
    measured = (plus.value - minus.value) / (2.0 * eps)

    p = dh_weight(rs)

    def integrand(x):
        b = du.value(x)
        out = np.zeros(len(x))
        inside = b != 0.0
        if inside.any():
            x = x[inside]
            out[inside] = el_residual(rs, u, A_fn, x) * b[inside] * p.evaluate_float(x)
        return out

    predicted, _ = graded_integral_array(integrand, P, spec)
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



def weyl_polynomial(rs: RootSystem) -> MultivariatePolynomial:
    """q(l) = prod_a (|M^a| + l . M^a), degree N with positive coefficients."""
    q = MultivariatePolynomial.constant(rs.rank, 1)
    for m in rs.positive_roots:
        q = q * MultivariatePolynomial.affine([Fraction(x) for x in m], sum(m))
    return q


def homogeneous_part(p: MultivariatePolynomial, d: int) -> MultivariatePolynomial:
    """The terms of p of total degree d."""
    return MultivariatePolynomial(p.nvars, {e: c for e, c in p.terms.items() if sum(e) == d})


def homogeneous_parts(
    q: MultivariatePolynomial, N: int
) -> tuple[MultivariatePolynomial, MultivariatePolynomial, MultivariatePolynomial]:
    """Split q into (q_N, q_{N-1}, remainder of degree <= N-2)."""
    if q.degree() != N:
        raise ValueError("polynomial degree %d does not match N=%d" % (q.degree(), N))
    qN = homogeneous_part(q, N)
    qN1 = homogeneous_part(q, N - 1) if N >= 1 else MultivariatePolynomial(q.nvars)
    return qN, qN1, q - qN - qN1


def f_g_fraction(rs: RootSystem) -> tuple[MultivariatePolynomial, MultivariatePolynomial]:
    """The fibration correction f_G = 2 sum_j d_j log p as (numerator, p)."""
    return 2 * dh_weight_gradient_sum(rs), dh_weight(rs)
