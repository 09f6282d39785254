"""Symplectic potentials, scalar curvature and the Mabuchi energy.

A potential is the canonical boundary-log part

    u_sigma(x) = 1/2 sum_F l_F(x) log l_F(x)

plus an optional polynomial perturbation; that sum keeps membership in the
right function space automatic and all Hessian derivatives closed-form. The
scalar curvature operator is assembled analytically,

    S(x) = -1/2 p^{-1} (p u^{jk})_{jk} + f_G,

with the derivatives of the inverse Hessian G = (u_jk)^{-1} contracted
analytically through dG = -G (dH) G rather than taken by finite differences:
near the boundary the Hessian degenerates and naive differencing falls
apart. The second derivatives of G never appear as a tensor; see
_divergence_pg. The Mabuchi energy

    F_A(u) = -int_P log det(u_jk) W dmu + 2 int_bd u W dsigma - int_P A u W dmu

is evaluated with the boundary-graded quadrature: graded_integral_array for
the two bulk terms and graded_boundary_integral for the boundary term, so
no facet is charted here. el_residual is the integrand of its first
variation, dF_A = int (-W^{-1}(W u^{jk})_{jk} - A) du W dmu for compactly
supported du.

Potentials, scalar_curvature and el_residual take one point or an
(m, n) array of points, through one code path that broadcasts over the
leading axes. A potential builds its derivative tables once: for each order
k <= 4, the perturbation's partial derivatives are one float exponent
matrix and one coefficient matrix (one power product and one matmul
evaluate them all), and the canonical part is w_k(l) @ c_k v_F^(xk) with the
facet tensors flattened to (F, n^k). The weight p, q_{N-1}, dp and d2p come
from one such table. The positive-definiteness check is one stacked
Cholesky factorization, whose diagonal also gives log det for the energy.
mabuchi_eval evaluates its three integrands on whole chunks of the
flattened graded rule.

A, the right-hand side of the critical-point equation, is None, a preset
name (make_a_preset) or a callable. A callable receives an (m, n) array of
nodes, or one point of shape (n,) from el_residual, and returns m values
(one per node) or a scalar; any other shape raises ValueError. Coordinates
are the last axis: write x[..., 0], not x[0].
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement, product
from typing import Callable

import numpy as np

from .graded import evaluate_table, float_table, graded_boundary_integral, graded_integral_array
from .polynomial import MultivariatePolynomial
from .polytope import RationalPolytope
from .quadrature import GradedQuadratureSpec
from .rootsystem import (
    SCALAR_DIVERGENCE_FACTOR,
    RootSystem,
    dh_weight,
    dh_weight_gradient_sum,
)
from .futaki import average_scalar, _require_match, _require_positive_chamber


class PotentialError(ValueError):
    """Invalid symplectic potential (non-PD Hessian or bad domain)."""


class DomainError(ValueError):
    """Evaluation requested outside the open polytope."""


def _partials(g: MultivariatePolynomial, order: int) -> list[MultivariatePolynomial]:
    """g's partial derivatives of one order, in C order over the index tuples (n,)*order."""
    by_multiset = {}
    for combo in combinations_with_replacement(range(g.nvars), order):
        q = g
        for i in combo:
            q = q.partial(i)
        by_multiset[combo] = q
    return [by_multiset[tuple(sorted(c))] for c in product(range(g.nvars), repeat=order)]


def _cholesky(H: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Stacked Cholesky factors; PotentialError names the first point where H is not PD."""
    try:
        return np.linalg.cholesky(H)
    except np.linalg.LinAlgError:
        n = H.shape[-1]
        for h, pt in zip(H.reshape(-1, n, n), x.reshape(-1, n)):
            try:
                np.linalg.cholesky(h)
            except np.linalg.LinAlgError:
                raise PotentialError(
                    "Hessian is not positive definite at %r" % (tuple(pt.tolist()),)
                ) from None
        raise


class SymplecticPotential:
    """u = u_sigma + polynomial perturbation on a fixed moment polytope.

    Every method takes one point or an (m, n) array of points, and returns
    one value (matrix, tensor) or a stack of m of them. The Hessian is
    checked for positive definiteness on an interior probe grid at
    construction; a violation raises PotentialError.
    """

    def __init__(
        self,
        polytope: RationalPolytope,
        perturbation: MultivariatePolynomial | None = None,
        canonical: bool = True,
    ):
        if perturbation is not None and perturbation.nvars != polytope.dim:
            raise PotentialError("perturbation variable count != polytope dimension")
        self.polytope = polytope
        self.canonical = canonical
        self.perturbation = perturbation
        try:
            V = np.array([[float(a) for a in v] for v, _ in polytope.facets])
            self._offsets = np.array([float(c) for _, c in polytope.facets])
            reach = np.abs([[float(a) for a in v] for v in polytope.vertices]).max(axis=0)
        except OverflowError:
            raise PotentialError("polytope: a facet normal or offset overflows a float") from None
        self._Vt = V.T
        # A rule node on a facet is a float combination of at most n + 1
        # rounded points of P, so its l_F may come out a few ulps below 0.
        # The closed polytope admits l_F >= -4 (n+1)^2 eps (|v_F| . r + |b_F|),
        # r the largest |coordinate| of a vertex per axis.
        n = polytope.dim
        eps = np.finfo(float).eps
        self._slack = 4 * (n + 1) ** 2 * eps * (np.abs(V) @ reach + np.abs(self._offsets))
        # u_sigma's k-th derivative is w_k(l) @ c_k v_F^(xk), with v_F^(xk)
        # flattened to (F, n^k), w_k = l log l, log l + 1, 1/l, 1/l^2, 1/l^3
        # and c_k = 1/2, 1/2, 1/2, -1/2, 1 (all 0 when not canonical)
        powers = [np.ones((len(V), 1))]
        for _ in range(4):
            powers.append((powers[-1][:, :, None] * V[:, None, :]).reshape(len(V), -1))
        scales = (0.5, 0.5, 0.5, -0.5, 1.0) if canonical else (0.0,) * 5
        self._facet_tensors = [c * a for c, a in zip(scales, powers)]
        # the perturbation's k-th partials as one table, None when all vanish
        g = perturbation or MultivariatePolynomial(polytope.dim)
        tables = [float_table(_partials(g, order)) for order in range(5)]
        self._g = [t if len(t[0]) else None for t in tables]
        self.hessian(np.array(interior_grid(polytope, 9)))  # raises when not PD

    def _l_values(self, x, allow_boundary: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """x as floats and l_F(x) (..., F); DomainError names the first point
        where l_F > 0 fails, NaN included. With allow_boundary, l_F >= 0 is
        required only up to the rounding slack of a node on a facet, and an
        l_F within it below 0 is set to 0."""
        x = np.asarray(x, dtype=float)
        with np.errstate(invalid="ignore", over="ignore"):  # a non-finite l fails below
            ls = x @ self._Vt - self._offsets
        if allow_boundary:
            inside = ls >= -self._slack
            ls[ls < 0] = 0.0
        else:
            inside = ls > 0
        if not inside.all():
            first = x.reshape(-1, x.shape[-1])[inside.all(axis=-1).reshape(-1).argmin()]
            raise DomainError(
                "point %r is outside the %s polytope"
                % (tuple(first.tolist()), "closed" if allow_boundary else "open")
            )
        return x, ls

    def _derivative(self, x: np.ndarray, order: int, w: np.ndarray) -> np.ndarray:
        """The order-th derivative tensor at x, from w = w_order(l) (..., F):
        the canonical part w @ c v_F^(x order) plus the perturbation's table.

        Odd orders cancel to 0 at a centre of symmetry. For them einsum adds
        the rounded facet terms in facet order, as the per-facet sums do, so
        the 0 stays exact; a BLAS matmul's fused multiply-adds leave ~1e-16.
        """
        T = self._facet_tensors[order]
        out = np.einsum("...f,fk->...k", w, T) if order % 2 else w @ T
        if self._g[order] is not None:
            out += evaluate_table(self._g[order], x)
        return out.reshape(x.shape[:-1] + x.shape[-1:] * order)[()]

    # The methods below overwrite the fresh array l with w_k(l), so that only
    # one (..., F) array is alive per chunk of nodes.

    def value(self, x, allow_boundary: bool = False):
        x, ls = self._l_values(x, allow_boundary)
        ls *= np.log(np.where(ls > 0, ls, 1.0))  # l log l -> 0 on the boundary
        return self._derivative(x, 0, ls)

    def gradient(self, x) -> np.ndarray:
        x, ls = self._l_values(x)
        np.log(ls, out=ls)
        ls += 1.0
        return self._derivative(x, 1, ls)

    def hessian(self, x) -> np.ndarray:
        x, ls = self._l_values(x)
        H = self._derivative(x, 2, np.reciprocal(ls, out=ls))
        _cholesky(H, x)
        return H

    def d_hessian(self, x) -> np.ndarray:
        """Third derivatives: [..., c, i, j] is d/dx_c of the Hessian entry (i, j)."""
        x, ls = self._l_values(x)
        return self._derivative(x, 3, np.power(ls, -2, out=ls))

    def d2_hessian(self, x) -> np.ndarray:
        """Fourth derivatives: [..., c, d, i, j] is d/dx_c d/dx_d of the Hessian entry (i, j)."""
        x, ls = self._l_values(x)
        return self._derivative(x, 4, np.power(ls, -3, out=ls))


def interior_grid(P: RationalPolytope, count: int) -> list[tuple[float, ...]]:
    """``count`` distinct, strictly interior sample points, deterministically.

    In dimension one they are evenly spaced. Otherwise they are the centroid
    c, then c + t (v - c) for every vertex v and t = 1/4, 1/2, 3/4, 9/10, then
    t = 1/8, 3/8, 5/8, 7/8, 1/16, ...: the odd multiples of 2^-m, m >= 3.
    Each t < 1 occurs once, and no two vertices share a ray from c.
    """
    if P.dim == 1:
        (a,), (b,) = P.vertices[0], P.vertices[-1]
        a, b = float(min(a, b)), float(max(a, b))
        return [
            (a + (b - a) * (i + 1) / (count + 1),) for i in range(count)
        ]
    c = tuple(float(x) for x in P.centroid())
    pts = [c]
    fractions = [0.25, 0.5, 0.75, 0.9]
    m = 3
    while len(pts) < count:
        for t in fractions:
            pts += [tuple(ci + t * (float(vi) - ci) for ci, vi in zip(c, v)) for v in P.vertices]
        fractions = [j / 2**m for j in range(1, 2**m, 2)]
        m += 1
    return pts[:count]


# ---------------------------------------------------------------------------
# scalar curvature operator
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _weight_data(rs: RootSystem):
    """p, q_{N-1}, and one table whose columns are p, q_{N-1}, dp and d2p (C order)."""
    p, q1 = dh_weight(rs), dh_weight_gradient_sum(rs)
    return p, q1, float_table([p, q1] + _partials(p, 1) + _partials(p, 2))


def _divergence_pg(rs: RootSystem, u, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """p(x), q_{N-1}(x) and sum_{j,k} d_j d_k (p u^{jk}) at x, assembled analytically.

    With G = (u_jk)^{-1}, d_c G = -G (d_c u_jk) G and the third and fourth
    derivatives u_(3), u_(4) of u, both fully symmetric, the sum is

        <d2p, G> - <2 dp - p t, G t> + p (|u_(3)|_G^2 - <G (x) G, u_(4)>)

    with t_j = sum_{c,i} G_ci u_cij and |u_(3)|_G^2 the contraction of u_(3)
    with itself through G on all three index pairs; no second derivative of
    G is formed. The Hessian comes first, so a point outside the open
    polytope raises DomainError before p is evaluated.
    """
    G = np.linalg.inv(u.hessian(x))
    x = np.asarray(x, dtype=float)
    n, batch = x.shape[-1], x.shape[:-1]
    T = u.d_hessian(x).reshape(batch + (n, n * n))  # u_cij as [c, (i j)]
    D = u.d2_hessian(x).reshape(batch + (n * n, n * n))  # u_cdij as [(c d), (i j)]
    jet = evaluate_table(_weight_data(rs)[2], x)
    pv, q1v, dp, d2p = jet[..., 0], jet[..., 1], jet[..., 2 : 2 + n], jet[..., 2 + n :]
    g = G.reshape(batch + (n * n,))
    GG = (G[..., :, None, :, None] * G[..., None, :, None, :]).reshape(D.shape)  # G_ci G_dj
    t = (g[..., None, :] @ T.reshape(batch + (n * n, n)))[..., 0, :]  # sum_{c,i} G_ci u_cij
    Gt = (G @ t[..., None])[..., 0]
    # <g, T GG T^T> is |u_(3)|_G^2, and <g, D g> = <G (x) G, u_(4)> by symmetry
    u3 = (T @ GG @ T.swapaxes(-1, -2)).reshape(g.shape)
    u4 = (D @ g[..., None])[..., 0]
    div = ((d2p + pv[..., None] * (u3 - u4)) * g).sum(axis=-1) - (
        (2.0 * dp - pv[..., None] * t) * Gt
    ).sum(axis=-1)
    return pv, q1v, div


def scalar_curvature(rs: RootSystem, u, x):
    """S(x) for the metric encoded by u, at a point or every row of an (m, n) array."""
    _require_match(rs, u.polytope)
    _require_positive_chamber(u.polytope)
    pv, q1v, div = _divergence_pg(rs, u, x)
    return (2.0 * q1v - SCALAR_DIVERGENCE_FACTOR * div) / pv


def _a_values(A: Callable, x: np.ndarray):
    """A at the nodes x: one value per node, or one scalar for all of them."""
    a = np.asarray(A(x), dtype=float)
    if a.shape not in ((), x.shape[:-1]):
        raise ValueError(
            "A returned shape %s at nodes of shape %s; it must return one value"
            " per node or a scalar" % (a.shape, x.shape)
        )
    return a


def el_residual(rs: RootSystem, u, A, x):
    """Residual of the critical-point equation: -W^{-1}(W u^{jk})_{jk} - A."""
    pv, _, div = _divergence_pg(rs, u, x)
    return -div / pv - _a_values(A, np.asarray(x, dtype=float))


def make_a_preset(rs: RootSystem, P: RationalPolytope, name: str) -> Callable:
    """Right-hand sides for the critical-point equation, written over arrays.

    'zero' is the constant zero; 'paper' is (a - f_G)/2; 'csc' is
    2 (a - f_G), the choice whose critical points have S identically a under
    the half-divergence convention.
    """
    name = name.lower()
    if name == "zero":
        return lambda x: 0.0
    p, q1, _ = _weight_data(rs)
    a = float(average_scalar(rs, P))

    def a_minus_fg(x):
        return a - 2.0 * q1.evaluate_float(x) / p.evaluate_float(x)

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
    """Graded-quadrature value of the energy functional F_A(u).

    A is None, a preset name (see make_a_preset) or a callable that takes an
    (m, n) array of nodes and returns m values or one scalar.
    """
    P = u.polytope
    _require_match(rs, P)
    _require_positive_chamber(P)
    if spec is None:
        spec = GradedQuadratureSpec()
    p = _weight_data(rs)[0]
    A_fn = _resolve_a(rs, P, A)

    def log_det_term(x):
        L = _cholesky(u.hessian(x), x)
        return 2.0 * np.log(np.diagonal(L, axis1=-2, axis2=-1)).sum(axis=-1) * p.evaluate_float(x)

    bulk, bulk_err = graded_integral_array(log_det_term, P, spec)
    boundary, boundary_err = graded_boundary_integral(
        lambda x: u.value(x, allow_boundary=True) * p.evaluate_float(x), P, spec
    )

    if A_fn is None:
        linear, linear_err = 0.0, 0.0
    else:
        def a_term(x):
            return _a_values(A_fn, x) * u.value(x, allow_boundary=True) * p.evaluate_float(x)

        linear, linear_err = graded_integral_array(a_term, P, spec)

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
