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

Potentials, bumps, scalar_curvature and el_residual take one point or an
(m, n) array of points, through one code path that broadcasts over the
leading axes: a potential builds its facet tensors v_F v_F^T, v_F^(x3) and
v_F^(x4) once, its derivatives are einsum contractions against 1/l_F^k, and
the positive-definiteness check is one stacked Cholesky factorization, whose
diagonal also gives log det for the energy. mabuchi_eval evaluates its three
integrands on whole chunks of the flattened graded rule.

A, the right-hand side of the critical-point equation, is None, a preset
name (make_a_preset) or a callable. A callable receives an (m, n) array of
nodes, or one point of shape (n,) from el_residual, and returns m values
(one per node) or a scalar; any other shape raises ValueError. Coordinates
are the last axis: write x[..., 0], not x[0].
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement, permutations, product
from typing import Callable, Sequence

import numpy as np

from .polynomial import MultivariatePolynomial
from .polytope import RationalPolytope, facet_chart
from .quadrature import (
    GradedQuadratureSpec,
    _float_chart,
    _unmap,
    graded_integral_array,
    pairwise_sum,
)
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


def _partials(g: MultivariatePolynomial, order: int) -> list:
    """g's nonzero partial derivatives of one order, one per multiset of
    variables, each with the index tuples it fills."""
    table = []
    for combo in combinations_with_replacement(range(g.nvars), order):
        q = g
        for i in combo:
            q = q.partial(i)
        if not q.is_zero:
            table.append((q, sorted(set(permutations(combo)))))
    return table


def _evaluate_partials(table: list, x: np.ndarray, order: int) -> np.ndarray:
    """The derivative tensor of a _partials table at x, shape x.shape[:-1] + (n,)*order."""
    out = np.zeros(x.shape[:-1] + (x.shape[-1],) * order)
    for q, slots in table:
        value = q.evaluate_float(x)
        for s in slots:
            out[(Ellipsis,) + s] = value
    return out[()]


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
        # facet normals v_F and offsets, and the tensors v v^T, v^(x3), v^(x4)
        try:
            V = np.array([[float(a) for a in v] for v, _ in polytope.facets])
            self._offsets = np.array([float(c) for _, c in polytope.facets])
        except OverflowError:
            raise PotentialError("polytope: a facet normal or offset overflows a float") from None
        self._V = V
        self._VV = np.einsum("fi,fj->fij", V, V)
        self._VVV = np.einsum("fc,fij->fcij", V, self._VV)
        self._VVVV = np.einsum("fd,fcij->fcdij", V, self._VVV)
        g = perturbation or MultivariatePolynomial.zero(polytope.dim)
        self._g = [_partials(g, order) for order in range(5)]
        self.hessian(np.array(interior_grid(polytope, 9)))  # raises when not PD

    def _l_values(self, x, allow_boundary: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """x as floats and l_F(x) (..., F); DomainError names the first point outside."""
        x = np.asarray(x, dtype=float)
        ls = np.einsum("...i,fi->...f", x, self._V) - self._offsets
        outside = (ls < 0 if allow_boundary else ls <= 0).any(axis=-1)
        if outside.any():
            first = x.reshape(-1, x.shape[-1])[outside.reshape(-1).argmax()]
            raise DomainError(
                "point %r is outside the %s polytope"
                % (tuple(first.tolist()), "closed" if allow_boundary else "open")
            )
        return x, ls

    def value(self, x, allow_boundary: bool = False):
        x, ls = self._l_values(x, allow_boundary)
        total = _evaluate_partials(self._g[0], x, 0)
        if self.canonical:  # l log l -> 0 on the boundary
            total = 0.5 * (ls * np.log(np.where(ls > 0, ls, 1.0))).sum(axis=-1) + total
        return total

    def gradient(self, x) -> np.ndarray:
        x, ls = self._l_values(x)
        out = _evaluate_partials(self._g[1], x, 1)
        if self.canonical:
            out = np.einsum("...f,fi->...i", 0.5 * (np.log(ls) + 1.0), self._V) + out
        return out

    def hessian(self, x) -> np.ndarray:
        x, ls = self._l_values(x)
        H = _evaluate_partials(self._g[2], x, 2)
        if self.canonical:
            H = np.einsum("...f,fij->...ij", 0.5 / ls, self._VV) + H
        _cholesky(H, x)
        return H

    def d_hessian(self, x) -> np.ndarray:
        """Third derivatives: [..., c, i, j] is d/dx_c of the Hessian entry (i, j)."""
        x, ls = self._l_values(x)
        out = _evaluate_partials(self._g[3], x, 3)
        if self.canonical:
            out = np.einsum("...f,fcij->...cij", -0.5 / ls**2, self._VVV) + out
        return out

    def d2_hessian(self, x) -> np.ndarray:
        """Fourth derivatives: [..., c, d, i, j] is d/dx_c d/dx_d of the Hessian entry (i, j)."""
        x, ls = self._l_values(x)
        out = _evaluate_partials(self._g[4], x, 4)
        if self.canonical:
            out = np.einsum("...f,fcdij->...cdij", 1.0 / ls**3, self._VVVV) + out
        return out


class _PerturbedPotential:
    """u + eps * bump, exposing just what the energy evaluation needs."""

    def __init__(self, base, bump, eps: float):
        self.polytope = base.polytope
        self._base = base
        self._bump = bump
        self._eps = eps

    def value(self, x, allow_boundary: bool = False):
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
    return p, dh_weight_gradient_sum(rs), _partials(p, 1), _partials(p, 2)


def _divergence_pg(rs: RootSystem, u, x: np.ndarray, pv) -> np.ndarray:
    """sum_{j,k} d_j d_k (p u^{jk}) at x, assembled analytically; pv = p(x)."""
    _, _, dp_table, d2p_table = _weight_data(rs)
    dp = _evaluate_partials(dp_table, x, 1)
    d2p = _evaluate_partials(d2p_table, x, 2)
    G = np.linalg.inv(u.hessian(x))
    GdH = G[..., None, :, :] @ u.d_hessian(x)  # G dH_c
    dG = -GdH @ G[..., None, :, :]  # d_c G = -G dH_c G
    # (d_j d_k G)_{jk}, with d_j d_k G = -G d2H_jk G - G dH_j d_k G - G dH_k d_j G
    d2G = (
        -np.einsum("...ja,...jkab,...bk->...jk", G, u.d2_hessian(x), G)
        - np.einsum("...jja,...kak->...jk", GdH, dG)
        - np.einsum("...kja,...jak->...jk", GdH, dG)
    )
    terms = (
        d2p * G
        + dp[..., :, None] * np.einsum("...kjk->...jk", dG)
        + dp[..., None, :] * np.einsum("...jjk->...jk", dG)
        + pv[..., None, None] * d2G
    )
    return terms.sum(axis=(-2, -1))


def scalar_curvature(rs: RootSystem, u, x):
    """S(x) for the metric encoded by u, at a point or every row of an (m, n) array."""
    _require_match(rs, u.polytope)
    _require_positive_chamber(u.polytope)
    p, q1, _, _ = _weight_data(rs)
    x = np.asarray(x, dtype=float)
    pv = p.evaluate_float(x)
    f_g = 2.0 * q1.evaluate_float(x) / pv
    return -SCALAR_DIVERGENCE_FACTOR * _divergence_pg(rs, u, x, pv) / pv + f_g


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
    p = _weight_data(rs)[0]
    x = np.asarray(x, dtype=float)
    pv = p.evaluate_float(x)
    return -_divergence_pg(rs, u, x, pv) / pv - _a_values(A, x)


def make_a_preset(rs: RootSystem, P: RationalPolytope, name: str) -> Callable:
    """Right-hand sides for the critical-point equation, written over arrays.

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

    if P.dim == 1:
        ends = [np.array([float(c) for c in P.facet_vertices(i)[0]]) for i in range(len(P.facets))]
        vals = [u.value(x, allow_boundary=True) * p.evaluate_float(x) for x in ends]
        boundary, boundary_err = pairwise_sum(vals), 0.0
    else:
        if not P.is_integer:
            raise ValueError("the boundary term needs an integer polytope")
        parts, errs = [], []
        for i in range(len(P.facets)):
            chart = facet_chart(P, i)
            cols, shift = _float_chart(chart)

            def on_facet(y, cols=cols, shift=shift):
                x = _unmap(y, cols, shift)
                return u.value(x, allow_boundary=True) * p.evaluate_float(x)

            val, err = graded_integral_array(on_facet, chart.image, spec)
            parts.append(val)
            errs.append(err)
        boundary, boundary_err = pairwise_sum(parts), sum(errs)

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


# ---------------------------------------------------------------------------
# compactly supported bumps and the variational identity
# ---------------------------------------------------------------------------

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
    A_fn = _resolve_a(rs, P, A) or (lambda x: 0.0)
    plus = mabuchi_eval(rs, _PerturbedPotential(u, du, +eps), A_fn, spec)
    minus = mabuchi_eval(rs, _PerturbedPotential(u, du, -eps), A_fn, spec)
    measured = (plus.value - minus.value) / (2.0 * eps)

    p = _weight_data(rs)[0]

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
