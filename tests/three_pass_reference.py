"""Scalar curvature the long way: each derivative computes and checks l_F(x) itself.

ThreePassPotential keeps the route kstab.mabuchi took before S was evaluated
in one facet pass: hessian, d_hessian and d2_hessian each call _l_values,
whose domain check is an elementwise ``l > 0`` and ``all``; each writes
w_k(l) over the array it computed; and every nonvanishing order of the
perturbation, constant or not, goes through a power product. divergence_pg,
scalar_curvature and el_residual call the three methods on x alone. The fast
route must give the same bits, and the same DomainError text.
"""
import numpy as np

from kstab.futaki import _require_match, _require_positive_chamber
from kstab.graded import evaluate_table, float_table
from kstab.mabuchi import DomainError, SymplecticPotential, _a_values, _cholesky, _partials, _weight_data
from kstab.polynomial import MultivariatePolynomial
from kstab.rootsystem import SCALAR_DIVERGENCE_FACTOR


class ThreePassPotential(SymplecticPotential):
    def __init__(self, polytope, perturbation=None, canonical=True):
        g = perturbation or MultivariatePolynomial(polytope.dim)
        tables = [float_table(_partials(g, order)) for order in range(5)]
        self._tables = [t if len(t[0]) else None for t in tables]
        super().__init__(polytope, perturbation, canonical)

    def _l_values(self, x, allow_boundary=False):
        x = np.asarray(x, dtype=float)
        with np.errstate(invalid="ignore", over="ignore"):
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

    def _derivative(self, x, order, w):
        T = self._facet_tensors[order]
        out = np.einsum("...f,fk->...k", w, T) if order % 2 else w @ T
        if self._tables[order] is not None:
            out += evaluate_table(self._tables[order], x)
        return out.reshape(x.shape[:-1] + x.shape[-1:] * order)[()]

    def hessian(self, x):
        x, ls = self._l_values(x)
        H = self._derivative(x, 2, np.reciprocal(ls, out=ls))
        _cholesky(H, x)
        return H

    def d_hessian(self, x):
        x, ls = self._l_values(x)
        return self._derivative(x, 3, np.power(ls, -2, out=ls))

    def d2_hessian(self, x):
        x, ls = self._l_values(x)
        return self._derivative(x, 4, np.power(ls, -3, out=ls))


def divergence_pg(rs, u, x):
    """p(x), q_{N-1}(x) and sum_{j,k} d_j d_k (p u^{jk}), as kstab.mabuchi._divergence_pg."""
    G = np.linalg.inv(u.hessian(x))
    x = np.asarray(x, dtype=float)
    n, batch = x.shape[-1], x.shape[:-1]
    T = u.d_hessian(x).reshape(batch + (n, n * n))
    D = u.d2_hessian(x).reshape(batch + (n * n, n * n))
    jet = evaluate_table(_weight_data(rs)[2], x)
    pv, q1v, dp, d2p = jet[..., 0], jet[..., 1], jet[..., 2 : 2 + n], jet[..., 2 + n :]
    g = G.reshape(batch + (n * n,))
    GG = (G[..., :, None, :, None] * G[..., None, :, None, :]).reshape(D.shape)
    t = (g[..., None, :] @ T.reshape(batch + (n * n, n)))[..., 0, :]
    Gt = (G @ t[..., None])[..., 0]
    u3 = (T @ GG @ T.swapaxes(-1, -2)).reshape(g.shape)
    u4 = (D @ g[..., None])[..., 0]
    div = ((d2p + pv[..., None] * (u3 - u4)) * g).sum(axis=-1) - (
        (2.0 * dp - pv[..., None] * t) * Gt
    ).sum(axis=-1)
    return pv, q1v, div


def scalar_curvature(rs, u, x):
    _require_match(rs, u.polytope)
    _require_positive_chamber(u.polytope)
    pv, q1v, div = divergence_pg(rs, u, x)
    return (2.0 * q1v - SCALAR_DIVERGENCE_FACTOR * div) / pv


def el_residual(rs, u, A, x):
    pv, _, div = divergence_pg(rs, u, x)
    return -div / pv - _a_values(A, np.asarray(x, dtype=float))
