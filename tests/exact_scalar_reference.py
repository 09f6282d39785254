"""The scalar curvature S(x) in exact rational arithmetic, with no numpy.

At a rational interior point x (a float point enters through Fraction(t),
exactly), u = 1/2 sum_F l_F log l_F + g has, with l_F = <v_F, x> - c_F,

    H_ij       =  1/2 sum_F v_i v_j / l_F    + g_ij,
    d_c H_ij   = -1/2 sum_F v_c v_i v_j / l_F^2 + g_cij,
    d_cd H_ij  =      sum_F v_c v_d v_i v_j / l_F^3 + g_cdij

(the canonical sums drop out for a potential without u_sigma), and
G = H^{-1} by Gauss-Jordan elimination over Fractions. The derivatives of
G take the textbook route

    d_c G   = -G (d_c H) G,
    d_cd G  =  G (d_d H) G (d_c H) G + G (d_c H) G (d_d H) G - G (d_cd H) G,

and the divergence is expanded by the product rule,

    sum_jk d_j d_k (p G_jk) = sum_jk (d_jk p) G_jk + 2 (d_j p) d_k G_jk + p d_jk G_jk,

which shares nothing with the symmetric contraction of
kstab.mabuchi._divergence_pg. S = (2 q_{N-1} - SCALAR_DIVERGENCE_FACTOR div) / p.
"""
from fractions import Fraction
from itertools import product

from kstab.polynomial import MultivariatePolynomial
from kstab.rootsystem import SCALAR_DIVERGENCE_FACTOR, dh_weight, dh_weight_gradient_sum


def _matmul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def _inverse(H):
    """H^{-1} by Gauss-Jordan elimination with a nonzero pivot in each column."""
    n = len(H)
    M = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(H)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if M[r][col] != 0)
        M[col], M[pivot] = M[pivot], M[col]
        inv = 1 / M[col][col]
        M[col] = [a * inv for a in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                f = M[r][col]
                M[r] = [a - f * b for a, b in zip(M[r], M[col])]
    return [row[n:] for row in M]


def _partial(g, index):
    for i in index:
        g = g.partial(i)
    return g


def scalar_curvature(rs, polytope, perturbation, canonical, x) -> Fraction:
    """S at x for u = (u_sigma if canonical) + perturbation, exactly."""
    n = polytope.dim
    x = tuple(Fraction(t) for t in x)
    ls = [sum(a * t for a, t in zip(v, x)) - c for v, c in polytope.facets]
    if min(ls) <= 0:
        raise ValueError("point %r is not interior" % (x,))
    g = perturbation or MultivariatePolynomial(n)

    def tensor(order, scale, power):
        """The order-th derivative of u as a dict over index tuples of length order."""
        out = {}
        for idx in product(range(n), repeat=order):
            total = _partial(g, sorted(idx)).evaluate(x)
            if canonical:
                for (v, _), l in zip(polytope.facets, ls):
                    term = scale / l**power
                    for i in idx:
                        term *= v[i]
                    total += term
            out[idx] = total
        return out

    h2 = tensor(2, Fraction(1, 2), 1)
    h3 = tensor(3, Fraction(-1, 2), 2)
    h4 = tensor(4, Fraction(1), 3)
    H = [[h2[i, j] for j in range(n)] for i in range(n)]
    dH = [[[h3[c, i, j] for j in range(n)] for i in range(n)] for c in range(n)]
    G = _inverse(H)
    GdHG = [_matmul(_matmul(G, dH[c]), G) for c in range(n)]  # -d_c G
    d2G = {}
    for c, d in product(range(n), repeat=2):
        d2H = [[h4[c, d, i, j] for j in range(n)] for i in range(n)]
        a = _matmul(_matmul(GdHG[d], dH[c]), G)
        b = _matmul(_matmul(GdHG[c], dH[d]), G)
        e = _matmul(_matmul(G, d2H), G)
        d2G[c, d] = [[a[i][j] + b[i][j] - e[i][j] for j in range(n)] for i in range(n)]
    p = dh_weight(rs)
    pv = p.evaluate(x)
    dp = [p.partial(j).evaluate(x) for j in range(n)]
    div = Fraction(0)
    for j, k in product(range(n), repeat=2):
        d2p = _partial(p, (j, k)).evaluate(x)
        div += d2p * G[j][k] - 2 * dp[j] * GdHG[k][j][k] + pv * d2G[j, k][j][k]
    q1 = dh_weight_gradient_sum(rs).evaluate(x)
    return (2 * q1 - Fraction(SCALAR_DIVERGENCE_FACTOR) * div) / pv
