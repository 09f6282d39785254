"""Hand-written positive coroot tables for A, B, C, D and G2, and the
dense Weyl product.

The tables were the package's own construction before every root system
came from the root-string closure on a Cartan matrix. They stay here as an
independent reference: each series is listed from its explicit
combinatorics (runs of ones, and the doubled tails of the dual series),
with no Cartan matrix and no closure.

``reference_weyl_eval`` is the package's former ``weyl_eval``: it
recomputes every height |M^a| and pairs every entry of M^a, zeros
included, with lambda at each call.

``reference_dh_weight`` is the package's former ``dh_weight``: it expands
p = prod_a (M^a . x) by N successive products of Fraction polynomials.
"""
from fractions import Fraction

from kstab.polynomial import MultivariatePolynomial


def _runs(n: int) -> list[tuple[int, ...]]:
    out = []
    for i in range(n):
        for j in range(i, n):
            out.append(tuple(1 if i <= k <= j else 0 for k in range(n)))
    return out


def _b_series_m_vectors(n: int) -> list[tuple[int, ...]]:
    # Dual of B_n is C_n; list C_n's positive roots in its simple-root basis.
    out = [tuple(1 if i <= k < j else 0 for k in range(n)) for i in range(n) for j in range(i + 1, n)]
    for i in range(n):
        for j in range(i + 1, n):
            vec = [0] * n
            for k in range(i, j):
                vec[k] = 1
            for k in range(j, n - 1):
                vec[k] = 2
            vec[n - 1] += 1
            out.append(tuple(vec))
    for i in range(n):
        vec = [0] * n
        for k in range(i, n - 1):
            vec[k] = 2
        vec[n - 1] = 1
        out.append(tuple(vec))
    return out


def _c_series_m_vectors(n: int) -> list[tuple[int, ...]]:
    # Dual of C_n is B_n.
    out = [tuple(1 if i <= k < j else 0 for k in range(n)) for i in range(n) for j in range(i + 1, n)]
    for i in range(n):
        out.append(tuple(1 if k >= i else 0 for k in range(n)))
    for i in range(n):
        for j in range(i + 1, n):
            vec = [1 if i <= k < j else 0 for k in range(n)]
            for k in range(j, n):
                vec[k] = 2
            out.append(tuple(vec))
    return out


def _d_series_m_vectors(n: int) -> list[tuple[int, ...]]:
    out = [tuple(1 if i <= k < j else 0 for k in range(n)) for i in range(n) for j in range(i + 1, n)]
    for i in range(n - 1):
        vec = [0] * n
        for k in range(i, n - 2):
            vec[k] = 1
        vec[n - 1] = 1
        out.append(tuple(vec))
    for i in range(n - 1):
        for j in range(i + 1, n - 1):
            vec = [0] * n
            for k in range(i, j):
                vec[k] = 1
            for k in range(j, n - 2):
                vec[k] = 2
            vec[n - 2] = 1
            vec[n - 1] = 1
            out.append(tuple(vec))
    return out


_G2_M_VECTORS = [(1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)]

_TABLES = {
    "A": _runs,
    "B": _b_series_m_vectors,
    "C": _c_series_m_vectors,
    "D": _d_series_m_vectors,
}


def reference_positive_roots(series: str, rank: int) -> tuple[tuple[int, ...], ...]:
    """Sorted positive coroot vectors of A_n, B_n, C_n, D_n (n >= 2) or G2."""
    vecs = list(_G2_M_VECTORS) if series == "G2" else _TABLES[series](rank)
    return tuple(sorted(vecs))


def reference_weyl_eval(rs, lam) -> int:
    """q(lambda) = prod_a (|M^a| + <M^a, lambda>) from ``rs.positive_roots`` alone."""
    total = 1
    for m in rs.positive_roots:
        total *= sum(m) + sum(a * b for a, b in zip(m, lam))
    return total


def reference_dh_weight(rs) -> MultivariatePolynomial:
    """p(x) = prod_a (M^a . x), one linear factor multiplied in at a time."""
    p = MultivariatePolynomial.constant(rs.rank, 1)
    for m in rs.positive_roots:
        p = p * MultivariatePolynomial.affine([Fraction(x) for x in m], 0)
    return p
