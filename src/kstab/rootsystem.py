"""Root-system input data: positive coroot vectors and derived polynomials.

The only Lie-theoretic data the rest of the package consumes is the list of
integer vectors M^a expanding each positive coroot in the simple coroots.
From those come the degree-N weight polynomial

    q(l) = prod_a (|M^a| + l . M^a),        |M^a| = sum_j M^a_j,

whose top homogeneous part p = q_N is the Duistermaat-Heckman density and
whose next part satisfies q_{N-1} = sum_j d/dx_j p. Dimensions of highest
weight representations are q(l) divided by prod_a |M^a|.

Coroot vectors are used uniformly (rather than root expansions) because the
dimension formula pairs weights against coroots; this is what makes the
non simply-laced types (B, C, G2, F4) come out right.

Every root system is built one way: the root-string closure (Humphreys,
GTM 9, sections 10-11) run on the transpose of a Cartan matrix. The built-in
series A/B/C/D/G2/F4 take their matrix from ``cartan_matrix``; a user's
matrix is first checked to be of finite type. Both routes refuse a rank
above ``MAX_RANK``.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .polynomial import MultivariatePolynomial

# q_{N-1} as a fraction of p * f_G. With f_G = 2 * sum_j d_j log p this is
# exactly 1/2; kept as a named constant because the literature also floats
# 1/4, and 1/2 is the value under which the average-scalar identity closes.
QN1_PFG_RATIO = Fraction(1, 2)

# Largest rank either construction accepts, checked before anything of that
# size is allocated; without it a rank of 10^6 exhausts memory. Checking a
# user's Cartan matrix costs O(n^4) exact arithmetic in its Sylvester
# minors: 0.06-0.1 s at rank 16 but ~0.8 s at rank 32 on a 2-CPU x86-64
# host. At 16 that check and the closure (~25 ms) stay well under a second.
MAX_RANK = 16


class RootSystemError(ValueError):
    """Invalid root-system input (bad series, rank, or Cartan matrix)."""


@dataclass(frozen=True)
class RootSystem:
    """Positive coroots of a semisimple group, as coefficient vectors.

    ``positive_roots`` holds one integer vector M^a per positive root;
    ``denom`` is the product of the coordinate sums |M^a|.
    """

    rank: int
    positive_roots: tuple[tuple[int, ...], ...]
    denom: int

    @classmethod
    def from_m_vectors(cls, vectors: Sequence[Sequence[int]]) -> "RootSystem":
        vecs = sorted(tuple(int(x) for x in v) for v in vectors)
        if not vecs:
            raise RootSystemError("no positive roots given")
        rank = len(vecs[0])
        if any(len(v) != rank for v in vecs):
            raise RootSystemError("coroot vectors of mixed length")
        if any(any(x < 0 for x in v) for v in vecs) or any(
            all(x == 0 for x in v) for v in vecs
        ):
            raise RootSystemError("coroot vectors must be nonzero and nonnegative")
        if len(set(vecs)) != len(vecs):
            raise RootSystemError("duplicate coroot vectors")
        for j in range(rank):
            basis = tuple(int(i == j) for i in range(rank))
            if basis not in vecs:
                raise RootSystemError("simple coroot e_%d missing" % (j + 1))
        if len(vecs) < rank:
            raise RootSystemError("fewer positive roots than the rank")
        denom = 1
        for v in vecs:
            denom *= sum(v)
        return cls(rank=rank, positive_roots=tuple(vecs), denom=denom)

    @property
    def num_positive_roots(self) -> int:
        return len(self.positive_roots)


# ---------------------------------------------------------------------------
# Cartan matrices and root-string closure
# ---------------------------------------------------------------------------

def _check_rank(rank: int) -> None:
    if rank > MAX_RANK:
        raise RootSystemError("rank %d exceeds the limit of %d" % (rank, MAX_RANK))


def cartan_matrix(series: str, rank: int) -> list[list[int]]:
    """Cartan matrix of a classical series, rows indexed by coroots."""
    _check_rank(rank)
    series = series.upper()
    if series == "G2":
        if rank != 2:
            raise RootSystemError("G2 has rank 2")
        return [[2, -1], [-3, 2]]
    if series == "F4":
        if rank != 4:
            raise RootSystemError("F4 has rank 4")
        return [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -2, 2, -1], [0, 0, -1, 2]]
    if series not in ("A", "B", "C", "D"):
        raise RootSystemError("unknown series %r" % (series,))
    if rank < 1 or (series == "D" and rank < 2):
        raise RootSystemError("rank %d not supported for series %s" % (rank, series))
    n = rank
    C = [[2 * (i == j) for j in range(n)] for i in range(n)]
    if series == "D" and n >= 2:
        for i in range(n - 2):
            C[i][i + 1] = C[i + 1][i] = -1
        if n >= 3:
            C[n - 3][n - 1] = C[n - 1][n - 3] = -1
        # n == 2 is A1 x A1: no edges
    else:
        for i in range(n - 1):
            C[i][i + 1] = C[i + 1][i] = -1
        if series == "B" and n >= 2:
            C[n - 1][n - 2] = -2
        if series == "C" and n >= 2:
            C[n - 2][n - 1] = -2
    return C


def _validate_cartan(C: Sequence[Sequence[int]]) -> list[list[int]]:
    if not isinstance(C, (list, tuple)) or not all(isinstance(r, (list, tuple)) for r in C):
        raise RootSystemError("Cartan matrix must be a list of rows")
    n = len(C)
    _check_rank(n)
    bad = [x for row in C for x in row if not isinstance(x, int) or isinstance(x, bool)]
    if bad:
        raise RootSystemError("Cartan matrix entries must be integers, got %r" % (bad[0],))
    M = [list(row) for row in C]
    if any(len(row) != n for row in M):
        raise RootSystemError("Cartan matrix must be square")
    for i in range(n):
        if M[i][i] != 2:
            raise RootSystemError("Cartan diagonal entries must equal 2")
        for j in range(n):
            if i != j and M[i][j] > 0:
                raise RootSystemError("off-diagonal Cartan entries must be <= 0")
            if i != j and (M[i][j] == 0) != (M[j][i] == 0):
                raise RootSystemError("Cartan zero pattern must be symmetric")
    # Symmetrizability: propagate diagonal weights over the Dynkin graph.
    d: list[Fraction | None] = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start] = Fraction(1)
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if i == j or M[i][j] == 0:
                    continue
                want = d[i] * Fraction(M[i][j], M[j][i])
                if d[j] is None:
                    d[j] = want
                    stack.append(j)
                elif d[j] != want:
                    raise RootSystemError("Cartan matrix is not symmetrizable")
    sym = [[d[i] * M[i][j] for j in range(n)] for i in range(n)]
    # Finite type means the symmetrization is positive definite (Sylvester).
    from .polytope import _det

    for m in range(1, n + 1):
        minor = [row[:m] for row in sym[:m]]
        if _det(minor) <= 0:
            raise RootSystemError(
                "Cartan matrix is not of finite type (root closure would not terminate)"
            )
    return M


def _positive_root_closure(C: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Coefficient vectors of all positive roots of a finite-type matrix.

    Standard root-string construction: a root b extends to b + a_j exactly
    when the j-string through b has room, i.e. q = p - <b, a_j coroot> > 0
    where p counts how far the string continues downward.
    """
    n = len(C)
    level = {tuple(int(i == j) for i in range(n)) for j in range(n)}
    roots = set(level)
    max_height = 1 + sum(sum(abs(x) for x in row) for row in C) * n
    height = 1
    while level:
        height += 1
        if height > max_height:
            raise RootSystemError("root closure failed to terminate")
        nxt: set[tuple[int, ...]] = set()
        for c in level:
            for j in range(n):
                # every root below c has a lower height, so it is in roots
                p = 0
                down = list(c)
                down[j] -= 1
                while tuple(down) in roots:
                    p += 1
                    down[j] -= 1
                if p > sum(C[j][k] * c[k] for k in range(n)):
                    up = list(c)
                    up[j] += 1
                    nxt.add(tuple(up))
        roots.update(nxt)
        level = nxt
    return sorted(roots)


def _closure_root_system(C: Sequence[Sequence[int]]) -> RootSystem:
    """Root system of a finite-type Cartan matrix: coroots via the dual closure.

    The positive coroots expanded in simple coroots are the positive roots of
    the dual root system, whose Cartan matrix is the transpose.
    """
    n = len(C)
    dual = [[C[j][i] for j in range(n)] for i in range(n)]
    return RootSystem.from_m_vectors(_positive_root_closure(dual))


def build_from_cartan(cartan: Sequence[Sequence[int]]) -> RootSystem:
    """Root system from a user-supplied Cartan matrix, validated first."""
    return _closure_root_system(_validate_cartan(cartan))


def build_classical(series: str, rank: int) -> RootSystem:
    """Built-in series A/B/C/D/G2/F4 from their Cartan matrices."""
    return _closure_root_system(cartan_matrix(series, rank))


# ---------------------------------------------------------------------------
# derived polynomials
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def dh_weight(rs: RootSystem) -> MultivariatePolynomial:
    """Duistermaat-Heckman density p(x) = prod_a (M^a . x), expanded."""
    p = MultivariatePolynomial.constant(rs.rank, 1)
    for m in rs.positive_roots:
        p = p * MultivariatePolynomial.affine([Fraction(x) for x in m], 0)
    return p


@lru_cache(maxsize=None)
def dh_weight_gradient_sum(rs: RootSystem) -> MultivariatePolynomial:
    """q_{N-1} = sum_j d/dx_j p, the subleading homogeneous part."""
    p = dh_weight(rs)
    out = MultivariatePolynomial(rs.rank)
    for j in range(rs.rank):
        out = out + p.partial(j)
    return out


def dimension(rs: RootSystem, lam: Sequence[int]) -> Fraction:
    """Dimension of the highest weight representation, q(lambda)/denom."""
    lam = [int(x) for x in lam]
    if len(lam) != rs.rank:
        raise ValueError("expected %d entries, the rank, got %d" % (rs.rank, len(lam)))
    if any(x < 0 for x in lam):
        raise ValueError("dominant integral weights have nonnegative entries")
    return Fraction(weyl_eval(rs, lam), rs.denom)


def weyl_eval(rs: RootSystem, lam: Sequence[int]) -> int:
    """q(lambda) at an integer point, without expanding the product."""
    total = 1
    for m in rs.positive_roots:
        total *= sum(m) + sum(a * b for a, b in zip(m, lam))
    return total
