"""The float half of the package: polynomial tables and the graded rule.

Only this module and ``mabuchi`` import numpy; the exact modules load it
only when a float is asked for (``MultivariatePolynomial.evaluate_float``,
the pointwise ``quadrature.graded_integral`` and the ``scalar`` and
``mabuchi`` commands).

``float_table`` turns polynomials into one float exponent matrix and one
coefficient matrix, which ``evaluate_table`` evaluates by one power product
and one matmul; ``float_evaluator`` is the body of
``MultivariatePolynomial.evaluate_float``.

For integrands with logarithmic boundary singularities a graded composite
Gauss rule is provided. P is the union of the simplices of its complete
flags of faces P = F_n > ... > F_1, read off the vertex-facet incidence,
each the image of [0, 1]^n under a collapsed-coordinate map (Duffy 1982):
the first coordinate runs from P's centroid to a facet, the last along an
edge. The 1D rule, composite Gauss on cuts halving toward 0 and 1, is raised
to its n-th tensor power once per level and pushed through every flag's map,
so the radial direction is graded toward the boundary; no facet is charted
and no hull is built. ``graded_rule`` returns the nodes (m, n) and weights;
``graded_integral_array`` evaluates an integrand on the nodes in chunks of
CHUNK_NODES rows and sums the weighted values with math.fsum.
``graded_boundary_integral`` integrates over the boundary in the canonical
measure: each facet takes the same construction on its own flags, and the
facet sums are added with math.fsum, the only float sum here. A rule's size
is known from the flags before anything is allocated, and more than
MAX_QUADRATURE_NODES nodes per level are refused with ValueError.
"""
from __future__ import annotations

import math
from functools import lru_cache, reduce
from typing import Callable, Sequence

import numpy as np

from .polynomial import MultivariatePolynomial
from .polytope import RationalPolytope, _det, _face_facets
from .quadrature import GradedQuadratureSpec, QuadratureError


# ---------------------------------------------------------------------------
# float polynomial tables
# ---------------------------------------------------------------------------

def float_table(polys: Sequence[MultivariatePolynomial]) -> tuple[np.ndarray, np.ndarray]:
    """Float exponents (T, n) of the monomials of polys, in canonical term
    order, and coefficients (T, len(polys)): column j holds polys[j], so one
    power product and one matmul evaluate them all (evaluate_table)."""
    monomials = sorted({e for q in polys for e in q._terms}, key=lambda e: (sum(e), e))
    row = {e: t for t, e in enumerate(monomials)}
    coefs = np.zeros((len(monomials), len(polys)))
    for j, q in enumerate(polys):
        for e, c in q._terms.items():
            coefs[row[e], j] = float(c)
    return np.array(monomials, dtype=float).reshape(len(monomials), polys[0].nvars), coefs


def evaluate_table(table: tuple[np.ndarray, np.ndarray], x: np.ndarray) -> np.ndarray:
    """The polynomials of a float_table at x (..., n): x.shape[:-1] + coefs.shape[1:].

    A coefficient matrix is one matmul. A coefficient vector (one polynomial)
    is summed per point instead, so that a point and the same row of an array
    give the same bits. A table without monomials gives zeros.
    """
    exps, coefs = table
    powers = (x[..., None, :] ** exps).prod(axis=-1)
    return powers @ coefs if coefs.ndim == 2 else (powers * coefs).sum(axis=-1)


def float_evaluator(p: MultivariatePolynomial) -> Callable:
    """p's float value at one point, or at every row of an (m, n) array.

    Its float table is built here, once; ``MultivariatePolynomial`` keeps
    the evaluator, so later calls pay no import and no table.
    """
    exps, coefs = float_table([p])
    table, shape = (exps, coefs[:, 0]), (p.nvars,)

    def evaluate(point):
        x = np.asarray(point, dtype=float)
        if x.shape[-1:] != shape:
            raise ValueError("point dimension mismatch")
        return evaluate_table(table, x)

    return evaluate


# ---------------------------------------------------------------------------
# graded floating-point quadrature
# ---------------------------------------------------------------------------

# Nodes per refinement level above which graded_rule refuses, before it
# allocates any array. The 2D default (refined to depth 14, 11 nodes per
# cell) has 435,600 fine nodes; a cube at depth 2, 3 nodes ~1.5e6; a cube at
# the defaults ~8.6e8.
MAX_QUADRATURE_NODES = 2_000_000

# Nodes per integrand call. It bounds the integrand's temporaries whatever
# the size of the rule.
CHUNK_NODES = 4096


@lru_cache(maxsize=None)
def _gauss_rule(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    xs, ws = np.polynomial.legendre.leggauss(nodes)
    xs.flags.writeable = ws.flags.writeable = False  # shared by every caller
    return xs, ws


def _interval_rule(spec: GradedQuadratureSpec) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss on [0, 1], its cuts halving toward both endpoints."""
    xs, ws = _gauss_rule(spec.nodes)
    halves = [0.5**j for j in range(spec.depth + 1, 1, -1)]
    cuts = np.array([0.0] + halves + [0.5] + [1.0 - h for h in reversed(halves)] + [1.0])
    lo, hi = cuts[:-1], cuts[1:]
    keep = hi > lo
    half, center = 0.5 * (hi - lo)[keep], 0.5 * (hi + lo)[keep]
    return (center[:, None] + half[:, None] * xs).ravel(), (half[:, None] * ws).ravel()


def _cube_rule(spec: GradedQuadratureSpec, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The interval rule's d-th tensor power in collapsed coordinates.

    Row i holds the partial products u_1, u_1 u_2, ..., u_1...u_d of node i
    (u_1 varies slowest) and its weight prod_k w_k u_k^(d-k), the Jacobian
    of the collapsed-coordinate map (Duffy, SIAM J. Numer. Anal. 19, 1982)
    without the simplex's determinant.
    """
    t, w = _interval_rule(spec)
    u = t[np.indices((len(t),) * d).reshape(d, -1).T]
    weights = reduce(np.multiply.outer, [w * t ** (d - 1 - k) for k in range(d)]).ravel()
    return np.cumprod(u, axis=1), weights


def _flags(P: RationalPolytope, face: frozenset, d: int) -> list[list[frozenset]]:
    """Complete flags face = F_d > ... > F_1 of faces of P down to an edge,
    each face a set of vertex indices: the tensor-product blocks of the rule."""
    if d == 1:
        return [[face]]
    return [[face] + tail for sub in _face_facets(P, face) for tail in _flags(P, sub, d - 1)]


def _flag_rule(P: RationalPolytope, flags, normal=None) -> Callable:
    """The map from a cube rule (partial products, weights) to the
    collapsed-coordinate rule on each flag's simplex, concatenated.

    A flag F_d > ... > F_1 spans the simplex q_0 ... q_d: the centroids of
    F_d ... F_2, then the ends of the edge F_1. The node of a cube rule with
    partial products u_1...u_k maps to q_0 + sum_k (u_1...u_k)(q_k - q_(k-1)),
    its weight scaled by |det D| for the rows D_k = q_k - q_(k-1), computed
    exactly and rounded once, here, for every level. A facet with primitive
    normal v_F (d = n - 1) takes the canonical measure |det [D; v_F]| / |v_F|^2.
    """
    centroids = {face: _centroid(P, face) for face in {f for flag in flags for f in flag[:-1]}}
    origins, rows, scales = [], [], []
    for flag in flags:
        q = [centroids[face] for face in flag[:-1]] + [P.vertices[j] for j in sorted(flag[-1])]
        D = [[b - a for a, b in zip(q0, q1)] for q0, q1 in zip(q, q[1:])]
        if normal is None:
            scales.append(float(abs(_det(D))))
        else:
            scales.append(float(abs(_det(D + [normal])) / sum(a * a for a in normal)))
        origins.append(q[0])
        rows.append(D)
    rows, origins = np.array(rows, dtype=float), np.array(origins, dtype=float)[:, None, :]
    scales = np.array(scales)[:, None]

    def place(partial: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        x = partial @ rows
        x += origins
        return x.reshape(-1, P.dim), (scales * w).ravel()

    return place


def _centroid(P: RationalPolytope, face: frozenset) -> tuple:
    return tuple(sum(c) / len(face) for c in zip(*(P.vertices[j] for j in face)))


def _check_size(P: RationalPolytope, flags: int, spec: GradedQuadratureSpec, dim: int) -> None:
    """Refuse a rule on P, or on its facets if dim < P.dim, above MAX_QUADRATURE_NODES nodes."""
    where = ("this" if dim == P.dim else "the facets of this") + " %d-dimensional polytope" % P.dim
    size = flags * ((2 * spec.depth + 2) * spec.nodes) ** dim
    if size > MAX_QUADRATURE_NODES:
        raise ValueError(
            "the graded rule at depth %d, %d nodes per cell would take ~%.1e nodes on"
            " %s; the limit is %.0e per level"
            % (spec.depth, spec.nodes, size, where, MAX_QUADRATURE_NODES)
        )


def graded_rule(P: RationalPolytope, spec: GradedQuadratureSpec) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (m, n) and weights (m,) of the boundary-graded rule on P at one
    level: the cube rule pushed through the map of every complete flag of
    faces P = F_n > ... > F_1 (see _flag_rule). The node count, #flags
    ((2 depth + 2) nodes)^n, is known from the incidence before any array is
    built; above MAX_QUADRATURE_NODES it raises ValueError naming the count.
    """
    flags = _flags(P, frozenset(range(len(P.vertices))), P.dim)
    _check_size(P, len(flags), spec, P.dim)
    return _flag_rule(P, flags)(*_cube_rule(spec, P.dim))


def _weighted_sum(values: Callable, x: np.ndarray, w: np.ndarray) -> float:
    """math.fsum of w * values(x), evaluated CHUNK_NODES nodes at a time."""
    parts = []
    for start in range(0, len(w), CHUNK_NODES):
        chunk = x[start : start + CHUNK_NODES]
        v = np.broadcast_to(np.asarray(values(chunk), dtype=float), len(chunk))
        bad = ~np.isfinite(v)
        if bad.any():
            raise QuadratureError(
                "integrand returned a non-finite value at %r"
                % (tuple(chunk[bad.argmax()].tolist()),)
            )
        parts.append(math.fsum((w[start : start + CHUNK_NODES] * v).tolist()))
    return math.fsum(parts)


def _level_sums(values: Callable, P: RationalPolytope, blocks, d: int, spec) -> list[list]:
    """The sums of ``values`` on the rule of each block (flags of a d-face,
    normal), one list at ``spec.refined()`` and one at ``spec``: the value
    and error estimate of every graded integral. Geometry is derived once."""
    fine = spec.refined()
    _check_size(P, sum(len(flags) for flags, _ in blocks), fine, d)
    places = [_flag_rule(P, flags, normal) for flags, normal in blocks]
    cubes = (_cube_rule(level, d) for level in (fine, spec))  # built per level, not both up front
    return [[_weighted_sum(values, *place(*cube)) for place in places] for cube in cubes]


def graded_integral_array(
    values: Callable[[np.ndarray], np.ndarray],
    P: RationalPolytope,
    spec: GradedQuadratureSpec | None = None,
) -> tuple[float, float]:
    """Integrate a batched float integrand over P on a boundary-graded mesh.

    ``values`` maps a (k, n) array of nodes, k <= CHUNK_NODES, to k values
    (or one scalar). Returns (value, error estimate): the weighted values on
    the rule at ``spec.refined()``, summed with math.fsum chunk by chunk and
    across chunks, and its distance from the same sum on the rule at
    ``spec``. Log-type singularities on the boundary are fine; a
    non-finite value raises QuadratureError naming its node.
    """
    if spec is None:
        spec = GradedQuadratureSpec()
    flags = _flags(P, frozenset(range(len(P.vertices))), P.dim)
    [fine], [coarse] = _level_sums(values, P, [(flags, None)], P.dim, spec)
    return fine, abs(fine - coarse)


def graded_boundary_integral(
    values: Callable[[np.ndarray], np.ndarray],
    P: RationalPolytope,
    spec: GradedQuadratureSpec | None = None,
) -> tuple[float, float]:
    """graded_integral_array over the boundary of P, in the canonical measure.

    Each facet takes graded_rule's construction one dimension down, on its
    own flags of faces, with the canonical facet measure. Returns the
    math.fsum of the facet sums at ``spec.refined()`` and the sum of their
    distances from the sums at ``spec``. In dimension one each endpoint has
    unit mass and the error is 0.
    """
    if spec is None:
        spec = GradedQuadratureSpec()
    n = P.dim
    if n == 1:
        return _weighted_sum(values, np.array([[float(v[0])] for v in P.vertices]), np.ones(2)), 0.0
    blocks = [(_flags(P, face, n - 1), normal) for face, (normal, _) in zip(P.incidence, P.facets)]
    fine, coarse = _level_sums(values, P, blocks, n - 1, spec)
    return math.fsum(fine), sum(abs(f - c) for f, c in zip(fine, coarse))
