"""The per-point Fraction weight sum and the filtered interior walk, kept as
references for the int kernel and the strict walk.

``kstab.futaki.weighted_weight_wk`` scales f to integer pieces once and sums
Python ints over the walk. This module evaluates k f(lambda/k) as a Fraction
at every lattice point, and q(lambda) by the dense product of
``rootsystem_reference``, so the tests can compare the two on random input.
``kstab.polytope.dilated_lattice_points(P, k, interior=True)`` tightens each
integer constraint by one; ``interior_lattice_points`` instead filters the
closed walk by the strict facet inequalities.
"""
from __future__ import annotations

from fractions import Fraction

from kstab.polynomial import as_fraction
from kstab.polytope import PiecewiseAffine, RationalPolytope, dilated_lattice_points
from kstab.rootsystem import RootSystem
from rootsystem_reference import reference_weyl_eval


def weighted_weight_wk(
    rs: RootSystem, P: RationalPolytope, f: PiecewiseAffine, R, k: int
) -> Fraction:
    """w_k = sum_lambda q(lambda) k (R - f(lambda/k)) / denom over k P."""
    R = as_fraction(R)
    total = Fraction(0)
    for lam in dilated_lattice_points(P, k):
        kf = max(
            sum(a_j * l for a_j, l in zip(a, lam)) + k * b for a, b in f.pieces
        )
        total += reference_weyl_eval(rs, lam) * (k * R - kf)
    return total / rs.denom


def interior_lattice_points(P: RationalPolytope, k: int) -> list[tuple[int, ...]]:
    """Integer points of the interior of k P: the closed walk, filtered by
    <v_F, lambda> > k c_F on every facet."""
    return [
        lam
        for lam in dilated_lattice_points(P, k)
        if all(sum(a * x for a, x in zip(v, lam)) > k * c for v, c in P.facets)
    ]
