"""The per-point Fraction weight sum, kept as the reference for the int kernel.

``kstab.futaki.weighted_weight_wk`` scales f to integer pieces once and sums
Python ints over the walk. This module evaluates k f(lambda/k) as a Fraction
at every lattice point, and q(lambda) by the dense product of
``rootsystem_reference``, so the tests can compare the two on random input.
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
