"""The Ehrhart fit with caller-chosen samples, kept as the reference for the fit.

``kstab.futaki.ehrhart_fit`` chooses its own samples, k = m, 2m, ... for the
admissible modulus m, with the reciprocal samples 0, -m, -2m, ... (interior
walks, by Ehrhart-Macdonald reciprocity) making up N + n + 3 of them, and fits
d(k) and w(k) through one helper. This module keeps the fit that took
explicit positive ``samples`` and a ``modulus`` from its caller, walked every
sample's full dilate, fitted d(k) in k and w(k) in k/m, and padded the
coefficient lists. The only edit is that ``weighted_weight_wk`` no longer
takes ``modulus``. ``cross_check_samples`` is the sampling rule that
``futaki_cross_check`` used to apply before it called this fit: positive
samples only, N + n + 3 of them or every multiple of m up to ``kmax``.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from kstab.futaki import (
    EhrhartFit,
    _poly_value,
    _require_match,
    _require_positive_chamber,
    admissible_modulus,
    interpolate_coefficients,
    weighted_count_dk,
    weighted_weight_wk,
)
from kstab.polynomial import as_fraction
from kstab.polytope import PiecewiseAffine, RationalPolytope, check_walk
from kstab.rootsystem import RootSystem


def cross_check_samples(rs: RootSystem, m: int, kmax: int | None) -> list[int] | None:
    """Samples for ``kmax``: None (the fit's default) or t m for t = 1 .. max(N + n + 3, kmax // m)."""
    if kmax is None:
        return None
    N, n = rs.num_positive_roots, rs.rank
    return [m * t for t in range(1, max(N + n + 3, kmax // m) + 1)]


def ehrhart_fit(
    rs: RootSystem,
    P: RationalPolytope,
    f: PiecewiseAffine,
    R,
    samples: Sequence[int] | None = None,
    *,
    modulus: int | None = None,
) -> EhrhartFit:
    """Fit d(k) and w(k) exactly from lattice sums and extract F0, F1.

    Samples must be distinct multiples of the admissible modulus; defaults to
    the first N + n + 3 of them. Held-out samples are predicted exactly or
    the fit is rejected. Walks over more than MAX_WALK_POINTS bounding-box
    lattice points are refused up front. Pass ``modulus`` if
    ``admissible_modulus(f, P)`` is known already.
    """
    _require_match(rs, P)
    _require_positive_chamber(P)
    R = as_fraction(R)
    N, n = rs.num_positive_roots, rs.rank
    m = admissible_modulus(f, P) if modulus is None else modulus
    if samples is None:
        samples = [m * t for t in range(1, N + n + 4)]
    ks = sorted(int(k) for k in samples)
    if len(set(ks)) != len(ks) or len(ks) < N + n + 3:
        raise ValueError("need at least N + n + 3 distinct sample dilations")
    if any(k % m for k in ks):
        raise ValueError("all samples must be multiples of the admissible modulus %d" % m)
    check_walk(P, ks, "the oracle (admissible modulus %d)" % m)
    d_vals = [weighted_count_dk(rs, P, k) for k in ks]
    w_vals = [weighted_weight_wk(rs, P, f, R, k) for k in ks]

    deg_d, deg_w = N + n, N + n + 1
    d_coeffs = interpolate_coefficients(
        [Fraction(k) for k in ks[: deg_d + 1]], d_vals[: deg_d + 1]
    )
    # w(k) is only polynomial along the sampled progression; interpolate in
    # t = k/m and rescale the coefficients back to the k variable.
    w_t = interpolate_coefficients(
        [Fraction(k, m) for k in ks[: deg_w + 1]], w_vals[: deg_w + 1]
    )
    w_coeffs = [c / Fraction(m) ** j for j, c in enumerate(w_t)]
    for k, dv, wv in zip(ks, d_vals, w_vals):
        if _poly_value(d_coeffs, Fraction(k)) != dv:
            raise ArithmeticError("count interpolation failed at held-out k=%d" % k)
        if _poly_value(w_coeffs, Fraction(k)) != wv:
            raise ArithmeticError("weight interpolation failed at held-out k=%d" % k)

    A = w_coeffs[deg_w] if len(w_coeffs) > deg_w else Fraction(0)
    B = w_coeffs[deg_w - 1]
    C = d_coeffs[deg_d] if len(d_coeffs) > deg_d else Fraction(0)
    D = d_coeffs[deg_d - 1]
    if C == 0:
        raise ArithmeticError("degenerate fit: vanishing leading count coefficient")
    pad_d = tuple(d_coeffs) + (Fraction(0),) * (deg_d + 1 - len(d_coeffs))
    pad_w = tuple(w_coeffs) + (Fraction(0),) * (deg_w + 1 - len(w_coeffs))
    return EhrhartFit(
        ks=tuple(ks),
        d_values=tuple(d_vals),
        w_values=tuple(w_vals),
        d_coeffs=pad_d,
        w_coeffs=pad_w,
        A=A,
        B=B,
        C=C,
        D=D,
        F0=A / C,
        F1=(B * C - A * D) / (C * C),
    )
