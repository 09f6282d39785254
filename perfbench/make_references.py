"""Recompute the per-variant references in perfbench/references.json.

    PYTHONPATH=src python3 perfbench/make_references.py

closed-form: F1 from the lattice oracle (at R and R + 1), and Vol_W and the
average scalar curvature a from the oracle's count polynomial
d(k) = C k^(N+n) + D k^(N+n-1) + ...: Vol_W = C * denom and a = 2 D / C. None
of these touches the closed-form integrals the workload times.

float-quadrature: mabuchi_eval(A = "csc") at the default quadrature spec
(depth 12, 10 nodes), about 80 s per variant on one core.
"""
from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import (  # noqa: E402
    VARIANTS,
    closed_form_inputs,
    float_quadrature_inputs,
    fmt,
)

from kstab import futaki, mabuchi, polynomial, polytope, rootsystem  # noqa: E402


def closed_form(variant: int) -> dict:
    data = closed_form_inputs(variant)
    P = polytope.RationalPolytope.from_vertices(data["vertices"])
    f = polytope.PiecewiseAffine.from_pieces(data["pieces"])
    out = {}
    for series in ("A", "B"):
        rs = rootsystem.build_classical(series, 3)
        rep = futaki.futaki_cross_check(rs, P, f, 4)
        if not rep.agreement:
            raise ArithmeticError("oracle disagrees with the closed form on %s" % data["label"])
        fit = rep.oracle_details
        out[series + "3"] = {
            "F1": fmt(fit.F1),
            "vol_W": fmt(fit.C * rs.denom),
            "a": fmt(2 * fit.D / fit.C),
        }
    return out


def float_quadrature(variant: int) -> dict:
    data = float_quadrature_inputs(variant)
    P = polytope.RationalPolytope.from_vertices(data["vertices"])
    u = mabuchi.SymplecticPotential(
        P, perturbation=polynomial.MultivariatePolynomial(2, data["terms"])
    )
    res = mabuchi.mabuchi_eval(rootsystem.build_classical("A", 2), u, "csc")
    return {"value": res.value, "error": res.error}


def main() -> int:
    path = os.path.join(HERE, "references.json")
    refs = {}
    for name, make in (("closed-form", closed_form), ("float-quadrature", float_quadrature)):
        for variant in range(VARIANTS):
            refs.setdefault(name, {})[str(variant)] = make(variant)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(refs, fh, indent=1, sort_keys=True)
                fh.write("\n")
            print(name, variant, refs[name][str(variant)], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
