"""Batch front end: parse a job spec, run a pipeline, emit a report.

Reports are JSON with every exact quantity rendered as a rational string and
floats printed with 17 significant digits; byte-identical runs are guaranteed
once the timestamp is suppressed with --no-meta. Exit codes: 0 success (and
agreement, when an oracle ran), 1 failed check, 2 bad input.

Only the float commands, scalar and mabuchi, load numpy: their handlers
import kstab.mabuchi and kstab.graded, so futaki, pick and dims start
without it.
"""
from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import sys
from fractions import Fraction
from functools import cache

from .futaki import _volume_and_average, closed_form_report, futaki_cross_check
from .pick import pick_check
from .polynomial import MultivariatePolynomial, format_fraction
from .quadrature import GradedQuadratureSpec
from .rootsystem import (
    QN1_PFG_RATIO,
    SCALAR_DIVERGENCE_FACTOR,
    build_classical,
    build_from_cartan,
    dimension,
)
from .specio import SCHEMA, SpecError, load_jobspec

CONVENTIONS = {
    "schema": SCHEMA,
    "qn1_pfg_ratio": format_fraction(QN1_PFG_RATIO),
    "scalar_divergence_factor": format_fraction(Fraction(SCALAR_DIVERGENCE_FACTOR)),
    "weight_sign": "R-f",
    "dh_constant_C": "1",
}


def _fmt_float(x: float) -> str:
    return "%.17g" % float(x)


def _write_report(report: dict, out_path: str | None, no_meta: bool) -> None:
    report = dict(report)
    report["convention"] = CONVENTIONS
    if not no_meta:
        report["meta"] = {
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat()
        }
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# Grid points one scalar or residual job may evaluate in one array call: on
# specs/su3_square.json, 10^5 of them add well under a second and ~40 MiB.
MAX_GRID_POINTS = 100_000


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("expected an integer, got %r" % text) from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1, got %d" % value)
    return value


def _grid_size(text: str) -> int:
    value = _positive_int(text)
    if value > MAX_GRID_POINTS:
        raise argparse.ArgumentTypeError(
            "%d grid points exceed the limit of %d" % (value, MAX_GRID_POINTS)
        )
    return value


def _node_count(text: str) -> int:
    value = _positive_int(text)
    if value < 2:
        raise argparse.ArgumentTypeError("need at least two nodes per cell, got %d" % value)
    return value


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError("expected a number, got %r" % text) from None
    if not 0 <= value < math.inf:  # NaN fails too
        raise argparse.ArgumentTypeError("must be finite and >= 0, got %r" % value)
    return value


def _int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError("expected comma-separated integers, got %r" % text) from None


def _dilations(text: str) -> tuple[int, ...]:
    ks = _int_list(text)
    if min(ks) < 1:
        raise argparse.ArgumentTypeError("dilations must be >= 1, got %d" % min(ks))
    return tuple(ks)


def _quad_spec(args) -> GradedQuadratureSpec:
    return GradedQuadratureSpec(
        depth=args.quad_depth,
        nodes=args.quad_nodes,
        tol=args.tol,
    )


def _cmd_futaki(args) -> int:
    spec = load_jobspec(args.spec)
    if spec.pl_function is None:
        raise SpecError("spec.pl_function: required by the futaki command")
    if not args.oracle:
        res = closed_form_report(spec.root_system, spec.polytope, spec.pl_function)
    elif spec.R is None:
        raise SpecError("spec.R: required when the oracle runs")
    else:
        res = futaki_cross_check(
            spec.root_system, spec.polytope, spec.pl_function, spec.R, kmax=args.kmax
        )
    _write_report({"command": "futaki", **res.to_json_dict()}, args.out, args.no_meta)
    print("F1_closed = %s" % format_fraction(res.F1_closed))
    if args.oracle:
        print("F1_oracle = %s" % format_fraction(res.F1_oracle))
        print("agreement = %s" % res.agreement)
    return 1 if res.agreement is False else 0


def _cmd_pick(args) -> int:
    spec = load_jobspec(args.spec)
    h = spec.pick_h
    if h is None:
        # default test function: the sum of squares, strictly convex anywhere
        n = spec.polytope.dim
        xs = [MultivariatePolynomial.variable(n, i) for i in range(n)]
        h = sum((x * x for x in xs), MultivariatePolynomial(n))
    passed, fit = pick_check(spec.polytope, h, ks=args.kset)
    report = {"command": "pick", "passed": passed, "fit": fit.to_json_dict()}
    _write_report(report, args.out, args.no_meta)
    print("pick check: %s" % ("PASS" if passed else "FAIL"))
    return 0 if passed else 1


def _cmd_mabuchi(args) -> int:
    import numpy as np

    from .mabuchi import SymplecticPotential, _resolve_a, el_residual, interior_grid, mabuchi_eval

    spec = load_jobspec(args.spec)
    try:
        a_fn = _resolve_a(spec.root_system, spec.polytope, args.A)
    except ValueError as exc:
        raise SpecError("--A: %s" % exc) from None
    u = SymplecticPotential(spec.polytope, spec.potential_perturbation)
    res = mabuchi_eval(spec.root_system, u, a_fn, _quad_spec(args))
    report = {
        "command": "mabuchi",
        "A_preset": args.A,
        "value": _fmt_float(res.value),
        "error_estimate": _fmt_float(res.error),
        "flagged": res.flagged,
        "terms": {k: _fmt_float(v) for k, v in res.terms.items()},
    }
    _write_report(report, args.out, args.no_meta)
    if args.residuals:
        grid = interior_grid(spec.polytope, args.grid)
        residuals = el_residual(spec.root_system, u, a_fn, np.array(grid))
        with open(args.residuals, "w", encoding="utf-8") as fh:
            fh.write("".join("x%d," % (i + 1) for i in range(spec.polytope.dim)) + "residual\n")
            for pt, r in zip(grid, residuals):
                fh.write(",".join(_fmt_float(c) for c in (*pt, r)) + "\n")
    print("F_A = %s  (error estimate %s)" % (_fmt_float(res.value), _fmt_float(res.error)))
    return 1 if res.flagged else 0


def _cmd_scalar(args) -> int:
    import numpy as np

    from .graded import graded_integral_array
    from .mabuchi import SymplecticPotential, _weight, interior_grid, scalar_curvature

    spec = load_jobspec(args.spec)
    u = SymplecticPotential(spec.polytope, spec.potential_perturbation)
    grid = interior_grid(spec.polytope, args.grid)
    values = scalar_curvature(spec.root_system, u, np.array(grid))
    integral, err = graded_integral_array(
        lambda x: scalar_curvature(spec.root_system, u, x) * _weight(spec.root_system, x),
        spec.polytope,
        _quad_spec(args),
    )
    vol, a = _volume_and_average(spec.root_system, spec.polytope)
    expected = float(a * vol)
    ok = abs(integral - expected) <= max(args.tol, 10 * err)
    report = {
        "command": "scalar",
        "grid_size": len(grid),
        "S_min": _fmt_float(min(values)),
        "S_max": _fmt_float(max(values)),
        "integral_SW": _fmt_float(integral),
        "a_times_vol": format_fraction(a * vol),
        "average_identity_ok": ok,
    }
    _write_report(report, args.out, args.no_meta)
    print("int S W = %s, a Vol_W = %s" % (_fmt_float(integral), format_fraction(a * vol)))
    return 0 if ok else 1


def _cmd_dims(args) -> int:
    if args.cartan:
        if args.series or args.rank:
            raise SpecError("dims: give either --series/--rank or --cartan, not both")
        try:
            rs = build_from_cartan(json.loads(args.cartan))
        except ValueError as exc:  # json.JSONDecodeError is a ValueError too
            raise SpecError("--cartan: %s" % exc) from None
    else:
        if not args.series:
            raise SpecError("dims: need --series/--rank or --cartan")
        rs = build_classical(args.series, args.rank)
    try:
        value = dimension(rs, args.lam)
    except ValueError as exc:
        raise SpecError("--lambda: %s" % exc) from None
    print(value.numerator if value.denominator == 1 else format_fraction(value))
    return 0


@cache  # parse_args keeps no state, so one parser serves every main() call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kstab",
        description="Stability invariants of toric fibrations from polytope and root data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, quad: bool = False):
        p.add_argument("--out", help="write the JSON report to this path")
        p.add_argument("--no-meta", action="store_true", help="omit the timestamp")
        if quad:
            p.add_argument("--quad-depth", type=_positive_int, default=12)
            p.add_argument("--quad-nodes", type=_node_count, default=10)
            p.add_argument("--tol", type=_tolerance, default=1e-6)

    p = sub.add_parser("futaki", help="closed-form Futaki invariant, optional lattice oracle")
    p.add_argument("--spec", required=True)
    p.add_argument("--oracle", action="store_true", help="cross-check with lattice counts")
    p.add_argument("--kmax", type=_positive_int, default=None, help="largest positive oracle sample")
    add_common(p)
    p.set_defaults(func=_cmd_futaki)

    p = sub.add_parser("pick", help="two-term lattice-sum asymptotics check")
    p.add_argument("--spec", required=True)
    p.add_argument(
        "--kset",
        type=_dilations,
        help="one or more comma-separated extra dilations, held out from the exact fit of k^d S_k",
    )
    add_common(p)
    p.set_defaults(func=_cmd_pick)

    p = sub.add_parser("mabuchi", help="evaluate the energy functional")
    p.add_argument("--spec", required=True)
    p.add_argument("--A", default="zero", help="zero | paper | csc")
    p.add_argument("--residuals", help="write a CSV of critical-equation residuals")
    p.add_argument("--grid", type=_grid_size, default=100)
    add_common(p, quad=True)
    p.set_defaults(func=_cmd_mabuchi)

    p = sub.add_parser("scalar", help="scalar curvature on a grid plus the average identity")
    p.add_argument("--spec", required=True)
    p.add_argument("--grid", type=_grid_size, default=100)
    add_common(p, quad=True)
    p.set_defaults(func=_cmd_scalar)

    p = sub.add_parser("dims", help="Weyl dimension of a highest-weight representation")
    p.add_argument("--series")
    p.add_argument("--rank", type=int, default=0)
    p.add_argument("--cartan", help="JSON Cartan matrix")
    p.add_argument(
        "--lambda", dest="lam", type=_int_list, required=True, help="comma-separated weight"
    )
    p.set_defaults(func=_cmd_dims)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # refuse one file named twice by --spec, --out and --residuals, or an
        # unwritable output, before the job; create no file, touch no spec
        named = [(opt, getattr(args, opt[2:], None)) for opt in ("--spec", "--out", "--residuals")]
        named = [(opt, path) for opt, path in named if path]
        for i, (opt, path) in enumerate(named):
            for first, first_path in named[:i]:
                if os.path.realpath(first_path) == os.path.realpath(path):
                    raise SpecError("%s and %s name the same file %s" % (first, opt, first_path))
        for path in (path for opt, path in named if opt != "--spec"):
            existed = os.path.exists(path)
            open(path, "a").close()
            if not existed:
                os.remove(path)
        return args.func(args)
    except (ValueError, OSError) as exc:  # input errors; OSError: an unwritable output path
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
