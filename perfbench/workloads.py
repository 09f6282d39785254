"""Seeded inputs, job lists and reference checks for the four workloads.

A workload is a list of jobs built from ``--seed``. The seed varies
coordinates, PL pieces and potentials but keeps each job's combinatorial type
(root system, polytope shape, number of pieces, sample count) fixed, so the
work per pass stays comparable across seeds. Jobs call kstab through module
attributes looked up at call time, so a traced pass sees the wrapped
functions.

Every job returns a JSON-able dict of outputs. ``check`` compares the
outputs of the first pass with a reference: a pinned exact value, the other
exact route, an exact identity, or a value in ``references.json`` that
``make_references.py`` computed by an independent route.

kstab is imported inside the builders: run.py imports this module where the
sources may be missing, and the worker counts the import as set-up time.
"""
from __future__ import annotations

import io
import json
import math
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

WORKLOADS = ("oracle-walk", "closed-form", "float-quadrature", "small-jobs")

# Inputs that depend on a reference computed offline come in this many
# variants; seed s uses variant s % VARIANTS.
VARIANTS = 8

HERE = os.path.dirname(os.path.abspath(__file__))

# Exact values that no seed changes (from the acceptance tests and the
# baseline measurements).
PINNED = {
    "A1 [1,2] f=x": "-2/27",
    "A1 [1,2] f=max(0,2x-3)": "-35/108",
    "A2 [1,2]^2 f=max(x,y)": "-2795/10584",
    "B2 [1,2]^2 f=max(x,y)": "-6440251/22232315",
    "G2 [1,2]^2 f=max(x,y)": "-761779450/2303358309",
    "A3 [1,2]^3 f=max(x_i)": "-15757592721/44757968696",
}

IDENTITY_RTOL = 1e-9  # |int S W - a Vol_W| <= IDENTITY_RTOL * a Vol_W


@dataclass
class Job:
    name: str
    kind: str
    run: Callable[[], dict]
    check: Callable[[dict, dict], list]  # (outputs, outputs of all jobs) -> problems


def load_references() -> dict:
    with open(os.path.join(HERE, "references.json"), encoding="utf-8") as fh:
        return json.load(fh)


def fmt(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else "%d/%d" % (x.numerator, x.denominator)


def box(corner, sides):
    """Vertices of the axis box with the given corner and side lengths."""
    n = len(corner)
    return [
        tuple(corner[i] + (sides[i] if (m >> i) & 1 else 0) for i in range(n))
        for m in range(2**n)
    ]


def unit(n: int, i: int) -> tuple:
    return tuple(1 if j == i else 0 for j in range(n))


# ---------------------------------------------------------------------------
# input generators (pure data; shared with make_references.py)
# ---------------------------------------------------------------------------

def closed_form_inputs(variant: int) -> dict:
    """Unit cube with corner in {1,2}^3 and f = max(x_i + c_i).

    c_i = K - corner_i puts every kink x_i - x_j = c_j - c_i through the
    cube's diagonal, as in the pinned A3 case; any other integer offsets
    leave one piece active on the whole cube and f affine.
    """
    corner = tuple(1 + ((variant >> i) & 1) for i in range(3))
    offsets = tuple(variant % 3 - x for x in corner)
    return {
        "vertices": box(corner, (1, 1, 1)),
        "pieces": [(unit(3, i), offsets[i]) for i in range(3)],
        "label": "cube corner %s, c = %s" % (corner, offsets),
    }


def float_quadrature_inputs(variant: int) -> dict:
    """A2 square [1,2]^2; canonical potential plus a small quadratic."""
    rng = random.Random(1000 + variant)
    terms = {
        (2, 0): Fraction(rng.randint(1, 6), 60),
        (1, 1): Fraction(rng.randint(-3, 3), 60),
        (0, 2): Fraction(rng.randint(1, 6), 60),
    }
    return {"vertices": box((1, 1), (1, 1)), "terms": terms}


def _two_d_pieces(rng: random.Random, corner, count: int):
    """Integer-gradient pieces on the 2x1 box with integral kinks.

    Two pieces: one vertical kink x = x0 + 1, so f has two square cells.
    Three pieces: two diagonal kinks from the middle of the bottom edge (or,
    mirrored, the top edge) to the far corners, so f has three triangular
    cells. Every kink is integral, so the admissible modulus stays 1 and the
    oracle samples k = 1, 2, 3, ...; the seed moves the box and the shared
    affine part but never the cells' shape.
    """
    x0, y0 = corner
    g0 = (rng.randint(0, 1), rng.randint(0, 1))
    c0 = rng.randint(0, 1)
    if count == 2:
        return [(g0, c0), ((g0[0] + 1, g0[1]), c0 - (x0 + 1))]
    j = rng.randint(0, 1)  # kinks meet at (x0 + 1, y0 + j)
    s = 1 - 2 * j  # and run towards the opposite edge
    t = s * (y0 + j)
    return [
        (g0, c0),
        ((g0[0] - 1, g0[1] - s), c0 + (x0 + 1) + t),
        ((g0[0] + 1, g0[1] - s), c0 - (x0 + 1) + t),
    ]


# ---------------------------------------------------------------------------
# workload builders
# ---------------------------------------------------------------------------

def build(workload: str, seed: int, work_dir: str, root: str) -> list[Job]:
    if workload == "oracle-walk":
        jobs = _oracle_walk(seed)
    elif workload == "closed-form":
        jobs = _closed_form(seed)
    elif workload == "float-quadrature":
        jobs = _float_quadrature(seed)
    elif workload == "small-jobs":
        jobs = _small_jobs(seed, work_dir, root)
    else:
        raise ValueError("unknown workload %r" % workload)
    if len({job.name for job in jobs}) != len(jobs):
        raise ValueError("job names must be unique: checks look outputs up by name")
    return jobs


def _cross_check_job(name, rs, P, f, R, kmax, expected=None) -> Job:
    from kstab import futaki

    def run():
        rep = futaki.futaki_cross_check(rs, P, f, R, kmax=kmax)
        return {
            "F1_closed": fmt(rep.F1_closed),
            "F1_oracle": fmt(rep.F1_oracle),
            "agreement": rep.agreement,
            "ks": list(rep.oracle_details.ks),
        }

    def check(out, _):
        problems = []
        if out["agreement"] is not True or out["F1_closed"] != out["F1_oracle"]:
            problems.append("closed form and oracle disagree at R or R+1")
        if expected is not None and out["F1_closed"] != expected:
            problems.append("F1 %s != pinned %s" % (out["F1_closed"], expected))
        if out["ks"] != list(range(1, len(out["ks"]) + 1)):
            problems.append("admissible modulus is not 1: k = %s" % out["ks"])
        return problems

    return Job(name, "futaki --oracle", run, check)


def _oracle_walk(seed: int) -> list[Job]:
    from kstab import polytope, rootsystem

    RP, PA = polytope.RationalPolytope, polytope.PiecewiseAffine
    rng = random.Random(seed)
    jobs = [
        _cross_check_job(
            "A3 [1,2]^3 f=max(x_i)",
            rootsystem.build_classical("A", 3),
            RP.from_vertices(box((1, 1, 1), (1, 1, 1))),
            PA.from_pieces([(unit(3, i), 0) for i in range(3)]),
            3,
            None,
            PINNED["A3 [1,2]^3 f=max(x_i)"],
        )
    ]
    for series, count, kmax in (("A", 2, 16), ("B", 3, 16), ("G2", 2, 16)):
        corner = (rng.randint(1, 2), rng.randint(1, 3))
        pieces = _two_d_pieces(rng, corner, count)
        jobs.append(
            _cross_check_job(
                "%s2 2x1 box at %s, %d pieces" % (series[0], corner, count),
                rootsystem.build_classical(series, 2),
                RP.from_vertices(box(corner, (2, 1))),
                PA.from_pieces(pieces),
                3,
                kmax,
            )
        )
    return jobs


def _closed_form(seed: int) -> list[Job]:
    from kstab import futaki, polytope, rootsystem

    variant = seed % VARIANTS
    data = closed_form_inputs(variant)
    refs = load_references()["closed-form"][str(variant)]
    P = polytope.RationalPolytope.from_vertices(data["vertices"])
    f = polytope.PiecewiseAffine.from_pieces(data["pieces"])
    jobs = []
    for series in ("A", "B"):
        rs = rootsystem.build_classical(series, 3)
        ref = refs[series + "3"]

        def run(rs=rs):
            return {
                "F1": fmt(futaki.futaki_closed_form(rs, P, f)),
                "vol_W": fmt(futaki.volume_w(rs, P)),
                "a": fmt(futaki.average_scalar(rs, P)),
            }

        def check(out, _, ref=ref):
            return ["%s %s != reference %s" % (k, out[k], ref[k]) for k in ref if out[k] != ref[k]]

        jobs.append(Job("%s3 %s" % (series, data["label"]), "futaki", run, check))
    return jobs


def _float_quadrature(seed: int) -> list[Job]:
    from kstab import mabuchi, polynomial, polytope, quadrature, rootsystem

    variant = seed % VARIANTS
    data = float_quadrature_inputs(variant)
    ref = load_references()["float-quadrature"][str(variant)]
    rs = rootsystem.build_classical("A", 2)
    P = polytope.RationalPolytope.from_vertices(data["vertices"])
    pert = polynomial.MultivariatePolynomial(2, data["terms"])
    label = "A2 [1,2]^2, perturbation %s" % pert

    def run_mabuchi():
        u = mabuchi.SymplecticPotential(P, perturbation=pert)
        spec = quadrature.GradedQuadratureSpec(depth=4, nodes=4)
        res = mabuchi.mabuchi_eval(rs, u, "csc", spec)
        return {"value": repr(res.value), "error": repr(res.error)}

    def check_mabuchi(out, _):
        value, error = float(out["value"]), float(out["error"])
        if abs(value - ref["value"]) > error:
            return ["F_A %r lies farther than its error estimate %r from the reference %r"
                    % (value, error, ref["value"])]
        return []

    def run_identity():
        u = mabuchi.SymplecticPotential(P, perturbation=pert)
        p = rootsystem.dh_weight(rs)
        spec = quadrature.GradedQuadratureSpec(depth=2, nodes=3)
        val, err = quadrature.graded_integral(
            lambda x: mabuchi.scalar_curvature(rs, u, x) * p.evaluate_float(list(x)), P, spec
        )
        return {"integral": repr(val), "error": repr(err)}

    def check_identity(out, _):
        from kstab import futaki

        exact = futaki.average_scalar(rs, P) * futaki.volume_w(rs, P)
        if abs(float(out["integral"]) - float(exact)) > IDENTITY_RTOL * float(exact):
            return ["int S W = %s, a Vol_W = %s" % (out["integral"], fmt(exact))]
        return []

    return [
        Job("mabuchi csc depth 4 nodes 4, " + label, "mabuchi_eval", run_mabuchi, check_mabuchi),
        Job("int S W depth 2 nodes 3, " + label, "graded_integral", run_identity, check_identity),
    ]


# ---------------------------------------------------------------------------
# small-jobs: the command line, in process
# ---------------------------------------------------------------------------

def _cli_job(name: str, kind: str, argv: list, check) -> Job:
    from kstab import cli

    def run():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        text = out.getvalue()
        report = None
        if text.startswith("{"):
            report, end = json.JSONDecoder().raw_decode(text)
            text = text[end:]
        return {"code": code, "report": report, "text": text.strip(), "stderr": err.getvalue()}

    return Job(name, kind, run, check)


def _spec(series: str, rank: int, vertices, pieces, R) -> dict:
    return {
        "schema": "kstab/1",
        "root_system": {"series": series, "rank": rank},
        "polytope": {"vertices": [[str(x) for x in v] for v in vertices]},
        "pl_function": {
            "pieces": [{"a": [str(x) for x in a], "b": str(b)} for a, b in pieces]
        },
        "R": str(R),
    }


def _box_integrals(lo, hi):
    """Exact int of sum x_i^2 over a box, and half its boundary integral.

    These are pick's c_top and c_next for its default test function. Facets
    of an integer box are unimodular, so the canonical boundary measure is
    plain Lebesgue measure on each facet; in dimension one it is a unit
    point mass at each end.
    """
    n = len(lo)
    side = [Fraction(h - l) for l, h in zip(lo, hi)]
    cube = [Fraction(h**3 - l**3, 3) for l, h in zip(lo, hi)]
    if n == 1:
        return cube[0], Fraction(lo[0] ** 2 + hi[0] ** 2, 2)
    vol = math.prod(side)
    top = sum(cube[i] * vol / side[i] for i in range(n))
    bd = Fraction(0)
    for i in range(n):
        face = vol / side[i]
        for x in (lo[i], hi[i]):
            bd += x * x * face + sum(cube[j] * face / side[j] for j in range(n) if j != i)
    return top, bd / 2


def _a_series_dimension(lam) -> int:
    """Weyl dimension formula for A_n in fundamental-weight coordinates."""
    num, den = 1, 1
    n = len(lam)
    for i in range(n):
        for j in range(i, n):
            num *= sum(lam[i : j + 1]) + (j - i + 1)
            den *= j - i + 1
    return num // den


def _a1_energy(a: int, b: int) -> float:
    """F_0 of the canonical potential on [a, b] for A1, where p(x) = x.

    u'' = L / (2 (x - a)(b - x)) with L = b - a, so
    int x log u'' = log(L/2)(b^2 - a^2)/2 - (a + b)(L log L - L), and the
    boundary term is sum_v u(v) p(v) = (a + b) L log L / 2.
    """
    L = b - a
    bulk = math.log(L / 2) * (b * b - a * a) / 2 - (a + b) * (L * math.log(L) - L)
    return -bulk + (a + b) * L * math.log(L)


def _ok_code(out, code=0):
    if out["code"] != code:
        return ["exit code %s, expected %s (%s)" % (out["code"], code, out["stderr"].strip())]
    return []


def _small_jobs(seed: int, work_dir: str, root: str) -> list[Job]:
    rng = random.Random(seed)
    specs = []  # (label, path, data, lo, hi, expected F1 or None)

    def add(label, data, lo, hi, expected=None, path=None):
        label = "#%02d %s" % (len(specs), label)  # job names must be unique
        if path is None:
            path = os.path.join(work_dir, "spec%02d.json" % len(specs))
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(data, fh)
        specs.append((label, path, data, lo, hi, expected))

    shipped = os.path.join(root, "specs")
    add("su2_interval.json", None, (1,), (2,), PINNED["A1 [1,2] f=x"],
        os.path.join(shipped, "su2_interval.json"))
    add("su3_square.json", None, (1, 1), (2, 2), PINNED["A2 [1,2]^2 f=max(x,y)"],
        os.path.join(shipped, "su3_square.json"))
    add("A1 [1,2] kink", _spec("A", 1, [(1,), (2,)], [((0,), 0), ((2,), -3)], 2),
        (1,), (2,), PINNED["A1 [1,2] f=max(0,2x-3)"])
    max_xy = [((1, 0), 0), ((0, 1), 0)]
    add("B2 [1,2]^2 max(x,y)", _spec("B", 2, box((1, 1), (1, 1)), max_xy, 3),
        (1, 1), (2, 2), PINNED["B2 [1,2]^2 f=max(x,y)"])
    add("G2 [1,2]^2 max(x,y)", _spec("G2", 2, box((1, 1), (1, 1)), max_xy, 3),
        (1, 1), (2, 2), PINNED["G2 [1,2]^2 f=max(x,y)"])
    for i in range(12):
        a, c = rng.randint(1, 3), rng.randint(0, 1)
        pieces = (
            [((1,), rng.randint(0, 2))],  # affine
            [((0,), 0), ((1,), -a - rng.randint(0, 1))],  # kink at an end
            [((0,), c), ((2,), c - 2 * a - 1)],  # kink at the midpoint
        )[i % 3]
        add("A1 [%d,%d] seeded" % (a, a + 1), _spec("A", 1, [(a,), (a + 1,)], pieces, 3),
            (a,), (a + 1,))
    for series in ("A", "A", "B", "B"):
        corner = (rng.randint(1, 3), rng.randint(1, 3))
        g = (rng.randint(0, 1), rng.randint(0, 1))
        # the kink x - y = corner_x - corner_y is the square's diagonal
        pieces = [(g, 0), ((g[0] + 1, g[1] - 1), corner[1] - corner[0])]
        add("%s2 unit square at %s" % (series, corner),
            _spec(series, 2, box(corner, (1, 1)), pieces, 3),
            corner, tuple(c + 1 for c in corner))

    jobs = []
    for label, path, _, lo, hi, expected in specs:
        oracle_name = "futaki --oracle " + label

        def check_oracle(out, _, expected=expected):
            problems = _ok_code(out)
            rep = out["report"] or {}
            if rep.get("agreement") is not True or rep.get("F1_closed") != rep.get("F1_oracle"):
                problems.append("closed form and oracle disagree at R or R+1")
            if expected is not None and rep.get("F1_closed") != expected:
                problems.append("F1 %s != pinned %s" % (rep.get("F1_closed"), expected))
            return problems

        def check_closed(out, outs, expected=expected, oracle_name=oracle_name):
            problems = _ok_code(out)
            want = expected or ((outs.get(oracle_name) or {}).get("report") or {}).get("F1_oracle")
            got = (out["report"] or {}).get("F1_closed")
            if got != want:
                problems.append("F1 %s != reference %s" % (got, want))
            return problems

        top, nxt = _box_integrals(lo, hi)

        def check_pick(out, _, top=top, nxt=nxt):
            problems = _ok_code(out)
            fit = (out["report"] or {}).get("fit", {})
            if out["report"] is None or out["report"].get("passed") is not True:
                problems.append("pick check did not pass")
            if fit.get("c_top") != fmt(top) or fit.get("c_next") != fmt(nxt):
                problems.append("pick coefficients %s, %s != %s, %s"
                                % (fit.get("c_top"), fit.get("c_next"), fmt(top), fmt(nxt)))
            return problems

        common = ["--spec", path, "--no-meta"]
        jobs.append(_cli_job("futaki " + label, "futaki", ["futaki"] + common, check_closed))
        if " G2 " not in label:  # the G2 oracle takes ~0.5 s, not a small job
            jobs.append(_cli_job(oracle_name, "futaki --oracle", ["futaki", "--oracle"] + common,
                                 check_oracle))
        jobs.append(_cli_job("pick " + label, "pick", ["pick"] + common, check_pick))
        if len(lo) == 1:
            a, b = lo[0], hi[0]

            def check_scalar(out, _, a=a, b=b):
                problems = _ok_code(out)
                rep = out["report"] or {}
                if rep.get("average_identity_ok") is not True:
                    problems.append("average identity failed")
                if rep.get("a_times_vol") != str(3 * b - a):
                    problems.append("a Vol_W %s != %d" % (rep.get("a_times_vol"), 3 * b - a))
                return problems

            def check_mabuchi(out, _, a=a, b=b):
                # The CLI exits 1 when the error estimate exceeds --tol; that
                # outcome is counted in fail_frac, but the report must still
                # be honest: flagged iff error > tol, value within its error.
                rep = out["report"] or {}
                value, error = float(rep.get("value", "nan")), float(rep.get("error_estimate", "nan"))
                problems = _ok_code(out, 1 if rep.get("flagged") else 0)
                if rep.get("flagged") is not (error > 1e-6):
                    problems.append("flagged=%s with error estimate %r" % (rep.get("flagged"), error))
                exact = _a1_energy(a, b)
                if not abs(value - exact) <= error:
                    problems.append("F_0 %r farther than its error %r from %r" % (value, error, exact))
                return problems

            jobs.append(_cli_job("scalar " + label, "scalar", ["scalar"] + common, check_scalar))
            jobs.append(_cli_job("mabuchi " + label, "mabuchi", ["mabuchi"] + common, check_mabuchi))

    for i in range(20):
        rank = 1 + i % 3
        lam = [rng.randint(0, 4) for _ in range(rank)]
        want = str(_a_series_dimension(lam))

        def check_dims(out, _, want=want):
            problems = _ok_code(out)
            if out["text"] != want:
                problems.append("dimension %s != %s" % (out["text"], want))
            return problems

        argv = ["dims", "--series", "A", "--rank", str(rank), "--lambda", ",".join(map(str, lam))]
        jobs.append(_cli_job("dims #%02d A%d %s" % (i, rank, lam), "dims", argv, check_dims))
    return jobs


def flagged_exit(job: Job, out: dict) -> bool:
    """True for a mabuchi job that exits 1 because its report is flagged."""
    return (
        job.kind == "mabuchi"
        and out.get("code") == 1
        and (out.get("report") or {}).get("flagged") is True
    )
