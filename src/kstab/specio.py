"""Job spec files: parsing and validation.

A job spec is a single JSON document describing the root system, the moment
polytope and the optional degeneration, potential and ``options.pick_h``
data: a job's only input, parsed and checked whole by ``load_jobspec``.
Every rational is a 'p/q' string or an integer; floats are rejected so the
exact pipeline never sees a rounded input.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .polynomial import MultivariatePolynomial
from .polytope import PiecewiseAffine, RationalPolytope
from .rootsystem import RootSystem, build_classical, build_from_cartan

SCHEMA = "kstab/1"


class SpecError(ValueError):
    """Malformed job spec; the message names the offending field."""


def _check_keys(data, where: str, known: tuple[str, ...]) -> dict:
    """``data``, once it is an object with no key outside ``known``: no misspelt key is dropped."""
    if not isinstance(data, dict):
        raise SpecError("%s: expected an object" % where)
    for key in data:
        if key not in known:
            raise SpecError("%s: unknown key %r" % (where, key))
    return data


def parse_int(value, where: str) -> int:
    """A JSON integer, taken as is: floats, strings and booleans are refused."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecError("%s: expected an integer, got %r" % (where, value))
    return value


def parse_rational(value, where: str) -> Fraction:
    if isinstance(value, bool) or isinstance(value, float):
        raise SpecError("%s: rationals must be integers or 'p/q' strings" % where)
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise SpecError("%s: cannot parse rational %r" % (where, value)) from None
    raise SpecError("%s: unsupported rational %r" % (where, value))


def parse_root_system(data, where: str = "root_system") -> RootSystem:
    _check_keys(data, where, ("series", "rank", "cartan"))
    if "cartan" in data:
        if "series" in data or "rank" in data:
            raise SpecError("%s: give either 'series'/'rank' or 'cartan', not both" % where)
        try:
            return build_from_cartan(data["cartan"])
        except ValueError as exc:
            raise SpecError("%s.cartan: %s" % (where, exc)) from None
    if "series" in data:
        series = data["series"]
        if not isinstance(series, str):
            raise SpecError("%s.series: expected a string, got %r" % (where, series))
        rank = parse_int(data.get("rank", 0), "%s.rank" % where)
        try:
            return build_classical(series, rank)
        except ValueError as exc:
            raise SpecError("%s: %s" % (where, exc)) from None
    raise SpecError("%s: need either 'series'/'rank' or 'cartan'" % where)


def parse_polytope(data, where: str = "polytope") -> RationalPolytope:
    _check_keys(data, where, ("vertices", "halfspaces"))
    if "vertices" in data and "halfspaces" in data:
        raise SpecError("%s: give either 'vertices' or 'halfspaces', not both" % where)
    try:
        if "vertices" in data:
            pts = [
                [parse_rational(x, "%s.vertices[%d][%d]" % (where, i, j)) for j, x in enumerate(p)]
                for i, p in enumerate(data["vertices"])
            ]
            return RationalPolytope.from_vertices(pts)
        if "halfspaces" in data:
            hs = []
            for i, item in enumerate(data["halfspaces"]):
                _check_keys(item, "%s.halfspaces[%d]" % (where, i), ("normal", "offset"))
                normal = [
                    parse_rational(x, "%s.halfspaces[%d].normal[%d]" % (where, i, j))
                    for j, x in enumerate(item["normal"])
                ]
                offset = parse_rational(item["offset"], "%s.halfspaces[%d].offset" % (where, i))
                hs.append((normal, offset))
            return RationalPolytope.from_halfspaces(hs)
    except SpecError:
        raise
    except (ValueError, KeyError, TypeError) as exc:
        raise SpecError("%s: %s" % (where, exc)) from None
    raise SpecError("%s: need either 'vertices' or 'halfspaces'" % where)


def parse_pl_function(data, where: str = "pl_function") -> PiecewiseAffine:
    _check_keys(data, where, ("pieces",))
    if not isinstance(data.get("pieces"), list):
        raise SpecError("%s.pieces: expected a list" % where)
    pieces = []
    for i, item in enumerate(data["pieces"]):
        _check_keys(item, "%s.pieces[%d]" % (where, i), ("a", "b"))
        try:
            a = [
                parse_rational(x, "%s.pieces[%d].a[%d]" % (where, i, j))
                for j, x in enumerate(item["a"])
            ]
            b = parse_rational(item["b"], "%s.pieces[%d].b" % (where, i))
        except (KeyError, TypeError) as exc:
            raise SpecError("%s.pieces[%d]: %s" % (where, i, exc)) from None
        pieces.append((a, b))
    try:
        return PiecewiseAffine.from_pieces(pieces)
    except ValueError as exc:
        raise SpecError("%s: %s" % (where, exc)) from None


def parse_polynomial(data, where: str, dim: int) -> MultivariatePolynomial:
    """A polynomial object whose ``nvars`` must equal ``dim``, the polytope dimension."""
    _check_keys(data, where, ("nvars", "terms"))
    nvars = parse_int(data.get("nvars"), "%s.nvars" % where)
    if nvars != dim:
        raise SpecError(
            "%s.nvars: expected %d, the polytope dimension, got %d" % (where, dim, nvars)
        )
    try:
        terms = {}
        for i, item in enumerate(data.get("terms", [])):
            _check_keys(item, "%s.terms[%d]" % (where, i), ("exp", "coef"))
            exp = tuple(
                parse_int(e, "%s.terms[%d].exp[%d]" % (where, i, j))
                for j, e in enumerate(item["exp"])
            )
            terms[exp] = parse_rational(item["coef"], "%s.terms[%d].coef" % (where, i))
        return MultivariatePolynomial(nvars, terms)
    except SpecError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecError("%s: %s" % (where, exc)) from None


def parse_potential(data, where: str, dim: int) -> MultivariatePolynomial | None:
    """A potential object's perturbation g on a polytope of ``dim``: the potential is u_sigma + g."""
    _check_keys(data, where, ("perturbation",))
    if "perturbation" not in data:
        return None
    return parse_polynomial(data["perturbation"], "%s.perturbation" % where, dim)


@dataclass(frozen=True)
class JobSpec:
    """Validated job input for the command-line pipelines."""

    root_system: RootSystem
    polytope: RationalPolytope
    pl_function: PiecewiseAffine | None = None
    R: Fraction | None = None
    potential_perturbation: MultivariatePolynomial | None = None
    pick_h: MultivariatePolynomial | None = None


def parse_jobspec(data) -> JobSpec:
    known = ("schema", "root_system", "polytope", "pl_function", "R", "potential", "options")
    _check_keys(data, "spec", known)
    schema = data.get("schema", SCHEMA)
    if schema != SCHEMA:
        raise SpecError("spec.schema: unsupported schema %r (want %r)" % (schema, SCHEMA))
    if "root_system" not in data:
        raise SpecError("spec.root_system: missing")
    if "polytope" not in data:
        raise SpecError("spec.polytope: missing")
    rs = parse_root_system(data["root_system"])
    P = parse_polytope(data["polytope"])
    f = parse_pl_function(data["pl_function"]) if "pl_function" in data else None
    R = parse_rational(data["R"], "spec.R") if "R" in data else None
    perturbation = parse_potential(data.get("potential", {}), "spec.potential", P.dim)
    options = _check_keys(data.get("options", {}), "spec.options", ("pick_h",))
    pick_h = None
    if "pick_h" in options:
        pick_h = parse_polynomial(options["pick_h"], "spec.options.pick_h", P.dim)
    if rs.rank != P.dim:
        raise SpecError(
            "spec: root system rank %d does not match polytope dimension %d"
            % (rs.rank, P.dim)
        )
    if f is not None and f.nvars != P.dim:
        raise SpecError("spec.pl_function: dimension mismatch with the polytope")
    return JobSpec(
        root_system=rs,
        polytope=P,
        pl_function=f,
        R=R,
        potential_perturbation=perturbation,
        pick_h=pick_h,
    )


def load_jobspec(path: str) -> JobSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise SpecError("cannot read spec file %s: %s" % (path, exc)) from None
    except json.JSONDecodeError as exc:
        raise SpecError("spec file %s: line %d: %s" % (path, exc.lineno, exc.msg)) from None
    return parse_jobspec(data)
