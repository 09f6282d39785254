"""Outside-in layer timing for kstab, done from the benchmark's own files.

Each traced function is replaced, for the length of a traced pass, by a
wrapper that counts its calls and times them. kstab modules call their
dependencies through names bound by ``from .x import y``, so every binding
of a function is replaced, not only the one in its defining module; methods
are replaced on their class. Nothing under ``src/`` is edited.

Three wrapper kinds keep the overhead low where calls are many:

* ``span``: a frame on the tracer's stack. ``total_s`` counts only the
  outermost activation of a recursive function; ``self_s`` is the span's
  time minus the time of the traced calls made inside it.
* ``leaf``: timed, but pushes no frame, so it must not call a traced span.
  Used for the hot leaves (``weyl_eval``, the potential's Hessians) that run
  ~10^5 times per job.
* ``count``: calls only, no clock.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field

MODULES = (
    "polynomial",
    "rootsystem",
    "polytope",
    "quadrature",
    "futaki",
    "pick",
    "mabuchi",
    "specio",
    "cli",
)


@dataclass(frozen=True)
class Layer:
    name: str  # "<module>.<function>", the prefix of its metric names
    attr: str  # attribute path in the module, e.g. "RationalPolytope.from_halfspaces"
    kind: str = "span"
    distinct: bool = False  # record distinct argument tuples per pass
    points: bool = False  # sum len(result)
    evals: bool = False  # count calls of the integrand passed as first argument

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]


LAYERS = (
    Layer("polynomial.mul", "MultivariatePolynomial.__mul__"),
    Layer("polynomial.substitute_affine", "MultivariatePolynomial.substitute_affine"),
    Layer("polynomial.evaluate_float", "MultivariatePolynomial.evaluate_float", kind="count"),
    Layer("rootsystem.weyl_eval", "weyl_eval", kind="leaf", distinct=True),
    Layer("rootsystem.dh_weight", "dh_weight"),
    Layer("rootsystem.dh_weight_gradient_sum", "dh_weight_gradient_sum"),
    Layer("rootsystem.build_classical", "build_classical"),
    Layer("rootsystem.build_from_cartan", "build_from_cartan"),
    Layer("rootsystem.dimension", "dimension"),
    Layer("polytope.from_vertices", "RationalPolytope.from_vertices"),
    Layer("polytope.from_halfspaces", "RationalPolytope.from_halfspaces"),
    Layer("polytope.triangulate", "triangulate"),
    Layer("polytope.facet_chart", "facet_chart"),
    Layer("polytope.pl_cells", "pl_cells", distinct=True),
    Layer("polytope.dilated_lattice_points", "dilated_lattice_points", distinct=True, points=True),
    Layer("polytope.lattice_points", "lattice_points"),
    Layer("quadrature.integral_over_simplex", "integral_over_simplex"),
    Layer("quadrature.integral_polytope", "integral_polytope", distinct=True),
    Layer("quadrature.boundary_integral", "boundary_integral"),
    Layer("quadrature.integral_pl_poly", "integral_pl_poly"),
    Layer("quadrature.boundary_integral_pl_poly", "boundary_integral_pl_poly"),
    Layer("quadrature.graded_integral", "graded_integral", evals=True),
    Layer("futaki.volume_w", "volume_w"),
    Layer("futaki.average_scalar", "average_scalar"),
    Layer("futaki.futaki_closed_form", "futaki_closed_form"),
    Layer("futaki.weighted_count_dk", "weighted_count_dk"),
    Layer("futaki.weighted_weight_wk", "weighted_weight_wk"),
    Layer("futaki.admissible_modulus", "admissible_modulus"),
    Layer("futaki.interpolate_coefficients", "interpolate_coefficients"),
    Layer("futaki.ehrhart_fit", "ehrhart_fit"),
    Layer("futaki.futaki_cross_check", "futaki_cross_check"),
    Layer("pick.pick_sum", "pick_sum"),
    Layer("pick.pick_check", "pick_check"),
    Layer("mabuchi.potential_init", "SymplecticPotential.__init__"),
    Layer("mabuchi.hessian", "SymplecticPotential.hessian", kind="leaf", distinct=True),
    Layer("mabuchi.d_hessian", "SymplecticPotential.d_hessian", kind="leaf"),
    Layer("mabuchi.d2_hessian", "SymplecticPotential.d2_hessian", kind="leaf"),
    Layer("mabuchi.scalar_curvature", "scalar_curvature"),
    Layer("mabuchi.mabuchi_eval", "mabuchi_eval"),
    Layer("mabuchi.interior_grid", "interior_grid"),
    Layer("specio.load_jobspec", "load_jobspec"),
    Layer("cli.main", "main"),
)

# The per-layer metrics the traced run reports, in BENCHMARK.json order.
_STAT_UNITS = {
    "calls": "count",
    "total_s": "s",
    "self_s": "s",
    "points": "count",
    "integrand_evals": "count",
    "distinct_ratio": "ratio",
}
_REPORTED = (
    ("polytope.dilated_lattice_points", ("calls", "self_s", "points", "distinct_ratio")),
    ("futaki.weighted_weight_wk", ("calls", "self_s")),
    ("futaki.weighted_count_dk", ("calls", "self_s")),
    ("rootsystem.weyl_eval", ("calls", "total_s", "distinct_ratio")),
    ("futaki.admissible_modulus", ("calls", "total_s")),
    ("polytope.pl_cells", ("calls", "total_s", "distinct_ratio")),
    ("polytope.from_halfspaces", ("calls", "total_s")),
    ("futaki.interpolate_coefficients", ("calls", "total_s")),
    ("quadrature.integral_over_simplex", ("calls", "self_s")),
    ("polynomial.substitute_affine", ("calls", "self_s")),
    ("polynomial.mul", ("calls", "self_s")),
    ("quadrature.integral_polytope", ("calls", "total_s", "distinct_ratio")),
    ("quadrature.boundary_integral", ("calls", "total_s")),
    ("quadrature.integral_pl_poly", ("calls", "total_s")),
    ("quadrature.boundary_integral_pl_poly", ("calls", "total_s")),
    ("futaki.average_scalar", ("calls",)),
    ("futaki.volume_w", ("calls",)),
    ("rootsystem.dh_weight", ("calls",)),
    ("rootsystem.dh_weight_gradient_sum", ("calls",)),
    ("polytope.triangulate", ("calls", "total_s")),
    ("polytope.facet_chart", ("calls", "total_s")),
    ("polytope.from_vertices", ("calls", "total_s")),
    ("quadrature.graded_integral", ("calls", "self_s", "integrand_evals")),
    ("mabuchi.hessian", ("calls", "total_s", "distinct_ratio")),
    ("mabuchi.d_hessian", ("calls", "total_s")),
    ("mabuchi.d2_hessian", ("calls", "total_s")),
    ("mabuchi.scalar_curvature", ("calls", "total_s")),
    ("mabuchi.mabuchi_eval", ("calls", "total_s")),
    ("polynomial.evaluate_float", ("calls",)),
    ("specio.load_jobspec", ("calls", "total_s")),
    ("cli.main", ("calls", "self_s")),
    ("pick.pick_sum", ("calls", "total_s")),
    ("polytope.lattice_points", ("calls", "total_s")),
)
PER_LAYER = tuple(
    ("%s.%s" % (name, stat), _STAT_UNITS[stat]) for name, stats in _REPORTED for stat in stats
) + (("trace.overhead_frac", "ratio"),)

# Functions each workload must exercise; a traced run that records zero
# calls for one of them is a failed self-test.
REQUIRED = {
    "oracle-walk": (
        "polytope.dilated_lattice_points",
        "futaki.weighted_weight_wk",
        "futaki.weighted_count_dk",
        "rootsystem.weyl_eval",
        "futaki.admissible_modulus",
        "polytope.pl_cells",
        "polytope.from_halfspaces",
        "futaki.interpolate_coefficients",
    ),
    "closed-form": (
        "quadrature.integral_over_simplex",
        "polynomial.substitute_affine",
        "polynomial.mul",
        "quadrature.integral_polytope",
        "quadrature.boundary_integral",
        "quadrature.integral_pl_poly",
        "quadrature.boundary_integral_pl_poly",
        "futaki.average_scalar",
        "futaki.volume_w",
        "rootsystem.dh_weight",
        "rootsystem.dh_weight_gradient_sum",
        "polytope.triangulate",
        "polytope.facet_chart",
        "polytope.from_vertices",
    ),
    "float-quadrature": (
        "quadrature.graded_integral",
        "mabuchi.hessian",
        "mabuchi.d_hessian",
        "mabuchi.d2_hessian",
        "mabuchi.scalar_curvature",
        "mabuchi.mabuchi_eval",
        "polynomial.evaluate_float",
    ),
    "small-jobs": (
        "specio.load_jobspec",
        "cli.main",
        "pick.pick_sum",
        "polytope.lattice_points",
        "polytope.triangulate",
        "polytope.facet_chart",
        "polytope.from_vertices",
    ),
}


@dataclass
class Stats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    points: int = 0
    integrand_evals: int = 0
    distinct: int = 0  # summed over finished passes
    active: int = 0
    seen: set = field(default_factory=set)


def _key(args, kwargs):
    key = (args, tuple(sorted(kwargs.items()))) if kwargs else args
    try:
        hash(key)
        return key
    except TypeError:
        return _freeze(key)


def _freeze(v):
    if isinstance(v, (list, tuple)):
        return tuple(_freeze(x) for x in v)
    if hasattr(v, "tobytes"):  # numpy arrays
        return (v.shape, v.tobytes())
    try:
        hash(v)
        return v
    except TypeError:
        return ("id", id(v))


class Tracer:
    """Installs the wrappers on every binding and collects their counters."""

    def __init__(self) -> None:
        self.stats = {layer.name: Stats() for layer in LAYERS}
        self._stack = [[0.0]]  # one child-time accumulator per open span
        self._patches: list[tuple[object, str, object]] = []
        self._originals: list[tuple[str, object]] = []
        self._wrappers: set[int] = set()

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, layer: Layer):
        st = self.stats[layer.name]
        stack = self._stack
        clock = time.perf_counter

        if layer.kind == "count":
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                st.calls += 1
                return fn(*args, **kwargs)

            return counted

        if layer.kind == "leaf":
            distinct = layer.distinct

            @functools.wraps(fn)
            def leaf(*args, **kwargs):
                if distinct:
                    st.seen.add(_key(args, kwargs))
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    st.calls += 1
                    st.total_s += dt
                    st.self_s += dt
                    stack[-1][0] += dt

            return leaf

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if layer.distinct:
                st.seen.add(_key(args, kwargs))
            if layer.evals:
                args = (self._counting(args[0], st),) + args[1:]
            frame = [0.0]
            stack.append(frame)
            st.active += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                st.active -= 1
                stack.pop()
                st.calls += 1
                st.self_s += dt - frame[0]
                if not st.active:
                    st.total_s += dt
                stack[-1][0] += dt
            if layer.points:
                st.points += len(result)
            return result

        return span

    @staticmethod
    def _counting(fn, st: Stats):
        def integrand(*args):
            st.integrand_evals += 1
            return fn(*args)

        return integrand

    # -- installing ----------------------------------------------------------

    @staticmethod
    def modules():
        for name in MODULES:
            importlib.import_module("kstab." + name)
        return [m for n, m in sorted(sys.modules.items()) if n == "kstab" or n.startswith("kstab.")]

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = self.modules()
        self._originals, self._wrappers = [], set()
        for layer in LAYERS:
            owner = sys.modules["kstab." + layer.module]
            *path, attr = layer.attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = vars(owner)[attr]
            func = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
            wrapper = self._wrap(func, layer)
            self._wrappers.add(id(wrapper))
            self._originals.append((layer.name, func))
            if isinstance(owner, type):
                bound = type(raw)(wrapper) if raw is not func else wrapper
                for name, value in list(vars(owner).items()):
                    if value is raw:  # e.g. __rmul__ = __mul__
                        self._patch(owner, name, bound)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is func:
                        self._patch(module, name, wrapper)

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, value = self._patches.pop()
            setattr(owner, name, value)

    def unwrapped_bindings(self) -> list[str]:
        """Places in kstab that still reach an original traced function.

        Looks at module globals, class attributes, default arguments and
        closure cells. Empty while the tracer is installed and complete.
        """
        originals = {id(func): name for name, func in self._originals}
        found = []

        def check(where: str, value) -> None:
            if isinstance(value, (classmethod, staticmethod)):
                value = value.__func__
            if id(value) in originals and value is not None:
                found.append("%s -> %s" % (where, originals[id(value)]))

        def check_function(where: str, fn) -> None:
            if id(fn) in self._wrappers:
                return
            for i, d in enumerate(getattr(fn, "__defaults__", None) or ()):
                check("%s default %d" % (where, i), d)
            for i, cell in enumerate(getattr(fn, "__closure__", None) or ()):
                try:
                    check("%s closure %d" % (where, i), cell.cell_contents)
                except ValueError:  # empty cell
                    pass

        for module in self.modules():
            for name, value in vars(module).items():
                where = "%s.%s" % (module.__name__, name)
                check(where, value)
                if isinstance(value, type) and value.__module__ == module.__name__:
                    for attr, member in vars(value).items():
                        check("%s.%s" % (where, attr), member)
                        check_function("%s.%s" % (where, attr), getattr(member, "__func__", member))
                elif callable(value) and getattr(value, "__module__", None) == module.__name__:
                    check_function(where, value)
        return found

    # -- reading -------------------------------------------------------------

    def end_pass(self) -> None:
        for st in self.stats.values():
            st.distinct += len(st.seen)
            st.seen.clear()

    def snapshot(self) -> dict[str, tuple[int, int, int]]:
        """(calls, points, integrand evaluations) per layer, for job sizes."""
        return {
            name: (st.calls, st.points, st.integrand_evals) for name, st in self.stats.items()
        }

    def metrics(self) -> dict[str, dict]:
        """Every per-layer metric; the caller fills in trace.overhead_frac."""
        out = {}
        for metric, unit in PER_LAYER:
            if metric == "trace.overhead_frac":
                value = 0.0
            else:
                name, stat = metric.rsplit(".", 1)
                st = self.stats[name]
                if stat == "distinct_ratio":
                    value = st.distinct / st.calls if st.calls else 0.0
                else:
                    value = getattr(st, stat)
            out[metric] = {"value": value, "unit": unit}
        return out

    def missing(self, workload: str) -> list[str]:
        return [name for name in REQUIRED[workload] if self.stats[name].calls == 0]
