"""Stability invariants of toric fibrations from polytope and root data.

Exact rational pipelines (hull, lattice counts, polynomial integration) feed
two independent computations of the Futaki invariant of a piecewise-linear
degeneration, plus the scalar curvature operator and the Mabuchi energy of
symplectic potentials.

``import kstab`` loads no numpy. The exact API (polynomials, polytopes,
root systems, exact integrals, the Futaki routes, pick and the spec reader)
is imported eagerly. The float names in ``_FLOAT_NAMES``, from
``kstab.graded`` and ``kstab.mabuchi``, are resolved on first access through
the module ``__getattr__`` (PEP 562), which imports their module, and so
numpy, then; every other unknown name raises AttributeError.
"""
from importlib import import_module

from .polynomial import MultivariatePolynomial, as_fraction, format_fraction
from .polytope import (
    FacetChart,
    GeometryError,
    PiecewiseAffine,
    RationalPolytope,
    facet_chart,
    lattice_points,
    triangulate,
)
from .quadrature import (
    GradedQuadratureSpec,
    QuadratureError,
    boundary_integral,
    boundary_integral_pl_poly,
    graded_integral,
    integral_pl_poly,
    integral_polytope,
)
from .rootsystem import (
    QN1_PFG_RATIO,
    RootSystem,
    RootSystemError,
    build_classical,
    build_from_cartan,
    dh_weight,
    dimension,
)
from .futaki import (
    AmplenessError,
    EhrhartFit,
    FutakiReport,
    average_scalar,
    ehrhart_fit,
    futaki_closed_form,
    futaki_cross_check,
    volume_w,
    weighted_count_dk,
    weighted_weight_wk,
)
from .pick import AsymptoticFit, pick_check, pick_fit, pick_sum
from .specio import JobSpec, SpecError, load_jobspec, parse_jobspec

__version__ = "0.1.0"

# Float names and the module that defines each; importing it loads numpy.
_FLOAT_NAMES = {
    "graded_boundary_integral": "graded",
    "graded_integral_array": "graded",
    "graded_rule": "graded",
    "MabuchiResult": "mabuchi",
    "PotentialError": "mabuchi",
    "SymplecticPotential": "mabuchi",
    "el_residual": "mabuchi",
    "mabuchi_eval": "mabuchi",
    "make_a_preset": "mabuchi",
    "scalar_curvature": "mabuchi",
}


def __getattr__(name: str):
    if name not in _FLOAT_NAMES:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    return getattr(import_module("." + _FLOAT_NAMES[name], __name__), name)
