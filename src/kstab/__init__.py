"""Stability invariants of toric fibrations from polytope and root data.

Exact rational pipelines (hull, lattice counts, polynomial integration) feed
two independent computations of the Futaki invariant of a piecewise-linear
degeneration, plus the scalar curvature operator and the Mabuchi energy of
symplectic potentials.
"""

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
    graded_boundary_integral,
    graded_integral,
    graded_integral_array,
    graded_rule,
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
from .mabuchi import (
    MabuchiResult,
    PotentialError,
    SymplecticPotential,
    el_residual,
    mabuchi_eval,
    make_a_preset,
    scalar_curvature,
)
from .specio import JobSpec, SpecError, load_jobspec, parse_jobspec

__version__ = "0.1.0"
