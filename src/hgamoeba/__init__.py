"""hgamoeba: exact hypergeometric polynomials of integer polytopes, Horn
difference-differential systems, and amoeba / moment-map analysis tools."""

from .amoeba import (
    AmoebaRaster,
    ComplementComponent,
    LogWindow,
    OptimalityReport,
    adaptive_window,
    complement_components,
    component_order,
    cross_polytope_optimal,
    lopsided_at,
    optimality_report,
    rasterize_amoeba,
    resolved_components,
)
from .errors import (
    DegeneratePolytopeError,
    DomainError,
    HgamoebaError,
    InexactCoefficientError,
    InvalidTransformError,
    NeedsDeeperPointError,
    ParseError,
)
from .families import (
    F1Parameters,
    appell_f1,
    aster_scatter,
    biorthogonal_vtilde,
    chebyshev_dense,
    gauss_2f1_polynomial,
    pochhammer,
    toeplitz_chebyshev,
)
from .horn import (
    GammaFactor,
    HornSystem,
    LinearForm,
    OreSatoCoefficient,
    annihilator_for_support,
    apply_horn_operator,
    coefficient_recurrence_check,
    horn_system,
    hypergeometric_polynomial,
    is_horn_solution,
    polynomial_from_coefficient,
    psi_coefficient,
    psi_from_polytope,
    reflect_to_reciprocal,
)
from .laurent import ComplexLaurentPolynomial, LaurentPolynomial, require_exact
from .moment import (
    MomentImagePointCloud,
    containment_violation,
    moment_map,
    point_in_wca_gap,
    rasterize_wca,
    skeleton_approximation,
    wca_occupancy,
)
from .polytope import (
    Facet,
    IntegerPolytope,
    LatticeSupport,
    facet_description,
    is_zn_convex,
    lattice_points,
    newton_polytope,
    zn_connected_components,
)
from .roots import aberth_roots_batch, univariate_roots

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
