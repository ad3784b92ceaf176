"""hgamoeba: exact hypergeometric polynomials of integer polytopes, Horn
difference-differential systems, and amoeba / moment-map analysis tools.

The package imports in two layers.  The exact layer (errors, polytope,
laurent, horn, families) is pure Python and is imported with the package.
The numeric layer (amoeba, moment, roots) needs numpy, so its names are
resolved on first access (PEP 562): ``construct``, ``horn``, ``verify`` and
``family`` never load numpy, while ``hgamoeba.rasterize_amoeba`` and
``from hgamoeba import *`` work as if every name were imported eagerly."""

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
    horn_system,
    hypergeometric_polynomial,
    is_horn_solution,
    polynomial_from_coefficient,
    psi_coefficient,
    psi_from_polytope,
    reflect_to_reciprocal,
)
from .laurent import ComplexLaurentPolynomial, LaurentPolynomial, require_exact
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

__version__ = "0.1.0"

_NUMERIC = {
    "amoeba": (
        "AmoebaRaster",
        "ComplementComponent",
        "LogWindow",
        "OptimalityReport",
        "adaptive_window",
        "complement_components",
        "component_order",
        "cross_polytope_optimal",
        "lopsided_certificates",
        "optimality_report",
        "rasterize_amoeba",
        "resolved_components",
    ),
    "moment": (
        "MomentImagePointCloud",
        "containment_violation",
        "moment_map",
        "point_in_wca_gap",
        "rasterize_wca",
        "skeleton_approximation",
        "wca_occupancy",
    ),
    "roots": ("aberth_roots_batch", "univariate_roots"),
}
_NUMERIC_HOME = {name: module for module, names in _NUMERIC.items() for name in names}


# the exact names, the submodules their imports bound (errors, polytope, ...)
# and every numeric name and module, as eager imports of all of them would give
__all__ = sorted(
    {name for name in dir() if not name.startswith("_")} | set(_NUMERIC_HOME) | set(_NUMERIC)
)


def __getattr__(name):
    """Import a numeric module when it, or one of its names, is first asked for."""
    from importlib import import_module

    home = name if name in _NUMERIC else _NUMERIC_HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f".{home}", __name__)
    value = module if name == home else getattr(module, name)
    globals()[name] = value
    return value
