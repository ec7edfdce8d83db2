"""Homology of finite digraphs through their directed Vietoris-Rips complexes.

A finite digraph with loops is an Alexandroff closure space; its directed
Vietoris-Rips complex carries the same weak homotopy type, so homology of
the space can be read off the complex with exact integer linear algebra.
This package builds the complexes, computes homology over Z, Q and Z_p,
relative homology and the long exact sequence of a pair, fundamental group
presentations, and evaluates/certifies the nearest-vertex map from the
realized complex back to the digraph.
"""

__version__ = "0.1.0"

from .complexes import (
    Simplex,
    SimplicialComplex,
    SimplicialMapReport,
    build_complex,
    check_cone,
    check_full_subcomplex,
    f_vector,
    is_simplex,
    map_complex,
    restrict_to,
)
from .digraph import (
    Digraph,
    InputError,
    closure_of,
    from_edge_list,
    induced_subgraph,
    interior_of,
    is_interior_cover,
    is_symmetric,
    minimal_neighborhood,
)
from .fxmap import (
    CertificateReport,
    RealizationPoint,
    SampleReport,
    barycenter,
    carrier_point,
    continuity_certificate,
    evaluate_fx,
    point_in,
    sampled_continuity_check,
    tie_set,
)
from .generators import circulant, digital_image, figure_digraph, random_digraph
from .homology import (
    ExactnessReport,
    HomologyGroup,
    HomologyResult,
    Presentation,
    abelianization,
    boundary_matrix,
    homology_field,
    homology_integer,
    les_exactness_check,
    pi1_presentation,
    relative_homology,
)
from .matrices import IntegerMatrix, field_rank, invariant_factors

__all__ = [
    "__version__",
    "CertificateReport",
    "Digraph",
    "ExactnessReport",
    "HomologyGroup",
    "HomologyResult",
    "InputError",
    "IntegerMatrix",
    "Presentation",
    "RealizationPoint",
    "SampleReport",
    "Simplex",
    "SimplicialComplex",
    "SimplicialMapReport",
    "abelianization",
    "barycenter",
    "boundary_matrix",
    "build_complex",
    "carrier_point",
    "check_cone",
    "check_full_subcomplex",
    "circulant",
    "closure_of",
    "continuity_certificate",
    "digital_image",
    "evaluate_fx",
    "f_vector",
    "field_rank",
    "figure_digraph",
    "from_edge_list",
    "homology_field",
    "homology_integer",
    "induced_subgraph",
    "interior_of",
    "invariant_factors",
    "is_interior_cover",
    "is_simplex",
    "is_symmetric",
    "les_exactness_check",
    "map_complex",
    "minimal_neighborhood",
    "pi1_presentation",
    "point_in",
    "random_digraph",
    "relative_homology",
    "restrict_to",
    "sampled_continuity_check",
    "tie_set",
]
