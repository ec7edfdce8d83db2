"""Homology of finite digraphs through their directed Vietoris-Rips complexes.

A finite digraph with loops is an Alexandroff closure space; its directed
Vietoris-Rips complex carries the same weak homotopy type, so homology of
the space can be read off the complex with exact integer linear algebra.
This package builds the complexes, computes homology over Z, Q and Z_p,
relative homology and the long exact sequence of a pair, fundamental group
presentations, and certifies and samples the nearest-vertex map from the
realized complex back to the digraph.
"""

__version__ = "0.1.0"

from .complexes import SimplicialComplex, build_complex, f_vector
from .digraph import Digraph, InputError
from .fxmap import (
    CertificateReport,
    SampleReport,
    continuity_certificate,
    sampled_continuity_check,
)
from .generators import circulant, digital_image, figure_digraph, random_digraph
from .homology import (
    ExactnessReport,
    HomologyGroup,
    Presentation,
    abelianization,
    homology_field,
    homology_integer,
    les_exactness_check,
    pi1_presentation,
    relative_homology,
)
from .matrices import invariant_factors

__all__ = [
    "__version__",
    "CertificateReport",
    "Digraph",
    "ExactnessReport",
    "HomologyGroup",
    "InputError",
    "Presentation",
    "SampleReport",
    "SimplicialComplex",
    "abelianization",
    "build_complex",
    "circulant",
    "continuity_certificate",
    "digital_image",
    "f_vector",
    "figure_digraph",
    "homology_field",
    "homology_integer",
    "invariant_factors",
    "les_exactness_check",
    "pi1_presentation",
    "random_digraph",
    "relative_homology",
    "sampled_continuity_check",
]
