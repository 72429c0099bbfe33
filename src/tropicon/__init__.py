"""tropicon: exact rational fans, Bergman fans of matroids, and certificates
of connectivity through codimension one.

The library works entirely over exact rational arithmetic.  It builds
Bergman fans in the fine fan structure, outer normal fans of rational
polytopes and their skeleta, extracts facet-ridge incidence hypergraphs, and
certifies or refutes k-connectivity through codimension one with
re-checkable witnesses, an executable obstruction test for being the
tropicalization of an irreducible variety.
"""

from .ratlin import (
    Fraction, Mat, Vec, ZeroVector, lattice_complement_projection, mat,
    primitive_vector, vec,
)
from .polyhedral import (
    AffineHyperplane, Complex, EmptyPolyhedron, HRep, NotInComplex, Polyhedron,
    ValidationReport, is_face_of, validate_complex,
)
from .matroid import (
    Flat, HasLoops, LoopContraction, Matroid, bergman_fine, contraction,
    matroid_from_json, maximal_chains, proper_flats,
)
from .connectivity import (
    BudgetExceeded, ConnectivityCertificate, FacetRidgeHypergraph,
    TooFewFacets, build_hypergraph, connected_after_removal,
    connected_components, hypergraph_dot, is_k_connected, min_facet_cut,
)
from .tropical import (
    BalancingReport, DegenerateInput, LinealityObstruction, NotTransverse,
    SectionResult, balancing_check, check_witness_hyperplane, cube_normal_fan,
    hyperplane_section, normal_fan, quotient_by_lineality, skeleton,
    standard_tropical_plane, star, two_planes_fan, witness_hyperplane,
)
from .fanjson import fan_from_obj, fan_from_text, fan_to_obj, fan_to_text, load_fan

__version__ = "0.1.0"
