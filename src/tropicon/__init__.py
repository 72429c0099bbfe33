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
    Fraction, LinearProgram, Mat, NotAFace, Vec, WrongCodimension, ZeroVector,
    lattice_complement_projection, lattice_normal_generator, lp_feasible,
    make_lp, mat, primitive_vector, rank_and_kernel, smith_normal_form, vec,
)
from .polyhedral import (
    AffineHyperplane, Complex, EmptyPolyhedron, HRep, NotInComplex, Polyhedron,
    ValidationReport, codim1_faces, dim_lineality_pointed, dual_description,
    is_face_of, relint_point, validate_complex,
)
from .matroid import (
    FlagChain, Flat, HasLoops, LoopContraction, Matroid, bergman_fine,
    check_rank_axioms, closure_and_rank, contraction, matroid_from_json,
    maximal_chains, parallel_classes_and_loops, proper_flats,
)
from .connectivity import (
    BudgetExceeded, ConnectivityCertificate, FacetRidgeHypergraph,
    TooFewFacets, build_hypergraph, clique_connected_after_removal,
    colex_combinations, connected_after_removal, connected_components,
    hypergraph_dot, is_k_connected, min_facet_cut,
)
from .tropical import (
    BalancingReport, DeclarationMismatch, DegenerateInput, LinealityObstruction,
    NotTransverse, SectionResult, WeightedComplex, balancing_check,
    check_witness_hyperplane, complex_lineality_space, cube_normal_fan,
    hyperplane_section, normal_fan, projection_along, quotient_by_lineality,
    recession_fan, same_fan, skeleton, standard_tropical_plane, star,
    two_planes_fan, witness_hyperplane,
)
from .fanjson import fan_from_obj, fan_from_text, fan_to_obj, fan_to_text, load_fan, save_fan

__version__ = "0.1.0"
