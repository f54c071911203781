"""Entangled bases of small multipartite systems: construction,
verification, and numerical unextendibility certificates."""

from .hilbert import (
    RANK_TOL,
    Bipartition,
    Ket,
    SystemShape,
    all_bipartitions,
    apply_local,
    basis_ket,
    gram_matrix,
    hermitian_eigenvalues,
    numerical_rank,
    orthonormal_complement,
    random_unit_ket,
    random_unitary,
    stack_amps,
)
from .entanglement import (
    CutRestricted,
    EntanglementCheck,
    GhzType,
    Predicate,
    Strict,
    coords_to_ket,
    defect,
    defect_coords_batch,
    defect_gradient,
    is_maximally_entangled,
    predicate_cuts,
    schmidt_coefficients,
)
from .constructions import (
    DecomposedVector,
    LabeledBasis,
    ProductTerm,
    basis_names,
    ghz3,
    lift_umeb,
    meb8,
    named_basis,
    umeb_2x3_type1,
    umeb_2x3_type2,
    umeb_2x3x3_first,
    umeb_2x3x3_second,
)
from .verify import (
    CAVEATS,
    CompletenessCheck,
    MubReport,
    OrthonormalityCheck,
    SearchConfig,
    UnextendibilityResult,
    check_completeness,
    check_orthonormal,
    minimize_on_sphere,
    mub_overlap,
    set_match_distance,
    unextendibility_search,
)

__version__ = "0.1.0"
