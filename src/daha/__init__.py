"""Exact-arithmetic workbench for finite- and infinite-dimensional
modules of the universal double affine Hecke algebra of type (C1v, C1).

The package constructs the even- and odd-dimensional module families
over exact scalar fields (rationals, or rational functions in a formal
q), verifies their defining relations and ladder identities, decides
irreducibility two independent ways, finds explicit intertwiners, and
classifies modules by twist and canonical parameter orbit.
"""

from .errors import (
    ClassificationError,
    DahaError,
    InputError,
    ParameterError,
    SingularMatrixError,
    TranscriptionError,
)
from .scalar import (
    QQ,
    QQ_Q,
    RatFun,
    Rational,
    scalar_from_str,
    scalar_pow,
    scalar_to_str,
    validate_q,
)
from .linalg import (
    Matrix,
    Subspace,
    det,
    inverse,
    kernel,
    rank,
    solve_sylvester_homogeneous,
    span_closure,
)
from .params import (
    PARITY_EVEN,
    PARITY_FREE,
    PARITY_ODD,
    ParamQuadruple,
    SignTriple,
    canonical_orbit_rep,
    orbit_act,
    orbit_members,
    violations,
)
from .modrep import (
    LaurentPoly,
    ModuleRep,
    Report,
    SparseVec,
    central_character,
    commutation_check,
    ladder_check,
    make_E,
    make_O,
    poly_apply,
    raising_product_annihilates,
    verify_relations,
    verma_apply,
    verma_basis_image,
    verma_ladder_check,
    w_basis_check,
)
from .analysis import (
    INDETERMINATE,
    ClassificationResult,
    burnside_irreducible,
    classify,
    criterion_E,
    criterion_O,
    det_fingerprint,
    find_intertwiner,
    is_intertwiner,
    l_matrix_E,
    l_matrix_O,
    l_matrix_routes,
    twist,
)

__version__ = "0.1.0"
