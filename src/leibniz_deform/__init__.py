"""Exact-arithmetic cohomology and deformation theory of finite-dimensional
Leibniz algebras.

Everything is computed over the rationals with no rounding: cochain
complexes and their cohomology, the graded Lie structure on cochains, Massey
brackets, obstruction classes and order-by-order versal deformations over
truncated polynomial bases.
"""

from .algebra import (
    LeibnizAlgebra,
    abelian,
    algebra_from_json,
    algebra_to_json,
    bracket_eval,
    lambda6,
    load_algebra,
    validate,
)
from .cochain import (
    Cochain,
    CohomologySpace,
    coboundary,
    coboundary_matrix,
    cocycle_relations,
    cohomology,
    lambda6_reference_representatives,
    with_representatives,
)
from .deform import (
    Deformation,
    LocalBase,
    MasseyWitness,
    ObstructionReport,
    TruncatedPolynomial,
    extend_to_order,
    leibniz_defect,
    massey2,
    massey3,
    massey_witness,
    obstruction_classes,
    push_forward,
    universal_infinitesimal,
    versal_construct,
)
from .errors import (
    DimensionMismatch,
    FormatError,
    LeibnizDeformError,
    PreconditionError,
)
from .graded import (
    Shuffle,
    circle,
    dgla_differential,
    graded_bracket,
    shuffles,
)
from .linalg import (
    Matrix,
    SubspaceBasis,
    image_basis,
    kernel_basis,
    quotient_representatives,
    rref,
    solve,
)

__all__ = [
    "LeibnizAlgebra", "abelian", "algebra_from_json", "algebra_to_json",
    "bracket_eval", "lambda6", "load_algebra", "validate",
    "Cochain", "CohomologySpace", "coboundary", "coboundary_matrix",
    "cocycle_relations", "cohomology", "lambda6_reference_representatives",
    "with_representatives",
    "Deformation", "LocalBase", "MasseyWitness", "ObstructionReport",
    "TruncatedPolynomial",
    "extend_to_order", "leibniz_defect", "massey2", "massey3", "massey_witness",
    "obstruction_classes", "push_forward", "universal_infinitesimal",
    "versal_construct",
    "DimensionMismatch", "FormatError", "LeibnizDeformError", "PreconditionError",
    "Shuffle", "circle", "dgla_differential", "graded_bracket", "shuffles",
    "Matrix", "SubspaceBasis", "image_basis", "kernel_basis",
    "quotient_representatives", "rref", "solve",
]
