"""Exact-arithmetic cohomology and deformation theory of finite-dimensional
Leibniz algebras.

Everything is computed over the rationals with no rounding: cochain
complexes and their cohomology, the graded Lie structure on cochains, Massey
brackets, obstruction classes and order-by-order versal deformations over
truncated polynomial bases.  The ``deform`` and ``graded`` submodules load on
first use: ``check`` and ``cohomology`` compile neither, ``massey`` only
``graded``, and ``infinitesimal``, ``versal`` and ``pushforward`` both.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

from .algebra import (
    LeibnizAlgebra,
    abelian,
    algebra_from_json,
    algebra_to_json,
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
from .errors import (
    DimensionMismatch,
    FormatError,
    LeibnizDeformError,
    PreconditionError,
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


def _lazy(name: str):
    """Register submodule ``name`` without running it.  Its source is compiled
    and run on the first attribute access: ``from .name import x`` and
    ``import leibniz_deform.name`` make one, ``from . import name`` does not."""
    spec = find_spec(f"{__name__}.{name}")
    spec.loader = LazyLoader(spec.loader)
    module = sys.modules[spec.name] = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


deform = _lazy("deform")
graded = _lazy("graded")


def __getattr__(name: str):
    """``graded``'s and ``deform``'s ``__all__`` names, loaded on first use; ``deform`` imports ``graded``."""
    if name in __all__:
        return getattr(graded if hasattr(graded, name) else deform, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "LeibnizAlgebra", "abelian", "algebra_from_json", "algebra_to_json",
    "lambda6", "load_algebra", "validate",
    "Cochain", "CohomologySpace", "coboundary", "coboundary_matrix",
    "cocycle_relations", "cohomology", "lambda6_reference_representatives",
    "with_representatives",
    "Deformation", "LocalBase", "MasseyWitness", "ObstructionReport",
    "TruncatedPolynomial",
    "extend_to_order", "leibniz_defect", "massey2", "massey3", "massey_witness",
    "obstruction_classes", "push_forward", "universal_infinitesimal",
    "versal_construct",
    "DimensionMismatch", "FormatError", "LeibnizDeformError", "PreconditionError",
    "Shuffle", "circle", "graded_bracket", "shuffles",
    "Matrix", "SubspaceBasis", "image_basis", "kernel_basis",
    "quotient_representatives", "rref", "solve",
]
