"""Exact-arithmetic cohomology and deformation theory of finite-dimensional
Leibniz algebras.

Everything is computed over the rationals with no rounding: cochain
complexes and their cohomology, the graded Lie structure on cochains, Massey
brackets, obstruction classes and order-by-order versal deformations over
truncated polynomial bases.  Every submodule but ``cli`` is registered here
and loads on first use, so each command compiles only the layers it runs:
``check`` runs ``algebra`` and ``reports``; ``cohomology`` adds ``linalg``
and ``cochain``; ``massey`` adds ``graded``; and ``infinitesimal``,
``versal`` and ``pushforward`` add ``deform``.  All of them run ``errors``
and ``values``.  Looking up one exported name loads only its own layer.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec


def _lazy(name: str):
    """Register submodule ``name`` without running it.  Its source is compiled
    and run on the first attribute access: ``from .name import x`` and
    ``import leibniz_deform.name`` make one, ``from . import name`` does not."""
    spec = find_spec(f"{__name__}.{name}")
    spec.loader = LazyLoader(spec.loader)
    module = sys.modules[spec.name] = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Each layer and the names the package exports from it.
_EXPORTS = {
    "errors": ("DimensionMismatch", "FormatError", "LeibnizDeformError", "PreconditionError"),
    "values": (),
    "algebra": ("LeibnizAlgebra", "abelian", "algebra_from_json", "algebra_to_json", "lambda6", "load_algebra",
                "validate"),
    "linalg": ("Matrix", "SubspaceBasis", "image_basis", "kernel_basis", "quotient_representatives", "rref", "solve"),
    "cochain": ("Cochain", "CohomologySpace", "coboundary", "coboundary_matrix", "cocycle_relations", "cohomology",
                "lambda6_reference_representatives", "with_representatives"),
    "graded": ("Shuffle", "circle", "graded_bracket", "massey2", "massey_witness", "shuffles"),
    "deform": ("Deformation", "LocalBase", "MasseyWitness", "ObstructionReport", "TruncatedPolynomial",
               "extend_to_order", "leibniz_defect", "massey3", "obstruction_classes", "push_forward",
               "universal_infinitesimal", "versal_construct"),
    "reports": (),
}
globals().update({layer: _lazy(layer) for layer in _EXPORTS})
_OWNER = {name: layer for layer, names in _EXPORTS.items() for name in names}
__all__ = list(_OWNER)


def __getattr__(name: str):
    """An ``__all__`` name, read from the one layer that defines it."""
    if name in _OWNER:
        return getattr(globals()[_OWNER[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
