"""Exact-arithmetic cohomology and deformation theory of finite-dimensional
Leibniz algebras.

Everything is computed over the rationals with no rounding: cochain
complexes and their cohomology, the graded Lie structure on cochains, Massey
brackets and versal deformations over truncated polynomial bases, built
order by order by the Kuranishi recursion.  The package only registers its layers; each
name is imported from the layer that defines it, for example
``from leibniz_deform.cochain import cohomology``.  Every layer loads on
first use, so each command compiles only the layers it runs: ``check`` runs
``cli``, ``algebra`` and ``reports``; ``cohomology`` adds ``linalg`` and
``cochain``; ``massey`` adds ``graded`` and ``cli_massey``; ``infinitesimal``
and ``versal`` add ``graded``, ``poly``, ``deform`` and ``cli_hl2``, and
``pushforward`` the same with ``pushforward`` for ``cli_hl2``.  All of them
run ``errors`` and ``values``; an algebra file adds ``readers``, and ``--reps``
adds ``reps``.
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


for _layer in ("errors", "values", "algebra", "readers", "linalg", "cochain", "reps", "graded", "poly", "deform",
               "reports", "cli_massey", "cli_hl2", "pushforward"):
    globals()[_layer] = _lazy(_layer)
