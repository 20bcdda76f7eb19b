"""Front end of ``infinitesimal`` and ``versal``; only they load it.  Their
classes come from ``graded._hl2_with_reps``, which ``cli_massey`` shares.
"""

from __future__ import annotations

from .algebra import LeibnizAlgebra
from . import deform
from .graded import _hl2_with_reps
from .reports import deformation_report


def cmd_infinitesimal(alg: LeibnizAlgebra, args) -> tuple[str, dict]:
    hl2 = _hl2_with_reps(alg, args.reps)
    d = deform.universal_infinitesimal(alg, hl2.class_representatives)
    text, doc = deformation_report(d, alg)
    doc["command"] = "infinitesimal"
    return text, doc


def cmd_versal(alg: LeibnizAlgebra, args) -> tuple[str, dict]:
    hl2 = _hl2_with_reps(alg, args.reps)
    d, relations = deform.versal_construct(alg, args.max_order, hl2.class_representatives)
    text, doc = deformation_report(d, alg)
    doc["command"] = "versal"
    doc["relations_by_order"] = {str(order): [str(p) for p in polys] for order, polys in relations.items()}
    return text, doc
