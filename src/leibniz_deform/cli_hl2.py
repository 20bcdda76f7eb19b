"""Front end of ``infinitesimal`` and ``versal``; only they load it.  Their
classes come from ``graded._hl2_representatives``, which ``cli_massey`` shares.
"""

from __future__ import annotations

from .algebra import LeibnizAlgebra
from . import deform
from .graded import _hl2_representatives
from .reports import deformation_report


def cmd_infinitesimal(alg: LeibnizAlgebra, args) -> tuple[str, dict]:
    d = deform.universal_infinitesimal(alg, _hl2_representatives(alg, args.reps))
    text, doc = deformation_report(d, alg)
    doc["command"] = "infinitesimal"
    return text, doc


def cmd_versal(alg: LeibnizAlgebra, args) -> tuple[str, dict]:
    d, relations = deform.versal_construct(alg, args.max_order, _hl2_representatives(alg, args.reps))
    text, doc = deformation_report(d, alg)
    doc["command"] = "versal"
    doc["relations_by_order"] = {str(order): [str(p) for p in polys] for order, polys in relations.items()}
    return text, doc
