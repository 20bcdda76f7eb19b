"""Text and JSON rendering of algebras, cochains, cohomology and deformations.

Rationals render as ``p/q`` with positive q, or ``p`` alone when q is 1.
Base polynomials are written by ``poly``, which owns their format.  This
module reaches ``cochain``, ``deform`` and ``poly`` as modules (``from .
import cochain, deform, poly``), so ``check`` loads none of them, and the
commands that build no deformation never load ``deform`` or ``poly``.  It
only writes: the ``--reps`` reader and its ``cochain_from_json`` are in
``reps``, which only ``--reps`` loads.  JSON output is
canonical (two-space indent, sorted keys) so that parsing a report
and re-serializing it is byte-identical.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from fractions import Fraction

from .algebra import LeibnizAlgebra, vector_to_json
from . import cochain, deform, poly
from .values import _join_terms


def dumps_canonical(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def render_vector(v: Sequence[Fraction], alg: LeibnizAlgebra) -> str:
    return _join_terms([(v[k], alg.label(k)) for k in range(len(v)) if v[k]])


def render_cochain(c: cochain.Cochain, alg: LeibnizAlgebra) -> list[str]:
    """Sparse rendering: one ``(inputs) -> value`` line per nonzero entry."""
    lines = []
    for idx, val in c.nonzero_entries():
        args = ",".join(alg.label(i) for i in idx)
        lines.append(f"({args}) -> {render_vector(val, alg)}")
    return lines or ["0"]


def cochain_to_json(c: cochain.Cochain) -> dict:
    entries = []
    for idx, val in c.nonzero_entries():
        entries.append({"args": [i + 1 for i in idx], "value": vector_to_json(val)})
    return {"arity": c.arity, "dim": c.dim, "entries": entries}


def deformation_report(d: deform.Deformation, alg: LeibnizAlgebra) -> tuple[str, dict]:
    """Text and JSON forms of the bracket table of a deformation."""
    base = d.base
    lines = [f"base: K[{','.join(base.generators)}] truncated at order {base.truncation_order}"]
    lines.append("relations: " + ("; ".join(poly.render_poly(base, rel) for rel in base.relations) or "none"))
    lines.append("brackets:")
    brackets_json = []
    n = alg.dim
    for i in range(n):
        for j in range(n):
            av = d.basis_bracket(i, j)
            if all(p.is_zero() for p in av):
                continue
            lines.append(f"  [{alg.label(i)},{alg.label(j)}] = {poly.render_avector(av, alg)}")
            value = [
                {"basis": k + 1, **term} for k, p in enumerate(av) for term in poly.poly_to_json(base, p.data())
            ]
            brackets_json.append({"left": i + 1, "right": j + 1, "value": value})
    doc = {"base": poly.base_to_json(base), "brackets": brackets_json}
    return "\n".join(lines), doc


def cohomology_report(
    alg: LeibnizAlgebra,
    space: cochain.CohomologySpace,
    relations: list[str],
) -> tuple[str, dict]:
    p = space.degree
    lines = [
        f"dim ZL^{p} = {space.dim_cocycles}, dim BL^{p} = {space.dim_coboundaries}, "
        f"dim HL^{p} = {space.dim}"
    ]
    lines.append("class representatives:")
    for r, rep in enumerate(space.class_representatives):
        for line in render_cochain(rep, alg):
            lines.append(f"  [{r + 1}] {line}")
    lines.append("cocycle relations:")
    for rel in relations:
        lines.append(f"  {rel}")
    doc = {
        "degree": p,
        "dim_cocycles": space.dim_cocycles,
        "dim_coboundaries": space.dim_coboundaries,
        "dim_cohomology": space.dim,
        "representatives": [cochain_to_json(r) for r in space.class_representatives],
        "relations": relations,
    }
    return "\n".join(lines), doc
