"""Front end of the commands built on the degree-2 classes: ``massey``,
``infinitesimal``, ``versal`` and ``pushforward``, with the ``--reps`` reader.
``cli`` reaches these handlers only when one of these commands runs, so
``check`` and ``cohomology`` never compile this module.
"""

from __future__ import annotations

import itertools
import json

from .algebra import LeibnizAlgebra, json_index, load_algebra, parse_json, read_text, vector_from_json
from . import cochain, deform, graded, poly
from .errors import DimensionMismatch, FormatError, PreconditionError
from .reports import cochain_to_json, deformation_report
from .values import vec_is_zero


def cochain_from_json(doc: dict) -> cochain.Cochain:
    """The cochain of a ``cochain_to_json`` document; 1-based indices.

    Raises FormatError for a malformed document, naming the entry whose
    ``args`` are not indices in 1..dim or repeat an earlier entry's, and
    reading each value list with ``algebra.vector_from_json``.
    """
    try:
        arity, dim = json_index(doc["arity"], "'arity'"), json_index(doc["dim"], "'dim'")
        items = doc.get("entries", [])
        if not isinstance(items, list):
            raise FormatError("'entries' must be a list")
        entries = {}
        for pos, item in enumerate(items):
            where = f"entry {pos} of 'entries'"
            if not isinstance(item, dict):
                raise FormatError(f"{where} is not an object")
            args = item.get("args")
            if type(args) is not list or len(args) != arity or not all(type(a) is int and 1 <= a <= dim for a in args):
                raise FormatError(f"{where} has args {json.dumps(args)}; expected {arity} indices in 1..{dim}")
            key = tuple(a - 1 for a in args)
            if key in entries:
                raise FormatError(f"{where} repeats args {json.dumps(args)}")
            entries[key] = vector_from_json(item.get("value", []), dim, where)
        return cochain.Cochain.from_entries(arity, dim, entries)
    except (KeyError, TypeError, DimensionMismatch) as e:
        raise FormatError(f"bad cochain document: {e}") from e


def _load_reps(spec: str, alg: LeibnizAlgebra) -> list[cochain.Cochain]:
    if spec == "paper":
        if alg.dim != 3 or alg != load_algebra("lambda6"):
            raise FormatError("--reps paper is only defined for the builtin algebra lambda6")
        return list(cochain.lambda6_reference_representatives())
    doc = parse_json(read_text(spec, "representatives file"))
    if not isinstance(doc, dict) or not isinstance(doc.get("cochains"), list):
        raise FormatError("representatives file must be an object with a 'cochains' list")
    reps = []
    for index, item in enumerate(doc["cochains"]):
        where = f"entry {index} of 'cochains'"
        if not isinstance(item, dict):
            raise FormatError(f"{where} is not an object")
        item = {"arity": 2, "dim": doc.get("dim", alg.dim), **item}
        arity, dim = item["arity"], item["dim"]
        # name the expected shape; an arity or dim that is no integer is
        # cochain_from_json's error to report
        if type(arity) is type(dim) is int and (arity, dim) != (2, alg.dim):
            raise FormatError(f"{where} has arity {arity} and dimension {dim};"
                              f" expected arity 2 and dimension {alg.dim}")
        try:
            reps.append(cochain_from_json(item))
        except FormatError as e:
            raise FormatError(f"{where}: {e}") from e
    return reps


def _hl2_with_reps(alg: LeibnizAlgebra, reps_spec: str | None):
    hl2 = cochain.cohomology(alg, 2)
    if reps_spec is not None:
        hl2 = graded.with_representatives(hl2, _load_reps(reps_spec, alg), alg)
    return hl2


def cmd_massey(alg: LeibnizAlgebra, args) -> tuple[str, dict]:
    hl2 = _hl2_with_reps(alg, args.reps)
    hl3 = cochain.cohomology(alg, 3)
    h = hl2.dim
    lines = [f"dim HL^2 = {h}, dim HL^3 = {hl3.dim}"]
    pair_docs = []
    pair_reps = {}
    all_zero = True
    lines.append("second-order brackets:")
    units = [tuple(int(k == i) for k in range(h)) for i in range(h)]
    for i, j in itertools.combinations_with_replacement(range(h), 2):
        coords, rep = graded.massey2(alg, hl2, units[i], units[j])
        pair_reps[(i, j)] = rep
        zero = vec_is_zero(coords)
        all_zero = all_zero and zero
        cls = "0" if zero else "(" + ", ".join(str(c) for c in coords) + ")"
        lines.append(f"  <[{i + 1}],[{j + 1}]> = {cls}")
        pair_docs.append({"left": i + 1, "right": j + 1, "class": [str(c) for c in coords],
                          "representative": cochain_to_json(rep)})
    triple_docs = []
    witness_docs = []
    if all_zero:
        lines.append("third-order brackets:")
        # one witness per pair, solved once here for every triple
        pair_wits = {pair: graded.massey_witness(alg, rep) for pair, rep in pair_reps.items()}
        for i, j, k in itertools.combinations_with_replacement(range(h), 3):
            wits = {(0, 1): pair_wits[(i, j)], (0, 2): pair_wits[(i, k)], (1, 2): pair_wits[(j, k)]}
            coords, rep = graded._triple_bracket(alg, [hl2.class_representatives[a] for a in (i, j, k)], wits)
            cls = "0" if vec_is_zero(coords) else "(" + ", ".join(str(c) for c in coords) + ")"
            lines.append(f"  <[{i + 1}],[{j + 1}],[{k + 1}]> = {cls}")
            triple_docs.append({"indices": [i + 1, j + 1, k + 1], "class": [str(c) for c in coords],
                                "representative": cochain_to_json(rep)})
            for pair, w in wits.items():
                witness_docs.append({"triple": [i + 1, j + 1, k + 1], "pair": [pair[0] + 1, pair[1] + 1],
                                     "witness": cochain_to_json(w)})
    else:
        lines.append("third-order brackets: undefined (a second-order bracket is nonzero)")
    doc = {"command": "massey", "dim_hl2": h, "dim_hl3": hl3.dim,
           "pairwise": pair_docs, "triples": triple_docs, "witnesses": witness_docs}
    return "\n".join(lines), doc


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
    doc["relations_by_order"] = {
        str(order): [str(p) for p in polys] for order, polys in relations.items()
    }
    return text, doc


def cmd_pushforward(alg: LeibnizAlgebra, args) -> tuple[str, dict]:
    try:
        target = poly.LocalBase(tuple(g for g in args.to.split(",") if g), args.max_order)
    except PreconditionError as e:
        raise FormatError(f"--to {args.to!r}: {e}") from e
    images, substitution = {}, {}
    for sub in args.sub:
        if "=" not in sub:
            raise FormatError(f"--sub expects NAME=POLY, got {sub!r}")
        name, expr = sub.split("=", 1)
        name = name.strip()
        if name in images:
            raise FormatError(f"--sub gives generator {name!r} a second image")
        images[name] = poly.parse_poly(expr, target)
        substitution[name] = expr
    hl2 = _hl2_with_reps(alg, args.reps)
    d, _ = deform.versal_construct(alg, args.max_order, hl2.class_representatives)
    out = deform.push_forward(d, target, images)
    text, doc = deformation_report(out, alg)
    doc["command"] = "pushforward"
    doc["substitution"] = substitution
    return text, doc
