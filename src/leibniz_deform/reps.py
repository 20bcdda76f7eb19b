"""The ``--reps`` reader, ``paper`` (``lambda6_reference_representatives``) or a
JSON file of ``reports.cochain_to_json`` documents, and HL^2 presented on them
(``with_representatives``).  Only ``--reps`` loads it, and only a file ``readers``.
"""

from __future__ import annotations

import json
from collections.abc import Sequence

from .algebra import LeibnizAlgebra, load_algebra
from . import readers
from .cochain import Cochain, CohomologySpace, coboundary
from .errors import DimensionMismatch, FormatError, PreconditionError
from .linalg import Matrix, _dense, rank, solve
from .values import Sparse, Vec


def lambda6_reference_representatives() -> tuple[Cochain, Cochain]:
    """The degree-2 class representatives that give the builtin 3-dimensional
    algebra its simplest deformed bracket table: mu_1 sends (e_2,e_3) to -e_1
    and mu_2 sends (e_1,e_3) to e_1, both zero elsewhere."""
    mu1 = Cochain.from_entries(2, 3, {(1, 2): {0: -1}})
    mu2 = Cochain.from_entries(2, 3, {(0, 2): {0: 1}})
    return mu1, mu2


def with_representatives(space: CohomologySpace, reps: Sequence[Cochain], alg: LeibnizAlgebra) -> CohomologySpace:
    """The same cohomology space presented on user-chosen representative cocycles.

    Each representative must be a cocycle and the family must be independent
    modulo coboundaries and of the right size.
    """
    if len(reps) != space.dim:
        raise PreconditionError(f"need exactly {space.dim} representatives, got {len(reps)}")
    for r in reps:
        if not coboundary(alg, r).is_zero():
            raise PreconditionError("representative is not a cocycle")
    change = Matrix(space.dim, space.dim, [dict(enumerate(row)) for row in zip(*map(space.project_to_classes, reps))])
    if rank(change) != space.dim:
        raise PreconditionError("representatives are dependent modulo coboundaries")
    old_project = space._project

    def project(v: Sparse) -> Vec:
        sol = solve(change, {j: x for j, x in enumerate(old_project(v)) if x})
        assert sol is not None  # change of basis is invertible
        return _dense(sol, space.dim)

    return CohomologySpace(space.degree, space.dim_cocycles, space.dim_coboundaries, tuple(reps), project)


def cochain_from_json(doc: dict) -> Cochain:
    """The cochain of a ``cochain_to_json`` document; 1-based indices.

    Raises FormatError for a malformed document, naming the entry whose
    ``args`` are not indices in 1..dim or repeat an earlier entry's, and
    reading each value list with ``readers.vector_from_json``.
    """
    try:
        arity, dim = readers.json_index(doc["arity"], "'arity'"), readers.json_index(doc["dim"], "'dim'")
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
            entries[key] = readers.vector_from_json(item.get("value", []), dim, where)
        return Cochain.from_entries(arity, dim, entries)
    except (KeyError, TypeError, DimensionMismatch) as e:
        raise FormatError(f"bad cochain document: {e}") from e


def _load_reps(spec: str, alg: LeibnizAlgebra) -> list[Cochain]:
    if spec == "paper":
        if alg.dim != 3 or alg != load_algebra("lambda6"):
            raise FormatError("--reps paper is only defined for the builtin algebra lambda6")
        return list(lambda6_reference_representatives())
    doc = readers.parse_json(readers.read_text(spec, "representatives file"))
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
