"""Front end of ``massey``: every second- and third-order Massey bracket of the
degree-2 classes.  Only ``massey`` loads it, and it loads no deformation code.
"""

from __future__ import annotations

import itertools

from .algebra import LeibnizAlgebra
from . import cochain, graded
from .reports import cochain_to_json


def cmd_massey(alg: LeibnizAlgebra, args) -> tuple[str, dict]:
    hl2 = graded._hl2_with_reps(alg, args.reps)
    hl3 = cochain.cohomology(alg, 3)
    h = hl2.dim
    lines = [f"dim HL^2 = {h}, dim HL^3 = {hl3.dim}"]
    pair_docs, pair_reps, all_zero = [], {}, True
    lines.append("second-order brackets:")
    units = [tuple(int(k == i) for k in range(h)) for i in range(h)]
    for i, j in itertools.combinations_with_replacement(range(h), 2):
        coords, rep = graded.massey2(alg, hl2, units[i], units[j])
        pair_reps[(i, j)] = rep
        zero = not any(coords)
        all_zero = all_zero and zero
        cls = "0" if zero else "(" + ", ".join(str(c) for c in coords) + ")"
        lines.append(f"  <[{i + 1}],[{j + 1}]> = {cls}")
        pair_docs.append({"left": i + 1, "right": j + 1, "class": [str(c) for c in coords],
                          "representative": cochain_to_json(rep)})
    triple_docs, witness_docs = [], []
    if all_zero:
        lines.append("third-order brackets:")
        # one witness per pair, solved once here for every triple
        pair_wits = {pair: graded.massey_witness(alg, rep) for pair, rep in pair_reps.items()}
        for i, j, k in itertools.combinations_with_replacement(range(h), 3):
            wits = {(0, 1): pair_wits[(i, j)], (0, 2): pair_wits[(i, k)], (1, 2): pair_wits[(j, k)]}
            coords, rep = graded._triple_bracket(alg, [hl2.class_representatives[a] for a in (i, j, k)], wits)
            cls = "0" if not any(coords) else "(" + ", ".join(str(c) for c in coords) + ")"
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
