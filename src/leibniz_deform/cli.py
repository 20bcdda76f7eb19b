"""Command-line front end.

Subcommands: check, cohomology, massey, infinitesimal, versal, pushforward.
The algebra argument is a JSON file path or the builtin name ``lambda6``.
Exit status is 1 on input parse errors, 2 on precondition faults, 0 otherwise.
All computation is deterministic.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .algebra import LeibnizAlgebra, load_algebra, validate
from .cochain import (
    Cochain,
    cocycle_relations,
    cohomology,
    lambda6_reference_representatives,
    with_representatives,
)
from .deform import (
    LocalBase,
    TruncatedPolynomial,
    massey2,
    massey3,
    push_forward,
    universal_infinitesimal,
    versal_construct,
)
from .errors import FormatError, LeibnizDeformError
from .linalg import vec_is_zero
from .reports import (
    cochain_from_json,
    cochain_to_json,
    cohomology_report,
    deformation_report,
    dumps_canonical,
    render_vector,
)


def _load_reps(spec: str, alg: LeibnizAlgebra) -> list[Cochain]:
    if spec == "paper":
        if alg.dim != 3 or alg != load_algebra("lambda6"):
            raise FormatError("--reps paper is only defined for the builtin algebra lambda6")
        return list(lambda6_reference_representatives())
    try:
        with open(spec, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as e:
        raise FormatError(f"cannot read representatives file {spec!r}: {e}") from e
    except json.JSONDecodeError as e:
        raise FormatError(f"invalid JSON: {e.msg}", line=e.lineno, column=e.colno) from e
    if not isinstance(doc, dict) or "cochains" not in doc:
        raise FormatError("representatives file must be an object with a 'cochains' list")
    reps = []
    for item in doc["cochains"]:
        item = dict(item)
        item.setdefault("arity", 2)
        item.setdefault("dim", doc.get("dim", alg.dim))
        reps.append(cochain_from_json(item))
    return reps


_TERM_RE = re.compile(r"^(?:(-?\d+(?:/\d+)?)\*?)?((?:[A-Za-z_]\w*(?:\^\d+)?)(?:\*[A-Za-z_]\w*(?:\^\d+)?)*)?$")


def parse_poly(expr: str, base: LocalBase) -> TruncatedPolynomial:
    """Parse expressions like ``0``, ``t``, ``2*t^2*s - 1/2*t``."""
    text = expr.replace(" ", "")
    if not text:
        raise FormatError("empty polynomial expression")
    chunks = re.split(r"(?=[+-])", text)
    coeffs: dict[tuple[int, ...], Fraction] = {}
    for chunk in chunks:
        if not chunk:
            continue
        sign = Fraction(1)
        if chunk[0] == "+":
            chunk = chunk[1:]
        elif chunk[0] == "-":
            sign = Fraction(-1)
            chunk = chunk[1:]
        m = _TERM_RE.match(chunk)
        if not m or (m.group(1) is None and m.group(2) is None):
            raise FormatError(f"cannot parse polynomial term {chunk!r} in {expr!r}")
        coeff = sign * Fraction(m.group(1)) if m.group(1) else sign
        mono = [0] * base.num_generators
        if m.group(2):
            for factor in m.group(2).split("*"):
                if "^" in factor:
                    name, power = factor.split("^")
                    power = int(power)
                else:
                    name, power = factor, 1
                if name not in base.generators:
                    raise FormatError(f"unknown generator {name!r} in {expr!r}")
                mono[base.generators.index(name)] += power
        key = tuple(mono)
        coeffs[key] = coeffs.get(key, Fraction(0)) + coeff
    return TruncatedPolynomial(base, coeffs)


def _pairs_with_repetition(h: int):
    for i in range(h):
        for j in range(i, h):
            yield i, j


def _triples_with_repetition(h: int):
    for i in range(h):
        for j in range(i, h):
            for k in range(j, h):
                yield i, j, k


def _unit(h: int, i: int):
    return tuple(1 if k == i else 0 for k in range(h))


def cmd_check(alg: LeibnizAlgebra, args) -> tuple[str, dict]:
    violations = validate(alg)
    if not violations:
        text = f"Leibniz identity: OK ({len(violations)} violations)"
    else:
        lines = [f"Leibniz identity: FAILED ({len(violations)} violations)"]
        for (i, j, k), defect in violations:
            lines.append(
                f"  ({alg.label(i)},{alg.label(j)},{alg.label(k)}): defect {render_vector(defect, alg)}"
            )
        text = "\n".join(lines)
    doc = {
        "command": "check",
        "dim": alg.dim,
        "ok": not violations,
        "violations": [
            {
                "triple": [i + 1, j + 1, k + 1],
                "defect": [str(x) for x in defect],
            }
            for (i, j, k), defect in violations
        ],
    }
    return text, doc


def cmd_cohomology(alg: LeibnizAlgebra, args) -> tuple[str, dict]:
    space = cohomology(alg, args.degree)
    relations = cocycle_relations(alg, args.degree)
    text, doc = cohomology_report(alg, space, relations)
    doc["command"] = "cohomology"
    return text, doc


def _hl2_with_reps(alg: LeibnizAlgebra, reps_spec: Optional[str]):
    hl2 = cohomology(alg, 2)
    if reps_spec is not None:
        hl2 = with_representatives(hl2, _load_reps(reps_spec, alg), alg)
    return hl2


def cmd_massey(alg: LeibnizAlgebra, args) -> tuple[str, dict]:
    hl2 = _hl2_with_reps(alg, args.reps)
    hl3 = cohomology(alg, 3)
    h = hl2.dim
    lines = [f"dim HL^2 = {h}, dim HL^3 = {hl3.dim}"]
    pair_docs = []
    all_zero = True
    lines.append("second-order brackets:")
    for i, j in _pairs_with_repetition(h):
        coords, rep = massey2(alg, hl2, _unit(h, i), _unit(h, j), hl3)
        zero = vec_is_zero(coords)
        all_zero = all_zero and zero
        cls = "0" if zero else "(" + ", ".join(str(c) for c in coords) + ")"
        lines.append(f"  <[{i + 1}],[{j + 1}]> = {cls}")
        pair_docs.append(
            {
                "left": i + 1,
                "right": j + 1,
                "class": [str(c) for c in coords],
                "representative": cochain_to_json(rep),
            }
        )
    triple_docs = []
    witness_docs = []
    if all_zero:
        lines.append("third-order brackets:")
        for i, j, k in _triples_with_repetition(h):
            coords, rep, wits = massey3(
                alg, hl2, (_unit(h, i), _unit(h, j), _unit(h, k)), hl3=hl3
            )
            cls = "0" if vec_is_zero(coords) else "(" + ", ".join(str(c) for c in coords) + ")"
            lines.append(f"  <[{i + 1}],[{j + 1}],[{k + 1}]> = {cls}")
            triple_docs.append(
                {
                    "indices": [i + 1, j + 1, k + 1],
                    "class": [str(c) for c in coords],
                    "representative": cochain_to_json(rep),
                }
            )
            for w in wits:
                witness_docs.append(
                    {
                        "triple": [i + 1, j + 1, k + 1],
                        "pair": [w.pair[0] + 1, w.pair[1] + 1],
                        "witness": cochain_to_json(w.witness),
                    }
                )
    else:
        lines.append("third-order brackets: undefined (a second-order bracket is nonzero)")
    doc = {
        "command": "massey",
        "dim_hl2": h,
        "dim_hl3": hl3.dim,
        "pairwise": pair_docs,
        "triples": triple_docs,
        "witnesses": witness_docs,
    }
    return "\n".join(lines), doc


def cmd_infinitesimal(alg: LeibnizAlgebra, args) -> tuple[str, dict]:
    hl2 = _hl2_with_reps(alg, args.reps)
    d = universal_infinitesimal(alg, hl2.class_representatives)
    text, doc = deformation_report(d, alg)
    doc["command"] = "infinitesimal"
    return text, doc


def cmd_versal(alg: LeibnizAlgebra, args) -> tuple[str, dict]:
    hl2 = _hl2_with_reps(alg, args.reps)
    d, relations = versal_construct(alg, args.max_order, hl2.class_representatives)
    text, doc = deformation_report(d, alg)
    doc["command"] = "versal"
    doc["relations_by_order"] = {
        str(order): [str(p) for p in polys] for order, polys in relations.items()
    }
    return text, doc


def cmd_pushforward(alg: LeibnizAlgebra, args) -> tuple[str, dict]:
    hl2 = _hl2_with_reps(alg, args.reps)
    d, _ = versal_construct(alg, args.max_order, hl2.class_representatives)
    target_gens = tuple(g for g in args.to.split(",") if g)
    target = LocalBase(target_gens, args.max_order)
    images = {}
    for sub in args.sub:
        if "=" not in sub:
            raise FormatError(f"--sub expects NAME=POLY, got {sub!r}")
        name, expr = sub.split("=", 1)
        images[name.strip()] = parse_poly(expr, target)
    out = push_forward(d, target, images)
    text, doc = deformation_report(out, alg)
    doc["command"] = "pushforward"
    doc["substitution"] = {name: expr.split("=", 1)[1] for name, expr in
                           ((s.split("=", 1)[0].strip(), s) for s in args.sub)}
    return text, doc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leibniz-deform",
        description="Exact cohomology, Massey brackets and versal deformations of Leibniz algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, reps=False):
        p.add_argument("algebra", help="algebra JSON file, or the builtin name 'lambda6'")
        p.add_argument("--output", choices=("text", "json"), default="text")
        if reps:
            p.add_argument(
                "--reps",
                default=None,
                help="representative 2-cocycles: a JSON file, or 'paper' for the builtin choice on lambda6",
            )

    p = sub.add_parser("check", help="verify the Leibniz identity on all basis triples")
    common(p)
    p = sub.add_parser("cohomology", help="cocycles, coboundaries and cohomology in one degree")
    common(p)
    p.add_argument("--degree", type=int, required=True)
    p = sub.add_parser("massey", help="all second- and third-order Massey brackets of the degree-2 classes")
    common(p, reps=True)
    p = sub.add_parser("infinitesimal", help="the universal first-order deformation")
    common(p, reps=True)
    p = sub.add_parser("versal", help="order-by-order versal deformation")
    common(p, reps=True)
    p.add_argument("--max-order", type=int, default=3)
    p = sub.add_parser("pushforward", help="substitute base parameters in the versal deformation")
    common(p, reps=True)
    p.add_argument("--max-order", type=int, default=3)
    p.add_argument("--sub", action="append", required=True, metavar="NAME=POLY",
                   help="image of one source generator (repeat per generator)")
    p.add_argument("--to", required=True, help="comma-separated target generator names")
    return parser


_DISPATCH = {
    "check": cmd_check,
    "cohomology": cmd_cohomology,
    "massey": cmd_massey,
    "infinitesimal": cmd_infinitesimal,
    "versal": cmd_versal,
    "pushforward": cmd_pushforward,
}


def run(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        alg = load_algebra(args.algebra)
        text, doc = _DISPATCH[args.command](alg, args)
    except FormatError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except LeibnizDeformError as e:
        print(f"fault: {e}", file=sys.stderr)
        return 2
    print(text if args.output == "text" else dumps_canonical(doc))
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
