"""Command-line front end: ``leibniz-deform COMMAND ALGEBRA [OPTIONS]``.

``COMMANDS`` lists the subcommands and their options.  ALGEBRA is a JSON file
path or the builtin name ``lambda6``.  Options go before or after ALGEBRA, as
``--opt value``, ``--opt=value`` or a unique prefix of ``--opt``; ``--sub``
repeats; ``-h``/``--help`` prints the usage to standard output.  Exit status
is 0 on success and after help, 1 on malformed input (the command line,
files, expressions and option values), 2 on precondition faults.  All
computation is deterministic.  The ``--to`` names and ``--sub`` polynomials
are read by ``poly``, which owns the polynomial format.
"""

from __future__ import annotations

import itertools
import json
import sys
from collections.abc import Callable, Sequence
from types import SimpleNamespace

from .algebra import LeibnizAlgebra, load_algebra, validate
from . import cochain, deform, graded, poly
from .errors import FormatError, LeibnizDeformError, PreconditionError
from .values import vec_is_zero
from .reports import (
    cochain_from_json,
    cochain_to_json,
    cohomology_report,
    deformation_report,
    dumps_canonical,
    render_vector,
)


def _load_reps(spec: str, alg: LeibnizAlgebra) -> list[cochain.Cochain]:
    if spec == "paper":
        if alg.dim != 3 or alg != load_algebra("lambda6"):
            raise FormatError("--reps paper is only defined for the builtin algebra lambda6")
        return list(cochain.lambda6_reference_representatives())
    try:
        with open(spec, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as e:
        raise FormatError(f"cannot read representatives file {spec!r}: {e}") from e
    except json.JSONDecodeError as e:
        raise FormatError(f"invalid JSON: {e.msg}", line=e.lineno, column=e.colno) from e
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


def _at_least_one(option: str, value: int) -> int:
    if value < 1:
        raise FormatError(f"{option} must be at least 1, got {value}")
    return value


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
    space = cochain.cohomology(alg, _at_least_one("--degree", args.degree))
    relations = cochain.cocycle_relations(alg, args.degree)
    text, doc = cohomology_report(alg, space, relations)
    doc["command"] = "cohomology"
    return text, doc


def _hl2_with_reps(alg: LeibnizAlgebra, reps_spec: str | None):
    hl2 = cochain.cohomology(alg, 2)
    if reps_spec is not None:
        hl2 = cochain.with_representatives(hl2, _load_reps(reps_spec, alg), alg)
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
        # one witness per pair, solved once here for every triple
        pair_wits = {pair: graded.massey_witness(alg, rep) for pair, rep in pair_reps.items()}
        for i, j, k in itertools.combinations_with_replacement(range(h), 3):
            wits = {(0, 1): pair_wits[(i, j)], (0, 2): pair_wits[(i, k)], (1, 2): pair_wits[(j, k)]}
            coords, rep = graded._triple_bracket(alg, [hl2.class_representatives[a] for a in (i, j, k)], wits)
            cls = "0" if vec_is_zero(coords) else "(" + ", ".join(str(c) for c in coords) + ")"
            lines.append(f"  <[{i + 1}],[{j + 1}],[{k + 1}]> = {cls}")
            triple_docs.append(
                {
                    "indices": [i + 1, j + 1, k + 1],
                    "class": [str(c) for c in coords],
                    "representative": cochain_to_json(rep),
                }
            )
            for pair, w in wits.items():
                witness_docs.append(
                    {
                        "triple": [i + 1, j + 1, k + 1],
                        "pair": [pair[0] + 1, pair[1] + 1],
                        "witness": cochain_to_json(w),
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
    d = deform.universal_infinitesimal(alg, hl2.class_representatives)
    text, doc = deformation_report(d, alg)
    doc["command"] = "infinitesimal"
    return text, doc


def cmd_versal(alg: LeibnizAlgebra, args) -> tuple[str, dict]:
    max_order = _at_least_one("--max-order", args.max_order)
    hl2 = _hl2_with_reps(alg, args.reps)
    d, relations = deform.versal_construct(alg, max_order, hl2.class_representatives)
    text, doc = deformation_report(d, alg)
    doc["command"] = "versal"
    doc["relations_by_order"] = {
        str(order): [str(p) for p in polys] for order, polys in relations.items()
    }
    return text, doc


def cmd_pushforward(alg: LeibnizAlgebra, args) -> tuple[str, dict]:
    max_order = _at_least_one("--max-order", args.max_order)
    try:
        target = poly.LocalBase(tuple(g for g in args.to.split(",") if g), max_order)
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
    d, _ = deform.versal_construct(alg, max_order, hl2.class_representatives)
    out = deform.push_forward(d, target, images)
    text, doc = deformation_report(out, alg)
    doc["command"] = "pushforward"
    doc["substitution"] = substitution
    return text, doc


REQUIRED = object()  # the default of an option that must be given
_OUTPUT = {"--output": (("text", "json"), "text", "text or json")}
_REPS = {**_OUTPUT, "--reps": (str, None, "2-cocycle representatives: a JSON file, or 'paper' (lambda6 only)")}
_MAX_ORDER = {"--max-order": (int, 3, "truncation order")}

# subcommand: (handler, help, options).  An option is (type, default, help), the
# type int, str, list (a string that may repeat, kept in order) or a tuple of
# the allowed strings; a default of REQUIRED makes the option required.
COMMANDS = {
    "check": (cmd_check, "verify the Leibniz identity on all basis triples", _OUTPUT),
    "cohomology": (cmd_cohomology, "cocycles, coboundaries and cohomology in one degree",
                   {**_OUTPUT, "--degree": (int, REQUIRED, "cochain degree")}),
    "massey": (cmd_massey, "all second- and third-order Massey brackets of the degree-2 classes", _REPS),
    "infinitesimal": (cmd_infinitesimal, "the universal first-order deformation", _REPS),
    "versal": (cmd_versal, "order-by-order versal deformation", {**_REPS, **_MAX_ORDER}),
    "pushforward": (cmd_pushforward, "substitute base parameters in the versal deformation", {
        **_REPS, **_MAX_ORDER,
        "--sub": (list, REQUIRED, "NAME=POLY, the image of one source generator; repeat per generator"),
        "--to": (str, REQUIRED, "comma-separated target generator names"),
    }),
}


def usage(command: str | None = None) -> str:
    """The help text of the program, or of one subcommand."""
    if command is None:
        intro = "Exact cohomology, Massey brackets and versal deformations of Leibniz algebras."
        title, rows = "commands", [(name, help) for name, (_, help, _) in COMMANDS.items()]
    else:
        _, intro, options = COMMANDS[command]
        title, rows = "options", [
            (name, text + (" (required)" if default is REQUIRED else f" (default {default})" if default else ""))
            for name, (_, default, text) in options.items()
        ]
    lines = [f"usage: leibniz-deform {command or 'COMMAND'} ALGEBRA [OPTIONS]", "", intro, "", f"{title}:"]
    rows += [("ALGEBRA", "an algebra JSON file, or the builtin name 'lambda6'"), ("-h, --help", "show this help")]
    return "\n".join(lines + [f"  {left:<14} {right}" for left, right in rows])


def parse_args(argv: Sequence[str]) -> tuple[Callable, SimpleNamespace]:
    """Match ``argv`` against ``COMMANDS``: the subcommand's handler and its arguments."""
    command = argv[0] if argv else None
    if command not in COMMANDS:
        what = f"unknown subcommand {command!r}" if argv else "missing subcommand"
        raise FormatError(f"{what}; choose from {', '.join(COMMANDS)}")
    handler, _, options = COMMANDS[command]
    positional, values = [], {}
    tokens = iter(argv[1:])
    for token in tokens:
        if token[:1] != "-":
            positional.append(token)
            continue
        name, eq, value = token.partition("=")
        found = [o for o in options if o == name] or [o for o in options if len(name) > 2 and o.startswith(name)]
        if len(found) != 1:
            raise FormatError(f"{'ambiguous' if found else 'unknown'} option {name!r} for {command}")
        name, kind = found[0], options[found[0]][0]
        if not eq:
            value = next(tokens, None)
            # a value may be a negative number, never another option
            if value is None or value[:1] == "-" and not value[1:].isdigit():
                raise FormatError(f"{name} expects a value")
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                raise FormatError(f"{name} expects an integer, got {value!r}") from None
        elif isinstance(kind, tuple) and value not in kind:
            raise FormatError(f"{name} expects one of {', '.join(kind)}, got {value!r}")
        values[name] = values.get(name, []) + [value] if kind is list else value
    if len(positional) != 1:
        raise FormatError(f"unexpected argument {positional[1]!r}" if positional else f"{command} expects ALGEBRA")
    for name, (_, default, _) in options.items():
        if name not in values:
            if default is REQUIRED:
                raise FormatError(f"{command} requires {name}")
            values[name] = default
    return handler, SimpleNamespace(algebra=positional[0], **{n[2:].replace("-", "_"): v for n, v in values.items()})


def run(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        print(usage(argv[0] if argv[0] in COMMANDS else None))
        return 0
    try:
        handler, args = parse_args(argv)
        alg = load_algebra(args.algebra)
        text, doc = handler(alg, args)
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
