"""Command-line front end: ``leibniz-deform COMMAND ALGEBRA [OPTIONS]``.

``COMMANDS`` lists the subcommands and their options.  ALGEBRA is a JSON file
path or the builtin name ``lambda6``.  Options go before or after ALGEBRA, as
``--opt value``, ``--opt=value`` or a unique prefix of ``--opt``; ``--sub``
repeats; ``-h``/``--help`` prints the usage to standard output.  Exit status
is 0 on success and after help, 1 on malformed input (the command line,
files, expressions and option values), 2 on precondition faults, and 141,
with nothing on standard error, when standard output closes before the
report or the help is written (as a shell reports a process ended by
SIGPIPE).  ``main`` ends the process (``os._exit``) once that output is
flushed, so profile or trace a command through ``run()`` as
``bench/trace_cli.py`` does; ``python -m cProfile -m leibniz_deform`` prints
no profile.  All computation is deterministic.  This module holds the two
handlers that need no degree-2 classes, ``check`` and ``cohomology``; the
others are in ``cli_massey`` (``massey``), ``cli_hl2`` (``infinitesimal`` and
``versal``) and ``pushforward``, which also reads the ``--to`` names and
``--sub`` polynomials.  The ``--reps`` reader is ``reps``.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Callable, Sequence
from types import SimpleNamespace

from .algebra import LeibnizAlgebra, load_algebra, validate
from . import cli_hl2, cli_massey, cochain, pushforward
from .errors import FormatError, LeibnizDeformError
from .reports import cohomology_report, dumps_canonical, render_vector


def cmd_check(alg: LeibnizAlgebra, args) -> tuple[str, dict]:
    violations = validate(alg)
    lines = [f"Leibniz identity: {'FAILED' if violations else 'OK'} ({len(violations)} violations)"]
    lines += [f"  ({alg.label(i)},{alg.label(j)},{alg.label(k)}): defect {render_vector(defect, alg)}"
              for (i, j, k), defect in violations]
    doc = {"command": "check", "dim": alg.dim, "ok": not violations, "violations": [
        {"triple": [i + 1, j + 1, k + 1], "defect": [str(x) for x in defect]} for (i, j, k), defect in violations]}
    return "\n".join(lines), doc


def cmd_cohomology(alg: LeibnizAlgebra, args) -> tuple[str, dict]:
    space = cochain.cohomology(alg, args.degree)
    relations = cochain.cocycle_relations(alg, args.degree)
    text, doc = cohomology_report(alg, space, relations)
    doc["command"] = "cohomology"
    return text, doc


REQUIRED = object()  # the default of an option that must be given
_OUTPUT = {"--output": (("text", "json"), "text", "text or json")}
_REPS = {**_OUTPUT, "--reps": (str, None, "2-cocycle representatives: a JSON file, or 'paper' (lambda6 only)")}
_MAX_ORDER = {"--max-order": (int, 3, "truncation order")}

# subcommand: (handler, help, options).  An option is (type, default, help), the
# type int, str, list (a string that may repeat, kept in order) or a tuple of
# the allowed strings; a default of REQUIRED makes the option required.  The
# handlers of the degree-2 commands are read from their modules only at
# dispatch, so that each command loads no other command's front end.
COMMANDS = {
    "check": (cmd_check, "verify the Leibniz identity on all basis triples", _OUTPUT),
    "cohomology": (cmd_cohomology, "cocycles, coboundaries and cohomology in one degree",
                   {**_OUTPUT, "--degree": (int, REQUIRED, "cochain degree")}),
    "massey": (lambda alg, args: cli_massey.cmd_massey(alg, args),
               "all second- and third-order Massey brackets of the degree-2 classes", _REPS),
    "infinitesimal": (lambda alg, args: cli_hl2.cmd_infinitesimal(alg, args),
                      "the universal first-order deformation", _REPS),
    "versal": (lambda alg, args: cli_hl2.cmd_versal(alg, args),
               "order-by-order versal deformation", {**_REPS, **_MAX_ORDER}),
    "pushforward": (lambda alg, args: pushforward.cmd_pushforward(alg, args),
                    "substitute base parameters in the versal deformation", {
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
            if value < 1:  # every int option counts from 1
                raise FormatError(f"{name} must be at least 1, got {value}")
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
    try:
        if "-h" in argv or "--help" in argv:
            report = usage(argv[0] if argv[0] in COMMANDS else None)
        else:
            handler, args = parse_args(argv)
            text, doc = handler(load_algebra(args.algebra), args)
            report = text if args.output == "text" else dumps_canonical(doc)
    except FormatError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except LeibnizDeformError as e:
        print(f"fault: {e}", file=sys.stderr)
        return 2
    try:
        print(report, flush=True)
    except BrokenPipeError:
        return 141
    return 0


def main() -> None:
    os._exit(run())


if __name__ == "__main__":
    main()
