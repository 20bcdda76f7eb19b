"""The ``pushforward`` command: ``parse_poly`` reads the ``--sub`` images in the
text that ``poly.render_poly`` writes, and ``push_forward`` moves the versal
deformation along them.  Only ``pushforward`` loads this module.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from fractions import Fraction

from .algebra import LeibnizAlgebra
from .deform import Deformation, _transport, versal_construct
from .errors import DimensionMismatch, FormatError, PreconditionError
from .graded import _hl2_representatives
from .poly import _NAME, LocalBase, Monomial, TruncatedPolynomial
from .reports import deformation_report
from .values import F0, F1

# compiled on first use by re's own cache, not at import
_TERM = rf"^(?:(-?\d+(?:/\d+)?)\*?)?((?:{_NAME}(?:\^\d+)?)(?:\*{_NAME}(?:\^\d+)?)*)?$"


def parse_poly(expr: str, base: LocalBase) -> TruncatedPolynomial:
    """The element of ``base`` written as ``expr``, such as ``0``, ``t`` or
    ``2*t^2*s - 1/2*t``: spaces are ignored, and terms joined by ``+`` or
    ``-`` are each an optional integer or ``p/q`` coefficient, an optional
    ``*`` and factors ``NAME`` or ``NAME^k`` joined by ``*``, NAME a generator
    of ``base``.  Raises FormatError naming the term or generator at fault.
    """
    text = expr.replace(" ", "")
    if not text:
        raise FormatError("empty polynomial expression")
    coeffs: dict[Monomial, Fraction] = {}
    for chunk in re.split(r"(?=[+-])", text):
        if not chunk:
            continue
        sign = -F1 if chunk[0] == "-" else F1
        if chunk[0] in "+-":
            chunk = chunk[1:]
        m = re.match(_TERM, chunk)
        if not m or (m.group(1) is None and m.group(2) is None):
            raise FormatError(f"cannot parse polynomial term {chunk!r} in {expr!r}")
        try:
            coeff = sign * Fraction(m.group(1)) if m.group(1) else sign
        except ZeroDivisionError:
            raise FormatError(f"zero denominator in polynomial term {chunk!r} in {expr!r}") from None
        mono = [0] * base.num_generators
        if m.group(2):
            for factor in m.group(2).split("*"):
                name, _, power = factor.partition("^")
                if name not in base.generators:
                    raise FormatError(f"unknown generator {name!r} in {expr!r}")
                mono[base.generators.index(name)] += int(power or 1)
        key = tuple(mono)
        coeffs[key] = coeffs.get(key, F0) + coeff
    return TruncatedPolynomial(base, coeffs)


def push_forward(d: Deformation, target_base: LocalBase, images: Mapping[str, TruncatedPolynomial]) -> Deformation:
    """Transport a deformation along a base homomorphism.

    The homomorphism is given by the images of the generators, one for each
    source generator and no other, which must be polynomials over the target
    base with zero constant term, and must send every source relation to 0.
    Each term lands at the image of its monomial.
    """
    for gen in images:
        if gen not in d.base.generators:
            raise PreconditionError(f"image supplied for {gen!r}, which is not a source generator")
    for gen in d.base.generators:
        if gen not in images:
            raise PreconditionError(f"no image supplied for generator {gen!r}")
        img = images[gen]
        if img.base != target_base:
            raise DimensionMismatch("image lives over the wrong base")
        if img.constant_term():
            raise PreconditionError(f"image of {gen!r} has a nonzero constant term")
    source_proxy = LocalBase(d.base.generators, d.base.truncation_order)
    return _transport(d, target_base, lambda c: TruncatedPolynomial(source_proxy, c).substitute(target_base, images))


def cmd_pushforward(alg: LeibnizAlgebra, args) -> tuple[str, dict]:
    try:
        target = LocalBase(tuple(g for g in args.to.split(",") if g), args.max_order)
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
        images[name] = parse_poly(expr, target)
        substitution[name] = expr
    d, _ = versal_construct(alg, args.max_order, _hl2_representatives(alg, args.reps))
    out = push_forward(d, target, images)
    text, doc = deformation_report(out, alg)
    doc["command"] = "pushforward"
    doc["substitution"] = substitution
    return text, doc
