"""Tuple file format: a line-oriented UTF-8 document with one canonical writer.

    field: cyclotomic 12
    dim: 2
    points: -2, 0, 2
    matrix:
    -3, -8
    2, 5
    matrix:
    ...

Scalar entries use the exact text grammar of the scalars module; '#' starts
a comment line.  The defining polynomial of F_{p^2} ("finite 7 2 t^2+4")
uses the same term grammar: scalars.parse_terms reads it and
scalars.format_poly writes it.  A cyclotomic order above
MAX_CYCLOTOMIC_ORDER is a ParseError, and "cyclotomic 1" is Q, which saves
as "rational".  The points line is optional; the last matrix is the entry
at infinity.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain

from .errors import ParseError
from .linalg import Matrix
from .scalars import (CYCLOTOMIC, RATIONAL, FieldDescriptor, Scalar, format_poly,
                      format_scalar, parse_scalar, parse_terms)
from .tuples import MonodromyTuple


# tabulating Q(zeta_n) grows faster than linearly in n: n = 1000 takes well
# under a second, n = 10^4 about 10 s, so one line of a file could stall a load
MAX_CYCLOTOMIC_ORDER = 1000


def format_field(field: FieldDescriptor) -> str:
    if field.kind == RATIONAL:
        return "rational"
    if field.kind == CYCLOTOMIC:
        return f"cyclotomic {field.n}"
    if field.k == 1:
        return f"finite {field.p} 1"
    return f"finite {field.p} 2 {format_poly(field.poly, 't')}"


def parse_field(text: str) -> FieldDescriptor:
    toks = text.split()
    if not toks:
        raise ParseError("empty field description")
    try:
        if toks[0] == "rational":
            return FieldDescriptor.rational()
        if toks[0] == "cyclotomic":
            if len(toks) != 2 or not toks[1].isdigit():
                raise ParseError(f"bad cyclotomic field {text!r}")
            n = int(toks[1])
            if n > MAX_CYCLOTOMIC_ORDER:
                raise ParseError(f"cyclotomic order {n} is above the limit "
                                 f"{MAX_CYCLOTOMIC_ORDER}")
            return FieldDescriptor.cyclotomic(n)
        if toks[0] == "finite":
            if len(toks) < 3:
                raise ParseError(f"bad finite field {text!r}")
            p, k = int(toks[1]), int(toks[2])
            if k == 1:
                return FieldDescriptor.finite(p)
            if len(toks) != 4:
                raise ParseError("degree-2 finite field needs its defining polynomial")
            coeffs = [0, 0, 0]
            for pos, coef, sym, exp in parse_terms(toks[3]):
                if sym == "z" or coef.denominator != 1 or exp > 2:
                    raise ParseError("defining polynomial needs integer coefficients "
                                     f"and degree <= 2 in t: {toks[3]!r}", pos)
                coeffs[exp] += int(coef)
            return FieldDescriptor.finite(p, 2, tuple(coeffs))
    except ValueError as exc:
        raise ParseError(f"bad field {text!r}: {exc}") from exc
    raise ParseError(f"unknown field kind {toks[0]!r}")


def save_tuple(T: MonodromyTuple) -> str:
    """The canonical text of T; each distinct entry is formatted once per call."""
    field = T.field
    lines = [f"field: {format_field(field)}", f"dim: {T.dim}"]
    if T.points is not None:
        lines.append("points: " + ", ".join(str(p) for p in T.points))
    formatted = {x: format_scalar(Scalar(field, x))
                 for x in {x for M in T.entries for row in M.payload for x in row}}
    for M in T.entries:
        lines.append("matrix:")
        lines.extend(", ".join(map(formatted.__getitem__, row)) for row in M.payload)
    return "\n".join(lines) + "\n"


def load_tuple(text: str) -> MonodromyTuple:
    """The tuple of a text in the format above; each distinct entry is parsed once per
    call, and the first bad entry in file order raises."""
    field = None
    dim = None
    points = None
    matrices: list[list[list[str]]] = []
    current: list[list[str]] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("field:"):
            field = parse_field(line[len("field:"):].strip())
        elif line.startswith(("dim:", "points:")):
            key, body = line.split(":", 1)
            try:
                if key == "dim":
                    dim = int(body)
                else:
                    points = [Fraction(tok.strip()) for tok in body.split(",")] \
                        if body.strip() else []
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError(f"bad {key} at line {lineno}: {raw!r}") from exc
        elif line.startswith("matrix:"):
            current = []
            matrices.append(current)
        else:
            if current is None or field is None:
                raise ParseError(f"unexpected content at line {lineno}: {raw!r}")
            # the scalar grammar ignores whitespace: "1" and " 1" are one distinct entry
            current.append(line.replace(" ", "").split(","))
    if field is None or dim is None or not matrices:
        raise ParseError("tuple file needs field, dim and at least one matrix")
    entries, payload = [], {}
    for rows in matrices:
        if len(rows) != dim or any(len(r) != dim for r in rows):
            raise ParseError(f"matrix is not {dim}x{dim}")
        for entry in chain.from_iterable(rows):
            if entry not in payload:
                payload[entry] = parse_scalar(entry, field).payload
        entries.append(Matrix(field, tuple(tuple(map(payload.__getitem__, r)) for r in rows)))
    return MonodromyTuple.make(field, entries, points)


def load_tuple_file(path: str) -> MonodromyTuple:
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path} is not UTF-8: {exc.reason} at byte {exc.start}") from None
    return load_tuple(text)
