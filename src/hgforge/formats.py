"""JSON file formats with exact scalar round-tripping.

Three document kinds, all plain JSON:

  cube     {"n": 2, "entries": [[[..], ..], ..]}   n*n*n, entries[i][j][k]
  measure  {"n": 2, "values": ["3/4", "1/4"]}
  group    {"invariant_factors": [2, 4]}  or  {"cayley_table": [[..], ..]}

Scalars are JSON integers or strings: "3/4" (lowest terms on output) or
a decimal like "0.75", both parsed exactly; a JSON integer in a cube is
kept as the int itself.  A cube document is read in one pass over its
distinct columns: a column of JSON ints and strings is parsed once, at
its first location, however often it repeats, and each distinct string
once, at its first location, whatever column holds it; a column holding
anything else is parsed where it stands, so a bool or a float is refused
at its own location even where it equals an int column met before.  A
decimal's exponent may not exceed MAX_DECIMAL_EXPONENT in magnitude, so
a short string such as "1e-3000000" cannot stall parsing; its digits are
already bounded by CPython's limit on the digits of an integer string.
The entries of a cube, and the
values of a measure, written over their common denominator, must stay
within MAX_OPERAND_DIGITS: core.scale_to_integers enforces it, and its
OperandBoundError becomes a FormatError here.  Bare JSON floats are
rejected with a pointer to the quoting rule, because a float has already
lost exactness before this library ever sees it.  A cube or group
document names an order of at most groups.DEFAULT_ORDER_CAP, checked
before any scalar or table is read.  A group document must carry exactly
one of its two fields and satisfy the group axioms; Cayley tables are
1-based with the identity at state 1.

Serialization is canonical: fixed key order, two-space indent, lowest
terms, integers written bare.  Equal objects serialize to identical
bytes, which the command-line tools rely on for deterministic output.
"""

from __future__ import annotations

import json
import re

from .core import (  # MAX_OPERAND_DIGITS is re-exported
    MAX_OPERAND_DIGITS, MeasureVector, OperandBoundError, StructureCube, _cube_from_columns, rat,
    scale_to_integers, validate_measure,
)
from .groups import DEFAULT_ORDER_CAP, CayleyTable, InvalidTable, InvariantFactors, cayley_table


# CPython's default limit on the digits of an integer string
MAX_DECIMAL_EXPONENT = 4300

_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\s*\Z")


class FormatError(ValueError):
    """Malformed document: wrong JSON shape, types, or scalar syntax."""


def parse_scalar(value, where):
    """Exact rational from a JSON scalar (int or string)."""
    if isinstance(value, bool):
        raise FormatError(f"{where}: expected a number, found a boolean")
    if isinstance(value, int):
        return rat(value)
    if isinstance(value, float):
        raise FormatError(
            f'{where}: bare floats are inexact; quote the value, e.g. "3/4" or "0.75"'
        )
    if isinstance(value, str):
        exponent = _EXPONENT.search(value)
        if exponent is not None:
            digits = exponent[1].replace("_", "").lstrip("0")
            if len(digits) > len(str(MAX_DECIMAL_EXPONENT)) or int(digits or 0) > MAX_DECIMAL_EXPONENT:
                raise FormatError(
                    f"{where}: the exponent of {value!r} exceeds {MAX_DECIMAL_EXPONENT} in magnitude"
                )
        try:
            return rat(value)
        except (ValueError, ZeroDivisionError) as err:
            raise FormatError(f"{where}: cannot parse {value!r} as a rational ({err})") from None
    raise FormatError(f"{where}: expected an int or a string, found {type(value).__name__}")


def scalar_to_json(q):
    """Canonical JSON form: bare int when integral, else "p/q" lowest terms."""
    if q.denominator == 1:
        return q.numerator
    return f"{q.numerator}/{q.denominator}"


def _require_object(doc, kind):
    if not isinstance(doc, dict):
        raise FormatError(f"{kind} document must be a JSON object, found {type(doc).__name__}")


def _require_n(doc, kind):
    n = doc.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise FormatError(f'{kind} document needs a positive integer "n"')
    return n


def _require_list(value, length, where):
    if not isinstance(value, list):
        raise FormatError(f"{where}: expected a list, found {type(value).__name__}")
    if length is not None and len(value) != length:
        raise FormatError(f"{where}: expected {length} items, found {len(value)}")
    return value


def parse_cube_document(doc) -> StructureCube:
    """Cube from a decoded JSON document; shape errors and an order above
    DEFAULT_ORDER_CAP are FormatError, constraint violations surface as
    ValidationError, as validate_cube raises them: both build the cube
    through core._cube_from_columns."""
    _require_object(doc, "cube")
    n = _require_n(doc, "cube")
    if n > DEFAULT_ORDER_CAP:
        raise FormatError(f"n: cube order {n} exceeds the cap {DEFAULT_ORDER_CAP}")
    parsed = {}  # each distinct scalar string is parsed once, at its first location

    def columns():
        for i, plane in enumerate(_require_list(doc.get("entries"), n, "entries")):
            for j, column in enumerate(_require_list(plane, n, f"entries[{i}]")):
                yield _require_list(column, n, f"entries[{i}][{j}]")

    def convert(column, i, j):
        return [
            x if type(x) is int
            else parsed[x] if type(x) is str and x in parsed
            else parsed.setdefault(x, parse_scalar(x, f"entries[{i}][{j}][{k}]"))
            for k, x in enumerate(column)
        ]

    try:
        return _cube_from_columns(n, columns(), convert)
    except OperandBoundError as err:
        raise FormatError(f"entries: {err}") from None


def parse_measure_document(doc) -> MeasureVector:
    _require_object(doc, "measure")
    n = _require_n(doc, "measure")
    values = _require_list(doc.get("values"), n, "values")
    values = [parse_scalar(x, f"values[{k}]") for k, x in enumerate(values)]
    try:
        scale_to_integers(values)
    except OperandBoundError as err:
        raise FormatError(f"values: {err}") from None
    return validate_measure(values)


def _bound_order(n, where):
    """FormatError for a group order above DEFAULT_ORDER_CAP, checked
    before any table of that order is built."""
    if n > DEFAULT_ORDER_CAP:
        raise FormatError(f"{where}: group order {n} exceeds the cap {DEFAULT_ORDER_CAP}")


def parse_group_document(doc) -> CayleyTable:
    """Group from either field; exactly one must be present."""
    _require_object(doc, "group")
    has_factors = "invariant_factors" in doc
    has_table = "cayley_table" in doc
    if has_factors == has_table:
        raise FormatError(
            'group document needs exactly one of "invariant_factors" or "cayley_table"'
        )
    if has_factors:
        factors = _require_list(doc["invariant_factors"], None, "invariant_factors")
        for k, d in enumerate(factors):
            if not isinstance(d, int) or isinstance(d, bool):
                raise FormatError(f"invariant_factors[{k}]: expected an integer")
        try:
            factors = InvariantFactors(tuple(factors))
        except ValueError as err:
            raise FormatError(f"invariant_factors: {err}") from None
        _bound_order(factors.order, "invariant_factors")
        return cayley_table(factors)
    table = _require_list(doc["cayley_table"], None, "cayley_table")
    n = len(table)
    _bound_order(n, "cayley_table")
    rows = []
    for i, row in enumerate(table):
        row = _require_list(row, n, f"cayley_table[{i}]")
        for j, x in enumerate(row):
            if not isinstance(x, int) or isinstance(x, bool):
                raise FormatError(f"cayley_table[{i}][{j}]: expected an integer state label")
        rows.append(tuple(row))
    try:
        return CayleyTable(n, tuple(rows))
    except InvalidTable as err:
        raise FormatError(f"cayley_table: {err}") from None


def _load(path, parser):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except (ValueError, RecursionError) as err:
        # ValueError covers bad UTF-8 and integers past CPython's digit
        # limit as well as malformed JSON; RecursionError, deep nesting
        raise FormatError(f"{path}: not valid JSON ({err})") from None
    try:
        return parser(doc)
    except FormatError as err:
        raise FormatError(f"{path}: {err}") from None


def load_cube(path) -> StructureCube:
    return _load(path, parse_cube_document)


def load_measure(path) -> MeasureVector:
    return _load(path, parse_measure_document)


def load_group(path) -> CayleyTable:
    return _load(path, parse_group_document)


def cube_to_document(cube: StructureCube) -> dict:
    return {
        "n": cube.n,
        "entries": [
            [[scalar_to_json(q) for q in column] for column in plane] for plane in cube.entries
        ],
    }


def measure_to_document(measure: MeasureVector) -> dict:
    return {"n": measure.n, "values": [scalar_to_json(q) for q in measure.values]}


def group_to_document(table: CayleyTable) -> dict:
    return {"cayley_table": [list(row) for row in table.rows]}


def serialize(document) -> str:
    """Canonical text for any document dict: stable bytes for equal inputs."""
    return json.dumps(document, indent=2, ensure_ascii=True) + "\n"


def write_document(path, document):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(serialize(document))
