"""JSON file formats with exact scalar round-tripping.

Three document kinds, all plain JSON:

  cube     {"n": 2, "entries": [[[..], ..], ..]}   n*n*n, entries[i][j][k]
  measure  {"n": 2, "values": ["3/4", "1/4"]}
  group    {"invariant_factors": [2, 4]}  or  {"cayley_table": [[..], ..]}

Scalars are JSON integers or strings: "3/4" (lowest terms on output) or
a decimal like "0.75", both parsed exactly; a JSON integer in a cube is
kept as the int itself.  A cube document is read in one pass over its
distinct columns (core._cube_from_columns): each distinct column is
converted once, at its first location, and each distinct string once, at
its first location, whatever column holds it.

Which columns are equal is decided by a key per column, and there are
two readers.  The spelling that derive --out, json.dump and the
benchmark write, {"n": N, "entries": [...]} with JSON whitespace between
tokens, is read through the text of its columns (_written_columns): the
text is split at "]", the structure between columns is checked, each
column's text is its key, and only the distinct texts are decoded, so a
derived cube of order n decodes n column texts, not n**3 entries.  A bool
or a float equals an int (true == 1, 1.0 == 1), yet must be refused at
its own location, never merged with an equal int column met before; the
texts [0, true], [0, 1.0] and [0, 1] differ, so text keys need no read
of any entry's type.  Every other text goes to the full reader
(_parse_decoded): keys in another order, another key, other whitespace,
a list entry, a string that holds a bracket, a wrong shape, malformed
JSON.  It decodes the whole document, checks that each plane and column
is a list of n items, and keys each column by its entries and their
types (core._typed_keys), which keeps a bool, float or list column
apart.  Columns convert in scan order, and those before a misshapen
plane or column convert before its shape fault is raised, so the fault
reported is the first in scan order; the operand bound and the
constraints are checked after every column has converted.  On every
text the first reader takes, the two give the same cube or the same
error.

A decimal's exponent may not exceed MAX_DECIMAL_EXPONENT in magnitude,
so a short string such as "1e-3000000" cannot stall parsing; its digits
are already bounded by CPython's limit on the digits of an integer
string.  The entries of a cube, and the values of a measure, written
over their common denominator, must stay within MAX_OPERAND_DIGITS:
core.scale_to_integers enforces it, and its OperandBoundError becomes a
FormatError here.  Bare JSON floats are rejected with a pointer to the
quoting rule, because a float has already lost exactness before this
library ever sees it.  A cube or group
document names an order of at most groups.DEFAULT_ORDER_CAP, checked
before any scalar or table is read.  A group document must carry exactly
one of its two fields and satisfy the group axioms; Cayley tables are
1-based with the identity at state 1.

Serialization is canonical: fixed key order, two-space indent, lowest
terms, integers written bare.  Equal objects serialize to identical
bytes, which the command-line tools rely on for deterministic output:
those of json.dumps(document, indent=2, ensure_ascii=True), written by
a small recursive writer (json's indenting encoder has no C version),
which write_document streams to the file chunk by chunk.
"""

from __future__ import annotations

import json
import re
from json.encoder import encode_basestring_ascii

from .core import (  # MAX_OPERAND_DIGITS is re-exported
    MAX_OPERAND_DIGITS, MeasureVector, OperandBoundError, StructureCube, _cube_from_columns, _typed_keys,
    rat, scale_to_integers, validate_measure,
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


def _cube_columns(entries, n):
    """The columns of the n planes entries in scan order, up to the first
    plane or column that is not a list of n items, and the FormatError
    for that one, or None."""
    columns = []
    try:
        for i, plane in enumerate(entries):
            for j, column in enumerate(_require_list(plane, n, f"entries[{i}]")):
                columns.append(_require_list(column, n, f"entries[{i}][{j}]"))
    except FormatError as fault:
        return columns, fault
    return columns, None


def _decode(text):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as err:
        # ValueError covers integers past CPython's digit limit as well as
        # malformed JSON; RecursionError, deep nesting
        raise FormatError(f"not valid JSON ({err})") from None


# JSON's whitespace, and no other: a form feed or a Unicode space between
# tokens is malformed JSON, which only the full reader may report
_WS = " \t\n\r"
_NO_WS = dict.fromkeys(map(ord, _WS))
# the head {"n": N, "entries": [ of a cube document, N a JSON int of at
# most nine digits; re compiles it on first use and keeps it
_HEAD = r'_\{_"n"_:_([1-9][0-9]{0,8})_,_"entries"_:_\['.replace("_", r"[ \t\n\r]*")


def _written_columns(text):
    """(n, keys, columns) of a cube document in the spelling that derive
    --out, json.dump and the benchmark write, or None for any other text.

    That spelling is {"n": N, "entries": [...]} with JSON whitespace
    between tokens, N in 1..DEFAULT_ORDER_CAP, and n planes of n columns
    whose entries hold no list.  The text is split at "]": each column's
    piece is a gap, its last "[" and the column's body, and each plane
    ends with a piece of whitespace.  Each gap must be structure alone:
    "[" before the first column, "," and "[" before the first column of
    each later plane, "," before any other.  The "[" that ends it then
    opens the column, since a "[" inside a string leaves a gap that is
    not structure, and the body holds no bracket outside a string.  A "]"
    inside a string ends a body inside an open string, so its decode
    fails.  The keys are the bodies' texts, and only the distinct ones are
    decoded, in one json.loads, each to a list that must hold n items:
    escapes, exponents, true and wide ints read as the full reader reads
    them.  Only the distinct pieces are split: equal columns at the same
    kind of place share a piece."""
    head = re.match(_HEAD, text)
    if head is None or int(head[1]) > DEFAULT_ORDER_CAP:
        return None
    n = int(head[1])
    # no more pieces than the spelling has, whatever the text holds
    pieces = text.split("]", n * n + n + 1)
    pieces[0] = pieces[0][head.end():]
    if len(pieces) != n * n + n + 2:
        return None
    tail, last = pieces.pop(), pieces.pop()  # after the entries' "]", and before it
    if tail.strip(_WS) != "}" or (last + "".join(pieces[n::n + 1])).strip(_WS):
        return None
    del pieces[n::n + 1]  # the close of each plane
    inner = list(pieces)  # every column's piece but a plane's first
    del inner[::n]
    bodies = {}  # the body of each distinct piece
    for structure, group in (("[", pieces[:1]), (",[", pieces[n::n]), (",", inner)):
        for piece in set(group):
            gap, _, bodies[piece] = piece.rpartition("[")
            if gap.translate(_NO_WS) != structure:
                return None
    keys = list(map(bodies.__getitem__, pieces))
    distinct = dict.fromkeys(bodies.values())
    try:
        decoded = json.loads("[[" + "],[".join(distinct) + "]]")
    except (ValueError, RecursionError):
        return None
    # a body that ends inside a string joins the next body to its list
    if len(decoded) != len(distinct) or any(len(column) != n for column in decoded):
        return None
    columns = dict(zip(distinct, decoded))
    return n, keys, list(map(columns.__getitem__, keys))


def _parse_decoded(text) -> StructureCube:
    """The full reader, for a document in any spelling: decode it, check
    its fields and shape, and key each column by its entries and their
    types (core._typed_keys)."""
    doc = _decode(text)
    _require_object(doc, "cube")
    n = _require_n(doc, "cube")
    if n > DEFAULT_ORDER_CAP:
        raise FormatError(f"n: cube order {n} exceeds the cap {DEFAULT_ORDER_CAP}")
    columns, fault = _cube_columns(_require_list(doc.get("entries"), n, "entries"), n)
    return _cube(n, _typed_keys(columns), columns, fault)


def _cube(n, keys, columns, fault=None) -> StructureCube:
    """The cube of the keyed raw columns (core._cube_from_columns), each
    distinct scalar string parsed once, at its first location."""
    parsed = {}

    def convert(column, i, j):
        return [
            x if type(x) is int
            else parsed[x] if type(x) is str and x in parsed
            else parsed.setdefault(x, parse_scalar(x, f"entries[{i}][{j}][{k}]"))
            for k, x in enumerate(column)
        ]

    try:
        return _cube_from_columns(n, keys, columns, convert, fault)
    except OperandBoundError as err:
        raise FormatError(f"entries: {err}") from None


def parse_cube_document(text) -> StructureCube:
    """Cube from the text of a cube document; malformed JSON, shape errors
    and an order above DEFAULT_ORDER_CAP are FormatError, constraint
    violations surface as ValidationError, as validate_cube raises them:
    both build the cube through core._cube_from_columns.  The written
    spelling is read through its column texts (_written_columns); every
    other text, and every faulty one, by the full reader."""
    written = _written_columns(text)
    if written is None:
        return _parse_decoded(text)
    return _cube(*written)


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


def _load(path, parse):
    """parse(the text of the file at path), each FormatError naming the path."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except ValueError as err:  # bad UTF-8
        raise FormatError(f"{path}: not valid JSON ({err})") from None
    try:
        return parse(text)
    except FormatError as err:
        raise FormatError(f"{path}: {err}") from None


def load_cube(path) -> StructureCube:
    return _load(path, parse_cube_document)


def load_measure(path) -> MeasureVector:
    return _load(path, lambda text: parse_measure_document(_decode(text)))


def load_group(path) -> CayleyTable:
    return _load(path, lambda text: parse_group_document(_decode(text)))


def cube_to_document(cube: StructureCube) -> dict:
    """The entries document of a cube; each distinct value is rendered, and
    each distinct column built, once, and a column's list is shared by
    every (i, j) that holds it."""
    values = {x: scalar_to_json(rat(x, cube.denominator)) for x in {x for col in cube.columns for x in col}}
    columns = [[values[x] for x in col] for col in cube.columns]
    return {"n": cube.n, "entries": [[columns[c] for c in row] for row in cube.layout]}


def measure_to_document(measure: MeasureVector) -> dict:
    return {"n": measure.n, "values": [scalar_to_json(q) for q in measure.values]}


def group_to_document(table: CayleyTable) -> dict:
    return {"cayley_table": [list(row) for row in table.rows]}


def _scalar_text(value):
    """The JSON text of a string, int, bool, None or float, as json.dumps
    spells it; a float lets a document that the loader refuses be written."""
    if type(value) is str:
        return encode_basestring_ascii(value)
    if type(value) is int:
        return str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if type(value) is float:
        return json.dumps(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _write(value, indent, emit):
    """Pass the canonical text of value, a document nested at indent, to
    emit in chunks: one per list of scalars, and per bracket and key
    otherwise.  The bytes are those of json.dumps(value, indent=2,
    ensure_ascii=True) for a value built from dicts with string keys,
    lists, strings, ints, bools, None and floats; any other value is a
    TypeError."""
    kind = type(value)
    if kind is not dict and kind is not list:
        emit(_scalar_text(value))
    elif not value:
        emit("{}" if kind is dict else "[]")
    elif kind is dict:
        inner = indent + "  "
        opening = "{\n" + inner
        for key, item in value.items():
            emit(opening + encode_basestring_ascii(key) + ": ")
            _write(item, inner, emit)
            opening = ",\n" + inner
        emit("\n" + indent + "}")
    else:
        inner = indent + "  "
        kinds = set(map(type, value))
        if list in kinds or dict in kinds:
            opening = "[\n" + inner
            for item in value:
                emit(opening)
                _write(item, inner, emit)
                opening = ",\n" + inner
            emit("\n" + indent + "]")
        else:
            texts = map(str if kinds == {int} else _scalar_text, value)
            emit("[\n" + inner + (",\n" + inner).join(texts) + "\n" + indent + "]")


def serialize(document) -> str:
    """Canonical text for a document dict: stable bytes for equal inputs,
    those of json.dumps(document, indent=2, ensure_ascii=True) and a
    newline."""
    chunks = []
    _write(document, "", chunks.append)
    chunks.append("\n")
    return "".join(chunks)


def write_document(path, document):
    """Write serialize(document) to path, chunk by chunk."""
    with open(path, "w", encoding="utf-8") as handle:
        _write(document, "", handle.write)
        handle.write("\n")
