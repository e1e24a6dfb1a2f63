"""Exact integer data model for structure-constant cubes.

A hypergroup structure on states 1..n is stored as an n*n*n cube of
rational coefficients: entry (i, j, k) is the weight of state k in the
product of states i and j.  Every column (i, j, *) must be a probability
vector, so all the structural predicates (column equality, matrix rank,
associativity) can be decided exactly, with no tolerances anywhere.

State indices are 1-based in the public API and in every report; the
underlying tuples are plain 0-based storage.

A cube holds its entries once, as Python ints over one common
denominator D, and in one canonical form (see StructureCube): its
distinct product columns, as int tuples in the order the scan (1, 1),
(1, 2), ... first uses them, and an n*n layout of indices into them.
Which columns are equal is decided here, once, by the two builders:
_cube_from_columns, which validate_cube and the cube loader share, and
derivation.derive_cube.  Every predicate reaches a column through the
layout, compares layout indices for column equality and decides the rest
on the ints: multisets on int tuples, associativity on identities that
scale by D**2.  Only scale_to_integers computes and bounds D, and both
builders go through it, as does validate_measure before it renders a
violation; an int scalar is used as it is, never wrapped.  The loading
pass converts, scales and checks each distinct column once, so a derived
cube holds n column tuples, not n**2.  fractions.Fraction, the package's
only rational type, appears at the boundary only: parsing, measures,
report text, documents, and StructureCube.entries and column().
Ranks come from a fraction-free (Bareiss) elimination on integer rows
(rational_rank); the rank and the kernel of a mixture matrix come from
its group's characters instead (see the derivation module).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

# Bound on the digits of the common denominator D of a cube's entries or a
# measure's values, and of each numerator over D: half of CPython's limit of
# 4300 digits on an integer string, so every rational a report prints can be
# rendered.  A witness over D**2 has a numerator at most D**2 on a valid cube
# (each column sums to one); a column sum has a denominator dividing D and a
# numerator at most n times the widest one.
MAX_OPERAND_DIGITS = 2150
_OPERAND_LIMIT = 10**MAX_OPERAND_DIGITS


def rat(value, denominator=None):
    """Build an exact rational from an int, string, Fraction, or pair.

    Strings may be fractions ("3/4") or decimals ("0.75", "1e-3"); both
    convert exactly.  A Fraction is returned as it is.  Floats and bools
    are rejected outright: a float has already been rounded to binary, so
    accepting one would silently break the exactness guarantee, and a
    bool is not a number.

    >>> rat("0.75") == rat(3, 4)
    True
    """
    if denominator is not None:
        return Fraction(value, denominator)
    if type(value) is Fraction:
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not numbers; pass an int, a Fraction, or a string")
    if isinstance(value, float):
        raise TypeError(
            "floating-point values are not exact; pass an int, a Fraction, "
            'or a string such as "3/4" or "0.75"'
        )
    return Fraction(value)


@dataclass(frozen=True)
class Violation:
    """One broken invariant, located by 1-based indices."""

    kind: str  # "shape-mismatch" | "negative-entry" | "column-sum-not-one" | "sum-not-one"
    indices: tuple[int, ...]
    detail: str

    def __str__(self):
        where = ", ".join(str(i) for i in self.indices)
        return f"{self.kind} at ({where}): {self.detail}" if where else f"{self.kind}: {self.detail}"


class ValidationError(ValueError):
    """Raised when a cube or measure breaks its defining constraints.

    Carries the full list of violations, not just the first one, so a
    caller can report everything that is wrong with an input file.
    """

    def __init__(self, violations):
        self.violations = tuple(violations)
        shown = "; ".join(str(v) for v in self.violations[:3])
        more = len(self.violations) - 3
        if more > 0:
            shown += f"; and {more} more"
        super().__init__(shown)


class OperandBoundError(ValueError):
    """A common denominator, or a numerator over it, is past MAX_OPERAND_DIGITS."""


class DimensionMismatch(ValueError):
    """Operands live on different numbers of states."""


class MatrixShapeError(ValueError):
    """Matrix rows are ragged or empty."""


# --------------------------------------------------------------------------
# matrices


def _fraction_free_eliminate(rows):
    """Bareiss elimination on a mutable list of integer rows; returns the rank.

    All divisions are exact by the Sylvester determinant identity, so the
    intermediate values stay integers and never lose precision.  The rows
    are left in echelon form: each nonzero row starts past the row above
    it, and the rows span what they spanned before.
    """
    n_rows = len(rows)
    n_cols = len(rows[0]) if n_rows else 0
    prev = 1
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pivot = rows[r][c]
        for i in range(r + 1, n_rows):
            factor = rows[i][c]
            row_i, row_r = rows[i], rows[r]
            for j in range(c + 1, n_cols):
                row_i[j] = (pivot * row_i[j] - factor * row_r[j]) // prev
            row_i[c] = 0
        prev = pivot
        r += 1
        if r == n_rows:
            break
    return r


def rational_rank(rows) -> int:
    """Exact rank of a matrix of rationals or ints, given as a sequence of
    rows: each row times the lcm of its denominators, divided by the gcd
    of the results, as ints (scaling a row keeps the rank), eliminated
    fraction-free."""
    cleared = []
    for row in rows:
        scale = math.lcm(*(q.denominator for q in row))
        ints = [q.numerator * (scale // q.denominator) for q in row]
        divisor = math.gcd(*ints) or 1
        cleared.append([x // divisor for x in ints])
    return _fraction_free_eliminate(cleared)


@dataclass(frozen=True)
class RationalMatrix:
    """Immutable matrix of exact rationals with an integer-exact rank."""

    entries: tuple[tuple, ...]

    def __post_init__(self):
        if not self.entries or not self.entries[0]:
            raise MatrixShapeError("matrix must have at least one row and column")
        width = len(self.entries[0])
        if any(len(row) != width for row in self.entries):
            raise MatrixShapeError("matrix rows have unequal lengths")

    def rank(self) -> int:
        return rational_rank(self.entries)


# --------------------------------------------------------------------------
# cubes and measures


def scale_to_integers(values):
    """(D, ints) for a flat sequence of ints and Fractions: D, the lcm of
    their denominators, and each value times D.  OperandBoundError as soon
    as the lcm, or then an int, has more than MAX_OPERAND_DIGITS digits."""
    denominators = {q.denominator for q in values}
    common = 1
    for d in denominators:
        common = math.lcm(common, d)
        if common >= _OPERAND_LIMIT:
            raise OperandBoundError(f"the common denominator exceeds {MAX_OPERAND_DIGITS} digits")
    scale = {d: common // d for d in denominators}
    ints = [q.numerator * scale[q.denominator] for q in values]
    if ints and (max(ints) >= _OPERAND_LIMIT or min(ints) <= -_OPERAND_LIMIT):
        raise OperandBoundError(f"a numerator over the common denominator exceeds {MAX_OPERAND_DIGITS} digits")
    return common, ints


@dataclass(frozen=True)
class StructureCube:
    """Validated n*n*n cube of product coefficients, 0-based storage.

    denominator is D, the lcm of the denominators of all entries.  columns
    holds the distinct product columns, each the n ints D * entry (i, j,
    k) over k, in the order the scan (1, 1), (1, 2), ... first uses them,
    and layout[i][j] is the index into columns of the product column of
    states i+1 and j+1.  Each column is a nonnegative vector summing to
    one, so its ints sum to D, and D and every int have at most
    MAX_OPERAND_DIGITS digits, so every witness over D**2 renders.

    entries and column() are Fraction views computed from those fields,
    for the boundary; every predicate reads columns and layout.  D is
    determined by the entries, and the columns and the layout by D and
    the entries once the order is fixed, so two cubes are equal exactly
    when their entries are.  Build instances with validate_cube or
    derive_cube, which establish all of this (through scale_to_integers,
    raising OperandBoundError past the bound); the constructor checks
    nothing.
    """

    n: int
    denominator: int
    columns: tuple[tuple[int, ...], ...]
    layout: tuple[tuple[int, ...], ...]

    @cached_property
    def entries(self):
        """The entries as Fractions, entries[i][j][k] the weight of state
        k + 1 in the product of states i + 1 and j + 1; each distinct value
        and each distinct column is built once and shared."""
        values = {x: Fraction(x, self.denominator) for x in {x for col in self.columns for x in col}}
        columns = [tuple(values[x] for x in col) for col in self.columns]
        return tuple(tuple(columns[c] for c in row) for row in self.layout)

    def column(self, i, j):
        """The full product column of states i and j (1-based), as Fractions."""
        return tuple(Fraction(x, self.denominator) for x in self.columns[self.layout[i - 1][j - 1]])


@dataclass(frozen=True)
class MeasureVector:
    """Probability vector over the n states, exact rationals."""

    n: int
    values: tuple


def _check_length(part, n, indices, unit):
    """Raise the shape-mismatch at indices unless part is a sequence of n
    items; a str or bytes is refused by its type, not read as characters."""
    if isinstance(part, (str, bytes)):
        found = type(part).__name__
    else:
        try:
            found = len(part)
        except TypeError:
            found = type(part).__name__
    if found != n:
        raise ValidationError([Violation("shape-mismatch", indices, f"expected {n} {unit}, found {found}")])


def _cube_from_columns(n, keys, columns, convert, fault) -> StructureCube:
    """The cube whose raw columns, each a sequence of n entries, are the
    list columns, in scan order (1, 1), (1, 2), ...: all n*n of them, or
    those before the first plane or column of the wrong shape, whose error
    fault is then raised once they are converted.

    keys holds a hashable key for each column, and columns with equal keys
    are one column: a single pass lays out the cube by key, and each
    distinct column is converted once, at the first position p that holds
    it, by convert(column, *divmod(p, n)) into ints and Fractions; convert
    raises for an entry that is not an int or a scalar string.  Equal keys
    must mean columns that convert alike.  An entry can equal an int
    without being one (True == 1, 1.0 == 1), and such a column must meet
    convert where it stands, not be merged with the int column it equals:
    _typed_keys reads the type of every entry to keep them apart, and the
    cube loader's keys, the texts of the columns, differ already ([0, true]
    is not the text [0, 1]).  Conversion runs in scan order, so the fault
    met first is the one reported.  D is computed and bounded over the
    distinct columns (scale_to_integers), and columns equal as ints ("1/2"
    and "2/4", or two texts of one column) are merged, which puts the cube
    in its canonical form (see StructureCube).  Signs and sums are checked
    once per merged column, and each violation is reported at every (i, j)
    that holds the column, in scan order.
    """
    first = {}  # each distinct key, at the first position that holds it
    at = list(map(first.setdefault, keys, range(len(columns))))
    distinct = [convert(columns[p], *divmod(p, n)) for p in first.values()]
    if fault is not None:
        raise fault
    common, ints = scale_to_integers([x for column in distinct for x in column])
    merged = {}  # each distinct int column, at its index among the cube's columns
    indices = [merged.setdefault(tuple(ints[start:start + n]), len(merged)) for start in range(0, len(ints), n)]
    remap = dict(zip(first.values(), indices))  # first position -> index among the cube's columns
    faults = []
    for column in merged:
        found = []
        if min(column) < 0:
            found = [((k + 1,), "negative-entry", str(rat(x, common))) for k, x in enumerate(column) if x < 0]
        if sum(column) != common:
            found.append(((), "column-sum-not-one", f"sums to {rat(sum(column), common)}"))
        faults.append(found)
    if any(faults):
        raise ValidationError(
            Violation(kind, (position // n + 1, position % n + 1) + more, detail)
            for position, p in enumerate(at)
            for more, kind, detail in faults[remap[p]]
        )
    layout = tuple(tuple(map(remap.__getitem__, at[start:start + n])) for start in range(0, n * n, n))
    return StructureCube(n, common, tuple(merged), layout)


def _typed_keys(columns):
    """The key of each column: its tuple of entries if they are all exactly
    ints and strings, else its position, so no key is unhashable and no
    bool, float or list entry merges its column with another."""
    return [key if {int, str}.issuperset(map(type, key)) else p for p, key in enumerate(map(tuple, columns))]


def _raw_columns(raw, n):
    """The columns of a nested sequence in scan order, up to the first
    plane or column that is not a sequence of n items, and the
    ValidationError for that one, or None."""
    columns = []
    try:
        for i, plane in enumerate(raw):
            _check_length(plane, n, (i + 1,), "columns")
            for j, column in enumerate(plane):
                _check_length(column, n, (i + 1, j + 1), "entries")
                columns.append(column)
    except ValidationError as fault:
        return columns, fault
    return columns, None


def validate_cube(raw) -> StructureCube:
    """Check shape, nonnegativity, and column sums; return the cube.

    Raises ValidationError carrying every violation found, so an invalid
    input is reported in full rather than one problem at a time; a str or
    bytes plane or column is a shape-mismatch, not a sequence of
    characters.  An entry must be an int, a Fraction or a string that rat
    reads: rat raises TypeError for None, a float or a bool, ValueError for
    a string it cannot parse, and ZeroDivisionError for a zero denominator
    ("1/0").  OperandBoundError comes from scale_to_integers.  The cube
    holds each distinct column once (see _cube_from_columns).
    """
    if isinstance(raw, StructureCube):
        return raw
    try:
        n = len(raw)
    except TypeError:
        raise ValidationError([Violation("shape-mismatch", (), "cube must be a nested sequence")])
    if n < 1:
        raise ValidationError([Violation("shape-mismatch", (), "need at least one state")])
    columns, fault = _raw_columns(raw, n)
    return _cube_from_columns(
        n, _typed_keys(columns), columns, lambda column, i, j: [x if type(x) is int else rat(x) for x in column], fault
    )


def validate_measure(raw) -> MeasureVector:
    """Check nonnegativity and total mass one; return the measure.

    A measure that breaks either is bounded by scale_to_integers before a
    violation is rendered, so one with a value past MAX_OPERAND_DIGITS
    raises OperandBoundError, not an error from printing the value.  A
    valid measure is returned unbounded; derive_cube bounds it.
    """
    if isinstance(raw, MeasureVector):
        return raw
    values = tuple(rat(x) for x in raw)
    if not values:
        raise ValidationError([Violation("shape-mismatch", (), "need at least one state")])
    negative = [k for k, q in enumerate(values) if q < 0]
    total = sum(values)
    if negative or total != 1:
        scale_to_integers(values)
        violations = [Violation("negative-entry", (k + 1,), str(values[k])) for k in negative]
        if total != 1:
            violations.append(Violation("sum-not-one", (), f"sums to {total}"))
        raise ValidationError(violations)
    return MeasureVector(len(values), values)
