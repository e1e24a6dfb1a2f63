"""Exact-rational data model for structure-constant cubes.

A hypergroup structure on states 1..n is stored as an n*n*n cube of
rational coefficients: entry (i, j, k) is the weight of state k in the
product of states i and j.  Every column (i, j, *) must be a probability
vector, so all the structural predicates (column equality, matrix rank,
associativity) can be decided exactly, with no tolerances anywhere.

State indices are 1-based in the public API and in every report; the
underlying tuples are plain 0-based storage.

Entries are fractions.Fraction, the package's only rational type.  The
degree-five associativity loops run on Python ints instead: the entries
scaled by a common denominator (see integer_planes).  Ranks and kernel
vectors both come from one fraction-free (Bareiss) elimination on
integer rows (see rational_rank and RationalMatrix.kernel_vector).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


def rat(value, denominator=None):
    """Build an exact rational from an int, string, Fraction, or pair.

    Strings may be fractions ("3/4") or decimals ("0.75", "1e-3"); both
    convert exactly.  Floats are rejected outright: a float has already
    been rounded to binary, so accepting one would silently break the
    exactness guarantee.

    >>> rat("0.75") == rat(3, 4)
    True
    """
    if denominator is not None:
        return Fraction(value, denominator)
    if isinstance(value, float):
        raise TypeError(
            "floating-point values are not exact; pass an int, a Fraction, "
            'or a string such as "3/4" or "0.75"'
        )
    return Fraction(value)


ZERO = rat(0)


def format_vector(values) -> str:
    return "(" + ", ".join(str(q) for q in values) + ")"


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


class DimensionMismatch(ValueError):
    """Operands live on different numbers of states."""


class MatrixShapeError(ValueError):
    """Matrix rows are ragged or empty."""


# --------------------------------------------------------------------------
# matrices


def _fraction_free_eliminate(rows):
    """Bareiss elimination on a mutable list of integer rows; returns the rank.

    All divisions are exact by the Sylvester determinant identity, so the
    intermediate values stay integers and never lose precision.
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


def _cleared_rows(rows):
    """Each row of rationals times the lcm of its denominators, as ints;
    scaling rows changes neither the rank nor the kernel."""
    cleared = []
    for row in rows:
        scale = math.lcm(*(q.denominator for q in row))
        cleared.append([q.numerator * (scale // q.denominator) for q in row])
    return cleared


def rational_rank(rows) -> int:
    """Exact rank of a matrix of rationals, given as a sequence of rows:
    the cleared rows, eliminated fraction-free."""
    return _fraction_free_eliminate(_cleared_rows(rows))


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

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    def rank(self) -> int:
        return rational_rank(self.entries)

    def kernel_vector(self):
        """A canonical nonzero vector v with self times v equal to 0, or None.

        Canonical means: integer entries with gcd 1 and a positive first
        nonzero entry, zero past the first free column f (the first column
        in the span of those before it) and nonzero at f, which fixes v.
        Once the cleared rows are eliminated fraction-free, the pivots of
        columns 0..f-1 sit on the diagonal, so f is the first zero there,
        or the first column past the last row; back-substitution from v[f]
        = the last of those pivots stays in integers by Cramer's rule.
        """
        rows = _cleared_rows(self.entries)
        _fraction_free_eliminate(rows)
        n_cols = self.cols
        free = next((i for i in range(min(len(rows), n_cols)) if not rows[i][i]), len(rows))
        if free >= n_cols:
            return None
        vec = [0] * n_cols
        vec[free] = rows[free - 1][free - 1] if free else 1
        for i in reversed(range(free)):
            row = rows[i]
            vec[i] = -sum(row[j] * vec[j] for j in range(i + 1, free + 1)) // row[i]
        divisor = math.gcd(*vec)
        if next(x for x in vec if x) < 0:
            divisor = -divisor
        return tuple(rat(x // divisor) for x in vec)


# --------------------------------------------------------------------------
# cubes and measures


@dataclass(frozen=True)
class StructureCube:
    """Validated n*n*n cube of product coefficients, 0-based storage.

    entries[i][j] is the column of the product of states i+1 and j+1:
    a nonnegative rational vector summing to one.  Build instances with
    validate_cube; the constructor itself only checks the shape.
    """

    n: int
    entries: tuple[tuple[tuple, ...], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError([Violation("shape-mismatch", (), "need at least one state")])
        if len(self.entries) != self.n or any(
            len(plane) != self.n or any(len(col) != self.n for col in plane) for plane in self.entries
        ):
            raise ValidationError([Violation("shape-mismatch", (), f"entries are not {self.n}^3")])

    def value(self, i, j, k):
        """Coefficient of state k in the product of states i and j (1-based)."""
        return self.entries[i - 1][j - 1][k - 1]

    def column(self, i, j):
        """The full product column of states i and j (1-based)."""
        return self.entries[i - 1][j - 1]


def integer_planes(cube: StructureCube):
    """The cube's entries over one common denominator, as (D, planes).

    D is the lcm of every entry's denominator and planes[i][j][k] is the
    Python int D * entry (i, j, k), in the cube's 0-based layout.  An
    identity that is bilinear in the entries, such as associativity,
    scales by D**2 on both sides, so it holds on these integers exactly
    when it holds on the rationals, and a side s computed on them stands
    for the rational s / D**2.
    """
    entries = cube.entries
    common = math.lcm(*{q.denominator for plane in entries for col in plane for q in col})
    planes = tuple(
        tuple(tuple(q.numerator * (common // q.denominator) for q in col) for col in plane)
        for plane in entries
    )
    return common, planes


@dataclass(frozen=True)
class MeasureVector:
    """Probability vector over the n states, exact rationals."""

    n: int
    values: tuple

    def value(self, k):
        return self.values[k - 1]


def validate_cube(raw) -> StructureCube:
    """Check shape, nonnegativity, and column sums; return the cube.

    Raises ValidationError carrying every violation found, so an invalid
    input is reported in full rather than one problem at a time.  Raises
    TypeError if any entry is a float.
    """
    if isinstance(raw, StructureCube):
        return raw
    try:
        n = len(raw)
    except TypeError:
        raise ValidationError([Violation("shape-mismatch", (), "cube must be a nested sequence")])
    if n < 1:
        raise ValidationError([Violation("shape-mismatch", (), "need at least one state")])
    planes = []
    for i, plane in enumerate(raw):
        if len(plane) != n:
            raise ValidationError(
                [Violation("shape-mismatch", (i + 1,), f"expected {n} columns, found {len(plane)}")]
            )
        cols = []
        for j, col in enumerate(plane):
            if len(col) != n:
                raise ValidationError(
                    [Violation("shape-mismatch", (i + 1, j + 1), f"expected {n} entries, found {len(col)}")]
                )
            cols.append(tuple(rat(x) for x in col))
        planes.append(tuple(cols))
    entries = tuple(planes)

    violations = []
    for i in range(n):
        for j in range(n):
            col = entries[i][j]
            for k in range(n):
                if col[k] < 0:
                    violations.append(
                        Violation("negative-entry", (i + 1, j + 1, k + 1), str(col[k]))
                    )
            total = sum(col, ZERO)
            if total != 1:
                violations.append(
                    Violation("column-sum-not-one", (i + 1, j + 1), f"sums to {total}")
                )
    if violations:
        raise ValidationError(violations)
    return StructureCube(n, entries)


def validate_measure(raw) -> MeasureVector:
    """Check nonnegativity and total mass one; return the measure."""
    if isinstance(raw, MeasureVector):
        return raw
    values = tuple(rat(x) for x in raw)
    if not values:
        raise ValidationError([Violation("shape-mismatch", (), "need at least one state")])
    violations = []
    for k, q in enumerate(values):
        if q < 0:
            violations.append(Violation("negative-entry", (k + 1,), str(q)))
    total = sum(values, ZERO)
    if total != 1:
        violations.append(Violation("sum-not-one", (), f"sums to {total}"))
    if violations:
        raise ValidationError(violations)
    return MeasureVector(len(values), values)
