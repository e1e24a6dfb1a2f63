"""Recovering the unique (group, measure) pair behind a derivable cube.

recover runs one fixed sequence on a valid cube.  It first reads a
candidate pair off, once: match every product column against the
columns of state 1's left action, build the Cayley table that matching
names (CayleyTable checks the group axioms, commutativity included, and
refuses a plane 1 that repeats a column, since row 1 then repeats a
label), take the product column of (1, 1) as the measure, re-derive the
cube from that pair and compare it with the input.  A cube names each
product column by its index among its distinct columns (see
core.StructureCube), so the matching is n**2 index lookups, and the
comparison is the two layouts plus the n columns of a derived cube:
no step of a certified read-off touches all n**3 entries.

A cube the read-off certifies is derived from an abelian group, so it is
commutative and associative, and each of its columns is one of plane
1's.  Plane 1 read as rows is the transpose of the mixture matrix M, and
every left and right action of a derived cube is G_i M, so the rank of M
settles condition (A) without running the O(n^5) associativity scan.
That rank comes from the certified group's characters
(derivation.mixture_rank) over the table's basis, which canonical_form
reads too: one pass over column (1, 1) per class of characters, in ints
of about its width, where an elimination on plane 1 costs O(n^3)
operations on entries that grow as it goes.  Any other cube runs the
commutativity, associativity (matrix route) and condition (A) gates, and
a cube that passes them all gets the read-off's rejection; its condition
(A) gate, satisfies_condition_A, keeps the Bareiss elimination, since
such a cube has no group to take characters of.  Every reason, witness
and detail is the one the gates alone would give.  All steps decide on
the cube's layout and its integer columns (see core.StructureCube).

A successful result is never taken on faith: the candidate pair is fed
back through the forward construction and the rebuilt cube must equal
the input entry for entry.  Certification is what turns "all gates
passed" into "this cube is derived from this pair".
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    MeasureVector,
    StructureCube,
    ValidationError,
    rat,
    validate_cube,
)
from .checks import (
    ConditionAReport,
    Witness,
    _matrix_violations,
    is_commutative,
    satisfies_condition_A,
)
from .derivation import derive_cube, mixture_rank
from .groups import CayleyTable, InvalidTable, InvariantFactors, canonical_form

FAILS_VALIDATION = "fails-validation"
NOT_COMMUTATIVE = "not-commutative"
NOT_ASSOCIATIVE = "not-associative"
FAILS_CONDITION_A = "fails-condition-a"
COLUMN_MATCH_FAILURE = "column-match-failure"
GROUP_AXIOM_FAILURE = "group-axiom-failure"
ROUND_TRIP_MISMATCH = "round-trip-mismatch"

VALUE_ABSENT = "value-absent"
NOT_FUNCTIONAL = "not-functional"


@dataclass(frozen=True)
class RecoveryResult:
    """Either a certified (table, measure, factors) triple or a reason.

    recovered is true exactly when reason is None, and then table,
    measure, and factors are all present and certified: deriving from
    them reproduces the input cube exactly.
    """

    table: CayleyTable | None
    measure: MeasureVector | None
    factors: InvariantFactors | None
    reason: str | None = None
    witness: Witness | None = None
    detail: str | None = None

    @property
    def recovered(self) -> bool:
        return self.reason is None


@dataclass(frozen=True)
class ExtractionResult:
    """Group read off from the positions of a single value, or a reason."""

    table: CayleyTable | None
    reason: str | None = None
    witness: tuple | None = None
    detail: str | None = None

    @property
    def extracted(self) -> bool:
        return self.reason is None


def _rejection(reason, witness=None, detail=None) -> RecoveryResult:
    return RecoveryResult(None, None, None, reason, witness, detail)


def validation_rejection(err: ValidationError) -> RecoveryResult:
    """The fails-validation result for a cube that validate_cube refused."""
    first = err.violations[0]
    return _rejection(FAILS_VALIDATION, Witness(first.indices, first.kind, first.detail), str(err))


def _first_cube_mismatch(expected: StructureCube, actual: StructureCube):
    """None for equal cubes, else the first differing entry and both values,
    located on the entries: the two cubes' denominators can differ.  Both
    cubes are in canonical form, so they are equal exactly when their
    layouts and their distinct columns are."""
    if expected == actual:
        return None
    n, want, got = expected.n, expected.entries, actual.entries
    cells = ((i, j, k) for i in range(n) for j in range(n) for k in range(n))
    i, j, k = next((i, j, k) for i, j, k in cells if want[i][j][k] != got[i][j][k])
    return (i + 1, j + 1, k + 1), want[i][j][k], got[i][j][k]


def _certified_result(cube: StructureCube, table: CayleyTable, measure: MeasureVector) -> RecoveryResult:
    """Final gate: rebuild the cube from the candidate pair and compare."""
    rebuilt = derive_cube(table, measure)
    mismatch = _first_cube_mismatch(cube, rebuilt)
    if mismatch is not None:
        indices, want, got = mismatch
        return _rejection(
            ROUND_TRIP_MISMATCH,
            Witness(indices, str(want), str(got)),
            "rebuilt cube differs from the input",
        )
    return RecoveryResult(table, measure, canonical_form(table))


def _read_off(cube: StructureCube) -> RecoveryResult:
    """Column matching, the group axioms and certification, in that order.

    rows[i][j] is the state k whose column (1, k) equals column (i + 1,
    j + 1), matched by their indices in the layout.  validate_cube has
    proved column (1, 1) a probability vector, so the measure is built
    from it without validating it again.  Returns the certified result,
    or the rejection of the first step that fails.
    """
    state_of_column = {column: k + 1 for k, column in enumerate(cube.layout[0])}
    rows = []
    for i, indices in enumerate(cube.layout):
        row = tuple(state_of_column.get(column) for column in indices)
        if None in row:
            j = row.index(None)
            return _rejection(
                COLUMN_MATCH_FAILURE,
                Witness((i + 1, j + 1), "a column of state 1's plane", "an unmatched column"),
                f"column ({i + 1}, {j + 1}) matches no column of state 1",
            )
        rows.append(row)
    try:
        table = CayleyTable(cube.n, rows)
    except InvalidTable as err:
        return _rejection(GROUP_AXIOM_FAILURE, detail=str(err))
    return _certified_result(cube, table, MeasureVector(cube.n, cube.column(1, 1)))


def recover(cube) -> RecoveryResult:
    """Decide whether the cube is derived and, if so, from what.

    One sequence; the first step that fails names the rejection:
      validation        fails-validation
      read-off          none yet: column matching, group axioms and
                        certification, run once on every valid cube: n**2
                        index lookups and Light's test, then a comparison
                        of layouts plus n column comparisons
      commutativity     not-commutative       (met by a certified cube)
      associativity     not-associative       (met by a certified cube)
      condition (A)     fails-condition-a     (a certified cube: the rank
                                              of its mixture matrix, from
                                              the group's characters)
      column matching   column-match-failure  (the read-off's result)
      group axioms      group-axiom-failure
      certification     round-trip-mismatch
    Only a cube the read-off does not certify runs the three gates.  A
    rejection reports only the first witness of its check: the checks
    keep one, and the associativity gate stops at its first violation.
    That gate is the matrix route (checks._matrix_violations states its
    cost); the brute-force route, which recover does not run, stays
    unshared on purpose as the independent cross-check.

    By the paper's theorem a cube that passes all three gates is derived,
    and the read-off certifies it; no cube of tests/test_census.py (every
    cube of order 2 with entries in (1/D)Z for D <= 2, every commutative
    one for D <= 6, and orders 3 and 4 with D = 1) passes them without
    being certified.  So the read-off's rejection after the gates is a
    second line of defence, which only a faulty read-off would reach.
    """
    try:
        cube = validate_cube(cube)
    except ValidationError as err:
        return validation_rejection(err)
    n = cube.n
    result = _read_off(cube)
    if result.recovered:
        ranks = (mixture_rank(result.table, cube.columns[0]),) * n
        condition = ConditionAReport(n, n, ranks, ranks)
    else:
        commutative = is_commutative(cube, 1)
        if not commutative.holds:
            return _rejection(NOT_COMMUTATIVE, commutative.witnesses[0])
        violation = next(_matrix_violations(cube), None)
        if violation is not None:
            return _rejection(NOT_ASSOCIATIVE, Witness(*violation))
        condition = satisfies_condition_A(cube)
    if not condition.holds:
        return _rejection(
            FAILS_CONDITION_A,
            detail=(
                f"{condition.distinct_column_count} distinct columns of {n}; "
                f"left ranks {list(condition.left_ranks)}, right ranks {list(condition.right_ranks)}"
            ),
        )
    return result


def extract_group_by_value(cube, value) -> ExtractionResult:
    """Read a group off the positions of one scalar value in the cube.

    For a cube derived from a measure with n distinct values, fixing any
    one value v carves out a relation: (i, j) relates to the single k
    where the column of (i, j) carries v at position k.  That relation
    is the multiplication table of a group isomorphic to the underlying
    one, up to relabelling so its identity sits at state 1.

    Fails with value-absent when v appears nowhere, not-functional when
    some (i, j) sees v zero or several times (always the case when the
    measure has repeated values), or group-axiom-failure.  Every decision
    is made on the cube's integer columns, against D * v, and v is counted
    and found once per distinct column; a v that is not a multiple of 1/D
    matches no entry.
    """
    cube = validate_cube(cube)
    v = rat(value)
    n = cube.n
    scaled = v * cube.denominator
    target = scaled.numerator if scaled.denominator == 1 else None
    found = [col.count(target) for col in cube.columns]
    counts = [[found[c] for c in row] for row in cube.layout]
    if not any(map(any, counts)):
        return ExtractionResult(None, VALUE_ABSENT, detail=f"value {v} appears nowhere")
    unmatched = next(((i, j) for i in range(n) for j in range(n) if counts[i][j] != 1), None)
    if unmatched is not None:
        i, j = unmatched
        return ExtractionResult(
            None,
            NOT_FUNCTIONAL,
            witness=(i + 1, j + 1),
            detail=f"value {v} appears {counts[i][j]} times in column ({i + 1}, {j + 1})",
        )
    positions = [col.index(target) + 1 for col in cube.columns]
    rows = [[positions[c] for c in row] for row in cube.layout]

    identity = next(
        (
            e
            for e in range(n)
            if all(rows[e][j] == j + 1 for j in range(n)) and all(rows[i][e] == i + 1 for i in range(n))
        ),
        None,
    )
    if identity is None:
        return ExtractionResult(None, GROUP_AXIOM_FAILURE, detail="no two-sided identity")
    relabel = list(range(1, n + 1))
    relabel[0], relabel[identity] = relabel[identity], relabel[0]
    relabelled = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            relabelled[relabel[i] - 1][relabel[j] - 1] = relabel[rows[i][j] - 1]
    try:
        table = CayleyTable(n, tuple(tuple(r) for r in relabelled))
    except InvalidTable as err:
        return ExtractionResult(None, GROUP_AXIOM_FAILURE, detail=str(err))
    return ExtractionResult(table)
