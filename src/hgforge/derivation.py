"""Building cubes from an abelian group and a probability measure.

The product of states i and j in the derived structure is the translate
of the measure by the group product of i and j: the weight of state k in
the column of (i, j) is the measure of the state that multiplies (i j)
into k.  Equivalently, the left action of state i is G_i M, where G_i is
the translation permutation of i and M is the mixture matrix of the
measure; through it, recovery settles condition (A) with one rank.  The
cube is built as integers over the measure's common denominator; the
mixture matrix and the degeneracy witnesses stay in Fractions.

The construction degrades in exactly two ways, both detected here with
an exact witness: two translates of the measure can coincide (the cube
then has fewer than n distinct columns), or the mixture matrix can be
singular (the action matrices then drop rank).
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    DimensionMismatch,
    RationalMatrix,
    StructureCube,
    scale_to_integers,
    validate_measure,
)
from .groups import CayleyTable

NON_DEGENERATE = "non-degenerate"
REPEATED_TRANSLATES = "repeated-translates"
SINGULAR_MIXTURE = "singular-mixture"


@dataclass(frozen=True)
class DegeneracyVerdict:
    """How a (group, measure) pair degrades, if it does.

    kind "repeated-translates" comes with repeated_state: a state h > 1
    whose translate of the measure equals the measure itself.  kind
    "singular-mixture" comes with kernel_vector: a nonzero rational
    vector annihilated by the mixture matrix.
    """

    kind: str
    repeated_state: int | None = None
    kernel_vector: tuple | None = None

    @property
    def degenerate(self) -> bool:
        return self.kind != NON_DEGENERATE

    def describe(self) -> str:
        if self.kind == REPEATED_TRANSLATES:
            return f"repeated-translates: translating by state {self.repeated_state} fixes the measure"
        if self.kind == SINGULAR_MIXTURE:
            vec = ", ".join(str(x) for x in self.kernel_vector)
            return f"singular-mixture: mixture matrix kills ({vec})"
        return NON_DEGENERATE


def _translates(table: CayleyTable, values):
    """The n translates of a measure's values, one per group state.

    Entry k of translate g is the value at k g^{-1}.  Over the measure
    itself they are the columns of the mixture matrix; over its values
    times a common denominator, the integer product columns of the
    derived cube.
    """
    if table.n != len(values):
        raise DimensionMismatch(f"group has {table.n} states, measure has {len(values)}")
    rows = table.rows
    return [tuple(values[s - 1] for s in rows[row.index(1)]) for row in rows]


def mixture_matrix(table: CayleyTable, measure) -> RationalMatrix:
    """Measure-weighted sum of the translation permutations of a group.

    Column j is the measure translated by state j; column 1 is the
    measure itself.  Commutativity of the group makes this matrix
    commute with every translation permutation.
    """
    return RationalMatrix(tuple(zip(*_translates(table, validate_measure(measure).values))))


def derive_cube(table: CayleyTable, measure) -> StructureCube:
    """Cube of all pairwise products of measure translates.

    Entry (i, j, k) is the measure of k (i j)^{-1}: column (i, j) is the
    translate of the measure by the product i j.  scale_to_integers
    scales the measure once to ints over D, or raises OperandBoundError,
    and each of the n integer translates is built once and shared by every
    (i, j) with that product.  They are probability vectors times D, so the
    cube is built without validating it again; it is commutative and
    associative, and its left action at state i equals G_i times the
    mixture matrix.
    """
    common, ints = scale_to_integers(validate_measure(measure).values)
    translates = _translates(table, ints)
    planes = tuple(tuple(translates[s - 1] for s in row) for row in table.rows)
    return StructureCube(table.n, common, planes)


def degeneracy_check(table: CayleyTable, measure) -> DegeneracyVerdict:
    """Detect either failure mode of the construction, with a witness.

    Checks translate collisions first: if any two translates coincide,
    some translate equals the measure itself (translating the collision
    by a group element moves it there), and the first such state is the
    witness.  Otherwise a rank drop of the mixture matrix, whose columns
    are the translates, is reported through its canonical kernel vector.
    """
    translates = _translates(table, validate_measure(measure).values)
    for h in range(1, table.n):
        if translates[h] == translates[0]:
            return DegeneracyVerdict(REPEATED_TRANSLATES, repeated_state=h + 1)
    kernel = RationalMatrix(tuple(zip(*translates))).kernel_vector()
    if kernel is not None:
        return DegeneracyVerdict(SINGULAR_MIXTURE, kernel_vector=kernel)
    return DegeneracyVerdict(NON_DEGENERATE)
