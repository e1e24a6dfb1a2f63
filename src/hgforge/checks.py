"""Structural predicates on cubes, each returning an evidence-backed report.

Every check is a total function: it never raises on a valid cube, it
returns a PropertyReport whose witnesses pin down the first violations
in a deterministic scan order.  Associativity is decided by two
independent routes on purpose - a matrix identity and a brute-force
triple scan - so each can catch a bug in the other.

Every check decides on the cube's stored form (see core.StructureCube):
its distinct columns, the entries times the common denominator D, and the
layout that names the column of each (i, j).  Equal columns have equal
indices, so commutativity and the distinct count of condition (A) read
the layout, ranks are keyed by sets of indices, and the corollaries sort
and pack each distinct column once; no check finds equal columns itself.
The matrix route and the corollaries read the action rows the same way,
each distinct row once, through _distinct_action_rows.  Multisets are
compared as int tuples, which D > 0 leaves in the same order, and ranks
are taken on int rows.  The associativity routes and the product-columns
corollary compare sides that are bilinear in the entries, so they scale
by D**2 on both sides, and the matrix route and product-columns pack
each row or column of a side into one int (Kronecker substitution; see
_matrix_violations, which also states the matrix route's cost).  The
brute-force route stays unpacked and unshared on purpose, as the
independent check of the slot width and of that sharing, and expands
over each column's nonzero (index, value) pairs only.
Witnesses are turned back into the exact rationals they stand for, and
only for a witness that is kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import mul

from .core import StructureCube, rat, rational_rank

DEFAULT_WITNESS_CAP = 16


@dataclass(frozen=True)
class Witness:
    """One concrete violation: where it happened and the two sides."""

    indices: tuple[int, ...]
    expected: str
    actual: str


@dataclass(frozen=True)
class PropertyReport:
    """Verdict for one property of a cube: its name, whether it holds,
    its first witnesses in scan order and its full violation count.

    holds is true exactly when witnesses is empty.  violation_count is
    the full count even when the witness list is truncated at the cap.
    """

    name: str
    holds: bool
    witnesses: tuple[Witness, ...]
    violation_count: int


class _Collector:
    """Counts every violation, keeps at most `cap` witnesses."""

    def __init__(self, cap):
        if cap < 1:
            raise ValueError("witness cap must be at least 1")
        self.cap = cap
        self.witnesses = []
        self.count = 0

    def add(self, indices, expected, actual):
        self.count += 1
        if len(self.witnesses) < self.cap:
            self.witnesses.append(Witness(tuple(indices), expected, actual))

    def add_scaled(self, indices, expected, actual, scale):
        """Like add, for two integer vectors that stand for the rational
        vectors expected / scale and actual / scale.  The rationals are
        only built for a witness that is kept."""
        self.count += 1
        if len(self.witnesses) < self.cap:
            self.witnesses.append(
                Witness(tuple(indices), _unscaled_vector(expected, scale), _unscaled_vector(actual, scale))
            )

    def report(self, name):
        return PropertyReport(name, self.count == 0, tuple(self.witnesses), self.count)


def _unscaled_vector(values, scale):
    return "(" + ", ".join(str(rat(x, scale)) for x in values) + ")"


def is_commutative(cube: StructureCube, witness_cap=DEFAULT_WITNESS_CAP) -> PropertyReport:
    """Do states i and j produce the same column in both orders?  Read off
    the layout: equal columns have one index."""
    columns, layout = cube.columns, cube.layout
    found = _Collector(witness_cap)
    for i in range(cube.n):
        for j in range(i + 1, cube.n):
            if layout[i][j] != layout[j][i]:
                found.add_scaled((i + 1, j + 1), columns[layout[i][j]], columns[layout[j][i]], cube.denominator)
    return found.report("commutative")


def is_associative_bruteforce(cube: StructureCube, witness_cap=DEFAULT_WITNESS_CAP) -> PropertyReport:
    """Triple products expanded coefficient by coefficient.

    For every (i, j, m), the column of (i*j)*m must equal the column of
    i*(j*m); both sides are expanded through the cube with no matrix
    algebra involved.  Each expansion runs over the nonzero (index,
    value) pairs of the columns it reads, listed once per distinct column
    and reached through the layout, so a zero entry costs nothing.
    """
    n, columns, layout = cube.n, cube.columns, cube.layout
    scale = cube.denominator**2
    pairs = [[(p, x) for p, x in enumerate(col) if x] for col in columns]
    support = [[pairs[c] for c in row] for row in layout]
    found = _Collector(witness_cap)
    for i in range(n):
        support_i = support[i]
        for j in range(n):
            support_ij, support_j = support_i[j], support[j]
            for m in range(n):
                lhs = [0] * n
                for k, q in support_ij:
                    for p, x in support[k][m]:
                        lhs[p] += q * x
                rhs = [0] * n
                for k, q in support_j[m]:
                    for p, x in support_i[k]:
                        rhs[p] += q * x
                if lhs != rhs:
                    found.add_scaled((i + 1, j + 1, m + 1), lhs, rhs, scale)
    return found.report("associative-bruteforce")


def is_associative_matrix(cube: StructureCube, witness_cap=DEFAULT_WITNESS_CAP) -> PropertyReport:
    """Matrix route: the left-action matrices must reproduce the products.

    For every (i, j), the matrix product of the left actions of i and j
    must equal the coefficient combination of left actions given by the
    product column of (i, j).  Equivalent to the brute-force route, but
    through an entirely different computation.
    """
    found = _Collector(witness_cap)
    for indices, expected, actual in _matrix_violations(cube):
        found.add(indices, expected, actual)
    return found.report("associative-matrix")


def _matrix_violations(cube: StructureCube):
    """The violations of the matrix route, lazily and in scan order: the
    1-based pair (i, j) and both sides of its first differing entry, row
    by row.  A caller that needs only the first stops the scan there.

    Row r of the left action L_k of state k is packed into one int
    P[k][r], entry c in slot c (see _pack), so row r of each side is at
    most n int multiply-adds run in C: sum_k L_i[r][k] * P[j][k] for the
    product, sum_k c_ijk * P[k][r] for the mix.  No slot carries.
    validate_cube and derive_cube, the only builders of a cube, make its
    entries nonnegative with every column summing to D, so each is at
    most D.  An entry of either side is sum_k a_k * b_k with every
    a_k <= D and the b_k a column, so 0 <= entry <= D**2 < 2**w.  A
    violating row is unpacked only at its first differing entry, the slot
    of the lowest set bit of lhs ^ rhs.

    Each side is computed once per distinct value it depends on, within
    one call: the product row depends only on row r of L_i, named by its
    index among the distinct action rows (_distinct_action_rows), and on
    j; the mix row only on the product column (i, j), named by its index
    in the layout, and on r.  Each fills its slot the first time the scan
    reaches it and is looked up after that.  Each distinct action row is
    packed once.  The cost is (distinct rows + distinct columns) x n
    packed products, one pack per distinct row, and n**3 lookups.  A
    derived cube has at most n distinct rows (its actions are G_i M, row
    permutations of the mixture matrix) and n distinct columns, so 2n**2
    products and n packs; a cube that repeats no row or column does the
    2n**3 products of the unshared scan, in the same order, and n**2
    packs.  is_associative_bruteforce shares nothing, on purpose.
    """
    n, columns, layout = cube.n, cube.columns, cube.layout
    scale = cube.denominator**2
    w = scale.bit_length()
    mask = (1 << w) - 1
    rows, row_at = _distinct_action_rows(cube)
    packs = [_pack(row, w) for row in rows]
    # P[k], the rows of L_k packed, and P[.][r], row r of every L_k packed
    packed = [[packs[row] for row in at] for at in row_at]
    packed_at = list(zip(*packed))
    row_coeffs = [[x for x in row if x] for row in rows]
    column_coeffs = [[q for q in col if q] for col in columns]
    # for this call only, each slot filled when the scan first reads it:
    # products[row][j], distinct row times L_j, and mixes[col][r], the mix
    # of column col at row r
    products, mixes = [[None] * n for _ in rows], [[None] * n for _ in columns]
    for i in range(n):
        for j, col in enumerate(layout[i]):
            mix, mixed = columns[col], mixes[col]
            for r, row in enumerate(row_at[i]):
                product = products[row]
                lhs = product[j]
                if lhs is None:
                    lhs = product[j] = sum(map(mul, row_coeffs[row], compress(packed[j], rows[row])))
                rhs = mixed[r]
                if rhs is None:
                    rhs = mixed[r] = sum(map(mul, column_coeffs[col], compress(packed_at[r], mix)))
                if lhs != rhs:
                    c = (((lhs ^ rhs) & -(lhs ^ rhs)).bit_length() - 1) // w
                    at = f"entry ({r + 1}, {c + 1}) = "
                    yield (i + 1, j + 1), *(f"{at}{rat(x >> c * w & mask, scale)}" for x in (lhs, rhs))
                    break


def _distinct_action_rows(cube: StructureCube):
    """The action rows of the cube, each distinct one once: (rows, at),
    the row counterpart of cube.columns and cube.layout.  Row r of the
    left action L_i holds entry (i, c, r) at c; rows lists the distinct
    ones as int tuples in the order the scan (1, 1), (1, 2), ... over
    (i, r) first meets them, and at[i][r] is the index in rows of row r
    of L_i.  Action rows are not columns of the cube, so they are keyed
    by value, here, once per call."""
    columns, first = cube.columns, {}
    at = [[first.setdefault(row, len(first)) for row in zip(*(columns[c] for c in indices))] for indices in cube.layout]
    return list(first), at


def _pack(values, w):
    """Kronecker substitution: value p of the vector in bits p*w to p*w + w - 1."""
    return sum(x << (p * w) for p, x in enumerate(values) if x)


def _unpack(packed, n, w):
    """The n values of a vector packed by _pack, lazily: a witness that
    the collector does not keep is never unpacked."""
    return (packed >> (p * w) & ((1 << w) - 1) for p in range(n))


@dataclass(frozen=True)
class ConditionAReport:
    """Column-count and rank evidence for the derivability test.

    holds is true exactly when the cube has n distinct product columns
    and every left and right action matrix has full rank n.
    """

    n: int
    distinct_column_count: int
    left_ranks: tuple[int, ...]
    right_ranks: tuple[int, ...]

    @property
    def holds(self) -> bool:
        return (
            self.distinct_column_count == self.n
            and all(r == self.n for r in self.left_ranks)
            and all(r == self.n for r in self.right_ranks)
        )


def satisfies_condition_A(cube: StructureCube) -> ConditionAReport:
    """Exactly n distinct columns, and all action matrices of full rank.

    The distinct columns are the cube's own (len(cube.columns)), and the
    ranks are taken straight off it: plane i, read as rows, is the
    transpose of the left action of state i, and the columns (j, i) over
    j, read as rows, the transpose of its right action.  A transpose has
    the same rank.  A rank depends only on the set of distinct rows, since
    neither their order nor a repeated row changes the row space, so each
    distinct row set, left or right, is ranked once, keyed by the set of
    its column indices in the layout.  On a derived cube every such set is
    the n translates of the measure, and the whole check costs one rank.
    Each rank is a Bareiss elimination (core.rational_rank), since a cube
    given here need not come from a group; recover takes a certified
    cube's ranks from its group's characters instead
    (derivation.mixture_rank).
    """
    columns, layout = cube.columns, cube.layout
    ranks = {}

    def rank(indices):
        key = frozenset(indices)
        if key not in ranks:
            ranks[key] = rational_rank([columns[c] for c in indices])
        return ranks[key]

    return ConditionAReport(cube.n, len(columns), tuple(map(rank, layout)), tuple(map(rank, zip(*layout))))


def check_corollaries(cube: StructureCube, witness_cap=DEFAULT_WITNESS_CAP) -> list[PropertyReport]:
    """Four structural consequences that hold on every derived cube.

    Useful as fast necessary conditions and as independent diagnostics:
      column-contents       every product column holds the same multiset
                            of values as column (1, 1), and the cube uses
                            at most n distinct scalars overall
      constant-diagonals    within each left action, the diagonal entries
                            all agree
      row-column-contents   within each left action, every row and every
                            column holds one and the same multiset
      product-columns       the expansion of the product column of (k, j)
                            through plane k matches its expansion through
                            the diagonal column of (k, k)
    """
    n, common, columns, layout = cube.n, cube.denominator, cube.columns, cube.layout
    # each distinct column and action row sorted once here, and each
    # distinct column packed once below
    sorted_columns = [tuple(sorted(col)) for col in columns]
    rows, row_at = _distinct_action_rows(cube)
    sorted_rows = [tuple(sorted(row)) for row in rows]

    base = sorted_columns[0]
    contents = _Collector(witness_cap)
    for i in range(n):
        for j in range(n):
            col = sorted_columns[layout[i][j]]
            if col != base:
                contents.add_scaled((i + 1, j + 1), base, col, common)
    scalars = {x for col in columns for x in col}
    if len(scalars) > n:
        contents.add((), f"at most {n} distinct values in the cube", f"{len(scalars)} distinct values")
    reports = [contents.report("column-contents")]

    diagonals = _Collector(witness_cap)
    for i in range(n):
        first = columns[layout[i][0]][0]
        for j in range(1, n):
            entry = columns[layout[i][j]][j]
            if entry != first:
                diagonals.add((i + 1, j + 1), str(rat(first, common)), str(rat(entry, common)))
    reports.append(diagonals.report("constant-diagonals"))

    rows_cols = _Collector(witness_cap)
    for i in range(n):
        base_i = sorted_columns[layout[i][0]]
        for j in range(1, n):
            col = sorted_columns[layout[i][j]]
            if col != base_i:
                rows_cols.add_scaled((i + 1, j + 1), base_i, col, common)
        for r, index in enumerate(row_at[i]):
            row = sorted_rows[index]
            if row != base_i:
                rows_cols.add_scaled((i + 1, r + 1), base_i, row, common)
    reports.append(rows_cols.report("row-column-contents"))

    # bilinear in the entries like associativity: both sides scale by D**2,
    # and their columns are packed like the rows of _matrix_violations
    scale = common * common
    w = scale.bit_length()
    packs = [_pack(col, w) for col in columns]
    nonzero = [[q for q in col if q] for col in columns]
    packed = [[packs[c] for c in row] for row in layout]
    packed_at = list(zip(*packed))
    products = _Collector(witness_cap)
    for k in range(n):
        diag = columns[layout[k][k]]
        diag_coeffs = nonzero[layout[k][k]]
        for j in range(n):
            col = layout[k][j]
            lhs = sum(map(mul, nonzero[col], compress(packed[k], columns[col])))
            rhs = sum(map(mul, diag_coeffs, compress(packed_at[j], diag)))
            if lhs != rhs:
                products.add_scaled((k + 1, j + 1), _unpack(lhs, n, w), _unpack(rhs, n, w), scale)
    reports.append(products.report("product-columns"))

    return reports
