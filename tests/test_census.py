"""An exhaustive census of the paper's theorem at small order.

A valid commutative cube is derived from an abelian group of its order
exactly when it is associative and meets condition (A), and the pair is
then unique.  Every commutative cube with entries in (1/D)Z is built
here, for n = 2 with D <= 6 and for n = 3 with D = 1; for n = 4 with
D = 1, the 0/1 cubes are the tables of commutative operations, and only
the associative ones are built (the others fail the theorem's first
condition, and there are 4**10 of them).  On each cube the package's
verdicts must tell one story, and the cubes it recovers must be counted
as tests/oracles.py counts the derived cubes that meet condition (A).
For n = 2 with D <= 2, every cube is built, commutative or not, so that
recover's not-commutative answer is counted too.

No cube of the census passes recover's three gates (commutativity,
associativity, condition (A)) without being certified, so the read-off's
rejections after the gates are reached by no cube here.
"""

import itertools

import pytest

from hgforge import (
    check_corollaries,
    is_associative_bruteforce,
    is_associative_matrix,
    recover,
    satisfies_condition_A,
    validate_cube,
)
from oracles import grid_measures, oracle_census_count


def _commutative_cubes(n, denominator):
    """Every commutative cube on n states with entries in (1/D)Z: one grid
    column for each cell (i, j) with i <= j, mirrored to (j, i)."""
    columns = [tuple(values) for values in grid_measures(n, denominator)]
    cells = [(i, j) for i in range(n) for j in range(i, n)]
    for choice in itertools.product(columns, repeat=len(cells)):
        entries = [[None] * n for _ in range(n)]
        for (i, j), column in zip(cells, choice):
            entries[i][j] = entries[j][i] = column
        yield entries


def _associative_point_cubes(n):
    """Every commutative associative cube on n states with 0/1 entries:
    column (i, j) is the point mass at the product of i and j in an
    operation table, filled in scan order and dropped at the first triple
    whose products are all known and disagree."""
    cells = [(i, j) for i in range(n) for j in range(i, n)]
    table = [[None] * n for _ in range(n)]

    def consistent():
        for a, b, c in itertools.product(range(n), repeat=3):
            ab, bc = table[a][b], table[b][c]
            if ab is not None and bc is not None:
                left, right = table[ab][c], table[a][bc]
                if left is not None and right is not None and left != right:
                    return False
        return True

    def extend(k):
        if k == len(cells):
            yield [[[int(s == product) for s in range(n)] for product in row] for row in table]
            return
        i, j = cells[k]
        for product in range(n):
            table[i][j] = table[j][i] = product
            if consistent():
                yield from extend(k + 1)
        table[i][j] = table[j][i] = None

    return extend(0)


@pytest.mark.parametrize(
    "n, denominator, associative, recovered",
    [(2, 2, 11, 2), (2, 3, 18, 4), (2, 4, 25, 4), (2, 6, 35, 6), (3, 1, 63, 3), (4, 1, 1140, 16)],
    ids=["n2-D2", "n2-D3", "n2-D4", "n2-D6", "n3-D1", "n4-D1"],
)
def test_census(n, denominator, associative, recovered):
    cubes = _associative_point_cubes(n) if n == 4 else _commutative_cubes(n, denominator)
    pairs, associates = [], 0
    for entries in cubes:
        cube = validate_cube(entries)
        holds = is_associative_bruteforce(cube).holds
        assert is_associative_matrix(cube).holds == holds
        associates += holds
        result = recover(cube)
        assert result.recovered == (holds and satisfies_condition_A(cube).holds), entries
        if result.recovered:
            assert all(report.holds for report in check_corollaries(cube))
            pairs.append((result.table.rows, result.measure.values))
    assert associates == associative
    # the cubes are distinct, so uniqueness means their pairs are too
    assert len(set(pairs)) == len(pairs) == recovered == oracle_census_count(n, denominator)


def _recovered_pairs(cubes):
    """The (table rows, measure) pairs that recover certifies among cubes."""
    results = (recover(validate_cube(entries)) for entries in cubes)
    return [(result.table.rows, result.measure.values) for result in results if result.recovered]


@pytest.mark.parametrize("denominator, cubes, not_commutative", [(1, 16, 8), (2, 81, 54)], ids=["D1", "D2"])
def test_census_without_the_symmetry_restriction(denominator, cubes, not_commutative):
    columns = [tuple(values) for values in grid_measures(2, denominator)]
    every = [[[a, b], [c, d]] for a, b, c, d in itertools.product(columns, repeat=4)]
    refused = 0
    for entries in every:
        cube = validate_cube(entries)
        assert is_associative_matrix(cube).holds == is_associative_bruteforce(cube).holds, entries
        differ = entries[0][1] != entries[1][0]
        assert (recover(cube).reason == "not-commutative") == differ, entries
        refused += differ
    assert (len(every), refused) == (cubes, not_commutative)
    pairs = _recovered_pairs(every)
    assert len(set(pairs)) == len(pairs)
    assert set(pairs) == set(_recovered_pairs(_commutative_cubes(2, denominator)))
