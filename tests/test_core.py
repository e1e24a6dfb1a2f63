import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hgforge import (
    DimensionMismatch,
    MeasureVector,
    RationalMatrix,
    ValidationError,
    convolve_measures,
    left_matrix,
    point_mass,
    rat,
    right_matrix,
    validate_cube,
    validate_measure,
)
from hgforge.core import integer_planes, rational_rank
from oracles import assert_canonical_kernel, cofactor_det, fraction_rank, matmul


def _column_stochastic(mat):
    # checked here from the entries: no negative entry, every column sums to 1
    return all(x >= 0 for row in mat.entries for x in row) and all(
        sum(mat.column(c)) == 1 for c in range(mat.cols)
    )


class TestRat:
    def test_fraction_string(self):
        assert rat("3/4") == Fraction(3, 4)

    def test_decimal_string_is_exact(self):
        assert rat("0.75") == Fraction(3, 4)
        assert rat("0.1") == Fraction(1, 10)

    def test_scientific_string(self):
        assert rat("1e-3") == Fraction(1, 1000)

    def test_pair(self):
        assert rat(1, 3) == Fraction(1, 3)

    def test_fraction_is_the_rational_type(self):
        assert type(rat("3/4")) is Fraction

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            rat(0.75)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            rat("1/0")


class TestValidateCube:
    def test_z2_fixture_valid(self, z2_cube):
        assert z2_cube.n == 2
        assert z2_cube.value(1, 1, 1) == rat("3/4")
        assert z2_cube.column(1, 2) == (rat("1/4"), rat("3/4"))

    def test_column_sum_violation(self):
        with pytest.raises(ValidationError) as exc:
            validate_cube(
                [
                    [["1/2", "2/5"], ["1/4", "3/4"]],
                    [["1/4", "3/4"], ["3/4", "1/4"]],
                ]
            )
        kinds = {(v.kind, v.indices) for v in exc.value.violations}
        assert ("column-sum-not-one", (1, 1)) in kinds

    def test_negative_entry(self):
        with pytest.raises(ValidationError) as exc:
            validate_cube(
                [
                    [["-1/2", "3/2"], ["1/4", "3/4"]],
                    [["1/4", "3/4"], ["3/4", "1/4"]],
                ]
            )
        assert ("negative-entry", (1, 1, 1)) in {(v.kind, v.indices) for v in exc.value.violations}

    def test_all_violations_reported(self):
        # a negative entry and a broken sum in different columns both show up
        with pytest.raises(ValidationError) as exc:
            validate_cube(
                [
                    [["-1/2", "3/2"], [1, 1]],
                    [["1/4", "3/4"], ["3/4", "1/4"]],
                ]
            )
        kinds = {(v.kind, v.indices) for v in exc.value.violations}
        assert ("negative-entry", (1, 1, 1)) in kinds
        assert ("column-sum-not-one", (1, 2)) in kinds

    def test_ragged_shape(self):
        with pytest.raises(ValidationError) as exc:
            validate_cube([[[1, 0], [0, 1]], [[0, 1]]])
        assert exc.value.violations[0].kind == "shape-mismatch"

    def test_empty(self):
        with pytest.raises(ValidationError):
            validate_cube([])

    def test_single_state(self):
        cube = validate_cube([[[1]]])
        assert cube.n == 1

    def test_float_entry_rejected(self):
        with pytest.raises(TypeError):
            validate_cube([[[0.75, 0.25], [0, 1]], [[0, 1], [1, 0]]])

    def test_idempotent_on_cube(self, z2_cube):
        assert validate_cube(z2_cube) is z2_cube


class TestValidateMeasure:
    def test_valid(self):
        m = validate_measure(["3/4", "1/4"])
        assert m.n == 2 and m.value(1) == rat(3, 4)

    def test_sum_violation(self):
        with pytest.raises(ValidationError) as exc:
            validate_measure(["1/2", "1/4"])
        assert exc.value.violations[0].kind == "sum-not-one"

    def test_negative(self):
        with pytest.raises(ValidationError) as exc:
            validate_measure(["-1/4", "5/4"])
        assert ("negative-entry", (1,)) in {(v.kind, v.indices) for v in exc.value.violations}

    def test_point_mass(self):
        m = point_mass(3, 2)
        assert m.values == (rat(0), rat(1), rat(0))
        with pytest.raises(IndexError):
            point_mass(3, 4)


class TestActionMatrices:
    def test_left_matrix_z2(self, z2_cube):
        assert left_matrix(z2_cube, 1) == RationalMatrix.from_rows(
            [["3/4", "1/4"], ["1/4", "3/4"]]
        )
        assert left_matrix(z2_cube, 2) == RationalMatrix.from_rows(
            [["1/4", "3/4"], ["3/4", "1/4"]]
        )

    def test_right_matrix_equals_left_for_commutative(self, z2_cube, z3_cube):
        for cube in (z2_cube, z3_cube):
            for i in range(1, cube.n + 1):
                assert right_matrix(cube, i) == left_matrix(cube, i)

    def test_right_matrix_definition(self, semilattice_cube):
        # column j of the right action of i is the product column of (j, i)
        for i in range(1, 3):
            mat = right_matrix(semilattice_cube, i)
            for j in range(1, 3):
                assert mat.column(j - 1) == semilattice_cube.column(j, i)

    def test_columns_are_stochastic(self, z3_cube):
        for i in range(1, 4):
            assert _column_stochastic(left_matrix(z3_cube, i))
            assert _column_stochastic(right_matrix(z3_cube, i))

    def test_reconstruct_cube_from_left_matrices(self, z3_cube):
        mats = [left_matrix(z3_cube, i) for i in range(1, 4)]
        rebuilt = [
            [[mats[i].entries[k][j] for k in range(3)] for j in range(3)] for i in range(3)
        ]
        assert validate_cube(rebuilt) == z3_cube

    def test_index_bounds(self, z2_cube):
        with pytest.raises(IndexError):
            left_matrix(z2_cube, 0)
        with pytest.raises(IndexError):
            right_matrix(z2_cube, 3)


class TestConvolution:
    def test_point_masses_reproduce_columns(self, z3_cube):
        for i in range(1, 4):
            for j in range(1, 4):
                out = convolve_measures(z3_cube, point_mass(3, i), point_mass(3, j))
                assert out.values == z3_cube.column(i, j)

    def test_hand_example(self, z2_cube, z2_measure):
        out = convolve_measures(z2_cube, z2_measure, point_mass(2, 1))
        assert out.values == (rat(5, 8), rat(3, 8))

    def test_uniform_absorbing(self, z2_cube):
        uniform = validate_measure(["1/2", "1/2"])
        for other in (point_mass(2, 1), point_mass(2, 2), validate_measure(["3/4", "1/4"])):
            assert convolve_measures(z2_cube, uniform, other).values == uniform.values

    def test_dimension_mismatch(self, z2_cube):
        with pytest.raises(DimensionMismatch):
            convolve_measures(z2_cube, point_mass(3, 1), point_mass(3, 1))


class TestIntegerPlanes:
    def test_one_denominator(self, z3_cube):
        common, planes = integer_planes(z3_cube)
        assert common == 4
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    assert type(planes[i][j][k]) is int
                    assert planes[i][j][k] == z3_cube.entries[i][j][k] * 4

    def test_common_denominator_is_lcm_across_columns(self):
        cube = validate_cube(
            [
                [["1/2", "1/2"], ["1/3", "2/3"]],
                [["1/3", "2/3"], [1, 0]],
            ]
        )
        assert integer_planes(cube) == (6, (((3, 3), (2, 4)), ((2, 4), (6, 0))))


def _measure_values(n):
    # exact probability vectors: n numerators over their own total
    return (
        st.lists(st.integers(0, 6), min_size=n, max_size=n)
        .filter(lambda ks: sum(ks) > 0)
        .map(lambda ks: [Fraction(k, sum(ks)) for k in ks])
    )


@st.composite
def _stochastic_cubes(draw, max_n=4):
    n = draw(st.integers(1, max_n))
    entries = [[draw(_measure_values(n)) for _ in range(n)] for _ in range(n)]
    return validate_cube(entries)


@given(_stochastic_cubes())
def test_convolution_preserves_mass(cube):
    # validate_measure inside convolve_measures enforces sum exactly 1
    n = cube.n
    x = point_mass(n, 1)
    y = MeasureVector(n, tuple(rat(1, n) for _ in range(n)))
    out = convolve_measures(cube, x, y)
    assert sum(out.values) == 1
    assert all(q >= 0 for q in out.values)


@given(_stochastic_cubes(max_n=3))
def test_action_matrices_stochastic_for_any_cube(cube):
    for i in range(1, cube.n + 1):
        assert _column_stochastic(left_matrix(cube, i))
        assert _column_stochastic(right_matrix(cube, i))


class TestRationalMatrix:
    def test_rank_vs_oracle(self):
        cases = [
            [[1, 2], [2, 4]],
            [["1/2", "1/3"], ["1/4", "1/6"]],
            [[1, 0, 0], [0, 1, 0], [1, 1, 0]],
            [["3/4", "1/4"], ["1/4", "3/4"]],
            [[0, 0], [0, 0]],
        ]
        for rows in cases:
            mat = RationalMatrix.from_rows(rows)
            assert mat.rank() == fraction_rank(rows)

    def test_det_vs_cofactor(self):
        # full rank by elimination exactly when the cofactor determinant is nonzero
        cases = [
            [["3/4", "1/4"], ["1/4", "3/4"]],
            [[1, 2, 3], [4, 5, 6], [7, 8, 10]],
            [["1/2", "1/4", 0, "1/4"], ["1/4", "1/2", "1/4", 0], [0, "1/4", "1/2", "1/4"], ["1/4", 0, "1/4", "1/2"]],
        ]
        for rows in cases:
            mat = RationalMatrix.from_rows(rows)
            det = cofactor_det([[Fraction(str(x)) for x in row] for row in rows])
            assert (mat.rank() == len(rows)) == (det != 0)

    def test_det_z2_mixture(self):
        mat = RationalMatrix.from_rows([["3/4", "1/4"], ["1/4", "3/4"]])
        assert cofactor_det(mat.entries) == rat(1, 2)
        assert mat.rank() == 2

    def test_rank_full_iff_det_nonzero(self):
        import random

        rng = random.Random(5)
        for _ in range(30):
            n = rng.randint(1, 4)
            rows = [[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
            mat = RationalMatrix.from_rows(rows)
            assert (mat.rank() == n) == (cofactor_det(rows) != 0)

    def test_kernel_vector_canonical(self):
        mat = RationalMatrix.from_rows(
            [["1/2", "1/4", 0, "1/4"], ["1/4", "1/2", "1/4", 0], [0, "1/4", "1/2", "1/4"], ["1/4", 0, "1/4", "1/2"]]
        )
        kernel = mat.kernel_vector()
        assert kernel == (rat(1), rat(-1), rat(1), rat(-1))
        assert all(sum(r * v for r, v in zip(row, kernel)) == 0 for row in mat.entries)

    def test_kernel_none_for_full_rank(self):
        assert RationalMatrix.identity(3).kernel_vector() is None

    def test_matmul_and_add(self):
        # pins the oracle product that the action-matrix identities rest on
        a = RationalMatrix.from_rows([[1, 2], [3, 4]])
        b = RationalMatrix.from_rows([[0, 1], [1, 0]])
        assert matmul(a.entries, b.entries) == [[2, 1], [4, 3]]
        assert matmul(b.entries, a.entries) == [[3, 4], [1, 2]]
        assert matmul([["1/2", 1]], [[2], ["1/3"]]) == [[Fraction(4, 3)]]

    def test_permutation_predicate(self):
        assert RationalMatrix.from_rows([[0, 1], [1, 0]]).is_permutation()
        assert not RationalMatrix.from_rows([[1, 1], [0, 0]]).is_permutation()
        assert not RationalMatrix.from_rows([["1/2", "1/2"], ["1/2", "1/2"]]).is_permutation()

    def test_bareiss_handles_wide_and_tall(self):
        wide = RationalMatrix.from_rows([[1, 2, 3], [2, 4, 6]])
        tall = RationalMatrix(tuple(zip(*wide.entries)))
        assert wide.rank() == fraction_rank([[1, 2, 3], [2, 4, 6]]) == 1
        assert tall.rank() == 1
        assert rational_rank([[Fraction(1, 2), Fraction(1)], [Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]) == 2

    def test_big_denominators_stay_exact(self):
        big = 10**12
        rows = [[Fraction(1, big), Fraction(1, big + 1)], [Fraction(1, big + 2), Fraction(1, big + 3)]]
        mat = RationalMatrix.from_rows(rows)
        assert cofactor_det(rows) != 0
        assert mat.rank() == 2
        # scaling a row keeps the rank, however wide its denominators
        assert rational_rank([rows[0], [x * Fraction(big + 5, 7) for x in rows[0]]]) == 1


def _random_rows(rng, n_rows, n_cols, style):
    def entry():
        if style == "small":
            return Fraction(rng.choice([0, 0, 1, -1, 2]), rng.randint(1, 3))
        if style == "wide-denominators":
            return Fraction(rng.randint(-10**12, 10**12), rng.randint(10**11, 10**12))
        return Fraction(rng.randint(-4, 4))

    rows = [[entry() for _ in range(n_cols)] for _ in range(n_rows)]
    if style == "dependent" and n_rows > 1 and n_cols > 1:
        # a column that is a multiple of the one before it, and a last row
        # that combines the first two, pull the rank down
        c = rng.randrange(1, n_cols)
        scale = Fraction(rng.randint(-3, 3), 2)
        for row in rows:
            row[c] = row[c - 1] * scale
        weight = Fraction(rng.randint(-3, 3), 5)
        rows[-1] = [a * weight + b for a, b in zip(rows[0], rows[1])]
    return rows


@pytest.mark.parametrize("style", ["integers", "small", "wide-denominators", "dependent"])
@pytest.mark.parametrize("shape", ["square", "wide", "tall"])
def test_kernel_vector_is_the_canonical_one(shape, style):
    rng = random.Random(f"{shape}-{style}")
    for _ in range(60):
        n = rng.randint(1, 6)
        m = n if shape == "square" else rng.randint(n + 1, n + 3)
        n_rows, n_cols = (n, m) if shape == "wide" else (m, n)
        rows = _random_rows(rng, n_rows, n_cols, style)
        assert_canonical_kernel(rows, RationalMatrix(tuple(map(tuple, rows))).kernel_vector())


def test_kernel_vector_picks_the_first_free_column():
    # columns 2 and 4 both depend on earlier ones; the choice is column 2
    rows = [[1, 2, 0, 3], [0, 0, 1, 5]]
    assert RationalMatrix.from_rows(rows).kernel_vector() == (2, -1, 0, 0)
    assert RationalMatrix.from_rows([[0, 1], [0, 2]]).kernel_vector() == (1, 0)
    assert RationalMatrix.from_rows([[1, 1, 1]]).kernel_vector() == (1, -1, 0)


@given(st.integers(2, 5), st.integers(0, 10_000))
def test_random_integer_matrices_match_oracles(n, seed):
    import random

    rng = random.Random(seed)
    rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
    mat = RationalMatrix.from_rows(rows)
    assert mat.rank() == fraction_rank(rows)
    assert (mat.rank() == n) == (cofactor_det(rows) != 0)
    kernel = mat.kernel_vector()
    if kernel is None:
        assert mat.rank() == n
    else:
        assert any(x != 0 for x in kernel)
        assert all(sum(r * v for r, v in zip(row, kernel)) == 0 for row in mat.entries)
        ints = [x.numerator for x in kernel]
        assert math.gcd(*ints) == 1
        assert next(x for x in ints if x) > 0
