import ast
import dataclasses
import doctest
import importlib
import pkgutil
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import hgforge
from hgforge import (
    InvariantFactors,
    OperandBoundError,
    RationalMatrix,
    StructureCube,
    ValidationError,
    cayley_table,
    derive_cube,
    enumerate_abelian_groups,
    rat,
    validate_cube,
    validate_measure,
)
from hgforge.core import MAX_OPERAND_DIGITS, MatrixShapeError, rational_rank, scale_to_integers
from hgforge.formats import cube_to_document, load_cube, write_document
from oracles import (
    cofactor_det,
    fraction_rank,
    int_planes,
    left_action,
    matmul,
    right_action,
)


def _column_stochastic(rows):
    # checked here from the entries: no negative entry, every column sums to 1
    return all(x >= 0 for row in rows for x in row) and all(
        sum(row[c] for row in rows) == 1 for c in range(len(rows[0]))
    )


def _matrix(rows):
    return RationalMatrix(tuple(tuple(Fraction(x) for x in row) for row in rows))


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

    def test_bool_rejected(self):
        for value in (True, False):
            with pytest.raises(TypeError, match="booleans are not numbers"):
                rat(value)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            rat("1/0")


class TestValidateCube:
    def test_z2_fixture_valid(self, z2_cube):
        assert z2_cube.n == 2
        assert z2_cube.column(1, 1)[0] == rat("3/4")
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

    @pytest.mark.parametrize(
        "raw, indices, detail",
        [
            (5, (), "cube must be a nested sequence"),
            ([[[1, 0], [0, 1]], [[0, 1], [1]]], (2, 2), "expected 2 entries, found 1"),
            ([1], (1,), "expected 1 columns, found int"),
            ([[1]], (1, 1), "expected 1 entries, found int"),
            (["1"], (1,), "expected 1 columns, found str"),
            ([["1"]], (1, 1), "expected 1 entries, found str"),
            ([[b"1"]], (1, 1), "expected 1 entries, found bytes"),
        ],
        ids=[
            "not-a-sequence",
            "short-column",
            "plane-not-a-sequence",
            "column-not-a-sequence",
            "str-plane",
            "str-column",
            "bytes-column",
        ],
    )
    def test_shape_mismatch(self, raw, indices, detail):
        with pytest.raises(ValidationError) as exc:
            validate_cube(raw)
        assert [(v.kind, v.indices, v.detail) for v in exc.value.violations] == [
            ("shape-mismatch", indices, detail)
        ]

    def test_single_state(self):
        cube = validate_cube([[[1]]])
        assert cube.n == 1

    def test_float_entry_rejected(self):
        with pytest.raises(TypeError):
            validate_cube([[[0.75, 0.25], [0, 1]], [[0, 1], [1, 0]]])

    def test_bool_entry_rejected(self):
        # True == 1, so these would be a valid cube if taken as ints
        with pytest.raises(TypeError):
            validate_cube([[[True]]])
        with pytest.raises(TypeError):
            validate_cube([[[1, 0], [0, 1]], [[0, True], [1, 0]]])

    @pytest.mark.parametrize(
        "entry, error",
        [(None, TypeError), (0.5, TypeError), (False, TypeError), ("half", ValueError), ("1/0", ZeroDivisionError)],
        ids=["none", "float", "bool", "unparsable", "zero-denominator"],
    )
    def test_other_entries_raise_what_rat_raises(self, entry, error):
        # as the docstring says: the error of rat, not a ValidationError
        with pytest.raises(error) as exc:
            validate_cube([[[entry, 1], [1, 0]], [[1, 0], [0, 1]]])
        assert type(exc.value) is error

    def test_equal_columns_share_one_tuple(self):
        half = [Fraction(1, 2), Fraction(1, 2)]
        cube = validate_cube([[half, ["1/2", "0.5"]], [[1, 0], list(half)]])
        assert cube.layout == ((0, 0), (1, 0))
        assert len(cube.columns) == 2

    def test_idempotent_on_cube(self, z2_cube):
        assert validate_cube(z2_cube) is z2_cube


class TestValidateMeasure:
    def test_valid(self):
        m = validate_measure(["3/4", "1/4"])
        assert m.n == 2 and m.values[0] == rat(3, 4)

    def test_bool_value_rejected(self):
        with pytest.raises(TypeError):
            validate_measure([True])
        with pytest.raises(TypeError):
            validate_measure([False, 1])

    def test_sum_violation(self):
        with pytest.raises(ValidationError) as exc:
            validate_measure(["1/2", "1/4"])
        assert exc.value.violations[0].kind == "sum-not-one"

    def test_negative(self):
        with pytest.raises(ValidationError) as exc:
            validate_measure(["-1/4", "5/4"])
        assert ("negative-entry", (1,)) in {(v.kind, v.indices) for v in exc.value.violations}

    def test_empty(self):
        with pytest.raises(ValidationError) as exc:
            validate_measure([])
        assert [(v.kind, v.indices, v.detail) for v in exc.value.violations] == [
            ("shape-mismatch", (), "need at least one state")
        ]

    def test_point_mass(self):
        m = validate_measure([0, 1, 0])
        assert m.values == (rat(0), rat(1), rat(0))
        with pytest.raises(ValidationError) as exc:
            validate_measure([0, 2, 0])
        assert exc.value.violations[0].kind == "sum-not-one"


class TestActionMatrices:
    # pins the oracle action matrices that the identity tests rest on
    def test_left_matrix_z2(self, z2_cube):
        assert left_action(z2_cube.entries, 1) == [[rat(3, 4), rat(1, 4)], [rat(1, 4), rat(3, 4)]]
        assert left_action(z2_cube.entries, 2) == [[rat(1, 4), rat(3, 4)], [rat(3, 4), rat(1, 4)]]

    def test_right_matrix_equals_left_for_commutative(self, z2_cube, z3_cube):
        for cube in (z2_cube, z3_cube):
            for i in range(1, cube.n + 1):
                assert right_action(cube.entries, i) == left_action(cube.entries, i)

    def test_right_matrix_definition(self, semilattice_cube):
        # column j of the right action of i is the product column of (j, i)
        for i in range(1, 3):
            rows = right_action(semilattice_cube.entries, i)
            for j in range(1, 3):
                assert tuple(row[j - 1] for row in rows) == semilattice_cube.column(j, i)

    def test_columns_are_stochastic(self, z3_cube):
        for i in range(1, 4):
            assert _column_stochastic(left_action(z3_cube.entries, i))
            assert _column_stochastic(right_action(z3_cube.entries, i))

    def test_reconstruct_cube_from_left_matrices(self, z3_cube):
        mats = [left_action(z3_cube.entries, i) for i in range(1, 4)]
        rebuilt = [[[mats[i][k][j] for k in range(3)] for j in range(3)] for i in range(3)]
        assert validate_cube(rebuilt) == z3_cube


class TestIntegerPlanes:
    def test_one_denominator(self, z3_cube):
        assert z3_cube.denominator == 4
        planes = int_planes(z3_cube)
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
        assert (cube.denominator, int_planes(cube)) == (6, (((3, 3), (2, 4)), ((2, 4), (6, 0))))


class TestOperandBound:
    """Every cube meets the operand bound; library calls past it raise."""

    WIDE = 10**MAX_OPERAND_DIGITS

    def test_error_is_a_value_error_but_not_a_validation_error(self):
        assert issubclass(OperandBoundError, ValueError)
        assert not issubclass(OperandBoundError, ValidationError)

    def test_scale_to_integers(self):
        assert scale_to_integers([Fraction(1, 2), 3, Fraction(-2, 3)]) == (6, [3, 18, -4])
        assert scale_to_integers([]) == (1, [])

    def test_validate_cube_refuses_a_wide_denominator(self):
        message = f"the common denominator exceeds {MAX_OPERAND_DIGITS} digits"
        wide_column = [Fraction(1, self.WIDE), 1 - Fraction(1, self.WIDE)]
        for entries in ([[[Fraction(1, self.WIDE)]]], [[["1/2", "1/2"], [1, 0]], [[0, 1], wide_column]]):
            with pytest.raises(OperandBoundError, match=message):
                validate_cube(entries)

    def test_validate_cube_refuses_a_wide_numerator(self):
        message = f"a numerator over the common denominator exceeds {MAX_OPERAND_DIGITS} digits"
        for entry in (self.WIDE, -self.WIDE, Fraction(self.WIDE, 3)):
            with pytest.raises(OperandBoundError, match=message):
                validate_cube([[[entry]]])

    def test_validate_cube_at_the_bound(self):
        d = self.WIDE - 1
        cube = validate_cube([[[Fraction(1, d), Fraction(d - 1, d)]] * 2] * 2)
        assert (cube.denominator, int_planes(cube)[1][1]) == (d, (1, d - 1))

    def test_derive_cube_refuses_a_wide_measure(self):
        table = cayley_table(InvariantFactors((2,)))
        wide = validate_measure([Fraction(1, self.WIDE), 1 - Fraction(1, self.WIDE)])
        with pytest.raises(OperandBoundError, match="common denominator exceeds"):
            derive_cube(table, wide)
        d = self.WIDE - 1
        assert derive_cube(table, [Fraction(1, d), Fraction(d - 1, d)]).denominator == d

    def test_an_invalid_wide_measure_raises_the_bound_error(self):
        # the bound is checked before a violation's detail is rendered, so
        # a value too wide to print is never printed
        table = cayley_table(InvariantFactors((2,)))
        cases = [
            (["1e-4300", 1], "common denominator exceeds"),
            (["-1e-4300", 1], "common denominator exceeds"),
            ([Fraction(1, self.WIDE), 1], "common denominator exceeds"),
            ([self.WIDE, 1], "a numerator over the common denominator exceeds"),
        ]
        for measure, message in cases:
            with pytest.raises(OperandBoundError, match=message):
                validate_measure(measure)
            with pytest.raises(OperandBoundError, match=message):
                derive_cube(table, measure)
        d = self.WIDE - 1
        with pytest.raises(ValidationError, match="sum-not-one") as err:
            validate_measure([Fraction(1, d), 1])
        assert [v.kind for v in err.value.violations] == ["sum-not-one"]


def _measure_values(n):
    # exact probability vectors: n numerators over their own total
    return (
        st.lists(st.integers(0, 6), min_size=n, max_size=n)
        .filter(lambda ks: sum(ks) > 0)
        .map(lambda ks: [Fraction(k, sum(ks)) for k in ks])
    )


@st.composite
def _stochastic_cubes(draw, max_n=3):
    n = draw(st.integers(1, max_n))
    entries = [[draw(_measure_values(n)) for _ in range(n)] for _ in range(n)]
    return validate_cube(entries)


@given(_stochastic_cubes())
def test_action_matrices_stochastic_for_any_cube(cube):
    for i in range(1, cube.n + 1):
        assert _column_stochastic(left_action(cube.entries, i))
        assert _column_stochastic(right_action(cube.entries, i))


def _assert_canonical(cube):
    # the stored form: the distinct int columns in the order the scan
    # (1, 1), (1, 2), ... first uses them, and an n*n layout of indices
    n, columns, layout = cube.n, cube.columns, cube.layout
    assert [f.name for f in dataclasses.fields(StructureCube)] == ["n", "denominator", "columns", "layout"]
    assert not hasattr(cube, "planes"), "a second int view of the columns"
    assert type(columns) is tuple and all(type(col) is tuple and len(col) == n for col in columns)
    assert all(type(x) is int for col in columns for x in col)
    assert len(set(columns)) == len(columns), "equal columns kept apart"
    assert type(layout) is tuple and len(layout) == n and all(type(row) is tuple and len(row) == n for row in layout)
    first_uses = list(dict.fromkeys(c for row in layout for c in row))
    assert first_uses == list(range(len(columns))), "columns out of first-use order"
    # the Fraction views: the stored values over D
    for i in range(n):
        for j in range(n):
            assert cube.entries[i][j] == tuple(Fraction(x, cube.denominator) for x in columns[layout[i][j]])
            assert cube.column(i + 1, j + 1) == cube.entries[i][j]


def _probability_columns(n):
    return st.lists(st.integers(0, 4), min_size=n, max_size=n).filter(any).map(
        lambda ws: tuple(Fraction(w, sum(ws)) for w in ws)
    )


@st.composite
def _spelled_cubes(draw, forms=("int", "string", "scaled", "fraction")):
    """(entries, first, second, other): the Fraction entries of a valid cube
    whose columns are drawn from a small pool, two nested lists that spell
    each entry independently in one of the forms (so equal columns are
    often spelled apart), and the entries with one column redrawn from
    the pool, which may or may not change them."""
    n = draw(st.integers(1, 4))
    pool = draw(st.lists(_probability_columns(n), min_size=1, max_size=n + 1))
    slots = [draw(st.sampled_from(pool)) for _ in range(n * n)]

    def spell(q):
        form = draw(st.sampled_from(forms))
        if form == "int" and q.denominator == 1:
            return int(q)
        if form == "fraction":
            return q
        m = draw(st.integers(2, 5)) if form == "scaled" else 1
        return f"{q.numerator * m}/{q.denominator * m}"

    def nested(columns):
        return [[[spell(q) for q in columns[i * n + j]] for j in range(n)] for i in range(n)]

    other = list(slots)
    other[draw(st.integers(0, n * n - 1))] = draw(st.sampled_from(pool))
    entries = tuple(tuple(slots[i * n:(i + 1) * n]) for i in range(n))
    return entries, nested(slots), nested(slots), nested(other)


@st.composite
def _derived_cubes(draw):
    """A cube derived from an abelian group of order 1-8 and a measure
    constant on the orbits of translation by a drawn state h: for h other
    than the identity its translates repeat, as a coset measure's do."""
    factors = draw(st.sampled_from([f for order in range(1, 9) for f in enumerate_abelian_groups(order)]))
    table = cayley_table(factors)
    n, rows = table.n, table.rows
    h = draw(st.integers(1, n))
    orbit = {}
    for s in range(1, n + 1):
        if s not in orbit:
            t = s
            while t not in orbit:
                orbit[t] = s
                t = rows[t - 1][h - 1]
    weights = {s: draw(st.integers(0, 5)) for s in sorted(set(orbit.values()))}
    if not any(weights.values()):
        weights[1] = 1
    total = sum(weights[orbit[s]] for s in range(1, n + 1))
    return derive_cube(table, [Fraction(weights[orbit[s]], total) for s in range(1, n + 1)])


class TestCanonicalForm:
    """Every builder gives the one stored form, so two cubes compare equal
    exactly when their entries do."""

    @given(_spelled_cubes())
    def test_validated_cubes(self, drawn):
        entries, first, second, other = drawn
        cube = validate_cube(first)
        _assert_canonical(cube)
        assert cube.entries == entries
        again, changed = validate_cube(second), validate_cube(other)
        _assert_canonical(changed)
        assert again == cube and hash(again) == hash(cube)
        assert (changed == cube) == (changed.entries == cube.entries)

    @given(_spelled_cubes(forms=("int", "string", "scaled")))
    def test_loaded_cubes(self, tmp_path_factory, drawn):
        entries, first, second, other = drawn
        loaded = []
        for nested in (first, second, other):
            path = tmp_path_factory.mktemp("cube") / "cube.json"
            write_document(path, {"n": len(nested), "entries": nested})
            loaded.append(load_cube(path))
        cube, again, changed = loaded
        for each in loaded:
            _assert_canonical(each)
        assert cube.entries == entries and cube == validate_cube(first)
        assert again == cube
        assert (changed == cube) == (changed.entries == cube.entries)

    @given(_derived_cubes())
    def test_derived_cubes(self, cube):
        _assert_canonical(cube)
        assert validate_cube(cube.entries) == cube
        assert validate_cube([[list(map(str, col)) for col in plane] for plane in cube.entries]) == cube

    def test_a_derived_cube_equals_the_load_of_its_document(self, tmp_path):
        z4, z2z2 = cayley_table(InvariantFactors((4,))), cayley_table(InvariantFactors((2, 2)))
        for table, measure in [
            (z4, ["1/2", "1/4", "1/8", "1/8"]),
            (z4, ["1/4", "1/4", "1/4", "1/4"]),
            (z4, ["1/2", 0, "1/2", 0]),  # uniform on the Z2 inside Z4: two columns
            (z2z2, ["1/3", "1/3", "1/6", "1/6"]),  # constant on the cosets of {1, 2}
        ]:
            cube = derive_cube(table, measure)
            write_document(tmp_path / "cube.json", cube_to_document(cube))
            loaded = load_cube(tmp_path / "cube.json")
            assert loaded == cube and loaded.entries == cube.entries
            assert (loaded.columns, loaded.layout) == (cube.columns, cube.layout)
        assert len(derive_cube(z4, ["1/2", 0, "1/2", 0]).columns) == 2

    def test_equal_columns_spelled_apart(self, tmp_path):
        nested = [[["1/2", "1/2"], ["2/4", "2/4"]], [[Fraction(1, 2), "3/6"], [1, 0]]]
        cube = validate_cube(nested)
        assert (cube.denominator, cube.columns, cube.layout) == (2, ((1, 1), (2, 0)), ((0, 0), (0, 1)))
        document = {"n": 2, "entries": [[["1/2", "1/2"], ["2/4", "2/4"]], [["1/2", "3/6"], [1, 0]]]}
        write_document(tmp_path / "cube.json", document)
        assert load_cube(tmp_path / "cube.json") == cube
        assert validate_cube([[["1/2", "1/2"]] * 2, [["1/2", "1/2"], [1, 0]]]) == cube
        moved = validate_cube([[["1/2", "1/2"], [1, 0]], [["1/2", "1/2"], ["1/2", "1/2"]]])
        assert (moved.columns, moved.layout) == (cube.columns, ((0, 1), (0, 0)))
        assert moved != cube and moved.entries != cube.entries


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
            mat = _matrix(rows)
            assert mat.rank() == fraction_rank(rows)

    def test_det_vs_cofactor(self):
        # full rank by elimination exactly when the cofactor determinant is nonzero
        cases = [
            [["3/4", "1/4"], ["1/4", "3/4"]],
            [[1, 2, 3], [4, 5, 6], [7, 8, 10]],
            [["1/2", "1/4", 0, "1/4"], ["1/4", "1/2", "1/4", 0], [0, "1/4", "1/2", "1/4"], ["1/4", 0, "1/4", "1/2"]],
        ]
        for rows in cases:
            mat = _matrix(rows)
            det = cofactor_det([[Fraction(str(x)) for x in row] for row in rows])
            assert (mat.rank() == len(rows)) == (det != 0)

    def test_det_z2_mixture(self):
        mat = _matrix([["3/4", "1/4"], ["1/4", "3/4"]])
        assert cofactor_det(mat.entries) == rat(1, 2)
        assert mat.rank() == 2

    def test_rank_full_iff_det_nonzero(self):
        import random

        rng = random.Random(5)
        for _ in range(30):
            n = rng.randint(1, 4)
            rows = [[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
            mat = _matrix(rows)
            assert (mat.rank() == n) == (cofactor_det(rows) != 0)

    def test_matmul_and_add(self):
        # pins the oracle product that the action-matrix identities rest on
        a = [[1, 2], [3, 4]]
        b = [[0, 1], [1, 0]]
        assert matmul(a, b) == [[2, 1], [4, 3]]
        assert matmul(b, a) == [[3, 4], [1, 2]]
        assert matmul([["1/2", 1]], [[2], ["1/3"]]) == [[Fraction(4, 3)]]

    def test_bareiss_handles_wide_and_tall(self):
        wide = _matrix([[1, 2, 3], [2, 4, 6]])
        tall = RationalMatrix(tuple(zip(*wide.entries)))
        assert wide.rank() == fraction_rank([[1, 2, 3], [2, 4, 6]]) == 1
        assert tall.rank() == 1
        assert rational_rank([[Fraction(1, 2), Fraction(1)], [Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]) == 2

    @pytest.mark.parametrize(
        "entries, message",
        [
            ((), "matrix must have at least one row and column"),
            (((),), "matrix must have at least one row and column"),
            (((1, 2), (3,)), "matrix rows have unequal lengths"),
        ],
        ids=["no-rows", "empty-row", "ragged"],
    )
    def test_shape_refused(self, entries, message):
        with pytest.raises(MatrixShapeError) as exc:
            RationalMatrix(entries)
        assert str(exc.value) == message

    def test_big_denominators_stay_exact(self):
        big = 10**12
        rows = [[Fraction(1, big), Fraction(1, big + 1)], [Fraction(1, big + 2), Fraction(1, big + 3)]]
        mat = _matrix(rows)
        assert cofactor_det(rows) != 0
        assert mat.rank() == 2
        # scaling a row keeps the rank, however wide its denominators
        assert rational_rank([rows[0], [x * Fraction(big + 5, 7) for x in rows[0]]]) == 1


@given(st.integers(2, 5), st.integers(0, 10_000))
def test_random_integer_matrices_match_oracles(n, seed):
    import random

    rng = random.Random(seed)
    rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
    mat = _matrix(rows)
    assert mat.rank() == fraction_rank(rows)
    assert (mat.rank() == n) == (cofactor_det(rows) != 0)


def test_oracles_import_nothing_from_hgforge():
    # the oracles are the independent side of every comparison: importing
    # package code into them would let one bug pass on both sides
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append(node.module or "")
    assert imported
    assert not [name for name in imported if name.split(".")[0] == "hgforge"], imported


def test_cube_and_measure_constructors_are_called_at_known_sites():
    # outside core, cubes and measures come from validate_cube and
    # validate_measure, except at these sites, which build one unvalidated
    # from data they have already proved valid
    package = Path(hgforge.__file__).parent
    sites = set()

    def visit(node, module, owner):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            owner = node.name
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in ("StructureCube", "MeasureVector"):
                sites.add((module, owner, name))
        for child in ast.iter_child_nodes(node):
            visit(child, module, owner)

    for path in sorted(package.glob("*.py")):
        if path.stem != "core":
            visit(ast.parse(path.read_text()), path.stem, None)
    assert sites == {("derivation", "derive_cube", "StructureCube"), ("recovery", "_read_off", "MeasureVector")}


def test_docstring_examples_run():
    # every >>> example in the package (core.rat and
    # groups.enumerate_abelian_groups among them) runs and holds; __main__
    # is skipped, since importing it runs the command line
    names = [f"hgforge.{info.name}" for info in pkgutil.iter_modules(hgforge.__path__) if info.name != "__main__"]
    results = [doctest.testmod(importlib.import_module(name)) for name in ["hgforge"] + names]
    failed, attempted = sum(r.failed for r in results), sum(r.attempted for r in results)
    assert failed == 0 and attempted >= 2, (failed, attempted)
