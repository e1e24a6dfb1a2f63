import math
import random
from fractions import Fraction

import pytest

from hgforge import (
    CayleyTable,
    DimensionMismatch,
    InvariantFactors,
    RationalMatrix,
    cayley_table,
    check_corollaries,
    degeneracy_check,
    derive_cube,
    enumerate_abelian_groups,
    is_associative_bruteforce,
    is_associative_matrix,
    is_commutative,
    mixture_matrix,
    random_measure,
    rat,
    satisfies_condition_A,
    validate_cube,
    validate_measure,
)
from hgforge import derivation
from hgforge.derivation import _vanishing_classes, mixture_rank
from oracles import (
    assert_canonical_kernel,
    cofactor_det,
    fraction_rank,
    index_two_measure,
    left_action,
    matmul,
    oracle_derive,
    oracle_mixture,
    relabel_table,
    subgroup_element_sets,
    translation_matrices,
    uniform_on_subgroup,
)


def _point_mass(n):
    return validate_measure([1] + [0] * (n - 1))


def _matrix(rows):
    return RationalMatrix(tuple(tuple(Fraction(x) for x in row) for row in rows))


def _relabelled(rng, factors):
    rows = cayley_table(factors).rows
    n = len(rows)
    return CayleyTable(n, relabel_table(rows, [1] + rng.sample(range(2, n + 1), n - 1)))


def _index_two_tables():
    # the groups of order 2-12 whose squares form an index-2 subgroup
    tables = [cayley_table(f) for n in range(2, 13, 2) for f in enumerate_abelian_groups(n)]
    return [t for t in tables if 2 * len({t.rows[s][s] for s in range(t.n)}) == t.n]


class TestMixtureMatrix:
    def test_z2_example(self, z2_table, z2_measure):
        mix = mixture_matrix(z2_table, z2_measure)
        assert mix == _matrix([["3/4", "1/4"], ["1/4", "3/4"]])

    def test_point_mass_gives_identity(self):
        for n in (1, 3, 4):
            table = cayley_table(enumerate_abelian_groups(n)[0])
            identity = _matrix([[int(r == c) for c in range(n)] for r in range(n)])
            assert mixture_matrix(table, _point_mass(n)) == identity

    def test_uniform_is_singular(self, z2_table):
        mix = mixture_matrix(z2_table, validate_measure(["1/2", "1/2"]))
        assert mix == _matrix([["1/2", "1/2"], ["1/2", "1/2"]])
        assert mix.rank() == 1

    def test_columns_are_translates(self, z2_table, z2_measure):
        # column 1 is the measure itself; column j its translate by j
        mix = mixture_matrix(z2_table, z2_measure)
        assert tuple(row[0] for row in mix.entries) == z2_measure.values

    def test_equals_weighted_sum_of_permutations(self):
        rng = random.Random(3)
        for n in (2, 4, 6):
            for factors in enumerate_abelian_groups(n):
                table = cayley_table(factors)
                measure = random_measure(rng, n)
                perms = translation_matrices(table.rows)
                total = [
                    [sum(measure.values[k] * perms[k][r][c] for k in range(n)) for c in range(n)]
                    for r in range(n)
                ]
                assert [list(row) for row in mixture_matrix(table, measure).entries] == total

    def test_dimension_mismatch(self, z2_table):
        with pytest.raises(DimensionMismatch):
            mixture_matrix(z2_table, _point_mass(3))


class TestDeriveCube:
    def test_z2_fixture(self, z2_table, z2_measure, z2_cube):
        assert derive_cube(z2_table, z2_measure) == z2_cube

    def test_z3_fixture(self, z3_cube):
        table = cayley_table(InvariantFactors((3,)))
        assert derive_cube(table, validate_measure(["1/2", "1/4", "1/4"])) == z3_cube

    def test_bool_measure_rejected(self, z2_table):
        with pytest.raises(TypeError):
            derive_cube(z2_table, [True, False])

    def test_point_mass_gives_indicator_cube(self):
        for n in (1, 2, 4, 6):
            for factors in enumerate_abelian_groups(n):
                table = cayley_table(factors)
                cube = derive_cube(table, _point_mass(n))
                for i in range(1, n + 1):
                    for j in range(1, n + 1):
                        for k in range(1, n + 1):
                            expected = 1 if table.rows[i - 1][j - 1] == k else 0
                            assert cube.column(i, j)[k - 1] == expected

    def test_against_independent_oracle(self):
        rng = random.Random(17)
        for n in (2, 3, 4, 5, 6, 8):
            for factors in enumerate_abelian_groups(n):
                table = cayley_table(factors)
                measure = random_measure(rng, n)
                expected = oracle_derive(
                    [list(r) for r in table.rows],
                    [Fraction(q.numerator, q.denominator) for q in measure.values],
                )
                assert derive_cube(table, measure) == validate_cube(expected)

    def test_column_one_one_is_the_measure(self):
        rng = random.Random(23)
        for n in (2, 5, 7):
            table = cayley_table(enumerate_abelian_groups(n)[0])
            measure = random_measure(rng, n)
            assert derive_cube(table, measure).column(1, 1) == measure.values

    def test_always_passes_all_checks(self):
        rng = random.Random(29)
        for n in (1, 2, 3, 4, 6):
            for factors in enumerate_abelian_groups(n):
                table = cayley_table(factors)
                for _ in range(2):
                    cube = derive_cube(table, random_measure(rng, n))
                    assert is_commutative(cube).holds
                    assert is_associative_matrix(cube).holds
                    assert is_associative_bruteforce(cube).holds
                    assert all(r.holds for r in check_corollaries(cube))

    def test_left_action_is_permutation_times_mixture(self):
        rng = random.Random(31)
        for n in (2, 3, 4, 6, 8):
            for factors in enumerate_abelian_groups(n):
                table = cayley_table(factors)
                measure = random_measure(rng, n)
                cube = derive_cube(table, measure)
                mix = mixture_matrix(table, measure)
                perms = translation_matrices(table.rows)
                for i in range(1, n + 1):
                    assert left_action(cube.entries, i) == matmul(perms[i - 1], mix.entries)

    def test_mixture_commutes_with_actions(self):
        rng = random.Random(37)
        for n in (4, 6, 9):
            for factors in enumerate_abelian_groups(n):
                table = cayley_table(factors)
                mix = mixture_matrix(table, random_measure(rng, n))
                for g in translation_matrices(table.rows):
                    assert matmul(g, mix.entries) == matmul(mix.entries, g)

    def test_dimension_mismatch(self, z2_table):
        with pytest.raises(DimensionMismatch):
            derive_cube(z2_table, _point_mass(3))


class TestDegeneracy:
    def test_uniform_on_whole_group(self, z2_table):
        verdict = degeneracy_check(z2_table, validate_measure(["1/2", "1/2"]))
        assert verdict.kind == "repeated-translates"
        assert verdict.repeated_state == 2
        assert verdict.degenerate

    def test_z2_generic_nondegenerate(self, z2_table, z2_measure):
        verdict = degeneracy_check(z2_table, z2_measure)
        assert verdict.kind == "non-degenerate"
        assert not verdict.degenerate
        # determinant behind it: 9/16 - 1/16
        matrix = mixture_matrix(z2_table, z2_measure)
        assert cofactor_det(matrix.entries) == rat(1, 2)
        assert matrix.rank() == 2

    def test_z4_singular_mixture(self):
        table = cayley_table(InvariantFactors((4,)))
        measure = validate_measure(["1/2", "1/4", 0, "1/4"])
        verdict = degeneracy_check(table, measure)
        assert verdict.kind == "singular-mixture"
        assert verdict.kernel_vector == (rat(1), rat(-1), rat(1), rat(-1))
        matrix = mixture_matrix(table, measure)
        # exact annihilation, and the cofactor oracle agrees the matrix is singular
        for row in matrix.entries:
            assert sum(r * v for r, v in zip(row, verdict.kernel_vector)) == 0
        as_fractions = [
            [Fraction(q.numerator, q.denominator) for q in row] for row in matrix.entries
        ]
        assert cofactor_det(as_fractions) == 0

    def test_repeated_translate_witness_fixes_measure(self):
        # uniform on the subgroup {1, 3} of Z_4
        table = cayley_table(InvariantFactors((4,)))
        measure = validate_measure(["1/2", 0, "1/2", 0])
        verdict = degeneracy_check(table, measure)
        assert verdict.kind == "repeated-translates"
        h = verdict.repeated_state
        assert h != 1
        h_inverse = table.rows[h - 1].index(1) + 1
        translated = tuple(
            measure.values[table.rows[k - 1][h_inverse - 1] - 1] for k in range(1, 5)
        )
        assert translated == measure.values

    def test_matches_condition_a(self):
        rng = random.Random(41)
        samples = [
            (cayley_table(InvariantFactors((2,))), validate_measure(["1/2", "1/2"])),
            (cayley_table(InvariantFactors((4,))), validate_measure(["1/2", "1/4", 0, "1/4"])),
            (cayley_table(InvariantFactors((4,))), validate_measure(["1/2", 0, "1/2", 0])),
        ]
        for n in (2, 3, 4, 6):
            for factors in enumerate_abelian_groups(n):
                table = cayley_table(factors)
                samples.append((table, random_measure(rng, n)))
        for table, measure in samples:
            verdict = degeneracy_check(table, measure)
            cube = derive_cube(table, measure)
            assert (not verdict.degenerate) == satisfies_condition_A(cube).holds

    def test_verdicts_on_every_group_up_to_order_eight(self):
        """Verdict and witness against the mixture matrix built in the
        test: the first translate equal to the measure, else the
        canonical kernel vector, else non-degenerate."""
        rng = random.Random(8)
        seen = set()
        for n in range(1, 9):
            for factors in enumerate_abelian_groups(n):
                table = cayley_table(factors)
                rows = table.rows
                subgroups = sorted(subgroup_element_sets(rows), key=sorted)
                measures = [uniform_on_subgroup(n, members) for members in subgroups]
                for members in subgroups:
                    if 2 * len(members) == n:
                        # half the mass on an index-2 subgroup, half off it:
                        # the mixture kills its sign character
                        for _ in range(3):
                            on = [rng.randint(1, 9) if k in members else 0 for k in range(1, n + 1)]
                            off = [0 if k in members else rng.randint(1, 9) for k in range(1, n + 1)]
                            measures.append(
                                [Fraction(a, 2 * sum(on)) + Fraction(b, 2 * sum(off)) for a, b in zip(on, off)]
                            )
                measures += [random_measure(rng, n, denominator) for denominator in (2, 3, 1000) for _ in range(3)]
                if factors.factors == (4,):
                    measures.append(["1/2", "1/4", 0, "1/4"])
                for values in measures:
                    measure = validate_measure(values)
                    verdict = degeneracy_check(table, measure)
                    seen.add(verdict.kind)
                    matrix = oracle_mixture(rows, measure.values)
                    columns = list(zip(*matrix))
                    repeated = next((h for h in range(1, n) if columns[h] == columns[0]), None)
                    if repeated is not None:
                        assert verdict.kind == "repeated-translates"
                        assert verdict.repeated_state == repeated + 1
                    elif verdict.kind == "singular-mixture":
                        assert_canonical_kernel(matrix, verdict.kernel_vector)
                    else:
                        assert verdict.kind == "non-degenerate"
                        assert_canonical_kernel(matrix, None)
        assert seen == {"non-degenerate", "repeated-translates", "singular-mixture"}

    def test_kernel_vectors_match_fraction_oracle_on_every_group_up_to_32(self):
        """The kernel vector built from the vanishing classes against the
        canonical one of the mixture matrix in Fractions, on random labels
        (identity kept at state 1) and measures on a 0..2 grid.  A grid
        measure nu also gives nu + nu(. a^-1), for a random state a, which
        every character with chi(a) = -1 kills: one class or several."""
        rng = random.Random(27)
        singular, shapes = 0, set()
        for n in range(2, 33):
            for factors in enumerate_abelian_groups(n):
                table = _relabelled(rng, factors)
                rows = table.rows
                for killed in (False, True, True):
                    grid = [0] * n
                    while not any(grid):
                        grid = [rng.randint(0, 2) for _ in range(n)]
                    a_inverse = rows[rng.randrange(1, n)].index(1)
                    values = [x + grid[rows[g][a_inverse] - 1] for g, x in enumerate(grid)] if killed else grid
                    verdict = degeneracy_check(table, validate_measure([Fraction(v, sum(values)) for v in values]))
                    matrix = oracle_mixture(rows, values)
                    if verdict.kind == "repeated-translates":
                        columns = list(zip(*matrix))
                        assert columns[verdict.repeated_state - 1] == columns[0]
                        continue
                    assert_canonical_kernel(matrix, verdict.kernel_vector)
                    if verdict.kernel_vector is not None:
                        singular += 1
                        phis = [phi for _, phi, _ in _vanishing_classes(table, values)]
                        shapes.add((len(phis) >= 2, max(phis) >= 2))
        # several classes at once, and a class that brings more than one vector
        assert singular >= 40 and {(True, True), (False, True)} <= shapes

    def test_z6_order_three_class(self):
        # pushed onto Z3 the measure is (2, 2, 2)/6, so the order-3 class
        # (phi = 2) vanishes and no other does: the kernel is the functions
        # of g mod 3 that sum to 0, and the canonical one ends earliest
        table = cayley_table((6,))
        verdict = degeneracy_check(table, validate_measure(["1/3", "1/6", "1/6", 0, "1/6", "1/6"]))
        assert [(d, phi) for d, phi, _ in _vanishing_classes(table, [2, 1, 1, 0, 1, 1])] == [(3, 2)]
        assert verdict.kernel_vector == (1, -1, 0, 1, -1, 0)

    def test_single_state_never_degenerate(self):
        table = cayley_table(InvariantFactors(()))
        assert not degeneracy_check(table, _point_mass(1)).degenerate


class TestMixtureRank:
    """The rank of the mixture matrix from the group's characters."""

    def test_matches_fraction_oracle_on_every_group_up_to_32(self):
        # random labels (identity kept at state 1) and measures on a 0..3
        # grid, many of them singular in more than one class
        rng = random.Random(32)
        deficits = set()
        for n in range(1, 33):
            for factors in enumerate_abelian_groups(n):
                table = _relabelled(rng, factors)
                for _ in range(2 if n <= 16 else 1):
                    values = [0] * n
                    while not any(values):
                        values = [rng.randint(0, 3) for _ in range(n)]
                    expected = fraction_rank(oracle_mixture(table.rows, values))
                    assert mixture_rank(table, values) == expected, (factors, table.rows, values)
                    deficits.add(n - expected)
        assert min(deficits) == 0 and len(deficits) >= 4 and max(deficits) >= 4

    def test_pinned_ranks(self):
        # (1/2, 1/4, 0, 1/4) on Z4: only the order-2 character vanishes
        assert mixture_rank(cayley_table((4,)), [2, 1, 0, 1]) == 3
        # uniform on the Z2 inside Z6, {0, 3}: the characters trivial on
        # it, of orders 1 and 3, survive
        assert mixture_rank(cayley_table((6,)), [1, 0, 0, 1, 0, 0]) == 3
        assert mixture_rank(cayley_table((2, 2)), [1, 1, 1, 1]) == 1
        assert mixture_rank(cayley_table(()), [7]) == 1

    def test_index_two_measure_loses_one(self):
        rng = random.Random(2)
        for table in _index_two_tables():
            values = index_two_measure(rng, table.rows)
            scale = math.lcm(*(q.denominator for q in values))
            assert mixture_rank(table, [int(q * scale) for q in values]) == table.n - 1
            # on Z2 the measure is (1/2, 1/2), whose translates repeat
            verdict = degeneracy_check(table, validate_measure(values))
            assert verdict.kind == ("repeated-translates" if table.n == 2 else "singular-mixture")

    def test_does_not_depend_on_the_scale(self):
        table = _relabelled(random.Random(5), (2, 6))
        values = [3, 0, 1, 0, 0, 2, 1, 0, 0, 0, 0, 1]
        assert {mixture_rank(table, [c * x for x in values]) for c in (1, 7, -2, 10**40)} == {
            fraction_rank(oracle_mixture(table.rows, values))
        }

    def test_dimension_mismatch(self, z2_table):
        with pytest.raises(DimensionMismatch):
            mixture_rank(z2_table, [1, 0, 0])

    def test_only_a_singular_pair_is_eliminated(self, monkeypatch):
        # degeneracy_check asks the characters first; the canonical kernel
        # vector is built only for a pair they found singular
        eliminated = []
        kernel_vector = derivation._kernel_vector

        def counted(table, vanishing):
            eliminated.append(vanishing)
            return kernel_vector(table, vanishing)

        monkeypatch.setattr(derivation, "_kernel_vector", counted)
        rng = random.Random(12)
        pairs = [(t, validate_measure(index_two_measure(rng, t.rows))) for t in _index_two_tables()]
        pairs += [(cayley_table(f), random_measure(rng, n)) for n in range(1, 11) for f in enumerate_abelian_groups(n)]
        kinds = set()
        for table, measure in pairs:
            eliminated.clear()
            verdict = degeneracy_check(table, measure)
            assert len(eliminated) == (verdict.kind == "singular-mixture")
            kinds.add(verdict.kind)
        assert kinds == {"non-degenerate", "repeated-translates", "singular-mixture"}
