import random

import pytest

from hgforge import (
    InvariantFactors,
    RecoveryResult,
    Witness,
    canonical_form,
    cayley_table,
    derive_cube,
    enumerate_abelian_groups,
    extract_group_by_value,
    is_associative_matrix,
    is_commutative,
    random_measure,
    random_nondegenerate_measure,
    rat,
    recover,
    satisfies_condition_A,
    validate_cube,
    validate_measure,
)
from hgforge import recovery
from hgforge.recovery import _certified_result
from oracles import (
    coset_measure,
    index_two_measure,
    left_action,
    oracle_derive,
    oracle_extract_by_value,
    oracle_mixture,
    perturbed_entries,
    search_nonassociative_loop,
    uniform_on_subgroup,
)


def _point_mass(n):
    return validate_measure([1] + [0] * (n - 1))


def gates_only(cube):
    """recover's answer on a valid cube from its gates alone, with no
    certificate: commutativity, associativity (matrix route), condition
    (A), then the read-off.  The reference that recover must equal."""

    def rejection(reason, witness=None, detail=None):
        return RecoveryResult(None, None, None, reason, witness, detail)

    commutative = is_commutative(cube, 1)
    if not commutative.holds:
        return rejection("not-commutative", commutative.witnesses[0])
    violation = next(recovery._matrix_violations(cube), None)
    if violation is not None:
        return rejection("not-associative", Witness(*violation))
    condition = satisfies_condition_A(cube)
    if not condition.holds:
        return rejection(
            "fails-condition-a",
            detail=(
                f"{condition.distinct_column_count} distinct columns of {condition.n}; "
                f"left ranks {list(condition.left_ranks)}, right ranks {list(condition.right_ranks)}"
            ),
        )
    return recovery._read_off(cube)


class TestRecover:
    def test_z2_fixture(self, z2_cube, z2_table, z2_measure):
        result = recover(z2_cube)
        assert result.recovered
        assert result.table.rows == z2_table.rows
        assert result.measure.values == z2_measure.values
        assert result.factors == InvariantFactors((2,))

    def test_point_mass_cube_of_z3(self):
        table = cayley_table(InvariantFactors((3,)))
        cube = derive_cube(table, _point_mass(3))
        result = recover(cube)
        assert result.recovered
        assert result.table.rows == table.rows
        assert result.measure.values == _point_mass(3).values
        assert result.factors == InvariantFactors((3,))

    def test_semilattice_rejected_by_condition_a(self, semilattice_cube):
        result = recover(semilattice_cube)
        assert not result.recovered
        assert result.reason == "fails-condition-a"

    def test_nonassociative_rejected(self, nonassoc_cube):
        result = recover(nonassoc_cube)
        assert not result.recovered
        assert result.reason == "not-associative"
        assert result.witness.indices[:2] == (1, 1)

    def test_noncommutative_rejected(self):
        cube = validate_cube(
            [
                [[1, 0], [1, 0]],
                [[0, 1], [0, 1]],
            ]
        )
        result = recover(cube)
        assert result.reason == "not-commutative"
        assert result.witness.indices == (1, 2)

    def test_invalid_raw_input_rejected(self):
        result = recover([[["1/2", "1/3"], [0, 1]], [[0, 1], [1, 0]]])
        assert result.reason == "fails-validation"
        assert recover([1]).reason == "fails-validation"
        # a str column is not read as its characters
        assert recover([["1"]]).reason == "fails-validation"

    def test_uniform_cube_rejected(self, z2_table):
        cube = derive_cube(z2_table, validate_measure(["1/2", "1/2"]))
        result = recover(cube)
        assert result.reason == "fails-condition-a"

    def test_single_state(self):
        result = recover(validate_cube([[[1]]]))
        assert result.recovered
        assert result.factors == InvariantFactors(())

    def test_round_trips_across_groups(self):
        rng = random.Random(101)
        for n in (2, 3, 4, 5, 6, 8, 9):
            for factors in enumerate_abelian_groups(n):
                table = cayley_table(factors)
                measure = random_nondegenerate_measure(rng, table)
                result = recover(derive_cube(table, measure))
                assert result.recovered
                assert result.table.rows == table.rows
                assert result.measure.values == measure.values
                assert result.factors == factors

    def test_perturbation_always_detected(self, z2_table, z2_measure):
        cube = derive_cube(z2_table, z2_measure)
        # rebalance the diagonal column by 1/100: still a valid cube and
        # still commutative, but no longer associative
        entries = [[list(col) for col in plane] for plane in cube.entries]
        entries[0][0][0] += rat(1, 100)
        entries[0][0][1] -= rat(1, 100)
        result = recover(validate_cube(entries))
        assert not result.recovered
        assert result.reason in ("not-associative", "column-match-failure", "round-trip-mismatch")
        assert result.reason == "not-associative"

    def test_offdiagonal_perturbation_breaks_commutativity_first(self, z2_table, z2_measure):
        cube = derive_cube(z2_table, z2_measure)
        entries = [[list(col) for col in plane] for plane in cube.entries]
        entries[0][1][0] += rat(1, 100)
        entries[0][1][1] -= rat(1, 100)
        result = recover(validate_cube(entries))
        assert not result.recovered
        assert result.reason == "not-commutative"


class TestCertification:
    def test_corrupted_candidate_is_caught(self, z2_cube, z2_table):
        # swap the two measure weights: every gate before certification
        # has already passed on this cube, so only the final
        # derive-and-compare can notice the candidate is wrong
        wrong_measure = validate_measure(["1/4", "3/4"])
        result = _certified_result(z2_cube, z2_table, wrong_measure)
        assert not result.recovered
        assert result.reason == "round-trip-mismatch"
        assert result.witness.indices == (1, 1, 1)
        assert result.witness.expected == "3/4"
        assert result.witness.actual == "1/4"

    def test_mismatch_across_denominators_names_the_first_entry(self, z3_cube):
        # the cube is over D = 4 and the rebuilt one over D = 6; entry
        # (1, 1, 1) is 1/2 in both, so the first mismatch is the next one
        z3 = cayley_table(InvariantFactors((3,)))
        result = _certified_result(z3_cube, z3, validate_measure(["1/2", "1/3", "1/6"]))
        assert (z3_cube.denominator, derive_cube(z3, ["1/2", "1/3", "1/6"]).denominator) == (4, 6)
        assert result.reason == "round-trip-mismatch"
        assert (result.witness.indices, result.witness.expected, result.witness.actual) == ((1, 1, 2), "1/4", "1/3")
        assert result.detail == "rebuilt cube differs from the input"

    def test_wrong_table_is_caught(self):
        z4 = cayley_table(InvariantFactors((4,)))
        klein = cayley_table(InvariantFactors((2, 2)))
        rng = random.Random(7)
        measure = random_nondegenerate_measure(rng, z4, distinct=True, positive=True)
        cube = derive_cube(z4, measure)
        result = _certified_result(cube, klein, measure)
        assert not result.recovered
        assert result.reason == "round-trip-mismatch"

    def test_certified_success_carries_factors(self, z2_cube, z2_table, z2_measure):
        result = _certified_result(z2_cube, z2_table, z2_measure)
        assert result.recovered
        assert result.factors == InvariantFactors((2,))


class TestMeasureFromA1:
    # the left action of state 1 is the mixture matrix of the recovered
    # pair, the measure-weighted sum of its translations: A_1 = sum_k m_k G_k
    def test_z2_with_its_table(self, z2_cube, z2_table, z2_measure):
        result = recover(z2_cube)
        assert result.measure.values == z2_measure.values
        assert left_action(z2_cube.entries, 1) == oracle_mixture(z2_table.rows, z2_measure.values)

    def test_point_mass_cube_of_z4(self):
        table = cayley_table(InvariantFactors((4,)))
        cube = derive_cube(table, _point_mass(4))
        result = recover(cube)
        assert result.measure.values == _point_mass(4).values
        assert left_action(cube.entries, 1) == oracle_mixture(result.table.rows, result.measure.values)

    def test_mislabelled_table_fails(self, z2_cube):
        # the Latin square with identity at state 2: the expansion against
        # it cannot reproduce the action of state 1
        measure = recover(z2_cube).measure.values
        assert left_action(z2_cube.entries, 1) != oracle_mixture([[2, 1], [1, 2]], measure)

    def test_wrong_group_fails(self):
        z4 = cayley_table(InvariantFactors((4,)))
        klein = cayley_table(InvariantFactors((2, 2)))
        rng = random.Random(13)
        measure = random_nondegenerate_measure(rng, z4, distinct=True, positive=True)
        cube = derive_cube(z4, measure)
        result = recover(cube)
        assert result.table == z4
        assert left_action(cube.entries, 1) == oracle_mixture(z4.rows, result.measure.values)
        assert left_action(cube.entries, 1) != oracle_mixture(klein.rows, result.measure.values)


class TestExtraction:
    def test_z2_value_three_quarters(self, z2_cube):
        result = extract_group_by_value(z2_cube, "3/4")
        assert result.extracted
        assert result.table.rows == ((1, 2), (2, 1))

    def test_z2_value_one_quarter(self, z2_cube):
        result = extract_group_by_value(z2_cube, "1/4")
        assert result.extracted
        assert result.table.rows == ((1, 2), (2, 1))

    def test_repeated_value_not_functional(self, z3_cube):
        result = extract_group_by_value(z3_cube, "1/4")
        assert not result.extracted
        assert result.reason == "not-functional"
        assert result.witness == (1, 1)

    def test_absent_value(self, z2_cube):
        result = extract_group_by_value(z2_cube, "1/3")
        assert not result.extracted
        assert result.reason == "value-absent"

    def test_all_values_agree_with_column_matching(self):
        rng = random.Random(19)
        for n in (2, 3, 4, 5):
            for factors in enumerate_abelian_groups(n):
                table = cayley_table(factors)
                measure = random_nondegenerate_measure(rng, table, distinct=True, positive=True)
                cube = derive_cube(table, measure)
                recovered = recover(cube)
                assert recovered.recovered
                for value in measure.values:
                    extraction = extract_group_by_value(cube, value)
                    assert extraction.extracted, (factors, str(value))
                    assert canonical_form(extraction.table) == recovered.factors

    def test_identity_relabelling(self):
        # positions of a non-identity value have their identity away from
        # state 1; extraction must relabel before building the table
        table = cayley_table(InvariantFactors((3,)))
        measure = validate_measure(["1/2", "1/3", "1/6"])
        cube = derive_cube(table, measure)
        for value in measure.values:
            result = extract_group_by_value(cube, value)
            assert result.extracted
            assert result.table.rows[0][0] == 1

    def test_matches_fraction_oracle(self):
        # derived (distinct and repeated values), perturbed and random cubes,
        # point masses of a non-associative loop and of a table with no
        # identity; each value as a Fraction, a string and (when whole) an
        # int, plus values that are not multiples of 1/D
        rng = random.Random(29)
        cubes = []
        for n in range(1, 6):
            for factors in enumerate_abelian_groups(n):
                table = cayley_table(factors)
                for denominator in (4, 1000):
                    entries = derive_cube(table, random_measure(rng, n, denominator)).entries
                    cubes.append(entries)
                    if n > 1:
                        cubes.append(perturbed_entries(entries, rng, symmetric=rng.random() < 0.5))
            columns = [random_measure(rng, n, 6).values for _ in range(n * n)]
            cubes.append([columns[i * n : (i + 1) * n] for i in range(n)])
        loop = search_nonassociative_loop()
        cubes.append([[[int(k + 1 == loop[i][j]) for k in range(5)] for j in range(5)] for i in range(5)])
        cubes.append([[[1, 0], [1, 0]], [[0, 1], [0, 1]]])
        reasons = set()
        for entries in cubes:
            cube = validate_cube(entries)
            values = {rat(q) for plane in cube.entries for col in plane for q in col}
            values |= {rat(0), rat(1), rat(2), rat(1, 7), rat(1, 2 * cube.denominator)}
            for value in sorted(values):
                expected = oracle_extract_by_value(entries, value)
                reasons.add(expected[0])
                spellings = [value, str(value)] + ([int(value)] if value.denominator == 1 else [])
                for spelling in spellings:
                    result = extract_group_by_value(cube, spelling)
                    if expected[0] == "table":
                        assert result.extracted and list(result.table.rows) == expected[1], (entries, value)
                    elif expected[0] == "group-axiom-failure":
                        assert result.reason == expected[0], (entries, value)
                    else:
                        got = (result.reason, result.witness, result.detail)
                        assert got == expected, (entries, value)
        assert reasons == {"table", "value-absent", "not-functional", "group-axiom-failure"}


def _s3_rows():
    """Cayley table of S3 by hand: permutations of (0, 1, 2) as tuples,
    composed right to left, the identity first."""
    perms = [(0, 1, 2), (1, 0, 2), (0, 2, 1), (2, 1, 0), (1, 2, 0), (2, 0, 1)]
    index = {p: s + 1 for s, p in enumerate(perms)}
    return [[index[tuple(a[b[x]] for x in range(3))] for b in perms] for a in perms]


def _random_valid(rng, n):
    """Random columns, some of them reused, so plane 1 can match."""
    pool = []
    for _ in range(rng.randint(1, n)):
        weights = [rng.randint(0, 4) for _ in range(n)]
        weights[rng.randrange(n)] += 1
        pool.append([rat(w, sum(weights)) for w in weights])
    return validate_cube([[rng.choice(pool) for _ in range(n)] for _ in range(n)])


def _derived_nondegenerate(seed, orders):
    rng = random.Random(seed)
    for n in orders:
        for factors in enumerate_abelian_groups(n):
            table = cayley_table(factors)
            for _ in range(2):
                measure = random_nondegenerate_measure(rng, table)
                yield factors, table, measure, derive_cube(table, measure)


# two characters of order 3 vanish on this Z6 measure: six distinct
# columns, every rank 4
Z6_RANK_FOUR = ["1/6", "1/12", "1/4", "1/6", "1/4", "1/12"]


def _index_two_cubes(rng, n):
    """Derived cubes of order n with half the mass on the squares, for each
    group of order n whose squares have index 2."""
    for factors in enumerate_abelian_groups(n):
        table = cayley_table(factors)
        if 2 * len({table.rows[s - 1][s - 1] for s in range(1, n + 1)}) == n:
            yield derive_cube(table, index_two_measure(rng, table.rows))


def _agreement_cubes():
    """Cubes of every family the certificate must either settle or pass on."""
    rng = random.Random(4404)
    cubes = [cube for _, _, _, cube in _derived_nondegenerate(4401, range(1, 9))]
    for n in (2, 4, 6, 8):
        for factors in enumerate_abelian_groups(n):
            table = cayley_table(factors)
            cubes.append(derive_cube(table, [rat(1, n)] * n))
            for h in range(2, n + 1):
                if table.rows[h - 1][h - 1] == 1:
                    cubes.append(derive_cube(table, coset_measure(rng, table.rows, h)))
                    cubes.append(derive_cube(table, uniform_on_subgroup(n, {1, h})))
            if 2 * len({table.rows[s - 1][s - 1] for s in range(1, n + 1)}) == n:
                cubes.append(derive_cube(table, index_two_measure(rng, table.rows)))
    z4 = cayley_table(InvariantFactors((4,)))
    cubes.append(derive_cube(z4, ["1/2", "1/4", 0, "1/4"]))
    s3 = _s3_rows()
    for _ in range(6):
        weights = [rng.randint(0, 9) for _ in range(6)]
        weights[0] += 1
        cubes.append(validate_cube(oracle_derive(s3, [rat(w, sum(weights)) for w in weights])))
    cubes.append(validate_cube(oracle_derive(s3, [1, 0, 0, 0, 0, 0])))
    loop = search_nonassociative_loop()
    # point masses multiplied by a non-associative loop
    cubes.append(validate_cube([[[int(s == k + 1) for k in range(5)] for s in row] for row in loop]))
    for _, _, _, cube in _derived_nondegenerate(4402, (2, 3, 4, 5, 6)):
        cubes.append(validate_cube(perturbed_entries(cube.entries, rng, symmetric=True)))
        cubes.append(validate_cube(perturbed_entries(cube.entries, rng, symmetric=False)))
    for factors in enumerate_abelian_groups(4) + enumerate_abelian_groups(6):
        # n distinct columns laid out by a group table, not translates of one measure
        table = cayley_table(factors)
        columns = [random_measure(rng, table.n, 9).values for _ in range(table.n)]
        cubes.append(validate_cube([[columns[s - 1] for s in row] for row in table.rows]))
    for _ in range(40):
        cubes.append(_random_valid(rng, rng.randint(1, 5)))
    cubes.append(derive_cube(cayley_table(InvariantFactors((6,))), Z6_RANK_FOUR))
    for _ in range(2):
        cubes.extend(_index_two_cubes(rng, 10))
    return cubes


def _deficient_derived_cubes():
    """Derived cubes with n distinct columns and a singular mixture matrix:
    the certificate settles each one as fails-condition-a."""
    rng = random.Random(4405)
    cubes = [
        derive_cube(cayley_table(InvariantFactors((4,))), ["1/2", "1/4", 0, "1/4"]),
        derive_cube(cayley_table(InvariantFactors((6,))), Z6_RANK_FOUR),
    ]
    for n in (4, 6, 8, 10):
        cubes.extend(_index_two_cubes(rng, n))
    return cubes


def _refuse_gates(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a gate ran on a certified cube")

    for name in ("_matrix_violations", "satisfies_condition_A", "is_commutative"):
        monkeypatch.setattr(recovery, name, refuse)


def _counting(monkeypatch, name):
    """Replace recovery.<name> by a wrapper that records each call's cube."""
    calls, original = [], getattr(recovery, name)

    def counted(cube, *args):
        calls.append(cube)
        return original(cube, *args)

    monkeypatch.setattr(recovery, name, counted)
    return calls


class TestCertifyFirst:
    """The read-off certificate inside recover, and the gates it stands in for."""

    @pytest.mark.parametrize("cap", [1, 16])
    def test_recover_equals_the_gate_sequence(self, cap):
        # a rejection names the first witness of its check, whatever the cap
        first_witness = {"not-commutative": is_commutative, "not-associative": is_associative_matrix}
        reasons = set()
        for cube in _agreement_cubes():
            result = recover(cube)
            assert result == gates_only(cube)
            if result.reason in first_witness:
                assert result.witness == first_witness[result.reason](cube, cap).witnesses[0]
            if result.recovered:
                # the measure read off column (1, 1) is built unvalidated
                assert validate_measure(result.measure.values) == result.measure
            reasons.add(result.reason)
        assert {None, "not-commutative", "not-associative", "fails-condition-a"} <= reasons

    def test_derived_cubes_never_reach_the_assoc_gate(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the associativity gate ran on a derived cube")

        monkeypatch.setattr(recovery, "_matrix_violations", refuse)
        for factors, table, measure, cube in _derived_nondegenerate(4403, range(1, 9)):
            result = recover(cube)
            assert result.recovered
            assert (result.table, result.measure, result.factors) == (table, measure, factors)

    def test_the_assoc_gate_stops_at_its_first_violation(self, monkeypatch):
        # the scan may not go on past the first violating pair (i, j)
        rejected = [cube for cube in _agreement_cubes() if recover(cube).reason == "not-associative"]
        assert any(is_associative_matrix(cube).violation_count > 1 for cube in rejected)
        expected = [is_associative_matrix(cube, 1).witnesses[0] for cube in rejected]
        scans = []
        gate = recovery._matrix_violations

        def first_only(cube):
            scans.append(cube)
            for violation in gate(cube):
                yield violation
                raise AssertionError("the associativity gate scanned past its first violation")

        monkeypatch.setattr(recovery, "_matrix_violations", first_only)
        for cube, witness in zip(rejected, expected):
            scans.clear()
            result = recover(cube)
            assert scans == [cube]
            assert result.witness == witness

    def test_certified_deficient_cubes_reach_no_gate(self, monkeypatch):
        # re-derivation settles commutativity, associativity and condition (A)
        cubes = _deficient_derived_cubes()
        assert {cube.n for cube in cubes} == {4, 6, 8, 10}
        expected = [gates_only(cube) for cube in cubes]
        assert {result.reason for result in expected} == {"fails-condition-a"}
        _refuse_gates(monkeypatch)
        assert [recover(cube) for cube in cubes] == expected

    def test_certificate_report_equals_condition_a(self, monkeypatch):
        # a certified cube's condition (A) comes from the rank of plane 1
        # alone; its detail names the report the scan would give
        certified = [cube for cube in _agreement_cubes() if recovery._read_off(cube).recovered]
        expected = [gates_only(cube) for cube in certified]
        assert {result.reason for result in expected} == {None, "fails-condition-a"}
        _refuse_gates(monkeypatch)
        assert [recover(cube) for cube in certified] == expected

    def test_the_read_off_runs_exactly_once(self, monkeypatch):
        z4 = cayley_table(InvariantFactors((4,)))
        full_rank = derive_cube(z4, ["1/2", "1/5", "1/5", "1/10"])
        coset = derive_cube(z4, coset_measure(random.Random(4406), z4.rows, 3))
        # plane 1 repeats a column, so the read-off fails at the group axioms
        assert len(set(coset.layout[0])) < coset.n
        assert recovery._read_off(coset).reason == "group-axiom-failure"
        read_offs = _counting(monkeypatch, "_read_off")
        assert recover(full_rank).recovered
        assert read_offs == [full_rank]
        read_offs.clear()
        assert recover(coset).reason == "fails-condition-a"
        assert read_offs == [coset]
        for cube in _agreement_cubes():
            read_offs.clear()
            recover(cube)
            assert read_offs == [cube]
        read_offs.clear()
        assert recover([[["1/2", "1/3"], [0, 1]], [[0, 1], [1, 0]]]).reason == "fails-validation"
        assert read_offs == []

    def test_a_read_off_rejection_comes_after_the_gates(self, monkeypatch):
        # a full-rank derived cube passes every gate, so the rejection of
        # the read-off, here forced, is the answer
        table = cayley_table(InvariantFactors((2, 2)))
        cube = derive_cube(table, random_nondegenerate_measure(random.Random(4407), table))
        witness = Witness((1, 1, 1), "1/2", "1/3")
        mismatch = RecoveryResult(None, None, None, "round-trip-mismatch", witness, "rebuilt cube differs from the input")
        read_offs = []

        def rejecting(cube):
            read_offs.append(cube)
            return mismatch

        monkeypatch.setattr(recovery, "_read_off", rejecting)
        names = ("is_commutative", "_matrix_violations", "satisfies_condition_A")
        gates = [_counting(monkeypatch, name) for name in names]
        assert recover(cube) == mismatch
        assert read_offs == [cube]
        assert gates == [[cube]] * 3

    def test_singular_mixture_with_distinct_columns_fails_condition_a(self):
        # every product column is distinct and the pair re-derives the cube,
        # so the certificate's rank of 3 names the rejection
        z4 = cayley_table(InvariantFactors((4,)))
        cube = derive_cube(z4, ["1/2", "1/4", 0, "1/4"])
        assert len({col for plane in cube.entries for col in plane}) == 4
        result = recover(cube)
        assert result.reason == "fails-condition-a"
        assert result.detail == "4 distinct columns of 4; left ranks [3, 3, 3, 3], right ranks [3, 3, 3, 3]"

    @pytest.mark.parametrize("order", [16, 24, 32])
    def test_every_class_of_high_order_round_trips(self, order):
        rng = random.Random(order)
        for factors in enumerate_abelian_groups(order):
            table = cayley_table(factors)
            measure = random_nondegenerate_measure(rng, table)
            result = recover(derive_cube(table, measure))
            assert result.recovered, (factors, result.reason)
            assert result.table == table
            assert result.measure == measure
            assert result.factors == factors


def _half_off_a_subgroup(rng, table, factors):
    """A measure with half its mass on the index-2 subgroup of states
    whose first coordinate is even (the first factor is even and most
    significant in cayley_table's labels) and half off it, with 40-bit
    weights: its order-2 character vanishes, and no other does."""
    n, first = table.n, factors[0]
    inside = [(s - 1) // (n // first) % 2 == 0 for s in range(1, n + 1)]
    weights = [rng.randint(1, 2**40) for _ in range(n)]
    totals = {side: 2 * sum(w for w, at in zip(weights, inside) if at == side) for side in (True, False)}
    return [rat(w, totals[at]) for w, at in zip(weights, inside)]


@pytest.mark.parametrize("factors", [(128,), (2,) * 7, (2,) * 8], ids=["Z128", "Z2^7", "Z2^8"])
def test_large_certified_cubes(factors):
    # condition (A) of a certified cube comes from the characters: an
    # elimination on plane 1 took seconds at n = 128 and minutes at 256
    table = cayley_table(factors)
    n = table.n
    rng = random.Random(n)
    measure = random_nondegenerate_measure(rng, table)
    result = recover(derive_cube(table, measure))
    assert (result.table, result.measure, result.factors.factors) == (table, measure, factors)
    result = recover(derive_cube(table, _half_off_a_subgroup(rng, table, factors)))
    assert result.reason == "fails-condition-a"
    ranks = [n - 1] * n
    assert result.detail == f"{n} distinct columns of {n}; left ranks {ranks}, right ranks {ranks}"
