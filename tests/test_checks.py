import math
import random
from fractions import Fraction

import pytest

from hgforge import (
    InvariantFactors,
    RationalMatrix,
    ValidationError,
    cayley_table,
    check_corollaries,
    derive_cube,
    enumerate_abelian_groups,
    is_associative_bruteforce,
    is_associative_matrix,
    is_commutative,
    random_measure,
    rat,
    recover,
    satisfies_condition_A,
    validate_cube,
    validate_measure,
)
from hgforge import checks
from hgforge.core import MAX_OPERAND_DIGITS
from test_recovery import _s3_rows, gates_only
from oracles import (
    cofactor_det,
    coset_measure,
    fraction_rank,
    index_two_measure,
    int_planes,
    left_action,
    matmul,
    oracle_associativity,
    oracle_commutativity,
    oracle_derive,
    oracle_distinct_columns,
    oracle_multiset_corollaries,
    oracle_violations,
    perturbed_entries,
    relabel_cube,
    subgroup_element_sets,
    uniform_on_subgroup,
)


class TestCommutative:
    def test_derived_cubes_commute(self, z2_cube, z3_cube):
        assert is_commutative(z2_cube).holds
        assert is_commutative(z3_cube).holds

    def test_asymmetric_cube_fails_with_witness(self):
        cube = validate_cube(
            [
                [[1, 0], [1, 0]],
                [[0, 1], [0, 1]],
            ]
        )
        report = is_commutative(cube)
        assert not report.holds
        assert report.witnesses[0].indices == (1, 2)
        assert report.violation_count == 1


class TestAssociative:
    def test_z2_holds_both_routes(self, z2_cube):
        assert is_associative_bruteforce(z2_cube).holds
        assert is_associative_matrix(z2_cube).holds

    def test_matrix_identity_by_hand(self, z2_cube):
        # the product of the two actions is the 1/4-3/4 mix of them
        a1 = left_action(z2_cube.entries, 1)
        a2 = left_action(z2_cube.entries, 2)
        product = matmul(a1, a2)
        assert product == [[rat(3, 8), rat(5, 8)], [rat(5, 8), rat(3, 8)]]
        mix = [[rat(1, 4) * x + rat(3, 4) * y for x, y in zip(r1, r2)] for r1, r2 in zip(a1, a2)]
        assert product == mix

    def test_nonassociative_fixture(self, nonassoc_cube):
        brute = is_associative_bruteforce(nonassoc_cube)
        assert not brute.holds
        assert brute.witnesses[0].indices == (1, 1, 2)
        matrix = is_associative_matrix(nonassoc_cube)
        assert not matrix.holds
        assert matrix.witnesses[0].indices[:2] == (1, 1)

    def test_point_mass_cubes_of_groups(self):
        for n in (1, 2, 3, 4, 6):
            for factors in enumerate_abelian_groups(n):
                table = cayley_table(factors)
                cube = validate_cube(
                    [
                        [
                            [1 if table.rows[i - 1][j - 1] == k else 0 for k in range(1, n + 1)]
                            for j in range(1, n + 1)
                        ]
                        for i in range(1, n + 1)
                    ]
                )
                assert is_associative_bruteforce(cube).holds
                assert is_associative_matrix(cube).holds

    def test_witness_cap_and_full_count(self, nonassoc_cube):
        report = is_associative_bruteforce(nonassoc_cube, witness_cap=1)
        assert len(report.witnesses) == 1
        assert report.violation_count >= 2


def _random_column(rng, n):
    weights = [rng.randint(0, 9) for _ in range(n)]
    weights[rng.randrange(n)] += 1
    total = sum(weights)
    return [rat(w, total) for w in weights]


def _perturb_one_column(cube, rng):
    """Move mass between two entries of one column; keeps the cube valid."""
    n = cube.n
    entries = [[list(col) for col in plane] for plane in cube.entries]
    while True:
        i, j = rng.randrange(n), rng.randrange(n)
        column = entries[i][j]
        positions = [k for k in range(n) if column[k] > 0]
        if not positions:
            continue
        p = rng.choice(positions)
        q = rng.choice([k for k in range(n) if k != p])
        shift = column[p] * rat(1, rng.randint(2, 5))
        column[p] -= shift
        column[q] += shift
        if tuple(column) != cube.entries[i][j]:
            return validate_cube(entries)


def _perturb_columns(cube, rng, primes):
    """Move mass within one column per prime, by a share with that prime
    in its denominator, so different columns carry different denominators.

    The primes exceed every denominator random_measure produces at n <= 6,
    so no perturbation cancels and the cube's common denominator gains
    each of them.
    """
    n = cube.n
    entries = [[list(col) for col in plane] for plane in cube.entries]
    cells = rng.sample([(i, j) for i in range(n) for j in range(n)], len(primes))
    for (i, j), prime in zip(cells, primes):
        column = entries[i][j]
        p = rng.choice([k for k in range(n) if column[k] > 0])
        q = rng.choice([k for k in range(n) if k != p])
        shift = column[p] * rat(1, prime)
        column[p] -= shift
        column[q] += shift
    return validate_cube(entries)


def _dyadic_cube(rng, n, bits, cells):
    """Point masses on the table of Z_n, with 2**-bits of the mass of
    `cells` columns moved to another state.  D is 2**bits, and most
    products stay point masses, so the two sides of the matrix route and
    of product-columns hold entries equal to 1, that is D**2 before they
    are unscaled: the widest value a slot of the packed rows must hold,
    and at bits = 0 the top bit of a slot one bit wide."""
    entries = [[[rat(int(k == (i + j) % n)) for k in range(n)] for j in range(n)] for i in range(n)]
    for i, j in rng.sample([(i, j) for i in range(n) for j in range(n)], cells):
        column = entries[i][j]
        p = column.index(1)
        q = rng.choice([k for k in range(n) if k != p])
        column[p] -= rat(1, 2**bits)
        column[q] += rat(1, 2**bits)
    return validate_cube(entries)


def _support_cube(rng, n, support=3):
    """A derived cube whose measure weighs the identity and support - 1
    other states, as random walks do at support 3: every column has
    `support` nonzero entries."""
    states = [0, *rng.sample(range(1, n), support - 1)]
    weights = {s: rng.randint(1, 10**6) for s in states}
    total = sum(weights.values())
    measure = [rat(weights.get(s, 0), total) for s in range(n)]
    return derive_cube(cayley_table(rng.choice(enumerate_abelian_groups(n))), measure)


def _printed_values(text):
    """The values one side of a witness prints: the entry of a matrix
    witness, or every entry of a vector."""
    if text.startswith("entry"):
        return [text.rsplit("= ", 1)[1]]
    return text.strip("()").split(", ")


class TestCrossOracle:
    def test_routes_agree_on_random_cubes(self):
        rng = random.Random(2024)
        for trial in range(40):
            n = rng.randint(2, 5)
            factors = rng.choice(enumerate_abelian_groups(n))
            table = cayley_table(factors)
            cube = derive_cube(table, random_measure(rng, n, positive=True))
            if trial % 2:
                cube = _perturb_one_column(cube, rng)
            matrix = is_associative_matrix(cube)
            brute = is_associative_bruteforce(cube)
            assert matrix.holds == brute.holds

    def test_integer_scans_match_fraction_oracle_witness_for_witness(self):
        rng = random.Random(4711)
        primes = (7919, 7927, 7933, 7937)
        cubes, perturbed = [], 0
        for trial in range(30):
            n = rng.randint(2, 6)
            factors = rng.choice(enumerate_abelian_groups(n))
            cube = derive_cube(cayley_table(factors), random_measure(rng, n))
            if trial % 3:
                cube = _perturb_columns(cube, rng, primes[: 2 + trial % 3])
                denominators = [q.denominator for plane in cube.entries for col in plane for q in col]
                assert math.lcm(*denominators) > max(denominators)
                perturbed += 1
            cubes.append(cube)
        assert perturbed == 20
        # sparse: most entries zero, so the brute-force route skips most
        # of each column; derived, perturbed both ways, and one cube that
        # does not commute
        for n in range(8, 13):
            cube = _support_cube(rng, n)
            cubes.append(cube)
            for symmetric in (True, False):
                cubes.append(validate_cube(perturbed_entries(cube.entries, rng, symmetric)))
        s3 = validate_cube(oracle_derive(_s3_rows(), [rat(3, 6), 0, rat(2, 6), 0, rat(1, 6), 0]))
        assert not is_commutative(s3).holds
        cubes.append(s3)
        truncated = []
        for index, cube in enumerate(cubes):
            expected = oracle_associativity(cube.entries)
            truncated.append(expected["associative-bruteforce"][0] > 3)
            for cap in (1, 3, 10**6):
                reports = [
                    is_associative_bruteforce(cube, witness_cap=cap),
                    is_associative_matrix(cube, witness_cap=cap),
                    check_corollaries(cube, witness_cap=cap)[3],
                ]
                for report in reports:
                    count, witnesses = expected[report.name]
                    assert report.holds == (count == 0), (index, cap, report.name)
                    assert report.violation_count == count, (index, cap, report.name)
                    got = [(w.indices, w.expected, w.actual) for w in report.witnesses]
                    assert got == witnesses[:cap], (index, cap, report.name)
        # caps 1 and 3 cut the witness lists of every perturbed sparse cube
        assert truncated[30:] == [False, True, True] * 5 + [True]

    def test_first_matrix_witness_and_gate_on_orders_up_to_8(self):
        # the cubes the recover gate scans to the end, associative ones
        # that fail condition (A), next to perturbed derived ones
        rng = random.Random(8808)
        cubes, associative_rejects = [], 0
        for n in range(2, 9):
            for factors in enumerate_abelian_groups(n):
                table = cayley_table(factors)
                rows = table.rows
                derived = derive_cube(table, random_measure(rng, n, positive=True))
                cubes.append(validate_cube(perturbed_entries(derived.entries, rng, symmetric=True)))
                order_two = [h for h in range(2, n + 1) if rows[h - 1][h - 1] == 1]
                if order_two:
                    cubes.append(derive_cube(table, coset_measure(rng, rows, rng.choice(order_two))))
                if 2 * len({rows[s][s] for s in range(n)}) == n:
                    cubes.append(derive_cube(table, index_two_measure(rng, rows)))
        reasons = set()
        for cube in cubes:
            witnesses = oracle_associativity(cube.entries)["associative-matrix"][1]
            first = witnesses[0] if witnesses else None
            assert next(checks._matrix_violations(cube), None) == first
            result = recover(cube)
            assert result == gates_only(cube)
            reasons.add(result.reason)
            associative_rejects += first is None and result.reason == "fails-condition-a"
        assert max(cube.n for cube in cubes) == 8
        assert associative_rejects >= 8
        assert {"not-associative", "fails-condition-a"} <= reasons

    def test_brute_force_route_shares_no_packing(self, z3_cube, nonassoc_cube, monkeypatch):
        rng = random.Random(8)
        sparse = validate_cube(perturbed_entries(_support_cube(rng, 8).entries, rng, symmetric=False))
        cubes = [z3_cube, nonassoc_cube, _dyadic_cube(random.Random(5), 4, 2, 2), sparse]
        expected = [is_associative_bruteforce(cube) for cube in cubes]

        def refuse(*args):
            raise AssertionError("packed rows used")

        monkeypatch.setattr(checks, "_pack", refuse)
        monkeypatch.setattr(checks, "_unpack", refuse)
        with pytest.raises(AssertionError, match="packed rows used"):
            is_associative_matrix(z3_cube)
        assert [is_associative_bruteforce(cube) for cube in cubes] == expected


class TestSlotWidth:
    # the matrix route and product-columns pack D**2 into a slot of
    # (D*D).bit_length() bits; the Fraction oracle packs nothing
    @staticmethod
    def _assert_packed_routes_match_oracle(cube, cap):
        expected = oracle_associativity(cube.entries)
        reports = [is_associative_matrix(cube, cap), check_corollaries(cube, cap)[3]]
        for report in reports:
            count, witnesses = expected[report.name]
            assert report.violation_count == count, report.name
            assert [(w.indices, w.expected, w.actual) for w in report.witnesses] == witnesses[:cap], report.name
        return reports

    @pytest.mark.parametrize("cap", [1, 10**6])
    def test_entries_equal_to_d_squared(self, cap):
        rng = random.Random(2718)
        with_one = {"associative-matrix": 0, "product-columns": 0}
        for bits in (0, 1, 2, 3, 5):
            for _ in range(3):
                cube = _dyadic_cube(rng, rng.randint(3, 5), bits, rng.randint(1, 3))
                assert cube.denominator == 2**bits
                for report in self._assert_packed_routes_match_oracle(cube, cap):
                    for w in report.witnesses:
                        with_one[report.name] += "1" in _printed_values(w.expected) + _printed_values(w.actual)
        assert all(with_one.values()), with_one

    @pytest.mark.parametrize("cap", [1, 10**6])
    def test_denominator_at_the_operand_bound(self, cap):
        rng = random.Random(7140)
        for n in (3, 4):
            cube = _dyadic_cube(rng, n, 7140, 2)
            assert cube.denominator == 2**7140 and len(str(cube.denominator)) == MAX_OPERAND_DIGITS
            reports = self._assert_packed_routes_match_oracle(cube, cap)
            assert not any(report.holds for report in reports)


def _action_rows(cube):
    """Every row of every left action, as int tuples: row r of L_i holds
    entry (i, c, r) at c."""
    return [row for plane in int_planes(cube) for row in zip(*plane)]


def _split_sparse_z6(rng):
    """A derived cube of Z6 (state s is the element s - 1) whose measure
    sits on the elements 0, 1 and 3, with the product column of states
    (2, 3) and its mirror (3, 2) moved off the value it shares with every
    pair whose elements sum to 3.  The mix of that value reads only the
    actions of elements 3, 4 and 0, which the move leaves as they are, so
    other pairs that share it still hold while the moved pair does not."""
    table = cayley_table(InvariantFactors((6,)))
    weights = {0: rng.randint(1, 50), 1: rng.randint(1, 50), 3: rng.randint(1, 50)}
    total = sum(weights.values())
    derived = derive_cube(table, [rat(weights.get(s, 0), total) for s in range(6)])
    entries = [[list(col) for col in plane] for plane in derived.entries]
    column = entries[1][2]
    p = next(k for k in range(6) if column[k])
    shift = column[p] / 3
    column[p] -= shift
    column[(p + 2) % 6] += shift
    entries[2][1] = list(column)
    return derived, validate_cube(entries)


def _shared_value_cubes():
    """Cubes whose action rows or product columns repeat, so that the
    matrix route's per-value memos are read back, each with the repeat
    that a wrongly keyed memo would get wrong."""
    rng = random.Random(3003)
    cubes = {}

    # one column in every plane, at pairs whose other data differ
    derived = derive_cube(cayley_table(InvariantFactors((5,))), random_measure(rng, 5, positive=True))
    entries = [[list(col) for col in plane] for plane in derived.entries]
    shared = _random_column(rng, 5)
    for i, j in ((0, 1), (1, 0), (2, 3), (3, 2), (4, 4)):
        entries[i][j] = shared
    cube = validate_cube(entries)
    column = int_planes(cube)[0][1]
    assert all(column in plane for plane in int_planes(cube))
    cubes["column in every plane"] = cube

    # point masses on Z4, one pair moved: the unit rows repeat in every
    # plane, and a row times L_j differs from j to j
    table = cayley_table(InvariantFactors((4,)))
    entries = [[[rat(int(k == table.rows[i][j] - 1)) for k in range(4)] for j in range(4)] for i in range(4)]
    entries[1][2] = entries[2][1] = [rat(1, 3), 0, 0, rat(2, 3)]
    cube = validate_cube(entries)
    rows = _action_rows(cube)
    assert rows.count((0, 0, 0, cube.denominator)) > 1
    assert len({tuple(matmul([[1, 0, 0, 0]], left_action(cube.entries, j))[0]) for j in (1, 2, 3, 4)}) == 4
    cubes["row in several planes"] = cube

    # coset cubes: n/2 distinct columns, associative, fail condition (A)
    for factors in ((4,), (2, 2), (6,), (2, 4)):
        table = cayley_table(InvariantFactors(factors))
        h = next(h for h in range(2, table.n + 1) if table.rows[h - 1][h - 1] == 1)
        cube = derive_cube(table, coset_measure(rng, table.rows, h))
        while 2 * oracle_distinct_columns(cube.entries) != cube.n:  # two cosets drew equal weights
            cube = derive_cube(table, coset_measure(rng, table.rows, h))
        cubes[f"coset of {factors}"] = cube

    # one shared column split: pairs that shared it hold, the moved one
    # does not
    derived, cube = _split_sparse_z6(rng)
    sharing = [(i + 1, j + 1) for i in range(6) for j in range(6) if (i + j) % 6 == 3]
    violating = {w[0] for w in oracle_associativity(cube.entries)["associative-matrix"][1]}
    assert (2, 3) in violating and not set(sharing) <= violating
    planes = int_planes(derived)
    assert all(planes[i - 1][j - 1] == planes[1][2] for i, j in sharing)
    cubes["split column"] = cube

    # equal int rows over different denominators: the same planes but for
    # the last entry of each column, D raised to a prime
    base = derive_cube(cayley_table(InvariantFactors((3,))), validate_measure(["1/2", "1/3", "1/6"]))
    common = 13
    raised = [[[rat(x + (k == 2) * (common - base.denominator), common) for k, x in enumerate(col)]
               for col in plane] for plane in int_planes(base)]
    cube = validate_cube(raised)
    assert cube.denominator == common != base.denominator
    assert set(_action_rows(cube)) & set(_action_rows(base))
    cubes["equal rows, D 6"] = base
    cubes["equal rows, D 13"] = cube
    return cubes


class TestMatrixSharing:
    # the matrix route computes each side once per distinct row or column
    # it depends on; every answer must be the unshared one
    def test_shared_values_match_fraction_oracle(self):
        cubes = _shared_value_cubes()
        outcomes = set()
        # back to back, twice, so a memo that outlived its call would be
        # read by a later cube
        for name in [*cubes, *reversed(cubes)]:
            cube = cubes[name]
            count, witnesses = oracle_associativity(cube.entries)["associative-matrix"]
            for cap in (1, 3, 10**6):
                report = is_associative_matrix(cube, cap)
                assert report.violation_count == count, (name, cap)
                assert [(w.indices, w.expected, w.actual) for w in report.witnesses] == witnesses[:cap], (name, cap)
            assert next(checks._matrix_violations(cube), None) == (witnesses[0] if witnesses else None), name
            result = recover(cube)
            assert result == gates_only(cube), name
            outcomes.add((count == 0, result.reason))
        assert {(False, "not-associative"), (True, "fails-condition-a")} <= outcomes

    def test_equal_rows_over_different_denominators_back_to_back(self):
        cubes = _shared_value_cubes()
        pair = [cubes["equal rows, D 6"], cubes["equal rows, D 13"]]
        expected = [oracle_associativity(cube.entries)["associative-matrix"] for cube in pair]
        assert [count for count, _ in expected] == [0, 9]
        for cube, (count, witnesses) in [*zip(pair, expected), *zip(pair[::-1], expected[::-1])] * 2:
            report = is_associative_matrix(cube, 10**6)
            assert (report.violation_count, [(w.indices, w.expected, w.actual) for w in report.witnesses]) == (
                count,
                witnesses,
            )


def _counted_work(cube, monkeypatch):
    """The matrix route's report, its int multiplications, counted
    through checks.mul, which it maps over every product it forms, and
    its calls of checks._pack."""
    count, packs = 0, 0
    pack = checks._pack

    def counted(a, b):
        nonlocal count
        count += 1
        return a * b

    def counted_pack(values, w):
        nonlocal packs
        packs += 1
        return pack(values, w)

    with monkeypatch.context() as patch:
        patch.setattr(checks, "mul", counted)
        patch.setattr(checks, "_pack", counted_pack)
        report = is_associative_matrix(cube)
    return report, count, packs


class TestMatrixWork:
    # deterministic work, no timing: a regression in the sharing fails here
    @pytest.mark.parametrize("n", [8, 16, 24])
    def test_derived_cube_forms_each_product_once(self, n, monkeypatch):
        # n distinct rows and columns, each with s nonzero entries: n**2
        # products of s multiplications a side, and one pack per row
        rng = random.Random(n)
        for support in (1, 3, 5):
            cube = _support_cube(rng, n, support)
            assert len(set(_action_rows(cube))) == len({col for plane in int_planes(cube) for col in plane}) == n
            report, count, packs = _counted_work(cube, monkeypatch)
            assert report.holds
            assert count == 2 * support * n * n
            assert packs == n

    def test_cube_that_repeats_nothing_does_the_unshared_work(self, monkeypatch):
        # every lookup misses, so the count is the unshared scan's, as
        # measured on it: each pair stops at its first differing row,
        # and a memo filled ahead of the scan would do up to 2n**4
        rng = random.Random(1212)
        counts = []
        for n in (5, 9):
            cube = validate_cube([[_random_column(rng, n) for _ in range(n)] for _ in range(n)])
            columns = [col for plane in int_planes(cube) for col in plane]
            assert len(set(columns)) == len(columns) == len(set(_action_rows(cube)))
            report, count, packs = _counted_work(cube, monkeypatch)
            assert report.violation_count == oracle_associativity(cube.entries)["associative-matrix"][0]
            counts.append(count)
            # every row of every action is read, and each is packed once
            assert packs == n * n
        assert counts == [226, 1345]


def _counted_sorts(cube, monkeypatch):
    """The corollary reports and the calls of sorted they made, counted
    through a stand-in set on the checks module."""
    calls = 0

    def counted(values):
        nonlocal calls
        calls += 1
        return sorted(values)

    with monkeypatch.context() as patch:
        patch.setattr(checks, "sorted", counted, raising=False)
        reports = check_corollaries(cube)
    return reports, calls


class TestCorollaryWork:
    # each distinct column and each distinct action row is sorted once
    @pytest.mark.parametrize("n", [8, 16, 24])
    def test_derived_cube_sorts_n_columns_and_n_rows(self, n, monkeypatch):
        rng = random.Random(n)
        for support in (1, 3, n):
            cube = _support_cube(rng, n, support)
            assert len(cube.columns) == len(set(_action_rows(cube))) == n
            reports, calls = _counted_sorts(cube, monkeypatch)
            assert all(report.holds for report in reports)
            assert calls == 2 * n

    def test_cube_that_repeats_nothing_sorts_every_column_and_row(self, monkeypatch):
        rng = random.Random(1213)
        for n in (5, 9):
            cube = validate_cube([[_random_column(rng, n) for _ in range(n)] for _ in range(n)])
            assert len(cube.columns) == len(set(_action_rows(cube))) == n * n
            reports, calls = _counted_sorts(cube, monkeypatch)
            assert not reports[0].holds
            assert calls == 2 * n * n


def _oracle_cubes():
    """Derived cubes, derived cubes perturbed over distinct primes (so D
    exceeds every single denominator) and cubes of few distinct columns."""
    rng = random.Random(6007)
    primes = (7919, 7927, 7933, 7937)
    cubes = []
    perturbed = 0
    for trial in range(36):
        n = rng.randint(1, 6)
        if trial % 3 == 2:
            columns = [_random_column(rng, n) for _ in range(rng.randint(1, n))]
            cubes.append(validate_cube([[rng.choice(columns) for _ in range(n)] for _ in range(n)]))
            continue
        cube = derive_cube(cayley_table(rng.choice(enumerate_abelian_groups(n))), random_measure(rng, n))
        if trial % 3 == 1 and n > 1:
            cube = _perturb_columns(cube, rng, primes[: 2 + trial % 2])
            assert cube.denominator > max(q.denominator for plane in cube.entries for col in plane for q in col)
            perturbed += 1
        cubes.append(cube)
    assert perturbed >= 8
    return cubes


class TestFractionOracles:
    # every predicate decided on the integer planes gives the counts and
    # witness strings that Fraction arithmetic gives
    @pytest.mark.parametrize("cap", [1, 10**6])
    def test_commutativity_and_multiset_corollaries(self, cap):
        outcomes = set()
        for cube in _oracle_cubes():
            expected = {"commutative": oracle_commutativity(cube.entries), **oracle_multiset_corollaries(cube.entries)}
            for report in [is_commutative(cube, cap), *check_corollaries(cube, cap)[:3]]:
                witnesses = expected[report.name]
                assert report.violation_count == len(witnesses), report.name
                assert report.holds == (not witnesses)
                assert [(w.indices, w.expected, w.actual) for w in report.witnesses] == witnesses[:cap]
                outcomes.add((report.name, report.holds))
        assert len(outcomes) == 8

    def test_distinct_column_count(self):
        counts = [
            (satisfies_condition_A(cube).distinct_column_count, oracle_distinct_columns(cube.entries), cube.n)
            for cube in _oracle_cubes()
        ]
        assert all(got == want for got, want, _ in counts)
        assert any(got < n for got, _, n in counts)

    def test_validation_violations(self):
        rng = random.Random(8111)
        verdicts = set()
        for trial in range(60):
            n = rng.randint(1, 4)
            entries = [[_random_column(rng, n) for _ in range(n)] for _ in range(n)]
            for _ in range(trial % 3):
                i, j, k = (rng.randrange(n) for _ in range(3))
                entries[i][j][k] = Fraction(rng.randint(-3, 3), rng.choice((1, 2, 7919)))
            expected = oracle_violations(entries)
            verdicts.add(bool(expected))
            if not expected:
                validate_cube(entries)
                continue
            with pytest.raises(ValidationError) as err:
                validate_cube(entries)
            assert [(v.kind, v.indices, v.detail) for v in err.value.violations] == expected
        assert verdicts == {True, False}


@pytest.mark.parametrize(
    "check", [is_commutative, is_associative_matrix, is_associative_bruteforce, check_corollaries]
)
@pytest.mark.parametrize("cap", [0, -3])
def test_witness_cap_below_one_raises(z2_cube, check, cap):
    with pytest.raises(ValueError, match="witness cap must be at least 1"):
        check(z2_cube, cap)


class TestConditionA:
    def test_z2_derived(self, z2_cube):
        report = satisfies_condition_A(z2_cube)
        assert report.holds
        assert report.distinct_column_count == 2
        assert report.left_ranks == (2, 2)
        assert report.right_ranks == (2, 2)

    def test_uniform_collapses_columns(self, z2_table):
        cube = derive_cube(z2_table, validate_measure(["1/2", "1/2"]))
        report = satisfies_condition_A(cube)
        assert not report.holds
        assert report.distinct_column_count == 1

    def test_semilattice_rank_drop(self, semilattice_cube):
        report = satisfies_condition_A(semilattice_cube)
        assert not report.holds
        assert report.distinct_column_count == 2
        assert report.left_ranks == (1, 2)

    def test_single_state(self):
        assert satisfies_condition_A(validate_cube([[[1]]])).holds

    def test_relabel_invariance(self, z3_cube):
        rng = random.Random(9)
        raw = [[list(col) for col in plane] for plane in z3_cube.entries]
        for _ in range(5):
            perm = list(range(1, 4))
            rng.shuffle(perm)
            relabelled = validate_cube(relabel_cube(raw, perm))
            before = satisfies_condition_A(z3_cube)
            after = satisfies_condition_A(relabelled)
            assert before.holds == after.holds
            assert before.distinct_column_count == after.distinct_column_count
            assert sorted(before.left_ranks) == sorted(after.left_ranks)

    def test_rank_matches_det_route(self, z2_cube, z3_cube, semilattice_cube):
        for cube in (z2_cube, z3_cube, semilattice_cube):
            report = satisfies_condition_A(cube)
            for i in range(1, cube.n + 1):
                rows = left_action(cube.entries, i)
                rank = RationalMatrix(tuple(map(tuple, rows))).rank()
                assert (rank == cube.n) == (cofactor_det(rows) != 0)
                assert report.left_ranks[i - 1] == rank

    def test_ranks_match_fraction_oracle(self):
        rng = random.Random(53)
        cubes = [
            # left ranks differ from right ranks: the product column of
            # (i, j) depends on i only, or on j only
            validate_cube([[[1, 0], [1, 0]], [[0, 1], [0, 1]]]),
            validate_cube([[[1 if k == j else 0 for k in range(3)] for j in range(3)] for _ in range(3)]),
        ]
        z4 = cayley_table(InvariantFactors((4,)))
        cubes.append(derive_cube(z4, validate_measure(["1/2", "1/4", 0, "1/4"])))
        for n in (4, 6):
            for factors in enumerate_abelian_groups(n):
                table = cayley_table(factors)
                for members in subgroup_element_sets([list(r) for r in table.rows]):
                    cubes.append(derive_cube(table, validate_measure(uniform_on_subgroup(n, members))))
        for trial in range(40):
            n = rng.randint(1, 5)
            if trial % 2:
                # few distinct columns: ranks mostly drop, left and right apart
                columns = [_random_column(rng, n) for _ in range(rng.randint(1, n))]
                entries = [[rng.choice(columns) for _ in range(n)] for _ in range(n)]
            else:
                entries = [[_random_column(rng, n) for _ in range(n)] for _ in range(n)]
            cubes.append(validate_cube(entries))
        differing = 0
        verdicts = set()
        for cube in cubes:
            n, entries = cube.n, cube.entries
            # the action matrices themselves, not their transposes
            left = tuple(
                fraction_rank([[entries[i][c][r] for c in range(n)] for r in range(n)]) for i in range(n)
            )
            right = tuple(
                fraction_rank([[entries[c][i][r] for c in range(n)] for r in range(n)]) for i in range(n)
            )
            report = satisfies_condition_A(cube)
            assert (report.left_ranks, report.right_ranks) == (left, right)
            differing += left != right
            verdicts.add(report.holds)
        assert differing >= 2
        assert verdicts == {True, False}

    def test_a_right_rank_equal_to_its_left_one_is_not_recomputed(self, monkeypatch):
        # one rank per distinct set of rows, left and right alike: row
        # order and repeated rows leave the row space as it is
        a, b, c, half = (1, 0, 0), (0, 1, 0), (0, 0, 1), ("1/2", "1/2", 0)
        z3 = cayley_table(InvariantFactors((3,)))
        partly = validate_cube([[a, b, c], [b, c, c], [c, a, half]])
        counts = [
            # derived: every row set is the n translates of the measure
            (derive_cube(z3, ["1/2", "1/3", "1/6"]), 1),
            # left {a, b, c}, {b, c}, {a, c, half}; right {a, b, c}, {c, half}
            (partly, 4),
            # left {(1, 0)} and {(0, 1)}; both right row sets are {(1, 0), (0, 1)}
            (validate_cube([[(1, 0), (1, 0)], [(0, 1), (0, 1)]]), 3),
            # left {a}, {b}, {c}; every right row set is {a, b, c}
            (validate_cube([[a, a, a], [b, b, b], [c, c, c]]), 4),
            # planes 1 and 2 hold {a, b} with different multiplicities;
            # right {a, c}, {a, b, c}, {b, c}
            (validate_cube([[a, a, b], [a, b, b], [c, c, c]]), 5),
            # derived, of order 16
            (derive_cube(cayley_table(InvariantFactors((2, 8))), random_measure(random.Random(16), 16)), 1),
        ]
        expected = [satisfies_condition_A(cube) for cube, _ in counts]
        calls, rank = [], checks.rational_rank

        def counted(rows):
            calls.append(rows)
            return rank(rows)

        monkeypatch.setattr(checks, "rational_rank", counted)
        for (cube, count), report in zip(counts, expected):
            calls.clear()
            assert satisfies_condition_A(cube) == report
            assert len(calls) == count
        assert expected[1].left_ranks != expected[1].right_ranks


class TestCorollaries:
    def test_z2_all_hold_with_diagonals(self, z2_cube):
        reports = check_corollaries(z2_cube)
        assert [r.name for r in reports] == [
            "column-contents",
            "constant-diagonals",
            "row-column-contents",
            "product-columns",
        ]
        assert all(r.holds for r in reports)
        # diagonal constants per action: 3/4 for state 1, 1/4 for state 2
        assert z2_cube.column(1, 1)[0] == z2_cube.column(1, 2)[1] == rat(3, 4)
        assert z2_cube.column(2, 1)[0] == z2_cube.column(2, 2)[1] == rat(1, 4)

    def test_z3_columns_are_permutations(self, z3_cube):
        reports = check_corollaries(z3_cube)
        assert all(r.holds for r in reports)
        base = sorted(z3_cube.column(1, 1))
        for i in range(1, 4):
            for j in range(1, 4):
                assert sorted(z3_cube.column(i, j)) == base

    def test_nonassoc_fails_product_columns(self, nonassoc_cube):
        reports = {r.name: r for r in check_corollaries(nonassoc_cube)}
        assert not reports["product-columns"].holds
        assert reports["product-columns"].witnesses[0].indices == (1, 2)

    def test_scalar_count_violation(self):
        # four distinct scalars on two states breaks the value-count bound
        cube = validate_cube(
            [
                [["1/3", "2/3"], ["1/5", "4/5"]],
                [["1/5", "4/5"], ["1/3", "2/3"]],
            ]
        )
        report = next(r for r in check_corollaries(cube) if r.name == "column-contents")
        assert not report.holds

    def test_derived_cubes_pass_all(self):
        rng = random.Random(7)
        for n in (2, 3, 4, 5, 6):
            for factors in enumerate_abelian_groups(n):
                table = cayley_table(factors)
                for _ in range(3):
                    cube = derive_cube(table, random_measure(rng, n))
                    assert all(r.holds for r in check_corollaries(cube))


def test_reports_are_deterministic():
    cube = validate_cube(
        [
            [[0, 1], [1, 0]],
            [[1, 0], [1, 0]],
        ]
    )
    first = is_associative_bruteforce(cube)
    second = is_associative_bruteforce(cube)
    assert first == second
