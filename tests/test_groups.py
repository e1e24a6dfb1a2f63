import ast
import math
import random
from pathlib import Path

import pytest

import hgforge.groups
from hgforge import (
    CayleyTable,
    InvalidTable,
    InvariantFactors,
    canonical_form,
    cayley_table,
    enumerate_abelian_groups,
    verify_group_axioms,
)
from hgforge.groups import _generators
from oracles import (
    element_orders,
    first_nonassociative_triple,
    matmul,
    oracle_canonical_form,
    partition_count,
    relabel_table,
    search_nonassociative_loop,
    table_element_orders,
    translation_matrices,
)


def _identity(n):
    return [[int(r == c) for c in range(n)] for r in range(n)]


class TestInvariantFactors:
    def test_order(self):
        assert InvariantFactors((2, 4)).order == 8
        assert InvariantFactors(()).order == 1

    def test_divisibility_enforced(self):
        with pytest.raises(ValueError):
            InvariantFactors((2, 3))

    def test_minimum_factor(self):
        with pytest.raises(ValueError):
            InvariantFactors((1, 2))

    def test_element_orders(self):
        # the oracle that canonical_form is checked against
        assert element_orders((2, 2)) == [1, 2, 2, 2]
        assert element_orders((4,)) == [1, 2, 4, 4]
        assert element_orders(()) == [1]
        for factors in [(), (2, 2), (4,), (2, 6), (3, 3, 9)]:
            assert table_element_orders(cayley_table(factors).rows) == element_orders(factors)


class TestEnumeration:
    def test_pinned_small_cases(self):
        assert [g.factors for g in enumerate_abelian_groups(4)] == [(4,), (2, 2)]
        assert [g.factors for g in enumerate_abelian_groups(6)] == [(6,)]
        assert [g.factors for g in enumerate_abelian_groups(1)] == [()]
        assert [g.factors for g in enumerate_abelian_groups(8)] == [(8,), (2, 4), (2, 2, 2)]
        assert [g.factors for g in enumerate_abelian_groups(12)] == [(12,), (2, 6)]

    def test_counts_match_partition_product(self):
        def factorize(n):
            out, d = {}, 2
            while d * d <= n:
                while n % d == 0:
                    out[d] = out.get(d, 0) + 1
                    n //= d
                d += 1
            if n > 1:
                out[n] = out.get(n, 0) + 1
            return out

        for n in range(1, 65):
            expected = 1
            for exponent in factorize(n).values():
                expected *= partition_count(exponent)
            assert len(enumerate_abelian_groups(n)) == expected, n

    def test_classes_are_distinct_and_valid(self):
        for n in (16, 24, 36, 64):
            groups = enumerate_abelian_groups(n)
            assert len({g.factors for g in groups}) == len(groups)
            assert all(g.order == n for g in groups)

    def test_order_cap(self):
        with pytest.raises(ValueError):
            enumerate_abelian_groups(257)
        # canonical_form reads a table's class past the cap, from its basis
        assert canonical_form(cayley_table((2, 150))).factors == (2, 150)

    def test_positive_order_required(self):
        with pytest.raises(ValueError):
            enumerate_abelian_groups(0)


class TestCayleyTable:
    def test_z2(self):
        assert cayley_table(InvariantFactors((2,))).rows == ((1, 2), (2, 1))

    def test_klein_all_involutions(self):
        table = cayley_table(InvariantFactors((2, 2)))
        assert all(table.rows[i - 1][i - 1] == 1 for i in range(1, 5))

    def test_z4_has_order_four_element(self):
        table = cayley_table(InvariantFactors((4,)))
        assert table.rows[1][1] == 3
        assert table_element_orders(table.rows) == [1, 2, 4, 4]
        assert table.basis == ((4,), ((0,), (1,), (2,), (3,)))

    def test_identity_at_state_one(self):
        for n in (1, 2, 3, 4, 6, 8):
            for factors in enumerate_abelian_groups(n):
                table = cayley_table(factors)
                assert all(table.rows[0][j - 1] == j for j in range(1, n + 1))

    def test_inverse(self):
        table = cayley_table(InvariantFactors((4,)))
        for i in range(1, 5):
            inverse = table.rows[i - 1].index(1) + 1
            assert table.rows[inverse - 1][i - 1] == 1

    def test_invalid_tables_rejected(self):
        with pytest.raises(InvalidTable):
            CayleyTable(2, ((1, 2), (2, 2)))
        with pytest.raises(InvalidTable):
            # valid Latin square, wrong identity position
            CayleyTable(2, ((2, 1), (1, 2)))
        with pytest.raises(InvalidTable):
            CayleyTable(3, ((1, 2), (2, 1)))


_S3 = (
    (1, 2, 3, 4, 5, 6),
    (2, 1, 5, 6, 3, 4),
    (3, 4, 1, 2, 6, 5),
    (4, 3, 6, 5, 1, 2),
    (5, 6, 2, 1, 4, 3),
    (6, 5, 4, 3, 2, 1),
)


@pytest.mark.parametrize(
    "n, rows, message",
    [
        (2, [[1, 2], [2, 2]], "latin-square fails at (2,): expected each of 1..n once in the row, got value 2 repeats"),
        (2, [[1, 2], [1, 2]], "latin-square fails at (1,): expected each of 1..n once in the column, got value 1 repeats"),
        (5, search_nonassociative_loop(5), "associativity fails at (2, 2, 3): expected state 3, got state 5"),
        (6, _S3, "commutativity fails at (2, 3): expected state 5, got state 4"),
        (2, [[2, 1], [1, 2]], "identity at state 2, expected state 1"),
        (3, [[1, 2], [2, 1]], "declared 3 states but table has 2 rows"),
        (2, [[1, 2], [2]], "table must be square and non-empty"),
        (0, [], "table must be square and non-empty"),
        (2, [[1, 2], [2, 3]], "table value 3 out of range 1..2"),
        (2, [[1.0, 2], [2, 1]], "table value 1.0 is not an integer"),
        (1, [[True]], "table value True is not an integer"),
    ],
    ids=[
        "row-repeat",
        "column-repeat",
        "loop",
        "s3",
        "identity",
        "declared-n",
        "ragged",
        "empty",
        "out-of-range",
        "float-label",
        "bool-label",
    ],
)
def test_invalid_table_messages(n, rows, message):
    # every message is pinned byte for byte: it is what a caller sees
    with pytest.raises(InvalidTable) as err:
        CayleyTable(n, rows)
    assert str(err.value) == message


class TestNonIntegersRefused:
    """Orders, factors and table labels must be ints, as in files; a float
    or a bool was once truncated into a valid group."""

    def test_invariant_factors(self):
        with pytest.raises(ValueError, match="invariant factor 2.5 is not an integer"):
            InvariantFactors((2.5, 4.9))

    def test_cayley_table_of_float_factors(self):
        with pytest.raises(ValueError, match="invariant factor 2.5 is not an integer"):
            cayley_table((2.5,))

    def test_table_with_float_labels(self):
        with pytest.raises(InvalidTable, match="table value 1.0 is not an integer"):
            CayleyTable(2, ((1.0, 2.7), (2.2, 1.9)))

    def test_enumeration_order(self):
        with pytest.raises(ValueError, match="group order must be an integer, got 2.5"):
            enumerate_abelian_groups(2.5)

    @pytest.mark.parametrize(
        "n, rows, message",
        [
            (2.0, ((1, 2), (2, 1)), "declared 2.0 states but table has 2 rows"),
            (True, ((1,),), "declared True states but table has 1 rows"),
        ],
        ids=["float", "bool"],
    )
    def test_declared_order(self, n, rows, message):
        with pytest.raises(InvalidTable) as err:
            CayleyTable(n, rows)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "build",
        [
            lambda: enumerate_abelian_groups(True),
            lambda: InvariantFactors((2, True)),
            lambda: CayleyTable(1, ((True,),)),
            lambda: verify_group_axioms([[True]]),
        ],
        ids=["enumeration", "factors", "table", "axioms"],
    )
    def test_true_is_not_one(self, build):
        with pytest.raises(ValueError, match="True"):
            build()


class TestVerifyAxioms:
    def test_generated_tables_pass(self):
        for n in (1, 2, 4, 6, 9):
            for factors in enumerate_abelian_groups(n):
                assert verify_group_axioms(cayley_table(factors).rows) is None

    def test_latin_failure(self):
        # row 2 repeats value 2
        with pytest.raises(InvalidTable, match=r"^latin-square fails at \(2,\): .*got value 2 repeats$"):
            verify_group_axioms([[1, 2], [2, 2]])

    def test_nonassociative_loop_found_by_search(self):
        with pytest.raises(InvalidTable, match="^associativity fails at "):
            verify_group_axioms(search_nonassociative_loop(5))

    def test_noncommutative_detected(self):
        # S_3: smallest non-abelian group; associative Latin square with
        # identity, so the commutativity stage is the one that trips
        with pytest.raises(InvalidTable, match="^commutativity fails at "):
            verify_group_axioms(_S3)

    def test_out_of_range_values(self):
        with pytest.raises(ValueError):
            verify_group_axioms([[1, 2], [2, 3]])


def _associativity_message(rows):
    found = first_nonassociative_triple(rows)
    if found is None:
        return None
    a, b, c, left, right = found
    return f"associativity fails at ({a}, {b}, {c}): expected state {left}, got state {right}"


def _isotopes(count, seed):
    """Random isotopes x o y = gamma(alpha(x) beta(y)) of abelian group
    tables of orders 2-12; one in three is an isomorphic relabelling
    (alpha = beta = gamma inverse), so that both verdicts occur."""
    rng = random.Random(seed)
    classes = [g for n in range(2, 13) for g in enumerate_abelian_groups(n)]
    for _ in range(count):
        rows = cayley_table(rng.choice(classes)).rows
        n = len(rows)
        alpha, beta, gamma = (rng.sample(range(1, n + 1), n) for _ in range(3))
        if rng.randrange(3) == 0:
            beta = alpha
            gamma = [alpha.index(x) + 1 for x in range(1, n + 1)]
        yield [[gamma[rows[alpha[x] - 1][beta[y] - 1] - 1] for y in range(n)] for x in range(n)]


class TestLightsTest:
    """Associativity is proved from a generating set; a failure names the
    full scan's first failing triple."""

    def test_isotopes_agree_with_the_full_scan(self):
        verdicts = set()
        for rows in _isotopes(400, seed=20):
            expected = _associativity_message(rows)
            if expected is None:
                # an associative isotope is a group isomorphic to the
                # abelian one: only the identity's position can fail
                identity = next(e for e in range(1, len(rows) + 1) if rows[e - 1] == list(range(1, len(rows) + 1)))
                expected = None if identity == 1 else f"identity at state {identity}, expected state 1"
            try:
                verify_group_axioms(rows)
                message = None
            except InvalidTable as err:
                message = str(err)
            assert message == expected, rows
            verdicts.add(expected.split()[0] if expected else "group")
        assert verdicts == {"group", "associativity", "identity"}

    def test_generators_of_every_group_up_to_64(self):
        for n in range(1, 65):
            for factors in enumerate_abelian_groups(n):
                rows = cayley_table(factors).rows
                gens = _generators(rows)
                assert len(gens) <= math.floor(math.log2(n)) + 1, (factors, gens)
                closure = set(gens)
                while True:
                    grown = closure | {rows[x - 1][y - 1] for x in closure for y in closure}
                    if grown == closure:
                        break
                    closure = grown
                assert closure == set(range(1, n + 1)), factors

    def test_loop_whose_first_generator_associates(self):
        rows = search_nonassociative_loop(5)
        # the identity is the first generator and associates with every
        # pair, so checking it alone would pass the loop
        assert _generators(rows)[0] == 1
        assert all(rows[rows[x][0] - 1][y] == rows[x][rows[0][y] - 1] for x in range(5) for y in range(5))
        with pytest.raises(InvalidTable) as err:
            verify_group_axioms(rows)
        assert str(err.value) == _associativity_message(rows)


class TestRegularRepresentation:
    # the translation matrices of a table, built by the oracle from its rows
    def test_z2(self, z2_table):
        perms = translation_matrices(z2_table.rows)
        assert perms == [_identity(2), [[0, 1], [1, 0]]]

    def test_z3_cycle(self):
        table = cayley_table(InvariantFactors((3,)))
        perms = translation_matrices(table.rows)
        cycle = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
        assert perms[1] == cycle
        assert matmul(cycle, cycle) == perms[2]

    def test_product_law(self):
        for n in (1, 4, 6, 8):
            for factors in enumerate_abelian_groups(n):
                table = cayley_table(factors)
                perms = translation_matrices(table.rows)
                for i in range(1, n + 1):
                    for j in range(1, n + 1):
                        assert matmul(perms[i - 1], perms[j - 1]) == perms[table.rows[i - 1][j - 1] - 1]

    def test_first_matrix_is_identity_everywhere(self):
        for n in (1, 2, 5, 9):
            for factors in enumerate_abelian_groups(n):
                assert translation_matrices(cayley_table(factors).rows)[0] == _identity(n)


class TestCanonicalForm:
    def test_klein_vs_cyclic(self):
        assert canonical_form(cayley_table(InvariantFactors((2, 2)))).factors == (2, 2)
        assert canonical_form(cayley_table(InvariantFactors((4,)))).factors == (4,)

    def test_round_trip_all_classes_up_to_64(self):
        for n in list(range(1, 37)) + [48, 64]:
            for factors in enumerate_abelian_groups(n):
                assert canonical_form(cayley_table(factors)) == factors

    def test_relabel_invariance_z6(self):
        table = cayley_table(InvariantFactors((6,)))
        rng = random.Random(11)
        for _ in range(5):
            perm = [1] + rng.sample(range(2, 7), 5)
            relabelled = [[0] * 6 for _ in range(6)]
            for i in range(6):
                for j in range(6):
                    relabelled[perm[i] - 1][perm[j] - 1] = perm[table.rows[i][j] - 1]
            assert canonical_form(CayleyTable(6, tuple(map(tuple, relabelled)))).factors == (6,)

    def test_order_multiset_separates_same_order_classes(self):
        # all eleven classes of order 64 have distinct order multisets,
        # which is what makes the oracle below exact
        orders = [tuple(element_orders(f.factors)) for f in enumerate_abelian_groups(64)]
        assert len(set(orders)) == len(orders)

    def test_matches_element_order_oracle_relabelled(self):
        rng = random.Random(64)
        for n in range(1, 65):
            for factors in enumerate_abelian_groups(n):
                rows = cayley_table(factors).rows
                for _ in range(2):
                    table = CayleyTable(n, relabel_table(rows, [1] + rng.sample(range(2, n + 1), n - 1)))
                    assert canonical_form(table).factors == oracle_canonical_form(table.rows) == factors.factors


def _prime_of(q):
    return next(p for p in range(2, q + 1) if q % p == 0)


class TestBasis:
    """CayleyTable.basis: cyclic factors of prime-power order, and
    coordinates that carry the table's product to addition."""

    def test_coordinates_are_an_isomorphism_on_relabelled_tables(self):
        # random labels make the greedy pick elements whose powers land
        # inside the span so far, so the correction is exercised
        rng = random.Random(97)
        for n in range(1, 49):
            for factors in enumerate_abelian_groups(n):
                rows = cayley_table(factors).rows
                for _ in range(2):
                    table = CayleyTable(n, relabel_table(rows, [1] + rng.sample(range(2, n + 1), n - 1)))
                    orders, coordinates = table.basis
                    assert math.prod(orders) == n and len(set(coordinates)) == n
                    assert coordinates[0] == (0,) * len(orders)
                    primes = [_prime_of(q) for q in orders]
                    # q is a power of its smallest prime p exactly when q divides p**q
                    assert all(p**q % q == 0 for p, q in zip(primes, orders))
                    assert primes == sorted(primes)
                    for p in set(primes):
                        run = [q for q, r in zip(orders, primes) if r == p]
                        assert run == sorted(run, reverse=True)
                    for a in range(n):
                        for b in range(n):
                            total = tuple((x + y) % q for x, y, q in zip(coordinates[a], coordinates[b], orders))
                            assert coordinates[table.rows[a][b] - 1] == total

    def test_greedy_pick_that_needs_the_correction(self):
        # Z2 x Z4 labelled so that the first state of order 2 modulo <b_1>
        # is (1, 1), of order 4: its square (0, 2) = b_1^2 lies in the span,
        # and only b = (1, 1) b_1^-1 = (1, 0) meets it in the identity
        rows = cayley_table((2, 4)).rows  # state 1 + 4a + c is (a, c)
        perm = [1, 2, 5, 6, 7, 3, 4, 8]  # (1, 1), old state 6, becomes state 3
        table = CayleyTable(8, relabel_table(rows, perm))
        assert table.basis[0] == (4, 2)
        assert canonical_form(table).factors == (2, 4)
        b_1, b_2 = (table.basis[1].index(unit) + 1 for unit in ((1, 0), (0, 1)))
        assert table.rows[b_2 - 1][b_2 - 1] == 1 and b_2 != 3
        assert table.rows[b_1 - 1][b_1 - 1] == table.rows[2][2]


def test_groups_imports_nothing_from_checks():
    # groups sits below checks: the axiom check raises its own errors and
    # builds no cube reports
    source = Path(hgforge.groups.__file__).read_text()
    modules = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules.append("." * node.level + (node.module or ""))
    assert modules
    assert not [m for m in modules if m.rsplit(".", 1)[-1] == "checks"], modules
