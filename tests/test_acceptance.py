"""Acceptance suite: seven end-to-end criteria, one test each.

Each test prints a single [PASS]/[FAIL] line (visible with -s; pytest -v
shows the same verdict through the test name).  Criteria are checked at
full strength: exact arithmetic throughout, independent oracles where
the expected values came from one.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction

from hgforge import (
    InvariantFactors,
    canonical_form,
    cayley_table,
    check_corollaries,
    degeneracy_check,
    derive_cube,
    enumerate_abelian_groups,
    extract_group_by_value,
    is_associative_bruteforce,
    is_associative_matrix,
    is_commutative,
    mixture_matrix,
    random_measure,
    random_nondegenerate_measure,
    rat,
    recover,
    satisfies_condition_A,
    validate_cube,
    validate_measure,
)
from hgforge.formats import cube_to_document, write_document
from hgforge.recovery import _certified_result
from oracles import cofactor_det, partition_count, subgroup_element_sets, uniform_on_subgroup


def _verdict(number, description, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"[{status}] criterion {number}: {description}")
    assert not failures, f"criterion {number}: {failures[:5]}"


def test_criterion_1_round_trip_suite():
    rng = random.Random(108)
    failures = []
    tables = 0
    started = time.monotonic()
    for n in range(2, 11):
        for factors in enumerate_abelian_groups(n):
            tables += 1
            table = cayley_table(factors)
            for trial in range(20):
                measure = random_nondegenerate_measure(rng, table)
                cube = derive_cube(table, measure)
                checks = {
                    "valid": validate_cube(cube) is cube,
                    "commutative": is_commutative(cube).holds,
                    "assoc-matrix": is_associative_matrix(cube).holds,
                    "assoc-brute": is_associative_bruteforce(cube).holds,
                    "condition-a": satisfies_condition_A(cube).holds,
                    "corollaries": all(r.holds for r in check_corollaries(cube)),
                }
                result = recover(cube)
                checks["recovered"] = (
                    result.recovered
                    and result.table.rows == table.rows
                    and result.measure.values == measure.values
                    and result.factors == factors
                )
                bad = [name for name, ok in checks.items() if not ok]
                if bad:
                    failures.append((factors.factors, trial, bad))
    elapsed = time.monotonic() - started
    # one table per invariant-factor class of each order in 2..10
    expected_tables = sum(len(enumerate_abelian_groups(n)) for n in range(2, 11))
    if tables != expected_tables or tables != 13:
        failures.append(("table-count", tables))
    if elapsed >= 60.0:
        failures.append(("runtime", elapsed))
    _verdict(
        1,
        f"round-trip suite, {tables} tables x 20 measures in {elapsed:.1f}s",
        failures,
    )


def _perturb_one_column(cube, rng):
    n = cube.n
    entries = [[list(col) for col in plane] for plane in cube.entries]
    i, j = rng.randrange(n), rng.randrange(n)
    column = entries[i][j]
    positions = [k for k in range(n) if column[k] > 0]
    p = rng.choice(positions)
    q = rng.choice([k for k in range(n) if k != p])
    shift = column[p] * rat(1, rng.randint(2, 7))
    column[p] -= shift
    column[q] += shift
    assert tuple(column) != cube.entries[i][j]
    return validate_cube(entries)


def test_criterion_2_associativity_oracle_equivalence():
    rng = random.Random(216)
    failures = []
    derived_count = perturbed_count = 0
    for index in range(200):
        n = rng.randint(2, 6)
        factors = rng.choice(enumerate_abelian_groups(n))
        table = cayley_table(factors)
        cube = derive_cube(table, random_measure(rng, n, positive=True))
        perturbed = index % 2 == 1
        if perturbed:
            cube = _perturb_one_column(cube, rng)
            perturbed_count += 1
        else:
            derived_count += 1
        matrix = is_associative_matrix(cube).holds
        brute = is_associative_bruteforce(cube).holds
        if matrix != brute:
            failures.append((index, "routes disagree", matrix, brute))
        if perturbed and matrix:
            failures.append((index, "perturbed cube passed associativity"))
        if not perturbed and not matrix:
            failures.append((index, "derived cube failed associativity"))
    if (derived_count, perturbed_count) != (100, 100):
        failures.append(("counts", derived_count, perturbed_count))
    _verdict(2, "matrix and brute-force associativity agree on 200 cubes", failures)


def test_criterion_3_degeneracy():
    failures = []
    for n in range(2, 11):
        for factors in enumerate_abelian_groups(n):
            table = cayley_table(factors)
            for members in subgroup_element_sets([list(r) for r in table.rows]):
                if len(members) < 2:
                    continue
                measure = validate_measure(uniform_on_subgroup(n, members))
                verdict = degeneracy_check(table, measure)
                if verdict.kind != "repeated-translates":
                    failures.append((factors.factors, sorted(members), verdict.kind))
                    continue
                if satisfies_condition_A(derive_cube(table, measure)).holds:
                    failures.append((factors.factors, sorted(members), "condition-a held"))

    z4 = cayley_table(InvariantFactors((4,)))
    measure = validate_measure(["1/2", "1/4", 0, "1/4"])
    verdict = degeneracy_check(z4, measure)
    if verdict.kind != "singular-mixture":
        failures.append(("z4", verdict.kind))
    else:
        matrix = mixture_matrix(z4, measure)
        for row in matrix.entries:
            if sum(r * v for r, v in zip(row, verdict.kernel_vector)) != 0:
                failures.append(("z4", "kernel not annihilated"))
        as_fractions = [
            [Fraction(q.numerator, q.denominator) for q in row] for row in matrix.entries
        ]
        if cofactor_det(as_fractions) != 0:
            failures.append(("z4", "cofactor determinant nonzero"))
        if matrix.rank() == 4:
            failures.append(("z4", "elimination rank full"))
    _verdict(3, "uniform-on-subgroup and singular-mixture degeneracies", failures)


def test_criterion_4_value_extraction_agreement():
    rng = random.Random(432)
    failures = []
    for n in range(2, 9):
        for factors in enumerate_abelian_groups(n):
            table = cayley_table(factors)
            for trial in range(10):
                measure = random_nondegenerate_measure(
                    rng, table, distinct=True, positive=True
                )
                cube = derive_cube(table, measure)
                column_matched = recover(cube)
                if not column_matched.recovered:
                    failures.append((factors.factors, trial, "recovery failed"))
                    continue
                for value in measure.values:
                    extraction = extract_group_by_value(cube, value)
                    if not extraction.extracted:
                        failures.append((factors.factors, trial, str(value), extraction.reason))
                    elif canonical_form(extraction.table) != column_matched.factors:
                        failures.append((factors.factors, trial, str(value), "class mismatch"))
    _verdict(4, "single-value extraction agrees with column matching", failures)


def test_criterion_5_enumeration_counts():
    failures = []
    pinned = {8: 3, 12: 2, 16: 5, 36: 4, 64: 11}
    for n, expected in pinned.items():
        got = len(enumerate_abelian_groups(n))
        if got != expected:
            failures.append((n, got, expected))

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

    for n, expected in pinned.items():
        oracle = 1
        for exponent in factorize(n).values():
            oracle *= partition_count(exponent)
        if oracle != expected:
            failures.append((n, "oracle disagrees with pinned count", oracle))
    _verdict(5, "enumeration counts match the partition-product oracle", failures)


def _fixture_cubes():
    z2 = derive_cube(cayley_table(InvariantFactors((2,))), validate_measure(["3/4", "1/4"]))
    z3 = derive_cube(
        cayley_table(InvariantFactors((3,))), validate_measure(["1/2", "1/4", "1/4"])
    )
    z4_point = derive_cube(
        cayley_table(InvariantFactors((4,))), validate_measure([1, 0, 0, 0])
    )
    return {"z2": z2, "z3": z3, "z4-point": z4_point}


def test_criterion_6_corollary_regression(tmp_path, child_env):
    failures = []
    for name, cube in _fixture_cubes().items():
        reports = check_corollaries(cube)
        if not all(r.holds for r in reports):
            failures.append((name, [r.name for r in reports if not r.holds]))
        path = tmp_path / f"{name}.json"
        write_document(path, cube_to_document(cube))
        outputs = []
        for hashseed in ("1", "31337"):
            proc = subprocess.run(
                [sys.executable, "-m", "hgforge", "check", str(path), "--format", "json"],
                capture_output=True,
                env=child_env(hashseed),
            )
            if proc.returncode != 0:
                failures.append((name, "check exited", proc.returncode))
            outputs.append(proc.stdout)
        if outputs[0] != outputs[1]:
            failures.append((name, "reports differ across runs"))
        try:
            doc = json.loads(outputs[0])
            corollaries = next(p for p in doc["properties"] if p["name"] == "corollaries")
            if not corollaries["holds"]:
                failures.append((name, "corollaries fail in CLI report"))
        except (json.JSONDecodeError, StopIteration, KeyError) as err:
            failures.append((name, f"report unreadable: {err}"))
    _verdict(6, "fixture corollary reports byte-identical across runs", failures)


def test_criterion_7_rejection_soundness(semilattice_cube, nonassoc_cube, z2_cube, z2_table):
    failures = []
    semi = recover(semilattice_cube)
    if semi.recovered or semi.reason != "fails-condition-a":
        failures.append(("semilattice", semi.reason))
    nonassoc = recover(nonassoc_cube)
    if nonassoc.recovered or nonassoc.reason != "not-associative":
        failures.append(("nonassociative", nonassoc.reason))

    # corrupt a candidate after every earlier gate has passed: the final
    # derive-and-compare certification must refuse it
    wrong_measure = validate_measure(["1/4", "3/4"])
    corrupted = _certified_result(z2_cube, z2_table, wrong_measure)
    if corrupted.recovered or corrupted.reason != "round-trip-mismatch":
        failures.append(("corrupted measure", corrupted.reason))

    wrong_table_rows = ((1, 2), (2, 1))
    klein = cayley_table(InvariantFactors((2, 2)))
    z4_measure = random_nondegenerate_measure(random.Random(77), cayley_table(InvariantFactors((4,))))
    z4_cube = derive_cube(cayley_table(InvariantFactors((4,))), z4_measure)
    corrupted_table = _certified_result(z4_cube, klein, z4_measure)
    if corrupted_table.recovered or corrupted_table.reason != "round-trip-mismatch":
        failures.append(("corrupted table", corrupted_table.reason))

    # and an honest candidate still certifies
    honest = _certified_result(z2_cube, z2_table, validate_measure(["3/4", "1/4"]))
    if not honest.recovered:
        failures.append(("honest candidate rejected", honest.reason))
    _verdict(7, "rejections carry the right reasons; certification is mandatory", failures)
