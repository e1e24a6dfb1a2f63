"""Inputs and ground truth for the three benchmark workloads.

Every input is built from the seed during set-up, and its expected
answer is known by construction: a cube derived from a (group, measure)
pair must recover that pair, and a rejected cube must be rejected for
the reason its generator built in.  The package is only ever asked for
answers; the expectations and the witness searches below are the
benchmark's own code.

A workload is a list of rounds, and a round is a list of items.  The
timed loop runs whole rounds, cycling through the list, so every run
measures the same mix of cube orders and classes whatever its length.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter

DERIVED = "derived"
NOT_COMMUTATIVE = "not-commutative"
NOT_ASSOCIATIVE = "not-associative"
FAILS_CONDITION_A = "fails-condition-a"
FAILS_VALIDATION = "fails-validation"

# battery: the acceptance round-trip suite, one measure per table per round
BATTERY_ORDERS = range(2, 11)
BATTERY_ROUNDS = 3
# walks: one group class per order, support = identity + WALK_STEPS states
WALK_ORDERS = range(16, 25)
WALK_STEPS = 2
WALK_NUMERATOR = 10**12
# reject: (order, class) per round; costs are spread so that the round
# mixes cheap rejections (validation, commutativity) with full scans
REJECT_PLAN = (
    (6, FAILS_CONDITION_A, "index-2"),
    (7, NOT_COMMUTATIVE, None),
    (8, FAILS_CONDITION_A, "coset"),
    (9, NOT_ASSOCIATIVE, None),
    (10, FAILS_CONDITION_A, "index-2"),
    (11, FAILS_VALIDATION, "negative-entry"),
    (12, FAILS_CONDITION_A, "coset"),
    (12, FAILS_VALIDATION, "column-sum"),
)


@dataclass
class Item:
    """One input: a cube, how it was made, and what the answers must be."""

    key: str
    n: int
    expect: str
    factors: tuple = ()
    table_rows: tuple | None = None
    measure: tuple | None = None
    cube: object = None  # StructureCube, battery only
    path: str | None = None  # cube JSON file, walks and reject
    stats: dict = field(default_factory=dict)  # see _cube_stats


@dataclass
class Outcome:
    """What one item's run produced: timings, wrong answers, report bytes."""

    check_s: float
    recover_s: float
    requests: int
    wrong_requests: int
    wrong: list
    report: bytes


# --------------------------------------------------------------------------
# input construction


def _scalar(q):
    return q.numerator if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _write_cube(path, entries):
    doc = {"n": len(entries), "entries": [[[_scalar(q) for q in col] for col in plane] for plane in entries]}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)


def _mutable(cube):
    return [[list(col) for col in plane] for plane in cube.entries]


def _cube_stats(entries):
    """Computed route multiply-adds, operand widths and support sizes of a cube.

    The multiply-adds count what the two associativity routes do as
    written, derived from the cube's zero pattern alone.  Brute route:
    for each (i, j, m) it expands sum_k c_ijk * col(k, m) and
    sum_q c_jmq * col(i, q), one multiply-add per nonzero pair.  Matrix
    route: for each (i, j) it multiplies the left actions of i and j and
    builds sum_k c_ijk * L_k, skipping zero factors.  Summed over all
    indices both reduce to sums over nonzero entries weighted by per-plane
    (R), per-slot (C) and per-row (T) nonzero counts.
    """
    n = len(entries)
    nnz = [[sum(1 for q in col if q) for col in plane] for plane in entries]
    plane_nnz = [sum(row) for row in nnz]  # R_k
    slot_nnz = [sum(nnz[i][k] for i in range(n)) for k in range(n)]  # C_k
    row_nnz = [sum(1 for j in range(n) for c in range(n) if entries[j][c][k]) for k in range(n)]  # T_k
    support_terms = [
        sum(plane_nnz[k] for k in range(n) if entries[i][j][k]) for i in range(n) for j in range(n)
    ]
    brute = sum(
        plane_nnz[k] + slot_nnz[k] for i in range(n) for j in range(n) for k in range(n) if entries[i][j][k]
    )
    matrix = sum(slot_nnz[k] * row_nnz[k] for k in range(n)) + sum(support_terms)
    values = [q for plane in entries for col in plane for q in col]
    supports = [count for row in nnz for count in row]
    return {
        "matrix": matrix,
        "brute": brute,
        "num_bits": max(abs(q.numerator).bit_length() for q in values),
        "den_bits": max(q.denominator.bit_length() for q in values),
        "support_min": min(supports),
        "support_max": max(supports),
    }


def _expand(entries, i, j, m):
    """Columns of (i*j)*m and i*(j*m), expanded through the cube."""
    n = len(entries)
    lhs = [Fraction(0)] * n
    for k, q in enumerate(entries[i][j]):
        if q:
            for p, x in enumerate(entries[k][m]):
                lhs[p] += q * x
    rhs = [Fraction(0)] * n
    for k, q in enumerate(entries[j][m]):
        if q:
            for p, x in enumerate(entries[i][k]):
                rhs[p] += q * x
    return lhs, rhs


def _has_assoc_witness(entries, i, j):
    """Some triple through the perturbed column (i, j) breaks associativity."""
    n = len(entries)
    for m in range(n):
        for triple in ((i, j, m), (m, i, j)):
            lhs, rhs = _expand(entries, *triple)
            if lhs != rhs:
                return True
    return False


def _perturb(rng, entries, symmetric):
    """Move part of one entry's mass to another within an off-diagonal column.

    Column sums and nonnegativity are kept, so the cube stays valid.  With
    symmetric=True the mirror column gets the same change, so the cube stays
    commutative.  Redraws until a triple through the column is a witness
    of non-associativity.
    """
    n = len(entries)
    while True:
        work = [[list(col) for col in plane] for plane in entries]
        i, j = rng.sample(range(n), 2)
        col = work[i][j]
        k1 = rng.choice([k for k in range(n) if col[k] > 0])
        k2 = rng.choice([k for k in range(n) if k != k1])
        shift = col[k1] * Fraction(rng.randint(1, 9), 10)
        col[k1] -= shift
        col[k2] += shift
        if symmetric:
            work[j][i] = list(col)
        if _has_assoc_witness(work, i, j):
            return work


def _order_two_states(table):
    return [s for s in range(2, table.n + 1) if table.rows[s - 1][s - 1] == 1]


def _coset_measure(rng, table):
    """Constant on the cosets of {1, h} for an element h of order 2: translates repeat."""
    h = rng.choice(_order_two_states(table))
    weights = {}
    for s in range(1, table.n + 1):
        partner = table.rows[s - 1][h - 1]
        weights[s] = weights.get(partner) or rng.randint(1, 1000)
    total = sum(weights.values())
    return tuple(Fraction(weights[s], total) for s in range(1, table.n + 1))


def _index_two_measure(rng, table):
    """Half the mass on the squares, an index-2 subgroup, half off it.

    The character that is +1 on the squares and -1 elsewhere then sums
    to zero against the measure, so the mixture matrix is singular.
    """
    squares = {table.rows[s - 1][s - 1] for s in range(1, table.n + 1)}
    if 2 * len(squares) != table.n:
        raise ValueError(f"squares of {table.n}-element group are not of index 2")
    draws = [rng.randint(1, 1000) for _ in range(table.n)]
    inside = sum(d for s, d in enumerate(draws, 1) if s in squares)
    outside = sum(draws) - inside
    return tuple(
        Fraction(d, 2 * (inside if s in squares else outside)) for s, d in enumerate(draws, 1)
    )


def _walk_measure(hg, rng, table):
    """Random-walk measure: identity plus WALK_STEPS states, ~40-bit denominators."""
    while True:
        states = [1] + rng.sample(range(2, table.n + 1), WALK_STEPS)
        numerators = {s: rng.randint(1, WALK_NUMERATOR) for s in states}
        total = sum(numerators.values())
        measure = tuple(Fraction(numerators.get(s, 0), total) for s in range(1, table.n + 1))
        if not hg.degeneracy_check(table, measure).degenerate:
            return measure


def _table_for(hg, rng, n):
    factors = rng.choice(hg.enumerate_abelian_groups(n))
    return factors, hg.cayley_table(factors)


def build_battery(hg, rng, workdir):
    tables = [(f, hg.cayley_table(f)) for n in BATTERY_ORDERS for f in hg.enumerate_abelian_groups(n)]
    rounds = []
    for r in range(BATTERY_ROUNDS):
        items = []
        for factors, table in tables:
            measure = hg.random_nondegenerate_measure(rng, table)
            cube = hg.derive_cube(table, measure)
            items.append(
                Item(
                    f"r{r}/{factors.factors}",
                    table.n,
                    DERIVED,
                    factors.factors,
                    table.rows,
                    tuple(measure.values),
                    cube=cube,
                    stats=_cube_stats(cube.entries),
                )
            )
        rounds.append(items)
    return rounds


def build_walks(hg, rng, workdir):
    items = []
    for n in WALK_ORDERS:
        factors, table = _table_for(hg, rng, n)
        measure = _walk_measure(hg, rng, table)
        entries = hg.derive_cube(table, measure).entries
        path = os.path.join(workdir, f"walk-{n}.json")
        _write_cube(path, entries)
        items.append(
            Item(f"{factors.factors}", n, DERIVED, factors.factors, table.rows, measure, path=path,
                 stats=_cube_stats(entries))
        )
    return [items]


def build_reject(hg, rng, workdir):
    items = []
    for index, (n, expect, variant) in enumerate(REJECT_PLAN):
        factors, table = _table_for(hg, rng, n)
        if variant == "coset":
            entries = _mutable(hg.derive_cube(table, _coset_measure(rng, table)))
        elif variant == "index-2":
            entries = _mutable(hg.derive_cube(table, _index_two_measure(rng, table)))
        else:
            base = _mutable(hg.derive_cube(table, hg.random_nondegenerate_measure(rng, table)))
            if expect == FAILS_VALIDATION:
                entries = base
                i, j = rng.randrange(n), rng.randrange(n)
                col = entries[i][j]
                k1 = rng.choice([k for k in range(n) if col[k] > 0])
                if variant == "negative-entry":
                    k2 = rng.choice([k for k in range(n) if k != k1])
                    col[k2] += 2 * col[k1]
                    col[k1] = -col[k1]
                else:
                    col[k1] += Fraction(1, 7)
            else:
                entries = _perturb(rng, base, symmetric=expect == NOT_ASSOCIATIVE)
        path = os.path.join(workdir, f"reject-{index}-{n}.json")
        _write_cube(path, entries)
        items.append(Item(f"{n}/{variant or expect}", n, expect, factors.factors, path=path,
                          stats=_cube_stats(entries)))
    return [items]


BUILDERS = {"battery": build_battery, "walks": build_walks, "reject": build_reject}


def describe_inputs(rounds):
    """Operand width, support size and computed multiply-adds over a workload."""
    stats = [item.stats for items in rounds for item in items]
    return {
        "items": len(stats),
        "orders": sorted({item.n for items in rounds for item in items}),
        "max_numerator_bits": max(s["num_bits"] for s in stats),
        "max_denominator_bits": max(s["den_bits"] for s in stats),
        "support_min": min(s["support_min"] for s in stats),
        "support_max": max(s["support_max"] for s in stats),
        "madds_computed_all_inputs": {route: sum(s[route] for s in stats) for route in ("matrix", "brute")},
    }


# --------------------------------------------------------------------------
# requests and judging


def run_battery_item(hg, item):
    """check all -> recover -> compare, through library calls; one request."""
    cube = item.cube
    start = perf_counter()
    props = [
        hg.is_commutative(cube),
        hg.is_associative_matrix(cube),
        hg.is_associative_bruteforce(cube),
    ]
    condition = hg.satisfies_condition_A(cube)
    corollaries = hg.check_corollaries(cube)
    mid = perf_counter()
    result = hg.recover(cube)
    end = perf_counter()

    wrong = [f"{p.name} fails" for p in props + corollaries if not p.holds]
    if not condition.holds:
        wrong.append("condition-a fails")
    recovered = result.recovered
    if not recovered:
        wrong.append(f"recover rejected: {result.reason}")
    elif (
        result.table.rows != item.table_rows
        or tuple(result.measure.values) != item.measure
        or result.factors.factors != item.factors
    ):
        wrong.append("recovered pair differs from the generating pair")
    report = {
        "key": item.key,
        "properties": {p.name: [p.holds, p.violation_count] for p in props + corollaries},
        "condition_a": [condition.distinct_column_count, condition.left_ranks, condition.right_ranks],
        "recovered": recovered,
        "reason": result.reason,
        "table": [list(row) for row in result.table.rows] if recovered else None,
        "measure": [str(q) for q in result.measure.values] if recovered else None,
        "factors": list(result.factors.factors) if recovered else None,
    }
    text = json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
    return Outcome(mid - start, end - mid, 1, int(bool(wrong)), wrong, text.encode())


def _call_cli(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return perf_counter() - start, code, out.getvalue()


def _judge_check(item, code, text):
    """Verdicts fixed by how the cube was built; both routes must agree."""
    if item.expect == FAILS_VALIDATION:
        return [] if code == 1 else [f"check exit {code}, expected 1"]
    wrong = []
    holds = item.expect == DERIVED
    if code != (0 if holds else 1):
        wrong.append(f"check exit {code}")
    try:
        doc = json.loads(text)
    except ValueError:
        return wrong + ["check printed no JSON report"]
    verdicts = {p["name"]: p["holds"] for p in doc.get("properties", [])}
    if doc.get("holds") is not holds:
        wrong.append("check overall verdict")
    expected = {
        DERIVED: {"commutative": True, "associative-matrix": True, "associative-bruteforce": True,
                  "condition-a": True, "corollaries": True},
        NOT_COMMUTATIVE: {"commutative": False, "associative-matrix": False, "associative-bruteforce": False},
        NOT_ASSOCIATIVE: {"commutative": True, "associative-matrix": False, "associative-bruteforce": False},
        FAILS_CONDITION_A: {"commutative": True, "associative-matrix": True, "associative-bruteforce": True,
                            "condition-a": False, "corollaries": True},
    }[item.expect]
    for name, want in expected.items():
        if verdicts.get(name) is not want:
            wrong.append(f"check {name}: {verdicts.get(name)}, expected {want}")
    if verdicts.get("associative-matrix") is not verdicts.get("associative-bruteforce"):
        wrong.append("associativity routes disagree")
    if holds:
        corollaries = next(p for p in doc["properties"] if p["name"] == "corollaries")
        wrong += [f"corollary {r['name']} fails" for r in corollaries["reports"] if not r["holds"]]
    return wrong


def _judge_recover(item, code, text):
    try:
        doc = json.loads(text)
    except ValueError:
        return [f"recover exit {code} printed no JSON report"]
    if item.expect != DERIVED:
        if code != 1 or doc.get("recovered") is not False or doc.get("reason") != item.expect:
            return [f"recover exit {code} reason {doc.get('reason')}, expected {item.expect}"]
        return []
    if code != 0 or doc.get("recovered") is not True:
        return [f"recover exit {code} reason {doc.get('reason')}, expected recovery"]
    wrong = []
    if doc["cayley_table"] != [list(row) for row in item.table_rows]:
        wrong.append("recovered table differs")
    if tuple(Fraction(str(q)) for q in doc["measure"]) != item.measure:
        wrong.append("recovered measure differs")
    if tuple(doc["invariant_factors"]) != item.factors:
        wrong.append("recovered invariant factors differ")
    return wrong


def run_cli_item(hg, item):
    """`check --format json` then `recover --format json`; two requests."""
    check_s, check_code, check_out = _call_cli(hg.cli, ["check", item.path, "--format", "json"])
    recover_s, recover_code, recover_out = _call_cli(hg.cli, ["recover", item.path, "--format", "json"])
    check_wrong = _judge_check(item, check_code, check_out)
    recover_wrong = _judge_recover(item, recover_code, recover_out)
    report = f"{check_code}\n{check_out}{recover_code}\n{recover_out}".encode()
    wrong_requests = bool(check_wrong) + bool(recover_wrong)
    return Outcome(check_s, recover_s, 2, wrong_requests, check_wrong + recover_wrong, report)


RUNNERS = {"battery": run_battery_item, "walks": run_cli_item, "reject": run_cli_item}

