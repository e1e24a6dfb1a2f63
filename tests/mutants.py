"""A mutation catalogue: small breaks of the program that tier-1 must catch.

    python3 tests/mutants.py            # run every mutant
    python3 tests/mutants.py NAME ...   # run the named ones

Run from the root of a source checkout.  Each mutant replaces one exact
snippet of one file under src/ and names the test node ids that must
fail once it is in place.  For each mutant the script copies src/ to a
temporary directory, applies the replacement there (the checkout is
never touched), and runs the named nodes in a child pytest whose import
path is that copy alone, under the Hypothesis profile "mutants" of
conftest.py, which does not shrink: a property test stops at its first
failing example.  A mutant survives when any of its nodes passes.
A child that runs past TIMEOUT seconds is stopped, and its mutant gets the
verdict timeout, which is not a kill: a mutant that makes a test loop
then costs a bounded time.  The script prints one line per mutant and
exits 1 when a mutant survives or times out, or a snippet no longer
occurs exactly once, so a stale entry is noticed.

pytest does not collect this file; test_mutants.py checks, within
tier-1, that every snippet still occurs exactly once and that every node
names a test that exists.  A change that adds tests against a mutant
adds the mutant here and quotes this script's output.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# seconds a mutant's child pytest may run; the whole catalogue of 37
# mutants runs in a few minutes on a 2-vCPU machine
TIMEOUT = 300


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to src/
    snippet: str
    replacement: str
    tests: tuple[str, ...]  # node ids relative to the checkout's root


MUTANTS = (
    # the matrix route's slot tables (checks._matrix_violations)
    Mutant(
        "row products keyed without j",
        "hgforge/checks.py",
        "                lhs = product[j]\n"
        "                if lhs is None:\n"
        "                    lhs = product[j] =",
        "                lhs = product[0]\n"
        "                if lhs is None:\n"
        "                    lhs = product[0] =",
        (
            "tests/test_checks.py::TestMatrixSharing::test_shared_values_match_fraction_oracle",
            "tests/test_checks.py::TestMatrixWork::test_derived_cube_forms_each_product_once[8]",
        ),
    ),
    Mutant(
        "column mixes keyed without r",
        "hgforge/checks.py",
        "                rhs = mixed[r]\n"
        "                if rhs is None:\n"
        "                    rhs = mixed[r] =",
        "                rhs = mixed[0]\n"
        "                if rhs is None:\n"
        "                    rhs = mixed[0] =",
        (
            "tests/test_checks.py::TestMatrixSharing::test_shared_values_match_fraction_oracle",
            "tests/test_checks.py::TestMatrixWork::test_derived_cube_forms_each_product_once[8]",
        ),
    ),
    Mutant(
        "memos kept across calls",
        "hgforge/checks.py",
        "    products, mixes = [[None] * n for _ in rows], [[None] * n for _ in columns]\n",
        '    products, mixes = _matrix_violations.__dict__.setdefault("memos", ([[None] * n for _ in rows], '
        "[[None] * n for _ in columns]))\n",
        (
            "tests/test_checks.py::TestMatrixSharing::test_shared_values_match_fraction_oracle",
            "tests/test_checks.py::TestMatrixSharing::test_equal_rows_over_different_denominators_back_to_back",
        ),
    ),
    Mutant(
        "verdict memoized per (row, column) pair",
        "hgforge/checks.py",
        "                if lhs != rhs:\n"
        "                    c = (((lhs ^ rhs)",
        "                if _matrix_violations.__dict__.setdefault((id(products), row, col), lhs != rhs):\n"
        "                    c = (((lhs ^ rhs)",
        (
            "tests/test_checks.py::TestMatrixSharing::test_shared_values_match_fraction_oracle",
            "tests/test_checks.py::TestCrossOracle::test_integer_scans_match_fraction_oracle_witness_for_witness",
        ),
    ),
    Mutant(
        "matrix slot one bit narrow",
        "hgforge/checks.py",
        "    scale = cube.denominator**2\n    w = scale.bit_length()\n",
        "    scale = cube.denominator**2\n    w = scale.bit_length() - 1\n",
        (
            "tests/test_checks.py::TestSlotWidth::test_entries_equal_to_d_squared[1000000]",
            "tests/test_checks.py::TestMatrixSharing::test_shared_values_match_fraction_oracle",
        ),
    ),
    # the matrix route's packs, one per distinct action row
    Mutant(
        "every action row packed again",
        "hgforge/checks.py",
        "    packed = [[packs[row] for row in at] for at in row_at]\n",
        "    packed = [[_pack(rows[row], w) for row in at] for at in row_at]\n",
        ("tests/test_checks.py::TestMatrixWork::test_derived_cube_forms_each_product_once[8]",),
    ),
    Mutant(
        "packs kept across calls",
        "hgforge/checks.py",
        "    packs = [_pack(row, w) for row in rows]\n",
        '    packs = _matrix_violations.__dict__.setdefault("packs", [_pack(row, w) for row in rows])\n',
        (
            "tests/test_checks.py::TestMatrixSharing::test_shared_values_match_fraction_oracle",
            "tests/test_checks.py::TestMatrixSharing::test_equal_rows_over_different_denominators_back_to_back",
        ),
    ),
    # the corollaries' distinct action rows (checks.check_corollaries)
    Mutant(
        "row-column-contents reads plane 1's row indices for every plane",
        "hgforge/checks.py",
        "        for r, index in enumerate(row_at[i]):\n",
        "        for r, index in enumerate(row_at[0]):\n",
        ("tests/test_checks.py::TestFractionOracles::test_commutativity_and_multiset_corollaries[1000000]",),
    ),
    # the brute-force route, unpacked and unshared on purpose
    Mutant(
        "brute force rhs reads plane j in place of plane i",
        "hgforge/checks.py",
        "                    for p, x in support_i[k]:\n",
        "                    for p, x in support_j[k]:\n",
        ("tests/test_checks.py::TestCrossOracle::test_integer_scans_match_fraction_oracle_witness_for_witness",),
    ),
    Mutant(
        "brute force drops each column's last nonzero pair",
        "hgforge/checks.py",
        "    pairs = [[(p, x) for p, x in enumerate(col) if x] for col in columns]\n",
        "    pairs = [[(p, x) for p, x in enumerate(col) if x][:-1] for col in columns]\n",
        ("tests/test_checks.py::TestCrossOracle::test_integer_scans_match_fraction_oracle_witness_for_witness",),
    ),
    # the mixture rank from the characters (derivation.mixture_rank) and
    # the table basis it reads (groups._primary_basis)
    Mutant(
        "reduced modulo x^d - 1 in place of Phi_d",
        "hgforge/derivation.py",
        "        _divide(pushed, *_cyclotomic(d))\n",
        "        _divide(pushed, d, ((0, -1), (d, 1)))\n",
        (
            "tests/test_derivation.py::TestMixtureRank::test_matches_fraction_oracle_on_every_group_up_to_32",
            "tests/test_derivation.py::TestMixtureRank::test_pinned_ranks",
            "tests/test_recovery.py::TestCertifyFirst::test_singular_mixture_with_distinct_columns_fails_condition_a",
        ),
    ),
    Mutant(
        "one per class in place of phi(d)",
        "hgforge/derivation.py",
        "    return table.n - sum(phi for _, phi, _ in _vanishing_classes(table, values))\n",
        "    return table.n - sum(1 for _, phi, _ in _vanishing_classes(table, values))\n",
        (
            "tests/test_derivation.py::TestMixtureRank::test_pinned_ranks",
            "tests/test_derivation.py::TestMixtureRank::test_matches_fraction_oracle_on_every_group_up_to_32",
        ),
    ),
    Mutant(
        "greedy basis element left uncorrected",
        "hgforge/groups.py",
        "        b = rows[x - 1][at[tuple(-c // q % o for c, o in zip(span[x_q], orders))] - 1]\n",
        "        b = x\n",
        (
            "tests/test_groups.py::TestBasis::test_greedy_pick_that_needs_the_correction",
            "tests/test_groups.py::TestBasis::test_coordinates_are_an_isomorphism_on_relabelled_tables",
            "tests/test_derivation.py::TestMixtureRank::test_matches_fraction_oracle_on_every_group_up_to_32",
        ),
    ),
    # the kernel vector from the vanishing classes (derivation._kernel_vector)
    Mutant(
        "kernel vector built before the translate check",
        "hgforge/derivation.py",
        "    for h in range(1, table.n):\n"
        "        if translates[h] == translates[0]:\n"
        "            return DegeneracyVerdict(REPEATED_TRANSLATES, repeated_state=h + 1)\n"
        "    vanishing = list(_vanishing_classes(table, translates[0]))\n"
        "    if not vanishing:\n"
        "        return DegeneracyVerdict(NON_DEGENERATE)\n"
        "    return DegeneracyVerdict(SINGULAR_MIXTURE, kernel_vector=_kernel_vector(table, vanishing))\n",
        "    vanishing = list(_vanishing_classes(table, translates[0]))\n"
        "    kernel = _kernel_vector(table, vanishing) if vanishing else None\n"
        "    for h in range(1, table.n):\n"
        "        if translates[h] == translates[0]:\n"
        "            return DegeneracyVerdict(REPEATED_TRANSLATES, repeated_state=h + 1)\n"
        "    if kernel is None:\n"
        "        return DegeneracyVerdict(NON_DEGENERATE)\n"
        "    return DegeneracyVerdict(SINGULAR_MIXTURE, kernel_vector=kernel)\n",
        ("tests/test_derivation.py::TestMixtureRank::test_only_a_singular_pair_is_eliminated",),
    ),
    Mutant(
        "one kernel basis vector per class in place of phi(d)",
        "hgforge/derivation.py",
        "        rows += [[psi[(t - s) % d] for t in at] for s in range(phi)]\n",
        "        rows += [[psi[(t - s) % d] for t in at] for s in range(1)]\n",
        ("tests/test_derivation.py::TestDegeneracy::test_kernel_vectors_match_fraction_oracle_on_every_group_up_to_32",),
    ),
    Mutant(
        "kernel basis eliminated from its first coordinate",
        "hgforge/derivation.py",
        "        at = [sum(map(mul, exponents, c)) % d for c in reversed(table.basis[1])]\n"
        "        rows += [[psi[(t - s) % d] for t in at] for s in range(phi)]\n"
        "    _fraction_free_eliminate(rows)\n"
        "    vec = rows[-1][::-1]\n",
        "        at = [sum(map(mul, exponents, c)) % d for c in table.basis[1]]\n"
        "        rows += [[psi[(t - s) % d] for t in at] for s in range(phi)]\n"
        "    _fraction_free_eliminate(rows)\n"
        "    vec = rows[-1]\n",
        (
            "tests/test_derivation.py::TestDegeneracy::test_kernel_vectors_match_fraction_oracle_on_every_group_up_to_32",
            "tests/test_derivation.py::TestDegeneracy::test_z6_order_three_class",
        ),
    ),
    Mutant(
        "kernel basis from x^d - 1 in place of Psi_d",
        "hgforge/derivation.py",
        "        psi = _divide([-1] + [0] * (d - 1) + [1], *_cyclotomic(d)) + [0] * (phi - 1)\n",
        "        psi = [-1] + [0] * (d - 1) + [1]\n",
        (
            "tests/test_derivation.py::TestDegeneracy::test_z4_singular_mixture",
            "tests/test_derivation.py::TestDegeneracy::test_kernel_vectors_match_fraction_oracle_on_every_group_up_to_32",
            "tests/test_cli.py::TestDerive::test_singular_z128_kernel_vector",
            "tests/test_acceptance.py::test_criterion_3_degeneracy",
        ),
    ),
    Mutant(
        "kernel vector left without its sign",
        "hgforge/derivation.py",
        "    if next(x for x in vec if x) < 0:\n        divisor = -divisor\n",
        "",
        (
            "tests/test_derivation.py::TestDegeneracy::test_z4_singular_mixture",
            "tests/test_derivation.py::TestDegeneracy::test_kernel_vectors_match_fraction_oracle_on_every_group_up_to_32",
        ),
    ),
    # the canonical form of a cube: each distinct column once
    Mutant(
        "derived cube keeps a repeated translate as a column of its own",
        "hgforge/derivation.py",
        "    states = [first.setdefault(t, len(first)) for t in translates]\n"
        "    layout = tuple(tuple(states[s - 1] for s in row) for row in table.rows)\n"
        "    return StructureCube(table.n, common, tuple(first), layout)\n",
        "    layout = tuple(tuple(s - 1 for s in row) for row in table.rows)\n"
        "    return StructureCube(table.n, common, tuple(translates), layout)\n",
        (
            "tests/test_core.py::TestCanonicalForm::test_derived_cubes",
            "tests/test_core.py::TestCanonicalForm::test_a_derived_cube_equals_the_load_of_its_document",
        ),
    ),
    Mutant(
        "loader keeps columns equal after conversion apart",
        "hgforge/core.py",
        "    merged = {}  # each distinct int column, at its index among the cube's columns\n"
        "    indices = [merged.setdefault(tuple(ints[start:start + n]), len(merged)) for start in range(0, len(ints), n)]\n",
        "    merged = [tuple(ints[start:start + n]) for start in range(0, len(ints), n)]\n"
        "    indices = list(range(len(merged)))\n",
        (
            "tests/test_core.py::TestCanonicalForm::test_validated_cubes",
            "tests/test_core.py::TestCanonicalForm::test_loaded_cubes",
            "tests/test_core.py::TestCanonicalForm::test_equal_columns_spelled_apart",
        ),
    ),
    # recorded by earlier changes
    Mutant(
        "ranks keyed by row count",
        "hgforge/checks.py",
        "        key = frozenset(indices)\n",
        "        key = len(indices)\n",
        (
            "tests/test_checks.py::TestConditionA::test_ranks_match_fraction_oracle",
            "tests/test_checks.py::TestConditionA::test_a_right_rank_equal_to_its_left_one_is_not_recomputed",
        ),
    ),
    Mutant(
        "ranks keyed by a sorted tuple of row indices",
        "hgforge/checks.py",
        "        key = frozenset(indices)\n",
        "        key = tuple(sorted(indices))\n",
        ("tests/test_checks.py::TestConditionA::test_a_right_rank_equal_to_its_left_one_is_not_recomputed",),
    ),
    # the theorem's census (test_census.py) against condition (A)'s verdict
    Mutant(
        "condition (A) accepting n - 1 distinct columns",
        "hgforge/checks.py",
        "            self.distinct_column_count == self.n\n            and",
        "            self.distinct_column_count >= self.n - 1\n            and",
        ("tests/test_census.py::test_census[n2-D2]", "tests/test_census.py::test_census[n2-D6]"),
    ),
    Mutant(
        "condition (A) ignoring the ranks",
        "hgforge/checks.py",
        "            self.distinct_column_count == self.n\n"
        "            and all(r == self.n for r in self.left_ranks)\n"
        "            and all(r == self.n for r in self.right_ranks)\n",
        "            self.distinct_column_count == self.n\n",
        ("tests/test_census.py::test_census[n2-D2]", "tests/test_census.py::test_census[n3-D1]"),
    ),
    Mutant(
        "only the first generator in Light's test",
        "hgforge/groups.py",
        "    for a in _generators(table):\n",
        "    for a in _generators(table)[:1]:\n",
        ("tests/test_groups.py::TestLightsTest::test_loop_whose_first_generator_associates",),
    ),
    Mutant(
        "recover returns the read-off's rejection before the gates",
        "hgforge/recovery.py",
        "    result = _read_off(cube)\n    if result.recovered:\n",
        "    result = _read_off(cube)\n    if not result.recovered:\n        return result\n    if result.recovered:\n",
        (
            "tests/test_recovery.py::TestCertifyFirst::test_a_read_off_rejection_comes_after_the_gates",
            "tests/test_recovery.py::TestCertifyFirst::test_recover_equals_the_gate_sequence[1]",
        ),
    ),
    Mutant(
        "column (1, 2) taken as the measure",
        "hgforge/recovery.py",
        "MeasureVector(cube.n, cube.column(1, 1))",
        "MeasureVector(cube.n, cube.column(1, 2))",
        (
            "tests/test_recovery.py::TestRecover::test_z2_fixture",
            "tests/test_recovery.py::TestRecover::test_round_trips_across_groups",
        ),
    ),
    Mutant(
        "columns keyed by isinstance",
        "hgforge/core.py",
        "    return [key if {int, str}.issuperset(map(type, key)) else p for p, key in enumerate(map(tuple, columns))]\n",
        "    return [key if all(isinstance(x, (int, str)) for x in key) else p for p, key in enumerate(map(tuple, columns))]\n",
        (
            "tests/test_core.py::TestValidateCube::test_bool_entry_rejected",
            "tests/test_golden_reports.py::test_reports_replay_byte_for_byte[load-boolean-after-an-equal-int-column-entries-first]",
        ),
    ),
    # a bool or a float column refused where it stands, not merged with the
    # int column it equals: typed keys on the full reader, text keys on the
    # reader of the written spelling
    Mutant(
        "typed keys take a bool for an int",
        "hgforge/core.py",
        "{int, str}.issuperset(map(type, key))",
        "{int, str, bool}.issuperset(map(type, key))",
        ("tests/test_golden_reports.py::test_reports_replay_byte_for_byte[load-boolean-after-an-equal-int-column-entries-first]",),
    ),
    Mutant(
        "typed keys take a float for an int",
        "hgforge/core.py",
        "{int, str}.issuperset(map(type, key))",
        "{int, str, float}.issuperset(map(type, key))",
        (
            "tests/test_golden_reports.py::test_reports_replay_byte_for_byte"
            "[load-exponent-float-after-an-equal-int-column-entries-first]",
        ),
    ),
    Mutant(
        "bodies keyed by decoded value instead of text",
        "hgforge/formats.py",
        "    return n, keys, list(map(columns.__getitem__, keys))\n",
        "    return n, [tuple(columns[key]) for key in keys], list(map(columns.__getitem__, keys))\n",
        (
            "tests/test_formats.py::TestOneLoadingPass::test_column_equal_to_an_earlier_int_column_is_refused_in_place[bool]",
            "tests/test_formats.py::TestOneLoadingPass::test_column_equal_to_an_earlier_int_column_is_refused_in_place[float]",
            "tests/test_golden_reports.py::test_reports_replay_byte_for_byte[load-boolean-after-an-equal-int-column]",
            "tests/test_golden_reports.py::test_reports_replay_byte_for_byte[load-exponent-float-after-an-equal-int-column]",
        ),
    ),
    # the reader of the written spelling: what it leaves to the full reader
    Mutant(
        "gap check accepting any prefix",
        "hgforge/formats.py",
        "            if gap.translate(_NO_WS) != structure:\n",
        "            if gap.translate(_NO_WS)[-len(structure):] != structure:\n",
        (
            "tests/test_formats.py::test_a_text_off_the_written_spelling_reads_as_the_full_reader_reads_it[double-comma]",
            "tests/test_formats.py::test_a_text_off_the_written_spelling_reads_as_the_full_reader_reads_it[junk-before-a-comma]",
        ),
    ),
    Mutant(
        "plane-close check skipped",
        "hgforge/formats.py",
        '(last + "".join(pieces[n::n + 1])).strip(_WS)',
        "last.strip(_WS)",
        ("tests/test_formats.py::test_a_text_off_the_written_spelling_reads_as_the_full_reader_reads_it[junk-in-a-plane-close]",),
    ),
    Mutant(
        "body length unchecked",
        "hgforge/formats.py",
        "len(decoded) != len(distinct) or any(len(column) != n for column in decoded)",
        "len(decoded) != len(distinct)",
        (
            "tests/test_formats.py::test_a_text_off_the_written_spelling_reads_as_the_full_reader_reads_it[long-column]",
            "tests/test_formats.py::test_every_spelling_reads_as_the_full_reader_reads_it",
        ),
    ),
    # the full reader: shape faults in scan order
    Mutant(
        "shape fault raised before the columns before it convert",
        "hgforge/core.py",
        "    distinct = [convert(columns[p], *divmod(p, n)) for p in first.values()]\n"
        "    if fault is not None:\n"
        "        raise fault\n",
        "    if fault is not None:\n"
        "        raise fault\n"
        "    distinct = [convert(columns[p], *divmod(p, n)) for p in first.values()]\n",
        (
            "tests/test_golden_reports.py::test_reports_replay_byte_for_byte[load-parse-error-before-a-shape-fault]",
            "tests/test_formats.py::test_the_first_fault_is_the_oracles",
        ),
    ),
    # the writer
    Mutant(
        "writer without ASCII escaping",
        "hgforge/formats.py",
        "    if type(value) is str:\n        return encode_basestring_ascii(value)\n",
        "    if type(value) is str:\n        return json.encoder.encode_basestring(value)\n",
        (
            "tests/test_formats.py::TestWriter::test_equals_json_dumps",
            "tests/test_formats.py::TestWriter::test_non_ascii_is_escaped",
        ),
    ),
    # recorded by an earlier change: recover's plane-1 pre-check, whose
    # removal made the read-off run on every valid cube
    Mutant(
        "recover's plane-1 pre-check restored",
        "hgforge/recovery.py",
        "    n = cube.n\n    result = _read_off(cube)\n",
        "    n = cube.n\n"
        "    if len(set(cube.layout[0])) < n:\n"
        '        result = RecoveryResult(None, None, None, COLUMN_MATCH_FAILURE, None, "plane 1 repeats a column")\n'
        "    else:\n"
        "        result = _read_off(cube)\n",
        ("tests/test_recovery.py::TestCertifyFirst::test_the_read_off_runs_exactly_once",),
    ),
)


def occurrences(mutant):
    return (SRC / mutant.path).read_text(encoding="utf-8").count(mutant.snippet)


def failed_nodes(output):
    """Node ids that pytest's -rfE summary lists as failed or in error."""
    nodes = set()
    for line in output.splitlines():
        for mark in ("FAILED ", "ERROR "):
            if line.startswith(mark):
                nodes.add(line[len(mark):].split(" - ")[0].strip())
    return nodes


def killed(mutant, output, returncode):
    """Whether every node of the mutant failed."""
    failed = failed_nodes(output)
    return returncode != 0 and all(node in failed for node in mutant.tests)


def run(mutant):
    """Apply the mutant to a copy of src/, run its nodes there, and return
    the verdict: killed, SURVIVED or timeout."""
    with tempfile.TemporaryDirectory(prefix="hgforge-mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
        target = src / mutant.path
        text = target.read_text(encoding="utf-8")
        target.write_text(text.replace(mutant.snippet, mutant.replacement, 1), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
        command = [
            sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
            "-o", f"pythonpath={src}", "--hypothesis-profile=mutants", *mutant.tests,
        ]
        try:
            done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return "timeout"
    return "killed" if killed(mutant, done.stdout, done.returncode) else "SURVIVED"


def main(names):
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"error: no mutant named {sorted(unknown)}", file=sys.stderr)
        return 2
    bad = 0
    for mutant in chosen:
        found = occurrences(mutant)
        if found != 1:
            verdict = f"stale: snippet occurs {found} times in src/{mutant.path}"
        else:
            verdict = run(mutant)
        bad += verdict != "killed"
        print(f"{verdict:8s}  {mutant.name}  ({len(mutant.tests)} node(s))")
    print(f"{len(chosen) - bad} of {len(chosen)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
