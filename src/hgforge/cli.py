"""Command-line front end.

Subcommands: validate, check, derive, recover, enumerate-groups,
roundtrip.  Every command takes --format text|json; JSON reports carry
"schema": "hgforge/1".  Exit codes are uniform across commands:

  0  success / property holds
  1  well-formed input that fails mathematically
  2  unreadable or malformed input
  3  derive only: degenerate pair, output still written

Each cmd_* function returns (exit code, JSON document, text lines), or
raises _Refusal(exit code, stderr line), and writes nothing itself:
main is the only writer to stdout and stderr.

Output is a pure function of the inputs: no timestamps, no absolute
paths, no hash-order dependence.  Running a command twice on the same
files produces identical bytes.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys

from .core import MAX_OPERAND_DIGITS, ValidationError
from .checks import (
    DEFAULT_WITNESS_CAP,
    check_corollaries,
    is_associative_bruteforce,
    is_associative_matrix,
    is_commutative,
    satisfies_condition_A,
)
from .derivation import degeneracy_check, derive_cube
from .formats import (
    FormatError,
    cube_to_document,
    group_to_document,
    load_cube,
    load_group,
    load_measure,
    measure_to_document,
    scalar_to_json,
    serialize,
    write_document,
)
from .groups import cayley_table, enumerate_abelian_groups, DEFAULT_ORDER_CAP
from .recovery import recover, validation_rejection
from .sampling import DEFAULT_DENOMINATOR, random_measure, random_nondegenerate_measure

SCHEMA = "hgforge/1"

EXIT_OK = 0
EXIT_FAILS = 1
EXIT_INPUT = 2
EXIT_DEGENERATE = 3


def _witness_json(witness):
    return {
        "indices": list(witness.indices),
        "expected": witness.expected,
        "actual": witness.actual,
    }


def _witness_text(witness):
    where = ", ".join(str(i) for i in witness.indices)
    return f"at ({where}): expected {witness.expected}, got {witness.actual}"


def _property(report, indent=""):
    """JSON object and text lines of one PropertyReport."""
    doc = {
        "name": report.name,
        "holds": report.holds,
        "violation_count": report.violation_count,
        "witnesses": [_witness_json(w) for w in report.witnesses],
    }
    mark = "holds" if report.holds else f"fails ({report.violation_count} violations)"
    lines = [f"{indent}{report.name}: {mark}"]
    lines += [f"{indent}  {_witness_text(w)}" for w in report.witnesses]
    return doc, lines


def _violations_document(command, err):
    """JSON report of a cube that fails validation, for validate and check."""
    return {
        "schema": SCHEMA,
        "command": command,
        "valid": False,
        "violations": [
            {"kind": v.kind, "indices": list(v.indices), "detail": v.detail} for v in err.violations
        ],
    }


class _Refusal(Exception):
    """Raised by a command as _Refusal(exit_code, stderr_line)."""


def _factors_label(factors):
    return json.dumps(list(factors.factors), separators=(",", ":"))


def cmd_validate(args):
    try:
        cube = load_cube(args.cube)
    except ValidationError as err:
        lines = ["invalid cube:"] + [f"  {violation}" for violation in err.violations]
        return EXIT_FAILS, _violations_document("validate", err), lines
    document = {"schema": SCHEMA, "command": "validate", "valid": True, "n": cube.n}
    return EXIT_OK, document, [f"valid cube on {cube.n} states"]


def _selected_reports(cube, selection, cap):
    """One (JSON object, text lines) pair per selected check, in report order."""
    reports = []
    if selection in ("all", "commutative"):
        reports.append(_property(is_commutative(cube, cap)))
    if selection in ("all", "associative"):
        reports.append(_property(is_associative_matrix(cube, cap)))
        reports.append(_property(is_associative_bruteforce(cube, cap)))
    if selection in ("all", "condition-a"):
        report = satisfies_condition_A(cube)
        doc = {
            "name": "condition-a",
            "holds": report.holds,
            "distinct_column_count": report.distinct_column_count,
            "left_ranks": list(report.left_ranks),
            "right_ranks": list(report.right_ranks),
        }
        ranks_left = ", ".join(str(r) for r in report.left_ranks)
        ranks_right = ", ".join(str(r) for r in report.right_ranks)
        line = (
            f"condition-a: {'holds' if report.holds else 'fails'} (distinct columns "
            f"{report.distinct_column_count} of {report.n}; left ranks {ranks_left}; "
            f"right ranks {ranks_right})"
        )
        reports.append((doc, [line]))
    if selection in ("all", "corollaries"):
        subs = [_property(r, indent="  ") for r in check_corollaries(cube, cap)]
        docs = [doc for doc, _ in subs]
        holds = all(doc["holds"] for doc in docs)
        lines = [f"corollaries: {'holds' if holds else 'fails'}"]
        lines += [line for _, sub in subs for line in sub]
        reports.append(({"name": "corollaries", "holds": holds, "reports": docs}, lines))
    return reports


def cmd_check(args):
    if args.witness_cap < 1:
        raise _Refusal(EXIT_INPUT, "error: witness cap must be at least 1")
    try:
        cube = load_cube(args.cube)
    except ValidationError as err:
        # text mode reports an invalid cube on stderr; JSON, as a report
        if args.format == "text":
            raise _Refusal(EXIT_FAILS, f"invalid cube: {err}")
        return EXIT_FAILS, _violations_document("check", err), []
    reports = _selected_reports(cube, args.property, args.witness_cap)
    holds = all(doc["holds"] for doc, _ in reports)
    document = {
        "schema": SCHEMA,
        "command": "check",
        "n": cube.n,
        "holds": holds,
        "properties": [doc for doc, _ in reports],
    }
    lines = [line for _, report_lines in reports for line in report_lines]
    return (EXIT_OK if holds else EXIT_FAILS), document, lines


def cmd_derive(args):
    group = load_group(args.group)
    measure = load_measure(args.measure)
    if group.n != measure.n:
        raise _Refusal(EXIT_INPUT, f"error: group has {group.n} states but measure has {measure.n}")
    cube = derive_cube(group, measure)
    verdict = degeneracy_check(group, measure)
    write_document(args.out, cube_to_document(cube))

    degeneracy = {"kind": verdict.kind}
    if verdict.repeated_state is not None:
        degeneracy["repeated_state"] = verdict.repeated_state
    if verdict.kernel_vector is not None:
        degeneracy["kernel_vector"] = [scalar_to_json(x) for x in verdict.kernel_vector]
    document = {
        "schema": SCHEMA,
        "command": "derive",
        "n": cube.n,
        "out": args.out,
        "degeneracy": degeneracy,
    }
    lines = [f"wrote cube on {cube.n} states to {args.out}", f"degeneracy: {verdict.describe()}"]
    return (EXIT_DEGENERATE if verdict.degenerate else EXIT_OK), document, lines


def cmd_recover(args):
    try:
        cube = load_cube(args.cube)
    except ValidationError as err:
        result = validation_rejection(err)
    else:
        result = recover(cube)

    if result.recovered:
        # files first: an unwritable path exits 2 before any report is printed
        if args.out:
            write_document(args.out, group_to_document(result.table))
        if args.out_measure:
            write_document(args.out_measure, measure_to_document(result.measure))
        document = {
            "schema": SCHEMA,
            "command": "recover",
            "recovered": True,
            "invariant_factors": list(result.factors.factors),
            "cayley_table": [list(row) for row in result.table.rows],
            "measure": [scalar_to_json(q) for q in result.measure.values],
            "round_trip": "exact",
        }
        factors = ", ".join(str(d) for d in result.factors.factors)
        lines = [
            f"recovered group with invariant factors [{factors}]",
            f"measure: {', '.join(str(q) for q in result.measure.values)}",
            "round-trip: exact",
        ]
        return EXIT_OK, document, lines

    document = {
        "schema": SCHEMA,
        "command": "recover",
        "recovered": False,
        "reason": result.reason,
    }
    lines = [f"not derived from any group: {result.reason}"]
    if result.witness is not None:
        document["witness"] = _witness_json(result.witness)
        lines.append(f"  {_witness_text(result.witness)}")
    if result.detail is not None:
        document["detail"] = result.detail
        lines.append(f"  {result.detail}")
    return EXIT_FAILS, document, lines


def cmd_enumerate_groups(args):
    try:
        groups = enumerate_abelian_groups(args.n)
    except ValueError as err:
        raise _Refusal(EXIT_INPUT, f"error: {err}")
    document = {
        "schema": SCHEMA,
        "command": "enumerate-groups",
        "n": args.n,
        "count": len(groups),
        "groups": [list(g.factors) for g in groups],
    }
    lines = [str(len(groups))] if args.count else [_factors_label(g) for g in groups]
    return EXIT_OK, document, lines


def cmd_roundtrip(args):
    if args.order < 1 or args.order > DEFAULT_ORDER_CAP:
        raise _Refusal(EXIT_INPUT, f"error: order must be in 1..{DEFAULT_ORDER_CAP}")
    if args.trials < 1:
        raise _Refusal(EXIT_INPUT, "error: need at least one trial")
    if args.denominator < 1:
        raise _Refusal(EXIT_INPUT, "error: denominator must be at least 1")
    # a draw's common denominator divides its numerator total, at most
    # order * denominator, so below the bound no draw can exceed it
    if args.order * args.denominator >= 10**MAX_OPERAND_DIGITS:
        raise _Refusal(EXIT_INPUT, f"error: order times denominator must be below 10**{MAX_OPERAND_DIGITS}")
    rng = random.Random(args.seed)
    summaries = []
    lines = []
    failures = 0
    for factors in enumerate_abelian_groups(args.order):
        table = cayley_table(factors)
        passed = failed = skipped = 0
        for _ in range(args.trials):
            measure = random_measure(rng, table.n, args.denominator)
            if degeneracy_check(table, measure).degenerate:
                if args.include_degenerate:
                    skipped += 1
                    continue
                measure = random_nondegenerate_measure(rng, table, args.denominator)
            cube = derive_cube(table, measure)
            result = recover(cube)
            ok = (
                result.recovered
                and result.table.rows == table.rows
                and result.measure.values == measure.values
                and result.factors == factors
            )
            if ok:
                passed += 1
            else:
                failed += 1
        failures += failed
        summaries.append(
            {
                "invariant_factors": list(factors.factors),
                "passed": passed,
                "failed": failed,
                "skipped_degenerate": skipped,
            }
        )
        line = f"{_factors_label(factors)}: {passed} passed, {failed} failed"
        if skipped:
            line += f", {skipped} skipped as degenerate"
        lines.append(line)
    lines.append("all round trips exact" if failures == 0 else f"{failures} round trips failed")

    document = {
        "schema": SCHEMA,
        "command": "roundtrip",
        "order": args.order,
        "trials": args.trials,
        "seed": args.seed,
        "denominator": args.denominator,
        "groups": summaries,
        "all_passed": failures == 0,
    }
    return (EXIT_OK if failures == 0 else EXIT_FAILS), document, lines


@functools.cache  # built once, on the first main call
def build_parser():
    parser = argparse.ArgumentParser(
        prog="hgforge",
        description="Exact tools for cubes of product coefficients over finite state sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("validate", help="check cube shape, nonnegativity, and column sums")
    p.add_argument("cube", help="path to a cube JSON file")
    add_format(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("check", help="run structural properties on a valid cube")
    p.add_argument("cube", help="path to a cube JSON file")
    p.add_argument(
        "--property",
        choices=("all", "commutative", "associative", "condition-a", "corollaries"),
        default="all",
    )
    p.add_argument("--witness-cap", type=int, default=DEFAULT_WITNESS_CAP)
    add_format(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("derive", help="build the cube of a (group, measure) pair")
    p.add_argument("group", help="path to a group JSON file")
    p.add_argument("measure", help="path to a measure JSON file")
    p.add_argument("--out", required=True, help="where to write the cube JSON")
    add_format(p)
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("recover", help="find the unique (group, measure) behind a cube")
    p.add_argument("cube", help="path to a cube JSON file")
    p.add_argument("--out", help="where to write the recovered group JSON")
    p.add_argument("--out-measure", help="where to write the recovered measure JSON")
    add_format(p)
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("enumerate-groups", help="list abelian groups of a given order")
    p.add_argument("n", type=int, help="group order")
    p.add_argument("--count", action="store_true", help="print only the number of classes")
    add_format(p)
    p.set_defaults(func=cmd_enumerate_groups)

    p = sub.add_parser("roundtrip", help="derive-then-recover over random measures")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--denominator", type=int, default=DEFAULT_DENOMINATOR)
    p.add_argument(
        "--include-degenerate",
        action="store_true",
        help="count degenerate draws as skipped instead of redrawing",
    )
    add_format(p)
    p.set_defaults(func=cmd_roundtrip)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:
        return EXIT_INPUT if exit_.code else EXIT_OK
    try:
        code, document, lines = args.func(args)
        if args.format == "json":
            sys.stdout.write(serialize(document))
        else:
            print("\n".join(lines))
        return code
    except _Refusal as refusal:
        code, line = refusal.args
    except (FormatError, OSError) as err:
        code, line = EXIT_INPUT, f"error: {err}"
    except ValidationError as err:
        code, line = EXIT_FAILS, f"error: {err}"
    print(line, file=sys.stderr)
    return code


def app():  # entry point of the hgforge script and of python -m hgforge
    raise SystemExit(main())
