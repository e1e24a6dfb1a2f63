import argparse
import ast
import gc
import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgforge import InvariantFactors, cayley_table, derive_cube, validate_measure
import hgforge.cli
from hgforge.cli import main
from hgforge.formats import cube_to_document, group_to_document, measure_to_document, write_document
from hgforge.sampling import random_measure
from oracles import oracle_mixture


@pytest.fixture()
def z2_files(tmp_path, z2_table, z2_measure, z2_cube):
    group = tmp_path / "group.json"
    measure = tmp_path / "measure.json"
    cube = tmp_path / "cube.json"
    write_document(group, {"invariant_factors": [2]})
    write_document(measure, measure_to_document(z2_measure))
    write_document(cube, cube_to_document(z2_cube))
    return {"group": group, "measure": measure, "cube": cube, "dir": tmp_path}


def run_cli(*argv):
    return main([str(a) for a in argv])


class TestValidate:
    def test_valid(self, z2_files, capsys):
        assert run_cli("validate", z2_files["cube"]) == 0
        assert "valid cube on 2 states" in capsys.readouterr().out

    def test_invalid_column_sum(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"n": 2, "entries": [[["1/2", "2/5"], ["1/4", "3/4"]],'
            ' [["1/4", "3/4"], ["3/4", "1/4"]]]}'
        )
        assert run_cli("validate", path) == 1
        out = capsys.readouterr().out
        assert "column-sum-not-one" in out and "(1, 2)" not in out.split("\n")[1]
        assert "(1, 1)" in out

    def test_missing_file(self, tmp_path, capsys):
        assert run_cli("validate", tmp_path / "nope.json") == 2

    def test_garbage(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("*** not json ***")
        assert run_cli("validate", path) == 2

    def test_json_format(self, z2_files, capsys):
        assert run_cli("validate", z2_files["cube"], "--format", "json") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "hgforge/1"
        assert doc["valid"] is True

    def test_bare_float_guidance(self, tmp_path, capsys):
        path = tmp_path / "float.json"
        path.write_text('{"n": 1, "entries": [[[1.0]]]}')
        assert run_cli("validate", path) == 2
        assert "quote" in capsys.readouterr().err

    def test_huge_exponent_fails_fast(self, tmp_path, child_env):
        path = tmp_path / "huge.json"
        path.write_text('{"n": 1, "entries": [[["1e-3000000"]]]}')
        proc = subprocess.run(
            [sys.executable, "-m", "hgforge", "check", str(path)],
            capture_output=True,
            text=True,
            env=child_env("0"),
            timeout=60,
        )
        assert proc.returncode == 2
        assert "exponent" in proc.stderr
        assert "Traceback" not in proc.stderr


    @pytest.mark.parametrize("command", ["validate", "check", "recover"])
    @pytest.mark.parametrize("entry", ["1e-4300", "1e4300"])
    def test_operand_past_the_digit_bound(self, tmp_path, capsys, command, entry):
        # 1e-4300 has a 4301-digit denominator: at load time it was accepted
        # and the report's "sums to" line could not be rendered
        path = tmp_path / "huge.json"
        path.write_text('{"n": 1, "entries": [[["%s"]]]}' % entry)
        assert run_cli(command, path) == 2
        err = capsys.readouterr().err
        assert "exceeds 2150 digits" in err
        assert "Traceback" not in err


class TestCheck:
    def test_all_properties_on_fixture(self, z2_files, capsys):
        assert run_cli("check", z2_files["cube"]) == 0
        out = capsys.readouterr().out
        for name in (
            "commutative",
            "associative-matrix",
            "associative-bruteforce",
            "condition-a",
            "corollaries",
        ):
            assert name in out

    def test_json_reports_five_properties(self, z2_files, capsys):
        assert run_cli("check", z2_files["cube"], "--format", "json") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["holds"] is True
        assert [p["name"] for p in doc["properties"]] == [
            "commutative",
            "associative-matrix",
            "associative-bruteforce",
            "condition-a",
            "corollaries",
        ]

    def test_semilattice_condition_a(self, tmp_path, semilattice_cube, capsys):
        path = tmp_path / "semi.json"
        write_document(path, cube_to_document(semilattice_cube))
        assert run_cli("check", path, "--property", "condition-a") == 1
        out = capsys.readouterr().out
        assert "condition-a: fails" in out
        assert "left ranks 1, 2" in out

    def test_nonassoc_triple_witness(self, tmp_path, nonassoc_cube, capsys):
        path = tmp_path / "na.json"
        write_document(path, cube_to_document(nonassoc_cube))
        assert run_cli("check", path, "--property", "associative") == 1
        assert "(1, 1, 2)" in capsys.readouterr().out

    def test_single_property_selection(self, z2_files, capsys):
        assert run_cli("check", z2_files["cube"], "--property", "commutative") == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out == ["commutative: holds"]

    @pytest.mark.parametrize("command", ["validate", "check"])
    def test_invalid_cube_json_report(self, tmp_path, capsys, command):
        path = tmp_path / "invalid.json"
        path.write_text('{"n": 1, "entries": [[["-1/2"]]]}')
        assert run_cli(command, path, "--format", "json") == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc == {
            "schema": "hgforge/1",
            "command": command,
            "valid": False,
            "violations": [
                {"kind": "negative-entry", "indices": [1, 1, 1], "detail": "-1/2"},
                {"kind": "column-sum-not-one", "indices": [1, 1], "detail": "sums to -1/2"},
            ],
        }

    def test_invalid_cube_text_goes_to_stderr(self, tmp_path, capsys):
        path = tmp_path / "invalid.json"
        path.write_text('{"n": 1, "entries": [[["1/2"]]]}')
        assert run_cli("check", path) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "invalid cube: column-sum-not-one at (1, 1): sums to 1/2\n"

    @pytest.mark.parametrize("cap", ["0", "-3"])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_witness_cap_below_one_is_an_input_error(self, tmp_path, nonassoc_cube, capsys, cap, fmt):
        path = tmp_path / "na.json"
        write_document(path, cube_to_document(nonassoc_cube))
        assert run_cli("check", path, "--witness-cap", cap, "--format", fmt) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: witness cap must be at least 1\n"


class TestDerive:
    def test_writes_fixture_bytes(self, z2_files, capsys):
        out_path = z2_files["dir"] / "derived.json"
        assert run_cli("derive", z2_files["group"], z2_files["measure"], "--out", out_path) == 0
        assert out_path.read_bytes() == z2_files["cube"].read_bytes()

    def test_uniform_degenerate_exit(self, z2_files, tmp_path, capsys):
        uniform = tmp_path / "uniform.json"
        write_document(uniform, {"n": 2, "values": ["1/2", "1/2"]})
        out_path = tmp_path / "cube.json"
        assert run_cli("derive", z2_files["group"], uniform, "--out", out_path) == 3
        assert "repeated-translates" in capsys.readouterr().out
        assert out_path.exists()

    def test_singular_mixture_exit(self, tmp_path, capsys):
        group = tmp_path / "z4.json"
        measure = tmp_path / "m.json"
        write_document(group, {"invariant_factors": [4]})
        write_document(measure, {"n": 4, "values": ["1/2", "1/4", 0, "1/4"]})
        out_path = tmp_path / "cube.json"
        assert run_cli("derive", group, measure, "--out", out_path) == 3
        out = capsys.readouterr().out
        assert "singular-mixture" in out

    def test_singular_z128_kernel_vector(self, tmp_path, capsys):
        # 40-bit weights on eight residues of Z128 (state g + 1 is residue
        # g), two in each class mod 4, balanced so that the order-4 class of
        # characters vanishes: the masses on residues 0 and 2 mod 4 agree,
        # and those on 1 and 3.  An elimination of the mixture matrix took
        # about 8 s on this pair; the characters take milliseconds.
        rng = random.Random(128)
        weights = {g: rng.randrange(2**40, 2**41) for g in (0, 1, 68, 105)}
        weights |= {g: rng.randrange(1, 2**36) for g in (38, 51)}
        weights[90] = weights[0] + weights[68] - weights[38]
        weights[127] = weights[1] + weights[105] - weights[51]
        values = [Fraction(weights.get(g, 0), sum(weights.values())) for g in range(128)]
        group, measure, out = tmp_path / "z128.json", tmp_path / "m.json", tmp_path / "cube.json"
        write_document(group, {"invariant_factors": [128]})
        write_document(measure, measure_to_document(validate_measure(values)))
        assert run_cli("derive", group, measure, "--out", out, "--format", "json") == 3
        degeneracy = json.loads(capsys.readouterr().out)["degeneracy"]
        assert degeneracy["kind"] == "singular-mixture"
        vector = degeneracy["kernel_vector"]
        assert all(type(x) is int for x in vector) and math.gcd(*vector) == 1
        assert next(x for x in vector if x) > 0
        rows = cayley_table(InvariantFactors((128,))).rows
        assert all(sum(r * v for r, v in zip(row, vector)) == 0 for row in oracle_mixture(rows, values))

    @pytest.mark.parametrize(
        "group",
        [
            {"cayley_table": [[1, 2], [1, 2]]},
            {"cayley_table": []},
            {"cayley_table": [[2, 1], [1, 2]]},
            {"invariant_factors": [2] * 9},
        ],
        ids=["not-latin", "empty", "identity-not-first", "order-512"],
    )
    def test_bad_group_document_exit_two(self, z2_files, tmp_path, capsys, group):
        path = tmp_path / "group.json"
        write_document(path, group)
        assert run_cli("derive", path, z2_files["measure"], "--out", tmp_path / "c.json") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err
        assert not (tmp_path / "c.json").exists()

    def test_dimension_mismatch(self, z2_files, tmp_path):
        measure = tmp_path / "m3.json"
        write_document(measure, {"n": 3, "values": ["1/3", "1/3", "1/3"]})
        assert run_cli("derive", z2_files["group"], measure, "--out", tmp_path / "c.json") == 2

    def test_measure_not_summing_to_one_exit_one(self, z2_files, tmp_path, capsys):
        measure = tmp_path / "m.json"
        write_document(measure, {"n": 2, "values": ["1/2", "2/5"]})
        assert run_cli("derive", z2_files["group"], measure, "--out", tmp_path / "c.json") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: sum-not-one: sums to 9/10\n"
        assert not (tmp_path / "c.json").exists()


class TestRecover:
    def test_fixture(self, z2_files, tmp_path, capsys):
        group_out = tmp_path / "g.json"
        measure_out = tmp_path / "m.json"
        code = run_cli(
            "recover", z2_files["cube"], "--out", group_out, "--out-measure", measure_out
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "invariant factors [2]" in out
        assert "3/4, 1/4" in out
        assert "round-trip: exact" in out
        assert json.loads(group_out.read_text()) == {"cayley_table": [[1, 2], [2, 1]]}
        assert json.loads(measure_out.read_text()) == {"n": 2, "values": ["3/4", "1/4"]}

    @pytest.mark.parametrize("flag", ["--out", "--out-measure"])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_unwritable_output_exits_two_before_printing(self, z2_files, tmp_path, capsys, flag, fmt):
        target = tmp_path / "missing-dir" / "out.json"
        assert run_cli("recover", z2_files["cube"], flag, target, "--format", fmt) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert not target.exists()

    def test_semilattice_reason(self, tmp_path, semilattice_cube, capsys):
        path = tmp_path / "semi.json"
        write_document(path, cube_to_document(semilattice_cube))
        assert run_cli("recover", path) == 1
        assert "fails-condition-a" in capsys.readouterr().out

    def test_perturbed_fixture_not_associative(self, tmp_path, z2_table, z2_measure, capsys):
        cube = derive_cube(z2_table, z2_measure)
        doc = cube_to_document(cube)
        doc["entries"][0][0] = ["19/25", "6/25"]  # 3/4 + 1/100, 1/4 - 1/100
        path = tmp_path / "perturbed.json"
        write_document(path, doc)
        assert run_cli("recover", path) == 1
        assert "not-associative" in capsys.readouterr().out

    def test_invalid_cube_exit_one(self, tmp_path, capsys):
        path = tmp_path / "invalid.json"
        path.write_text('{"n": 1, "entries": [[["1/2"]]]}')
        assert run_cli("recover", path) == 1
        assert "fails-validation" in capsys.readouterr().out

    def test_json_failure_report(self, tmp_path, nonassoc_cube, capsys):
        path = tmp_path / "na.json"
        write_document(path, cube_to_document(nonassoc_cube))
        assert run_cli("recover", path, "--format", "json") == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["recovered"] is False
        assert doc["reason"] == "not-associative"


class TestEnumerateGroups:
    def test_listing(self, capsys):
        assert run_cli("enumerate-groups", "8") == 0
        assert capsys.readouterr().out.splitlines() == ["[8]", "[2,4]", "[2,2,2]"]

    def test_twelve(self, capsys):
        assert run_cli("enumerate-groups", "12") == 0
        assert capsys.readouterr().out.splitlines() == ["[12]", "[2,6]"]

    def test_trivial(self, capsys):
        assert run_cli("enumerate-groups", "1") == 0
        assert capsys.readouterr().out.splitlines() == ["[]"]

    def test_count_only(self, capsys):
        assert run_cli("enumerate-groups", "16", "--count") == 0
        assert capsys.readouterr().out.strip() == "5"

    def test_over_cap(self, capsys):
        assert run_cli("enumerate-groups", "1000") == 2

    def test_cap_cannot_be_raised(self, capsys):
        # with the order cap raised, factoring this prime by trial division
        # took seconds, and the time grows with the square root of the order
        start = time.perf_counter()
        code = run_cli("enumerate-groups", "1000000000000037", "--cap", "10000000000000000", "--count")
        assert code == 2
        assert time.perf_counter() - start < 2
        assert "unrecognized arguments: --cap" in capsys.readouterr().err

    def test_json(self, capsys):
        assert run_cli("enumerate-groups", "8", "--format", "json") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["groups"] == [[8], [2, 4], [2, 2, 2]]
        assert doc["count"] == 3


class TestRoundtrip:
    def test_order_six(self, capsys):
        assert run_cli("roundtrip", "--order", "6", "--trials", "20", "--seed", "42") == 0
        assert "[6]: 20 passed, 0 failed" in capsys.readouterr().out

    def test_order_four_covers_both_classes(self, capsys):
        assert run_cli("roundtrip", "--order", "4", "--trials", "20", "--seed", "0") == 0
        out = capsys.readouterr().out
        assert "[4]: 20 passed, 0 failed" in out
        assert "[2,2]: 20 passed, 0 failed" in out

    def test_include_degenerate_skips(self, capsys):
        # n=2 with denominator 1: every draw is 0/1-valued, so uniform
        # (degenerate) draws are common and must be reported as skipped
        code = run_cli(
            "roundtrip",
            "--order",
            "2",
            "--trials",
            "30",
            "--seed",
            "5",
            "--denominator",
            "1",
            "--include-degenerate",
        )
        assert code == 0
        assert "skipped as degenerate" in capsys.readouterr().out

    def test_deterministic_given_seed(self, capsys):
        run_cli("roundtrip", "--order", "4", "--trials", "5", "--seed", "9", "--format", "json")
        first = capsys.readouterr().out
        run_cli("roundtrip", "--order", "4", "--trials", "5", "--seed", "9", "--format", "json")
        assert capsys.readouterr().out == first

    def test_bad_order(self, capsys):
        assert run_cli("roundtrip", "--order", "0") == 2
        assert run_cli("roundtrip", "--order", "512") == 2

    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("--denominator", "0", "denominator must be at least 1"),
            ("--denominator", "-3", "denominator must be at least 1"),
            ("--trials", "0", "need at least one trial"),
        ],
        ids=["denominator-0", "denominator--3", "trials-0"],
    )
    def test_count_below_one(self, capsys, option, value, message):
        assert run_cli("roundtrip", "--order", "2", option, value) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "order, denominator",
        [(2, 10**3000), (2, 5 * 10**2149), (8, 10**2150 // 8)],
        ids=["far-past", "at-the-bound", "order-8-at-the-bound"],
    )
    def test_denominator_past_the_operand_bound(self, capsys, order, denominator):
        # refused before any draw: a draw's common denominator can reach
        # order * denominator, which scale_to_integers would refuse
        assert run_cli("roundtrip", "--order", order, "--trials", "1", "--denominator", denominator) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: order times denominator must be below 10**2150\n"

    def test_denominator_just_below_the_operand_bound(self, capsys):
        assert run_cli("roundtrip", "--order", "2", "--trials", "1", "--denominator", 10**2149) == 0
        assert capsys.readouterr().out == "[2]: 1 passed, 0 failed\nall round trips exact\n"

    @pytest.mark.parametrize("denominator", [0, -3])
    def test_random_measure_refuses_bad_denominator(self, denominator):
        with pytest.raises(ValueError, match="denominator must be at least 1"):
            random_measure(random.Random(0), 2, denominator)

    @pytest.mark.parametrize("n", [0, -1])
    def test_random_measure_refuses_no_states(self, n, child_env):
        # with no state to draw, the redraw loop would never end: run it in
        # a child so that a regression times out instead of hanging
        code = (
            "import random\n"
            "from hgforge.sampling import random_measure\n"
            "try:\n"
            f"    random_measure(random.Random(1), {n})\n"
            "except ValueError as err:\n"
            "    print(err)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=child_env("0"), timeout=60
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"need at least one state, got {n}\n", "")

    def test_degenerate_draws_are_redrawn(self, capsys):
        # n=2 with denominator 1 draws the uniform measure about a third
        # of the time; without --include-degenerate each one is redrawn
        assert run_cli("roundtrip", "--order", "2", "--trials", "30", "--seed", "5", "--denominator", "1") == 0
        assert capsys.readouterr().out == "[2]: 30 passed, 0 failed\nall round trips exact\n"


class TestArgumentErrors:
    def test_unknown_command(self, capsys):
        assert run_cli("frobnicate") == 2

    def test_missing_argument(self, capsys):
        assert run_cli("validate") == 2


# runs each command of a JSON list through one process's main, in order
_IN_ONE_PROCESS = """
import contextlib, io, json, sys
from hgforge.cli import main
runs = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        runs.append([main(argv), out.getvalue(), err.getvalue()])
print(json.dumps(runs))
"""


class TestParserReuse:
    def test_outputs_equal_each_command_run_first(self, tmp_path, nonassoc_cube, child_env):
        path = tmp_path / "na.json"
        write_document(path, cube_to_document(nonassoc_cube))
        commands = [
            ["check", str(path), "--witness-cap", "1", "--property", "associative"],
            ["check", str(path), "--property", "associative", "--witness-cap", "x"],
            ["check", str(path)],
        ]

        def run(sequence):
            child = subprocess.run(
                [sys.executable, "-c", _IN_ONE_PROCESS, json.dumps(sequence)],
                capture_output=True,
                env=child_env("0"),
                check=True,
            )
            return json.loads(child.stdout)

        in_sequence = run(commands)
        assert [code for code, _, _ in in_sequence] == [1, 2, 1]
        assert in_sequence == [run([argv])[0] for argv in commands]

    def test_out_is_not_kept_for_the_next_call(self, z2_files, tmp_path, capsys):
        group_out, measure_out = tmp_path / "g.json", tmp_path / "m.json"
        assert run_cli("recover", z2_files["cube"], "--out", group_out, "--out-measure", measure_out) == 0
        group_out.unlink()
        measure_out.unlink()
        before = sorted(tmp_path.iterdir())
        assert run_cli("recover", z2_files["cube"]) == 0
        assert sorted(tmp_path.iterdir()) == before

    def test_repeated_calls_leave_no_parser_garbage(self, z2_files, capsys):
        assert run_cli("check", z2_files["cube"]) == 0
        gc.collect()
        gc.garbage.clear()
        flags = gc.get_debug()
        gc.set_debug(flags | gc.DEBUG_SAVEALL)
        try:
            for argv in (("check", z2_files["cube"]), ("recover", z2_files["cube"]), ("validate",)) * 3:
                run_cli(*argv)
            gc.collect()
            parsers = [obj for obj in gc.garbage if isinstance(obj, argparse.ArgumentParser)]
        finally:
            gc.set_debug(flags)
            gc.garbage.clear()
        assert parsers == []


def test_only_main_writes_output():
    # commands return their exit code, document and lines, or raise a
    # refusal; main alone decides what goes to stdout and stderr
    tree = ast.parse(Path(hgforge.cli.__file__).read_text())
    main_def = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "main")
    inside_main = {id(node) for node in ast.walk(main_def)}
    writers = [
        node
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "print")
        or (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "sys"
            and node.attr in ("stdout", "stderr")
        )
    ]
    assert writers
    assert [node.lineno for node in writers if id(node) not in inside_main] == []


class TestByteDeterminism:
    def test_check_json_identical_across_processes(self, z2_files, child_env):
        # different hash seeds shake out any hash-order dependence
        def run(hashseed):
            return subprocess.run(
                [sys.executable, "-m", "hgforge", "check", str(z2_files["cube"]), "--format", "json"],
                capture_output=True,
                env=child_env(hashseed),
            )

        first = run("1")
        second = run("977")
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout


_SCALARS = st.one_of(
    st.integers(-3, 3),
    st.sampled_from(["1/2", "0.5", "-1/2", "1/0", "3/4", "1/4", "1e-4300", "1e4300", "1e-9999", "x", ""]),
    st.text(max_size=6),
    st.floats(allow_nan=True),
    st.booleans(),
    st.none(),
)
_JSON = st.recursive(
    _SCALARS | st.integers(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(["n", "entries"]) | st.text(max_size=3), children, max_size=3),
    max_leaves=20,
)


_ENTRIES = st.sampled_from([0, 1, "1/2", "1/3", "2/3", "0.25", "3/2", "-1/2", "1e-4300", "1e4300"])


@st.composite
def _cube_like(draw):
    """A document shaped like a cube whose scalars mostly parse, so that
    they reach validation and the checks; one in ten is arbitrary."""
    n = draw(st.integers(1, 3))

    def entry():
        return draw(_SCALARS) if draw(st.integers(0, 9)) == 0 else draw(_ENTRIES)

    entries = [[[entry() for _ in range(n)] for _ in range(n)] for _ in range(n)]
    declared = draw(_JSON) if draw(st.integers(0, 9)) == 0 else n
    return {"n": declared, "entries": entries}


class TestFuzz:
    @settings(max_examples=100)
    @given(
        command=st.sampled_from(["check", "validate", "recover"]),
        document=st.one_of(_JSON, _cube_like()),
    )
    def test_any_json_gives_an_exit_code(self, tmp_path_factory, command, document):
        path = tmp_path_factory.getbasetemp() / "fuzz.json"
        path.write_text(json.dumps(document))
        assert main([command, str(path)]) in (0, 1, 2, 3)
