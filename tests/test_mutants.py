import ast
import subprocess

import mutants


def _defined_tests(path):
    """The node ids, without parameters, that a test file defines."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            names.add(node.name)
        elif isinstance(node, ast.ClassDef):
            names.update(f"{node.name}::{f.name}" for f in node.body if isinstance(f, ast.FunctionDef))
    return names


def test_catalogue_entries_are_current():
    # the mutant runs stay outside tier-1 (python3 tests/mutants.py);
    # this only checks that each entry still applies and names real tests
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
    for mutant in mutants.MUTANTS:
        assert mutant.snippet != mutant.replacement, mutant.name
        assert mutants.occurrences(mutant) == 1, mutant.name
        assert mutant.tests, mutant.name
        for node in mutant.tests:
            path, _, name = node.partition("::")
            assert (mutants.ROOT / path).is_file(), node
            if name:
                assert name.split("[")[0] in _defined_tests(mutants.ROOT / path), node


def test_failed_nodes_read_from_the_summary():
    output = "\n".join(
        [
            "..F",
            "FAILED tests/test_a.py::TestX::test_y[8] - AssertionError: assert 1 == 2",
            "ERROR tests/test_b.py::test_z",
            "1 failed, 1 error in 0.10s",
        ]
    )
    assert mutants.failed_nodes(output) == {"tests/test_a.py::TestX::test_y[8]", "tests/test_b.py::test_z"}
    both = mutants.Mutant("m", "p", "s", "r", ("tests/test_a.py::TestX::test_y[8]", "tests/test_b.py::test_z"))
    one_passing = mutants.Mutant("m", "p", "s", "r", ("tests/test_a.py::TestX::test_y[8]", "tests/test_b.py::test_q"))
    assert mutants.killed(both, output, 1)
    assert not mutants.killed(both, output, 0)
    assert not mutants.killed(one_passing, output, 1)


def test_a_child_past_its_time_limit_is_a_timeout(monkeypatch, capsys):
    # no child is started: a stand-in for subprocess.run raises what
    # subprocess.run raises once the limit passes
    limits = []

    def overrun(command, **kwargs):
        limits.append(kwargs.get("timeout"))
        raise subprocess.TimeoutExpired(command, kwargs.get("timeout"))

    monkeypatch.setattr(mutants.subprocess, "run", overrun)
    mutant = mutants.MUTANTS[0]
    assert mutants.run(mutant) == "timeout"
    assert mutants.main([mutant.name]) == 1
    assert limits == [mutants.TIMEOUT] * 2
    assert capsys.readouterr().out.splitlines() == [
        f"timeout   {mutant.name}  ({len(mutant.tests)} node(s))",
        "0 of 1 mutants killed",
    ]
