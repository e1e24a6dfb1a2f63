"""Replay the recorded validate, check and recover reports byte for byte.

tests/data/golden_reports.json holds each input cube with the stdout,
stderr and exit code of every command run on it; make_golden_reports.py
in the same directory records them.
"""

import json
from pathlib import Path

import pytest

from hgforge.cli import main

CASES = json.loads((Path(__file__).parent / "data" / "golden_reports.json").read_text(encoding="utf-8"))


def test_cases_cover_every_reached_reason():
    reasons = {json.loads(case["runs"][-1]["stdout"]).get("reason") for case in CASES}
    assert reasons == {None, "fails-validation", "not-commutative", "not-associative", "fails-condition-a"}
    assert all(case["cube"]["n"] <= 5 for case in CASES)


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_reports_replay_byte_for_byte(case, tmp_path, capsys):
    path = tmp_path / "cube.json"
    path.write_text(json.dumps(case["cube"]), encoding="utf-8")
    for run in case["runs"]:
        argv = run["argv"]
        code = main([argv[0], str(path), *argv[1:]])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (run["exit"], run["stdout"], run["stderr"]), argv
