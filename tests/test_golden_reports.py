"""Replay the recorded validate, check and recover reports byte for byte.

tests/data/golden_reports.json holds each input document with the
stdout, stderr and exit code of every command run on it;
make_golden_reports.py in the same directory records them.  Documents
the loader refuses are named "load-..."; every command on them exits 2
with nothing on stdout.
"""

import json
from pathlib import Path

import pytest

from hgforge.cli import main

CASES = json.loads((Path(__file__).parent / "data" / "golden_reports.json").read_text(encoding="utf-8"))
REFUSED = [case for case in CASES if case["name"].startswith("load-")]
LOADED = [case for case in CASES if not case["name"].startswith("load-")]


def test_cases_cover_every_reached_reason():
    reasons = {json.loads(case["runs"][-1]["stdout"]).get("reason") for case in LOADED}
    assert reasons == {None, "fails-validation", "not-commutative", "not-associative", "fails-condition-a"}
    assert all(case["cube"]["n"] <= 8 for case in LOADED)


def test_refused_documents_exit_two_with_one_error_line():
    assert len(REFUSED) >= 10
    for case in REFUSED:
        messages = {run["stderr"] for run in case["runs"]}
        assert len(messages) == 1, case["name"]
        (message,) = messages
        assert message.startswith("error: cube.json: ") and message.count("\n") == 1, case["name"]
        assert all(run["exit"] == 2 and run["stdout"] == "" for run in case["runs"]), case["name"]


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_reports_replay_byte_for_byte(case, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("cube.json").write_text(json.dumps(case["cube"]), encoding="utf-8")
    for run in case["runs"]:
        argv = run["argv"]
        code = main([argv[0], "cube.json", *argv[1:]])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (run["exit"], run["stdout"], run["stderr"]), argv
