"""Replay the recorded validate, check and recover reports byte for byte.

tests/data/golden_reports.json holds each input document with the
stdout, stderr and exit code of every command run on it;
make_golden_reports.py in the same directory records them.  Documents
the loader refuses are named "load-..."; every command on them exits 2
with nothing on stdout.  The recorded check reports cover --property
all; each single selection must print exactly its part of that report.
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


# the report names each single --property selection contributes to "all"
SLICES = {
    "commutative": ("commutative",),
    "associative": ("associative-matrix", "associative-bruteforce"),
    "condition-a": ("condition-a",),
    "corollaries": ("corollaries",),
}


def _run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _text_blocks(out):
    """Lines of a text report grouped into blocks, each opened by an unindented line."""
    blocks = []
    for line in out.splitlines(keepends=True):
        if not line.startswith(" "):
            blocks.append([])
        blocks[-1].append(line)
    return blocks


@pytest.mark.parametrize("case", LOADED, ids=[case["name"] for case in LOADED])
def test_single_property_is_a_slice_of_all(case, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("cube.json").write_text(json.dumps(case["cube"]), encoding="utf-8")
    for cap in ("1", "16"):
        common = ["check", "cube.json", "--witness-cap", cap]
        all_text = _run(common, capsys)
        all_json = _run([*common, "--format", "json"], capsys)
        whole = json.loads(all_json[1])
        for selection, names in SLICES.items():
            single = [*common, "--property", selection]
            text = _run(single, capsys)
            out = _run([*single, "--format", "json"], capsys)
            if "properties" not in whole:  # an invalid cube: the violations report
                assert (text, out) == (all_text, all_json), single
                continue
            properties = [p for p in whole["properties"] if p["name"] in names]
            expected = {**whole, "holds": all(p["holds"] for p in properties), "properties": properties}
            code = 0 if expected["holds"] else 1
            assert out == (code, json.dumps(expected, indent=2, ensure_ascii=True) + "\n", ""), single
            blocks = [b for b in _text_blocks(all_text[1]) if b[0].split(":")[0] in names]
            assert text == (code, "".join(line for block in blocks for line in block), ""), single
