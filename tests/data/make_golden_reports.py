"""Record the golden command-line reports replayed by tests/test_golden_reports.py.

    PYTHONPATH=src python tests/data/make_golden_reports.py

Builds about a dozen small cubes (n <= 5) from first principles with
stdlib Fractions, runs validate, check and recover on each through
hgforge.cli.main in-process, and writes every input document with the
stdout, stderr and exit code of each command to golden_reports.json
next to this file.  Rerun it only to re-record after an intended change
of output; the test then pins the new bytes.
"""

import contextlib
import io
import json
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "golden_reports.json"

COMMANDS = (
    ("validate",),
    ("validate", "--format", "json"),
    ("check",),
    ("check", "--format", "json", "--witness-cap", "1"),
    ("check", "--format", "json", "--witness-cap", "16"),
    ("recover",),
    ("recover", "--format", "json"),
)


def cyclic(values):
    """Cube derived from Z_n and a measure: entry (i, j, k) is m[(k - i - j) mod n]."""
    n = len(values)
    return [[[values[(k - i - j) % n] for k in range(n)] for j in range(n)] for i in range(n)]


def klein(values):
    """Cube derived from Z_2 x Z_2, states labelled so that the product is XOR."""
    return [[[values[k ^ i ^ j] for k in range(4)] for j in range(4)] for i in range(4)]


def shift(cube, i, j, source, target, share):
    """Move share times entry source of column (i, j) to entry target."""
    column = cube[i][j]
    amount = column[source] * share
    column[source] -= amount
    column[target] += amount


def cubes():
    F = Fraction
    found = {}
    found["z2-derived"] = cyclic([F(3, 4), F(1, 4)])
    found["z3-repeated-values"] = cyclic([F(1, 2), F(1, 4), F(1, 4)])
    found["z4-mixed-denominators"] = cyclic([F(1, 10), F(1, 5), F(3, 10), F(2, 5)])
    found["klein-derived"] = klein([F(1, 2), F(1, 3), F(1, 12), F(1, 12)])
    found["z5-point-mass"] = cyclic([F(1), F(0), F(0), F(0), F(0)])
    found["single-state"] = [[[F(1)]]]
    found["semilattice"] = [[[F(1), F(0)], [F(1), F(0)]], [[F(1), F(0)], [F(0), F(1)]]]
    found["non-associative"] = [[[F(0), F(1)], [F(1), F(0)]], [[F(1), F(0)], [F(1), F(0)]]]
    found["non-commutative"] = [[[F(1), F(0)], [F(1), F(0)]], [[F(0), F(1)], [F(0), F(1)]]]
    # half the mass on the squares {0, 2} of Z_4: singular mixture matrix,
    # four distinct columns, ranks 3
    found["index-2"] = cyclic([F(3, 8), F(1, 6), F(1, 8), F(1, 3)])
    found["uniform-repeated-translates"] = cyclic([F(1, 3), F(1, 3), F(1, 3)])
    # one column per prime: D exceeds every single denominator
    perturbed = cyclic([F(1, 5), F(1, 10), F(3, 10), F(1, 4), F(3, 20)])
    shift(perturbed, 0, 1, 0, 2, F(1, 7))
    shift(perturbed, 3, 2, 2, 4, F(1, 11))
    shift(perturbed, 4, 4, 1, 3, F(1, 13))
    found["z5-perturbed-primes"] = perturbed
    # the same shift on (1, 2) and (2, 1): still commutative, not associative
    symmetric = cyclic([F(1, 2), F(1, 3), F(1, 6)])
    shift(symmetric, 0, 1, 0, 1, F(1, 7))
    shift(symmetric, 1, 0, 0, 1, F(1, 7))
    found["z3-symmetric-perturbation"] = symmetric
    found["invalid-negative-entry"] = [
        [[F(3, 2), F(-1, 2)], [F(1, 4), F(3, 4)]],
        [[F(1, 4), F(3, 4)], [F(-1, 3), F(4, 3)]],
    ]
    found["invalid-column-sums"] = [
        [[F(1, 2), F(2, 5)], [F(1, 4), F(3, 4)]],
        [[F(1, 4), F(3, 4)], [F(1, 3), F(1, 7)]],
    ]
    return found


def scalar(q):
    return q.numerator if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def document(entries):
    return {"n": len(entries), "entries": [[[scalar(q) for q in col] for col in plane] for plane in entries]}


def run(main, path, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([argv[0], path, *argv[1:]])
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def record():
    sys.path.insert(0, str(HERE.parent.parent / "src"))
    from hgforge.cli import main

    cases = []
    with tempfile.TemporaryDirectory() as workdir:
        for name, entries in cubes().items():
            doc = document(entries)
            path = str(Path(workdir) / "cube.json")
            Path(path).write_text(json.dumps(doc), encoding="utf-8")
            runs = [run(main, path, argv) for argv in COMMANDS]
            cases.append({"name": name, "cube": doc, "runs": runs})
    OUT.write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")
    return cases


if __name__ == "__main__":
    print(f"recorded {len(record())} cubes to {OUT}")
