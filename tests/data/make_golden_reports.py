"""Record the golden command-line reports replayed by tests/test_golden_reports.py.

    PYTHONPATH=src python tests/data/make_golden_reports.py

Builds about fifteen small cubes (n <= 5) and two condition-(A)
failures of orders 6 and 8 from first principles with stdlib Fractions,
plus a cube whose entries mix JSON ints, "p/q" and
decimal strings, a cube that writes one value as two strings, and a set
of documents the loader refuses (floats, booleans, wide exponents,
operands past the digit bound, wrong JSON types, an order past the cap,
one unparseable string at two places).  It runs validate, check and
recover on each through hgforge.cli.main in-process, from inside a
temporary directory so that an error message names the file as
"cube.json", and writes every input document with the stdout, stderr and
exit code of each command to golden_reports.json next to this file.
Rerun it only to re-record after an intended change of output; the test
then pins the new bytes.
"""

import contextlib
import io
import json
import os
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


def z2_z4(values):
    """Cube derived from Z_2 x Z_4, state 4a + b standing for (a, b)."""

    def product(s, t):
        return 4 * (s // 4 ^ t // 4) + (s + t) % 4

    def inverse(s):
        return s - s % 4 + -s % 4

    return [[[values[product(k, inverse(product(i, j)))] for k in range(8)] for j in range(8)] for i in range(8)]


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
    # D = 32 = 2**5; the first differing entry of the matrix route is
    # (3, 2) of pair (1, 1), and (3, 3) and (3, 4) of that row differ too
    dyadic = cyclic([F(1, 8), F(1, 8), F(1, 4), F(1, 8), F(3, 8)])
    shift(dyadic, 2, 2, 2, 4, F(1, 4))
    shift(dyadic, 1, 3, 2, 3, F(1, 2))
    shift(dyadic, 3, 1, 2, 3, F(1, 2))
    found["z5-dyadic-differs-inside-row"] = dyadic
    # D = 4; the first differing entry is (2, 2) of pair (1, 1), and its
    # product side is 1, i.e. D**2 before unscaling
    point = cyclic([F(1), F(0), F(0)])
    shift(point, 2, 0, 2, 0, F(1, 2))
    shift(point, 0, 2, 2, 0, F(1, 2))
    shift(point, 0, 0, 0, 1, F(1, 4))
    found["z3-dyadic-entry-equals-one"] = point
    # two characters of order 3 vanish on the measure: six distinct
    # columns, every rank 4
    found["z6-order-3-characters-vanish"] = cyclic([F(1, 6), F(1, 12), F(1, 4), F(1, 6), F(1, 4), F(1, 12)])
    # half the mass on the index-2 subgroup {(a, b): b even} of a
    # non-cyclic group: eight distinct columns, every rank 7
    found["z2xz4-index-2"] = z2_z4([F(1, 4), F(1, 5), F(1, 8), F(1, 10), F(3, 32), F(3, 20), F(1, 32), F(1, 20)])
    # columns (1, j) and (j, 1) agree, so plane 1 equals its right rows;
    # (2, 3) and (3, 2) differ, so planes 2 and 3 do not, and their left
    # ranks 2 and 3 against right ranks 3 and 2 tell the two apart
    a, b, c, half = [F(1), F(0), F(0)], [F(0), F(1), F(0)], [F(0), F(0), F(1)], [F(1, 2), F(1, 2), F(0)]
    found["partly-commutative-ranks-differ"] = [[a, b, c], [b, c, c], [c, a, half]]
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


# D of the two coprime entries is past the 2150-digit bound; each alone is not
WIDE_A, WIDE_B = 10**1100 + 1, 10**1100 + 3
# one entry with a 2150-digit denominator
WIDE_D = 10**2149 + 1


def refused_documents():
    """Documents the loader refuses with exit code 2, by name."""
    found = {}
    found["load-bare-float"] = {"n": 2, "entries": [[[0.75, "1/4"], ["1/4", "3/4"]], [["1/4", "3/4"], ["3/4", "1/4"]]]}
    found["load-boolean"] = {"n": 2, "entries": [[[1, 0], [0, True]], [[0, 1], [1, 0]]]}
    found["load-exponent-past-4300"] = {"n": 1, "entries": [[["1e-4301"]]]}
    found["load-denominator-one-wide-entry"] = {"n": 1, "entries": [[[f"1/{10**2150}"]]]}
    found["load-denominator-two-coprime-entries"] = {
        "n": 2,
        "entries": [
            [[f"1/{WIDE_A}", f"{WIDE_A - 1}/{WIDE_A}"], [0, 1]],
            [[0, 1], [f"1/{WIDE_B}", f"{WIDE_B - 1}/{WIDE_B}"]],
        ],
    }
    found["load-numerator-over-wide-denominator"] = {
        "n": 2,
        "entries": [[[f"1/{WIDE_D}", f"{WIDE_D - 1}/{WIDE_D}"], [0, 1]], [[0, 1], [11, -10]]],
    }
    found["load-numerator-json-int"] = {"n": 1, "entries": [[[10**2150]]]}
    found["load-not-an-object"] = [[[1]]]
    found["load-n-not-an-integer"] = {"n": "2", "entries": []}
    found["load-entries-not-a-list"] = {"n": 1, "entries": {"0": [[1]]}}
    found["load-column-not-a-list"] = {"n": 2, "entries": [[[1, 0], 7], [[0, 1], [1, 0]]]}
    found["load-entry-null"] = {"n": 2, "entries": [[[1, 0], [0, 1]], [[0, None], [1, 0]]]}
    found["load-entry-object"] = {"n": 1, "entries": [[[{"p": 1, "q": 1}]]]}
    found["load-order-past-the-cap"] = {"n": 257, "entries": []}
    # the same unparseable string twice: the error names its first location
    found["load-repeated-unparseable-string"] = {
        "n": 2,
        "entries": [[["1/2", "1/2"], ["1/0", 1]], [[0, 1], ["1/0", 0]]],
    }
    return found


def mixed_document():
    """Z_3 derived from (1/2, 1/2, 0), each entry 1/2 written one of five
    ways and each 0 as the JSON int: the loader must read all of them as
    the same scalars."""
    halves = ["1/2", "0.5", "2/4", "5e-1", "0.50"]
    entries = cyclic([1, 1, 0])
    count = 0
    for plane in entries:
        for column in plane:
            for k, x in enumerate(column):
                if x:
                    column[k] = halves[count % len(halves)]
                    count += 1
    return {"n": 3, "entries": entries}


def two_spellings_document():
    """Z_3 derived from (1/2, 1/3, 1/6), its 1/2 written as "1/2" and as
    "2/4" in turn: equal values under different strings stay equal."""
    entries = cyclic(["1/2", "1/3", "1/6"])
    count = 0
    for plane in entries:
        for column in plane:
            for k, x in enumerate(column):
                if x == "1/2":
                    column[k] = ("1/2", "2/4")[count % 2]
                    count += 1
    return {"n": 3, "entries": entries}


def run(main, path, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([argv[0], path, *argv[1:]])
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def record():
    sys.path.insert(0, str(HERE.parent.parent / "src"))
    from hgforge.cli import main

    documents = {name: document(entries) for name, entries in cubes().items()}
    documents["z3-mixed-scalar-forms"] = mixed_document()
    documents["z3-half-written-two-ways"] = two_spellings_document()
    documents.update(refused_documents())
    cases = []
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            for name, doc in documents.items():
                Path("cube.json").write_text(json.dumps(doc), encoding="utf-8")
                runs = [run(main, "cube.json", argv) for argv in COMMANDS]
                cases.append({"name": name, "cube": doc, "runs": runs})
        finally:
            os.chdir(home)
    OUT.write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")
    return cases


if __name__ == "__main__":
    print(f"recorded {len(record())} cubes to {OUT}")
