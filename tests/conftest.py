from pathlib import Path

import pytest
from hypothesis import Phase, settings

import hgforge
from hgforge import InvariantFactors, cayley_table, validate_cube, validate_measure

settings.register_profile("suite", max_examples=25, derandomize=True, deadline=None)
# for tests/mutants.py, whose children select it with --hypothesis-profile:
# a failing example is reported as drawn, since shrinking it can take minutes
settings.register_profile("mutants", settings.get_profile("suite"), phases=(Phase.explicit, Phase.generate))
settings.load_profile("suite")


@pytest.fixture(scope="session")
def child_env():
    """Build the minimal environment for a child `python -m hgforge`.

    Only PATH, the given PYTHONHASHSEED and a PYTHONPATH naming the
    directory that holds the hgforge this process imported, so the child
    runs the same copy under test (a checkout's src/ or an installed
    package) and inherits no hash seed from the parent.
    """
    source = str(Path(hgforge.__file__).resolve().parents[1])

    def build(hashseed):
        return {"PYTHONHASHSEED": hashseed, "PATH": "/usr/bin:/bin", "PYTHONPATH": source}

    return build


@pytest.fixture(scope="session")
def z2_table():
    return cayley_table(InvariantFactors((2,)))


@pytest.fixture(scope="session")
def z2_measure():
    return validate_measure(["3/4", "1/4"])


@pytest.fixture(scope="session")
def z2_cube():
    # hand-derived: columns of the two translates of (3/4, 1/4)
    return validate_cube(
        [
            [["3/4", "1/4"], ["1/4", "3/4"]],
            [["1/4", "3/4"], ["3/4", "1/4"]],
        ]
    )


@pytest.fixture(scope="session")
def z3_cube():
    # Z_3 with m = (1/2, 1/4, 1/4): entry (i, j, k) is m[(k - i - j) mod 3],
    # written out by hand from that formula
    return validate_cube(
        [
            [
                ["1/2", "1/4", "1/4"],
                ["1/4", "1/2", "1/4"],
                ["1/4", "1/4", "1/2"],
            ],
            [
                ["1/4", "1/2", "1/4"],
                ["1/4", "1/4", "1/2"],
                ["1/2", "1/4", "1/4"],
            ],
            [
                ["1/4", "1/4", "1/2"],
                ["1/2", "1/4", "1/4"],
                ["1/4", "1/2", "1/4"],
            ],
        ]
    )


@pytest.fixture(scope="session")
def semilattice_cube():
    # both states idempotent, state 1 absorbs: the left action of state 1
    # repeats a column, so its rank drops to 1
    return validate_cube(
        [
            [[1, 0], [1, 0]],
            [[1, 0], [0, 1]],
        ]
    )


@pytest.fixture(scope="session")
def nonassoc_cube():
    # commutative but (e1*e1)*e2 = e1 while e1*(e1*e2) = e2
    return validate_cube(
        [
            [[0, 1], [1, 0]],
            [[1, 0], [1, 0]],
        ]
    )
