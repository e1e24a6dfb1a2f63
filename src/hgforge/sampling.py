"""Seeded generation of exact random measures.

Draws integer numerators on a fixed denominator grid and renormalizes,
so the results are exact rationals and a seed reproduces the same
measures on every platform (only random.Random.randint is used, whose
sequence is stable across Python versions).
"""

from __future__ import annotations

from .core import MeasureVector, rat, validate_measure
from .derivation import degeneracy_check

DEFAULT_DENOMINATOR = 1000


def random_measure(rng, n, denominator=DEFAULT_DENOMINATOR, positive=False) -> MeasureVector:
    """One exact measure: numerators in 0..denominator, renormalized.

    positive=True keeps every state's weight nonzero by drawing from
    1..denominator instead.  All-zero draws are redrawn; a denominator
    below 1 raises ValueError, since it allows no other draw, and so does
    an n below 1, which allows no draw at all.
    """
    if denominator < 1:
        raise ValueError(f"denominator must be at least 1, got {denominator}")
    if n < 1:
        raise ValueError(f"need at least one state, got {n}")
    low = 1 if positive else 0
    while True:
        numerators = [rng.randint(low, denominator) for _ in range(n)]
        total = sum(numerators)
        if total:
            return validate_measure([rat(k, total) for k in numerators])


def random_nondegenerate_measure(
    rng, table, denominator=DEFAULT_DENOMINATOR, positive=False, distinct=False
) -> MeasureVector:
    """Rejection-sample a measure whose derived cube keeps full structure.

    distinct=True additionally requires all n values to differ, which is
    what single-value group extraction needs.
    """
    for _ in range(10000):
        measure = random_measure(rng, table.n, denominator, positive)
        if distinct and len(set(measure.values)) != table.n:
            continue
        if degeneracy_check(table, measure).degenerate:
            continue
        return measure
    raise RuntimeError("no non-degenerate measure found in 10000 attempts")
