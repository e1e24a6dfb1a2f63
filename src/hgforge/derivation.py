"""Building cubes from an abelian group and a probability measure.

The product of states i and j in the derived structure is the translate
of the measure by the group product of i and j: the weight of state k in
the column of (i, j) is the measure of the state that multiplies (i j)
into k.  Equivalently, the left action of state i is G_i M, where G_i is
the translation permutation of i and M is the mixture matrix of the
measure; through it, recovery settles condition (A) with one rank.  The
cube and the degeneracy check both read the measure's n translates as
ints over its common denominator (_int_translates); only mixture_matrix
stays in Fractions, and a kernel vector is reported as Fractions.

The rank and the kernel of M both come from the group's characters,
not from eliminating M.  M is the sum of mu(g) T_g, and the characters
chi of the abelian group diagonalise every T_g at once, so the
eigenvalues of M are the sums of mu(g) chi(g), and its rank is the
number of them that are not 0 (the group determinant, Dedekind and
Frobenius).  Characters with one kernel are Galois conjugates and vanish
together (Perlis and Walker, Trans. AMS 68, 1950): for a class of order
d, push mu onto Z_d along one of its characters, and the class vanishes
exactly when that polynomial is divisible by the cyclotomic polynomial
Phi_d.  One pass over the classes (_vanishing_classes) names those that
vanish, in exact integer arithmetic on the measure's own integers, with
none of the entry growth of an elimination: one pass over the measure's
support per class, over the table's basis (groups.CayleyTable.basis),
and one division by Phi_d.  The rank is n less the sum of phi(d) over
them (mixture_rank), and the kernel is spanned by small-int vectors
built from those classes alone, whatever the measure's width
(_kernel_vector, which states the cost).

The construction degrades in exactly two ways, both detected here with
an exact witness: two translates of the measure can coincide (the cube
then has fewer than n distinct columns), or the mixture matrix can be
singular (the action matrices then drop rank).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from operator import mul

from .core import (
    DimensionMismatch,
    RationalMatrix,
    StructureCube,
    _fraction_free_eliminate,
    scale_to_integers,
    validate_measure,
)
from .groups import CayleyTable

NON_DEGENERATE = "non-degenerate"
REPEATED_TRANSLATES = "repeated-translates"
SINGULAR_MIXTURE = "singular-mixture"


@dataclass(frozen=True)
class DegeneracyVerdict:
    """How a (group, measure) pair degrades, if it does.

    kind "repeated-translates" comes with repeated_state: a state h > 1
    whose translate of the measure equals the measure itself.  kind
    "singular-mixture" comes with kernel_vector: a nonzero rational
    vector annihilated by the mixture matrix.
    """

    kind: str
    repeated_state: int | None = None
    kernel_vector: tuple | None = None

    @property
    def degenerate(self) -> bool:
        return self.kind != NON_DEGENERATE

    def describe(self) -> str:
        if self.kind == REPEATED_TRANSLATES:
            return f"repeated-translates: translating by state {self.repeated_state} fixes the measure"
        if self.kind == SINGULAR_MIXTURE:
            vec = ", ".join(str(x) for x in self.kernel_vector)
            return f"singular-mixture: mixture matrix kills ({vec})"
        return NON_DEGENERATE


def _translates(table: CayleyTable, values):
    """The n translates of a measure's values, one per group state.

    Entry k of translate g is the value at k g^{-1}.  Over the measure
    itself they are the columns of the mixture matrix; over its values
    times a common denominator, the integer product columns of the
    derived cube.
    """
    if table.n != len(values):
        raise DimensionMismatch(f"group has {table.n} states, measure has {len(values)}")
    rows = table.rows
    return [tuple(values[s - 1] for s in rows[row.index(1)]) for row in rows]


def mixture_matrix(table: CayleyTable, measure) -> RationalMatrix:
    """Measure-weighted sum of the translation permutations of a group.

    Column j is the measure translated by state j; column 1 is the
    measure itself.  Commutativity of the group makes this matrix
    commute with every translation permutation.
    """
    return RationalMatrix(tuple(zip(*_translates(table, validate_measure(measure).values))))


def _int_translates(table: CayleyTable, measure):
    """D and the n translates of the measure's values times D, as int
    tuples; the first is the measure itself, since state 1 is the
    identity.  scale_to_integers scales the values once, or raises
    OperandBoundError."""
    common, ints = scale_to_integers(validate_measure(measure).values)
    return common, _translates(table, ints)


def derive_cube(table: CayleyTable, measure) -> StructureCube:
    """Cube of all pairwise products of measure translates.

    Entry (i, j, k) is the measure of k (i j)^{-1}: column (i, j) is the
    translate of the measure by the product i j.  The cube's columns are
    the distinct int translates (_int_translates), equal ones merged, and
    its layout names the translate of each product from table.rows; row 1
    of the table is 1..n, so the columns come in the order the scan first
    uses them, as StructureCube requires.  The translates are probability
    vectors times D, so the cube is built without validating it again; it
    is commutative and associative, and its left action at state i equals
    G_i times the mixture matrix.
    """
    common, translates = _int_translates(table, measure)
    first = {}  # each distinct translate, at its index among the columns
    states = [first.setdefault(t, len(first)) for t in translates]
    layout = tuple(tuple(states[s - 1] for s in row) for row in table.rows)
    return StructureCube(table.n, common, tuple(first), layout)


def degeneracy_check(table: CayleyTable, measure) -> DegeneracyVerdict:
    """Detect either failure mode of the construction, with a witness.

    Checks translate collisions first: if any two translates coincide,
    some translate equals the measure itself (translating the collision
    by a group element moves it there), and the first such state is the
    witness.  Otherwise the classes of characters that kill the measure
    (_vanishing_classes) decide whether the mixture matrix, whose columns
    are the translates, drops rank, and a singular one gets its canonical
    kernel vector from those classes (_kernel_vector), with no
    elimination of the matrix.  Both steps read the int translates that
    derive_cube builds: scaling the measure by D changes neither which
    classes vanish nor the kernel.
    """
    translates = _int_translates(table, measure)[1]
    for h in range(1, table.n):
        if translates[h] == translates[0]:
            return DegeneracyVerdict(REPEATED_TRANSLATES, repeated_state=h + 1)
    vanishing = list(_vanishing_classes(table, translates[0]))
    if not vanishing:
        return DegeneracyVerdict(NON_DEGENERATE)
    return DegeneracyVerdict(SINGULAR_MIXTURE, kernel_vector=_kernel_vector(table, vanishing))


def mixture_rank(table: CayleyTable, values) -> int:
    """Rank of the mixture matrix of a group and a measure, from the
    group's characters (see the module docstring): n less phi(d) for
    each class of order d that kills the measure.

    values are the measure's values times one nonzero constant, as ints:
    a product column of a derived cube is one, and the rank does not
    depend on the constant.
    """
    return table.n - sum(phi for _, phi, _ in _vanishing_classes(table, values))


def _vanishing_classes(table: CayleyTable, values):
    """Yield (d, phi(d), exponents) for each class of characters, one of
    _character_classes, that kills the measure whose values (times any
    nonzero constant, as ints) are given.

    Over the table's basis, the character of a class with exponents e
    takes state g to the power t(g) = sum_i e_i c_i(g) of a primitive
    d-th root of unity, c(g) the coordinates of g; so the measure pushed
    onto Z_d along it is one pass over the nonzero values, and the class
    vanishes when Phi_d divides that polynomial.  The remainder modulo the
    monic integer polynomial Phi_d stays in ints.
    """
    if table.n != len(values):
        raise DimensionMismatch(f"group has {table.n} states, measure has {len(values)}")
    orders, coordinates = table.basis
    support = [(coordinates[g], v) for g, v in enumerate(values) if v]
    for d, phi, exponents in _character_classes(orders):
        pushed = [0] * d
        for c, v in support:
            pushed[sum(map(mul, exponents, c)) % d] += v
        _divide(pushed, *_cyclotomic(d))
        if not any(pushed):
            yield d, phi, exponents


def _kernel_vector(table: CayleyTable, vanishing):
    """The canonical kernel vector of a singular mixture matrix, from the
    classes of characters that kill its measure (_vanishing_classes), as
    Fractions.

    M acts by convolution with the measure, so its kernel is the set of
    functions whose transform lives on those classes.  A class of order
    d, with t(g) its exponent at state g, contributes phi(d) integer
    vectors: vector s, for s = 0 .. phi(d) - 1, sends g to the
    coefficient of x^t(g) in x^s Psi_d.  Psi_d = (x^d - 1) / Phi_d, the
    quotient that _divide returns, vanishes at every d-th root of unity
    but the primitive ones, and its degree d - phi(d) keeps x^s Psi_d
    below degree d, so no reduction modulo x^d - 1 is needed.  These
    k = n - rank vectors are a basis of the kernel, with small entries
    that do not depend on the measure's width.

    The canonical vector is primitive, with a positive first nonzero
    entry, zero past the first column f of M in the span of the columns
    before it, and nonzero at f: it is the kernel vector whose last
    nonzero entry comes first, unique up to scale.  Eliminating the basis
    from its last coordinate up (core._fraction_free_eliminate on the
    reversed vectors) leaves it as the last row.  The cost is O(n k^2)
    operations on ints no wider than a k x k minor of the basis.
    """
    rows = []
    for d, phi, exponents in vanishing:
        psi = _divide([-1] + [0] * (d - 1) + [1], *_cyclotomic(d)) + [0] * (phi - 1)
        at = [sum(map(mul, exponents, c)) % d for c in reversed(table.basis[1])]
        rows += [[psi[(t - s) % d] for t in at] for s in range(phi)]
    _fraction_free_eliminate(rows)
    vec = rows[-1][::-1]
    divisor = math.gcd(*vec)
    if next(x for x in vec if x) < 0:
        divisor = -divisor
    return tuple(Fraction(x // divisor) for x in vec)


# Both caches below are keyed by small ints or by the basis orders of a
# group, so they hold a few entries per group order seen.


@cache
def _character_classes(orders):
    """One character from each class of characters that share a kernel,
    for a group whose basis has these orders: (d, phi(d), exponents).

    A character sends basis element b_i to exp(2 pi i a_i / orders[i]);
    its order d is the lcm of orders[i] / gcd(a_i, orders[i]), and in
    terms of a primitive d-th root of unity its exponents are
    a_i d / orders[i].  Its class is the phi(d) characters u a with u
    prime to d, which generate the same cyclic group of characters.
    """
    classes, seen = [], set()
    for a in itertools.product(*map(range, orders)):
        if a in seen:
            continue
        d = math.lcm(*(o // math.gcd(x, o) for x, o in zip(a, orders)))
        units = [u for u in range(1, d + 1) if math.gcd(u, d) == 1]
        seen.update(tuple(u * x % o for x, o in zip(a, orders)) for u in units)
        classes.append((d, len(units), tuple(x * d // o for x, o in zip(a, orders))))
    return tuple(classes)


@cache
def _cyclotomic(d):
    """Phi_d as its degree and its nonzero terms (j, coefficient of x^j):
    x^d - 1 divided by every Phi_e with e a proper divisor of d."""
    poly = [-1] + [0] * (d - 1) + [1]
    for e in range(1, d):
        if d % e == 0:
            poly = _divide(poly, *_cyclotomic(e))
    return len(poly) - 1, tuple((j, a) for j, a in enumerate(poly) if a)


def _divide(poly, degree, terms):
    """Divide poly, a coefficient list lowest first, by the monic
    polynomial of that degree and those nonzero terms: poly is left
    holding the remainder, and the quotient is returned."""
    quotient = [0] * max(len(poly) - degree, 0)
    for top in range(len(poly) - 1, degree - 1, -1):
        c = poly[top]
        if c:
            quotient[top - degree] = c
            for j, a in terms:
                poly[top - degree + j] -= c * a
    return quotient
