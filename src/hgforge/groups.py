"""Finite abelian groups: enumeration, Cayley tables, canonical forms.

Groups are handled in two interchangeable forms.  The compact form is
the invariant-factor list (d_1, ..., d_m) with d_1 | d_2 | ... | d_m and
product n, which names each isomorphism class exactly once.  The
concrete form is a 1-based Cayley table with the identity at state 1.
canonical_form maps a table back to its class via the multiset of
element orders, which separates abelian groups completely.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

DEFAULT_ORDER_CAP = 256


class InvalidTable(ValueError):
    """Raised when a claimed Cayley table fails the group axioms."""


@dataclass(frozen=True)
class InvariantFactors:
    """Invariant-factor name of an abelian group: (2, 4) is Z2 x Z4.

    The empty tuple names the trivial group of order 1.  A factor that
    is not an int (a float, a bool) is refused with ValueError.
    """

    factors: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        for d in self.factors:
            if type(d) is not int:
                raise ValueError(f"invariant factor {d!r} is not an integer")
            if d < 2:
                raise ValueError(f"invariant factor {d} is below 2")
        for a, b in zip(self.factors, self.factors[1:]):
            if b % a:
                raise ValueError(f"factor {a} does not divide the next factor {b}")

    @property
    def order(self) -> int:
        return math.prod(self.factors)

    def element_orders(self):
        """Multiset of element orders, computed without building a table."""
        orders = []
        for combo in itertools.product(*(range(d) for d in self.factors)):
            orders.append(math.lcm(*(d // math.gcd(d, t) for d, t in zip(self.factors, combo))))
        return sorted(orders) if orders else [1]


def _partitions(total):
    """All descending partitions of `total`, in descending lex order."""
    result = []

    def extend(prefix, remaining, cap):
        if remaining == 0:
            result.append(tuple(prefix))
            return
        for part in range(min(cap, remaining), 0, -1):
            prefix.append(part)
            extend(prefix, remaining - part, part)
            prefix.pop()

    extend([], total, total)
    return result


def _factorize(n):
    factors = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def enumerate_abelian_groups(n) -> list[InvariantFactors]:
    """Every abelian group of order n, once per isomorphism class.

    One entry per choice of an integer partition of each prime exponent;
    results are sorted in descending lexicographic order of the factor
    list, so the cyclic group comes first.  An n that is not an int (a
    float, a bool) and orders above DEFAULT_ORDER_CAP are refused.

    >>> [g.factors for g in enumerate_abelian_groups(8)]
    [(8,), (2, 4), (2, 2, 2)]
    """
    if type(n) is not int:
        raise ValueError(f"group order must be an integer, got {n!r}")
    if n < 1:
        raise ValueError(f"group order must be positive, got {n}")
    if n > DEFAULT_ORDER_CAP:
        raise ValueError(f"group order {n} exceeds the enumeration cap {DEFAULT_ORDER_CAP}")
    return _abelian_groups(n)


def _abelian_groups(n) -> list[InvariantFactors]:
    """enumerate_abelian_groups for any positive n, with no cap."""
    primes = sorted(_factorize(n).items())
    per_prime = [[(p, part) for part in _partitions(e)] for p, e in primes]
    groups = []
    for combo in itertools.product(*per_prime):
        width = max((len(part) for _, part in combo), default=0)
        factors = []
        for slot in range(width):
            d = 1
            for p, part in combo:
                if slot < len(part):
                    d *= p ** part[slot]
            factors.append(d)
        # parts are stored descending, so reversing gives the divisibility chain
        groups.append(InvariantFactors(tuple(reversed(factors))))
    groups.sort(key=lambda g: g.factors, reverse=True)
    return groups


def _generators(table):
    """A greedy generating set S of a table's states, 1-based.

    Starting with no state reached, add the first unreached state to S and
    close the reached states under right multiplication by every member of
    S; repeat until all n states are reached.  Each state reached is then a
    left-normed product of members of S.  In a group each new member at
    least doubles the subgroup reached, so after the identity (state 1,
    which a group table with its identity there adds first) at most
    log2(n) more are needed.
    """
    reached = set()
    gens = []
    for a in range(1, len(table) + 1):
        if a in reached:
            continue
        gens.append(a)
        reached.add(a)
        todo = list(reached)
        while todo:
            row = table[todo.pop() - 1]
            for s in gens:
                product = row[s - 1]
                if product not in reached:
                    reached.add(product)
                    todo.append(product)
    return gens


def _generators_associate(table):
    """Light's test: whether (x a) y = x (a y) for every member a of
    _generators(table) and all x, y.

    The states a that satisfy this for all x, y are closed under the
    product, so when they include a generating set the whole table is
    associative (Clifford and Preston, The Algebraic Theory of Semigroups
    I, section 1.2).  With rows padded by one slot, row x composed with row
    a is row x (a y) over y, and it must equal the row of x a.  Costs
    O(n**2 |S|) lookups against the O(n**3) of the full scan.
    """
    padded = [(0,) + row for row in table]
    for a in _generators(table):
        row_a = table[a - 1]
        for x, row_x in enumerate(table):
            if table[row_x[a - 1] - 1] != tuple(map(padded[x].__getitem__, row_a)):
                return False
    return True


def verify_group_axioms(rows) -> None:
    """Raise InvalidTable at the first group axiom an n*n table breaks.

    Order of testing: the table is square and non-empty, every value is
    an int in 1..n (a float or a bool is refused), every row and then
    every column is a permutation of 1..n, associativity, commutativity,
    and last the identity at state 1.  A broken axiom is reported with
    its first witness in scan order.  An associative Latin square is a
    group, so it has a two-sided identity, and the message of the last
    test locates it.  Associativity is first proved from a generating set
    (Light's test, _generators_associate) in O(n**2 log n) for a group;
    only when that fails does the O(n**3) scan run, to name the first
    failing triple.
    """
    table = tuple(map(tuple, rows))
    n = len(table)
    if n == 0 or any(len(row) != n for row in table):
        raise InvalidTable("table must be square and non-empty")
    for row in table:
        for x in row:
            if type(x) is not int:
                raise InvalidTable(f"table value {x!r} is not an integer")
            if not 1 <= x <= n:
                raise InvalidTable(f"table value {x} out of range 1..{n}")

    full = frozenset(range(1, n + 1))
    for where, lines in (("row", table), ("column", tuple(zip(*table)))):
        for i, line in enumerate(lines):
            if frozenset(line) != full:
                repeated = next(x for x in range(1, n + 1) if line.count(x) > 1)
                raise InvalidTable(
                    f"latin-square fails at ({i + 1},): expected each of 1..n once in the {where}, "
                    f"got value {repeated} repeats"
                )

    if not _generators_associate(table):
        for i in range(n):
            for j in range(n):
                tij = table[i][j]
                for k in range(n):
                    lhs = table[tij - 1][k]
                    rhs = table[i][table[j][k] - 1]
                    if lhs != rhs:
                        raise InvalidTable(
                            f"associativity fails at ({i + 1}, {j + 1}, {k + 1}): "
                            f"expected state {lhs}, got state {rhs}"
                        )

    for i in range(n):
        for j in range(i + 1, n):
            if table[i][j] != table[j][i]:
                raise InvalidTable(
                    f"commutativity fails at ({i + 1}, {j + 1}): "
                    f"expected state {table[i][j]}, got state {table[j][i]}"
                )

    # an associative Latin square is a group: its one left identity, the
    # state whose row is 1..n, is the two-sided identity
    identity = table.index(tuple(range(1, n + 1))) + 1
    if identity != 1:
        raise InvalidTable(f"identity at state {identity}, expected state 1")


@dataclass(frozen=True)
class CayleyTable:
    """Validated abelian-group table, 1-based, identity at state 1.

    Construction refuses an n that is not an int or not the row count,
    then runs verify_group_axioms, which raises InvalidTable at the first
    failure, a label that is not an int (a float, a bool) included; so
    holding a CayleyTable is proof of the group axioms.
    """

    n: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(map(tuple, self.rows)))
        if type(self.n) is not int or self.n != len(self.rows):
            raise InvalidTable(f"declared {self.n} states but table has {len(self.rows)} rows")
        verify_group_axioms(self.rows)

    def element_order(self, i) -> int:
        power, order = i, 1
        while power != 1:
            power = self.rows[power - 1][i - 1]
            order += 1
        return order


def cayley_table(factors: InvariantFactors) -> CayleyTable:
    """Concrete table for a factor list, componentwise addition.

    Elements are tuples over Z_{d_1} x ... x Z_{d_m} indexed in mixed
    radix with the first factor most significant; the zero tuple lands
    at state 1.
    """
    if not isinstance(factors, InvariantFactors):
        factors = InvariantFactors(tuple(factors))
    elements = list(itertools.product(*(range(d) for d in factors.factors)))
    index = {t: i for i, t in enumerate(elements)}
    rows = tuple(
        tuple(
            index[tuple((a + b) % d for a, b, d in zip(s, t, factors.factors))] + 1
            for t in elements
        )
        for s in elements
    )
    return CayleyTable(len(elements), rows)


def canonical_form(table: CayleyTable) -> InvariantFactors:
    """Invariant factors of a validated table, via element orders.

    The multiset of element orders determines a finite abelian group up
    to isomorphism, so matching it against each candidate class of the
    same order identifies the table's class exactly.
    """
    observed = sorted(table.element_order(i) for i in range(1, table.n + 1))
    candidates = _abelian_groups(table.n)
    return next(c for c in candidates if c.element_orders() == observed)
