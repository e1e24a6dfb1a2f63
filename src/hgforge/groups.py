"""Finite abelian groups: enumeration, Cayley tables, bases, canonical forms.

Groups are handled in two interchangeable forms.  The compact form is
the invariant-factor list (d_1, ..., d_m) with d_1 | d_2 | ... | d_m and
product n, which names each isomorphism class exactly once.  The
concrete form is a 1-based Cayley table with the identity at state 1.
A table computes, once and on first use, a basis of cyclic factors of
prime-power order together with every state's coordinates over it
(CayleyTable.basis), in O(n (p + e^2)) table lookups for each prime
power p^e that divides n exactly.
canonical_form reads the invariant factors off the basis orders, and
derivation.mixture_rank reads the group's characters off the coordinates.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

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
    per_prime = [[[p**k for k in part] for part in _partitions(e)] for p, e in sorted(_factorize(n).items())]
    groups = [_invariant_factors(combo) for combo in itertools.product(*per_prime)]
    groups.sort(key=lambda g: g.factors, reverse=True)
    return groups


def _invariant_factors(primary) -> InvariantFactors:
    """The invariant factors of a product of cyclic groups of prime-power
    order, given for each prime as the descending list of its orders.

    Factor s from the top is the product of each prime's s-th largest
    order: the top one takes every prime's largest, and so on down, so
    each factor divides the next.
    """
    width = max(map(len, primary), default=0)
    top_down = [math.prod(orders[s] for orders in primary if s < len(orders)) for s in range(width)]
    return InvariantFactors(tuple(reversed(top_down)))


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

    @cached_property
    def basis(self):
        """A basis of cyclic factors of prime-power order, and each state's
        coordinates over it: the pair (orders, coordinates).

        orders[i] is the order of basis element b_i, a prime power; the
        orders of one prime come together, largest first, and the primes
        ascend.  coordinates[s - 1] is the tuple c with state s equal to
        b_1^c_1 ... b_m^c_m and 0 <= c_i < orders[i].  Coordinates add
        under the group product, each modulo its order; the identity's are
        all 0, and the trivial group has the empty basis.  Computed on first
        use and kept, so canonical_form and derivation.mixture_rank share
        one basis per table.

        Built one prime p at a time, inside the states of p-power order
        (_primary_basis), then combined: a state is the product of its
        p-parts, one per prime, and its coordinates are theirs side by side.
        """
        rows = self.rows
        orders = []
        coordinates = {1: ()}
        for p, e in sorted(_factorize(self.n).items()):
            primary_orders, primary = _primary_basis(rows, p, e)
            orders += primary_orders
            coordinates = {rows[g - 1][h - 1]: cg + ch for g, cg in coordinates.items() for h, ch in primary.items()}
        return tuple(orders), tuple(coordinates[s] for s in range(1, self.n + 1))


def _primary_basis(rows, p, e):
    """The greedy basis of the states whose order divides p**e, in a
    group table of order n with p**e the largest power of p dividing n:
    its orders, and a map from each of those states to its coordinates.

    Let H be the span of the basis b_1 ... b_m chosen so far.  Take the
    first state x whose order modulo H is largest, say q = p^k, and write
    x^q as b_1^c_1 ... b_m^c_m.  Then q divides every c_i, from i = m
    down.  Modulo the span of b_1 ... b_(i-1), every state has order at
    most q_i, the order of b_i (orders modulo a growing span never rise,
    so q_i >= q).  There y = x times the b_j^(-c_j/q) with j > i, whose
    c_j are already known to be multiples of q, has y^q = b_i^c_i, so
    b_i^(c_i q_i / q) = y^(q_i) lies in that span, which b_i meets only in
    the identity: q_i divides c_i q_i / q.  The corrected b = x times
    the inverse of b_1^(c_1/q) ... b_m^(c_m/q) has b^q = 1 and meets H in
    the identity alone, so H times <b> is a direct product with q times as
    many states.  The cost is n (p - 1) lookups for the p-th powers, then
    at most e steps of O(e) lookups for each state of p-power order.
    """
    pth_power = [0] * (len(rows) + 1)  # state x -> x^p, 1-based
    for x in range(1, len(rows) + 1):
        y = x
        for _ in range(p - 1):
            y = rows[y - 1][x - 1]
        pth_power[x] = y
    primary = []
    for x in range(1, len(rows) + 1):
        y = x
        for _ in range(e):
            y = pth_power[y]
        if y == 1:
            primary.append(x)
    orders = []
    span = {1: ()}  # state of H -> its coordinates
    while len(span) < len(primary):
        q = 1
        for candidate in primary:
            power, k = candidate, 1
            while power not in span:
                power, k = pth_power[power], k * p
            if k > q:
                q, x, x_q = k, candidate, power
        at = {c: s for s, c in span.items()}
        b = rows[x - 1][at[tuple(-c // q % o for c, o in zip(span[x_q], orders))] - 1]
        orders.append(q)
        grown, b_j = {}, 1
        for j in range(q):
            for h, c in span.items():
                grown[rows[h - 1][b_j - 1]] = c + (j,)
            b_j = rows[b_j - 1][b - 1]
        span = grown
    return orders, span


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
    """Invariant factors of a validated table, read off its basis.

    The basis (CayleyTable.basis) splits the group into cyclic factors of
    prime-power order, so its orders are the group's elementary divisors,
    which name its class exactly; _invariant_factors assembles them into
    the divisibility chain.  No candidate class is built or compared, so
    the cost is the basis's, shared with derivation.mixture_rank.
    """
    primary = itertools.groupby(table.basis[0], key=lambda q: min(_factorize(q)))
    return _invariant_factors([list(orders) for _, orders in primary])
