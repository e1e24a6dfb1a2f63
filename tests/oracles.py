"""Independent oracles the tests check the implementation against.

Everything here is written from first principles with stdlib Fractions
and deliberately shares no code with the package: different formulas,
different elimination, different enumeration.  Slow is fine; these run
at small n.
"""

import itertools
import math
from fractions import Fraction


def oracle_derive(rows, values):
    """Forward construction via the translate formula, independently.

    Entry (i, j, k) is the measure of g_k * g_j^{-1} * g_i^{-1}, using
    inverse search by scanning rows for the identity.  The package
    computes m[k * (i j)^{-1}] instead; for an abelian table the two
    agree, which is exactly what the comparison tests establish.
    """
    n = len(rows)
    inverse = [row.index(1) + 1 for row in rows]

    def mul(a, b):
        return rows[a - 1][b - 1]

    return [
        [
            [values[mul(mul(k, inverse[j - 1]), inverse[i - 1]) - 1] for k in range(1, n + 1)]
            for j in range(1, n + 1)
        ]
        for i in range(1, n + 1)
    ]


def partition_count(k):
    """Number of integer partitions of k, by the parts-bounded recurrence."""
    ways = [[0] * (k + 1) for _ in range(k + 1)]
    for largest in range(k + 1):
        ways[largest][0] = 1
    for largest in range(1, k + 1):
        for total in range(1, k + 1):
            ways[largest][total] = ways[largest - 1][total]
            if total >= largest:
                ways[largest][total] += ways[largest][total - largest]
    return ways[k][k]


def cofactor_det(rows):
    """Determinant by first-row cofactor expansion, exact Fractions."""
    n = len(rows)
    if n == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for c in range(n):
        if not rows[0][c]:
            continue
        minor = [[row[x] for x in range(n) if x != c] for row in rows[1:]]
        sign = -1 if c % 2 else 1
        total += sign * Fraction(rows[0][c]) * cofactor_det(minor)
    return total


def matmul(left, right):
    """Product of two matrices given as rows, by the textbook triple sum."""
    inner = range(len(right))
    return [
        [sum((Fraction(left[r][k]) * Fraction(right[k][c]) for k in inner), Fraction(0))
         for c in range(len(right[0]))]
        for r in range(len(left))
    ]


def left_action(entries, i):
    """Rows of the left action of state i (1-based) on a cube's entries:
    column j is the product column of (i, j)."""
    n = len(entries)
    return [[Fraction(entries[i - 1][c][r]) for c in range(n)] for r in range(n)]


def right_action(entries, i):
    """Rows of the right action of state i (1-based): column j is the
    product column of (j, i)."""
    n = len(entries)
    return [[Fraction(entries[c][i - 1][r]) for c in range(n)] for r in range(n)]


def translation_matrices(rows):
    """0/1 matrix G_g of each state g of a 1-based table, as rows.

    G_g sends the indicator of state j to the indicator of g j, so
    entry (r, c) is 1 exactly when g c is state r + 1.
    """
    n = len(rows)
    return [
        [[Fraction(int(rows[g][c] == r + 1)) for c in range(n)] for r in range(n)]
        for g in range(n)
    ]


def fraction_rank(rows):
    """Rank by plain rational Gaussian elimination, nothing clever."""
    work = [[Fraction(x) for x in row] for row in rows]
    n_rows = len(work)
    n_cols = len(work[0])
    rank = 0
    for c in range(n_cols):
        pivot = next((r for r in range(rank, n_rows) if work[r][c]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = 1 / work[rank][c]
        work[rank] = [x * inv for x in work[rank]]
        for r in range(n_rows):
            if r != rank and work[r][c]:
                f = work[r][c]
                work[r] = [a - f * b for a, b in zip(work[r], work[rank])]
        rank += 1
        if rank == n_rows:
            break
    return rank


def first_dependent_column(rows):
    """First column f in the span of the columns before it, or None.

    Rational Gaussian elimination, column by column: f is the first
    column that holds no pivot below the rows already used, since the
    earlier columns then span it.  A kernel vector that is zero past f
    and nonzero at f exists exactly for this f, and is unique up to
    scale.
    """
    work = [[Fraction(x) for x in row] for row in rows]
    used = 0
    for f in range(len(work[0])):
        pivot = next((r for r in range(used, len(work)) if work[r][f]), None)
        if pivot is None:
            return f
        work[used], work[pivot] = work[pivot], work[used]
        for r in range(used + 1, len(work)):
            if work[r][f]:
                factor = work[r][f] / work[used][f]
                work[r] = [a - factor * b for a, b in zip(work[r], work[used])]
        used += 1
    return None


def assert_canonical_kernel(rows, kernel):
    """kernel is the one canonical vector of the matrix rows, or None.

    With f the first dependent column (by the oracle's ranks), the
    canonical vector is the primitive integer kernel vector that is zero
    past f and nonzero at f, with a positive first nonzero entry.
    """
    f = first_dependent_column(rows)
    if f is None:
        assert kernel is None
        return
    assert kernel is not None and len(kernel) == len(rows[0])
    assert all(x.denominator == 1 for x in kernel)
    ints = [x.numerator for x in kernel]
    assert all(sum(Fraction(r) * v for r, v in zip(row, ints)) == 0 for row in rows)
    assert all(v == 0 for v in ints[f + 1 :])
    assert ints[f] != 0
    assert math.gcd(*ints) == 1
    assert next(v for v in ints if v) > 0


def oracle_mixture(rows, values):
    """Mixture matrix of a group table and a measure, as a list of rows.

    Weight k goes to row (k j) of column j, one cell at a time.
    """
    n = len(rows)
    cells = [[Fraction(0)] * n for _ in range(n)]
    for k in range(n):
        for j in range(n):
            cells[rows[k][j] - 1][j] = Fraction(values[k])
    return cells


def subgroup_element_sets(rows):
    """All subgroups of a small group, as frozensets of 1-based states.

    Generates the closure of every subset of up to three elements plus
    the whole set; for abelian groups of order at most 10 (rank at most
    three, e.g. Z_2 x Z_2 x Z_2) that reaches every subgroup.
    """
    from itertools import combinations

    n = len(rows)
    states = range(1, n + 1)

    def closure(gens):
        members = {1}
        frontier = set(gens) | {1}
        while frontier:
            new = set()
            for a in frontier:
                for b in members | frontier:
                    new.add(rows[a - 1][b - 1])
            members |= frontier
            frontier = new - members
        return frozenset(members)

    found = {closure(())}
    for size in (1, 2, 3):
        for gens in combinations(states, size):
            found.add(closure(gens))
    found.add(frozenset(states))
    return found


def uniform_on_subgroup(n, members):
    """Measure spreading mass evenly over a subgroup's states."""
    share = Fraction(1, len(members))
    return [share if k in members else Fraction(0) for k in range(1, n + 1)]


def coset_measure(rng, rows, h):
    """Random weights constant on the cosets of {1, h}, for a state h of
    order 2 of a 1-based table: the translates of the measure repeat, so
    the derived cube is associative but fails condition (A)."""
    n = len(rows)
    weights = {}
    for s in range(1, n + 1):
        weights[s] = weights.get(rows[s - 1][h - 1]) or rng.randint(1, 50)
    total = sum(weights.values())
    return [Fraction(weights[s], total) for s in range(1, n + 1)]


def index_two_measure(rng, rows):
    """Half the mass on the squares of a 1-based table, an index-2
    subgroup, half off it: a singular mixture, so the derived cube is
    associative but fails condition (A)."""
    n = len(rows)
    squares = {rows[s - 1][s - 1] for s in range(1, n + 1)}
    draws = [rng.randint(1, 50) for _ in range(n)]
    inside = sum(d for s, d in enumerate(draws, 1) if s in squares)
    outside = sum(draws) - inside
    return [Fraction(d, 2 * (inside if s in squares else outside)) for s, d in enumerate(draws, 1)]


def perturbed_entries(entries, rng, symmetric):
    """The entries of a cube with mass moved within one off-diagonal
    column, as Fractions; column sums and signs are kept.  With
    symmetric=True the mirror column moves with it, so a commutative cube
    stays commutative."""
    n = len(entries)
    work = [[[Fraction(q) for q in col] for col in plane] for plane in entries]
    i, j = rng.sample(range(n), 2)
    column = work[i][j]
    p = rng.choice([k for k in range(n) if column[k] > 0])
    q = rng.choice([k for k in range(n) if k != p])
    shift = column[p] * Fraction(1, rng.randint(2, 9))
    column[p] -= shift
    column[q] += shift
    if symmetric:
        work[j][i] = list(column)
    return work


def search_nonassociative_loop(n=5):
    """Backtracking search for a Latin square with identity at state 1
    that fails associativity; the smallest exists at n = 5."""
    rows = [[0] * n for _ in range(n)]
    rows[0] = list(range(1, n + 1))
    for i in range(n):
        rows[i][0] = i + 1

    def associative(full):
        for i in range(n):
            for j in range(n):
                ij = full[i][j]
                for k in range(n):
                    if full[ij - 1][k] != full[i][full[j][k] - 1]:
                        return False
        return True

    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(idx):
        if idx == len(cells):
            return not associative(rows)
        i, j = cells[idx]
        used_row = set(rows[i])
        used_col = {rows[r][j] for r in range(n)}
        for v in range(1, n + 1):
            if v in used_row or v in used_col:
                continue
            rows[i][j] = v
            if fill(idx + 1):
                return True
            rows[i][j] = 0
        return False

    if not fill(0):
        raise AssertionError(f"no non-associative loop of order {n} found")
    return [tuple(r) for r in rows]


def first_nonassociative_triple(rows):
    """The first (a, b, c), in lexicographic order of 1-based states, with
    (a b) c != a (b c) in a table of 1-based labels, together with both
    products, as (a, b, c, (a b) c, a (b c)); None when every triple
    associates."""
    size = len(rows)
    product = {(a, b): rows[a - 1][b - 1] for a in range(1, size + 1) for b in range(1, size + 1)}
    states = range(1, size + 1)
    for a, b, c in ((a, b, c) for a in states for b in states for c in states):
        left, right = product[product[a, b], c], product[a, product[b, c]]
        if left != right:
            return a, b, c, left, right
    return None


def relabel_table(rows, perm):
    """A 1-based group table under a permutation of its states: perm[i-1]
    is the new label of old state i.  Keeping perm[0] == 1 keeps the
    identity at state 1."""
    n = len(rows)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[perm[i] - 1][perm[j] - 1] = perm[rows[i][j] - 1]
    return out


def element_orders(factors):
    """Sorted multiset of element orders of Z_{d_1} x ... x Z_{d_m},
    without a table: a tuple t has order lcm over i of d_i / gcd(d_i, t_i)."""
    return sorted(
        math.lcm(*(d // math.gcd(d, t) for d, t in zip(factors, combo)))
        for combo in itertools.product(*(range(d) for d in factors))
    )


def table_element_orders(rows):
    """Sorted multiset of element orders of a 1-based group table whose
    identity is state 1, by multiplying each state by itself until the
    identity comes back."""
    orders = []
    for g in range(1, len(rows) + 1):
        power, order = g, 1
        while power != 1:
            power, order = rows[power - 1][g - 1], order + 1
        orders.append(order)
    return sorted(orders)


def factor_chains(n):
    """Every chain (d_1, ..., d_m) with 2 <= d_1, each d_i dividing the
    next, and product n, by trying every divisor in turn: one chain per
    abelian group of order n."""
    chains = []

    def extend(chain, rest):
        if rest == 1:
            chains.append(tuple(chain))
            return
        for d in range(chain[-1] if chain else 2, rest + 1, chain[-1] if chain else 1):
            if rest % d == 0:
                extend(chain + [d], rest // d)

    extend([], n)
    return chains


def oracle_canonical_form(rows):
    """The chain of factor_chains whose element orders are the table's:
    the multiset of element orders separates finite abelian groups."""
    observed = table_element_orders(rows)
    return next(chain for chain in factor_chains(len(rows)) if element_orders(chain) == observed)


def relabel_cube(entries, perm):
    """Apply one permutation of states to all three axes.

    perm is 1-based: perm[i-1] is the new label of old state i.  Returns
    nested lists indexed by the new labels.
    """
    n = len(entries)
    out = [[[None] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                out[perm[i] - 1][perm[j] - 1][perm[k] - 1] = entries[i][j][k]
    return out


def _fraction_cube(entries):
    return [[[Fraction(q) for q in col] for col in plane] for plane in entries]


def _vector_text(values):
    return "(" + ", ".join(str(v) for v in values) + ")"


def oracle_associativity(entries):
    """Expected associativity-style reports of a cube, from first principles.

    Multiplies weight vectors over the states bilinearly through the
    cube, all in Fractions, and compares the column of (i*j)*m with that
    of i*(j*m) for every triple.  Returns a dict from report name to
    (violation_count, witnesses), each witness an (indices, expected,
    actual) triple of the strings the package's reports use:

      associative-bruteforce  per triple (i, j, m): the two columns
      associative-matrix      per pair (i, j): the first entry (r, c),
                              row by row, where the product of the left
                              actions of i and j, i*(j*c) at r, differs
                              from the mix of actions, (i*j)*c at r
      product-columns         per pair (k, j): k*(k*j) against (k*k)*j
    """
    n = len(entries)
    cube = _fraction_cube(entries)

    def times(x, y):
        # a zero weight or a zero entry adds nothing to the sum
        out = [Fraction(0)] * n
        for a in range(n):
            if not x[a]:
                continue
            for b in range(n):
                weight = x[a] * y[b]
                if weight:
                    for k, entry in enumerate(cube[a][b]):
                        if entry:
                            out[k] += weight * entry
        return out

    def point(state):
        return [Fraction(1 if k == state else 0) for k in range(n)]

    left = {}  # (i, j, m) -> column of (i*j)*m
    right = {}  # (i, j, m) -> column of i*(j*m)
    for i in range(n):
        for j in range(n):
            for m in range(n):
                left[i, j, m] = times(cube[i][j], point(m))
                right[i, j, m] = times(point(i), cube[j][m])

    brute = [
        ((i + 1, j + 1, m + 1), _vector_text(left[i, j, m]), _vector_text(right[i, j, m]))
        for i in range(n)
        for j in range(n)
        for m in range(n)
        if left[i, j, m] != right[i, j, m]
    ]
    matrix = []
    for i in range(n):
        for j in range(n):
            cells = [
                (r, c)
                for r in range(n)
                for c in range(n)
                if right[i, j, c][r] != left[i, j, c][r]
            ]
            if cells:
                r, c = cells[0]
                matrix.append(
                    (
                        (i + 1, j + 1),
                        f"entry ({r + 1}, {c + 1}) = {right[i, j, c][r]}",
                        f"entry ({r + 1}, {c + 1}) = {left[i, j, c][r]}",
                    )
                )
    products = [
        ((k + 1, j + 1), _vector_text(right[k, k, j]), _vector_text(left[k, k, j]))
        for k in range(n)
        for j in range(n)
        if right[k, k, j] != left[k, k, j]
    ]
    return {
        "associative-bruteforce": (len(brute), brute),
        "associative-matrix": (len(matrix), matrix),
        "product-columns": (len(products), products),
    }


def oracle_commutativity(entries):
    """Witnesses of non-commutativity, pair by pair with i < j: the column
    of (i, j) against the column of (j, i), compared entry by entry."""
    cube = _fraction_cube(entries)
    n = len(cube)
    return [
        ((i + 1, j + 1), _vector_text(cube[i][j]), _vector_text(cube[j][i]))
        for i in range(n)
        for j in range(i + 1, n)
        if any(a != b for a, b in zip(cube[i][j], cube[j][i]))
    ]


def oracle_distinct_columns(entries):
    """Number of product columns equal to no column scanned before them."""
    columns = [col for plane in _fraction_cube(entries) for col in plane]
    return sum(all(col != earlier for earlier in columns[:index]) for index, col in enumerate(columns))


def oracle_multiset_corollaries(entries):
    """Expected witnesses of the three multiset corollaries, by name.

    Multisets are compared as value counts (collections.Counter) and
    shown sorted, as the package's reports show them:

      column-contents       each column (i, j) against column (1, 1), then
                            one witness with empty indices if the cube
                            holds more than n distinct values
      constant-diagonals    entry (j, j) of column (i, j) against entry
                            (1, 1) of column (i, 1), for j > 1
      row-column-contents   within plane i, columns 2..n and then rows
                            1..n against column (i, 1)
    """
    from collections import Counter

    cube = _fraction_cube(entries)
    n = len(cube)

    def differs(base, values):
        return Counter(base) != Counter(values)

    def witness(indices, base, values):
        return (indices, _vector_text(sorted(base)), _vector_text(sorted(values)))

    contents = [
        witness((i + 1, j + 1), cube[0][0], cube[i][j])
        for i in range(n)
        for j in range(n)
        if differs(cube[0][0], cube[i][j])
    ]
    values = {q for plane in cube for col in plane for q in col}
    if len(values) > n:
        contents.append(((), f"at most {n} distinct values in the cube", f"{len(values)} distinct values"))
    diagonals = [
        ((i + 1, j + 1), str(cube[i][0][0]), str(cube[i][j][j]))
        for i in range(n)
        for j in range(1, n)
        if cube[i][j][j] != cube[i][0][0]
    ]
    rows_cols = []
    for i in range(n):
        base = cube[i][0]
        rows_cols += [witness((i + 1, j + 1), base, cube[i][j]) for j in range(1, n) if differs(base, cube[i][j])]
        for r in range(n):
            row = [cube[i][c][r] for c in range(n)]
            if differs(base, row):
                rows_cols.append(witness((i + 1, r + 1), base, row))
    return {"column-contents": contents, "constant-diagonals": diagonals, "row-column-contents": rows_cols}


def oracle_violations(entries):
    """Violations of an n*n*n cube of rationals, as (kind, indices, detail):
    per column (i, j) in scan order, its negative entries, then its sum
    if that is not one."""
    cube = _fraction_cube(entries)
    n = len(cube)
    found = []
    for i in range(n):
        for j in range(n):
            col = cube[i][j]
            found += [("negative-entry", (i + 1, j + 1, k + 1), str(col[k])) for k in range(n) if col[k] < 0]
            total = sum(col, Fraction(0))
            if total != 1:
                found.append(("column-sum-not-one", (i + 1, j + 1), f"sums to {total}"))
    return found


def int_planes(cube):
    """The int product columns of a cube nested plane by plane: (i, j)
    is the column that cube.layout[i][j] names among cube.columns."""
    return tuple(tuple(cube.columns[c] for c in row) for row in cube.layout)


# digits allowed in a document's common denominator and in each numerator over it
OPERAND_DIGITS = 2150


def oracle_load(doc):
    """What loading a well-typed cube document must give, in Fractions.

    doc is {"n": n, "entries": n*n*n} with JSON ints, "p/q" strings and
    decimal strings.  Returns ("bound", "denominator") when the common
    denominator D reaches OPERAND_DIGITS digits, ("bound", "numerator")
    when some entry times D does, ("violations", oracle_violations(...))
    for a cube that breaks its constraints, and ("cube", D, planes) with
    planes[i][j][k] = D * entry as nested lists of ints otherwise.
    """
    entries = [[[Fraction(x) for x in col] for col in plane] for plane in doc["entries"]]
    flat = [q for plane in entries for col in plane for q in col]
    common = 1
    for q in flat:
        common = common * q.denominator // math.gcd(common, q.denominator)
    limit = 10**OPERAND_DIGITS
    if common >= limit:
        return ("bound", "denominator")
    planes = [[[int(q * common) for q in col] for col in plane] for plane in entries]
    if any(abs(x) >= limit for plane in planes for col in plane for x in col):
        return ("bound", "numerator")
    violations = oracle_violations(entries)
    if violations:
        return ("violations", violations)
    return ("cube", common, planes)


def oracle_first_load_fault(doc):
    """The first fault met reading the entries of a cube document in scan
    order, as (location, kind), or None if every plane and column is a
    list of n items and every entry a JSON int or a string that Fraction
    parses.

    doc is {"n": n, "entries": ...} as a list of n items.  Plane i is read
    before its columns, column (i, j) before its entries, and the location
    is the 0-based (i,), (i, j) or (i, j, k).  kind is "shape" for a plane
    or column that is no list of n items, and "bool", "float",
    "non-scalar" or "string" (unparseable) for an entry.
    """
    n = doc["n"]
    for i, plane in enumerate(doc["entries"]):
        if type(plane) is not list or len(plane) != n:
            return (i,), "shape"
        for j, column in enumerate(plane):
            if type(column) is not list or len(column) != n:
                return (i, j), "shape"
            for k, x in enumerate(column):
                if type(x) is bool:
                    return (i, j, k), "bool"
                if type(x) is float:
                    return (i, j, k), "float"
                if type(x) is str:
                    try:
                        Fraction(x)
                    except (ValueError, ZeroDivisionError):
                        return (i, j, k), "string"
                elif type(x) is not int:
                    return (i, j, k), "non-scalar"
    return None


def oracle_extract_by_value(entries, value):
    """What extracting a group at one value must give, in Fractions.

    For every column (i, j) collect the states k whose entry equals the
    value.  Returns ("value-absent", None, detail) when no entry does,
    ("not-functional", (i, j), detail) for the first column, row by row,
    that holds it other than once, ("group-axiom-failure", None, None)
    when the table k = i * j has no two-sided identity or, relabelled so
    that identity is state 1, is not an abelian group, and
    ("table", rows, None) with the relabelled 1-based rows otherwise.
    """
    cube = _fraction_cube(entries)
    v = Fraction(value)
    n = len(cube)
    hits = [[[k + 1 for k in range(n) if cube[i][j][k] == v] for j in range(n)] for i in range(n)]
    if all(not h for plane in hits for h in plane):
        return ("value-absent", None, f"value {v} appears nowhere")
    for i in range(n):
        for j in range(n):
            if len(hits[i][j]) != 1:
                detail = f"value {v} appears {len(hits[i][j])} times in column ({i + 1}, {j + 1})"
                return ("not-functional", (i + 1, j + 1), detail)
    mul = {(i, j): hits[i - 1][j - 1][0] for i in range(1, n + 1) for j in range(1, n + 1)}
    units = [e for e in range(1, n + 1) if all(mul[e, x] == x == mul[x, e] for x in range(1, n + 1))]
    if not units:
        return ("group-axiom-failure", None, None)
    # swap the identity's label with state 1's
    swap = {x: x for x in range(1, n + 1)}
    swap[1], swap[units[0]] = units[0], 1
    rows = [[swap[mul[swap[a], swap[b]]] for b in range(1, n + 1)] for a in range(1, n + 1)]
    states = set(range(1, n + 1))
    latin = all(set(row) == states for row in rows) and all(set(col) == states for col in zip(*rows))
    abelian = all(rows[a][b] == rows[b][a] for a in range(n) for b in range(n))
    associative = all(
        rows[rows[a][b] - 1][c] == rows[a][rows[b][c] - 1] for a in range(n) for b in range(n) for c in range(n)
    )
    if not (latin and abelian and associative):
        return ("group-axiom-failure", None, None)
    return ("table", [tuple(row) for row in rows], None)


def grid_measures(n, denominator):
    """Every measure on n states whose values lie in (1/D)Z, D the
    denominator: the compositions of D into n parts, over D."""
    for cuts in itertools.combinations(range(denominator + n - 1), n - 1):
        bounds = (-1,) + cuts + (denominator + n - 1,)
        yield [Fraction(bounds[k + 1] - bounds[k] - 1, denominator) for k in range(n)]


def oracle_census_count(n, denominator):
    """Number of distinct cubes derived from a group table on n states with
    identity at state 1 and a measure on the (1/D)Z grid that meet
    condition (A): n distinct columns and every action of rank n.

    The tables are every filling of the cells (i, j), 2 <= i <= j, with
    a symmetric Latin square that associates; the cubes come from
    oracle_derive, and the ranks from fraction_rank (a derived cube is
    commutative, so its right actions are its left ones).
    """
    cells = [(i, j) for i in range(1, n) for j in range(i, n)]
    found = set()
    for fill in itertools.product(range(1, n + 1), repeat=len(cells)):
        rows = [[i + j + 1 if 0 in (i, j) else 0 for j in range(n)] for i in range(n)]
        for (i, j), k in zip(cells, fill):
            rows[i][j] = rows[j][i] = k
        if any(len(set(row)) < n for row in rows):
            continue
        if any(rows[rows[a][b] - 1][c] != rows[a][rows[b][c] - 1] for a in range(n) for b in range(n) for c in range(n)):
            continue
        for values in grid_measures(n, denominator):
            entries = oracle_derive(rows, values)
            columns = {tuple(col) for plane in entries for col in plane}
            if len(columns) == n and all(
                fraction_rank(left_action(entries, i)) == n for i in range(1, n + 1)
            ):
                found.add(tuple(tuple(col) for plane in entries for col in plane))
    return len(found)
