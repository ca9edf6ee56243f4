"""Builders: Latin-square spaces, disjoint/shared-identity cyclic unions,
fan extensions of a group or ring, the partition-cyclic completed space,
plus the small-group table corpus used throughout the tests.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from collections import namedtuple
from typing import Optional, Sequence

from .core import Component, FiniteUniverse, MultiSpace, OpTable, classify_table, group_identity_on
from .errors import (
    CapacityError,
    ContractError,
    InputError,
    PartitionError,
    ShapeError,
    SizeLimitError,
    UnknownNameError,
)

LATIN_ENUMERATION_BOUND = 4


class LatinSquare(namedtuple("LatinSquare", "n grid")):
    """An n x n grid in which every symbol index appears once per row and column."""

    __slots__ = ()

    def __new__(cls, n: int, grid: tuple[tuple[int, ...], ...]):
        want = set(range(n))
        if len(grid) != n or any(len(row) != n for row in grid):
            raise ShapeError(f"grid is not {n}x{n}")
        for i, row in enumerate(grid):
            if set(row) != want:
                raise ShapeError(f"row {i} is not a permutation of 0..{n - 1}")
        for j in range(n):
            if {row[j] for row in grid} != want:
                raise ShapeError(f"column {j} is not a permutation of 0..{n - 1}")
        return super().__new__(cls, n, grid)


def latin_lower_bound(n: int) -> int:
    """Product of s! for s = 1..n, a lower bound on the number of n x n squares."""
    return math.prod(math.factorial(s) for s in range(1, n + 1))


def _latin_grids(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """Every n x n Latin square's grid, in lexicographic order.

    The rows are permutations, taken in the lexicographic order of
    ``itertools.permutations``.  Each permutation's *apart* set (the
    permutations that differ from it in every column) is found once, and a
    rectangle grows only by the candidates apart from every row above it.
    """
    perms = list(itertools.permutations(range(n)))
    apart = [frozenset(j for j, q in enumerate(perms) if all(map(operator.ne, p, q))) for p in perms]
    rectangles = [((), frozenset(range(len(perms))))]
    for _ in range(n):
        rectangles = [(rows + (j,), fits & apart[j]) for rows, fits in rectangles for j in sorted(fits)]
    return [tuple(perms[i] for i in rows) for rows, _ in rectangles]


def enumerate_latin_squares(n: int) -> list[LatinSquare]:
    """All n x n Latin squares, in lexicographic order of their grids."""
    if n < 1:
        raise ContractError("side must be >= 1")
    if n > LATIN_ENUMERATION_BOUND:
        raise SizeLimitError(
            f"Latin square enumeration grows factorially; n = {n} exceeds "
            f"LATIN_ENUMERATION_BOUND = {LATIN_ENUMERATION_BOUND}"
        )
    return [LatinSquare(n, grid) for grid in _latin_grids(n)]


def _random_latin_square(n: int, rng: random.Random) -> LatinSquare:
    """Rows filled one at a time, each by backtracking cell by cell; a cell
    tries the symbols in a fresh shuffled order each time it is entered.

    No row search dead-ends.  A k x n Latin rectangle with k < n leaves each
    column n - k missing symbols and each symbol missing from n - k columns,
    so the bipartite graph of columns and their missing symbols is
    (n - k)-regular and, by P. Hall's marriage theorem, has a perfect
    matching: every such rectangle extends by one row (M. Hall, Bull. AMS 51,
    1945).  The search is exhaustive, so it finds that row.
    """

    def extend(used_cols: list[set[int]], row: list[int], j: int):
        if j == n:
            yield tuple(row)
            return
        order = list(range(n))
        rng.shuffle(order)
        for v in order:
            if v not in row and v not in used_cols[j]:
                row.append(v)
                yield from extend(used_cols, row, j + 1)
                row.pop()

    rows: tuple = ()
    for _ in range(n):
        rows += (next(extend([{r[j] for r in rows} for j in range(n)], [], 0)),)
    return LatinSquare(n, rows)


def gen_latin_squares(n: int, k: int, seed: int) -> list[LatinSquare]:
    """k pairwise-distinct n x n Latin squares, reproducible for a fixed seed.

    Up to ``LATIN_ENUMERATION_BOUND`` the squares are a sample of the
    enumeration; ``random.sample`` draws by the population's length alone, so
    only the k sampled grids are made into records.
    """
    if n < 2:
        raise ContractError("side must be >= 2")
    if k < 1:
        raise ContractError("must request at least one square")
    rng = random.Random(seed)
    if n <= LATIN_ENUMERATION_BOUND:
        grids = _latin_grids(n)
        if k > len(grids):
            raise CapacityError(f"only {len(grids)} Latin squares of side {n} exist; {k} requested")
        return [LatinSquare(n, grids[i]) for i in rng.sample(range(len(grids)), k)]
    found: list[LatinSquare] = []
    seen: set[tuple] = set()
    attempts = 0
    while len(found) < k:
        attempts += 1
        if attempts > 100 * k + 100:
            raise CapacityError(f"could not produce {k} distinct squares of side {n}")
        sq = _random_latin_square(n, rng)
        if sq.grid not in seen:
            seen.add(sq.grid)
            found.append(sq)
    return found


def latin_multispace(symbols, squares: Sequence[LatinSquare]) -> MultiSpace:
    """One carrier with one total operation per square; always completed."""
    universe = symbols if isinstance(symbols, FiniteUniverse) else FiniteUniverse.of(symbols)
    n = len(universe)
    for sq in squares:
        if sq.n != n:
            raise ShapeError(f"square of side {sq.n} does not fit {n} symbols")
    domain = tuple(range(n))
    ops = [
        OpTable(f"x{i + 1}", universe, domain, sq.grid)
        for i, sq in enumerate(squares)
    ]
    comp = Component("S", domain, tuple(t.name for t in ops))
    return MultiSpace(universe, [comp], ops)


# -- group table corpus -------------------------------------------------

def _indexed(labels: Sequence[str], rows, name: str) -> tuple[FiniteUniverse, OpTable]:
    """The total table on ``labels`` whose row x lists, in label order, the
    index of x * y for every y."""
    universe = FiniteUniverse.of(labels)
    return universe, OpTable(name, universe, range(len(labels)), rows)


def cyclic_group_table(n: int, name: str = "+") -> tuple[FiniteUniverse, OpTable]:
    return direct_product_table((n,), name)


def direct_product_table(orders: Sequence[int], name: str = "+") -> tuple[FiniteUniverse, OpTable]:
    """Direct product of cyclic groups, elements labelled "i.j.k".

    Elements come in lexicographic order, so an element's index is its
    coordinates read in mixed radix over ``orders``.  Row x lists x + y for
    every y in that same order: ``itertools.product`` over the coordinates j
    of (x_j + b) mod m_j for b in range(m_j), each scaled by its place
    value, then summed.
    """
    tuples = list(itertools.product(*map(range, orders)))
    places = [math.prod(orders[j + 1:]) for j in range(len(orders))]
    shifted = [
        [tuple(place * ((a + b) % m) for b in range(m)) for a in range(m)] for m, place in zip(orders, places)
    ]
    rows = [tuple(map(sum, itertools.product(*(s[a] for s, a in zip(shifted, t))))) for t in tuples]
    return _indexed([".".join(map(str, t)) for t in tuples], rows, name)


def dihedral_table(n: int, name: str = "*") -> tuple[FiniteUniverse, OpTable]:
    """Dihedral group of order 2n: rotations r{i} and reflections s{i}.

    r{a} sits at index a and s{a} at n + a.  Written (f, a) for a flip bit f,
    (f, a)(g, b) = (f ^ g, b - a if g else a + b), mod n.
    """
    rows = [
        tuple((f ^ g) * n + ((b - a) if g else (a + b)) % n for g in (0, 1) for b in range(n))
        for f in (0, 1)
        for a in range(n)
    ]
    return _indexed([f"{c}{i}" for c in "rs" for i in range(n)], rows, name)


def quaternion_table(name: str = "*") -> tuple[FiniteUniverse, OpTable]:
    """Quaternion group Q8: (-1)^s u, for the units u = 1, i, j, k numbered
    0..3, sits at index 2u + s.

    uu = -1 for u != 1, and two distinct units among i, j, k give the third
    (their XOR), negated unless they follow i -> j -> k -> i.
    """

    def product(x: int, y: int) -> int:
        u, v = x >> 1, y >> 1
        if u == 0 or v == 0:
            w, negated = u | v, 0
        elif u == v:
            w, negated = 0, 1
        else:
            w, negated = u ^ v, (v - u) % 3 != 1
        return 2 * w + (x ^ y ^ negated) % 2

    rows = [tuple(product(x, y) for y in range(8)) for x in range(8)]
    return _indexed(["1", "-1", "i", "-i", "j", "-j", "k", "-k"], rows, name)


def symmetric_table(n: int, name: str = "*") -> tuple[FiniteUniverse, OpTable]:
    """Symmetric group on 0..n-1; labels like "120" give images of 0,1,2.

    The product a * b applies b first, then a.
    """
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    rows = [tuple(index[tuple(map(a.__getitem__, b))] for b in perms) for a in perms]
    return _indexed(["".join(map(str, p)) for p in perms], rows, name)


def all_groups_up_to_8() -> list[tuple[str, FiniteUniverse, OpTable]]:
    """Every group of order <= 8 up to isomorphism (14 tables)."""
    orders = [[n] for n in range(1, 9)] + [[2, 2], [4, 2], [2, 2, 2]]
    corpus = [("x".join(f"Z{m}" for m in o), *direct_product_table(o)) for o in orders]
    return corpus + [("S3", *symmetric_table(3)), ("D4", *dihedral_table(4)), ("Q8", *quaternion_table())]


def _partitions_into_prime_powers(n: int, least: int = 2) -> list[list[int]]:
    """All non-decreasing lists of prime powers, each at least ``least``,
    with product n, in lexicographic order.

    d is a power of its least prime factor q exactly when d divides q^d.
    """
    if n == 1:
        return [[]]
    return [
        [d, *rest]
        for d in range(least, n + 1)
        if n % d == 0 and pow(next(q for q in range(2, d + 1) if d % q == 0), d, d) == 0
        for rest in _partitions_into_prime_powers(n // d, d)
    ]


def abelian_groups_of_order(n: int) -> list[tuple[str, FiniteUniverse, OpTable]]:
    """Every abelian group of order n up to isomorphism, as direct products."""
    return [
        ("x".join(f"Z{m}" for m in factors), *direct_product_table(factors))
        for factors in (f or [1] for f in _partitions_into_prime_powers(n))  # [1]: the trivial group Z1
    ]


def single_component_space(table: OpTable, name: str = "G") -> MultiSpace:
    comp = Component(name, table.domain, (table.name,))
    return MultiSpace(table.universe, [comp], [table])


# -- unions ----------------------------------------------------------------

def _glue(universe: FiniteUniverse, pieces) -> tuple[list[Component], list[OpTable]]:
    """The components and operations of a union over ``universe``, one
    component per piece ``(name, op_names, tables, relabel, fresh)``.

    Each base table in ``tables`` is copied under its name in ``op_names``
    through ``relabel``, a one-to-one map from the table's domain to universe
    indices; two tables make a double component.  ``fresh`` is None or ``(h,
    products)``: h, a universe index after every relabelled one, joins the
    carrier, and ``products`` maps every pair that involves h to its product,
    the same in each table.

    The copy reads whole base grid rows, their columns taken in carrier order
    and each cell relabelled by a C-level ``map``; only h's row and column are
    filled pair by pair.
    """
    components, ops = [], []
    for name, op_names, tables, relabel, fresh in pieces:
        order = sorted(relabel, key=relabel.__getitem__)  # the base domain, in carrier order
        base = [relabel[b] for b in order]
        carrier = [*base, fresh[0]] if fresh else base
        for op_name, t in zip(op_names, tables):
            grid = t.grid
            try:
                rows = [tuple(map(relabel.__getitem__, map(grid[b].__getitem__, order))) for b in order]
            except KeyError:  # a product is undefined or leaves the domain relabel covers
                x, y = next((x, y) for x in order for y in order if grid[x][y] not in relabel)
                v, label = grid[x][y], t.universe.name
                what = "undefined" if v is None else f"{label(v)!r}, outside its domain"
                raise ContractError(
                    f"table {t.name!r}: the product of {label(x)!r} and {label(y)!r} is {what}"
                ) from None
            if fresh:
                h, products = fresh
                rows = [row + (products[x, h],) for x, row in zip(base, rows)]
                rows.append(tuple(products[h, y] for y in carrier))
            ops.append(OpTable(op_name, universe, carrier, rows))
        components.append(Component(name, tuple(carrier), op_names, double=len(tables) == 2))
    return components, ops


def disjoint_cyclic_union(orders: Sequence[int]) -> MultiSpace:
    """m cyclic components on pairwise-disjoint carriers, one addition each.

    Cross-component products are undefined, so the space is not completed
    for m >= 2.
    """
    labels: list[str] = []
    pieces = []
    for i, order in enumerate(orders):
        if order < 1:
            raise ContractError("component orders must be >= 1")
        letter = chr(ord("a") + i % 26) + ("" if i < 26 else str(i // 26))
        _, table = cyclic_group_table(order)
        relabel = {k: len(labels) + k for k in range(order)}
        pieces.append((f"C{i + 1}", (f"+{i + 1}",), (table,), relabel, None))
        labels.extend(f"{letter}{k}" for k in range(order))
    universe = FiniteUniverse.of(labels)
    return MultiSpace(universe, *_glue(universe, pieces))


def shared_identity_union(tables: Sequence[OpTable]) -> MultiSpace:
    """Union of group tables overlapping in exactly one shared identity "e"."""
    return _shared_union([(t,) for t in tables], "e", "C")


def _shared_union(bases: Sequence[tuple[OpTable, ...]], shared: str, prefix: str) -> MultiSpace:
    """Copies of each base, a group table ``(t,)`` or a ring ``(add, mul)``,
    glued at the unit of its first table, which becomes the one element
    ``shared``; component i is named ``prefix`` + i and its operations
    ``+i`` (and ``*i``)."""
    labels = [shared]
    pieces = []
    for i, base in enumerate(bases):
        t = base[0]
        unit = group_identity_on(t, frozenset(t.domain))
        if unit is None:
            raise ContractError(f"table {t.name!r} has no two-sided unit")
        others = [x for x in t.domain if x != unit]
        relabel = {unit: 0, **{x: len(labels) + j for j, x in enumerate(others)}}
        labels.extend(f"c{i + 1}_{t.universe.name(x)}" for x in others)
        names = tuple(f"{marker}{i + 1}" for marker in "+*"[: len(base)])
        pieces.append((f"{prefix}{i + 1}", names, base, relabel, None))
    universe = FiniteUniverse.of(labels)
    return MultiSpace(universe, *_glue(universe, pieces))


# -- fan extensions ------------------------------------------------------

ABSORB = "absorb"
UNDEFINED_FILL = "undefined"
EXPLICIT = "explicit"


def fan_extension(
    base: OpTable | tuple[OpTable, OpTable],
    new_symbols: Sequence[str],
    policy: str = ABSORB,
    explicit: Optional[Sequence[dict]] = None,
) -> MultiSpace:
    """Extend one group, or one ring given as an ``(add, mul)`` pair, by n
    fresh elements, one component each.

    A group base gives each component one operation; a ring base gives it a
    double (addition, multiplication) pair.  Every extension operation
    agrees with the base product on old pairs; pairs involving the fresh
    element follow the chosen policy (EXPLICIT grids, for group bases only,
    map label pairs to a result label). The result is not completed for
    n >= 2 (distinct fresh elements never multiply).
    """
    ring = not isinstance(base, OpTable)
    tables = tuple(base) if ring else (base,)
    if ring and (len(tables) != 2 or tables[0].domain != tables[1].domain):
        raise ContractError("ring base needs an (add, mul) pair with matching domains")
    first = tables[0]
    if not classify_table(first).is_group():
        raise ContractError("fan extension needs a group table as its (additive) base")
    if ring and policy == EXPLICIT:
        raise InputError("the explicit policy takes a group base, not a ring base")
    base_labels = [first.universe.name(i) for i in first.domain]
    for s in new_symbols:
        if s in base_labels:
            raise InputError(f"new symbol {s!r} collides with the base carrier")
    if len(set(new_symbols)) != len(new_symbols):
        raise InputError("new symbols must be pairwise distinct")
    universe = FiniteUniverse.of(base_labels + list(new_symbols))
    relabel = {x: j for j, x in enumerate(first.domain)}
    markers = ("+", "*") if ring else ("x",)
    pieces = []
    for i, sym in enumerate(new_symbols):
        h = len(base_labels) + i
        carrier = [*relabel.values(), h]
        pairs = [(x, y) for x in carrier for y in carrier if h in (x, y)]
        if policy == ABSORB:
            products = dict.fromkeys(pairs, h)
        elif policy == UNDEFINED_FILL:
            products = dict.fromkeys(pairs)
        elif policy == EXPLICIT:
            if explicit is None or len(explicit) <= i:
                raise InputError("explicit policy needs one grid per new symbol")
            grid = {
                (universe.index(a), universe.index(b)): None if v is None else universe.index(v)
                for (a, b), v in explicit[i].items()
            }
            for x, y in pairs:
                if (x, y) not in grid:
                    raise InputError(f"explicit policy for {sym!r} misses pair ({x},{y})")
            products = {pair: grid[pair] for pair in pairs}
        else:
            raise InputError(f"unknown new-pair policy {policy!r}")
        names = tuple(f"{marker}{i + 1}" for marker in markers)
        pieces.append((f"F{i + 1}", names, tables, relabel, (h, products)))
    return MultiSpace(universe, *_glue(universe, pieces))


# -- partition-cyclic completion -----------------------------------------

def partition_cyclic(
    ambient: OpTable,
    blocks: Sequence[Sequence[str]],
    core: Sequence[str],
) -> MultiSpace:
    """Blocks of a partition-with-core each become a cyclic group; the ambient
    total operation stays as one more operation, so the space is completed.

    Each block must be listed in its cyclic generation order g1, g2, ..., gl;
    the recurrence g_j x g1 = g_{j+1} (wrapping) forces g_l to be the block
    identity and the completion to the full cyclic Cayley table is unique.
    """
    if not ambient.is_total_on_domain():
        raise ContractError("the ambient operation must be total")
    universe = ambient.universe
    sym = {universe.name(i): i for i in ambient.domain}

    def index(name: str) -> int:
        try:
            return sym[name]
        except KeyError:
            raise UnknownNameError(f"unknown symbol {name!r}") from None

    core_set = frozenset(map(index, core))
    block_sets = [frozenset(map(index, block)) for block in blocks]
    if frozenset().union(*block_sets) != frozenset(ambient.domain):
        raise PartitionError("blocks must cover the ambient carrier")
    for i in range(len(block_sets)):
        for j in range(i + 1, len(block_sets)):
            if block_sets[i] & block_sets[j] != core_set:
                raise PartitionError(
                    f"blocks {i + 1} and {j + 1} intersect in "
                    f"{universe.names(block_sets[i] & block_sets[j])}, not the core"
                )
    pieces = []
    for k, block in enumerate(blocks):
        idxs = list(map(index, block))
        if len(set(idxs)) != len(idxs):
            raise PartitionError(f"block {k + 1} lists duplicate elements")
        l = len(idxs)
        # j in Z_l becomes g_j and 0 becomes g_l: g_i x g_j = g_(i+j), g_l the identity
        relabel = {j: idxs[(j - 1) % l] for j in range(l)}
        pieces.append((f"B{k + 1}", (f"x{k + 1}",), (cyclic_group_table(l)[1],), relabel, None))
    components, ops = _glue(universe, pieces)
    components.append(Component("S", tuple(ambient.domain), (ambient.name,)))
    return MultiSpace(universe, components, [ambient] + ops)


def zn_ring_tables(n: int) -> tuple[FiniteUniverse, OpTable, OpTable]:
    """The ring of integers mod n as a pair of total tables."""
    universe, add = cyclic_group_table(n)
    rows = [tuple(x * y % n for y in range(n)) for x in range(n)]
    return universe, add, OpTable("*", universe, range(n), rows)


def zn_ring_space(n: int) -> MultiSpace:
    universe, add, mul = zn_ring_tables(n)
    comp = Component("R1", tuple(range(n)), ("+", "*"), double=True)
    return MultiSpace(universe, [comp], [add, mul])


def shared_zero_ring_union(moduli: Sequence[int]) -> MultiSpace:
    """Z_n ring components overlapping in one shared zero element "0"."""
    if any(n < 1 for n in moduli):
        raise ContractError("moduli must be >= 1")
    return _shared_union([zn_ring_tables(n)[1:] for n in moduli], "0", "R")
