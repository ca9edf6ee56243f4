"""The multi-space substrate: partial operation tables over an interned
universe, multi-space assembly, units/inverses, faithfulness, equation
solving, automorphism enumeration and table classification.

An undefined product is the value ``UNDEFINED`` (= ``None``), never an
exception; errors are reserved for contract violations.
"""

from __future__ import annotations

import itertools
import operator
from collections import namedtuple
from typing import Callable, NamedTuple, Optional, Sequence

from .errors import (
    ContractError,
    InternalCheckError,
    SizeLimitError,
    UnknownNameError,
    UnknownOperationError,
)

UNDEFINED = None

AUTOMORPHISM_BOUND = 12

_CELL_TYPES = frozenset({int, type(None)})


class FiniteUniverse(namedtuple("FiniteUniverse", "elements")):
    """An ordered list of distinct symbol names; order defines element indices.

    ``len``, iteration and ``in`` speak of indices and names, not of the one
    field, so copies and pickles are rebuilt from ``elements`` by
    ``__getnewargs__``.
    """

    __slots__ = ()

    def __new__(cls, elements: tuple[str, ...]):
        if len(set(elements)) != len(elements):
            raise ContractError("universe contains duplicate symbols")
        return super().__new__(cls, elements)

    def __getnewargs__(self):
        return (self.elements,)

    @classmethod
    def of(cls, names: Sequence[str]) -> "FiniteUniverse":
        return cls(tuple(names))

    def index(self, name: str) -> int:
        try:
            return self.elements.index(name)
        except ValueError:
            raise UnknownNameError(f"unknown symbol {name!r}") from None

    def name(self, idx: int) -> str:
        return self.elements[idx]

    def names(self, indices) -> tuple[str, ...]:
        elements = self.elements
        return tuple(elements[i] for i in sorted(indices))

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(range(len(self.elements)))

    def __contains__(self, name: str) -> bool:
        return name in self.elements


class OpTable:
    """A partial binary operation on a subset (the domain) of a universe.

    The constructor takes ``entries[i][j]``, the universe index of
    ``domain[i] * domain[j]`` or ``None`` when the product is undefined.  The
    table is stored as ``grid[x][y]``, indexed by universe position: every
    row has |U| slots, ``None`` outside the domain, and the rows of elements
    outside the domain are one shared all-``None`` row.

    Construction runs no Python per cell: the cells are validated as one set
    of types and one set of values (types per cell, since a set of values
    would merge ``True`` and ``1.0`` with ``1``), and each row is spread to
    its |U| slots by one ``itemgetter`` built per table.  Only a failed check
    scans for the first bad index, domain first, then row by row.
    """

    def __init__(self, name: str, universe: FiniteUniverse, domain: Sequence[int], entries):
        self.name = name
        self.universe = universe
        self.domain = domain = tuple(domain)
        rows = tuple(map(tuple, entries))
        n, d = len(universe), len(domain)
        if (
            not set(map(type, itertools.chain(domain, *rows))) <= _CELL_TYPES
            or None in domain
            or not set(domain).union(*rows) <= {None, *range(n)}
        ):
            cells = itertools.chain(domain, (v for row in rows for v in row if v is not None))
            bad = next(v for v in cells if type(v) is not int or not 0 <= v < n)
            raise ContractError(f"operation {name!r}: index {bad!r} is not an int in the universe")
        if list(domain) != sorted(set(domain)):
            raise ContractError(f"operation {name!r}: domain must be sorted and duplicate-free")
        if len(rows) != d or any(len(row) != d for row in rows):
            raise ContractError(f"operation {name!r}: entries must be a {d}x{d} grid")
        self._blank = tuple([None] * n)  # a fresh object: in_domain tests rows by identity
        if d == n:  # the domain is the whole universe, so each row is its grid row
            self.grid = rows
            return
        grid = [self._blank] * n
        slot = dict(zip(domain, range(d)))
        # slot d is the None appended to each row; rows are spread only when
        # 0 < d < n, so the getter has n >= 2 items and returns a tuple
        spread = operator.itemgetter(*(slot.get(y, d) for y in range(n)))
        for x, row in zip(domain, rows):
            grid[x] = spread(row + (None,))
        self.grid = tuple(grid)

    @property
    def entries(self) -> tuple[tuple[Optional[int], ...], ...]:
        """The domain-by-domain view of the grid, in constructor form."""
        return tuple(tuple(self.grid[x][y] for y in self.domain) for x in self.domain)

    def in_domain(self, x) -> bool:
        """True iff ``x`` is a domain element; False for any other value."""
        try:
            return x >= 0 and self.grid[x] is not self._blank
        except (TypeError, IndexError):
            return False

    @classmethod
    def from_function(
        cls,
        name: str,
        universe: FiniteUniverse,
        domain: Sequence[int],
        fn: Callable[[int, int], Optional[int]],
    ) -> "OpTable":
        domain = tuple(sorted(domain))
        entries = [[fn(x, y) for y in domain] for x in domain]
        return cls(name, universe, domain, entries)

    def apply(self, x: int, y: int) -> Optional[int]:
        try:
            if x >= 0 and y >= 0:
                return self.grid[x][y]
        except (TypeError, IndexError):
            pass
        return UNDEFINED

    def defined_pairs(self):
        for x in self.domain:
            for y in self.domain:
                if self.grid[x][y] is not None:
                    yield x, y, self.grid[x][y]

    def is_total_on_domain(self) -> bool:
        return all(self.grid[x][y] is not None for x in self.domain for y in self.domain)

    def __repr__(self) -> str:
        return f"OpTable({self.name!r}, domain={self.universe.names(self.domain)})"


class Component(namedtuple("Component", "name carrier op_names double", defaults=(False,))):
    """A named carrier bound to one or more operations.

    ``double=True`` marks a ring-style component whose two op names are the
    ordered pair (addition, multiplication).
    """

    __slots__ = ()

    def __new__(cls, name: str, carrier: tuple[int, ...], op_names: tuple[str, ...], double: bool = False):
        if list(carrier) != sorted(set(carrier)):
            raise ContractError(f"component {name!r}: carrier must be sorted, duplicate-free")
        if not op_names:
            raise ContractError(f"component {name!r}: needs at least one operation")
        if double and len(op_names) != 2:
            raise ContractError(f"component {name!r}: double components bind exactly two ops")
        return super().__new__(cls, name, carrier, op_names, double)

    @property
    def add_name(self) -> str:
        if not self.double:
            raise ContractError(f"component {self.name!r} is not a double-operation component")
        return self.op_names[0]

    @property
    def mul_name(self) -> str:
        if not self.double:
            raise ContractError(f"component {self.name!r} is not a double-operation component")
        return self.op_names[1]


class MultiSpace:
    """A universe together with named components and their operation tables."""

    def __init__(
        self,
        universe: FiniteUniverse,
        components: Sequence[Component],
        ops: Sequence[OpTable],
    ):
        self.universe = universe
        self.components = tuple(components)
        self.ops = tuple(ops)
        names = [t.name for t in self.ops]
        if len(set(names)) != len(names):
            raise ContractError("operation names must be unique")
        if len({c.name for c in self.components}) != len(self.components):
            raise ContractError("component names must be unique")
        if any(t.universe != universe for t in self.ops):
            raise ContractError("every operation must be over the space's universe")
        self._op_map = {t.name: t for t in self.ops}
        for comp in self.components:
            for op_name in comp.op_names:
                table = self._op_map.get(op_name)
                if table is None:
                    raise ContractError(f"component {comp.name!r} binds unknown operation {op_name!r}")
                if not set(comp.carrier) <= set(table.domain):
                    raise ContractError(
                        f"operation {op_name!r} domain does not cover component {comp.name!r}"
                    )
        self._union = tuple(sorted({x for comp in self.components for x in comp.carrier}))

    def op(self, name: str) -> OpTable:
        table = self._op_map.get(name)
        if table is None:
            raise UnknownOperationError(f"no operation named {name!r}")
        return table

    def component(self, name: str) -> Component:
        for comp in self.components:
            if comp.name == name:
                return comp
        raise UnknownNameError(f"no component named {name!r}")

    def element_union(self) -> tuple[int, ...]:
        return self._union

    def is_completed(self) -> bool:
        """True iff every pair from the carrier union has some defined product."""
        union = self.element_union()
        grids = [t.grid for t in self.ops]
        for x in union:
            for y in union:
                if all(grid[x][y] is UNDEFINED for grid in grids):
                    return False
        return True

    def __repr__(self) -> str:
        return (
            f"MultiSpace(|U|={len(self.universe)}, "
            f"components={[c.name for c in self.components]}, "
            f"ops={[t.name for t in self.ops]})"
        )


class ExprChain(namedtuple("ExprChain", "operands op_names")):
    """A left-associative mixed-operation expression: x1 op1 x2 op2 x3 ..."""

    __slots__ = ()

    def __new__(cls, operands: tuple[int, ...], op_names: tuple[str, ...]):
        if not operands:
            raise ContractError("expression chains must be non-empty")
        if len(op_names) != len(operands) - 1:
            raise ContractError("a chain of n operands needs exactly n-1 operations")
        return super().__new__(cls, operands, op_names)


def eval_chain(ms: MultiSpace, chain: ExprChain) -> Optional[int]:
    """Fold the chain left to right; UNDEFINED as soon as a step is undefined."""
    acc: Optional[int] = chain.operands[0]
    for op_name, operand in zip(chain.op_names, chain.operands[1:]):
        table = ms.op(op_name)
        if acc is UNDEFINED:
            return UNDEFINED
        acc = table.apply(acc, operand)
    return acc


class UnitReport(NamedTuple):
    left_units: tuple[int, ...]
    right_units: tuple[int, ...]
    unit: Optional[int]


def find_units(t: OpTable) -> UnitReport:
    """Scan the domain for left/right units; a coinciding pair is the unit.

    Whenever both a left and a right unit exist they are equal, so both
    returned sets are then singletons.
    """
    grid = t.grid
    lefts = tuple(e for e in t.domain if all(grid[e][a] == a for a in t.domain))
    rights = tuple(e for e in t.domain if all(grid[a][e] == a for a in t.domain))
    unit = None
    if lefts and rights:
        unit = lefts[0]
    return UnitReport(lefts, rights, unit)


class InverseReport(NamedTuple):
    element: int
    left: tuple[int, ...]
    right: tuple[int, ...]
    inverse: Optional[int]


def find_inverses(t: OpTable, unit: int) -> dict[int, InverseReport]:
    """Left/right inverse sets for every domain element, w.r.t. a two-sided unit."""
    if unit is None or unit != group_identity_on(t, frozenset(t.domain)):
        label = repr(t.universe.name(unit)) if t.in_domain(unit) else repr(unit)
        raise ContractError(f"{label} is not a two-sided unit of {t.name!r}")
    grid = t.grid
    out = {}
    for a in t.domain:
        lefts = tuple(b for b in t.domain if grid[b][a] == unit)
        rights = tuple(b for b in t.domain if grid[a][b] == unit)
        two_sided = [b for b in lefts if b in rights]
        out[a] = InverseReport(a, lefts, rights, two_sided[0] if two_sided else None)
    return out


def is_faithful(t: OpTable, side: str) -> tuple[bool, Optional[tuple[int, int]]]:
    """True iff distinct elements induce distinct left (right) translations.

    The witness on failure is a pair of elements whose rows (columns)
    coincide entrywise, undefined entries included.
    """
    if side not in ("left", "right"):
        raise ContractError("side must be 'left' or 'right'")
    grid, seen = t.grid, {}
    for g in t.domain:
        if side == "left":
            translation = tuple(grid[g][a] for a in t.domain)
        else:
            translation = tuple(grid[a][g] for a in t.domain)
        if translation in seen:
            return False, (seen[translation], g)
        seen[translation] = g
    return True, None


def solve_equation(ms: MultiSpace, a: int, b: int) -> tuple[tuple[str, int], ...]:
    """All (op_name, x) with a op x = b, over every operation of the space."""
    union = set(ms.element_union())
    if a not in union or b not in union:
        raise ContractError("both sides of the equation must lie in some carrier")
    out = []
    for table in ms.ops:
        row = table.grid[a]
        for x in table.domain:
            if row[x] == b:
                out.append((table.name, x))
    return tuple(out)


class _Hole:
    def __repr__(self) -> str:
        return "HOLE"


HOLE = _Hole()


class Equation(namedtuple("Equation", "operands op_names rhs")):
    """A chain template with exactly one HOLE operand, equated to ``rhs``."""

    __slots__ = ()

    def __new__(cls, operands: tuple, op_names: tuple[str, ...], rhs: int):
        holes = [i for i, x in enumerate(operands) if x is HOLE]
        if len(holes) != 1:
            raise ContractError("an equation template needs exactly one hole")
        if len(op_names) != len(operands) - 1:
            raise ContractError("a chain of n operands needs exactly n-1 operations")
        return super().__new__(cls, operands, op_names, rhs)

    def substitute(self, value: int) -> ExprChain:
        ops = tuple(value if x is HOLE else x for x in self.operands)
        return ExprChain(ops, self.op_names)


def solve_system(ms: MultiSpace, equations: Sequence[Equation]) -> tuple[int, ...]:
    """Exhaustive-substitution solutions common to every equation."""
    solutions = None
    for eq in equations:
        sols = {x for x in ms.universe if eval_chain(ms, eq.substitute(x)) == eq.rhs}
        solutions = sols if solutions is None else solutions & sols
    return tuple(sorted(solutions or ()))


class Classification(NamedTuple):
    label: str
    unit: Optional[int]
    witness: Optional[dict]

    def is_group(self) -> bool:
        return self.label in ("group", "abelian_group")


def classify_table(t: OpTable) -> Classification:
    """Strongest of magma/semigroup/abelian_semigroup/group/abelian_group.

    Exhaustive over pairs and triples of the domain; the table must be
    total on its domain.  The group test on the whole domain decides the
    label: a closure or associativity witness means a magma, a missing unit
    or inverse a semigroup.
    """
    if not t.is_total_on_domain():
        raise ContractError(f"classification needs a total table; {t.name!r} is partial")
    domain = frozenset(t.domain)
    ok, witness = is_group_on(t, domain) if domain else (False, {"kind": "no_unit"})
    if witness is not None and witness["kind"] in ("closure", "associativity"):
        return Classification("magma", None, witness)
    grid, pairs = t.grid, itertools.combinations(t.domain, 2)
    comm = next(((x, y) for x, y in pairs if grid[x][y] != grid[y][x]), None)
    unit = group_identity_on(t, domain)
    if ok:
        if comm is None:
            return Classification("abelian_group", unit, None)
        return Classification("group", unit, {"kind": "commutativity", "pair": comm})
    return Classification("abelian_semigroup" if comm is None else "semigroup", unit, witness)


def is_group_on(t: OpTable, subset: frozenset[int]) -> tuple[bool, Optional[dict]]:
    """Group test for ``t`` restricted to ``subset``: closure, associativity,
    unit and inverses, all checked exhaustively inside the subset."""
    elems = sorted(subset)
    if not elems:
        return False, {"kind": "empty"}
    for x in elems:
        if not t.in_domain(x):
            return False, {"kind": "outside_domain", "element": x}
    grid = t.grid
    for x in elems:
        row = grid[x]
        for y in elems:
            v = row[y]
            if v is UNDEFINED or v not in subset:
                return False, {"kind": "closure", "pair": (x, y), "result": v}
    # closed: every product below is defined and lies in the subset
    if _associativity_witness(grid, elems, _generators(grid, elems)):
        return False, {"kind": "associativity", "triple": _associativity_witness(grid, elems, elems)}
    unit = group_identity_on(t, subset)
    if unit is None:
        return False, {"kind": "no_unit"}
    for a in elems:
        if not any(grid[a][b] == unit and grid[b][a] == unit for b in elems):
            return False, {"kind": "missing_inverse", "element": a}
    return True, None


def _mask(elements) -> int:
    """The int bitmask of distinct universe indices: bit x for element x."""
    return sum(1 << x for x in elements)


def _elements(mask: int) -> list[int]:
    return [x for x in range(mask.bit_length()) if mask >> x & 1]


def _generators(grid, elems) -> list[int]:
    """Generators of ``elems``, a set that ``grid`` maps into itself: every
    element is a left-normed product (...((a1 a2) a3)...) ak of them.

    Walks the left-normed closure of the generators found so far and takes
    the first element of ``elems`` not yet reached as the next one.  So a
    law in z that carries over from z = w to z = wa for every generator a,
    as (xy)z = x(yz) does, holds on all of ``elems`` once it holds on the
    generators.
    """
    gens: list[int] = []
    reached: list[int] = []
    seen: set[int] = set()
    for g in elems:
        if g in seen:
            continue
        gens.append(g)
        seen.add(g)
        fresh = [g]
        for x in reached:  # reached elements already carry every older generator
            v = grid[x][g]
            if v not in seen:
                seen.add(v)
                fresh.append(v)
        while fresh:
            x = fresh.pop()
            reached.append(x)
            row = grid[x]
            for a in gens:
                v = row[a]
                if v not in seen:
                    seen.add(v)
                    fresh.append(v)
    return gens


def _associativity_witness(grid, elems, zs) -> Optional[tuple[int, int, int]]:
    """The first triple (x, y, z), x and y in ``elems`` and z in ``zs``, with
    (xy)z != x(yz), in that loop order, or None.  ``grid`` maps ``elems``
    into itself.

    With ``zs`` the generators of ``elems`` this is Light's test, and None
    decides associativity on all of ``elems``: if (xy)w = x(yw) for all x
    and y, then (xy)(wa) = ((xy)w)a = (x(yw))a = x((yw)a) = x(y(wa)) for
    every generator a.  Only a failure needs the run with ``zs`` =
    ``elems``, which names the first triple that fails.
    """
    for x in elems:
        row = grid[x]
        for y in elems:
            xy, y_row = grid[row[y]], grid[y]
            for z in zs:
                if xy[z] != row[y_row[z]]:
                    return x, y, z
    return None


def group_identity_on(t: OpTable, subset: frozenset[int]) -> Optional[int]:
    """The first element of ``subset`` that is a two-sided unit of ``t`` on
    it, or None."""
    if not all(map(t.in_domain, subset)):
        return None
    grid = t.grid
    for e in sorted(subset):
        row = grid[e]
        if all(row[a] == a and grid[a][e] == a for a in subset):
            return e
    return None


def group_inverses_on(t: OpTable, subset: frozenset[int]) -> dict[int, int]:
    """The two-sided inverse of every element of ``subset`` inside it."""
    e = group_identity_on(t, subset)
    if e is None:
        raise ContractError(f"no identity inside the given subset of {t.name!r}")
    grid = t.grid
    elems = sorted(subset)
    out = {}
    for a in elems:
        b = next((b for b in elems if grid[a][b] == e and grid[b][a] == e), None)
        if b is None:
            raise ContractError(f"{a} has no inverse inside the given subset of {t.name!r}")
        out[a] = b
    return out


class SubStructureReport(NamedTuple):
    verdict: bool
    by_component: bool
    by_closure: bool
    witness: Optional[dict]


def _agree(what, by_component, witness_a, route, by_route, witness_b) -> SubStructureReport:
    """The report of a dual-route test; InternalCheckError if the routes disagree."""
    if by_component != by_route:
        raise InternalCheckError(
            f"{what} criteria disagree: componentwise={by_component} "
            f"({witness_a}), {route}={by_route} ({witness_b})"
        )
    return SubStructureReport(by_component, by_component, by_route, witness_a or witness_b)


def _op_profile(t: OpTable, x: int) -> tuple:
    """Automorphism-invariant fingerprint of an element under one table."""
    if not t.in_domain(x):
        return ("out",)
    grid = t.grid
    row = [grid[x][a] for a in t.domain]
    col = [grid[a][x] for a in t.domain]
    return (
        "in",
        grid[x][x] == x,
        sum(v is not None for v in row),
        sum(v is not None for v in col),
        row == list(t.domain),
        col == list(t.domain),
        row.count(x),
        col.count(x),
    )


def automorphisms(ms: MultiSpace, permute_ops: bool = True) -> tuple[tuple[int, ...], ...]:
    """All element bijections of the carrier union preserving the operations.

    With ``permute_ops`` (the default) a bijection may carry operation x to a
    different operation named by an induced permutation of the operation set,
    so e.g. componentwise-identical components may be swapped; with
    ``permute_ops=False`` each named operation must be preserved individually.
    Undefined is a value: a bijection must carry each operation's domain onto
    its image's domain and undefined products to undefined ones, so elements
    whose products are all undefined are still told apart by their domains.
    Results are canonical: tuples aligned with ``ms.element_union()``, sorted.

    Each pairing of operations is searched by backtracking with propagation
    (Holt, Eick & O'Brien, *Handbook of Computational Group Theory*, 2005),
    and propagation alone accepts a full map sigma:

    - Let the later of x and a (possibly a = x) sit at trail index k.  When
      x is processed, ``trail[: k + 1]`` holds a and x, so ``assign`` checks
      both x*a and a*x in every table.  So once the trail covers the union,
      every pair has been checked in every table.
    - ``v is not w`` fails a product undefined on one side only, in either
      direction, so the defined pairs of source and image correspond.
    - If x is outside a table's domain, ``assign`` skips that table for x;
      sigma(x) shares x's ``("out",)`` profile for the image table, so
      every product of x and of sigma(x) there is undefined on both sides.
    - The ``used`` check makes sigma injective, hence a bijection of the
      finite union.

    Operations with the same domain and grid are searched once, as their
    first: a map preserves the whole list of operations up to a permutation
    exactly when it permutes the distinct tables, each onto one of the same
    multiplicity, so k identical operations are one table, not k! pairings.
    A pairing sends each distinct table to one of its class: with
    ``permute_ops``, the tables of equal multiplicity and sorted profile;
    without it, each table alone, whose only permutation is the identity.
    """
    union = ms.element_union()
    n = len(union)
    if n > AUTOMORPHISM_BOUND:
        raise SizeLimitError(
            f"automorphism search is factorial; union size {n} exceeds AUTOMORPHISM_BOUND = {AUTOMORPHISM_BOUND}"
        )
    pos = {x: i for i, x in enumerate(union)}
    groups: dict[tuple, list[OpTable]] = {}
    for t in ms.ops:
        groups.setdefault((t.domain, t.grid), []).append(t)
    tables = [ts[0] for ts in groups.values()]
    for t in tables:
        if not pos.keys() >= set(t.domain) or any(v not in pos for _, _, v in t.defined_pairs()):
            raise ContractError(f"operation {t.name!r} leaves the carrier union")
    profile = {x: [_op_profile(t, x) for t in tables] for x in union}
    classes: dict[object, list[int]] = {}
    for i, ts in enumerate(groups.values()):
        key = (len(ts), *sorted(profile[x][i] for x in union)) if permute_ops else i
        classes.setdefault(key, []).append(i)

    found: set[tuple[int, ...]] = set()
    for perms in itertools.product(*map(itertools.permutations, classes.values())):
        image = [j for _, j in sorted(zip(itertools.chain(*classes.values()), itertools.chain(*perms)))]
        pairs = [(t.grid, tables[j].grid) for t, j in zip(tables, image)]
        image_profile = {y: [profile[y][j] for j in image] for y in union}
        cand = {x: [y for y in union if image_profile[y] == profile[x]] for x in union}

        sigma: dict[int, int] = {}
        used: set[int] = set()
        trail: list[int] = []

        def assign(x: int, y: int) -> bool:
            """Map x to y, then every image that a product of two assigned
            elements forces, on either side and in every table, until none
            is new.  False as soon as an image is undefined on one side
            only, differs from sigma, is already used or lies outside its
            profile class."""
            sigma[x] = y
            used.add(y)
            trail.append(x)
            k = len(trail) - 1
            while k < len(trail):
                x, y = trail[k], sigma[trail[k]]
                for t, (grid, img) in zip(tables, pairs):
                    if not t.in_domain(x):
                        # y, in x's profile class, is outside the image's
                        # domain: every product is undefined on both sides
                        continue
                    for a in trail[: k + 1]:
                        fa = sigma[a]
                        for v, w in ((grid[x][a], img[y][fa]), (grid[a][x], img[fa][y])):
                            if v is UNDEFINED or w is UNDEFINED:
                                if v is not w:
                                    return False
                            elif v in sigma:
                                if sigma[v] != w:
                                    return False
                            elif w in used or w not in cand[v]:
                                return False
                            else:
                                sigma[v] = w
                                used.add(w)
                                trail.append(v)
                k += 1
            return True

        def search(i: int) -> None:
            while i < n and union[i] in sigma:
                i += 1
            if i == n:
                found.add(tuple(pos[sigma[x]] for x in union))
                return
            x = union[i]
            for y in cand[x]:
                if y in used:
                    continue
                mark = len(trail)
                if assign(x, y):
                    search(i + 1)
                while len(trail) > mark:
                    used.discard(sigma.pop(trail.pop()))

        search(0)
    return tuple(sorted(found))
