"""Finite set machinery: Boolean laws, partial orders, equivalence classes,
and neutrosophic unions with scalar valuations.

Everything here is exhaustive over explicitly enumerated finite universes.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from typing import NamedTuple, Optional, Sequence

from .core import FiniteUniverse, _elements, _mask
from .errors import ContractError, SizeLimitError

BOOLEAN_LAW_BOUND = 6


class BinaryRelation(namedtuple("BinaryRelation", "universe pairs")):
    """A set of ordered index pairs over a finite universe."""

    __slots__ = ()

    def __new__(cls, universe: FiniteUniverse, pairs: frozenset[tuple[int, int]]):
        n = len(universe)
        for x, y in pairs:
            if not (0 <= x < n and 0 <= y < n):
                raise ContractError(f"pair ({x},{y}) out of range for universe of size {n}")
        return super().__new__(cls, universe, pairs)

    @classmethod
    def from_names(cls, universe: FiniteUniverse, named_pairs) -> "BinaryRelation":
        pairs = frozenset((universe.index(a), universe.index(b)) for a, b in named_pairs)
        return cls(universe, pairs)

    def holds(self, x: int, y: int) -> bool:
        return (x, y) in self.pairs


class LawResult(NamedTuple):
    law: str
    name: str
    passed: bool
    witness: Optional[tuple]


class LawReport(NamedTuple):
    universe: FiniteUniverse
    results: tuple[LawResult, ...]

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.results)


# The power-set laws, each written once: (law, name, arity, sides), where
# ``sides(full, *args)`` returns the pairs of sides the law equates.  Sides
# use only ``|``, ``&``, ``^``, 0 and ``full``, so they evaluate alike on one
# subset and on many subsets held byte by byte in one int.
_BOOLEAN_LAWS = (
    ("L1", "idempotent", 1, lambda full, a: ((a | a, a), (a & a, a))),
    ("L2", "commutative", 2, lambda full, a, b: ((a | b, b | a), (a & b, b & a))),
    ("L3", "associative", 3,
     lambda full, a, b, c: ((a | (b | c), (a | b) | c), (a & (b & c), (a & b) & c))),
    ("L4", "absorption", 2, lambda full, a, b: ((a & (a | b), a), (a | (a & b), a))),
    ("L5", "distributive", 3,
     lambda full, a, b, c: ((a | (b & c), (a | b) & (a | c)), (a & (b | c), (a & b) | (a & c)))),
    ("L6", "universal bound", 1,
     lambda full, a: ((0 & a, 0), (0 | a, a), (full & a, a), (full | a, full))),
    ("L7", "unary complement", 1, lambda full, a: ((a & (full ^ a), 0), (a | (full ^ a), full))),
)


def _first_failure(sides, arity: int, subsets: Sequence[int], full: int) -> Optional[tuple[int, ...]]:
    """The first tuple of ``subsets``, in ``itertools.product`` order, at
    which two sides of a pair from ``sides`` differ; None if there is none.

    Bit-sliced: every subset fits one byte, and ``|``, ``&`` and ``^`` never
    carry between bytes.  One chunk fixes the first argument and lays the
    ``count^(arity - 1)`` tuples of the others over the bytes of one int, in
    product order from the lowest byte up, so each side is one int
    expression per chunk.  A tuple fails exactly when its byte of some
    ``lhs ^ rhs`` is non-zero, and the lowest such byte of the first failing
    chunk is the first failing tuple.
    """
    count = len(subsets)
    width = count ** (arity - 1)
    ones = int.from_bytes(b"\x01" * width, "little")
    # byte i holds tuple i: its argument k is subset i // stride_k % count
    strides = [count ** (arity - 2 - k) for k in range(arity - 1)]
    lanes = []
    for stride in strides:
        column = b"".join(bytes([s]) * stride for s in subsets)
        lanes.append(int.from_bytes(column * (width // (stride * count)), "little"))
    wide_full = full * ones
    for a in subsets:
        diff = 0
        for lhs, rhs in sides(wide_full, a * ones, *lanes):
            diff |= lhs ^ rhs
        if diff:
            index = ((diff & -diff).bit_length() - 1) >> 3
            return (a, *(subsets[index // stride % count] for stride in strides))
    return None


def check_boolean_laws(universe: FiniteUniverse) -> LawReport:
    """Verify the seven lattice/complement laws over the full power set.

    Exhaustive over all subsets (and pairs/triples of subsets as each law
    requires), so the universe is capped at ``BOOLEAN_LAW_BOUND`` elements;
    the bound also keeps each subset inside one byte of ``_first_failure``.
    The witness of a failing law is its first failing tuple in
    ``itertools.product`` order over the subsets, listed by size.
    """
    n = len(universe)
    if n > BOOLEAN_LAW_BOUND:
        raise SizeLimitError(
            f"boolean law check enumerates 2^|U| subsets; |U| = {n} exceeds BOOLEAN_LAW_BOUND = {BOOLEAN_LAW_BOUND}"
        )
    full = (1 << n) - 1
    subsets = [_mask(c) for r in range(n + 1) for c in itertools.combinations(range(n), r)]
    results = []
    for law, name, arity, sides in _BOOLEAN_LAWS:
        failure = _first_failure(sides, arity, subsets, full)
        witness = None
        if failure is not None:
            witness = tuple(frozenset(_elements(m)) for m in failure)
        results.append(LawResult(law, name, witness is None, witness))
    return LawReport(universe, tuple(results))


class PosetVerdict(NamedTuple):
    is_poset: bool
    is_total: bool
    violated: Optional[str]
    witness: Optional[tuple[int, int]]


def poset_check(rel: BinaryRelation) -> PosetVerdict:
    """Check reflexivity, antisymmetry and transitivity; report the first failure."""
    n = len(rel.universe)
    for x in range(n):
        if not rel.holds(x, x):
            return PosetVerdict(False, False, "O1 reflexivity", (x, x))
    for x, y in rel.pairs:
        if x != y and rel.holds(y, x):
            return PosetVerdict(False, False, "O2 antisymmetry", (x, y))
    for x, y in rel.pairs:
        for z in range(n):
            if rel.holds(y, z) and not rel.holds(x, z):
                return PosetVerdict(False, False, "O3 transitivity", (x, z))
    total = all(rel.holds(x, y) or rel.holds(y, x) for x in range(n) for y in range(n))
    return PosetVerdict(True, total, None, None)


def poset_extremes(rel: BinaryRelation) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Maximal and minimal element sets of a verified non-empty poset.

    Both returned sets are non-empty for every finite non-empty poset.
    """
    if len(rel.universe) == 0:
        raise ContractError("extremes of an empty poset are undefined")
    verdict = poset_check(rel)
    if not verdict.is_poset:
        raise ContractError(f"relation is not a poset: {verdict.violated} at {verdict.witness}")
    n = len(rel.universe)
    maximal = tuple(
        a for a in range(n) if all(x == a for x in range(n) if rel.holds(a, x))
    )
    minimal = tuple(
        a for a in range(n) if all(x == a for x in range(n) if rel.holds(x, a))
    )
    return maximal, minimal


def hasse_pairs(rel: BinaryRelation) -> frozenset[tuple[int, int]]:
    """Transitive reduction of a verified poset, for documentation/export only."""
    verdict = poset_check(rel)
    if not verdict.is_poset:
        raise ContractError("hasse export requires a poset")
    n = len(rel.universe)
    covers = set()
    for x, y in rel.pairs:
        if x == y:
            continue
        if any(rel.holds(x, z) and rel.holds(z, y) and z not in (x, y) for z in range(n)):
            continue
        covers.add((x, y))
    return frozenset(covers)


class Partition(NamedTuple):
    classes: tuple[tuple[int, ...], ...]
    uniform_class_size: Optional[int]
    quotient_check: Optional[bool]

    @property
    def count(self) -> int:
        return len(self.classes)


def equivalence_classes(rel: BinaryRelation) -> Partition:
    """Partition the universe by an equivalence relation.

    When all classes share one size s, the class count is checked against
    |universe| / s and the outcome attached to the result.
    """
    n = len(rel.universe)
    for x in range(n):
        if not rel.holds(x, x):
            raise ContractError(f"not an equivalence: R1 reflexivity fails at {x}")
    for x, y in rel.pairs:
        if not rel.holds(y, x):
            raise ContractError(f"not an equivalence: R2 symmetry fails at ({x},{y})")
    for x, y in rel.pairs:
        for z in range(n):
            if rel.holds(y, z) and not rel.holds(x, z):
                raise ContractError(f"not an equivalence: R3 transitivity fails at ({x},{z})")
    seen: set[int] = set()
    classes = []
    for x in range(n):
        if x in seen:
            continue
        cls = tuple(y for y in range(n) if rel.holds(x, y))
        seen.update(cls)
        classes.append(cls)
    sizes = {len(c) for c in classes}
    if len(sizes) == 1 and n > 0:
        size = sizes.pop()
        return Partition(tuple(classes), size, len(classes) == n // size and n % size == 0)
    return Partition(tuple(classes), None, None)


class NeutrosophicComponent:
    """A carrier subset with truth/indeterminacy/falsehood values per element."""

    def __init__(self, carrier: Sequence[int], f_true, f_indet, f_false):
        self.carrier = tuple(sorted(carrier))
        self.f_true = dict(f_true)
        self.f_indet = dict(f_indet)
        self.f_false = dict(f_false)
        for table, label in ((self.f_true, "T"), (self.f_indet, "I"), (self.f_false, "F")):
            for x in self.carrier:
                v = table.get(x)
                if v is None:
                    raise ContractError(f"{label}-value missing for carrier element {x}")
                if not 0 <= v <= 1:
                    raise ContractError(f"{label}-value {v} out of [0,1] at element {x}")

    @classmethod
    def constant(cls, carrier: Sequence[int], t: float, i: float, f: float) -> "NeutrosophicComponent":
        carrier = tuple(carrier)
        return cls(carrier, {x: t for x in carrier}, {x: i for x in carrier}, {x: f for x in carrier})

    def is_true_extremal(self) -> bool:
        return all(
            self.f_true[x] == 1 and self.f_indet[x] == 0 and self.f_false[x] == 0
            for x in self.carrier
        )

    def is_false_extremal(self) -> bool:
        return all(
            self.f_false[x] == 1 and self.f_true[x] == 0 and self.f_indet[x] == 0
            for x in self.carrier
        )


class UnionClassification(NamedTuple):
    case: int
    abstract_set: Optional[frozenset[int]]
    description: str


def neutrosophic_union(
    parts: Sequence[NeutrosophicComponent], universe_size: Optional[int] = None
) -> UnionClassification:
    """Classify a union of valued components into one of four extremal cases.

    Cases 1-3 admit an equivalent abstract set (plain union, complement of
    the union, or a mixed split); case 4 has no abstract-set equivalent.
    Complements are taken in a universe of ``universe_size`` elements
    (default: 1 + the largest carrier index seen).
    """
    if not parts:
        raise ContractError("union of zero neutrosophic components")
    if universe_size is None:
        universe_size = 1 + max((x for p in parts for x in p.carrier), default=-1)
    full = frozenset(range(universe_size))
    t_parts = [p for p in parts if p.is_true_extremal()]
    f_parts = [p for p in parts if p.is_false_extremal()]
    if len(t_parts) == len(parts):
        union = frozenset(x for p in parts for x in p.carrier)
        return UnionClassification(1, union, "plain union of the carriers")
    if len(f_parts) == len(parts):
        union = frozenset(x for p in parts for x in p.carrier)
        return UnionClassification(2, full - union, "complement of the carrier union")
    if len(t_parts) + len(f_parts) == len(parts):
        t_union = frozenset(x for p in t_parts for x in p.carrier)
        f_union = frozenset(x for p in f_parts for x in p.carrier)
        return UnionClassification(
            3, t_union | (full - f_union), "union of true carriers plus complement of the rest"
        )
    return UnionClassification(4, None, "general neutrosophic set; no abstract-set equivalent")


def valuate_union(values: Sequence[float], carriers: Sequence[frozenset]) -> float:
    """Inclusion-exclusion valuation of a union of valued sets.

    Intersections that are actually empty contribute 0 (so pairwise-disjoint
    unions are valued additively); non-empty intersections are valued by the
    product of their members' values.
    """
    if len(values) != len(carriers):
        raise ContractError("values and carriers must pair up")
    for v in values:
        if not 0 <= v <= 1:
            raise ContractError(f"component value {v} out of [0,1]")
    k = len(values)
    total = 0
    for r in range(1, k + 1):
        for combo in itertools.combinations(range(k), r):
            meet = frozenset.intersection(*(frozenset(carriers[i]) for i in combo))
            if not meet:
                continue
            term = 1
            for i in combo:
                term = term * values[i]
            total = total + (term if r % 2 == 1 else -term)
    return total
