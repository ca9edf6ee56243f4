"""Multi-vector spaces: finite unions of subspaces of one ambient space over
a prime field, with mixed-chain (in)dependence, greedy bases, and the
inclusion-exclusion dimension formula checked against the greedy count.

All components carry nominally distinct operation labels but act through the
shared ambient arithmetic; a mixed chain is *defined* only when each partial
sum and its next term lie together in some component.
"""

from __future__ import annotations

import itertools
import math
from collections import abc, namedtuple
from operator import mul
from typing import Iterable, NamedTuple, Optional, Sequence

from .core import SubStructureReport, _agree
from .errors import ContractError, InternalCheckError, SizeLimitError

Vector = tuple[int, ...]

DIM_FORMULA_BOUND = 5
AMBIENT_SIZE_BOUND = 4096


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    return all(p % d for d in range(2, math.isqrt(p) + 1))


class AmbientSpace(namedtuple("AmbientSpace", "p n")):
    """Coordinate tuples of length n over the prime field GF(p)."""

    __slots__ = ()

    def __new__(cls, p: int, n: int):
        # the bound comes before the primality test, and p ** n is computed
        # only while p and n are small: for p >= 2, p^n > AMBIENT_SIZE_BOUND
        # as soon as p exceeds it or n exceeds its bit length
        small = p <= AMBIENT_SIZE_BOUND and n <= AMBIENT_SIZE_BOUND.bit_length()
        if p > 1 and n > 0 and (not small or p**n > AMBIENT_SIZE_BOUND):
            size = f"{p}^{n} = {p**n}" if small else f"{p}^{n}"
            raise SizeLimitError(
                f"ambient space enumerates p^n vectors; {size} exceeds AMBIENT_SIZE_BOUND = {AMBIENT_SIZE_BOUND}"
            )
        if not _is_prime(p):
            raise ContractError(f"field order {p} is not prime")
        if n < 1:
            raise ContractError("ambient dimension must be >= 1")
        return super().__new__(cls, p, n)

    # one field read per call, not per coordinate: a tuple field costs more than a local
    def add(self, a: Vector, b: Vector) -> Vector:
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def scale(self, k: int, a: Vector) -> Vector:
        p = self.p
        return tuple((k * x) % p for x in a)

    def zero(self) -> Vector:
        return (0,) * self.n

    def check_vector(self, v) -> Vector:
        """``v`` as a tuple reduced mod p; a coordinate that is not an int
        (a float, bool or str) is an error, never truncated."""
        p, v = self.p, tuple(v)
        for i, c in enumerate(v):
            if isinstance(c, bool) or not isinstance(c, int):
                raise ContractError(f"coordinate {i} of vector {v} is {c!r}, not an integer")
        v = tuple(c % p for c in v)
        if len(v) != self.n:
            raise ContractError(f"vector {v} does not have {self.n} coordinates")
        return v


def span(ambient: AmbientSpace, generators: Iterable[Vector]) -> frozenset[Vector]:
    """The subspace generated: closure of the generators under add and scale."""
    vectors = {ambient.zero()}
    frontier = [ambient.check_vector(g) for g in generators]
    vectors.update(frontier)
    while frontier:
        v = frontier.pop()
        new = [ambient.scale(k, v) for k in range(2, ambient.p)]
        new.extend(ambient.add(v, w) for w in list(vectors))
        for w in new:
            if w not in vectors:
                vectors.add(w)
                frontier.append(w)
    return frozenset(vectors)


def rank(ambient: AmbientSpace, vectors: Iterable[Vector]) -> int:
    """Rank over GF(p): the size of the canonical basis of the span."""
    return len(canonical_basis(ambient, vectors))


def canonical_basis(ambient: AmbientSpace, vectors: Iterable[Vector]) -> tuple[Vector, ...]:
    """Reduced-echelon basis rows of the span of the given vectors."""
    p = ambient.p
    basis: dict[int, list[int]] = {}  # leading column -> row with leading entry 1
    for row in ([x % p for x in v] for v in vectors):
        for lead, b in basis.items():
            if row[lead]:
                factor = row[lead]
                row = [(x - factor * y) % p for x, y in zip(row, b)]
        lead = next((i for i, x in enumerate(row) if x), None)
        if lead is not None:
            inv = pow(row[lead], p - 2, p)
            basis[lead] = [(x * inv) % p for x in row]
    # back-substitute to reduced form
    leads = sorted(basis)
    for i, lead in enumerate(leads):
        for other in leads[:i]:
            row = basis[other]
            if row[lead]:
                factor = row[lead]
                basis[other] = [(x - factor * y) % p for x, y in zip(row, basis[lead])]
    return tuple(tuple(basis[lead]) for lead in leads)


def _is_span(ambient: AmbientSpace, vectors, generators) -> bool:
    """``vectors == span(ambient, generators)`` without enumerating the span: a set of
    p^rank tuples v, each sum(v[lead(b)] * b) over the reduced echelon basis, v[lead(b)] in GF(p)."""
    basis = canonical_basis(ambient, [ambient.check_vector(g) for g in generators])
    p, n, leads = ambient.p, ambient.n, [b.index(1) for b in basis]
    columns, field = list(zip(*basis)) or [()] * n, range(p)
    return isinstance(vectors, abc.Set) and len(vectors) == p ** len(basis) and all(
        isinstance(v, tuple) and len(v) == n and all(map(field.__contains__, cs := [v[i] for i in leads]))
        and v == tuple([sum(map(mul, cs, col)) % p for col in columns])
        for v in vectors
    )


class VectorComponent(NamedTuple):
    name: str
    generators: tuple[Vector, ...]
    vectors: frozenset[Vector]
    add_label: str
    scale_label: str


class MultiVectorSpace:
    """Named subspace components of a common ambient space."""

    def __init__(self, ambient: AmbientSpace, components: Sequence[VectorComponent]):
        self.ambient = ambient
        self.components = tuple(components)
        if len({c.name for c in self.components}) != len(self.components):
            raise ContractError("component names must be unique")
        for comp in self.components:
            if not _is_span(ambient, comp.vectors, comp.generators):
                raise ContractError(f"component {comp.name!r} is not closed: not a subspace")

    @classmethod
    def from_generators(
        cls, ambient: AmbientSpace, generator_lists: Sequence[Sequence[Vector]], names=None
    ) -> "MultiVectorSpace":
        if names is not None and len(names) != len(generator_lists):
            raise ContractError(f"{len(names)} names for {len(generator_lists)} generator lists")
        comps = []
        for i, gens in enumerate(generator_lists):
            gens = tuple(ambient.check_vector(g) for g in gens)
            name = names[i] if names else f"V{i + 1}"
            comps.append(
                VectorComponent(name, gens, span(ambient, gens), f"+{i + 1}", f".{i + 1}")
            )
        return cls(ambient, comps)

    def union_vectors(self) -> frozenset[Vector]:
        out: set[Vector] = set()
        for comp in self.components:
            out.update(comp.vectors)
        return frozenset(out)

    def components_containing(self, v: Vector) -> tuple[int, ...]:
        return tuple(i for i, comp in enumerate(self.components) if v in comp.vectors)

    def share_component(self, a: Vector, b: Vector) -> bool:
        return any(a in c.vectors and b in c.vectors for c in self.components)


def is_multivector_subspace(
    sub_components: Sequence[Iterable[Vector]], parent: MultiVectorSpace
) -> SubStructureReport:
    """Subspace criterion for a union of per-component subsets.

    Direct route: every defined scale-then-add combination of union members
    stays in the union.  Componentwise route: the union meets each component
    in a subspace (or not at all).  Both routes must agree.
    """
    ambient = parent.ambient
    if len(sub_components) != len(parent.components):
        raise ContractError("provide one (possibly empty) subset per parent component")
    subsets = []
    for comp, raw in zip(parent.components, sub_components):
        sub = frozenset(ambient.check_vector(v) for v in raw)
        if not sub <= comp.vectors:
            raise ContractError(f"subset of {comp.name!r} leaves its component")
        subsets.append(sub)
    union = frozenset().union(*subsets) if subsets else frozenset()
    witness = _closure_witness(ambient, union, parent.components)
    componentwise = all(
        not meet or len(meet) == ambient.p ** rank(ambient, meet)
        for meet in (union & comp.vectors for comp in parent.components)
    )
    return _agree("subspace", componentwise, None, "direct", witness is None, witness)


def _closure_witness(ambient: AmbientSpace, union, components) -> Optional[dict]:
    """The first alpha*a + b outside ``union``, for a and b in ``union`` with
    alpha*a and b in one component, scanning component pairs in order; or
    None when the union is closed."""
    for vectors_i in (c.vectors for c in components):
        for vectors_j in (c.vectors for c in components):
            for a in union:
                if a not in vectors_i:
                    continue
                for alpha in range(ambient.p):
                    w = ambient.scale(alpha, a)
                    if w not in vectors_j:
                        continue
                    for b in union:
                        if b in vectors_j:
                            out = ambient.add(w, b)
                            if out not in union:
                                return {"alpha": alpha, "a": a, "b": b, "result": out}
    return None


class IndependenceReport(NamedTuple):
    independent: bool
    certificate: Optional[tuple[int, ...]]
    case: Optional[int]  # 1: all chains defined; 2: some chains undefined


def _chain_value(ms: MultiVectorSpace, scalars, vectors) -> Optional[Vector]:
    """Left-associative scaled sum; None when some step has no home component."""
    ambient = ms.ambient
    terms = [ambient.scale(k, v) for k, v in zip(scalars, vectors)]
    acc = terms[0]
    for term in terms[1:]:
        if not ms.share_component(acc, term):
            return None
        acc = ambient.add(acc, term)
    return acc


def linearly_independent(vectors: Sequence[Vector], ms: MultiVectorSpace) -> IndependenceReport:
    """Scan every scalar tuple for a defined chain that lands on zero.

    The first (lexicographically least) non-trivial such tuple is the
    dependence certificate.  Independent verdicts distinguish whether every
    non-trivial chain was defined (case 1) or some were undefined (case 2).
    """
    ambient = ms.ambient
    vectors = [ambient.check_vector(v) for v in vectors]
    for v in vectors:
        if not ms.components_containing(v):
            raise ContractError(f"vector {v} is outside the component union")
    if not vectors:
        return IndependenceReport(True, None, 1)
    zero = ambient.zero()
    all_defined = True
    for scalars in itertools.product(range(ambient.p), repeat=len(vectors)):
        if not any(scalars):
            continue
        value = _chain_value(ms, scalars, vectors)
        if value is None:
            all_defined = False
        elif value == zero:
            return IndependenceReport(False, scalars, None)
    return IndependenceReport(True, None, 1 if all_defined else 2)


def component_bases(ms: MultiVectorSpace) -> list[Vector]:
    """Concatenated canonical bases of the components, duplicates dropped."""
    out: list[Vector] = []
    for comp in ms.components:
        for v in canonical_basis(ms.ambient, comp.generators):
            if v not in out:
                out.append(v)
    return out


def greedy_basis(ms: MultiVectorSpace, order: Optional[Sequence[Vector]] = None) -> tuple[Vector, ...]:
    """Shrink the union of component bases one redundant vector at a time.

    A vector is removed while the remaining set still spans everything it
    spanned before (i.e. the vector lies in the span of the others); the
    result is an independent set whose span covers the component union.
    Deterministic: each vector in the given order (default: canonical sorted
    order of the starting set) goes if the rest still span.  That removes
    exactly the v_i in span(v_{i+1}, ..., v_k), which the later vectors kept by
    a pass from the last span, so it is that pass, keeping each vector outside
    the echelon form of those kept.  A v_i in that span goes: the rest hold
    v_{i+1}..v_k.  Any other v_i stays: were it in the span of the rest, some
    earlier kept vector has a nonzero coefficient, and solving for the last,
    v_h, puts it in the span of the kept before it, v_i and the later vectors,
    all in the rest at v_h's turn, so v_h would have gone.
    """
    start = component_bases(ms)
    working = sorted(start) if order is None else list(order)
    if sorted(working) != sorted(start):
        raise ContractError("order must permute the union of component bases")
    echelon = kept = ()
    for v in reversed(working):
        grown = canonical_basis(ms.ambient, echelon + (v,))
        if len(grown) > len(echelon):
            echelon, kept = grown, (v,) + kept
    return kept


class DimReport(NamedTuple):
    formula_value: int
    greedy_value: int
    agree: bool
    intersection_dims: tuple[tuple[tuple[int, ...], int], ...]


def dim_formula(ms: MultiVectorSpace) -> DimReport:
    """Inclusion-exclusion over component intersections vs. the greedy count.

    The two values provably agree for k <= 2; for k >= 3 they can genuinely
    differ and the report flags (not hides) the disagreement.  A meet of
    subspaces is a subspace: its dimension is log_p |meet|, found without elimination.
    """
    k = len(ms.components)
    if k > DIM_FORMULA_BOUND:
        raise SizeLimitError(
            f"dimension formula enumerates 2^k - 1 terms; k = {k} exceeds DIM_FORMULA_BOUND = {DIM_FORMULA_BOUND}"
        )
    terms = []
    total, p = 0, ms.ambient.p
    for r in range(1, k + 1):
        for combo in itertools.combinations(range(k), r):
            size = len(frozenset.intersection(*(ms.components[i].vectors for i in combo)))
            d = next(e for e in itertools.count() if p**e >= size)
            if p**d != size:
                raise InternalCheckError(f"the meet of components {combo} has {size} vectors, not a power of {p}")
            terms.append((combo, d))
            total += d if r % 2 == 1 else -d
    greedy = len(greedy_basis(ms))
    return DimReport(total, greedy, total == greedy, tuple(terms))


class AdditiveReport(NamedTuple):
    dim_union: int
    dim_first: int
    dim_second: int
    dim_intersection: int
    holds: bool


def additive_formula_check(v1: MultiVectorSpace, v2: MultiVectorSpace) -> AdditiveReport:
    """dim(V1 u V2) = dim V1 + dim V2 - dim(V1 n V2), dims as greedy counts."""
    if v1.ambient != v2.ambient:
        raise ContractError("both spaces must share one ambient space")
    d1 = rank(v1.ambient, v1.union_vectors())
    d2 = rank(v2.ambient, v2.union_vectors())
    meet = v1.union_vectors() & v2.union_vectors()
    dmeet = rank(v1.ambient, meet)
    dunion = rank(v1.ambient, v1.union_vectors() | v2.union_vectors())
    return AdditiveReport(dunion, d1, d2, dmeet, dunion == d1 + d2 - dmeet)
