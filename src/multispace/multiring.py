"""Multi-ring verification, multi-ideals, the oriented multi-ideal chain
programming, Artin detection, and orthogonal-idempotent decomposition.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from .core import Component, MultiSpace, OpTable, UNDEFINED, group_identity_on, is_group_on
from .errors import ContractError, InternalCheckError
from .multigroup import (
    IDEAL_CHAIN,
    SeriesResult,
    SubsetView,
    SubStructureReport,
    _run_series,
    subgroups_of,
)


def double_components(ms: MultiSpace) -> list[Component]:
    for comp in ms.components:
        if not comp.double:
            raise ContractError(
                f"component {comp.name!r} is single-operation; use the multigroup checks"
            )
    return list(ms.components)


def _ring_check(add: OpTable, mul: OpTable, carrier: frozenset[int]) -> Optional[dict]:
    """None when (carrier; add, mul) is a ring, else a witness."""
    ok, w = is_group_on(add, carrier)
    if not ok:
        return {"kind": "additive_group", **(w or {})}
    for x, y in itertools.combinations(carrier, 2):
        if add.apply(x, y) != add.apply(y, x):
            return {"kind": "additive_commutativity", "pair": (x, y)}
    for x in carrier:
        for y in carrier:
            v = mul.apply(x, y)
            if v is UNDEFINED or v not in carrier:
                return {"kind": "multiplicative_closure", "pair": (x, y)}
    for x, y, z in itertools.product(carrier, repeat=3):
        if mul.apply(mul.apply(x, y), z) != mul.apply(x, mul.apply(y, z)):
            return {"kind": "multiplicative_associativity", "triple": (x, y, z)}
    for x, y, z in itertools.product(carrier, repeat=3):
        if mul.apply(x, add.apply(y, z)) != add.apply(mul.apply(x, y), mul.apply(x, z)):
            return {"kind": "left_distributivity", "triple": (x, y, z)}
        if mul.apply(add.apply(x, y), z) != add.apply(mul.apply(x, z), mul.apply(y, z)):
            return {"kind": "right_distributivity", "triple": (x, y, z)}
    return None


def _field_check(add: OpTable, mul: OpTable, carrier: frozenset[int]) -> bool:
    zero = group_identity_on(add, carrier)
    nonzero = carrier - {zero}
    if zero is None or not nonzero:
        return False
    for x, y in itertools.combinations(carrier, 2):
        if mul.apply(x, y) != mul.apply(y, x):
            return False
    ok, _ = is_group_on(mul, nonzero)
    return ok


def _zero_divisors(add: OpTable, mul: OpTable, carrier: frozenset[int]) -> tuple:
    zero = group_identity_on(add, carrier)
    if zero is None:
        return ()
    return tuple(
        (a, b)
        for a in sorted(carrier)
        for b in sorted(carrier)
        if a != zero and b != zero and mul.apply(a, b) == zero
    )


@dataclass(frozen=True)
class MultiRingReport:
    verdict: bool
    ring_checks: tuple[tuple[str, Optional[dict]], ...]
    complete: bool
    cross_witness: Optional[dict]
    multifield: bool
    zero_divisors: tuple[tuple[str, tuple], ...]
    witness: Optional[dict]


def is_multiring(ms: MultiSpace) -> MultiRingReport:
    """Each component must be a ring; across distinct double operations the
    mixed associativity and distribution identities must hold on every
    fully-defined triple.  Completeness is reported, not required, so
    shared-zero unions pass.  Non-trivial zero divisors are metadata.
    """
    comps = double_components(ms)
    ring_checks = []
    witness = None
    for comp in comps:
        w = _ring_check(ms.op(comp.add_name), ms.op(comp.mul_name), frozenset(comp.carrier))
        ring_checks.append((comp.name, w))
        if w is not None and witness is None:
            witness = {"component": comp.name, **w}

    union = ms.element_union()
    cross_witness = None
    for ci, cj in itertools.permutations(comps, 2):
        addi, muli = ms.op(ci.add_name), ms.op(ci.mul_name)
        addj, mulj = ms.op(cj.add_name), ms.op(cj.mul_name)
        for x, y, z in itertools.product(union, repeat=3):
            checks = (
                (addj.apply(addi.apply(x, y), z), addi.apply(x, addj.apply(y, z)), "mixed_add_assoc"),
                (mulj.apply(muli.apply(x, y), z), muli.apply(x, mulj.apply(y, z)), "mixed_mul_assoc"),
                (
                    muli.apply(x, addj.apply(y, z)),
                    addj.apply(muli.apply(x, y), muli.apply(x, z)),
                    "mixed_left_distrib",
                ),
                (
                    muli.apply(addj.apply(y, z), x),
                    addj.apply(muli.apply(y, x), muli.apply(z, x)),
                    "mixed_right_distrib",
                ),
            )
            for lhs, rhs, label in checks:
                if lhs is not UNDEFINED and rhs is not UNDEFINED and lhs != rhs:
                    cross_witness = cross_witness or {
                        "kind": label,
                        "pair": (ci.name, cj.name),
                        "triple": (x, y, z),
                    }
        if cross_witness:
            break
    if cross_witness and witness is None:
        witness = cross_witness

    multifield = all(
        _field_check(ms.op(c.add_name), ms.op(c.mul_name), frozenset(c.carrier)) for c in comps
    )
    divisors = tuple(
        (c.name, _zero_divisors(ms.op(c.add_name), ms.op(c.mul_name), frozenset(c.carrier)))
        for c in comps
    )
    verdict = all(w is None for _, w in ring_checks) and cross_witness is None
    return MultiRingReport(
        verdict, tuple(ring_checks), ms.is_completed(), cross_witness, multifield, divisors, witness
    )


def _require_multiring(ms: MultiSpace) -> None:
    # values are immutable after construction, so the verdict may be cached
    report = getattr(ms, "_multiring_report", None)
    if report is None:
        report = is_multiring(ms)
        ms._multiring_report = report
    if not report.verdict:
        raise ContractError(f"parent is not a multi-ring: {report.witness}")


def _sub_ops(sub: SubsetView) -> list[Component]:
    """Double components of the parent whose both op names the subset keeps."""
    out = []
    for comp in double_components(sub.parent):
        if comp.add_name in sub.op_names and comp.mul_name in sub.op_names:
            out.append(comp)
    if not out:
        raise ContractError("the subset keeps no complete double operation")
    return out


def is_submultiring(sub: SubsetView) -> SubStructureReport:
    """Dual-route sub-multi-ring test (componentwise subring vs. closure)."""
    ms = sub.parent
    _require_multiring(ms)
    if not sub.elements:
        raise ContractError("the empty subset is not a sub-multi-ring candidate")
    comps = _sub_ops(sub)

    by_component = True
    witness_a = None
    covered: set[int] = set()
    for comp in comps:
        covered.update(comp.carrier)
        meet = sub.elements & frozenset(comp.carrier)
        if not meet:
            continue
        w = _subring_witness(ms.op(comp.add_name), ms.op(comp.mul_name), meet)
        if w is not None:
            by_component = False
            witness_a = witness_a or {"component": comp.name, **w}
    if not sub.elements <= covered:
        by_component = False
        witness_a = witness_a or {
            "kind": "uncovered_element",
            "element": sorted(sub.elements - covered)[0],
        }

    by_closure = True
    witness_b = None
    for comp in comps:
        add, mul = ms.op(comp.add_name), ms.op(comp.mul_name)
        meet = sub.elements & frozenset(comp.carrier)
        if meet:
            ok, w = is_group_on(add, meet)
            if not ok:
                by_closure = False
                witness_b = witness_b or {"component": comp.name, "kind": "additive", **(w or {})}
        for x in sub.elements:
            for y in sub.elements:
                v = mul.apply(x, y)
                if v is not UNDEFINED and v not in sub.elements:
                    by_closure = False
                    witness_b = witness_b or {
                        "kind": "mul_closure",
                        "op": comp.mul_name,
                        "pair": (x, y),
                    }
    if not sub.elements <= covered:
        by_closure = False

    if by_component != by_closure:
        raise InternalCheckError(
            f"sub-multi-ring criteria disagree: componentwise={by_component} "
            f"({witness_a}), closure={by_closure} ({witness_b})"
        )
    return SubStructureReport(by_component, by_component, by_closure, witness_a or witness_b)


def _subring_witness(add: OpTable, mul: OpTable, subset: frozenset[int]) -> Optional[dict]:
    ok, w = is_group_on(add, subset)
    if not ok:
        return {"kind": "additive_subgroup", **(w or {})}
    for x in subset:
        for y in subset:
            if mul.apply(x, y) not in subset:
                return {"kind": "mul_closure", "pair": (x, y)}
    return None


def is_multiideal(sub: SubsetView) -> SubStructureReport:
    """Dual-route multi-ideal test: componentwise ideals vs. direct absorption."""
    ms = sub.parent
    _require_multiring(ms)
    if not sub.elements:
        raise ContractError("the empty subset is not a multi-ideal candidate")
    comps = _sub_ops(sub)

    by_component = True
    witness_a = None
    covered: set[int] = set()
    for comp in comps:
        covered.update(comp.carrier)
        carrier = frozenset(comp.carrier)
        meet = sub.elements & carrier
        if not meet:
            continue
        add, mul = ms.op(comp.add_name), ms.op(comp.mul_name)
        ok, w = is_group_on(add, meet)
        if not ok:
            by_component = False
            witness_a = witness_a or {"component": comp.name, "kind": "additive", **(w or {})}
            continue
        for r in carrier:
            for a in meet:
                if mul.apply(r, a) not in meet or mul.apply(a, r) not in meet:
                    by_component = False
                    witness_a = witness_a or {
                        "component": comp.name,
                        "kind": "absorption",
                        "pair": (r, a),
                    }
    if not sub.elements <= covered:
        by_component = False
        witness_a = witness_a or {"kind": "uncovered_element"}

    by_direct = True
    witness_b = None
    union = ms.element_union()
    for comp in comps:
        add, mul = ms.op(comp.add_name), ms.op(comp.mul_name)
        meet = sub.elements & frozenset(comp.carrier)
        if meet:
            ok, w = is_group_on(add, meet)
            if not ok:
                by_direct = False
                witness_b = witness_b or {"kind": "additive", **(w or {})}
        for r in union:
            for a in sub.elements:
                for v in (mul.apply(r, a), mul.apply(a, r)):
                    if v is not UNDEFINED and v not in sub.elements:
                        by_direct = False
                        witness_b = witness_b or {
                            "kind": "absorption",
                            "op": comp.mul_name,
                            "pair": (r, a),
                        }
    if not sub.elements <= covered:
        by_direct = False

    if by_component != by_direct:
        raise InternalCheckError(
            f"multi-ideal criteria disagree: componentwise={by_component} "
            f"({witness_a}), direct={by_direct} ({witness_b})"
        )
    return SubStructureReport(by_component, by_component, by_direct, witness_a or witness_b)


# -- ideal machinery -------------------------------------------------------

def ideals_of(add: OpTable, mul: OpTable, carrier: frozenset[int]) -> list[frozenset[int]]:
    """Every ideal of the finite ring (carrier; add, mul): additive subgroups
    absorbing multiplication by the whole carrier on both sides."""
    out = []
    for sub in subgroups_of(add, carrier):
        if all(
            mul.apply(r, a) in sub and mul.apply(a, r) in sub
            for r in carrier
            for a in sub
        ):
            out.append(sub)
    return out


def maximal_ideals(add: OpTable, mul: OpTable, carrier: frozenset[int]) -> list[frozenset[int]]:
    ideals = [i for i in ideals_of(add, mul, carrier) if i != carrier]
    return [i for i in ideals if not any(i < j for j in ideals)]


def multiideal_chain(ms: MultiSpace, orientation: Sequence[str]) -> SeriesResult:
    """All maximal multi-ideal chains under an oriented double-operation
    sequence; the orientation lists component names, one double op each."""
    _require_multiring(ms)
    names = {c.name for c in double_components(ms)}
    if set(orientation) != names or len(orientation) != len(names):
        raise ContractError("orientation must list each double-operation component exactly once")
    return _run_series(ms, orientation, IDEAL_CHAIN)


@dataclass(frozen=True)
class ArtinReport:
    verdict: bool
    per_component: tuple[tuple[str, bool, int], ...]
    longest_chain: int


def is_artin(ms: MultiSpace) -> ArtinReport:
    """Finite multi-rings are always Artin; the report carries, per component,
    the (finite) maximal ideal-chain length found by exhaustive descent."""
    _require_multiring(ms)
    per_component = []
    for comp in double_components(ms):
        add, mul = ms.op(comp.add_name), ms.op(comp.mul_name)
        carrier = frozenset(comp.carrier)
        memo: dict[frozenset, int] = {}

        def depth(level: frozenset) -> int:
            if level not in memo:
                nexts = maximal_ideals(add, mul, level)
                memo[level] = 0 if not nexts else 1 + max(depth(n) for n in nexts)
            return memo[level]

        per_component.append((comp.name, True, depth(carrier)))
    return ArtinReport(True, tuple(per_component), max(d for _, _, d in per_component))


# -- idempotents and decomposition ----------------------------------------

@dataclass(frozen=True)
class IdempotentReport:
    component: str
    elements: tuple[int, ...]
    product_matrix: tuple[tuple[int, ...], ...]
    zero: int
    unit: Optional[int]
    orthogonal_unit_families: tuple[tuple[int, ...], ...]


def idempotents(ms: MultiSpace, component_name: str) -> IdempotentReport:
    """All idempotents of one double component, their pairwise products, and
    every family of pairwise-orthogonal non-zero idempotents summing to 1."""
    comp = ms.component(component_name)
    if not comp.double:
        raise ContractError(f"component {component_name!r} is not double-operation")
    add, mul = ms.op(comp.add_name), ms.op(comp.mul_name)
    carrier = frozenset(comp.carrier)
    zero = group_identity_on(add, carrier)
    if zero is None:
        raise ContractError(f"no identity inside the given subset of {add.name!r}")
    unit = group_identity_on(mul, carrier)
    idems = tuple(sorted(e for e in carrier if mul.apply(e, e) == e))
    matrix = tuple(tuple(mul.apply(a, b) for b in idems) for a in idems)
    families: list[tuple[int, ...]] = []
    if unit is not None:
        nonzero = [e for e in idems if e != zero]
        for r in range(1, len(nonzero) + 1):
            for combo in itertools.combinations(nonzero, r):
                if any(
                    mul.apply(a, b) != zero or mul.apply(b, a) != zero
                    for a, b in itertools.combinations(combo, 2)
                ):
                    continue
                total = combo[0]
                for e in combo[1:]:
                    total = add.apply(total, e)
                if total == unit:
                    families.append(combo)
    return IdempotentReport(component_name, idems, matrix, zero, unit, tuple(families))


@dataclass(frozen=True)
class ComponentDecomposition:
    component: str
    family: tuple[int, ...]
    pieces: tuple[frozenset[int], ...]
    intersections_trivial: bool
    reconstruction_exact: bool
    unique_sums: bool
    pieces_are_ideals: bool
    two_sided_symmetric: bool


@dataclass(frozen=True)
class DecompositionReport:
    components: tuple[ComponentDecomposition, ...]

    @property
    def all_valid(self) -> bool:
        return all(
            c.intersections_trivial and c.reconstruction_exact and c.unique_sums and c.pieces_are_ideals
            for c in self.components
        )


def decompose_artin(ms: MultiSpace) -> DecompositionReport:
    """Directed-sum decomposition of each unital component by a largest
    family of orthogonal idempotents summing to the unit.

    For each piece R*e the report verifies: pairwise intersections reduce to
    the zero element, every element reconstructs as the sum of its
    projections, the sum map is a bijection (unique representation), and
    each piece is an ideal.  e*R is compared against R*e and any asymmetry
    (possible for non-commutative components) is flagged.
    """
    _require_multiring(ms)
    out = []
    for comp in double_components(ms):
        add, mul = ms.op(comp.add_name), ms.op(comp.mul_name)
        carrier = frozenset(comp.carrier)
        report = idempotents(ms, comp.name)
        zero = report.zero
        if report.unit is None:
            raise ContractError(f"component {comp.name!r} has no multiplicative unit")
        families = sorted(report.orthogonal_unit_families, key=lambda f: (-len(f), f))
        family = families[0] if families else (report.unit,)

        right_pieces = tuple(
            frozenset(mul.apply(r, e) for r in sorted(carrier)) for e in family
        )
        left_pieces = tuple(
            frozenset(mul.apply(e, r) for r in sorted(carrier)) for e in family
        )
        symmetric = right_pieces == left_pieces
        pieces = right_pieces

        intersections = all(
            pieces[i] & pieces[j] == {zero}
            for i in range(len(pieces))
            for j in range(i + 1, len(pieces))
        )
        reconstruction = True
        for r in carrier:
            total = None
            for e in family:
                term = mul.apply(r, e)
                total = term if total is None else add.apply(total, term)
            if total != r:
                reconstruction = False
        sums = {}
        unique = True
        for combo in itertools.product(*pieces):
            total = combo[0]
            for term in combo[1:]:
                total = add.apply(total, term)
            if total in sums:
                unique = False
            sums[total] = combo
        unique = unique and set(sums) == carrier
        ideal_pieces = all(
            _piece_is_ideal(add, mul, carrier, piece) for piece in pieces
        )
        out.append(
            ComponentDecomposition(
                comp.name, family, pieces, intersections, reconstruction, unique, ideal_pieces, symmetric
            )
        )
    return DecompositionReport(tuple(out))


def _piece_is_ideal(add: OpTable, mul: OpTable, carrier: frozenset[int], piece: frozenset[int]) -> bool:
    ok, _ = is_group_on(add, piece)
    if not ok:
        return False
    return all(
        mul.apply(r, a) in piece and mul.apply(a, r) in piece
        for r in carrier
        for a in piece
    )
