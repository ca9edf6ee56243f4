"""Multi-ring verification, multi-ideals, the oriented multi-ideal chain
programming, Artin detection, and orthogonal-idempotent decomposition.
"""

from __future__ import annotations

import itertools
from functools import partial
from typing import NamedTuple, Optional, Sequence

from .core import (
    MultiSpace,
    OpTable,
    SubStructureReport,
    UNDEFINED,
    _agree,
    _associativity_witness,
    _elements,
    _generators,
    _mask,
    group_identity_on,
    is_group_on,
)
from .errors import ContractError
from .multigroup import (
    IDEAL_CHAIN,
    SeriesResult,
    SubsetView,
    _check_orientation,
    _componentwise,
    _kept,
    _lattice,
    _maximal,
    _require,
    _run_series,
    _series_profile,
    _series_step,
)


def double_components(ms: MultiSpace) -> list[tuple[str, frozenset[int], OpTable, OpTable]]:
    """(component name, carrier, add, mul) for each component, the parts of
    a multi-ring; single-operation components are rejected here."""
    for comp in ms.components:
        if not comp.double:
            raise ContractError(f"component {comp.name!r} is single-operation; use the multigroup checks")
    return [(c.name, frozenset(c.carrier), ms.op(c.add_name), ms.op(c.mul_name)) for c in ms.components]


def _ring_check(add: OpTable, mul: OpTable, carrier: frozenset[int]) -> Optional[dict]:
    """None when (carrier; add, mul) is a ring, else a witness.  The carrier
    is a component's, so it lies inside both domains.

    Multiplicative associativity and distributivity are decided with z over
    the additive generators a.  With left distributivity everywhere,
    (xy)w = x(yw) for all x and y gives (xy)(w + a) = (xy)w + (xy)a =
    x(yw) + x(ya) = x(yw + ya) = x(y(w + a)).  Only a failure scans every
    triple, associativity first, to name the first one that fails.
    """
    ok, w = is_group_on(add, carrier)
    if not ok:
        return w
    A, M = add.grid, mul.grid
    for x, y in itertools.combinations(carrier, 2):
        if A[x][y] != A[y][x]:
            return {"kind": "additive_commutativity", "pair": (x, y)}
    for x in carrier:
        for y in carrier:
            if M[x][y] not in carrier:
                return {"kind": "multiplicative_closure", "pair": (x, y)}
    # the carrier is an additive group closed under mul, so every product
    # below is defined and lies in it
    gens = _generators(A, carrier)
    if _associativity_witness(M, carrier, gens) or _distributivity_witness(A, M, carrier, gens):
        triple = _associativity_witness(M, carrier, carrier)
        if triple:
            return {"kind": "multiplicative_associativity", "triple": triple}
        return _distributivity_witness(A, M, carrier, carrier)
    return None


def _distributivity_witness(A, M, elems, zs) -> Optional[dict]:
    """The witness of the first triple (x, y, z), x and y in ``elems`` and z
    in ``zs``, with x(y + z) != xy + xz, or else (x + y)z != xz + yz, in that
    loop order; None if there is none.  ``elems`` is an additive group under
    ``A`` with + commutative, closed under ``M``.

    With ``zs`` the additive generators, None decides both laws on all of
    ``elems``; only a failure needs the run with ``zs`` = ``elems``.  Left:
    if x(y + w) = xy + xw for all x and y, then x(y + (w + a)) =
    x((y + w) + a) = (xy + xw) + xa = xy + x(w + a) for every generator a.
    Right, once left distributivity holds everywhere: if (x + y)w = xw + yw
    for all x and y, then (x + y)(w + a) = (x + y)w + (x + y)a =
    (xw + yw) + (xa + ya) = (xw + xa) + (yw + ya) = x(w + a) + y(w + a),
    since + is associative and commutative.
    """
    for x in elems:
        Mx = M[x]
        for y in elems:
            xy, Ay, My, sum_row = Mx[y], A[y], M[y], M[A[x][y]]
            for z in zs:
                if Mx[Ay[z]] != A[xy][Mx[z]]:
                    return {"kind": "left_distributivity", "triple": (x, y, z)}
                if sum_row[z] != A[Mx[z]][My[z]]:
                    return {"kind": "right_distributivity", "triple": (x, y, z)}
    return None


def _field_and_divisors(mul: OpTable, carrier: frozenset[int], zero: Optional[int]) -> tuple[bool, tuple]:
    """The field verdict of a component with additive zero ``zero`` and its
    non-trivial zero divisors over ``sorted(carrier)``; (False, ()) without a zero."""
    if zero is None:
        return False, ()
    M, elems, nonzero = mul.grid, sorted(carrier), carrier - {zero}
    divisors = tuple((a, b) for a in elems for b in elems if a != zero and b != zero and M[a][b] == zero)
    commutes = all(M[x][y] == M[y][x] for x, y in itertools.combinations(carrier, 2))
    return bool(nonzero) and commutes and is_group_on(mul, nonzero)[0], divisors


class MultiRingReport(NamedTuple):
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
    parts = double_components(ms)
    ring_checks, fields, divisors = [], [], []
    witness = None
    for name, carrier, add, mul in parts:
        w = _ring_check(add, mul, carrier)
        ring_checks.append((name, w))
        if w is not None and witness is None:
            witness = {"component": name, **w}
        field, zero_divisors = _field_and_divisors(mul, carrier, group_identity_on(add, carrier))
        fields.append(field)
        divisors.append((name, zero_divisors))

    union = ms.element_union()
    cross_witness = None
    for (ni, _, *ri), (nj, _, *rj) in itertools.permutations(parts, 2):
        found = _cross_violation(*ri, *rj, union)
        if found:
            cross_witness = {"kind": found[0], "pair": (ni, nj), "triple": found[1]}
            break
    if cross_witness and witness is None:
        witness = cross_witness

    verdict = all(w is None for _, w in ring_checks) and cross_witness is None
    return MultiRingReport(
        verdict, tuple(ring_checks), ms.is_completed(), cross_witness, all(fields), tuple(divisors), witness
    )


_CROSS_LABELS = ("mixed_add_assoc", "mixed_mul_assoc", "mixed_left_distrib", "mixed_right_distrib")


def _cross_violation(ai, mi, aj, mj, union) -> Optional[tuple]:
    """First (label, triple) at which a mixed associativity or distribution
    law between the rings (ai, mi) and (aj, mj) fails with both sides
    defined; products are checked before use.

    x, y and z range over the union elements inside the domains that the
    products of some law need: every other triple has an undefined side.
    """
    Dai, Dmi, Daj, Dmj = (frozenset(t.domain) for t in (ai, mi, aj, mj))
    xs, ys, zs = (
        [v for v in union if v in domain]
        for domain in (Dai | Dmi, (Dai & Daj) | (Dmi & (Daj | Dmj)), Daj | Dmj)
    )
    ai, mi, aj, mj = ai.grid, mi.grid, aj.grid, mj.grid
    N = UNDEFINED
    for x in xs:
        aix, mix = ai[x], mi[x]
        for y in ys:
            aixy, mixy, ajy, mjy, miyx = aix[y], mix[y], aj[y], mj[y], mi[y][x]
            if aixy is N and mixy is N and miyx is N:
                continue  # every law below has an undefined side
            for z in zs:
                ajyz, mjyz, mixz, mizx = ajy[z], mjy[z], mix[z], mi[z][x]
                if ajyz is N and mjyz is N:
                    continue
                sides = (
                    (N if aixy is N else aj[aixy][z], N if ajyz is N else aix[ajyz]),
                    (N if mixy is N else mj[mixy][z], N if mjyz is N else mix[mjyz]),
                    (N if ajyz is N else mix[ajyz], N if N in (mixy, mixz) else aj[mixy][mixz]),
                    (N if ajyz is N else mi[ajyz][x], N if N in (miyx, mizx) else aj[miyx][mizx]),
                )
                for label, (lhs, rhs) in zip(_CROSS_LABELS, sides):
                    if lhs is not N and rhs is not N and lhs != rhs:
                        return label, (x, y, z)
    return None


def _ring_parts(sub: SubsetView) -> list[tuple]:
    """The parts of the parent whose both operations the subset keeps."""
    out = _kept(sub, double_components(sub.parent))
    if not out:
        raise ContractError("the subset keeps no complete double operation")
    return out


def is_submultiring(sub: SubsetView) -> SubStructureReport:
    """Dual-route sub-multi-ring test (componentwise subring vs. closure)."""
    ms = sub.parent
    _require(ms, is_multiring, "multi-ring")
    if not sub.elements:
        raise ContractError("the empty subset is not a sub-multi-ring candidate")
    parts = _ring_parts(sub)
    witness_a = _componentwise(sub, parts, lambda add, mul, carrier, meet: _subring_witness(add, mul, meet))
    witness_b = _direct_witness(sub, parts, sub.elements)
    return _agree("sub-multi-ring", witness_a is None, witness_a, "closure", witness_b is None, witness_b)


def _direct_witness(sub: SubsetView, parts, rs) -> Optional[dict]:
    """Route B of the ring sub-structure tests: per kept part, the additive
    witness of the subset's meet with its carrier or the first (r, a), r in
    ``rs``, a in the subset, with ra or ar defined outside it; then the least
    subset element outside every kept carrier; else None.  ``is_multiideal``
    passes the element union as ``rs`` and ``is_submultiring`` the subset S:
    {xy, yx : x, y in S} = {xy : x, y in S}, as yx is the product of the pair
    (y, x) of S, so absorption by S is exactly closure of S under mul."""
    subset = sub.elements
    allowed = subset | {UNDEFINED}
    for name, carrier, add, mul in parts:
        meet = subset & carrier
        if meet:
            ok, w = is_group_on(add, meet)
            if not ok:
                return {"component": name, **w}
        pair = _absorption_escape(mul.grid, rs, subset, allowed)
        if pair is not None:
            return {"kind": "absorption", "op": mul.name, "pair": pair}
    stray = subset.difference(*(carrier for _, carrier, *_ in parts))
    return {"kind": "uncovered_element", "element": min(stray)} if stray else None


def _subring_witness(add: OpTable, mul: OpTable, subset: frozenset[int]) -> Optional[dict]:
    ok, w = is_group_on(add, subset)
    if not ok:
        return w
    grid = mul.grid
    for x in subset:
        for y in subset:
            if grid[x][y] not in subset:
                return {"kind": "mul_closure", "pair": (x, y)}
    return None


def _ideal_witness(add: OpTable, mul: OpTable, carrier: frozenset[int], piece: frozenset[int]) -> Optional[dict]:
    """None when ``piece`` is an ideal of the ring (carrier; add, mul), else
    the additive-subgroup witness or the first escaping absorption pair."""
    ok, w = is_group_on(add, piece)
    if not ok:
        return w
    pair = _absorption_escape(mul.grid, carrier, piece, piece)
    return None if pair is None else {"kind": "absorption", "pair": pair}


def is_multiideal(sub: SubsetView) -> SubStructureReport:
    """Dual-route multi-ideal test: componentwise ideals vs. direct absorption."""
    ms = sub.parent
    _require(ms, is_multiring, "multi-ring")
    if not sub.elements:
        raise ContractError("the empty subset is not a multi-ideal candidate")
    parts = _ring_parts(sub)
    witness_a = _componentwise(sub, parts, _ideal_witness)
    witness_b = _direct_witness(sub, parts, ms.element_union())
    return _agree("multi-ideal", witness_a is None, witness_a, "direct", witness_b is None, witness_b)


# -- ideal machinery -------------------------------------------------------

def ideals_of(add: OpTable, mul: OpTable, carrier: frozenset[int]) -> list[frozenset[int]]:
    """Every ideal of the finite ring (carrier; add, mul): additive subgroups
    absorbing multiplication by the whole carrier on both sides."""
    lattice, test = _lattice(add, carrier)[0], _absorbs(mul, _mask(carrier))
    return [frozenset(_elements(m)) for m, gens in lattice.items() if test(m, gens)]


def _absorbs(mul: OpTable, part: int, *_):
    """The test ``test(mask, gens)`` that a bitmask absorbs multiplication by
    the bitmask ``part``: the exhaustive ``_absorption_escape`` scan, so a
    series step's generators and inverses go unused.  An element of ``part``
    outside mul's domain has only undefined products, which none absorbs."""
    M, rs = mul.grid, _elements(part)
    return lambda mask, gens: not _absorption_escape(M, rs, _elements(mask), frozenset(_elements(mask)))


def _absorption_escape(M, rs, elements, allowed) -> Optional[tuple]:
    """First (r, a), r in ``rs`` and a in ``elements`` (universe indices), with
    ``M[r][a]`` or ``M[a][r]`` not in ``allowed``; ``M`` is a mul grid."""
    return next(
        ((r, a) for r in rs for a in elements if M[r][a] not in allowed or M[a][r] not in allowed),
        None,
    )


def maximal_ideals(add: OpTable, mul: OpTable, carrier: frozenset[int]) -> list[frozenset[int]]:
    top = _mask(carrier)
    return [frozenset(_elements(m)) for m in _maximal(_lattice(add, carrier)[0].items(), top, _absorbs(mul, top))]


def multiideal_chain(ms: MultiSpace, orientation: Sequence[str]) -> SeriesResult:
    """All maximal multi-ideal chains under an oriented double-operation
    sequence; the orientation lists component names, one double op each."""
    _require(ms, is_multiring, "multi-ring")
    _check_orientation(orientation, {name for name, *_ in double_components(ms)}, "double-operation component")
    return _run_series(ms, _ideal_steps(ms, orientation), IDEAL_CHAIN)


def _ideal_steps(ms: MultiSpace, names: Sequence[str]) -> list[tuple]:
    """One series step per double component: its carrier, descending
    through maximal ideals."""
    parts = {part[0]: part for part in double_components(ms)}
    return [
        _series_step(name, carrier, add, partial(_absorbs, mul))
        for name, carrier, add, mul in (parts[name] for name in names)
    ]


class ArtinReport(NamedTuple):
    verdict: bool
    per_component: tuple[tuple[str, bool, int], ...]
    longest_chain: int


def is_artin(ms: MultiSpace) -> ArtinReport:
    """Finite multi-rings are always Artin; the report carries, per component,
    the longest maximal ideal chain found by the series programming."""
    _require(ms, is_multiring, "multi-ring")
    steps = _ideal_steps(ms, [comp.name for comp in ms.components])
    per_component = tuple((step[0], True, max(_series_profile(ms, [step])[2])) for step in steps)
    return ArtinReport(True, per_component, max(d for _, _, d in per_component))


# -- idempotents and decomposition ----------------------------------------

class IdempotentReport(NamedTuple):
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
    A, M = add.grid, mul.grid
    idems = tuple(sorted(e for e in carrier if M[e][e] == e))
    matrix = tuple(tuple(M[a][b] for b in idems) for a in idems)
    families: list[tuple[int, ...]] = []
    if unit is not None:
        nonzero = [e for e in idems if e != zero]
        for r in range(1, len(nonzero) + 1):
            for combo in itertools.combinations(nonzero, r):
                if any(M[a][b] != zero or M[b][a] != zero for a, b in itertools.combinations(combo, 2)):
                    continue
                if _sum(A, combo) == unit:
                    families.append(combo)
    return IdempotentReport(component_name, idems, matrix, zero, unit, tuple(families))


class ComponentDecomposition(NamedTuple):
    component: str
    family: tuple[int, ...]
    pieces: tuple[frozenset[int], ...]
    intersections_trivial: bool
    reconstruction_exact: bool
    unique_sums: bool
    pieces_are_ideals: bool
    two_sided_symmetric: bool


class DecompositionReport(NamedTuple):
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
    _require(ms, is_multiring, "multi-ring")
    out = []
    for name, carrier, add, mul in double_components(ms):
        A, M = add.grid, mul.grid
        report = idempotents(ms, name)
        zero = report.zero
        if report.unit is None:
            raise ContractError(f"component {name!r} has no multiplicative unit")
        families = sorted(report.orthogonal_unit_families, key=lambda f: (-len(f), f))
        family = families[0] if families else (report.unit,)

        right_pieces = tuple(frozenset(M[r][e] for r in sorted(carrier)) for e in family)
        left_pieces = tuple(frozenset(M[e][r] for r in sorted(carrier)) for e in family)
        symmetric = right_pieces == left_pieces
        pieces = right_pieces

        intersections = all(p & q == {zero} for p, q in itertools.combinations(pieces, 2))
        reconstruction = all(_sum(A, [M[r][e] for e in family]) == r for r in carrier)
        totals = [_sum(A, combo) for combo in itertools.product(*pieces)]
        sums = set(totals)
        unique = len(sums) == len(totals) and sums == carrier
        ideal_pieces = all(_ideal_witness(add, mul, carrier, piece) is None for piece in pieces)
        out.append(
            ComponentDecomposition(
                name, family, pieces, intersections, reconstruction, unique, ideal_pieces, symmetric
            )
        )
    return DecompositionReport(tuple(out))


def _sum(A, terms) -> Optional[int]:
    """Left fold of ``terms`` under the addition grid ``A``; UNDEFINED from
    the first undefined term or partial sum on."""
    total = terms[0]
    for term in terms[1:]:
        total = UNDEFINED if UNDEFINED in (total, term) else A[total][term]
    return total
