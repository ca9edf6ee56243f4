"""Multi-group verification: axiom checks, sub-structures, cosets, normality,
and the oriented maximal normal series with its length invariant.

Sub-structure and normality verdicts are always computed by two independent
routes (componentwise criterion vs. direct scan) that must agree.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import cache, partial
from typing import NamedTuple, Optional, Reversible, Sequence

from .core import (
    MultiSpace,
    OpTable,
    SubStructureReport,
    UNDEFINED,
    _agree,
    _elements,
    _mask,
    classify_table,
    group_identity_on,
    group_inverses_on,
    is_group_on,
)
from .errors import ContractError, InternalCheckError, PartitionError, SizeLimitError

SERIES_UNION_BOUND = 24
SERIES_CHAIN_BOUND = 50_000

NORMAL_SERIES = "normal_series"
IDEAL_CHAIN = "ideal_chain"


class SubsetView(namedtuple("SubsetView", "parent elements op_names")):
    """A subset of a parent space's elements plus a subset of its operations."""

    __slots__ = ()

    def __new__(cls, parent: MultiSpace, elements: frozenset[int], op_names: tuple[str, ...]):
        if not elements <= set(parent.element_union()):
            raise ContractError("subset elements must lie in the parent carrier union")
        for name in op_names:
            parent.op(name)
        return super().__new__(cls, parent, elements, op_names)

    @classmethod
    def of_names(cls, parent: MultiSpace, names: Sequence[str], op_names=None) -> "SubsetView":
        elements = frozenset(parent.universe.index(n) for n in names)
        if op_names is None:
            op_names = tuple(t.name for t in parent.ops)
        return cls(parent, elements, tuple(op_names))


class SeriesChain(NamedTuple):
    levels: tuple[frozenset[int], ...]
    step_ops: tuple[str, ...]
    kind: str


def group_bindings(ms: MultiSpace) -> list[tuple[str, frozenset[int], OpTable]]:
    """Expand components into (component name, carrier, table) group
    bindings, the parts of a multi-group.

    A carrier bound to several single operations counts once per operation;
    double-operation (ring-style) components are rejected here.
    """
    out = []
    for comp in ms.components:
        if comp.double:
            raise ContractError(f"component {comp.name!r} is double-operation; use the multiring checks")
        carrier = frozenset(comp.carrier)
        out.extend((comp.name, carrier, ms.op(op_name)) for op_name in comp.op_names)
    return out


class DistributionCheck(NamedTuple):
    pair: tuple[str, str]
    orientation: Optional[str]  # "first", "second", "both", or None
    witness: Optional[tuple]


class MultiGroupReport(NamedTuple):
    verdict: bool
    group_checks: tuple[tuple[str, str, bool, Optional[dict]], ...]
    complete: bool
    distribution: tuple[DistributionCheck, ...]
    witness: Optional[dict]


def _distributes_over(ms: MultiSpace, f: OpTable, g: OpTable) -> Optional[tuple]:
    """First triple violating "f distributes over g" where all products exist.

    x ranges over union elements in f's domain, y and z over those in both
    domains: every other triple has an undefined side.
    """
    xs = [x for x in ms.element_union() if f.in_domain(x)]
    yzs = [y for y in xs if g.in_domain(y)]
    F, G = f.grid, g.grid
    for x in xs:
        fx = F[x]
        for y in yzs:
            xy, yx, gy = fx[y], F[y][x], G[y]
            for z in yzs:
                yz = gy[z]
                if yz is UNDEFINED:
                    continue
                lhs, xz = fx[yz], fx[z]
                if lhs is not UNDEFINED and xy is not UNDEFINED and xz is not UNDEFINED:
                    rhs = G[xy][xz]
                    if rhs is not UNDEFINED and lhs != rhs:
                        return (x, y, z, "left")
                lhs, zx = F[yz][x], F[z][x]
                if lhs is not UNDEFINED and yx is not UNDEFINED and zx is not UNDEFINED:
                    rhs = G[yx][zx]
                    if rhs is not UNDEFINED and lhs != rhs:
                        return (x, y, z, "right")
    return None


def is_multigroup(ms: MultiSpace) -> MultiGroupReport:
    """Check every component is a group and distribution holds pairwise.

    Per operation pair, one of the two operations must distribute over the
    other on all fully-defined triples; which orientation holds is recorded.
    Completeness of the space is reported but not required for the verdict,
    so unions overlapping only in shared identities are accepted.
    """
    bindings = group_bindings(ms)
    group_checks = []
    witness = None
    for name, carrier, table in bindings:
        ok, w = is_group_on(table, carrier)
        group_checks.append((name, table.name, ok, w))
        if not ok and witness is None:
            witness = {"component": name, "op": table.name, **(w or {})}
    distribution = []
    op_names = sorted({table.name for _, _, table in bindings})
    for a, b in itertools.combinations(op_names, 2):
        fa, fb = ms.op(a), ms.op(b)
        first = _distributes_over(ms, fa, fb)
        second = _distributes_over(ms, fb, fa)
        if first is None and second is None:
            orientation = "both"
        elif first is None:
            orientation = "first"
        elif second is None:
            orientation = "second"
        else:
            orientation = None
        check = DistributionCheck((a, b), orientation, first if orientation is None else None)
        distribution.append(check)
        if orientation is None and witness is None:
            witness = {"kind": "distribution", "pair": (a, b), "triple": first}
    verdict = all(ok for _, _, ok, _ in group_checks) and all(d.orientation is not None for d in distribution)
    return MultiGroupReport(verdict, tuple(group_checks), ms.is_completed(), tuple(distribution), witness)


def _require(ms: MultiSpace, verifier, what: str) -> None:
    """Raise ContractError with the report's witness unless ``verifier(ms)``
    holds; the report is cached on the space, whose values are immutable."""
    reports = vars(ms).setdefault("_prerequisites", {})
    if what not in reports:
        reports[what] = verifier(ms)
    if not reports[what].verdict:
        raise ContractError(f"parent is not a {what}", reports[what].witness)


def _componentwise(sub: SubsetView, parts, test) -> Optional[dict]:
    """Route A of the dual-route tests.  Each part is ``(name, carrier,
    *tables)`` with a frozenset carrier; ``test(*tables, carrier, meet)``
    gives a witness or None for each non-empty meet of the subset with a
    carrier.  The first failing part's witness, else the least subset
    element outside every carrier, else None."""
    for name, carrier, *tables in parts:
        meet = sub.elements & carrier
        if meet:
            w = test(*tables, carrier, meet)
            if w is not None:
                return {"component": name, **w}
    stray = sub.elements.difference(*(carrier for _, carrier, *_ in parts))
    return {"kind": "uncovered_element", "element": min(stray)} if stray else None


def _kept(sub: SubsetView, parts) -> list[tuple]:
    """The parts ``(name, carrier, *tables)`` all of whose tables the subset keeps."""
    return [part for part in parts if all(table.name in sub.op_names for table in part[2:])]


def _op_carrier(parts, table: OpTable) -> frozenset[int]:
    """The union of the carriers of the parts bound to ``table``.  It is
    built from its sorted elements, as a component's carrier is, so that
    iterating it (``is_normal``'s first witness) meets them in one order."""
    return frozenset(sorted(set().union(*(carrier for _, carrier, t in parts if t is table))))


def _subgroup_witness(table: OpTable, carrier, meet) -> Optional[dict]:
    ok, w = is_group_on(table, meet)
    return None if ok else {"op": table.name, **w}


def is_submultigroup(sub: SubsetView) -> SubStructureReport:
    """Dual-route sub-multi-group test.

    Route A (componentwise): the subset meets each component in a subgroup
    or not at all, and every subset element lies in some bound component.
    Route B (finite criterion): the subset is closed under each of its
    operations wherever they are defined.  The two verdicts must agree.
    """
    ms = sub.parent
    _require(ms, is_multigroup, "multi-group")
    if not sub.elements:
        raise ContractError("the empty subset is not a sub-multi-group candidate")

    witness_a = _componentwise(sub, _kept(sub, group_bindings(ms)), _subgroup_witness)
    by_component = witness_a is None

    witness_b: Optional[dict] = None
    elements = sub.elements
    allowed = elements | {UNDEFINED}
    for op_name in sub.op_names:
        grid = ms.op(op_name).grid
        products = ((x, y, grid[x][y]) for x in elements for y in elements)
        bad = next((p for p in products if p[2] not in allowed), None)
        if bad is not None:
            witness_b = {"kind": "closure", "op": op_name, "pair": bad[:2], "result": bad[2]}
            break
    by_closure = witness_b is None
    return _agree("sub-multi-group", by_component, witness_a, "closure", by_closure, witness_b)


def coset_of(sub: SubsetView, x: int) -> frozenset[int]:
    """x(sub) = every defined x op h with h in the subset, over the sub's ops."""
    out, elements = set(), sub.elements
    for op_name in sub.op_names:
        table = sub.parent.op(op_name)
        if table.in_domain(x):
            row = table.grid[x]
            out.update(row[h] for h in elements if row[h] is not UNDEFINED)
    return frozenset(out)


def coset_partition(sub: SubsetView) -> tuple[frozenset[int], ...]:
    """A representative set of cosets tiling the parent carrier union.

    Representatives are chosen greedily in canonical element order with
    backtracking, which realises the existence statement directly; if no
    choice of representatives tiles the union a PartitionError reports it.
    """
    report = is_submultigroup(sub)
    if not report.verdict:
        raise ContractError("not a sub-multi-group", report.witness)
    ms = sub.parent
    union = frozenset(ms.element_union())

    def choose(remaining: frozenset, acc: tuple) -> Optional[tuple]:
        if not remaining:
            return acc
        for x in sorted(remaining):
            coset = coset_of(sub, x)
            if coset and x in coset and coset <= remaining:
                result = choose(remaining - coset, acc + (coset,))
                if result is not None:
                    return result
        return None

    chosen = choose(union, ())
    if chosen is None:
        raise PartitionError("no representative set tiles the carrier union with cosets")
    return tuple(sorted(chosen, key=lambda c: sorted(c)))


# -- subgroup machinery ---------------------------------------------------

def _close(grid, out: set, frontier: list) -> frozenset[int]:
    """The closure of ``out`` under ``grid`` when only products with an
    element of ``frontier`` can leave ``out``, as when x joins a closed set."""
    while frontier:
        x = frontier.pop()
        row = grid[x]
        for y in list(out):
            for v in (row[y], grid[y][x]):
                if v is not UNDEFINED and v not in out:
                    out.add(v)
                    frontier.append(v)
    return frozenset(out)


def _lattice(table: OpTable, carrier: frozenset[int]) -> tuple[dict[int, tuple], Optional[dict]]:
    """Every subgroup of (carrier; table) by closure growing: a dict from int
    bitmask (bit x for element x) to generators, ordered as ``subgroups_of``,
    and the inverses if the carrier is a group (else None, no generators).
    Members H hold e and are closed; closures escaping the carrier are
    dropped.  H joins one x per cyclic subgroup C(x) = cl({e, x}): if
    C(x) = C(y), y lies in cl(H | {x}) and x in cl(H | {y}), for any closure
    cl, partial tables included.  In a group it joins one x per right coset
    too, as hx lies in cl(H | {x}) and x = h^-1 (hx) in cl(H | {hx}) (the
    cyclic extension method, Holt, Eick & O'Brien, *Handbook of
    Computational Group Theory*, 2005).  There C(x) is the powers of x, the
    last before e is x^-1, and (Dimino's method, Butler, *Fundamental
    Algorithms for Permutation Groups*, 1991) H = <gens(H)> joins x as a
    union of right cosets: start from H | Hx, multiply only the coset
    representatives (x, then each new one) by gens(H) + (x,), and add the
    whole coset Hv for each product v not yet held, about |K| +
    (|K|/|H|)·|gens| products for the join K.  The union is closed under
    right multiplication by each generator g: for h r in a coset Hr, r g
    lies in a held coset Hr' (it is added if new), so h r g = h (r g) lies
    in H Hr' = Hr'; and e g lies in H for g in gens(H), e x = x in Hx.  So
    the union holds e and only products of generators and is closed under
    right multiplication by each, so it is the monoid they generate, which
    is K as g^-1 = g^(n-1) for g of order n.  Elsewhere joins are
    ``_close``'s.
    """
    e = group_identity_on(table, carrier)
    if e is None:
        raise ContractError(f"no identity inside the given subset of {table.name!r}")
    grid, top, group = table.grid, _mask(carrier), is_group_on(table, carrier)[0]
    inverse, cyclic, found, queue = ({e: e} if group else None), {}, {1 << e: ()}, [1 << e]
    for x in sorted(carrier):
        c, p = (1 << e, x) if group else (_mask(_close(grid, {e, x}, [x])), e)
        while p != e:
            c, p, inverse[x] = c | 1 << p, grid[p][x], p
        if c | top == top:
            cyclic.setdefault(c, x)
    while queue:
        current = queue.pop()
        done, hs, gens = current, _elements(current), found[current]
        rows = [grid[h] for h in hs]
        for x in cyclic.values():
            if done >> x & 1:
                continue
            if not group:
                done, bigger = done | 1 << x, _mask(_close(grid, {*hs, x}, [x]))
            else:
                bigger = current
                for r in rows:
                    bigger |= 1 << r[x]
                done, reps = done | bigger, [x]
                while reps:
                    row = grid[reps.pop()]
                    for v in map(row.__getitem__, gens + (x,)):
                        if not bigger >> v & 1:
                            for r in rows:
                                bigger |= 1 << r[v]
                            reps.append(v)
            if bigger | top == top and bigger not in found:
                found[bigger] = gens + (x,) if group else ()
                queue.append(bigger)
    # by size, then as sorted element lists compare: of two members of one
    # size, the one holding the lowest element of their difference first,
    # which is the order of their complements' bit strings read from the
    # lowest bit, so no element list is built
    full = (1 << top.bit_length()) - 1
    return dict(sorted(found.items(), key=lambda m: (m[0].bit_count(), bin(m[0] ^ full)[:1:-1]))), inverse


def subgroups_of(table: OpTable, carrier: frozenset[int]) -> list[frozenset[int]]:
    """Every subgroup of (carrier; table) by size, then sorted elements."""
    return [frozenset(_elements(m)) for m in _lattice(table, carrier)[0]]


def is_normal_subgroup(table: OpTable, carrier: frozenset[int], sub: frozenset[int]) -> bool:
    normal = _normal_test(table, carrier)
    return all(map(table.in_domain, sub)) and normal(sub)


def _conjugate_escape(grid, carrier, inverse: dict, elements, allowed) -> Optional[tuple]:
    """First (g, h, g h g^-1) with g in the group ``carrier``, h in
    ``elements`` (universe indices) and the conjugate not in ``allowed``;
    an undefined conjugate is ``UNDEFINED``."""
    for g in carrier:
        row, ginv = grid[g], inverse[g]
        for h in elements:
            gh = row[h]
            v = UNDEFINED if gh is UNDEFINED else grid[gh][ginv]
            if v not in allowed:
                return g, h, v
    return None


def _normal_test(table: OpTable, part: frozenset[int]):
    """The test that a subgroup is normal in the group ``part``."""
    inverse = group_inverses_on(table, part)
    return lambda s: not _conjugate_escape(table.grid, part, inverse, s, s)


def _normal_in(table: OpTable, part: int, gens, inverse: Optional[dict]):
    """The test ``test(mask, sub_gens)`` that a lattice member N is normal in
    the member ``part`` = <``gens``>.  In a group lattice (``inverse`` given)
    it checks g h g^-1 in N for g in gens(part), h in gens(N): conjugation by
    g is a homomorphism, so it maps N = <gens(N)> into N once it maps gens(N)
    there, and the g that do so are closed under products, so they are all
    of part once they hold gens(part).  When gens(part) commute, part is
    abelian and every subgroup of it is normal, so the test passes all.
    Else it is ``_normal_test``."""
    if inverse is None:
        test = _normal_test(table, frozenset(_elements(part)))
        return lambda mask, _: test(frozenset(_elements(mask)))
    grid = table.grid
    if all(grid[g][h] == grid[h][g] for g, h in itertools.combinations(gens, 2)):
        return lambda mask, sub_gens: True
    pairs = [(grid[g], inverse[g]) for g in gens]
    return lambda mask, sub_gens: all(mask >> grid[row[h]][ginv] & 1 for row, ginv in pairs for h in sub_gens)


def _maximal(items: Reversible[tuple[int, tuple]], part: int, test) -> list[int]:
    """The maximal members properly inside ``part`` that pass ``test(mask,
    gens)``, in lattice order, by one scan from the largest member down.
    ``items`` holds ``(mask, gens)`` lattice members in lattice order, every
    member inside ``part`` among them: the whole lattice, or a list a series
    step narrowed.  A member smaller than ``part`` and inside it is tested
    unless it lies inside a top already found, and becomes a top if it
    passes.  The lattice is ordered by size, so every strictly larger member
    is scanned before a member m.  A top t is maximal: a passing member
    s > t inside ``part`` was scanned first and became a top or lay inside
    one, so t, inside s, would have been skipped.  A maximal passing m is a
    top: a top holding m would pass and be larger.  This holds for any
    ``test``, and a member under a passing one is never tested, as the
    passing one is a top or lies inside one."""
    tops = []
    for m, gens in reversed(items):
        if m != part and m | part == part:
            for t in tops:  # a plain loop: all() over a generator costs more here
                if m | t == t:
                    break
            else:
                if test(m, gens):
                    tops.append(m)
    return tops[::-1]


def maximal_normal_subgroups(table: OpTable, carrier: frozenset[int]) -> list[frozenset[int]]:
    (lattice, inverse), top = _lattice(table, carrier), _mask(carrier)
    test = _normal_in(table, top, lattice.get(top), inverse)
    return [frozenset(_elements(m)) for m in _maximal(lattice.items(), top, test)]


class LagrangeReport(NamedTuple):
    group_order: int
    subgroup_orders: tuple[int, ...]
    all_divide: bool
    subgroups: tuple[frozenset[int], ...]


def lagrange_check(table: OpTable) -> LagrangeReport:
    """Enumerate every subgroup and confirm each order divides the group order."""
    if not classify_table(table).is_group():
        raise ContractError(f"{table.name!r} is not a group table")
    carrier = frozenset(table.domain)
    subs = subgroups_of(table, carrier)
    orders = tuple(sorted({len(s) for s in subs}))
    return LagrangeReport(len(carrier), orders, all(len(carrier) % len(s) == 0 for s in subs), tuple(subs))


def is_normal(sub: SubsetView) -> SubStructureReport:
    """Dual-route normality: componentwise normal subgroups vs. conjugation scan."""
    report = is_submultigroup(sub)
    if not report.verdict:
        raise ContractError("not a sub-multi-group", report.witness)
    ms, parts = sub.parent, group_bindings(sub.parent)

    witness = None
    for table in map(ms.op, sub.op_names):
        carrier = _op_carrier(parts, table)
        if carrier:
            inverse, allowed = group_inverses_on(table, carrier), sub.elements | {UNDEFINED}
            bad = _conjugate_escape(table.grid, carrier, inverse, sub.elements, allowed)
            if bad is not None:
                witness = {"op": table.name, "g": bad[0], "h": bad[1], "conjugate": bad[2]}
                break

    componentwise = None is _componentwise(
        sub, _kept(sub, parts), lambda t, carrier, meet: None if is_normal_subgroup(t, carrier, meet) else {}
    )
    return _agree("normality", componentwise, None, "direct", witness is None, witness)


# -- the oriented series programming --------------------------------------

class SeriesResult(NamedTuple):
    chains: tuple[SeriesChain, ...]
    lengths: tuple[int, ...]
    invariant: bool
    chain_count: int

    @property
    def length(self) -> Optional[int]:
        return self.lengths[0] if self.invariant else None


def _series_profile(ms: MultiSpace, steps):
    """(start level, memoised successors, sorted chain lengths, chain count)
    by one memoised DP over bitmask levels.  ``steps`` holds one ``(label,
    carrier mask, table, maximal)`` per oriented step: a level's part in the
    carrier descends through each n in ``maximal(part)`` (maximal normal
    subgroups or ideals) to ``level ^ part ^ n``, the rest riding along,
    until the part is one u with uu = u (the identity of ``table`` on it)
    and the next step takes over.
    """
    union = ms.element_union()
    if len(union) > SERIES_UNION_BOUND:
        raise SizeLimitError(
            f"series programming walks levels of the element union; |union| = {len(union)} exceeds "
            f"SERIES_UNION_BOUND = {SERIES_UNION_BOUND}"
        )
    memo: dict[tuple[int, int], tuple[int, int, list]] = {}

    def solve(level: int, k: int) -> tuple[int, int, list]:
        """(chain lengths as a bitmask, chain count, successors) at (level, k)."""
        key = (level, k)
        if key not in memo:
            nexts: list = []
            for j in range(k, len(steps)):
                label, carrier, table, maximal = steps[j]
                part = level & carrier
                u = part.bit_length() - 1
                if not part or part & (part - 1) or table.grid[u][u] != u:
                    nexts = [(level ^ part ^ n, j, label) for n in maximal(part)]
                    break
            lengths, count = 0, 0
            for nxt, kk, _ in nexts:
                sub_lengths, sub_count, _ = solve(nxt, kk)
                lengths, count = lengths | sub_lengths << 1, count + sub_count
            memo[key] = (lengths, count, nexts) if count else (1, 1, nexts)
        return memo[key]

    start = _mask(union)
    lengths, count, _ = solve(start, 0)
    return start, lambda level, k: memo[level, k][2], tuple(_elements(lengths)), count


def _series_step(label: str, carrier: frozenset[int], table: OpTable, keep) -> tuple:
    """One ``(label, carrier mask, table, maximal)`` series step: a bitmask
    part descends through its maximal sub-structures that pass the test
    ``keep(part, gens(part), inverse)``.  ``_lattice`` runs on the first part
    the engine reaches; every later part is a member of that lattice, whose
    members inside it are its own lattice, or raises ``InternalCheckError``.

    A part scans only the members inside it.  The first part scans the whole
    lattice; a top inherits the list scanned by the part that first returned
    it, and scans the members of that list that lie inside it.  The engine
    reaches each part once, so an inherited list is dropped once scanned; a
    part with none scans the members of the whole lattice inside it.  Each
    list holds every member inside its part, in lattice order, so
    ``_maximal`` returns the tops it would return on the whole lattice and
    calls ``test`` on the same members in the same order.
    """
    lattice = inverse = None
    under: dict[int, list] = {}  # a top not yet scanned -> the list of the part that first returned it

    def maximal(part: int) -> list[int]:
        nonlocal lattice, inverse
        if lattice is None:
            lattice, inverse = _lattice(table, frozenset(_elements(part)))
        if part not in lattice:
            raise InternalCheckError(f"series step {label!r} reached {_elements(part)}, outside its lattice")
        items = [item for item in under.pop(part, lattice.items()) if item[0] | part == part]
        tops = _maximal(items, part, keep(part, lattice[part], inverse))
        for t in tops:
            under.setdefault(t, items)
        return tops

    return label, _mask(carrier), table, maximal


def _normal_steps(ms: MultiSpace, orientation: Sequence[str]) -> list[tuple]:
    """One series step per operation, on its carriers: maximal normal subgroups."""
    parts = group_bindings(ms)
    return [_series_step(t.name, _op_carrier(parts, t), t, partial(_normal_in, t)) for t in map(ms.op, orientation)]


def _run_series(ms: MultiSpace, steps, kind: str) -> SeriesResult:
    start, successors, lengths, count = _series_profile(ms, steps)
    if count > SERIES_CHAIN_BOUND:
        raise SizeLimitError(
            f"series materialisation lists every maximal chain; {count} chains exceed "
            f"SERIES_CHAIN_BOUND = {SERIES_CHAIN_BOUND}; use series_length_profile for the invariant alone"
        )

    chains: list[SeriesChain] = []
    frozen = cache(lambda level: frozenset(_elements(level)))  # one frozenset per distinct level

    def walk(level: int, k: int, levels: tuple, ops: tuple) -> None:
        nexts = successors(level, k)
        if not nexts:
            chains.append(SeriesChain(levels, ops, kind))
        for nxt, kk, label in nexts:
            walk(nxt, kk, levels + (frozen(nxt),), ops + (label,))

    walk(start, 0, (frozen(start),), ())
    return SeriesResult(tuple(chains), lengths, len(lengths) == 1, count)


def _check_orientation(orientation: Sequence[str], names: set[str], what: str) -> None:
    """ContractError unless ``orientation`` lists each of ``names`` exactly once."""
    if set(orientation) != names or len(orientation) != len(names):
        raise ContractError(f"orientation must list each {what} exactly once")


def series_length_profile(ms: MultiSpace, orientation: Sequence[str]) -> tuple[tuple[int, ...], int]:
    """Exhaustive chain-length set and chain count without materialising chains.

    The orientation is validated as in ``maximal_normal_series``; the
    multi-group prerequisite is the caller's, since checking it costs about
    as much as the profile itself.
    """
    _check_orientation(orientation, {table.name for _, _, table in group_bindings(ms)}, "bound operation")
    _, _, lengths, count = _series_profile(ms, _normal_steps(ms, orientation))
    return lengths, count


def maximal_normal_series(ms: MultiSpace, orientation: Sequence[str]) -> SeriesResult:
    """All maximal normal series under an oriented operation sequence.

    Every chain is materialised; the report records whether all chains share
    one length (the invariant the theory predicts).
    """
    _require(ms, is_multigroup, "multi-group")
    _check_orientation(orientation, {table.name for _, _, table in group_bindings(ms)}, "bound operation")
    return _run_series(ms, _normal_steps(ms, orientation), NORMAL_SERIES)


def composition_series(table: OpTable) -> SeriesResult:
    """Maximal normal series of a single classical group table."""
    from .constructions import single_component_space

    if not classify_table(table).is_group():
        raise ContractError(f"{table.name!r} is not a group table")
    ms = single_component_space(table)
    return _run_series(ms, _normal_steps(ms, (table.name,)), NORMAL_SERIES)
