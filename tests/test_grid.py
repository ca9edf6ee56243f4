"""The dense ``OpTable.grid`` against the ``apply`` route.

Kernels read ``t.grid[x][y]`` directly instead of calling ``t.apply``.  These
properties run random partial tables whose universe is larger than the
domain through the grid and through short ``apply``-based references, and
require the same verdicts and witnesses.  ``classify_table`` is checked
against its former stand-alone scans.
"""

import itertools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from multispace.constructions import (
    ABSORB,
    UNDEFINED_FILL,
    all_groups_up_to_8,
    cyclic_group_table,
    fan_extension,
    shared_zero_ring_union,
    symmetric_table,
    zn_ring_tables,
)
from multispace.core import (
    Component,
    MultiSpace,
    OpTable,
    UNDEFINED,
    classify_table,
    is_faithful,
    is_group_on,
    solve_equation,
)
from multispace.errors import ContractError
from multispace.foundations import FiniteUniverse
from multispace.io import space_from_dict, space_to_dict
from multispace.multigroup import SubsetView, is_multigroup, subgroups_of
from multispace.multiring import (
    ComponentDecomposition,
    DecompositionReport,
    IdempotentReport,
    decompose_artin,
    idempotents,
    is_multiideal,
    is_multiring,
)

SMALL = settings(max_examples=200, deadline=None)


def universe_of(n):
    return FiniteUniverse.of([f"e{i}" for i in range(n)])


@st.composite
def partial_tables(draw, universe, name="*", domain=None):
    """A table on a proper subset of the universe: a relabelled cyclic group,
    the right projection, random cells inside the domain, random cells
    anywhere (None included) or mostly-undefined cells; then a few cells are
    redrawn from the domain or from anywhere."""
    n = len(universe)
    if domain is None:
        domain = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1)))
    k = len(domain)
    anywhere = st.one_of(st.none(), st.integers(0, n - 1))
    inside = st.sampled_from(domain)
    sparse = st.one_of(st.none(), st.none(), st.none(), inside)
    mode = draw(st.sampled_from(["cyclic", "projection", "closed", "anywhere", "sparse"]))
    if mode == "cyclic":
        order = draw(st.permutations(domain))
        pos = {x: i for i, x in enumerate(order)}
        rows = [[order[(pos[x] + pos[y]) % k] for y in domain] for x in domain]
    elif mode == "projection":  # x * y = y: every element is a left unit only
        rows = [list(domain) for _ in domain]
    else:
        cells = {"closed": inside, "anywhere": anywhere, "sparse": sparse}[mode]
        rows = [[draw(cells) for _ in domain] for _ in domain]
    for _ in range(draw(st.integers(0, 2))):
        cells = draw(st.sampled_from([inside, anywhere]))
        rows[draw(st.integers(0, k - 1))][draw(st.integers(0, k - 1))] = draw(cells)
    return OpTable(name, universe, domain, rows)


@st.composite
def two_table_spaces(draw):
    u = universe_of(draw(st.integers(2, 6)))
    f = draw(partial_tables(u, "f"))
    g = draw(partial_tables(u, "g"))
    comps = [Component("A", f.domain, ("f",)), Component("B", g.domain, ("g",))]
    return MultiSpace(u, comps, [f, g])


@st.composite
def two_ring_spaces(draw):
    """Two double components of random partial tables, carriers overlapping
    at random, on a universe with at least one element outside both."""
    u = universe_of(draw(st.integers(2, 5)))
    comps, ops = [], []
    for i in (1, 2):
        carrier = sorted(draw(st.sets(st.integers(0, len(u) - 2), min_size=1)))
        ops += [draw(partial_tables(u, f"{sym}{i}", carrier)) for sym in "+*"]
        comps.append(Component(f"R{i}", tuple(carrier), (f"+{i}", f"*{i}"), double=True))
    return MultiSpace(u, comps, ops)


# -- apply-based references -------------------------------------------------

def ref_is_group_on(t, subset):
    elems = sorted(subset)
    if not elems:
        return False, {"kind": "empty"}
    for x in elems:
        if x not in t.domain:
            return False, {"kind": "outside_domain", "element": x}
    for x in elems:
        for y in elems:
            v = t.apply(x, y)
            if v is UNDEFINED or v not in subset:
                return False, {"kind": "closure", "pair": (x, y), "result": v}
    for x, y, z in itertools.product(elems, repeat=3):
        if t.apply(t.apply(x, y), z) != t.apply(x, t.apply(y, z)):
            return False, {"kind": "associativity", "triple": (x, y, z)}
    units = [e for e in elems if all(t.apply(e, a) == a and t.apply(a, e) == a for a in subset)]
    if not units:
        return False, {"kind": "no_unit"}
    for a in elems:
        if not any(t.apply(a, b) == units[0] and t.apply(b, a) == units[0] for b in elems):
            return False, {"kind": "missing_inverse", "element": a}
    return True, None


def ref_distributes_over(union, f, g):
    for x, y, z in itertools.product(union, repeat=3):
        yz = g.apply(y, z)
        for side, lhs, a, b in (
            ("left", f.apply(x, yz), f.apply(x, y), f.apply(x, z)),
            ("right", f.apply(yz, x), f.apply(y, x), f.apply(z, x)),
        ):
            rhs = g.apply(a, b)
            if None not in (yz, lhs, a, b, rhs) and lhs != rhs:
                return (x, y, z, side)
    return None


def ref_cross_witness(ms):
    union = ms.element_union()
    for ci, cj in itertools.permutations(ms.components, 2):
        ai, mi, aj, mj = (ms.op(name) for c in (ci, cj) for name in c.op_names)
        for x, y, z in itertools.product(union, repeat=3):
            for label, lhs, rhs in (
                ("mixed_add_assoc", aj.apply(ai.apply(x, y), z), ai.apply(x, aj.apply(y, z))),
                ("mixed_mul_assoc", mj.apply(mi.apply(x, y), z), mi.apply(x, mj.apply(y, z))),
                ("mixed_left_distrib", mi.apply(x, aj.apply(y, z)),
                 aj.apply(mi.apply(x, y), mi.apply(x, z))),
                ("mixed_right_distrib", mi.apply(aj.apply(y, z), x),
                 aj.apply(mi.apply(y, x), mi.apply(z, x))),
            ):
                if lhs is not UNDEFINED and rhs is not UNDEFINED and lhs != rhs:
                    return {"kind": label, "pair": (ci.name, cj.name), "triple": (x, y, z)}
    return None


def ref_absorption(mul, rs, elements, allowed):
    """First (r, a) whose products on either side leave ``allowed``."""
    for r in rs:
        for a in elements:
            if mul.apply(r, a) not in allowed or mul.apply(a, r) not in allowed:
                return r, a
    return None


def ref_is_multiideal(ms, elements, kept):
    """(verdict, witness) of the componentwise route, and the direct verdict,
    over the components ``kept``."""
    comps = [c for c in ms.components if c in kept]
    covered = {x for c in comps for x in c.carrier}
    witness = None
    for c in comps:
        add, mul = ms.op(c.add_name), ms.op(c.mul_name)
        meet = elements & frozenset(c.carrier)
        if not meet:
            continue
        ok, w = ref_is_group_on(add, meet)
        if not ok:
            witness = {"component": c.name, "kind": "additive", **(w or {})}
            break
        pair = ref_absorption(mul, frozenset(c.carrier), meet, meet)
        if pair:
            witness = {"component": c.name, "kind": "absorption", "pair": pair}
            break
    if witness is None and not elements <= covered:
        witness = {"kind": "uncovered_element", "element": min(elements - covered)}
    direct = elements <= covered
    union = ms.element_union()
    for c in comps:
        add, mul = ms.op(c.add_name), ms.op(c.mul_name)
        meet = elements & frozenset(c.carrier)
        if meet and not ref_is_group_on(add, meet)[0]:
            direct = False
        if ref_absorption(mul, union, elements, elements | {UNDEFINED}):
            direct = False
    return witness is None, witness, direct


def reference_classify(t):
    """The former ``classify_table``, with its own closure, associativity,
    unit and inverse scans: (label, unit, witness)."""
    d = t.domain
    for x, y in itertools.product(d, repeat=2):
        if t.apply(x, y) not in d:
            return "magma", None, {"kind": "closure", "pair": (x, y), "result": t.apply(x, y)}
    for x, y, z in itertools.product(d, repeat=3):
        if t.apply(t.apply(x, y), z) != t.apply(x, t.apply(y, z)):
            return "magma", None, {"kind": "associativity", "triple": (x, y, z)}
    pairs = itertools.combinations(d, 2)
    comm = next(((x, y) for x, y in pairs if t.apply(x, y) != t.apply(y, x)), None)
    lefts = [e for e in d if all(t.apply(e, a) == a for a in d)]
    rights = [e for e in d if all(t.apply(a, e) == a for a in d)]
    unit = lefts[0] if lefts and rights else None
    if unit is None:
        witness = {"kind": "no_unit"}
    else:
        no_inverse = (a for a in d if not any(t.apply(a, b) == unit == t.apply(b, a) for b in d))
        missing = next(no_inverse, None)
        if missing is None:
            if comm is None:
                return "abelian_group", unit, None
            return "group", unit, {"kind": "commutativity", "pair": comm}
        witness = {"kind": "missing_inverse", "element": missing}
    return ("abelian_semigroup" if comm is None else "semigroup"), unit, witness


def ref_is_completed(ms):
    pairs = itertools.product(ms.element_union(), repeat=2)
    return all(any(t.apply(x, y) is not UNDEFINED for t in ms.ops) for x, y in pairs)


def ref_is_faithful(t, side):
    seen = {}
    for g in t.domain:
        translation = tuple(t.apply(g, a) if side == "left" else t.apply(a, g) for a in t.domain)
        if translation in seen:
            return False, (seen[translation], g)
        seen[translation] = g
    return True, None


def ref_solve_equation(ms, a, b):
    return tuple((t.name, x) for t in ms.ops for x in t.domain if t.apply(a, x) == b)


def ref_identity(t, subset):
    units = (e for e in sorted(subset) if all(t.apply(e, a) == a == t.apply(a, e) for a in subset))
    return next(units, None)


def ref_field_check(add, mul, carrier):
    zero = ref_identity(add, carrier)
    if zero is None or carrier == {zero}:
        return False
    pairs = itertools.combinations(carrier, 2)
    if any(mul.apply(x, y) != mul.apply(y, x) for x, y in pairs):
        return False
    return ref_is_group_on(mul, carrier - {zero})[0]


def ref_zero_divisors(add, mul, carrier):
    zero = ref_identity(add, carrier)
    if zero is None:
        return ()
    pairs = itertools.product(sorted(carrier), repeat=2)
    return tuple((a, b) for a, b in pairs if zero not in (a, b) and mul.apply(a, b) == zero)


def ref_sum(add, terms):
    total = terms[0]
    for term in terms[1:]:
        total = add.apply(total, term)
    return total


def ref_idempotents(ms, name):
    comp = ms.component(name)
    add, mul, carrier = ms.op(comp.add_name), ms.op(comp.mul_name), frozenset(comp.carrier)
    zero, unit = ref_identity(add, carrier), ref_identity(mul, carrier)
    if zero is None:
        raise ContractError("no additive identity")
    idems = tuple(e for e in sorted(carrier) if mul.apply(e, e) == e)
    matrix = tuple(tuple(mul.apply(a, b) for b in idems) for a in idems)
    families = []
    nonzero = [e for e in idems if e != zero]
    for r in range(1, len(nonzero) + 1):
        for combo in itertools.combinations(nonzero, r):
            pairs = itertools.combinations(combo, 2)
            orthogonal = all(mul.apply(a, b) == zero == mul.apply(b, a) for a, b in pairs)
            if unit is not None and orthogonal and ref_sum(add, combo) == unit:
                families.append(combo)
    return IdempotentReport(name, idems, matrix, zero, unit, tuple(families))


def ref_decompose_artin(ms):
    if not is_multiring(ms).verdict:
        raise ContractError("not a multi-ring")
    out = []
    for comp in ms.components:
        add, mul, carrier = ms.op(comp.add_name), ms.op(comp.mul_name), frozenset(comp.carrier)
        idem = ref_idempotents(ms, comp.name)
        if idem.unit is None:
            raise ContractError("no multiplicative unit")
        families = idem.orthogonal_unit_families
        family = min(families, key=lambda f: (-len(f), f), default=(idem.unit,))
        right = tuple(frozenset(mul.apply(r, e) for r in carrier) for e in family)
        left = tuple(frozenset(mul.apply(e, r) for r in carrier) for e in family)
        sums = [ref_sum(add, combo) for combo in itertools.product(*right)]
        out.append(ComponentDecomposition(
            comp.name,
            family,
            right,
            all(p & q == {idem.zero} for p, q in itertools.combinations(right, 2)),
            all(ref_sum(add, [mul.apply(r, e) for e in family]) == r for r in carrier),
            len(set(sums)) == len(sums) and set(sums) == carrier,
            all(ref_is_group_on(add, p)[0] and not ref_absorption(mul, carrier, p, p) for p in right),
            right == left,
        ))
    return DecompositionReport(tuple(out))


def outcome(fn, *args):
    """The result of ``fn(*args)``, or ContractError if it raises one."""
    try:
        return fn(*args)
    except ContractError:
        return ContractError


# -- the grid itself --------------------------------------------------------

class TestGridMatchesApply:
    @given(st.integers(2, 7).flatmap(lambda n: partial_tables(universe_of(n))))
    @SMALL
    def test_grid_cells_equal_apply_and_entries_round_trip(self, t):
        n = len(t.universe)
        assert len(t.grid) == n
        for x, y in itertools.product(range(n), repeat=2):
            assert t.grid[x][y] == t.apply(x, y)
            assert t.in_domain(x) == (x in t.domain)
        ms = MultiSpace(t.universe, [Component("C", t.domain, (t.name,))], [t])
        back, _ = space_from_dict(space_to_dict(ms))
        assert back.op(t.name).entries == t.entries
        assert back.op(t.name).grid == t.grid

    @given(two_table_spaces(), st.data())
    @SMALL
    def test_is_group_on_matches_reference(self, ms, data):
        t = data.draw(st.sampled_from(ms.ops))
        subset = frozenset(data.draw(st.sets(st.integers(0, len(ms.universe) - 1), max_size=5)))
        if data.draw(st.booleans()):
            subset = frozenset(t.domain)
        assert is_group_on(t, subset) == ref_is_group_on(t, subset)

    @given(two_table_spaces())
    @SMALL
    def test_is_multigroup_matches_reference(self, ms):
        report = is_multigroup(ms)
        f, g = ms.ops
        groups = [
            (c.name, op, *ref_is_group_on(ms.op(op), frozenset(c.carrier)))
            for c in ms.components
            for op in c.op_names
        ]
        assert report.group_checks == tuple(groups)
        union = ms.element_union()
        first, second = ref_distributes_over(union, f, g), ref_distributes_over(union, g, f)
        (check,) = report.distribution
        assert (check.orientation is None) == (first is not None and second is not None)
        if check.orientation is None:
            assert check.witness == first
        assert report.verdict == (all(ok for *_, ok, _ in groups) and check.orientation is not None)
        failed = [{"component": c, "op": op, **w} for c, op, ok, w in groups if not ok]
        if check.orientation is None:
            failed.append({"kind": "distribution", "pair": ("f", "g"), "triple": first})
        assert report.witness == (failed[0] if failed else None)


def upper_triangular(i, j):
    """Product of GF(2) matrices [[a, b], [0, c]] at positions 4a + 2b + c."""
    a, b, c, x, y, z = i >> 2, i >> 1 & 1, i & 1, j >> 2, j >> 1 & 1, j & 1
    return (a & x) << 2 | ((a & y) ^ (b & z)) << 1 | (c & z)


# Rings on positions 0..m-1 of a carrier, position 0 the zero: Z_m, the
# non-commutative ring T of GF(2) matrices [[a, b], [0, 0]], where position
# 2a + b stands for (a, b) and (a, b)(c, d) = (ac, ad), and the unital
# non-commutative ring U of upper triangular GF(2) matrices, whose pieces
# R*e and e*R differ.
RINGS = {
    **{f"Z{m}": (m, lambda i, j, m=m: (i + j) % m, lambda i, j, m=m: i * j % m) for m in range(1, 5)},
    "T": (4, lambda i, j: i ^ j, lambda i, j: (i & j & 2) | (i >> 1 & j & 1)),
    "U": (8, lambda i, j: i ^ j, upper_triangular),
}


class TestMultiRingMatchesApply:
    @given(two_ring_spaces())
    @SMALL
    def test_cross_witness_matches_reference(self, ms):
        assert is_multiring(ms).cross_witness == ref_cross_witness(ms)

    def test_right_distributivity_behind_undefined_products(self):
        # in R1, 1 + 2 and 1 * 2 are undefined but 2 * 1 is not: only the
        # mixed right distributive law can fail at (1, 2, z)
        u = universe_of(4)
        ops = [
            OpTable("+1", u, [1, 2], [[None, None], [None, None]]),
            OpTable("*1", u, [1, 2], [[None, None], [1, None]]),
            OpTable("+2", u, [0, 1, 2], [[2, 2, None], [None, 0, None], [None, None, 2]]),
            OpTable("*2", u, [0, 1, 2], [[1, None, None], [None, None, 2], [0, None, 1]]),
        ]
        comps = [
            Component("R1", (1, 2), ("+1", "*1"), double=True),
            Component("R2", (0, 1, 2), ("+2", "*2"), double=True),
        ]
        ms = MultiSpace(u, comps, ops)
        expected = {"kind": "mixed_right_distrib", "pair": ("R1", "R2"), "triple": (1, 2, 2)}
        assert ref_cross_witness(ms) == expected
        assert is_multiring(ms).cross_witness == expected


@st.composite
def shared_zero_rings(draw):
    """Two rings from ``RINGS`` meeting in their zero, laid out at scattered
    positions of a universe that has elements outside both carriers."""
    (m1, *ops1), (m2, *ops2) = (RINGS[draw(st.sampled_from(sorted(RINGS)))] for _ in "12")
    n = m1 + m2 - 1 + draw(st.integers(1, 2))
    u = universe_of(n)
    spots = draw(st.permutations(range(n)))
    carriers = [spots[:m1], spots[:1] + spots[m1:m1 + m2 - 1]]
    ops, comps = [], []
    for i, (carrier, pair) in enumerate(zip(carriers, (ops1, ops2)), start=1):
        pos = {x: j for j, x in enumerate(carrier)}
        for sym, fn in zip("+*", pair):
            ops.append(OpTable.from_function(
                f"{sym}{i}", u, carrier, lambda x, y, fn=fn: carrier[fn(pos[x], pos[y])]
            ))
        comps.append(Component(f"R{i}", tuple(sorted(carrier)), (f"+{i}", f"*{i}"), double=True))
    return MultiSpace(u, comps, ops)


@st.composite
def ideal_candidates(draw, ms):
    """A non-empty subset of the union: per component nothing, the zero, an
    additive cyclic subgroup or random elements of its carrier."""
    out = set()
    for c in ms.components:
        add = ms.op(c.add_name)
        kind = draw(st.sampled_from(["none", "zero", "cyclic", "random"]))
        if kind == "zero":
            out.add(next(x for x in c.carrier if add.apply(x, x) == x))
        elif kind == "cyclic":
            g = draw(st.sampled_from(c.carrier))
            x, seen = g, {g}
            while (x := add.apply(x, g)) not in seen:
                seen.add(x)
            out |= seen
        elif kind == "random":
            out |= draw(st.sets(st.sampled_from(c.carrier)))
    return frozenset(out or ms.element_union()[:1])


class TestMultiIdealMatchesApply:
    @given(shared_zero_rings(), st.data())
    @SMALL
    def test_is_multiideal_matches_reference(self, ms, data):
        report = is_multiring(ms)
        assert report.cross_witness == ref_cross_witness(ms)
        assume(report.verdict)
        elements = data.draw(ideal_candidates(ms))
        kept = data.draw(st.sets(st.sampled_from(ms.components), min_size=1))
        op_names = tuple(name for c in ms.components if c in kept for name in c.op_names)
        report = is_multiideal(SubsetView(ms, elements, op_names))
        verdict, witness, direct = ref_is_multiideal(ms, elements, kept)
        assert (report.verdict, report.by_component, report.by_closure) == (verdict, verdict, direct)
        assert report.witness == witness


# -- behaviour outside the domain, pinned -----------------------------------

class TestOutsideDomain:
    def table(self):
        u = universe_of(4)
        return OpTable("+", u, [0, 1], [[0, 1], [1, 0]])

    def test_subgroups_of_rejects_carrier_outside_domain(self):
        with pytest.raises(ContractError):
            subgroups_of(self.table(), frozenset({0, 1, 2}))

    def test_is_group_on_index_outside_universe(self):
        assert is_group_on(self.table(), frozenset({0, 9})) == (
            False,
            {"kind": "outside_domain", "element": 9},
        )

    def test_apply_outside_domain_or_universe_is_undefined(self):
        t = self.table()
        for x, y in ((None, 0), (0, None), (None, None), (2, 0), (0, 3), (4, 0), (0, 99), (-1, 0), (-4, 0), (1, -3)):
            assert t.apply(x, y) is UNDEFINED
        assert t.apply(1, 1) == 0

    def test_outside_rows_share_one_blank_row(self):
        t = self.table()
        assert t.grid[2] is t.grid[3]
        assert t.grid[2] == (None,) * 4
        assert t.grid[0] == (0, 1, None, None)


# -- classification on the group kernel -------------------------------------

def classified(t):
    c = classify_table(t)
    return c.label, c.unit, c.witness


class TestClassifyMatchesReference:
    def test_every_total_table_on_three_elements(self):
        u = universe_of(3)
        for cells in itertools.product(range(3), repeat=9):
            t = OpTable("*", u, [0, 1, 2], [cells[0:3], cells[3:6], cells[6:9]])
            assert classified(t) == reference_classify(t), cells

    def test_two_element_tables_escaping_the_domain(self):
        u = universe_of(3)
        for domain in ([0, 1], [0, 2], [1, 2]):
            for cells in itertools.product(range(3), repeat=4):
                t = OpTable("*", u, domain, [cells[:2], cells[2:]])
                assert classified(t) == reference_classify(t), (domain, cells)

    def test_perturbed_corpus_groups(self):
        rng = random.Random(6)
        for name, u, g in all_groups_up_to_8():
            assert classified(g) == reference_classify(g)
            for _ in range(30):
                rows = [list(row) for row in g.entries]
                for _ in range(rng.randint(1, 3)):
                    rows[rng.randrange(len(rows))][rng.randrange(len(rows))] = rng.randrange(len(u))
                t = OpTable(g.name, u, g.domain, rows)
                assert classified(t) == reference_classify(t), (name, rows)

    def test_empty_domain(self):
        t = OpTable("*", universe_of(2), [], [])
        expected = ("abelian_semigroup", None, {"kind": "no_unit"})
        assert classified(t) == reference_classify(t) == expected


# -- space and ring helpers on shared-zero unions and fans -------------------

def fan_spaces():
    (_, z2), (_, z3), (_, add, mul) = cyclic_group_table(2), cyclic_group_table(3), zn_ring_tables(4)
    return [
        fan_extension(base, symbols, policy)
        for base in (z2, z3, (add, mul))
        for symbols in (["h"], ["h1", "h2"])
        for policy in (UNDEFINED_FILL, ABSORB)
    ]


def check_space_helpers(ms):
    assert ms.is_completed() == ref_is_completed(ms)
    for t in ms.ops:
        for side in ("left", "right"):
            assert is_faithful(t, side) == ref_is_faithful(t, side)
    for a, b in itertools.product(ms.element_union(), repeat=2):
        assert solve_equation(ms, a, b) == ref_solve_equation(ms, a, b)


def check_ring_helpers(ms):
    report = is_multiring(ms)
    fields, divisors = [], []
    for c in ms.components:
        add, mul, carrier = ms.op(c.add_name), ms.op(c.mul_name), frozenset(c.carrier)
        fields.append(ref_field_check(add, mul, carrier))
        divisors.append((c.name, ref_zero_divisors(add, mul, carrier)))
        assert outcome(idempotents, ms, c.name) == outcome(ref_idempotents, ms, c.name)
    assert report.multifield == all(fields)
    assert report.zero_divisors == tuple(divisors)
    assert outcome(decompose_artin, ms) == outcome(ref_decompose_artin, ms)


class TestHelpersMatchApply:
    @given(shared_zero_rings())
    @SMALL
    def test_shared_zero_rings(self, ms):
        check_space_helpers(ms)
        check_ring_helpers(ms)

    def test_nonabelian_units_are_no_field(self):
        # 0 absorbs and the non-zero elements form S3 under *, so only the
        # commutativity scan keeps this component from being a field
        _, s3 = symmetric_table(3)
        u = universe_of(7)
        add = OpTable.from_function("+", u, range(7), lambda x, y: (x + y) % 7)
        mul = OpTable.from_function(
            "*", u, range(7), lambda x, y: 0 if 0 in (x, y) else 1 + s3.grid[x - 1][y - 1]
        )
        ms = MultiSpace(u, [Component("R", tuple(range(7)), ("+", "*"), double=True)], [add, mul])
        check_ring_helpers(ms)
        assert not is_multiring(ms).multifield

    @pytest.mark.parametrize("moduli", [[2, 3], [4, 6], [2, 2, 2]])
    def test_shared_zero_ring_unions(self, moduli):
        ms = shared_zero_ring_union(moduli)
        check_space_helpers(ms)
        check_ring_helpers(ms)
        assert decompose_artin(ms).all_valid

    @pytest.mark.parametrize("index", range(12))
    def test_fans(self, index):
        ms = fan_spaces()[index]
        check_space_helpers(ms)
        if ms.components[0].double:
            check_ring_helpers(ms)
