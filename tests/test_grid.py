"""The dense ``OpTable.grid`` against the ``apply`` route.

Kernels read ``t.grid[x][y]`` directly instead of calling ``t.apply``.  These
properties run random partial tables whose universe is larger than the
domain through the grid and through short ``apply``-based references, and
require the same verdicts and witnesses.
"""

import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from multispace.core import Component, MultiSpace, OpTable, UNDEFINED, is_group_on
from multispace.errors import ContractError
from multispace.foundations import FiniteUniverse
from multispace.io import space_from_dict, space_to_dict
from multispace.multigroup import SubsetView, is_multigroup, subgroups_of
from multispace.multiring import is_multiideal, is_multiring

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
        witness = {"kind": "uncovered_element"}
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


# Rings on positions 0..m-1 of a carrier, position 0 the zero: Z_m, and the
# non-commutative ring T of GF(2) matrices [[a, b], [0, 0]], where position
# 2a + b stands for (a, b) and (a, b)(c, d) = (ac, ad).
RINGS = {
    **{f"Z{m}": (m, lambda i, j, m=m: (i + j) % m, lambda i, j, m=m: i * j % m) for m in range(1, 5)},
    "T": (4, lambda i, j: i ^ j, lambda i, j: (i & j & 2) | (i >> 1 & j & 1)),
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
