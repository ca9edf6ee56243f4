"""The dense ``OpTable.grid`` against the ``apply`` route.

Kernels read ``t.grid[x][y]`` directly instead of calling ``t.apply``.  These
properties run random partial tables, most on a domain smaller than the
universe, through the grid and through the ``apply``-based references in
``oracles``, and require the same verdicts and witnesses.
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
from multispace.io import space_from_dict, space_to_dict
from multispace.multigroup import DistributionCheck, SubsetView, _distributes_over, is_multigroup, subgroups_of
from multispace.multiring import _cross_violation, decompose_artin, idempotents, is_multiideal, is_multiring

import oracles
from conftest import outcome
from oracles import universe_of

SMALL = settings(max_examples=200, deadline=None)

# a distribution check's orientation, by which of (f over g, g over f) holds
ORIENTATIONS = {(True, True): "both", (True, False): "first", (False, True): "second", (False, False): None}


@st.composite
def partial_tables(draw, universe):
    """``oracles.random_table`` on a random proper subset of the universe, so
    that products may leave the domain."""
    rng, n = draw(st.randoms(use_true_random=False)), len(universe)
    return oracles.random_table(rng, universe, "*", sorted(rng.sample(range(n), rng.randint(1, n - 1))))


@st.composite
def two_table_spaces(draw):
    """Two one-operation components, each carrier a random part of its
    table's domain."""
    rng, u = draw(st.randoms(use_true_random=False)), universe_of(draw(st.integers(2, 6)))
    ops = [oracles.random_table(rng, u, name) for name in "fg"]
    comps = [Component(c, tuple(sorted(rng.sample(t.domain, rng.randint(1, len(t.domain))))), (t.name,))
             for c, t in zip("AB", ops)]
    return MultiSpace(u, comps, ops)


@st.composite
def two_ring_spaces(draw):
    """Two double components of random partial tables, carriers overlapping
    at random, on a universe with at least one element outside both; each
    table's domain holds its carrier and may reach past it."""
    rng, u = draw(st.randoms(use_true_random=False)), universe_of(draw(st.integers(2, 5)))
    comps, ops = [], []
    for i in (1, 2):
        carrier = sorted(rng.sample(range(len(u) - 1), rng.randint(1, len(u) - 1)))
        for sym in "+*":
            domain = sorted({*carrier, *rng.sample(range(len(u)), rng.randint(0, len(u)))})
            ops.append(oracles.random_table(rng, u, f"{sym}{i}", domain))
        comps.append(Component(f"R{i}", tuple(carrier), (f"+{i}", f"*{i}"), double=True))
    return MultiSpace(u, comps, ops)


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
        assert is_group_on(t, subset) == oracles.is_group_on(t, subset)

    @given(two_table_spaces())
    @SMALL
    def test_is_multigroup_matches_reference(self, ms):
        report = is_multigroup(ms)
        f, g = ms.ops
        groups = [
            (c.name, op, *oracles.is_group_on(ms.op(op), frozenset(c.carrier)))
            for c in ms.components
            for op in c.op_names
        ]
        assert report.group_checks == tuple(groups)
        union = ms.element_union()
        first, second = oracles.distribution_witness(union, f, g), oracles.distribution_witness(union, g, f)
        assert (_distributes_over(ms, f, g), _distributes_over(ms, g, f)) == (first, second)
        orientation = ORIENTATIONS[first is None, second is None]
        witness = first if orientation is None else None
        assert report.distribution == (DistributionCheck(("f", "g"), orientation, witness),)
        assert report.verdict == (all(ok for *_, ok, _ in groups) and orientation is not None)
        failed = [{"component": c, "op": op, **w} for c, op, ok, w in groups if not ok]
        if orientation is None:
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
        union = ms.element_union()
        for ci, cj in itertools.permutations(ms.components, 2):
            tables = [ms.op(name) for c in (ci, cj) for name in c.op_names]
            assert _cross_violation(*tables, union) == oracles.cross_violation(*tables, union)
        assert is_multiring(ms).cross_witness == oracles.cross_witness(ms)

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
        assert oracles.cross_witness(ms) == expected
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
        assert report.cross_witness == oracles.cross_witness(ms)
        assume(report.verdict)
        elements = data.draw(ideal_candidates(ms))
        kept = data.draw(st.sets(st.sampled_from(ms.components), min_size=1))
        op_names = tuple(name for c in ms.components if c in kept for name in c.op_names)
        report = is_multiideal(SubsetView(ms, elements, op_names))
        verdict, witness, direct = oracles.is_multiideal(ms, elements, kept)
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

class TestClassifyMatchesReference:
    # every total table on at most three elements runs in test_small_scope.py and sweep/
    def test_perturbed_corpus_groups(self):
        rng = random.Random(6)
        for name, u, g in all_groups_up_to_8():
            assert classify_table(g) == oracles.classify(g)
            for _ in range(30):
                rows = [list(row) for row in g.entries]
                for _ in range(rng.randint(1, 3)):
                    rows[rng.randrange(len(rows))][rng.randrange(len(rows))] = rng.randrange(len(u))
                t = OpTable(g.name, u, g.domain, rows)
                assert classify_table(t) == oracles.classify(t), (name, rows)


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
    assert ms.is_completed() == oracles.is_completed(ms)
    for t in ms.ops:
        for side in ("left", "right"):
            assert is_faithful(t, side) == oracles.is_faithful(t, side)
    for a, b in itertools.product(ms.element_union(), repeat=2):
        assert solve_equation(ms, a, b) == oracles.solve_equation(ms, a, b)


def check_ring_helpers(ms):
    report = is_multiring(ms)
    fields, divisors = [], []
    for c in ms.components:
        add, mul, carrier = ms.op(c.add_name), ms.op(c.mul_name), frozenset(c.carrier)
        fields.append(oracles.field_check(add, mul, carrier))
        divisors.append((c.name, oracles.zero_divisors(add, mul, carrier)))
        assert outcome(idempotents, ms, c.name) == outcome(oracles.idempotents, ms, c.name)
    assert report.multifield == all(fields)
    assert report.zero_divisors == tuple(divisors)
    if report.verdict:
        assert outcome(decompose_artin, ms) == outcome(oracles.decompose_artin, ms)
    else:
        with pytest.raises(ContractError, match="parent is not a multi-ring"):
            decompose_artin(ms)


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
