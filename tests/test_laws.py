"""Group and ring laws decided on generating sets, against full scans.

Each law has one scan, with x and y over the elements and z over a given
set.  ``core._associativity_witness`` and
``multiring._distributivity_witness`` run with z over the generators to
decide the law (Light's test for a group; the additive generators for a
ring's three laws), and again with z over every element only to name the
first failure.  ``_distributes_over`` and ``_cross_violation`` skip the
triples outside the domains their products need.  Every verdict and
witness must equal the full-cube reference's in ``oracles``.  The seeded
corpora (``group_subsets``, ``perturbed_groups``, ``perturbed_rings`` and
the spaces) also feed ``tests/golden/make_lib_golden.py``.
"""

import itertools
import random

import pytest

from multispace.constructions import (
    ABSORB,
    UNDEFINED_FILL,
    all_groups_up_to_8,
    cyclic_group_table,
    disjoint_cyclic_union,
    fan_extension,
    gen_latin_squares,
    latin_multispace,
    shared_identity_union,
    shared_zero_ring_union,
    symmetric_table,
    zn_ring_space,
    zn_ring_tables,
)
from multispace.core import OpTable, _generators, is_group_on
from multispace.foundations import FiniteUniverse
from multispace.multigroup import _distributes_over, subgroups_of
from multispace.multiring import _cross_violation, _ring_check

import oracles


# -- corpora -----------------------------------------------------------------

GROUPS = [(name, t) for name, _, t in all_groups_up_to_8()] + [("S4", symmetric_table(4)[1])]


def perturbed(t, rng, name=None):
    """``t`` with one cell moved to another domain element: still closed."""
    rows = [list(row) for row in t.entries]
    i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
    rows[i][j] = rng.choice([v for v in t.domain if v != rows[i][j]])
    return OpTable(name or t.name, t.universe, t.domain, rows)


def group_subsets(name, t):
    """The whole domain, every subgroup and 20 random subsets of group ``t``."""
    rng = random.Random(name)
    subsets = [frozenset(t.domain), *subgroups_of(t, frozenset(t.domain))]
    return subsets + [frozenset(rng.sample(t.domain, rng.randint(1, len(t.domain)))) for _ in range(20)]


def perturbed_groups(seed=1301, count=300):
    """Perturbed group tables, each with its domain and a random subset."""
    rng = random.Random(seed)
    for _ in range(count):
        _, t = rng.choice(GROUPS[1:])
        p = perturbed(t, rng)
        yield p, (frozenset(p.domain), frozenset(rng.sample(p.domain, rng.randint(1, len(p.domain)))))


def perturbed_rings(seed=1302, count=300):
    """(name, add, mul, carrier): a ring variant of Z_n with one cell of its
    addition or multiplication perturbed."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, 12)
        name, add, mul = rng.choice(list(ring_variants(n)))
        if rng.random() < 0.2:
            add = perturbed(add, rng, "+")
        else:
            mul = perturbed(mul, rng, "*")
        yield name, add, mul, frozenset(range(n))


def ring_variants(n):
    """Z_n's addition with Z_n's multiplication and with other associative
    multiplications, most of which break a distributive law."""
    universe, add, mul = zn_ring_tables(n)
    muls = {
        "times": mul,
        "min": lambda x, y: min(x, y),
        "max": lambda x, y: max(x, y),
        "left": lambda x, y: x,
        "right": lambda x, y: y,
        "zero": lambda x, y: 0,
        "circle": lambda x, y: (x + y + x * y) % n,
        "twice": lambda x, y: 2 * x * y % n,
    }
    for label, fn in muls.items():
        table = fn if isinstance(fn, OpTable) else OpTable.from_function("*", universe, range(n), fn)
        yield f"Z{n}-{label}", add, table


def group_fans():
    for name, t in GROUPS[:9]:
        for symbols in (["h"], ["h1", "h2"]):
            for policy in (ABSORB, UNDEFINED_FILL):
                yield f"fan-{name}-{len(symbols)}-{policy}", fan_extension(t, symbols, policy)


def ring_fans():
    for n in range(1, 7):
        _, add, mul = zn_ring_tables(n)
        for symbols in (["h"], ["h1", "h2"]):
            for policy in (ABSORB, UNDEFINED_FILL):
                yield f"ringfan-Z{n}-{len(symbols)}-{policy}", fan_extension((add, mul), symbols, policy)


def latin_spaces():
    for n in range(2, 7):
        for seed in range(3):
            squares = gen_latin_squares(n, min(n, 3), seed)
            yield f"latin-{n}-{seed}", latin_multispace([str(i) for i in range(n)], squares)


def multigroup_spaces():
    yield from group_fans()
    yield from latin_spaces()
    for a, b in itertools.combinations_with_replacement(range(1, 7), 2):
        yield f"shared-Z{a}+Z{b}", shared_identity_union([cyclic_group_table(a)[1], cyclic_group_table(b)[1]])
    yield "disjoint-2+3+4", disjoint_cyclic_union([2, 3, 4])


def ring_unions():
    yield from ring_fans()
    for a, b in itertools.combinations_with_replacement(range(1, 8), 2):
        yield f"shared-zero-{a}+{b}", shared_zero_ring_union([a, b])


# -- tests -------------------------------------------------------------------

class TestGenerators:
    @pytest.mark.parametrize("name, t", GROUPS, ids=[name for name, _ in GROUPS])
    def test_every_subgroup_is_the_left_normed_closure(self, name, t):
        for sub in subgroups_of(t, frozenset(t.domain)):
            gens = _generators(t.grid, sorted(sub))
            assert oracles.generated(t, gens) == sub
            # each generator lies outside the closure of the ones before it
            assert all(g not in oracles.generated(t, gens[:i]) for i, g in enumerate(gens))

    def test_cyclic_group_needs_its_identity_and_one_generator(self):
        _, t = cyclic_group_table(12)
        assert _generators(t.grid, t.domain) == [0, 1]


class TestGroupLaws:
    @pytest.mark.parametrize("name, t", GROUPS, ids=[name for name, _ in GROUPS])
    def test_groups_and_their_subsets(self, name, t):
        for subset in group_subsets(name, t):
            assert is_group_on(t, subset) == oracles.is_group_on(t, subset)

    def test_perturbed_closed_tables(self):
        kinds = []
        for p, subsets in perturbed_groups():
            for subset in subsets:
                got = is_group_on(p, subset)
                assert got == oracles.is_group_on(p, subset)
                kinds.append(got[1] and got[1]["kind"])
        # Light's test fails and the full scan names the triple
        assert kinds.count("associativity") >= 200


class TestRingLaws:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_zn_rings_and_associative_multiplications(self, n):
        ms = zn_ring_space(n)
        add, mul = ms.ops
        carrier = frozenset(ms.components[0].carrier)
        assert _ring_check(add, mul, carrier) is None
        for _, add, mul in ring_variants(n):
            assert _ring_check(add, mul, carrier) == oracles.ring_check(add, mul, carrier)

    def test_noncommutative_addition(self):
        # S3 as the addition, every product the identity: only + fails
        _, add = symmetric_table(3)
        mul = OpTable.from_function("*", add.universe, add.domain, lambda x, y: 0)
        carrier = frozenset(add.domain)
        want = {"kind": "additive_commutativity", "pair": (1, 2)}
        assert _ring_check(add, mul, carrier) == oracles.ring_check(add, mul, carrier) == want

    def test_every_bilinear_product_on_gf2_squared(self):
        # x * y = sum of x_i y_j c_ij over GF(2)^2: distributive, and
        # associative for only some structure constants c
        universe = FiniteUniverse.of(["00", "01", "10", "11"])
        add = OpTable.from_function("+", universe, range(4), lambda x, y: x ^ y)
        kinds = set()
        for c in itertools.product(range(4), repeat=4):
            def product(x, y, c=c):
                out = 0
                for (i, j), cij in zip(itertools.product(range(2), repeat=2), c):
                    if x >> i & y >> j & 1:
                        out ^= cij
                return out

            mul = OpTable.from_function("*", universe, range(4), product)
            got = _ring_check(add, mul, frozenset(range(4)))
            assert got == oracles.ring_check(add, mul, frozenset(range(4))), c
            kinds.add(got and got["kind"])
        assert kinds == {None, "multiplicative_associativity"}

    def test_perturbed_closed_tables(self):
        kinds = []
        for name, add, mul, carrier in perturbed_rings():
            got = _ring_check(add, mul, carrier)
            assert got == oracles.ring_check(add, mul, carrier), name
            kinds.append(got and got["kind"])
        for kind in ("associativity", "multiplicative_associativity", "left_distributivity", "right_distributivity"):
            assert kinds.count(kind) >= 10, kind


class TestDistribution:
    @pytest.mark.parametrize("ms", [pytest.param(ms, id=name) for name, ms in multigroup_spaces()])
    def test_spaces(self, ms):
        for f, g in itertools.permutations(ms.ops, 2):
            assert _distributes_over(ms, f, g) == oracles.distribution_witness(ms.element_union(), f, g)

    def test_perturbed_latin_spaces(self):
        rng = random.Random(1303)
        witnesses = 0
        for _ in range(200):
            n = rng.randint(2, 6)
            ms = latin_multispace([str(i) for i in range(n)], gen_latin_squares(n, 2, rng.randrange(1000)))
            f, g = ms.ops
            f = perturbed(f, rng)
            for a, b in ((f, g), (g, f)):
                got = _distributes_over(ms, a, b)
                assert got == oracles.distribution_witness(ms.element_union(), a, b)
                witnesses += got is not None
        assert witnesses >= 200


class TestCrossLaws:
    @pytest.mark.parametrize("ms", [pytest.param(ms, id=name) for name, ms in ring_unions()])
    def test_ring_unions(self, ms):
        union = ms.element_union()
        for ci, cj in itertools.permutations(ms.components, 2):
            tables = [ms.op(op) for c in (ci, cj) for op in c.op_names]
            want = oracles.cross_violation(*tables, union)
            assert _cross_violation(*tables, union) == want

    def test_perturbed_ring_fans(self):
        rng = random.Random(1304)
        fans = list(ring_fans())
        witnesses = 0
        for _ in range(200):
            name, ms = rng.choice(fans)
            tables = {t.name: t for t in ms.ops}
            victim = rng.choice(list(tables))
            tables[victim] = perturbed(tables[victim], rng)
            union = ms.element_union()
            for ci, cj in itertools.permutations(ms.components, 2):
                args = [tables[op] for c in (ci, cj) for op in c.op_names]
                got = _cross_violation(*args, union)
                assert got == oracles.cross_violation(*args, union), name
                witnesses += got is not None
        assert witnesses >= 50
