"""Group and ring laws decided on generating sets, against full scans.

Each law has one scan, with x and y over the elements and z over a given
set.  ``core._associativity_witness`` and
``multiring._distributivity_witness`` run with z over the generators to
decide the law (Light's test for a group; the additive generators for a
ring's three laws), and again with z over every element only to name the
first failure.  ``_distributes_over`` and ``_cross_violation`` skip the
triples outside the domains their products need.  The references below are
full-cube code; every verdict and witness must equal theirs.  The seeded
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
from multispace.core import (
    UNDEFINED,
    Component,
    MultiSpace,
    OpTable,
    _generators,
    group_identity_on,
    is_group_on,
)
from multispace.foundations import FiniteUniverse
from multispace.multigroup import _distributes_over, subgroups_of
from multispace.multiring import _cross_violation, _ring_check


# -- the former full-cube code ---------------------------------------------

def reference_is_group_on(t, subset):
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
    for x in elems:
        row = grid[x]
        for y in elems:
            xy, y_row = grid[row[y]], grid[y]
            for z in elems:
                if xy[z] != row[y_row[z]]:
                    return False, {"kind": "associativity", "triple": (x, y, z)}
    unit = group_identity_on(t, subset)
    if unit is None:
        return False, {"kind": "no_unit"}
    for a in elems:
        if not any(grid[a][b] == unit and grid[b][a] == unit for b in elems):
            return False, {"kind": "missing_inverse", "element": a}
    return True, None


def reference_ring_check(add, mul, carrier):
    ok, w = reference_is_group_on(add, carrier)
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
    for x, y, z in itertools.product(carrier, repeat=3):
        if M[M[x][y]][z] != M[x][M[y][z]]:
            return {"kind": "multiplicative_associativity", "triple": (x, y, z)}
    for x, y, z in itertools.product(carrier, repeat=3):
        if M[x][A[y][z]] != A[M[x][y]][M[x][z]]:
            return {"kind": "left_distributivity", "triple": (x, y, z)}
        if M[A[x][y]][z] != A[M[x][z]][M[y][z]]:
            return {"kind": "right_distributivity", "triple": (x, y, z)}
    return None


def reference_distributes_over(ms, f, g):
    union = ms.element_union()
    F, G = f.grid, g.grid
    for x in union:
        fx = F[x]
        for y in union:
            xy, yx, gy = fx[y], F[y][x], G[y]
            for z in union:
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


def reference_cross_violation(ai, mi, aj, mj, union):
    """The former scan; the arguments are grids."""
    N = UNDEFINED
    labels = ("mixed_add_assoc", "mixed_mul_assoc", "mixed_left_distrib", "mixed_right_distrib")
    for x in union:
        aix, mix = ai[x], mi[x]
        for y in union:
            aixy, mixy, ajy, mjy, miyx = aix[y], mix[y], aj[y], mj[y], mi[y][x]
            if aixy is N and mixy is N and miyx is N:
                continue
            for z in union:
                ajyz, mjyz, mixz, mizx = ajy[z], mjy[z], mix[z], mi[z][x]
                if ajyz is N and mjyz is N:
                    continue
                sides = (
                    (N if aixy is N else aj[aixy][z], N if ajyz is N else aix[ajyz]),
                    (N if mixy is N else mj[mixy][z], N if mjyz is N else mix[mjyz]),
                    (N if ajyz is N else mix[ajyz], N if N in (mixy, mixz) else aj[mixy][mixz]),
                    (N if ajyz is N else mi[ajyz][x], N if N in (miyx, mizx) else aj[miyx][mizx]),
                )
                for label, (lhs, rhs) in zip(labels, sides):
                    if lhs is not N and rhs is not N and lhs != rhs:
                        return label, (x, y, z)
    return None


# -- corpora -----------------------------------------------------------------

GROUPS = [(name, t) for name, _, t in all_groups_up_to_8()] + [("S4", symmetric_table(4)[1])]


def perturbed(t, rng, name=None):
    """``t`` with one cell moved to another domain element: still closed."""
    rows = [list(row) for row in t.entries]
    i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
    rows[i][j] = rng.choice([v for v in t.domain if v != rows[i][j]])
    return OpTable(name or t.name, t.universe, t.domain, rows)


def random_table(rng, universe, name, domain=None):
    """A partial table on a random domain (or ``domain``) whose cells are
    undefined, in the domain or anywhere in the universe."""
    n = len(universe)
    if domain is None:
        domain = sorted(rng.sample(range(n), rng.randint(1, n)))
    pool = rng.choice([list(domain), list(range(n))]) + [None] * rng.randint(0, 2)
    return OpTable(name, universe, domain, [[rng.choice(pool) for _ in domain] for _ in domain])


def random_spaces(seed, count, ring):
    """Spaces of two random components, one or two operations each, on
    random domains inside a universe of up to six elements."""
    rng = random.Random(seed)
    for _ in range(count):
        universe = FiniteUniverse.of([f"e{i}" for i in range(rng.randint(2, 6))])
        comps, ops = [], []
        for i in (1, 2):
            names = [f"+{i}", f"*{i}"] if ring else [f"+{i}"]
            tables = [random_table(rng, universe, name) for name in names]
            meet = sorted(set.intersection(*(set(t.domain) for t in tables)))
            carrier = sorted(rng.sample(meet, rng.randint(min(1, len(meet)), len(meet))))
            comps.append(Component(f"C{i}", tuple(carrier), tuple(names), double=ring))
            ops += tables
        yield MultiSpace(universe, comps, ops)


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


def left_normed_closure(grid, gens):
    out, frontier = set(gens), list(gens)
    while frontier:
        x = frontier.pop()
        for a in gens:
            if grid[x][a] not in out:
                out.add(grid[x][a])
                frontier.append(grid[x][a])
    return out


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
            assert left_normed_closure(t.grid, gens) == sub
            # each generator lies outside the closure of the ones before it
            assert all(g not in left_normed_closure(t.grid, gens[:i]) for i, g in enumerate(gens))

    def test_cyclic_group_needs_its_identity_and_one_generator(self):
        _, t = cyclic_group_table(12)
        assert _generators(t.grid, t.domain) == [0, 1]


class TestGroupLaws:
    @pytest.mark.parametrize("name, t", GROUPS, ids=[name for name, _ in GROUPS])
    def test_groups_and_their_subsets(self, name, t):
        for subset in group_subsets(name, t):
            assert is_group_on(t, subset) == reference_is_group_on(t, subset)

    def test_perturbed_closed_tables(self):
        kinds = []
        for p, subsets in perturbed_groups():
            for subset in subsets:
                got = is_group_on(p, subset)
                assert got == reference_is_group_on(p, subset)
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
            assert _ring_check(add, mul, carrier) == reference_ring_check(add, mul, carrier)

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
            assert got == reference_ring_check(add, mul, frozenset(range(4))), c
            kinds.add(got and got["kind"])
        assert kinds == {None, "multiplicative_associativity"}

    def test_perturbed_closed_tables(self):
        kinds = []
        for name, add, mul, carrier in perturbed_rings():
            got = _ring_check(add, mul, carrier)
            assert got == reference_ring_check(add, mul, carrier), name
            kinds.append(got and got["kind"])
        for kind in ("associativity", "multiplicative_associativity", "left_distributivity", "right_distributivity"):
            assert kinds.count(kind) >= 10, kind


class TestDistribution:
    @pytest.mark.parametrize("ms", [pytest.param(ms, id=name) for name, ms in multigroup_spaces()])
    def test_spaces(self, ms):
        for f, g in itertools.permutations(ms.ops, 2):
            assert _distributes_over(ms, f, g) == reference_distributes_over(ms, f, g)

    def test_random_partial_tables(self):
        for ms in random_spaces(1306, 600, ring=False):
            for f, g in itertools.permutations(ms.ops, 2):
                assert _distributes_over(ms, f, g) == reference_distributes_over(ms, f, g)

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
                assert got == reference_distributes_over(ms, a, b)
                witnesses += got is not None
        assert witnesses >= 200


class TestCrossLaws:
    @pytest.mark.parametrize("ms", [pytest.param(ms, id=name) for name, ms in ring_unions()])
    def test_ring_unions(self, ms):
        union = ms.element_union()
        for ci, cj in itertools.permutations(ms.components, 2):
            tables = [ms.op(op) for c in (ci, cj) for op in c.op_names]
            want = reference_cross_violation(*(t.grid for t in tables), union)
            assert _cross_violation(*tables, union) == want

    def test_random_partial_tables(self):
        witnesses = 0
        for ms in random_spaces(1307, 600, ring=True):
            union = ms.element_union()
            for ci, cj in itertools.permutations(ms.components, 2):
                tables = [ms.op(op) for c in (ci, cj) for op in c.op_names]
                got = _cross_violation(*tables, union)
                assert got == reference_cross_violation(*(t.grid for t in tables), union)
                witnesses += got is not None
        assert witnesses >= 300

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
                assert got == reference_cross_violation(*(t.grid for t in args), union), name
                witnesses += got is not None
        assert witnesses >= 50
