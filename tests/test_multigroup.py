import itertools
import random
import re
from functools import partial

import pytest

from multispace.constructions import (
    abelian_groups_of_order,
    all_groups_up_to_8,
    cyclic_group_table,
    direct_product_table,
    disjoint_cyclic_union,
    gen_latin_squares,
    latin_multispace,
    shared_identity_union,
    shared_zero_ring_union,
    single_component_space,
    symmetric_table,
    zn_ring_space,
    zn_ring_tables,
)
from multispace.core import Component, MultiSpace, OpTable, group_identity_on, group_inverses_on
from multispace.errors import ContractError, InternalCheckError, SizeLimitError
from multispace.foundations import FiniteUniverse
from multispace.multigroup import (
    IDEAL_CHAIN,
    NORMAL_SERIES,
    SubsetView,
    _close,
    _conjugate_escape,
    _lattice,
    _maximal,
    _normal_in,
    _normal_steps,
    _run_series,
    _series_profile,
    _series_step,
    composition_series,
    coset_of,
    coset_partition,
    is_multigroup,
    is_normal,
    is_submultigroup,
    lagrange_check,
    maximal_normal_series,
    maximal_normal_subgroups,
    series_length_profile,
    subgroup_closure,
    subgroups_of,
)
from multispace.multiring import _absorbs, _ideal_steps, multiideal_chain


def omega(n):
    """Number of prime factors with multiplicity."""
    count = 0
    d = 2
    while n > 1:
        while n % d == 0:
            n //= d
            count += 1
        d += 1
    return count


class TestIsMultigroup:
    def test_single_group_component(self):
        _, t = cyclic_group_table(5)
        report = is_multigroup(single_component_space(t))
        assert report.verdict and report.complete

    def test_shared_identity_union_is_multigroup(self):
        _, z4 = cyclic_group_table(4)
        _, z6 = cyclic_group_table(6)
        report = is_multigroup(shared_identity_union([z4, z6]))
        assert report.verdict
        assert not report.complete  # cross pairs have no defined product
        assert all(d.orientation is not None for d in report.distribution)

    def test_latin_space_fails_with_witness(self, paper_latin_space):
        report = is_multigroup(paper_latin_space)
        assert not report.verdict
        assert report.witness["kind"] == "associativity"

    def test_double_components_rejected(self):
        with pytest.raises(ContractError):
            is_multigroup(zn_ring_space(6))

    def test_two_components_sharing_one_table(self):
        # one law on two sets: both subgroups of Z6 bound to the same table
        from multispace.core import Component, MultiSpace

        _, t = cyclic_group_table(6)
        ms = MultiSpace(
            t.universe,
            [Component("C1", (0, 2, 4), ("+",)), Component("C2", (0, 3), ("+",))],
            [t],
        )
        report = is_multigroup(ms)
        assert report.verdict
        sub = SubsetView(ms, frozenset({0, 3}), ("+",))
        assert is_submultigroup(sub).verdict


class TestSubMultigroup:
    def test_whole_space(self):
        ms = disjoint_cyclic_union([4, 3])
        sub = SubsetView(ms, frozenset(ms.element_union()), ("+1", "+2"))
        assert is_submultigroup(sub).verdict

    def test_order_three_subgroups_of_two_z6(self):
        ms = disjoint_cyclic_union([6, 6])
        c1, c2 = ms.components
        elements = frozenset({c1.carrier[0], c1.carrier[2], c1.carrier[4],
                              c2.carrier[0], c2.carrier[2], c2.carrier[4]})
        sub = SubsetView(ms, elements, ("+1", "+2"))
        report = is_submultigroup(sub)
        assert report.verdict and report.by_component and report.by_closure

    def test_subset_missing_identity_fails(self):
        _, t = cyclic_group_table(6)
        ms = single_component_space(t)
        sub = SubsetView(ms, frozenset({1, 2}), ("+",))
        assert not is_submultigroup(sub).verdict

    def test_matches_classical_subgroup_test_on_all_subsets(self):
        from multispace.core import is_group_on

        for name, _, table in all_groups_up_to_8():
            ms = single_component_space(table)
            carrier = list(table.domain)
            for r in range(1, len(carrier) + 1):
                for combo in itertools.combinations(carrier, r):
                    sub = SubsetView(ms, frozenset(combo), (table.name,))
                    classical, _ = is_group_on(table, frozenset(combo))
                    assert is_submultigroup(sub).verdict == classical, (name, combo)

    def test_dual_routes_agree_on_random_subsets(self):
        rng = random.Random(5)
        _, z4 = cyclic_group_table(4)
        _, z6 = cyclic_group_table(6)
        ms = shared_identity_union([z4, z6])
        union = list(ms.element_union())
        for _ in range(120):
            k = rng.randint(1, len(union))
            sub = SubsetView(ms, frozenset(rng.sample(union, k)), ("+1", "+2"))
            is_submultigroup(sub)  # InternalCheckError would signal disagreement


class TestCosets:
    def test_coset_of_pinned(self):
        # an element outside the domain, in the universe or not, has no coset;
        # -1 must not wrap round to the last element
        _, t = cyclic_group_table(4)
        view = SubsetView(single_component_space(t), frozenset({0, 2}), ("+",))
        assert coset_of(view, 1) == {1, 3}
        assert coset_of(view, 0) == {0, 2}
        assert coset_of(view, 99) == coset_of(view, -1) == coset_of(view, None) == frozenset()

    def test_z6_mod_three_element_subgroup(self):
        _, t = cyclic_group_table(6)
        ms = single_component_space(t)
        sub = SubsetView(ms, frozenset({0, 3}), ("+",))
        cosets = coset_partition(sub)
        assert len(cosets) == 3
        assert all(len(c) == 2 for c in cosets)
        assert frozenset().union(*cosets) == frozenset(range(6))

    def test_whole_space_single_coset(self):
        ms = disjoint_cyclic_union([4])
        sub = SubsetView(ms, frozenset(ms.element_union()), ("+1",))
        assert len(coset_partition(sub)) == 1

    def test_shared_identity_z4_z6(self):
        _, z4 = cyclic_group_table(4)
        _, z6 = cyclic_group_table(6)
        ms = shared_identity_union([z4, z6])
        names = ["e", "c1_2", "c2_2", "c2_4"]
        sub = SubsetView.of_names(ms, names)
        cosets = coset_partition(sub)
        union = frozenset(ms.element_union())
        assert frozenset().union(*cosets) == union
        total = sum(len(c) for c in cosets)
        assert total == len(union) == 9

    def test_disjoint_components_partition(self):
        ms = disjoint_cyclic_union([4, 6])
        c1, c2 = ms.components
        sub = SubsetView(
            ms, frozenset({c1.carrier[0], c1.carrier[2], c2.carrier[0], c2.carrier[3]}),
            ("+1", "+2"),
        )
        cosets = coset_partition(sub)
        assert frozenset().union(*cosets) == frozenset(ms.element_union())
        assert sum(len(c) for c in cosets) == 10


class TestLagrange:
    def test_z6_subgroup_orders(self):
        _, t = cyclic_group_table(6)
        report = lagrange_check(t)
        assert report.subgroup_orders == (1, 2, 3, 6)
        assert report.all_divide

    def test_z5_prime(self):
        _, t = cyclic_group_table(5)
        assert lagrange_check(t).subgroup_orders == (1, 5)

    def test_trivial_group(self):
        _, t = cyclic_group_table(1)
        assert lagrange_check(t).subgroup_orders == (1,)

    def test_corpus_up_to_12(self):
        tables = [t for _, _, t in all_groups_up_to_8()]
        tables.append(cyclic_group_table(12)[1])
        tables.append(direct_product_table([6, 2])[1])
        for t in tables:
            report = lagrange_check(t)
            assert report.all_divide

    def test_non_group_rejected(self, paper_latin_space):
        with pytest.raises(ContractError):
            lagrange_check(paper_latin_space.op("x2"))

    def test_subgroups_of_subset_without_identity_rejected(self):
        _, t = cyclic_group_table(6)
        with pytest.raises(ContractError):
            subgroups_of(t, frozenset({1, 2}))


class TestNormality:
    def test_abelian_subgroups_normal(self):
        _, t = cyclic_group_table(8)
        ms = single_component_space(t)
        for sub_set in subgroups_of(t, frozenset(range(8))):
            report = is_normal(SubsetView(ms, sub_set, ("+",)))
            assert report.verdict

    def test_s3_two_element_subgroup_not_normal(self):
        _, t = symmetric_table(3)
        ms = single_component_space(t)
        two = next(s for s in subgroups_of(t, frozenset(t.domain)) if len(s) == 2)
        report = is_normal(SubsetView(ms, two, (t.name,)))
        assert not report.verdict
        assert report.witness["conjugate"] not in two

    def test_identity_subset_normal(self):
        _, z4 = cyclic_group_table(4)
        _, z6 = cyclic_group_table(6)
        ms = shared_identity_union([z4, z6])
        report = is_normal(SubsetView(ms, frozenset({0}), ("+1", "+2")))
        assert report.verdict


class TestSeries:
    def test_z8_length_three(self):
        _, t = cyclic_group_table(8)
        result = composition_series(t)
        assert result.invariant and result.length == 3
        chain = result.chains[0]
        assert [len(level) for level in chain.levels] == [8, 4, 2, 1]

    def test_chain_bound_names_itself_and_the_count(self, monkeypatch):
        table = next(t for name, _, t in abelian_groups_of_order(16) if name == "Z2xZ2xZ2xZ2")
        assert composition_series(table).chain_count == 315
        monkeypatch.setattr("multispace.multigroup.SERIES_CHAIN_BOUND", 314)
        with pytest.raises(SizeLimitError, match="315 chains exceed SERIES_CHAIN_BOUND = 314"):
            composition_series(table)

    def test_s3_series(self):
        _, t = symmetric_table(3)
        result = composition_series(t)
        assert result.length == 2
        assert result.chain_count == 1
        assert [len(level) for level in result.chains[0].levels] == [6, 3, 1]

    def test_z12_all_chains_length_three(self):
        _, t = cyclic_group_table(12)
        result = composition_series(t)
        assert result.invariant and result.length == 3
        assert result.chain_count == 3  # through 2Z12 via two routes, and 3Z12

    def test_z7_simple(self):
        _, t = cyclic_group_table(7)
        assert composition_series(t).length == 1

    def test_trivial_group_length_zero(self):
        _, t = cyclic_group_table(1)
        result = composition_series(t)
        assert result.length == 0 and result.chain_count == 1

    def test_two_component_series_concatenates(self):
        _, z4 = cyclic_group_table(4)
        _, z2 = cyclic_group_table(2)
        ms = shared_identity_union([z4, z2])
        result = maximal_normal_series(ms, ["+1", "+2"])
        assert result.invariant and result.length == 3
        # every chain ends at the shared identity alone
        for chain in result.chains:
            assert chain.levels[-1] == frozenset({0})
            assert chain.kind == NORMAL_SERIES

    def test_orientation_must_cover_ops(self):
        _, z4 = cyclic_group_table(4)
        _, z6 = cyclic_group_table(6)
        for ms in (disjoint_cyclic_union([2, 2]), shared_identity_union([z4, z6])):
            for entry in (maximal_normal_series, series_length_profile):
                for orientation in (["+1"], ["+1", "+1"], ["+1", "+1", "+2"]):
                    with pytest.raises(ContractError, match="each bound operation exactly once"):
                        entry(ms, orientation)

    def test_profile_matches_materialised_chains(self):
        _, z12 = cyclic_group_table(12)
        _, z4 = cyclic_group_table(4)
        ms = shared_identity_union([z12, z4])
        result = maximal_normal_series(ms, ["+1", "+2"])
        lengths, count = series_length_profile(ms, ["+1", "+2"])
        assert lengths == result.lengths
        assert count == result.chain_count == len(result.chains)
        assert result.length == omega(12) + omega(4)

    def test_orientation_order_changes_chains_not_length(self):
        _, z4 = cyclic_group_table(4)
        _, z6 = cyclic_group_table(6)
        ms = shared_identity_union([z4, z6])
        a = maximal_normal_series(ms, ["+1", "+2"])
        b = maximal_normal_series(ms, ["+2", "+1"])
        assert a.length == b.length == omega(4) + omega(6)

    def test_non_multigroup_rejected(self, paper_latin_space):
        with pytest.raises(ContractError):
            maximal_normal_series(paper_latin_space, ["x1", "x2"])

    def test_nonabelian_composition_lengths(self):
        from multispace.constructions import dihedral_table, quaternion_table

        _, d4 = dihedral_table(4)
        result = composition_series(d4)
        assert result.lengths == (3,)
        assert result.chain_count == 7  # via Z4 (1 chain) and the two V4s (3 each)
        _, q8 = quaternion_table()
        result = composition_series(q8)
        assert result.lengths == (3,) and result.chain_count == 3

    def test_s4_length_four(self):
        _, s4 = symmetric_table(4)
        result = composition_series(s4)
        assert result.invariant and result.length == 4
        assert result.chain_count == 3  # S4 > A4 > V4 > one of three Z2s > 1
        for chain in result.chains:
            assert [len(level) for level in chain.levels] == [24, 12, 4, 2, 1]

    def test_levels_strictly_decrease(self):
        _, t = direct_product_table([2, 2, 2])
        result = composition_series(t)
        assert result.invariant and result.length == 3
        assert result.chain_count == 7 * 3 * 1
        for chain in result.chains:
            for a, b in zip(chain.levels, chain.levels[1:]):
                assert b < a


# -- one lattice per series step ---------------------------------------------

# the shared-zero ring pairs of the series benchmark
SHARED_ZERO_PAIRS = [
    (2, 3), (2, 12), (3, 8), (4, 6), (4, 10), (5, 7), (6, 6), (6, 12), (8, 9), (9, 9),
    (10, 12), (12, 12),
]


def reference_maximal(table, part, mul=None):
    """The per-part route: ``subgroups_of(table, part)``, then the normality
    filter (the ideal filter when ``mul`` is given), then the maximal members."""
    subs = subgroups_of(table, part)
    G = table.grid
    if mul is None:
        inverse = group_inverses_on(table, part)

        def keep(s):
            return all(G[g][h] is not None and G[G[g][h]][inverse[g]] in s for g in part for h in s)
    else:
        M = mul.grid
        defined = all(map(mul.in_domain, part))

        def keep(s):
            return defined and all(M[r][a] in s and M[a][r] in s for r in part for a in s)

    kept = [s for s in subs if s != part and keep(s)]
    return [s for s in kept if not any(s < t for t in kept)]


def reference_maximal_filter(lattice, part, test):
    """The quadratic filter that ``_maximal`` replaced: test every member
    properly inside ``part``, then keep those inside no other kept member."""
    kept = [m for m, gens in lattice.items() if m != part and m | part == part and test(m, gens)]
    return [m for m in kept if not any(m != t and m | t == t for t in kept)]


def assert_maximal_matches_filter(lattice, part, test):
    """``_maximal`` gives the filter's answer, and calls ``test`` exactly on
    the members properly inside ``part`` and properly inside no top it
    returns, largest first."""
    tested = []

    def logged(m, gens):
        tested.append(m)
        return test(m, gens)

    got = _maximal(lattice, part, logged)
    assert got == reference_maximal_filter(lattice, part, test)
    assert tested == [
        m for m in reversed(lattice) if m != part and m | part == part and not any(m != t and m | t == t for t in got)
    ]
    return got


def random_predicates(rng, lattice):
    """Three seeded predicates on the members, each passing a member with
    its own chance, plus the predicates that pass all and none."""
    chances = [rng.random() for _ in range(3)]
    passing = [frozenset(m for m in lattice if rng.random() < chance) for chance in chances]
    return [lambda m, _, p=p: m in p for p in passing] + [lambda m, _: True, lambda m, _: False]


def as_set(mask):
    return frozenset(x for x in range(mask.bit_length()) if mask >> x & 1)


def as_mask(elements):
    return sum(1 << x for x in set(elements))


def on_sets(maximal):
    """A step's ``maximal``, which takes and gives bitmasks, on frozensets."""
    return lambda part: [as_set(n) for n in maximal(as_mask(part))]


def reference_steps(steps, muls):
    """``steps`` with ``maximal`` replaced by the per-part route, on the
    engine's bitmask parts."""
    def per_part(table, mul):
        return lambda part: [as_mask(s) for s in reference_maximal(table, as_set(part), mul)]

    return [(label, carrier, table, per_part(table, mul)) for (label, carrier, table, _), mul in zip(steps, muls)]


def recorded(steps, muls, log):
    """``steps`` with every ``maximal(part)`` call and its result logged."""

    def wrap(maximal, table, mul):
        def call(part):
            log.append((table, mul, part, maximal(part)))
            return log[-1][3]

        return call

    return [
        (label, carrier, table, wrap(maximal, table, mul))
        for (label, carrier, table, maximal), mul in zip(steps, muls)
    ]


def assert_same_series(ms, steps, muls, kind=NORMAL_SERIES):
    """The lattice route and the per-part route give equal series results
    (chains in the same order), and every per-part maximal list agrees."""
    log = []
    reference = _run_series(ms, reference_steps(steps, muls), kind)
    assert _run_series(ms, recorded(steps, muls, log), kind) == reference
    assert log or len(ms.element_union()) == 1
    for table, mul, part, got in log:
        assert [as_set(n) for n in got] == reference_maximal(table, as_set(part), mul)
    return reference


def normal_series_routes(ms, orientation):
    return _normal_steps(ms, orientation), [None] * len(orientation)


def ideal_chain_routes(ms, names):
    return _ideal_steps(ms, names), [ms.op(ms.component(n).mul_name) for n in names]


def partial_table(rng, n, density):
    universe = FiniteUniverse.of([f"u{i}" for i in range(n)])
    domain = sorted(rng.sample(range(n), rng.randint(1, n)))
    entries = [[rng.choice(domain) if rng.random() < density else None for _ in domain] for _ in domain]
    return OpTable("*", universe, domain, entries)


def closed_subsets_with(table, carrier, e):
    """Brute force: every subset of ``carrier`` holding ``e`` and closed
    under the table wherever it is defined."""
    G, rest = table.grid, sorted(carrier - {e})
    out = set()
    for r in range(len(rest) + 1):
        for combo in itertools.combinations(rest, r):
            s = frozenset(combo) | {e}
            if all(G[x][y] is None or G[x][y] in s for x in s for y in s):
                out.add(s)
    return out


def reference_subgroups_of(table, carrier):
    """The lattice before pruning: every member joins every element of the
    carrier outside it."""
    e = group_identity_on(table, carrier)
    if e is None:
        raise ContractError(f"no identity inside the given subset of {table.name!r}")
    base = frozenset({e})
    found = {base}
    queue = [base]
    while queue:
        current = queue.pop()
        for x in carrier - current:
            bigger = _close(table.grid, {*current, x}, [x])
            if bigger <= carrier and bigger not in found:
                found.add(bigger)
                queue.append(bigger)
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def tables_with_identity_on_three():
    """Every partial table on {0, 1, 2} with a two-sided identity: the
    identity's row and column are fixed, and each of the other four cells
    is an element or undefined, so 3 * 4^4 = 768 tables."""
    universe = FiniteUniverse.of(["u0", "u1", "u2"])
    for e in range(3):
        rest = [(x, y) for x in range(3) for y in range(3) if e not in (x, y)]
        for cells in itertools.product([0, 1, 2, None], repeat=len(rest)):
            rows = [[y if x == e else x if y == e else None for y in range(3)] for x in range(3)]
            for (x, y), v in zip(rest, cells):
                rows[x][y] = v
            yield OpTable("*", universe, (0, 1, 2), rows)


def planted_identity_table(rng, n, density):
    """A random partial table on n elements with a two-sided identity at a
    random element; every other cell is defined with chance ``density``."""
    universe = FiniteUniverse.of([f"u{i}" for i in range(n)])
    e = rng.randrange(n)
    rows = [
        [y if x == e else x if y == e else rng.randrange(n) if rng.random() < density else None for y in range(n)]
        for x in range(n)
    ]
    return OpTable("*", universe, tuple(range(n)), rows)


def overlapping_space():
    """Two ops whose carriers meet in more than an identity: ``a`` is Z2 on
    {2, 3} with unit 3, and ``b`` binds Z2 on {0, 1} and the one-element
    group {2}.  The carrier of ``b`` has no unit, but once ``a`` has
    descended, the part of ``b`` is {0, 1}."""
    u = FiniteUniverse.of(["0", "1", "2", "3"])
    a = OpTable("a", u, (2, 3), [[3, 2], [2, 3]])
    b = OpTable("b", u, (0, 1, 2), [[0, 1, None], [1, 0, None], [None, None, 2]])
    comps = [Component("A", (2, 3), ("a",)), Component("B1", (0, 1), ("b",)), Component("B2", (2,), ("b",))]
    return MultiSpace(u, comps, [a, b])


def two_identities_space():
    """One op bound to two Z2 components with different units: its
    carrier, the first series part, has no unit."""
    u = FiniteUniverse.of(["0", "1", "2", "3"])
    rows = [[0, 1, None, None], [1, 0, None, None], [None, None, 2, 3], [None, None, 3, 2]]
    t = OpTable("*", u, (0, 1, 2, 3), rows)
    return MultiSpace(u, [Component("C1", (0, 1), ("*",)), Component("C2", (2, 3), ("*",))], [t])


class TestSeriesLattice:
    def test_groups_up_to_order_8(self):
        for name, _, table in all_groups_up_to_8():
            ms = single_component_space(table)
            result = assert_same_series(ms, *normal_series_routes(ms, (table.name,)))
            assert result == composition_series(table), name

    def test_a05_single_and_pair_corpus(self):
        corpus = [(n, t) for n in range(1, 17) for _, _, t in abelian_groups_of_order(n)]
        for n, table in corpus:
            ms = shared_identity_union([table])
            result = assert_same_series(ms, *normal_series_routes(ms, ["+1"]))
            assert result == maximal_normal_series(ms, ["+1"])
        pairs = 0
        for (a, ta), (b, tb) in itertools.combinations_with_replacement(corpus, 2):
            if a + b - 1 <= 24:
                ms = shared_identity_union([ta, tb])
                steps, muls = normal_series_routes(ms, ["+1", "+2"])
                _, _, lengths, count = _series_profile(ms, reference_steps(steps, muls))
                assert series_length_profile(ms, ["+1", "+2"]) == (lengths, count)
                pairs += 1
        assert pairs >= 250

    def test_a05_pairs_materialised_in_both_orientations(self):
        tables = [t for n in (4, 6, 8) for _, _, t in abelian_groups_of_order(n)]
        for ta, tb in itertools.product(tables, repeat=2):
            ms = shared_identity_union([ta, tb])
            for orientation in (["+1", "+2"], ["+2", "+1"]):
                assert_same_series(ms, *normal_series_routes(ms, orientation))

    def test_zn_ideal_chains(self):
        for n in range(1, 13):
            ms = zn_ring_space(n)
            result = assert_same_series(ms, *ideal_chain_routes(ms, ["R1"]), IDEAL_CHAIN)
            assert result == multiideal_chain(ms, ["R1"]), n

    def test_shared_zero_pairs(self):
        for a, b in SHARED_ZERO_PAIRS:
            ms = shared_zero_ring_union([a, b])
            for names in (["R1", "R2"], ["R2", "R1"]):
                result = assert_same_series(ms, *ideal_chain_routes(ms, names), IDEAL_CHAIN)
                assert result == multiideal_chain(ms, names), (a, b)

    def test_overlapping_carriers(self):
        # the part of b is {0, 1}, not b's carrier, which has no unit: a
        # lattice of the carrier would raise where the per-part route does not
        ms = overlapping_space()
        assert is_multigroup(ms).verdict
        result = assert_same_series(ms, *normal_series_routes(ms, ["a", "b"]))
        assert result.lengths == (2,) and result.chain_count == 1
        assert [sorted(level) for level in result.chains[0].levels] == [[0, 1, 2, 3], [0, 1, 3], [0, 3]]
        assert maximal_normal_series(ms, ["a", "b"]) == result

    def test_no_unit_raises_on_both_routes(self):
        ms = two_identities_space()
        steps, muls = normal_series_routes(ms, ["*"])
        with pytest.raises(ContractError, match="no identity") as new:
            _run_series(ms, steps, NORMAL_SERIES)
        with pytest.raises(ContractError, match="no identity") as old:
            _run_series(ms, reference_steps(steps, muls), NORMAL_SERIES)
        assert str(new.value) == str(old.value)
        with pytest.raises(ContractError, match="no identity"):
            maximal_normal_series(ms, ["*"])

    def test_step_reads_later_parts_off_its_first_lattice(self):
        _, z6 = cyclic_group_table(6)
        maximal = on_sets(_series_step("+", frozenset(range(6)), z6, partial(_normal_in, z6))[3])
        whole = frozenset(range(6))
        assert maximal(whole) == reference_maximal(z6, whole) == [frozenset({0, 3}), frozenset({0, 2, 4})]
        for part in map(frozenset, ({0, 2, 4}, {0, 3}, {0})):
            assert maximal(part) == reference_maximal(z6, part)
        # a first part with no unit raises as the per-part route does
        maximal = on_sets(_series_step("+", frozenset(range(6)), z6, partial(_normal_in, z6))[3])
        for route in (maximal, maximal, lambda part: reference_maximal(z6, part)):
            with pytest.raises(ContractError, match="no identity"):
                route(frozenset({1, 2}))

    def test_step_rejects_a_part_outside_its_first_lattice(self):
        # Z6 is not in the lattice of {0, 2, 4}; filtering that lattice would
        # return [{0, 2, 4}] where the answer is [{0, 3}, {0, 2, 4}]
        _, z6 = cyclic_group_table(6)
        maximal = on_sets(_series_step("+", frozenset(range(6)), z6, partial(_normal_in, z6))[3])
        assert maximal(frozenset({0, 2, 4})) == [frozenset({0})]
        with pytest.raises(InternalCheckError, match="outside its lattice"):
            maximal(frozenset(range(6)))

    def test_ideal_step_reads_later_parts_off_its_first_lattice(self):
        _, add, mul = zn_ring_tables(12)
        maximal = on_sets(_series_step("R", frozenset(range(12)), add, partial(_absorbs, mul))[3])
        assert maximal(frozenset(range(12))) == [frozenset(range(0, 12, 3)), frozenset(range(0, 12, 2))]
        for part in map(frozenset, (range(12), range(0, 12, 2), {0, 4, 8}, {0, 6})):
            assert maximal(part) == reference_maximal(add, part, mul)

    def test_no_ideals_where_mul_is_partly_undefined(self):
        from multispace.multiring import ideals_of, maximal_ideals

        u, add, mul = zn_ring_tables(6)
        # mul on {0, 1, 2} only, products of 3 or more undefined
        rows = [[v if v < 3 else None for v in mul.grid[x][:3]] for x in range(3)]
        half = OpTable("*", u, (0, 1, 2), rows)
        whole = frozenset(range(6))
        assert ideals_of(add, half, whole) == [] == maximal_ideals(add, half, whole)
        assert reference_maximal(add, whole, half) == []
        assert ideals_of(add, mul, whole) == [frozenset({0})] + [frozenset(range(0, 6, d)) for d in (3, 2, 1)]

    def test_subgroups_of_is_every_closed_subset_with_the_unit(self):
        for _, _, table in all_groups_up_to_8():
            carrier = frozenset(table.domain)
            e = group_identity_on(table, carrier)
            assert set(subgroups_of(table, carrier)) == closed_subsets_with(table, carrier, e)

    def test_subgroups_of_partial_tables_match_brute_force(self):
        rng = random.Random(2006)
        checked = 0
        for _ in range(400):
            table = partial_table(rng, rng.randint(1, 7), rng.choice([0.3, 0.7, 1.0]))
            carrier = frozenset(table.domain)
            e = group_identity_on(table, carrier)
            if e is None:
                continue
            assert set(subgroups_of(table, carrier)) == closed_subsets_with(table, carrier, e)
            checked += 1
        assert checked >= 20

    def test_subgroups_of_every_partial_table_on_three_elements(self):
        # every carrier with a unit, so closures that escape the carrier
        # and carriers that are not groups are both covered
        tables = 0
        for table in tables_with_identity_on_three():
            tables += 1
            for r in (1, 2, 3):
                for carrier in map(frozenset, itertools.combinations(range(3), r)):
                    e = group_identity_on(table, carrier)
                    if e is not None:
                        assert set(subgroups_of(table, carrier)) == closed_subsets_with(table, carrier, e)
        assert tables == 768

    def test_subgroups_of_planted_identity_tables(self):
        rng = random.Random(1612)
        for _ in range(2000):
            table = planted_identity_table(rng, rng.randint(4, 6), rng.choice([0.5, 0.8, 1.0]))
            carrier = frozenset(table.domain)
            e = group_identity_on(table, carrier)
            assert set(subgroups_of(table, carrier)) == closed_subsets_with(table, carrier, e)

    def test_subgroups_of_matches_the_unpruned_lattice_on_the_series_corpus(self):
        corpus = [(name, t) for n in range(1, 17) for name, _, t in abelian_groups_of_order(n)]
        corpus += [(name, t) for name, _, t in all_groups_up_to_8() if name in ("S3", "D4", "Q8")]
        corpus.append(("S4", symmetric_table(4)[1]))
        counts = {}
        for name, table in corpus:
            carrier = frozenset(table.domain)
            subs = subgroups_of(table, carrier)
            assert subs == reference_subgroups_of(table, carrier), name
            counts[name] = len(subs)
        pinned = {"Z2xZ2xZ2xZ2": 67, "Z2xZ2xZ4": 27, "Z4xZ4": 15, "S4": 30, "D4": 10, "Q8": 6}
        assert {name: counts[name] for name in pinned} == pinned

    def test_ideals_of_matches_the_unpruned_lattice_on_zn(self):
        from multispace.multiring import ideals_of

        for n in range(1, 13):
            _, add, mul = zn_ring_tables(n)
            whole = frozenset(range(n))
            subs = reference_subgroups_of(add, whole)
            assert subgroups_of(add, whole) == subs, n
            M = mul.grid
            ideals = [s for s in subs if all(M[r][a] in s and M[a][r] in s for r in whole for a in s)]
            assert ideals_of(add, mul, whole) == ideals, n

    def test_generator_normality_matches_the_conjugation_scan(self):
        # every (member, part) pair with the member inside the part, on the
        # lattices of the series corpus: the test on gens(part) x gens(N)
        # against the exhaustive scan over part x N
        corpus = [(name, t) for n in range(1, 17) for name, _, t in abelian_groups_of_order(n)]
        corpus += [(name, t) for name, _, t in all_groups_up_to_8() if name in ("S3", "D4", "Q8")]
        corpus.append(("S4", symmetric_table(4)[1]))
        verdicts = {True: 0, False: 0}
        for name, table in corpus:
            whole = frozenset(table.domain)
            lattice, inverse = _lattice(table, whole)
            assert inverse is not None and [as_set(m) for m in lattice] == subgroups_of(table, whole), name
            e = group_identity_on(table, whole)
            for member, gens in lattice.items():
                # the generators of a member generate it
                assert subgroup_closure(table, frozenset(gens) | {e}) == as_set(member), name
            for part, gens in lattice.items():
                P = as_set(part)
                test, inverses = _normal_in(table, part, gens, inverse), group_inverses_on(table, P)
                for member, sub_gens in lattice.items():
                    N = as_set(member)
                    if N <= P:
                        scan = _conjugate_escape(table.grid, P, inverses, N, N) is None
                        assert test(member, sub_gens) == scan, (name, sorted(P), sorted(N))
                        verdicts[scan] += 1
        assert verdicts == {True: 1198, False: 64}

    def test_descending_scan_matches_the_filter_on_group_lattices(self):
        # every member as the part, under seeded predicates and normality
        rng = random.Random(20)
        corpus = [(name, t) for n in range(1, 17) for name, _, t in abelian_groups_of_order(n)]
        corpus += [(name, t) for name, _, t in all_groups_up_to_8() if name in ("S3", "D4", "Q8")]
        corpus.append(("S4", symmetric_table(4)[1]))
        normal_tops = 0
        for _, table in corpus:
            lattice, inverse = _lattice(table, frozenset(table.domain))
            predicates = random_predicates(rng, lattice)
            for part, gens in lattice.items():
                for test in predicates:
                    assert_maximal_matches_filter(lattice, part, test)
                normal_tops += len(assert_maximal_matches_filter(lattice, part, _normal_in(table, part, gens, inverse)))
        assert normal_tops == 531

    def test_descending_scan_matches_the_filter_on_ideal_lattices(self):
        rng = random.Random(12)
        for n in range(1, 13):
            _, add, mul = zn_ring_tables(n)
            lattice = _lattice(add, frozenset(range(n)))[0]
            predicates = random_predicates(rng, lattice)
            for part in lattice:
                for test in predicates + [_absorbs(mul, part)]:
                    assert_maximal_matches_filter(lattice, part, test)

    def test_descending_scan_matches_the_filter_on_partial_tables(self):
        # the lattices that are not groups, of every partial table on three
        # elements with a unit, under seeded predicates
        rng = random.Random(3)
        lattices = 0
        for table in tables_with_identity_on_three():
            for r in (2, 3):
                for carrier in map(frozenset, itertools.combinations(range(3), r)):
                    if group_identity_on(table, carrier) is None:
                        continue
                    lattice, inverse = _lattice(table, carrier)
                    if inverse is not None:
                        continue
                    lattices += 1
                    for part in lattice:
                        for test in random_predicates(rng, lattice):
                            assert_maximal_matches_filter(lattice, part, test)
        assert lattices == 1935

    def test_maximal_normal_subgroups_of_every_partial_table_on_three_elements(self):
        # carriers that are not groups take the exhaustive route
        for table in tables_with_identity_on_three():
            for r in (1, 2, 3):
                for carrier in map(frozenset, itertools.combinations(range(3), r)):
                    if group_identity_on(table, carrier) is None:
                        continue
                    try:
                        expected = reference_maximal(table, carrier)
                    except ContractError as exc:
                        with pytest.raises(ContractError, match=re.escape(str(exc))):
                            maximal_normal_subgroups(table, carrier)
                    else:
                        assert maximal_normal_subgroups(table, carrier) == expected

    def test_join_from_the_new_element_only(self):
        rng = random.Random(7)
        for _ in range(500):
            table = partial_table(rng, rng.randint(1, 8), rng.choice([0.3, 0.6, 0.9, 1.0]))
            domain = list(table.domain)
            current = subgroup_closure(table, frozenset(rng.sample(domain, rng.randint(0, len(domain)))))
            for x in domain:
                if x not in current:
                    joined = _close(table.grid, {*current, x}, [x])
                    assert joined == subgroup_closure(table, current | {x})


def test_composition_lengths_match_sympy():
    combinatorics = pytest.importorskip("sympy.combinatorics")
    corpus = [(name, table) for name, _, table in all_groups_up_to_8()] + [("S4", symmetric_table(4)[1])]
    for name, table in corpus:
        domain = list(table.domain)
        position = {x: i for i, x in enumerate(domain)}
        # left-regular representation: g acts by x -> g x
        perms = [combinatorics.Permutation([position[table.grid[g][x]] for x in domain]) for g in domain]
        group = combinatorics.PermutationGroup(perms)
        assert group.order() == len(domain), name
        assert composition_series(table).length == len(group.composition_series()) - 1, name
