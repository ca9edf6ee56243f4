import itertools
import math
import random
import time
from functools import partial

import pytest

from multispace import multigroup
from multispace.constructions import (
    abelian_groups_of_order,
    all_groups_up_to_8,
    cyclic_group_table,
    direct_product_table,
    disjoint_cyclic_union,
    shared_identity_union,
    shared_zero_ring_union,
    single_component_space,
    symmetric_table,
    zn_ring_space,
    zn_ring_tables,
)
from multispace.core import Component, MultiSpace, OpTable
from multispace.errors import ContractError, InternalCheckError, PartitionError, SizeLimitError
from multispace.foundations import FiniteUniverse
from multispace.multigroup import (
    IDEAL_CHAIN,
    NORMAL_SERIES,
    SubsetView,
    _close,
    _lattice,
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
    subgroups_of,
)
from multispace.multiring import _absorbs, _ideal_steps, multiideal_chain

import oracles
from conftest import (
    assert_maximal_matches_filter,
    assert_step_matches_filter,
    random_predicates,
    two_identities_space,
)
from oracles import as_mask, as_set


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


class TestPreconditions:
    def test_subset_view_rejects_an_element_outside_the_carrier_union(self):
        # "x" is in the universe but in no component
        u = FiniteUniverse.of(["e", "a", "x"])
        ms = MultiSpace(u, [Component("G", (0, 1), ("+",))], [OpTable("+", u, (0, 1), [[0, 1], [1, 0]])])
        assert SubsetView(ms, frozenset({0, 1}), ("+",)).elements == {0, 1}
        with pytest.raises(ContractError, match="^subset elements must lie in the parent carrier union$"):
            SubsetView(ms, frozenset({0, 2}), ("+",))

    def test_empty_subset_is_no_submultigroup_candidate(self):
        ms = single_component_space(cyclic_group_table(6)[1])
        with pytest.raises(ContractError, match="^the empty subset is not a sub-multi-group candidate$"):
            is_submultigroup(SubsetView(ms, frozenset(), ("+",)))

    def test_is_normal_needs_a_submultigroup_and_names_the_witness(self):
        ms = single_component_space(cyclic_group_table(6)[1])
        with pytest.raises(ContractError) as caught:
            is_normal(SubsetView(ms, frozenset({1, 2}), ("+",)))
        witness = {"component": "G", "op": "+", "kind": "closure", "pair": (1, 2), "result": 3}
        assert (caught.value.message, caught.value.witness) == ("not a sub-multi-group", witness)
        assert str(caught.value) == f"not a sub-multi-group: {witness}"

    def test_composition_series_rejects_a_non_group_table(self, paper_latin_space):
        with pytest.raises(ContractError, match="^'x2' is not a group table$"):
            composition_series(paper_latin_space.op("x2"))


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


    @staticmethod
    def two_z2_on_a_e_b():
        """Universe a, e, b: +1 is Z2 on {a, e} and +2 is Z2 on {e, b}, both
        with identity e, bound to C1 and C2."""
        universe = FiniteUniverse.of(["a", "e", "b"])
        ops = [
            OpTable("+1", universe, (0, 1), ((1, 0), (0, 1))),
            OpTable("+2", universe, (1, 2), ((1, 2), (2, 1))),
        ]
        return MultiSpace(universe, [Component("C1", (0, 1), ("+1",)), Component("C2", (1, 2), ("+2",))], ops)

    def test_tiling_needs_a_backtrack(self, monkeypatch):
        # the greedy first pick a gives the coset {a, e}; then b's coset {e, b}
        # overlaps it, and only e's coset {a, e, b} tiles the union
        calls = []

        def counted(sub, x):
            calls.append(x)
            return coset_of(sub, x)

        monkeypatch.setattr(multigroup, "coset_of", counted)
        ms = self.two_z2_on_a_e_b()
        sub = SubsetView(ms, frozenset(ms.element_union()), ("+1", "+2"))
        assert coset_partition(sub) == (frozenset({0, 1, 2}),)
        assert calls == [0, 2, 1]  # a, then b below it, then e after the backtrack

    def test_no_tiling_is_a_partition_error(self):
        # under +1 alone, b has no coset
        ms = self.two_z2_on_a_e_b()
        sub = SubsetView(ms, frozenset({0, 1}), ("+1",))
        with pytest.raises(PartitionError, match="^no representative set tiles the carrier union with cosets$"):
            coset_partition(sub)


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


def a3_and_s3():
    """S3's ``*`` bound to two components: ``A`` = A3 = {012, 120, 201} and
    ``S``, all six permutations."""
    u, t = symmetric_table(3)
    return MultiSpace(u, [Component("A", (0, 3, 4), ("*",)), Component("S", tuple(range(6)), ("*",))], [t])


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

    def test_op_bound_to_two_components_conjugates_by_their_union(self):
        ms = a3_and_s3()
        report = is_normal(SubsetView.of_names(ms, ["012", "102"]))
        assert not report.verdict
        assert report.witness == {"op": "*", "g": 1, "h": 2, "conjugate": 5}


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

    def test_op_bound_to_two_components_descends_from_their_union(self):
        result = maximal_normal_series(a3_and_s3(), ["*"])
        assert result.chain_count == 1
        assert result.chains[0].levels == (frozenset(range(6)), frozenset({0, 3, 4}), frozenset({0}))

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
        assert result.length == oracles.omega(12) + oracles.omega(4)

    def test_orientation_order_changes_chains_not_length(self):
        _, z4 = cyclic_group_table(4)
        _, z6 = cyclic_group_table(6)
        ms = shared_identity_union([z4, z6])
        a = maximal_normal_series(ms, ["+1", "+2"])
        b = maximal_normal_series(ms, ["+2", "+1"])
        assert a.length == b.length == oracles.omega(4) + oracles.omega(6)

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


# the abelian groups of order 1 to 16, S3, D4, Q8 and S4
SERIES_CORPUS = [
    *((name, t) for n in range(1, 17) for name, _, t in abelian_groups_of_order(n)),
    *((name, t) for name, _, t in all_groups_up_to_8() if name in ("S3", "D4", "Q8")),
    ("S4", symmetric_table(4)[1]),
]


def per_part(table, part, mul=None):
    """The per-part route: the oracle's maximal normal subgroups of ``part``,
    or its maximal ideals when ``mul`` is given."""
    return oracles.maximal_ideals(table, mul, part) if mul else oracles.maximal_normal_subgroups(table, part)


def on_sets(maximal):
    """A step's ``maximal``, which takes and gives bitmasks, on frozensets."""
    return lambda part: [as_set(n) for n in maximal(as_mask(part))]


def per_part_steps(steps, muls, answers=None):
    """``steps`` with ``maximal`` replaced by the per-part route, on the
    engine's bitmask parts; each answer is also kept in ``answers`` under
    (table name, part)."""
    answers = {} if answers is None else answers

    def route(table, mul):
        def maximal(part):
            answers[table.name, part] = [as_mask(s) for s in per_part(table, as_set(part), mul)]
            return answers[table.name, part]

        return maximal

    return [(label, carrier, table, route(table, mul)) for (label, carrier, table, _), mul in zip(steps, muls)]


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
    log, answers = [], {}
    reference = _run_series(ms, per_part_steps(steps, muls, answers), kind)
    assert _run_series(ms, recorded(steps, muls, log), kind) == reference
    assert log or len(ms.element_union()) == 1
    for table, mul, part, got in log:
        want = answers.get((table.name, part))
        assert got == (want if want is not None else [as_mask(s) for s in per_part(table, as_set(part), mul)])
    return reference


def normal_series_routes(ms, orientation):
    return _normal_steps(ms, orientation), [None] * len(orientation)


def ideal_chain_routes(ms, names):
    return _ideal_steps(ms, names), [ms.op(ms.component(n).mul_name) for n in names]


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
                _, _, lengths, count = _series_profile(ms, per_part_steps(steps, muls))
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
            _run_series(ms, per_part_steps(steps, muls), NORMAL_SERIES)
        assert str(new.value) == str(old.value)
        with pytest.raises(ContractError, match="no identity"):
            maximal_normal_series(ms, ["*"])

    def test_step_reads_later_parts_off_its_first_lattice(self):
        _, z6 = cyclic_group_table(6)
        maximal = on_sets(_series_step("+", frozenset(range(6)), z6, partial(_normal_in, z6))[3])
        whole = frozenset(range(6))
        assert maximal(whole) == per_part(z6, whole) == [frozenset({0, 3}), frozenset({0, 2, 4})]
        for part in map(frozenset, ({0, 2, 4}, {0, 3}, {0})):
            assert maximal(part) == per_part(z6, part)
        # a first part with no unit raises as the per-part route does
        maximal = on_sets(_series_step("+", frozenset(range(6)), z6, partial(_normal_in, z6))[3])
        for route in (maximal, maximal, lambda part: per_part(z6, part)):
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
            assert maximal(part) == per_part(add, part, mul)

    def test_no_ideals_where_mul_is_partly_undefined(self):
        from multispace.multiring import ideals_of, maximal_ideals

        u, add, mul = zn_ring_tables(6)
        # mul on {0, 1, 2} only, products of 3 or more undefined
        rows = [[v if v < 3 else None for v in mul.grid[x][:3]] for x in range(3)]
        half = OpTable("*", u, (0, 1, 2), rows)
        whole = frozenset(range(6))
        assert ideals_of(add, half, whole) == [] == maximal_ideals(add, half, whole)
        assert per_part(add, whole, half) == []
        assert ideals_of(add, mul, whole) == [frozenset({0})] + [frozenset(range(0, 6, d)) for d in (3, 2, 1)]

    def test_subgroups_of_partial_tables(self):
        # planted identities on 4 to 6 elements, and random tables on 1 to 7
        rng = random.Random(1612)
        tables = [planted_identity_table(rng, rng.randint(4, 6), rng.choice([0.5, 0.8, 1.0])) for _ in range(2000)]
        tables += [oracles.random_table(rng, oracles.universe_of(rng.randint(1, 7))) for _ in range(400)]
        checked = 0
        for table in tables:
            carrier = frozenset(table.domain)
            if oracles.identity(table, carrier) is not None:
                assert subgroups_of(table, carrier) == oracles.subgroups(table, carrier)
                checked += 1
        assert checked >= 2020

    def test_subgroups_of_matches_the_unpruned_lattice_on_the_series_corpus(self):
        counts = {}
        for name, table in SERIES_CORPUS:
            carrier = frozenset(table.domain)
            subs = subgroups_of(table, carrier)
            assert subs == oracles.subgroups(table, carrier), name
            counts[name] = len(subs)
        pinned = {"Z2xZ2xZ2xZ2": 67, "Z2xZ2xZ4": 27, "Z4xZ4": 15, "S4": 30, "D4": 10, "Q8": 6}
        assert {name: counts[name] for name in pinned} == pinned

    def test_ideals_of_matches_the_unpruned_lattice_on_zn(self):
        from multispace.multiring import ideals_of

        for n in range(1, 13):
            _, add, mul = zn_ring_tables(n)
            whole = frozenset(range(n))
            assert subgroups_of(add, whole) == oracles.subgroups(add, whole), n
            assert ideals_of(add, mul, whole) == oracles.ideals(add, mul, whole), n

    def test_generator_normality_matches_the_conjugation_scan(self):
        # every (member, part) pair with the member inside the part, on the
        # lattices of the series corpus: the test on gens(part) x gens(N)
        # against the exhaustive scan over part x N
        verdicts = {True: 0, False: 0}
        for name, table in SERIES_CORPUS:
            whole = frozenset(table.domain)
            lattice, inverse = _lattice(table, whole)
            assert inverse is not None and [as_set(m) for m in lattice] == oracles.subgroups(table, whole), name
            e = oracles.identity(table, whole)
            for member, gens in lattice.items():
                # the generators of a member generate it
                assert oracles.closure(table, frozenset(gens) | {e}) == as_set(member), name
            for part, gens in lattice.items():
                P = as_set(part)
                test, normal = _normal_in(table, part, gens, inverse), oracles.normality(table, P)
                for member, sub_gens in lattice.items():
                    N = as_set(member)
                    if N <= P:
                        scan = normal(N)
                        assert test(member, sub_gens) == scan, (name, sorted(P), sorted(N))
                        verdicts[scan] += 1
        assert verdicts == {True: 1198, False: 64}

    def test_descending_scan_matches_the_filter_on_group_lattices(self):
        # every member as the part, under seeded predicates and normality
        rng = random.Random(20)
        normal_tops = 0
        for _, table in SERIES_CORPUS:
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

    def test_join_from_the_new_element_only(self):
        rng = random.Random(7)
        for _ in range(500):
            table = oracles.random_table(rng, oracles.universe_of(rng.randint(1, 8)))
            domain = list(table.domain)
            current = oracles.closure(table, rng.sample(domain, rng.randint(0, len(domain))))
            for x in domain:
                if x not in current:
                    assert _close(table.grid, {*current, x}, [x]) == oracles.closure(table, {x}, current)



class TestLatticeOrderAwayFromZero:
    """Components whose carriers do not start at index 0, so the carrier's
    bit width exceeds its size: lattice order against the oracle's sort of
    element lists."""

    def test_second_component_of_a_shared_identity_union(self):
        # Z2xZ2xZ2 on {0, 4, ..., 10}: 7 subgroups of order 2 and 7 of order 4
        tables = [direct_product_table([2, 2])[1], direct_product_table([2, 2, 2])[1]]
        ms = shared_identity_union(tables)
        comp = ms.components[1]
        carrier, table = frozenset(comp.carrier), ms.op(comp.op_names[0])
        assert sorted(carrier) == [0, *range(4, 11)]
        subs = subgroups_of(table, carrier)
        assert subs == oracles.subgroups(table, carrier) and len(subs) == 16
        assert maximal_normal_subgroups(table, carrier) == oracles.maximal_normal_subgroups(table, carrier)

    def test_later_component_of_a_disjoint_cyclic_union(self):
        ms = disjoint_cyclic_union([3, 4, 12])
        comp = ms.components[2]
        carrier, table = frozenset(comp.carrier), ms.op(comp.op_names[0])
        assert sorted(carrier) == list(range(7, 19))
        assert subgroups_of(table, carrier) == oracles.subgroups(table, carrier)
        assert maximal_normal_subgroups(table, carrier) == oracles.maximal_normal_subgroups(table, carrier)


class TestLargeLattices:
    """Lattices past ``SERIES_UNION_BOUND``; the tests that run the engine
    lift it."""

    @pytest.mark.parametrize("p, k, flags", [(2, 5, 9765), (2, 6, 615195), (3, 3, 52)])
    def test_profile_counts_the_complete_flags(self, monkeypatch, p, k, flags):
        # the subgroups of GF(p)^k are its subspaces and all are normal, so
        # a maximal normal series is a complete flag: (p^k - 1)/(p - 1)
        # choices of a hyperplane, then of one inside it, and so on
        assert flags == math.prod((p**i - 1) // (p - 1) for i in range(1, k + 1))
        monkeypatch.setattr(multigroup, "SERIES_UNION_BOUND", p**k)
        table = direct_product_table([p] * k)[1]
        assert series_length_profile(single_component_space(table), [table.name]) == ((k,), flags)

    def test_z2_to_the_sixth_budget(self, monkeypatch):
        # 2,825 subgroups and 615,195 chains
        monkeypatch.setattr(multigroup, "SERIES_UNION_BOUND", 64)
        table = direct_product_table([2] * 6)[1]
        ms, times = single_component_space(table), []
        for _ in range(2):
            started = time.perf_counter()
            series_length_profile(ms, [table.name])
            times.append(time.perf_counter() - started)
        assert min(times) < 0.6, f"the Z2^6 series profile took {min(times):.2f}s, budget 0.6s"

    def test_step_scans_match_the_filter_on_z2_to_the_fifth(self):
        table = direct_product_table([2] * 5)[1]
        reached = assert_step_matches_filter(table, frozenset(table.domain), partial(_normal_in, table))
        assert len(reached) == 374

def test_composition_lengths_match_sympy():
    combinatorics = pytest.importorskip("sympy.combinatorics")
    corpus = [(name, table) for name, _, table in all_groups_up_to_8()] + [("S4", symmetric_table(4)[1])]
    for name, table in SERIES_CORPUS:
        domain = list(table.domain)
        position = {x: i for i, x in enumerate(domain)}
        # left-regular representation: g acts by x -> g x
        perms = [combinatorics.Permutation([position[table.grid[g][x]] for x in domain]) for g in domain]
        group = combinatorics.PermutationGroup(perms)
        assert group.order() == len(domain), name
        assert composition_series(table).length == len(group.composition_series()) - 1, name
