import itertools
import random

import pytest

from multispace.constructions import (
    all_groups_up_to_8,
    cyclic_group_table,
    direct_product_table,
    disjoint_cyclic_union,
    gen_latin_squares,
    latin_multispace,
    shared_identity_union,
    single_component_space,
    symmetric_table,
    zn_ring_space,
)
from multispace.errors import ContractError
from multispace.multigroup import (
    NORMAL_SERIES,
    SubsetView,
    composition_series,
    coset_of,
    coset_partition,
    is_multigroup,
    is_normal,
    is_submultigroup,
    lagrange_check,
    maximal_normal_series,
    series_length_profile,
    subgroups_of,
)


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
        ms = disjoint_cyclic_union([2, 2])
        with pytest.raises(ContractError):
            maximal_normal_series(ms, ["+1"])
        with pytest.raises(ContractError):
            maximal_normal_series(ms, ["+1", "+1"])

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
