import itertools
import re

import pytest

from multispace import multigroup, multiring
from multispace.constructions import (
    cyclic_group_table,
    disjoint_cyclic_union,
    shared_zero_ring_union,
    single_component_space,
    zn_ring_space,
    zn_ring_tables,
)
from multispace.core import Component, MultiSpace, OpTable
from multispace.errors import ContractError, InternalCheckError, SizeLimitError
from multispace.foundations import FiniteUniverse
from multispace.multigroup import IDEAL_CHAIN, SubsetView
from multispace.multiring import (
    decompose_artin,
    ideals_of,
    idempotents,
    is_artin,
    is_multiideal,
    is_multiring,
    is_submultiring,
    maximal_ideals,
    multiideal_chain,
)

import oracles
from conftest import outcome


def constant_addition_z4():
    """Z4 with x + y = 1: closed and associative, but no additive identity."""
    u, _, mul = zn_ring_tables(4)
    add = OpTable.from_function("+", u, range(4), lambda x, y: 1)
    return MultiSpace(u, [Component("R1", tuple(range(4)), ("+", "*"), double=True)], [add, mul])


class TestIsMultiring:
    def test_z6_ring_not_field(self):
        report = is_multiring(zn_ring_space(6))
        assert report.verdict and not report.multifield
        name, pairs = report.zero_divisors[0]
        assert (2, 3) in pairs  # non-trivial divisors of zero are metadata

    def test_z5_multifield(self):
        report = is_multiring(zn_ring_space(5))
        assert report.verdict and report.multifield

    def test_shared_zero_union_vacuous_cross(self):
        report = is_multiring(shared_zero_ring_union([4, 9]))
        assert report.verdict
        assert report.cross_witness is None
        assert not report.complete

    def test_single_op_components_rejected(self):
        with pytest.raises(ContractError):
            is_multiring(disjoint_cyclic_union([3]))

    def test_broken_distributivity_detected(self):
        labels = ["0", "1"]
        u = FiniteUniverse.of(labels)
        add = OpTable.from_function("+", u, range(2), lambda x, y: (x + y) % 2)
        bad_mul = OpTable.from_function("*", u, range(2), lambda x, y: 1)
        ms = MultiSpace(u, [Component("R1", (0, 1), ("+", "*"), double=True)], [add, bad_mul])
        report = is_multiring(ms)
        assert not report.verdict

    def test_cross_witness_is_the_witness_when_every_component_is_a_ring(self):
        # R1 is Z2 with the zero product, R2 is Z2 relabelled so that 1 is its zero
        u = FiniteUniverse.of(["0", "1"])
        ops = [
            OpTable("+1", u, (0, 1), ((0, 1), (1, 0))),
            OpTable("*1", u, (0, 1), ((0, 0), (0, 0))),
            OpTable("+2", u, (0, 1), ((1, 0), (0, 1))),
            OpTable("*2", u, (0, 1), ((0, 1), (1, 1))),
        ]
        comps = [Component(f"R{i}", (0, 1), (f"+{i}", f"*{i}"), double=True) for i in (1, 2)]
        report = is_multiring(MultiSpace(u, comps, ops))
        assert report.ring_checks == (("R1", None), ("R2", None))
        want = {"kind": "mixed_left_distrib", "pair": ("R1", "R2"), "triple": (0, 0, 0)}
        assert report.witness == report.cross_witness == want

    def test_addition_without_identity_reports_witness(self):
        ms = constant_addition_z4()
        report = is_multiring(ms)
        assert not report.verdict
        assert report.witness == {"component": "R1", "kind": "no_unit"}
        assert not report.multifield
        assert report.zero_divisors == (("R1", ()),)


class TestSubMultiring:
    def test_even_subring_of_z6(self):
        ms = zn_ring_space(6)
        sub = SubsetView(ms, frozenset({0, 2, 4}), ("+", "*"))
        assert is_submultiring(sub).verdict

    def test_zero_one_not_subring(self):
        ms = zn_ring_space(6)
        sub = SubsetView(ms, frozenset({0, 1}), ("+", "*"))
        assert not is_submultiring(sub).verdict

    def test_whole_space(self):
        ms = zn_ring_space(6)
        sub = SubsetView(ms, frozenset(range(6)), ("+", "*"))
        assert is_submultiring(sub).verdict

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_dual_routes_agree_on_all_subsets(self, n):
        ms = zn_ring_space(n)
        elements = list(range(n))
        for r in range(1, n + 1):
            for combo in itertools.combinations(elements, r):
                # either route may reject; InternalCheckError would mean disagreement
                is_submultiring(SubsetView(ms, frozenset(combo), ("+", "*")))

    def test_shared_zero_union_count_matches_product_oracle(self):
        # every additive subgroup of Z_n is an ideal, so the sub-multi-rings of
        # a shared-zero union are the unions of one ideal per component; the
        # closure route meets the undefined cross-component products
        ms = shared_zero_ring_union([4, 6])
        union = list(ms.element_union())
        found = 0
        for r in range(1, len(union) + 1):
            for combo in itertools.combinations(union, r):
                sub = SubsetView(ms, frozenset(combo), tuple(t.name for t in ms.ops))
                found += is_submultiring(sub).verdict
        assert found == len(oracles.zn_ideals(4)) * len(oracles.zn_ideals(6))

    def test_additive_subgroup_not_closed_under_mul(self):
        # GF(4) as bit pairs: + is xor, * is carry-less product mod x^2 + x + 1
        def mul(x, y):
            r = (x if y & 1 else 0) ^ (x << 1 if y & 2 else 0)
            return r ^ 0b111 if r & 4 else r

        u = FiniteUniverse.of(["0", "1", "a", "a+1"])
        add_t = OpTable.from_function("+", u, range(4), lambda x, y: x ^ y)
        mul_t = OpTable.from_function("*", u, range(4), mul)
        ms = MultiSpace(u, [Component("F", (0, 1, 2, 3), ("+", "*"), double=True)], [add_t, mul_t])
        report = is_submultiring(SubsetView(ms, frozenset({0, 2}), ("+", "*")))
        assert not report.verdict
        assert report.witness == {"component": "F", "kind": "mul_closure", "pair": (2, 2)}

    def test_element_outside_the_kept_components_is_uncovered(self):
        ms = shared_zero_ring_union([2, 3])
        report = is_submultiring(SubsetView(ms, frozenset(ms.element_union()), ("+1", "*1")))
        assert not report.verdict and not report.by_closure
        assert report.witness == {"kind": "uncovered_element", "element": 2}


class TestMultiIdeal:
    def test_z6_ideals(self):
        ms = zn_ring_space(6)
        assert is_multiideal(SubsetView(ms, frozenset({0, 3}), ("+", "*"))).verdict
        assert is_multiideal(SubsetView(ms, frozenset({0, 2, 4}), ("+", "*"))).verdict
        assert not is_multiideal(SubsetView(ms, frozenset({0, 1}), ("+", "*"))).verdict

    @pytest.mark.parametrize("n", [4, 6, 8, 9])
    def test_ideal_implies_subring_and_matches_oracle(self, n):
        ms = zn_ring_space(n)
        found = set()
        for r in range(1, n + 1):
            for combo in itertools.combinations(range(n), r):
                sub = SubsetView(ms, frozenset(combo), ("+", "*"))
                if is_multiideal(sub).verdict:
                    assert is_submultiring(sub).verdict
                    found.add(frozenset(combo))
        assert found == oracles.zn_ideals(n)

    def test_shared_zero_union_ideal(self):
        ms = shared_zero_ring_union([4, 6])
        # {0,2} in Z4 union {0,2,4} in Z6, via shared names
        names = ["0", "c1_2", "c2_2", "c2_4"]
        sub = SubsetView.of_names(ms, names)
        assert is_multiideal(sub).verdict

    def test_union_multiideal_count_matches_product_oracle(self):
        # multi-ideals of a shared-zero union are exactly unions of one
        # ideal per component (each contains the shared zero), so their
        # number is the product of the per-component ideal counts
        ms = shared_zero_ring_union([4, 6])
        union = list(ms.element_union())
        found = 0
        for r in range(1, len(union) + 1):
            for combo in itertools.combinations(union, r):
                sub = SubsetView(ms, frozenset(combo), tuple(t.name for t in ms.ops))
                if is_multiideal(sub).verdict:
                    found += 1
        assert found == len(oracles.zn_ideals(4)) * len(oracles.zn_ideals(6))

    def test_element_outside_the_kept_components_is_named(self):
        # {0} is an ideal of R1, and c2_1 (index 4) lies only in R2
        ms = shared_zero_ring_union([4, 6])
        report = is_multiideal(SubsetView(ms, frozenset({0, 4}), ("+1", "*1")))
        assert not report.verdict and not report.by_closure
        assert report.witness == {"kind": "uncovered_element", "element": 4}


class TestIdealMachinery:
    def test_ideals_of_z12(self):
        _, add, mul = zn_ring_tables(12)
        found = set(ideals_of(add, mul, frozenset(range(12))))
        assert found == oracles.zn_ideals(12)

    def test_maximal_ideals_of_z12(self):
        _, add, mul = zn_ring_tables(12)
        maxes = set(maximal_ideals(add, mul, frozenset(range(12))))
        assert maxes == {frozenset(range(0, 12, 2)), frozenset(range(0, 12, 3))}


class TestIdealChains:
    def test_z6_both_chains_length_two(self):
        result = multiideal_chain(zn_ring_space(6), ["R1"])
        assert result.invariant and result.length == 2
        assert result.chain_count == 2
        middles = {chain.levels[1] for chain in result.chains}
        assert middles == {frozenset({0, 3}), frozenset({0, 2, 4})}
        for chain in result.chains:
            assert chain.levels[-1] == frozenset({0})
            assert chain.kind == IDEAL_CHAIN

    def test_z4_chain(self):
        result = multiideal_chain(zn_ring_space(4), ["R1"])
        assert result.length == 2
        assert result.chains[0].levels[1] == frozenset({0, 2})

    def test_z5_field_chain(self):
        result = multiideal_chain(zn_ring_space(5), ["R1"])
        assert result.length == 1 and result.chain_count == 1

    def test_two_component_chain(self):
        ms = shared_zero_ring_union([4, 9])
        result = multiideal_chain(ms, ["R1", "R2"])
        assert result.invariant
        assert result.length == 4  # two maximal-ideal steps in each component
        for chain in result.chains:
            assert chain.levels[-1] == frozenset({0})

    def test_orientation_validated(self):
        with pytest.raises(ContractError):
            multiideal_chain(zn_ring_space(6), ["nope"])

    @pytest.mark.parametrize("n", [6, 8, 12])
    def test_each_level_is_an_ideal_of_the_previous(self, n):
        ms = zn_ring_space(n)
        add, mul = ms.op("+"), ms.op("*")
        result = multiideal_chain(ms, ["R1"])
        for chain in result.chains:
            for prev, nxt in zip(chain.levels, chain.levels[1:]):
                assert nxt < prev
                assert nxt in ideals_of(add, mul, prev)


def shared_zero_moduli(limit):
    """Every multiset of 2 or 3 moduli in 1..13 whose shared-zero union has
    at most ``limit`` elements."""
    for r in (2, 3):
        for moduli in itertools.combinations_with_replacement(range(1, 14), r):
            if 1 + sum(n - 1 for n in moduli) <= limit:
                yield list(moduli)


class TestArtin:
    @pytest.mark.parametrize("n", range(1, 25))
    def test_matches_reference_on_zn(self, n):
        ms = zn_ring_space(n)
        report = is_artin(ms)
        assert (report.per_component, report.longest_chain) == oracles.artin_depths(ms)

    def test_matches_reference_on_shared_zero_unions(self):
        for moduli in shared_zero_moduli(24):
            ms = shared_zero_ring_union(moduli)
            report = is_artin(ms)
            assert (report.per_component, report.longest_chain) == oracles.artin_depths(ms), moduli

    def test_bounded_like_the_series_programming(self):
        with pytest.raises(SizeLimitError, match=r"\|union\| = 25 exceeds SERIES_UNION_BOUND = 24"):
            is_artin(shared_zero_ring_union([13, 13]))

    def test_finite_always_artin(self):
        for n in (4, 6, 12):
            assert is_artin(zn_ring_space(n)).verdict

    def test_z12_longest_chain(self):
        # lattice depth of Z12: Z12 > 2Z12 > {0,4,8} > {0}
        report = is_artin(zn_ring_space(12))
        assert report.longest_chain == 3

    def test_two_component(self):
        report = is_artin(shared_zero_ring_union([4, 9]))
        assert report.verdict and len(report.per_component) == 2


class TestIdempotents:
    def test_z6(self):
        report = idempotents(zn_ring_space(6), "R1")
        assert report.elements == (0, 1, 3, 4)
        assert (3, 4) in report.orthogonal_unit_families
        i3, i4 = report.elements.index(3), report.elements.index(4)
        assert report.product_matrix[i3][i4] == 0

    def test_z4(self):
        report = idempotents(zn_ring_space(4), "R1")
        assert report.elements == (0, 1)

    def test_field_only_trivial(self):
        report = idempotents(zn_ring_space(7), "R1")
        assert report.elements == (0, 1)

    def test_addition_without_identity_rejected(self):
        ms = constant_addition_z4()
        with pytest.raises(ContractError):
            idempotents(ms, "R1")


class TestErrorMessages:
    @pytest.mark.parametrize(
        "call, error, message",
        [
            (lambda: is_submultiring(SubsetView(zn_ring_space(6), frozenset({0}), ("+",))), ContractError,
             "the subset keeps no complete double operation"),
            (lambda: is_submultiring(SubsetView(zn_ring_space(6), frozenset(), ("+", "*"))), ContractError,
             "the empty subset is not a sub-multi-ring candidate"),
            (lambda: is_multiideal(SubsetView(zn_ring_space(6), frozenset(), ("+", "*"))), ContractError,
             "the empty subset is not a multi-ideal candidate"),
            (lambda: idempotents(disjoint_cyclic_union([3]), "C1"), ContractError,
             "component 'C1' is not double-operation"),
        ],
        ids=["addition-only", "empty-subring", "empty-ideal", "idempotents-single"],
    )
    def test_message(self, call, error, message):
        assert outcome(call) == (error, message)


class TestDecomposition:
    def test_z6(self):
        result = decompose_artin(zn_ring_space(6))
        comp = result.components[0]
        assert comp.family == (3, 4)
        assert set(comp.pieces) == {frozenset({0, 3}), frozenset({0, 2, 4})}
        assert comp.intersections_trivial
        assert comp.reconstruction_exact
        assert comp.unique_sums
        assert comp.pieces_are_ideals
        assert comp.two_sided_symmetric

    def test_z12(self):
        comp = decompose_artin(zn_ring_space(12)).components[0]
        assert comp.family == (4, 9)
        assert set(comp.pieces) == {frozenset({0, 4, 8}), frozenset({0, 3, 6, 9})}
        assert comp.reconstruction_exact and comp.unique_sums

    def test_z4_trivial_decomposition(self):
        comp = decompose_artin(zn_ring_space(4)).components[0]
        assert comp.family == (1,)
        assert comp.pieces == (frozenset({0, 1, 2, 3}),)

    def test_unitless_component_rejected(self):
        # {0,2} mod 4: multiplication is identically zero, so no unit
        labels = ["0", "2"]
        u = FiniteUniverse.of(labels)
        add = OpTable.from_function("+", u, range(2), lambda x, y: (x + y) % 2)
        mul = OpTable.from_function("*", u, range(2), lambda x, y: 0)
        ms = MultiSpace(u, [Component("R1", (0, 1), ("+", "*"), double=True)], [add, mul])
        assert is_multiring(ms).verdict
        with pytest.raises(ContractError):
            decompose_artin(ms)

    def test_two_component_decomposition(self):
        result = decompose_artin(shared_zero_ring_union([6, 4]))
        assert result.all_valid
        z6_piece_sets = set(result.components[0].pieces)
        assert len(z6_piece_sets) == 2


def test_dual_route_disagreement_messages(monkeypatch):
    # force one route of each dual-route test to fail on a true
    # sub-structure; the first call caches the parent's prerequisite verdict
    group_view = SubsetView(single_component_space(cyclic_group_table(4)[1]), frozenset({0, 2}), ("+",))
    ring_view = SubsetView(zn_ring_space(4), frozenset({0, 2}), ("+", "*"))
    assert multigroup.is_submultigroup(group_view).verdict
    assert is_submultiring(ring_view).verdict and is_multiideal(ring_view).verdict
    monkeypatch.setattr(multigroup, "is_group_on", lambda t, s: (False, {"kind": "forced"}))
    monkeypatch.setattr(multiring, "_subring_witness", lambda add, mul, s: {"kind": "forced"})
    monkeypatch.setattr(  # only the componentwise route passes an ``allowed`` without None
        multiring, "_absorption_escape", lambda M, rs, els, allowed: None if None in allowed else (0, 0)
    )
    for check, message in (
        (lambda: multigroup.is_submultigroup(group_view),
         "sub-multi-group criteria disagree: componentwise=False "
         "({'component': 'G', 'op': '+', 'kind': 'forced'}), closure=True (None)"),
        (lambda: is_submultiring(ring_view),
         "sub-multi-ring criteria disagree: componentwise=False "
         "({'component': 'R1', 'kind': 'forced'}), closure=True (None)"),
        (lambda: is_multiideal(ring_view),
         "multi-ideal criteria disagree: componentwise=False "
         "({'component': 'R1', 'kind': 'absorption', 'pair': (0, 0)}), direct=True (None)"),
    ):
        with pytest.raises(InternalCheckError, match=f"^{re.escape(message)}$"):
            check()
    # normality runs the sub-multi-group test first, so it gets its own patch
    monkeypatch.undo()
    assert multigroup.is_normal(group_view).verdict
    monkeypatch.setattr(multigroup, "is_normal_subgroup", lambda t, carrier, s: False)
    message = "normality criteria disagree: componentwise=False (None), direct=True (None)"
    with pytest.raises(InternalCheckError, match=f"^{re.escape(message)}$"):
        multigroup.is_normal(group_view)
