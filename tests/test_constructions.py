import random

import pytest

from multispace.constructions import (
    LATIN_ENUMERATION_BOUND,
    LatinSquare,
    abelian_groups_of_order,
    all_groups_up_to_8,
    cyclic_group_table,
    direct_product_table,
    dihedral_table,
    disjoint_cyclic_union,
    enumerate_latin_squares,
    fan_extension,
    gen_latin_squares,
    latin_lower_bound,
    latin_multispace,
    partition_cyclic,
    quaternion_table,
    shared_identity_union,
    shared_zero_ring_union,
    symmetric_table,
    zn_ring_tables,
    zn_ring_space,
)
from multispace.core import UNDEFINED, OpTable, classify_table, is_faithful
from multispace.errors import (
    CapacityError,
    ContractError,
    InputError,
    PartitionError,
    ShapeError,
    SizeLimitError,
    UnknownNameError,
)
from multispace.foundations import FiniteUniverse

import oracles


class TestLatinSquares:
    @pytest.mark.parametrize(
        "grid, message",
        [
            (((0, 1),), "grid is not 2x2"),
            (((0, 1), (1,)), "grid is not 2x2"),
            (((0, 0), (1, 1)), "row 0 is not a permutation of 0..1"),
            (((0, 1), (0, 1)), "column 0 is not a permutation of 0..1"),
        ],
    )
    def test_validator_rejects_bad_grids(self, grid, message):
        with pytest.raises(ShapeError) as info:
            LatinSquare(2, grid)
        assert str(info.value) == message

    def test_enumeration_counts(self):
        assert len(enumerate_latin_squares(1)) == 1
        assert len(enumerate_latin_squares(2)) == 2
        assert len(enumerate_latin_squares(3)) == 12

    def test_enumeration_bounded(self):
        assert LATIN_ENUMERATION_BOUND == 4
        assert len(enumerate_latin_squares(LATIN_ENUMERATION_BOUND)) == 576
        with pytest.raises(SizeLimitError, match=r"n = 5 exceeds LATIN_ENUMERATION_BOUND = 4"):
            enumerate_latin_squares(5)

    def test_lower_bound_met(self):
        for n in (2, 3, 4):
            count = len(enumerate_latin_squares(n))
            assert count >= latin_lower_bound(n)
        assert len(enumerate_latin_squares(3)) == latin_lower_bound(3)

    def test_paper_squares_enumerated(self):
        squares = enumerate_latin_squares(3)
        assert LatinSquare(3, ((0, 1, 2), (1, 2, 0), (2, 0, 1))) in squares
        assert LatinSquare(3, ((0, 1, 2), (2, 0, 1), (1, 2, 0))) in squares

    def test_generation_deterministic(self):
        a = gen_latin_squares(3, 4, seed=7)
        b = gen_latin_squares(3, 4, seed=7)
        assert a == b
        assert len(set(sq.grid for sq in a)) == 4

    def test_generation_capacity(self):
        with pytest.raises(CapacityError, match=r"^only 12 Latin squares of side 3 exist; 13 requested$"):
            gen_latin_squares(3, 13, seed=0)

    def test_argument_errors(self):
        with pytest.raises(ContractError, match=r"^side must be >= 1$"):
            enumerate_latin_squares(0)
        with pytest.raises(ContractError, match=r"^must request at least one square$"):
            gen_latin_squares(3, 0, seed=1)

    def test_enumeration_and_sampling_match_oracle(self):
        for n in (1, 2, 3, 4):
            reference = [LatinSquare(n, grid) for grid in oracles.latin_squares(n)]
            squares = enumerate_latin_squares(n)
            assert squares == reference and all(type(sq) is LatinSquare for sq in squares)
            if n == 1:
                continue
            for k in sorted({1, 2, len(reference)}):
                for seed in range(50):
                    assert gen_latin_squares(n, k, seed) == random.Random(seed).sample(reference, k), (n, k, seed)

    def test_generation_beyond_enumeration(self):
        squares = gen_latin_squares(5, 3, seed=11)
        assert len(set(sq.grid for sq in squares)) == 3
        assert gen_latin_squares(5, 3, seed=11) == squares

    def test_seeded_squares_pinned(self):
        assert [sq.grid for sq in gen_latin_squares(5, 3, seed=11)] == [
            ((2, 4, 1, 3, 0), (1, 3, 4, 0, 2), (4, 1, 0, 2, 3), (3, 0, 2, 4, 1), (0, 2, 3, 1, 4)),
            ((1, 3, 4, 0, 2), (3, 0, 1, 2, 4), (0, 4, 2, 3, 1), (4, 2, 3, 1, 0), (2, 1, 0, 4, 3)),
            ((1, 0, 2, 3, 4), (3, 4, 0, 1, 2), (4, 2, 3, 0, 1), (0, 1, 4, 2, 3), (2, 3, 1, 4, 0)),
        ]

    def test_enumeration_order_pinned(self):
        squares = enumerate_latin_squares(4)
        assert len(squares) == 576
        assert squares[0].grid == ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))
        assert squares[-1].grid == ((3, 2, 1, 0), (2, 3, 0, 1), (1, 0, 3, 2), (0, 1, 2, 3))
        assert squares == sorted(squares, key=lambda sq: sq.grid)


class TestLatinMultispace:
    def test_completed_with_total_ops(self):
        ms = latin_multispace(["1", "2", "3"], gen_latin_squares(3, 2, seed=1))
        assert ms.is_completed()
        assert len(ms.ops) == 2
        for op in ms.ops:
            assert op.is_total_on_domain()

    def test_faithful_both_sides(self):
        ms = latin_multispace(["a", "b", "c", "d"], gen_latin_squares(4, 3, seed=2))
        for op in ms.ops:
            assert is_faithful(op, "left")[0] and is_faithful(op, "right")[0]

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            latin_multispace(["a", "b"], gen_latin_squares(3, 1, seed=0))


class TestCyclicUnions:
    def test_two_z3(self):
        ms = disjoint_cyclic_union([3, 3])
        assert len(ms.universe) == 6
        assert len(ms.ops) == 2
        for comp in ms.components:
            table = ms.op(comp.op_names[0])
            assert classify_table(table).label == "abelian_group"
        assert not ms.is_completed()

    def test_single_trivial_group(self):
        ms = disjoint_cyclic_union([1])
        assert ms.is_completed()

    def test_cross_products_undefined(self):
        ms = disjoint_cyclic_union([2, 3, 4])
        x = ms.components[0].carrier[0]
        y = ms.components[2].carrier[1]
        assert all(t.apply(x, y) is UNDEFINED for t in ms.ops)

    def test_shared_identity_overlap(self):
        _, z4 = cyclic_group_table(4)
        _, z6 = cyclic_group_table(6)
        ms = shared_identity_union([z4, z6])
        c1, c2 = ms.components
        assert set(c1.carrier) & set(c2.carrier) == {0}
        assert len(ms.universe) == 9
        for comp in ms.components:
            assert classify_table(ms.op(comp.op_names[0])).label == "abelian_group"

    def test_shared_identity_needs_a_unit(self):
        u = FiniteUniverse.of(["a", "b"])
        t = OpTable.from_function("f", u, range(2), lambda x, y: 0)
        with pytest.raises(ContractError, match="^table 'f' has no two-sided unit$"):
            shared_identity_union([cyclic_group_table(2)[1], t])

    def test_base_with_an_undefined_product_is_named(self):
        # used to end in a bare KeyError: (1, 1) while the cells were copied
        t = OpTable("f", FiniteUniverse.of(["e", "a"]), (0, 1), [[0, 1], [1, None]])
        with pytest.raises(ContractError, match="^table 'f': the product of 'a' and 'a' is undefined$"):
            shared_identity_union([t])

    def test_base_with_a_product_outside_its_domain_is_named(self):
        t = OpTable("f", FiniteUniverse.of(["e", "a", "b"]), (0, 1), [[0, 1], [1, 2]])
        with pytest.raises(ContractError, match="^table 'f': the product of 'a' and 'a' is 'b', outside its domain$"):
            shared_identity_union([t])


class TestFanExtensions:
    def test_absorb_three_fans(self):
        _, z2 = cyclic_group_table(2)
        ms = fan_extension(z2, ["h1", "h2", "h3"], policy="absorb")
        assert len(ms.components) == 3
        assert all(len(c.carrier) == 3 for c in ms.components)
        h1, h2 = ms.universe.index("h1"), ms.universe.index("h2")
        assert all(t.apply(h1, h2) is UNDEFINED for t in ms.ops)
        assert not ms.is_completed()

    def test_restriction_matches_base(self):
        _, z4 = cyclic_group_table(4)
        ms = fan_extension(z4, ["h1", "h2"], policy="absorb")
        for t in ms.ops:
            for x in range(4):
                for y in range(4):
                    xi = ms.universe.index(str(x))
                    yi = ms.universe.index(str(y))
                    assert ms.universe.name(t.apply(xi, yi)) == str((x + y) % 4)

    def test_single_fan_absorb_completed(self):
        _, z2 = cyclic_group_table(2)
        ms = fan_extension(z2, ["h"], policy="absorb")
        assert ms.is_completed()

    def test_undefined_fill(self):
        _, z2 = cyclic_group_table(2)
        ms = fan_extension(z2, ["h"], policy="undefined")
        h = ms.universe.index("h")
        assert ms.ops[0].apply(h, h) is UNDEFINED
        assert not ms.is_completed()

    def test_explicit_grid(self):
        _, z2 = cyclic_group_table(2)
        grid = {
            ("h", "h"): "0",
            ("h", "0"): "h", ("0", "h"): "h",
            ("h", "1"): None, ("1", "h"): None,
        }
        ms = fan_extension(z2, ["h"], policy="explicit", explicit=[grid])
        t = ms.ops[0]
        u = ms.universe
        h, zero, one = u.index("h"), u.index("0"), u.index("1")
        assert t.apply(h, h) == zero
        assert t.apply(h, zero) == h
        assert t.apply(one, h) is UNDEFINED

    def test_explicit_grid_must_cover_new_pairs(self):
        _, z2 = cyclic_group_table(2)
        with pytest.raises(InputError):
            fan_extension(z2, ["h"], policy="explicit", explicit=[{("h", "h"): "0"}])

    def test_explicit_policy_needs_a_grid_per_symbol(self):
        _, z2 = cyclic_group_table(2)
        grid = {("h1", y): "0" for y in ("h1", "0", "1")} | {(x, "h1"): "0" for x in ("0", "1")}
        with pytest.raises(InputError, match="^explicit policy needs one grid per new symbol$"):
            fan_extension(z2, ["h1", "h2"], policy="explicit", explicit=[grid])

    def test_symbol_collision(self):
        _, z2 = cyclic_group_table(2)
        with pytest.raises(InputError):
            fan_extension(z2, ["0"])

    def test_non_group_base_rejected(self):
        from multispace.foundations import FiniteUniverse
        from multispace.core import OpTable

        u = FiniteUniverse.of(["a", "b"])
        t = OpTable.from_function("f", u, range(2), lambda x, y: 0)
        with pytest.raises(ContractError):
            fan_extension(t, ["h"])

    def test_ring_fan(self):
        _, add, mul = zn_ring_tables(4)
        ms = fan_extension((add, mul), ["r1", "r2"], policy="absorb")
        assert len(ms.components) == 2
        assert all(c.double for c in ms.components)
        for comp in ms.components:
            plus = ms.op(comp.add_name)
            times = ms.op(comp.mul_name)
            for x in range(4):
                for y in range(4):
                    xi = ms.universe.index(str(x))
                    yi = ms.universe.index(str(y))
                    assert ms.universe.name(plus.apply(xi, yi)) == str((x + y) % 4)
                    assert ms.universe.name(times.apply(xi, yi)) == str((x * y) % 4)

    def test_ring_fan_duplicate_symbols(self):
        _, add, mul = zn_ring_tables(4)
        with pytest.raises(InputError):
            fan_extension((add, mul), ["r", "r"])

    def test_ring_fan_non_group_additive_base(self):
        from multispace.core import OpTable

        u, _, mul = zn_ring_tables(4)
        add = OpTable.from_function("+", u, range(4), lambda x, y: 1)
        with pytest.raises(ContractError):
            fan_extension((add, mul), ["r"])

    def test_ring_fan_with_an_undefined_product_is_named(self):
        u, add, mul = zn_ring_tables(3)
        rows = [list(row) for row in mul.entries]
        rows[1][1] = None
        with pytest.raises(ContractError, match=r"^table '\*': the product of '1' and '1' is undefined$"):
            fan_extension((add, OpTable("*", u, mul.domain, rows)), ["h"])

    def test_ring_fan_mismatched_domains(self):
        _, add, _ = zn_ring_tables(4)
        _, _, mul = zn_ring_tables(3)
        with pytest.raises(ContractError):
            fan_extension((add, mul), ["r"])

    def test_ring_fan_rejects_explicit_policy(self):
        _, add, mul = zn_ring_tables(2)
        grid = {("r", "r"): "0", ("r", "0"): "r", ("0", "r"): "r", ("r", "1"): "r", ("1", "r"): "r"}
        with pytest.raises(InputError, match="ring base"):
            fan_extension((add, mul), ["r"], policy="explicit", explicit=[grid])


class TestPartitionCyclic:
    def test_z6_two_blocks(self):
        _, ambient = cyclic_group_table(6, name="o")
        ms = partition_cyclic(ambient, [["1", "2", "0"], ["3", "4", "5", "0"]], core=["0"])
        assert len(ms.ops) == 3
        assert ms.is_completed()
        for comp in ms.components[:-1]:
            assert classify_table(ms.op(comp.op_names[0])).is_group()

    def test_single_block(self):
        _, ambient = cyclic_group_table(4, name="o")
        ms = partition_cyclic(ambient, [["1", "2", "3", "0"]], core=["0", "1", "2", "3"])
        assert len(ms.ops) == 2
        for comp in ms.components:
            assert classify_table(ms.op(comp.op_names[0])).is_group()

    def test_singleton_blocks_are_trivial_groups(self):
        _, ambient = cyclic_group_table(1, name="o")
        ms = partition_cyclic(ambient, [["0"], ["0"]], core=["0"])
        for comp in ms.components[:-1]:
            assert len(comp.carrier) == 1

    @pytest.mark.parametrize(
        "blocks, core, name",
        [
            ([["1", "2", "0"], ["3", "4", "5", "zz"]], ["0"], "zz"),
            ([[""], [""]], ["0"], ""),
            ([["1", "2", "0"], ["3", "4", "5", "0"]], ["zz"], "zz"),
        ],
    )
    def test_unknown_symbol_is_named(self, blocks, core, name):
        _, ambient = cyclic_group_table(6, name="o")
        with pytest.raises(UnknownNameError) as info:
            partition_cyclic(ambient, blocks, core=core)
        assert str(info.value) == f"unknown symbol {name!r}"

    def test_partial_ambient_rejected(self):
        universe = FiniteUniverse.of(["0", "1"])
        ambient = OpTable("o", universe, (0, 1), ((0, 1), (1, UNDEFINED)))
        with pytest.raises(ContractError) as info:
            partition_cyclic(ambient, [["1", "0"]], core=["0", "1"])
        assert str(info.value) == "the ambient operation must be total"

    @pytest.mark.parametrize(
        "blocks, core, message",
        [
            ([["1", "2", "0"]], ["0"], "blocks must cover the ambient carrier"),
            ([], [], "blocks must cover the ambient carrier"),
            ([["1", "2", "3", "4", "5", "0", "3"]], ["0"], "block 1 lists duplicate elements"),
            ([["1", "2", "0"], ["3", "4", "5", "0", "5"]], ["0"], "block 2 lists duplicate elements"),
        ],
    )
    def test_partition_errors(self, blocks, core, message):
        _, ambient = cyclic_group_table(6, name="o")
        with pytest.raises(PartitionError) as info:
            partition_cyclic(ambient, blocks, core=core)
        assert str(info.value) == message

    def test_intersection_violation(self):
        _, ambient = cyclic_group_table(6, name="o")
        with pytest.raises(PartitionError):
            partition_cyclic(ambient, [["0", "1", "2"], ["2", "3", "4", "5"]], core=["0"])

    def test_generation_recurrence(self):
        # g_j x g_1 = g_{j+1}, wrapping at the end, from the listed order
        _, ambient = cyclic_group_table(4, name="o")
        ms = partition_cyclic(ambient, [["1", "2", "3", "0"]], core=["0", "1", "2", "3"])
        t = ms.op("x1")
        u = ms.universe
        order = ["1", "2", "3", "0"]
        for j in range(len(order)):
            lhs = t.apply(u.index(order[j]), u.index(order[0]))
            assert u.name(lhs) == order[(j + 1) % len(order)]


class TestGroupCorpus:
    def test_fourteen_groups(self):
        corpus = all_groups_up_to_8()
        assert len(corpus) == 14
        assert len({name for name, _, _ in corpus}) == 14

    def test_nonabelian_members(self):
        for name, _, t in all_groups_up_to_8():
            label = classify_table(t).label
            assert label in ("group", "abelian_group")

    @pytest.mark.parametrize(
        "n,count", [(1, 1), (4, 2), (8, 3), (12, 2), (16, 5), (15, 1)]
    )
    def test_abelian_group_counts(self, n, count):
        groups = abelian_groups_of_order(n)
        assert len(groups) == count
        for _, _, t in groups:
            assert classify_table(t).label == "abelian_group"
            assert len(t.domain) == n

    def test_special_tables(self):
        assert classify_table(symmetric_table(3)[1]).label == "group"
        assert classify_table(dihedral_table(4)[1]).label == "group"
        assert classify_table(quaternion_table()[1]).label == "group"
        assert classify_table(direct_product_table([2, 2])[1]).label == "abelian_group"

    def test_ring_space(self):
        ms = zn_ring_space(6)
        assert len(ms.ops) == 2 and ms.components[0].double

    def test_shared_zero_rings(self):
        ms = shared_zero_ring_union([4, 9])
        c1, c2 = ms.components
        assert set(c1.carrier) & set(c2.carrier) == {0}
        assert len(ms.universe) == 12

    @pytest.mark.parametrize("moduli", [[0], [4, -1]])
    def test_shared_zero_rings_reject_nonpositive_moduli(self, moduli):
        with pytest.raises(ContractError, match="^moduli must be >= 1$"):
            shared_zero_ring_union(moduli)
