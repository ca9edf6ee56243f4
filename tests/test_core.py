import itertools
import random
import time

import pytest

from multispace import core
from multispace.constructions import (
    ABSORB,
    UNDEFINED_FILL,
    all_groups_up_to_8,
    cyclic_group_table,
    dihedral_table,
    direct_product_table,
    disjoint_cyclic_union,
    fan_extension,
    gen_latin_squares,
    latin_multispace,
    shared_identity_union,
    single_component_space,
    zn_ring_tables,
)
from multispace.core import (
    Component,
    Equation,
    ExprChain,
    HOLE,
    MultiSpace,
    OpTable,
    UNDEFINED,
    automorphisms,
    classify_table,
    eval_chain,
    find_inverses,
    find_units,
    is_faithful,
    solve_equation,
    solve_system,
)
from multispace.errors import ContractError, SizeLimitError, UnknownOperationError
from multispace.foundations import FiniteUniverse

import oracles
from conftest import chain_of


def table_on(labels, fn, name="*"):
    u = FiniteUniverse.of(labels)
    return OpTable.from_function(name, u, range(len(labels)), fn)


class TestOpTable:
    def test_rejects_bad_domain(self):
        u = FiniteUniverse.of(["a", "b"])
        with pytest.raises(ContractError):
            OpTable("f", u, [1, 0], [[0, 0], [0, 0]])

    def test_rejects_bad_shape(self):
        u = FiniteUniverse.of(["a", "b"])
        with pytest.raises(ContractError):
            OpTable("f", u, [0, 1], [[0, 0]])

    def test_rejects_out_of_universe_entry(self):
        u = FiniteUniverse.of(["a", "b"])
        with pytest.raises(ContractError):
            OpTable("f", u, [0, 1], [[0, 5], [0, 0]])

    def test_rejects_non_int_entry(self):
        # a float entry used to pass and classify as an abelian group
        u = FiniteUniverse.of(["a", "b"])
        with pytest.raises(ContractError):
            OpTable("x", u, [0, 1], [[0, 1.0], [1.0, 0]])
        with pytest.raises(ContractError):
            OpTable("x", u, [0, 1], [[0, True], [True, 0]])

    def test_rejects_non_int_domain_index(self):
        u = FiniteUniverse.of(["a", "b"])
        with pytest.raises(ContractError):
            OpTable("x", u, [0, 1.0], [[0, 1], [1, 0]])
        with pytest.raises(ContractError):
            OpTable("x", u, [False, 1], [[0, 1], [1, 0]])

    def test_space_rejects_table_over_another_universe(self):
        u, v = FiniteUniverse.of(["a", "b"]), FiniteUniverse.of(["a", "b", "c"])
        t = OpTable("f", v, [0, 1], [[0, 1], [1, 0]])
        with pytest.raises(ContractError):
            MultiSpace(u, [Component("C", (0, 1), ("f",))], [t])

    def test_apply_outside_domain_is_undefined(self):
        u = FiniteUniverse.of(["a", "b", "c"])
        t = OpTable("f", u, [0, 1], [[0, 1], [1, 0]])
        assert t.apply(0, 2) is UNDEFINED
        assert t.apply(0, 1) == 1


class TestEvalChain:
    def test_paper_chain_one(self, paper_latin_space):
        ms = paper_latin_space
        out = eval_chain(ms, chain_of(ms, ["1", "2", "3"], ["x1", "x2"]))
        assert ms.universe.name(out) == "2"

    def test_paper_chain_two_as_displayed_arithmetic(self, paper_latin_space):
        # the displayed computation folds to 1 x2 3 = 3
        ms = paper_latin_space
        out = eval_chain(ms, chain_of(ms, ["2", "3", "3"], ["x1", "x2"]))
        assert ms.universe.name(out) == "3"
        step = eval_chain(ms, chain_of(ms, ["1", "3"], ["x2"]))
        assert ms.universe.name(step) == "3"

    def test_cross_component_is_undefined(self):
        ms = disjoint_cyclic_union([2, 3])
        a = ms.components[0].carrier[0]
        b = ms.components[1].carrier[0]
        for op in ("+1", "+2"):
            assert eval_chain(ms, ExprChain((a, b), (op,))) is UNDEFINED

    def test_single_operand_chain(self, paper_latin_space):
        ms = paper_latin_space
        assert eval_chain(ms, ExprChain((2,), ())) == 2

    def test_unknown_operation_is_an_error_not_undefined(self, paper_latin_space):
        ms = paper_latin_space
        with pytest.raises(UnknownOperationError):
            eval_chain(ms, chain_of(ms, ["1", "2"], ["nope"]))

    def test_undefined_propagates(self):
        ms = disjoint_cyclic_union([2, 2])
        a = ms.components[0].carrier[1]
        b = ms.components[1].carrier[1]
        chain = ExprChain((a, b, a), ("+1", "+1"))
        assert eval_chain(ms, chain) is UNDEFINED


class TestUnitsAndInverses:
    def test_z3_addition_unit(self):
        _, t = cyclic_group_table(3)
        report = find_units(t)
        assert report.left_units == report.right_units == (0,)
        assert report.unit == 0

    def test_left_projection_units(self):
        t = table_on(["a", "b"], lambda x, y: y)
        report = find_units(t)
        assert report.left_units == (0, 1)
        assert report.right_units == ()
        assert report.unit is None
        ok, witness = is_faithful(t, "left")
        assert not ok and witness == (0, 1)

    def test_z4_multiplication_unit(self):
        _, _, mul = zn_ring_tables(4)
        assert find_units(mul).unit == 1

    def test_z4_addition_inverse(self):
        _, t = cyclic_group_table(4)
        inv = find_inverses(t, 0)
        assert inv[1].inverse == 3
        assert inv[0].inverse == 0

    def test_z6_multiplication_two_has_no_inverse(self):
        _, _, mul = zn_ring_tables(6)
        inv = find_inverses(mul, 1)
        assert inv[2].left == () and inv[2].right == ()
        assert inv[2].inverse is None

    def test_wrong_unit_is_contract_error(self):
        _, t = cyclic_group_table(4)
        with pytest.raises(ContractError, match="^'2' is not"):
            find_inverses(t, 2)
        # outside the domain: named by repr, never wrapped round or indexed
        for bad in (99, None, -1):
            with pytest.raises(ContractError, match=f"^{bad} is not a two-sided unit"):
                find_inverses(t, bad)
        with pytest.raises(ContractError, match="^None is not"):
            find_inverses(table_on(["a", "b"], lambda x, y: y), None)

    def test_left_right_units_coincide_across_corpus(self):
        tables = [t for _, _, t in all_groups_up_to_8()]
        _, add, mul = zn_ring_tables(6)
        tables += [add, mul, table_on(["a", "b"], lambda x, y: y)]
        for t in tables:
            report = find_units(t)
            if report.left_units and report.right_units:
                assert set(report.left_units) == set(report.right_units)
                assert len(report.left_units) == 1


class TestFaithfulness:
    def test_groups_faithful_both_sides(self):
        for _, _, t in all_groups_up_to_8():
            assert is_faithful(t, "left")[0]
            assert is_faithful(t, "right")[0]

    def test_constant_table_witness(self):
        t = table_on(["a", "b"], lambda x, y: 0)
        ok, witness = is_faithful(t, "left")
        assert not ok and witness == (0, 1)

    def test_latin_table_faithful(self, paper_latin_space):
        for op in paper_latin_space.ops:
            assert is_faithful(op, "left")[0]
            assert is_faithful(op, "right")[0]

    def test_side_validation(self):
        _, t = cyclic_group_table(2)
        with pytest.raises(ContractError):
            is_faithful(t, "up")


class TestSolving:
    def test_z4_translation(self):
        _, t = cyclic_group_table(4)
        ms = single_component_space(t)
        assert solve_equation(ms, 1, 3) == (("+", 2),)

    def test_disjoint_components_no_solution(self):
        ms = disjoint_cyclic_union([2, 2])
        a = ms.components[0].carrier[1]
        b = ms.components[1].carrier[1]
        assert solve_equation(ms, a, b) == ()

    def test_latin_two_solutions(self, paper_latin_space):
        ms = paper_latin_space
        a, b = ms.universe.index("1"), ms.universe.index("3")
        sols = solve_equation(ms, a, b)
        assert len(sols) == 2
        assert {op for op, _ in sols} == {"x1", "x2"}

    def test_single_equation_z5(self):
        _, t = cyclic_group_table(5)
        ms = single_component_space(t)
        eq = Equation((HOLE, 2), ("+",), 3)
        assert solve_system(ms, [eq]) == (1,)

    def test_disjoint_solution_sets(self):
        _, t = cyclic_group_table(5)
        ms = single_component_space(t)
        eqs = [Equation((HOLE, 2), ("+",), 3), Equation((HOLE, 2), ("+",), 4)]
        assert solve_system(ms, eqs) == ()

    @staticmethod
    def shifted_z20(shifts):
        """One carrier, several shifted additions x +_i y = x + y + s_i."""
        u = FiniteUniverse.of([str(i) for i in range(20)])
        ops = []
        comps = []
        from multispace.core import Component

        for i, s in enumerate(shifts):
            t = OpTable.from_function(
                f"+{i + 1}", u, range(20), lambda x, y, s=s: (x + y + s) % 20
            )
            ops.append(t)
            comps.append(Component(f"C{i + 1}", tuple(range(20)), (t.name,)))
        return MultiSpace(u, comps, ops)

    def test_group_tables_have_unique_translation_solutions(self):
        # with a two-sided unit and faithful left action, a op x = b has
        # exactly one solution per operation
        for name, _, t in all_groups_up_to_8():
            assert is_faithful(t, "left")[0]
            ms = single_component_space(t)
            for a in t.domain:
                for b in t.domain:
                    sols = solve_equation(ms, a, b)
                    assert len(sols) == 1, name

    def test_solution_count_bounded_by_operation_count(self, paper_latin_space):
        ms = paper_latin_space
        for a in ms.element_union():
            for b in ms.element_union():
                per_op = {}
                for op, x in solve_equation(ms, a, b):
                    per_op.setdefault(op, []).append(x)
                assert all(len(xs) <= 1 for xs in per_op.values())
                assert len(per_op) <= len(ms.ops)

    def test_three_equation_pattern(self):
        # x +_i a +_i b +_i c = r_i; solvable iff the three reductions coincide
        data = [((2, 4, 6), 15), ((1, 3, 6), 12), ((1, 4, 7), 13)]

        def build(shifts):
            ms = self.shifted_z20(shifts)
            eqs = [
                Equation((HOLE, a, b, c), (f"+{i + 1}",) * 3, r)
                for i, ((a, b, c), r) in enumerate(data)
            ]
            return ms, eqs

        # with plain additions the per-equation reductions differ: no solution
        ms, eqs = build([0, 0, 0])
        per_eq = [solve_system(ms, [eq]) for eq in eqs]
        assert len({sols for sols in per_eq}) == 3
        assert solve_system(ms, eqs) == ()

        # shifts chosen so all three reductions coincide at x = 3
        ms, eqs = build([0, 13, 6])
        per_eq = [solve_system(ms, [eq]) for eq in eqs]
        assert per_eq == [(3,), (3,), (3,)]
        assert solve_system(ms, eqs) == (3,)


class TestClassify:
    def test_z4_addition(self):
        _, t = cyclic_group_table(4)
        assert classify_table(t).label == "abelian_group"

    def test_paper_table_two_is_magma(self, paper_latin_space):
        c = classify_table(paper_latin_space.op("x2"))
        assert c.label == "magma"
        assert c.witness["kind"] == "associativity"
        x, y, z = c.witness["triple"]
        t = paper_latin_space.op("x2")
        assert t.apply(t.apply(x, y), z) != t.apply(x, t.apply(y, z))

    def test_right_projection_is_semigroup(self):
        t = table_on(["a", "b", "c"], lambda x, y: x)
        c = classify_table(t)
        assert c.label == "semigroup"

    def test_partial_table_rejected(self):
        u = FiniteUniverse.of(["a", "b"])
        t = OpTable("f", u, [0, 1], [[0, None], [1, 0]])
        with pytest.raises(ContractError):
            classify_table(t)

    def test_corpus_groups_classify_as_groups(self):
        for name, _, t in all_groups_up_to_8():
            label = classify_table(t).label
            assert label in ("group", "abelian_group"), name
            if name in ("S3", "D4", "Q8"):
                assert label == "group"
            else:
                assert label == "abelian_group"


def automorphism_sweep():
    """Disjoint cyclic unions, the groups of order <= 6, shared-identity
    pairs, group and ring fans, Latin spaces and perturbed group tables, each
    on at most 6 elements, so that the naive oracle can try every bijection."""
    for orders in ([3], [2, 3], [1, 2, 2], [2, 2], [3, 3], [2, 2, 2]):
        yield "disjoint-" + "+".join(map(str, orders)), disjoint_cyclic_union(orders)
    groups = [(name, t) for name, _, t in all_groups_up_to_8() if len(t.domain) <= 6]
    yield from ((name, single_component_space(t)) for name, t in groups)
    for a, b in itertools.combinations_with_replacement(range(1, 6), 2):
        if a + b <= 7:
            tables = [cyclic_group_table(a)[1], cyclic_group_table(b)[1]]
            yield f"shared-Z{a}+Z{b}", shared_identity_union(tables)
    for name, t in groups:
        for fresh in (["h"], ["h1", "h2"]):
            for policy in (ABSORB, UNDEFINED_FILL):
                if len(t.domain) + len(fresh) <= 6:
                    yield f"fan-{name}-{len(fresh)}-{policy}", fan_extension(t, fresh, policy)
    for n in range(1, 5):
        _, add, mul = zn_ring_tables(n)
        for fresh in (["h"], ["h1", "h2"]):
            for policy in (ABSORB, UNDEFINED_FILL):
                yield f"ringfan-Z{n}-{len(fresh)}-{policy}", fan_extension((add, mul), fresh, policy)
    for n, k in ((3, 2), (4, 2), (4, 3), (5, 2), (6, 2)):
        squares = gen_latin_squares(n, k, seed=n * k)
        yield f"latin-{n}-{k}", latin_multispace([str(i) for i in range(n)], squares)
    rng = random.Random(1305)
    for i in range(40):
        name, t = rng.choice(groups[1:])
        rows = [list(row) for row in t.entries]
        x, y = rng.randrange(len(rows)), rng.randrange(len(rows))
        rows[x][y] = rng.choice([v for v in t.domain if v != rows[x][y]])
        yield f"perturbed-{i}-{name}", single_component_space(OpTable(t.name, t.universe, t.domain, rows))
    # without the injectivity check, propagation maps both of these onto (2, 1, 2)
    u = FiniteUniverse.of(["a", "b", "c"])
    injective = ([[1, None, 1], [1, 2, 1], [1, None, 1]], [[0, None, 0], [None, 2, None], [2, None, 2]])
    for i, rows in enumerate(injective):
        yield f"injective-{i}", single_component_space(OpTable("*", u, (0, 1, 2), rows))
    _, z3 = cyclic_group_table(3)
    yield "z3-copies-3", one_op_components([z3] * 3)
    # Z3 twice and Z3 with identity 1 once: swapping 0 and 1 swaps the two
    # tables, which is no automorphism, as the first comes twice
    swap = (1, 0, 2)
    moved = [[swap[z3.entries[swap[a]][swap[b]]] for b in range(3)] for a in range(3)]
    yield "z3-twice-moved-once", one_op_components([z3, z3, OpTable("*", z3.universe, z3.domain, moved)])


def one_op_components(tables):
    """One one-operation component per table, all on the first table's carrier."""
    ops = [OpTable(f"o{i}", t.universe, t.domain, t.entries) for i, t in enumerate(tables)]
    return MultiSpace(ops[0].universe, [Component(f"C{i}", t.domain, (t.name,)) for i, t in enumerate(ops)], ops)


class TestAutomorphisms:
    def test_single_z3(self):
        assert len(automorphisms(disjoint_cyclic_union([3]))) == 2

    def test_two_z3_with_swaps(self):
        assert len(automorphisms(disjoint_cyclic_union([3, 3]))) == 8

    def test_two_z3_strict(self):
        assert len(automorphisms(disjoint_cyclic_union([3, 3]), permute_ops=False)) == 4

    def test_one_element_space(self):
        assert automorphisms(disjoint_cyclic_union([1])) == ((0,),)

    def test_group_axioms_of_output(self):
        ms = disjoint_cyclic_union([2, 2])
        auts = set(automorphisms(ms))
        n = len(ms.element_union())
        identity = tuple(range(n))
        assert identity in auts
        for f in auts:
            for g in auts:
                assert tuple(f[g[i]] for i in range(n)) in auts
            inverse = tuple(f.index(i) for i in range(n))
            assert inverse in auts

    def test_size_bound(self):
        with pytest.raises(SizeLimitError, match="union size 13 exceeds AUTOMORPHISM_BOUND = 12"):
            automorphisms(disjoint_cyclic_union([7, 6]))

    @pytest.mark.parametrize("ms", [pytest.param(ms, id=name) for name, ms in automorphism_sweep()])
    @pytest.mark.parametrize("permute_ops", [True, False])
    def test_propagated_search_matches_naive_oracle_on_sweep(self, ms, permute_ops):
        assert automorphisms(ms, permute_ops=permute_ops) == oracles.automorphisms(ms, permute_ops)

    @pytest.mark.parametrize(
        "table, count",
        [
            (cyclic_group_table(8)[1], 4),
            (direct_product_table([4, 2])[1], 8),
            (direct_product_table([2, 2, 2])[1], 168),
            (dihedral_table(4)[1], 8),
            (cyclic_group_table(11)[1], 10),
            (direct_product_table([2, 2, 3])[1], 12),
            (dihedral_table(6)[1], 12),
        ],
        ids=["Z8", "Z4xZ2", "Z2^3", "D4", "Z11", "Z2^2xZ3", "D6"],
    )
    def test_group_automorphism_counts_beyond_the_oracle(self, table, count):
        ms = single_component_space(table)
        for permute_ops in (True, False):
            assert len(automorphisms(ms, permute_ops=permute_ops)) == count

    def test_z12_budget(self):
        # propagation fixes a map from the image of one generator
        started = time.perf_counter()
        auts = automorphisms(shared_identity_union([cyclic_group_table(12)[1]]))
        elapsed = time.perf_counter() - started
        assert len(auts) == 4
        assert elapsed < 0.25, f"automorphisms of Z12 took {elapsed:.2f}s, budget 0.25s"

    def test_z2_to_the_fourth_budget(self, monkeypatch):
        # |Aut(Z2^4)| = |GL(4, 2)| = 20160 maps, each accepted by propagation alone
        monkeypatch.setattr(core, "AUTOMORPHISM_BOUND", 16)
        ms = single_component_space(direct_product_table([2, 2, 2, 2])[1])
        started = time.perf_counter()
        auts = automorphisms(ms)
        elapsed = time.perf_counter() - started
        assert len(set(auts)) == 20160
        assert elapsed < 2.5, f"automorphisms of Z2^4 took {elapsed:.2f}s, budget 2.5s"

    def test_identical_operations_paired_once_budget(self):
        # seven equal tables are searched as one, not in 7! pairings
        ms = one_op_components([cyclic_group_table(3)[1]] * 7)
        started = time.perf_counter()
        auts = automorphisms(ms)
        elapsed = time.perf_counter() - started
        assert auts == automorphisms(ms, permute_ops=False) == ((0, 1, 2), (0, 2, 1))
        assert elapsed < 0.1, f"automorphisms of 7 copies of Z3 took {elapsed:.2f}s, budget 0.1s"

    def test_operations_with_other_profiles_are_never_paired(self):
        # operation k has its first k + 1 cells defined: every operation is
        # alone in its profile class, so the identity is the only pairing
        u = FiniteUniverse.of(["a", "b", "c"])
        ops = [
            OpTable(f"o{k}", u, (0, 1, 2), [[0 if 3 * i + j <= k else None for j in range(3)] for i in range(3)])
            for k in range(8)
        ]
        ms = MultiSpace(u, [Component(f"C{k}", (0, 1, 2), (t.name,)) for k, t in enumerate(ops)], ops)
        started = time.perf_counter()
        auts = automorphisms(ms)
        elapsed = time.perf_counter() - started
        assert auts == automorphisms(ms, permute_ops=False) == ((0, 1, 2),)
        assert elapsed < 0.25, f"automorphisms of 8 operations took {elapsed:.2f}s, budget 0.25s"

    def test_ten_operations_of_other_profiles_budget(self):
        # permuting all 10! = 3628800 pairings and filtering them takes seconds;
        # the product of the one-operation profile classes is the identity alone
        u = FiniteUniverse.of(["a", "b", "c", "d"])
        ops = [
            OpTable(f"o{k}", u, (0, 1, 2, 3), [[0 if 4 * i + j <= k else None for j in range(4)] for i in range(4)])
            for k in range(10)
        ]
        ms = MultiSpace(u, [Component(f"C{k}", (0, 1, 2, 3), (t.name,)) for k, t in enumerate(ops)], ops)
        started = time.perf_counter()
        auts = automorphisms(ms)
        elapsed = time.perf_counter() - started
        assert auts == ((0, 1, 2, 3),)
        assert elapsed < 0.25, f"automorphisms of 10 operations took {elapsed:.2f}s, budget 0.25s"

    def test_fresh_undefined_elements_told_apart_by_domain(self):
        # h1 and h2 multiply to nothing, but each lies in one operation's
        # domain only, so only a swap of the operations may swap them
        ms = fan_extension(cyclic_group_table(3)[1], ["h1", "h2"], UNDEFINED_FILL)
        assert len(automorphisms(ms, permute_ops=False)) == 2
        assert len(automorphisms(ms, permute_ops=True)) == 4

    def test_pruned_search_matches_naive_on_latin_space(self, paper_latin_space):
        ms = paper_latin_space
        for permute_ops in (True, False):
            assert automorphisms(ms, permute_ops=permute_ops) == oracles.automorphisms(ms, permute_ops)

    @pytest.mark.parametrize(
        "domain, entries, carrier",
        [
            ((0, 1, 2), [[0, 1, 2], [1, 2, 0], [2, 0, 1]], (0,)),  # domain {a,b,c} over carrier {a}
            ((0, 1), [[0, 1], [1, 2]], (0, 1)),  # b+b = c leaves the carrier union {a,b}
            ((0, 1), [[0, None], [None, None]], (0,)),  # b is in the domain, all its products undefined
        ],
        ids=["domain-outside", "product-outside", "domain-outside-undefined"],
    )
    def test_operation_leaving_the_union_is_contract_error(self, domain, entries, carrier):
        u = FiniteUniverse.of(["a", "b", "c"])
        ms = MultiSpace(u, [Component("A", carrier, ("+",))], [OpTable("+", u, domain, entries)])
        for permute_ops in (True, False):
            with pytest.raises(ContractError, match=r"^operation '\+' leaves the carrier union$"):
                automorphisms(ms, permute_ops=permute_ops)

    def test_latin_space_automorphisms_preserve_products(self, paper_latin_space):
        ms = paper_latin_space
        union = ms.element_union()
        for sigma in automorphisms(ms, permute_ops=False):
            mapping = {union[i]: union[sigma[i]] for i in range(len(union))}
            for t in ms.ops:
                for x, y, v in t.defined_pairs():
                    assert t.apply(mapping[x], mapping[y]) == mapping[v]
