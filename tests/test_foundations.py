import itertools
import operator
import random
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multispace.errors import ContractError, SizeLimitError
from multispace.foundations import (
    BinaryRelation,
    FiniteUniverse,
    NeutrosophicComponent,
    _BOOLEAN_LAWS,
    _first_failure,
    check_boolean_laws,
    equivalence_classes,
    hasse_pairs,
    neutrosophic_union,
    poset_check,
    poset_extremes,
    valuate_union,
)

import oracles


def rel_from_pred(names, pred):
    u = FiniteUniverse.of(names)
    pairs = frozenset(
        (i, j) for i in range(len(names)) for j in range(len(names)) if pred(names[i], names[j])
    )
    return BinaryRelation(u, pairs)


def subsets_of(n):
    """The subsets of an n-element universe as bitmasks, listed by size."""
    return [sum(1 << i for i in c) for r in range(n + 1) for c in itertools.combinations(range(n), r)]


OPS = {"|": operator.or_, "&": operator.and_, "^": operator.xor}


def random_expr(rng, arity, depth):
    """A random side over the arguments 0..arity-1, the constants and the
    three bytewise operations."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice([*range(arity), "0", "full"])
    return (rng.choice(list(OPS)), random_expr(rng, arity, depth - 1), random_expr(rng, arity, depth - 1))


def evaluate(expr, full, args):
    if expr == "0":
        return 0
    if expr == "full":
        return full
    if isinstance(expr, int):
        return args[expr]
    op, left, right = expr
    return OPS[op](evaluate(left, full, args), evaluate(right, full, args))


def seeded_false_laws(arity, seed, count=8):
    """``count`` random one-pair laws of ``arity`` that fail on a one-element
    universe, hence on every non-empty one: the operations act bit by bit."""
    rng = random.Random(seed)
    laws = []
    while len(laws) < count:
        lhs, rhs = random_expr(rng, arity, 3), random_expr(rng, arity, 3)

        def sides(full, *args, lhs=lhs, rhs=rhs):
            return ((evaluate(lhs, full, args), evaluate(rhs, full, args)),)

        if oracles.first_failure(sides, arity, subsets_of(1), 1) is not None:
            laws.append(sides)
    return laws


def law_against_constants(arity, n, seed):
    """A law that fails on the n-element universe exactly at the tuples
    whose arguments all agree with their own seeded constant subsets at a
    seeded element j: (a ^ k1) | (b ^ k2) | ... | (FULL ^ {j}) == full.
    It fails whenever n > 0, and its first witness moves with the seed.
    Each constant is spread over every byte of a bit-sliced ``full`` as
    ``k * (full // FULL)``."""
    rng = random.Random(1000 * seed + 10 * arity + n)
    FULL = (1 << n) - 1
    consts = [rng.randrange(FULL + 1) for _ in range(arity)]
    skip = FULL ^ 1 << rng.randrange(n) if n else 0

    def sides(full, *args):
        ones = full // FULL if FULL else 0
        lhs = skip * ones
        for x, k in zip(args, consts):
            lhs |= x ^ k * ones
        return ((lhs, full),)

    return sides


FALSE_LAWS = [
    (1, lambda full, a: ((full ^ a, a),)),
    (2, lambda full, a, b: ((a | b, a),)),
    (2, lambda full, a, b: ((a & b, a), (a | b, b | a))),
    (3, lambda full, a, b, c: ((a & (b | c), a),)),
    (3, lambda full, a, b, c: ((a | b | c, 0),)),
    (3, lambda full, a, b, c: ((a | (b & c), (a | b) & (a | c)), (a ^ b ^ c, a | b | c))),
] + [(arity, sides) for arity in (1, 2, 3) for sides in seeded_false_laws(arity, seed=arity)]


class TestBooleanLawKernel:
    @pytest.mark.parametrize("arity, sides", FALSE_LAWS)
    def test_false_law_names_the_product_order_witness(self, arity, sides):
        for n in range(7):
            full, subsets = (1 << n) - 1, subsets_of(n)
            want = oracles.first_failure(sides, arity, subsets, full)
            assert _first_failure(sides, arity, subsets, full) == want
            assert (want is None) == (n == 0)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("arity", (1, 2, 3))
    def test_seeded_constants_move_the_witness(self, arity, seed):
        for n in range(7):
            full, subsets = (1 << n) - 1, subsets_of(n)
            sides = law_against_constants(arity, n, seed)
            want = oracles.first_failure(sides, arity, subsets, full)
            assert _first_failure(sides, arity, subsets, full) == want
            assert (want is None) == (n == 0)

    @pytest.mark.parametrize("size", range(7))
    def test_laws_hold_in_the_product_order_loop(self, size):
        full, subsets = (1 << size) - 1, subsets_of(size)
        for law, name, arity, sides in _BOOLEAN_LAWS:
            assert oracles.first_failure(sides, arity, subsets, full) is None, law
            assert _first_failure(sides, arity, subsets, full) is None, law

    def test_memory_peak_at_bound(self):
        # one chunk at a time: a single int over all 64^3 triples would
        # take the whole budget by itself
        u = FiniteUniverse.of([f"e{i}" for i in range(6)])
        tracemalloc.start()
        try:
            check_boolean_laws(u)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024, f"check_boolean_laws at |U| = 6 peaked at {peak} B, budget 256 KiB"

    def test_kernel_budget_at_bound(self):
        u = FiniteUniverse.of([f"e{i}" for i in range(6)])
        started = time.perf_counter()
        assert check_boolean_laws(u).all_pass
        elapsed = time.perf_counter() - started
        assert elapsed < 0.05, f"check_boolean_laws at |U| = 6 took {elapsed:.3f}s, budget 0.05s"


class TestBooleanLaws:
    @pytest.mark.parametrize("size", range(6))
    def test_matches_frozenset_reference(self, size):
        u = FiniteUniverse.of([f"e{i}" for i in range(size)])
        assert check_boolean_laws(u) == oracles.boolean_laws(u)

    def test_runtime_budget_at_bound(self):
        u = FiniteUniverse.of([f"e{i}" for i in range(6)])
        started = time.perf_counter()
        assert check_boolean_laws(u).all_pass
        elapsed = time.perf_counter() - started
        assert elapsed < 0.6, f"check_boolean_laws at |U| = 6 took {elapsed:.2f}s, budget 0.6s"

    @pytest.mark.parametrize("size", range(7))
    def test_all_pass(self, size):
        u = FiniteUniverse.of([f"e{i}" for i in range(size)])
        report = check_boolean_laws(u)
        assert report.all_pass
        assert [r.law for r in report.results] == ["L1", "L2", "L3", "L4", "L5", "L6", "L7"]

    def test_empty_universe_degenerate(self):
        assert check_boolean_laws(FiniteUniverse.of([])).all_pass

    def test_size_bound(self):
        with pytest.raises(SizeLimitError, match=r"\|U\| = 7 exceeds BOOLEAN_LAW_BOUND = 6"):
            check_boolean_laws(FiniteUniverse.of([str(i) for i in range(7)]))

    def test_distributivity_by_hand(self):
        # U={a}, V={b}, W={a,b} over {a,b}
        U, V, W = {0}, {1}, {0, 1}
        assert U | (V & W) == (U | V) & (U | W)
        assert U & (V | W) == (U & V) | (U & W)
        report = check_boolean_laws(FiniteUniverse.of(["a", "b"]))
        assert next(r for r in report.results if r.law == "L5").passed


class TestPosets:
    def test_divisibility_poset_not_total(self):
        rel = rel_from_pred(["1", "2", "3", "6"], lambda a, b: int(b) % int(a) == 0)
        verdict = poset_check(rel)
        assert verdict.is_poset and not verdict.is_total

    def test_leq_total_order(self):
        rel = rel_from_pred(["1", "2", "3"], lambda a, b: int(a) <= int(b))
        verdict = poset_check(rel)
        assert verdict.is_poset and verdict.is_total

    def test_antisymmetry_witness(self):
        u = FiniteUniverse.of(["a", "b"])
        rel = BinaryRelation(u, frozenset([(0, 0), (1, 1), (0, 1), (1, 0)]))
        verdict = poset_check(rel)
        assert not verdict.is_poset
        assert verdict.violated == "O2 antisymmetry"
        assert set(verdict.witness) == {0, 1}

    def test_extremes_divisibility(self):
        rel = rel_from_pred(["1", "2", "3", "6"], lambda a, b: int(b) % int(a) == 0)
        maximal, minimal = poset_extremes(rel)
        assert rel.universe.names(maximal) == ("6",)
        assert rel.universe.names(minimal) == ("1",)

    def test_extremes_antichain(self):
        u = FiniteUniverse.of(["a", "b", "c"])
        rel = BinaryRelation(u, frozenset((i, i) for i in range(3)))
        maximal, minimal = poset_extremes(rel)
        assert maximal == minimal == (0, 1, 2)

    def test_extremes_chain(self):
        rel = rel_from_pred(["1", "2", "3"], lambda a, b: int(a) <= int(b))
        maximal, minimal = poset_extremes(rel)
        assert (maximal, minimal) == ((2,), (0,))

    def test_extremes_reject_non_poset(self):
        u = FiniteUniverse.of(["a", "b"])
        rel = BinaryRelation(u, frozenset([(0, 1), (1, 0)]))
        with pytest.raises(ContractError):
            poset_extremes(rel)

    def test_hasse_reduction(self):
        rel = rel_from_pred(["1", "2", "4"], lambda a, b: int(b) % int(a) == 0)
        covers = rel_from_pred(["1", "2", "4"], lambda a, b: int(b) == 2 * int(a))
        assert hasse_pairs(rel) == frozenset(p for p in covers.pairs)

    @given(st.integers(min_value=1, max_value=5), st.data())
    @settings(max_examples=60, deadline=None)
    def test_every_finite_poset_has_extremes(self, size, data):
        names = [f"v{i}" for i in range(size)]
        order = data.draw(
            st.lists(st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)), max_size=10)
        )
        # take the reflexive-transitive closure of an acyclic edge sample
        edges = {(a, b) for a, b in order if a < b}
        closure = set(edges) | {(i, i) for i in range(size)}
        changed = True
        while changed:
            changed = False
            for (a, b), (c, d) in itertools.product(list(closure), repeat=2):
                if b == c and (a, d) not in closure:
                    closure.add((a, d))
                    changed = True
        rel = BinaryRelation(FiniteUniverse.of(names), frozenset(closure))
        assert poset_check(rel).is_poset
        maximal, minimal = poset_extremes(rel)
        assert maximal and minimal


class TestEquivalences:
    def test_congruence_mod_three(self):
        rel = rel_from_pred([str(i) for i in range(12)], lambda a, b: (int(a) - int(b)) % 3 == 0)
        part = equivalence_classes(rel)
        assert part.count == 3
        assert part.uniform_class_size == 4
        assert part.quotient_check is True

    def test_identity_relation(self):
        u = FiniteUniverse.of(["a", "b", "c"])
        rel = BinaryRelation(u, frozenset((i, i) for i in range(3)))
        part = equivalence_classes(rel)
        assert part.count == 3 and part.uniform_class_size == 1

    def test_full_relation(self):
        rel = rel_from_pred(["a", "b", "c"], lambda a, b: True)
        part = equivalence_classes(rel)
        assert part.count == 1 and part.uniform_class_size == 3

    def test_non_equivalence_names_law(self):
        u = FiniteUniverse.of(["a", "b"])
        rel = BinaryRelation(u, frozenset([(0, 0), (1, 1), (0, 1)]))
        with pytest.raises(ContractError, match="R2 symmetry"):
            equivalence_classes(rel)

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=8))
    @settings(max_examples=40, deadline=None)
    def test_uniform_classes_quotient(self, classes, size):
        n = classes * size
        rel = rel_from_pred(
            [str(i) for i in range(n)], lambda a, b: int(a) % classes == int(b) % classes
        )
        part = equivalence_classes(rel)
        assert part.uniform_class_size == size
        assert part.count * part.uniform_class_size == n
        assert part.quotient_check is True


class TestNeutrosophic:
    def test_case1_matches_plain_union(self):
        c1 = NeutrosophicComponent.constant([0, 1], 1, 0, 0)
        c2 = NeutrosophicComponent.constant([1, 2], 1, 0, 0)
        out = neutrosophic_union([c1, c2], universe_size=4)
        assert out.case == 1
        assert out.abstract_set == frozenset({0, 1}) | frozenset({1, 2})

    def test_case2_complement(self):
        c1 = NeutrosophicComponent.constant([0, 1], 0, 0, 1)
        c2 = NeutrosophicComponent.constant([2], 0, 0, 1)
        out = neutrosophic_union([c1, c2], universe_size=4)
        assert out.case == 2
        assert out.abstract_set == frozenset({3})

    def test_case3_split(self):
        t = NeutrosophicComponent.constant([0], 1, 0, 0)
        f = NeutrosophicComponent.constant([1, 2], 0, 0, 1)
        out = neutrosophic_union([t, f], universe_size=4)
        assert out.case == 3
        assert out.abstract_set == frozenset({0, 3})

    def test_case4_no_abstract_set(self):
        c = NeutrosophicComponent.constant([0, 1], 0.5, 0, 0)
        out = neutrosophic_union([c], universe_size=4)
        assert out.case == 4 and out.abstract_set is None

    def test_value_range_enforced(self):
        with pytest.raises(ContractError):
            NeutrosophicComponent.constant([0], 1.5, 0, 0)


class TestValuation:
    def test_two_overlapping_halves(self):
        out = valuate_union([0.5, 0.5], [frozenset({0, 1}), frozenset({1, 2})])
        assert out == pytest.approx(0.75)

    def test_absorbing_one(self):
        out = valuate_union([1.0, 0.3], [frozenset({0}), frozenset({0, 1})])
        assert out == pytest.approx(1.0)

    def test_disjoint_additive(self):
        out = valuate_union([0.5, 0.5], [frozenset({0}), frozenset({1})])
        assert out == pytest.approx(1.0)

    @given(st.lists(st.fractions(min_value=0, max_value=1), min_size=1, max_size=5))
    @settings(max_examples=80, deadline=None)
    def test_product_rule_stays_in_unit_interval(self, values):
        # all carriers identical: every intersection is non-empty
        carriers = [frozenset({0, 1})] * len(values)
        out = valuate_union(values, carriers)
        expected = 1 - Fraction(1)
        acc = Fraction(1)
        for v in values:
            acc *= 1 - Fraction(v)
        expected = 1 - acc
        assert out == expected
        assert 0 <= out <= 1

    @given(st.lists(st.fractions(min_value=0, max_value=1), min_size=1, max_size=5))
    @settings(max_examples=80, deadline=None)
    def test_pairwise_disjoint_sums(self, values):
        carriers = [frozenset({i}) for i in range(len(values))]
        assert valuate_union(values, carriers) == sum(Fraction(v) for v in values)
