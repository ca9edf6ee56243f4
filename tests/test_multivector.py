import itertools
import random
import re

import pytest

from multispace.errors import ContractError, InternalCheckError, SizeLimitError
from multispace.multivector import (
    AmbientSpace,
    MultiVectorSpace,
    VectorComponent,
    additive_formula_check,
    canonical_basis,
    component_bases,
    dim_formula,
    greedy_basis,
    is_multivector_subspace,
    linearly_independent,
    rank,
    span,
)

import oracles
from conftest import outcome


PERTURBATIONS = ("whole", "missing", "extra", "longer", "shorter", "plus_p", "float", "half_basis",
                 "list", "set", "keys", "bad_generator")


def perturbed_component(rng, ambient):
    """A component whose vectors are its span, broken one way or kept whole,
    with generators that may carry coordinates outside 0..p-1."""
    p, n = ambient.p, ambient.n
    gens = [tuple(rng.randrange(-p, 2 * p) for _ in range(n)) for _ in range(rng.randint(0, 3))]
    whole = span(ambient, gens)
    vectors = set(whole)
    v = rng.choice(sorted(whole))
    case = rng.choice(PERTURBATIONS)
    basis = canonical_basis(ambient, gens)
    if case == "half_basis" and basis:
        # each coordinate is half a basis coordinate: a consistent combination,
        # but with coefficient 1/2, outside GF(p)
        vectors.discard(v)
        vectors.add(tuple(x / 2 for x in rng.choice(basis)))
    elif case == "missing":
        vectors.discard(v)
    elif case == "extra":
        vectors.add(tuple(rng.randrange(p) for _ in range(n)))
    elif case in ("longer", "shorter", "plus_p", "float"):
        vectors.discard(v)
        k = rng.randrange(n)
        changed = {
            "longer": v + (0,),
            "shorter": v[:-1],
            "plus_p": v[:k] + (v[k] + p,) + v[k + 1 :],
            "float": v[:k] + (v[k] + rng.choice([0.0, 0.5]),) + v[k + 1 :],
        }[case]
        vectors.add(changed)
    elif case == "bad_generator":
        gens.append((1,) * (n + 1))
    container = {"list": list, "set": set, "keys": lambda vs: dict.fromkeys(vs).keys()}
    return case, VectorComponent("V1", tuple(gens), container.get(case, frozenset)(vectors), "+1", ".1")


def random_space(rng, ambient, k, size):
    """k components, each spanned by up to ``size`` random vectors."""
    def vector():
        return tuple(rng.randrange(ambient.p) for _ in range(ambient.n))

    return MultiVectorSpace.from_generators(
        ambient, [[vector() for _ in range(rng.randint(0, size))] for _ in range(k)]
    )


def gf2_cube():
    return AmbientSpace(2, 3)


def full_component_space(ambient):
    """One component spanning the whole ambient space."""
    gens = [tuple(1 if j == i else 0 for j in range(ambient.n)) for i in range(ambient.n)]
    return MultiVectorSpace.from_generators(ambient, [gens])


class TestLinearAlgebraBasics:
    def test_span_of_line(self):
        amb = AmbientSpace(3, 2)
        assert span(amb, [(1, 2)]) == {(0, 0), (1, 2), (2, 1)}

    def test_rank(self):
        amb = gf2_cube()
        assert rank(amb, [(1, 0, 0), (0, 1, 0), (1, 1, 0)]) == 2
        assert rank(amb, []) == 0
        assert rank(amb, [(0, 0, 0)]) == 0

    def test_canonical_basis_reduced(self):
        amb = gf2_cube()
        basis = canonical_basis(amb, [(1, 1, 0), (0, 1, 1), (1, 0, 1)])
        assert len(basis) == 2
        assert rank(amb, basis) == 2

    def test_nonprime_field_rejected(self):
        with pytest.raises(ContractError):
            AmbientSpace(4, 2)

    def test_ambient_size_bound(self):
        assert AmbientSpace(2, 12).zero() == (0,) * 12
        with pytest.raises(SizeLimitError, match=r"2\^13 = 8192 exceeds AMBIENT_SIZE_BOUND = 4096"):
            AmbientSpace(2, 13)
        # the bound is checked before the field order's primality
        with pytest.raises(SizeLimitError, match=r"4\^7 = 16384 exceeds AMBIENT_SIZE_BOUND = 4096"):
            AmbientSpace(4, 7)
        with pytest.raises(SizeLimitError, match=r"; 4097\^1 exceeds AMBIENT_SIZE_BOUND = 4096"):
            AmbientSpace(4097, 1)
        assert AmbientSpace(4093, 1).n == 1

    def test_component_must_be_subspace_closed(self):
        amb = gf2_cube()
        mvs = MultiVectorSpace.from_generators(amb, [[(1, 0, 0), (0, 1, 0)]])
        assert len(mvs.components[0].vectors) == 4

    def test_two_components_with_one_name_rejected(self):
        amb = gf2_cube()
        with pytest.raises(ContractError, match="^component names must be unique$"):
            MultiVectorSpace.from_generators(amb, [[(1, 0, 0)], [(0, 1, 0)]], names=["V", "V"])

    @pytest.mark.parametrize("names", [["V"], ["V", "W", "X"]], ids=["short", "long"])
    def test_one_name_per_generator_list(self, names):
        # one name raised a bare IndexError, and a third name was dropped
        with pytest.raises(ContractError, match=f"^{len(names)} names for 2 generator lists$"):
            MultiVectorSpace.from_generators(AmbientSpace(2, 2), [[(1, 0)], [(0, 1)]], names=names)

    @pytest.mark.parametrize("bad", [1.5, 2.0, True, "1"])
    def test_non_integer_coordinate_rejected(self, bad):
        # (1.5, 2.9) was read as (1, 2); the error names the coordinate
        amb = AmbientSpace(3, 2)
        message = rf"^coordinate 1 of vector \(2, {re.escape(repr(bad))}\) is {re.escape(repr(bad))}, not an integer$"
        with pytest.raises(ContractError, match=message):
            span(amb, [(1, 1), (2, bad)])
        with pytest.raises(ContractError, match=message):
            MultiVectorSpace.from_generators(amb, [[(1, 0)], [(2, bad)]])

    def test_integer_coordinates_reduced_mod_p(self):
        amb = AmbientSpace(3, 2)
        assert span(amb, [(4, -1)]) == span(amb, [(1, 2)]) == {(0, 0), (1, 2), (2, 1)}
        mvs = MultiVectorSpace.from_generators(amb, [[[7, 5]]])
        assert mvs.components[0].generators == ((1, 2),)


class TestSubspaceCriterion:
    def test_zero_subspace(self):
        amb = gf2_cube()
        parent = full_component_space(amb)
        report = is_multivector_subspace([[(0, 0, 0)]], parent)
        assert report.verdict

    def test_line_inside_plane(self):
        amb = AmbientSpace(2, 2)
        parent = MultiVectorSpace.from_generators(amb, [[(1, 0), (0, 1)]])
        report = is_multivector_subspace([[(0, 0), (1, 0)]], parent)
        assert report.verdict

    def test_missing_closure_element(self):
        amb = AmbientSpace(2, 2)
        parent = MultiVectorSpace.from_generators(amb, [[(1, 0), (0, 1)]])
        report = is_multivector_subspace([[(0, 0), (1, 0), (0, 1)]], parent)
        assert not report.verdict
        assert report.witness["result"] == (1, 1)

    def test_componentwise_route_tests_meets(self):
        # Each given subset is a subspace of its component, but the union
        # {0, (1,0), (0,1)} meets the plane V2 in a set that is not.
        amb = AmbientSpace(2, 2)
        parent = MultiVectorSpace.from_generators(amb, [[(1, 0)], [(1, 0), (0, 1)]])
        report = is_multivector_subspace([[(0, 0), (1, 0)], [(0, 0), (0, 1)]], parent)
        assert (report.verdict, report.by_component, report.by_closure) == (False, False, False)
        assert report.witness == {"alpha": 1, "a": (1, 0), "b": (0, 1), "result": (1, 1)}

    def test_one_subset_per_component(self):
        parent = MultiVectorSpace.from_generators(AmbientSpace(2, 2), [[(1, 0)], [(0, 1)]])
        for subs in ([[(0, 0)]], [[(0, 0)], [], []]):
            with pytest.raises(ContractError, match=r"^provide one \(possibly empty\) subset per parent component$"):
                is_multivector_subspace(subs, parent)

    def test_subset_leaving_its_component(self):
        # (1, 0) spans V1, not V2
        parent = MultiVectorSpace.from_generators(AmbientSpace(2, 2), [[(1, 0)], [(0, 1)]])
        assert is_multivector_subspace([[(1, 0)], [(0, 0)]], parent).verdict
        with pytest.raises(ContractError, match="^subset of 'V2' leaves its component$"):
            is_multivector_subspace([[(0, 0)], [(1, 0)]], parent)

    def test_random_subsets_match_meet_oracle(self):
        rng = random.Random(29)
        verdicts = set()
        for _ in range(400):
            amb = AmbientSpace(rng.choice([2, 3]), rng.randint(1, 3))
            parent = random_space(rng, amb, rng.randint(1, 3), 2)
            subs = []
            for comp in parent.components:
                vectors = sorted(comp.vectors)
                if rng.random() < 0.4:
                    subs.append(rng.sample(vectors, rng.randint(0, len(vectors))))
                else:
                    subs.append(sorted(span(amb, rng.sample(vectors, min(2, len(vectors))))))
            union = set().union(*map(set, subs))
            want = all(
                not meet or meet == span(amb, meet)
                for meet in (union & comp.vectors for comp in parent.components)
            )
            report = is_multivector_subspace(subs, parent)
            assert report.verdict == report.by_component == report.by_closure == want
            assert (report.witness is None) == want
            verdicts.add(want)
        assert verdicts == {True, False}

    def test_intersection_of_passing_subs_passes(self):
        rng = random.Random(3)
        amb = gf2_cube()
        vectors = sorted(span(amb, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]))
        parent = MultiVectorSpace.from_generators(
            amb, [[(1, 0, 0), (0, 1, 0), (0, 0, 1)], [(1, 1, 0), (0, 0, 1)]]
        )
        passing = []
        for _ in range(40):
            gens = rng.sample(vectors, rng.randint(0, 2))
            subs = [
                sorted(span(amb, gens) & comp.vectors) for comp in parent.components
            ]
            subs = [
                s if set(s) <= set(comp.vectors) else []
                for s, comp in zip(subs, parent.components)
            ]
            if is_multivector_subspace(subs, parent).verdict:
                passing.append(subs)
        assert passing
        for a, b in itertools.combinations(passing, 2):
            meet = [sorted(set(sa) & set(sb)) for sa, sb in zip(a, b)]
            assert is_multivector_subspace(meet, parent).verdict


class TestIndependence:
    def test_unit_vectors_case_one(self):
        amb = gf2_cube()
        parent = full_component_space(amb)
        report = linearly_independent([(1, 0, 0), (0, 1, 0)], parent)
        assert report.independent and report.case == 1

    def test_dependent_with_lex_least_certificate(self):
        amb = AmbientSpace(2, 2)
        parent = full_component_space(amb)
        report = linearly_independent([(1, 0), (0, 1), (1, 1)], parent)
        assert not report.independent
        assert report.certificate == (1, 1, 1)

    def test_empty_family_vacuously_independent(self):
        amb = gf2_cube()
        parent = full_component_space(amb)
        report = linearly_independent([], parent)
        assert report.independent and report.case == 1

    def test_case_two_when_chains_undefined(self):
        amb = AmbientSpace(2, 2)
        three_lines = MultiVectorSpace.from_generators(amb, [[(1, 0)], [(0, 1)], [(1, 1)]])
        report = linearly_independent([(1, 0), (0, 1)], three_lines)
        assert report.independent and report.case == 2

    def test_outside_union_rejected(self):
        amb = AmbientSpace(2, 2)
        lines = MultiVectorSpace.from_generators(amb, [[(1, 0)]])
        with pytest.raises(ContractError):
            linearly_independent([(0, 1)], lines)


class TestGreedyBasis:
    def test_two_lines(self):
        amb = AmbientSpace(2, 2)
        mvs = MultiVectorSpace.from_generators(amb, [[(1, 0)], [(0, 1)]])
        assert set(greedy_basis(mvs)) == {(1, 0), (0, 1)}

    def test_three_lines_drop_one(self):
        amb = AmbientSpace(2, 2)
        mvs = MultiVectorSpace.from_generators(amb, [[(1, 0)], [(0, 1)], [(1, 1)]])
        basis = greedy_basis(mvs)
        assert len(basis) == 2

    def test_single_component_keeps_own_basis(self):
        amb = gf2_cube()
        mvs = MultiVectorSpace.from_generators(amb, [[(1, 1, 0), (0, 0, 1)]])
        basis = greedy_basis(mvs)
        assert set(basis) == set(canonical_basis(amb, [(1, 1, 0), (0, 0, 1)]))

    def test_output_independent_and_spanning(self):
        amb = gf2_cube()
        mvs = MultiVectorSpace.from_generators(
            amb, [[(1, 0, 0), (0, 1, 0)], [(0, 1, 0), (0, 0, 1)], [(1, 1, 1)]]
        )
        basis = greedy_basis(mvs)
        assert linearly_independent(list(basis), mvs).independent
        assert rank(amb, basis) == rank(amb, mvs.union_vectors())

    def test_random_orders_same_size(self):
        rng = random.Random(9)
        amb = AmbientSpace(3, 3)
        mvs = MultiVectorSpace.from_generators(
            amb, [[(1, 0, 0), (0, 1, 0)], [(0, 0, 1)], [(1, 1, 1), (1, 2, 0)]]
        )
        sizes = set()
        start = component_bases(mvs)
        for _ in range(20):
            order = start[:]
            rng.shuffle(order)
            sizes.add(len(greedy_basis(mvs, order=order)))
        assert len(sizes) == 1

    def test_order_must_permute_start(self):
        amb = AmbientSpace(2, 2)
        mvs = MultiVectorSpace.from_generators(amb, [[(1, 0)]])
        with pytest.raises(ContractError):
            greedy_basis(mvs, order=[(0, 1)])


class TestReplacedRoutes:
    def test_rank_matches_elimination(self):
        rng = random.Random(31)
        for _ in range(500):
            p = rng.choice([2, 3, 5, 7])
            amb = AmbientSpace(p, rng.randint(1, 4 if p > 3 else 6))
            # coordinates outside 0..p-1 are read mod p
            vectors = [
                tuple(rng.randrange(-p, 2 * p) for _ in range(amb.n)) for _ in range(rng.randint(0, 8))
            ]
            assert rank(amb, vectors) == oracles.rank(amb, vectors)

    def test_constructor_matches_second_span(self):
        rng = random.Random(41)
        verdicts = set()
        for _ in range(3000):
            p = rng.choice([2, 3, 5])
            ambient = AmbientSpace(p, rng.randint(1, 2 if p == 5 else 3))
            case, comp = perturbed_component(rng, ambient)
            got, want = outcome(MultiVectorSpace, ambient, [comp]), oracles.subspace_error(ambient, comp)
            assert (got == (ContractError, want)) if want else isinstance(got, MultiVectorSpace), (case, ambient, comp)
            verdicts.add((case, want is None))
        # every case ran; whole spans in any set type are accepted, a list never
        assert {case for case, _ in verdicts} == set(PERTURBATIONS)
        assert {("whole", True), ("set", True), ("keys", True), ("list", False), ("half_basis", False)} <= verdicts

    def test_unclosed_component_message(self):
        comp = VectorComponent("W", ((1, 0, 0),), frozenset({(0, 0, 0), (1, 1, 0)}), "+1", ".1")
        with pytest.raises(ContractError, match=r"^component 'W' is not closed: not a subspace$"):
            MultiVectorSpace(gf2_cube(), [comp])

    def test_greedy_basis_matches_restart_loop(self):
        rng = random.Random(37)
        for _ in range(200):
            amb = AmbientSpace(rng.choice([2, 3, 5]), rng.randint(1, 4))
            mvs = random_space(rng, amb, rng.randint(1, 4), 3)
            order = component_bases(mvs)
            assert greedy_basis(mvs) == oracles.greedy_basis(amb, sorted(order))
            rng.shuffle(order)
            assert greedy_basis(mvs, order=order) == oracles.greedy_basis(amb, order)


class TestDimFormula:
    def test_two_planes_in_gf2_cube(self):
        amb = gf2_cube()
        mvs = MultiVectorSpace.from_generators(
            amb, [[(1, 0, 0), (0, 1, 0)], [(0, 1, 0), (0, 0, 1)]]
        )
        report = dim_formula(mvs)
        assert report.formula_value == 3
        assert report.greedy_value == 3
        assert report.agree

    def test_single_component(self):
        amb = gf2_cube()
        mvs = MultiVectorSpace.from_generators(amb, [[(1, 0, 0), (0, 1, 0)]])
        report = dim_formula(mvs)
        assert report.formula_value == report.greedy_value == 2

    def test_three_lines_flagged_disagreement(self):
        amb = AmbientSpace(2, 2)
        mvs = MultiVectorSpace.from_generators(amb, [[(1, 0)], [(0, 1)], [(1, 1)]])
        report = dim_formula(mvs)
        assert report.formula_value == 3
        assert report.greedy_value == 2
        assert not report.agree

    def test_component_bound(self):
        amb = AmbientSpace(2, 2)
        mvs = MultiVectorSpace.from_generators(amb, [[(1, 0)]] * 6)
        with pytest.raises(SizeLimitError, match="k = 6 exceeds DIM_FORMULA_BOUND = 5"):
            dim_formula(mvs)


    def test_meet_dimensions_match_rank_oracle(self):
        """Each term, log_p of a meet's size, is the meet's rank by elimination."""
        rng = random.Random(29)
        for p, n in ((2, 4), (3, 3), (5, 2)):
            amb = AmbientSpace(p, n)
            for _ in range(12):
                gens = [[tuple(rng.randrange(p) for _ in range(n)) for _ in range(rng.randint(1, n))]
                        for _ in range(rng.randint(1, 4))]
                mvs = MultiVectorSpace.from_generators(amb, gens)
                for combo, d in dim_formula(mvs).intersection_dims:
                    meet = frozenset.intersection(*(mvs.components[i].vectors for i in combo))
                    assert d == oracles.rank(amb, meet)

    def test_meet_not_a_subspace_is_an_internal_error(self):
        mvs = MultiVectorSpace.from_generators(AmbientSpace(2, 2), [[(1, 0), (0, 1)]])
        comp = mvs.components[0]
        mvs.components = (comp._replace(vectors=comp.vectors - {(1, 1)}),)  # past the constructor's check
        assert outcome(dim_formula, mvs) == (
            InternalCheckError, "the meet of components (0,) has 3 vectors, not a power of 2")


class TestAdditiveFormula:
    def test_two_planes_meeting_in_line_gf3(self):
        amb = AmbientSpace(3, 3)
        v1 = MultiVectorSpace.from_generators(amb, [[(1, 0, 0), (0, 1, 0)]])
        v2 = MultiVectorSpace.from_generators(amb, [[(0, 1, 0), (0, 0, 1)]])
        report = additive_formula_check(v1, v2)
        assert (report.dim_first, report.dim_second, report.dim_intersection) == (2, 2, 1)
        assert report.dim_union == 3 and report.holds

    def test_identical_spaces(self):
        amb = AmbientSpace(2, 2)
        v = MultiVectorSpace.from_generators(amb, [[(1, 0), (0, 1)]])
        report = additive_formula_check(v, v)
        assert report.holds

    def test_disjoint_lines(self):
        amb = gf2_cube()
        v1 = MultiVectorSpace.from_generators(amb, [[(1, 0, 0)]])
        v2 = MultiVectorSpace.from_generators(amb, [[(0, 1, 0)]])
        report = additive_formula_check(v1, v2)
        assert (report.dim_first, report.dim_second, report.dim_intersection) == (1, 1, 0)
        assert report.dim_union == 2 and report.holds

    def test_ambient_mismatch(self):
        v1 = MultiVectorSpace.from_generators(AmbientSpace(2, 2), [[(1, 0)]])
        v2 = MultiVectorSpace.from_generators(AmbientSpace(3, 2), [[(1, 0)]])
        with pytest.raises(ContractError):
            additive_formula_check(v1, v2)


class TestClassicalReduction:
    def test_single_component_ops_match_rank_oracle(self):
        rng = random.Random(17)
        amb = AmbientSpace(3, 3)
        vectors = sorted(span(amb, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]))
        for _ in range(25):
            gens = rng.sample(vectors, rng.randint(1, 3))
            mvs = MultiVectorSpace.from_generators(amb, [gens])
            oracle = rank(amb, gens)
            assert len(greedy_basis(mvs)) == oracle
            assert dim_formula(mvs).formula_value == oracle
            family = rng.sample(vectors, rng.randint(1, 3))
            if all(v in mvs.components[0].vectors for v in family):
                report = linearly_independent(family, mvs)
                assert report.independent == (rank(amb, family) == len(family))
