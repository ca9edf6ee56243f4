"""Each kernel against its oracle on every input up to a small size.

Most faults show on some small input (the small-scope hypothesis: Jackson,
*Software Abstractions*, 2006), so these checks take every input instead of
a sample: every table on a universe of n elements (every domain; each cell
undefined or any element, so products may leave the domain) and every
(add, mul) pair on two elements.  The references are ``oracles``.  The
suite runs n = 0, 1 and 2, and at n = 3 the total tables and the tables with
a unit; ``sweep/test_three_elements.py`` runs every check on all 262,925
tables of n = 3, outside ``testpaths``.
"""

import functools
import itertools
import math
import random

import pytest

from multispace.core import (
    Component,
    MultiSpace,
    _associativity_witness,
    _generators,
    automorphisms,
    classify_table,
    is_group_on,
)
from multispace.multigroup import _lattice, _normal_in, maximal_normal_subgroups
from multispace.multiring import _ring_check

import oracles
from conftest import assert_maximal_matches_filter, outcome, random_predicates
from oracles import as_set


@functools.lru_cache(maxsize=1)
def every_table(n):
    found = list(oracles.tables(n))
    # C(n, k) domains of k elements, each with (n + 1)^(k²) tables, all distinct
    assert len(found) == sum(math.comb(n, k) * (n + 1) ** (k * k) for k in range(n + 1))
    assert len({(t.domain, t.grid) for t in found}) == len(found)
    return found


def check_groups(tables):
    """``is_group_on`` on each domain and on the whole universe, and
    ``classify_table`` on each total table.  A subset S of the domain reads
    only the cells of S x S, as the table on domain S does, so the domains
    cover every subset of a domain."""
    for t in tables:
        for subset in {frozenset(t.domain), frozenset(range(len(t.universe)))}:
            assert is_group_on(t, subset) == oracles.is_group_on(t, subset), (t.grid, subset)
        if t.is_total_on_domain():
            assert classify_table(t) == oracles.classify(t), t.grid


def check_generators(tables):
    """``_generators`` generate, each outside the closure of those before,
    and Light's test on them decides associativity, on each closed domain."""
    for t in tables:
        elems = list(t.domain)
        if not elems or any(t.apply(x, y) not in t.domain for x in elems for y in elems):
            continue
        gens = _generators(t.grid, elems)
        assert oracles.generated(t, gens) == set(elems), t.grid
        assert all(g not in oracles.generated(t, gens[:i]) for i, g in enumerate(gens)), t.grid
        triple = oracles.associativity_witness(t, elems)
        assert (_associativity_witness(t.grid, elems, gens) is None) == (triple is None), t.grid
        assert _associativity_witness(t.grid, elems, elems) == triple, t.grid


def check_lattices(tables):
    """``_lattice`` and ``maximal_normal_subgroups`` (errors included) on
    every carrier inside a domain with a unit, and ``_maximal`` below every
    member, and the members it tests, under seeded predicates and, in a
    group, normality.  Returns the number of lattices that are no group's."""
    rng, not_groups = random.Random(3), 0
    for t in tables:
        for r in range(1, len(t.domain) + 1):
            for carrier in map(frozenset, itertools.combinations(t.domain, r)):
                if oracles.identity(t, carrier) is None:
                    continue
                lattice, inverse = _lattice(t, carrier)
                members = oracles.subgroups(t, carrier)
                assert [as_set(m) for m in lattice] == members, (t.grid, carrier)
                assert (inverse is not None) == oracles.is_group_on(t, carrier)[0], (t.grid, carrier)
                not_groups += inverse is None
                want = outcome(oracles.maximal_normal_subgroups, t, carrier)
                assert outcome(maximal_normal_subgroups, t, carrier) == want, (t.grid, carrier)
                predicates = random_predicates(rng, lattice)
                for part, gens in lattice.items():
                    normal = [] if inverse is None else [_normal_in(t, part, gens, inverse)]
                    for test in predicates + normal:
                        assert_maximal_matches_filter(lattice, part, test)
    return not_groups


def check_automorphisms(tables):
    """``automorphisms`` of each table whose products stay in its domain."""
    for t in tables:
        if all(v in t.domain for _, _, v in t.defined_pairs()):
            ms = MultiSpace(t.universe, [Component("C", t.domain, (t.name,))], [t])
            assert automorphisms(ms) == oracles.automorphisms(ms, True), t.grid


CHECKS = [check_groups, check_generators, check_lattices, check_automorphisms]


@pytest.mark.parametrize("check", CHECKS)
@pytest.mark.parametrize("n", [0, 1, 2])
def test_every_table(check, n):
    check(every_table(n))


def test_every_total_table_on_three_elements():
    for t in oracles.tables(3, values=range(3)):
        assert classify_table(t) == oracles.classify(t), t.grid


def test_every_table_with_a_unit_on_three_elements():
    assert check_lattices(oracles.unit_tables(3)) == 1935


def test_ring_check_on_every_pair():
    carrier, kinds = frozenset({0, 1}), set()
    for add, mul in oracles.ring_pairs():
        got = _ring_check(add, mul, carrier)
        assert got == oracles.ring_check(add, mul, carrier), (add.grid, mul.grid)
        kinds.add(got and got["kind"])
    # every group of order 2 is abelian, so only additive commutativity never fails
    assert kinds == {
        None, "closure", "associativity", "no_unit", "missing_inverse", "multiplicative_closure",
        "multiplicative_associativity", "left_distributivity", "right_distributivity",
    }
