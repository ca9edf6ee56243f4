"""Acceptance suite: one test per criterion, each enforcing its stated
tolerance (exact unless noted) and runtime budget, and printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion lines directly).
"""

import itertools
import math
import random
import time
from fractions import Fraction as F

import pytest

from multispace.constructions import (
    LatinSquare,
    abelian_groups_of_order,
    all_groups_up_to_8,
    direct_product_table,
    disjoint_cyclic_union,
    enumerate_latin_squares,
    latin_lower_bound,
    latin_multispace,
    shared_identity_union,
    symmetric_table,
    zn_ring_space,
)
from multispace.core import (
    ExprChain,
    OpTable,
    automorphisms,
    eval_chain,
    find_inverses,
    find_units,
    is_faithful,
)
from multispace.foundations import FiniteUniverse
from multispace.multigroup import (
    SubsetView,
    composition_series,
    coset_partition,
    maximal_normal_series,
    series_length_profile,
    subgroups_of,
)
from multispace.multiring import decompose_artin, is_multiideal, is_submultiring, multiideal_chain
from multispace.multivector import (
    AmbientSpace,
    MultiVectorSpace,
    component_bases,
    dim_formula,
    greedy_basis,
    span,
)
from multispace.multimetric import (
    CombinatorSpec,
    MappingTable,
    MetricTable,
    MultiMetricSpace,
    combine_metrics,
    fixed_points,
    is_contraction,
    validate_metric,
)

import oracles
from test_multimetric import random_metric


def budget(name, started, limit):
    elapsed = time.monotonic() - started
    assert elapsed < limit, f"{name} took {elapsed:.1f}s, budget {limit}s"
    print(f"[acceptance] {name}: PASS ({elapsed:.2f}s)")


def test_a01_worked_example_fidelity(paper_latin_space):
    """eval_chain on the two printed tables reproduces the worked chains."""
    started = time.monotonic()
    ms = paper_latin_space
    u = ms.universe

    def chain(names, ops):
        return eval_chain(ms, ExprChain(tuple(u.index(n) for n in names), ops))

    assert u.name(chain(["1", "2", "3"], ("x1", "x2"))) == "2"
    # the printed computation for the second chain folds through 1 x2 3 = 3
    assert u.name(chain(["1", "3"], ("x2",))) == "3"
    assert u.name(chain(["2", "3", "3"], ("x1", "x2"))) == "3"
    # the chain header as printed (final operand 2) honestly evaluates to 2:
    # its displayed mid-step switches the operand to 3, which is where the
    # printed value 3 comes from
    assert u.name(chain(["2", "3", "2"], ("x1", "x2"))) == "2"
    budget("worked-example fidelity", started, 1)


def test_a02_latin_square_bound():
    """Exhaustive counts for n=2,3,4 meet the product-of-factorials bound."""
    started = time.monotonic()
    counts = {n: len(enumerate_latin_squares(n)) for n in (2, 3, 4)}
    assert counts == {2: 2, 3: 12, 4: 576}
    for n, count in counts.items():
        assert count >= latin_lower_bound(n)
    assert counts[3] == latin_lower_bound(3)
    budget("latin-square bound", started, 10)


def test_a03_unit_inverse_uniqueness():
    """Left/right unit and inverse sets have size <= 1 over the whole corpus."""
    started = time.monotonic()
    tables = [t for _, _, t in all_groups_up_to_8()]
    for n in (2, 3, 4):
        for i, square in enumerate(enumerate_latin_squares(n)):
            u = FiniteUniverse.of([str(j) for j in range(n)])
            tables.append(OpTable(f"L{n}_{i}", u, range(n), square.grid))
    assert len(tables) == 14 + 2 + 12 + 576
    for t in tables:
        assert is_faithful(t, "left")[0] and is_faithful(t, "right")[0]
        units = find_units(t)
        assert len(units.left_units) <= 1 and len(units.right_units) <= 1
        if units.unit is not None:
            for report in find_inverses(t, units.unit).values():
                assert len(report.left) <= 1 and len(report.right) <= 1
    budget("unit/inverse uniqueness", started, 30)


def test_a04_coset_partition_randomized():
    """>= 50 random (sub-multi-group, multi-group) instances tile exactly."""
    started = time.monotonic()
    rng = random.Random(42)
    small = [(n, t) for n, _, t in all_groups_up_to_8()]
    done = 0
    while done < 50:
        k = rng.randint(1, 3)
        picks = [rng.choice(small)[1] for _ in range(k)]
        if rng.random() < 0.4 and all(len(t.domain) <= 5 for t in picks):
            ms = disjoint_cyclic_union([rng.randint(1, 5) for _ in range(k)])
        else:
            if sum(len(t.domain) for t in picks) - (k - 1) > 16:
                continue
            ms = shared_identity_union(picks)
        subs = []
        for comp in ms.components:
            table = ms.op(comp.op_names[0])
            subs.append(rng.choice(subgroups_of(table, frozenset(comp.carrier))))
        view = SubsetView(ms, frozenset().union(*subs), tuple(t.name for t in ms.ops))
        union = frozenset(ms.element_union())
        cosets = coset_partition(view)
        assert frozenset().union(*cosets) == union
        assert sum(len(c) for c in cosets) == len(union)
        done += 1
    budget("coset partition", started, 60)


def test_a05_series_length_invariance():
    """All maximal chains share one length; for abelian G it equals Omega(|G|)."""
    started = time.monotonic()
    corpus = []
    for n in range(1, 17):
        for name, _, table in abelian_groups_of_order(n):
            corpus.append((name, n, table))
    assert len(corpus) == 25

    for name, n, table in corpus:
        ms = shared_identity_union([table])
        result = maximal_normal_series(ms, ["+1"])
        assert result.invariant, name
        assert result.length == oracles.omega(n), name
        profile_lengths, profile_count = series_length_profile(ms, ["+1"])
        assert profile_lengths == result.lengths and profile_count == result.chain_count

    pair_count = 0
    for (na, a, ta), (nb, b, tb) in itertools.combinations_with_replacement(corpus, 2):
        if a + b - 1 > 24:
            continue  # stays inside the series programming's size bound
        ms = shared_identity_union([ta, tb])
        lengths, count = series_length_profile(ms, ["+1", "+2"])
        assert lengths == (oracles.omega(a) + oracles.omega(b),), (na, nb)
        assert count >= 1
        pair_count += 1
    assert pair_count >= 250
    budget("series-length invariance", started, 120)


def test_a06_multiideal_machinery():
    """Dual-oracle agreement on every subset of Z_n (n <= 12); Z6 chains."""
    started = time.monotonic()

    for n in range(1, 13):
        ms = zn_ring_space(n)
        found = set()
        for r in range(1, n + 1):
            for combo in itertools.combinations(range(n), r):
                sub = SubsetView(ms, frozenset(combo), ("+", "*"))
                # agreement between the componentwise and direct criteria is
                # asserted inside; disagreement raises InternalCheckError
                if is_multiideal(sub).verdict:
                    found.add(frozenset(combo))
                    assert is_submultiring(sub).verdict
        assert found == oracles.zn_ideals(n), n

    result = multiideal_chain(zn_ring_space(6), ["R1"])
    assert result.chain_count == 2
    assert result.lengths == (2,)
    budget("multi-ideal machinery", started, 60)


def test_a07_decomposition_exact():
    """Z6 and Z12 split into the known ideal pairs with exact reconstruction."""
    started = time.monotonic()
    comp6 = decompose_artin(zn_ring_space(6)).components[0]
    assert set(comp6.pieces) == {frozenset({0, 3}), frozenset({0, 2, 4})}
    comp12 = decompose_artin(zn_ring_space(12)).components[0]
    assert set(comp12.pieces) == {frozenset({0, 4, 8}), frozenset({0, 3, 6, 9})}
    for comp in (comp6, comp12):
        assert comp.intersections_trivial
        assert comp.reconstruction_exact  # r = sum of its projections, every r
        assert comp.unique_sums
        assert comp.pieces_are_ideals
    budget("idempotent decomposition", started, 5)


def _random_multivector(rng, ambient, max_components):
    vectors = sorted(span(ambient, [tuple(1 if j == i else 0 for j in range(ambient.n))
                                    for i in range(ambient.n)]))
    k = rng.randint(1, max_components)
    gens = [rng.sample(vectors, rng.randint(1, 3)) for _ in range(k)]
    return MultiVectorSpace.from_generators(ambient, gens)


def test_a08_basis_size_invariance():
    """20 random greedy orders per instance always produce equal-size bases."""
    started = time.monotonic()
    rng = random.Random(2024)
    ambients = [AmbientSpace(2, 4), AmbientSpace(3, 3)]
    for trial in range(30):
        ms = _random_multivector(rng, ambients[trial % 2], max_components=4)
        start = component_bases(ms)
        sizes = set()
        for _ in range(20):
            order = start[:]
            rng.shuffle(order)
            sizes.add(len(greedy_basis(ms, order=order)))
        assert len(sizes) == 1, trial
    budget("basis-size invariance", started, 60)


def test_a09_dimension_formula():
    """Formula equals greedy on every k <= 2 instance; the k=3 three-lines
    fixture reports 3 vs 2 with the disagreement flagged."""
    started = time.monotonic()
    rng = random.Random(99)
    for trial in range(100):
        ambient = AmbientSpace(2, 3) if trial % 2 else AmbientSpace(3, 3)
        ms = _random_multivector(rng, ambient, max_components=2)
        report = dim_formula(ms)
        assert report.agree, trial

    import pathlib
    from multispace import io

    fixture = pathlib.Path(__file__).parent / "fixtures" / "three_lines.vector.json"
    mvs = io.vector_space_from_dict(io.load_path(fixture))
    report = dim_formula(mvs)
    assert report.formula_value == 3
    assert report.greedy_value == 2
    assert not report.agree  # documented divergence, not a failure
    budget("dimension formula", started, 10)


def test_a10_metric_combinators():
    """SUM, WEIGHTED_SUM, bounded and MAX of random metrics always validate."""
    started = time.monotonic()
    rng = random.Random(1234)
    for trial in range(100):
        labels = [f"p{i}" for i in range(rng.randint(2, 8))]
        metrics = [random_metric(rng, labels) for _ in range(rng.randint(1, 3))]
        m = len(metrics)
        specs = [
            CombinatorSpec("sum"),
            CombinatorSpec("weighted_sum", weights=tuple(F(rng.randint(1, 7), rng.randint(1, 3)) for _ in range(m))),
            CombinatorSpec("bounded_sum"),
            CombinatorSpec("max"),
        ]
        for spec in specs:
            combined = combine_metrics(metrics, spec, seed=trial)
            assert validate_metric(combined).valid  # exact arithmetic, no tolerance
    budget("metric combinators", started, 30)


def _contraction_instance(rng, m):
    """A forest of components: every non-root maps bijectively onto its parent
    with distances halved; every root contracts into itself."""
    parent = [i if (i == 0 or rng.random() < 0.4) else rng.randrange(i) for i in range(m)]
    size = {}
    for i in range(m):
        size[i] = size[parent[i]] if parent[i] != i else rng.randint(1, 4)
    depth = {}

    def depth_of(i):
        if i not in depth:
            depth[i] = 0 if parent[i] == i else 1 + depth_of(parent[i])
        return depth[i]

    labels = {i: [f"c{i}p{j}" for j in range(size[i])] for i in range(m)}
    tables = []
    for i in range(m):
        scale = F(2) ** depth_of(i)  # parent distances are half of ours
        values = {labels[i][j]: scale * F(3) ** j - scale for j in range(size[i])}
        tables.append(MetricTable.from_line(values))
    mapping = {}
    for i in range(m):
        if parent[i] == i:
            # pull toward the least point: ratios are 1/3 on the 3^j line
            for j in range(size[i]):
                mapping[labels[i][j]] = labels[i][max(j - 1, 0)]
        else:
            for j in range(size[i]):
                mapping[labels[i][j]] = labels[parent[i]][j]
    return MultiMetricSpace(tables), MappingTable(mapping)


def test_a11_fixed_point_bound():
    """>= 100 verified contractions: fixed-point count within [1, m] and every
    seed orbit stabilises at a reported fixed point within |union| steps."""
    started = time.monotonic()
    rng = random.Random(77)
    seen_counts = set()
    for trial in range(100):
        m = rng.randint(1, 4)
        ms, T = _contraction_instance(rng, m)
        contraction = is_contraction(ms, T)
        assert contraction.verdict and contraction.alpha < 1, trial
        report = fixed_points(ms, T)
        assert 1 <= report.count <= ms.m, trial
        assert report.bound_ok and report.orbits_ok, trial
        for orbit in report.orbits:
            assert orbit.stabilized and orbit.settles_at in report.points
        seen_counts.add(report.count)
    assert {1, 2} <= seen_counts  # both bound ends get exercised
    budget("fixed-point bound", started, 60)


def test_a12_automorphism_pattern():
    """|Aut| of k equal-order disjoint cyclic components is phi(m)^k * k!."""
    started = time.monotonic()

    def phi(n):
        return sum(1 for i in range(1, n + 1) if math.gcd(i, n) == 1)

    for m, k in ((2, 2), (3, 2), (3, 3), (4, 2)):
        ms = disjoint_cyclic_union([m] * k)
        auts = automorphisms(ms)
        assert len(auts) == phi(m) ** k * math.factorial(k), (m, k)
    budget("automorphism pattern", started, 60)


def test_a13_subgroup_lattice_budget():
    """The 30 subgroups of S4, the largest group the series corpus holds,
    in under 30 ms, best of three runs."""
    _, s4 = symmetric_table(4)
    carrier = frozenset(s4.domain)
    best = math.inf
    for _ in range(3):
        started = time.perf_counter()
        subs = subgroups_of(s4, carrier)
        best = min(best, time.perf_counter() - started)
    assert len(subs) == 30
    assert best < 0.030, f"subgroups_of on S4 took {best * 1000:.1f} ms, budget 30 ms"
    print(f"[acceptance] S4 subgroup lattice: PASS ({best * 1000:.1f} ms)")


def test_a14_composition_series_budget():
    """The three composition series of S4, from its subgroup lattice with
    normality tested on generators, in under 6 ms, best of three runs."""
    _, s4 = symmetric_table(4)
    best = math.inf
    for _ in range(3):
        started = time.perf_counter()
        result = composition_series(s4)
        best = min(best, time.perf_counter() - started)
    assert (result.lengths, result.chain_count) == ((4,), 3)
    assert best < 0.006, f"composition_series on S4 took {best * 1000:.1f} ms, budget 6 ms"
    print(f"[acceptance] S4 composition series: PASS ({best * 1000:.1f} ms)")


def test_a15_bounded_sum_budget():
    """rho/(1+rho) of three metrics on seven points, its hypotheses checked
    and its table built on integers, in under 5 ms, best of three runs."""
    rng = random.Random(15)
    labels = [f"p{i}" for i in range(7)]
    metrics = [random_metric(rng, labels) for _ in range(3)]
    best = math.inf
    for _ in range(3):
        started = time.perf_counter()
        combined = combine_metrics(metrics, CombinatorSpec("bounded_sum"), seed=15)
        best = min(best, time.perf_counter() - started)
    assert combined.d[0][1] == sum(t.d[0][1] / (1 + t.d[0][1]) for t in metrics)
    assert best < 0.005, f"bounded_sum combine_metrics took {best * 1000:.1f} ms, budget 5 ms"
    print(f"[acceptance] bounded_sum combinator: PASS ({best * 1000:.1f} ms)")


def test_a16_series_profile_budget():
    """The 315 maximal normal series of Z2xZ2xZ2xZ2, the group behind the
    slowest series instances, profiled from its subgroup lattice by one
    descending scan per part, in under 3.8 ms, best of three runs."""
    _, z2_4 = direct_product_table([2, 2, 2, 2])
    ms = shared_identity_union([z2_4])
    best = math.inf
    for _ in range(3):
        started = time.perf_counter()
        profile = series_length_profile(ms, ["+1"])
        best = min(best, time.perf_counter() - started)
    assert profile == ((4,), 315)
    assert best < 0.0038, f"series_length_profile on Z2xZ2xZ2xZ2 took {best * 1000:.1f} ms, budget 3.8 ms"
    print(f"[acceptance] Z2xZ2xZ2xZ2 series profile: PASS ({best * 1000:.1f} ms)")
