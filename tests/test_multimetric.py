import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multispace.errors import (
    CombinatorError,
    ContractError,
    InputError,
    ShapeError,
    UnknownNameError,
)
from multispace.multimetric import (
    COMBINATOR_SAMPLES,
    CombinatorSpec,
    MappingTable,
    MetricTable,
    MultiMetricSpace,
    MetricVerdict,
    SequenceSpec,
    _integer_route,
    _on_unit,
    _sample_tuples,
    _scaled,
    analyze_sequence,
    combine_metrics,
    fixed_points,
    is_contraction,
    r_disk,
    validate_metric,
)

import oracles
from conftest import outcome


def random_metric(rng, labels):
    """Either an embedded-line metric or a [1,2]-valued one (both exact)."""
    if rng.random() < 0.5:
        values = rng.sample(range(0, 64), len(labels))
        den = rng.randint(1, 4)
        return MetricTable.from_line({lab: F(v, den) for lab, v in zip(labels, values)})
    n = len(labels)
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = F(rng.randint(8, 16), 8)  # within [1,2]
    return MetricTable.from_rows(labels, rows)


def mixed_metric(rng, labels):
    """An embedded-line metric whose points carry their own denominators."""
    values: dict = {}
    while len(values) < len(labels):
        values.setdefault(F(rng.randint(0, 60), rng.randint(1, 9)), labels[len(values)])
    return MetricTable.from_line({lab: v for v, lab in values.items()})


def combined_by_oracle(metrics, spec, seed=0):
    """``oracles.combine_metrics`` on the samples ``oracles.sample_tuples`` draws at ``seed``."""
    samples = oracles.sample_tuples(metrics, random.Random(seed), COMBINATOR_SAMPLES)
    return oracles.combine_metrics(metrics, spec, samples)


def builtin_specs(rng, m, dens=(2, 3, 4, 5)):
    """Every built-in kind; weights with denominators drawn from ``dens``."""
    weights = tuple(F(rng.randint(1, 7), rng.choice(dens)) for _ in range(m))
    return [
        CombinatorSpec("sum"),
        CombinatorSpec("weighted_sum", weights=weights),
        CombinatorSpec("bounded_sum"),
        CombinatorSpec("max"),
    ]


def samples_on_unit(metrics, rng):
    """``(unit, samples)``: the common unit of ``metrics`` and the int samples drawn on it."""
    unit, grids = _on_unit([_scaled(t) for t in metrics])
    return unit, _sample_tuples(grids, unit, rng, COMBINATOR_SAMPLES)


class TestValidation:
    def test_line_metric_valid(self):
        t = MetricTable.from_line({"0": 0, "1": 1, "2": 2, "4": 4})
        assert validate_metric(t).valid

    def test_definiteness_witness(self):
        t = MetricTable.from_rows(["a", "b"], [[0, 0], [0, 0]])
        verdict = validate_metric(t)
        assert not verdict.valid and verdict.axiom == "definiteness"

    def test_triangle_witness(self):
        t = MetricTable.from_rows(["a", "b", "c"], [[0, 1, 3], [1, 0, 1], [3, 1, 0]])
        verdict = validate_metric(t)
        assert not verdict.valid and verdict.axiom == "triangle"

    def test_symmetry_witness(self):
        t = MetricTable.from_rows(["a", "b"], [[0, 1], [2, 0]])
        verdict = validate_metric(t)
        assert not verdict.valid and verdict.axiom == "symmetry"

    def test_space_rejects_invalid_component(self):
        bad = MetricTable.from_rows(["a", "b"], [[0, 0], [0, 0]])
        with pytest.raises(ContractError):
            MultiMetricSpace([bad])

    def test_space_rejects_empty_component(self):
        # beside a-b at distance 1 it made the identity map a contraction with alpha 0
        line = MetricTable.from_rows(["a", "b"], [[0, 1], [1, 0]])
        with pytest.raises(ContractError, match="^component 2 has no points$"):
            MultiMetricSpace([line, MetricTable((), ())])

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_random_generators_produce_metrics(self, seed):
        rng = random.Random(seed)
        t = random_metric(rng, ["a", "b", "c", "d"])
        assert validate_metric(t).valid


class TestCombinators:
    def test_sum_of_two_copies(self):
        t = MetricTable.from_line({"0": 0, "1": 1, "2": 2})
        combined = combine_metrics([t, t], CombinatorSpec("sum"))
        assert combined.dist("0", "2") == 4
        assert validate_metric(combined).valid

    def test_bounded_value_from_line(self):
        t = MetricTable.from_line({"0": 0, "1": 1, "3": 3})
        combined = combine_metrics([t], CombinatorSpec("bounded_sum"))
        assert combined.dist("0", "3") == F(3, 4)

    def test_max_of_two(self):
        a = MetricTable.from_line({"x": 0, "y": 2, "z": 5})
        b = MetricTable.from_line({"x": 0, "y": 4, "z": 5})
        combined = combine_metrics([a, b], CombinatorSpec("max"))
        assert combined.dist("x", "y") == 4
        assert validate_metric(combined).valid

    def test_weighted_sum(self):
        t = MetricTable.from_line({"0": 0, "1": 1})
        combined = combine_metrics([t, t], CombinatorSpec("weighted_sum", weights=(F(1, 2), F(3, 2))))
        assert combined.dist("0", "1") == 2

    def test_weights_must_be_positive(self):
        t = MetricTable.from_line({"0": 0, "1": 1})
        with pytest.raises(InputError):
            combine_metrics([t, t], CombinatorSpec("weighted_sum", weights=(F(0), F(1))))

    def test_point_set_mismatch(self):
        a = MetricTable.from_line({"0": 0, "1": 1})
        b = MetricTable.from_line({"0": 0, "2": 2})
        with pytest.raises(ShapeError):
            combine_metrics([a, b], CombinatorSpec("sum"))

    def test_custom_rejected_when_zero_degenerate(self):
        t = MetricTable.from_line({"0": 0, "1": 1})
        with pytest.raises(CombinatorError):
            combine_metrics([t, t], CombinatorSpec("custom", fn=lambda xs: xs[0] * 0))

    def test_custom_product_rejected(self):
        # the product vanishes on axis tuples, violating zero-only-at-zero
        t = MetricTable.from_line({"0": 0, "1": 1, "2": 2})
        with pytest.raises(CombinatorError):
            combine_metrics([t, t], CombinatorSpec("custom", fn=lambda xs: xs[0] * xs[1]))

    def test_admissible_custom_accepted(self):
        t = MetricTable.from_line({"0": 0, "1": 1, "2": 2})
        combined = combine_metrics(
            [t, t], CombinatorSpec("custom", fn=lambda xs: 2 * xs[0] + 3 * xs[1])
        )
        assert validate_metric(combined).valid

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_all_builtins_always_give_metrics(self, seed):
        rng = random.Random(seed)
        labels = [f"p{i}" for i in range(rng.randint(2, 6))]
        metrics = [random_metric(rng, labels) for _ in range(rng.randint(1, 3))]
        m = len(metrics)
        specs = [
            CombinatorSpec("sum"),
            CombinatorSpec("max"),
            CombinatorSpec("bounded_sum"),
            CombinatorSpec("weighted_sum", weights=tuple(F(rng.randint(1, 5)) for _ in range(m))),
        ]
        for spec in specs:
            assert validate_metric(combine_metrics(metrics, spec)).valid


class TestExactEntries:
    @pytest.mark.parametrize("bad", [0.5, True, "1/2", None])
    def test_non_exact_entry_rejected(self, bad):
        with pytest.raises(ContractError, match="not an exact rational"):
            MetricTable(("a", "b"), ((0, bad), (bad, 0)))

    @pytest.mark.parametrize("bad", [True, (1.5, 2), (3, 2.0), [True, 2], "x", "1/0", (1, 0), [2, 0]])
    def test_rows_read_exactly(self, bad):
        with pytest.raises(InputError, match="as an exact rational$"):
            MetricTable.from_rows(["a", "b"], [[0, bad], [bad, 0]])
        assert MetricTable.from_rows(["a", "b"], [[0, (3, 2)], [[3, 2], 0]]).d[0][1] == F(3, 2)
        assert MetricTable.from_rows(["a", "b"], [[0, "3/2"], ["3/2", 0]]).d[0][1] == F(3, 2)

    @pytest.mark.parametrize("pair", [(F(3, 2), 1), [3, F(2)], (F(9, 4), F(3, 2)), (-3, -2)])
    def test_fraction_parts_read_exactly(self, pair):
        # int() on each part read (F(3, 2), 1) as 1
        assert MetricTable.from_rows(["a", "b"], [[0, pair], [pair, 0]]).d[0][1] == F(3, 2)

    def test_float_grid_never_validated(self):
        with pytest.raises(ContractError):
            validate_metric(MetricTable(("a", "b"), ((0, 0.5), (0.5, 0))))

    def test_int_and_fraction_entries_accepted(self):
        t = MetricTable(("a", "b"), ((0, F(1, 2)), (F(1, 2), 0)))
        assert validate_metric(t).valid
        assert validate_metric(MetricTable(("a", "b"), ((0, 3), (3, 0)))).valid

    INT_GRIDS = [
        ((0, 1), (1, 0)),
        ((0, 3, 3), (3, 0, 3), (3, 3, 0)),
        ((0, 2, 3), (2, 0, 1), (3, 1, 0)),
    ]

    @staticmethod
    def twins(grid):
        """The grid as a table of ints and as a table of Fractions."""
        points = tuple("abc"[: len(grid)])
        return MetricTable(points, grid), MetricTable(points, tuple(tuple(map(F, row)) for row in grid))

    def test_int_entries_stored_as_fractions(self):
        for grid in self.INT_GRIDS:
            ints, fracs = self.twins(grid)
            assert ints == fracs
            assert all(type(x) is F for row in ints.d for x in row)

    @pytest.mark.parametrize("kind", ["sum", "weighted_sum", "bounded_sum", "max", "custom"])
    def test_int_and_fraction_tables_combine_alike(self, kind):
        seen = []

        def total(xs):
            seen.extend(xs)
            return sum(xs, F(0))

        for grid, m in itertools.product(self.INT_GRIDS, (1, 2)):
            spec = CombinatorSpec(kind, weights=(F(1, 2), 3)[:m], fn=total)
            ints, fracs = self.twins(grid)
            got = outcome(combine_metrics, [ints] * m, spec, seed=m)
            assert got == outcome(combine_metrics, [fracs] * m, spec, seed=m)
            assert isinstance(got, MetricTable), got
        assert all(type(x) is F for x in seen)

    def test_int_and_fraction_tables_map_alike(self):
        maps = [
            {"a": "a", "b": "a", "c": "a"},
            {"a": "b", "b": "c", "c": "a"},
            {"a": "b", "b": "a", "c": "c"},
        ]
        for grid in self.INT_GRIDS:
            ints, fracs = (MultiMetricSpace([t]) for t in self.twins(grid))
            for mapping in maps:
                T = MappingTable({p: mapping[p] for p in ints.union_points()})
                if set(T.mapping.values()) <= set(ints.union_points()):  # a self-map
                    report = is_contraction(ints, T)
                    assert report == is_contraction(fracs, T)
                    assert all(type(alpha) is F for _, _, alpha in report.component_map)
                    assert fixed_points(ints, T) == fixed_points(fracs, T)
            for radius in (1, F(5, 2), 3, 4):
                assert r_disk(ints, "a", radius) == r_disk(fracs, "a", radius)
        ms = MultiMetricSpace([MetricTable(("a", "b", "c"), self.INT_GRIDS[1])])
        alpha = is_contraction(ms, MappingTable({"a": "b", "b": "c", "c": "a"})).alpha
        assert alpha == 1 and type(alpha) is F

    def test_index_by_label(self):
        t = MetricTable.from_line({"x": 0, "y": 1, "z": 3})
        assert [t.index(p) for p in ("x", "y", "z")] == [0, 1, 2]
        assert t.dist("z", "x") == 3
        with pytest.raises(UnknownNameError):
            t.index("w")


class TestErrorMessages:
    LINE = MetricTable.from_line({"a": 0, "b": 1})

    @pytest.mark.parametrize(
        "call, error, message",
        [
            (lambda: MultiMetricSpace([]), ContractError, "a multi-metric space needs at least one component"),
            (lambda: combine_metrics([], CombinatorSpec("sum")), ContractError, "need at least one metric"),
            (lambda: CombinatorSpec("weighted_sum").function(2), InputError,
             "weighted_sum needs one positive weight per metric"),
            (lambda: CombinatorSpec("weighted_sum", weights=(1,)).function(2), InputError,
             "weighted_sum needs one positive weight per metric"),
            (lambda: CombinatorSpec("weighted_sum", weights=("1/0", 1)).function(2), InputError,
             "cannot read '1/0' as an exact rational"),
            (lambda: CombinatorSpec("custom").function(1), InputError, "custom combinator needs a callable"),
            (lambda: CombinatorSpec("median").function(1), InputError, "unknown combinator kind 'median'"),
            (lambda: SequenceSpec((), "periodic", ()), InputError, "tail must be non-empty"),
            (lambda: SequenceSpec((), "constant", ("a", "b")), InputError, "constant tails list exactly one point"),
        ],
        ids=["no-components", "no-metrics", "no-weights", "one-weight-short", "zero-denominator-weight", "no-callable",
             "unknown-kind", "empty-tail", "long-constant-tail"],
    )
    def test_message(self, call, error, message):
        assert outcome(call) == (error, message)

    def test_disk_arguments(self):
        ms = MultiMetricSpace([self.LINE])
        for radius in (0, F(-1, 2)):
            assert outcome(r_disk, ms, "a", radius) == (ContractError, "disk radius must be positive")
        assert outcome(r_disk, ms, "z", 1) == (ContractError, "point 'z' is not in the space")
        assert outcome(r_disk, ms, "a", "x") == (InputError, "cannot read 'x' as an exact rational")

    def test_image_outside_the_space(self):
        ms = MultiMetricSpace([self.LINE])
        T = MappingTable({"a": "a", "b": "z"})
        assert outcome(is_contraction, ms, T) == (InputError, "image point 'z' is outside the space")


class TestCombineInputs:
    NEGATIVE = MetricTable.from_rows(["a", "b"], [[0, -1], [-1, 0]])

    @pytest.mark.parametrize("kind", ["sum", "bounded_sum", "max"])
    def test_non_metric_input_named(self, kind):
        with pytest.raises(ContractError, match=r"^metric 1 violates nonnegativity at \('a', 'b'\)$"):
            combine_metrics([self.NEGATIVE], CombinatorSpec(kind))

    def test_later_input_named_by_position(self):
        good = MetricTable.from_line({"a": 0, "b": 1})
        asym = MetricTable.from_rows(["a", "b"], [[0, 1], [2, 0]])
        with pytest.raises(ContractError, match=r"^metric 2 violates symmetry at \('a', 'b'\)$"):
            combine_metrics([good, asym], CombinatorSpec("sum"))


class TestSamples:
    def test_noise_table_draws_the_reference_stream(self):
        """The samples, read on their unit, equal the reference's Fraction tuples,
        noise Fraction(randint(0, 24), randint(1, 8)) drawn anew, and leave the
        generator in the same state: seeds 0-199, each with m = 1..4 grids on
        n = 1 + seed % 12 points, so that n >= 11 drops realised tuples.  The grids
        are asymmetric, which pins the realised tuples row by row, and their
        denominators include 11, 13 and 17, which share no factor with 840."""
        for seed, m in itertools.product(range(200), range(1, 5)):
            n = 1 + seed % 12
            dens = [(k + 2, 11, 13, 17)[(seed + k) % 4] for k in range(m)]
            metrics = [MetricTable.from_rows([f"p{i}" for i in range(n)],
                                             [[F(i * n + j + k, den) for j in range(n)] for i in range(n)])
                       for k, den in enumerate(dens)]
            rng, reference_rng = random.Random(seed), random.Random(seed)
            unit, got = samples_on_unit(metrics, rng)
            assert [tuple(F(x, unit) for x in xs) for xs in got] == oracles.sample_tuples(
                metrics, reference_rng, COMBINATOR_SAMPLES)
            assert rng.getstate() == reference_rng.getstate()
            assert all(type(x) is int and x % 2 == 0 for xs in got for x in xs)  # halves stay integral


class TestIntegerRoute:
    """Every built-in kind checks its hypotheses on ints on the common unit.  F on
    a sample, on its half and on a mirrored sum must give an unreduced pair (p, q),
    q > 0, with p/q equal to F on the Fractions it stands for."""

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_scaled_values_are_exact_pairs(self, seed):
        rng = random.Random(seed)
        labels = [f"p{i}" for i in range(rng.randint(2, 6))]
        metrics = [mixed_metric(rng, labels) for _ in range(rng.randint(1, 3))]
        unit, scaled = samples_on_unit(metrics, random.Random(seed))
        samples = [tuple(F(x, unit) for x in a) for a in scaled]
        for spec in builtin_specs(rng, len(metrics), (2, 3, 11, 13, 17)):
            fn = spec.function(len(metrics))
            g = _integer_route(spec, fn, unit)

            def exact(a):
                p, q = g(a)
                assert type(p) is int and type(q) is int and q > 0
                return F(p, q)

            for xs, a in zip(samples, scaled):
                assert exact(a) == fn(xs)
                assert exact(tuple(x // 2 for x in a)) == fn(tuple(x / 2 for x in xs))
            for k in range(len(samples)):
                added = tuple(x + y for x, y in zip(scaled[k], scaled[-1 - k]))
                sums = tuple(x + y for x, y in zip(samples[k], samples[-1 - k]))
                assert exact(added) == fn(sums)

    def test_custom_sees_fractions(self):
        seen = []

        def total(xs):
            seen.append(xs)
            return sum(xs)

        g = _integer_route(CombinatorSpec("custom", fn=total), total, 1680)
        assert g((560, 0)) == (1, 3)
        assert seen == [(F(1, 3), F(0))] and all(type(x) is F for x in seen[0])


class TestCombineMatchesReference:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_builtins_give_reference_tables(self, seed):
        rng = random.Random(seed)
        labels = [f"p{i}" for i in range(rng.randint(1, 7))]
        make = mixed_metric if rng.random() < 0.5 else random_metric
        metrics = [make(rng, labels) for _ in range(rng.randint(1, 3))]
        for spec in builtin_specs(rng, len(metrics)):
            combined = combine_metrics(metrics, spec, seed=seed)
            assert combined == combined_by_oracle(metrics, spec, seed=seed)
            assert all(type(x) is F for row in combined.d for x in row)

    @pytest.mark.parametrize("n", range(8, 13))
    def test_builtins_match_on_many_points_and_coprime_denominators(self, n):
        """8-12 points, where n >= 11 is the first size whose pool drops realised
        tuples, with metric and weight denominators 11, 13 and 17, which share
        no factor with 840."""
        for seed in range(4):
            rng = random.Random(100 * n + seed)
            labels = [f"p{i}" for i in range(n)]
            metrics = []
            for _ in range(rng.randint(1, 3)):
                values: dict = {}
                while len(values) < n:
                    values.setdefault(F(rng.randint(0, 300), rng.choice((1, 11, 13, 17))), labels[len(values)])
                metrics.append(MetricTable.from_line({lab: v for v, lab in values.items()}))
            for spec in builtin_specs(rng, len(metrics), (11, 13, 17)):
                combined = combine_metrics(metrics, spec, seed=seed)
                assert combined == combined_by_oracle(metrics, spec, seed=seed)

    def test_custom_breaking_the_combined_table(self):
        """F passes all 120 samples but lifts one realised distance far above
        the two it should stay under, so only the table's own validation fails."""
        t = MetricTable.from_line({"a": 0, "b": F(6, 11), "c": F(13, 11)})
        spec = CombinatorSpec("custom", fn=lambda xs: 100 if xs[0] == F(13, 11) else xs[0])
        got = outcome(combine_metrics, [t], spec, seed=0)
        assert got == (CombinatorError, "combined table violates triangle at ('a', 'b', 'c')")
        assert got == outcome(combined_by_oracle, [t], spec, seed=0)

    @pytest.mark.parametrize(
        "fn",
        [
            lambda xs: sum(xs) + 1,  # F(0,...,0) != 0
            lambda xs: xs[0] * xs[1],  # zero away from zero
            lambda xs: xs[0] - xs[1] if xs[0] > xs[1] else xs[1] - xs[0],  # zero on the diagonal
            lambda xs: -sum(xs),  # not monotone
            lambda xs: sum(xs) ** 2,  # not superadditive-compatible
            lambda xs: max(xs) if max(xs) < 4 else 1 + max(xs) / 100,  # monotone only below 4
        ],
        ids=["zero", "product", "difference", "negated", "square", "dip"],
    )
    def test_failing_custom_same_first_failure(self, fn):
        rng = random.Random(5)
        labels = ["a", "b", "c", "d"]
        metrics = [mixed_metric(rng, labels), mixed_metric(rng, labels)]
        spec = CombinatorSpec("custom", fn=fn)
        for seed in range(3):
            got = outcome(combine_metrics, metrics, spec, seed=seed)
            assert got == outcome(combined_by_oracle, metrics, spec, seed=seed)
            assert got[0] is CombinatorError

    def test_raising_custom_raises_at_the_same_sample(self):
        def fn(xs):
            if sum(xs) > 7:
                raise ValueError(f"refused {xs}")
            return sum(xs)

        t = MetricTable.from_line({"a": 0, "b": F(3, 2), "c": F(9, 4)})
        for seed in range(5):
            got = outcome(combine_metrics, [t, t], CombinatorSpec("custom", fn=fn), seed=seed)
            want = outcome(combined_by_oracle, [t, t], CombinatorSpec("custom", fn=fn), seed=seed)
            assert got == want and got[0] is ValueError

    def test_custom_evaluated_once_per_sample_in_reference_order(self):
        def recording(log):
            def fn(xs):
                log.append(xs)
                return 2 * xs[0] + xs[1]

            return fn

        t = MetricTable.from_line({"a": 0, "b": 1, "c": F(5, 3)})
        calls, reference_calls = [], []
        combined = combine_metrics([t, t], CombinatorSpec("custom", fn=recording(calls)))
        want = combined_by_oracle([t, t], CombinatorSpec("custom", fn=recording(reference_calls)))
        assert combined == want
        # once at zero, at every sample, its half and its mirrored sum, then every
        # entry above the diagonal: the table is mirrored, with F(0) on the diagonal
        assert len(calls) == 1 + 3 * COMBINATOR_SAMPLES + math.comb(len(t.points), 2)
        assert first_occurrences(calls) == first_occurrences(reference_calls)


def first_occurrences(calls):
    out = []
    for xs in calls:
        if xs not in out:
            out.append(xs)
    return out


def perturbed_grid(rng, axiom):
    """A metric grid with one entry pair broken so that ``axiom`` is hit."""
    labels = [f"q{i}" for i in range(rng.randint(2, 6))]
    grid = [list(row) for row in mixed_metric(rng, labels).d]
    n = len(labels)
    a, b = rng.sample(range(n), 2)
    if axiom == "nonnegativity":
        grid[a][b] = -F(rng.randint(1, 9), rng.randint(1, 7))
    elif axiom == "definiteness":
        if rng.random() < 0.5:
            grid[a][a] = F(rng.randint(1, 9), rng.randint(1, 7))
        else:
            grid[a][b] = grid[b][a] = F(0)
    elif axiom == "symmetry":
        grid[a][b] += F(rng.randint(1, 9), rng.randint(1, 7))
    else:
        grid[a][b] = grid[b][a] = sum(grid[a]) + sum(grid[b]) + F(1, rng.randint(1, 7))
    return labels, grid


exact_entry = st.builds(F, st.integers(-3, 12), st.integers(1, 6))


class TestValidateMatchesReference:
    @pytest.mark.parametrize("axiom", ["nonnegativity", "definiteness", "symmetry", "triangle"])
    def test_broken_axiom_same_first_witness(self, axiom):
        rng = random.Random(axiom)
        hits = 0
        for _ in range(200):
            labels, grid = perturbed_grid(rng, axiom)
            t = MetricTable.from_rows(labels, grid)
            verdict = validate_metric(t)
            assert verdict == oracles.validate_metric(t)
            hits += verdict.axiom == axiom
        assert hits >= 100

    @given(st.integers(1, 5).flatmap(lambda n: st.lists(
        st.lists(exact_entry, min_size=n, max_size=n), min_size=n, max_size=n)))
    @settings(max_examples=300, deadline=None)
    def test_random_grids_same_verdict(self, grid):
        labels = [f"r{i}" for i in range(len(grid))]
        t = MetricTable.from_rows(labels, grid)
        assert validate_metric(t) == oracles.validate_metric(t)

    @given(st.integers(0, 10_000), st.sampled_from(["symmetry", "triangle"]))
    @settings(max_examples=100, deadline=None)
    def test_generated_breaks_same_first_witness(self, seed, axiom):
        labels, grid = perturbed_grid(random.Random(seed), axiom)
        for a, b in itertools.combinations(range(len(labels)), 2):
            t = MetricTable.from_rows(labels, grid)
            assert validate_metric(t) == oracles.validate_metric(t)
            grid[a][b], grid[b][a] = grid[b][a], grid[a][b]

    def test_int_grid_same_verdict(self):
        t = MetricTable(("a", "b", "c"), ((0, 1, 3), (1, 0, 1), (3, 1, 0)))
        assert validate_metric(t) == oracles.validate_metric(t) == MetricVerdict(
            False, "triangle", ("a", "b", "c")
        )


class TestDisks:
    def test_line_disk(self):
        ms = MultiMetricSpace([MetricTable.from_line({"0": 0, "1": 1, "2": 2})])
        assert r_disk(ms, "0", F(3, 2)) == ("0", "1")

    def test_tiny_radius_only_center(self):
        ms = MultiMetricSpace([MetricTable.from_line({"0": 0, "1": 1})])
        assert r_disk(ms, "1", F(1, 2)) == ("1",)

    def test_existential_over_components(self):
        near = MetricTable.from_rows(["x", "y"], [[0, F(1, 4)], [F(1, 4), 0]])
        far = MetricTable.from_rows(["x", "y"], [[0, 10], [10, 0]])
        ms = MultiMetricSpace([far, near])
        assert "y" in r_disk(ms, "x", F(1, 2))

    def test_center_always_included(self):
        ms = MultiMetricSpace([MetricTable.from_line({"a": 0, "b": 7})])
        assert "a" in r_disk(ms, "a", F(1, 100))


class TestNestedDisks:
    def test_shrinking_nested_disks_meet_in_one_point(self):
        # finite specialisation: radii below the least positive distance
        # leave singleton disks, so a nested shrinking family meets in the
        # single point the centers settle on
        ms = MultiMetricSpace([MetricTable.from_line({"a": 0, "b": 1, "c": 3})])
        schedule = [("c", F(4)), ("b", F(3)), ("b", F(1)), ("b", F(1, 2)), ("b", F(1, 4))]
        disks = [set(r_disk(ms, center, radius)) for center, radius in schedule]
        for bigger, smaller in zip(disks, disks[1:]):
            assert smaller <= bigger
        meet = set.intersection(*disks)
        assert meet == {"b"}


class TestSequences:
    def space(self):
        m1 = MetricTable.from_line({"a": 0, "b": 1})
        m2 = MetricTable.from_line({"c": 0, "d": 2})
        return MultiMetricSpace([m1, m2])

    def test_constant_tail_converges(self):
        report = analyze_sequence(self.space(), SequenceSpec(("a", "b"), "constant", ("c",)))
        assert report.convergent and report.cauchy
        assert report.limit == "c" and report.tail_component == 1

    def test_alternating_tail_diverges(self):
        report = analyze_sequence(self.space(), SequenceSpec((), "periodic", ("b", "c")))
        assert not report.convergent and not report.cauchy

    def test_wandering_prefix_constant_tail(self):
        report = analyze_sequence(self.space(), SequenceSpec(("a", "c", "a"), "constant", ("d",)))
        assert report.convergent and report.tail_component == 1

    def test_periodic_single_point_is_constant(self):
        report = analyze_sequence(self.space(), SequenceSpec((), "periodic", ("b", "b")))
        assert report.convergent and report.limit == "b"

    def test_unknown_point_rejected(self):
        with pytest.raises(InputError):
            analyze_sequence(self.space(), SequenceSpec((), "constant", ("zz",)))

    def test_unsupported_tail_kind(self):
        with pytest.raises(InputError):
            SequenceSpec((), "chaotic", ("a",))


class TestContractions:
    def test_constant_map_alpha_zero(self):
        ms = MultiMetricSpace([MetricTable.from_line({"a": 0, "b": 1})])
        report = is_contraction(ms, MappingTable({"a": "a", "b": "a"}))
        assert report.verdict and report.alpha == 0

    def test_identity_not_contraction(self):
        ms = MultiMetricSpace([MetricTable.from_line({"a": 0, "b": 1})])
        report = is_contraction(ms, MappingTable({"a": "a", "b": "b"}))
        assert not report.verdict and report.alpha == 1

    def test_line_pullback_alpha_half(self):
        ms = MultiMetricSpace([MetricTable.from_line({"0": 0, "1": 1, "3": 3})])
        report = is_contraction(ms, MappingTable({"3": "1", "1": "0", "0": "0"}))
        assert report.verdict and report.alpha == F(1, 2)

    def test_strict_mode_requires_every_component(self):
        m1 = MetricTable.from_line({"a": 0, "b": 1})
        m2 = MetricTable.from_line({"c": 0, "d": 2})
        ms = MultiMetricSpace([m1, m2])
        # contracts M1 but swaps M2: existential yes, strict no
        T = MappingTable({"a": "a", "b": "a", "c": "d", "d": "c"})
        assert is_contraction(ms, T).verdict
        assert not is_contraction(ms, T, strict=True).verdict

    def test_mapping_must_cover_union(self):
        ms = MultiMetricSpace([MetricTable.from_line({"a": 0, "b": 1})])
        with pytest.raises(InputError):
            is_contraction(ms, MappingTable({"a": "a"}))


class TestFixedPoints:
    def test_two_component_constants(self):
        m1 = MetricTable.from_line({"a": 0, "b": 1})
        m2 = MetricTable.from_line({"c": 0, "d": 2})
        ms = MultiMetricSpace([m1, m2])
        T = MappingTable({"a": "a", "b": "a", "c": "c", "d": "c"})
        report = fixed_points(ms, T)
        assert report.points == ("a", "c")
        assert report.count == 2 and report.bound_ok
        assert report.orbits_ok

    def test_single_global_constant(self):
        m1 = MetricTable.from_line({"a": 0, "b": 1})
        m2 = MetricTable.from_line({"a": 0, "c": 2})
        ms = MultiMetricSpace([m1, m2])
        T = MappingTable({"a": "a", "b": "a", "c": "a"})
        report = fixed_points(ms, T)
        assert report.count == 1 and report.bound_ok

    def test_fixed_point_free_permutation(self):
        ms = MultiMetricSpace([MetricTable.from_line({"a": 0, "b": 1})])
        T = MappingTable({"a": "b", "b": "a"})
        report = fixed_points(ms, T)
        assert report.count == 0
        assert report.bound_ok is None and report.orbits_ok is None

    def test_orbits_stabilize_within_union_size(self):
        m1 = MetricTable.from_line({"a": 0, "b": 4, "c": 8})
        m2 = MetricTable.from_line({"x": 0, "y": 1, "z": 2})
        ms = MultiMetricSpace([m1, m2])
        # M1 maps into M2 with ratio 1/4, M2 contracts to x
        T = MappingTable({"a": "x", "b": "y", "c": "z", "x": "x", "y": "x", "z": "x"})
        report = fixed_points(ms, T)
        assert is_contraction(ms, T).verdict
        assert report.bound_ok and report.orbits_ok
        for orbit in report.orbits:
            assert orbit.stabilized and orbit.settles_at in report.points
