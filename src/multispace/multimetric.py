"""Finite multi-metric spaces over exact rationals: axiom validation, metric
combinators, disks, finitely-presented sequence analysis, contraction
detection, and fixed-point counting with orbit iteration.

No floating point appears in any verdict.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from collections import namedtuple
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Sequence

from .errors import CombinatorError, ContractError, InputError, ShapeError, UnknownNameError

COMBINATOR_SAMPLES = 120
_NOISE = tuple(tuple(a * 840 // (1 + b) for b in range(8)) for a in range(25))  # a/(1 + b) in 840ths


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    try:
        if isinstance(x, (tuple, list)) and len(x) == 2 and all(
            isinstance(k, (int, Fraction)) and not isinstance(k, bool) for k in x
        ):
            return Fraction(x[0], x[1])
        if isinstance(x, str):
            return Fraction(x)
    except (ValueError, ZeroDivisionError):  # an unreadable string or a zero denominator
        pass
    raise InputError(f"cannot read {x!r} as an exact rational")


class MetricTable(namedtuple("MetricTable", "points d")):
    """A symmetric nonnegative rational distance grid on labelled points;
    ``int`` entries are stored as ``Fraction``s."""

    __slots__ = ()

    def __new__(cls, points: tuple[str, ...], d: tuple[tuple[Fraction, ...], ...]):
        n = len(points)
        if len(set(points)) != n:
            raise ShapeError("duplicate point labels")
        if len(d) != n or any(len(row) != n for row in d):
            raise ShapeError(f"distance grid is not {n}x{n}")
        for row in d:
            for x in row:
                if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
                    raise ContractError(f"distance {x!r} is not an exact rational")
        if not all(isinstance(x, Fraction) for row in d for x in row):
            # int entries would turn halves and ratios into floats
            d = tuple(tuple(map(Fraction, row)) for row in d)
        return super().__new__(cls, points, d)

    @classmethod
    def from_rows(cls, points: Sequence[str], rows) -> "MetricTable":
        return cls(tuple(points), tuple(tuple(_frac(x) for x in row) for row in rows))

    @classmethod
    def from_line(cls, values: dict[str, Fraction]) -> "MetricTable":
        """|v(x) - v(y)| on labelled points embedded in the rational line."""
        points = tuple(values)
        rows = [[abs(_frac(values[a]) - _frac(values[b])) for b in points] for a in points]
        return cls.from_rows(points, rows)

    def index(self, label: str) -> int:
        try:
            return self.points.index(label)
        except ValueError:
            raise UnknownNameError(f"unknown point {label!r}") from None

    def dist(self, a: str, b: str) -> Fraction:
        return self.d[self.index(a)][self.index(b)]


class MetricVerdict(NamedTuple):
    valid: bool
    axiom: Optional[str]
    witness: Optional[tuple]


def _scaled(t: MetricTable) -> tuple[int, list[tuple[int, ...]]]:
    """``(scale, rows)``: the lcm of the grid's denominators and the grid times it, in ints."""
    ratios = [list(map(Fraction.as_integer_ratio, row)) for row in t.d]
    scale = math.lcm(*{q for row in ratios for _, q in row})
    return scale, [tuple([p * (scale // q) for p, q in row]) for row in ratios]


def validate_metric(t: MetricTable) -> MetricVerdict:
    """Exhaustive definiteness, symmetry and triangle checks with a witness.

    The checks run on ``_scaled(t)``, the grid as integers; every axiom is
    invariant under positive scaling."""
    return _verdict(t.points, _scaled(t)[1])


def _verdict(points: tuple[str, ...], d: list[tuple[int, ...]]) -> MetricVerdict:
    n = len(points)
    for i in range(n):
        for j in range(n):
            v = d[i][j]
            if v < 0:
                return MetricVerdict(False, "nonnegativity", (points[i], points[j]))
            if (v == 0) != (i == j):
                return MetricVerdict(False, "definiteness", (points[i], points[j]))
    for i in range(n):
        for j in range(i + 1, n):
            if d[i][j] != d[j][i]:
                return MetricVerdict(False, "symmetry", (points[i], points[j]))
    for i, j in itertools.product(range(n), repeat=2):
        di, dj, dij = d[i], d[j], d[i][j]
        for k in range(n):
            if dij + dj[k] < di[k]:
                return MetricVerdict(False, "triangle", (points[i], points[j], points[k]))
    return MetricVerdict(True, None, None)


class MultiMetricSpace:
    """A union of labelled metric components; shared labels are shared points."""

    def __init__(self, components: Sequence[MetricTable]):
        self.components = tuple(components)
        if not self.components:
            raise ContractError("a multi-metric space needs at least one component")
        for i, t in enumerate(self.components):
            if not t.points:
                raise ContractError(f"component {i + 1} has no points")
            verdict = validate_metric(t)
            if not verdict.valid:
                raise ContractError(
                    f"component {i + 1} violates {verdict.axiom} at {verdict.witness}"
                )

    @property
    def m(self) -> int:
        return len(self.components)

    def union_points(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(p for t in self.components for p in t.points))

    def components_containing(self, label: str) -> tuple[int, ...]:
        return tuple(i for i, t in enumerate(self.components) if label in t.points)


class CombinatorSpec(NamedTuple):
    """One of the admissible metric combinators, or a sampled custom one."""

    kind: str  # sum | weighted_sum | bounded_sum | max | custom
    weights: Optional[tuple[Fraction, ...]] = None
    fn: Optional[Callable] = None

    def function(self, m: int) -> Callable:
        if self.kind == "sum":
            return lambda xs: sum(xs, Fraction(0))
        if self.kind == "weighted_sum":
            if self.weights is None or len(self.weights) != m:
                raise InputError("weighted_sum needs one positive weight per metric")
            weights = tuple(_frac(w) for w in self.weights)
            if any(w <= 0 for w in weights):
                raise InputError("weights must be positive")
            return lambda xs: sum((w * x for w, x in zip(weights, xs)), Fraction(0))
        if self.kind == "bounded_sum":
            return lambda xs: sum((x / (1 + x) for x in xs), Fraction(0))
        if self.kind == "max":
            return lambda xs: max(xs)
        if self.kind == "custom":
            if self.fn is None:
                raise InputError("custom combinator needs a callable")
            return self.fn
        raise InputError(f"unknown combinator kind {self.kind!r}")


def _on_unit(forms) -> tuple[int, list]:
    """``(unit, grids)``: unit = 2 lcm(840, the forms' scales), x in a grid for x/unit."""
    unit = 2 * math.lcm(840, *(scale for scale, _ in forms))
    return unit, [[[x * (unit // scale) for x in row] for row in rows] for scale, rows in forms]


def _sample_tuples(grids, unit: int, rng: random.Random, count: int) -> list[tuple[int, ...]]:
    """Nonnegative m-tuples on ``unit``, a multiple of 840: the realised distance
    tuples row by row, plus noise a/(1 + b), with a and b the draws of
    randint(0, 24) and randint(1, 8) - 1, from a fixed table; shuffled, cut to ``count``."""
    pool = [xs for rows in zip(*grids) for xs in zip(*rows)]
    draw, c = rng.randrange, unit // 840
    noise = [_NOISE[draw(25)][draw(8)] * c for _ in range(len(grids) * (count - len(pool)))]
    pool.extend(zip(*[iter(noise)] * len(grids)))  # consecutive m-tuples
    rng.shuffle(pool)
    return pool[:count]


def _bounded_sum(xs, unit: int) -> tuple[int, int]:
    """Sum of x/(1 + x) = p/(p + unit) over x = p/unit >= 0, unreduced: den > 0."""
    num, den = 0, 1
    for p in xs:
        num, den = num * (p + unit) + p * den, den * (p + unit)
    return num, den


def _integer_route(spec: CombinatorSpec, fn: Callable, unit: int) -> Callable:
    """``g``: F of an int tuple on ``unit`` as an unreduced pair (p, q), q > 0.
    Built-in kinds run on the ints, a custom F on their Fractions."""
    if spec.kind == "custom":
        return lambda a: _frac(fn(tuple([Fraction(x, unit) for x in a]))).as_integer_ratio()
    if spec.kind == "bounded_sum":
        return lambda a: _bounded_sum(a, unit)
    if spec.kind == "sum":
        return lambda a: (sum(a), unit)
    if spec.kind == "max":
        return lambda a: (max(a), unit)
    # weighted_sum, its weights checked by spec.function
    ratios = [_frac(w).as_integer_ratio() for w in spec.weights]
    lcm = math.lcm(*(q for _, q in ratios))
    ws = [p * (lcm // q) for p, q in ratios]
    return lambda a: (sum(map(operator.mul, ws, a)), unit * lcm)


def combine_metrics(
    metrics: Sequence[MetricTable], spec: CombinatorSpec, seed: int = 0
) -> MetricTable:
    """Apply an m-ary combinator entrywise and validate the result as a metric.

    The inputs must be metrics.  The combinator's three admissibility
    hypotheses (monotonicity, zero only at zero, superadditivity) are first
    exercised on sampled tuples, F evaluated once per tuple; built-in kinds
    are proven cases, custom ones are sampled-not-proven.

    Every sample and every tuple of entries is an int tuple on one unit: x
    stands for x/unit, unit = 2 lcm(840, s_1, ..., s_m), s_k the scale of metric
    k.  Noise a/(1 + b) is exact on it, as 840 = lcm(1, ..., 8), and the factor
    2 keeps each half integral.  Built-in kinds run on the ints; a custom F
    sees Fraction(x, unit), the value drawn.

    Two loops run them in the reference order: zero only at zero and
    monotonicity, F(x) + F(0) >= F(x/2), at each sample x; then F(x) + F(y) >=
    F(x + y) at each x and its mirror y.  F gives pairs (p, q) with q > 0, so
    p/q + r/s < t/u iff (p*s + r*q)*u < t*q*s (both sides times q*s*u > 0),
    which at F(0) = 0/1 reads p*u < t*q, and p/q = 0 iff p = 0.  The inputs are symmetric with zero diagonals, so
    the table is F above the diagonal, mirrored, and F(0) = 0 on it.

    The table is then validated.  For a built-in kind that cannot fail: F is
    zero only at zero, monotone and subadditive on all nonnegative tuples, so
    F(d_ik) <= F(d_ij + d_jk) <= F(d_ij) + F(d_jk).  A custom F is only sampled.
    """
    if not metrics:
        raise ContractError("need at least one metric")
    points = metrics[0].points
    for t in metrics:
        if t.points != points:
            raise ShapeError("all metrics must share one point set, in one order")
    m = len(metrics)
    fn = spec.function(m)
    forms = [_scaled(t) for t in metrics]
    for i, (_, rows) in enumerate(forms):
        verdict = _verdict(points, rows)
        if not verdict.valid:
            raise ContractError(f"metric {i + 1} violates {verdict.axiom} at {verdict.witness}")
    zero = tuple(Fraction(0) for _ in range(m))
    if fn(zero) != 0:
        raise CombinatorError(f"F(0,...,0) = {fn(zero)} != 0")
    unit, grids = _on_unit(forms)
    samples = _sample_tuples(grids, unit, random.Random(seed), COMBINATOR_SAMPLES)
    g, n = _integer_route(spec, fn, unit), len(points)
    exact = lambda a: tuple([Fraction(x, unit) for x in a])  # only for messages
    values = []
    for a in samples:
        p, q = g(a)
        values.append((p, q))
        if p == 0 and any(a):
            raise CombinatorError(f"zero-only-at-zero fails at {exact(a)}")
        half = tuple([x // 2 for x in a])
        t, u = g(half)
        if p * u < t * q:  # F(x) + F(0) < F(x/2), F(0) = 0
            raise CombinatorError(f"monotonicity fails between {exact(half)} and {exact(a)}")
    pairs = list(zip(samples, values))
    for (a, (p, q)), (b, (r, s)) in zip(pairs, reversed(pairs)):
        t, u = g(tuple(map(operator.add, a, b)))
        if (p * s + r * q) * u < t * q * s:
            raise CombinatorError(f"superadditivity-compatibility fails at {exact(a)} + {exact(b)}")
    d = [[Fraction(0)] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        d[i][j] = d[j][i] = Fraction(*g(tuple([grid[i][j] for grid in grids])))
    combined = MetricTable(points, tuple(map(tuple, d)))
    verdict = validate_metric(combined)
    if not verdict.valid:
        raise CombinatorError(f"combined table violates {verdict.axiom} at {verdict.witness}")
    return combined


def r_disk(ms: MultiMetricSpace, x: str, radius) -> tuple[str, ...]:
    """Points within distance < radius of x in at least one shared component."""
    radius = _frac(radius)
    if radius <= 0:
        raise ContractError("disk radius must be positive")
    if not ms.components_containing(x):
        raise ContractError(f"point {x!r} is not in the space")
    out = []
    for y in ms.union_points():
        for k in ms.components_containing(x):
            t = ms.components[k]
            if y in t.points and t.dist(y, x) < radius:
                out.append(y)
                break
    return tuple(out)


class SequenceSpec(namedtuple("SequenceSpec", "prefix tail_kind tail")):
    """A finitely presented sequence: explicit prefix, then a repeating tail
    of kind ``constant`` or ``periodic``."""

    __slots__ = ()

    def __new__(cls, prefix: tuple[str, ...], tail_kind: str, tail: tuple[str, ...]):
        if tail_kind not in ("constant", "periodic"):
            raise InputError(f"unsupported tail kind {tail_kind!r}")
        if not tail:
            raise InputError("tail must be non-empty")
        if tail_kind == "constant" and len(tail) != 1:
            raise InputError("constant tails list exactly one point")
        return super().__new__(cls, prefix, tail_kind, tail)


class SequenceReport(NamedTuple):
    convergent: bool
    limit: Optional[str]
    cauchy: bool
    tail_component: Optional[int]


def analyze_sequence(ms: MultiMetricSpace, seq: SequenceSpec) -> SequenceReport:
    """In a finite space a sequence converges iff it is eventually constant,
    and that is also exactly the Cauchy condition; the limit is then unique
    and some suffix lives inside a single component."""
    for p in list(seq.prefix) + list(seq.tail):
        if not ms.components_containing(p):
            raise InputError(f"sequence point {p!r} is not in the space")
    cycle = seq.tail if seq.tail_kind == "periodic" else seq.tail[:1]
    if len(set(cycle)) == 1:
        limit = cycle[0]
        component = ms.components_containing(limit)[0]
        return SequenceReport(True, limit, True, component)
    return SequenceReport(False, None, False, None)


class MappingTable:
    """A self-map of the point union, given pointwise."""

    def __init__(self, mapping: dict[str, str]):
        self.mapping = dict(mapping)

    def validate(self, ms: MultiMetricSpace) -> None:
        union = set(ms.union_points())
        if set(self.mapping) != union:
            raise InputError("mapping must be defined on exactly the point union")
        for v in self.mapping.values():
            if v not in union:
                raise InputError(f"image point {v!r} is outside the space")

    def __call__(self, x: str) -> str:
        return self.mapping[x]


class ContractionReport(NamedTuple):
    verdict: bool
    alpha: Optional[Fraction]
    component_map: tuple[tuple[int, int, Fraction], ...]


def is_contraction(ms: MultiMetricSpace, T: MappingTable, strict: bool = False) -> ContractionReport:
    """Scan component pairs (i, j) with T(M_i) inside M_j for the minimal
    ratio bound; the verdict is existential over pairs by default, or, with
    ``strict``, requires every component to contract into some target."""
    T.validate(ms)
    entries = []
    for i, src in enumerate(ms.components):
        images = {T(x) for x in src.points}
        for j, dst in enumerate(ms.components):
            if not images <= set(dst.points):
                continue
            pairs = itertools.combinations(src.points, 2)
            ratios = (dst.dist(T(a), T(b)) / src.dist(a, b) for a, b in pairs)
            entries.append((i, j, max(ratios, default=Fraction(0))))
    contracting = [e for e in entries if e[2] < 1]
    if strict:
        verdict = all(any(e[0] == i and e[2] < 1 for e in entries) for i in range(ms.m))
    else:
        verdict = bool(contracting)
    alphas = [e[2] for e in (contracting if contracting else entries)]
    alpha = min(alphas) if alphas else None
    return ContractionReport(verdict, alpha, tuple(entries))


class Orbit(NamedTuple):
    seed: str
    path: tuple[str, ...]
    stabilized: bool
    settles_at: Optional[str]


class FixedPointReport(NamedTuple):
    points: tuple[str, ...]
    count: int
    bound_ok: Optional[bool]
    orbits: tuple[Orbit, ...]
    orbits_ok: Optional[bool]


def fixed_points(ms: MultiMetricSpace, T: MappingTable) -> FixedPointReport:
    """Exact fixed-point set plus the iterative scheme from one seed per
    component.  When the map is a verified contraction the report asserts
    1 <= count <= m and that every orbit stabilises at a reported fixed
    point within |union| steps."""
    T.validate(ms)
    fixed = tuple(x for x in ms.union_points() if T(x) == x)
    union = ms.union_points()
    orbits = []
    for comp in ms.components:
        seed = comp.points[0]
        path = [seed]
        for _ in range(len(union)):
            path.append(T(path[-1]))
        stabilized = path[-1] == path[-2]
        orbits.append(Orbit(seed, tuple(path), stabilized, path[-1] if stabilized else None))
    contraction = is_contraction(ms, T)
    if contraction.verdict:
        bound_ok = 1 <= len(fixed) <= ms.m
        orbits_ok = all(o.stabilized and o.settles_at in fixed for o in orbits)
    else:
        bound_ok = None
        orbits_ok = None
    return FixedPointReport(fixed, len(fixed), bound_ok, tuple(orbits), orbits_ok)
