"""The four workloads: seeded inputs, the call each instance times, and the
independent expectation each result is checked against.

Every build function takes ``lib`` (the imported ``multispace`` modules), a seeded
``random.Random``, the ``smoke`` flag (tiny sizes for the smoke test) and a
work directory, and returns a list of ``Instance``.  They run inside the
timed set-up; ``Instance.run`` is the timed call; ``Instance.check`` runs
after the clock stops and returns ``(ok, token)``, where ``token`` is the
canonical verdict and witness summary that goes into the workload digest.

Spaces are stored as raw table data and re-assembled into fresh
``OpTable``/``MultiSpace`` objects inside every run, so no verdict cached on a
space object survives from one pass to the next.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
from collections import namedtuple
from fractions import Fraction as F

import oracle


Instance = namedtuple("Instance", "name run check")


def canon(x):
    """JSON-able canonical form of a verdict or witness."""
    if isinstance(x, (frozenset, set)):
        return sorted((canon(v) for v in x), key=repr)
    if isinstance(x, (tuple, list)):
        return [canon(v) for v in x]
    if isinstance(x, dict):
        return {str(k): canon(v) for k, v in sorted(x.items(), key=lambda kv: str(kv[0]))}
    if isinstance(x, F):
        return f"{x.numerator}/{x.denominator}"
    return x


def _result(ok: bool, token) -> tuple[bool, object]:
    return bool(ok), canon(token)


# -- raw table data -----------------------------------------------------------

def table_data(t):
    """(name, universe, domain, entries) read through the public interface."""
    entries = tuple(tuple(t.apply(x, y) for y in t.domain) for x in t.domain)
    return (t.name, t.universe, tuple(t.domain), entries)


def space_data(ms):
    return (ms.universe, ms.components, tuple(table_data(t) for t in ms.ops))


def fresh_table(lib, td):
    name, universe, domain, entries = td
    return lib.core.OpTable(name, universe, domain, entries)


def fresh_space(lib, sd):
    universe, components, tables = sd
    return lib.core.MultiSpace(universe, components, [fresh_table(lib, td) for td in tables])


def as_dict(td) -> dict:
    _, _, domain, entries = td
    return {(x, y): entries[i][j] for i, x in enumerate(domain) for j, y in enumerate(domain)}


def perturbed(td, rng):
    """The table with one entry moved to a different domain element."""
    name, universe, domain, entries = td
    rows = [list(r) for r in entries]
    i, j = rng.randrange(len(domain)), rng.randrange(len(domain))
    rows[i][j] = rng.choice([v for v in domain if v != rows[i][j]])
    return (name, universe, domain, tuple(tuple(r) for r in rows))


def union_of(sd):
    return sorted({x for c in sd[1] for x in c.carrier})


def multigroup_oracle(sd):
    tables = {td[0]: (td[2], as_dict(td)) for td in sd[2]}
    bindings = [(c.name, op, c.carrier) for c in sd[1] for op in c.op_names]
    return oracle.multigroup_expectation(union_of(sd), bindings, tables)


# -- series ---------------------------------------------------------------------

# The a05 corpus: pairs of abelian groups whose shared-identity union fits the
# 24-element series bound.  Fixed here, not read from the library, so that a
# change to the library's bound does not change the workload.
SERIES_UNION_LIMIT = 24

# Composition length and number of composition series, from group theory.
COMPOSITION = {"S3": (2, 1), "D4": (3, 7), "Q8": (3, 3), "S4": (4, 3)}

SHARED_ZERO_PAIRS = [
    (2, 3), (2, 12), (3, 8), (4, 6), (4, 10), (5, 7), (6, 6), (6, 12), (8, 9), (9, 9),
    (10, 12), (12, 12),
]


def build_series(lib, rng, smoke, workdir):
    C, MG, MR = lib.constructions, lib.multigroup, lib.multiring
    top = 8 if smoke else 16
    corpus = [(name, n, t) for n in range(1, top + 1) for name, _, t in C.abelian_groups_of_order(n)]
    out = []
    for name, n, t in corpus:
        sd = space_data(C.shared_identity_union([t]))

        def run(sd=sd):
            ms = fresh_space(lib, sd)
            return MG.maximal_normal_series(ms, ["+1"]), MG.series_length_profile(ms, ["+1"])

        def check(r, n=n):
            full, (lengths, count) = r
            ok = (
                full.invariant
                and full.lengths == (oracle.omega(n),)
                and (lengths, count) == (full.lengths, full.chain_count)
                and count == len(full.chains)
            )
            return _result(ok, [full.lengths, full.chain_count, lengths, count])

        out.append(Instance(f"series/single/{name}", run, check))

    limit = 10 if smoke else SERIES_UNION_LIMIT
    for (na, a, ta), (nb, b, tb) in itertools.combinations_with_replacement(corpus, 2):
        if a + b - 1 > limit:
            continue
        tables = [ta, tb] if rng.random() < 0.5 else [tb, ta]
        orientation = ["+1", "+2"] if rng.random() < 0.5 else ["+2", "+1"]
        sd = space_data(C.shared_identity_union(tables))

        def run(sd=sd, orientation=orientation):
            return MG.series_length_profile(fresh_space(lib, sd), orientation)

        def check(r, want=oracle.omega(a) + oracle.omega(b)):
            lengths, count = r
            return _result(lengths == (want,) and count >= 1, [lengths, count])

        out.append(Instance(f"series/pair/{na}+{nb}", run, check))

    groups = {
        "S3": C.symmetric_table(3)[1],
        "D4": C.dihedral_table(4)[1],
        "Q8": C.quaternion_table()[1],
        "S4": C.symmetric_table(4)[1],
    }
    for name, table in groups.items():
        if smoke and name == "S4":
            continue
        td = table_data(table)

        def run(td=td):
            return MG.composition_series(fresh_table(lib, td))

        def check(r, want=COMPOSITION[name]):
            ok = r.invariant and (r.length, r.chain_count) == want
            return _result(ok, [r.lengths, r.chain_count])

        out.append(Instance(f"series/composition/{name}", run, check))

    for n in range(1, 13):
        sd = space_data(C.zn_ring_space(n))

        def run(sd=sd):
            return MR.multiideal_chain(fresh_space(lib, sd), ["R1"])

        def check(r, n=n):
            ok = r.lengths == (oracle.omega(n),) and r.chain_count == oracle.ideal_chain_count(n)
            return _result(ok, [r.lengths, r.chain_count])

        out.append(Instance(f"series/ideal-chain/Z{n}", run, check))

    for a, b in SHARED_ZERO_PAIRS[: 3 if smoke else None]:
        moduli = [a, b] if rng.random() < 0.5 else [b, a]
        orientation = ["R1", "R2"] if rng.random() < 0.5 else ["R2", "R1"]
        sd = space_data(C.shared_zero_ring_union(moduli))

        def run(sd=sd, orientation=orientation):
            return MR.multiideal_chain(fresh_space(lib, sd), orientation)

        def check(r, a=a, b=b):
            ok = (
                r.lengths == (oracle.omega(a) + oracle.omega(b),)
                and r.chain_count == oracle.ideal_chain_count(a) * oracle.ideal_chain_count(b)
            )
            return _result(ok, [r.lengths, r.chain_count])

        out.append(Instance(f"series/ideal-chain/Z{a}+Z{b}", run, check))
    return out


# -- verify ---------------------------------------------------------------------

AUTOMORPHISM_CASES = [(2, 2), (3, 2), (3, 3), (4, 2), (2, 3), (2, 4), (5, 2), (6, 2), (4, 3), (2, 5)]


def _expect_multigroup(sd):
    verdict, witness = multigroup_oracle(sd)

    def check(r):
        return _result(r.verdict == verdict and r.witness == witness, [r.verdict, r.witness])

    return check


def _multigroup_instance(lib, name, sd, check=None):
    def run(sd=sd):
        return lib.multigroup.is_multigroup(fresh_space(lib, sd))

    if check is None:
        def check(r, k=sum(len(c.op_names) for c in sd[1])):
            return _result(r.verdict and r.witness is None and len(r.group_checks) == k, [r.verdict])

    return Instance(name, run, check)


# Component orders of the seeded unions.  The seed picks which group of each
# order and which cells to perturb; the sizes, and so the work, stay fixed.
DISJOINT_ORDERS = [(8, 8), (6, 5, 4), (7, 7), (8, 4, 3), (5, 5, 5), (8, 6)]
SHARED_ORDERS = [(8, 8), (8, 6, 4), (6, 6), (8, 4, 4), (6, 4, 2), (8, 8, 2)]
COSET_ORDERS = [(8,), (6, 4), (4, 4, 4), (8, 6), (6,), (8, 4), (4, 6, 2), (8, 8)]
RING_PAIRS = [(4, 9), (6, 8), (5, 7), (8, 8), (6, 9)]


def build_verify(lib, rng, smoke, workdir):
    C, MG, MR, core = lib.constructions, lib.multigroup, lib.multiring, lib.core
    out = []
    by_order: dict[int, list] = {}
    for name, _, t in C.all_groups_up_to_8():
        by_order.setdefault(len(t.domain), []).append((name, t))

    def pick(order):
        return rng.choice(by_order[order])

    # Passing multi-groups: unions of groups, |U| up to 80.  A union of groups
    # meeting only in a shared identity (or not at all) is a multi-group.
    big = 12 if smoke else 80
    a = rng.randint(big * 3 // 8, big * 5 // 8)
    out.append(_multigroup_instance(
        lib, f"verify/multigroup/disjoint-{a}+{big - a}",
        space_data(C.disjoint_cyclic_union([a, big - a]))))
    b = big + 1 - a
    out.append(_multigroup_instance(
        lib, f"verify/multigroup/shared-Z{a}+Z{b}",
        space_data(C.shared_identity_union([C.cyclic_group_table(a)[1], C.cyclic_group_table(b)[1]]))))
    for orders in DISJOINT_ORDERS[: 2 if smoke else None]:
        sd = space_data(C.disjoint_cyclic_union(list(orders)))
        out.append(_multigroup_instance(lib, "verify/multigroup/disjoint-" + "+".join(map(str, orders)), sd))
    for i, orders in enumerate(SHARED_ORDERS[: 2 if smoke else None]):
        picks = [pick(n) for n in orders]
        sd = space_data(C.shared_identity_union([t for _, t in picks]))
        out.append(_multigroup_instance(lib, f"verify/multigroup/shared-{i}-" + "+".join(n for n, _ in picks), sd))

    # Failing multi-groups with pinned first witnesses: Latin spaces, fans
    # and single groups with one perturbed entry.
    for i in range(4 if smoke else 9):
        n = 3 + i % 3
        squares = C.gen_latin_squares(n, 2, rng.randrange(10**6))
        sd = space_data(C.latin_multispace([str(s + 1) for s in range(n)], squares))
        out.append(_multigroup_instance(lib, f"verify/multigroup/latin-{i}-n{n}", sd, _expect_multigroup(sd)))
    for i in range(4 if smoke else 10):
        name, t = pick((4, 6, 8, 5, 3)[i % 5])
        policy = (C.ABSORB, C.UNDEFINED_FILL)[i % 2]
        sd = space_data(C.fan_extension(t, [f"h{j + 1}" for j in range(2 + i % 2)], policy))
        out.append(_multigroup_instance(
            lib, f"verify/multigroup/fan-{i}-{name}-{policy}", sd, _expect_multigroup(sd)))
    for i in range(3 if smoke else 12):
        name, t = pick((4, 6, 8)[i % 3])
        td = perturbed(table_data(t), rng)
        sd = space_data(C.single_component_space(fresh_table(lib, td)))
        out.append(_multigroup_instance(
            lib, f"verify/multigroup/perturbed-{i}-{name}", sd, _expect_multigroup(sd)))

        def run(td=td):
            return core.classify_table(fresh_table(lib, td))

        def check(r, want=oracle.classify(as_dict(td), td[2])):
            return _result(r.label == want, [r.label, r.witness])

        out.append(Instance(f"verify/classify/perturbed-{i}-{name}", run, check))

    # Multi-rings: shared-zero unions pass; perturbed Z_n tables fail.
    first = rng.randint(20, 28)
    pairs = [(3, 4)] if smoke else [(first, 48 - first)]
    pairs += [(m, n) if rng.random() < 0.5 else (n, m) for m, n in RING_PAIRS[: 2 if smoke else None]]
    for moduli in pairs:
        sd = space_data(C.shared_zero_ring_union(list(moduli)))

        def run(sd=sd):
            return MR.is_multiring(fresh_space(lib, sd))

        def check(r, moduli=moduli):
            divisors = [
                sum(1 for x in range(1, m) for y in range(1, m) if x * y % m == 0) for m in moduli
            ]
            fields = all(oracle.omega(m) == 1 for m in moduli)
            ok = (
                r.verdict
                and r.multifield == fields
                and [len(found) for _, found in r.zero_divisors] == divisors
            )
            return _result(ok, [r.verdict, r.multifield, divisors])

        out.append(Instance(f"verify/multiring/shared-zero-{moduli[0]}+{moduli[1]}", run, check))
    for i in range(3 if smoke else 10):
        n = 3 + i % 6
        universe, add, mul = C.zn_ring_tables(n)
        add_td, mul_td = table_data(add), table_data(mul)
        if i % 2:
            mul_td = perturbed(mul_td, rng)
        else:
            add_td = perturbed(add_td, rng)
        comp = core.Component("R1", tuple(range(n)), ("+", "*"), double=True)
        sd = (universe, (comp,), (add_td, mul_td))

        def run(sd=sd):
            try:
                return MR.is_multiring(fresh_space(lib, sd))
            except lib.errors.ContractError as exc:
                return exc

        add_dict = as_dict(add_td)
        w = oracle.ring_witness(add_dict, as_dict(mul_td), add_td[2], frozenset(range(n)))
        has_zero = any(all(add_dict[(e, x)] == x == add_dict[(x, e)] for x in range(n)) for e in range(n))

        def check(r, w=w, has_zero=has_zero):
            # An addition without identity makes the multi-field probe raise
            # ContractError instead of reporting the ring witness; either
            # outcome is accepted, and the digest records which one occurred.
            if isinstance(r, Exception):
                return _result(not has_zero, ["raised", type(r).__name__])
            want = None if w is None else {"component": "R1", **w}
            return _result(r.verdict == (w is None) and r.witness == want, [r.verdict, r.witness])

        out.append(Instance(f"verify/multiring/perturbed-{i}-Z{n}", run, check))

    # The dual-route multi-ideal and sub-multi-ring sweep over every subset
    # of Z_n, one instance per (n, subset size).
    for n in range(1, 7 if smoke else 13):
        sd = space_data(C.zn_ring_space(n))
        for size in range(1, n + 1):
            def run(sd=sd, n=n, size=size):
                ms = fresh_space(lib, sd)
                found = []
                for combo in itertools.combinations(range(n), size):
                    view = MG.SubsetView(ms, frozenset(combo), ("+", "*"))
                    if MR.is_multiideal(view).verdict:
                        found.append((frozenset(combo), MR.is_submultiring(view).verdict))
                return found

            def check(r, n=n, size=size):
                want = {i for i in oracle.divisor_ideals(n) if len(i) == size}
                ok = {s for s, _ in r} == want and all(sub for _, sub in r)
                return _result(ok, r)

            out.append(Instance(f"verify/ideal-sweep/Z{n}/{size}", run, check))

    # Cosets and normality on seeded sub-multi-groups: one cyclic subgroup
    # per component of a small shared-identity union.
    for done in range(4 if smoke else 16):
        picks = [pick(n) for n in COSET_ORDERS[done % len(COSET_ORDERS)]]
        sd = space_data(C.shared_identity_union([t for _, t in picks]))
        subs, normal = [], True
        for comp, td in zip(sd[1], sd[2]):
            mul = as_dict(td)
            sub = oracle.cyclic_subgroup(mul, rng.choice(comp.carrier))
            subs.append(sub)
            normal = normal and oracle.is_normal_in(mul, comp.carrier, sub)
        elements = frozenset().union(*subs)
        ops = tuple(td[0] for td in sd[2])
        label = "+".join(n for n, _ in picks)

        def run_cosets(sd=sd, elements=elements, ops=ops):
            return MG.coset_partition(MG.SubsetView(fresh_space(lib, sd), elements, ops))

        def check_cosets(r, union=frozenset(union_of(sd))):
            ok = frozenset().union(*r) == union and sum(len(c) for c in r) == len(union)
            return _result(ok, r)

        def run_normal(sd=sd, elements=elements, ops=ops):
            return MG.is_normal(MG.SubsetView(fresh_space(lib, sd), elements, ops))

        def check_normal(r, normal=normal):
            return _result(r.verdict == normal, [r.verdict, r.witness])

        out.append(Instance(f"verify/cosets/{done}-{label}", run_cosets, check_cosets))
        out.append(Instance(f"verify/normal/{done}-{label}", run_normal, check_normal))

    # a12: |Aut| of k equal cyclic components is phi(m)^k * k!.
    for m, k in AUTOMORPHISM_CASES[: 4 if smoke else None]:
        sd = space_data(C.disjoint_cyclic_union([m] * k))

        def run(sd=sd):
            return core.automorphisms(fresh_space(lib, sd))

        def check(r, want=oracle.phi(m) ** k * math.factorial(k)):
            return _result(len(r) == want == len(set(r)), len(r))

        out.append(Instance(f"verify/automorphisms/{m}^{k}", run, check))

    for n in (6, 10, 12):
        sd = space_data(C.zn_ring_space(n))

        def run(sd=sd):
            return MR.decompose_artin(fresh_space(lib, sd))

        def check(r, n=n):
            comp = r.components[0]
            return _result(r.all_valid and set(comp.pieces) == oracle.crt_pieces(n), comp.pieces)

        out.append(Instance(f"verify/decompose/Z{n}", run, check))

    # check_boolean_laws at its 6-element bound.
    labels = rng.sample("abcdefghijklmnopqrstuvwxyz", 4 if smoke else 6)
    universe = lib.foundations.FiniteUniverse.of(labels)

    def run(universe=universe):
        return lib.foundations.check_boolean_laws(universe)

    def check(r):
        return _result(r.all_pass and len(r.results) == 7, [x.passed for x in r.results])

    out.append(Instance(f"verify/boolean-laws/{len(labels)}", run, check))
    return out


# -- exact ----------------------------------------------------------------------

def echelon_rows(rng, p, n, r):
    """r independent vectors of GF(p)^n in echelon form with random pivots."""
    cols = sorted(rng.sample(range(n), r))
    rows = []
    for c in cols:
        v = [0] * n
        v[c] = 1
        for j in range(c + 1, n):
            if j not in cols:
                v[j] = rng.randrange(p)
        rows.append(v)
    return rows


def mixed_generators(rng, p, n, r):
    """Random combinations of echelon rows that keep rank r, plus one
    redundant vector: a generating set of known rank."""
    rows = echelon_rows(rng, p, n, r)

    def combination():
        coeffs = [rng.randrange(p) for _ in rows]
        return tuple(sum(c * row[j] for c, row in zip(coeffs, rows)) % p for j in range(n))

    gens = [combination() for _ in range(r)]
    while oracle.rank(p, gens) < r:
        gens = [combination() for _ in range(r)]
    gens.append(combination())
    rng.shuffle(gens)
    return gens


SPAN_CASES = [(2, 10, 9), (3, 7, 5), (5, 5, 3), (2, 8, 6), (3, 5, 4), (2, 6, 4)]


def _random_metric(rng, labels):
    """Either an embedded-line metric or a [1, 2]-valued one (both exact)."""
    n = len(labels)
    if rng.random() < 0.5:
        values = rng.sample(range(64), n)
        den = rng.randint(1, 4)
        return [[F(abs(values[i] - values[j]), den) for j in range(n)] for i in range(n)]
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = F(rng.randint(8, 16), 8)
    return rows


def _contraction_case(rng, m):
    """A forest of line components: each non-root maps onto its parent with
    distances halved, each root contracts onto its least point.  The fixed
    points are exactly the roots' least points."""
    parent = [i if (i == 0 or rng.random() < 0.4) else rng.randrange(i) for i in range(m)]
    size, depth = {}, {}
    for i in range(m):
        size[i] = size[parent[i]] if parent[i] != i else rng.randint(1, 4)
        depth[i] = 0 if parent[i] == i else depth[parent[i]] + 1
    labels = {i: [f"c{i}p{j}" for j in range(size[i])] for i in range(m)}
    lines = []
    for i in range(m):
        scale = F(2) ** depth[i]
        lines.append({labels[i][j]: scale * F(3) ** j - scale for j in range(size[i])})
    mapping = {}
    for i in range(m):
        for j in range(size[i]):
            target = labels[i][max(j - 1, 0)] if parent[i] == i else labels[parent[i]][j]
            mapping[labels[i][j]] = target
    roots = sum(1 for i in range(m) if parent[i] == i)
    return lines, mapping, roots


def _nonzero_vectors(p, n):
    return [v for v in itertools.product(range(p), repeat=n) if any(v)]


def build_exact(lib, rng, smoke, workdir):
    MV, MM = lib.multivector, lib.multimetric
    out = []

    for p, n, r in SPAN_CASES:
        if smoke:
            n, r = n - 2, r - 2
        gens = mixed_generators(rng, p, n, r)

        def run(ambient=MV.AmbientSpace(p, n), gens=gens):
            return MV.span(ambient, gens)

        def check(res, want=oracle.span_set(p, n, gens)):
            return _result(res == want, len(res))

        out.append(Instance(f"exact/span/{p}^{n}/r{r}", run, check))

    lists = [mixed_generators(rng, 3, 5, r) for r in (2, 3)]

    def run(ambient=MV.AmbientSpace(3, 5), lists=lists):
        return MV.MultiVectorSpace.from_generators(ambient, lists)

    def check(res, want=[oracle.span_set(3, 5, g) for g in lists]):
        got = [c.vectors for c in res.components]
        return _result(got == want, [len(v) for v in got])

    out.append(Instance("exact/multivector-space/3^5", run, check))

    # a08: every shuffled greedy order gives a basis of the union's rank.
    for i in range(4 if smoke else 12):
        p, n = (2, 4) if i % 2 else (3, 3)
        vectors = _nonzero_vectors(p, n)
        lists = [rng.sample(vectors, 1 + (i + j) % 3) for j in range(1 + i % 4)]

        def run(ambient=MV.AmbientSpace(p, n), lists=lists, order_seed=rng.randrange(10**6)):
            ms = MV.MultiVectorSpace.from_generators(ambient, lists)
            start = MV.component_bases(ms)
            shuffler = random.Random(order_seed)
            sizes = []
            for _ in range(5):
                order = start[:]
                shuffler.shuffle(order)
                sizes.append(len(MV.greedy_basis(ms, order=order)))
            return sizes

        def check(sizes, want=oracle.rank(p, [v for g in lists for v in g])):
            return _result(set(sizes) == {want}, sizes)

        out.append(Instance(f"exact/greedy/{i}", run, check))

    # a09: the formula and the greedy count match their enumerated values,
    # and agree for k <= 2.
    for k in range(1, 6):
        for i in range(1 if smoke else 3):
            p, n = (2, 5) if (k + i) % 2 else (3, 3)
            vectors = _nonzero_vectors(p, n)
            lists = [rng.sample(vectors, 1 + j % 2) for j in range(k)]
            formula = oracle.dim_formula_value(p, [oracle.span_set(p, n, g) for g in lists])
            greedy = oracle.rank(p, [v for g in lists for v in g])

            def run(ambient=MV.AmbientSpace(p, n), lists=lists):
                return MV.dim_formula(MV.MultiVectorSpace.from_generators(ambient, lists))

            def check(res, want=(formula, greedy), k=k):
                ok = (
                    (res.formula_value, res.greedy_value) == want
                    and res.agree == (want[0] == want[1])
                    and (res.agree or k >= 3)
                )
                return _result(ok, [res.formula_value, res.greedy_value])

            out.append(Instance(f"exact/dim/k{k}/{i}", run, check))

    def run(ambient=MV.AmbientSpace(2, 2)):
        lines = [[(1, 0)], [(0, 1)], [(1, 1)]]
        return MV.dim_formula(MV.MultiVectorSpace.from_generators(ambient, lines))

    def check(res):
        ok = (res.formula_value, res.greedy_value, res.agree) == (3, 2, False)
        return _result(ok, [res.formula_value, res.greedy_value])

    out.append(Instance("exact/dim/three-lines", run, check))

    # Mixed-chain independence inside one component, where every chain is
    # defined: dependent exactly when some combination vanishes, with the
    # least such combination as certificate.
    for i in range(4 if smoke else 12):
        p, n = (3, 4) if i % 2 else (2, 5)
        rows = mixed_generators(rng, p, n, 3)
        members = sorted(v for v in oracle.span_set(p, n, rows) if any(v))
        vectors = rng.sample(members, 2 + i % 3)

        def run(ambient=MV.AmbientSpace(p, n), rows=rows, vectors=vectors):
            ms = MV.MultiVectorSpace.from_generators(ambient, [rows])
            return MV.linearly_independent(vectors, ms)

        def check(res, cert=oracle.dependence_certificate(p, vectors)):
            ok = (res.independent, res.certificate, res.case) == (
                cert is None, cert, 1 if cert is None else None)
            return _result(ok, [res.independent, res.certificate, res.case])

        out.append(Instance(f"exact/independence/{i}", run, check))

    # a10: every admissible combinator of random metrics gives a metric,
    # entry by entry the combination of the inputs.
    for trial in range(2 if smoke else 10):
        labels = [f"p{i}" for i in range(2 + trial % 7)]
        grids = [_random_metric(rng, labels) for _ in range(1 + trial % 3)]
        metrics = [MM.MetricTable.from_rows(labels, g) for g in grids]
        weights = tuple(F(rng.randint(1, 7), rng.randint(1, 3)) for _ in grids)
        for kind in ("sum", "weighted_sum", "bounded_sum", "max"):
            spec = MM.CombinatorSpec(kind, weights=weights if kind == "weighted_sum" else None)
            seed = rng.randrange(10**6)

            def run(metrics=metrics, spec=spec, seed=seed):
                combined = MM.combine_metrics(metrics, spec, seed=seed)
                return combined, MM.validate_metric(combined)

            def check(res, grids=grids, kind=kind, weights=weights, labels=labels):
                combined, verdict = res
                n = len(labels)
                want = [[oracle.combine(kind, weights, [g[i][j] for g in grids]) for j in range(n)]
                        for i in range(n)]
                ok = [list(row) for row in combined.d] == want and verdict.valid
                ok = ok and oracle.metric_witness(labels, want) == (None, None)
                return _result(ok, [verdict.valid, combined.d])

            out.append(Instance(f"exact/combine/{trial}/{kind}", run, check))

    # Invalid metrics with a pinned first witness: one entry broken.
    for i in range(4 if smoke else 12):
        labels = [f"q{j}" for j in range(3 + i % 5)]
        grid = _random_metric(rng, labels)
        a, b = rng.sample(range(len(labels)), 2)
        if i % 3 == 0:
            grid[a][b] = grid[a][b] + 1  # asymmetric
        else:
            grid[a][b] = grid[b][a] = sum(grid[a]) + sum(grid[b])  # too long
        table = MM.MetricTable.from_rows(labels, grid)
        want = oracle.metric_witness(labels, grid)

        def run(table=table):
            return MM.validate_metric(table)

        def check(res, want=want):
            return _result(not res.valid and (res.axiom, res.witness) == want, [res.axiom, res.witness])

        out.append(Instance(f"exact/validate-invalid/{i}", run, check))

    # a11: contractions over a forest of components.
    for i in range(4 if smoke else 20):
        m = 1 + i % 4
        lines, mapping, roots = _contraction_case(rng, m)
        space = MM.MultiMetricSpace([MM.MetricTable.from_line(v) for v in lines])
        T = MM.MappingTable(mapping)

        def run(space=space, T=T):
            return MM.is_contraction(space, T), MM.fixed_points(space, T)

        def check(res, roots=roots, m=m):
            contraction, fixed = res
            ok = (
                contraction.verdict
                and contraction.alpha < 1
                and fixed.count == roots
                and 1 <= fixed.count <= m
                and fixed.bound_ok
                and fixed.orbits_ok
            )
            return _result(ok, [str(contraction.alpha), fixed.points])

        out.append(Instance(f"exact/fixed-points/{i}-m{m}", run, check))
    return out


# -- cli_cold -------------------------------------------------------------------

FIXTURES = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests", "fixtures")


def _json_check(code, test=None):
    """Check on a CLI result: the exit code, and a predicate on its JSON."""

    def check(res):
        got, stdout = res
        ok = got == code
        report = None
        if ok and test is not None:
            try:
                report = json.loads(stdout)
            except ValueError:
                ok = False
            else:
                ok = bool(test(report))
        return _result(ok, [got, report if report is None else _strip_paths(report)])

    return check


def _strip_paths(report):
    return {k: v for k, v in report.items() if k != "written"}


def build_cli(lib, rng, smoke, workdir):
    """CLI commands, one child process each, with their expected exit codes."""
    C, io_, MM = lib.constructions, lib.io, lib.multimetric
    fx = lambda name: os.path.join(FIXTURES, name)  # noqa: E731
    w = lambda name: os.path.join(workdir, name)  # noqa: E731
    cmds = []

    def add(name, argv, code, test=None):
        cmds.append((name, ["--json", *argv], code, _json_check(code, test)))

    # Files the benchmark constructs: a cyclic union, a shared-zero ring
    # union, a seeded vector space, metric space and contraction map, and a
    # malformed file.
    a, b = rng.randint(2, 6), rng.randint(2, 6)
    io_.save_path(w("union.mspace.json"), io_.space_to_dict(C.disjoint_cyclic_union([a, b])))
    m1, m2 = rng.choice([4, 6, 8, 9, 10]), rng.choice([4, 6, 8, 9, 10])
    io_.save_path(w("rings.mspace.json"), io_.space_to_dict(C.shared_zero_ring_union([m1, m2])))
    p = rng.choice([2, 3])
    ambient = lib.multivector.AmbientSpace(p, 3)
    lists = [mixed_generators(rng, p, 3, rng.randint(1, 2)) for _ in range(rng.randint(2, 3))]
    mvs = lib.multivector.MultiVectorSpace.from_generators(ambient, lists)
    io_.save_path(w("space.vector.json"), io_.vector_space_to_dict(mvs))
    spans = [oracle.span_set(p, 3, g) for g in lists]
    lines, mapping, roots = _contraction_case(rng, rng.randint(2, 4))
    io_.save_path(w("forest.metric.json"),
                  io_.metric_components_to_dict([MM.MetricTable.from_line(v) for v in lines]))
    io_.save_path(w("forest.map.json"), io_.mapping_to_dict(MM.MappingTable(mapping)))
    with open(w("broken.mspace.json"), "w", encoding="utf-8") as handle:
        handle.write("{not json")

    # construct: each kind writes a file and re-parses it.
    seed = rng.randrange(1000)
    add("construct/latin", ["construct", "latin", "n=3", "k=2", f"seed={seed}", "--out", w("c-latin.mspace.json")],
        0, lambda r: r["round_trip"] and r["operations"] == 2)
    add("construct/cyclic_union", ["construct", "cyclic_union", f"orders={a},{b}", "--out", w("c-union.mspace.json")],
        0, lambda r: r["round_trip"] and r["elements"] == a + b)
    fan_n, fan_k = rng.randint(2, 6), rng.randint(2, 3)
    add("construct/fan", ["construct", "fan", f"base=Z{fan_n}", f"n={fan_k}", "--out", w("c-fan.mspace.json")],
        0, lambda r: r["round_trip"] and r["elements"] == fan_n + fan_k)
    add("construct/partition_cyclic",
        ["construct", "partition_cyclic", "modulus=6", "blocks=1,2,0|3,4,5,0", "core=0", "--out", w("c-part.mspace.json")],
        0, lambda r: r["round_trip"] and r["completed"])
    add("construct/latin-capacity", ["construct", "latin", "n=3", "k=99", "--out", w("c-none.mspace.json")],
        2)

    # check: every kind and level, on fixtures and on constructed files.
    add("check/latin3", ["check", fx("latin3.mspace.json")], 0, lambda r: r["elements"] == 3)
    add("check/latin3-multigroup", ["check", fx("latin3.mspace.json"), "--level", "multigroup"],
        1, lambda r: r["witness"]["kind"] == "associativity")
    add("check/z4z6-multigroup", ["check", fx("z4z6_group.mspace.json"), "--level", "multigroup"],
        0, lambda r: r["verdict"])
    add("check/z8-multigroup", ["check", fx("z8_group.mspace.json"), "--level", "multigroup"],
        0, lambda r: r["verdict"])
    add("check/z6-multiring", ["check", fx("z6_ring.mspace.json"), "--level", "multiring"],
        0, lambda r: r["verdict"])
    add("check/z12-multiring", ["check", fx("z12_ring.mspace.json"), "--level", "multiring"],
        0, lambda r: r["verdict"])
    add("check/two_component-metric", ["check", fx("two_component.metric.json")],
        0, lambda r: r["verdict"])
    add("check/triangle-metric", ["check", fx("triangle_violation.metric.json")],
        1, lambda r: any(c["axiom"] == "triangle" for c in r["components"]))
    add("check/three_lines-vector", ["check", fx("three_lines.vector.json")],
        0, lambda r: r["component_dims"] == [1, 1, 1])
    add("check/wrong-level", ["check", fx("two_component.metric.json"), "--level", "multigroup"], 2)
    add("check/malformed", ["check", w("broken.mspace.json")], 2)
    add("check/missing-file", ["check", w("absent.mspace.json")], 2)
    add("check/union-multigroup", ["check", w("union.mspace.json"), "--level", "multigroup"],
        0, lambda r: r["verdict"])
    add("check/rings-multiring", ["check", w("rings.mspace.json"), "--level", "multiring"],
        0, lambda r: r["verdict"])
    add("check/space-vector", ["check", w("space.vector.json")],
        0, lambda r: r["component_dims"] == [oracle.rank(p, s) for s in spans])
    add("check/forest-metric", ["check", w("forest.metric.json")], 0, lambda r: r["verdict"])

    # analyze: every analysis.
    add("analyze/series-z8", ["analyze", "series", fx("z8_group.mspace.json"), "--orientation", "+1"],
        0, lambda r: r["length"] == 3)
    add("analyze/series-union", ["analyze", "series", w("union.mspace.json"), "--orientation", "+1,+2"],
        0, lambda r: r["length"] == oracle.omega(a) + oracle.omega(b))
    add("analyze/series-latin3", ["analyze", "series", fx("latin3.mspace.json"), "--orientation", "x1,x2"],
        1)
    add("analyze/ideal-chain-z6", ["analyze", "ideal-chain", fx("z6_ring.mspace.json")],
        0, lambda r: (r["length"], r["chain_count"]) == (2, 2))
    add("analyze/ideal-chain-rings", ["analyze", "ideal-chain", w("rings.mspace.json")],
        0, lambda r: (r["length"], r["chain_count"]) == (
            oracle.omega(m1) + oracle.omega(m2), oracle.ideal_chain_count(m1) * oracle.ideal_chain_count(m2)))
    for n in (6, 12):
        add(f"analyze/decompose-z{n}", ["analyze", "decompose", fx(f"z{n}_ring.mspace.json")],
            0, lambda r, n=n: {frozenset(map(int, piece)) for piece in r["components"][0]["pieces"]}
                        == oracle.crt_pieces(n))
    add("analyze/cosets-z4z6", ["analyze", "cosets", fx("z4z6_group.mspace.json"), "--sub", "e,c1_2,c2_2,c2_4"],
        0, lambda r: sum(len(c) for c in r["cosets"]) == 9)
    add("analyze/dim-three_lines", ["analyze", "dim", fx("three_lines.vector.json")],
        0, lambda r: (r["formula_value"], r["greedy_value"], r["agree"]) == (3, 2, False))
    add("analyze/dim-space", ["analyze", "dim", w("space.vector.json")],
        0, lambda r: (r["formula_value"], r["greedy_value"]) == (
            oracle.dim_formula_value(p, spans), oracle.rank(p, [v for g in lists for v in g])))
    add("analyze/automorphisms-latin3", ["analyze", "automorphisms", fx("latin3.mspace.json")],
        0, lambda r: r["count"] == len(r["maps"]) >= 1)
    add("analyze/automorphisms-union", ["analyze", "automorphisms", w("union.mspace.json")],
        0, lambda r: r["count"] == oracle.phi(a) * oracle.phi(b) * (2 if a == b else 1))
    add("analyze/fixed-point-two_component",
        ["analyze", "fixed-point", fx("two_component.metric.json"), "--map", fx("two_constants.map.json")],
        0, lambda r: r["count"] == 2 and r["bound_ok"])
    add("analyze/fixed-point-forest",
        ["analyze", "fixed-point", w("forest.metric.json"), "--map", w("forest.map.json")],
        0, lambda r: r["count"] == roots and r["bound_ok"] and r["orbits_ok"])
    add("analyze/sequence", ["analyze", "sequence", fx("two_component.metric.json"),
                             "--prefix", "a,b", "--tail-kind", "constant", "--tail", "c"],
        0, lambda r: r["convergent"] and r["limit"] == "c")
    add("check/z4z6", ["check", fx("z4z6_group.mspace.json")], 0, lambda r: r["elements"] == 9)
    add("check/rings", ["check", w("rings.mspace.json")], 0, lambda r: r["elements"] == m1 + m2 - 1)
    add("analyze/series-z4z6", ["analyze", "series", fx("z4z6_group.mspace.json"), "--orientation", "+1,+2"],
        0, lambda r: r["length"] == 4)
    add("analyze/ideal-chain-z12", ["analyze", "ideal-chain", fx("z12_ring.mspace.json")],
        0, lambda r: (r["length"], r["chain_count"]) == (3, 3))
    add("analyze/cosets-missing-sub", ["analyze", "cosets", fx("z4z6_group.mspace.json")], 2)

    if smoke:
        cmds = cmds[::6]
    return cmds


WORKLOADS = {"series": build_series, "verify": build_verify, "exact": build_exact, "cli_cold": build_cli}
