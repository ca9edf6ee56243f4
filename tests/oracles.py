"""The test oracles: one reference per law, written from its definition.

Every fast kernel in ``multispace`` (Light's test on generators, Dimino
joins, bitmask lattices, the propagated automorphism search, the integer
metric routes, the bit-sliced Boolean laws) is trusted because a test
compares it with the reference here.  A reference reads products only
through ``OpTable.apply``, and vectors, metrics and subsets as plain tuples,
sets and Fractions.  This module imports tables, records, errors and
constants from ``multispace`` and no function, so a reference never calls
the code it checks.  Each reference names its first failure in the order the
kernel scans, so verdicts and witnesses compare with ``==``.

``tables``, ``unit_tables`` and ``ring_pairs`` list every input up to a
small size, for the exhaustive checks of ``test_small_scope.py`` and
``sweep/`` (Jackson's small-scope hypothesis, *Software Abstractions*,
2006); ``random_table`` is the one generator of random partial tables.
"""

import functools
import itertools
from fractions import Fraction

from multispace.core import UNDEFINED, FiniteUniverse, OpTable
from multispace.errors import CombinatorError, ContractError, ShapeError
from multispace.foundations import LawReport, LawResult
from multispace.multimetric import MetricTable, MetricVerdict
from multispace.multiring import ComponentDecomposition, DecompositionReport, IdempotentReport

# -- inputs ------------------------------------------------------------------


def universe_of(n):
    return FiniteUniverse.of([f"e{i}" for i in range(n)])


def as_set(mask):
    return frozenset(x for x in range(mask.bit_length()) if mask >> x & 1)


def as_mask(elements):
    return sum(1 << x for x in set(elements))


def tables(n, name="*", values=None):
    """Every table on the universe of ``n`` elements: every domain, and each
    cell undefined or any element (or each cell from ``values``), so
    products may leave the domain."""
    universe = universe_of(n)
    values = [None, *range(n)] if values is None else list(values)
    for r in range(n + 1):
        for domain in itertools.combinations(range(n), r):
            for cells in itertools.product(values, repeat=r * r):
                yield OpTable(name, universe, domain, [cells[i * r : (i + 1) * r] for i in range(r)])


def unit_tables(n):
    """Every table on the whole universe of ``n`` elements with a two-sided
    unit e: e's row and column are fixed, and every other cell is undefined
    or any element, so n (n + 1)^((n - 1)^2) tables."""
    for e, cells in itertools.product(range(n), itertools.product([None, *range(n)], repeat=(n - 1) ** 2)):
        cell = dict(zip(itertools.product([x for x in range(n) if x != e], repeat=2), cells))
        rows = [[y if x == e else x if y == e else cell[x, y] for y in range(n)] for x in range(n)]
        yield OpTable("*", universe_of(n), range(n), rows)


def ring_pairs():
    """Every (add, mul) pair of tables on the two-element domain: 81² pairs."""
    adds, muls = ([t for t in tables(2, name) if len(t.domain) == 2] for name in "+*")
    return itertools.product(adds, muls)


def random_table(rng, universe, name="*", domain=None):
    """A partial table on ``domain`` (else a random non-empty one): a
    relabelled cyclic group, the right projection (every element a left unit
    only), or cells drawn from the domain, from anywhere (undefined
    included) or mostly undefined; then up to two cells redrawn from the
    domain or from anywhere."""
    n = len(universe)
    if domain is None:
        domain = sorted(rng.sample(range(n), rng.randint(1, n)))
    k = len(domain)
    inside, anywhere = (lambda: rng.choice(domain)), (lambda: rng.choice([None, *range(n)]))
    mode = rng.choice(["cyclic", "projection", "closed", "anywhere", "sparse"])
    if mode == "cyclic":
        order = rng.sample(domain, k)
        pos = {x: i for i, x in enumerate(order)}
        rows = [[order[(pos[x] + pos[y]) % k] for y in domain] for x in domain]
    elif mode == "projection":
        rows = [list(domain) for _ in domain]
    else:
        sparse = lambda: None if rng.random() < 0.75 else inside()  # noqa: E731
        cell = {"closed": inside, "anywhere": anywhere, "sparse": sparse}[mode]
        rows = [[cell() for _ in domain] for _ in domain]
    for _ in range(rng.randint(0, 2)):
        rows[rng.randrange(k)][rng.randrange(k)] = rng.choice([inside, anywhere])()
    return OpTable(name, universe, domain, rows)


# -- group laws --------------------------------------------------------------


def identity(t, subset):
    """The first element of ``subset`` that is a two-sided unit on it, or None."""
    apply = t.apply
    units = (e for e in sorted(subset) if all(apply(e, a) == a == apply(a, e) for a in subset))
    return next(units, None)


def inverse(t, subset, e, a):
    """The first b in ``subset`` with ab = e = ba, or None."""
    apply = t.apply
    return next((b for b in sorted(subset) if apply(a, b) == e == apply(b, a)), None)


def associativity_witness(t, elems):
    """The first triple of ``elems``, in ``itertools.product`` order, with
    (xy)z != x(yz), or None."""
    triples = itertools.product(elems, repeat=3)
    return next(((x, y, z) for x, y, z in triples if t.apply(t.apply(x, y), z) != t.apply(x, t.apply(y, z))), None)


def is_group_on(t, subset):
    """(verdict, witness): ``subset`` is non-empty, inside the domain, closed,
    associative, with a unit and inverses, each checked in sorted order."""
    elems = sorted(subset)
    if not elems:
        return False, {"kind": "empty"}
    outside = next((x for x in elems if x not in t.domain), None)
    if outside is not None:
        return False, {"kind": "outside_domain", "element": outside}
    for x, y in itertools.product(elems, repeat=2):
        v = t.apply(x, y)
        if v is UNDEFINED or v not in subset:
            return False, {"kind": "closure", "pair": (x, y), "result": v}
    triple = associativity_witness(t, elems)
    if triple:
        return False, {"kind": "associativity", "triple": triple}
    e = identity(t, subset)
    if e is None:
        return False, {"kind": "no_unit"}
    missing = next((a for a in elems if inverse(t, elems, e, a) is None), None)
    if missing is not None:
        return False, {"kind": "missing_inverse", "element": missing}
    return True, None


def classify(t):
    """(label, unit, witness) of a total table: a magma unless the domain is
    closed and associative, a group if it is one, else a semigroup; abelian
    if no pair x < y has xy != yx."""
    domain = frozenset(t.domain)
    ok, witness = is_group_on(t, domain) if domain else (False, {"kind": "no_unit"})
    if witness and witness["kind"] in ("closure", "associativity"):
        return "magma", None, witness
    pairs = itertools.combinations(t.domain, 2)
    comm = next(((x, y) for x, y in pairs if t.apply(x, y) != t.apply(y, x)), None)
    unit = identity(t, domain)
    if ok and comm is None:
        return "abelian_group", unit, None
    if ok:
        return "group", unit, {"kind": "commutativity", "pair": comm}
    return ("abelian_semigroup" if comm is None else "semigroup"), unit, witness


def generated(t, gens):
    """The left-normed products (...((a1 a2) a3)...) ak of ``gens``."""
    out, frontier = set(gens), list(gens)
    while frontier:
        x = frontier.pop()
        for a in gens:
            v = t.apply(x, a)
            if v not in out:
                out.add(v)
                frontier.append(v)
    return out


def inverses(t, subset):
    """Each element's inverse in ``subset``, or ``group_inverses_on``'s error."""
    e = identity(t, subset)
    if e is None:
        raise ContractError(f"no identity inside the given subset of {t.name!r}")
    out = {a: inverse(t, subset, e, a) for a in sorted(subset)}
    missing = next((a for a, b in out.items() if b is None), None)
    if missing is not None:
        raise ContractError(f"{missing} has no inverse inside the given subset of {t.name!r}")
    return out


def normality(t, part):
    """The test that a subset N is normal in ``part``: g h g^-1 is defined
    and in N for every g in ``part`` and h in N.  Raises ``inverses``' error
    when ``part`` lacks an identity or an inverse."""
    apply, inv = t.apply, inverses(t, part)
    return lambda sub: all(apply(apply(g, h), inv[g]) in sub for g in part for h in sub)


def distribution_witness(union, f, g):
    """The first (x, y, z, side) over ``union`` at which f fails to
    distribute over g, left before right, skipping undefined sides."""
    for x, y, z in itertools.product(union, repeat=3):
        yz = g.apply(y, z)
        for side, lhs, a, b in (
            ("left", f.apply(x, yz), f.apply(x, y), f.apply(x, z)),
            ("right", f.apply(yz, x), f.apply(y, x), f.apply(z, x)),
        ):
            rhs = g.apply(a, b)
            if None not in (yz, lhs, a, b, rhs) and lhs != rhs:
                return (x, y, z, side)
    return None


# -- lattices ----------------------------------------------------------------


def closure(t, seed, closed=frozenset()):
    """The least superset of ``seed`` and ``closed`` holding every defined
    product of its elements, where ``closed`` already holds those of its own:
    each element is multiplied, on both sides, by every element held."""
    apply, out = t.apply, set(closed)
    frontier = [x for x in set(seed) if x not in out]
    out.update(frontier)
    while frontier:
        x = frontier.pop()
        for y in list(out):
            for v in (apply(x, y), apply(y, x)):
                if v is not UNDEFINED and v not in out:
                    out.add(v)
                    frontier.append(v)
    return frozenset(out)


def subgroups(t, carrier):
    """Every subset of ``carrier`` that holds its identity e and every defined
    product of its elements, by size, then sorted elements.  Adding the
    elements of such a set to {e} one at a time, closing after each, stays
    inside it, so the search from {e} reaches every one."""
    e = identity(t, carrier)
    if e is None:
        raise ContractError(f"no identity inside the given subset of {t.name!r}")
    found, queue = {frozenset({e})}, [frozenset({e})]
    while queue:
        current = queue.pop()
        for x in carrier - current:
            bigger = closure(t, {x}, current)
            if bigger <= carrier and bigger not in found:
                found.add(bigger)
                queue.append(bigger)
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def maximal(members, part, test):
    """The members properly inside ``part`` that pass ``test`` and lie
    properly inside no other such member, in the order given."""
    kept = [s for s in members if s < part and test(s)]
    return [s for s in kept if not any(s < k for k in kept)]


def maximal_normal_subgroups(t, carrier):
    return maximal(subgroups(t, carrier), carrier, normality(t, carrier))


def absorption(mul, rs, elements, allowed):
    """The first (r, a) whose products on either side leave ``allowed``."""
    for r in rs:
        for a in elements:
            if mul.apply(r, a) not in allowed or mul.apply(a, r) not in allowed:
                return r, a
    return None


def ideals(add, mul, carrier):
    return [s for s in subgroups(add, carrier) if absorption(mul, carrier, s, s) is None]


def zn_ideals(n):
    """The ideals of Z_n, by number theory: dZ_n for each d dividing n."""
    return {frozenset(range(0, n, d)) for d in range(1, n + 1) if n % d == 0}


def omega(n):
    """The composition length of an abelian group of order n: its number of
    prime factors with multiplicity (Jordan-Hölder)."""
    p = next((d for d in range(2, n + 1) if n % d == 0), None)
    return 0 if p is None else 1 + omega(n // p)


def maximal_ideals(add, mul, carrier):
    return maximal(ideals(add, mul, carrier), carrier, lambda s: True)


# -- ring laws ---------------------------------------------------------------


def ring_check(add, mul, carrier):
    """None when (carrier; add, mul) is a ring, else the first failure:
    additive group, commutativity, multiplicative closure, associativity,
    then left and right distributivity at each triple, over the carrier in
    its own iteration order."""
    ok, w = is_group_on(add, carrier)
    if not ok:
        return w
    for x, y in itertools.combinations(carrier, 2):
        if add.apply(x, y) != add.apply(y, x):
            return {"kind": "additive_commutativity", "pair": (x, y)}
    for x, y in itertools.product(carrier, repeat=2):
        if mul.apply(x, y) not in carrier:
            return {"kind": "multiplicative_closure", "pair": (x, y)}
    triple = associativity_witness(mul, carrier)
    if triple:
        return {"kind": "multiplicative_associativity", "triple": triple}
    A, M = add.apply, mul.apply
    for x, y, z in itertools.product(carrier, repeat=3):
        if M(x, A(y, z)) != A(M(x, y), M(x, z)):
            return {"kind": "left_distributivity", "triple": (x, y, z)}
        if M(A(x, y), z) != A(M(x, z), M(y, z)):
            return {"kind": "right_distributivity", "triple": (x, y, z)}
    return None


CROSS_LABELS = ("mixed_add_assoc", "mixed_mul_assoc", "mixed_left_distrib", "mixed_right_distrib")


def cross_violation(ai, mi, aj, mj, union):
    """The first (label, (x, y, z)) over ``union`` at which a mixed law of
    two components fails with both sides defined, or None."""
    Ai, Mi, Aj, Mj = ai.apply, mi.apply, aj.apply, mj.apply
    for x, y, z in itertools.product(union, repeat=3):
        sides = (
            (Aj(Ai(x, y), z), Ai(x, Aj(y, z))),
            (Mj(Mi(x, y), z), Mi(x, Mj(y, z))),
            (Mi(x, Aj(y, z)), Aj(Mi(x, y), Mi(x, z))),
            (Mi(Aj(y, z), x), Aj(Mi(y, x), Mi(z, x))),
        )
        for label, (lhs, rhs) in zip(CROSS_LABELS, sides):
            if lhs is not UNDEFINED and rhs is not UNDEFINED and lhs != rhs:
                return label, (x, y, z)
    return None


def cross_witness(ms):
    union = ms.element_union()
    for ci, cj in itertools.permutations(ms.components, 2):
        found = cross_violation(*(ms.op(name) for c in (ci, cj) for name in c.op_names), union)
        if found:
            return {"kind": found[0], "pair": (ci.name, cj.name), "triple": found[1]}
    return None


def is_multiideal(ms, elements, kept):
    """(verdict, witness) of the componentwise route, and the direct verdict,
    over the components ``kept``."""
    comps = [c for c in ms.components if c in kept]
    covered = {x for c in comps for x in c.carrier}
    witness = None
    for c in comps:
        add, mul = ms.op(c.add_name), ms.op(c.mul_name)
        meet = elements & frozenset(c.carrier)
        if not meet:
            continue
        ok, w = is_group_on(add, meet)
        if not ok:
            witness = {"component": c.name, "kind": "additive", **(w or {})}
            break
        pair = absorption(mul, frozenset(c.carrier), meet, meet)
        if pair:
            witness = {"component": c.name, "kind": "absorption", "pair": pair}
            break
    if witness is None and not elements <= covered:
        witness = {"kind": "uncovered_element", "element": min(elements - covered)}
    direct = elements <= covered
    union = ms.element_union()
    for c in comps:
        add, mul = ms.op(c.add_name), ms.op(c.mul_name)
        meet = elements & frozenset(c.carrier)
        if meet and not is_group_on(add, meet)[0]:
            direct = False
        if absorption(mul, union, elements, elements | {UNDEFINED}):
            direct = False
    return witness is None, witness, direct


def field_check(add, mul, carrier):
    zero = identity(add, carrier)
    if zero is None or carrier == {zero}:
        return False
    if any(mul.apply(x, y) != mul.apply(y, x) for x, y in itertools.combinations(carrier, 2)):
        return False
    return is_group_on(mul, carrier - {zero})[0]


def zero_divisors(add, mul, carrier):
    zero = identity(add, carrier)
    if zero is None:
        return ()
    pairs = itertools.product(sorted(carrier), repeat=2)
    return tuple((a, b) for a, b in pairs if zero not in (a, b) and mul.apply(a, b) == zero)


def idempotents(ms, name):
    comp = ms.component(name)
    add, mul, carrier = ms.op(comp.add_name), ms.op(comp.mul_name), frozenset(comp.carrier)
    zero, unit = identity(add, carrier), identity(mul, carrier)
    if zero is None:
        raise ContractError(f"no identity inside the given subset of {add.name!r}")
    idems = tuple(e for e in sorted(carrier) if mul.apply(e, e) == e)
    matrix = tuple(tuple(mul.apply(a, b) for b in idems) for a in idems)
    families = []
    nonzero = [e for e in idems if e != zero]
    for r in range(1, len(nonzero) + 1):
        for combo in itertools.combinations(nonzero, r):
            pairs = itertools.combinations(combo, 2)
            orthogonal = all(mul.apply(a, b) == zero == mul.apply(b, a) for a, b in pairs)
            if unit is not None and orthogonal and functools.reduce(add.apply, combo) == unit:
                families.append(combo)
    return IdempotentReport(name, idems, matrix, zero, unit, tuple(families))


def decompose_artin(ms):
    """The decomposition report of a multi-ring."""
    out = []
    for comp in ms.components:
        add, mul, carrier = ms.op(comp.add_name), ms.op(comp.mul_name), frozenset(comp.carrier)
        idem = idempotents(ms, comp.name)
        if idem.unit is None:
            raise ContractError(f"component {comp.name!r} has no multiplicative unit")
        families = idem.orthogonal_unit_families
        family = min(families, key=lambda f: (-len(f), f), default=(idem.unit,))
        right = tuple(frozenset(mul.apply(r, e) for r in carrier) for e in family)
        left = tuple(frozenset(mul.apply(e, r) for r in carrier) for e in family)
        sums = [functools.reduce(add.apply, combo) for combo in itertools.product(*right)]
        out.append(ComponentDecomposition(
            comp.name,
            family,
            right,
            all(p & q == {idem.zero} for p, q in itertools.combinations(right, 2)),
            all(functools.reduce(add.apply, [mul.apply(r, e) for e in family]) == r for r in carrier),
            len(set(sums)) == len(sums) and set(sums) == carrier,
            all(is_group_on(add, p)[0] and not absorption(mul, carrier, p, p) for p in right),
            right == left,
        ))
    return DecompositionReport(tuple(out))


def artin_depths(ms):
    """Per component (name, True, the longest chain of maximal ideals down
    from its carrier), and the longest of them."""
    per_component = []
    for comp in ms.components:
        add, mul = ms.op(comp.add_name), ms.op(comp.mul_name)

        memo = {}

        def depth(level):
            if level not in memo:
                memo[level] = max((1 + depth(s) for s in maximal_ideals(add, mul, level)), default=0)
            return memo[level]

        per_component.append((comp.name, True, depth(frozenset(comp.carrier))))
    return tuple(per_component), max(d for _, _, d in per_component)


# -- spaces --------------------------------------------------------------------


def is_completed(ms):
    pairs = itertools.product(ms.element_union(), repeat=2)
    return all(any(t.apply(x, y) is not UNDEFINED for t in ms.ops) for x, y in pairs)


def is_faithful(t, side):
    seen = {}
    for g in t.domain:
        translation = tuple(t.apply(g, a) if side == "left" else t.apply(a, g) for a in t.domain)
        if translation in seen:
            return False, (seen[translation], g)
        seen[translation] = g
    return True, None


def solve_equation(ms, a, b):
    return tuple((t.name, x) for t in ms.ops for x in t.domain if t.apply(a, x) == b)


def automorphisms(ms, permute_ops):
    """Every element bijection of the union, sorted, that carries each
    operation (or, with ``permute_ops``, some bijection of the operations
    carries it) onto its image: domain onto domain and each defined product
    onto a defined product."""
    union = ms.element_union()
    n, ops = len(union), list(ms.ops)
    pairs = [list(t.defined_pairs()) for t in ops]
    op_perms = list(itertools.permutations(range(len(ops)))) if permute_ops else [tuple(range(len(ops)))]
    found = set()
    for perm in itertools.permutations(range(n)):
        sigma = {union[i]: union[perm[i]] for i in range(n)}

        def carries(i, j):
            t, img = ops[i], ops[j]
            return (
                len(pairs[i]) == len(pairs[j])
                and all((x in t.domain) == (sigma[x] in img.domain) for x in union)
                and all(img.apply(sigma[x], sigma[y]) == sigma[v] for x, y, v in pairs[i])
            )

        if any(all(carries(i, j) for i, j in enumerate(op_perm)) for op_perm in op_perms):
            found.add(perm)
    return tuple(sorted(found))


# -- Boolean laws ------------------------------------------------------------


def boolean_laws(universe):
    """L1-L7 on the frozenset power set: the first failing tuple of each,
    subsets by size, tuples in ``itertools.product`` order."""
    n = len(universe)
    full, empty = frozenset(range(n)), frozenset()
    subsets = [frozenset(c) for r in range(n + 1) for c in itertools.combinations(range(n), r)]
    laws = [
        ("L1", "idempotent", 1, lambda a: a | a == a and a & a == a),
        ("L2", "commutative", 2, lambda a, b: a | b == b | a and a & b == b & a),
        ("L3", "associative", 3,
         lambda a, b, c: a | (b | c) == (a | b) | c and a & (b & c) == (a & b) & c),
        ("L4", "absorption", 2, lambda a, b: a & (a | b) == a and a | (a & b) == a),
        ("L5", "distributive", 3,
         lambda a, b, c: a | (b & c) == (a | b) & (a | c) and a & (b | c) == (a & b) | (a & c)),
        ("L6", "universal bound", 1,
         lambda a: empty & a == empty and empty | a == a and full & a == a and full | a == full),
        ("L7", "unary complement", 1, lambda a: a & (full - a) == empty and a | (full - a) == full),
    ]
    results = []
    for law, name, arity, holds in laws:
        witness = next((c for c in itertools.product(subsets, repeat=arity) if not holds(*c)), None)
        results.append(LawResult(law, name, witness is None, witness))
    return LawReport(universe, tuple(results))


def first_failure(sides, arity, subsets, full):
    """The first tuple of ``subsets``, in ``itertools.product`` order, at
    which a pair of ``sides(full, *tuple)`` differs, or None."""
    for combo in itertools.product(subsets, repeat=arity):
        if any(lhs != rhs for lhs, rhs in sides(full, *combo)):
            return combo
    return None


# -- vectors -------------------------------------------------------------------


def span(ambient, vectors):
    """Every linear combination of ``vectors`` over GF(p), coordinates mod p."""
    p = ambient.p
    out = {(0,) * ambient.n}
    for v in vectors:
        out = {tuple((a + c * b) % p for a, b in zip(w, v)) for w in out for c in range(p)}
    return out


def subspace_error(ambient, comp):
    """The constructor's error text for ``comp``, or None: the first
    generator without n coordinates (reduced mod p), else vectors that are
    not a set equal to the generators' span."""
    p, n = ambient.p, ambient.n
    short = next((g for g in comp.generators if len(g) != n), None)
    if short is not None:
        return f"vector {tuple(c % p for c in short)} does not have {n} coordinates"
    if comp.vectors != span(ambient, comp.generators):
        return f"component {comp.name!r} is not closed: not a subspace"
    return None


def rank(ambient, vectors):
    """Rank by column-by-column Gauss-Jordan elimination."""
    p = ambient.p
    rows = [list(v) for v in vectors]
    r = 0
    for col in range(ambient.n):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col] % p), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][col], p - 2, p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] % p:
                factor = rows[i][col]
                rows[i] = [(x - factor * y) % p for x, y in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return r


def greedy_basis(ambient, vectors):
    """The restart loop: drop the first vector whose removal keeps the rank,
    then rescan from the start, until none can go."""
    working = list(vectors)
    changed = True
    while changed:
        changed = False
        for i in range(len(working)):
            rest = working[:i] + working[i + 1 :]
            if rank(ambient, rest) == rank(ambient, working):
                working, changed = rest, True
                break
    return tuple(working)


# -- metrics -------------------------------------------------------------------


def validate_metric(t):
    """The first failing axiom on Fractions: non-negativity and definiteness
    at each entry, symmetry over i < j, then the triangle inequality."""
    n = len(t.points)
    for i, j in itertools.product(range(n), repeat=2):
        v = t.d[i][j]
        if v < 0:
            return MetricVerdict(False, "nonnegativity", (t.points[i], t.points[j]))
        if (v == 0) != (i == j):
            return MetricVerdict(False, "definiteness", (t.points[i], t.points[j]))
    for i, j in itertools.combinations(range(n), 2):
        if t.d[i][j] != t.d[j][i]:
            return MetricVerdict(False, "symmetry", (t.points[i], t.points[j]))
    for i, j, k in itertools.product(range(n), repeat=3):
        if t.d[i][j] + t.d[j][k] < t.d[i][k]:
            return MetricVerdict(False, "triangle", (t.points[i], t.points[j], t.points[k]))
    return MetricVerdict(True, None, None)


def combine_metrics(metrics, spec, samples):
    """The combined table on Fractions, with F evaluated anew at every use:
    F(0) = 0, zero only at zero, monotone and superadditive-compatible on
    ``samples``, then every entry, then the metric axioms."""
    if not metrics:
        raise ContractError("need at least one metric")
    points = metrics[0].points
    if any(t.points != points for t in metrics):
        raise ShapeError("all metrics must share one point set, in one order")
    fn = spec.function(len(metrics))
    zero = tuple(Fraction(0) for _ in metrics)
    if fn(zero) != 0:
        raise CombinatorError(f"F(0,...,0) = {fn(zero)} != 0")
    for xs in samples:
        if any(xs) and fn(xs) == 0:
            raise CombinatorError(f"zero-only-at-zero fails at {xs}")
        shrunk = tuple(x / 2 for x in xs)
        if fn(xs) < fn(shrunk):
            raise CombinatorError(f"monotonicity fails between {shrunk} and {xs}")
    for xs, ys in zip(samples, reversed(samples)):
        added = tuple(x + y for x, y in zip(xs, ys))
        if fn(xs) + fn(ys) < fn(added):
            raise CombinatorError(f"superadditivity-compatibility fails at {xs} + {ys}")
    n = len(points)
    rows = [[fn(tuple(t.d[i][j] for t in metrics)) for j in range(n)] for i in range(n)]
    combined = MetricTable.from_rows(points, rows)
    verdict = validate_metric(combined)
    if not verdict.valid:
        raise CombinatorError(f"combined table violates {verdict.axiom} at {verdict.witness}")
    return combined
