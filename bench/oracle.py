"""Independent expectations for the benchmark's instances.

Each function recomputes what the library must answer from the raw data the
benchmark generated: chain lengths from prime factorisations, ideal sets from
divisors, automorphism counts from Euler's phi, spans by enumeration, and
first witnesses by rescanning plain dict tables in the order the library
documents.  Nothing here imports ``multispace``.

A table is a dict mapping ``(x, y)`` to the product, with ``None`` or a
missing key for an undefined product.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


def omega(n: int) -> int:
    """Number of prime factors of n, counted with multiplicity."""
    count, d = 0, 2
    while n > 1:
        while n % d == 0:
            n //= d
            count += 1
        d += 1
    return count


def prime_exponents(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while n > 1:
        while n % d == 0:
            n //= d
            out[d] = out.get(d, 0) + 1
        d += 1
    return out


def phi(n: int) -> int:
    return sum(1 for i in range(1, n + 1) if math.gcd(i, n) == 1)


def ideal_chain_count(n: int) -> int:
    """Maximal ideal chains of Z_n: orderings of its prime factors."""
    exps = prime_exponents(n)
    return math.factorial(sum(exps.values())) // math.prod(math.factorial(e) for e in exps.values())


def divisor_ideals(n: int) -> set[frozenset[int]]:
    return {frozenset(range(0, n, d)) for d in range(1, n + 1) if n % d == 0}


def crt_pieces(n: int) -> set[frozenset[int]]:
    """The Peirce pieces of Z_n: one per prime-power factor q^a, the
    multiples of n / q^a."""
    return {frozenset(range(0, n, n // q**a)) for q, a in prime_exponents(n).items()}


def cyclic_subgroup(mul: dict, g: int) -> frozenset[int]:
    out, x = {g}, mul[(g, g)]
    while x not in out:
        out.add(x)
        x = mul[(x, g)]
    return frozenset(out)


def group_witness(mul: dict, domain, subset) -> dict | None:
    """First failure of the group axioms on ``subset``, in the order the
    library scans: domain, closure, associativity, unit, inverses."""
    elems = sorted(subset)
    if not elems:
        return {"kind": "empty"}
    dom = set(domain)
    for x in elems:
        if x not in dom:
            return {"kind": "outside_domain", "element": x}
    inside = set(elems)
    for x in elems:
        for y in elems:
            v = mul.get((x, y))
            if v is None or v not in inside:
                return {"kind": "closure", "pair": (x, y), "result": v}
    for x, y, z in itertools.product(elems, repeat=3):
        if mul[(mul[(x, y)], z)] != mul[(x, mul[(y, z)])]:
            return {"kind": "associativity", "triple": (x, y, z)}
    unit = next(
        (e for e in elems if all(mul[(e, a)] == a and mul[(a, e)] == a for a in elems)), None
    )
    if unit is None:
        return {"kind": "no_unit"}
    for a in elems:
        if not any(mul[(a, b)] == unit and mul[(b, a)] == unit for b in elems):
            return {"kind": "missing_inverse", "element": a}
    return None


def distribution_witness(union, f: dict, g: dict):
    """First fully-defined triple where f fails to distribute over g."""
    for x, y, z in itertools.product(union, repeat=3):
        yz = g.get((y, z))
        if yz is None:
            continue
        lhs, xy, xz = f.get((x, yz)), f.get((x, y)), f.get((x, z))
        if None not in (lhs, xy, xz):
            rhs = g.get((xy, xz))
            if rhs is not None and lhs != rhs:
                return (x, y, z, "left")
        lhs, yx, zx = f.get((yz, x)), f.get((y, x)), f.get((z, x))
        if None not in (lhs, yx, zx):
            rhs = g.get((yx, zx))
            if rhs is not None and lhs != rhs:
                return (x, y, z, "right")
    return None


def multigroup_expectation(union, bindings, tables: dict) -> tuple[bool, dict | None]:
    """(verdict, first witness) of the multi-group check.

    ``bindings`` lists (component, op name, carrier) in component order;
    ``tables`` maps op name to (domain, dict table).
    """
    witness = None
    groups_ok = True
    for comp, op, carrier in bindings:
        domain, mul = tables[op]
        w = group_witness(mul, domain, carrier)
        if w is not None:
            groups_ok = False
            witness = witness or {"component": comp, "op": op, **w}
    distribution_ok = True
    for a, b in itertools.combinations(sorted({op for _, op, _ in bindings}), 2):
        first = distribution_witness(union, tables[a][1], tables[b][1])
        if first is not None and distribution_witness(union, tables[b][1], tables[a][1]) is not None:
            distribution_ok = False
            witness = witness or {"kind": "distribution", "pair": (a, b), "triple": first}
    return groups_ok and distribution_ok, witness


def ring_witness(add: dict, mul: dict, domain, carrier) -> dict | None:
    """First failure of the ring axioms, in the library's scan order."""
    w = group_witness(add, domain, carrier)
    if w is not None:
        return {"kind": "additive_group", **w}
    for x, y in itertools.combinations(carrier, 2):
        if add[(x, y)] != add[(y, x)]:
            return {"kind": "additive_commutativity", "pair": (x, y)}
    inside = set(carrier)
    for x in carrier:
        for y in carrier:
            if mul.get((x, y)) not in inside:
                return {"kind": "multiplicative_closure", "pair": (x, y)}
    for x, y, z in itertools.product(carrier, repeat=3):
        if mul[(mul[(x, y)], z)] != mul[(x, mul[(y, z)])]:
            return {"kind": "multiplicative_associativity", "triple": (x, y, z)}
    for x, y, z in itertools.product(carrier, repeat=3):
        if mul[(x, add[(y, z)])] != add[(mul[(x, y)], mul[(x, z)])]:
            return {"kind": "left_distributivity", "triple": (x, y, z)}
        if mul[(add[(x, y)], z)] != add[(mul[(x, z)], mul[(y, z)])]:
            return {"kind": "right_distributivity", "triple": (x, y, z)}
    return None


def classify(mul: dict, domain) -> str:
    """Strongest of magma/semigroup/abelian_semigroup/group/abelian_group
    for a total table."""
    dom = list(domain)
    if any(mul[(x, y)] not in set(dom) for x in dom for y in dom):
        return "magma"
    if any(
        mul[(mul[(x, y)], z)] != mul[(x, mul[(y, z)])] for x, y, z in itertools.product(dom, repeat=3)
    ):
        return "magma"
    abelian = all(mul[(x, y)] == mul[(y, x)] for x, y in itertools.combinations(dom, 2))
    lefts = [e for e in dom if all(mul[(e, a)] == a for a in dom)]
    rights = [e for e in dom if all(mul[(a, e)] == a for a in dom)]
    if lefts and rights:
        unit = lefts[0]
        if all(any(mul[(a, b)] == unit and mul[(b, a)] == unit for b in dom) for a in dom):
            return "abelian_group" if abelian else "group"
    return "abelian_semigroup" if abelian else "semigroup"


def is_normal_in(mul: dict, carrier, sub) -> bool:
    """Conjugation test of ``sub`` inside the group (carrier; mul)."""
    e = next(x for x in carrier if all(mul[(x, a)] == a for a in carrier))
    for g in carrier:
        ginv = next(b for b in carrier if mul[(g, b)] == e)
        if any(mul[(mul[(g, h)], ginv)] not in sub for h in sub):
            return False
    return True


# -- linear algebra over GF(p) --------------------------------------------

def rank(p: int, vectors) -> int:
    rows = [list(v) for v in vectors]
    r = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col] % p), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][col], p - 2, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] % p:
                f = rows[i][col]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def span_set(p: int, n: int, vectors) -> frozenset:
    """Every linear combination, enumerated from an independent subset."""
    basis: list = []
    for v in vectors:
        if rank(p, basis + [v]) > len(basis):
            basis.append(v)
    out = set()
    for coeffs in itertools.product(range(p), repeat=len(basis)):
        out.add(tuple(sum(c * v[i] for c, v in zip(coeffs, basis)) % p for i in range(n)))
    return frozenset(out) if basis else frozenset({(0,) * n})


def dependence_certificate(p: int, vectors):
    """Least non-trivial scalar tuple (in product order) combining to zero."""
    n = len(vectors[0])
    for scalars in itertools.product(range(p), repeat=len(vectors)):
        if any(scalars) and all(
            sum(c * v[i] for c, v in zip(scalars, vectors)) % p == 0 for i in range(n)
        ):
            return scalars
    return None


def dim_formula_value(p: int, spans) -> int:
    total = 0
    for r in range(1, len(spans) + 1):
        for combo in itertools.combinations(spans, r):
            d = rank(p, frozenset.intersection(*combo))
            total += d if r % 2 else -d
    return total


# -- metrics -----------------------------------------------------------------

def metric_witness(points, d) -> tuple[str | None, tuple | None]:
    """(axiom, witness) of the first metric-axiom failure, or (None, None)."""
    n = len(points)
    for i in range(n):
        for j in range(n):
            if d[i][j] < 0:
                return "nonnegativity", (points[i], points[j])
            if (d[i][j] == 0) != (i == j):
                return "definiteness", (points[i], points[j])
    for i in range(n):
        for j in range(i + 1, n):
            if d[i][j] != d[j][i]:
                return "symmetry", (points[i], points[j])
    for i, j, k in itertools.product(range(n), repeat=3):
        if d[i][j] + d[j][k] < d[i][k]:
            return "triangle", (points[i], points[j], points[k])
    return None, None


def combine(kind: str, weights, xs) -> Fraction:
    if kind == "sum":
        return sum(xs, Fraction(0))
    if kind == "weighted_sum":
        return sum((w * x for w, x in zip(weights, xs)), Fraction(0))
    if kind == "bounded_sum":
        return sum((x / (1 + x) for x in xs), Fraction(0))
    return max(xs)
