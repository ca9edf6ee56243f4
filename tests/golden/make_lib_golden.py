"""Regenerate ``lib_sweep.json``, the golden record of the library's verdicts
and witnesses on the seeded corpora.

Each case is one line ``[call, label, result]``.  ``result`` is the call's
return value in canonical JSON form: a record becomes the dict of its
declared fields, a set becomes a sorted list, a tuple a list, and elements
stay universe indices.  The corpora are

- ``is_group_on`` and ``classify_table`` on the groups of order at most 8
  and S4, each over its domain, its subgroups and random subsets, and on
  the perturbed group tables of ``test_laws.py``;
- ``is_multiring`` on ``zn_ring_space(n)`` for n <= 12, on Z_n's addition
  with other multiplications, perturbed or not, on the ring fans and on
  the shared-zero unions;
- ``is_multigroup`` on the group fans, the Latin spaces, the
  shared-identity unions and a disjoint cyclic union, and on the a05
  corpus (the abelian groups of order at most 16, alone and in pairs);
- the series lengths and chain counts of the a05 corpus and the ideal
  chains of Z_n;
- ``automorphisms`` with both ``permute_ops`` values on every space above
  whose carrier union has at most 8 elements;
- ``check_boolean_laws`` on the universes of 0 to ``BOOLEAN_LAW_BOUND``
  elements;
- ``io.space_to_dict`` on one small space from each public union builder,
  which pins every cell of the tables it glues, and on each table of the
  group corpus as a one-component space: D_n for n <= 8, Q8, S_n for
  n <= 4, every group of order at most 8 and every abelian group of order
  at most 16, each under its corpus label.

Ring witnesses follow the iteration order of the carrier frozenset, so the
file also pins that order on each Python version that replays it.

Run from anywhere, with the package importable:

    PYTHONPATH=src python tests/golden/make_lib_golden.py

``tests/test_lib_golden.py`` replays the sweep and compares the text.  A
change to a verdict or witness regenerates the file in the same commit.
"""

from __future__ import annotations

import itertools
import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))  # the corpora live in test_laws

import test_laws as laws

from multispace.constructions import (
    abelian_groups_of_order,
    all_groups_up_to_8,
    cyclic_group_table,
    dihedral_table,
    disjoint_cyclic_union,
    fan_extension,
    partition_cyclic,
    quaternion_table,
    shared_identity_union,
    shared_zero_ring_union,
    single_component_space,
    symmetric_table,
    zn_ring_space,
    zn_ring_tables,
)
from multispace.core import Component, MultiSpace, automorphisms, classify_table, is_group_on
from multispace.foundations import BOOLEAN_LAW_BOUND, FiniteUniverse, check_boolean_laws
from multispace.io import space_to_dict
from multispace.multigroup import SERIES_UNION_BOUND, is_multigroup, series_length_profile
from multispace.multiring import is_multiring, multiideal_chain

GOLDEN = HERE / "lib_sweep.json"

# automorphisms runs only on unions this small: the search is factorial
AUTOMORPHISM_UNION = 8


def canon(value):
    """``value`` as JSON: records as dicts of their declared fields, sets sorted."""
    fields = getattr(type(value), "_fields", None)
    if fields is not None:  # a record; also a tuple, so tested first
        return {name: canon(getattr(value, name)) for name in fields}
    if isinstance(value, dict):
        return {str(k): canon(v) for k, v in value.items()}
    if isinstance(value, (set, frozenset)):
        return sorted(canon(v) for v in value)
    if isinstance(value, (tuple, list)):
        return [canon(v) for v in value]
    return value


def ring_space(add, mul, carrier) -> MultiSpace:
    """One ring component (carrier; add, mul)."""
    return MultiSpace(add.universe, [Component("R", tuple(sorted(carrier)), ("+", "*"), True)], [add, mul])


def a05_spaces():
    """(label, space, orientation): every abelian group of order at most 16
    alone, then every pair whose shared-identity union the series
    programming accepts."""
    corpus = [(name, n, t) for n in range(1, 17) for name, _, t in abelian_groups_of_order(n)]
    for name, _, t in corpus:
        yield name, shared_identity_union([t]), ["+1"]
    for (na, a, ta), (nb, b, tb) in itertools.combinations_with_replacement(corpus, 2):
        if a + b - 1 <= SERIES_UNION_BOUND:
            yield f"{na}+{nb}", shared_identity_union([ta, tb]), ["+1", "+2"]


def group_cases():
    for name, t in laws.GROUPS:
        yield "classify_table", name, classify_table(t)
        for subset in laws.group_subsets(name, t):
            yield "is_group_on", [name, sorted(subset)], is_group_on(t, subset)
    for i, (p, subsets) in enumerate(laws.perturbed_groups()):
        yield "classify_table", f"perturbed-{i}", classify_table(p)
        for subset in subsets:
            yield "is_group_on", [f"perturbed-{i}", sorted(subset)], is_group_on(p, subset)


def ring_spaces():
    for n in range(1, 13):
        yield f"Z{n}", zn_ring_space(n)
        carrier = frozenset(range(n))
        for name, add, mul in laws.ring_variants(n):
            yield name, ring_space(add, mul, carrier)
    for i, (name, add, mul, carrier) in enumerate(laws.perturbed_rings()):
        yield f"perturbed-{i}-{name}", ring_space(add, mul, carrier)
    yield from laws.ring_unions()


def group_spaces():
    yield from laws.multigroup_spaces()
    for label, ms, _ in a05_spaces():
        yield f"a05-{label}", ms


def space_cases():
    for name, ms in ring_spaces():
        yield "is_multiring", name, is_multiring(ms)
        yield from automorphism_cases(name, ms)
    for name, ms in group_spaces():
        yield "is_multigroup", name, is_multigroup(ms)
        yield from automorphism_cases(name, ms)


def automorphism_cases(name, ms):
    if len(ms.element_union()) <= AUTOMORPHISM_UNION:
        for permute_ops in (True, False):
            yield f"automorphisms(permute_ops={permute_ops})", name, automorphisms(ms, permute_ops)


def series_cases():
    for label, ms, orientation in a05_spaces():
        yield "series_length_profile", label, series_length_profile(ms, orientation)
    for n in range(1, 13):
        chain = multiideal_chain(zn_ring_space(n), ["R1"])
        yield "multiideal_chain", f"Z{n}", {"lengths": chain.lengths, "chain_count": chain.chain_count}


def law_cases():
    for n in range(BOOLEAN_LAW_BOUND + 1):
        yield "check_boolean_laws", n, check_boolean_laws(FiniteUniverse.of([f"e{i}" for i in range(n)]))


def explicit_grid(sym):
    """Products of ``sym`` with Z3 and itself, some of them undefined."""
    return {
        (sym, sym): "0", (sym, "0"): sym, ("0", sym): sym,
        (sym, "1"): "2", ("1", sym): None, (sym, "2"): None, ("2", sym): "1",
    }


def construction_cases():
    _, z2 = cyclic_group_table(2)
    _, z3 = cyclic_group_table(3)
    _, s3 = symmetric_table(3)
    _, add, mul = zn_ring_tables(3)
    _, z6 = cyclic_group_table(6, name="o")
    fresh = ["h1", "h2"]
    spaces = [
        ("disjoint_cyclic_union([2, 3])", disjoint_cyclic_union([2, 3])),
        ("shared_identity_union([Z2, Z3])", shared_identity_union([z2, z3])),
        ("shared_identity_union([S3])", shared_identity_union([s3])),
        ("shared_zero_ring_union([2, 3])", shared_zero_ring_union([2, 3])),
        ("fan_extension(Z3, absorb)", fan_extension(z3, fresh, "absorb")),
        ("fan_extension(Z3, undefined)", fan_extension(z3, fresh, "undefined")),
        ("fan_extension(Z3, explicit)", fan_extension(z3, fresh, "explicit", [explicit_grid(s) for s in fresh])),
        ("fan_extension((Z3, Z3), absorb)", fan_extension((add, mul), fresh, "absorb")),
        ("fan_extension((Z3, Z3), undefined)", fan_extension((add, mul), fresh, "undefined")),
        ("partition_cyclic(Z6)", partition_cyclic(z6, [["1", "2", "0"], ["3", "4", "5", "0"]], ["0"])),
        ("zn_ring_space(4)", zn_ring_space(4)),
    ]
    for label, ms in spaces:
        yield "space_to_dict", label, space_to_dict(ms)


def corpus_cases():
    tables = [(f"dihedral_table({n})", dihedral_table(n)[1]) for n in range(1, 9)]
    tables.append(("quaternion_table()", quaternion_table()[1]))
    tables += [(f"symmetric_table({n})", symmetric_table(n)[1]) for n in range(1, 5)]
    tables += [(f"all_groups_up_to_8() {name}", t) for name, _, t in all_groups_up_to_8()]
    tables += [
        (f"abelian_groups_of_order({n}) {name}", t) for n in range(1, 17) for name, _, t in abelian_groups_of_order(n)
    ]
    for label, t in tables:
        yield "space_to_dict", label, space_to_dict(single_component_space(t))


def sweep() -> str:
    """The golden text: one JSON case a line."""
    cases = itertools.chain(
        group_cases(), space_cases(), series_cases(), law_cases(), construction_cases(), corpus_cases()
    )
    lines = (json.dumps([call, label, canon(result)]) for call, label, result in cases)
    return "[\n" + ",\n".join(lines) + "\n]\n"


def main() -> None:
    text = sweep()
    GOLDEN.write_text(text)
    print(f"{GOLDEN.name}: {text.count(chr(10)) - 2} cases, {len(text)} bytes", file=sys.stderr)


if __name__ == "__main__":
    main()
