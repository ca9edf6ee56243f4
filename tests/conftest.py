import pytest

from multispace.constructions import LatinSquare, latin_multispace
from multispace.core import Component, FiniteUniverse, MultiSpace, OpTable
from multispace.multigroup import _lattice, _maximal, _series_step

from oracles import as_mask, as_set, maximal


@pytest.fixture
def paper_latin_space():
    """The 3x3 two-square space from the worked tables (symbols 1,2,3)."""
    l1 = LatinSquare(3, ((0, 1, 2), (1, 2, 0), (2, 0, 1)))
    l2 = LatinSquare(3, ((0, 1, 2), (2, 0, 1), (1, 2, 0)))
    return latin_multispace(["1", "2", "3"], [l1, l2])


def chain_of(ms, names, op_names):
    from multispace.core import ExprChain

    return ExprChain(tuple(ms.universe.index(n) for n in names), tuple(op_names))


def two_identities_space():
    """One op bound to two Z2 components with different units: its
    carrier, the first series part, has no unit."""
    u = FiniteUniverse.of(["0", "1", "2", "3"])
    rows = [[0, 1, None, None], [1, 0, None, None], [None, None, 2, 3], [None, None, 3, 2]]
    t = OpTable("*", u, (0, 1, 2, 3), rows)
    return MultiSpace(u, [Component("C1", (0, 1), ("*",)), Component("C2", (2, 3), ("*",))], [t])


def outcome(call, *args, **kwargs):
    """A call's result, or its exception's type and text."""
    try:
        return call(*args, **kwargs)
    except Exception as exc:  # compared, never swallowed
        return type(exc), str(exc)


def assert_maximal_matches_filter(lattice, part, test):
    """``_maximal`` gives the filter's answer, and calls ``test`` exactly on
    the members properly inside ``part`` and properly inside no top it
    returns, largest first."""
    tested = []

    def logged(m, gens):
        tested.append(m)
        return test(m, gens)

    got = _maximal(lattice.items(), part, logged)
    members = [as_set(m) for m in lattice]
    want = maximal(members, as_set(part), lambda s: test(as_mask(s), lattice[as_mask(s)]))
    assert got == [as_mask(s) for s in want]
    assert tested == [
        m for m in reversed(lattice) if m != part and m | part == part and not any(m != t and m | t == t for t in got)
    ]
    return got


def assert_step_matches_filter(table, carrier, keep):
    """Drive one series step on (carrier; table) from its top down through
    every part its ``maximal`` returns, each once, as the series engine
    does.  At each part the step returns the tops that
    ``assert_maximal_matches_filter`` finds on the whole lattice, and calls
    ``test`` on the members that ``_maximal`` on the whole lattice calls it
    on, in the same order.  Returns the parts reached."""
    log = []

    def logged_keep(part, gens, inverse):
        test = keep(part, gens, inverse)
        return lambda m, sub_gens: log.append(m) or test(m, sub_gens)

    maximal = _series_step("step", carrier, table, logged_keep)[3]
    lattice, inverse = _lattice(table, carrier)
    stack, reached = [as_mask(carrier)], set()
    while stack:
        part = stack.pop()
        if part in reached:
            continue
        reached.add(part)
        tops, step_log = maximal(part), log.copy()
        log.clear()
        test = keep(part, lattice[part], inverse)
        assert tops == assert_maximal_matches_filter(lattice, part, test), (sorted(carrier), as_set(part))
        _maximal(lattice.items(), part, logged_keep(part, lattice[part], inverse))
        assert log == step_log, (sorted(carrier), as_set(part))
        log.clear()
        stack.extend(tops)
    return reached


def random_predicates(rng, lattice):
    """Three seeded predicates on the members, each passing a member with
    its own chance, plus the predicates that pass all and none."""
    chances = [rng.random() for _ in range(3)]
    passing = [frozenset(m for m in lattice if rng.random() < chance) for chance in chances]
    return [lambda m, _, p=p: m in p for p in passing] + [lambda m, _: True, lambda m, _: False]
