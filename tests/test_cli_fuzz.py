"""CLI fuzz: mutated fixture files and argument lists, run in-process.

Every run must end in exit code 0, 1 or 2 with no exception escaping
``cli.main``.  The CLI registers its analysis modules lazily, so this also
reaches names that load on first use along paths no other test takes.
"""

import contextlib
import io as stdio
import json
import pathlib

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from multispace import cli

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
FIXTURE_DATA = {p.name: json.loads(p.read_text()) for p in sorted(FIXTURES.iterdir())}
SYMBOLS = sorted(
    {s for data in FIXTURE_DATA.values() for s in data.get("universe", ())}
    | {p for data in FIXTURE_DATA.values() for c in data.get("components", ()) for p in c.get("points", ())}
    | {"e", "zz", ""}
)
OP_NAMES = ["+", "*", "+1", "+2", "x1", "x2", "C1", "C2", "R1", "nope"]

leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 7),
    st.sampled_from(SYMBOLS),
    st.just([]),
    st.just({}),
    st.lists(st.integers(0, 3), max_size=3),
)


def _paths(node, prefix=()):
    yield prefix
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, prefix + (key,))


def _mutate(data, draw) -> str:
    """The fixture's text after one random edit: a replaced or deleted node, or a cut."""
    how = draw(st.sampled_from(["keep", "replace", "delete", "truncate"]))
    data = json.loads(json.dumps(data))
    if how in ("replace", "delete"):
        path = draw(st.sampled_from(list(_paths(data))[1:]))
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        if how == "replace":
            parent[path[-1]] = draw(leaves)
        else:
            del parent[path[-1]]
    text = json.dumps(data, indent=2) + "\n"
    if how == "truncate":
        text = text[: draw(st.integers(0, len(text) - 1))]
    return text


def _names(data) -> list[str]:
    """The element or point names of a fixture, so that subsets and tails often resolve."""
    names = data.get("universe") or [p for c in data.get("components", ()) for p in c.get("points", ())]
    return sorted(set(names)) or SYMBOLS


def _comma_list(draw, *choices) -> str:
    names = st.one_of(*(st.sampled_from(c) for c in choices))
    return ",".join(draw(st.lists(names, min_size=1, max_size=4)))


# the fixture each route reads when it succeeds; any fixture may still be
# drawn, and the route's own comes first when shrinking
PREFERRED = {
    ("check", "auto"): "z8_group.mspace.json",
    ("check", "multispace"): "latin3.mspace.json",
    ("check", "multigroup"): "z8_group.mspace.json",
    ("check", "multiring"): "z6_ring.mspace.json",
    ("check", "multivector"): "three_lines.vector.json",
    ("check", "multimetric"): "two_component.metric.json",
    ("analyze", "cosets"): "z4z6_group.mspace.json",
    ("analyze", "series"): "z8_group.mspace.json",
    ("analyze", "ideal-chain"): "z6_ring.mspace.json",
    ("analyze", "decompose"): "z12_ring.mspace.json",
    ("analyze", "dim"): "three_lines.vector.json",
    ("analyze", "automorphisms"): "latin3.mspace.json",
    ("analyze", "fixed-point"): "two_component.metric.json",
    ("analyze", "sequence"): "two_component.metric.json",
    # construct reads no file
    **{("construct", kind): "z8_group.mspace.json" for kind in cli.CONSTRUCTIONS},
}
# (command, target, preferred fixture) for every route in the CLI's tables;
# a route with no preferred fixture fails at collection
ROUTES = [
    (command, target, PREFERRED[command, target])
    for command, targets in [
        ("check", ["auto", *cli.LEVELS]),
        ("analyze", cli.ANALYSES),
        ("construct", cli.CONSTRUCTIONS),
    ]
    for target in targets
]

ANALYZE_OPTIONS = {
    "--sub": lambda draw, path, names: _comma_list(draw, names, SYMBOLS),
    "--sub-ops": lambda draw, path, names: _comma_list(draw, OP_NAMES),
    "--orientation": lambda draw, path, names: _comma_list(draw, OP_NAMES),
    "--map": lambda draw, path, names: draw(st.sampled_from([str(FIXTURES / "two_constants.map.json"), path])),
    "--prefix": lambda draw, path, names: _comma_list(draw, names, SYMBOLS),
    "--tail": lambda draw, path, names: _comma_list(draw, names, SYMBOLS),
    "--tail-kind": lambda draw, path, names: draw(st.sampled_from(["constant", "periodic"])),
}
# the option an analysis cannot run without is always given
REQUIRED_OPTION = {"cosets": "--sub", "fixed-point": "--map", "sequence": "--tail"}

# first value of each parameter is a valid one
CONSTRUCT_VALUES = {
    "n": ["2", "1", "3", "x"],
    "k": ["1", "0", "2", "99"],
    "seed": ["0", "5", "-1"],
    "orders": ["3,3", "2,4", "0", "", "a"],
    "base": ["Z2", "Z3", "Z0", "Q8"],
    "policy": ["absorb", "undefined", "bogus"],
    "modulus": ["6", "4", "0"],
    "blocks": ["1,2,0|3,4,5,0", "o1,o2,o0|o3,o4,o5,o0", "|", "a"],
    "core": ["0", "o0", "zz"],
}
# the parameters a construction cannot run without are always given
CONSTRUCT_REQUIRED = {
    "latin": ("n", "k"),
    "fan": ("base", "n"),
    "cyclic_union": ("orders",),
    "partition_cyclic": ("modulus", "blocks", "core"),
}


def _arguments(draw, route, path: str, names: list[str], out: str) -> list[str]:
    command, target, _ = route
    argv = ["--json"] if draw(st.booleans()) else []
    if command == "check":
        argv += ["check", path, "--level", target]
    elif command == "analyze":
        argv += ["analyze", target, path]
        for flag in sorted(ANALYZE_OPTIONS):
            if flag == REQUIRED_OPTION.get(target) or draw(st.booleans()):
                argv += [flag, ANALYZE_OPTIONS[flag](draw, path, names)]
        if draw(st.booleans()):
            argv.append("--no-permute-ops")
    else:
        extra = draw(st.lists(st.sampled_from(sorted(CONSTRUCT_VALUES)), unique=True, max_size=3))
        keys = dict.fromkeys([*CONSTRUCT_REQUIRED[target], *extra])
        params = [f"{key}={draw(st.sampled_from(CONSTRUCT_VALUES[key]))}" for key in keys]
        argv += ["construct", target, *params, "--out", out]
    return argv


def _run(argv: list[str]) -> tuple[int, str]:
    out, err = stdio.StringIO(), stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the argument list
            code = exc.code
    return code, err.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("route", ROUTES, ids=lambda route: "-".join(route[:2]))
@settings(max_examples=6, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_cli_exit_codes_on_mutated_inputs(workdir, route, data):
    name = data.draw(st.one_of(st.just(route[2]), st.sampled_from(sorted(FIXTURE_DATA))))
    path = workdir / name
    path.write_text(_mutate(FIXTURE_DATA[name], data.draw))
    argv = _arguments(data.draw, route, str(path), _names(FIXTURE_DATA[name]), str(workdir / "out.mspace.json"))
    code, err = _run(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
